//! The shared-nothing cluster engine (paper §5.2 and Figure 4) — the one
//! control plane, whether its shards are local or remote.
//!
//! Each shard models one machine: it owns its **own replica of the graph**
//! (the paper replicates `G` and `ES` to every machine via distributed
//! cache), a **private `BD` store** covering its source partition `Π_i` (in
//! memory, or its own on-disk file — "the disk access workload is
//! distributed in a balanced fashion across multiple disks") and a
//! **partial score vector** (the map output `⟨id, pbc_s(id)⟩ ∀ id,
//! ∀ s ∈ Π_i`). The engine reaches it through the [`Shard`] trait: a
//! session's shards are local [`ShardState`]s, and the `ebc-cluster` fleet
//! coordinator is this engine over `RemoteShard`s, each a replication
//! group of nodes holding the same `ShardState` behind a transport.
//!
//! The engine owns its `p` shards and runs each call's per-shard work under
//! [`std::thread::scope`]: shard 0 on the calling thread, the others on
//! scoped threads, so a one-shard engine — the single machine — spawns
//! nothing. Beside the shards it keeps a *validation replica*, a [`Graph`]
//! every update folds into first ([`Update::fold_into`]) so that a refusal
//! touches no shard, and a versioned [`ShardMap`] — the single ownership
//! authority for bootstrap partitioning, adoption of arriving vertices and
//! handoffs.
//!
//! * **Writes.** [`ClusterEngine::apply_prefix`] is two steps.
//!   [`ClusterEngine::fold`] folds updates into the validation replica
//!   until the first one it refuses, letting the map adopt each arriving
//!   vertex; [`ClusterEngine::run`] then runs that prefix in one scoped
//!   round: every shard applies it update by update on its own replica
//!   ([`Shard::apply`]), with no barrier between updates. A caller that
//!   journals write-ahead (the fleet coordinator) does so between the two.
//! * **Reads.** [`ClusterEngine::reduce`] folds the partials in ascending
//!   shard order ([`Scores::fold`], `t_M` of §5.3) — deterministic for a
//!   fixed worker count, bitwise dependent on it.
//!   [`ClusterEngine::reduce_exact`] adds every shard's [`ExactSum`]:
//!   bitwise identical across worker counts, store backends, the fleet,
//!   and the single-machine [`ebc_core::state::BetweennessState`].
//!   [`ClusterEngine::take_score_delta`] reads the vertices any shard
//!   marked dirty from the same ascending-shard fold.
//! * **Failure.** A validation failure (an update the replica refuses, a
//!   move the map cannot record) is `Invalid` and touches no shard. Shard
//!   work runs under `catch_unwind`, shard 0's too; a shard error or panic
//!   — a store error locally, a node's refusal or a lost replication group
//!   remotely — poisons the engine: that call returns it, and every later
//!   call answers `Lost`. A caller whose own step between fold and run
//!   fails poisons it too ([`ClusterEngine::poison`]): the replica is then
//!   ahead of every shard.

use crate::shardmap::{ShardMap, SourceMove};
use ebc_core::api::{RebalanceOutcome, Reduced};
use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::exact::ExactSum;
use ebc_core::incremental::UpdateConfig;
use ebc_core::rankindex::ScoreDelta;
use ebc_core::scores::Scores;
use ebc_core::shard::{Shard, ShardState};
use ebc_core::state::Update;
use ebc_graph::{Error, Graph, VertexId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Timing breakdown of one parallel update (the quantities of §5.3).
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Busy time of the slowest shard (the map phase critical path).
    pub map_wall: Duration,
    /// Per-shard busy times, each timed by its shard.
    pub per_worker: Vec<Duration>,
    /// Sum of all shard busy times (the "cumulative execution time" the
    /// paper compares against Brandes in Figure 6).
    pub cumulative: Duration,
    /// Shard that adopted a newly arrived vertex, if the update grew the
    /// graph (the pinned rule of [`ShardMap::adopt`]).
    pub adopter: Option<usize>,
}

/// What [`ClusterEngine::fold`] accepted, for [`ClusterEngine::run`].
#[must_use = "folded updates must run on the shards"]
#[derive(Debug)]
pub struct Folded {
    /// Each accepted update, in order, with the shard adopting its
    /// arriving vertex.
    pub steps: Vec<(Update, Option<usize>)>,
    /// The refusal of the first update the replica turned down; nothing
    /// after it was folded.
    pub refused: Option<Error>,
}

/// A shared-nothing cluster of `p` shards.
pub struct ClusterEngine<H: Shard = ShardState<MemoryBdStore>> {
    shards: Vec<H>,
    /// The validation replica: every update folds in here before any shard
    /// sees it, so a refusal touches no shard.
    replica: Graph,
    /// The source→shard ownership authority; mirrors the shards' store
    /// membership move for move.
    map: ShardMap,
    /// Whether [`ClusterEngine::take_score_delta`] has handed out its dense
    /// baseline.
    published: bool,
    /// First unrecoverable failure; sticky.
    dead: Option<String>,
}

/// `work` on shard `k`, a panic caught as `Lost`.
fn guarded<H: Shard, T>(
    k: usize,
    shard: &mut H,
    work: impl FnOnce(usize, &mut H) -> Result<T, Error>,
) -> Result<T, Error> {
    catch_unwind(AssertUnwindSafe(|| work(k, shard)))
        .unwrap_or_else(|_| Err(Error::lost(format!("shard {k} panicked"))))
}

/// Run `work` on every shard — shard 0 on the calling thread, the others on
/// scoped threads — and return the results in shard order; the first
/// failure in shard order wins once every shard is done. A thread the OS
/// refuses is `Io` (the shards already started still finish).
fn on_every_shard<H: Shard, T: Send>(
    shards: &mut [H],
    work: impl Fn(usize, &mut H) -> Result<T, Error> + Sync,
) -> Result<Vec<T>, Error> {
    let work = &work;
    let Some((first, rest)) = shards.split_first_mut() else {
        return Ok(Vec::new());
    };
    std::thread::scope(|scope| {
        let mut spawned = Vec::with_capacity(rest.len());
        for (k, shard) in (1..).zip(rest) {
            spawned.push(
                std::thread::Builder::new()
                    .name(format!("ebc-shard-{k}"))
                    .spawn_scoped(scope, move || guarded(k, shard, work)),
            );
        }
        let mut results = vec![guarded(0, first, work)];
        for thread in spawned {
            results.push(match thread {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|_| Err(Error::lost("a shard thread panicked"))),
                Err(refused) => Err(refused.into()),
            });
        }
        results.into_iter().collect()
    })
}

/// Bring every shard's partial up to date in one round (a remote shard
/// reads its leader's), so that [`read_partials`] after it costs nothing.
fn refresh_partials<H: Shard>(shards: &mut [H]) -> Result<(), Error> {
    on_every_shard(shards, |_, shard| shard.partial().map(drop)).map(drop)
}

/// Every shard's partial, in shard order.
fn read_partials<H: Shard>(shards: &mut [H]) -> Result<Vec<&Scores>, Error> {
    shards.iter_mut().map(H::partial).collect()
}

impl ClusterEngine {
    /// Bootstrap a `p`-shard cluster with in-memory stores.
    pub fn new(graph: &Graph, p: usize) -> Result<Self, Error> {
        Self::new_with(graph, p, UpdateConfig::default(), |_shard, n| {
            Ok(MemoryBdStore::new(n))
        })
    }
}

impl<S: BdStore> ClusterEngine<ShardState<S>> {
    /// Bootstrap with a custom per-shard store factory (e.g. one
    /// `ebc_store::DiskBdStore` file per shard, mirroring one disk per
    /// machine): the map's contiguous bootstrap ranges, each shard's
    /// Brandes partition run in parallel.
    pub fn new_with(
        graph: &Graph,
        p: usize,
        cfg: UpdateConfig,
        mut store_factory: impl FnMut(usize, usize) -> Result<S, Error>,
    ) -> Result<Self, Error> {
        let n = graph.n();
        // the map's bootstrap layout is bit-identical to partition_ranges
        let map = ShardMap::bootstrap(n, p);
        let shards = (0..map.num_shards())
            .map(|k| {
                Ok(ShardState::new(
                    store_factory(k, n)?,
                    graph.clone(),
                    cfg.clone(),
                ))
            })
            .collect::<Result<_, Error>>()?;
        Self::start(graph, shards, map, |shard, owned| shard.bootstrap(owned))
    }

    /// Restart a cluster from previously persisted per-shard stores
    /// **without re-running the Brandes bootstrap**: each shard rehydrates
    /// its partial scores from its own recovered `BD[·]` records (the
    /// facade's `Session::open` passes `ebc_store::ShardSet::open(dir)`'s
    /// stores here).
    ///
    /// The source→shard map is rebuilt from the stores' membership lists and
    /// stamped with `map_version`, so adoption and rebalance continue
    /// exactly where the killed incarnation stopped. Requirements checked
    /// (a violation is `Corrupt`): the union of the stores' sources covers
    /// each vertex id exactly once, and every store is shaped for
    /// `graph.n()` vertices and sums exactly the sources it owns
    /// ([`Shard::resume`]). [`ClusterEngine::reduce_exact`] on the
    /// resumed engine is bitwise identical to the pre-kill value, and
    /// [`ClusterEngine::brandes_runs`] starts at 0.
    pub fn resume(
        graph: &Graph,
        cfg: UpdateConfig,
        stores: Vec<S>,
        map_version: u64,
    ) -> Result<Self, Error> {
        let n = graph.n();
        let owned: Vec<Vec<VertexId>> = stores.iter().map(|s| s.sources()).collect();
        if let Some(&s) = owned.iter().flatten().find(|&&s| s as usize >= n) {
            return Err(
                Error::corrupt(format!("recovered source {s} outside the graph's 0..{n}"))
                    .with_source(s),
            );
        }
        let total: usize = owned.iter().map(Vec::len).sum();
        if total != n {
            return Err(Error::corrupt(format!(
                "recovered stores own {total} sources, graph has {n}"
            )));
        }
        let map = ShardMap::from_assignment_versioned(owned, map_version)
            .map_err(|e| Error::corrupt(format!("recovered stores: {}", e.context())))?;
        // each shard gets its own clone of the graph, which keeps the
        // snapshot's exact neighbour order: a resumed engine's sums are
        // bitwise the killed incarnation's
        let shards = stores
            .into_iter()
            .map(|store| ShardState::new(store, graph.clone(), cfg.clone()))
            .collect();
        let engine = Self::start(graph, shards, map, |shard, owned| shard.resume(owned.len()))?;
        debug_assert_eq!(engine.brandes_runs(), 0, "resume must not run Brandes");
        Ok(engine)
    }
}

impl<H: Shard> ClusterEngine<H> {
    /// Assemble an engine over `shards`, one per shard of `map`, and open
    /// every shard in one round with the sources the map assigns it
    /// (`open`: a Brandes bootstrap, or taking over existing state). The
    /// validation replica is a clone of `graph`; a map of another shard
    /// count is `Invalid`.
    pub fn start(
        graph: &Graph,
        mut shards: Vec<H>,
        map: ShardMap,
        open: impl Fn(&mut H, &[VertexId]) -> Result<u64, Error> + Sync,
    ) -> Result<Self, Error> {
        if shards.len() != map.num_shards() {
            return Err(Error::invalid(format!(
                "{} shards for a map of {}",
                shards.len(),
                map.num_shards()
            )));
        }
        on_every_shard(&mut shards, |k, shard| open(shard, map.sources_of(k)))?;
        Ok(ClusterEngine {
            shards,
            replica: graph.clone(),
            map,
            published: false,
            dead: None,
        })
    }

    /// Number of shards (the map-phase workers).
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices in the replica.
    pub fn n(&self) -> usize {
        self.replica.n()
    }

    /// The engine's validation replica of the evolving graph (every shard
    /// holds an identical one of its own).
    pub fn graph(&self) -> &Graph {
        &self.replica
    }

    /// Per-shard owned-source counts (the map's; sums to `n`).
    pub fn source_counts(&self) -> &[usize] {
        self.map.counts()
    }

    /// Sum of per-shard source counts (sanity: equals current n).
    pub fn total_sources(&self) -> usize {
        self.map.total()
    }

    /// The source→shard map (ownership, skew, version).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Brandes single-source iterations the shards have run for this
    /// engine: `n` right after a fresh bootstrap (plus one per adopted
    /// arrival since), and **0** right after [`ClusterEngine::resume`] —
    /// the counter the durable-restart suite asserts on.
    pub fn brandes_runs(&self) -> u64 {
        self.shards.iter().map(H::brandes_runs).sum()
    }

    fn ensure_live(&self) -> Result<(), Error> {
        match &self.dead {
            Some(why) => Err(Error::lost(format!("engine poisoned: {why}"))),
            None => Ok(()),
        }
    }

    /// Poison the engine with `e` and pass `e` on: every later call answers
    /// `Lost`. The engine does this on every shard failure; a caller does
    /// it when its own step between [`ClusterEngine::fold`] and
    /// [`ClusterEngine::run`] failed, leaving the replica ahead of every
    /// shard. The first poison is kept as the reason.
    pub fn poison(&mut self, e: Error) -> Error {
        self.dead.get_or_insert_with(|| e.to_string());
        e
    }

    /// A shard-side result: its error poisons the engine.
    fn poisoning<T>(&mut self, result: Result<T, Error>) -> Result<T, Error> {
        result.map_err(|e| self.poison(e))
    }

    /// `work` on shard `k` on the calling thread, under the panic and
    /// poison rules of every shard call.
    fn on_shard<T>(
        &mut self,
        k: usize,
        work: impl FnOnce(&mut H) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let result = guarded(k, &mut self.shards[k], |_, shard| work(shard));
        self.poisoning(result)
    }

    /// First step of [`ClusterEngine::apply_prefix`]: fold `updates` into
    /// the validation replica ([`Update::fold_into`]) until the first one
    /// it refuses, and give each arriving vertex an owner
    /// ([`ShardMap::adopt`]). No shard is touched. The replica is now
    /// ahead of every shard until [`ClusterEngine::run`] takes the result.
    pub fn fold(&mut self, updates: &[Update]) -> Result<Folded, Error> {
        self.ensure_live()?;
        let mut folded = Folded {
            steps: Vec::with_capacity(updates.len()),
            refused: None,
        };
        for &update in updates {
            let arriving = match update.fold_into(&mut self.replica) {
                Ok((arriving, _)) => arriving,
                Err(e) => {
                    folded.refused = Some(e);
                    break;
                }
            };
            // the arriving id is fresh by construction: an owned id here
            // means map and replica diverged
            let adopter = arriving.map(|s| self.map.adopt(s)).transpose();
            folded.steps.push((update, self.poisoning(adopter)?));
        }
        Ok(folded)
    }

    /// Second step of [`ClusterEngine::apply_prefix`]: run the folded
    /// updates in one scoped round — every shard applies them update by
    /// update on its own replica ([`Shard::apply`]), with no barrier
    /// between updates. Returns one report per update; a shard failure (a
    /// store or node error, or a shard replica that refuses what the
    /// validation replica accepted) poisons the engine.
    pub fn run(&mut self, folded: Folded) -> Result<Vec<ApplyReport>, Error> {
        self.ensure_live()?;
        let steps = &folded.steps;
        if steps.is_empty() {
            return Ok(Vec::new());
        }
        let busy = on_every_shard(&mut self.shards, |k, shard| {
            steps
                .iter()
                .map(|&(update, adopter)| {
                    let t0 = Instant::now();
                    shard.apply(update, adopter == Some(k))?;
                    Ok(t0.elapsed())
                })
                .collect::<Result<Vec<Duration>, Error>>()
        });
        let busy = self.poisoning(busy)?;
        let reports = steps
            .iter()
            .enumerate()
            .map(|(i, &(_, adopter))| {
                let per_worker: Vec<Duration> = busy.iter().map(|shard| shard[i]).collect();
                ApplyReport {
                    map_wall: per_worker.iter().copied().max().unwrap_or_default(),
                    cumulative: per_worker.iter().sum(),
                    per_worker,
                    adopter,
                }
            })
            .collect();
        Ok(reports)
    }

    /// Apply the longest prefix of `updates` the replica accepts:
    /// [`ClusterEngine::fold`], then [`ClusterEngine::run`].
    ///
    /// Returns one report per applied update beside the refusal of the
    /// first update the replica turned down: the prefix before it is
    /// applied on every shard, so a journaling layer records exactly
    /// `reports.len()` updates. The outer `Err` is a shard failure, which
    /// poisons the engine.
    pub fn apply_prefix(
        &mut self,
        updates: &[Update],
    ) -> Result<(Vec<ApplyReport>, Option<Error>), Error> {
        let mut folded = self.fold(updates)?;
        let refused = folded.refused.take();
        Ok((self.run(folded)?, refused))
    }

    /// Apply one update on all shards in parallel (the map phase). The
    /// slowest shard's busy time is the update's critical path.
    pub fn apply(&mut self, update: Update) -> Result<ApplyReport, Error> {
        let mut reports = self.apply_stream(std::slice::from_ref(&update))?;
        Ok(reports.remove(0))
    }

    /// Apply a batch of updates ([`ClusterEngine::apply_prefix`]): a
    /// refused update is returned once the prefix before it completed, and
    /// the engine stays consistent and usable.
    pub fn apply_stream(&mut self, updates: &[Update]) -> Result<Vec<ApplyReport>, Error> {
        let (reports, refused) = self.apply_prefix(updates)?;
        refused.map_or(Ok(reports), Err)
    }

    /// Execute one checked source handoff: the donor exports (journal +
    /// removal inside its private store), the recipient imports, the map
    /// commits, and the donor's export is retired — the live rendition of
    /// the `ebc-store` `ShardSet` protocol. Shard-side failures poison the
    /// engine (the move may be half-applied).
    fn execute_move(&mut self, mv: SourceMove) -> Result<(), Error> {
        let record = self.on_shard(mv.from, |donor| donor.export(mv.source, mv.to as u64))?;
        self.on_shard(mv.to, |recipient| recipient.import(record))?;
        // map commit, then retire the donor's export (same order as the
        // at-rest protocol: commit before cleanup)
        let committed = self.map.apply_move(&mv);
        self.poisoning(committed)?;
        self.on_shard(mv.from, |donor| donor.retire(mv.source))
    }

    /// Hand one source to the given shard (an explicit, out-of-plan move —
    /// e.g. draining a machine). A move the map cannot record
    /// ([`ShardMap::move_to`]) is `Invalid` before any shard is touched.
    /// Scores are unaffected: the exact reduce is bitwise invariant to
    /// ownership, and the fast reduce's partial sums still cover every
    /// source exactly once.
    pub fn handoff(&mut self, source: VertexId, to: usize) -> Result<RebalanceOutcome, Error> {
        self.ensure_live()?;
        let mv = self.map.move_to(source, to)?;
        self.execute_move(mv)?;
        Ok(RebalanceOutcome {
            moves: vec![(source, mv.from, to)],
            threshold: 0,
            map_version: self.map.version(),
        })
    }

    /// Restore the owned-source skew invariant: compute the map's
    /// deterministic plan for `threshold` (see
    /// [`ShardMap::plan_rebalance`]) and execute it move by move through
    /// the handoff path. After success `max − min ≤ threshold` across
    /// shards, and the map version has advanced once per move.
    pub fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        self.ensure_live()?;
        let plan = self.map.plan_rebalance(threshold);
        for &mv in &plan.moves {
            self.execute_move(mv)?;
        }
        debug_assert!(self.map.skew() <= plan.threshold);
        Ok(RebalanceOutcome {
            moves: plan
                .moves
                .iter()
                .map(|mv| (mv.source, mv.from, mv.to))
                .collect(),
            threshold: plan.threshold,
            map_version: self.map.version(),
        })
    }

    /// Reduce phase (the paper's `t_M`): the shards' partials folded in
    /// ascending shard order ([`Scores::fold`]). Returns the scores together
    /// with the reduce's wall-clock time ([`Reduced`]).
    ///
    /// Deterministic for a fixed shard count; across different `p` the
    /// result varies in the last bits (floating-point summation order) — use
    /// [`ClusterEngine::reduce_exact`] for the partition-invariant value.
    pub fn reduce(&mut self) -> Result<Reduced, Error> {
        self.ensure_live()?;
        let t0 = Instant::now();
        let (n, edge_slots) = (self.replica.n(), self.replica.edge_slots());
        let refreshed = refresh_partials(&mut self.shards);
        self.poisoning(refreshed)?;
        let scores = match read_partials(&mut self.shards) {
            Ok(partials) => Scores::fold(n, edge_slots, partials),
            Err(e) => return Err(self.poison(e)),
        };
        Ok(Reduced {
            scores,
            wall: t0.elapsed(),
        })
    }

    /// Partition-invariant exact reduce: every shard sums its owned
    /// sources' contributions from the `BD` records into one [`ExactSum`]
    /// over its own replica (in parallel); each sum is checked against the
    /// shard map and the validation replica's shape (a missing or doubled
    /// source, or a diverged replica, is `Corrupt`) and added. Bitwise
    /// identical across shard counts, store backends, the fleet, and
    /// [`ebc_core::state::BetweennessState::exact_scores`] — the oracle the
    /// consistency suite pins the engine against.
    pub fn reduce_exact(&mut self) -> Result<Reduced, Error> {
        self.ensure_live()?;
        let t0 = Instant::now();
        let sums = on_every_shard(&mut self.shards, |_, shard| shard.exact_sum());
        let sums = self.poisoning(sums)?;
        let (n, edge_slots) = (self.replica.n(), self.replica.edge_slots());
        let mut total = ExactSum::new(n, edge_slots);
        for (k, sum) in sums.iter().enumerate() {
            let owned = self.map.sources_of(k).len();
            let checked = sum
                .check(owned, n, edge_slots)
                .map_err(|e| e.within(format!("shard {k}")));
            self.poisoning(checked)?;
            total.merge(sum);
        }
        Ok(Reduced {
            scores: total.into_scores(),
            wall: t0.elapsed(),
        })
    }

    /// Drain what changed in the fast-path scores since the last drain, for
    /// incremental [`ebc_core::rankindex::RankIndex`] maintenance.
    ///
    /// The first drain is a dense baseline. After it, the union of the
    /// shards' dirty sets (in ascending id order, so fresh vertices extend
    /// an index densely) is read from the ascending-shard fold — bitwise
    /// the value [`ClusterEngine::reduce`] reports, in `O(dirty · p)` — so
    /// applying every drained delta in order reproduces the fast-path
    /// vector bit for bit.
    pub fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        self.ensure_live()?;
        // a shard learns which vertices changed when its partial is read
        // (a remote one fetches both), so every partial is refreshed before
        // any dirty set drains; the read below costs nothing
        let refreshed = refresh_partials(&mut self.shards);
        self.poisoning(refreshed)?;
        let mut dirty: Vec<VertexId> = self.shards.iter_mut().flat_map(H::drain_dirty).collect();
        let n = self.replica.n();
        let partials = match read_partials(&mut self.shards) {
            Ok(partials) => partials,
            Err(e) => return Err(self.poison(e)),
        };
        let fold = |v: usize| partials.iter().fold(0.0, |x, partial| x + partial.vbc[v]);
        if !self.published {
            self.published = true;
            return Ok(ScoreDelta::Dense((0..n).map(fold).collect()));
        }
        if dirty.is_empty() {
            return Ok(ScoreDelta::Unchanged);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let changes = dirty.into_iter().map(|v| (v, fold(v as usize)));
        Ok(ScoreDelta::Sparse(changes.collect()))
    }

    /// Flush every shard's store to durable storage (no-op for memory
    /// stores) — the engine half of the facade's checkpoint path.
    pub fn flush(&mut self) -> Result<(), Error> {
        self.ensure_live()?;
        let flushed = on_every_shard(&mut self.shards, |_, shard| shard.flush());
        self.poisoning(flushed).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_core::state::BetweennessState;
    use ebc_core::verify::assert_matches_scratch;
    use ebc_gen::models::holme_kim;
    use ebc_gen::streams::addition_stream;
    use ebc_graph::{ErrorKind, GraphError};

    #[test]
    fn cluster_matches_single_state() {
        let g = holme_kim(40, 3, 0.4, 7);
        let mut cluster = ClusterEngine::new(&g, 4).unwrap();
        let mut single = BetweennessState::new(&g);
        // bootstrap equivalence
        let scores = cluster.reduce().unwrap().scores;
        assert!(scores.max_vbc_diff(single.scores()) < 1e-9);

        let updates = [
            Update::add(0, 25),
            Update::add(3, 17),
            Update::remove(0, 25),
            Update::add(10, 30),
        ];
        for u in updates {
            cluster.apply(u).unwrap();
            single.apply(u).unwrap();
            let scores = cluster.reduce().unwrap().scores;
            assert!(
                scores.max_vbc_diff(single.scores()) < 1e-9,
                "VBC after {u:?}"
            );
            assert!(
                scores.max_ebc_diff(single.scores(), single.graph()) < 1e-9,
                "EBC after {u:?}"
            );
        }
    }

    #[test]
    fn cluster_handles_removals_that_disconnect() {
        let mut g = Graph::with_vertices(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
            g.add_edge(u, v).unwrap();
        }
        let mut cluster = ClusterEngine::new(&g, 3).unwrap();
        cluster.apply(Update::remove(2, 3)).unwrap();
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "disconnect");
    }

    #[test]
    fn cluster_adopts_new_vertices_balanced() {
        let g = holme_kim(20, 2, 0.3, 3);
        let mut cluster = ClusterEngine::new(&g, 3).unwrap();
        assert_eq!(cluster.total_sources(), 20);
        let r1 = cluster.apply(Update::add(5, 20)).unwrap(); // new vertex 20
        let r2 = cluster.apply(Update::add(20, 21)).unwrap(); // and 21
                                                              // ranges are [7, 7, 6]: shard 2 adopts first, then shard 0
        assert_eq!(r1.adopter, Some(2));
        assert_eq!(r2.adopter, Some(0));
        assert_eq!(cluster.total_sources(), 22);
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "growth");
    }

    #[test]
    fn single_worker_cluster_is_degenerate_case() {
        let g = holme_kim(15, 2, 0.2, 5);
        let mut cluster = ClusterEngine::new(&g, 1).unwrap();
        cluster.apply(Update::add(0, 9)).unwrap();
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "p=1");
    }

    #[test]
    fn more_workers_than_sources() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut cluster = ClusterEngine::new(&g, 8).unwrap();
        cluster.apply(Update::add(0, 2)).unwrap();
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "p>n");
    }

    #[test]
    fn apply_report_shapes() {
        let g = holme_kim(25, 2, 0.3, 9);
        let mut cluster = ClusterEngine::new(&g, 4).unwrap();
        let rep = cluster.apply(Update::add(0, 13)).unwrap();
        assert_eq!(rep.per_worker.len(), 4);
        assert_eq!(rep.map_wall, *rep.per_worker.iter().max().unwrap());
        assert!(rep.cumulative >= rep.map_wall);
        assert_eq!(rep.adopter, None);
    }

    #[test]
    fn sparse_vertex_rejected() {
        let g = holme_kim(10, 2, 0.3, 9);
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        assert_eq!(
            cluster.apply(Update::add(0, 99)).unwrap_err().graph_error(),
            Some(GraphError::SparseVertex(99))
        );
        // validation errors do not poison: the engine keeps working
        cluster.apply(Update::add(0, 9)).unwrap();
    }

    #[test]
    fn validation_errors_leave_engine_usable() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        for (u, why) in [
            (Update::add(0, 1), GraphError::DuplicateEdge(0, 1)),
            (Update::remove(0, 3), GraphError::MissingEdge(0, 3)),
            (Update::add(2, 2), GraphError::SelfLoop(2)),
        ] {
            assert_eq!(cluster.apply(u).unwrap_err().graph_error(), Some(why));
        }
        cluster.apply(Update::add(0, 2)).unwrap();
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "after rejects");
    }

    #[test]
    fn apply_stream_matches_per_update_applies() {
        let g = holme_kim(30, 2, 0.4, 11);
        let updates = [
            Update::add(0, 17),
            Update::add(2, 29),
            Update::remove(0, 17),
            Update::add(5, 30), // grows
            Update::add(30, 31),
        ];
        let mut streamed = ClusterEngine::new(&g, 3).unwrap();
        let reports = streamed.apply_stream(&updates).unwrap();
        assert_eq!(reports.len(), updates.len());
        let mut stepped = ClusterEngine::new(&g, 3).unwrap();
        for u in updates {
            stepped.apply(u).unwrap();
        }
        // identical worker count and history => bitwise-equal partials
        let a = streamed.reduce().unwrap().scores;
        let b = stepped.reduce().unwrap().scores;
        assert_eq!(a, b);
        // and adopters recorded in stream order
        assert_eq!(reports.iter().filter_map(|r| r.adopter).count(), 2);
    }

    #[test]
    fn apply_stream_surfaces_mid_stream_validation_error() {
        let mut g = Graph::with_vertices(20);
        for i in 0..19 {
            g.add_edge(i, i + 1).unwrap();
        }
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        let updates = [
            Update::add(0, 15),
            Update::remove(0, 15),
            Update::remove(0, 15), // now missing
            Update::add(1, 16),
        ];
        assert_eq!(
            cluster.apply_stream(&updates).unwrap_err().graph_error(),
            Some(GraphError::MissingEdge(0, 15))
        );
        // prefix was applied, engine consistent and alive
        let scores = cluster.reduce().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &scores, 1e-6, "after stream error");
        // at any worker count the refusal comes back beside the reports of
        // the prefix that was applied
        for p in [1, 2] {
            let mut fresh = ClusterEngine::new(&g, p).unwrap();
            let (reports, refused) = fresh.apply_prefix(&updates).unwrap();
            assert_eq!(reports.len(), 2, "{p} workers");
            assert_eq!(
                refused.unwrap().graph_error(),
                Some(GraphError::MissingEdge(0, 15))
            );
            let exact = fresh.reduce_exact().unwrap().scores;
            assert_matches_scratch(fresh.graph(), &exact, 1e-6, "applied prefix");
        }
    }

    #[test]
    fn a_long_batch_matches_stepped_applies() {
        let g = holme_kim(40, 2, 0.4, 37);
        let n = g.n() as VertexId;
        let mut updates: Vec<Update> = addition_stream(&g, 32, 41)
            .into_iter()
            .map(|(u, v)| Update::add(u, v))
            .collect();
        updates.extend([Update::add(1, n), Update::add(n, n + 1)]); // grows twice
                                                                    // and removes what it added, so the batch also frees edge slots
        let removals: Vec<Update> = updates.iter().map(|u| Update::remove(u.u, u.v)).collect();
        updates.extend(removals);
        let applied = updates.len();
        // a refused removal of an edge gone, and one update after it
        updates.extend([updates[applied - 1], Update::add(2, n)]);
        assert!(applied >= 64);
        for p in [1, 3] {
            let mut streamed = ClusterEngine::new(&g, p).unwrap();
            let (reports, refused) = streamed.apply_prefix(&updates).unwrap();
            assert_eq!(reports.len(), applied, "{p} workers");
            assert!(matches!(
                refused.unwrap().graph_error(),
                Some(GraphError::MissingEdge(..))
            ));
            let mut stepped = ClusterEngine::new(&g, p).unwrap();
            let adopters: Vec<_> = updates[..applied]
                .iter()
                .map(|&u| stepped.apply(u).unwrap().adopter)
                .collect();
            let streamed_adopters: Vec<_> = reports.iter().map(|r| r.adopter).collect();
            assert_eq!(streamed_adopters, adopters, "{p} workers");
            let a = streamed.reduce().unwrap().scores;
            let b = stepped.reduce().unwrap().scores;
            assert_eq!(bits(&a), bits(&b), "{p} workers");
        }
    }

    #[test]
    fn exact_reduce_matches_scratch() {
        let g = holme_kim(26, 3, 0.5, 13);
        let mut cluster = ClusterEngine::new(&g, 3).unwrap();
        cluster.apply(Update::add(0, 19)).unwrap();
        cluster.apply(Update::remove(0, 19)).unwrap();
        let exact = cluster.reduce_exact().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &exact, 1e-6, "exact reduce");
    }

    /// A caller whose step between fold and run failed poisons the engine:
    /// the folded updates never run, and every later call is `Lost`.
    #[test]
    fn a_fold_left_unrun_is_poisoned_by_its_caller() {
        let g = holme_kim(12, 2, 0.3, 5);
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        let folded = cluster.fold(&[Update::add(0, 12)]).unwrap();
        assert_eq!(folded.steps, vec![(Update::add(0, 12), Some(0))]);
        assert_eq!(cluster.n(), 13, "the replica is ahead of every shard");
        let io = cluster.poison(Error::new(ErrorKind::Io, "journal append failed"));
        assert_eq!(io.kind(), ErrorKind::Io);
        let lost = |e: Error| e.kind() == ErrorKind::Lost;
        assert!(cluster.run(folded).is_err_and(lost));
        assert!(cluster.reduce().is_err_and(lost));
    }

    fn is_short_or_padded(e: &Error) -> bool {
        e.kind() == ErrorKind::Corrupt && e.context().contains("exact sum covers")
    }

    #[test]
    fn reduce_exact_refuses_a_missing_or_doubled_shard() {
        let g = holme_kim(12, 2, 0.3, 31);
        // shard 0 exports a source behind the shard map's back
        let export = |cluster: &mut ClusterEngine| {
            let source = cluster.shard_map().sources_of(0)[0];
            cluster.shards[0].export(source, 1).unwrap()
        };
        // missing: shard 0 no longer sums a source the map says it owns
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        export(&mut cluster);
        assert!(is_short_or_padded(&cluster.reduce_exact().unwrap_err()));
        // doubled: shard 1 also sums a source shard 0 still owns
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        let record = export(&mut cluster);
        for shard in &mut cluster.shards {
            shard.import(record.clone()).unwrap();
        }
        assert!(is_short_or_padded(&cluster.reduce_exact().unwrap_err()));
    }

    fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
        (
            s.vbc.iter().map(|x| x.to_bits()).collect(),
            s.ebc.iter().map(|x| x.to_bits()).collect(),
        )
    }

    #[test]
    fn handoff_moves_ownership_without_changing_scores() {
        let g = holme_kim(24, 3, 0.4, 17);
        let mut cluster = ClusterEngine::new(&g, 3).unwrap();
        cluster.apply(Update::add(0, 24)).unwrap(); // grows: vertex 24
        let before = cluster.reduce_exact().unwrap().scores;
        // drain worker 0 entirely onto the others
        let owned: Vec<u32> = cluster.shard_map().sources_of(0).to_vec();
        for (i, s) in owned.into_iter().enumerate() {
            cluster.handoff(s, 1 + i % 2).unwrap();
        }
        assert_eq!(cluster.source_counts()[0], 0);
        assert_eq!(cluster.total_sources(), 25);
        let after = cluster.reduce_exact().unwrap().scores;
        assert_eq!(bits(&before), bits(&after), "handoff changed the scores");
        // the cluster keeps working: updates land on the new owners
        cluster.apply(Update::add(5, 25)).unwrap();
        let exact = cluster.reduce_exact().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &exact, 1e-6, "post-handoff");
    }

    #[test]
    fn rebalance_restores_skew_and_is_score_neutral() {
        let g = holme_kim(20, 2, 0.3, 19);
        let mut cluster = ClusterEngine::new(&g, 4).unwrap();
        // skew: pile everything worker 2 and 3 own onto worker 0
        for s in cluster.shard_map().sources_of(2).to_vec() {
            cluster.handoff(s, 0).unwrap();
        }
        for s in cluster.shard_map().sources_of(3).to_vec() {
            cluster.handoff(s, 0).unwrap();
        }
        assert_eq!(cluster.shard_map().skew(), 15);
        let version_before = cluster.shard_map().version();
        let before = cluster.reduce_exact().unwrap().scores;
        let report = cluster.rebalance(1).unwrap();
        assert!(!report.moves.is_empty());
        assert!(cluster.shard_map().skew() <= 1);
        assert_eq!(
            report.map_version,
            version_before + report.moves.len() as u64
        );
        let after = cluster.reduce_exact().unwrap().scores;
        assert_eq!(bits(&before), bits(&after), "rebalance changed the scores");
        // idempotent once balanced
        assert!(cluster.rebalance(1).unwrap().moves.is_empty());
    }

    #[test]
    fn invalid_handoffs_rejected_without_poisoning() {
        let g = holme_kim(12, 2, 0.3, 23);
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        // an unowned source, a missing worker, and (source 0 lives on
        // worker 0) a self-handoff: each is Invalid, naming the source
        for (source, to) in [(99, 1), (0, 7), (0, 0)] {
            let err = cluster.handoff(source, to).unwrap_err();
            assert_eq!(
                (err.kind(), err.source_vertex()),
                (ErrorKind::Invalid, Some(source))
            );
        }
        // none of that touched a worker: the engine stays healthy
        cluster.apply(Update::add(0, 12)).unwrap();
        cluster.handoff(0, 1).unwrap();
        let exact = cluster.reduce_exact().unwrap().scores;
        assert_matches_scratch(cluster.graph(), &exact, 1e-6, "after rejects");
    }

    #[test]
    fn adoption_and_handoff_share_the_map() {
        let g = holme_kim(9, 2, 0.3, 29);
        let mut cluster = ClusterEngine::new(&g, 3).unwrap();
        // counts [3, 3, 3]; drain worker 0 (sources 0 and 2 to worker 1,
        // source 1 to worker 2) → [0, 5, 4]
        for (i, s) in (0..3u32).enumerate() {
            cluster.handoff(s, 1 + i % 2).unwrap();
        }
        assert_eq!(cluster.source_counts(), &[0, 5, 4]);
        // a new vertex must be adopted by the now-lightest worker 0
        let r = cluster.apply(Update::add(0, 9)).unwrap();
        assert_eq!(r.adopter, Some(0));
        assert_eq!(cluster.shard_map().owner_of(9), Some(0));
    }
}
