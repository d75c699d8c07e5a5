//! The shared-nothing cluster engine (paper §5.2 and Figure 4).
//!
//! Each worker models one machine: it owns a **replica of the graph**
//! (the paper replicates `G` and `ES` to every machine via distributed
//! cache), a **private `BD` store** covering its source partition `Π_i`
//! (in memory, or its own on-disk file — "the disk access workload is
//! distributed in a balanced fashion across multiple disks"), and a
//! **partial score vector** (the map output
//! `⟨id, pbc_s(id)⟩ ∀ id, ∀ s ∈ Π_i`).
//!
//! Workers are **persistent threads** (see the private `pool` module) spawned once at
//! bootstrap and driven over channels, so the steady-state update path pays
//! one channel round-trip per worker instead of a thread spawn. The
//! coordinator keeps its own *validation replica* of the graph plus a
//! versioned [`ShardMap`] — the single ownership authority for bootstrap
//! partitioning, adoption of arriving vertices, and rebalance handoffs —
//! and never touches worker-owned state: graph mutations are validated
//! locally before dispatch (making worker-side graph errors impossible by
//! construction), ownership decisions come from the map, and post-update
//! facts such as edge-slot growth travel back in the [`ApplyReport`]
//! replies. [`ClusterEngine::rebalance`] executes the map's deterministic
//! plans through the pool's `Export`/`Import` handoff commands.
//!
//! Two reduce paths are offered:
//!
//! * [`ClusterEngine::reduce`] — the paper's reduce: every worker hands
//!   its incremental partial to the coordinator, which folds them in
//!   ascending worker order ([`Scores::fold`], `t_M` of §5.3) — the same
//!   fold the fleet coordinator runs. Deterministic for a fixed worker
//!   count, but bitwise dependent on `p` because `f64` addition is not
//!   associative.
//! * [`ClusterEngine::reduce_exact`] — the partition-invariant fixed-point
//!   sum of [`ebc_core::exact`]: bitwise identical across worker counts,
//!   store backends, and the single-machine
//!   [`ebc_core::state::BetweennessState`].
//!
//! A validation failure (an update the replica refuses, a move the map
//! cannot record) is `Invalid` and touches no worker. Any worker-side
//! failure poisons the engine: that call returns the worker's error, and
//! every later call answers `Lost`.

use crate::pool::{ApplyEcho, Command, Reply, WorkerPool};
use crate::shardmap::{ShardMap, SourceMove};
use ebc_core::api::{EbcEngine, RebalanceOutcome, Reduced, ShardAssignment};
use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::exact::ExactSum;
use ebc_core::incremental::UpdateConfig;
use ebc_core::rankindex::ScoreDelta;
use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_graph::csr::EpochGraph;
use ebc_graph::{Error, Graph, VertexId};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one [`ClusterEngine::rebalance`] call.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The executed handoffs, in order (empty when the skew was already
    /// within the threshold).
    pub moves: Vec<SourceMove>,
    /// The effective threshold (requests below 1 are clamped up).
    pub threshold: usize,
    /// Map version after the last committed move.
    pub map_version: u64,
}

/// Timing breakdown of one parallel update (the quantities of §5.3).
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Wall-clock time of the slowest worker (the map phase critical path).
    pub map_wall: Duration,
    /// Per-worker busy times.
    pub per_worker: Vec<Duration>,
    /// Sum of all worker busy times (the "cumulative execution time" the
    /// paper compares against Brandes in Figure 6).
    pub cumulative: Duration,
    /// Worker that adopted a newly arrived vertex, if the update grew the
    /// graph (the pinned rule of [`ShardMap::adopt`]).
    pub adopter: Option<usize>,
}

/// Coordinator-side record of one dispatched, not-yet-collected update.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Worker adopting a newly arrived vertex, if any.
    adopter: Option<usize>,
    /// Replica edge slots right after this update — what worker replies must
    /// echo, even when later updates are already dispatched.
    edge_slots: usize,
}

/// A simulated shared-nothing cluster of `p` persistent workers.
///
/// Dropping the engine shuts down and joins every worker thread.
pub struct ClusterEngine<S: BdStore = MemoryBdStore> {
    pool: WorkerPool,
    /// The single writer of graph structure: validates updates, mutates the
    /// authoritative replica, and publishes frozen CSR epochs that every map
    /// task pins (workers hold `Arc` shares, not clones).
    replica: EpochGraph,
    /// The source→shard ownership authority; mirrors the workers' store
    /// membership move for move.
    map: ShardMap,
    /// Brandes single-source iterations the workers have run for this
    /// engine (bootstrap partitions plus adopted arrivals). A cluster
    /// resumed from recovered records starts at 0 — the observable witness
    /// that the restart was re-bootstrap-free.
    brandes_runs: u64,
    /// First unrecoverable failure; sticky.
    dead: Option<String>,
    /// The fast-reduce vector as of the last `take_score_delta` drain.
    /// Cluster deltas are produced by bit-diffing a fresh reduce against
    /// this cache: the values always come from the true reduce, so a rank
    /// index fed from the deltas stays bitwise equal to `scores()`.
    published_vbc: Option<Vec<f64>>,
    _store: PhantomData<fn() -> S>,
}

impl ClusterEngine<MemoryBdStore> {
    /// Bootstrap a `p`-worker cluster with in-memory stores.
    pub fn new(graph: &Graph, p: usize) -> Result<Self, Error> {
        Self::new_with(graph, p, UpdateConfig::default(), |_worker, n| {
            Ok(MemoryBdStore::new(n))
        })
    }
}

impl<S: BdStore + 'static> ClusterEngine<S> {
    /// Bootstrap with a custom per-worker store factory (e.g. one
    /// `ebc_store::DiskBdStore` file per worker, mirroring one disk per
    /// machine). Spawns the persistent pool, then runs the Brandes
    /// partitions in parallel on it.
    pub fn new_with(
        graph: &Graph,
        p: usize,
        cfg: UpdateConfig,
        mut store_factory: impl FnMut(usize, usize) -> Result<S, Error>,
    ) -> Result<Self, Error> {
        let n = graph.n();
        // the map's bootstrap layout is bit-identical to partition_ranges
        let map = ShardMap::bootstrap(n, p);
        let stores = (0..map.num_shards())
            .map(|id| store_factory(id, n))
            .collect::<Result<_, _>>()?;
        Self::spawn(graph, cfg, stores, map, |map, k| Command::Bootstrap {
            sources: map.sources_of(k).to_vec(),
        })
    }

    /// Restart a cluster from previously persisted per-worker stores
    /// **without re-running the Brandes bootstrap**: one worker is spawned
    /// per store, each rehydrating its partial scores from its own recovered
    /// `BD[·]` records (the ROADMAP's "resume a `ClusterEngine` directly
    /// from a recovered `ShardSet`" item — the facade's `Session::open`
    /// passes `ebc_store::ShardSet::open(dir).into_stores()` here).
    ///
    /// The source→shard map is rebuilt from the stores' membership lists and
    /// stamped with `map_version` (the recovered manifest version), so
    /// adoption and rebalance continue exactly where the killed incarnation
    /// stopped. Requirements checked (a violation is `Corrupt`): the union
    /// of the stores' sources covers each vertex id exactly once, and every
    /// worker's store is shaped for `graph.n()` vertices and sums exactly
    /// the sources it owns ([`ebc_core::shard::ShardState::resume`]).
    /// [`ClusterEngine::reduce_exact`] on the
    /// resumed engine is bitwise identical to the pre-kill value (the exact
    /// reduction depends only on the records), and
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
        let engine = Self::spawn(graph, cfg, stores, map, |map, k| Command::Resume {
            owned: map.sources_of(k).len(),
        })?;
        debug_assert_eq!(engine.brandes_runs, 0, "resume must not run Brandes");
        Ok(engine)
    }

    /// Spawn one worker per store over `graph`'s CSR epoch and send each
    /// its `start` command (a Brandes bootstrap or a resume), summing the
    /// Brandes iterations. The epoch keeps the snapshot's exact neighbour
    /// order, so a resumed engine's floating-point sums are bitwise the
    /// killed incarnation's.
    fn spawn(
        graph: &Graph,
        cfg: UpdateConfig,
        stores: Vec<S>,
        map: ShardMap,
        start: fn(&ShardMap, usize) -> Command,
    ) -> Result<Self, Error> {
        let replica = EpochGraph::new(graph.clone());
        let pool = WorkerPool::spawn(replica.pin(), cfg, stores)?;
        let brandes = pool.round(
            |k| start(&map, k),
            |r| match r {
                Reply::Bootstrapped(runs) => Some(runs),
                _ => None,
            },
        )?;
        Ok(ClusterEngine {
            pool,
            replica,
            map,
            brandes_runs: brandes.iter().sum(),
            dead: None,
            published_vbc: None,
            _store: PhantomData,
        })
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.pool.len()
    }

    /// Number of vertices in the replica.
    pub fn n(&self) -> usize {
        self.replica.graph().n()
    }

    /// The coordinator's authoritative replica of the evolving graph
    /// (workers pin published CSR epochs of it; nothing is cloned per
    /// worker or borrowed across threads).
    pub fn graph(&self) -> &Graph {
        self.replica.graph()
    }

    /// Per-worker owned-source counts (coordinator map; sums to `n`).
    pub fn source_counts(&self) -> &[usize] {
        self.map.counts()
    }

    /// Sum of per-worker source counts (sanity: equals current n).
    pub fn total_sources(&self) -> usize {
        self.map.total()
    }

    /// The coordinator's source→shard map (ownership, skew, version).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Brandes single-source iterations the workers have run for this
    /// engine: `n` right after a fresh bootstrap (plus one per adopted
    /// arrival since), and **0** right after [`ClusterEngine::resume`] —
    /// the counter the durable-restart suite asserts on.
    pub fn brandes_runs(&self) -> u64 {
        self.brandes_runs
    }

    fn ensure_live(&self) -> Result<(), Error> {
        match &self.dead {
            Some(why) => Err(Error::lost(format!("engine poisoned: {why}"))),
            None => Ok(()),
        }
    }

    /// A worker-side result: its error poisons the engine (the first one
    /// is kept as the reason) and is passed on.
    fn poisoning<T>(&mut self, result: Result<T, Error>) -> Result<T, Error> {
        result.inspect_err(|e| {
            self.dead.get_or_insert_with(|| e.to_string());
        })
    }

    /// Fold one update into the coordinator replica
    /// ([`Update::fold_into`]), let the map adopt an arriving vertex, and
    /// dispatch the map task to every worker. Returns the in-flight record
    /// (adopter plus the replica shape right after this update — the value
    /// worker replies must echo, even when later updates have already been
    /// dispatched). On a validation error nothing has been dispatched and
    /// the engine state is untouched.
    fn dispatch(&mut self, update: Update) -> Result<InFlight, Error> {
        let (arriving, removed_eid) = update.fold_into(&mut self.replica)?;
        // the arriving id is fresh by construction: an owned id here means
        // map and replica diverged
        let adopted = arriving.map(|s| self.map.adopt(s)).transpose();
        let adopter = self.poisoning(adopted)?;
        // Publish the post-update epoch once; every worker pins the same
        // frozen snapshot (an `Arc` bump each, no copies).
        let view = self.replica.publish();
        for worker in 0..self.pool.len() {
            let adopt = arriving.filter(|_| Some(worker) == adopter);
            let cmd = Command::Apply {
                update,
                removed_eid,
                adopt,
                view: Arc::clone(&view),
            };
            let sent = self.pool.send(worker, cmd);
            self.poisoning(sent)?;
        }
        Ok(InFlight {
            adopter,
            edge_slots: self.replica.graph().edge_slots(),
        })
    }

    /// Collect the `p` map replies of the oldest in-flight update.
    fn collect(&mut self, inflight: InFlight) -> Result<ApplyReport, Error> {
        let echoes = self.pool.gather(|r| match r {
            Reply::Applied(echo) => Some(echo),
            _ => None,
        });
        let echoes: Vec<ApplyEcho> = self.poisoning(echoes)?;
        if inflight.adopter.is_some() {
            // the adopting worker ran one fresh Brandes iteration
            self.brandes_runs += 1;
        }
        // workers must echo the replica shape as of *this* update, not the
        // coordinator's current one (later updates may already be dispatched)
        debug_assert!(
            echoes.iter().all(|e| e.edge_slots == inflight.edge_slots),
            "worker replicas diverged from the coordinator's"
        );
        let per_worker: Vec<Duration> = echoes.iter().map(|e| e.busy).collect();
        Ok(ApplyReport {
            map_wall: per_worker.iter().copied().max().unwrap_or_default(),
            cumulative: per_worker.iter().sum(),
            per_worker,
            adopter: inflight.adopter,
        })
    }

    /// Apply one update on all workers in parallel (the map phase). The
    /// slowest worker's busy time is the update's wall-clock critical path.
    pub fn apply(&mut self, update: Update) -> Result<ApplyReport, Error> {
        self.ensure_live()?;
        let inflight = self.dispatch(update)?;
        self.collect(inflight)
    }

    /// Apply a batch of updates, pipelining command dispatch against reply
    /// collection: while the workers chew on update `k`, updates up to
    /// `k + window` are already validated, adoption-assigned and queued on
    /// their channels, so the coordinator's bookkeeping never sits on the
    /// map-phase critical path.
    ///
    /// Updates are applied in order; on a validation error the previously
    /// dispatched prefix still completes (the engine stays consistent and
    /// usable) and the error is returned. Worker-side failures poison the
    /// engine.
    pub fn apply_stream(&mut self, updates: &[Update]) -> Result<Vec<ApplyReport>, Error> {
        let (reports, first_err) = self.stream_inner(updates)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// The pipelined loop behind [`ClusterEngine::apply_stream`]: dispatch
    /// up to `window` updates ahead of collection. The outer `Err` is an
    /// engine-poisoning worker failure; a validation error travels in the
    /// second slot with the applied prefix's reports intact (on validation
    /// errors every dispatched update completes, so `reports.len()` is
    /// exactly the applied count — what journaling layers must record).
    fn stream_inner(
        &mut self,
        updates: &[Update],
    ) -> Result<(Vec<ApplyReport>, Option<Error>), Error> {
        self.ensure_live()?;
        let window = (2 * self.pool.len()).max(4);
        let mut reports = Vec::with_capacity(updates.len());
        let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(window + 1);
        let mut first_err: Option<Error> = None;
        let mut dispatched = 0usize;
        loop {
            if dispatched < updates.len() && first_err.is_none() && pending.len() < window {
                match self.dispatch(updates[dispatched]) {
                    Ok(inflight) => {
                        pending.push_back(inflight);
                        dispatched += 1;
                    }
                    Err(e) => first_err = Some(e),
                }
                continue;
            }
            let Some(inflight) = pending.pop_front() else {
                break;
            };
            // a worker failure here has poisoned the engine: stop reading
            reports.push(self.collect(inflight)?);
        }
        Ok((reports, first_err))
    }

    /// Execute one checked source handoff through the worker pool: the
    /// donor exports (journal + removal inside its private store), the
    /// recipient imports, the map commits, and the donor's export journal
    /// is retired — the live rendition of the `ebc-store` `ShardSet`
    /// protocol. Worker-side failures poison the engine (the move may be
    /// half-applied).
    fn execute_move(&mut self, mv: SourceMove) -> Result<(), Error> {
        let export = Command::Export {
            source: mv.source,
            tag: mv.to as u64,
        };
        let record = self.pool.call(mv.from, export, |r| match r {
            Reply::Exported(record) => Some(record),
            _ => None,
        });
        let record = self.poisoning(record)?;
        let done = |r: Reply| matches!(r, Reply::Done).then_some(());
        let imported = self.pool.call(mv.to, Command::Import { record }, done);
        self.poisoning(imported)?;
        // map commit, then retire the donor's export journal (same order as
        // the at-rest protocol: commit before cleanup)
        let committed = self.map.apply_move(&mv);
        self.poisoning(committed)?;
        let retire = Command::Retire { source: mv.source };
        let retired = self.pool.call(mv.from, retire, done);
        self.poisoning(retired)
    }

    /// Hand one source to the given worker (an explicit, out-of-plan move —
    /// e.g. draining a machine), returning the donor. A move the map cannot
    /// record ([`ShardMap::move_to`]) is `Invalid` before any worker is
    /// touched. Scores are unaffected: the exact reduce is bitwise
    /// invariant to ownership, and the fast reduce's partial sums still
    /// cover every source exactly once.
    pub fn handoff(&mut self, source: VertexId, to: usize) -> Result<usize, Error> {
        self.ensure_live()?;
        let mv = self.map.move_to(source, to)?;
        self.execute_move(mv)?;
        Ok(mv.from)
    }

    /// Restore the owned-source skew invariant: compute the map's
    /// deterministic plan for `threshold` (see
    /// [`ShardMap::plan_rebalance`]) and execute it move by move through
    /// the pool's handoff path. After success `max − min ≤ threshold`
    /// across workers, and the map version has advanced once per move.
    pub fn rebalance(&mut self, threshold: usize) -> Result<RebalanceReport, Error> {
        self.ensure_live()?;
        let plan = self.map.plan_rebalance(threshold);
        for &mv in &plan.moves {
            self.execute_move(mv)?;
        }
        debug_assert!(self.map.skew() <= plan.threshold);
        Ok(RebalanceReport {
            moves: plan.moves,
            threshold: plan.threshold,
            map_version: self.map.version(),
        })
    }

    /// Reduce phase (the paper's `t_M`): every worker hands over a copy of
    /// its incremental partial and the coordinator folds them in ascending
    /// worker order ([`Scores::fold`]). Returns the scores together with
    /// the reduce's wall-clock time ([`Reduced`]).
    ///
    /// Deterministic for a fixed worker count; across different `p` the
    /// result varies in the last bits (floating-point summation order) — use
    /// [`ClusterEngine::reduce_exact`] for the partition-invariant value.
    pub fn reduce(&mut self) -> Result<Reduced, Error> {
        self.ensure_live()?;
        let t0 = Instant::now();
        let partials = self.pool.round(
            |_| Command::Partials,
            |r| match r {
                Reply::Partials(partial) => Some(partial),
                _ => None,
            },
        );
        let partials = self.poisoning(partials)?;
        let g = self.replica.graph();
        Ok(Reduced {
            scores: Scores::fold(g.n(), g.edge_slots(), partials.iter().map(|p| p.as_ref())),
            wall: t0.elapsed(),
        })
    }

    /// Partition-invariant exact reduce: every worker sums its owned
    /// sources' contributions from the `BD` records into one
    /// [`ExactSum`]; the coordinator checks each against the shard map
    /// (a missing or doubled source is `Corrupt`) and adds them. Bitwise
    /// identical across worker counts, store backends, and
    /// [`ebc_core::state::BetweennessState::exact_scores`] — the oracle
    /// the consistency suite pins the engine against.
    pub fn reduce_exact(&mut self) -> Result<Reduced, Error> {
        self.ensure_live()?;
        let t0 = Instant::now();
        let sums = self.pool.round(
            |_| Command::ExactSum,
            |r| match r {
                Reply::ExactSum(sum) => Some(sum),
                _ => None,
            },
        );
        let sums = self.poisoning(sums)?;
        let (n, edge_slots) = (self.replica.graph().n(), self.replica.graph().edge_slots());
        let mut total = ExactSum::new(n, edge_slots);
        for (worker, sum) in sums.iter().enumerate() {
            let owned = self.map.sources_of(worker).len();
            let checked = sum
                .check(owned, n, edge_slots)
                .map_err(|e| e.within(format!("worker {worker}")));
            self.poisoning(checked)?;
            total.merge(sum);
        }
        Ok(Reduced {
            scores: total.into_scores(),
            wall: t0.elapsed(),
        })
    }

    /// Flush every worker's store to durable storage (no-op for memory
    /// stores) — the cluster half of the facade's checkpoint path.
    pub fn flush(&mut self) -> Result<(), Error> {
        self.ensure_live()?;
        let flushed = self.pool.round(
            |_| Command::Flush,
            |r| match r {
                Reply::Done => Some(()),
                _ => None,
            },
        );
        self.poisoning(flushed).map(drop)
    }
}

impl<S: BdStore + 'static> EbcEngine for ClusterEngine<S> {
    fn graph(&self) -> &Graph {
        ClusterEngine::graph(self)
    }

    fn workers(&self) -> usize {
        self.num_workers()
    }

    fn apply(&mut self, update: Update) -> Result<(), Error> {
        ClusterEngine::apply(self, update).map(drop)
    }

    fn apply_stream(&mut self, updates: &[Update]) -> (usize, Result<(), Error>) {
        match self.stream_inner(updates) {
            Ok((reports, None)) => (reports.len(), Ok(())),
            Ok((reports, Some(e))) => (reports.len(), Err(e)),
            // poisoned: the count is a lower bound, but the engine is
            // unusable and the session must be reopened anyway
            Err(e) => (0, Err(e)),
        }
    }

    fn scores(&mut self) -> Result<Reduced, Error> {
        self.reduce()
    }

    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        // Per-worker dirty sets cannot feed the index directly: folding
        // `new - old` into a published vector re-runs the summation in a
        // different order and drifts in the last bit. Instead diff a fresh
        // fast reduce against the previously drained one.
        let vbc = self.reduce()?.scores.vbc;
        Ok(ScoreDelta::from_diff(&mut self.published_vbc, vbc))
    }

    fn reduce_exact(&mut self) -> Result<Reduced, Error> {
        ClusterEngine::reduce_exact(self)
    }

    fn flush(&mut self) -> Result<(), Error> {
        ClusterEngine::flush(self)
    }

    fn shard_map_version(&self) -> Option<u64> {
        Some(self.map.version())
    }

    fn brandes_runs(&self) -> Option<u64> {
        Some(ClusterEngine::brandes_runs(self))
    }

    fn shard_map(&self) -> Option<ShardAssignment> {
        let assignment = (0..self.map.num_shards())
            .map(|k| self.map.sources_of(k).to_vec())
            .collect();
        Some(ShardAssignment {
            version: self.map.version(),
            assignment,
        })
    }

    fn handoff(&mut self, source: VertexId, to: usize) -> Result<RebalanceOutcome, Error> {
        let from = ClusterEngine::handoff(self, source, to)?;
        Ok(RebalanceOutcome {
            moves: vec![(source, from, to)],
            threshold: 0,
            map_version: self.map.version(),
        })
    }

    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        let report = ClusterEngine::rebalance(self, threshold)?;
        Ok(RebalanceOutcome {
            moves: report
                .moves
                .iter()
                .map(|mv| (mv.source, mv.from, mv.to))
                .collect(),
            threshold: report.threshold,
            map_version: report.map_version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_core::state::BetweennessState;
    use ebc_core::verify::assert_matches_scratch;
    use ebc_gen::models::holme_kim;
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
                                                              // ranges are [7, 7, 6]: worker 2 adopts first, then worker 0
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
        assert!(rep.map_wall >= *rep.per_worker.iter().max().unwrap());
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
        // through the trait, every embodiment reports the same error beside
        // the length of the prefix it applied
        let mut single = BetweennessState::new(&g);
        let mut fresh = ClusterEngine::new(&g, 2).unwrap();
        let engines: [&mut dyn EbcEngine; 2] = [&mut single, &mut fresh];
        for engine in engines {
            let (applied, result) = engine.apply_stream(&updates);
            assert_eq!(applied, 2, "{} workers", engine.workers());
            assert_eq!(
                result.unwrap_err().graph_error(),
                Some(GraphError::MissingEdge(0, 15))
            );
            engine.verify(1e-6).unwrap();
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

    /// Run one pool command on `worker` behind the shard map's back.
    fn behind_the_map(cluster: &mut ClusterEngine, worker: usize, cmd: Command) -> Reply {
        cluster.pool.call(worker, cmd, Some).unwrap()
    }

    fn is_short_or_padded(e: &Error) -> bool {
        e.kind() == ErrorKind::Corrupt && e.context().contains("exact sum covers")
    }

    #[test]
    fn reduce_exact_refuses_a_missing_or_doubled_shard() {
        let g = holme_kim(12, 2, 0.3, 31);
        let export = |cluster: &mut ClusterEngine| {
            let source = cluster.shard_map().sources_of(0)[0];
            match behind_the_map(cluster, 0, Command::Export { source, tag: 1 }) {
                Reply::Exported(record) => record,
                _ => panic!("export answered out of protocol"),
            }
        };
        // missing: worker 0 no longer sums a source the map says it owns
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        export(&mut cluster);
        assert!(is_short_or_padded(&cluster.reduce_exact().unwrap_err()));
        // doubled: worker 1 also sums a source worker 0 still owns
        let mut cluster = ClusterEngine::new(&g, 2).unwrap();
        let record = export(&mut cluster);
        for worker in [0, 1] {
            let record = record.clone();
            let reply = behind_the_map(&mut cluster, worker, Command::Import { record });
            assert!(matches!(reply, Reply::Done));
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
