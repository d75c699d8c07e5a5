//! The per-shard compute core: every embodiment of "one machine owning a
//! source partition" runs this one code path.
//!
//! A [`ShardState`] bundles exactly the state one shard owns — its own
//! replica of the graph, its private `BD` store, its incrementally
//! maintained partial [`Scores`], and the kernel scratch arena — and
//! implements [`Shard`], the calls an engine makes on one shard: bootstrap,
//! resume, the per-update map task, the partial, the exact sum, the
//! export/import/retire halves of a handoff, flush, and the dirty-vertex
//! feed. It has three callers:
//!
//! * [`BetweennessState`](crate::state::BetweennessState), the single
//!   machine, is one shard owning every source;
//! * the `ebc-engine` `ClusterEngine` drives `p` [`Shard`]s, each call's
//!   shard work on scoped threads (shard 0 on the caller);
//! * a fleet node of `ebc-cluster` holds one and drives the *same* methods
//!   from wire frames, and the coordinator reaches it as a `RemoteShard` —
//!   the other [`Shard`] — so the engine above is the same one. A
//!   follower's replay is bitwise its leader's: both run this code, in the
//!   same op order, over structurally identical graph replicas.
//!
//! [`Shard::apply`] is the one write path: it folds the update into the
//! replica ([`Update::fold_into`]), then runs the map task against it, so
//! the kernel always sees the post-update graph in the replica's exact
//! neighbour order — the order the dependency sums run in.

use crate::bd::{BdStore, ExportedRecord};
use crate::brandes::single_source_update_with;
use crate::exact::ExactSum;
use crate::incremental::{update_source, UpdateConfig, UpdateStats};
use crate::scores::Scores;
use crate::scratch::KernelScratch;
use crate::state::Update;
use ebc_graph::{Error, Graph, VertexId};

/// One shard as an engine drives it, wherever it lives: a local
/// [`ShardState`], or a replication group behind a transport. Every call
/// reports failure as one [`Error`]; the engine poisons itself on it.
pub trait Shard: Send {
    /// Bootstrap the owned `sources`: one Brandes iteration each,
    /// accumulated into the partial (step 1 of the paper's Figure 4).
    /// Returns the Brandes iteration count.
    fn bootstrap(&mut self, sources: &[VertexId]) -> Result<u64, Error>;

    /// Take over existing records holding exactly `owned` sources without
    /// running Brandes (returns 0).
    fn resume(&mut self, owned: usize) -> Result<u64, Error>;

    /// The map task of one update, folded into the shard's replica;
    /// `adopts` says this shard owns the vertex the update brings.
    fn apply(&mut self, update: Update, adopts: bool) -> Result<(), Error>;

    /// The accumulated partial scores (the shard's term of the fast
    /// reduce). Reading it is also what tells [`Shard::drain_dirty`] which
    /// vertices changed, so a caller reads every partial before draining.
    fn partial(&mut self) -> Result<&Scores, Error>;

    /// The exact sum of the owned sources' records: this shard's term of
    /// the exact reduce, whatever subset of the sources it owns.
    fn exact_sum(&mut self) -> Result<ExactSum, Error>;

    /// Donor half of a handoff: hand `source`'s record out and stop owning
    /// it (`tag` travels into crash-safe backends' export journals).
    fn export(&mut self, source: VertexId, tag: u64) -> Result<ExportedRecord, Error>;

    /// Recipient half of a handoff: install a record exported by a peer.
    /// The source's historical contribution stays in the donor's partial
    /// (the fast reduce sums over all shards); only *future* updates for it
    /// accumulate here.
    fn import(&mut self, record: ExportedRecord) -> Result<(), Error>;

    /// Discard what the export of `source` left behind, the handoff having
    /// committed elsewhere.
    fn retire(&mut self, source: VertexId) -> Result<(), Error>;

    /// Make the shard's state durable (no-op where it already is).
    fn flush(&mut self) -> Result<(), Error>;

    /// Take the vertices whose partial `vbc` changed since the last drain
    /// (unsorted, duplicate-free) — the sparse rank-index feed.
    fn drain_dirty(&mut self) -> Vec<VertexId>;

    /// Brandes single-source iterations this shard has run: its bootstrap
    /// sources plus one per adoption, and none for a resumed shard.
    fn brandes_runs(&self) -> u64;
}

/// One shard's complete compute state: graph replica, private record
/// store, accumulated partial scores, and the reusable kernel arena.
pub struct ShardState<S: BdStore> {
    graph: Graph,
    store: S,
    partial: Scores,
    scratch: KernelScratch,
    cfg: UpdateConfig,
    /// Brandes single-source iterations this shard has run (bootstrap plus
    /// adoptions); 0 for a resumed shard.
    brandes_runs: u64,
}

impl<S: BdStore> ShardState<S> {
    /// Wrap `store` and the shard's replica `graph`, with zeroed partials
    /// shaped for it.
    pub fn new(store: S, graph: Graph, cfg: UpdateConfig) -> Self {
        ShardState {
            partial: Scores::zeros_for(&graph),
            scratch: KernelScratch::new(graph.n()),
            graph,
            store,
            cfg,
            brandes_runs: 0,
        }
    }

    /// The shard's graph replica.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The accumulated partial scores (the shard's term of the fast
    /// reduce sum).
    pub fn partial(&self) -> &Scores {
        &self.partial
    }

    /// Read access to the record store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the record store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Unwrap the record store (e.g. to persist it at shutdown).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Owned sources in the store's deterministic order.
    pub fn sources(&self) -> Vec<VertexId> {
        self.store.sources()
    }

    /// Number of owned sources.
    pub fn num_sources(&self) -> usize {
        self.store.num_sources()
    }

    /// Kernel work counters accumulated so far.
    pub(crate) fn stats(&self) -> UpdateStats {
        self.scratch.ws.stats
    }

    /// Widen store, scratch and partials to the replica's dimensions.
    fn widen(&mut self) -> Result<(), Error> {
        let (n, edge_slots) = (self.graph.n(), self.graph.edge_slots());
        while self.store.n() < n {
            self.store.grow_vertex()?;
        }
        self.scratch.grow(n);
        self.partial.ensure_shape(n, edge_slots);
        Ok(())
    }

    /// Grow the replica by one isolated vertex and adopt it as a source
    /// (paper §3.1: it joins with zero centrality).
    pub(crate) fn add_vertex(&mut self) -> Result<VertexId, Error> {
        let v = self.graph.add_vertex();
        self.adopt(v)?;
        Ok(v)
    }

    /// Take a source that just arrived in the replica into this shard
    /// (paper §3.1): one fresh Brandes iteration adds its pair dependencies
    /// and its record. Its dependency vector is exactly the set of partial
    /// `vbc` entries the pass touched outside the kernel's dirty tracking,
    /// so those — and the new score slot itself — are marked dirty.
    fn adopt(&mut self, s: VertexId) -> Result<(), Error> {
        self.widen()?;
        let r = single_source_update_with(
            &self.graph,
            s,
            &mut self.partial,
            &mut self.scratch.brandes,
        )?;
        self.scratch.ws.mark_dirty(s);
        for (w, &dep) in r.delta.iter().enumerate() {
            if dep != 0.0 && w as VertexId != s {
                self.scratch.ws.mark_dirty(w as VertexId);
            }
        }
        self.store.add_source(s, r.d, r.sigma, r.delta)?;
        self.brandes_runs += 1;
        Ok(())
    }
}

impl<S: BdStore> Shard for ShardState<S> {
    fn bootstrap(&mut self, sources: &[VertexId]) -> Result<u64, Error> {
        for &s in sources {
            let r = single_source_update_with(
                &self.graph,
                s,
                &mut self.partial,
                &mut self.scratch.brandes,
            )?;
            self.store.add_source(s, r.d, r.sigma, r.delta)?;
        }
        self.brandes_runs += sources.len() as u64;
        Ok(sources.len() as u64)
    }

    /// Rehydrate the partial score vector from the store's existing
    /// records: the partial is the shard's [`Shard::exact_sum`], rounded
    /// once, so a restart is reproducible whatever order the store lists
    /// its sources in.
    ///
    /// A store not shaped for the replica, or not holding exactly `owned`
    /// sources, is `Corrupt`: a missing record would otherwise resume as
    /// silently short scores.
    fn resume(&mut self, owned: usize) -> Result<u64, Error> {
        let (n, edge_slots) = (self.graph.n(), self.graph.edge_slots());
        if self.store.n() != n {
            return Err(Error::corrupt(format!(
                "store holds records of {} vertices, graph has {n}",
                self.store.n(),
            )));
        }
        let sum = self.exact_sum()?;
        sum.check(owned, n, edge_slots)?;
        self.partial = sum.into_scores();
        Ok(0)
    }

    /// Fold the update into the replica ([`Update::fold_into`]; a refused
    /// update is `Invalid` and changes nothing), widen store/scratch/
    /// partials to the grown replica, run the incremental kernel for every
    /// owned source (skipping `dd == 0` via the cheap peek), adopt the
    /// arriving vertex when `adopts`, and zero the score slot freed by a
    /// removal.
    fn apply(&mut self, update: Update, adopts: bool) -> Result<(), Error> {
        let (arriving, removed_eid) = update.fold_into(&mut self.graph)?;
        let Update { op, u, v } = update;
        self.widen()?;
        let g = &self.graph;
        let partial = &mut self.partial;
        let cfg = &self.cfg;
        let ws = &mut self.scratch.ws;
        let skipped = self.store.update_batch(u, v, &mut |s, rec| {
            update_source(g, s, op, u, v, rec, partial, ws, cfg)
        })?;
        ws.stats.sources_skipped += skipped;
        if let Some(s_new) = arriving.filter(|_| adopts) {
            self.adopt(s_new)?;
        }
        if let Some(eid) = removed_eid {
            // every source has retracted its contribution; the slot is
            // recycled, so clear any residual floating-point dust
            self.partial.ebc[eid as usize] = 0.0;
        }
        Ok(())
    }

    fn partial(&mut self) -> Result<&Scores, Error> {
        Ok(&self.partial)
    }

    fn exact_sum(&mut self) -> Result<ExactSum, Error> {
        ExactSum::of_store(&self.graph, &mut self.store)
    }

    fn export(&mut self, source: VertexId, tag: u64) -> Result<ExportedRecord, Error> {
        self.store.export_source(source, tag)
    }

    fn import(&mut self, record: ExportedRecord) -> Result<(), Error> {
        self.store
            .add_source(record.source, record.d, record.sigma, record.delta)
    }

    /// Discard the store's export journal for `source`.
    fn retire(&mut self, source: VertexId) -> Result<(), Error> {
        self.store.retire_export(source)
    }

    fn flush(&mut self) -> Result<(), Error> {
        self.store.flush()
    }

    fn drain_dirty(&mut self) -> Vec<VertexId> {
        self.scratch.ws.drain_dirty()
    }

    fn brandes_runs(&self) -> u64 {
        self.brandes_runs
    }
}
