//! The per-shard compute core: every embodiment of "one machine owning a
//! source partition" runs this one code path.
//!
//! A [`ShardState`] bundles exactly the state one shard owns — its private
//! `BD` store, its incrementally maintained partial [`Scores`], and the
//! kernel scratch arena — and exposes the shard-side half of every update
//! as a plain method: bootstrap, resume, the per-update map task, the
//! adoption of an arriving source, the shard's exact sum, and the
//! export/import/retire halves of a handoff. It has three callers:
//!
//! * [`BetweennessState`](crate::state::BetweennessState), the single
//!   machine, is a graph plus one shard owning every source;
//! * the `ebc-engine` `ClusterEngine` owns one per worker and runs each
//!   call's shard work on scoped threads (shard 0 on the caller);
//! * the remote shard nodes of `ebc-cluster` drive the *same* methods from
//!   wire frames — which is what makes a replica's replay bitwise identical
//!   to its leader: both sides run this code, in the same op order, over
//!   structurally identical graph replicas.
//!
//! Methods are generic over [`GraphView`] because the callers pin structure
//! differently: the cluster engine's shards compute against the shared
//! [`CsrView`](ebc_graph::csr::CsrView) epoch published for each update,
//! while the single machine and remote nodes maintain a private
//! [`Graph`](ebc_graph::Graph) replica mutated by
//! [`Update::fold_into`](crate::state::Update::fold_into).

use crate::bd::{BdResult, BdStore, ExportedRecord};
use crate::brandes::single_source_update_with;
use crate::exact::ExactSum;
use crate::incremental::{update_source, UpdateConfig, UpdateStats};
use crate::scores::Scores;
use crate::scratch::KernelScratch;
use crate::state::Update;
use ebc_graph::{EdgeId, Error, GraphView, VertexId};

/// One shard's complete compute state: private record store, accumulated
/// partial scores, and the reusable kernel arena.
pub struct ShardState<S: BdStore> {
    store: S,
    partial: Scores,
    scratch: KernelScratch,
    cfg: UpdateConfig,
    /// Brandes single-source iterations this shard has run (bootstrap plus
    /// adoptions); 0 for a shard rehydrated by [`ShardState::resume`].
    brandes_runs: u64,
}

impl<S: BdStore> ShardState<S> {
    /// Wrap `store` with zeroed partials shaped `(n, edge_slots)`.
    pub fn new(store: S, n: usize, edge_slots: usize, cfg: UpdateConfig) -> Self {
        ShardState {
            store,
            partial: Scores::zeros(n, edge_slots),
            scratch: KernelScratch::new(n),
            cfg,
            brandes_runs: 0,
        }
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

    /// Reset the kernel work counters.
    pub(crate) fn reset_stats(&mut self) {
        self.scratch.ws.stats = UpdateStats::default();
    }

    /// Brandes single-source iterations this shard has run: its bootstrap
    /// sources plus one per adoption, and none for a resumed shard.
    pub fn brandes_runs(&self) -> u64 {
        self.brandes_runs
    }

    /// Take the vertices whose partial `vbc` changed since the last drain
    /// (unsorted, duplicate-free) — the sparse rank-index feed.
    pub fn drain_dirty(&mut self) -> Vec<VertexId> {
        self.scratch.ws.drain_dirty()
    }

    /// Bootstrap the partition: one Brandes iteration per owned source,
    /// accumulated into the partial scores (step 1 of the paper's
    /// Figure 4). Returns the Brandes iteration count.
    pub fn bootstrap<G: GraphView>(&mut self, g: &G, sources: &[VertexId]) -> BdResult<u64> {
        for &s in sources {
            let r = single_source_update_with(g, s, &mut self.partial, &mut self.scratch.brandes);
            self.store.add_source(s, r.d, r.sigma, r.delta)?;
        }
        self.brandes_runs += sources.len() as u64;
        Ok(sources.len() as u64)
    }

    /// Rehydrate the partial score vector from the store's existing
    /// records: the partial is the shard's [`ShardState::exact_sum`],
    /// rounded once, so a restart is reproducible whatever order the store
    /// lists its sources in. No Brandes iteration runs — hence the returned
    /// count of 0.
    ///
    /// A store not shaped for `g`, or not holding exactly `owned` sources,
    /// is `Corrupt`: a missing record would otherwise resume as silently
    /// short scores.
    pub fn resume<G: GraphView>(&mut self, g: &G, owned: usize) -> BdResult<u64> {
        if self.store.n() != g.n() {
            return Err(Error::corrupt(format!(
                "store holds records of {} vertices, graph has {}",
                self.store.n(),
                g.n()
            )));
        }
        let sum = self.exact_sum(g)?;
        sum.check(owned, g.n(), g.edge_slots())?;
        self.partial = sum.into_scores();
        Ok(0)
    }

    /// Widen store, scratch and partials to `g`'s dimensions.
    fn widen<G: GraphView>(&mut self, g: &G) -> BdResult<()> {
        while self.store.n() < g.n() {
            self.store.grow_vertex()?;
        }
        self.scratch.grow(g.n());
        self.partial.ensure_shape(g.n(), g.edge_slots());
        Ok(())
    }

    /// Map task for one update against the **post-update** view `g`: widen
    /// store/scratch/partials to the view's dimensions, run the incremental
    /// kernel for every owned source (skipping `dd == 0` via the cheap
    /// peek), adopt `adopt` if a new source arrived here, and zero the
    /// score slot freed by a removal.
    pub fn apply<G: GraphView>(
        &mut self,
        g: &G,
        update: Update,
        removed_eid: Option<EdgeId>,
        adopt: Option<VertexId>,
    ) -> BdResult<()> {
        let Update { op, u, v } = update;
        self.widen(g)?;
        let partial = &mut self.partial;
        let cfg = &self.cfg;
        let KernelScratch { ws, sources, .. } = &mut self.scratch;
        self.store.sources_into(sources);
        let stats = self.store.update_batch(sources, u, v, &mut |s, rec| {
            update_source(g, s, op, u, v, rec, partial, ws, cfg)
        })?;
        self.scratch.ws.stats.sources_skipped += stats.skipped;
        if let Some(s_new) = adopt {
            self.adopt(g, s_new)?;
        }
        if let Some(eid) = removed_eid {
            // every source has retracted its contribution; the slot is
            // recycled, so clear any residual floating-point dust
            self.partial.ebc[eid as usize] = 0.0;
        }
        Ok(())
    }

    /// Take a source that just arrived in `g` into this shard (paper §3.1):
    /// one fresh Brandes iteration adds its pair dependencies and its
    /// record. Its dependency vector is exactly the set of partial `vbc`
    /// entries the pass touched outside the kernel's dirty tracking, so
    /// those — and the new score slot itself — are marked dirty.
    pub(crate) fn adopt<G: GraphView>(&mut self, g: &G, s: VertexId) -> BdResult<()> {
        self.widen(g)?;
        let r = single_source_update_with(g, s, &mut self.partial, &mut self.scratch.brandes);
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

    /// The exact sum of the owned sources' records: this shard's term of
    /// the exact reduce, whatever subset of the sources it owns.
    pub fn exact_sum<G: GraphView>(&mut self, g: &G) -> BdResult<ExactSum> {
        ExactSum::of_store(g, &mut self.store)
    }

    /// Donor half of a handoff: serialize `source`'s record out of the
    /// store and stop owning it (`tag` travels into crash-safe backends'
    /// export journals).
    pub fn export(&mut self, source: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        self.store.export_source(source, tag)
    }

    /// Recipient half of a handoff: install a record exported by a peer.
    /// The imported source's historical contribution stays in the donor's
    /// partial (the fast reduce sums over all shards); only *future*
    /// updates for it accumulate here.
    pub fn import(&mut self, record: ExportedRecord) -> BdResult<()> {
        self.store
            .add_source(record.source, record.d, record.sigma, record.delta)
    }

    /// Discard the export journal left for `source`, the handoff having
    /// committed elsewhere.
    pub fn retire(&mut self, source: VertexId) -> BdResult<()> {
        self.store.retire_export(source)
    }

    /// Flush the store's durable backing (no-op for memory stores).
    pub fn flush(&mut self) -> BdResult<()> {
        self.store.flush()
    }
}
