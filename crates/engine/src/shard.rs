//! The per-shard compute core, factored out of the worker pool so every
//! embodiment of "one machine owning a source partition" runs the same
//! code path.
//!
//! A [`ShardState`] bundles exactly the state one shard owns — its private
//! `BD` store, its incrementally maintained partial [`Scores`], and the
//! kernel scratch arena — and exposes the shard-side half of every pool
//! command as a plain method: bootstrap, resume, the per-update map task,
//! the shard's exact sum, and the export/import/retire halves of a
//! handoff. The in-process `WorkerPool` threads delegate
//! here, and the remote shard nodes of `ebc-cluster` drive the *same*
//! methods from wire frames — which is what makes a replica's replay
//! bitwise identical to its leader: both sides run this code, in the same
//! op order, over structurally identical graph replicas.
//!
//! Methods are generic over [`GraphView`] because the two callers pin
//! structure differently: pool workers compute against a shared
//! [`CsrView`](ebc_graph::csr::CsrView) epoch shipped with each command,
//! while remote nodes maintain a private [`Graph`](ebc_graph::Graph)
//! replica mutated by the replicated op stream.

use ebc_core::bd::{BdResult, BdStore, ExportedRecord};
use ebc_core::brandes::single_source_update_with;
use ebc_core::exact::ExactSum;
use ebc_core::incremental::{update_source, UpdateConfig};
use ebc_core::scores::Scores;
use ebc_core::scratch::KernelScratch;
use ebc_core::state::Update;
use ebc_graph::{EdgeId, GraphView, VertexId};

/// One shard's complete compute state: private record store, accumulated
/// partial scores, and the reusable kernel arena.
pub struct ShardState<S: BdStore> {
    store: S,
    partial: Scores,
    scratch: KernelScratch,
    cfg: UpdateConfig,
}

impl<S: BdStore> ShardState<S> {
    /// Wrap `store` with zeroed partials shaped `(n, edge_slots)`.
    pub fn new(store: S, n: usize, edge_slots: usize, cfg: UpdateConfig) -> Self {
        ShardState {
            store,
            partial: Scores::zeros(n, edge_slots),
            scratch: KernelScratch::new(n),
            cfg,
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

    /// Bootstrap the partition: one Brandes iteration per owned source,
    /// accumulated into the partial scores (step 1 of the paper's
    /// Figure 4). Returns the Brandes iteration count.
    pub fn bootstrap<G: GraphView>(&mut self, g: &G, sources: &[VertexId]) -> BdResult<u64> {
        for &s in sources {
            let r = single_source_update_with(g, s, &mut self.partial, &mut self.scratch.brandes);
            self.store.add_source(s, r.d, r.sigma, r.delta)?;
        }
        Ok(sources.len() as u64)
    }

    /// Rehydrate the partial score vector from the store's existing
    /// records: the partial is the shard's [`ShardState::exact_sum`],
    /// rounded once, so a restart is reproducible whatever order the store
    /// lists its sources in. No Brandes iteration runs — hence the returned
    /// count of 0.
    pub fn resume<G: GraphView>(&mut self, g: &G) -> BdResult<u64> {
        self.partial = self.exact_sum(g)?.into_scores();
        Ok(0)
    }

    /// Map task for one update against the **post-update** view `g`: widen
    /// store/scratch/partials to the view's dimensions, run the incremental
    /// kernel for every owned source (skipping `dd == 0` via the cheap
    /// peek), Brandes-adopt `adopt` if a new source arrived here, and zero
    /// the score slot freed by a removal.
    pub fn apply<G: GraphView>(
        &mut self,
        g: &G,
        update: Update,
        removed_eid: Option<EdgeId>,
        adopt: Option<VertexId>,
    ) -> BdResult<()> {
        let Update { op, u, v } = update;
        while self.store.n() < g.n() {
            self.store.grow_vertex()?;
        }
        self.scratch.grow(g.n());
        self.partial.ensure_shape(g.n(), g.edge_slots());
        let partial = &mut self.partial;
        let cfg = &self.cfg;
        let KernelScratch { ws, sources, .. } = &mut self.scratch;
        self.store.sources_into(sources);
        let stats = self.store.update_batch(sources, u, v, &mut |s, rec| {
            update_source(g, s, op, u, v, rec, partial, ws, cfg)
        })?;
        self.scratch.ws.stats.sources_skipped += stats.skipped;
        if let Some(s_new) = adopt {
            let r =
                single_source_update_with(g, s_new, &mut self.partial, &mut self.scratch.brandes);
            self.store.add_source(s_new, r.d, r.sigma, r.delta)?;
        }
        if let Some(eid) = removed_eid {
            self.partial.ebc[eid as usize] = 0.0;
        }
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
