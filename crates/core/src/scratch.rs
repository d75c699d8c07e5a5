//! Reusable per-worker kernel arena.
//!
//! The map phase runs one kernel invocation per owned source per update;
//! everything a kernel touches besides the `BD[s]` records themselves lives
//! here so the steady-state hot path performs **no allocation per update**:
//!
//! * [`Workspace`] — the incremental kernel's epoch-stamped scratch
//!   (frontier queues, new-value overlays, touch lists);
//! * [`BrandesScratch`] — BFS scratch for fresh-source bootstraps and
//!   adoption recomputes;
//! * a sources buffer filled via [`BdStore::sources_into`], replacing the
//!   `Vec` the store used to hand out on every update.
//!
//! All buffers grow monotonically with the graph and are reused across
//! updates and across sources (the paper's "constant memory per source"
//! argument only holds if the harness does not allocate behind the
//! kernel's back).

use crate::bd::BdStore;
use crate::brandes::BrandesScratch;
use crate::incremental::Workspace;
use ebc_graph::VertexId;

/// Bundled scratch state for one worker's kernel invocations.
#[derive(Debug)]
pub struct KernelScratch {
    /// Incremental-kernel workspace (epoch reset, O(1) between sources).
    pub ws: Workspace,
    /// BFS scratch for full single-source recomputes.
    pub brandes: BrandesScratch,
    /// Source enumeration buffer, refreshed from the store each update.
    pub sources: Vec<VertexId>,
}

impl KernelScratch {
    /// Arena sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        KernelScratch {
            ws: Workspace::new(n),
            brandes: BrandesScratch::new(n),
            sources: Vec::new(),
        }
    }

    /// Widen every buffer to `n` vertices (no-op when already that wide).
    pub fn grow(&mut self, n: usize) {
        self.ws.grow(n);
        // BrandesScratch sizes itself on reset; nothing to widen eagerly.
    }

    /// Refresh the sources buffer from `store` (allocation-free for
    /// backends that override [`BdStore::sources_into`]).
    pub fn refresh_sources<S: BdStore + ?Sized>(&mut self, store: &S) -> &[VertexId] {
        store.sources_into(&mut self.sources);
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bd::MemoryBdStore;

    #[test]
    fn refresh_sources_tracks_the_store() {
        let mut st = MemoryBdStore::new(2);
        st.add_source(3, vec![0, 1], vec![1, 1], vec![0.0, 0.0])
            .unwrap();
        st.add_source(1, vec![1, 0], vec![1, 1], vec![0.0, 0.0])
            .unwrap();
        let mut scratch = KernelScratch::new(2);
        assert_eq!(scratch.refresh_sources(&st), &[3, 1]);
        st.remove_source(3).unwrap();
        assert_eq!(scratch.refresh_sources(&st), &[1]);
    }
}
