//! Reusable per-worker kernel arena.
//!
//! The map phase runs one kernel invocation per owned source per update;
//! everything a kernel touches besides the `BD[s]` records themselves lives
//! here so the steady-state hot path performs **no allocation per update**:
//!
//! * [`Workspace`] — the incremental kernel's epoch-stamped scratch
//!   (frontier queues, new-value overlays, touch lists);
//! * [`BrandesScratch`] — BFS scratch for fresh-source bootstraps and
//!   adoption recomputes.
//!
//! All buffers grow monotonically with the graph and are reused across
//! updates and across sources (the paper's "constant memory per source"
//! argument only holds if the harness does not allocate behind the
//! kernel's back).

use crate::brandes::BrandesScratch;
use crate::incremental::Workspace;

/// Bundled scratch state for one worker's kernel invocations.
#[derive(Debug)]
pub struct KernelScratch {
    /// Incremental-kernel workspace (epoch reset, O(1) between sources).
    pub ws: Workspace,
    /// BFS scratch for full single-source recomputes.
    pub brandes: BrandesScratch,
}

impl KernelScratch {
    /// Arena sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        KernelScratch {
            ws: Workspace::new(n),
            brandes: BrandesScratch::new(n),
        }
    }

    /// Widen every buffer to `n` vertices (no-op when already that wide).
    pub fn grow(&mut self, n: usize) {
        self.ws.grow(n);
        // BrandesScratch sizes itself on reset; nothing to widen eagerly.
    }
}
