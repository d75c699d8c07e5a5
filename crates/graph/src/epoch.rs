//! A single-writer graph whose readers pin frozen snapshots.
//!
//! No code of the framework uses [`EpochGraph`]: every shard owns its own
//! [`Graph`] replica and folds updates into it. The type stays because the
//! benchmark ladder (`sbc_bench/src/ladder.rs`) times its
//! mutate-and-publish cost (`graph.mutate_publish_us`) and reports the
//! pinned snapshot's [`Graph::resident_bytes`] (`graph.csr_bytes`).

use crate::graph::{EdgeId, Graph, GraphError, VertexId};
use std::sync::Arc;

/// A graph behind an [`Arc`]: a pin is frozen, and the writer copies the
/// graph on its next mutation while any pin is held (copy-on-write), or
/// mutates in place when none is.
#[derive(Debug)]
pub struct EpochGraph {
    current: Arc<Graph>,
}

impl EpochGraph {
    /// Wrap `graph`.
    pub fn new(graph: Graph) -> Self {
        EpochGraph {
            current: Arc::new(graph),
        }
    }

    /// Insert edge `{u, v}` ([`Graph::add_edge`]).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        Arc::make_mut(&mut self.current).add_edge(u, v)
    }

    /// Remove edge `{u, v}` ([`Graph::remove_edge`]).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        Arc::make_mut(&mut self.current).remove_edge(u, v)
    }

    /// The snapshot holding every mutation so far.
    pub fn publish(&mut self) -> Arc<Graph> {
        self.pin()
    }

    /// Pin the current snapshot; later mutations do not reach it.
    pub fn pin(&self) -> Arc<Graph> {
        Arc::clone(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_epoch_stays_frozen_across_publishes() {
        let mut eg = EpochGraph::new(Graph::from_edges([(0, 1), (1, 2), (2, 0)]));
        let pinned = eg.publish();
        eg.remove_edge(2, 0).unwrap();
        eg.add_edge(0, 2).unwrap();
        let fresh = eg.publish();
        // the old pin still shows the graph it was taken at
        assert!(pinned.has_edge(2, 0));
        assert_eq!(pinned.neighbors(0)[1].to, 2);
        assert_eq!(fresh.neighbors(2)[0].to, 1);
        assert!(!Arc::ptr_eq(&pinned, &fresh));
        // with no pin held the writer mutates in place
        drop((pinned, fresh));
        let before = Arc::as_ptr(&eg.pin());
        eg.remove_edge(0, 1).unwrap();
        assert_eq!(Arc::as_ptr(&eg.publish()), before);
        assert!(eg.pin().resident_bytes() > 0);
    }
}
