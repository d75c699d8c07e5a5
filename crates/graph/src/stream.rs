//! Timestamped edge-update streams: the paper's evolving-graph input model.
//!
//! The framework (Figure 1) consumes "a stream of edges `ES` to be
//! added/removed ... seen as a stream of updates, i.e. one by one" (§3). For
//! the online experiments (§5.3, Figure 8, Table 5) every update carries an
//! arrival timestamp, and the system is *online* when the time to refresh
//! betweenness is below the inter-arrival gap.

use crate::graph::{Graph, GraphError, VertexId};
use serde::{Deserialize, Serialize};

/// Kind of graph update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeOp {
    /// Insert a (possibly component-merging) edge; may reference a brand-new
    /// vertex id one past the current maximum.
    Add,
    /// Delete an existing edge; may disconnect a component.
    Remove,
}

/// One timestamped update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeEvent {
    /// Arrival time in seconds (monotone non-decreasing within a stream).
    pub time: f64,
    /// Add or remove.
    pub op: EdgeOp,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl EdgeEvent {
    /// Convenience constructor for an addition.
    pub fn add(time: f64, u: VertexId, v: VertexId) -> Self {
        EdgeEvent {
            time,
            op: EdgeOp::Add,
            u,
            v,
        }
    }

    /// Convenience constructor for a removal.
    pub fn remove(time: f64, u: VertexId, v: VertexId) -> Self {
        EdgeEvent {
            time,
            op: EdgeOp::Remove,
            u,
            v,
        }
    }
}

/// An ordered stream of edge updates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EdgeStream {
    events: Vec<EdgeEvent>,
}

impl EdgeStream {
    /// Empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from events, sorting by timestamp (stable, so same-time events
    /// keep their relative order; [`f64::total_cmp`] order, so a non-finite
    /// time sorts rather than panics).
    pub fn from_events(mut events: Vec<EdgeEvent>) -> Self {
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        EdgeStream { events }
    }

    /// Append an event; must not go back in time.
    pub fn push(&mut self, ev: EdgeEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.time <= ev.time),
            "stream timestamps must be non-decreasing"
        );
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Borrow the events in order.
    pub fn events(&self) -> &[EdgeEvent] {
        &self.events
    }

    /// Inter-arrival gaps `t_i − t_{i−1}` (the first event's gap is measured
    /// from time 0). These are the quantities plotted in Figure 8.
    pub fn inter_arrival_times(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.events
            .iter()
            .map(|e| {
                let gap = e.time - prev;
                prev = e.time;
                gap
            })
            .collect()
    }

    /// Apply every event to `g` in order, growing the vertex set on demand
    /// for additions. Returns the number of events applied.
    pub fn apply_all(&self, g: &mut Graph) -> Result<usize, GraphError> {
        for ev in &self.events {
            match ev.op {
                EdgeOp::Add => {
                    g.ensure_vertex(ev.u.max(ev.v));
                    g.add_edge(ev.u, ev.v)?;
                }
                EdgeOp::Remove => {
                    g.remove_edge(ev.u, ev.v)?;
                }
            }
        }
        Ok(self.events.len())
    }
}

impl FromIterator<EdgeEvent> for EdgeStream {
    fn from_iter<I: IntoIterator<Item = EdgeEvent>>(iter: I) -> Self {
        EdgeStream::from_events(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_events_sorts() {
        let s = EdgeStream::from_events(vec![EdgeEvent::add(2.0, 0, 1), EdgeEvent::add(1.0, 1, 2)]);
        assert_eq!(s.events()[0].time, 1.0);
        assert_eq!(s.events()[1].time, 2.0);
    }

    #[test]
    fn inter_arrival() {
        let s = EdgeStream::from_events(vec![
            EdgeEvent::add(1.0, 0, 1),
            EdgeEvent::add(4.0, 1, 2),
            EdgeEvent::add(6.0, 2, 3),
        ]);
        assert_eq!(s.inter_arrival_times(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn apply_all_grows_graph() {
        let s = EdgeStream::from_events(vec![
            EdgeEvent::add(0.0, 0, 1),
            EdgeEvent::add(1.0, 1, 5),
            EdgeEvent::remove(2.0, 0, 1),
        ]);
        let mut g = Graph::new();
        s.apply_all(&mut g).unwrap();
        assert_eq!(g.n(), 6);
        assert!(g.has_edge(1, 5));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn apply_all_surfaces_errors() {
        let s = EdgeStream::from_events(vec![EdgeEvent::remove(0.0, 0, 1)]);
        let mut g = Graph::with_vertices(2);
        assert!(s.apply_all(&mut g).is_err());
    }
}
