//! The query and ownership reports the `streaming-bc` facade hands out,
//! whatever embodiment answered:
//!
//! * [`Reduced`] — what the fast and the exact reduce return: the scores
//!   plus the wall-clock time spent producing them;
//! * [`ShardAssignment`] — a point-in-time view of the source→shard map;
//! * [`RebalanceOutcome`] — the moves a handoff or a rebalance executed.
//!
//! Every operation producing them fails with the framework's one
//! [`ebc_graph::Error`].

use crate::scores::Scores;
use ebc_graph::VertexId;
use std::time::Duration;

/// Outcome of one reduce (fast or exact): the assembled scores and the
/// wall-clock time spent producing them — the paper's `t_M` for the
/// partitioned fast reduce, the derivation time for the exact one.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The assembled vertex and edge betweenness scores.
    pub scores: Scores,
    /// Wall-clock time of the reduce that produced them.
    pub wall: Duration,
}

/// A point-in-time view of a partitioned session's source→shard ownership:
/// which worker answers for which sources, and the version of the map that
/// said so. A one-worker session has no map to show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Version of the ownership map (bumps once per committed handoff).
    pub version: u64,
    /// `assignment[k]` is the list of sources worker `k` owns, in the
    /// map's internal (adoption/handoff) order. The lists partition the
    /// current vertex set.
    pub assignment: Vec<Vec<VertexId>>,
}

impl ShardAssignment {
    /// Total owned sources across all shards (equals the graph's `n`).
    pub fn total(&self) -> usize {
        self.assignment.iter().map(Vec::len).sum()
    }

    /// Owned-source skew: `max − min` across shards.
    pub fn skew(&self) -> usize {
        let max = self.assignment.iter().map(Vec::len).max().unwrap_or(0);
        let min = self.assignment.iter().map(Vec::len).min().unwrap_or(0);
        max - min
    }
}

/// What a rebalance or a handoff did: the executed source moves (each
/// `(source, from, to)`), the effective skew threshold, and the map version
/// after the last committed move. Scores are never affected — ownership
/// moves are score-neutral by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// Executed handoffs in commit order (empty when the skew was already
    /// within the threshold).
    pub moves: Vec<(VertexId, usize, usize)>,
    /// The effective threshold (requests below 1 are clamped up; `0` for a
    /// single explicit handoff).
    pub threshold: usize,
    /// Ownership-map version after the last committed move.
    pub map_version: u64,
}
