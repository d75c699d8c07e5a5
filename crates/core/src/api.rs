//! The polymorphic engine surface the `streaming-bc` facade builds on.
//!
//! The paper presents **one** framework with interchangeable embodiments —
//! memory vs. disk `BD[·]`, single machine vs. `p`-way partitioned — yet the
//! concrete types ([`BetweennessState`] here, `ClusterEngine` in
//! `ebc-engine`) historically exposed different constructors and different
//! query signatures (`reduce` returned `(Scores, Duration)`, `reduce_exact`
//! bare `Scores`, the single state borrowed its running scores). This module
//! extracts the common contract:
//!
//! * [`Reduced`] — the one query report both the fast and the exact reduce
//!   return: the scores plus the wall-clock time spent producing them;
//! * [`EbcEngine`] — the trait erasing the single-machine vs. cluster split
//!   at the call site: `apply`/`apply_stream` to stream updates,
//!   `scores`/`reduce_exact` to query, `top_k` for the ranking view
//!   ([`crate::ranking`]), and `verify` for the recompute-from-scratch
//!   oracle.
//!
//! Every method fails with the framework's one [`Error`], and an
//! embodiment never translates a kind: a refused update is `Invalid`
//! whichever engine refused it, a move a single machine cannot make is
//! `Unsupported`, a failed `verify` is `Corrupt`, and a partitioned engine
//! poisoned by a worker failure answers `Lost`.
//!
//! Every query method takes `&mut self`: partitioned embodiments must run a
//! reduce over their workers to answer, and out-of-core stores seek even on
//! reads. The single-machine implementation simply clones its running
//! scores.

use crate::bd::BdStore;
use crate::rankindex::ScoreDelta;
use crate::ranking;
use crate::scores::Scores;
use crate::state::{BetweennessState, Update};
use crate::verify::{divergence_from_scratch, Divergence};
use ebc_graph::{Error, Graph, VertexId};
use std::time::{Duration, Instant};

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

impl Reduced {
    /// Measure `f` and wrap its output.
    pub fn timed(f: impl FnOnce() -> Scores) -> Self {
        let t0 = Instant::now();
        let scores = f();
        Reduced {
            scores,
            wall: t0.elapsed(),
        }
    }
}

/// A point-in-time view of a partitioned engine's source→shard ownership:
/// which worker answers for which sources, and the version of the map that
/// said so. Single-machine embodiments have no map and return `None` from
/// [`EbcEngine::shard_map`].
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

/// What a [`EbcEngine::rebalance`] or [`EbcEngine::handoff`] did: the
/// executed source moves (each `(source, from, to)`), the effective skew
/// threshold, and the map version after the last committed move. Scores are
/// never affected — ownership moves are score-neutral by construction.
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

/// One online-betweenness engine, whatever its embodiment.
///
/// Implemented by [`BetweennessState`] (single machine, any [`BdStore`])
/// and by `ebc-engine`'s `ClusterEngine` (the `p`-worker shared-nothing
/// pool); the `streaming-bc` facade's `Session` drives either through a
/// `Box<dyn EbcEngine>` built by its `SessionBuilder`.
pub trait EbcEngine {
    /// The current graph.
    fn graph(&self) -> &Graph;

    /// Number of workers executing the map phase (1 for the single-machine
    /// embodiment).
    fn workers(&self) -> usize;

    /// Apply one edge update, keeping the scores current.
    fn apply(&mut self, update: Update) -> Result<(), Error>;

    /// Apply a batch of updates in order, reporting how many were actually
    /// applied. Partitioned embodiments pipeline dispatch against
    /// collection; on a mid-batch validation error the already dispatched
    /// prefix still completes — it is durable state, and history/journaling
    /// layers must record exactly that prefix — and the error is returned
    /// beside its length. The count is meaningful for validation errors; an
    /// engine-poisoning failure leaves it a lower bound.
    fn apply_stream(&mut self, updates: &[Update]) -> (usize, Result<(), Error>) {
        for (i, &u) in updates.iter().enumerate() {
            if let Err(e) = self.apply(u) {
                return (i, Err(e));
            }
        }
        (updates.len(), Ok(()))
    }

    /// The fast query path: the incrementally maintained scores (cluster
    /// embodiments fold per-worker partials — the paper's reduce, bitwise
    /// dependent on the worker count).
    fn scores(&mut self) -> Result<Reduced, Error>;

    /// The partition-invariant exact reduction of [`crate::exact`]: bitwise
    /// identical across embodiments, worker counts, and store backends for
    /// the same update history.
    fn reduce_exact(&mut self) -> Result<Reduced, Error>;

    /// Edge betweenness of `{u, v}`, `None` if the edge is absent.
    fn edge_centrality(&mut self, u: VertexId, v: VertexId) -> Result<Option<f64>, Error> {
        let reduced = self.scores()?;
        Ok(reduced.scores.ebc_of(self.graph(), u, v))
    }

    /// The `k` currently most central vertices (ties toward smaller id),
    /// via [`crate::ranking::top_k`] over the fast-path scores.
    fn top_k(&mut self, k: usize) -> Result<Vec<VertexId>, Error> {
        let reduced = self.scores()?;
        Ok(ranking::top_k(&reduced.scores.vbc, k))
    }

    /// Drain what changed in the fast-path scores since the last drain, for
    /// incremental [`crate::rankindex::RankIndex`] maintenance. Applying
    /// every drained delta in order to one index reproduces the engine's
    /// current fast-path vector bit for bit.
    ///
    /// The default cannot track changes and republishes densely every call;
    /// embodiments with dirty tracking (the single-machine kernel) or a
    /// published-vector cache (the cluster reduce) override this with
    /// sparse deltas.
    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        Ok(ScoreDelta::Dense(self.scores()?.scores.vbc))
    }

    /// Compare the engine's exact scores against a fresh Brandes
    /// recomputation on the current graph. Returns the divergence when it is
    /// within `tol`; beyond it the scores are `Corrupt`.
    fn verify(&mut self, tol: f64) -> Result<Divergence, Error> {
        let reduced = self.reduce_exact()?;
        let d = divergence_from_scratch(self.graph(), &reduced.scores);
        if d.within(tol) {
            Ok(d)
        } else {
            Err(Error::corrupt(format!(
                "scores diverged from recomputation \
                 (max VBC diff {:.3e}, max EBC diff {:.3e}, tolerance {tol:.1e})",
                d.vbc, d.ebc
            )))
        }
    }

    /// Flush any durable backing storage (no-op for in-memory embodiments).
    fn flush(&mut self) -> Result<(), Error>;

    /// Version of the source-ownership map for partitioned embodiments
    /// (`None` on a single machine, where ownership never moves). The
    /// facade records this in its session manifest at checkpoint time.
    fn shard_map_version(&self) -> Option<u64> {
        None
    }

    /// Brandes single-source iterations this engine has executed (bootstrap
    /// plus adopted arrivals) — the durable-restart suite asserts this is
    /// `Some(0)` right after a resume. Every embodiment counts them.
    fn brandes_runs(&self) -> Option<u64>;

    /// The current source→shard ownership of a partitioned embodiment, or
    /// `None` on a single machine (where every source lives in the one
    /// store and ownership never moves).
    fn shard_map(&self) -> Option<ShardAssignment> {
        None
    }

    /// Hand ownership of `source` to worker `to` (an explicit, out-of-plan
    /// move — e.g. draining a machine before maintenance). Score-neutral.
    /// Single-machine embodiments have nowhere to move a source and error.
    fn handoff(&mut self, source: VertexId, to: usize) -> Result<RebalanceOutcome, Error> {
        let _ = (source, to);
        Err(Error::unsupported(
            "handoff requires a sharded engine (workers > 1)",
        ))
    }

    /// Restore the owned-source skew invariant `max − min ≤ threshold`
    /// through the engine's journaled handoff path, returning the executed
    /// moves. Score-neutral. Single-machine embodiments error.
    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        let _ = threshold;
        Err(Error::unsupported(
            "rebalance requires a sharded engine (workers > 1)",
        ))
    }
}

impl<S: BdStore> EbcEngine for BetweennessState<S> {
    fn graph(&self) -> &Graph {
        BetweennessState::graph(self)
    }

    fn workers(&self) -> usize {
        1
    }

    fn apply(&mut self, update: Update) -> Result<(), Error> {
        BetweennessState::apply(self, update)
    }

    fn scores(&mut self) -> Result<Reduced, Error> {
        Ok(Reduced::timed(|| BetweennessState::scores(self).clone()))
    }

    fn reduce_exact(&mut self) -> Result<Reduced, Error> {
        let t0 = Instant::now();
        let scores = self.exact_scores()?;
        Ok(Reduced {
            scores,
            wall: t0.elapsed(),
        })
    }

    fn edge_centrality(&mut self, u: VertexId, v: VertexId) -> Result<Option<f64>, Error> {
        // the single state answers from its running scores without a clone
        Ok(BetweennessState::edge_centrality(self, u, v))
    }

    fn top_k(&mut self, k: usize) -> Result<Vec<VertexId>, Error> {
        Ok(ranking::top_k(&BetweennessState::scores(self).vbc, k))
    }

    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        Ok(BetweennessState::take_score_delta(self))
    }

    fn brandes_runs(&self) -> Option<u64> {
        Some(BetweennessState::brandes_runs(self))
    }

    fn flush(&mut self) -> Result<(), Error> {
        self.store_mut().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Update;
    use ebc_graph::{ErrorKind, GraphError};

    fn square() -> Graph {
        let mut g = Graph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    fn as_engine(state: &mut BetweennessState) -> &mut dyn EbcEngine {
        state
    }

    #[test]
    fn single_state_behind_the_trait() {
        let mut st = BetweennessState::new(&square());
        let engine = as_engine(&mut st);
        assert_eq!(engine.workers(), 1);
        engine.apply(Update::add(0, 2)).unwrap();
        let (applied, result) = engine.apply_stream(&[Update::add(1, 3), Update::remove(0, 2)]);
        result.unwrap();
        assert_eq!(applied, 2);
        let fast = engine.scores().unwrap();
        let exact = engine.reduce_exact().unwrap();
        assert!(fast.scores.max_vbc_diff(&exact.scores) < 1e-9);
        assert!(engine.edge_centrality(1, 3).unwrap().unwrap() > 0.0);
        assert_eq!(engine.edge_centrality(0, 2).unwrap(), None);
        assert_eq!(engine.top_k(2).unwrap().len(), 2);
        engine.verify(1e-6).unwrap();
        engine.flush().unwrap();
    }

    #[test]
    fn trait_surfaces_validation_errors() {
        let mut st = BetweennessState::new(&square());
        let engine = as_engine(&mut st);
        let refused = |r: Result<(), Error>| r.unwrap_err().graph_error();
        assert_eq!(
            refused(engine.apply(Update::add(0, 1))),
            Some(GraphError::DuplicateEdge(0, 1))
        );
        assert_eq!(
            refused(engine.apply(Update::add(0, 9))),
            Some(GraphError::SparseVertex(9))
        );
        // still usable afterwards
        engine.apply(Update::add(0, 2)).unwrap();
        engine.verify(1e-6).unwrap();
    }

    #[test]
    fn single_machine_has_no_shard_surface() {
        let mut st = BetweennessState::new(&square());
        let engine = as_engine(&mut st);
        assert!(engine.shard_map().is_none());
        let kind = |e: Error| e.kind();
        assert_eq!(
            engine.handoff(0, 1).map_err(kind),
            Err(ErrorKind::Unsupported)
        );
        assert_eq!(
            engine.rebalance(1).map_err(kind),
            Err(ErrorKind::Unsupported)
        );
    }

    #[test]
    fn verify_reports_divergence() {
        let mut st = BetweennessState::new(&square());
        // sabotage the running scores: verify goes through reduce_exact,
        // which re-derives from records, so corrupt a record instead
        st.store_mut()
            .update_with(0, &mut |view| {
                view.delta[2] += 64.0;
                true
            })
            .unwrap();
        let engine = as_engine(&mut st);
        assert_eq!(engine.verify(1e-6).unwrap_err().kind(), ErrorKind::Corrupt);
    }

    #[test]
    fn corrupt_record_is_a_typed_error() {
        let mut st = BetweennessState::new(&square());
        // σ = 0 at a reachable vertex makes a DAG edge's term infinite
        st.store_mut()
            .update_with(0, &mut |view| {
                view.sigma[1] = 0;
                true
            })
            .unwrap();
        let names_source_0 =
            |e: &Error| e.kind() == ErrorKind::Corrupt && e.source_vertex() == Some(0);
        match crate::exact::exact_scores(&square(), st.store_mut()) {
            Err(e) => assert!(names_source_0(&e), "{e}"),
            Ok(_) => panic!("a corrupt record summed"),
        }
        match as_engine(&mut st).verify(1e-6) {
            Err(e) => assert!(names_source_0(&e), "{e}"),
            Ok(d) => panic!("a corrupt record verified: {d:?}"),
        }
    }
}
