//! Recompute-from-scratch oracles.
//!
//! The load-bearing correctness property of the whole framework is: after any
//! sequence of updates, the incrementally maintained scores equal a fresh
//! Brandes recomputation on the final graph. These helpers package that check
//! for unit tests, property tests, integration tests, and the experiment
//! harness (which uses it to validate every speedup measurement).

use crate::brandes::brandes;
use crate::scores::Scores;
use ebc_graph::{Error, Graph};

/// Outcome of an oracle comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Max absolute vertex-betweenness difference.
    pub vbc: f64,
    /// Max absolute edge-betweenness difference over live edges.
    pub ebc: f64,
}

impl Divergence {
    /// True when both diffs are below `tol`.
    pub fn within(&self, tol: f64) -> bool {
        self.vbc <= tol && self.ebc <= tol
    }
}

/// Compare maintained `scores` against a fresh recomputation on `g`.
pub fn divergence_from_scratch(g: &Graph, scores: &Scores) -> Divergence {
    let fresh = brandes(g);
    Divergence {
        vbc: scores.max_vbc_diff(&fresh),
        ebc: scores.max_ebc_diff(&fresh, g),
    }
}

/// Compare `scores` against a fresh recomputation on `g`: the divergence
/// when it is within `tol`, beyond it the scores are `Corrupt`.
pub fn check(g: &Graph, scores: &Scores, tol: f64) -> Result<Divergence, Error> {
    let d = divergence_from_scratch(g, scores);
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

/// Panic (with a readable report) if `scores` diverges from a fresh
/// recomputation by more than `tol`.
pub fn assert_matches_scratch(g: &Graph, scores: &Scores, tol: f64, context: &str) {
    let d = divergence_from_scratch(g, scores);
    assert!(
        d.within(tol),
        "{context}: incremental scores diverged from recomputation \
         (max VBC diff {:.3e}, max EBC diff {:.3e}, tolerance {tol:.1e})",
        d.vbc,
        d.ebc,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bd::BdStore;
    use crate::brandes::brandes;
    use crate::state::BetweennessState;
    use ebc_graph::ErrorKind;

    #[test]
    fn identical_scores_have_zero_divergence() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        let s = brandes(&g);
        let d = divergence_from_scratch(&g, &s);
        assert_eq!(d.vbc, 0.0);
        assert_eq!(d.ebc, 0.0);
        assert!(d.within(1e-12));
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn corrupted_scores_detected() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut s = brandes(&g);
        s.vbc[1] += 1.0;
        assert_matches_scratch(&g, &s, 1e-9, "corrupt");
    }

    fn square() -> Graph {
        let mut g = Graph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    /// What a session's `verify` runs: the exact scores, then the check.
    fn verify_state(st: &mut BetweennessState, tol: f64) -> Result<Divergence, Error> {
        let exact = st.exact_scores()?;
        check(st.graph(), &exact, tol)
    }

    #[test]
    fn verify_reports_divergence() {
        let mut st = BetweennessState::new(&square());
        verify_state(&mut st, 1e-6).unwrap();
        // the exact scores re-derive from records, so corrupt a record
        st.store_mut()
            .update_with(0, &mut |view| {
                view.delta[2] += 64.0;
                true
            })
            .unwrap();
        let err = verify_state(&mut st, 1e-6).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt);
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
        match verify_state(&mut st, 1e-6) {
            Err(e) => assert!(names_source_0(&e), "{e}"),
            Ok(d) => panic!("a corrupt record verified: {d:?}"),
        }
    }
}
