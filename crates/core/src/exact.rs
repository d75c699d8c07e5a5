//! Partition-invariant exact score reduction.
//!
//! Floating-point addition is not associative, so summing per-worker partial
//! score vectors (the paper's reduce step) yields last-bit differences that
//! depend on how sources were partitioned: `(Σ Π_0) + (Σ Π_1)` rounds
//! differently from a single machine's flat fold over all sources. That
//! makes "the cluster matches the single-machine state" only an
//! epsilon-level statement — too weak to pin aggressive engine refactors.
//!
//! This module provides a reduction whose result is **bitwise independent of
//! the partitioning and of the fold order**, built on two facts:
//!
//! 1. **Per-source contributions are derivable from `BD[s]` alone.** The
//!    predecessor-free accumulation stores `δ_s(v)` exactly as the value it
//!    added to `VBC(v)`, and an edge `{a, b}` with `d_s[b] == d_s[a] + 1`
//!    received exactly `σ_s(a)/σ_s(b) · (1 + δ_s(b))` — the same expression,
//!    over the same stored operands, on every replica. Because the
//!    incremental kernel updates each `BD[s]` as a pure function of
//!    `(graph, BD[s], update)`, the records — and hence the derived
//!    contributions — are identical no matter which worker owns the source.
//! 2. **The sum is integer addition.** [`ExactSum`] converts every term to a
//!    signed 128-bit fixed-point value with 64 fractional bits
//!    and adds integers, which is associative and commutative: any cover of
//!    the sources, folded in any order and merged over any transport, holds
//!    the same integers, and [`ExactSum::into_scores`] rounds them to `f64`
//!    once.
//!
//! The engine's fast reduce (summing incrementally-maintained `f64`
//! partials) remains the paper-faithful `t_M` path; this module is the
//! oracle the parallel-consistency suite pins it against.

use crate::bd::{BdError, BdResult, BdStore};
use crate::scores::Scores;
use ebc_graph::{GraphView, VertexId, UNREACHABLE};

/// Fractional bits of [`ExactSum`]'s fixed-point format.
const FRAC_BITS: u32 = 64;

/// `2^FRAC_BITS` as an `f64` (a power of two, so scaling by it is exact).
const SCALE: f64 = (1u128 << FRAC_BITS) as f64;

/// Terms at or above `2^63` would overflow the integer half of a term.
const TERM_LIMIT: f64 = (1u64 << 63) as f64;

/// Derive source `s`'s exact score contribution from its stored `BD[s]`
/// record into `out` (which must be zeroed and shaped for `g`).
///
/// Bitwise identical to what one `accumulate_mo` pass for `s` adds to the
/// global scores: `VBC` gets the stored dependency `δ_s(v)` verbatim
/// (`v ≠ s`), and each tree edge of the SSSP DAG gets
/// `σ(pred)/σ(succ) · (1 + δ(succ))` — evaluated with the same operation
/// order as the accumulation loop.
pub fn source_contribution<G: GraphView>(
    g: &G,
    s: VertexId,
    d: &[u32],
    sigma: &[u64],
    delta: &[f64],
    out: &mut Scores,
) {
    out.vbc[..g.n()].copy_from_slice(&delta[..g.n()]);
    out.vbc[s as usize] = 0.0;
    // Per-edge work is a slot *assignment*, so the visit order difference
    // between `Graph` (hash map) and `CsrView` (segment scan) is immaterial.
    g.for_each_edge(|a, b, eid| {
        let (da, db) = (d[a as usize], d[b as usize]);
        if da == UNREACHABLE || db == UNREACHABLE {
            return;
        }
        let c = if db == da + 1 {
            sigma[a as usize] as f64 / sigma[b as usize] as f64 * (1.0 + delta[b as usize])
        } else if da == db + 1 {
            sigma[b as usize] as f64 / sigma[a as usize] as f64 * (1.0 + delta[a as usize])
        } else {
            return;
        };
        out.ebc[eid as usize] = c;
    });
}

/// One term in fixed point: the integer part and the fraction are each
/// converted by a hardware cast (`i64`, `u64`), so no `f64 → i128`
/// conversion runs. The fraction is truncated below `2^-FRAC_BITS`, the
/// same way everywhere. `None` for a non-finite, negative or `≥ 2^63` term.
fn to_fixed(x: f64) -> Option<i128> {
    if !(0.0..TERM_LIMIT).contains(&x) {
        return None;
    }
    let int = x as i64;
    let frac = ((x - int as f64) * SCALE) as u64;
    Some(i128::from(int) << FRAC_BITS | i128::from(frac))
}

/// Add `terms` into `sums` slot by slot; the first out-of-range term is
/// the error.
fn fold(sums: &mut [i128], terms: &[f64]) -> Result<(), f64> {
    for (acc, &x) in sums.iter_mut().zip(terms) {
        *acc = acc.wrapping_add(to_fixed(x).ok_or(x)?);
    }
    Ok(())
}

/// An order-free exact score sum: one signed 128-bit fixed-point value per
/// vertex slot and per edge slot, plus the number of sources folded in.
///
/// Every term is a finite `f64` in `[0, n)`, so a sum over fewer than
/// `2^31` sources cannot overflow; additions wrap rather than panic, which
/// keeps them associative even on hostile input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactSum {
    /// Vertex sums in units of `2^-64`, indexed by vertex id.
    pub vbc: Vec<i128>,
    /// Edge sums in units of `2^-64`, indexed by edge slot.
    pub ebc: Vec<i128>,
    /// Sources folded into this sum.
    pub sources: u64,
}

impl ExactSum {
    /// The empty sum shaped `(n, edge_slots)`.
    pub fn new(n: usize, edge_slots: usize) -> Self {
        ExactSum {
            vbc: vec![0; n],
            ebc: vec![0; edge_slots],
            sources: 0,
        }
    }

    /// Fold in source `s`'s contribution ([`source_contribution`]) from its
    /// record. A term that is non-finite, negative or `≥ 2^63` — a record
    /// with `σ = 0` at a reachable vertex, say — is [`BdError::Corrupt`]
    /// naming `s`; the sum is then unusable.
    pub fn add_source<G: GraphView>(
        &mut self,
        g: &G,
        s: VertexId,
        d: &[u32],
        sigma: &[u64],
        delta: &[f64],
    ) -> BdResult<()> {
        let mut leaf = Scores::zeros(self.vbc.len(), self.ebc.len());
        source_contribution(g, s, d, sigma, delta, &mut leaf);
        fold(&mut self.vbc, &leaf.vbc)
            .and_then(|()| fold(&mut self.ebc, &leaf.ebc))
            .map_err(|x| {
                BdError::Corrupt(format!("source {s}: score term {x} is not in [0, 2^63)"))
            })?;
        self.sources += 1;
        Ok(())
    }

    /// The sum of every record in `store`, shaped for `g`.
    pub fn of_store<G: GraphView, S: BdStore>(g: &G, store: &mut S) -> BdResult<Self> {
        let mut sum = ExactSum::new(g.n(), g.edge_slots());
        for s in store.sources() {
            let mut folded = Ok(());
            store.update_with(s, &mut |rec| {
                folded = sum.add_source(g, s, rec.d, rec.sigma, rec.delta);
                false
            })?;
            folded?;
        }
        Ok(sum)
    }

    /// Add another sum of the same shape (see [`ExactSum::check`]).
    pub fn merge(&mut self, other: &ExactSum) {
        let pairs =
            (self.vbc.iter_mut().zip(&other.vbc)).chain(self.ebc.iter_mut().zip(&other.ebc));
        for (acc, &x) in pairs {
            *acc = acc.wrapping_add(x);
        }
        self.sources = self.sources.wrapping_add(other.sources);
    }

    /// Refuse a sum that does not cover exactly `sources` sources or is not
    /// shaped `(n, edge_slots)`: a missing or doubled source, or a replica
    /// of another shape, would otherwise pass as a short or padded vector.
    pub fn check(&self, sources: usize, n: usize, edge_slots: usize) -> Result<(), String> {
        let got = (self.sources, self.vbc.len(), self.ebc.len());
        if got == (sources as u64, n, edge_slots) {
            Ok(())
        } else {
            Err(format!(
                "exact sum covers {} sources shaped ({}, {}), expected {sources} shaped ({n}, {edge_slots})",
                got.0, got.1, got.2
            ))
        }
    }

    /// Round every sum to the nearest `f64` — the one rounding the exact
    /// path performs.
    pub fn into_scores(self) -> Scores {
        let round = |xs: Vec<i128>| xs.into_iter().map(|x| x as f64 / SCALE).collect();
        Scores {
            vbc: round(self.vbc),
            ebc: round(self.ebc),
        }
    }
}

/// Exact scores of a full store (the single-machine embodiment): fold every
/// source, round once. Bitwise equal to merging the [`ExactSum`]s of any
/// partitioning of the same records.
pub fn exact_scores<G: GraphView, S: BdStore>(g: &G, store: &mut S) -> BdResult<Scores> {
    Ok(ExactSum::of_store(g, store)?.into_scores())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{BetweennessState, Update};
    use crate::verify::assert_matches_scratch;
    use ebc_graph::Graph;

    fn ring_with_chords(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n {
            g.add_edge(i as u32, ((i + 1) % n) as u32).unwrap();
        }
        for i in (0..n).step_by(3) {
            let _ = g.add_edge(i as u32, ((i + n / 2) % n) as u32);
        }
        g
    }

    #[test]
    fn exact_scores_match_brandes_within_epsilon() {
        let g = ring_with_chords(24);
        let mut st = BetweennessState::new(&g);
        st.apply(Update::add(0, 5)).unwrap();
        st.apply(Update::remove(1, 2)).unwrap();
        let exact = st.exact_scores().unwrap();
        assert_matches_scratch(st.graph(), &exact, 1e-6, "exact reduce");
    }

    /// Sum `sources` of the state's records, in the given order.
    fn fold(st: &mut BetweennessState, sources: &[VertexId]) -> ExactSum {
        let g = st.graph().clone();
        let mut sum = ExactSum::new(g.n(), g.edge_slots());
        for &s in sources {
            st.store_mut()
                .update_with(s, &mut |rec| {
                    sum.add_source(&g, s, rec.d, rec.sigma, rec.delta).unwrap();
                    false
                })
                .unwrap();
        }
        sum
    }

    #[test]
    fn incomplete_or_overlapping_covers_rejected() {
        let g = ring_with_chords(9);
        let mut st = BetweennessState::new(&g);
        let (n, slots) = (g.n(), g.edge_slots());
        let whole = fold(&mut st, &[8, 3, 0, 5, 1, 7, 2, 6, 4]);
        whole.check(9, n, slots).unwrap();
        assert_eq!(whole.clone().into_scores(), st.exact_scores().unwrap());
        let hole = fold(&mut st, &[0, 1, 2, 3, 5, 6, 7, 8]);
        assert!(hole.check(9, n, slots).is_err(), "hole not detected");
        let mut doubled = whole.clone();
        doubled.merge(&fold(&mut st, &[2]));
        assert!(doubled.check(9, n, slots).is_err(), "overlap not detected");
        assert!(whole.check(9, n + 1, slots).is_err(), "shape not checked");
    }

    #[test]
    fn fixed_point_splits_without_loss() {
        assert_eq!(to_fixed(0.0), Some(0));
        assert_eq!(to_fixed(-0.0), Some(0));
        assert_eq!(to_fixed(1.5), Some(3 << 63));
        assert_eq!(to_fixed(2f64.powi(-64)), Some(1));
        for x in [0.1, 1.0 / 3.0, 7.25, 123456.789] {
            let back = to_fixed(x).unwrap() as f64 / SCALE;
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        for bad in [-1e-300, f64::NAN, f64::INFINITY, TERM_LIMIT] {
            assert_eq!(to_fixed(bad), None, "{bad}");
        }
    }
}
