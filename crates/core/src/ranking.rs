//! Centrality-ranking utilities.
//!
//! The paper's closing application is "online detection and prediction of
//! emerging leaders and communities in social networks" (§7): what users of
//! the framework consume is rarely the raw scores but the *ranking* they
//! induce and how it shifts as the graph evolves. This module provides:
//!
//! * [`top_k`] — the current leaders (deterministic tie-breaking by id);
//! * [`RankTracker`] — turnover monitoring across updates.

/// Indices of the `k` largest scores, ties broken toward smaller index.
///
/// Ordering is [`f64::total_cmp`], so NaN never panics: a positive-bit
/// NaN ranks above `+∞`, a negative-bit NaN below `-∞`, and `-0.0` below
/// `+0.0` — deterministic whatever the input. Partial selection keeps
/// this `O(n + k log k)`; it is the bitwise oracle the incremental
/// [`crate::rankindex::RankIndex`] is property-tested against.
pub fn top_k(scores: &[f64], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    let cmp = |a: &u32, b: &u32| {
        scores[*b as usize]
            .total_cmp(&scores[*a as usize])
            .then(a.cmp(b))
    };
    if k == 0 {
        idx.clear();
        return idx;
    }
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// Tracks top-k turnover across a stream of score snapshots.
#[derive(Debug, Clone)]
pub struct RankTracker {
    k: usize,
    current: Vec<u32>,
    /// Total number of entries that entered the top-k across all observed
    /// transitions.
    pub entries: usize,
    /// Number of snapshots observed.
    pub snapshots: usize,
}

impl RankTracker {
    /// Track the top `k` ranks.
    pub fn new(k: usize) -> Self {
        RankTracker {
            k,
            current: Vec::new(),
            entries: 0,
            snapshots: 0,
        }
    }

    /// Observe a new snapshot; returns `(entered, left)` vertex ids.
    pub fn observe(&mut self, scores: &[f64]) -> (Vec<u32>, Vec<u32>) {
        let next = top_k(scores, self.k);
        self.observe_ranked(next)
    }

    /// Observe an already-ranked top-k list — e.g. an `O(k)` walk of the
    /// incrementally maintained [`crate::rankindex::RankIndex`] — skipping
    /// the re-sort `observe` would pay. The list must be in rank order
    /// and at most `k` long.
    pub fn observe_ranked(&mut self, next: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
        let prev: std::collections::HashSet<u32> = self.current.iter().copied().collect();
        let next_set: std::collections::HashSet<u32> = next.iter().copied().collect();
        let entered: Vec<u32> = next.iter().copied().filter(|v| !prev.contains(v)).collect();
        let left: Vec<u32> = self
            .current
            .iter()
            .copied()
            .filter(|v| !next_set.contains(v))
            .collect();
        if self.snapshots > 0 {
            self.entries += entered.len();
        }
        self.current = next;
        self.snapshots += 1;
        (entered, left)
    }

    /// The current top-k.
    pub fn current(&self) -> &[u32] {
        &self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_and_breaks_ties() {
        let scores = [1.0, 5.0, 5.0, 0.0, 3.0];
        assert_eq!(top_k(&scores, 3), vec![1, 2, 4]);
        assert_eq!(top_k(&scores, 0), Vec::<u32>::new());
        assert_eq!(top_k(&scores, 99).len(), 5);
    }

    #[test]
    fn top_k_handles_nan_without_panicking() {
        // total_cmp order: +NaN above +inf, -NaN below -inf, -0.0 < +0.0
        let scores = [f64::NAN, 1.0, f64::INFINITY, -f64::NAN, f64::NEG_INFINITY];
        assert_eq!(top_k(&scores, 5), vec![0, 2, 1, 4, 3]);
        assert_eq!(top_k(&scores, 2), vec![0, 2]);
        let zeros = [-0.0, 0.0, -0.0];
        assert_eq!(top_k(&zeros, 3), vec![1, 0, 2]);
    }

    #[test]
    fn top_k_tie_boundary_prefers_smaller_ids_across_the_cut() {
        // five equal scores straddling k=3: selection must keep ids 0..3
        let scores = [7.0; 5];
        assert_eq!(top_k(&scores, 3), vec![0, 1, 2]);
        // equal block in the middle of distinct values
        let scores = [1.0, 5.0, 5.0, 5.0, 9.0, 5.0];
        assert_eq!(top_k(&scores, 4), vec![4, 1, 2, 3]);
        assert_eq!(top_k(&scores, 5), vec![4, 1, 2, 3, 5]);
    }

    #[test]
    fn top_k_selection_matches_full_sort() {
        // the O(n + k log k) path must agree with a full comparator sort
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let scores: Vec<f64> = (0..200)
            .map(|_| match next() % 8 {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::INFINITY,
                _ => (next() % 7) as f64,
            })
            .collect();
        let mut full: Vec<u32> = (0..scores.len() as u32).collect();
        full.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        for k in [0, 1, 7, 50, 199, 200, 500] {
            let mut want = full.clone();
            want.truncate(k);
            assert_eq!(top_k(&scores, k), want, "k={k}");
        }
    }

    #[test]
    fn tracker_set_diff_matches_naive_scan() {
        // the HashSet-based diff must agree with the quadratic scan it
        // replaced, snapshot for snapshot
        let mut s = 1234u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut fast = RankTracker::new(4);
        let mut naive_current: Vec<u32> = Vec::new();
        for _ in 0..40 {
            let scores: Vec<f64> = (0..12).map(|_| (next() % 9) as f64).collect();
            let want_next = top_k(&scores, 4);
            let want_entered: Vec<u32> = want_next
                .iter()
                .copied()
                .filter(|v| !naive_current.contains(v))
                .collect();
            let want_left: Vec<u32> = naive_current
                .iter()
                .copied()
                .filter(|v| !want_next.contains(v))
                .collect();
            let (entered, left) = fast.observe(&scores);
            assert_eq!(entered, want_entered);
            assert_eq!(left, want_left);
            naive_current = want_next;
        }
    }

    #[test]
    fn tracker_counts_turnover() {
        let mut t = RankTracker::new(2);
        let (e, l) = t.observe(&[5.0, 4.0, 1.0]);
        assert_eq!(e, vec![0, 1]);
        assert!(l.is_empty());
        let (e, l) = t.observe(&[5.0, 0.0, 9.0]); // 2 displaces 1
        assert_eq!(e, vec![2]);
        assert_eq!(l, vec![1]);
        assert_eq!(t.entries, 1);
        assert_eq!(t.snapshots, 2);
        assert_eq!(t.current(), &[2, 0]);
    }
}
