//! Source-range partitioning (`Π_i`, paper Figure 4).
//!
//! The paper generates "an input for each mapper `i` that represents a
//! partition `Π_i` of the graph ... two integers that represent the first
//! and last ID of the range of sources for which the particular mapper is
//! responsible". Ranges are balanced to within one source, and
//! [`crate::ShardMap::adopt`] keeps them so as vertices arrive.

use std::ops::Range;

/// Split `0..n` into `p` contiguous near-equal ranges (the first `n % p`
/// ranges get one extra source). Empty ranges are produced when `p > n`.
///
/// # Contract
///
/// `p` must be at least 1 — there is no meaningful partitioning over zero
/// workers, and silently producing one would hide a caller bug (a worker
/// pool sized from a miscomputed core count, say). Debug builds assert;
/// release builds clamp `p` up to 1 so a long-running production replay
/// degrades to the single-machine layout instead of aborting.
pub fn partition_ranges(n: usize, p: usize) -> Vec<Range<u32>> {
    debug_assert!(p > 0, "partition_ranges requires p >= 1 (got p = 0)");
    let p = p.max(1);
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0usize;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push(start as u32..(start + len) as u32);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shardmap::ShardMap;

    /// Adopt the next arriving source (ids are dense `0..total`).
    fn adopt_next(map: &mut ShardMap) -> usize {
        map.adopt(map.total() as u32).unwrap()
    }

    #[test]
    fn covers_all_sources_exactly_once() {
        for (n, p) in [(10, 3), (100, 7), (5, 5), (3, 8), (0, 4), (1000, 1)] {
            let ranges = partition_ranges(n, p);
            assert_eq!(ranges.len(), p);
            let mut covered = vec![false; n];
            for r in &ranges {
                for v in r.clone() {
                    assert!(!covered[v as usize], "source {v} covered twice");
                    covered[v as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "n={n} p={p}");
        }
    }

    #[test]
    fn balanced_within_one() {
        let ranges = partition_ranges(103, 10);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "partition_ranges requires p >= 1")]
    fn zero_workers_is_a_debug_contract_violation() {
        let _ = partition_ranges(4, 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn zero_workers_clamped_in_release() {
        // release builds degrade to the single-machine layout
        assert_eq!(partition_ranges(4, 0), vec![0..4]);
    }

    #[test]
    fn more_workers_than_sources_yields_empty_tail_ranges() {
        let ranges = partition_ranges(3, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(&ranges[..3], &[0..1, 1..2, 2..3]);
        for (k, r) in ranges.iter().enumerate().skip(3) {
            assert!(r.is_empty(), "range {k} should be empty, got {r:?}");
        }
        // degenerate all-empty case
        let ranges = partition_ranges(0, 5);
        assert!(ranges.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn ledger_over_empty_ranges_fills_the_empty_workers_first() {
        // p > n: workers 2..5 bootstrap with zero sources; the pinned rule
        // must hand arrivals to them (lowest id first) before anyone else
        let mut map = ShardMap::bootstrap(2, 5);
        assert_eq!(map.counts(), &[1, 1, 0, 0, 0]);
        assert_eq!(adopt_next(&mut map), 2);
        assert_eq!(adopt_next(&mut map), 3);
        assert_eq!(adopt_next(&mut map), 4);
        assert_eq!(adopt_next(&mut map), 0);
        assert_eq!(map.counts(), &[2, 1, 1, 1, 1]);
        assert_eq!(map.total(), 6);
        // n = 0: every worker starts empty and adoption still works
        let mut map = ShardMap::bootstrap(0, 3);
        assert_eq!(map.counts(), &[0, 0, 0]);
        assert_eq!(adopt_next(&mut map), 0);
        assert_eq!(adopt_next(&mut map), 1);
        assert_eq!(map.total(), 2);
    }

    #[test]
    fn adoption_tie_break_is_smallest_worker_id() {
        // 6 sources over 3 workers: all counts equal — the pinned rule must
        // pick worker 0, then 1, then 2, then wrap to 0 again.
        let mut map = ShardMap::bootstrap(6, 3);
        assert_eq!(map.counts(), &[2, 2, 2]);
        assert_eq!(adopt_next(&mut map), 0);
        assert_eq!(adopt_next(&mut map), 1);
        assert_eq!(adopt_next(&mut map), 2);
        assert_eq!(adopt_next(&mut map), 0);
        assert_eq!(map.counts(), &[4, 3, 3]);
    }

    #[test]
    fn adoption_prefers_smallest_partition() {
        // 7 over 3: ranges are [3, 2, 2] — the first adopter must be 1.
        let mut map = ShardMap::bootstrap(7, 3);
        assert_eq!(map.counts(), &[3, 2, 2]);
        assert_eq!(adopt_next(&mut map), 1);
        assert_eq!(adopt_next(&mut map), 2);
        assert_eq!(adopt_next(&mut map), 0);
        assert_eq!(map.total(), 10);
    }

    #[test]
    fn adoption_keeps_balance_within_one() {
        let mut map = ShardMap::bootstrap(11, 4);
        for _ in 0..37 {
            adopt_next(&mut map);
            assert!(map.skew() <= 1, "{:?}", map.counts());
        }
    }
}
