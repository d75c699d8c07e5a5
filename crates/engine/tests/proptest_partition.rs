//! Property tests for the `Π_i` partition math and the pinned adoption
//! rule: for arbitrary `(n, p, arrival sequence)` the per-worker source
//! sets remain a disjoint cover of the source ids with `max − min ≤ 1`.

use ebc_engine::{partition_ranges, ShardMap};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ranges_are_a_balanced_disjoint_cover(n in 0usize..500, p in 1usize..16) {
        let ranges = partition_ranges(n, p);
        prop_assert_eq!(ranges.len(), p);
        let mut covered = vec![0u8; n];
        for r in &ranges {
            for v in r.clone() {
                covered[v as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "not a disjoint cover");
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalanced: {:?}", sizes);
    }

    #[test]
    fn adoption_preserves_cover_and_balance(
        n in 0usize..300,
        p in 1usize..12,
        arrivals in 0usize..60,
    ) {
        // per-worker source sets: the initial contiguous ranges...
        let ranges = partition_ranges(n, p);
        let mut owned: Vec<Vec<u32>> = ranges.iter().map(|r| r.clone().collect()).collect();
        // ...plus each arriving vertex (ids n, n+1, ...) at its adopter
        let mut map = ShardMap::bootstrap(n, p);
        for k in 0..arrivals {
            let adopter = map.adopt((n + k) as u32).unwrap();
            prop_assert!(adopter < p, "adopter out of range");
            owned[adopter].push((n + k) as u32);
        }
        // disjoint cover of 0..n+arrivals
        let total = n + arrivals;
        let mut covered = vec![0u8; total];
        for sources in &owned {
            for &s in sources {
                covered[s as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "not a disjoint cover");
        // map counts mirror reality and stay balanced within one
        let sizes: Vec<usize> = owned.iter().map(|s| s.len()).collect();
        prop_assert_eq!(&sizes[..], map.counts());
        prop_assert_eq!(map.total(), total);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalanced after adoption: {:?}", sizes);
    }
}
