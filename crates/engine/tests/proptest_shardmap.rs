//! Property-test battery for the shard map and its handoff machinery, over
//! random arrival / edge-update / handoff / rebalance sequences:
//!
//! 1. **exactly-once ownership** — after every operation each source is
//!    owned by exactly one shard;
//! 2. **skew invariant** — `max − min ≤ threshold` across shards after any
//!    rebalance;
//! 3. **shard-invariance oracle** — scores after any generated
//!    handoff/rebalance schedule are **bit-identical** to the single-shard
//!    [`BetweennessState`] exact reduction, on both the in-memory and the
//!    on-disk store backend;
//! 4. **any partition, any order** — the exact sums of a random shard map,
//!    each shard folding its sources in a shuffled order and the shards
//!    merged in a shuffled order, round to the same bits as the single
//!    state's `exact_scores`, read from memory and from disk records.
//!
//! The vendored proptest stub derives each test's RNG seed from the test
//! name, so CI runs are reproducible by construction.

use ebc_core::bd::BdStore;
use ebc_core::exact::ExactSum;
use ebc_core::incremental::UpdateConfig;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::ErrorKind;
use ebc_core::Scores;
use ebc_engine::{ClusterEngine, ShardMap, SourceMove};
use ebc_gen::models::holme_kim;
use ebc_graph::{Graph, VertexId};
use ebc_store::{CodecKind, DiskBdStore};
use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One step of a random map history.
#[derive(Debug, Clone, Copy)]
enum MapOp {
    /// A new source arrives and is adopted under the pinned rule.
    Arrive,
    /// An explicit out-of-plan handoff (picks reduced modulo the live
    /// state, so every generated op is executable).
    Move {
        from_pick: usize,
        to_pick: usize,
        src_pick: usize,
    },
    /// Plan and execute a full rebalance at the given threshold.
    Rebalance { threshold: usize },
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        3 => Just(MapOp::Arrive),
        4 => (0usize..1024, 0usize..1024, 0usize..1024).prop_map(|(f, t, s)| MapOp::Move {
            from_pick: f,
            to_pick: t,
            src_pick: s,
        }),
        2 => (1usize..4).prop_map(|threshold| MapOp::Rebalance { threshold }),
    ]
}

fn assert_exactly_once(map: &ShardMap, universe: usize) -> Result<(), TestCaseError> {
    let mut covered = vec![0u8; universe];
    for k in 0..map.num_shards() {
        for &s in map.sources_of(k) {
            covered[s as usize] += 1;
        }
    }
    prop_assert!(
        covered.iter().all(|&c| c == 1),
        "not an exactly-once cover: {covered:?}"
    );
    prop_assert_eq!(map.total(), universe);
    Ok(())
}

// the stub's prop_assert! panics rather than returning Err, so this alias
// keeps the helper signature compatible with both implementations
type TestCaseError = ();

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Invariants (1) and (2) on the map alone, under arbitrary histories.
    #[test]
    fn ownership_exactly_once_and_skew_restored(
        n in 0usize..160,
        p in 1usize..9,
        ops in collection::vec(map_op(), 0..36),
    ) {
        let mut map = ShardMap::bootstrap(n, p);
        let mut next = n as u32;
        for op in ops {
            match op {
                MapOp::Arrive => {
                    map.adopt(next).unwrap();
                    next += 1;
                }
                MapOp::Move { from_pick, to_pick, src_pick } => {
                    let from = from_pick % p;
                    let to = to_pick % p;
                    if from == to || map.sources_of(from).is_empty() {
                        continue;
                    }
                    let owned = map.sources_of(from);
                    let source = owned[src_pick % owned.len()];
                    map.apply_move(&SourceMove { source, from, to }).unwrap();
                }
                MapOp::Rebalance { threshold } => {
                    let plan = map.plan_rebalance(threshold);
                    prop_assert_eq!(plan.from_version, map.version());
                    for mv in &plan.moves {
                        map.apply_move(mv).unwrap();
                    }
                    prop_assert!(
                        map.skew() <= threshold.max(1),
                        "skew {} > threshold {} after rebalance: {:?}",
                        map.skew(), threshold, map.counts()
                    );
                }
            }
            assert_exactly_once(&map, next as usize)?;
        }
        // whatever the history, a final rebalance restores near-balance
        let plan = map.plan_rebalance(1);
        for mv in &plan.moves {
            map.apply_move(mv).unwrap();
        }
        prop_assert!(map.skew() <= 1, "{:?}", map.counts());
        assert_exactly_once(&map, next as usize)?;
    }

    /// Rebalance plans are pure and deterministic: planning twice on the
    /// same map yields identical moves, and planning does not mutate.
    #[test]
    fn plans_are_deterministic_and_pure(
        n in 1usize..120,
        p in 2usize..8,
        scrambles in collection::vec((0usize..1024, 0usize..1024), 0..24),
        threshold in 1usize..4,
    ) {
        let mut map = ShardMap::bootstrap(n, p);
        for (from_pick, to_pick) in scrambles {
            let from = from_pick % p;
            let to = to_pick % p;
            if from == to || map.sources_of(from).is_empty() {
                continue;
            }
            let source = *map.sources_of(from).iter().max().unwrap();
            map.apply_move(&SourceMove { source, from, to }).unwrap();
        }
        let version = map.version();
        let plan_a = map.plan_rebalance(threshold);
        let plan_b = map.plan_rebalance(threshold);
        prop_assert_eq!(&plan_a, &plan_b, "planning is not deterministic");
        prop_assert_eq!(map.version(), version, "planning mutated the map");
    }
}

/// One step of a random cluster history (stream + ownership churn).
#[derive(Debug, Clone, Copy)]
enum ClusterOp {
    /// Toggle the edge between two picked vertices: add when absent,
    /// remove when present (skipping removals that would be invalid).
    Toggle { u_pick: usize, v_pick: usize },
    /// Attach a brand-new vertex to a picked existing one (adoption path).
    Grow { u_pick: usize },
    /// Hand a picked source to a picked worker.
    Handoff { src_pick: usize, to_pick: usize },
    /// Plan + execute a rebalance at threshold 1.
    Rebalance,
}

fn cluster_op() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        4 => (0usize..1024, 0usize..1024).prop_map(|(u, v)| ClusterOp::Toggle {
            u_pick: u,
            v_pick: v,
        }),
        1 => (0usize..1024).prop_map(|u| ClusterOp::Grow { u_pick: u }),
        3 => (0usize..1024, 0usize..1024).prop_map(|(s, t)| ClusterOp::Handoff {
            src_pick: s,
            to_pick: t,
        }),
        1 => Just(ClusterOp::Rebalance),
    ]
}

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

/// Drive the same random schedule through a cluster (handoffs live) and the
/// single-machine state (which has no shards to hand between); the exact
/// reductions must agree bit for bit at every comparison point.
fn run_schedule<S: ebc_core::shard::Shard>(
    mut cluster: ClusterEngine<S>,
    single: &mut BetweennessState,
    p: usize,
    ops: &[ClusterOp],
    ctx: &str,
) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ClusterOp::Toggle { u_pick, v_pick } => {
                let n = cluster.n();
                let u = (u_pick % n) as u32;
                let v = (v_pick % n) as u32;
                if u == v {
                    continue;
                }
                let update = if cluster.graph().has_edge(u, v) {
                    Update::remove(u, v)
                } else {
                    Update::add(u, v)
                };
                cluster.apply(update).unwrap();
                single.apply(update).unwrap();
            }
            ClusterOp::Grow { u_pick } => {
                let n = cluster.n();
                let u = (u_pick % n) as u32;
                let update = Update::add(u, n as u32);
                cluster.apply(update).unwrap();
                single.apply(update).unwrap();
            }
            ClusterOp::Handoff { src_pick, to_pick } => {
                let total = cluster.total_sources();
                let source = (src_pick % total) as u32;
                let to = to_pick % p;
                match cluster.handoff(source, to) {
                    Ok(_) => {}
                    // self-handoffs are generated and rejected; fine
                    Err(e) if e.kind() == ErrorKind::Invalid => continue,
                    Err(other) => panic!("{ctx}: handoff failed: {other}"),
                }
            }
            ClusterOp::Rebalance => {
                let report = cluster.rebalance(1).unwrap();
                assert!(
                    cluster.shard_map().skew() <= 1,
                    "{ctx}: skew after rebalance"
                );
                // compare right after every rebalance, not just at the end
                let exact = cluster.reduce_exact().unwrap().scores;
                let oracle = single.exact_scores().unwrap();
                assert_eq!(
                    bits(&exact),
                    bits(&oracle),
                    "{ctx}: diverged after rebalance {i} ({} moves)",
                    report.moves.len()
                );
            }
        }
    }
    let exact = cluster.reduce_exact().unwrap().scores;
    let oracle = single.exact_scores().unwrap();
    assert_eq!(bits(&exact), bits(&oracle), "{ctx}: final scores diverged");
    // ownership stayed exactly-once: counts on the map sum to the sources
    assert_eq!(cluster.total_sources(), cluster.n());
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Invariant (3), the headline oracle: any handoff/rebalance schedule
    /// leaves the exact reduction bit-identical to the single-shard state,
    /// on both store backends.
    #[test]
    fn scores_are_shard_invariant_under_handoffs(
        seed in 0u64..1_000,
        p in 2usize..6,
        ops in collection::vec(cluster_op(), 1..28),
    ) {
        let g = holme_kim(22, 2, 0.35, seed);
        // memory-backed cluster
        let mut single = BetweennessState::new(&g);
        let cluster = ClusterEngine::new(&g, p).unwrap();
        run_schedule(cluster, &mut single, p, &ops, &format!("mem seed={seed} p={p}"));

        // disk-backed cluster, fresh per case
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "sbc_proptest_shardmap_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut single = BetweennessState::new(&g);
        let store_dir = dir.clone();
        let cluster = ClusterEngine::new_with(
            &g,
            p,
            move |worker, n| {
                let path = store_dir.join(format!("w{worker}.bd"));
                DiskBdStore::create(path, n, CodecKind::Wide)
            },
        )
        .unwrap();
        run_schedule(cluster, &mut single, p, &ops, &format!("disk seed={seed} p={p}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// splitmix64: the seeded shuffles of invariant (4).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(xs: &mut [T], state: &mut u64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
}

/// Each shard of `map` folds its sources from `store` in a shuffled order,
/// and the shard sums are merged in a shuffled order.
fn shuffled_exact<S: BdStore>(g: &Graph, store: &mut S, map: &ShardMap, seed: u64) -> Scores {
    let mut state = seed;
    let mut shards: Vec<ExactSum> = (0..map.num_shards())
        .map(|k| {
            let mut owned: Vec<VertexId> = map.sources_of(k).to_vec();
            shuffle(&mut owned, &mut state);
            let mut sum = ExactSum::new(g.n(), g.edge_slots());
            for s in owned {
                store
                    .read(s, &mut |d, sigma, delta| {
                        sum.add_source(g, s, d, sigma, delta).unwrap();
                    })
                    .unwrap();
            }
            sum.check(map.sources_of(k).len(), g.n(), g.edge_slots())
                .unwrap();
            sum
        })
        .collect();
    shuffle(&mut shards, &mut state);
    let mut total = ExactSum::new(g.n(), g.edge_slots());
    for sum in &shards {
        total.merge(sum);
    }
    total.into_scores()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Invariant (4): the exact sum is bitwise under any partition *and*
    /// any fold order, on both store backends.
    #[test]
    fn exact_sum_is_bitwise_under_any_partition_and_order(
        seed in 0u64..1_000,
        p in 1usize..7,
        toggles in collection::vec((0usize..1024, 0usize..1024), 0..10),
        moves in collection::vec((0usize..1024, 0usize..1024, 0usize..1024), 0..24),
        order in any::<u64>(),
    ) {
        let g = holme_kim(22, 2, 0.35, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let path = std::env::temp_dir().join(format!(
            "sbc_proptest_exact_sum_{}_{case}.bd",
            std::process::id()
        ));
        let store = DiskBdStore::create(&path, g.n(), CodecKind::Wide).unwrap();
        let mut disk = BetweennessState::new_into_store(g.clone(), store, UpdateConfig::default())
            .unwrap();
        let mut mem = BetweennessState::new(&g);
        for (u_pick, v_pick) in toggles {
            let (u, v) = ((u_pick % g.n()) as u32, (v_pick % g.n()) as u32);
            if u == v {
                continue;
            }
            let update = if mem.graph().has_edge(u, v) {
                Update::remove(u, v)
            } else {
                Update::add(u, v)
            };
            mem.apply(update).unwrap();
            disk.apply(update).unwrap();
        }
        let mut map = ShardMap::bootstrap(g.n(), p);
        for (from_pick, to_pick, src_pick) in moves {
            let (from, to) = (from_pick % p, to_pick % p);
            let owned = map.sources_of(from);
            if from == to || owned.is_empty() {
                continue;
            }
            let source = owned[src_pick % owned.len()];
            map.apply_move(&SourceMove { source, from, to }).unwrap();
        }
        let want = bits(&mem.exact_scores().unwrap());
        let now = mem.graph().clone();
        let ctx = format!("seed={seed} p={p} order={order}");
        let from_mem = shuffled_exact(&now, mem.store_mut(), &map, order);
        prop_assert_eq!(bits(&from_mem), want.clone(), "memory: {}", ctx);
        let from_disk = shuffled_exact(&now, disk.store_mut(), &map, order ^ 1);
        prop_assert_eq!(bits(&from_disk), want, "disk: {}", ctx);
        drop(disk);
        std::fs::remove_file(&path).ok();
    }
}
