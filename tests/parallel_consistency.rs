//! Cross-crate integration: the parallel cluster engine must agree with the
//! single-machine state — **bitwise**, not within epsilon — via the
//! partition-invariant exact reduce, for every store backend × worker count
//! × stream shape combination. The fast (partial-sum) reduce is additionally
//! pinned to epsilon agreement, since its summation order legitimately
//! depends on the worker count.

use streaming_bc::core::{BetweennessState, Scores, Update};
use streaming_bc::engine::ClusterEngine;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::graph::Graph;
use streaming_bc::store::{CodecKind, DiskBdStore};

const WORKER_COUNTS: [usize; 4] = [1, 3, 5, 8];

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

/// The streams of the oracle matrix: additions, removals, disconnecting
/// removals, and a mixed stream that grows the vertex set mid-flight.
fn scenarios() -> Vec<(&'static str, Graph, Vec<Update>)> {
    let mut out = Vec::new();

    let g = holme_kim(60, 3, 0.4, 9);
    let adds: Vec<Update> = addition_stream(&g, 8, 1)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    out.push(("additions", g.clone(), adds.clone()));

    let removes: Vec<Update> = removal_stream(&g, 8, 2)
        .into_iter()
        .map(|(u, v)| Update::remove(u, v))
        .collect();
    out.push(("removals", g.clone(), removes.clone()));

    // two dense communities joined by one bridge; cutting it disconnects
    let mut barbell = Graph::with_vertices(14);
    for base in [0u32, 7] {
        for i in 0..7u32 {
            for j in (i + 1)..7 {
                barbell.add_edge(base + i, base + j).unwrap();
            }
        }
    }
    barbell.add_edge(3, 10).unwrap();
    out.push((
        "disconnect",
        barbell,
        vec![
            Update::remove(3, 10), // severs the bridge
            Update::remove(0, 1),
            Update::add(2, 12), // reconnects
            Update::remove(2, 12),
            Update::add(5, 9),
        ],
    ));

    // interleave additions, removals, and three vertex arrivals
    let mut mixed = Vec::new();
    for (i, (&a, &r)) in adds.iter().zip(&removes).enumerate() {
        mixed.push(a);
        if i < 3 {
            let newcomer = 60 + i as u32;
            mixed.push(Update::add(i as u32 * 7, newcomer));
        }
        mixed.push(r);
    }
    out.push(("growth-mix", g, mixed));

    out
}

/// Replay on the single-machine state; return the incremental scores and the
/// deterministic exact scores (the bitwise oracle).
fn single_oracle(g: &Graph, updates: &[Update]) -> (BetweennessState, Scores) {
    let mut single = BetweennessState::new(g);
    for &u in updates {
        single.apply(u).unwrap();
    }
    let exact = single.exact_scores().unwrap();
    (single, exact)
}

fn check_cluster<S: streaming_bc::core::Shard>(
    mut cluster: ClusterEngine<S>,
    updates: &[Update],
    single: &BetweennessState,
    oracle_exact: &Scores,
    ctx: &str,
) {
    let reports = cluster.apply_stream(updates).unwrap();
    assert_eq!(reports.len(), updates.len(), "{ctx}: lost reports");
    // bitwise: the exact reduce must equal the single-machine derivation
    let exact = cluster.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&exact),
        bits(oracle_exact),
        "{ctx}: exact reduce diverged bitwise"
    );
    // epsilon: the fast partial-sum reduce tracks the incremental scores
    let fast = cluster.reduce().unwrap().scores;
    assert!(
        fast.max_vbc_diff(single.scores()) < 1e-9,
        "{ctx}: fast reduce VBC drifted"
    );
    assert!(
        fast.max_ebc_diff(single.scores(), single.graph()) < 1e-9,
        "{ctx}: fast reduce EBC drifted"
    );
}

#[test]
fn memory_matrix_is_bit_identical_to_single_state() {
    for (name, g, updates) in scenarios() {
        let (single, oracle_exact) = single_oracle(&g, &updates);
        for p in WORKER_COUNTS {
            let cluster = ClusterEngine::new(&g, p).unwrap();
            let ctx = format!("memory × p={p} × {name}");
            check_cluster(cluster, &updates, &single, &oracle_exact, &ctx);
        }
    }
}

#[test]
fn disk_matrix_is_bit_identical_to_single_state() {
    let dir = std::env::temp_dir().join(format!("sbc_matrix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g, updates) in scenarios() {
        let (single, oracle_exact) = single_oracle(&g, &updates);
        for p in WORKER_COUNTS {
            let dir = dir.clone();
            let cluster = ClusterEngine::new_with(&g, p, move |worker, n| {
                // one private file per worker — one disk per machine (§5.2)
                let path = dir.join(format!("{name}_{p}_w{worker}.bd"));
                let _ = std::fs::remove_file(&path);
                DiskBdStore::create(path, n, CodecKind::Wide)
            })
            .unwrap();
            let ctx = format!("disk × p={p} × {name}");
            check_cluster(cluster, &updates, &single, &oracle_exact, &ctx);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay `updates` with a rebalance wedged in after `k` of them: force a
/// skewed ownership layout via explicit handoffs, let `rebalance(1)`
/// restore the invariant, then finish the stream. The exact reduce must
/// stay bit-identical to the no-handoff oracle — ownership movement can
/// never change scores.
fn check_rebalanced_cluster<S: streaming_bc::core::Shard>(
    mut cluster: ClusterEngine<S>,
    updates: &[Update],
    k: usize,
    oracle_exact: &Scores,
    ctx: &str,
) {
    let p = cluster.num_workers();
    cluster.apply_stream(&updates[..k]).unwrap();
    if p > 1 {
        // skew: the first three sources worker 0 owns pile onto the last
        // worker, then the deterministic plan pulls things level again
        let victims: Vec<u32> = cluster
            .shard_map()
            .sources_of(0)
            .iter()
            .copied()
            .take(3)
            .collect();
        for s in victims {
            cluster.handoff(s, p - 1).unwrap();
        }
        let report = cluster.rebalance(1).unwrap();
        assert!(
            cluster.shard_map().skew() <= 1,
            "{ctx}: skew {} after rebalance ({} moves)",
            cluster.shard_map().skew(),
            report.moves.len()
        );
    } else {
        // p = 1: nothing to move, but the call must be a safe no-op
        assert!(cluster.rebalance(1).unwrap().moves.is_empty(), "{ctx}");
    }
    cluster.apply_stream(&updates[k..]).unwrap();
    let exact = cluster.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&exact),
        bits(oracle_exact),
        "{ctx}: rebalance-mid-stream diverged bitwise from the no-handoff run"
    );
}

#[test]
fn rebalance_mid_stream_matrix_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("sbc_rebalance_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g, updates) in scenarios() {
        if name == "additions" || name == "removals" {
            continue; // the mixed and disconnect streams cover both op kinds
        }
        let (_, oracle_exact) = single_oracle(&g, &updates);
        for p in [1usize, 3, 8] {
            for k in [2usize, updates.len() / 2] {
                let mem = ClusterEngine::new(&g, p).unwrap();
                let ctx = format!("mem × p={p} × {name} × handoff-after-{k}");
                check_rebalanced_cluster(mem, &updates, k, &oracle_exact, &ctx);

                let dir = dir.clone();
                let disk = ClusterEngine::new_with(&g, p, move |worker, n| {
                    let path = dir.join(format!("rb_{name}_{p}_{k}_w{worker}.bd"));
                    let _ = std::fs::remove_file(&path);
                    DiskBdStore::create(path, n, CodecKind::Wide)
                })
                .unwrap();
                let ctx = format!("disk × p={p} × {name} × handoff-after-{k}");
                check_rebalanced_cluster(disk, &updates, k, &oracle_exact, &ctx);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_counts_do_not_change_results() {
    // the historical epsilon test, upgraded: across worker counts the exact
    // reduce must now agree bit for bit
    let g = holme_kim(50, 3, 0.5, 11);
    let mut updates: Vec<Update> = addition_stream(&g, 6, 1)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    updates.extend(
        removal_stream(&g, 6, 2)
            .into_iter()
            .map(|(u, v)| Update::remove(u, v)),
    );
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    for p in [1usize, 2, 7, 16] {
        let mut cluster = ClusterEngine::new(&g, p).unwrap();
        cluster.apply_stream(&updates).unwrap();
        let exact = cluster.reduce_exact().unwrap().scores;
        match &reference {
            None => reference = Some(bits(&exact)),
            Some(r) => assert_eq!(r, &bits(&exact), "p={p} diverged bitwise"),
        }
    }
}
