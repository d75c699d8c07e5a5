//! Determinism contract of the pooled engine: the same stream replayed on
//! clusters of *different* worker counts yields bitwise-identical exact
//! scores, and adopter assignments for newly arrived vertices follow the
//! shard map's pinned adoption rule (smallest partition, ties to the
//! smallest worker id) — so a replay is reproducible machine-for-machine.

use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_engine::{ClusterEngine, ShardMap};
use ebc_gen::models::holme_kim;
use ebc_gen::streams::{addition_stream, removal_stream};

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

/// A stream over holme_kim(30): plain additions and removals plus four
/// vertex arrivals (ids 30..34).
fn growth_stream() -> (ebc_graph::Graph, Vec<Update>) {
    let g = holme_kim(30, 3, 0.4, 17);
    let mut updates: Vec<Update> = addition_stream(&g, 4, 3)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    for (i, anchor) in [5u32, 11, 2, 23].into_iter().enumerate() {
        updates.push(Update::add(anchor, 30 + i as u32));
    }
    updates.extend(
        removal_stream(&g, 4, 4)
            .into_iter()
            .map(|(u, v)| Update::remove(u, v)),
    );
    (g, updates)
}

fn replay(g: &ebc_graph::Graph, updates: &[Update], p: usize) -> (Vec<Option<usize>>, Scores) {
    let mut cluster = ClusterEngine::new(g, p).unwrap();
    let reports = cluster.apply_stream(updates).unwrap();
    let adopters = reports.iter().map(|r| r.adopter).collect();
    let exact = cluster.reduce_exact().unwrap().scores;
    (adopters, exact)
}

#[test]
fn different_worker_counts_reduce_to_identical_bits() {
    let (g, updates) = growth_stream();
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    for p in [1usize, 2, 3, 5, 8] {
        let (_, exact) = replay(&g, &updates, p);
        match &reference {
            None => reference = Some(bits(&exact)),
            Some(r) => assert_eq!(r, &bits(&exact), "p={p} diverged bitwise"),
        }
    }
}

#[test]
fn same_worker_count_replays_are_fully_identical() {
    let (g, updates) = growth_stream();
    let (adopters_a, exact_a) = replay(&g, &updates, 4);
    let (adopters_b, exact_b) = replay(&g, &updates, 4);
    assert_eq!(
        adopters_a, adopters_b,
        "adopter assignment not deterministic"
    );
    assert_eq!(bits(&exact_a), bits(&exact_b));
    // the fast reduce is also deterministic at fixed p (partials fold in
    // ascending worker order)
    let mut c1 = ClusterEngine::new(&g, 4).unwrap();
    let mut c2 = ClusterEngine::new(&g, 4).unwrap();
    c1.apply_stream(&updates).unwrap();
    c2.apply_stream(&updates).unwrap();
    let f1 = c1.reduce().unwrap().scores;
    let f2 = c2.reduce().unwrap().scores;
    assert_eq!(
        bits(&f1),
        bits(&f2),
        "fast reduce not deterministic at fixed p"
    );
}

#[test]
fn adopters_follow_the_pinned_ledger_rule() {
    let (g, updates) = growth_stream();
    for p in [2usize, 3, 5] {
        let (adopters, _) = replay(&g, &updates, p);
        // simulate the pinned rule next to the engine
        let mut map = ShardMap::bootstrap(g.n(), p);
        let mut n = g.n() as u32;
        for (update, adopter) in updates.iter().zip(&adopters) {
            let grows = update.op == ebc_graph::EdgeOp::Add && update.u.max(update.v) == n;
            if grows {
                assert_eq!(
                    *adopter,
                    Some(map.adopt(n).unwrap()),
                    "p={p}: adopter deviated from the pinned rule for {update:?}"
                );
                n += 1;
            } else {
                assert_eq!(*adopter, None, "p={p}: phantom adoption for {update:?}");
            }
        }
        // every new vertex was adopted: sources still cover the graph
        assert_eq!(map.total(), n as usize);
    }
}
