//! Cross-crate integration: timestamped replay of a growing graph through
//! the online simulator, with score verification at the end.

use streaming_bc::core::verify::assert_matches_scratch;
use streaming_bc::core::{BetweennessState, Update};
use streaming_bc::engine::{simulate_online, ClusterEngine};
use streaming_bc::gen::models::holme_kim_with_order;
use streaming_bc::gen::streams::replay_growth;
use streaming_bc::gn::girvan_newman_incremental;

#[test]
fn replayed_tail_reaches_full_graph_scores() {
    let (full, order) = holme_kim_with_order(70, 3, 0.5, 17);
    let (boot, tail) = replay_growth(&order, full.n(), 25, 0.1, 0.5, 18);
    let mut st = BetweennessState::new(&boot);
    for ev in tail.events() {
        st.apply(Update {
            op: ev.op,
            u: ev.u,
            v: ev.v,
        })
        .unwrap();
    }
    assert_eq!(st.graph().sorted_edges(), full.sorted_edges());
    assert_matches_scratch(st.graph(), st.scores(), 1e-6, "replayed tail");
}

#[test]
fn online_simulation_preserves_correctness() {
    let (full, order) = holme_kim_with_order(50, 3, 0.4, 19);
    let (boot, tail) = replay_growth(&order, full.n(), 15, 0.05, 0.8, 20);
    let mut cluster = ClusterEngine::new(&boot, 2).unwrap();
    let report = simulate_online(&mut cluster, &tail).unwrap();
    assert_eq!(report.events.len(), 15);
    let scores = cluster.reduce().unwrap().scores;
    assert_matches_scratch(cluster.graph(), &scores, 1e-6, "after online replay");
    // queueing discipline: completions are monotone
    for w in report.events.windows(2) {
        assert!(w[1].completion >= w[0].completion);
    }
}

#[test]
fn community_detection_over_grown_graph() {
    let (full, _) = holme_kim_with_order(60, 3, 0.6, 21);
    let dg = girvan_newman_incremental(&full, 20);
    assert_eq!(dg.steps.len(), 20);
    assert!(dg.steps.last().unwrap().components >= dg.steps[0].components);
}
