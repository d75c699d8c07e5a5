//! Cross-crate integration: generators → framework → oracle, through the
//! facade crate's public API only.

use streaming_bc::core::verify::assert_matches_scratch;
use streaming_bc::core::{BetweennessState, Update};
use streaming_bc::gen::models::{barabasi_albert, erdos_renyi_gnm, holme_kim, watts_strogatz};
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::graph::Graph;

fn exercise(g: &Graph, seed: u64, label: &str) {
    let mut st = BetweennessState::new(g);
    for (u, v) in addition_stream(g, 12, seed) {
        st.apply(Update::add(u, v)).unwrap();
    }
    for (u, v) in removal_stream(g, 12, seed + 1) {
        if st.graph().has_edge(u, v) {
            st.apply(Update::remove(u, v)).unwrap();
        }
    }
    assert_matches_scratch(st.graph(), st.scores(), 1e-6, label);
}

#[test]
fn erdos_renyi_stream() {
    exercise(&erdos_renyi_gnm(60, 150, 3), 10, "ER");
}

#[test]
fn barabasi_albert_stream() {
    exercise(&barabasi_albert(80, 3, 4), 11, "BA");
}

#[test]
fn holme_kim_stream() {
    exercise(&holme_kim(70, 4, 0.6, 5), 12, "HK");
}

#[test]
fn watts_strogatz_stream() {
    exercise(&watts_strogatz(60, 3, 0.2, 6), 13, "WS");
}

#[test]
fn sparse_disconnected_graph_stream() {
    // many components, lots of merges/disconnections along the way
    let g = erdos_renyi_gnm(50, 30, 7);
    exercise(&g, 14, "sparse");
}

#[test]
fn quickstart_snippet_behaviour() {
    // keep the README snippet honest
    let mut g = Graph::with_vertices(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
        g.add_edge(u, v).unwrap();
    }
    let mut state = BetweennessState::new(&g);
    state.apply(Update::add(1, 3)).unwrap();
    state.apply(Update::remove(0, 2)).unwrap();
    assert_eq!(state.scores().vbc.len(), 4);
    assert_matches_scratch(state.graph(), state.scores(), 1e-9, "quickstart");
}

#[test]
fn normalized_scores_match_classic_convention() {
    // P3: classic (unordered) betweenness of the middle vertex is 1.
    let mut g = Graph::with_vertices(3);
    g.add_edge(0, 1).unwrap();
    g.add_edge(1, 2).unwrap();
    let st = BetweennessState::new(&g);
    // scores count ordered pairs; halving gives the classic convention
    assert!((st.scores().vbc[1] / 2.0 - 1.0).abs() < 1e-12);
}
