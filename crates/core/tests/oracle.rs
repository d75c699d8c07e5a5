//! Property-based oracle: after ANY sequence of edge additions/removals
//! (including component merges, disconnections, and new-vertex arrivals),
//! the incrementally maintained VBC/EBC must equal a fresh predecessor-free
//! Brandes recomputation on the final graph, and every `BD` record must
//! equal, bit for bit, a fresh single-source run on the graph it was
//! updated to.
//!
//! This is the single most load-bearing test in the repository: it exercises
//! every case of the paper's Algorithms 1–10 under adversarial inputs.

use ebc_core::bd::BdStore;
use ebc_core::brandes::single_source_update;
use ebc_core::incremental::UpdateConfig;
use ebc_core::scores::Scores;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::assert_matches_scratch;
use ebc_graph::Graph;
use ebc_store::{CodecKind, DiskBdStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const TOL: f64 = 1e-6;

/// Deterministic scripted update: interpreted against the current graph, so
/// every generated script is valid (adds pick non-edges, removals pick
/// existing edges).
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Add the k-th absent vertex pair (if any).
    Add(u64),
    /// Remove the k-th present edge (if any).
    Remove(u64),
    /// Attach a brand-new vertex to the k-th existing vertex.
    NewVertex(u64),
}

fn script_strategy() -> impl Strategy<Value = Script> {
    prop_oneof![
        3 => any::<u64>().prop_map(Script::Add),
        3 => any::<u64>().prop_map(Script::Remove),
        1 => any::<u64>().prop_map(Script::NewVertex),
    ]
}

/// Build a graph from a vertex count and an edge-selection seed list.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        2usize..12,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    )
        .prop_map(|(n, pairs)| {
            let mut g = Graph::with_vertices(n);
            for (a, b) in pairs {
                let u = a % n as u32;
                let v = b % n as u32;
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v).unwrap();
                }
            }
            g
        })
}

fn absent_pairs(g: &Graph) -> Vec<(u32, u32)> {
    let n = g.n() as u32;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                out.push((u, v));
            }
        }
    }
    out
}

/// The `k`-th item of `xs`, wrapping; `None` when `xs` is empty.
fn pick<T: Copy>(xs: &[T], k: u64) -> Option<T> {
    (!xs.is_empty()).then(|| xs[(k % xs.len() as u64) as usize])
}

/// The update a script step names against the current graph, or `None`
/// when it has no candidate (no absent pair, no edge).
fn resolve(g: &Graph, step: Script) -> Option<Update> {
    match step {
        Script::Add(k) => pick(&absent_pairs(g), k).map(|(u, v)| Update::add(u, v)),
        Script::Remove(k) => pick(&g.sorted_edges(), k).map(|(u, v)| Update::remove(u, v)),
        Script::NewVertex(k) => {
            let n = g.n() as u32;
            Some(Update::add((k % n as u64) as u32, n))
        }
    }
}

fn run_script(g: Graph, script: &[Script]) {
    let mut st = BetweennessState::new(&g);
    for (step, &s) in script.iter().enumerate() {
        let ctx = format!("step {step}: {s:?}");
        if let Some(update) = resolve(st.graph(), s) {
            st.apply(update).unwrap();
        }
        assert_matches_scratch(st.graph(), st.scores(), TOL, &ctx);
    }
}

/// Apply `updates` from `g` through a state over `store`, and after the
/// bootstrap and every update read each source's record back through
/// `BdStore::read` and compare it with a fresh `single_source_update` on
/// the graph so far: d, σ and the bits of δ. The records must not depend
/// on the path that reached the graph.
fn assert_records_fresh<S: BdStore>(g: &Graph, updates: &[Update], store: S, label: &str) {
    let mut st = BetweennessState::new_into_store(g.clone(), store, UpdateConfig::default())
        .expect("bootstrap");
    for step in 0..=updates.len() {
        if step > 0 {
            st.apply(updates[step - 1]).unwrap();
        }
        let now = st.graph().clone();
        let mut scores = Scores::zeros_for(&now);
        let sources = st.store().sources();
        assert_eq!(sources.len(), now.n(), "{label}: one record per vertex");
        for s in sources {
            let fresh = single_source_update(&now, s, &mut scores);
            let at = format!("{label}, after {step} update(s), source {s}");
            let mut seen = false;
            st.store_mut()
                .read(s, &mut |d, sigma, delta| {
                    seen = true;
                    assert_eq!(d, &fresh.d[..], "{at}: d");
                    assert_eq!(sigma, &fresh.sigma[..], "{at}: σ");
                    for (v, (a, b)) in delta.iter().zip(&fresh.delta).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{at}: δ({v}) is {a:?}, a bootstrap gives {b:?}"
                        );
                    }
                })
                .unwrap();
            assert!(seen, "{at}: no record");
        }
    }
}

/// [`assert_records_fresh`] over a `MemoryBdStore` and a `DiskBdStore`.
fn assert_records_fresh_on_both_backends(g: &Graph, updates: &[Update]) {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ebc_oracle_records_{}_{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let memory = ebc_core::bd::MemoryBdStore::new(g.n());
    assert_records_fresh(g, updates, memory, "memory");
    let disk = DiskBdStore::create(dir.join("bd.ebc"), g.n(), CodecKind::Wide).unwrap();
    assert_records_fresh(g, updates, disk, "disk");
    std::fs::remove_dir_all(&dir).ok();
}

/// A removal that reordered the survivors' adjacency left a skipped
/// source's δ summed in the old neighbour order. Removing (1,3) skips
/// source 6 (d(1) = d(3) = 1), and vertex 3's successors 4, 0, 2 must keep
/// that order: a bootstrap gives δ₆(3) = 2.3333333333333335, and a removal
/// that moved 2 into 1's place kept the stored 2.333333333333333.
#[test]
fn records_equal_a_fresh_bootstrap_bitwise_after_the_seven_vertex_removal() {
    let mut g = Graph::with_vertices(7);
    for (u, v) in [
        (1, 6),
        (3, 6),
        (0, 2),
        (3, 4),
        (1, 3),
        (0, 1),
        (0, 3),
        (2, 3),
        (0, 5),
        (5, 6),
    ] {
        g.add_edge(u, v).unwrap();
    }
    assert_records_fresh_on_both_backends(&g, &[Update::remove(1, 3)]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn incremental_matches_recompute(
        g in graph_strategy(),
        script in proptest::collection::vec(script_strategy(), 1..25),
    ) {
        run_script(g, &script);
    }

    /// Adding then removing the same edge must restore the exact scores the
    /// graph had before (up to float tolerance).
    #[test]
    fn add_remove_restores(
        g in graph_strategy(),
        k in any::<u64>(),
    ) {
        let cands = absent_pairs(&g);
        prop_assume!(!cands.is_empty());
        let (u, v) = cands[(k % cands.len() as u64) as usize];
        let before = ebc_core::brandes(&g);
        let mut st = BetweennessState::new(&g);
        st.apply(Update::add(u, v)).unwrap();
        st.apply(Update::remove(u, v)).unwrap();
        prop_assert!(st.scores().max_vbc_diff(&before) < TOL);
        prop_assert!(st.scores().max_ebc_diff(&before, st.graph()) < TOL);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After any script of additions, removals (disconnecting ones
    /// included) and vertex arrivals, every record on both store backends
    /// equals a fresh bootstrap of the final graph, bit for bit.
    #[test]
    fn records_equal_a_fresh_bootstrap_bitwise(
        g in graph_strategy(),
        script in proptest::collection::vec(script_strategy(), 1..25),
    ) {
        let mut mirror = g.clone();
        let mut updates = Vec::new();
        for &step in &script {
            if let Some(u) = resolve(&mirror, step) {
                u.fold_into(&mut mirror).unwrap();
                updates.push(u);
            }
        }
        assert_records_fresh_on_both_backends(&g, &updates);
    }
}
