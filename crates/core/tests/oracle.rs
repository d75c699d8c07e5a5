//! Property-based oracle: after ANY sequence of edge additions/removals
//! (including component merges, disconnections, and new-vertex arrivals),
//! the incrementally maintained VBC/EBC must equal a fresh predecessor-free
//! Brandes recomputation on the final graph, and every `BD` record must
//! equal, bit for bit, a fresh single-source run on the graph it was
//! updated to.
//!
//! This is the single most load-bearing test in the repository: it exercises
//! every case of the paper's Algorithms 1–10 under adversarial inputs.

use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::brandes::single_source_update;
use ebc_core::incremental::UpdateConfig;
use ebc_core::scores::Scores;
use ebc_core::shard::{Shard, ShardState};
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::assert_matches_scratch;
use ebc_graph::{ErrorKind, Graph, VertexId};
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

/// [`graph_strategy`], and now and then that graph beside a 260-cycle:
/// the cycle's distances fit a narrow cell (at most 130) until a removal
/// cuts it into a path whose ends lie 259 apart, so those cases re-stride
/// their memory store mid-script.
fn graph_or_long_cycle_strategy() -> impl Strategy<Value = Graph> {
    prop_oneof![
        31 => graph_strategy(),
        1 => graph_strategy().prop_map(|mut g| {
            let first = g.n() as VertexId;
            for _ in 0..260 {
                g.add_vertex();
            }
            for i in 0..260 {
                g.add_edge(first + i, first + (i + 1) % 260).unwrap();
            }
            g
        }),
    ]
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

/// Apply `updates` from `g` through one shard per store, each owning a
/// contiguous range of the sources (one store is the single machine), and
/// after the bootstrap and every update read each source's record back
/// through `BdStore::read` and compare it with a fresh
/// `single_source_update` on the graph so far: d, σ and the bits of δ. The
/// records must not depend on the path that reached the graph. Returns
/// the shards.
fn assert_records_fresh<S: BdStore>(
    g: &Graph,
    updates: &[Update],
    stores: Vec<S>,
    label: &str,
) -> Vec<ShardState<S>> {
    let (n, p) = (g.n(), stores.len());
    let mut shards: Vec<ShardState<S>> = stores
        .into_iter()
        .map(|store| ShardState::new(store, g.clone(), UpdateConfig::default()))
        .collect();
    for (k, shard) in shards.iter_mut().enumerate() {
        let owned: Vec<VertexId> = (k * n / p..(k + 1) * n / p)
            .map(|s| s as VertexId)
            .collect();
        shard.bootstrap(&owned).expect("bootstrap");
    }
    for step in 0..=updates.len() {
        if step > 0 {
            for (k, shard) in shards.iter_mut().enumerate() {
                shard.apply(updates[step - 1], k == 0).unwrap();
            }
        }
        let now = shards[0].graph().clone();
        let mut scores = Scores::zeros_for(&now);
        let owned: usize = shards.iter().map(|shard| shard.num_sources()).sum();
        assert_eq!(owned, now.n(), "{label}: one record per vertex");
        for shard in &mut shards {
            for s in shard.sources() {
                let fresh = single_source_update(&now, s, &mut scores).unwrap();
                let at = format!("{label}, after {step} update(s), source {s}");
                let mut seen = false;
                shard
                    .store_mut()
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
    shards
}

/// A fresh scratch directory for one disk store, created at `codec`.
fn disk_store(g: &Graph, codec: CodecKind) -> (DiskBdStore, std::path::PathBuf) {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ebc_oracle_records_{}_{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskBdStore::create(dir.join("bd.ebc"), g.n(), codec).unwrap();
    (store, dir)
}

/// [`assert_records_fresh`] over a `MemoryBdStore` and a `DiskBdStore`;
/// returns the memory store.
fn assert_records_fresh_on_both_backends(g: &Graph, updates: &[Update]) -> MemoryBdStore {
    let mut memory = assert_records_fresh(g, updates, vec![MemoryBdStore::new(g.n())], "memory");
    let (disk, dir) = disk_store(g, CodecKind::Wide);
    assert_records_fresh(g, updates, vec![disk], "disk");
    std::fs::remove_dir_all(&dir).ok();
    memory.remove(0).into_store()
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
    /// equals a fresh bootstrap of the final graph, bit for bit — across a
    /// memory store's re-stride too, on the long-cycle cases.
    #[test]
    fn records_equal_a_fresh_bootstrap_bitwise(
        g in graph_or_long_cycle_strategy(),
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

/// Graph of `n` vertices with the given edges.
fn graph_of(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
    let mut g = Graph::with_vertices(n);
    for (u, v) in edges {
        g.add_edge(u, v).unwrap();
    }
    g
}

/// A path through vertices `from..to`.
fn path_edges(from: u32, to: u32) -> impl Iterator<Item = (u32, u32)> {
    (from..to - 1).map(|i| (i, i + 1))
}

/// A chain of `k` diamonds c₀–{aᵢ, bᵢ}–cᵢ (cᵢ = 3i, aᵢ = 3i + 1,
/// bᵢ = 3i + 2): c₀ reaches c_k along 2^k shortest paths.
fn diamond_chain(k: u32) -> Graph {
    graph_of(
        1 + 3 * k as usize,
        (0..k).flat_map(|i| {
            let (c, a, b, next) = (3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3);
            [(c, a), (c, b), (a, next), (b, next)]
        }),
    )
}

/// The last diamond's `b–c` edge of a `k`-diamond chain: without it c₀
/// reaches c_k along 2^(k−1) paths, and adding it doubles them.
fn last_diamond_edge(k: u32) -> (u32, u32) {
    (3 * k - 1, 3 * k)
}

/// Every width boundary, reached at bootstrap and by an update: d past 254
/// (two 200-vertex paths joined end to end; a 300-cycle cut into a path;
/// a 255-vertex path, d = 254, extended to d = 255) and σ past 65,535 (15,
/// 16, 17 and 63 diamonds; the update that completes the 16th). Each case:
/// the graph, the updates, and whether a store started narrow ends wide.
fn width_cases() -> Vec<(String, Graph, Vec<Update>, bool)> {
    let two_paths = graph_of(400, path_edges(0, 200).chain(path_edges(200, 400)));
    let joined = graph_of(400, path_edges(0, 400));
    let cycle = graph_of(300, path_edges(0, 300).chain([(299, 0)]));
    let cut = graph_of(300, path_edges(0, 300));
    let d_254 = graph_of(256, path_edges(0, 255));
    let mut open_16th = diamond_chain(16);
    let (b, c) = last_diamond_edge(16);
    open_16th.remove_edge(b, c).unwrap();
    let mut cases = vec![
        (
            "joined paths, by the update".into(),
            two_paths,
            vec![Update::add(199, 200)],
            true,
        ),
        (
            "joined paths, at bootstrap".into(),
            joined,
            vec![Update::remove(199, 200)],
            true,
        ),
        (
            "cut cycle, by the update".into(),
            cycle,
            vec![Update::remove(299, 0)],
            true,
        ),
        (
            "cut cycle, at bootstrap".into(),
            cut,
            vec![Update::add(299, 0)],
            true,
        ),
        (
            "d = 255, by the update".into(),
            d_254,
            vec![Update::add(254, 255)],
            true,
        ),
        (
            "16th diamond, by the update".into(),
            open_16th,
            vec![Update::add(b, c)],
            true,
        ),
    ];
    for k in [15, 16, 17, 63] {
        // a chord inside the first diamond leaves every path count alone
        let update = vec![Update::add(1, 2), Update::remove(1, 2)];
        cases.push((
            format!("{k} diamonds, at bootstrap"),
            diamond_chain(k),
            update,
            k > 15,
        ));
    }
    cases
}

/// Across each width boundary every record equals a fresh bootstrap, bit
/// for bit, on a memory store (one shard and three), on a disk store
/// created `Wide` and on one created `Paper`; the memory store and the
/// `Paper` one end as wide as their data.
#[test]
fn records_equal_a_fresh_bootstrap_bitwise_across_every_width_boundary() {
    for (label, g, updates, wide) in width_cases() {
        let memory = assert_records_fresh_on_both_backends(&g, &updates);
        let width = if wide { 20 } else { 11 };
        assert_eq!(
            memory.resident_bytes(),
            width * memory.n() * memory.num_sources(),
            "{label}: {width} bytes a cell"
        );
        let stores = (0..3).map(|_| MemoryBdStore::new(g.n())).collect();
        assert_records_fresh(&g, &updates, stores, &format!("{label}, p = 3"));
        let (paper, dir) = disk_store(&g, CodecKind::Paper);
        let disk = assert_records_fresh(&g, &updates, vec![paper], &format!("{label}, Paper"));
        let codec = if wide {
            CodecKind::Wide
        } else {
            CodecKind::Paper
        };
        assert_eq!(disk[0].store().codec(), codec, "{label}: the Paper start");
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Brandes with `f64` path counts, the reference whose counts never
/// saturate: the diamond chain's counts are powers of two, exact in an
/// `f64` far past 2^64.
fn brandes_f64(g: &Graph) -> Scores {
    let mut scores = Scores::zeros_for(g);
    for s in g.vertices() {
        let mut dist = vec![u32::MAX; g.n()];
        let (mut sigma, mut delta) = (vec![0.0; g.n()], vec![0.0; g.n()]);
        let mut order = vec![s];
        (dist[s as usize], sigma[s as usize]) = (0, 1.0);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for h in g.neighbors(v) {
                let (v, w) = (v as usize, h.to as usize);
                if dist[w] == u32::MAX {
                    dist[w] = dist[v] + 1;
                    order.push(h.to);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                }
            }
        }
        for &w in order.iter().rev() {
            let w = w as usize;
            for h in g.neighbors(w as u32) {
                let x = h.to as usize;
                if dist[x] == dist[w] + 1 {
                    let c = sigma[w] / sigma[x] * (1.0 + delta[x]);
                    delta[w] += c;
                    scores.ebc[h.eid as usize] += c;
                }
            }
            if w != s as usize {
                scores.vbc[w] += delta[w];
            }
        }
    }
    scores
}

/// `got` equals `want` within 10⁻⁹ relative, on every vertex and edge.
fn assert_close_to(got: &Scores, want: &Scores, label: &str) {
    let pairs = (got.vbc.iter().zip(&want.vbc)).chain(got.ebc.iter().zip(&want.ebc));
    for (i, (&a, &b)) in pairs.enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{label}: score {i} is {a}, the f64 reference {b}"
        );
    }
}

/// Below the `u64` limit a memory state's scores — running and exact,
/// after an update and its undo too — agree with the `f64` reference.
#[test]
fn diamond_chains_below_the_limit_match_an_f64_path_count_brandes() {
    for k in [40, 63] {
        let g = diamond_chain(k);
        let mut st = BetweennessState::new(&g);
        let (b, c) = last_diamond_edge(k);
        for (step, update) in [None, Some(Update::remove(b, c)), Some(Update::add(b, c))]
            .into_iter()
            .enumerate()
        {
            if let Some(update) = update {
                st.apply(update).unwrap();
            }
            let want = brandes_f64(st.graph());
            let label = format!("{k} diamonds, step {step}");
            assert_close_to(st.scores(), &want, &format!("{label}, running"));
            assert_close_to(
                &st.exact_scores().unwrap(),
                &want,
                &format!("{label}, exact"),
            );
        }
    }
}

/// The first error of shards bootstrapping `g` from stores, each owning a
/// contiguous range of the sources, then applying `updates`.
fn first_error<S: BdStore>(
    g: &Graph,
    stores: Vec<S>,
    updates: &[Update],
) -> Option<ebc_graph::Error> {
    let (n, p) = (g.n(), stores.len());
    let mut shards: Vec<ShardState<S>> = stores
        .into_iter()
        .map(|store| ShardState::new(store, g.clone(), UpdateConfig::default()))
        .collect();
    for (k, shard) in shards.iter_mut().enumerate() {
        let owned: Vec<VertexId> = (k * n / p..(k + 1) * n / p)
            .map(|s| s as VertexId)
            .collect();
        if let Err(e) = shard.bootstrap(&owned) {
            return Some(e);
        }
    }
    for &update in updates {
        let results: Vec<_> = shards
            .iter_mut()
            .map(|shard| shard.apply(update, false))
            .collect();
        if let Some(e) = results.into_iter().find_map(Result::err) {
            return Some(e);
        }
    }
    None
}

/// At and past the `u64` limit no score comes out: 64, 65 and 70 diamonds
/// are refused at bootstrap, and completing the 64th by an update is
/// refused by that update, `Unsupported` and naming a source, on memory
/// stores (one shard and three) and on disk stores created `Wide` and
/// `Paper`: the top of the width ladder.
#[test]
fn diamond_chains_at_the_limit_are_refused_never_scored() {
    let mut cases: Vec<(String, Graph, Vec<Update>)> = [64, 65, 70]
        .map(|k| (format!("{k} diamonds"), diamond_chain(k), vec![]))
        .into();
    let mut open_64th = diamond_chain(64);
    let (b, c) = last_diamond_edge(64);
    open_64th.remove_edge(b, c).unwrap();
    assert_close_to(
        BetweennessState::new(&open_64th).scores(),
        &brandes_f64(&open_64th),
        "2^63 paths still count",
    );
    cases.push((
        "the 64th diamond's update".into(),
        open_64th,
        vec![Update::add(b, c)],
    ));
    for (label, g, updates) in cases {
        let (disk, dir) = disk_store(&g, CodecKind::Wide);
        let (paper, paper_dir) = disk_store(&g, CodecKind::Paper);
        let errors = [
            (
                "memory",
                first_error(&g, vec![MemoryBdStore::new(g.n())], &updates),
            ),
            (
                "memory p = 3",
                first_error(
                    &g,
                    (0..3).map(|_| MemoryBdStore::new(g.n())).collect(),
                    &updates,
                ),
            ),
            ("disk", first_error(&g, vec![disk], &updates)),
            ("disk from Paper", first_error(&g, vec![paper], &updates)),
        ];
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&paper_dir).ok();
        for (backend, error) in errors {
            let e = error.unwrap_or_else(|| panic!("{label}, {backend}: scored"));
            assert_eq!(e.kind(), ErrorKind::Unsupported, "{label}, {backend}: {e}");
            assert!(e.source_vertex().is_some(), "{label}, {backend}: {e}");
        }
    }
}

/// `brandes` keeps its signature and panics past the limit (documented).
#[test]
#[should_panic(expected = "more shortest paths reach vertex")]
fn brandes_panics_past_the_u64_limit() {
    ebc_core::brandes(&diamond_chain(64));
}

/// A handoff imports a record into a shard whose records are all narrow:
/// a wide one re-strides the recipient, and after an update every record
/// of both shards still equals a fresh bootstrap.
#[test]
fn an_imported_wide_record_restrides_a_narrow_shard() {
    // a star (distances ≤ 2) owned by shard 0 beside a 300-vertex path
    // (distances to 299) owned by shard 1
    let g = graph_of(
        600,
        (1..300).map(|leaf| (0, leaf)).chain(path_edges(300, 600)),
    );
    let mut shards: Vec<ShardState<MemoryBdStore>> = (0..2)
        .map(|_| ShardState::new(MemoryBdStore::new(600), g.clone(), UpdateConfig::default()))
        .collect();
    for (k, shard) in shards.iter_mut().enumerate() {
        let owned: Vec<VertexId> = (300 * k as u32..300 * (k as u32 + 1)).collect();
        shard.bootstrap(&owned).unwrap();
    }
    let cells = |shard: &ShardState<MemoryBdStore>| shard.num_sources() * 600;
    assert_eq!(shards[0].store().resident_bytes(), 11 * cells(&shards[0]));
    assert_eq!(shards[1].store().resident_bytes(), 20 * cells(&shards[1]));
    let record = shards[1].export(599, 0).unwrap();
    shards[0].import(record).unwrap();
    assert_eq!(shards[0].store().resident_bytes(), 20 * cells(&shards[0]));
    for shard in &mut shards {
        shard.apply(Update::add(1, 300), false).unwrap();
    }
    let now = shards[0].graph().clone();
    let mut scores = Scores::zeros_for(&now);
    for shard in &mut shards {
        for s in shard.sources() {
            let fresh = single_source_update(&now, s, &mut scores).unwrap();
            let delta: Vec<u64> = fresh.delta.iter().map(|x| x.to_bits()).collect();
            shard
                .store_mut()
                .read(s, &mut |d, sigma, got| {
                    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        (d, sigma, &got[..]),
                        (&fresh.d[..], &fresh.sigma[..], &delta[..]),
                        "source {s}"
                    );
                })
                .unwrap();
        }
    }
}
