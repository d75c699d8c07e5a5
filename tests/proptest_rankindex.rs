//! Property-test oracle for the incremental rank index: across random
//! add / remove / grow / disconnect histories, on every embodiment
//! (in-memory, on-disk, sharded, for worker counts in {1, 3, 8}), the
//! session's incrementally maintained [`RankIndex`] must stay **bitwise
//! identical** to a from-scratch sort of the engine's maintained scores —
//! same ids in the same order from `top_k` (the `ranking::top_k` oracle,
//! ties toward smaller id), and the same score bits for every vertex.
//!
//! This is the acceptance oracle for the delta feed: any missed dirty
//! mark in the kernel, any drift between a sparse drain and the engine's
//! scores, or any tie-break divergence in the treap key order fails here.
//!
//! A second property drives [`RankIndex`] directly with arbitrary sparse
//! deltas — ids unsorted and repeating, fresh ids beyond a gap, every
//! score class `total_cmp` tells apart — and demands that one bulk `apply`
//! reads exactly like the same changes one `set` at a time, and like the
//! sort oracle, while a clone taken before the apply still reads the old
//! order.
//!
//! The vendored proptest stub derives each test's RNG seed from the test
//! name, so CI runs are reproducible by construction.

use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use streaming_bc::core::rankindex::{RankIndex, ScoreDelta};
use streaming_bc::core::ranking;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::{Backend, Session, Update};

/// One step of a random evolution history (same shape as the session oracle).
#[derive(Debug, Clone, Copy)]
enum HistOp {
    /// Toggle the edge between two picked vertices.
    Toggle { u_pick: usize, v_pick: usize },
    /// Attach a brand-new vertex to a picked existing one — the index
    /// must grow to cover the fresh id.
    Grow { u_pick: usize },
    /// Remove every edge of a picked vertex — scores collapse toward the
    /// all-ties-at-zero regime where the id tie-break does all the work.
    Disconnect { v_pick: usize },
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        6 => (0usize..1024, 0usize..1024).prop_map(|(u, v)| HistOp::Toggle {
            u_pick: u,
            v_pick: v,
        }),
        1 => (0usize..1024).prop_map(|u| HistOp::Grow { u_pick: u }),
        1 => (0usize..1024).prop_map(|v| HistOp::Disconnect { v_pick: v }),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Worker counts of the sharded disk sessions the oracle sweeps (the
/// one-worker disk session is its own cell).
const WORKERS: [usize; 2] = [3, 8];

/// The index agrees with the sort-based oracle on one session, bit for
/// bit: every ranked read and the full score vector.
fn assert_index_matches_oracle(ctx: &str, seed: u64, session: &mut Session) {
    let vbc = session.scores().unwrap().scores.vbc;
    let n = vbc.len();

    // the index holds exactly the engine's scores, bitwise
    let indexed = session.rank_index().unwrap().to_scores();
    prop_assert_eq!(
        to_bits(&indexed),
        to_bits(&vbc),
        "{} seed={}: index scores diverged from engine scores",
        ctx,
        seed
    );

    // top_k agrees with the re-sort oracle at every cut, including the
    // tie-heavy boundaries
    for k in [0, 1, 3, n / 2, n, n + 7] {
        prop_assert_eq!(
            session.top_k(k).unwrap(),
            ranking::top_k(&vbc, k),
            "{} seed={}: top_{} diverged from the sort oracle",
            ctx,
            seed,
            k
        );
    }

    // rank_of is the 1-based position in the full ranking; percentile is
    // its complement mass
    let full = ranking::top_k(&vbc, n);
    for (pos, &v) in full.iter().enumerate() {
        prop_assert_eq!(
            session.rank_of(v).unwrap(),
            Some(pos + 1),
            "{} seed={}: rank_of({}) diverged",
            ctx,
            seed,
            v
        );
        let want = (n - pos) as f64 / n as f64;
        prop_assert_eq!(
            session.percentile(v).unwrap(),
            Some(want),
            "{} seed={}: percentile({}) diverged",
            ctx,
            seed,
            v
        );
    }
    prop_assert_eq!(session.rank_of(n as u32 + 9).unwrap(), None);
}

/// A score from a pick: ties, both zeros, both infinities, both NaN signs
/// and ordinary values.
fn score_of(pick: u32) -> f64 {
    match pick % 12 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5 => -f64::NAN,
        6..=8 => f64::from(pick % 5),
        _ => f64::from(pick) / 7.0,
    }
}

/// Every ranked read of `ix` against the sort oracle over `scores`.
fn assert_reads_match_oracle(ctx: &str, ix: &RankIndex, scores: &[f64]) {
    let n = scores.len();
    prop_assert_eq!(to_bits(&ix.to_scores()), to_bits(scores), "{}: scores", ctx);
    let full = ranking::top_k(scores, n);
    let entries: Vec<(u32, u64)> = ix
        .top_entries(n)
        .iter()
        .map(|&(v, x)| (v, x.to_bits()))
        .collect();
    let want: Vec<(u32, u64)> = full
        .iter()
        .map(|&v| (v, scores[v as usize].to_bits()))
        .collect();
    prop_assert_eq!(&entries, &want, "{}: top_entries(n)", ctx);
    for (pos, &(v, bits)) in want.iter().enumerate() {
        prop_assert_eq!(ix.rank_of(v), Some(pos + 1), "{}: rank_of({})", ctx, v);
        let nth = ix.nth(pos + 1).map(|(v, x)| (v, x.to_bits()));
        prop_assert_eq!(nth, Some((v, bits)), "{}: nth({})", ctx, pos + 1);
    }
    prop_assert_eq!(ix.nth(n + 1), None);
}

fn to_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// One bulk pass equals the same changes one `set` at a time equals
    /// the sort oracle, round after round on the same index; a clone taken
    /// before a round still reads the round's old order afterwards.
    #[test]
    fn bulk_apply_equals_pointwise_sets_and_the_sort_oracle(
        base in collection::vec(0u32..4096, 0..48),
        rounds in collection::vec(
            collection::vec((0u32..64, 0u32..4096), 0..80),
            1..6,
        ),
    ) {
        let mut scores: Vec<f64> = base.iter().map(|&p| score_of(p)).collect();
        let mut bulk = RankIndex::from_scores(&scores);
        let mut pointwise = bulk.clone();
        for (r, picks) in rounds.iter().enumerate() {
            // ids land anywhere up to a few past the end: in range, the
            // next fresh id, or fresh beyond a gap; repeats are likely
            let span = scores.len() as u32 + 3;
            let changes: Vec<(u32, f64)> = picks
                .iter()
                .map(|&(v, p)| (v % span, score_of(p)))
                .collect();
            let before = scores.clone();
            let snapshot = bulk.clone();

            bulk.apply(&ScoreDelta::Sparse(changes.clone()));
            for &(v, x) in &changes {
                pointwise.set(v, x);
                if scores.len() <= v as usize {
                    scores.resize(v as usize + 1, 0.0);
                }
                scores[v as usize] = x;
            }
            assert_reads_match_oracle(&format!("round {r} bulk"), &bulk, &scores);
            assert_reads_match_oracle(&format!("round {r} pointwise"), &pointwise, &scores);
            assert_reads_match_oracle(&format!("round {r} snapshot"), &snapshot, &before);
        }
    }

    /// The headline acceptance property: for any random history, on every
    /// embodiment, ranked reads off the incremental index are bitwise
    /// identical to re-sorting the maintained scores from scratch.
    #[test]
    fn rank_index_matches_sort_oracle_bitwise(
        seed in 0u64..1_000,
        ops in collection::vec(hist_op(), 1..16),
    ) {
        let g = holme_kim(16, 2, 0.35, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "sbc_proptest_rank_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // a plain graph mirror drives the history (decides toggles,
        // tracks n) without touching any engine
        let mut mirror: Graph = g.clone();

        let mut sessions: Vec<(String, Session)> = vec![(
            "mem p=1".into(),
            Session::builder().backend(Backend::Memory).build(&g).unwrap(),
        )];
        for p in WORKERS {
            sessions.push((
                format!("shard p={p}"),
                Session::builder()
                    .backend(Backend::Disk(dir.join(format!("s{p}"))))
                    .workers(p)
                    .build(&g)
                    .unwrap(),
            ));
        }
        sessions.push((
            "disk p=1".into(),
            Session::builder()
                .backend(Backend::Disk(dir.join("disk")))
                .build(&g)
                .unwrap(),
        ));

        let step = |update: Update,
                        mirror: &mut Graph,
                        sessions: &mut Vec<(String, Session)>| {
            match update.op {
                streaming_bc::graph::EdgeOp::Add => {
                    while (mirror.n() as u32) <= update.u.max(update.v) {
                        mirror.add_vertex();
                    }
                    mirror.add_edge(update.u, update.v).unwrap();
                }
                streaming_bc::graph::EdgeOp::Remove => {
                    mirror.remove_edge(update.u, update.v).unwrap();
                }
            }
            for (ctx, session) in sessions.iter_mut() {
                session.apply(update).unwrap_or_else(|e| {
                    panic!("{ctx} seed={seed}: apply({update:?}) failed: {e}")
                });
                // check after *every* update: a stale index hides behind
                // later updates if we only compare final states
                assert_index_matches_oracle(ctx, seed, session);
            }
        };

        for op in &ops {
            match *op {
                HistOp::Toggle { u_pick, v_pick } => {
                    let n = mirror.n();
                    let u = (u_pick % n) as u32;
                    let v = (v_pick % n) as u32;
                    if u == v {
                        continue;
                    }
                    let update = if mirror.has_edge(u, v) {
                        Update::remove(u, v)
                    } else {
                        Update::add(u, v)
                    };
                    step(update, &mut mirror, &mut sessions);
                }
                HistOp::Grow { u_pick } => {
                    let n = mirror.n();
                    let u = (u_pick % n) as u32;
                    step(Update::add(u, n as u32), &mut mirror, &mut sessions);
                }
                HistOp::Disconnect { v_pick } => {
                    let n = mirror.n();
                    let v = (v_pick % n) as u32;
                    let partners: Vec<u32> = (0..n as u32)
                        .filter(|&w| w != v && mirror.has_edge(v, w))
                        .collect();
                    for w in partners {
                        step(Update::remove(v, w), &mut mirror, &mut sessions);
                    }
                }
            }
        }

        drop(sessions); // release the disk stores before cleanup
        std::fs::remove_dir_all(&dir).ok();
    }
}
