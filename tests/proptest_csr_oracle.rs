//! Property-test oracle for the CSR hot path: a session's shards traverse
//! pinned [`ebc_graph::CsrView`] epochs, while the single-machine
//! [`BetweennessState`] still walks the legacy `Vec<Vec<Half>>` adjacency.
//! Over random add / remove / grow / **disconnect** histories, the
//! partition-invariant exact reduction must be **bitwise identical**
//! between the two representations — on the in-memory and the on-disk
//! `BD[·]` backend, for every worker count in `{1, 3, 8}`.
//!
//! This is the acceptance oracle for the CSR refactor: any divergence in
//! neighbor order (the dependency accumulation pulls successors in
//! adjacency order), in epoch publication, or in the overlapped reduce
//! would break bit-equality here.
//!
//! The vendored proptest stub derives each test's RNG seed from the test
//! name, so CI runs are reproducible by construction.

use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use streaming_bc::core::state::{BetweennessState, Update};
use streaming_bc::core::Scores;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::GraphView;
use streaming_bc::{Backend, Session};

/// One step of a random evolution history.
#[derive(Debug, Clone, Copy)]
enum HistOp {
    /// Toggle the edge between two picked vertices: add when absent,
    /// remove when present.
    Toggle { u_pick: usize, v_pick: usize },
    /// Attach a brand-new vertex to a picked existing one (growth +
    /// adoption path; stretches the CSR with a fresh zero-capacity
    /// segment).
    Grow { u_pick: usize },
    /// Remove *every* edge of a picked vertex, isolating it — the
    /// disconnection case: distances to the island become unreachable and
    /// the CSR segment empties in place.
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

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Worker counts the oracle sweeps — single worker (CSR with no real
/// fan-out), the odd middle, and more workers than hot vertices.
const WORKERS: [usize; 3] = [1, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The headline acceptance property: for any random history, every
    /// CSR-backed embodiment reduces to the exact same bits as the legacy
    /// adjacency-list state.
    #[test]
    fn csr_reduce_exact_matches_legacy_bitwise(
        seed in 0u64..1_000,
        ops in collection::vec(hist_op(), 1..24),
    ) {
        let g = holme_kim(18, 2, 0.35, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "sbc_proptest_csr_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // the legacy-path oracle: Vec<Vec<Half>> adjacency, one machine
        let mut legacy = BetweennessState::new(&g);

        // the CSR-path contenders: p-worker sessions on both backends
        let mut contenders: Vec<(String, Session)> = Vec::new();
        for p in WORKERS {
            for (backend, name) in [
                (Backend::Memory, "mem"),
                (Backend::Disk(dir.join(format!("p{p}"))), "disk"),
            ] {
                let session = Session::builder()
                    .backend(backend)
                    .workers(p)
                    .build(&g)
                    .unwrap();
                contenders.push((format!("{name} p={p}"), session));
            }
        }

        let lockstep = |update: Update,
                            legacy: &mut BetweennessState,
                            contenders: &mut Vec<(String, Session)>| {
            legacy.apply(update).unwrap();
            for (ctx, session) in contenders.iter_mut() {
                session.apply(update).unwrap_or_else(|e| {
                    panic!("{ctx} seed={seed}: apply({update:?}) failed: {e}")
                });
            }
        };

        for op in &ops {
            match *op {
                HistOp::Toggle { u_pick, v_pick } => {
                    let n = legacy.graph().n();
                    let u = (u_pick % n) as u32;
                    let v = (v_pick % n) as u32;
                    if u == v {
                        continue;
                    }
                    let update = if legacy.graph().has_edge(u, v) {
                        Update::remove(u, v)
                    } else {
                        Update::add(u, v)
                    };
                    lockstep(update, &mut legacy, &mut contenders);
                }
                HistOp::Grow { u_pick } => {
                    let n = legacy.graph().n();
                    let u = (u_pick % n) as u32;
                    lockstep(Update::add(u, n as u32), &mut legacy, &mut contenders);
                }
                HistOp::Disconnect { v_pick } => {
                    let n = legacy.graph().n();
                    let v = (v_pick % n) as u32;
                    let partners: Vec<u32> = GraphView::neighbors(legacy.graph(), v)
                        .iter()
                        .map(|h| h.to)
                        .collect();
                    for w in partners {
                        lockstep(Update::remove(v, w), &mut legacy, &mut contenders);
                    }
                    // islands must agree too, not just the final state
                    let oracle = legacy.exact_scores().unwrap();
                    for (ctx, session) in contenders.iter_mut() {
                        let exact = session.reduce_exact().unwrap().scores;
                        prop_assert_eq!(
                            bits(&exact),
                            bits(&oracle),
                            "{} seed={}: diverged after disconnecting {}",
                            ctx, seed, v
                        );
                    }
                }
            }
        }

        let oracle = legacy.exact_scores().unwrap();
        for (ctx, session) in contenders.iter_mut() {
            let exact = session.reduce_exact().unwrap().scores;
            prop_assert_eq!(
                bits(&exact),
                bits(&oracle),
                "{} seed={}: final scores diverged",
                ctx, seed
            );
        }
        drop(contenders); // release the disk stores before cleanup
        std::fs::remove_dir_all(&dir).ok();
    }
}
