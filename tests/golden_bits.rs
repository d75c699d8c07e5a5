//! Absolute score bits, pinned as constants.
//!
//! Every other oracle compares a session with the serial
//! `BetweennessState`, and both walk the same `Graph` adjacency, so a change
//! of neighbour order (which the dependency accumulation sums in) would move
//! both sides together unnoticed. This test pins the bits themselves: a
//! fixed graph, a seeded churn with growth, applied in batches through
//! memory sessions at p ∈ {1, 3} and disk sessions at p ∈ {2, 3}, and one
//! update at a time through a replicated fleet at p = 3, hashed with
//! `fnv1a64` and compared against recorded values. The disk p = 3 session
//! and the fleet run the memory p = 3 session's partition, adoption,
//! per-shard kernel in source order and ascending-shard fold, so their
//! fast bits are that session's: the record backend does not show in them.

use streaming_bc::cluster::SimBuilder;
use streaming_bc::core::Scores;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::{fnv1a64, EdgeOp, Graph};
use streaming_bc::{Backend, Session, Update};

/// `fnv1a64` of the scores' bits: every `vbc` slot, then every `ebc` slot,
/// little-endian.
fn digest(s: &Scores) -> u64 {
    let bytes: Vec<u8> = s
        .vbc
        .iter()
        .chain(&s.ebc)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// A seeded churn of `count` valid updates against `g`: mostly toggles of
/// random pairs, and every tenth update on average a vertex arrival.
fn churn(g: &Graph, count: usize, seed: u64) -> Vec<Update> {
    let mut mirror = g.clone();
    let mut x = seed;
    let mut next = |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as u32
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let n = mirror.n() as u32;
        let update = if next(10) == 0 {
            Update::add(next(n as usize), n)
        } else {
            let (u, v) = (next(n as usize), next(n as usize));
            if u == v {
                continue;
            }
            if mirror.has_edge(u, v) {
                Update::remove(u, v)
            } else {
                Update::add(u, v)
            }
        };
        match update.op {
            EdgeOp::Add => {
                mirror.ensure_vertex(update.u.max(update.v));
                mirror.add_edge(update.u, update.v).unwrap();
            }
            EdgeOp::Remove => {
                mirror.remove_edge(update.u, update.v).unwrap();
            }
        }
        out.push(update);
    }
    out
}

#[test]
fn scores_and_exact_reduce_keep_their_recorded_bits() {
    let g = holme_kim(60, 3, 0.3, 2024);
    let updates = churn(&g, 240, 0x9e37_79b9_7f4a_7c15);
    assert!(updates.iter().any(|u| u.u.max(u.v) as usize >= g.n()));
    let dir = std::env::temp_dir().join(format!("sbc_golden_bits_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cells = [
        ("mem p=1", Backend::Memory, 1),
        ("mem p=3", Backend::Memory, 3),
        ("disk p=2", Backend::Disk(dir.join("p2")), 2),
        ("disk p=3", Backend::Disk(dir.join("p3")), 3),
    ];
    let mut exact = Vec::new();
    let mut fast = Vec::new();
    for (name, backend, p) in cells {
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .build(&g)
            .unwrap();
        for batch in updates.chunks(24) {
            session.apply_stream(batch).unwrap();
        }
        fast.push((name, digest(&session.scores().unwrap().scores)));
        exact.push((name, digest(&session.reduce_exact().unwrap().scores)));
    }
    std::fs::remove_dir_all(&dir).ok();
    let mut sim = SimBuilder::new(3).launch(&g).unwrap();
    for &u in &updates {
        sim.coord.apply(u).unwrap();
    }
    fast.push(("fleet p=3", digest(&sim.coord.reduce().unwrap())));
    exact.push(("fleet p=3", digest(&sim.coord.reduce_exact().unwrap())));
    sim.shutdown();
    const FAST: [u64; 5] = [
        0xe1a4_0853_15fc_8d2a,
        0xfd74_f5f9_ed23_e1f8,
        0xba72_7d8e_ff12_a34f,
        0xfd74_f5f9_ed23_e1f8, // disk p=3: the mem p=3 bits
        0xfd74_f5f9_ed23_e1f8, // fleet p=3: the mem p=3 bits
    ];
    const EXACT: u64 = 0x6ef9_2574_7f93_dfab;
    for (i, &(name, got)) in fast.iter().enumerate() {
        assert_eq!(got, FAST[i], "{name}: scores() bits moved");
    }
    for &(name, got) in &exact {
        assert_eq!(got, EXACT, "{name}: reduce_exact() bits moved");
    }
}
