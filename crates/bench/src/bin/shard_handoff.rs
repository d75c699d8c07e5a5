//! **Shard-handoff baseline** — produces the committed
//! `BENCH_shard_handoff.json`: the cost of moving source ownership between
//! shards, against the naive alternatives, in two settings.
//!
//! * **at rest** (`ebc_store::ShardSet`): `k` journaled handoffs through
//!   the store calls the engine makes (export journal + donor swap-remove,
//!   recipient append, journal retire)
//!   versus the **full repartition** a static-range layout needs for the
//!   same assignment change (read every record of every shard, rewrite
//!   every shard file). Exact byte accounting from the stores' I/O
//!   counters.
//! * **live** (`ebc_engine::ClusterEngine`): draining a skewed worker via
//!   `rebalance(1)` versus tearing the cluster down and re-running the
//!   Brandes bootstrap over the new partitions — the only way to change
//!   ownership before the shard map existed.
//!
//! ```sh
//! cargo run --release -p ebc-bench --bin shard_handoff [-- --out PATH]
//! ```

use ebc_bench::move_source;
use ebc_core::bd::BdStore;
use ebc_engine::ClusterEngine;
use ebc_gen::models::holme_kim;
use ebc_store::{CodecKind, DiskBdStore, ShardSet};
use std::path::PathBuf;
use std::time::Instant;

const N: usize = 2_048;
const SHARDS: usize = 4;
const SOURCES_PER_SHARD: usize = 64;
const MOVES: usize = 16;
const REPS: usize = 5;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ebc_shard_handoff_baseline");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn record(n: usize, s: u32) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
    let d = (0..n).map(|i| (i as u32 + s) % 9).collect();
    let sigma = (0..n).map(|i| (i as u64 + s as u64) % 31 + 1).collect();
    let delta = (0..n).map(|i| i as f64 * 0.5 + s as f64).collect();
    (d, sigma, delta)
}

fn populated_set(name: &str) -> ShardSet {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut set = ShardSet::create(&dir, N, SHARDS, CodecKind::Wide).unwrap();
    for k in 0..SHARDS {
        for i in 0..SOURCES_PER_SHARD {
            let s = (k * SOURCES_PER_SHARD + i) as u32;
            let (d, sig, del) = record(N, s);
            set.shard_mut(k).add_source(s, d, sig, del).unwrap();
        }
    }
    set
}

fn set_bytes(set: &ShardSet) -> (u64, u64) {
    let mut r = 0;
    let mut w = 0;
    for k in 0..set.num_shards() {
        r += set.shard(k).bytes_read;
        w += set.shard(k).bytes_written;
    }
    (r, w)
}

struct AtRest {
    handoff_wall_s: f64,
    handoff_bytes_rw: (u64, u64),
    repartition_wall_s: f64,
    repartition_bytes_rw: (u64, u64),
}

/// `MOVES` handoffs out of shard 0, round-robin to the other shards.
fn bench_handoffs() -> AtRest {
    let mut best_wall = f64::INFINITY;
    let mut bytes = (0, 0);
    for rep in 0..REPS {
        let mut set = populated_set(&format!("handoff_{rep}"));
        let (r0, w0) = set_bytes(&set);
        let t0 = Instant::now();
        for i in 0..MOVES {
            let source = i as u32; // shard 0 owns 0..SOURCES_PER_SHARD
            move_source(&mut set, source, 0, 1 + i % (SHARDS - 1)).unwrap();
        }
        let wall = t0.elapsed().as_secs_f64();
        let (r1, w1) = set_bytes(&set);
        if wall < best_wall {
            best_wall = wall;
            bytes = (r1 - r0, w1 - w0);
        }
    }
    // the static-range alternative: materialise the same assignment change
    // by rewriting every shard file against the new source ranges
    let mut best_repart = f64::INFINITY;
    let mut repart_bytes = (0, 0);
    for rep in 0..REPS {
        let mut set = populated_set(&format!("repart_src_{rep}"));
        let out_dir = tmp(&format!("repart_dst_{rep}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        std::fs::create_dir_all(&out_dir).unwrap();
        let (r0, w0) = set_bytes(&set);
        let t0 = Instant::now();
        let mut written = 0u64;
        for k in 0..SHARDS {
            let mut fresh =
                DiskBdStore::create(out_dir.join(format!("shard-{k}.ebc")), N, CodecKind::Wide)
                    .unwrap();
            // the post-change assignment, rebuilt from scratch: every record
            // of every shard is read and rewritten
            for src_shard in 0..SHARDS {
                for s in set.shard(src_shard).sources() {
                    let dest = if (s as usize) < MOVES {
                        1 + (s as usize) % (SHARDS - 1) // the moved sources
                    } else {
                        src_shard
                    };
                    if dest != k {
                        continue;
                    }
                    let (mut d, mut sig, mut del) = (Vec::new(), Vec::new(), Vec::new());
                    set.shard_mut(src_shard)
                        .update_with(s, &mut |view| {
                            d = view.d.to_vec();
                            sig = view.sigma.to_vec();
                            del = view.delta.to_vec();
                            false
                        })
                        .unwrap();
                    fresh.add_source(s, d, sig, del).unwrap();
                }
            }
            written += fresh.bytes_written;
        }
        let wall = t0.elapsed().as_secs_f64();
        let (r1, w1) = set_bytes(&set);
        if wall < best_repart {
            best_repart = wall;
            repart_bytes = (r1 - r0, (w1 - w0) + written);
        }
    }
    AtRest {
        handoff_wall_s: best_wall,
        handoff_bytes_rw: bytes,
        repartition_wall_s: best_repart,
        repartition_bytes_rw: repart_bytes,
    }
}

struct Live {
    n: usize,
    p: usize,
    moves: usize,
    rebalance_wall_s: f64,
    rebootstrap_wall_s: f64,
}

/// Live engine: drain worker 0 onto worker 1, then time `rebalance(1)`
/// against the pre-shard-map alternative (a fresh Brandes bootstrap).
fn bench_live() -> Live {
    let n = 1_000;
    let p = 4;
    let g = holme_kim(n, 3, 0.4, 42);
    let mut best_rebalance = f64::INFINITY;
    let mut moves = 0;
    for _ in 0..REPS {
        let mut cluster = ClusterEngine::new(&g, p).unwrap();
        for s in cluster.shard_map().sources_of(0).to_vec() {
            cluster.handoff(s, 1).unwrap();
        }
        let t0 = Instant::now();
        let report = cluster.rebalance(1).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        moves = report.moves.len();
        best_rebalance = best_rebalance.min(wall);
    }
    let mut best_bootstrap = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let cluster = ClusterEngine::new(&g, p).unwrap();
        best_bootstrap = best_bootstrap.min(t0.elapsed().as_secs_f64());
        drop(cluster);
    }
    Live {
        n,
        p,
        moves,
        rebalance_wall_s: best_rebalance,
        rebootstrap_wall_s: best_bootstrap,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_shard_handoff.json");
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args.get(i + 1).expect("--out requires a path").clone();
    }
    eprintln!(
        "shard_handoff: at-rest n={N} shards={SHARDS} sources/shard={SOURCES_PER_SHARD} moves={MOVES}, {REPS} reps"
    );
    let at_rest = bench_handoffs();
    eprintln!(
        "  handoff      {:>10.6}s  rw=({}, {})",
        at_rest.handoff_wall_s, at_rest.handoff_bytes_rw.0, at_rest.handoff_bytes_rw.1
    );
    eprintln!(
        "  repartition  {:>10.6}s  rw=({}, {})",
        at_rest.repartition_wall_s, at_rest.repartition_bytes_rw.0, at_rest.repartition_bytes_rw.1
    );
    let live = bench_live();
    eprintln!(
        "  live rebalance ({} moves) {:.6}s vs re-bootstrap {:.6}s",
        live.moves, live.rebalance_wall_s, live.rebootstrap_wall_s
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard_handoff\",\n",
            "  \"n\": {n},\n",
            "  \"shards\": {shards},\n",
            "  \"sources_per_shard\": {sps},\n",
            "  \"repetitions\": {reps},\n",
            "  \"metric\": \"best-of-reps wall and exact record-I/O byte counters; at_rest moves {moves} sources between disk shards via the journaled handoff protocol vs rewriting every shard file for the same assignment change; live drains a skewed 4-worker memory cluster via rebalance(1) vs re-running the Brandes bootstrap\",\n",
            "  \"at_rest\": {{\"moves\": {moves}, \"handoff_wall_s\": {hw:.9}, \"handoff_bytes_rw\": [{hr}, {hwb}], \"repartition_wall_s\": {rw:.9}, \"repartition_bytes_rw\": [{rr}, {rwb}], \"wall_speedup\": {ws:.3}, \"write_amplification_avoided\": {wa:.3}}},\n",
            "  \"live\": {{\"n\": {ln}, \"p\": {lp}, \"moves\": {lm}, \"rebalance_wall_s\": {lrw:.9}, \"rebootstrap_wall_s\": {lbw:.9}, \"speedup\": {ls:.3}}}\n",
            "}}\n"
        ),
        n = N,
        shards = SHARDS,
        sps = SOURCES_PER_SHARD,
        reps = REPS,
        moves = MOVES,
        hw = at_rest.handoff_wall_s,
        hr = at_rest.handoff_bytes_rw.0,
        hwb = at_rest.handoff_bytes_rw.1,
        rw = at_rest.repartition_wall_s,
        rr = at_rest.repartition_bytes_rw.0,
        rwb = at_rest.repartition_bytes_rw.1,
        ws = at_rest.repartition_wall_s / at_rest.handoff_wall_s,
        wa = at_rest.repartition_bytes_rw.1 as f64 / at_rest.handoff_bytes_rw.1.max(1) as f64,
        ln = live.n,
        lp = live.p,
        lm = live.moves,
        lrw = live.rebalance_wall_s,
        lbw = live.rebootstrap_wall_s,
        ls = live.rebootstrap_wall_s / live.rebalance_wall_s,
    );
    std::fs::write(&out_path, json).expect("write baseline json");
    eprintln!("wrote {out_path}");
}
