//! Criterion bench: shard handoff hot paths — one journaled disk handoff
//! round-trip, a `ShardSet::open` over clean shard files, and a live
//! memory-cluster skew/rebalance cycle. The committed
//! `BENCH_shard_handoff.json` baseline (produced by the `shard_handoff`
//! bin) tracks the same workloads with exact byte accounting.

use criterion::{criterion_group, criterion_main, Criterion};
use ebc_bench::move_source;
use ebc_core::bd::BdStore;
use ebc_engine::ClusterEngine;
use ebc_gen::models::holme_kim;
use ebc_store::{CodecKind, ShardSet};

const N: usize = 1_024;
const SOURCES_PER_SHARD: usize = 24;
const SHARDS: usize = 3;

fn populated(name: &str) -> ShardSet {
    let dir = std::env::temp_dir()
        .join("ebc_bench_shard_handoff")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut set = ShardSet::create(&dir, N, SHARDS, CodecKind::Wide).unwrap();
    for k in 0..SHARDS {
        for i in 0..SOURCES_PER_SHARD {
            let s = (k * SOURCES_PER_SHARD + i) as u32;
            let d = (0..N).map(|x| ((x + s as usize) % 7) as u32).collect();
            let sigma = vec![1u64; N];
            let delta = vec![0.0f64; N];
            set.shard_mut(k).add_source(s, d, sigma, delta).unwrap();
        }
    }
    set
}

fn bench_shard_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_handoff_1k");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // one full journaled handoff there and back (state-neutral iteration)
    let mut set = populated("roundtrip");
    group.bench_function("disk_handoff_roundtrip", |b| {
        b.iter(|| {
            move_source(&mut set, 0, 0, 1).unwrap();
            move_source(&mut set, 0, 1, 0).unwrap();
        })
    });

    // reopening the directory: per-shard validation + journal scan
    let mut open_set = populated("open");
    open_set.flush().unwrap();
    let dir = std::env::temp_dir()
        .join("ebc_bench_shard_handoff")
        .join("open");
    drop(open_set);
    group.bench_function("shardset_open_clean", |b| {
        b.iter(|| {
            let set = ShardSet::open(&dir).unwrap();
            assert_eq!(set.num_shards(), SHARDS);
        })
    });

    // live path: skew one source over and let the plan pull it back
    let g = holme_kim(200, 3, 0.4, 7);
    let mut cluster = ClusterEngine::new(&g, 4).unwrap();
    group.bench_function("live_skew_and_rebalance", |b| {
        b.iter(|| {
            let s = *cluster.shard_map().sources_of(0).last().unwrap();
            cluster.handoff(s, 1).unwrap();
            let report = cluster.rebalance(1).unwrap();
            assert!(cluster.shard_map().skew() <= 1);
            report.moves.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_shard_handoff);
criterion_main!(benches);
