//! Per-layer attribution by stack differencing: the same stream prefix is
//! driven through successively thicker public stacks - graph, kernel, disk
//! store, session, engine pool, serve frontend, replicated fleet - and each
//! call is recorded as a span, so a layer's self time is its span minus the
//! span of the stack below it. Leaf calls are timed directly where a public
//! function exists. Nothing inside the program is instrumented.

use crate::inputs::{lognormal_schedule, sub_seed};
use crate::run::Metric;
use crate::stats::{mean, median, quantile, tail};
use crate::targets::{
    apply_line, FleetTarget, Scratch, ServeTarget, SessionTarget, Target, Wire, LIVE_WAL_BYTES,
};
use crate::trace::Tracer;
use crate::workloads::{brandes_s, paced, query_loop, Tally, BATCH, PACED_RATE, PACED_SIGMA};
use ebc_serve::{parse_request, ServeEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use streaming_bc::cluster::wire::{self, NodeMsg, Request, ShardOp};
use streaming_bc::cluster::SimBuilder;
use streaming_bc::core::incremental::UpdateConfig;
use streaming_bc::core::rankindex::{RankIndex, ScoreDelta};
use streaming_bc::core::BetweennessState;
use streaming_bc::engine::ClusterEngine;
use streaming_bc::graph::{EdgeOp, EpochGraph, Graph};
use streaming_bc::serve::ServedSession;
use streaming_bc::store::{CodecKind, DiskBdStore, HistoryLog, OpLog};
use streaming_bc::{Checkpoint, Session, Update};

/// The history log is microseconds per append: drive it past a few seals
/// whatever the prefix, so `store.history_seal_us` always has samples.
const HISTORY_OPS: usize = 1000;
const BRANDES_REPS: usize = 5;
const REDUCE_REPS: usize = 5;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every per-layer metric, on graph `g` and the first `p` updates of
/// `stream` (the serve stack consumes three further runs of `p`).
pub fn ladder(
    g: &Graph,
    stream: &[Update],
    p: usize,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    assert!(
        stream.len() >= 4 * p,
        "stream shorter than the ladder needs"
    );
    let prefix = &stream[..p];
    let mut out = Vec::new();
    out.extend(graph_layer(g, prefix, tr)?);
    out.extend(core_layer(g, prefix, tr)?);
    out.extend(store_layer(g, prefix, scratch, tr)?);
    out.extend(session_layer(g, prefix, scratch, tr)?);
    out.extend(engine_layer(g, prefix, tr)?);
    out.extend(serve_layer(g, stream, p, tr)?);
    out.extend(cluster_layer(g, prefix, tr)?);
    Ok(out)
}

fn graph_layer(g: &Graph, prefix: &[Update], tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut eg = EpochGraph::new(g.clone());
    for (i, u) in prefix.iter().enumerate() {
        tr.time("graph.mutate_publish", i, || {
            match u.op {
                EdgeOp::Add => eg.add_edge(u.u, u.v),
                EdgeOp::Remove => eg.remove_edge(u.u, u.v),
            }
            .map(|_| eg.publish())
        })
        .map_err(err)?;
    }
    Ok(vec![
        (
            "graph.mutate_publish_us",
            tr.p50_us("graph.mutate_publish"),
            "us",
        ),
        ("graph.csr_bytes", eg.pin().resident_bytes() as f64, "bytes"),
    ])
}

fn core_layer(g: &Graph, prefix: &[Update], tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut state = BetweennessState::new(g);
    let mut rank = RankIndex::new();
    rank.apply(&state.take_score_delta()); // the dense baseline
    for (i, &u) in prefix.iter().enumerate() {
        let before = state.stats();
        tr.time("core.apply", i, || state.apply(u)).map_err(err)?;
        let after = state.stats();
        tr.count(
            "core.sources_processed",
            i,
            (after.sources_processed - before.sources_processed) as f64,
        );
        tr.count(
            "core.sources_skipped",
            i,
            (after.sources_skipped - before.sources_skipped) as f64,
        );
        let dirty = tr.time("core.rank_feed", i, || {
            let delta = state.take_score_delta();
            rank.apply(&delta);
            match delta {
                ScoreDelta::Unchanged => 0,
                ScoreDelta::Sparse(changes) => changes.len(),
                ScoreDelta::Dense(all) => all.len(),
            }
        });
        tr.count("core.rank_dirty", i, dirty as f64);
        tr.time("core.topk", i, || std::hint::black_box(rank.top_k(10)));
    }
    let stats = state.stats();
    let n = prefix.len() as f64;
    let seen = (stats.sources_processed + stats.sources_skipped).max(1) as f64;
    Ok(vec![
        ("core.apply_us", tr.p50_us("core.apply"), "us"),
        (
            "core.kernel_self_us",
            tr.self_us("core.apply", "graph.mutate_publish"),
            "us",
        ),
        (
            "core.sources_processed",
            stats.sources_processed as f64,
            "count",
        ),
        (
            "core.sources_skipped",
            stats.sources_skipped as f64,
            "count",
        ),
        (
            "core.skip_ratio",
            stats.sources_skipped as f64 / seen,
            "ratio",
        ),
        ("core.touched_per_update", stats.touched as f64 / n, "count"),
        ("core.popped_per_update", stats.popped as f64 / n, "count"),
        ("core.brandes_s", brandes_s(g, BRANDES_REPS), "s"),
        ("core.rank_feed_us", tr.p50_us("core.rank_feed"), "us"),
        (
            "core.rank_dirty_per_update",
            mean(&tr.counter_values("core.rank_dirty")),
            "count",
        ),
        ("core.topk_us", tr.p50_us("core.topk"), "us"),
    ])
}

fn store_layer(
    g: &Graph,
    prefix: &[Update],
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    // the kernel over disk records, flushed per update like the session does
    let dir = scratch.dir("store");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let store = DiskBdStore::create(dir.join("bd.ebc"), g.n(), CodecKind::Wide).map_err(err)?;
    let mut state =
        BetweennessState::new_into_store(g.clone(), store, UpdateConfig::default()).map_err(err)?;
    let (read0, written0) = (state.store().bytes_read, state.store().bytes_written);
    for (i, &u) in prefix.iter().enumerate() {
        tr.time("store.apply", i, || {
            state.apply(u).map_err(err)?;
            streaming_bc::store::BdStore::flush(state.store_mut()).map_err(err)
        })?;
    }
    let n = prefix.len() as f64;
    let read = (state.store().bytes_read - read0) as f64 / n;
    let written = (state.store().bytes_written - written0) as f64 / n;

    // the history journal alone, with the session's 9-byte payloads
    let mut log = HistoryLog::create(&scratch.dir("history"), true).map_err(err)?;
    let mut seals = 0u64;
    for i in 0..HISTORY_OPS.max(prefix.len()) {
        let u = prefix[i % prefix.len()];
        let mut payload = [0u8; 9];
        payload[0] = (u.op == EdgeOp::Remove) as u8;
        payload[1..5].copy_from_slice(&u.u.to_le_bytes());
        payload[5..9].copy_from_slice(&u.v.to_le_bytes());
        let seq = i as u64 + 1;
        tr.time("store.history_append", i, || log.append(seq, 0, &payload))
            .map_err(err)?;
        tr.time("store.history_sync", i, || log.sync())
            .map_err(err)?;
        if log.live_bytes() >= LIVE_WAL_BYTES {
            tr.time("store.history_seal", i, || log.seal_upto(seq))
                .map_err(err)?;
            seals += 1;
        }
    }
    let history = log.stats();

    // a node's op log, fed the frames a shard leader journals
    let oplog_dir = scratch.dir("oplog");
    std::fs::create_dir_all(&oplog_dir).map_err(err)?;
    let mut oplog = OpLog::open(oplog_dir.join("node.wal")).map_err(err)?;
    for (i, &update) in prefix.iter().enumerate() {
        let op = ShardOp::Apply {
            update,
            adopt: None,
        };
        let frame = wire::encode(&NodeMsg::Replicate {
            index: i as u64 + 1,
            op,
        });
        tr.time("store.oplog_append", i, || {
            oplog.append(frame.as_bytes()).map_err(err)?;
            oplog.sync().map_err(err)
        })?;
    }
    Ok(vec![
        ("store.apply_us", tr.p50_us("store.apply"), "us"),
        (
            "store.self_us",
            tr.self_us("store.apply", "core.apply"),
            "us",
        ),
        ("store.bytes_read_per_update", read, "bytes"),
        ("store.bytes_written_per_update", written, "bytes"),
        (
            "store.history_append_us",
            tr.p50_us("store.history_append"),
            "us",
        ),
        (
            "store.history_sync_us",
            tr.p50_us("store.history_sync"),
            "us",
        ),
        (
            "store.history_seal_us",
            tr.p50_us("store.history_seal"),
            "us",
        ),
        ("store.seals", seals as f64, "count"),
        (
            "store.live_wal_bytes",
            history.live_wal_bytes as f64,
            "bytes",
        ),
        ("store.sealed_bytes", history.sealed_bytes as f64, "bytes"),
        ("store.segments", history.segments as f64, "count"),
        (
            "store.oplog_append_us",
            tr.p50_us("store.oplog_append"),
            "us",
        ),
    ])
}

fn session_layer(
    g: &Graph,
    prefix: &[Update],
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut memory = SessionTarget::memory(g, 1)?.session;
    for (i, &u) in prefix.iter().enumerate() {
        tr.time("session.mem_apply", i, || memory.apply(u))
            .map_err(err)?;
    }
    drop(memory);

    let dir = scratch.dir("session");
    let mut every = SessionTarget::disk(g, &dir, Checkpoint::EveryApply)?.session;
    for (i, &u) in prefix.iter().enumerate() {
        tr.time("session.apply", i, || every.apply(u))
            .map_err(err)?;
    }
    let manifest = std::fs::metadata(dir.join("session.manifest"))
        .map_err(err)?
        .len();
    let seq = every.seq();
    tr.time("session.replay", 0, || every.replay_to(seq))
        .map_err(err)?;
    drop(every);
    tr.time("session.open", 0, || Session::open(&dir))
        .map_err(err)?;

    // the same stream with the checkpoint pulled out of `apply`
    let manual_dir = scratch.dir("session-manual");
    let mut manual = SessionTarget::disk(g, &manual_dir, Checkpoint::Manual)?.session;
    for (i, &u) in prefix.iter().enumerate() {
        tr.time("session.apply_manual", i, || manual.apply(u))
            .map_err(err)?;
        tr.time("session.checkpoint", i, || manual.checkpoint())
            .map_err(err)?;
    }
    Ok(vec![
        (
            "session.mem_self_us",
            tr.self_us("session.mem_apply", "core.apply"),
            "us",
        ),
        ("session.apply_us", tr.p50_us("session.apply"), "us"),
        (
            "session.self_us",
            tr.self_us("session.apply", "store.apply"),
            "us",
        ),
        (
            "session.apply_manual_us",
            tr.p50_us("session.apply_manual"),
            "us",
        ),
        (
            "session.checkpoint_us",
            tr.p50_us("session.checkpoint"),
            "us",
        ),
        ("session.manifest_bytes", manifest as f64, "bytes"),
        ("session.open_us", tr.p50_us("session.open"), "us"),
        (
            "session.replay_us_per_update",
            tr.p50_us("session.replay") / seq.max(1) as f64,
            "us",
        ),
    ])
}

fn engine_layer(g: &Graph, prefix: &[Update], tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    // one update per dispatch: the pool's own report against the call's wall
    let mut single = ClusterEngine::new(g, 2).map_err(err)?;
    for (i, &u) in prefix.iter().enumerate() {
        let report = tr
            .time("engine.apply", i, || single.apply(u))
            .map_err(err)?;
        tr.record("engine.map_wall", i, report.map_wall);
        tr.count(
            "engine.cumulative_us",
            i,
            report.cumulative.as_secs_f64() * 1e6,
        );
        let busiest = report.per_worker.iter().max().copied().unwrap_or_default();
        let mean = report.cumulative.as_secs_f64() / report.per_worker.len().max(1) as f64;
        tr.count(
            "engine.worker_imbalance",
            i,
            busiest.as_secs_f64() / mean.max(1e-9),
        );
    }
    drop(single);

    // batches of 32 followed by a read of the scores, as `par_batch` does
    let mut engine = ClusterEngine::new(g, 2).map_err(err)?;
    let mut session = SessionTarget::memory(g, 2)?;
    for (b, chunk) in prefix.chunks(BATCH).enumerate() {
        let idx = b * BATCH;
        let t0 = Instant::now();
        let reports = tr.time("engine.batch_dispatch", idx, || engine.apply_stream(chunk));
        let reports = reports.map_err(err)?;
        tr.time("engine.reduce", idx, || engine.reduce())
            .map_err(err)?;
        tr.record("engine.batch_apply", idx, t0.elapsed());
        // the busiest worker's total is the batch's critical path
        let workers = reports.first().map_or(0, |r| r.per_worker.len());
        let busy = (0..workers).map(|k| reports.iter().map(|r| r.per_worker[k]).sum());
        tr.record("engine.map_busy", idx, busy.max().unwrap_or_default());
        tr.time("session.batch_apply", idx, || session.step(chunk))?;
    }
    for i in 0..REDUCE_REPS {
        tr.time("engine.reduce_exact", i, || engine.reduce_exact())
            .map_err(err)?;
    }
    let per_update_batched = tr.p50_us("engine.batch_dispatch") / BATCH as f64;
    Ok(vec![
        ("engine.map_wall_us", tr.p50_us("engine.map_wall"), "us"),
        (
            "engine.cumulative_us",
            median(&tr.counter_values("engine.cumulative_us")),
            "us",
        ),
        (
            "engine.worker_imbalance",
            median(&tr.counter_values("engine.worker_imbalance")),
            "ratio",
        ),
        (
            "engine.dispatch_overhead_us",
            tr.self_us("engine.apply", "engine.map_wall"),
            "us",
        ),
        ("engine.reduce_us", tr.p50_us("engine.reduce"), "us"),
        (
            "engine.reduce_exact_us",
            tr.p50_us("engine.reduce_exact"),
            "us",
        ),
        (
            "engine.batch_pipeline_gain",
            tr.p50_us("engine.apply") / per_update_batched,
            "ratio",
        ),
        (
            "engine.speedup_vs_serial",
            tr.p50_us("core.apply") / per_update_batched,
            "ratio",
        ),
        (
            "session.batch_self_us",
            tr.self_us("session.batch_apply", "engine.batch_apply"),
            "us",
        ),
    ])
}

/// Updates per second of closed-loop `apply` frames of `batch` updates each
/// over `updates`, with or without the reader hammering `top_k`.
fn wire_throughput(
    target: &mut ServeTarget,
    reader: &mut Wire,
    updates: &[Update],
    batch: usize,
    with_reader: bool,
) -> Result<f64, String> {
    let stop = AtomicBool::new(!with_reader);
    std::thread::scope(|s| {
        let stop = &stop;
        let queries = s.spawn(move || query_loop(reader, stop, &mut Tally::default()));
        let t0 = Instant::now();
        let result = updates
            .chunks(batch)
            .try_for_each(|chunk| target.step(chunk));
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        queries.join().expect("query reader");
        result.map(|()| updates.len() as f64 / wall)
    })
}

fn serve_layer(
    g: &Graph,
    stream: &[Update],
    p: usize,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let prefix = &stream[..p];
    // the codec on the exact lines sent
    let mut request_bytes = 0;
    for (i, &u) in prefix.iter().enumerate() {
        let line = tr.time("serve.codec_encode", i, || apply_line(&[u]));
        tr.time("serve.codec_decode", i, || parse_request(&line))
            .map_err(|e| e.message)?;
        request_bytes = line.len() + 1;
    }

    // the served engine with no wire: the writer task's apply, then its publish
    let mut served = ServedSession::new(SessionTarget::memory(g, 1)?.session);
    let mut rank = RankIndex::new();
    rank.apply(&served.take_score_delta().map_err(err)?);
    for (i, &u) in prefix.iter().enumerate() {
        tr.time("serve.engine_apply", i, || served.apply_batch(&[u]))
            .map_err(err)?;
        tr.time("serve.publish", i, || {
            served.take_score_delta().map(|delta| {
                rank.apply(&delta);
                std::hint::black_box((rank.clone(), served.info()));
            })
        })
        .map_err(err)?;
    }
    drop(served);

    // over the wire: transport floor, closed-loop round trips, the reader's
    // cost, the batch gain, and a paced phase beside the reader
    let (mut target, mut reader) = ServeTarget::spawn(g)?;
    let mut response_bytes = 0;
    for i in 0..p {
        tr.time("serve.noop_rtt", i, || {
            target.writer.roundtrip(r#"{"cmd":"ping"}"#)
        })?;
    }
    for (i, &u) in prefix.iter().enumerate() {
        let line = apply_line(&[u]);
        let resp = tr.time("serve.wire_apply", i, || target.writer.roundtrip(&line))?;
        response_bytes = resp.len();
    }
    let alone = p as f64 / (tr.durations_us("serve.wire_apply").iter().sum::<f64>() / 1e6);
    let beside = wire_throughput(&mut target, &mut reader, &stream[p..2 * p], 1, true)?;
    let batched = wire_throughput(&mut target, &mut reader, &stream[2 * p..3 * p], 16, false)?;

    let sched = lognormal_schedule(p, PACED_RATE, PACED_SIGMA, sub_seed(p as u64, 0x9aced));
    let stop = AtomicBool::new(false);
    let mut tally = Tally::default();
    let (paced_out, query_ms) = std::thread::scope(|s| {
        let stop = &stop;
        let reader = &mut reader;
        let queries = s.spawn(move || query_loop(reader, stop, &mut Tally::default()));
        let out = paced(
            &mut target.writer,
            &stream[3 * p..4 * p],
            &sched,
            &mut tally,
            Some(tr),
        );
        stop.store(true, Ordering::Relaxed);
        (out, queries.join().expect("query reader"))
    });
    drop(reader);
    Box::new(target).finish()?;
    if query_ms.is_empty() {
        return Err("the reader completed no query".into());
    }
    let reader_busy_s: f64 = query_ms.iter().sum::<f64>() / 1e3;
    Ok(vec![
        (
            "serve.codec_encode_us",
            tr.p50_us("serve.codec_encode"),
            "us",
        ),
        (
            "serve.codec_decode_us",
            tr.p50_us("serve.codec_decode"),
            "us",
        ),
        ("serve.request_bytes", request_bytes as f64, "bytes"),
        ("serve.response_bytes", response_bytes as f64, "bytes"),
        ("serve.noop_rtt_us", tr.p50_us("serve.noop_rtt"), "us"),
        (
            "serve.engine_apply_us",
            tr.p50_us("serve.engine_apply"),
            "us",
        ),
        ("serve.publish_us", tr.p50_us("serve.publish"), "us"),
        ("serve.wire_apply_us", tr.p50_us("serve.wire_apply"), "us"),
        (
            "serve.self_us",
            tr.self_us("serve.wire_apply", "serve.engine_apply"),
            "us",
        ),
        ("serve.reader_cost_ratio", alone / beside, "ratio"),
        ("serve.batch_gain", batched / alone, "ratio"),
        (
            "serve.queries_per_s",
            query_ms.len() as f64 / reader_busy_s,
            "1/s",
        ),
        ("serve.query_p50_ms", median(&query_ms), "ms"),
        ("serve.query_tail_ms", tail(&query_ms).1, "ms"),
        ("serve.paced_p50_ms", median(&paced_out.lat_ms), "ms"),
        (
            "serve.online_miss_share",
            paced_out.missed as f64 / (p - 1).max(1) as f64,
            "share",
        ),
        (
            "serve.gen_lag_tail_ms",
            quantile(&paced_out.gen_lag_ms, 0.99),
            "ms",
        ),
        ("serve.backlog_end", paced_out.backlog_end as f64, "count"),
        ("serve.failed", tally.failed as f64, "count"),
    ])
}

fn cluster_layer(g: &Graph, prefix: &[Update], tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    // the two frames one shard sees per update: the coordinator's request
    // and the leader's replication to its follower
    let mut frame_bytes = 0;
    for (i, &update) in prefix.iter().enumerate() {
        let index = i as u64 + 1;
        let request = NodeMsg::Request {
            seq: index,
            version: 1,
            req: Request::Apply {
                index,
                update,
                adopt: None,
            },
        };
        let replicate = NodeMsg::Replicate {
            index,
            op: ShardOp::Apply {
                update,
                adopt: None,
            },
        };
        let lines = tr.time("cluster.wire_encode", i, || {
            [wire::encode(&request), wire::encode(&replicate)]
        });
        tr.time("cluster.wire_decode", i, || {
            lines.iter().try_for_each(|l| wire::decode(l).map(drop))
        })
        .map_err(|e| format!("{e:?}"))?;
        frame_bytes = lines.iter().map(String::len).sum();
    }

    let stacks = [
        ("cluster.coord_apply", SimBuilder::new(2)),
        (
            "cluster.coord_apply_unreplicated",
            SimBuilder::new(2).unreplicated(),
        ),
        ("cluster.coord_apply_p1", SimBuilder::new(1)),
    ];
    for (name, builder) in stacks {
        let mut fleet = FleetTarget::launch(builder, g)?;
        for (i, &u) in prefix.iter().enumerate() {
            tr.time(name, i, || fleet.0.coord.apply(u)).map_err(err)?;
        }
        if name == "cluster.coord_apply" {
            for i in 0..REDUCE_REPS {
                tr.time("cluster.reduce_exact", i, || fleet.0.coord.reduce_exact())
                    .map_err(err)?;
            }
        }
        Box::new(fleet).finish()?;
    }
    let thick = "cluster.coord_apply";
    Ok(vec![
        (
            "cluster.wire_encode_us",
            tr.p50_us("cluster.wire_encode"),
            "us",
        ),
        (
            "cluster.wire_decode_us",
            tr.p50_us("cluster.wire_decode"),
            "us",
        ),
        ("cluster.frame_bytes", frame_bytes as f64, "bytes"),
        ("cluster.coord_apply_us", tr.p50_us(thick), "us"),
        ("cluster.self_us", tr.self_us(thick, "core.apply"), "us"),
        (
            "cluster.replication_cost_us",
            tr.self_us(thick, "cluster.coord_apply_unreplicated"),
            "us",
        ),
        (
            "cluster.fanout_cost_us",
            tr.self_us(thick, "cluster.coord_apply_p1"),
            "us",
        ),
        (
            "cluster.reduce_exact_us",
            tr.p50_us("cluster.reduce_exact"),
            "us",
        ),
        (
            "cluster.slowdown_vs_serial",
            tr.p50_us(thick) / tr.p50_us("core.apply"),
            "ratio",
        ),
    ])
}
