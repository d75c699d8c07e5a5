//! Concurrency matrix for the network frontend: N reader connections
//! hammering `scores`/`top_k` while M writer connections stream disjoint
//! update batches — over memory-, disk- and sharded-backed sessions.
//!
//! The load-bearing assertion: the server's `seq_first`/`seq_last` apply
//! acknowledgments expose the writer task's one global serial order, and
//! replaying exactly that order through a plain [`Session`] must reproduce
//! the served `reduce_exact` scores **bitwise** (floats cross the wire via
//! shortest-round-trip JSON, which is lossless — pinned by the codec
//! proptest).

mod common;

use common::{apply_line, bits_field, is_ok, tmpdir, to_bits, top_field, u64_field, Client};
use ebc_serve::json::Value;
use ebc_serve::{EngineInfo, Error, ServeEngine, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use streaming_bc::core::rankindex::RankIndex;
use streaming_bc::core::ranking;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::serve::ServedSession;
use streaming_bc::{Backend, RebalanceOutcome, Session, Update};

const WRITERS: usize = 3;
const READERS: usize = 3;
const PAIRS_PER_WRITER: usize = 6;
const BATCH: usize = 3;

fn base_graph() -> Graph {
    holme_kim(24, 2, 0.3, 11)
}

/// Disjoint per-writer pools of non-edges: every pair is touched by
/// exactly one writer, so each writer's program order is the only order
/// constraint an interleaving has to respect — any serialization the
/// server picks is valid.
fn writer_pools(g: &Graph) -> Vec<Vec<(u32, u32)>> {
    let n = g.n() as u32;
    let mut pools = vec![Vec::new(); WRITERS];
    let mut w = 0;
    'fill: for u in 0..n {
        for v in (u + 1)..n {
            if g.has_edge(u, v) {
                continue;
            }
            pools[w].push((u, v));
            w = (w + 1) % WRITERS;
            if pools.iter().all(|p| p.len() >= PAIRS_PER_WRITER) {
                break 'fill;
            }
        }
    }
    pools
}

/// One writer's program: add every pool pair, remove half, re-add a
/// quarter — additions and removals both in flight while readers query.
fn writer_ops(pool: &[(u32, u32)]) -> Vec<Update> {
    let mut ops: Vec<Update> = pool.iter().map(|&(u, v)| Update::add(u, v)).collect();
    ops.extend(
        pool.iter()
            .take(pool.len() / 2)
            .map(|&(u, v)| Update::remove(u, v)),
    );
    ops.extend(
        pool.iter()
            .take(pool.len() / 4)
            .map(|&(u, v)| Update::add(u, v)),
    );
    ops
}

/// A [`ServedSession`] on loan: the server owns the engine it is given and
/// drops it with the writer task, so the cell serves this handle and keeps
/// the other to look at the session once the drain is over.
struct Lent(Arc<Mutex<ServedSession>>);

impl Lent {
    fn served(&self) -> std::sync::MutexGuard<'_, ServedSession> {
        self.0.lock().expect("only the writer task holds this lock")
    }
}

impl ServeEngine for Lent {
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error> {
        self.served().apply_batch(updates)
    }
    fn scores_vbc(&mut self) -> Result<Vec<f64>, Error> {
        self.served().scores_vbc()
    }
    fn rank_snapshot(&mut self) -> Result<RankIndex, Error> {
        self.served().rank_snapshot()
    }
    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, Duration), Error> {
        self.served().reduce_exact()
    }
    fn checkpoint(&mut self) -> Result<(), Error> {
        self.served().checkpoint()
    }
    fn handoff(&mut self, source: u32, to: usize) -> Result<RebalanceOutcome, Error> {
        self.served().handoff(source, to)
    }
    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        self.served().rebalance(threshold)
    }
    fn info(&self) -> EngineInfo {
        self.served().info()
    }
}

/// The full matrix cell: spawn the server, run writers + readers, then
/// replay the observed serial order through a plain session and demand
/// bitwise equality; for durable backends, also reopen after the drain.
fn run_cell(backend: Backend, workers: usize, dir: Option<&std::path::Path>, ctx: &str) {
    let g = base_graph();
    let session = Session::builder()
        .backend(backend)
        .workers(workers)
        .build(&g)
        .unwrap();
    // a shallow queue so writer backpressure actually engages under test
    let cfg = ServerConfig {
        queue_depth: 2,
        ..ServerConfig::default()
    };
    let served = Arc::new(Mutex::new(ServedSession::new(session)));
    let handle = Server::spawn(Lent(Arc::clone(&served)), cfg).unwrap();
    let addr = handle.tcp_addr().unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let n = g.n();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut last_seq = 0u64;
                let mut rounds = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let scores = client.request_ok(&format!(r#"{{"id":{r},"cmd":"scores"}}"#));
                    let seq = u64_field(&scores, "seq");
                    assert!(seq >= last_seq, "snapshot seq went backwards");
                    last_seq = seq;
                    assert_eq!(
                        bits_field(&scores, "vbc").len(),
                        n,
                        "scores answered with a wrong-sized vector"
                    );
                    let top = client.request_ok(&format!(r#"{{"id":{r},"cmd":"top_k","k":5}}"#));
                    assert!(u64_field(&top, "seq") >= seq);
                    rounds += 1;
                }
                assert!(rounds > 0, "reader never completed a round");
            })
        })
        .collect();

    let writers: Vec<_> = writer_pools(&g)
        .into_iter()
        .map(|pool| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut log: Vec<(u64, Vec<Update>)> = Vec::new();
                for (i, batch) in writer_ops(&pool).chunks(BATCH).enumerate() {
                    let resp = client.request_ok(&apply_line(i as u64, Some("exact"), batch));
                    let first = u64_field(&resp, "seq_first");
                    let last = u64_field(&resp, "seq_last");
                    assert_eq!(
                        last - first + 1,
                        batch.len() as u64,
                        "ack seq range does not cover the batch"
                    );
                    assert_eq!(u64_field(&resp, "applied") as usize, batch.len());
                    // read-your-writes: the next snapshot on this
                    // connection must already include the acked batch
                    let seen = client.request_ok(r#"{"cmd":"scores"}"#);
                    assert!(
                        u64_field(&seen, "seq") >= last,
                        "acked batch missing from the next snapshot"
                    );
                    log.push((first, batch.to_vec()));
                }
                log
            })
        })
        .collect();

    let mut batches: Vec<(u64, Vec<Update>)> = Vec::new();
    for w in writers {
        batches.extend(w.join().expect("writer thread"));
    }
    done.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().expect("reader thread");
    }

    // the acks must tile the sequence space exactly: one global order,
    // every update in it, nothing applied twice
    batches.sort_by_key(|&(first, _)| first);
    let mut next = 1u64;
    let mut serialized: Vec<Update> = Vec::new();
    for (first, batch) in batches {
        assert_eq!(first, next, "{ctx}: gap or overlap in the global order");
        next += batch.len() as u64;
        serialized.extend(batch);
    }

    let mut client = Client::connect(addr);
    let stats = client.request_ok(r#"{"cmd":"stats"}"#);
    assert_eq!(u64_field(&stats, "seq"), next - 1, "{ctx}: updates lost");
    let reduced = client.request_ok(r#"{"id":"final","cmd":"reduce_exact"}"#);
    let wire_vbc = bits_field(&reduced, "vbc");
    let wire_ebc = bits_field(&reduced, "ebc");

    // the serial oracle: same updates, same order, no server in sight
    let mut oracle = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    oracle.apply_stream(&serialized).unwrap();
    let oracle_scores = oracle.reduce_exact().unwrap().scores;
    assert_eq!(
        wire_vbc,
        to_bits(&oracle_scores.vbc),
        "{ctx}: served VBC not bitwise equal to the serial replay"
    );
    assert_eq!(
        wire_ebc,
        to_bits(&oracle_scores.ebc),
        "{ctx}: served EBC not bitwise equal to the serial replay"
    );

    let wire_top = top_field(&client.request_ok(r#"{"cmd":"top_k","k":5}"#));

    drop(client);
    handle.shutdown();
    handle.join();

    // one index, two views: what the wire last read is the session's own
    // index, so the session handed back answers the same, bit for bit
    let mut session = Arc::try_unwrap(served)
        .ok()
        .expect("the joined server dropped its engine")
        .into_inner()
        .expect("writer task did not panic")
        .into_inner();
    let wire_ids: Vec<u32> = wire_top.iter().map(|&(v, _)| v).collect();
    assert_eq!(
        session.top_k(5).unwrap(),
        wire_ids,
        "{ctx}: the session's own top_k is not the served one"
    );
    let own_top: Vec<(u32, u64)> = session
        .rank_index()
        .unwrap()
        .top_entries(5)
        .iter()
        .map(|&(v, x)| (v, x.to_bits()))
        .collect();
    assert_eq!(own_top, wire_top, "{ctx}: index entries diverged");
    drop(session); // release the stores before the reopen below

    if let Some(dir) = dir {
        // the drain checkpointed: the directory reopens bootstrap-free to
        // exactly the served state
        let mut reopened = Session::open(dir).unwrap();
        assert_eq!(
            reopened.brandes_runs(),
            Some(0),
            "{ctx}: reopen re-bootstrapped"
        );
        let recovered = reopened.reduce_exact().unwrap().scores;
        assert_eq!(
            to_bits(&recovered.vbc),
            wire_vbc,
            "{ctx}: reopened scores diverged from what was served"
        );
    }
}

#[test]
fn memory_backend_serves_consistently_under_contention() {
    run_cell(Backend::Memory, 1, None, "memory");
}

#[test]
fn disk_backend_serves_consistently_under_contention() {
    let dir = tmpdir("concurrent_disk");
    run_cell(Backend::Disk(dir.clone()), 1, Some(&dir), "disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_backend_serves_consistently_under_contention() {
    let dir = tmpdir("concurrent_sharded");
    run_cell(Backend::Disk(dir.clone()), 3, Some(&dir), "sharded p=3");
    std::fs::remove_dir_all(&dir).ok();
}

/// The subscriber's pushed `entered`/`left` deltas are exactly what a
/// local [`RankTracker`] computes over the same update stream: one
/// connection subscribes and applies batches, a mirror session feeds a
/// tracker after every batch, and every event (diffed off the snapshot's
/// rank index on the server side) must agree element for element.
#[test]
fn subscriber_deltas_match_a_local_rank_tracker() {
    const K: usize = 4;
    let ids = |line: &Value, key: &str| -> Vec<u32> {
        line.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("event missing {key}: {}", line.to_json()))
            .iter()
            .map(|v| v.as_u64().unwrap() as u32)
            .collect()
    };
    let top_ids = |line: &Value| -> Vec<u32> {
        line.get("top")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.as_arr().unwrap()[0].as_u64().unwrap() as u32)
            .collect()
    };

    let g = base_graph();
    let session = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    let handle = Server::spawn(ServedSession::new(session), ServerConfig::default()).unwrap();
    let addr = handle.tcp_addr().unwrap();

    // the mirror: same graph, same stream, no server in sight
    let mut mirror = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    let mut tracker = ranking::RankTracker::new(K);

    let mut client = Client::connect(addr);
    let ack = client.request(&format!(
        r#"{{"id":"s","cmd":"subscribe","what":"top_k","k":{K}}}"#
    ));
    assert!(is_ok(&ack), "subscribe failed: {}", ack.to_json());

    // the seed event is the first observation on both sides
    let seed = client.recv();
    assert_eq!(seed.get("event").and_then(Value::as_str), Some("top_k"));
    let (entered, left) = tracker.observe(&mirror.scores().unwrap().scores.vbc);
    assert_eq!(ids(&seed, "entered"), entered, "seed entered diverged");
    assert_eq!(ids(&seed, "left"), left, "seed left diverged");
    assert_eq!(top_ids(&seed), tracker.current(), "seed top diverged");

    // one batch at a time on the subscribing connection itself: the
    // writer task queues the batch's event (if any) before the ack, so
    // every line up to the ack belongs to this batch
    for (i, batch) in writer_ops(&writer_pools(&g)[0]).chunks(BATCH).enumerate() {
        client.send(&apply_line(i as u64, Some("exact"), batch));
        let mut events = Vec::new();
        let ack = loop {
            let line = client.recv();
            if line.get("event").is_some() {
                events.push(line);
            } else {
                break line;
            }
        };
        assert!(is_ok(&ack), "apply failed: {}", ack.to_json());
        assert!(events.len() <= 1, "more than one event for one batch");

        mirror.apply_stream(batch).unwrap();
        let (entered, left) = tracker.observe(&mirror.scores().unwrap().scores.vbc);
        match events.pop() {
            Some(event) => {
                assert_eq!(
                    u64_field(&event, "seq"),
                    u64_field(&ack, "seq_last"),
                    "event not stamped with its batch"
                );
                assert_eq!(
                    ids(&event, "entered"),
                    entered,
                    "batch {i}: entered diverged"
                );
                assert_eq!(ids(&event, "left"), left, "batch {i}: left diverged");
                assert_eq!(
                    top_ids(&event),
                    tracker.current(),
                    "batch {i}: top diverged"
                );
            }
            // no event means the watched ranking (ids *and* score bits)
            // did not move; the tracker must agree there was no turnover
            None => {
                assert!(
                    entered.is_empty() && left.is_empty(),
                    "batch {i}: tracker saw turnover but no event arrived"
                );
            }
        }
    }

    handle.shutdown();
    handle.join();
}

/// Subscriptions under a concurrent writer: the ack arrives before the
/// seeded event, every event's seq is nondecreasing, and after the
/// writer's acked batch the subscriber hears about the ranking change.
#[test]
fn subscriber_sees_ordered_deltas_while_a_writer_streams() {
    let g = base_graph();
    let session = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    let handle = Server::spawn(ServedSession::new(session), ServerConfig::default()).unwrap();
    let addr = handle.tcp_addr().unwrap();

    let mut sub = Client::connect(addr);
    let ack = sub.request(r#"{"id":"s","cmd":"subscribe","what":"top_k","k":4}"#);
    assert!(is_ok(&ack), "subscribe failed: {}", ack.to_json());
    assert_eq!(ack.get("k").and_then(Value::as_u64), Some(4));
    // the seeded first event follows the ack, never precedes it
    let seed = sub.recv();
    assert_eq!(seed.get("event").and_then(Value::as_str), Some("top_k"));
    assert_eq!(u64_field(&seed, "seq"), 0);

    let mut writer = Client::connect(addr);
    for (i, batch) in writer_ops(&writer_pools(&g)[0]).chunks(BATCH).enumerate() {
        writer.request_ok(&apply_line(i as u64, Some("exact"), batch));
    }

    // every event for the acked batches is already in the subscriber's
    // outbound queue (the writer task pushed them while processing the
    // jobs), so a ping probe sent now is a barrier: drain events until its
    // response shows up, checking seq never goes backwards
    sub.send(r#"{"id":"probe","cmd":"ping"}"#);
    let mut last_seq = 0;
    let mut last_top = seed.get("top").cloned().unwrap();
    loop {
        let line = sub.recv();
        if line.get("id").and_then(Value::as_str) == Some("probe") {
            assert!(is_ok(&line));
            break;
        }
        assert_eq!(line.get("event").and_then(Value::as_str), Some("top_k"));
        let seq = u64_field(&line, "seq");
        assert!(seq >= last_seq, "event seq went backwards");
        for key in ["top", "entered", "left"] {
            assert!(line.get(key).is_some(), "event missing {key}");
        }
        last_seq = seq;
        last_top = line.get("top").cloned().unwrap();
    }

    // the subscriber's accumulated view is exactly the current ranking:
    // the last delta it heard matches a fresh top_k of the final state
    let fresh = sub.request_ok(r#"{"id":"q","cmd":"top_k","k":4}"#);
    assert_eq!(
        last_top.to_json(),
        fresh.get("top").unwrap().to_json(),
        "subscriber's last event does not match the final ranking"
    );

    handle.shutdown();
    handle.join();
}
