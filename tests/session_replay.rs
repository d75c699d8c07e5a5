//! Replay & retention suite (DESIGN.md §14): checkpoint-and-truncate
//! compaction must bound the live history WAL, sealed segments must keep
//! `Session::replay_to(seq)` **bitwise equal** to what the live session
//! reported at that seq, every seal/truncate crash window must converge at
//! `Session::open`, and a deleted segment must be a typed
//! `HistoryGap` error naming the missing range — across disk sessions
//! at p ∈ {1, 3, 8}.

mod common;

use common::{tmpdir, to_bits};
use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use streaming_bc::core::{BetweennessState, Scores, Update};
use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::graph::Graph;
use streaming_bc::store::history::{HistoryLog, SealKill};
use streaming_bc::{Backend, CompactionConfig, ErrorKind, Session};

fn sbits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (to_bits(&s.vbc), to_bits(&s.ebc))
}

/// The matrix every cell-based test sweeps: disk records on one machine
/// and sharded over p ∈ {3, 8}.
fn cells(dir_stem: &str) -> Vec<(String, Backend, usize)> {
    let mut out = vec![(
        "disk".to_string(),
        Backend::Disk(tmpdir(&format!("{dir_stem}_disk"))),
        1usize,
    )];
    for p in [3usize, 8] {
        out.push((
            format!("sharded p={p}"),
            Backend::Disk(tmpdir(&format!("{dir_stem}_sharded{p}"))),
            p,
        ));
    }
    out
}

fn backend_dir(b: &Backend) -> std::path::PathBuf {
    match b {
        Backend::Disk(d) => d.clone(),
        Backend::Memory => unreachable!("durable cells only"),
    }
}

/// A graph plus a long mixed stream: additions, growth (vertex adoption),
/// and removals — enough appended bytes to force several compactions under
/// a small `max_live_wal_bytes`.
fn scenario() -> (Graph, Vec<Update>) {
    let g = holme_kim(24, 3, 0.4, 7);
    let mut stream: Vec<Update> = addition_stream(&g, 14, 1)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    stream.push(Update::add(3, 24)); // vertex 24 arrives
    stream.push(Update::add(24, 25)); // and 25
    stream.extend(
        removal_stream(&g, 8, 2)
            .into_iter()
            .map(|(u, v)| Update::remove(u, v)),
    );
    stream.push(Update::add(5, 26));
    (g, stream)
}

fn oracle(g: &Graph, stream: &[Update]) -> Scores {
    let mut st = BetweennessState::new(g);
    for &u in stream {
        st.apply(u).unwrap();
    }
    st.exact_scores().unwrap()
}

/// Satellite (a) + tentpole acceptance: after a long stream under a tight
/// `max_live_wal_bytes`, the live WAL is bounded by the threshold, the
/// checkpointed prefix lives on in sealed segments, and the byte
/// accounting (`history_stats`) reflects it — every backend.
#[test]
fn compaction_bounds_live_wal() {
    let (g, stream) = scenario();
    const MAX: u64 = 256;
    for (ctx, backend, p) in cells("replay_bound") {
        let dir = backend_dir(&backend);
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: MAX,
            })
            .build(&g)
            .unwrap();
        for &u in &stream {
            session.apply(u).unwrap();
        }
        let stats = session
            .history_stats()
            .unwrap_or_else(|| panic!("{ctx}: durable session reports no history stats"));
        assert!(
            stats.live_wal_bytes <= MAX,
            "{ctx}: live WAL {} bytes exceeds the {MAX}-byte compaction bound",
            stats.live_wal_bytes
        );
        assert!(stats.segments >= 2, "{ctx}: expected several compactions");
        assert!(stats.sealed_bytes > 0, "{ctx}: sealed history is empty");
        assert!(stats.last_compaction_seq > 0, "{ctx}");
        assert_eq!(stats.last_seq, session.seq(), "{ctx}");
        assert_eq!(stats.last_seq, stream.len() as u64, "{ctx}");
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The tentpole read path: `replay_to(seq)` is bitwise equal to what the
/// live session's `reduce_exact` reported at that seq — at **every** seq of
/// the history, across compactions, on every backend. `replay_dir` (the
/// `sbc replay` entry point) agrees without opening the stores.
#[test]
fn replay_is_bitwise_with_live_at_every_seq() {
    let (g, stream) = scenario();
    for (ctx, backend, p) in cells("replay_bitwise") {
        let dir = backend_dir(&backend);
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: 128,
            })
            .build(&g)
            .unwrap();
        let mut live = Vec::new(); // live bits at seq 1..=len
        for &u in &stream {
            session.apply(u).unwrap();
            live.push(sbits(&session.reduce_exact().unwrap().scores));
        }
        for (i, want) in live.iter().enumerate() {
            let seq = (i + 1) as u64;
            let replayed = session
                .replay_to(seq)
                .unwrap_or_else(|e| panic!("{ctx}: replay_to({seq}) failed: {e}"));
            assert_eq!(
                want,
                &sbits(&replayed.scores),
                "{ctx}: replay_to({seq}) diverged from the live session"
            );
        }
        drop(session);
        let full = Session::replay_dir(&dir, None).unwrap();
        assert_eq!(full.seq, stream.len() as u64, "{ctx}");
        assert_eq!(
            live.last().unwrap(),
            &sbits(&full.reduced.scores),
            "{ctx}: replay_dir(all) diverged"
        );
        let mid = (stream.len() / 2) as u64;
        let half = Session::replay_dir(&dir, Some(mid)).unwrap();
        assert_eq!(
            &live[mid as usize - 1],
            &sbits(&half.reduced.scores),
            "{ctx}: replay_dir(at={mid}) diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Compaction must be invisible to a restart: a session compacted at every
/// checkpoint reopens bitwise identical to one that never compacted, and
/// both keep absorbing updates after the reopen.
#[test]
fn reopen_after_compaction_is_bitwise_with_uncompacted() {
    let (g, stream) = scenario();
    let (head, tail) = stream.split_at(stream.len() - 3);
    let full_oracle = oracle(&g, &stream);
    let configs = [("compact-always", 0u64), ("compact-never", u64::MAX)];
    let mut reopened: Vec<(String, Session, std::path::PathBuf)> = Vec::new();
    for (label, max) in configs {
        let dir = tmpdir(&format!("replay_reopen_{label}"));
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: max,
            })
            .build(&g)
            .unwrap();
        session.apply_stream(head).unwrap();
        drop(session); // kill between batches; EveryApply made it durable
        let session = Session::open(&dir).unwrap();
        reopened.push((label.to_string(), session, dir));
    }
    let mut bits = Vec::new();
    for (label, session, _) in &mut reopened {
        session.apply_stream(tail).unwrap();
        let got = sbits(&session.reduce_exact().unwrap().scores);
        assert_eq!(
            got,
            sbits(&full_oracle),
            "{label}: reopened run diverged from the serial oracle"
        );
        bits.push(got);
    }
    assert_eq!(bits[0], bits[1], "compaction changed the reopened scores");
    for (_, session, dir) in reopened {
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite (f): a deleted history segment is a typed refusal — both
/// `Session::open` and `Session::replay_dir` name the missing seq range
/// instead of silently replaying a different graph.
#[test]
fn deleted_segment_is_a_typed_gap() {
    let (g, stream) = scenario();
    let dir = tmpdir("replay_gap");
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .compaction(CompactionConfig {
            keep_history: true,
            // compact at every checkpoint: one single-seq segment per apply
            max_live_wal_bytes: 0,
        })
        .build(&g)
        .unwrap();
    for &u in &stream {
        session.apply(u).unwrap();
    }
    drop(session);

    // delete a mid-history segment and parse its range from the file name
    let mut segs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("history-") && n.ends_with(".seg"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 4, "expected one segment per apply");
    let victim = segs[segs.len() / 2].clone();
    let range: Vec<u64> = victim
        .trim_start_matches("history-")
        .trim_end_matches(".seg")
        .split('-')
        .map(|s| s.parse().unwrap())
        .collect();
    std::fs::remove_file(dir.join(&victim)).unwrap();

    for (what, err) in [
        ("open", Session::open(&dir).map(|_| ()).unwrap_err()),
        (
            "replay_dir",
            Session::replay_dir(&dir, None).map(|_| ()).unwrap_err(),
        ),
    ] {
        match err.kind() {
            ErrorKind::HistoryGap { first, last } => {
                assert_eq!(
                    (first, last),
                    (range[0], range[1]),
                    "{what}: gap does not name the deleted segment {victim}"
                );
            }
            _ => panic!("{what}: expected HistoryGap, got: {err}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `keep_history = false`: bounded disk with **no** sealed segments, and
/// any attempt to time-travel below the truncation point is the typed gap
/// (`missing_first = 1` — the whole discarded prefix is named).
#[test]
fn keep_history_false_bounds_disk_and_refuses_time_travel() {
    let (g, stream) = scenario();
    let dir = tmpdir("replay_nokeep");
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(3)
        .compaction(CompactionConfig {
            keep_history: false,
            max_live_wal_bytes: 0,
        })
        .build(&g)
        .unwrap();
    for &u in &stream {
        session.apply(u).unwrap();
    }
    let stats = session.history_stats().unwrap();
    assert_eq!(stats.segments, 0, "keep_history=false sealed a segment");
    assert_eq!(stats.sealed_bytes, 0);
    assert!(stats.live_wal_bytes <= 64, "discarded prefix not truncated");
    assert!(stats.last_compaction_seq > 0);

    let err = session.replay_to(session.seq()).unwrap_err();
    match err.kind() {
        ErrorKind::HistoryGap { first, last } => {
            assert_eq!(first, 1);
            assert_eq!(last, stats.last_compaction_seq);
        }
        _ => panic!("expected HistoryGap, got: {err}"),
    }
    // the stream itself still works and restarts fine
    drop(session);
    let mut session = Session::open(&dir).unwrap();
    session.apply(Update::add(0, 27)).unwrap();
    let mut full = stream.clone();
    full.push(Update::add(0, 27));
    assert_eq!(
        sbits(&session.reduce_exact().unwrap().scores),
        sbits(&oracle(&g, &full)),
        "keep_history=false restart diverged"
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (c), the crash matrix at the session level: inject a kill in
/// every seal/truncate window of a compaction, then `Session::open` must
/// converge the directory — the reopened session reduces bitwise with the
/// oracle, keeps absorbing updates, and the whole history stays replayable
/// with no seq lost or doubled. Disk + sharded p ∈ {1, 3, 8}.
#[test]
fn every_truncation_crash_window_converges_on_open() {
    let (g, stream) = scenario();
    let windows = [
        SealKill::BeforeSeal,
        SealKill::AfterSeal,
        SealKill::AfterMeta,
        SealKill::MidTruncate,
    ];
    for kill in windows {
        for (ctx, backend, p) in cells(&format!("replay_kill_{kill:?}")) {
            let ctx = format!("{ctx} kill={kill:?}");
            let dir = backend_dir(&backend);
            let mut session = Session::builder()
                .backend(backend)
                .workers(p)
                .compaction(CompactionConfig {
                    keep_history: true,
                    // never auto-compact: the injected seal below is the
                    // only compaction this directory sees
                    max_live_wal_bytes: u64::MAX,
                })
                .build(&g)
                .unwrap();
            for &u in &stream {
                session.apply(u).unwrap();
            }
            let live = sbits(&session.reduce_exact().unwrap().scores);
            drop(session);

            // die inside the compaction: the in-memory log is stale after
            // the kill fires and must be dropped, like the process it
            // stands in for
            let mid = stream.len() as u64 / 2;
            let mut log = HistoryLog::open(&dir).unwrap();
            let _ = log.seal_upto_with_kill(mid, Some(kill)).unwrap();
            drop(log);

            let mut session = Session::open(&dir)
                .unwrap_or_else(|e| panic!("{ctx}: reopen after kill failed: {e}"));
            assert_eq!(
                live,
                sbits(&session.reduce_exact().unwrap().scores),
                "{ctx}: scores diverged across the crashed compaction"
            );
            let replay = session
                .replay_to(stream.len() as u64)
                .unwrap_or_else(|e| panic!("{ctx}: full replay failed: {e}"));
            assert_eq!(live, sbits(&replay.scores), "{ctx}: replay diverged");
            // and the history keeps extending past the recovered seal
            session.apply(Update::add(1, 27)).unwrap();
            assert_eq!(session.seq(), stream.len() as u64 + 1, "{ctx}");
            drop(session);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The `sbc replay` CLI surface: the printed `v`/`e` lines parse back to
/// the exact bits the live session reported (f64 `Display` is
/// shortest-round-trip), for both `--at all` and a mid-history seq.
#[test]
fn sbc_replay_cli_reproduces_live_scores() {
    let (g, stream) = scenario();
    let dir = tmpdir("replay_cli");
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .compaction(CompactionConfig {
            keep_history: true,
            max_live_wal_bytes: 128,
        })
        .build(&g)
        .unwrap();
    let mid = (stream.len() / 2) as u64;
    let mut at_mid = None;
    for (i, &u) in stream.iter().enumerate() {
        session.apply(u).unwrap();
        if (i + 1) as u64 == mid {
            at_mid = Some(to_bits(&session.reduce_exact().unwrap().scores.vbc));
        }
    }
    let live = session.reduce_exact().unwrap().scores;
    let live_graph = session.graph().clone();
    let live_edges: Vec<(u32, u32, u64)> = live
        .ebc_entries(&live_graph)
        .into_iter()
        .map(|(key, x)| {
            let (u, v) = key.endpoints();
            (u, v, x.to_bits())
        })
        .collect();
    drop(session);

    let run = |at: &str| -> Vec<String> {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sbc"))
            .args(["replay", "--dir", dir.to_str().unwrap(), "--at", at])
            .output()
            .expect("spawn sbc replay");
        assert!(
            out.status.success(),
            "sbc replay --at {at} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(|l| l.to_string())
            .collect()
    };

    let lines = run("all");
    assert!(lines[0].contains(&format!("seq={}", stream.len())));
    let mut vbc = Vec::new();
    let mut edges = Vec::new();
    for line in &lines[1..] {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[0] {
            "v" => vbc.push(f[2].parse::<f64>().unwrap().to_bits()),
            "e" => edges.push((
                f[1].parse::<u32>().unwrap(),
                f[2].parse::<u32>().unwrap(),
                f[3].parse::<f64>().unwrap().to_bits(),
            )),
            other => panic!("unexpected line tag {other:?}"),
        }
    }
    assert_eq!(vbc, to_bits(&live.vbc), "CLI vertex scores diverged");
    assert_eq!(edges, live_edges, "CLI edge scores diverged");

    let lines = run(&mid.to_string());
    let vbc_mid: Vec<u64> = lines[1..]
        .iter()
        .filter(|l| l.starts_with("v "))
        .map(|l| {
            l.split_whitespace()
                .nth(2)
                .unwrap()
                .parse::<f64>()
                .unwrap()
                .to_bits()
        })
        .collect();
    assert_eq!(
        vbc_mid,
        at_mid.unwrap(),
        "CLI mid-history replay diverged from the live session at that seq"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of a random evolution history (toggle or grow — the same op
/// family the session oracle sweeps).
#[derive(Debug, Clone, Copy)]
enum HistOp {
    Toggle { u_pick: usize, v_pick: usize },
    Grow { u_pick: usize },
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        5 => (0usize..1024, 0usize..1024).prop_map(|(u, v)| HistOp::Toggle {
            u_pick: u,
            v_pick: v,
        }),
        1 => (0usize..1024).prop_map(|u| HistOp::Grow { u_pick: u }),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Satellite (c), the property form: over random histories on a
    /// compacting sharded session, `replay_to(seq)` is bitwise equal to
    /// the live oracle at **every** checkpoint of the history.
    #[test]
    fn replay_matches_live_oracle_on_random_histories(
        seed in 0u64..1_000,
        ops in collection::vec(hist_op(), 1..14),
    ) {
        let g = holme_kim(12, 2, 0.3, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = tmpdir(&format!("replay_prop_{case}"));
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: 64,
            })
            .build(&g)
            .unwrap();
        let mut oracle = BetweennessState::new(&g);
        let mut live = Vec::new();
        for op in &ops {
            let n = oracle.graph().n();
            let update = match *op {
                HistOp::Toggle { u_pick, v_pick } => {
                    let u = (u_pick % n) as u32;
                    let v = (v_pick % n) as u32;
                    if u == v {
                        continue;
                    }
                    if oracle.graph().has_edge(u, v) {
                        Update::remove(u, v)
                    } else {
                        Update::add(u, v)
                    }
                }
                HistOp::Grow { u_pick } => Update::add((u_pick % n) as u32, n as u32),
            };
            oracle.apply(update).unwrap();
            session.apply(update).unwrap();
            live.push(sbits(oracle.exact_scores().as_ref().unwrap()));
        }
        for (i, want) in live.iter().enumerate() {
            let seq = (i + 1) as u64;
            let replayed = session.replay_to(seq).unwrap();
            prop_assert_eq!(
                want,
                &sbits(&replayed.scores),
                "seed={} seq={}: replay diverged from the live oracle",
                seed, seq
            );
        }
        drop(session);
        std::fs::remove_dir_all(&dir).ok();
    }
}
