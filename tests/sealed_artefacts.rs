//! Decoder fuzz for the seal layer, one row per sealed artefact: a torn
//! (truncated) copy and a bit-flipped copy of each file must give the
//! outcome DESIGN.md §7 "Durable artefacts" documents for it. The intent
//! and export journals are written in place, so a damaged one reads as a
//! mutation that never began and is discarded; every other artefact is
//! refused with a typed `Corrupt` — never a panic, never a silent misread.

mod common;

use common::tmpdir;
use ebc_cluster::journal::CoordJournal;
use ebc_cluster::CoordSnapshot;
use std::path::{Path, PathBuf};
use streaming_bc::graph::Graph;
use streaming_bc::store::disk::{AddCrash, ExportCrash};
use streaming_bc::store::{
    BdError, BdStore, CodecKind, DiskBdStore, HandoffRecovery, RecoveryAction, ShardSet,
};
use streaming_bc::{Backend, CompactionConfig, Session, SessionError, Update};

/// What a reader made of an artefact.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Read as intact.
    Accepted,
    /// Discarded as a mutation that never began.
    Discarded,
    /// Refused as corrupt.
    Corrupt,
    /// Anything else (the message says what).
    Other(String),
}

struct Row {
    artefact: &'static str,
    /// Populate the directory; returns the artefact's path inside it.
    build: fn(&Path) -> PathBuf,
    /// Read the directory back through the artefact's reader.
    read: fn(&Path) -> Outcome,
    /// The documented outcome for a torn or bit-flipped copy.
    damaged: Outcome,
}

fn store<T>(r: Result<T, BdError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Accepted,
        Err(BdError::Corrupt(_)) => Outcome::Corrupt,
        Err(e) => Outcome::Other(e.to_string()),
    }
}

fn session<T>(r: Result<T, SessionError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Accepted,
        Err(SessionError::Corrupt(_)) => Outcome::Corrupt,
        Err(e) => Outcome::Other(e.to_string()),
    }
}

fn coord<T>(r: Result<T, String>) -> Outcome {
    match r {
        Ok(_) => Outcome::Accepted,
        Err(msg) if msg.contains("corrupt") => Outcome::Corrupt,
        Err(msg) => Outcome::Other(msg),
    }
}

fn record(n: usize) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
    ((0..n as u32).collect(), vec![1; n], vec![0.5; n])
}

fn graph() -> Graph {
    let mut g = Graph::with_vertices(6);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)] {
        g.add_edge(u, v).unwrap();
    }
    g
}

/// A single-store directory whose `add_source` of source 1 died right
/// after its intent record.
fn torn_add(dir: &Path) -> PathBuf {
    let path = dir.join("bd.ebc");
    let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
    let (d, sigma, delta) = record(4);
    st.add_source(0, d.clone(), sigma.clone(), delta.clone())
        .unwrap();
    st.add_source_crashing(1, d, sigma, delta, AddCrash::AfterIntent)
        .unwrap();
    dir.join("bd.ebc.wal")
}

fn disk_store(dir: &Path) -> PathBuf {
    let mut st = DiskBdStore::create(dir.join("bd.ebc"), 4, CodecKind::Wide).unwrap();
    let (d, sigma, delta) = record(4);
    st.add_source(0, d, sigma, delta).unwrap();
    st.flush().unwrap();
    dir.join("bd.ebc.idx")
}

fn open_store(dir: &Path) -> Outcome {
    match DiskBdStore::open(dir.join("bd.ebc")) {
        Ok(st) if st.last_recovery() == Some(RecoveryAction::DiscardedIntent) => Outcome::Discarded,
        r => store(r),
    }
}

/// A two-shard set whose handoff of source 0 died right after the donor's
/// export journal.
fn torn_handoff(dir: &Path) -> PathBuf {
    let mut set = ShardSet::create(dir, 4, 2, CodecKind::Wide).unwrap();
    let (d, sigma, delta) = record(4);
    set.shard_mut(0).add_source(0, d, sigma, delta).unwrap();
    set.flush().unwrap();
    set.shard_mut(0)
        .export_source_crashing(0, 1, ExportCrash::AfterJournal)
        .unwrap();
    dir.join("shard-0.ebc.exp0")
}

fn open_set(dir: &Path) -> Outcome {
    match ShardSet::open(dir) {
        Ok(set) if set.recovered() == [HandoffRecovery::DiscardedJournal { donor: 0 }] => {
            Outcome::Discarded
        }
        r => store(r),
    }
}

/// A disk session that sealed one history segment.
fn disk_session(dir: &Path) {
    let mut s = Session::builder()
        .backend(Backend::Disk(dir.to_path_buf()))
        .compaction(CompactionConfig {
            keep_history: true,
            max_live_wal_bytes: 0,
        })
        .build(&graph())
        .unwrap();
    s.apply(Update::add(1, 4)).unwrap();
}

fn coord_journal(dir: &Path) {
    let mut j = CoordJournal::create(dir).unwrap();
    let snap = CoordSnapshot {
        version: 3,
        applied: 0,
        failovers: 1,
        groups: vec![(1, Some(2), Some("127.0.0.1:9000".into()), None)],
        owned: vec![vec![0, 1, 2]],
        known: vec![(1, None), (2, None)],
        stale: vec![],
        next_index: vec![4],
        graph: graph().snapshot_bytes(),
    };
    j.write_snapshot(&snap, false).unwrap();
    j.reserve_seq(0).unwrap();
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            artefact: "intent (.wal)",
            build: torn_add,
            read: open_store,
            damaged: Outcome::Discarded,
        },
        Row {
            artefact: "export journal (.exp<s>)",
            build: torn_handoff,
            read: open_set,
            damaged: Outcome::Discarded,
        },
        Row {
            artefact: "sidecar (.idx)",
            build: disk_store,
            read: open_store,
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "shards.manifest",
            build: |dir| {
                ShardSet::create(dir, 4, 2, CodecKind::Wide).unwrap();
                dir.join("shards.manifest")
            },
            read: |dir| store(ShardSet::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "session.manifest",
            build: |dir| {
                disk_session(dir);
                dir.join("session.manifest")
            },
            read: |dir| session(Session::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "genesis.snap",
            build: |dir| {
                disk_session(dir);
                dir.join("genesis.snap")
            },
            read: |dir| session(Session::replay_dir(dir, None)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "history.meta",
            build: |dir| {
                disk_session(dir);
                dir.join("history.meta")
            },
            read: |dir| session(Session::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "history segment",
            build: |dir| {
                disk_session(dir);
                dir.join(format!("history-{:020}-{:020}.seg", 1, 1))
            },
            read: |dir| session(Session::replay_dir(dir, None)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "graph snapshot",
            build: |dir| {
                let path = dir.join("graph.snap");
                std::fs::write(&path, graph().snapshot_bytes()).unwrap();
                path
            },
            read: |dir| {
                let bytes = std::fs::read(dir.join("graph.snap")).unwrap();
                match Graph::from_snapshot_bytes(&bytes) {
                    Ok(_) => Outcome::Accepted,
                    Err(streaming_bc::graph::SnapshotError::Corrupt(_)) => Outcome::Corrupt,
                    Err(e) => Outcome::Other(e.to_string()),
                }
            },
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "coord.snap",
            build: |dir| {
                coord_journal(dir);
                dir.join("coord.snap")
            },
            read: |dir| coord(CoordJournal::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "coord.seq",
            build: |dir| {
                coord_journal(dir);
                dir.join("coord.seq")
            },
            read: |dir| coord(CoordJournal::open(dir)),
            damaged: Outcome::Corrupt,
        },
    ]
}

#[test]
fn every_sealed_artefact_refuses_torn_and_flipped_copies() {
    for (i, row) in rows().into_iter().enumerate() {
        for what in ["intact", "truncated", "bit-flipped"] {
            let dir = tmpdir(&format!("sealed_{i}_{what}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = (row.build)(&dir);
            let mut bytes = std::fs::read(&path).unwrap_or_else(|e| {
                panic!("{}: {} not written: {e}", row.artefact, path.display())
            });
            let mid = bytes.len() / 2;
            match what {
                "truncated" => bytes.truncate(mid),
                "bit-flipped" => bytes[mid] ^= 0x10,
                _ => {}
            }
            std::fs::write(&path, &bytes).unwrap();
            let want = if what == "intact" {
                &Outcome::Accepted
            } else {
                &row.damaged
            };
            assert_eq!(&(row.read)(&dir), want, "{} ({what})", row.artefact);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
