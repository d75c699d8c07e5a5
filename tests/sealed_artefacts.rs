//! Decoder fuzz for the seal layer, one row per sealed artefact: a torn
//! (truncated) copy and a bit-flipped copy of each file must give the
//! outcome DESIGN.md §7 "Durable artefacts" documents for it. The export
//! journal is written in place, so a damaged one reads as an export that
//! never began and is discarded; every other artefact is refused with a
//! typed `Corrupt` — never a panic, never a silent misread.
//!
//! The frame logs (`history.wal`, `coord.oplog`) checksum each frame, so a
//! damaged payload re-framed with a valid checksum reaches the reader's
//! decoder: every truncation of one entry must be `Corrupt`, and no bit
//! flip may panic.

mod common;

use common::tmpdir;
use ebc_cluster::journal::{CoordJournal, JournalEntry, JournalRecord};
use ebc_cluster::{CoordSnapshot, FleetState, NodeId, ShardSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use streaming_bc::graph::{Cursor, Graph};
use streaming_bc::store::disk::ExportCrash;
use streaming_bc::store::{BdStore, CodecKind, HandoffRecovery, HistoryLog, OpLog, ShardSet};
use streaming_bc::{Backend, CompactionConfig, Error, ErrorKind, Session, Update};

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

fn outcome<T>(r: Result<T, Error>) -> Outcome {
    match r {
        Ok(_) => Outcome::Accepted,
        Err(e) if e.kind() == ErrorKind::Corrupt => Outcome::Corrupt,
        Err(e) => Outcome::Other(e.to_string()),
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
        r => outcome(r),
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

fn coord_journal(dir: &Path) -> CoordJournal {
    let mut j = CoordJournal::create(dir).unwrap();
    let group = ShardSpec {
        leader_hint: Some("127.0.0.1:9000".into()),
        ..ShardSpec::new(NodeId(1), Some(NodeId(2)))
    };
    let snap = CoordSnapshot {
        map_version: 3,
        applied: 0,
        owned: vec![vec![0, 1, 2]],
        graph: graph().snapshot_bytes(),
        fleet: FleetState {
            failovers: 1,
            groups: vec![group],
            known: [(NodeId(1), None), (NodeId(2), None)].into(),
            stale: vec![],
            next_index: vec![4],
        },
    };
    j.write_snapshot(&snap, false).unwrap();
    j.reserve_seq(0).unwrap();
    j
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            artefact: "export journal (.exp<s>)",
            build: torn_handoff,
            read: open_set,
            damaged: Outcome::Discarded,
        },
        Row {
            artefact: "session.manifest",
            build: |dir| {
                disk_session(dir);
                dir.join("session.manifest")
            },
            read: |dir| outcome(Session::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "genesis.snap",
            build: |dir| {
                disk_session(dir);
                dir.join("genesis.snap")
            },
            read: |dir| outcome(Session::replay_dir(dir, None)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "history.meta",
            build: |dir| {
                disk_session(dir);
                dir.join("history.meta")
            },
            read: |dir| outcome(Session::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "history segment",
            build: |dir| {
                disk_session(dir);
                dir.join(format!("history-{:020}-{:020}.seg", 1, 1))
            },
            read: |dir| outcome(Session::replay_dir(dir, None)),
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
                outcome(Graph::from_snapshot_bytes(&bytes))
            },
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "coord.snap",
            build: |dir| {
                coord_journal(dir);
                dir.join("coord.snap")
            },
            read: |dir| outcome(CoordJournal::open(dir)),
            damaged: Outcome::Corrupt,
        },
        Row {
            artefact: "coord.seq",
            build: |dir| {
                coord_journal(dir);
                dir.join("coord.seq")
            },
            read: |dir| outcome(CoordJournal::open(dir)),
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

/// A frame log holding one entry, and the reader that decodes it.
struct FrameRow {
    artefact: &'static str,
    /// Populate the directory; returns the log's path inside it.
    build: fn(&Path) -> PathBuf,
    /// Open the directory through the log's reader and decode every entry.
    read: fn(&Path) -> Outcome,
}

fn frame_rows() -> Vec<FrameRow> {
    vec![
        FrameRow {
            artefact: "history.wal entry",
            build: |dir| {
                let mut log = HistoryLog::create(dir, true).unwrap();
                log.append(1, 0, &Update::add(1, 4).to_bytes()).unwrap();
                dir.join("history.wal")
            },
            read: |dir| {
                outcome(HistoryLog::open(dir).and_then(|log| {
                    // the payload decode `Session::replay_to` runs
                    for record in log.records_upto(log.last_seq())? {
                        let mut cur = Cursor::new(&record.payload);
                        Update::read_from(&mut cur)?;
                        cur.finish()?;
                    }
                    Ok(())
                }))
            },
        },
        FrameRow {
            artefact: "coord.oplog record",
            build: |dir| {
                let mut j = coord_journal(dir);
                let entry = JournalEntry {
                    update: Update::add(1, 4),
                    adopter: Some(0),
                };
                j.append(&JournalRecord {
                    entry,
                    indices: vec![4],
                })
                .unwrap();
                dir.join("coord.oplog")
            },
            read: |dir| outcome(CoordJournal::open(dir)),
        },
    ]
}

#[test]
fn frame_log_payloads_refuse_truncation_and_never_panic() {
    for (i, row) in frame_rows().into_iter().enumerate() {
        let dir = tmpdir(&format!("frame_{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = (row.build)(&dir);
        let entries: Vec<Vec<u8>> = OpLog::open(&path)
            .unwrap()
            .entries()
            .map(<[u8]>::to_vec)
            .collect();
        let [payload] = &entries[..] else {
            panic!("{}: want one entry, found {}", row.artefact, entries.len())
        };
        // write `variant` as the log's only entry, framed with a valid
        // checksum, and read the directory back
        let reframed = |variant: &[u8], what: &str| {
            std::fs::remove_file(&path).unwrap();
            let mut log = OpLog::open(&path).unwrap();
            log.append(variant).unwrap();
            log.sync().unwrap();
            drop(log);
            catch_unwind(AssertUnwindSafe(|| (row.read)(&dir)))
                .unwrap_or_else(|_| panic!("{} ({what}): the reader panicked", row.artefact))
        };
        assert_eq!(
            reframed(payload, "intact"),
            Outcome::Accepted,
            "{}",
            row.artefact
        );
        for len in 0..payload.len() {
            let what = format!("truncated to {len} bytes");
            assert_eq!(
                reframed(&payload[..len], &what),
                Outcome::Corrupt,
                "{} ({what})",
                row.artefact
            );
        }
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // any typed outcome will do: a flip may still decode
            reframed(&flipped, &format!("bit {bit} flipped"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A store is one data file and its redo log: a fresh disk session
/// directory holds those per shard, the session manifest and the history
/// files, and nothing else (no source-id sidecar, no intent record).
#[test]
fn a_fresh_disk_session_lists_one_data_file_and_redo_log_per_shard() {
    let dir = tmpdir("fresh_listing");
    let mut s = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(2)
        .build(&graph())
        .unwrap();
    s.apply(Update::add(1, 4)).unwrap();
    drop(s);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "genesis.snap",
            "history.meta",
            "history.wal",
            "session.manifest",
            "shard-0.ebc",
            "shard-0.ebc.redo",
            "shard-1.ebc",
            "shard-1.ebc.redo",
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}
