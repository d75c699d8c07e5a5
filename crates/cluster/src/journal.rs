//! Durable coordinator control state: the checksummed snapshot +
//! write-ahead journal that lets `sbc coord` restart and resume command
//! of a running node fleet.
//!
//! Three files live in the coordinator's `--dir`: two sealed records and an
//! op log (DESIGN.md §7 "Durable artefacts" has how each is sealed):
//!
//! * **`coord.snap`** — the control-plane snapshot: map version, the full
//!   source→shard assignment, the replication groups with their dial
//!   hints, the node registry (every node ever known, stragglers
//!   included), the per-shard `next_index` cursors, and the structural
//!   graph replica. Rewritten on the rare map-changing events (bootstrap,
//!   failover, handoff, resume) — never per update.
//! * **`coord.oplog`** — a write-ahead [`OpLog`] of applied updates. Each
//!   entry records the update, the per-shard WAL indices it was (or is
//!   about to be) dispatched at, and the adopting shard if the update
//!   grew the graph. Appended *before* the fan-out, so a resumed
//!   coordinator can re-drive the last entry at the recorded indices and
//!   let the nodes' index dedup make the retry exactly-once.
//! * **`coord.seq`** — the RPC sequence reservation. Nodes drop requests
//!   with a seq below the last one they served from a sender, so a
//!   resumed coordinator must continue the killed incarnation's sequence:
//!   the file persists a ceiling the live coordinator never crosses
//!   without first extending it (rewritten once per
//!   [`SEQ_RESERVE`] RPCs, not per RPC).

use ebc_core::state::Update;
use ebc_core::Error;
use ebc_graph::Cursor;
use ebc_store::{read_sealed, write_sealed, Durability, OpLog};
use std::path::{Path, PathBuf};

/// Snapshot file name inside the coordinator's directory.
const COORD_SNAP: &str = "coord.snap";
/// Write-ahead update journal file name.
const COORD_OPLOG: &str = "coord.oplog";
/// Sequence reservation file name.
const COORD_SEQ: &str = "coord.seq";

/// Magic for `coord.snap`.
const SNAP_MAGIC: &[u8; 8] = b"EBCCORD1";
/// Magic for `coord.seq`.
const SEQ_MAGIC: &[u8; 8] = b"EBCCSEQ1";

/// How many RPC seqs one `coord.seq` rewrite buys.
pub const SEQ_RESERVE: u64 = 1 << 16;

/// One shard's replication group row in a [`CoordSnapshot`]: `(leader,
/// follower, leader_hint, follower_hint)`.
pub type GroupRow = (u32, Option<u32>, Option<String>, Option<String>);

/// The control-plane state `coord.snap` captures — everything the
/// coordinator needs besides the update journal suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordSnapshot {
    /// Map version (the fencing token) at snapshot time.
    pub version: u64,
    /// Journal entries whose *fold* (replica + map mutation) this
    /// snapshot already contains. Resume re-folds entries at positions
    /// `>= applied`.
    pub applied: u64,
    /// Failovers performed so far.
    pub failovers: u64,
    /// Per-shard replication group rows.
    pub groups: Vec<GroupRow>,
    /// Per-shard owned sources (the map's assignment, bookkeeping order).
    pub owned: Vec<Vec<u32>>,
    /// Every node ever registered, with its dial hint.
    pub known: Vec<(u32, Option<String>)>,
    /// Deposed leaders still awaiting a fence.
    pub stale: Vec<u32>,
    /// Per-shard next WAL index cursors at snapshot time.
    pub next_index: Vec<u64>,
    /// Structural graph replica snapshot bytes.
    pub graph: Vec<u8>,
}

/// One write-ahead journal entry: an update plus everything needed to
/// re-drive it exactly-once after a coordinator crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// The edge update.
    pub update: Update,
    /// The adopting shard, when the update grew the graph.
    pub adopter: Option<u32>,
}

/// Per-shard dispatch indices ride alongside the entry (variable length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The fixed-size part.
    pub entry: JournalEntry,
    /// WAL index the update was dispatched at, per shard.
    pub indices: Vec<u64>,
}

/// The coordinator's durable control state: snapshot + journal + seq
/// reservation, rooted at one directory.
pub struct CoordJournal {
    dir: PathBuf,
    oplog: OpLog,
    /// The persisted seq ceiling: seqs `< reserved` are safe to use.
    reserved: u64,
}

fn get_opt_str(c: &mut Cursor<'_>) -> Result<Option<String>, Error> {
    if c.u8()? == 0 {
        return Ok(None);
    }
    let len = c.count_u32(1)?;
    String::from_utf8(c.take(len)?.to_vec())
        .map(Some)
        .map_err(|_| Error::corrupt("non-utf8 hint"))
}

fn get_u32s(c: &mut Cursor<'_>) -> Result<Vec<u32>, Error> {
    let len = c.count_u32(4)?;
    (0..len).map(|_| c.u32()).collect()
}

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_snapshot(s: &CoordSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + s.graph.len());
    out.extend_from_slice(&s.version.to_le_bytes());
    out.extend_from_slice(&s.applied.to_le_bytes());
    out.extend_from_slice(&s.failovers.to_le_bytes());
    out.extend_from_slice(&(s.groups.len() as u32).to_le_bytes());
    for (leader, follower, lh, fh) in &s.groups {
        out.extend_from_slice(&leader.to_le_bytes());
        match follower {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        put_opt_str(&mut out, lh.as_deref());
        put_opt_str(&mut out, fh.as_deref());
    }
    for owned in &s.owned {
        put_u32s(&mut out, owned);
    }
    out.extend_from_slice(&(s.known.len() as u32).to_le_bytes());
    for (node, hint) in &s.known {
        out.extend_from_slice(&node.to_le_bytes());
        put_opt_str(&mut out, hint.as_deref());
    }
    put_u32s(&mut out, &s.stale);
    for ix in &s.next_index {
        out.extend_from_slice(&ix.to_le_bytes());
    }
    out.extend_from_slice(&(s.graph.len() as u64).to_le_bytes());
    out.extend_from_slice(&s.graph);
    out
}

fn decode_snapshot(buf: &[u8]) -> Result<CoordSnapshot, Error> {
    let mut c = Cursor::new(buf);
    let version = c.u64()?;
    let applied = c.u64()?;
    let failovers = c.u64()?;
    // a group row, an owned list and a cursor take at least 7 + 4 + 8 bytes
    let p = c.count_u32(19)?;
    let mut groups = Vec::with_capacity(p);
    for _ in 0..p {
        let leader = c.u32()?;
        let follower = if c.u8()? == 1 { Some(c.u32()?) } else { None };
        let lh = get_opt_str(&mut c)?;
        let fh = get_opt_str(&mut c)?;
        groups.push((leader, follower, lh, fh));
    }
    let owned = (0..p).map(|_| get_u32s(&mut c)).collect::<Result<_, _>>()?;
    let nk = c.count_u32(5)?;
    let mut known = Vec::with_capacity(nk);
    for _ in 0..nk {
        let node = c.u32()?;
        known.push((node, get_opt_str(&mut c)?));
    }
    let stale = get_u32s(&mut c)?;
    let next_index = (0..p).map(|_| c.u64()).collect::<Result<_, _>>()?;
    let glen = c.count_u64(1)?;
    let graph = c.take(glen)?.to_vec();
    c.finish()?;
    Ok(CoordSnapshot {
        version,
        applied,
        failovers,
        groups,
        owned,
        known,
        stale,
        next_index,
        graph,
    })
}

fn encode_record(r: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(18 + 8 * r.indices.len());
    out.extend_from_slice(&r.entry.update.to_bytes());
    match r.entry.adopter {
        None => out.push(0),
        Some(k) => {
            out.push(1);
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
    out.extend_from_slice(&(r.indices.len() as u32).to_le_bytes());
    for ix in &r.indices {
        out.extend_from_slice(&ix.to_le_bytes());
    }
    out
}

fn decode_record(buf: &[u8]) -> Result<JournalRecord, Error> {
    let mut c = Cursor::new(buf);
    let update = Update::read_from(&mut c)?;
    let adopter = if c.u8()? == 1 { Some(c.u32()?) } else { None };
    let np = c.count_u32(8)?;
    let indices = (0..np).map(|_| c.u64()).collect::<Result<_, _>>()?;
    c.finish()?;
    Ok(JournalRecord {
        entry: JournalEntry { update, adopter },
        indices,
    })
}

impl CoordJournal {
    /// Does `dir` hold a coordinator snapshot to resume from?
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(COORD_SNAP).is_file()
    }

    /// Arm persistence at `dir` for a coordinator that has not written a
    /// snapshot yet: creates the directory and a fresh (empty) journal.
    /// Any previous journal at the same path is discarded — the caller's
    /// in-memory state is the truth a fresh snapshot will capture.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, Error> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(COORD_OPLOG);
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let oplog = OpLog::open(&path)?;
        Ok(CoordJournal {
            dir,
            oplog,
            reserved: 0,
        })
    }

    /// Reopen a journal directory: the snapshot, the retained journal
    /// records with the global position of the first one, and the
    /// resumed seq floor.
    pub fn open(
        dir: impl AsRef<Path>,
    ) -> Result<(Self, CoordSnapshot, u64, Vec<JournalRecord>), Error> {
        let dir = dir.as_ref().to_path_buf();
        let snap = read_sealed(&dir.join(COORD_SNAP), SNAP_MAGIC)
            .and_then(|payload| decode_snapshot(&payload))?;
        let oplog = OpLog::open(dir.join(COORD_OPLOG))?;
        let base = oplog.base();
        let records = oplog
            .entries()
            .map(decode_record)
            .collect::<Result<_, _>>()?;
        let seq_path = dir.join(COORD_SEQ);
        let reserved = if seq_path.is_file() {
            let payload = read_sealed(&seq_path, SEQ_MAGIC)?;
            let mut c = Cursor::new(&payload);
            let r = c.u64()?;
            c.finish()?;
            r
        } else {
            0
        };
        Ok((
            CoordJournal {
                dir,
                oplog,
                reserved,
            },
            snap,
            base,
            records,
        ))
    }

    /// Global position the next appended record gets.
    pub fn len(&self) -> u64 {
        self.oplog.len()
    }

    /// Is the journal empty (nothing ever appended)?
    pub fn is_empty(&self) -> bool {
        self.oplog.is_empty()
    }

    /// Append one write-ahead record and sync it to disk.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), Error> {
        self.oplog.append(&encode_record(record))?;
        self.oplog.sync()
    }

    /// Rewrite the snapshot (tmp+rename) and drop journal records whose
    /// fold it contains — except the last one when `in_flight` (its
    /// dispatch may be incomplete; resume re-drives it).
    pub fn write_snapshot(&mut self, snap: &CoordSnapshot, in_flight: bool) -> Result<(), Error> {
        write_sealed(
            &self.dir.join(COORD_SNAP),
            SNAP_MAGIC,
            &encode_snapshot(snap),
            Durability::PowerLoss,
        )?;
        let keep_from = if in_flight {
            self.oplog.len().saturating_sub(1)
        } else {
            self.oplog.len()
        };
        self.oplog.truncate_prefix(keep_from.min(snap.applied))?;
        Ok(())
    }

    /// Make seqs up to (at least) `seq` safe to use after a crash: extend
    /// the persisted ceiling by [`SEQ_RESERVE`] whenever `seq` reaches
    /// it. Returns the active ceiling.
    pub fn reserve_seq(&mut self, seq: u64) -> Result<u64, Error> {
        if seq < self.reserved {
            return Ok(self.reserved);
        }
        let next = seq + SEQ_RESERVE;
        write_sealed(
            &self.dir.join(COORD_SEQ),
            SEQ_MAGIC,
            &next.to_le_bytes(),
            Durability::PowerLoss,
        )?;
        self.reserved = next;
        Ok(next)
    }

    /// The persisted seq ceiling (0 when never reserved).
    pub fn reserved_seq(&self) -> u64 {
        self.reserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbc-coordjr-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot() -> CoordSnapshot {
        CoordSnapshot {
            version: 7,
            applied: 3,
            failovers: 1,
            groups: vec![
                (1, Some(2), Some("127.0.0.1:9000".into()), None),
                (3, None, None, None),
            ],
            owned: vec![vec![0, 1, 4], vec![2, 3]],
            known: vec![(1, None), (2, Some("h".into())), (3, None)],
            stale: vec![9],
            next_index: vec![5, 4],
            graph: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn record_round_trips() {
        for r in [
            JournalRecord {
                entry: JournalEntry {
                    update: Update::add(4, 9),
                    adopter: Some(1),
                },
                indices: vec![3, 7],
            },
            JournalRecord {
                entry: JournalEntry {
                    update: Update::remove(0, 2),
                    adopter: None,
                },
                indices: vec![1],
            },
        ] {
            assert_eq!(decode_record(&encode_record(&r)).unwrap(), r);
        }
    }

    #[test]
    fn create_write_reopen() {
        let dir = tmp("reopen");
        let mut j = CoordJournal::create(&dir).unwrap();
        let rec = JournalRecord {
            entry: JournalEntry {
                update: Update::add(0, 3),
                adopter: None,
            },
            indices: vec![1, 1],
        };
        j.append(&rec).unwrap();
        let mut snap = sample_snapshot();
        snap.applied = 0; // fold not yet captured: keep the record
        j.write_snapshot(&snap, false).unwrap();
        assert_eq!(j.reserve_seq(0).unwrap(), SEQ_RESERVE);

        let (j2, snap2, base, records) = CoordJournal::open(&dir).unwrap();
        assert_eq!(snap2, snap);
        assert_eq!(base, 0);
        assert_eq!(records, vec![rec]);
        assert_eq!(j2.reserved_seq(), SEQ_RESERVE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiescent_snapshot_drops_folded_records() {
        let dir = tmp("drop");
        let mut j = CoordJournal::create(&dir).unwrap();
        let rec = |u: u32| JournalRecord {
            entry: JournalEntry {
                update: Update::add(u, u + 1),
                adopter: None,
            },
            indices: vec![u as u64],
        };
        for u in 0..3 {
            j.append(&rec(u)).unwrap();
        }
        let mut snap = sample_snapshot();
        snap.applied = 3;
        j.write_snapshot(&snap, false).unwrap();
        let (_, _, base, records) = CoordJournal::open(&dir).unwrap();
        assert_eq!((base, records.len()), (3, 0), "all folds captured");

        // in-flight snapshot keeps the last record for re-dispatch
        let mut j = CoordJournal::create(&dir).unwrap();
        for u in 0..3 {
            j.append(&rec(u)).unwrap();
        }
        j.write_snapshot(&snap, true).unwrap();
        let (_, _, base, records) = CoordJournal::open(&dir).unwrap();
        assert_eq!((base, records.len()), (2, 1));
        assert_eq!(records[0], rec(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_snapshot_is_refused() {
        let dir = tmp("tamper");
        let mut j = CoordJournal::create(&dir).unwrap();
        j.write_snapshot(&sample_snapshot(), false).unwrap();
        let path = dir.join(COORD_SNAP);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(CoordJournal::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
