//! Sealed, checksummed update history: the checkpoint-and-truncate
//! compactor plus the segment store the replay engine reads.
//!
//! A [`HistoryLog`] owns these files inside a session directory (DESIGN.md
//! §7 "Durable artefacts" has how each one is sealed):
//!
//! * **live WAL** (`history.wal`) — an [`OpLog`] with one entry per applied
//!   update, `[seq: u64][map_version: u64][payload]` (little-endian). A
//!   torn tail truncates on reopen, a mid-file checksum failure is
//!   corruption, and compaction is [`OpLog::truncate_prefix`].
//! * **sealed segments** (`history-<first>-<last>.seg`) — immutable,
//!   checksummed rolls of a WAL prefix, produced by
//!   [`HistoryLog::seal_upto`] at checkpoint time. A segment is written
//!   tmp+rename, so it either exists completely or not at all.
//!
//! A small meta file (`history.meta`, also tmp+rename) records the
//! retention mode and the highest sealed-or-discarded seq, which is what
//! lets `open()` distinguish "prefix legitimately discarded
//! (`keep_history = false`)" from "segment file missing" — the latter is
//! the typed [`HistoryError::Gap`].
//!
//! ## Crash matrix (DESIGN.md §14)
//!
//! `seal_upto` orders its writes *segment → meta → WAL truncation*, each
//! atomic via tmp+rename, and every WAL record carries its seq, so
//! `open()` resolves every kill window to exactly-once history:
//!
//! | killed…                         | open() sees                    | resolution            |
//! |---------------------------------|--------------------------------|-----------------------|
//! | before the segment rename       | stale `.tmp`, full live WAL    | remove tmp; no-op     |
//! | after segment, before meta      | segment + overlapping WAL      | dedup by seq, finish  |
//! | after meta, before WAL rewrite  | segment + overlapping WAL      | dedup by seq, finish  |
//! | mid WAL rewrite (tmp partial)   | segment + old WAL + stale tmp  | dedup by seq, finish  |
//!
//! "Finish" means the open completes the interrupted truncation itself
//! (truncates the sealed prefix off the WAL and refreshes the meta), so a
//! second crash replays the same convergent path.

use crate::oplog::OpLog;
use crate::seal::{read_sealed, tmp_path, write_sealed, Durability};
use ebc_core::bd::BdError;
use ebc_graph::{seal, Cursor, SnapshotError};
use std::fmt;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Live WAL file name inside a history directory.
const HISTORY_WAL: &str = "history.wal";
/// Meta file name inside a history directory.
const HISTORY_META: &str = "history.meta";
/// Magic of a sealed history segment.
const SEGMENT_MAGIC: &[u8; 8] = b"EBCSEG1\n";
const META_MAGIC: &[u8; 8] = b"EBCHMETA";

/// Errors from the history subsystem.
#[derive(Debug)]
pub enum HistoryError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A file exists but its bytes are not a valid history artifact.
    Corrupt(String),
    /// The sealed segments do not tile the history: records
    /// `missing_first ..= missing_last` are gone (a segment file was
    /// deleted, or replay was asked to reach below a `keep_history =
    /// false` truncation point).
    Gap {
        /// First missing seq.
        missing_first: u64,
        /// Last missing seq.
        missing_last: u64,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history io error: {e}"),
            HistoryError::Corrupt(msg) => write!(f, "history corrupt: {msg}"),
            HistoryError::Gap {
                missing_first,
                missing_last,
            } => write!(
                f,
                "history has a gap: records {missing_first}..={missing_last} are missing"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<std::io::Error> for HistoryError {
    fn from(e: std::io::Error) -> Self {
        HistoryError::Io(e)
    }
}

impl From<SnapshotError> for HistoryError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => HistoryError::Io(e),
            SnapshotError::Corrupt(msg) => HistoryError::Corrupt(msg),
        }
    }
}

impl From<BdError> for HistoryError {
    fn from(e: BdError) -> Self {
        match e {
            BdError::Io(e) => HistoryError::Io(e),
            BdError::Corrupt(msg) => HistoryError::Corrupt(msg),
            e => HistoryError::Corrupt(e.to_string()),
        }
    }
}

/// One applied update as recorded in the history: its global sequence
/// number, the shard-map version it was applied under, and the opaque
/// payload the owning layer serialized (the root session stores an
/// encoded edge update).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRecord {
    /// 1-based global sequence number; contiguous within a history.
    pub seq: u64,
    /// Shard-map version in force when the update was applied.
    pub map_version: u64,
    /// Opaque serialized update.
    pub payload: Vec<u8>,
}

/// Byte accounting for `stats` surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryStats {
    /// Bytes of live (not yet sealed) WAL frames.
    pub live_wal_bytes: u64,
    /// Total bytes across sealed segment files.
    pub sealed_bytes: u64,
    /// Number of sealed segment files.
    pub segments: u64,
    /// Highest seq that has been sealed (or discarded when
    /// `keep_history = false`); 0 before the first compaction.
    pub last_compaction_seq: u64,
    /// Highest seq in the history (sealed or live); 0 when empty.
    pub last_seq: u64,
}

/// Crash-injection points for [`HistoryLog::seal_upto_with_kill`].
/// Test-only: after a kill fires, the in-memory log is stale and must be
/// dropped; reopen the directory to observe recovery.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealKill {
    /// Die with the segment written only as a `.tmp` (nothing sealed).
    BeforeSeal,
    /// Die after the segment rename, before the meta update.
    AfterSeal,
    /// Die after the meta update, before the WAL rewrite.
    AfterMeta,
    /// Die with the rewritten WAL written only as a `.tmp`.
    MidTruncate,
}

/// Header of one sealed segment (cheap to read: first 24 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentMeta {
    first: u64,
    last: u64,
    bytes: u64,
}

/// Append + seal + replay over a session's update history.
#[derive(Debug)]
pub struct HistoryLog {
    dir: PathBuf,
    keep: bool,
    /// The live WAL: one entry per record `compacted_to + 1 ..= last_seq`.
    wal: OpLog,
    /// Highest seq in the history (sealed or live).
    last_seq: u64,
    segments: Vec<SegmentMeta>,
    sealed_bytes: u64,
    /// Highest sealed-or-discarded seq.
    compacted_to: u64,
}

/// Split a live WAL entry into `(seq, map_version, payload)`.
fn parse_entry(entry: &[u8]) -> Result<(u64, u64, &[u8]), SnapshotError> {
    let mut cur = Cursor::new(entry);
    Ok((cur.u64()?, cur.u64()?, cur.rest()))
}

impl HistoryLog {
    /// Create a fresh history in `dir` (removing any stale history files
    /// from a previous incarnation), with the given retention mode.
    pub fn create(dir: &Path, keep_history: bool) -> Result<Self, HistoryError> {
        fs::create_dir_all(dir)?;
        remove_files(dir, |name| {
            name == HISTORY_WAL
                || name == HISTORY_META
                || (name.starts_with("history-") && name.ends_with(".seg"))
                || (name.starts_with("history") && name.ends_with(".tmp"))
        })?;
        write_meta(dir, keep_history, 0)?;
        Ok(HistoryLog {
            dir: dir.to_path_buf(),
            keep: keep_history,
            wal: OpLog::open(dir.join(HISTORY_WAL))?,
            last_seq: 0,
            segments: Vec::new(),
            sealed_bytes: 0,
            compacted_to: 0,
        })
    }

    /// Open an existing history, resolving any interrupted seal/truncate
    /// to exactly-once records (see the crash matrix in the module docs)
    /// and rejecting missing segments with [`HistoryError::Gap`].
    pub fn open(dir: &Path) -> Result<Self, HistoryError> {
        let (keep, meta_compacted) = read_meta(dir)?;
        // Remove leftover tmp files from a killed seal: they were never
        // renamed, so they are not part of the history.
        remove_files(dir, |name| {
            name.starts_with("history") && name.ends_with(".tmp")
        })?;
        let mut segments = scan_segments(dir)?;
        segments.sort_by_key(|s| s.first);
        if !keep && !segments.is_empty() {
            return Err(HistoryError::Corrupt(
                "sealed segments present in a keep_history=false directory".into(),
            ));
        }
        // Segments must tile [1, last]; the meta names anything sealed or
        // discarded beyond them (a deleted newest segment, or the whole
        // prefix when retention is off).
        let mut expect = 1u64;
        for seg in &segments {
            if seg.first > expect {
                return Err(HistoryError::Gap {
                    missing_first: expect,
                    missing_last: seg.first - 1,
                });
            }
            if seg.first < expect || seg.last < seg.first {
                return Err(HistoryError::Corrupt(format!(
                    "segment {}-{} overlaps or inverts at expected seq {expect}",
                    seg.first, seg.last
                )));
            }
            expect = seg.last + 1;
        }
        let sealed_to = segments.last().map_or(0, |s| s.last);
        if keep && meta_compacted > sealed_to {
            return Err(HistoryError::Gap {
                missing_first: sealed_to + 1,
                missing_last: meta_compacted,
            });
        }
        let compacted_to = meta_compacted.max(sealed_to);
        let sealed_bytes = segments.iter().map(|s| s.bytes).sum();

        // Recover the live WAL (the op log drops a torn tail), counting the
        // prefix a seal already covered (kill windows 2–4).
        let mut wal = OpLog::open(dir.join(HISTORY_WAL))?;
        let mut covered = 0u64;
        let mut next = compacted_to + 1;
        for entry in wal.entries() {
            let (seq, ..) = parse_entry(entry)?;
            if seq <= compacted_to && next == compacted_to + 1 {
                covered += 1;
            } else if seq > next {
                return Err(HistoryError::Gap {
                    missing_first: next,
                    missing_last: seq - 1,
                });
            } else if seq < next {
                return Err(HistoryError::Corrupt(format!(
                    "live wal repeats seq {seq} (expected {next})"
                )));
            } else {
                next += 1;
            }
        }
        if covered > 0 {
            // Finish the interrupted truncation so the next open is clean.
            wal.truncate_prefix(wal.base() + covered)?;
        }
        if covered > 0 || meta_compacted < compacted_to {
            write_meta(dir, keep, compacted_to)?; // stale meta (window 2)
        }
        Ok(HistoryLog {
            dir: dir.to_path_buf(),
            keep,
            wal,
            last_seq: next - 1,
            segments,
            sealed_bytes,
            compacted_to,
        })
    }

    /// Whether sealed segments are retained (`true`) or discarded at
    /// compaction (`false`).
    pub fn keep_history(&self) -> bool {
        self.keep
    }

    /// Highest seq in the history (sealed or live); 0 when empty.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Highest sealed-or-discarded seq; 0 before the first compaction.
    pub fn last_compaction_seq(&self) -> u64 {
        self.compacted_to
    }

    /// Bytes of live WAL frames not yet sealed.
    pub fn live_bytes(&self) -> u64 {
        self.wal.byte_len()
    }

    /// Byte accounting for `stats`.
    pub fn stats(&self) -> HistoryStats {
        HistoryStats {
            live_wal_bytes: self.live_bytes(),
            sealed_bytes: self.sealed_bytes,
            segments: self.segments.len() as u64,
            last_compaction_seq: self.compacted_to,
            last_seq: self.last_seq,
        }
    }

    /// Append one applied update. `seq` must continue the history
    /// (`last_seq() + 1`); the entry is one op-log frame, written with one
    /// `write`, so a crash mid-append is a torn tail, never a corrupt
    /// history.
    pub fn append(
        &mut self,
        seq: u64,
        map_version: u64,
        payload: &[u8],
    ) -> Result<(), HistoryError> {
        if seq != self.last_seq + 1 {
            return Err(HistoryError::Corrupt(format!(
                "append seq {seq} does not continue history at {}",
                self.last_seq
            )));
        }
        let mut entry = Vec::with_capacity(16 + payload.len());
        entry.extend_from_slice(&seq.to_le_bytes());
        entry.extend_from_slice(&map_version.to_le_bytes());
        entry.extend_from_slice(payload);
        self.wal.append(&entry)?;
        self.last_seq = seq;
        Ok(())
    }

    /// Sync the live WAL to disk.
    pub fn sync(&mut self) -> Result<(), HistoryError> {
        Ok(self.wal.sync()?)
    }

    /// Seal every live record with seq ≤ `seq` into one segment (or
    /// discard them when `keep_history = false`) and truncate the live
    /// WAL. Returns `true` when anything was compacted. Crash-safe: see
    /// the module-level matrix.
    pub fn seal_upto(&mut self, seq: u64) -> Result<bool, HistoryError> {
        self.seal_upto_with_kill(seq, None)
    }

    /// [`Self::seal_upto`] with an injected crash for the recovery tests.
    #[doc(hidden)]
    pub fn seal_upto_with_kill(
        &mut self,
        seq: u64,
        kill: Option<SealKill>,
    ) -> Result<bool, HistoryError> {
        let last = seq.min(self.last_seq);
        if last <= self.compacted_to {
            return Ok(false);
        }
        self.sync()?;
        let first = self.compacted_to + 1;
        let count = last - self.compacted_to;
        if self.keep {
            let mut payload = Vec::new();
            for x in [first, last, count] {
                payload.extend_from_slice(&x.to_le_bytes());
            }
            for entry in self.wal.entries().take(count as usize) {
                let (seq, map_version, rec) = parse_entry(entry)?;
                payload.extend_from_slice(&seq.to_le_bytes());
                payload.extend_from_slice(&map_version.to_le_bytes());
                payload.extend_from_slice(&(rec.len() as u32).to_le_bytes());
                payload.extend_from_slice(rec);
            }
            let path = self.dir.join(segment_name(first, last));
            if kill == Some(SealKill::BeforeSeal) {
                // Leave only the tmp behind, as if we died pre-rename.
                fs::write(tmp_path(&path), seal(SEGMENT_MAGIC, &payload))?;
                return Ok(false);
            }
            write_sealed(&path, SEGMENT_MAGIC, &payload, Durability::PowerLoss)?;
            let bytes = fs::metadata(&path)?.len();
            self.segments.push(SegmentMeta { first, last, bytes });
            self.sealed_bytes += bytes;
        } else if kill == Some(SealKill::BeforeSeal) {
            return Ok(false); // nothing durable happened yet
        }
        if kill == Some(SealKill::AfterSeal) {
            return Ok(false);
        }
        write_meta(&self.dir, self.keep, last)?;
        self.compacted_to = last;
        if kill == Some(SealKill::AfterMeta) {
            return Ok(false);
        }
        if kill == Some(SealKill::MidTruncate) {
            // A truncation killed before its rename leaves a stale `.tmp`
            // beside the intact WAL.
            let wal = self.dir.join(HISTORY_WAL);
            fs::copy(&wal, tmp_path(&wal))?;
            return Ok(false);
        }
        self.wal.truncate_prefix(self.wal.base() + count)?;
        Ok(true)
    }

    /// All records with seq in `1..=seq`, reading sealed segments (with
    /// full checksum validation) and the live tail. Fails with
    /// [`HistoryError::Gap`] when retention was off for any part of that
    /// range, and with `Corrupt` when `seq` is beyond the history.
    pub fn records_upto(&self, seq: u64) -> Result<Vec<HistoryRecord>, HistoryError> {
        if seq > self.last_seq {
            return Err(HistoryError::Corrupt(format!(
                "history ends at seq {}, cannot replay to {seq}",
                self.last_seq
            )));
        }
        if !self.keep && self.compacted_to > 0 {
            return Err(HistoryError::Gap {
                missing_first: 1,
                missing_last: self.compacted_to,
            });
        }
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.first > seq {
                break;
            }
            let recs = read_segment(&self.dir.join(segment_name(seg.first, seg.last)))?;
            for rec in recs {
                if rec.seq > seq {
                    break;
                }
                out.push(rec);
            }
        }
        for entry in self.wal.entries() {
            let (rec_seq, map_version, payload) = parse_entry(entry)?;
            if rec_seq > seq {
                break;
            }
            out.push(HistoryRecord {
                seq: rec_seq,
                map_version,
                payload: payload.to_vec(),
            });
        }
        // Belt and braces: the assembled range must be exactly 1..=seq.
        for (i, rec) in out.iter().enumerate() {
            if rec.seq != i as u64 + 1 {
                return Err(HistoryError::Corrupt(format!(
                    "assembled history skips from {} to {}",
                    i, rec.seq
                )));
            }
        }
        if out.len() as u64 != seq {
            return Err(HistoryError::Corrupt(format!(
                "assembled history has {} of {seq} records",
                out.len()
            )));
        }
        Ok(out)
    }
}

/// Remove every file in `dir` whose name `doomed` picks.
fn remove_files(dir: &Path, doomed: impl Fn(&str) -> bool) -> Result<(), HistoryError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if doomed(&entry.file_name().to_string_lossy()) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

fn segment_name(first: u64, last: u64) -> String {
    format!("history-{first:020}-{last:020}.seg")
}

fn write_meta(dir: &Path, keep: bool, compacted_to: u64) -> Result<(), HistoryError> {
    let mut payload = Vec::with_capacity(10);
    payload.push(1u8); // format
    payload.push(keep as u8);
    payload.extend_from_slice(&compacted_to.to_le_bytes());
    write_sealed(
        &dir.join(HISTORY_META),
        META_MAGIC,
        &payload,
        Durability::PowerLoss,
    )?;
    Ok(())
}

fn read_meta(dir: &Path) -> Result<(bool, u64), HistoryError> {
    let payload = read_sealed(&dir.join(HISTORY_META), META_MAGIC).map_err(|e| match e {
        SnapshotError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
            HistoryError::Corrupt("history.meta is missing".into())
        }
        e => e.into(),
    })?;
    let mut cur = Cursor::new(&payload);
    let (format, keep, compacted_to) = (cur.u8()?, cur.u8()?, cur.u64()?);
    cur.finish()?;
    if format != 1 || keep > 1 {
        return Err(HistoryError::Corrupt("history.meta: bad fields".into()));
    }
    Ok((keep == 1, compacted_to))
}

/// List segment headers in `dir` (cheap: magic + first/last + file size;
/// payload checksums are validated when the segment is read for replay).
fn scan_segments(dir: &Path) -> Result<Vec<SegmentMeta>, HistoryError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("history-") || !name.ends_with(".seg") {
            continue;
        }
        let mut head = [0u8; 24];
        File::open(entry.path())?
            .read_exact(&mut head)
            .map_err(|_| HistoryError::Corrupt(format!("{name}: truncated segment header")))?;
        let mut cur = Cursor::new(&head);
        if cur.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(HistoryError::Corrupt(format!("{name}: bad segment magic")));
        }
        let (first, last) = (cur.u64()?, cur.u64()?);
        if segment_name(first, last) != name {
            return Err(HistoryError::Corrupt(format!(
                "{name}: header range {first}-{last} disagrees with file name"
            )));
        }
        out.push(SegmentMeta {
            first,
            last,
            bytes: entry.metadata()?.len(),
        });
    }
    Ok(out)
}

/// Read and fully validate one sealed segment: `first`, `last` and the
/// record count, then per record `seq · map_version · len: u32 · payload`.
fn read_segment(path: &Path) -> Result<Vec<HistoryRecord>, HistoryError> {
    let name = path.display();
    let payload = read_sealed(path, SEGMENT_MAGIC)?;
    let mut cur = Cursor::new(&payload);
    let (first, last) = (cur.u64()?, cur.u64()?);
    let count = cur.count_u64(20)?;
    if count == 0 || last.checked_sub(first) != Some(count as u64 - 1) {
        return Err(HistoryError::Corrupt(format!(
            "{name}: range {first}-{last} with {count} records"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let (seq, map_version) = (cur.u64()?, cur.u64()?);
        let len = cur.count_u32(1)?;
        let payload = cur.take(len)?.to_vec();
        if seq != first + i {
            return Err(HistoryError::Corrupt(format!(
                "{name}: record {i} has seq {seq}, expected {}",
                first + i
            )));
        }
        out.push(HistoryRecord {
            seq,
            map_version,
            payload,
        });
    }
    cur.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ebc_history_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fill(log: &mut HistoryLog, from: u64, to: u64) {
        for seq in from..=to {
            log.append(seq, seq / 10, format!("u{seq}").as_bytes())
                .unwrap();
        }
    }

    #[test]
    fn append_seal_replay_round_trip() {
        let d = dir("roundtrip");
        let mut log = HistoryLog::create(&d, true).unwrap();
        fill(&mut log, 1, 10);
        assert!(log.seal_upto(6).unwrap());
        fill(&mut log, 11, 12);
        assert_eq!(log.last_compaction_seq(), 6);
        assert_eq!(log.last_seq(), 12);
        let recs = log.records_upto(12).unwrap();
        assert_eq!(recs.len(), 12);
        assert!(recs.iter().enumerate().all(|(i, r)| r.seq == i as u64 + 1));
        assert_eq!(recs[3].payload, b"u4");
        assert_eq!(recs[3].map_version, 0);
        assert_eq!(recs[10].map_version, 1);
        // reopen sees the same history
        drop(log);
        let log = HistoryLog::open(&d).unwrap();
        assert_eq!(log.last_seq(), 12);
        assert_eq!(log.records_upto(9).unwrap().len(), 9);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn multiple_seals_tile_and_bound_live_bytes() {
        let d = dir("tiling");
        let mut log = HistoryLog::create(&d, true).unwrap();
        for chunk in 0..5u64 {
            fill(&mut log, chunk * 20 + 1, chunk * 20 + 20);
            assert!(log.seal_upto(chunk * 20 + 20).unwrap());
            assert_eq!(log.live_bytes(), 0);
        }
        let st = log.stats();
        assert_eq!(st.segments, 5);
        assert_eq!(st.last_compaction_seq, 100);
        assert!(st.sealed_bytes > 0);
        assert_eq!(log.records_upto(100).unwrap().len(), 100);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn keep_false_discards_and_gaps_on_replay() {
        let d = dir("nokeep");
        let mut log = HistoryLog::create(&d, false).unwrap();
        fill(&mut log, 1, 8);
        assert!(log.seal_upto(8).unwrap());
        assert_eq!(log.stats().segments, 0);
        fill(&mut log, 9, 10);
        match log.records_upto(10) {
            Err(HistoryError::Gap {
                missing_first: 1,
                missing_last: 8,
            }) => {}
            other => panic!("expected gap, got {other:?}"),
        }
        drop(log);
        let log = HistoryLog::open(&d).unwrap();
        assert_eq!(log.last_seq(), 10);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn deleted_segment_is_a_typed_gap() {
        let d = dir("gap");
        let mut log = HistoryLog::create(&d, true).unwrap();
        fill(&mut log, 1, 10);
        log.seal_upto(5).unwrap();
        fill(&mut log, 11, 11);
        log.seal_upto(11).unwrap();
        drop(log);
        std::fs::remove_file(d.join(segment_name(1, 5))).unwrap();
        match HistoryLog::open(&d) {
            Err(HistoryError::Gap {
                missing_first: 1,
                missing_last: 5,
            }) => {}
            other => panic!("expected gap 1..=5, got {other:?}"),
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn deleted_newest_segment_is_a_typed_gap() {
        let d = dir("gap_tail");
        let mut log = HistoryLog::create(&d, true).unwrap();
        fill(&mut log, 1, 10);
        log.seal_upto(5).unwrap();
        log.seal_upto(10).unwrap();
        drop(log);
        std::fs::remove_file(d.join(segment_name(6, 10))).unwrap();
        match HistoryLog::open(&d) {
            Err(HistoryError::Gap {
                missing_first: 6,
                missing_last: 10,
            }) => {}
            other => panic!("expected gap 6..=10, got {other:?}"),
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn tampered_segment_is_corrupt_on_read() {
        let d = dir("tamper");
        let mut log = HistoryLog::create(&d, true).unwrap();
        fill(&mut log, 1, 6);
        log.seal_upto(6).unwrap();
        let path = d.join(segment_name(1, 6));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let log = HistoryLog::open(&d).unwrap(); // header scan is cheap
        assert!(matches!(log.records_upto(6), Err(HistoryError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_matrix_every_window_resolves_exactly_once() {
        for kill in [
            SealKill::BeforeSeal,
            SealKill::AfterSeal,
            SealKill::AfterMeta,
            SealKill::MidTruncate,
        ] {
            let d = dir(&format!("kill_{kill:?}"));
            let mut log = HistoryLog::create(&d, true).unwrap();
            fill(&mut log, 1, 10);
            let _ = log.seal_upto_with_kill(7, Some(kill)).unwrap();
            drop(log); // the instance is poisoned after a kill
            let mut log = HistoryLog::open(&d).unwrap();
            assert_eq!(log.last_seq(), 10, "{kill:?}");
            let recs = log.records_upto(10).unwrap();
            assert_eq!(recs.len(), 10, "{kill:?}");
            assert!(
                recs.iter().enumerate().all(|(i, r)| r.seq == i as u64 + 1
                    && r.payload == format!("u{}", i + 1).into_bytes()),
                "{kill:?}"
            );
            // the history still appends and seals cleanly afterwards
            fill(&mut log, 11, 12);
            assert!(log.seal_upto(12).unwrap());
            drop(log);
            let log = HistoryLog::open(&d).unwrap();
            assert_eq!(log.records_upto(12).unwrap().len(), 12, "{kill:?}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn torn_wal_tail_truncates() {
        let d = dir("torn");
        let mut log = HistoryLog::create(&d, true).unwrap();
        fill(&mut log, 1, 3);
        log.sync().unwrap();
        drop(log);
        let path = d.join(HISTORY_WAL);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let log = HistoryLog::open(&d).unwrap();
        assert_eq!(log.last_seq(), 2);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn sealed_helper_round_trips_and_rejects_tamper() {
        let d = dir("sealed");
        let path = d.join("thing.bin");
        write_sealed(&path, b"EBCTEST\n", b"payload bytes", Durability::PowerLoss).unwrap();
        assert_eq!(read_sealed(&path, b"EBCTEST\n").unwrap(), b"payload bytes");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_sealed(&path, b"EBCTEST\n"),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&d).ok();
    }
}
