//! Sealed, checksummed update history: the checkpoint-and-truncate
//! compactor plus the segment store the replay engine reads.
//!
//! A [`HistoryLog`] owns two kinds of files inside a session directory:
//!
//! * **live WAL** (`history.wal`) — one frame per applied update,
//!   `[len: u32][fnv1a64: u64][seq: u64][map_version: u64][payload]`
//!   (little-endian, checksum over everything after it). Appends are
//!   write-through like [`crate::OpLog`]; a torn tail truncates on reopen,
//!   a mid-file checksum failure is corruption.
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
//! `seal_upto` orders its writes *segment → meta → WAL rewrite*, each
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
//! (rewrites the WAL without the sealed prefix and refreshes the meta),
//! so a second crash replays the same convergent path.

use crate::disk::tmp_path;
use crate::recovery::fnv1a64;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Live WAL file name inside a history directory.
pub const HISTORY_WAL: &str = "history.wal";
/// Meta file name inside a history directory.
pub const HISTORY_META: &str = "history.meta";
/// Magic prefix of a sealed history segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"EBCSEG1\n";
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

/// One applied update as recorded in the history: its global sequence
/// number, the shard-map version it was applied under, and the opaque
/// payload the owning layer serialized (the root session stores an
/// encoded edge update; the coordinator journal reuses the same frames).
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
    /// Records not yet sealed into a segment, ascending contiguous seqs.
    live: Vec<HistoryRecord>,
    live_bytes: u64,
    file: File,
    segments: Vec<SegmentMeta>,
    sealed_bytes: u64,
    /// Highest sealed-or-discarded seq.
    compacted_to: u64,
}

impl HistoryLog {
    /// Create a fresh history in `dir` (removing any stale history files
    /// from a previous incarnation), with the given retention mode.
    pub fn create(dir: &Path, keep_history: bool) -> Result<Self, HistoryError> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == HISTORY_WAL
                || name == HISTORY_META
                || (name.starts_with("history-") && name.ends_with(".seg"))
                || (name.starts_with("history") && name.ends_with(".tmp"))
            {
                fs::remove_file(entry.path())?;
            }
        }
        write_meta(dir, keep_history, 0)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(HISTORY_WAL))?;
        Ok(HistoryLog {
            dir: dir.to_path_buf(),
            keep: keep_history,
            live: Vec::new(),
            live_bytes: 0,
            file,
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
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.starts_with("history") && name.ends_with(".tmp") {
                fs::remove_file(entry.path())?;
            }
        }
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

        // Recover the live WAL, dropping any prefix the seal already
        // covered (kill windows 2–4) and truncating a torn tail.
        let (records, durable) = read_wal(&dir.join(HISTORY_WAL))?;
        let mut live = Vec::new();
        let mut dropped = false;
        let mut next = compacted_to + 1;
        for rec in records {
            if rec.seq <= compacted_to {
                dropped = true;
                continue;
            }
            if rec.seq > next {
                return Err(HistoryError::Gap {
                    missing_first: next,
                    missing_last: rec.seq - 1,
                });
            }
            if rec.seq < next {
                return Err(HistoryError::Corrupt(format!(
                    "live wal repeats seq {} (expected {next})",
                    rec.seq
                )));
            }
            next += 1;
            live.push(rec);
        }
        let mut log = HistoryLog {
            dir: dir.to_path_buf(),
            keep,
            live_bytes: live.iter().map(frame_len).sum(),
            live,
            file: OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(HISTORY_WAL))?,
            segments,
            sealed_bytes,
            compacted_to,
        };
        if dropped {
            // Finish the interrupted truncation so the next open is clean.
            log.rewrite_wal(None)?;
            write_meta(dir, keep, compacted_to)?;
        } else {
            if durable < file_len(&log.file)? {
                log.file.set_len(durable)?; // torn tail
            }
            log.file.seek(SeekFrom::Start(durable))?;
            if meta_compacted < compacted_to {
                write_meta(dir, keep, compacted_to)?; // stale meta (window 2)
            }
        }
        Ok(log)
    }

    /// Whether sealed segments are retained (`true`) or discarded at
    /// compaction (`false`).
    pub fn keep_history(&self) -> bool {
        self.keep
    }

    /// Highest seq in the history (sealed or live); 0 when empty.
    pub fn last_seq(&self) -> u64 {
        self.live.last().map_or(self.compacted_to, |r| r.seq)
    }

    /// Highest sealed-or-discarded seq; 0 before the first compaction.
    pub fn last_compaction_seq(&self) -> u64 {
        self.compacted_to
    }

    /// Bytes of live WAL frames not yet sealed.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Byte accounting for `stats`.
    pub fn stats(&self) -> HistoryStats {
        HistoryStats {
            live_wal_bytes: self.live_bytes,
            sealed_bytes: self.sealed_bytes,
            segments: self.segments.len() as u64,
            last_compaction_seq: self.compacted_to,
            last_seq: self.last_seq(),
        }
    }

    /// Append one applied update. `seq` must continue the history
    /// (`last_seq() + 1`); the write is framed and checksummed like an
    /// op-log entry, so a crash mid-append is a torn tail, never a
    /// corrupt history.
    pub fn append(
        &mut self,
        seq: u64,
        map_version: u64,
        payload: &[u8],
    ) -> Result<(), HistoryError> {
        if seq != self.last_seq() + 1 {
            return Err(HistoryError::Corrupt(format!(
                "append seq {seq} does not continue history at {}",
                self.last_seq()
            )));
        }
        let rec = HistoryRecord {
            seq,
            map_version,
            payload: payload.to_vec(),
        };
        let frame = frame(&rec);
        self.file.write_all(&frame)?;
        self.live_bytes += frame.len() as u64;
        self.live.push(rec);
        Ok(())
    }

    /// Sync the live WAL to disk.
    pub fn sync(&mut self) -> Result<(), HistoryError> {
        self.file.sync_data().map_err(HistoryError::Io)
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
        let count = self.live.iter().take_while(|r| r.seq <= seq).count();
        if count == 0 {
            return Ok(false);
        }
        self.sync()?;
        let first = self.live[0].seq;
        let last = self.live[count - 1].seq;
        if self.keep {
            let name = segment_name(first, last);
            let mut payload = Vec::new();
            payload.extend_from_slice(&first.to_le_bytes());
            payload.extend_from_slice(&last.to_le_bytes());
            payload.extend_from_slice(&(count as u64).to_le_bytes());
            for rec in &self.live[..count] {
                payload.extend_from_slice(&rec.seq.to_le_bytes());
                payload.extend_from_slice(&rec.map_version.to_le_bytes());
                payload.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
                payload.extend_from_slice(&rec.payload);
            }
            let path = self.dir.join(&name);
            if kill == Some(SealKill::BeforeSeal) {
                // Leave only the tmp behind, as if we died pre-rename.
                write_sealed_tmp_only(&path, SEGMENT_MAGIC, &payload)?;
                return Ok(false);
            }
            write_sealed(&path, SEGMENT_MAGIC, &payload)?;
            self.segments.push(SegmentMeta {
                first,
                last,
                bytes: file_len(&File::open(&path)?)?,
            });
            self.sealed_bytes += self.segments.last().expect("just pushed").bytes;
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
        self.live.drain(..count);
        self.rewrite_wal(kill)?;
        Ok(true)
    }

    /// All records with seq in `1..=seq`, reading sealed segments (with
    /// full checksum validation) and the live tail. Fails with
    /// [`HistoryError::Gap`] when retention was off for any part of that
    /// range, and with `Corrupt` when `seq` is beyond the history.
    pub fn records_upto(&self, seq: u64) -> Result<Vec<HistoryRecord>, HistoryError> {
        if seq > self.last_seq() {
            return Err(HistoryError::Corrupt(format!(
                "history ends at seq {}, cannot replay to {seq}",
                self.last_seq()
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
        for rec in &self.live {
            if rec.seq > seq {
                break;
            }
            out.push(rec.clone());
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

    /// Rewrite the live WAL to hold exactly `self.live` (tmp+rename).
    /// `kill == MidTruncate` leaves only the tmp behind.
    fn rewrite_wal(&mut self, kill: Option<SealKill>) -> Result<(), HistoryError> {
        let path = self.dir.join(HISTORY_WAL);
        let tmp = self.dir.join(format!("{HISTORY_WAL}.tmp"));
        let mut bytes = Vec::new();
        for rec in &self.live {
            bytes.extend_from_slice(&frame(rec));
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        if kill == Some(SealKill::MidTruncate) {
            return Ok(());
        }
        fs::rename(&tmp, &path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.live_bytes = bytes.len() as u64;
        Ok(())
    }
}

/// Write `magic + payload + fnv1a64(magic + payload)` to `path` via
/// tmp+rename — the shared sealed-file idiom (history segments, the
/// session's genesis snapshot, the coordinator journal snapshot).
pub fn write_sealed(path: &Path, magic: &[u8; 8], payload: &[u8]) -> Result<(), HistoryError> {
    write_sealed_tmp_only(path, magic, payload)?;
    let tmp = tmp_path(path);
    fs::rename(tmp, path)?;
    Ok(())
}

/// Read and validate a file written by [`write_sealed`], returning the
/// payload.
pub fn read_sealed(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, HistoryError> {
    let bytes = fs::read(path)?;
    let name = path.display();
    if bytes.len() < magic.len() + 8 || &bytes[..magic.len()] != magic {
        return Err(HistoryError::Corrupt(format!(
            "{name}: bad magic or truncated"
        )));
    }
    let body = &bytes[..bytes.len() - 8];
    let ck = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8"));
    if fnv1a64(body) != ck {
        return Err(HistoryError::Corrupt(format!("{name}: checksum mismatch")));
    }
    Ok(body[magic.len()..].to_vec())
}

fn write_sealed_tmp_only(path: &Path, magic: &[u8; 8], payload: &[u8]) -> Result<(), HistoryError> {
    let tmp = tmp_path(path);
    let mut bytes = Vec::with_capacity(magic.len() + payload.len() + 8);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(payload);
    let ck = fnv1a64(&bytes);
    bytes.extend_from_slice(&ck.to_le_bytes());
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_data()?;
    Ok(())
}

fn segment_name(first: u64, last: u64) -> String {
    format!("history-{first:020}-{last:020}.seg")
}

fn frame(rec: &HistoryRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + rec.payload.len());
    body.extend_from_slice(&rec.seq.to_le_bytes());
    body.extend_from_slice(&rec.map_version.to_le_bytes());
    body.extend_from_slice(&rec.payload);
    let mut f = Vec::with_capacity(12 + body.len());
    f.extend_from_slice(&(body.len() as u32).to_le_bytes());
    f.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    f.extend_from_slice(&body);
    f
}

fn frame_len(rec: &HistoryRecord) -> u64 {
    12 + 16 + rec.payload.len() as u64
}

fn file_len(file: &File) -> Result<u64, HistoryError> {
    Ok(file.metadata()?.len())
}

fn write_meta(dir: &Path, keep: bool, compacted_to: u64) -> Result<(), HistoryError> {
    let mut payload = Vec::with_capacity(9);
    payload.push(1u8); // format
    payload.push(keep as u8);
    payload.extend_from_slice(&compacted_to.to_le_bytes());
    write_sealed(&dir.join(HISTORY_META), META_MAGIC, &payload)
}

fn read_meta(dir: &Path) -> Result<(bool, u64), HistoryError> {
    let payload = read_sealed(&dir.join(HISTORY_META), META_MAGIC).map_err(|e| match e {
        HistoryError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
            HistoryError::Corrupt("history.meta is missing".into())
        }
        e => e,
    })?;
    if payload.len() != 10 || payload[0] != 1 || payload[1] > 1 {
        return Err(HistoryError::Corrupt("history.meta: bad fields".into()));
    }
    let compacted_to = u64::from_le_bytes(payload[2..10].try_into().expect("8"));
    Ok((payload[1] == 1, compacted_to))
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
        let path = entry.path();
        let mut head = [0u8; 24];
        let mut f = File::open(&path)?;
        f.read_exact(&mut head)
            .map_err(|_| HistoryError::Corrupt(format!("{name}: truncated segment header")))?;
        if &head[..8] != SEGMENT_MAGIC {
            return Err(HistoryError::Corrupt(format!("{name}: bad segment magic")));
        }
        let first = u64::from_le_bytes(head[8..16].try_into().expect("8"));
        let last = u64::from_le_bytes(head[16..24].try_into().expect("8"));
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

/// Read and fully validate one sealed segment.
fn read_segment(path: &Path) -> Result<Vec<HistoryRecord>, HistoryError> {
    let name = path.display().to_string();
    let payload = read_sealed(path, SEGMENT_MAGIC)?;
    if payload.len() < 24 {
        return Err(HistoryError::Corrupt(format!("{name}: header truncated")));
    }
    let first = u64::from_le_bytes(payload[0..8].try_into().expect("8"));
    let last = u64::from_le_bytes(payload[8..16].try_into().expect("8"));
    let count = u64::from_le_bytes(payload[16..24].try_into().expect("8"));
    if last < first || count != last - first + 1 {
        return Err(HistoryError::Corrupt(format!(
            "{name}: range {first}-{last} with {count} records"
        )));
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut pos = 24usize;
    for i in 0..count {
        if payload.len() - pos < 20 {
            return Err(HistoryError::Corrupt(format!(
                "{name}: record {i} truncated"
            )));
        }
        let seq = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8"));
        let map_version = u64::from_le_bytes(payload[pos + 8..pos + 16].try_into().expect("8"));
        let plen = u32::from_le_bytes(payload[pos + 16..pos + 20].try_into().expect("4")) as usize;
        pos += 20;
        if payload.len() - pos < plen {
            return Err(HistoryError::Corrupt(format!(
                "{name}: record {i} payload truncated"
            )));
        }
        if seq != first + i {
            return Err(HistoryError::Corrupt(format!(
                "{name}: record {i} has seq {seq}, expected {}",
                first + i
            )));
        }
        out.push(HistoryRecord {
            seq,
            map_version,
            payload: payload[pos..pos + plen].to_vec(),
        });
        pos += plen;
    }
    if pos != payload.len() {
        return Err(HistoryError::Corrupt(format!("{name}: trailing bytes")));
    }
    Ok(out)
}

/// Parse the live WAL: complete frames + the durable byte offset (frames
/// past it are a torn tail the caller truncates).
fn read_wal(path: &Path) -> Result<(Vec<HistoryRecord>, u64), HistoryError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(HistoryError::Io(e)),
    };
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut durable = 0usize;
    while bytes.len() - pos >= 12 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        let ck = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
        let Some(end) = pos.checked_add(12 + len).filter(|&e| e <= bytes.len()) else {
            break; // torn tail
        };
        let body = &bytes[pos + 12..end];
        if len < 16 || fnv1a64(body) != ck {
            if end == bytes.len() {
                break; // torn tail: final frame half-written
            }
            return Err(HistoryError::Corrupt(format!(
                "history.wal frame {} fails its checksum mid-file",
                out.len()
            )));
        }
        out.push(HistoryRecord {
            seq: u64::from_le_bytes(body[0..8].try_into().expect("8")),
            map_version: u64::from_le_bytes(body[8..16].try_into().expect("8")),
            payload: body[16..].to_vec(),
        });
        pos = end;
        durable = end;
    }
    Ok((out, durable as u64))
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
        write_sealed(&path, b"EBCTEST\n", b"payload bytes").unwrap();
        assert_eq!(read_sealed(&path, b"EBCTEST\n").unwrap(), b"payload bytes");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_sealed(&path, b"EBCTEST\n"),
            Err(HistoryError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&d).ok();
    }
}
