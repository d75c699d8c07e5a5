//! Append-only, checksummed operation log — the per-shard replication WAL.
//!
//! A cluster shard leader appends every state-changing operation (bootstrap,
//! apply, import, export) to its op log *as the serialized wire frame it
//! ships to its follower*, so the log **is** the replication stream: entry
//! `i` on the leader and entry `i` on the follower are byte-identical, a
//! follower's replay is by construction the same op sequence in the same
//! order, and (the kernel being a pure function of `(graph, BD[s], op)`)
//! the promoted follower's state is bitwise equal to the leader's.
//!
//! Two backings behind one type: [`OpLog::memory`] for in-process nodes and
//! the fault-injection harness, [`OpLog::open`] for a file. A file-backed
//! log persists each entry as one `len · fnv1a64 · entry` frame, the
//! store's one framing (DESIGN.md §7 "Durable artefacts"), and truncates a
//! torn tail on reopen: a half-written final entry is indistinguishable
//! from "the op never arrived", which the protocol already tolerates (the
//! coordinator re-sends unacknowledged ops, and entries are deduplicated by
//! index). Besides the node replication WALs, the coordinator journal and
//! the session's history WAL are op logs too.

use crate::seal::{read_frame, replace, seal_frame, tmp_path, Durability, FRAME_HEADER};
use crate::BdError;
use ebc_graph::Cursor;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header of a compacted (format v2) op-log file: the 8-byte tag
/// followed by the base index (`u64` LE) of the first retained entry.
/// Headerless files are legacy format v1 with base 0.
const OPLOG_V2_MAGIC: &[u8; 8] = b"EBCOPLG2";

/// Append-only log of opaque entries, optionally file-backed.
///
/// Retained entries are kept resident in both modes (the log doubles as
/// the replication send buffer: a leader re-ships any suffix on demand),
/// so `entry(i)` is always O(1). [`OpLog::truncate_prefix`] discards a
/// durable prefix — e.g. cluster entries already acknowledged by the
/// follower — without renumbering: indices are forever, `len()` keeps
/// counting from 0, and a truncated index simply reads as `None`.
#[derive(Debug)]
pub struct OpLog {
    /// Index of the first retained entry (entries `0..base` were
    /// compacted away).
    base: u64,
    entries: Vec<Vec<u8>>,
    /// Total frame bytes of retained entries (excluding any v2 header).
    byte_len: u64,
    file: Option<File>,
    path: Option<PathBuf>,
}

impl OpLog {
    /// A purely in-memory log.
    pub fn memory() -> Self {
        OpLog {
            base: 0,
            entries: Vec::new(),
            byte_len: 0,
            file: None,
            path: None,
        }
    }

    /// Open (or create) a file-backed log at `path`, recovering every
    /// complete entry and truncating a torn tail. A checksum mismatch
    /// anywhere before the tail is corruption, not a crash artifact, and
    /// is reported as an error. Both legacy headerless files and
    /// compacted files (v2 header carrying the base index) are readable.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, BdError> {
        // A leftover `.tmp` is a compaction that died pre-rename; the
        // real file is intact, so the tmp is garbage.
        std::fs::remove_file(tmp_path(path.as_ref())).ok();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut durable = 0usize;
        let mut base = 0u64;
        if bytes.starts_with(OPLOG_V2_MAGIC) {
            base = Cursor::new(&bytes[OPLOG_V2_MAGIC.len()..]).u64()?;
            durable = 16;
        }
        let mut entries = Vec::new();
        let mut rest = &bytes[durable..];
        let mut payload = Vec::new();
        while read_frame(&mut rest, (bytes.len() - durable) as u64, &mut payload)? {
            durable += FRAME_HEADER + payload.len();
            entries.push(std::mem::take(&mut payload));
        }
        if durable < bytes.len() {
            file.set_len(durable as u64)?;
        }
        file.seek(SeekFrom::Start(durable as u64))?;
        Ok(OpLog {
            base,
            byte_len: entries
                .iter()
                .map(|e| (FRAME_HEADER + e.len()) as u64)
                .sum(),
            entries,
            file: Some(file),
            path: Some(path.as_ref().to_path_buf()),
        })
    }

    /// Append one entry, returning its index. File-backed logs write
    /// through immediately (an entry is either fully framed or torn, never
    /// silently reordered).
    pub fn append(&mut self, entry: &[u8]) -> Result<u64, BdError> {
        if let Some(file) = &mut self.file {
            let mut frame = vec![0u8; FRAME_HEADER];
            frame.extend_from_slice(entry);
            seal_frame(&mut frame)?;
            file.write_all(&frame)?;
        }
        self.byte_len += (FRAME_HEADER + entry.len()) as u64;
        self.entries.push(entry.to_vec());
        Ok(self.base + self.entries.len() as u64 - 1)
    }

    /// Number of entries ever appended (compacted entries still count:
    /// indices are never renumbered).
    pub fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// True when no entry has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the first retained entry; entries below it were
    /// compacted away and read as `None`.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total frame bytes of retained entries — the live on-disk weight a
    /// `stats` surface reports.
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Entry `index`, if present and not compacted away.
    pub fn entry(&self, index: u64) -> Option<&[u8]> {
        index
            .checked_sub(self.base)
            .and_then(|i| self.entries.get(i as usize))
            .map(Vec::as_slice)
    }

    /// All retained entries in append order.
    pub fn entries(&self) -> impl Iterator<Item = &[u8]> {
        self.entries.iter().map(Vec::as_slice)
    }

    /// Discard every entry with index `< upto` (keeping indices stable).
    /// File-backed logs rewrite themselves as a compacted v2 file via
    /// tmp+rename: a crash mid-compaction leaves the original intact (the
    /// stale tmp is swept on the next open). Returns the number of
    /// entries discarded.
    pub fn truncate_prefix(&mut self, upto: u64) -> Result<u64, BdError> {
        let upto = upto.min(self.len());
        if upto <= self.base {
            return Ok(0);
        }
        let drop = (upto - self.base) as usize;
        self.entries.drain(..drop);
        self.base = upto;
        self.byte_len = self
            .entries
            .iter()
            .map(|e| (FRAME_HEADER + e.len()) as u64)
            .sum();
        if let Some(path) = &self.path {
            let mut bytes = Vec::with_capacity(16 + self.byte_len as usize);
            bytes.extend_from_slice(OPLOG_V2_MAGIC);
            bytes.extend_from_slice(&self.base.to_le_bytes());
            for entry in &self.entries {
                let start = bytes.len();
                bytes.resize(start + FRAME_HEADER, 0);
                bytes.extend_from_slice(entry);
                seal_frame(&mut bytes[start..])?;
            }
            replace(path, &bytes, Durability::PowerLoss)?;
            let mut file = OpenOptions::new().read(true).write(true).open(path)?;
            file.seek(SeekFrom::End(0))?;
            self.file = Some(file);
        }
        Ok(drop as u64)
    }

    /// Sync the file backing (no-op in memory mode).
    pub fn sync(&mut self) -> Result<(), BdError> {
        if let Some(file) = &mut self.file {
            file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ebc_oplog_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.wal", std::process::id()))
    }

    #[test]
    fn memory_log_appends_and_reads() {
        let mut log = OpLog::memory();
        assert!(log.is_empty());
        assert_eq!(log.append(b"alpha").unwrap(), 0);
        assert_eq!(log.append(b"beta").unwrap(), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(1), Some(&b"beta"[..]));
        assert_eq!(log.entry(2), None);
        let all: Vec<_> = log.entries().collect();
        assert_eq!(all, vec![&b"alpha"[..], &b"beta"[..]]);
    }

    #[test]
    fn file_log_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two words").unwrap();
            log.append(b"").unwrap(); // empty entries are legal
            log.sync().unwrap();
        }
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.entry(0), Some(&b"one"[..]));
        assert_eq!(log.entry(2), Some(&b""[..]));
        // appending after reopen continues the sequence
        assert_eq!(log.append(b"four").unwrap(), 3);
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"keep me").unwrap();
            log.append(b"doomed").unwrap();
        }
        // chop the final entry mid-payload
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entry(0), Some(&b"keep me"[..]));
        // the truncated file accepts appends at the recovered position
        log.append(b"replacement").unwrap();
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(1), Some(&b"replacement"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_prefix_keeps_indices_stable_across_reopen() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            for i in 0..6u64 {
                log.append(format!("op{i}").as_bytes()).unwrap();
            }
            assert_eq!(log.truncate_prefix(4).unwrap(), 4);
            assert_eq!(log.len(), 6);
            assert_eq!(log.base(), 4);
            assert_eq!(log.entry(3), None);
            assert_eq!(log.entry(4), Some(&b"op4"[..]));
            // appends continue the global numbering
            assert_eq!(log.append(b"op6").unwrap(), 6);
            // truncating below the base is a no-op
            assert_eq!(log.truncate_prefix(2).unwrap(), 0);
        }
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 7);
        assert_eq!(log.base(), 4);
        assert_eq!(log.entry(5), Some(&b"op5"[..]));
        assert_eq!(log.entry(0), None);
        assert!(log.byte_len() > 0);
        // a second compaction over a compacted file
        log.truncate_prefix(7).unwrap();
        assert!(log.entries().next().is_none());
        assert_eq!(log.append(b"op7").unwrap(), 7);
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 8);
        assert_eq!(log.entry(7), Some(&b"op7"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_log_truncates_prefix_too() {
        let mut log = OpLog::memory();
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        log.truncate_prefix(1).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.entry(0), None);
        assert_eq!(log.entry(1), Some(&b"b"[..]));
        assert!(!log.is_empty());
    }

    #[test]
    fn stale_compaction_tmp_is_swept_on_open() {
        let path = tmp("stale_tmp");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"survivor").unwrap();
        }
        // a compaction that died pre-rename leaves a tmp next door
        std::fs::write(tmp_path(&path), b"half written").unwrap();
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entry(0), Some(&b"survivor"[..]));
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let mut log = OpLog::open(&path).unwrap();
            log.append(b"first entry").unwrap();
            log.append(b"second entry").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0x20; // flip a payload byte of entry 0
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(OpLog::open(&path), Err(BdError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
