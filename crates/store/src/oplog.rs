//! Append-only, checksummed operation log on one file.
//!
//! The session's history WAL (`history.wal`) and the coordinator journal
//! (`coord.oplog`) are op logs. Each entry is persisted as one
//! `len · fnv1a64 · entry` frame, the store's one framing (DESIGN.md §7
//! "Durable artefacts"), and a torn tail is truncated on reopen: a
//! half-written final entry is indistinguishable from "the op never
//! arrived", which both readers tolerate: both journals are write-ahead,
//! so a session never ran a torn history entry's update, and a resumed
//! coordinator re-drives its last journaled one.

use crate::seal::{read_frame, replace, seal_frame, tmp_path, Durability, FRAME_HEADER};
use crate::Error;
use ebc_graph::Cursor;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header of a compacted op-log file: the 8-byte tag followed by
/// the base index (`u64` LE) of the first retained entry. A file that was
/// never compacted has no header and base 0.
const OPLOG_MAGIC: &[u8; 8] = b"EBCOPLG2";

/// Append-only, file-backed log of opaque entries.
///
/// Retained entries are kept resident for [`OpLog::entries`].
/// [`OpLog::truncate_prefix`] discards a durable prefix — e.g. history
/// entries a sealed segment already covers — without renumbering:
/// indices are forever and `len()` keeps counting from 0.
#[derive(Debug)]
pub struct OpLog {
    /// Index of the first retained entry (entries `0..base` were
    /// compacted away).
    base: u64,
    entries: Vec<Vec<u8>>,
    /// Total frame bytes of retained entries (excluding any header).
    byte_len: u64,
    file: File,
    path: PathBuf,
}

impl OpLog {
    /// Open (or create) a file-backed log at `path`, recovering every
    /// complete entry and truncating a torn tail. A checksum mismatch
    /// anywhere before the tail is corruption, not a crash artifact, and
    /// is reported as an error. Both never-compacted headerless files and
    /// compacted files (header carrying the base index) are readable.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, Error> {
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
        if bytes.starts_with(OPLOG_MAGIC) {
            base = Cursor::new(&bytes[OPLOG_MAGIC.len()..]).u64()?;
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
            file,
            path: path.as_ref().to_path_buf(),
        })
    }

    /// Append one entry, returning its index. The entry is written
    /// through immediately (it is either fully framed or torn, never
    /// silently reordered); [`OpLog::sync`] makes it durable.
    pub fn append(&mut self, entry: &[u8]) -> Result<u64, Error> {
        let mut frame = vec![0u8; FRAME_HEADER];
        frame.extend_from_slice(entry);
        seal_frame(&mut frame)?;
        self.file.write_all(&frame)?;
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
    /// compacted away.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total frame bytes of retained entries — the live on-disk weight a
    /// `stats` surface reports.
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// All retained entries in append order.
    pub fn entries(&self) -> impl Iterator<Item = &[u8]> {
        self.entries.iter().map(Vec::as_slice)
    }

    /// Discard every entry with index `< upto` (keeping indices stable).
    /// The file rewrites itself as a compacted one via tmp+rename: a crash
    /// mid-compaction leaves the original intact (the stale tmp is swept
    /// on the next open). Returns the number of entries discarded.
    pub fn truncate_prefix(&mut self, upto: u64) -> Result<u64, Error> {
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
        let mut bytes = Vec::with_capacity(16 + self.byte_len as usize);
        bytes.extend_from_slice(OPLOG_MAGIC);
        bytes.extend_from_slice(&self.base.to_le_bytes());
        for entry in &self.entries {
            let start = bytes.len();
            bytes.resize(start + FRAME_HEADER, 0);
            bytes.extend_from_slice(entry);
            seal_frame(&mut bytes[start..])?;
        }
        replace(&self.path, &bytes, Durability::PowerLoss)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(drop as u64)
    }

    /// Sync the file.
    pub fn sync(&mut self) -> Result<(), Error> {
        Ok(self.file.sync_data()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ebc_oplog_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.wal", std::process::id()))
    }

    /// Retained entry `index`, if not compacted away.
    fn entry(log: &OpLog, index: u64) -> Option<&[u8]> {
        let i = index.checked_sub(log.base())?;
        log.entries().nth(i as usize)
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
        assert_eq!(entry(&log, 0), Some(&b"one"[..]));
        assert_eq!(entry(&log, 2), Some(&b""[..]));
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
        assert_eq!(entry(&log, 0), Some(&b"keep me"[..]));
        // the truncated file accepts appends at the recovered position
        log.append(b"replacement").unwrap();
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(entry(&log, 1), Some(&b"replacement"[..]));
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
            assert_eq!(entry(&log, 3), None);
            assert_eq!(entry(&log, 4), Some(&b"op4"[..]));
            // appends continue the global numbering
            assert_eq!(log.append(b"op6").unwrap(), 6);
            // truncating below the base is a no-op
            assert_eq!(log.truncate_prefix(2).unwrap(), 0);
        }
        let mut log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 7);
        assert_eq!(log.base(), 4);
        assert_eq!(entry(&log, 5), Some(&b"op5"[..]));
        assert_eq!(entry(&log, 0), None);
        assert!(log.byte_len() > 0);
        // a second compaction over a compacted file
        log.truncate_prefix(7).unwrap();
        assert!(log.entries().next().is_none());
        assert_eq!(log.append(b"op7").unwrap(), 7);
        drop(log);
        let log = OpLog::open(&path).unwrap();
        assert_eq!(log.len(), 8);
        assert_eq!(entry(&log, 7), Some(&b"op7"[..]));
        std::fs::remove_file(&path).ok();
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
        assert_eq!(entry(&log, 0), Some(&b"survivor"[..]));
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
        assert!(matches!(OpLog::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
        std::fs::remove_file(&path).ok();
    }
}
