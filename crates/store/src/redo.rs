//! The record store's cell-delta redo log (`<path>.redo`).
//!
//! [`crate::DiskBdStore`] writes records in place and un-synced. What makes
//! a flushed update survive power loss is this log: every `update_batch` /
//! `update_with` call appends one frame naming the cells it changed, and
//! `flush()` syncs the log instead of the data file. `open()` replays the
//! frames over whatever in-place pages survived. DESIGN.md §7 "Redo log"
//! has the contract and the crash matrix.
//!
//! Frames use the store's one `len · fnv1a64 · payload` framing and
//! torn-tail rule (`seal::read_frame`). The payload:
//!
//! ```text
//! cap    u64 LE   slab capacity the frame was written under
//! count  u64 LE   source count the frame was written under
//! nsrc   u32 LE   entries that follow
//! entry: source u32 LE · ncells u32 LE · body
//!   ncells = u32::MAX   body is the whole encoded record (stride bytes)
//!   otherwise           body is ncells × (v u32 · d u32 · σ u64 · δ f64)
//! ```
//!
//! Cells hold absolute values, so replaying a frame twice, or over a data
//! file that already holds its writes, changes nothing. Only one frame is
//! ever in memory, on either path.

use crate::seal::{read_frame, seal_frame, suffixed, FRAME_HEADER};
use ebc_core::bd::{BdError, BdResult};
use ebc_graph::{Cursor, VertexId};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of one logged cell.
const CELL_BYTES: usize = 4 + 4 + 8 + 8;
/// `ncells` value marking a whole-record entry.
const WHOLE_RECORD: u32 = u32::MAX;
/// Offset of `nsrc` inside a frame under construction.
const NSRC_AT: usize = FRAME_HEADER + 16;
/// An update whose frame passes this size continues in a fresh frame, which
/// bounds the frame buffer (and keeps `len` inside its `u32`) at any graph
/// size. Below it one update is one frame: 135 KB at n = 400.
const FRAME_SPLIT_BYTES: usize = 4 << 20;

/// Path of the redo log of the data file at `path`.
pub(crate) fn redo_path(path: &Path) -> PathBuf {
    suffixed(path, ".redo")
}

fn corrupt(msg: &str) -> BdError {
    BdError::Corrupt(format!("redo log: {msg}"))
}

/// One source's share of a frame, as replay hands it to the store.
pub(crate) enum RedoEntry<'a> {
    /// The cells the update wrote; iterate with [`cells`].
    Cells(&'a [u8]),
    /// The whole encoded record.
    Record(&'a [u8]),
}

/// Decode the `(v, d, σ, δ)` cells of a [`RedoEntry::Cells`] body.
pub(crate) fn cells(body: &[u8]) -> impl Iterator<Item = (VertexId, u32, u64, f64)> + '_ {
    body.chunks_exact(CELL_BYTES).filter_map(|c| {
        let mut cur = Cursor::new(c);
        let (v, d, sigma) = (cur.u32().ok()?, cur.u32().ok()?, cur.u64().ok()?);
        Some((v, d, sigma, f64::from_bits(cur.u64().ok()?)))
    })
}

/// Append side and replay side of one store's `<path>.redo`.
pub(crate) struct RedoLog {
    file: File,
    /// Bytes in the file.
    len: u64,
    /// Frames were appended since the last sync.
    unsynced: bool,
    /// The frame under construction (header reserved, reused across
    /// updates); empty between updates.
    frame: Vec<u8>,
    /// Geometry, entry count and appended bytes of the update being logged.
    cap: u64,
    count: u64,
    nsrc: u32,
    written: u64,
}

impl RedoLog {
    /// Open the log next to `path`, creating it if missing; `fresh` empties
    /// one a previous incarnation left behind.
    pub(crate) fn open(path: &Path, fresh: bool) -> BdResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(fresh)
            .open(redo_path(path))?;
        let len = file.metadata()?.len();
        Ok(RedoLog {
            file,
            len,
            unsynced: false,
            frame: Vec::new(),
            cap: 0,
            count: 0,
            nsrc: 0,
            written: 0,
        })
    }

    /// Bytes of frames in the log.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Start logging one update on a store of this geometry.
    pub(crate) fn begin(&mut self, cap: usize, count: usize) {
        (self.cap, self.count) = (cap as u64, count as u64);
        self.written = 0;
        self.start_frame();
    }

    fn start_frame(&mut self) {
        self.frame.clear();
        self.frame.resize(FRAME_HEADER, 0);
        self.frame.extend_from_slice(&self.cap.to_le_bytes());
        self.frame.extend_from_slice(&self.count.to_le_bytes());
        self.frame.extend_from_slice(&0u32.to_le_bytes());
        self.nsrc = 0;
    }

    /// Log the cells `wrote` of source `s`, read from its decoded record.
    pub(crate) fn push_cells(
        &mut self,
        s: VertexId,
        wrote: &[VertexId],
        d: &[u32],
        sigma: &[u64],
        delta: &[f64],
    ) -> BdResult<()> {
        self.frame.reserve(8 + wrote.len() * CELL_BYTES);
        self.frame.extend_from_slice(&s.to_le_bytes());
        self.frame
            .extend_from_slice(&(wrote.len() as u32).to_le_bytes());
        for &v in wrote {
            let i = v as usize;
            self.frame.extend_from_slice(&v.to_le_bytes());
            self.frame.extend_from_slice(&d[i].to_le_bytes());
            self.frame.extend_from_slice(&sigma[i].to_le_bytes());
            self.frame.extend_from_slice(&delta[i].to_le_bytes());
        }
        self.pushed()
    }

    /// Log source `s`'s whole encoded record.
    pub(crate) fn push_record(&mut self, s: VertexId, record: &[u8]) -> BdResult<()> {
        self.frame.extend_from_slice(&s.to_le_bytes());
        self.frame.extend_from_slice(&WHOLE_RECORD.to_le_bytes());
        self.frame.extend_from_slice(record);
        self.pushed()
    }

    fn pushed(&mut self) -> BdResult<()> {
        self.nsrc += 1;
        if self.frame.len() >= FRAME_SPLIT_BYTES {
            self.append_frame()?;
            self.start_frame();
        }
        Ok(())
    }

    /// Seal and append the frame under construction, if it has entries.
    fn append_frame(&mut self) -> BdResult<()> {
        if self.nsrc > 0 {
            self.frame[NSRC_AT..NSRC_AT + 4].copy_from_slice(&self.nsrc.to_le_bytes());
            seal_frame(&mut self.frame)?;
            self.file.write_all_at(&self.frame, self.len)?;
            self.len += self.frame.len() as u64;
            self.written += self.frame.len() as u64;
            self.unsynced = true;
        }
        self.frame.clear();
        self.nsrc = 0;
        Ok(())
    }

    /// End the update: append its frame (nothing, if it pushed no entry)
    /// and return the bytes the update added to the log. Not synced: see
    /// [`RedoLog::sync`].
    pub(crate) fn commit(&mut self) -> BdResult<u64> {
        self.append_frame()?;
        Ok(self.written)
    }

    /// Make every appended frame durable.
    pub(crate) fn sync(&mut self) -> BdResult<()> {
        if self.unsynced {
            self.file.sync_data()?;
            self.unsynced = false;
        }
        Ok(())
    }

    /// Empty the log, durably: a truncation that power loss undid would let
    /// the next frames land inside the resurrected old ones.
    pub(crate) fn truncate(&mut self) -> BdResult<()> {
        if self.len != 0 {
            self.file.set_len(0)?;
            self.file.sync_data()?;
            self.len = 0;
            self.unsynced = false;
        }
        Ok(())
    }

    /// Hand every entry of every complete frame, in order, to `apply`.
    /// Each frame is checksum-verified before any of it is parsed, and must
    /// have been written under this `(cap, count)` geometry, whose records
    /// are `stride` bytes. Returns the number of frames replayed; a torn
    /// tail ends the replay without error.
    pub(crate) fn replay(
        &mut self,
        cap: usize,
        count: usize,
        stride: usize,
        apply: &mut dyn FnMut(VertexId, RedoEntry<'_>) -> BdResult<()>,
    ) -> BdResult<u64> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut reader = BufReader::new(&self.file);
        let mut payload = std::mem::take(&mut self.frame);
        let (mut pos, mut frames) = (0u64, 0u64);
        while read_frame(&mut reader, self.len - pos, &mut payload)? {
            pos += (FRAME_HEADER + payload.len()) as u64;
            let mut cur = Cursor::new(&payload);
            if (cur.u64()?, cur.u64()?) != (cap as u64, count as u64) {
                return Err(corrupt("frame was written under another store geometry"));
            }
            for _ in 0..cur.u32()? {
                let s = cur.u32()?;
                let entry = match cur.u32()? {
                    WHOLE_RECORD => RedoEntry::Record(cur.take(stride)?),
                    ncells => {
                        let bytes = (ncells as usize)
                            .checked_mul(CELL_BYTES)
                            .ok_or_else(|| corrupt("cell count overflows"))?;
                        RedoEntry::Cells(cur.take(bytes)?)
                    }
                };
                apply(s, entry)?;
            }
            cur.finish()?;
            frames += 1;
        }
        payload.clear();
        self.frame = payload;
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ebc_redo_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.bd", std::process::id()))
    }

    type Seen = Vec<(VertexId, Vec<(VertexId, u32, u64, f64)>, usize)>;

    fn replay_all(log: &mut RedoLog, cap: usize, count: usize, stride: usize) -> BdResult<Seen> {
        let mut seen = Seen::new();
        log.replay(cap, count, stride, &mut |s, e| {
            match e {
                RedoEntry::Cells(b) => seen.push((s, cells(b).collect(), 0)),
                RedoEntry::Record(r) => seen.push((s, Vec::new(), r.len())),
            }
            Ok(())
        })?;
        Ok(seen)
    }

    #[test]
    fn frames_round_trip_and_empty_updates_append_nothing() {
        let path = tmp("roundtrip");
        let mut log = RedoLog::open(&path, true).unwrap();
        log.begin(10, 3);
        assert_eq!(log.commit().unwrap(), 0, "an update that wrote nothing");
        assert_eq!(log.len(), 0);
        log.begin(10, 3);
        let (d, sigma, delta) = (vec![7u32; 10], vec![9u64; 10], vec![-0.5f64; 10]);
        log.push_cells(4, &[1, 8], &d, &sigma, &delta).unwrap();
        log.push_record(2, &[0xAB; 200]).unwrap();
        let written = log.commit().unwrap();
        assert_eq!(
            written as usize,
            FRAME_HEADER + 20 + (8 + 2 * CELL_BYTES) + (8 + 200)
        );
        drop(log);
        let mut log = RedoLog::open(&path, false).unwrap();
        assert_eq!(log.len(), written);
        let seen = replay_all(&mut log, 10, 3, 200).unwrap();
        assert_eq!(
            seen,
            vec![
                (4, vec![(1, 7, 9, -0.5), (8, 7, 9, -0.5)], 0),
                (2, vec![], 200)
            ]
        );
        // foreign geometry is corruption, never a silent patch
        assert!(matches!(
            replay_all(&mut log, 11, 3, 200),
            Err(BdError::Corrupt(_))
        ));
        assert!(matches!(
            replay_all(&mut log, 10, 4, 200),
            Err(BdError::Corrupt(_))
        ));
        log.truncate().unwrap();
        assert_eq!(replay_all(&mut log, 10, 3, 200).unwrap(), vec![]);
        std::fs::remove_file(redo_path(&path)).ok();
    }

    #[test]
    fn an_oversized_update_spans_frames() {
        let path = tmp("split");
        let mut log = RedoLog::open(&path, true).unwrap();
        let record = vec![0x5A; 1 << 20];
        log.begin(7, 5);
        for s in 0..5 {
            log.push_record(s, &record).unwrap();
        }
        let written = log.commit().unwrap();
        assert_eq!(written, log.len(), "commit reports both frames' bytes");
        assert_eq!(
            written as usize,
            2 * (FRAME_HEADER + 20) + 5 * (8 + record.len())
        );
        let mut frames_of = Vec::new();
        let frames = log
            .replay(7, 5, record.len(), &mut |s, _| {
                frames_of.push(s);
                Ok(())
            })
            .unwrap();
        assert_eq!((frames, frames_of), (2, vec![0, 1, 2, 3, 4]));
        std::fs::remove_file(redo_path(&path)).ok();
    }

    #[test]
    fn lying_entry_lengths_are_corrupt_not_a_panic() {
        let path = tmp("lying");
        let mut log = RedoLog::open(&path, true).unwrap();
        log.begin(4, 1);
        log.push_cells(0, &[1], &[0; 4], &[0; 4], &[0.0; 4])
            .unwrap();
        // claim far more cells than the frame holds, then reseal so the
        // checksum still passes
        let at = NSRC_AT + 4 + 4;
        log.frame[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        log.commit().unwrap();
        assert!(matches!(
            replay_all(&mut log, 4, 1, 80),
            Err(BdError::Corrupt(_))
        ));
        std::fs::remove_file(redo_path(&path)).ok();
    }
}
