//! The record store's cell-delta redo log (`<path>.redo`).
//!
//! [`crate::DiskBdStore`] writes records in place and un-synced. What makes
//! a flushed update survive power loss is this log: every `update_batch`
//! call appends one frame naming the cells it changed, and `flush()` syncs
//! the log instead of the data file. `open()` replays the frames over
//! whatever in-place pages survived. DESIGN.md §7 "Redo log" has the
//! contract and the crash matrix.
//!
//! Frames use the store's one `len · fnv1a64 · payload` framing and
//! torn-tail rule (`seal::read_frame`). The payload:
//!
//! ```text
//! cap    u64 LE   slab capacity the frame was written under
//! count  u64 LE   source count the frame was written under
//! nsrc   u32 LE   entries that follow
//! entry: source u32 LE · ncells u32 LE · ncells × (v u32 · d u32 · σ u64 · δ f64)
//! ```
//!
//! Cells hold absolute values, so replaying a frame twice, or over a data
//! file that already holds its writes, changes nothing. Only one frame is
//! ever in memory, on either path.

use crate::codec::Cell;
use crate::seal::{read_frame, seal_frame, suffixed, FRAME_HEADER};
use ebc_core::bd::BdResult;
use ebc_graph::Error;
use ebc_graph::{Cursor, VertexId};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of one logged cell.
const CELL_BYTES: usize = 4 + 4 + 8 + 8;
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

fn corrupt(msg: &str) -> Error {
    Error::corrupt(format!("redo log: {msg}"))
}

/// Decode the `(v, d, σ, δ)` cells of one entry's body.
pub(crate) fn cells(body: &[u8]) -> impl Iterator<Item = Cell> + '_ {
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

    /// Log source `s`'s changed cells, each `(v, d, σ, δ)` as [`cells`]
    /// hands it back.
    pub(crate) fn push_cells(
        &mut self,
        s: VertexId,
        cells: impl ExactSizeIterator<Item = Cell>,
    ) -> BdResult<()> {
        self.frame.reserve(8 + cells.len() * CELL_BYTES);
        self.frame.extend_from_slice(&s.to_le_bytes());
        self.frame
            .extend_from_slice(&(cells.len() as u32).to_le_bytes());
        for (v, d, sigma, delta) in cells {
            self.frame.extend_from_slice(&v.to_le_bytes());
            self.frame.extend_from_slice(&d.to_le_bytes());
            self.frame.extend_from_slice(&sigma.to_le_bytes());
            self.frame.extend_from_slice(&delta.to_le_bytes());
        }
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

    /// Hand every entry of every complete frame, in order, to `apply` as
    /// its source and its cells' bytes (iterate with [`cells`]). Each frame
    /// is checksum-verified before any of it is parsed, and must have been
    /// written under this `(cap, count)` geometry. Returns the number of
    /// frames replayed; a torn tail ends the replay without error.
    pub(crate) fn replay(
        &mut self,
        cap: usize,
        count: usize,
        apply: &mut dyn FnMut(VertexId, &[u8]) -> BdResult<()>,
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
                let bytes = (cur.u32()? as usize)
                    .checked_mul(CELL_BYTES)
                    .ok_or_else(|| corrupt("cell count overflows"))?;
                apply(s, cur.take(bytes)?)?;
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
    use ebc_graph::ErrorKind;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ebc_redo_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.bd", std::process::id()))
    }

    type Seen = Vec<(VertexId, Vec<(VertexId, u32, u64, f64)>)>;

    fn replay_all(log: &mut RedoLog, cap: usize, count: usize) -> BdResult<Seen> {
        let mut seen = Seen::new();
        log.replay(cap, count, &mut |s, body| {
            seen.push((s, cells(body).collect()));
            Ok(())
        })?;
        Ok(seen)
    }

    #[test]
    fn fnv_is_stable() {
        // pin the checksum function: every frame and sealed file an older
        // build wrote is checked with it, so it must never change
        use ebc_graph::fnv1a64;
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"EBCBD3\n"), fnv1a64(b"EBCBD3\n"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn frames_round_trip_and_empty_updates_append_nothing() {
        let path = tmp("roundtrip");
        let mut log = RedoLog::open(&path, true).unwrap();
        log.begin(10, 3);
        assert_eq!(log.commit().unwrap(), 0, "an update that wrote nothing");
        assert_eq!(log.len(), 0);
        log.begin(10, 3);
        let cell = |v| (v, 7, 9, -0.5);
        log.push_cells(4, [1, 8].map(cell).into_iter()).unwrap();
        log.push_cells(2, [cell(3)].into_iter()).unwrap();
        let written = log.commit().unwrap();
        assert_eq!(
            written as usize,
            FRAME_HEADER + 20 + (8 + 2 * CELL_BYTES) + (8 + CELL_BYTES)
        );
        drop(log);
        let mut log = RedoLog::open(&path, false).unwrap();
        assert_eq!(log.len(), written);
        let seen = replay_all(&mut log, 10, 3).unwrap();
        assert_eq!(
            seen,
            vec![
                (4, vec![(1, 7, 9, -0.5), (8, 7, 9, -0.5)]),
                (2, vec![(3, 7, 9, -0.5)])
            ]
        );
        // foreign geometry is corruption, never a silent patch
        assert!(matches!(
            replay_all(&mut log, 11, 3),
            Err(e) if e.kind() == ErrorKind::Corrupt
        ));
        assert!(matches!(
            replay_all(&mut log, 10, 4),
            Err(e) if e.kind() == ErrorKind::Corrupt
        ));
        log.truncate().unwrap();
        assert_eq!(replay_all(&mut log, 10, 3).unwrap(), vec![]);
        std::fs::remove_file(redo_path(&path)).ok();
    }

    #[test]
    fn an_oversized_update_spans_frames() {
        let path = tmp("split");
        let mut log = RedoLog::open(&path, true).unwrap();
        // five sources of 2^16 cells each: 1.5 MiB of cells per entry
        let n = 1 << 16;
        log.begin(7, 5);
        for s in 0..5 {
            log.push_cells(s, (0..n as VertexId).map(|v| (v, 1, 2, 0.5)))
                .unwrap();
        }
        let written = log.commit().unwrap();
        assert_eq!(written, log.len(), "commit reports both frames' bytes");
        assert_eq!(
            written as usize,
            2 * (FRAME_HEADER + 20) + 5 * (8 + n * CELL_BYTES)
        );
        let mut frames_of = Vec::new();
        let frames = log
            .replay(7, 5, &mut |s, _| {
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
        log.push_cells(0, [(1, 0, 0, 0.0)].into_iter()).unwrap();
        // claim far more cells than the frame holds, then reseal so the
        // checksum still passes
        let at = NSRC_AT + 4 + 4;
        log.frame[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        log.commit().unwrap();
        assert!(matches!(
            replay_all(&mut log, 4, 1),
            Err(e) if e.kind() == ErrorKind::Corrupt
        ));
        // `ncells = u32::MAX` outruns every frame too
        log.truncate().unwrap();
        log.begin(4, 1);
        log.push_cells(0, [(1, 0, 0, 0.0)].into_iter()).unwrap();
        log.frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        log.commit().unwrap();
        assert!(matches!(
            replay_all(&mut log, 4, 1),
            Err(e) if e.kind() == ErrorKind::Corrupt
        ));
        std::fs::remove_file(redo_path(&path)).ok();
    }
}
