//! The on-disk `BD[·]` store (the paper's *DO* configuration), format v3.
//!
//! One file per store. Layout of the data file (byte-level spec and
//! rationale in DESIGN.md §7):
//!
//! ```text
//! offset  size  field
//!      0     7  magic "EBCBD3\n"
//!      7     1  codec id (see CodecKind::id)
//!      8     8  n     u64 LE — live vertex count
//!     16     8  count u64 LE — committed source count
//!     24     8  cap   u64 LE — slab capacity in vertex slots (cap ≥ n)
//!     32     8  stamp u64 LE — caller-set session stamp (0 = unstamped)
//!     40     —  records: count × stride, stride = 8 + codec.record_size(cap)
//!
//! one record: source id u64 LE, then the body (the d, σ, δ columns)
//! ```
//!
//! Every record body is one *capacity slab*: its three columns (`d`, `σ`,
//! `δ`) are sized by `cap`, not `n`, and the `n..cap` tail of each column
//! holds the canonical empty values (`d = UNREACHABLE`, `σ = 0`, `δ = 0`).
//! While headroom remains, [`BdStore::grow_vertex`] is a single 8-byte
//! header update — O(1) I/O — because slot `n` of every record already
//! decodes to exactly the state a fresh vertex must have. Only when
//! `n == cap` is the file re-slabbed: staged whole in `<path>.tmp` and
//! renamed over the data file.
//!
//! Each record names its source in its 8-byte prefix, so the header's
//! in-place `count` write commits every structural operation:
//! `add_source` appends the record, then raises `count`; `remove_source`
//! writes the moved record's id into the vacated slot, copies its body,
//! lowers `count`, then truncates. [`DiskBdStore::open`] needs two rules
//! (see [`RecoveryAction`]): bytes past `count` records, at most one
//! stride, are a torn append or an unfinished truncate and are dropped; a
//! last record whose id repeats at an earlier slot is a swap-remove cut
//! short, and is finished.
//!
//! The header's codec is the width of every record's cells. A record is
//! read into one row of the memory store's slab type at that width
//! (`codec::Row`), so the update kernel gets the same narrow or wide view
//! a `MemoryBdStore` hands it. A [`CodecKind::Paper`] store re-slabs itself
//! [`CodecKind::Wide`], once, the first time a record or a listed cell does
//! not fit — where the memory store re-strides its slabs — then writes it.
//!
//! Record updates are written in place and un-synced. What
//! [`DiskBdStore::flush`] syncs is `<path>.redo`, a log of the cells each
//! update changed (frame layout in `redo.rs`); [`DiskBdStore::fold`] syncs the
//! data file and empties the log, and [`DiskBdStore::open`] replays it.
//!
//! v3 is the only record format: [`DiskBdStore::open`] refuses any other
//! `EBCBD<k>` generation with a typed `Corrupt` error that names it.

use crate::codec::{store_wide, CodecKind, Row};
use crate::redo::{self, RedoLog};
use crate::seal::{short_read, suffixed, tmp_path};
use ebc_core::bd::{
    check_endpoints, duplicate_source, misshapen, unknown_source, BatchSourceFn, BdResult, BdStore,
    ExportedRecord, ReadFn, Slab, SourceViewMut, Spilled, Wide,
};
use ebc_graph::{seal, unseal, Cursor, Error, FxHashMap, VertexId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic of the one record format this build reads and writes. The byte
/// before the newline is the format generation.
const MAGIC: &[u8; 7] = b"EBCBD3\n";
const HEADER_LEN: u64 = 7 + 1 + 8 + 8 + 8 + 8;
/// Bytes of the source-id prefix in front of every record body.
const ID_LEN: usize = 8;

/// Parsed data-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    codec: CodecKind,
    n: usize,
    count: usize,
    cap: usize,
    stamp: u64,
}

impl Header {
    /// On-disk bytes of one record body (`d`, `σ`, `δ` at `cap` slots).
    fn body_len(&self) -> usize {
        self.codec.record_size(self.cap)
    }

    /// On-disk bytes of one record: its id prefix and its body.
    fn stride(&self) -> usize {
        ID_LEN + self.body_len()
    }

    /// Byte offset of record `slot` (its id prefix).
    fn record_offset(&self, slot: usize) -> u64 {
        HEADER_LEN + (slot * self.stride()) as u64
    }

    /// Byte offset of record `slot`'s body.
    fn body_offset(&self, slot: usize) -> u64 {
        self.record_offset(slot) + ID_LEN as u64
    }

    /// Parse the header at the start of `file`, refusing any geometry whose
    /// records would not fit in a `u64` file length.
    fn read_from(file: &mut File) -> BdResult<Header> {
        let mut raw = Vec::with_capacity(HEADER_LEN as usize);
        file.seek(SeekFrom::Start(0))?;
        Read::by_ref(file).take(HEADER_LEN).read_to_end(&mut raw)?;
        let mut cur = Cursor::new(&raw);
        let magic = cur.take(MAGIC.len())?;
        if magic != MAGIC {
            // another generation of this format (v1 and v2 are retired;
            // nothing newer exists yet): name it instead of mis-reading
            // its bytes
            return Err(Error::corrupt(match *magic {
                [b'E', b'B', b'C', b'B', b'D', k, b'\n'] if k.is_ascii_digit() => format!(
                    "record format v{} is not supported (this build reads v3 only)",
                    k as char
                ),
                _ => "bad magic".into(),
            }));
        }
        let id = cur.u8()?;
        let codec = CodecKind::from_id(id)
            .ok_or_else(|| Error::corrupt(format!("unknown codec id {id}")))?;
        let (n, count, cap, stamp) = (cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?);
        if cap < n {
            return Err(Error::corrupt(format!(
                "slab capacity {cap} below vertex count {n}"
            )));
        }
        // one stride more than `count` records: `open` may find a torn
        // append there
        let end = cap
            .checked_mul(codec.record_size(1) as u64)
            .and_then(|body| body.checked_add(ID_LEN as u64))
            .and_then(|stride| stride.checked_mul(count.checked_add(1)?))
            .and_then(|records| records.checked_add(HEADER_LEN))
            .filter(|&end| usize::try_from(end).is_ok());
        if end.is_none() {
            return Err(Error::corrupt(format!(
                "{count} records of {cap} slots overflow a file length"
            )));
        }
        Ok(Header {
            codec,
            n: n as usize,
            count: count as usize,
            cap: cap as usize,
            stamp,
        })
    }

    /// Write the full header at the start of `file`.
    fn write_to(&self, file: &mut File) -> BdResult<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN as usize);
        buf.extend_from_slice(MAGIC);
        buf.push(self.codec.id());
        buf.extend_from_slice(&(self.n as u64).to_le_bytes());
        buf.extend_from_slice(&(self.count as u64).to_le_bytes());
        buf.extend_from_slice(&(self.cap as u64).to_le_bytes());
        buf.extend_from_slice(&self.stamp.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&buf)?;
        Ok(())
    }
}

/// Byte offsets of the header fields updated in place.
const N_AT: u64 = 8;
const COUNT_AT: u64 = 16;
const STAMP_AT: u64 = 32;

/// Update the header's `u64` field at byte `offset` (one of the `_AT`
/// offsets) in place — a single 8-byte write, atomic under the crash model.
fn write_header_field(file: &File, offset: u64, value: u64) -> BdResult<()> {
    Ok(file.write_all_at(&value.to_le_bytes(), offset)?)
}

/// Remove `path`; a file that is not there is already removed.
fn remove_if_present(path: &Path) -> BdResult<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// What `open()` had to repair. A structural operation commits with the
/// header's one 8-byte `count` write, so each rule below finishes or undoes
/// exactly one operation a kill cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The file held bytes past its `count` records, at most one stride:
    /// an `add_source` whose `count` write never landed (rolled back), or a
    /// `remove_source` that lowered `count` but did not truncate (finished).
    /// They were cut off.
    DroppedTail,
    /// The last record's id repeated at an earlier slot: a `remove_source`
    /// had moved that id into the vacated slot and not yet lowered `count`.
    /// The removal was finished (body copied, `count` lowered, truncated).
    FinishedRemove,
    /// The redo log held frames: every complete one was re-applied to the
    /// records, then the log was folded. `frames` is 0 when all it held
    /// was a torn tail.
    ReplayedRedo {
        /// Complete frames applied.
        frames: u64,
    },
}

const EXPORT_MAGIC: &[u8; 8] = b"EBCEXP2\n";

/// Path of the export journal [`BdStore::export_source`] writes for source
/// `s` of the data file at `path` (`<path>.exp<s>`).
fn export_path(path: &Path, s: VertexId) -> PathBuf {
    suffixed(path, &format!(".exp{s}"))
}

/// Parse an export journal file: the tag journaled with the export (an
/// opaque caller token; the sharded layer stores the recipient shard id)
/// and the serialized record of one source mid-handoff, durable from
/// before the donor removed it until the handoff committed (see DESIGN.md
/// §8).
///
/// `<path>.exp<s>` is a sealed record (magic `EBCEXP2\n`) whose payload is,
/// little-endian: codec id `u8`, source `u32`, tag `u64`, `n: u64` (the
/// live vertex count at export time), then one record body of `n` slots at
/// that codec's width. Returns `Ok(None)` when the file fails to unseal —
/// by write ordering a torn journal proves the guarded export never began,
/// so callers discard it. A journal that unseals but does not parse is
/// `Corrupt`.
pub fn read_export_journal(path: &Path) -> BdResult<Option<(u64, ExportedRecord)>> {
    let raw = std::fs::read(path)?;
    let Ok(payload) = unseal(EXPORT_MAGIC, &raw) else {
        return Ok(None);
    };
    let mut cur = Cursor::new(payload);
    let id = cur.u8()?;
    let codec = CodecKind::from_id(id)
        .ok_or_else(|| Error::corrupt(format!("export journal names codec {id}")))?;
    let source = cur.u32()?;
    let tag = cur.u64()?;
    let n = cur.count_u64(codec.record_size(1))?;
    let mut row = Row::new(codec, n);
    row.load(cur.take(codec.record_size(n))?);
    cur.finish()?;
    Ok(Some((tag, exported(source, &row, n))))
}

/// The first `n` cells of `row` as source `source`'s record.
fn exported(source: VertexId, row: &Row, n: usize) -> ExportedRecord {
    let mut buf = Slab::default();
    let (d, sigma) = row.cells.wide(0..n, &mut buf);
    ExportedRecord {
        source,
        d: d.to_vec(),
        sigma: sigma.to_vec(),
        delta: row.delta[..n].to_vec(),
    }
}

/// Export journals pending next to the data file at `path`, in ascending
/// source order. Used by the sharded layer's `open()` to resolve handoffs
/// a crash left in flight.
pub fn pending_exports(path: &Path) -> BdResult<Vec<PathBuf>> {
    let parent = path.parent().unwrap_or(Path::new("."));
    let prefix = {
        let mut name = path
            .file_name()
            .ok_or_else(|| Error::corrupt("store path has no file name"))?
            .to_os_string();
        name.push(".exp");
        name.to_string_lossy().into_owned()
    };
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(parent)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(suffix) = name.strip_prefix(&prefix) {
            if let Ok(s) = suffix.parse::<u64>() {
                out.push((s, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|&(s, _)| s);
    Ok(out.into_iter().map(|(_, p)| p).collect())
}

/// Slab sizing rule: headroom of `max(8, n/8)` vertex slots beyond `n`.
/// Geometric headroom keeps `grow_vertex` amortized O(1): at most one
/// re-slab per `Θ(n)` growths, each costing one sequential file rewrite.
pub(crate) fn slab_cap(n: usize) -> usize {
    n + (n / 8).max(8)
}

/// Out-of-core `BD` store: one columnar slab record per source, each
/// prefixed by its source id, updated in place, one record read and write
/// per affected source, with crash recovery (format v3).
pub struct DiskBdStore {
    file: File,
    path: PathBuf,
    n: usize,
    cap: usize,
    stamp: u64,
    order: Vec<VertexId>,
    index: FxHashMap<VertexId, usize>,
    recovered: Option<RecoveryAction>,
    redo: RedoLog,
    /// The data file holds un-synced writes the redo log does not cover
    /// (header fields, appended or moved records): the next `flush` must
    /// fold instead of syncing the log.
    unlogged: bool,
    /// The last record read, `cap` cells at the header's codec (which it
    /// is the authority on): the row the kernel runs on.
    row: Row,
    // reusable scratch (the body image, cells the kernel could not write
    // narrow, the callback's written-cell list, a narrow row widened for
    // `read`)
    raw: Vec<u8>,
    spill: Vec<Spilled>,
    wrote: Vec<VertexId>,
    wide: Slab<Wide>,
    /// Record body bytes read from disk (experiment instrumentation;
    /// excludes the fixed-size header and the id prefixes).
    pub bytes_read: u64,
    /// Record body bytes written to disk, in place and to the redo log.
    pub bytes_written: u64,
}

impl DiskBdStore {
    /// Create a fresh v3 store at `path` for records of `n` vertices, its
    /// cells at the start width `codec` ([`DiskBdStore::codec`] shows the
    /// live one), with the default growth headroom
    /// ([`DiskBdStore::capacity`] slots).
    pub fn create<P: AsRef<Path>>(path: P, n: usize, codec: CodecKind) -> BdResult<Self> {
        Self::create_with_capacity(path, n, slab_cap(n), codec)
    }

    /// Create a fresh v3 store with an explicit slab capacity (`cap` is
    /// clamped up to `n`). Useful to control exactly when re-slabbing kicks
    /// in; most callers want [`DiskBdStore::create`].
    pub fn create_with_capacity<P: AsRef<Path>>(
        path: P,
        n: usize,
        cap: usize,
        codec: CodecKind,
    ) -> BdResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let header = Header {
            codec,
            n,
            count: 0,
            cap: cap.max(n),
            stamp: 0,
        };
        header.write_to(&mut file)?;
        // a previous incarnation's staged re-slab and redo frames describe
        // records this file never held
        remove_if_present(&tmp_path(&path))?;
        let redo = RedoLog::open(&path, true)?;
        let mut store = Self::assemble(file, path, header, redo);
        store.unlogged = true;
        Ok(store)
    }

    /// Open an existing store: delete a re-slab's leftover `<path>.tmp`,
    /// validate the header and the file length, read the record ids and
    /// repair what a kill cut short (see [`RecoveryAction`]), then replay
    /// the redo log over the records.
    pub fn open<P: AsRef<Path>>(path: P) -> BdResult<Self> {
        let path = path.as_ref().to_path_buf();
        // a re-slab that died before its rename left the data file whole
        remove_if_present(&tmp_path(&path))?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let header = Header::read_from(&mut file)?;
        let redo = RedoLog::open(&path, false)?;
        let mut store = Self::assemble(file, path, header, redo);
        store.recover(header.count)?;
        // whatever recovery repaired, it wrote un-synced
        store.unlogged = store.recovered.is_some();
        store.replay_redo()?;
        Ok(store)
    }

    /// A store over `file` with no sources listed yet.
    fn assemble(file: File, path: PathBuf, header: Header, redo: RedoLog) -> Self {
        DiskBdStore {
            file,
            path,
            n: header.n,
            cap: header.cap,
            stamp: header.stamp,
            order: Vec::new(),
            index: FxHashMap::default(),
            recovered: None,
            redo,
            unlogged: false,
            row: Row::new(header.codec, header.cap),
            raw: Vec::new(),
            spill: Vec::new(),
            wrote: Vec::new(),
            wide: Slab::default(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// List the `count` committed records' ids, applying `open`'s two
    /// rules on the way: bytes past them, at most one stride, are dropped,
    /// and a last id that repeats an earlier slot's finishes the
    /// swap-remove that moved it there. Anything else out of place — a
    /// short file, a longer tail, an id past `n`, any other repeat — is
    /// `Corrupt`.
    fn recover(&mut self, count: usize) -> BdResult<()> {
        let (len, end) = (self.file.metadata()?.len(), self.record_offset(count));
        if len < end {
            return Err(Error::corrupt(format!(
                "data file too short: {len} < {end}"
            )));
        }
        if len - end > self.stride() as u64 {
            return Err(Error::corrupt(format!(
                "trailing garbage: data file is {len} bytes, header implies {end} \
                 and one torn record at most"
            )));
        }
        if len > end {
            self.file.set_len(end)?;
            self.recovered = Some(RecoveryAction::DroppedTail);
        }
        let mut id = [0u8; ID_LEN];
        for slot in 0..count {
            self.file.read_exact_at(&mut id, self.record_offset(slot))?;
            let s = u64::from_le_bytes(id);
            if s >= self.n as u64 {
                return Err(Error::corrupt(format!(
                    "record {slot} names source {s} of a {}-vertex store",
                    self.n
                )));
            }
            let s = s as VertexId;
            match self.index.get(&s) {
                Some(&at) if slot + 1 == count => {
                    self.copy_body(slot, at)?;
                    write_header_field(&self.file, COUNT_AT, slot as u64)?;
                    self.file.set_len(self.record_offset(slot))?;
                    self.recovered = Some(RecoveryAction::FinishedRemove);
                }
                Some(&at) => {
                    return Err(Error::corrupt(format!(
                        "source {s} stored at slots {at} and {slot}"
                    )))
                }
                None => {
                    self.index.insert(s, slot);
                    self.order.push(s);
                }
            }
        }
        Ok(())
    }

    /// Apply every complete frame of a non-empty redo log to the records,
    /// then fold.
    fn replay_redo(&mut self) -> BdResult<()> {
        if self.redo.len() == 0 {
            return Ok(());
        }
        let header = self.header();
        let n = header.n;
        let mut rec = vec![0u8; header.body_len()];
        let DiskBdStore {
            redo,
            file,
            index,
            row,
            spill,
            ..
        } = self;
        let frames = redo.replay(header.cap, header.count, &mut |s, body| {
            let slot = *index.get(&s).ok_or_else(|| {
                Error::corrupt(format!("redo log names source {s}, which is not stored"))
            })?;
            let off = header.body_offset(slot);
            file.read_exact_at(&mut rec, off)?;
            row.load(&rec);
            for (v, d, sigma, delta) in redo::cells(body) {
                if (v as usize) < n {
                    row.put((v, d, sigma, delta), spill);
                }
                // a store widens before it logs a wide cell, so one that
                // spills was never written by this store
                if v as usize >= n || !spill.is_empty() {
                    spill.clear();
                    return Err(Error::corrupt(format!(
                        "redo log names cell {v} (d = {d}, σ = {sigma}) outside \
                         {n}-vertex {:?} records",
                        header.codec
                    )));
                }
            }
            row.store(&mut rec);
            Ok(file.write_all_at(&rec, off)?)
        })?;
        self.fold()?;
        self.recovered
            .get_or_insert(RecoveryAction::ReplayedRedo { frames });
        Ok(())
    }

    /// The codec in use: the start width until a cell did not fit it,
    /// [`CodecKind::Wide`] from then on.
    pub fn codec(&self) -> CodecKind {
        self.row.codec()
    }

    /// Path of the data file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Slab capacity in vertex slots (`≥ n()`); `grow_vertex` is O(1) I/O
    /// until the live count reaches it.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Remaining O(1) vertex growths before the next re-slab.
    pub fn headroom(&self) -> usize {
        self.cap - self.n
    }

    /// The caller-set stamp in the header (0 when never stamped).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Write `stamp` into the header in place; the next `flush` folds, so
    /// it is durable from then on.
    pub(crate) fn set_stamp(&mut self, stamp: u64) -> BdResult<()> {
        write_header_field(&self.file, STAMP_AT, stamp)?;
        self.stamp = stamp;
        self.unlogged = true;
        Ok(())
    }

    /// What `open()` had to repair, if anything — `None` after a clean
    /// shutdown.
    pub fn last_recovery(&self) -> Option<RecoveryAction> {
        self.recovered
    }

    /// Total on-disk record body bytes (excluding the header and the id
    /// prefixes) — the quantity the paper sizes as `O(n²/p)` per machine
    /// (§5.2). Slab headroom is physical file space and is included.
    pub fn data_bytes(&self) -> u64 {
        (self.order.len() * self.body_len()) as u64
    }

    fn header(&self) -> Header {
        Header {
            codec: self.codec(),
            n: self.n,
            count: self.order.len(),
            cap: self.cap,
            stamp: self.stamp,
        }
    }

    fn body_len(&self) -> usize {
        self.header().body_len()
    }

    fn stride(&self) -> usize {
        self.header().stride()
    }

    #[inline]
    fn record_offset(&self, slot: usize) -> u64 {
        self.header().record_offset(slot)
    }

    #[inline]
    fn body_offset(&self, slot: usize) -> u64 {
        self.header().body_offset(slot)
    }

    fn slot(&self, s: VertexId) -> BdResult<usize> {
        self.index.get(&s).copied().ok_or_else(|| unknown_source(s))
    }

    /// Read record `slot`'s body into the body image and load it into the
    /// row.
    fn read_record(&mut self, slot: usize) -> BdResult<()> {
        let size = self.body_len();
        let off = self.body_offset(slot);
        self.raw.resize(size, 0);
        self.file
            .read_exact_at(&mut self.raw, off)
            .map_err(|e| short_read(e, format_args!("record {slot}")))?;
        self.bytes_read += size as u64;
        self.row.load(&self.raw);
        Ok(())
    }

    /// Copy record `from`'s body over record `to`'s as raw bytes (no decode
    /// round trip: the moved record must stay bit-identical).
    fn copy_body(&mut self, from: usize, to: usize) -> BdResult<()> {
        let (at, to) = (self.body_offset(from), self.body_offset(to));
        self.raw.resize(self.body_len(), 0);
        self.file
            .read_exact_at(&mut self.raw, at)
            .map_err(|e| short_read(e, format_args!("record {from}")))?;
        self.file.write_all_at(&self.raw, to)?;
        Ok(())
    }

    /// Read only the span of slot `slot`'s distance column covering `a`
    /// and `b` — one sequential read, no `σ`/`δ` I/O. This is the paper's
    /// §5.1 skip check ("after loading the distances from disk, we check
    /// the distance for the endpoints"), tightened to the
    /// `[min(a,b), max(a,b)]` span.
    fn peek(&mut self, slot: usize, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        let dw = self.codec().d_width();
        let base = self.body_offset(slot);
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let span = (hi - lo + 1) * dw;
        self.raw.resize(span.max(self.raw.len()), 0);
        self.file
            .read_exact_at(&mut self.raw[..span], base + (lo * dw) as u64)
            .map_err(|e| short_read(e, "distance column"))?;
        self.bytes_read += span as u64;
        for v in [a as usize, b as usize] {
            let at = (v - lo) * dw;
            self.row.load_d(v, &self.raw[at..at + dw]);
        }
        Ok((self.row.cell(a).1, self.row.cell(b).1))
    }

    /// One slot of [`BdStore::update_batch`]: peek the endpoints and,
    /// unless `dd == 0`, read the record into the row, run `f` on the row's
    /// view, then patch and log the cells it listed and write the record
    /// back. A cell the narrow row could not hold re-slabs the file wide
    /// and writes the record whole. Returns whether the peek skipped the
    /// slot.
    fn update_slot(
        &mut self,
        slot: usize,
        u: VertexId,
        v: VertexId,
        f: BatchSourceFn<'_>,
    ) -> BdResult<bool> {
        let (a, b) = self.peek(slot, u, v)?;
        if a == b {
            return Ok(true);
        }
        self.read_record(slot)?;
        let (s, n) = (self.order[slot], self.n);
        self.wrote.clear();
        self.spill.clear();
        f(
            s,
            SourceViewMut {
                cells: self.row.cells.cells_mut(0..n, &mut self.spill),
                delta: &mut self.row.delta[..n],
                wrote: Some(&mut self.wrote),
            },
        )?;
        if self.wrote.is_empty() {
            return Ok(false);
        }
        // a cell past `n` would break the slab invariant on disk and make
        // the logged frame unreplayable: refused before anything is
        // widened, logged or written
        if let Some(&x) = self.wrote.iter().find(|&&x| x as usize >= n) {
            return Err(
                Error::invalid(format!("source {s} wrote cell {x} of a {n}-slot record"))
                    .with_source(s),
            );
        }
        if self.spill.is_empty() {
            self.row.patch(&self.wrote, &mut self.raw);
        } else {
            // the re-slab streams through rows of its own and widens this
            // one, which still holds the kernel's writes
            self.reslab(self.n, CodecKind::Wide, None)?;
            self.row.cells.put_spilled(0..n, &mut self.spill);
            self.raw.resize(self.body_len(), 0);
            self.row.store(&mut self.raw);
        }
        let row = &self.row;
        self.redo
            .push_cells(s, self.wrote.iter().map(|&x| row.cell(x)))?;
        self.file.write_all_at(&self.raw, self.body_offset(slot))?;
        self.bytes_written += self.raw.len() as u64;
        Ok(false)
    }

    /// Append the frame of the update just applied, and fold once the log
    /// has grown to the size of the records it describes, so a replay never
    /// costs more than one pass over the store.
    fn commit_redo(&mut self) -> BdResult<()> {
        self.bytes_written += self.redo.commit()?;
        if self.redo.len() >= self.data_bytes() {
            self.fold()?;
        }
        Ok(())
    }

    /// Fold if the log holds frames. Every structural operation starts
    /// here, so `open`'s repairs never meet a frame written under the
    /// geometry or slot assignment they are about to change.
    fn fold_pending(&mut self) -> BdResult<()> {
        if self.redo.len() > 0 {
            self.fold()?;
        }
        Ok(())
    }

    /// Re-slab (a whole-file rewrite): stream every record into
    /// `<path>.tmp` at `n` vertices and `codec`, sync, rename it over the
    /// data file. The capacity grows only when `n` passes it, so widening
    /// at the same `n` keeps the geometry a redo frame begun before it
    /// names. Record contents are preserved bit-identically in the live
    /// `..n` prefix; the new tail is the canonical empty value. A kill
    /// before the rename leaves the old file whole, and `open` deletes the
    /// staged one.
    fn reslab(&mut self, n: usize, codec: CodecKind, crash: Option<RewriteCrash>) -> BdResult<()> {
        debug_assert!(n >= self.n);
        self.fold_pending()?;
        let cap = if n > self.cap { slab_cap(n) } else { self.cap };
        let to = Header {
            codec,
            n,
            cap,
            ..self.header()
        };
        let staged = tmp_path(&self.path);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&staged)?;
        to.write_to(&mut tmp)?;
        let (from, body_len) = (self.header(), to.body_len());
        // a row of its own at the old width: the store's row may hold a
        // record mid-update
        let mut row = Row::new(from.codec, from.cap);
        let mut raw = vec![0u8; from.body_len()];
        let mut out = vec![0u8; to.stride()];
        for (slot, &s) in self.order.iter().enumerate() {
            self.file
                .read_exact_at(&mut raw, from.body_offset(slot))
                .map_err(|e| short_read(e, format_args!("record {slot}")))?;
            self.bytes_read += raw.len() as u64;
            row.load(&raw);
            row.resize(to.cap);
            out[..ID_LEN].copy_from_slice(&(s as u64).to_le_bytes());
            match to.codec {
                CodecKind::Wide => store_wide(&row, &mut self.wide, &mut out[ID_LEN..]),
                CodecKind::Paper => row.store(&mut out[ID_LEN..]),
            }
            tmp.write_all(&out)?;
            self.bytes_written += body_len as u64;
        }
        tmp.sync_data()?;
        if crash == Some(RewriteCrash::AfterTmp) {
            return Ok(());
        }
        std::fs::rename(&staged, &self.path)?;
        self.file = tmp; // synced above: nothing un-synced carries over
        self.unlogged = false;
        if to.codec == CodecKind::Wide {
            self.row.cells.restride();
        }
        self.row.resize(to.cap);
        (self.n, self.cap) = (to.n, to.cap);
        Ok(())
    }

    /// The power-loss durability point: every update applied before this
    /// call survives losing any un-synced page. Syncs the redo log, which
    /// names the cells those updates changed, instead of the data file;
    /// folds when the data file holds writes the log does not cover
    /// (sources added or removed, vertices grown).
    pub fn flush(&mut self) -> BdResult<()> {
        if self.unlogged {
            self.fold()
        } else {
            self.redo.sync()
        }
    }

    /// Sync the data file, then empty the redo log. Runs by itself when the
    /// log reaches [`DiskBdStore::data_bytes`] and before every structural
    /// operation (`add_source`, `remove_source`/`export_source`, re-slab).
    pub fn fold(&mut self) -> BdResult<()> {
        self.file.sync_data()?;
        self.redo.truncate()?;
        self.unlogged = false;
        Ok(())
    }
}

impl BdStore for DiskBdStore {
    fn n(&self) -> usize {
        self.n
    }

    fn flush(&mut self) -> BdResult<()> {
        DiskBdStore::flush(self)
    }

    fn sources(&self) -> Vec<VertexId> {
        self.order.clone()
    }

    fn num_sources(&self) -> usize {
        self.order.len()
    }

    /// A wide row is handed over as it lies, a narrow one widened, as
    /// `MemoryBdStore::read` does.
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
        self.read_record(self.slot(s)?)?;
        let n = self.n;
        let (d, sigma) = self.row.cells.wide(0..n, &mut self.wide);
        f(d, sigma, &self.row.delta[..n]);
        Ok(())
    }

    /// Per-record I/O in slot order, which is [`BdStore::sources`] order:
    /// for each slot, peek the endpoint span; unless `dd == 0`, read the
    /// record with one read, run `f`, patch and log the cells it listed and
    /// write the record back with one write. One redo frame covers the
    /// call. A listed cell outside the record is `Invalid`, refused before
    /// its record is written; one the codec cannot hold re-slabs the file
    /// [`CodecKind::Wide`] first.
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64> {
        check_endpoints(u, v, self.n)?;
        self.redo.begin(self.cap, self.order.len());
        let mut skipped = 0;
        for slot in 0..self.order.len() {
            skipped += self.update_slot(slot, u, v, f)? as u64;
        }
        self.commit_redo()?;
        Ok(skipped)
    }

    /// With headroom available this is a single 8-byte header update — slot
    /// `n` of every record already holds `d = ∞, σ = 0, δ = 0` by the slab
    /// invariant — so growth costs O(1) I/O. Only when `n == cap` is the
    /// file re-slabbed at a geometrically larger capacity.
    fn grow_vertex(&mut self) -> BdResult<()> {
        if self.n < self.cap {
            self.n += 1;
            write_header_field(&self.file, N_AT, self.n as u64)?;
            self.unlogged = true;
            return Ok(());
        }
        self.reslab(self.n + 1, self.codec(), None)
    }

    /// Append the record (id prefix, then body), then raise the header's
    /// `count`: that one write commits the add. A source id must name a
    /// live vertex (`s < n`), or `Invalid`. A record with a cell the codec
    /// cannot hold re-slabs the file [`CodecKind::Wide`] first.
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        self.add_source_inner(s, d, sigma, delta, None)
    }

    /// Swap-remove: write the final record's id into the vacated slot, copy
    /// its body there, lower the header's `count` (the commit), truncate.
    /// `open` finishes a removal a kill cut short after its first write.
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        self.remove_source_inner(s, None)
    }

    /// Donor half of a shard handoff: the record (and `tag`) are journaled
    /// durably in `<path>.exp<s>` *before* [`BdStore::remove_source`], so a
    /// kill at any point leaves either the source still owned here or its
    /// full payload recoverable from the journal — never neither.
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        self.export_source_inner(s, tag, None)
    }

    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        remove_if_present(&export_path(&self.path, s))
    }
}

/// Simulated kill points inside `add_source`. Test support for the
/// crash-recovery suite; not part of the stable API — the store must be
/// dropped (like a killed process) after a simulated crash.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddCrash {
    /// Die with the record half-appended (torn payload).
    MidRecord,
    /// Die after the record append, before the header `count` write.
    AfterRecord,
}

/// Simulated kill points inside the re-slab. Test support for the
/// crash-recovery suite.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteCrash {
    /// Die with `<path>.tmp` fully written but not yet renamed.
    AfterTmp,
}

/// Simulated kill points inside `remove_source`. Test support for the
/// crash-recovery suite; the store must be dropped after. On the last
/// slot there is no id to write and no body to copy, so `AfterId` and
/// `AfterBody` die before any write.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveCrash {
    /// Die after the final record's id was written into the vacated slot.
    AfterId,
    /// Die after the final record's body was copied there too.
    AfterBody,
    /// Die after the header `count` write, before the truncate.
    AfterCount,
}

/// Simulated kill points inside `export_source` (the removal sub-steps
/// are covered by [`RemoveCrash`]). Test support.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportCrash {
    /// Die right after the export journal is durable, before the removal.
    AfterJournal,
}

impl DiskBdStore {
    /// [`BdStore::add_source`] with a simulated crash (test support; the
    /// store must be dropped afterwards, like a killed process).
    #[doc(hidden)]
    pub fn add_source_crashing(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
        crash: AddCrash,
    ) -> BdResult<()> {
        self.add_source_inner(s, d, sigma, delta, Some(crash))
    }

    /// [`BdStore::grow_vertex`]'s re-slab path with a simulated crash (test
    /// support; the store must be dropped afterwards).
    #[doc(hidden)]
    pub fn grow_vertex_crashing(&mut self, crash: RewriteCrash) -> BdResult<()> {
        self.reslab(self.n + 1, self.codec(), Some(crash))
    }

    /// The re-slab [`CodecKind::Wide`] that a cell the codec cannot hold
    /// starts, with a simulated crash (test support; the store must be
    /// dropped afterwards).
    #[doc(hidden)]
    pub fn widen_crashing(&mut self, crash: RewriteCrash) -> BdResult<()> {
        self.reslab(self.n, CodecKind::Wide, Some(crash))
    }

    /// [`BdStore::remove_source`] with a simulated crash (test support; the
    /// store must be dropped afterwards, like a killed process).
    #[doc(hidden)]
    pub fn remove_source_crashing(&mut self, s: VertexId, crash: RemoveCrash) -> BdResult<()> {
        self.remove_source_inner(s, Some(crash))
    }

    /// [`BdStore::export_source`] with a simulated crash (test support; the
    /// store must be dropped afterwards).
    #[doc(hidden)]
    pub fn export_source_crashing(
        &mut self,
        s: VertexId,
        tag: u64,
        crash: ExportCrash,
    ) -> BdResult<ExportedRecord> {
        self.export_source_inner(s, tag, Some(crash))
    }

    fn remove_source_inner(&mut self, s: VertexId, crash: Option<RemoveCrash>) -> BdResult<()> {
        let slot = self.slot(s)?;
        self.fold_pending()?;
        self.unlogged = true;
        let last = self.order.len() - 1;
        if slot != last {
            let moved = self.order[last] as u64;
            self.file
                .write_all_at(&moved.to_le_bytes(), self.record_offset(slot))?;
        }
        if crash == Some(RemoveCrash::AfterId) {
            return Ok(());
        }
        if slot != last {
            self.copy_body(last, slot)?;
            let body_len = self.body_len() as u64;
            self.bytes_read += body_len;
            self.bytes_written += body_len;
        }
        if crash == Some(RemoveCrash::AfterBody) {
            return Ok(());
        }
        self.index.remove(&s);
        self.order.swap_remove(slot);
        if let Some(&moved) = self.order.get(slot) {
            self.index.insert(moved, slot);
        }
        write_header_field(&self.file, COUNT_AT, self.order.len() as u64)?;
        if crash == Some(RemoveCrash::AfterCount) {
            return Ok(());
        }
        self.file.set_len(self.record_offset(self.order.len()))?;
        Ok(())
    }

    fn export_source_inner(
        &mut self,
        s: VertexId,
        tag: u64,
        crash: Option<ExportCrash>,
    ) -> BdResult<ExportedRecord> {
        let slot = self.slot(s)?;
        self.read_record(slot)?;
        let (n, codec) = (self.n, self.codec());
        let record = exported(s, &self.row, n);
        let mut payload = Vec::with_capacity(21 + codec.record_size(n));
        payload.push(codec.id());
        payload.extend_from_slice(&s.to_le_bytes());
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        let record_at = payload.len();
        payload.resize(record_at + codec.record_size(n), 0);
        self.row.store(&mut payload[record_at..]);
        // written in place and unstaged: a torn journal fails to unseal,
        // which proves the export never began
        let buf = seal(EXPORT_MAGIC, &payload);
        std::fs::write(export_path(&self.path, s), &buf)?;
        // the journal is record payload leaving through this store: charge
        // it to the write counter so byte accounting stays exact
        self.bytes_written += buf.len() as u64;
        if crash == Some(ExportCrash::AfterJournal) {
            return Ok(record);
        }
        self.remove_source_inner(s, None)?;
        Ok(record)
    }

    fn add_source_inner(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
        crash: Option<AddCrash>,
    ) -> BdResult<()> {
        if self.index.contains_key(&s) {
            return Err(duplicate_source(s));
        }
        if s as usize >= self.n {
            return Err(Error::invalid(format!(
                "source {s} is not a vertex of a {}-vertex store",
                self.n
            ))
            .with_source(s));
        }
        if d.len() != self.n || sigma.len() != self.n || delta.len() != self.n {
            return Err(misshapen(s, d.len(), self.n));
        }
        self.fold_pending()?;
        if !self.row.cells.holds(&d, &sigma) {
            self.reslab(self.n, CodecKind::Wide, None)?;
        }
        self.unlogged = true;
        // stage the record: the id, then the slab body — the new arrays,
        // each exactly `n` long, then the canonical empty tail
        self.row.assign(&d, &sigma, &delta);
        let stride = self.stride();
        self.raw.resize(stride, 0);
        self.raw[..ID_LEN].copy_from_slice(&(s as u64).to_le_bytes());
        self.row.store(&mut self.raw[ID_LEN..]);
        let slot = self.order.len();
        let off = self.record_offset(slot);
        if crash == Some(AddCrash::MidRecord) {
            self.file.write_all_at(&self.raw[..stride / 2], off)?;
            return Ok(());
        }
        self.file.write_all_at(&self.raw, off)?;
        self.bytes_written += (stride - ID_LEN) as u64;
        if crash == Some(AddCrash::AfterRecord) {
            return Ok(());
        }
        self.index.insert(s, slot);
        self.order.push(s);
        write_header_field(&self.file, COUNT_AT, self.order.len() as u64)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::{ErrorKind, UNREACHABLE};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ebc_store_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    type Record = (Vec<u32>, Vec<u64>, Vec<f64>);

    /// Source `s`'s record, read through [`BdStore::read`].
    fn record(st: &mut DiskBdStore, s: VertexId) -> BdResult<Record> {
        let mut rec = Record::default();
        st.read(s, &mut |d, sigma, delta| {
            rec = (d.to_vec(), sigma.to_vec(), delta.to_vec());
        })?;
        Ok(rec)
    }

    fn sample_record(n: usize, salt: u64) -> Record {
        let d = (0..n).map(|i| ((i as u64 + salt) % 7) as u32).collect();
        let sigma = (0..n).map(|i| (i as u64 * 3 + salt) % 100 + 1).collect();
        let delta = (0..n).map(|i| (i as f64) * 0.25 + salt as f64).collect();
        (d, sigma, delta)
    }

    #[test]
    fn create_add_read_roundtrip() {
        let path = tmpdir("roundtrip").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 8, CodecKind::Wide).unwrap();
        let (d, s, del) = sample_record(8, 1);
        st.add_source(3, d.clone(), s.clone(), del.clone()).unwrap();
        assert_eq!(record(&mut st, 3).unwrap(), (d, s, del));
    }

    #[test]
    fn peek_reads_only_distance_column() {
        let path = tmpdir("peek").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 16, CodecKind::Wide).unwrap();
        let (mut d, s, del) = sample_record(16, 2);
        d[5] = 42;
        d[11] = UNREACHABLE;
        st.add_source(0, d, s, del).unwrap();
        let before = st.bytes_read;
        assert_eq!(st.peek(0, 5, 11).unwrap(), (42, UNREACHABLE));
        // span of 7 u32 entries, far less than the full 16-vertex record
        assert_eq!(
            st.bytes_read - before,
            28,
            "peek must read only the endpoint span"
        );
        let before = st.bytes_read;
        assert_eq!(st.peek(0, 11, 5).unwrap(), (UNREACHABLE, 42));
        assert_eq!(st.bytes_read - before, 28, "order-insensitive");
    }

    #[test]
    fn dirty_flag_controls_writeback() {
        let path = tmpdir("dirty").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
        let (mut d, s, del) = sample_record(4, 3);
        (d[0], d[1]) = (0, 1);
        st.add_source(1, d, s, del).unwrap();
        let w0 = st.bytes_written;
        st.update_batch(0, 1, &mut |_, view| {
            view.delta[2] = 99.0; // mutate but list nothing: must NOT persist
            Ok(())
        })
        .unwrap();
        assert_eq!(st.bytes_written, w0);
        st.update_batch(0, 1, &mut |_, view| {
            assert_ne!(view.delta[2], 99.0, "an unlisted cell must not persist");
            view.delta[2] = 7.5;
            view.wrote.unwrap().push(2);
            Ok(())
        })
        .unwrap();
        assert!(st.bytes_written > w0);
        assert_eq!(record(&mut st, 1).unwrap().2[2], 7.5);
    }

    #[test]
    fn reopen_preserves_everything() {
        let path = tmpdir("reopen").join("bd.dat");
        {
            let mut st = DiskBdStore::create(&path, 10, CodecKind::Paper).unwrap();
            for src in [4u32, 2, 9] {
                let (d, s, del) = sample_record(10, src as u64);
                st.add_source(src, d, s, del).unwrap();
            }
            st.flush().unwrap();
        }
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.codec(), CodecKind::Paper);
        assert_eq!(st.last_recovery(), None);
        assert_eq!(st.n(), 10);
        assert_eq!(st.sources(), vec![4, 2, 9]);
        assert_eq!(record(&mut st, 2).unwrap(), sample_record(10, 2));
    }

    #[test]
    fn grow_vertex_with_headroom_is_o1_io() {
        let path = tmpdir("grow").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 3, CodecKind::Wide).unwrap();
        assert!(st.headroom() >= 8);
        let (d, s, del) = sample_record(3, 5);
        st.add_source(0, d, s, del).unwrap();
        let written = st.bytes_written;
        let read = st.bytes_read;
        st.grow_vertex().unwrap();
        assert_eq!(st.n(), 4);
        assert_eq!(
            st.bytes_written, written,
            "in-headroom growth must not touch any record"
        );
        assert_eq!(st.bytes_read, read);
        assert_eq!(st.peek(0, 3, 0).unwrap().0, UNREACHABLE);
        let (d, sigma, delta) = record(&mut st, 0).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!((d[3], sigma[3], delta[3]), (UNREACHABLE, 0, 0.0));
    }

    #[test]
    fn exhausted_headroom_reslabs_and_preserves_records() {
        let path = tmpdir("reslab").join("bd.dat");
        let mut st = DiskBdStore::create_with_capacity(&path, 3, 4, CodecKind::Wide).unwrap();
        let (d, s, del) = sample_record(3, 5);
        st.add_source(2, d.clone(), s.clone(), del.clone()).unwrap();
        st.grow_vertex().unwrap(); // consumes the single headroom slot
        assert_eq!(st.headroom(), 0);
        let written = st.bytes_written;
        st.grow_vertex().unwrap(); // must re-slab
        assert_eq!(st.n(), 5);
        assert!(st.capacity() >= 5 + 8);
        assert!(st.bytes_written > written, "re-slab rewrites records");
        let got = record(&mut st, 2).unwrap();
        assert_eq!(&got.0[..3], &d[..]);
        assert_eq!(&got.1[..3], &s[..]);
        assert_eq!(&got.2[..3], &del[..]);
        assert_eq!(&got.0[3..], &[UNREACHABLE, UNREACHABLE]);
        // reopen sees the re-slabbed file cleanly
        drop(st);
        let st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.n(), 5);
        assert_eq!(st.last_recovery(), None);
    }

    #[test]
    fn update_batch_moves_whole_records_per_source() {
        let path = tmpdir("batch").join("bd.dat");
        let n = 6;
        let mut st = DiskBdStore::create(&path, n, CodecKind::Wide).unwrap();
        // sources 0..5: make endpoint distances differ for all of them
        for s in 0..5u32 {
            let mut d = vec![1u32; n];
            d[0] = 0;
            d[1] = 3;
            st.add_source(s, d, vec![1; n], vec![0.0; n]).unwrap();
        }
        let stride = st.body_len() as u64;
        let (r0, w0) = (st.bytes_read, st.bytes_written);
        let mut seen = Vec::new();
        let skipped = st
            .update_batch(0, 1, &mut |s, view| {
                seen.push(s);
                view.delta[2] = s as f64;
                if s % 2 == 0 {
                    // dirty: slots 0, 2, 4
                    view.wrote.unwrap().push(2);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!((seen, skipped), (vec![0, 1, 2, 3, 4], 0));
        // five whole records read (+ 5 peeks of 8 B)
        assert_eq!(st.bytes_read - r0, 5 * stride + 5 * 8);
        // writes: the three dirty records whole, in place, and one redo
        // frame (12 B framing, 20 B geometry) holding one cell of each
        assert_eq!(st.bytes_written - w0, 3 * stride + 12 + 20 + 3 * (8 + 24));
        // persisted exactly the dirty ones
        for s in 0..5u32 {
            let expect = if s % 2 == 0 { s as f64 } else { 0.0 };
            assert_eq!(record(&mut st, s).unwrap().2[2], expect, "source {s}");
        }
    }

    #[test]
    fn update_batch_matches_default_loop_semantics() {
        let path = tmpdir("batch_skip").join("bd.dat");
        let n = 4;
        let mut st = DiskBdStore::create(&path, n, CodecKind::Wide).unwrap();
        // source 0: d[0] == d[1] → skipped; source 1: differs → processed
        st.add_source(0, vec![1, 1, 2, 2], vec![1; n], vec![0.0; n])
            .unwrap();
        st.add_source(1, vec![0, 1, 2, 2], vec![1; n], vec![0.0; n])
            .unwrap();
        let w0 = st.bytes_written;
        let skipped = st
            .update_batch(0, 1, &mut |s, _| {
                assert_eq!(s, 1, "skipped source must not reach the kernel");
                Ok(())
            })
            .unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(st.bytes_written, w0, "nothing listed, nothing written");
    }

    #[test]
    fn out_of_range_endpoints_and_cells_are_invalid_and_change_nothing() {
        let path = tmpdir("out_of_range").join("bd.dat");
        let n = 4;
        let mut st = DiskBdStore::create(&path, n, CodecKind::Wide).unwrap();
        st.add_source(0, vec![0, 1, 2, 2], vec![1; n], vec![0.0; n])
            .unwrap();
        st.fold().unwrap();
        let data = std::fs::read(&path).unwrap();
        let redo = redo::redo_path(&path);
        for (u, v) in [(0, 4), (9, 1)] {
            let err = st
                .update_batch(u, v, &mut |s, _| panic!("source {s} reached the kernel"))
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Invalid, "({u}, {v})");
        }
        // a listed cell past the record is refused before its write-back
        let err = st
            .update_batch(0, 1, &mut |_, view| {
                view.delta[2] = 5.0;
                view.wrote.unwrap().extend([2, 4]);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(
            (err.kind(), err.source_vertex()),
            (ErrorKind::Invalid, Some(0))
        );
        assert_eq!(std::fs::metadata(&redo).unwrap().len(), 0, "no redo bytes");
        assert_eq!(std::fs::read(&path).unwrap(), data, "records unchanged");
    }

    #[test]
    fn paper_records_hold_their_limits_and_widen_past_them() {
        let n = 3;
        let top: Record = (vec![0, 254, UNREACHABLE], vec![1, 65_535, 0], vec![0.5; n]);
        for (name, d, sigma) in [
            ("d", vec![0, 255, 1], vec![1; n]),
            ("sigma", vec![0, 1, 2], vec![1, 65_536, 1]),
        ] {
            let path = tmpdir("paper_limits").join(name);
            let mut st = DiskBdStore::create(&path, n, CodecKind::Paper).unwrap();
            st.add_source(0, top.0.clone(), top.1.clone(), top.2.clone())
                .unwrap();
            let narrow = (st.codec(), record(&mut st, 0).unwrap());
            assert_eq!(narrow, (CodecKind::Paper, top.clone()), "the limits fit");
            let w0 = st.bytes_written;
            st.add_source(1, d.clone(), sigma.clone(), vec![0.0; n])
                .unwrap();
            // one re-slab of the record held, then the new record, wide
            let wide_body = CodecKind::Wide.record_size(st.capacity()) as u64;
            assert_eq!(st.bytes_written - w0, 2 * wide_body, "{name}: widened once");
            drop(st);
            let mut st = DiskBdStore::open(&path).unwrap();
            let state = (st.codec(), st.last_recovery(), st.sources());
            assert_eq!(state, (CodecKind::Wide, None, vec![0, 1]), "{name}");
            assert_eq!(record(&mut st, 0).unwrap(), top, "{name}: untouched");
            assert_eq!(record(&mut st, 1).unwrap(), (d, sigma, vec![0.0; n]));
        }
    }

    #[test]
    fn corrupt_magic_detected() {
        let path = tmpdir("magic").join("bd.dat");
        {
            DiskBdStore::create(&path, 2, CodecKind::Wide).unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] = b'X';
        std::fs::write(&path, raw).unwrap();
        assert!(matches!(DiskBdStore::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
    }

    #[test]
    fn truncated_data_detected() {
        let path = tmpdir("trunc").join("bd.dat");
        {
            let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
            let (d, s, del) = sample_record(4, 6);
            st.add_source(0, d, s, del).unwrap();
            st.flush().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        assert!(matches!(DiskBdStore::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
    }

    #[test]
    fn trailing_garbage_detected() {
        let path = tmpdir("garbage").join("bd.dat");
        let stride = {
            let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
            let (d, s, del) = sample_record(4, 6);
            st.add_source(0, d, s, del).unwrap();
            st.flush().unwrap();
            st.stride()
        };
        let clean = std::fs::read(&path).unwrap();
        // up to one stride is a torn append: cut off
        let mut raw = clean.clone();
        raw.extend_from_slice(&[0xAA; 13]);
        std::fs::write(&path, raw).unwrap();
        let st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.last_recovery(), Some(RecoveryAction::DroppedTail));
        drop(st);
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        // more is not something a kill leaves
        let mut raw = clean;
        raw.resize(raw.len() + stride + 1, 0xAA);
        std::fs::write(&path, raw).unwrap();
        match DiskBdStore::open(&path) {
            Err(e) if e.kind() == ErrorKind::Corrupt => {
                assert!(e.context().contains("trailing garbage"), "{e}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("trailing garbage must be rejected"),
        }
    }

    #[test]
    fn duplicate_source_rejected() {
        let path = tmpdir("dup").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 6, CodecKind::Wide).unwrap();
        let (d, s, del) = sample_record(6, 7);
        st.add_source(5, d.clone(), s.clone(), del.clone()).unwrap();
        // a second record for source 5, and one for a vertex the store
        // does not have
        for src in [5, 6] {
            let err = st
                .add_source(src, d.clone(), s.clone(), del.clone())
                .unwrap_err();
            assert_eq!(
                (err.kind(), err.source_vertex()),
                (ErrorKind::Invalid, Some(src))
            );
        }
        assert_eq!(st.sources(), vec![5]);
    }

    #[test]
    fn unknown_source_rejected() {
        let path = tmpdir("unk").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 2, CodecKind::Wide).unwrap();
        let err = record(&mut st, 0).unwrap_err();
        assert_eq!(
            (err.kind(), err.source_vertex()),
            (ErrorKind::Invalid, Some(0))
        );
    }
}
