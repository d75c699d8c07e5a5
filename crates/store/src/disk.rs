//! The on-disk `BD[·]` store (the paper's *DO* configuration), format v2.
//!
//! Layout of the data file (byte-level spec and rationale in DESIGN.md §7):
//!
//! ```text
//! offset  size  field
//!      0     7  magic "EBCBD2\n"
//!      7     1  codec id (see CodecKind::id)
//!      8     8  n     u64 LE — live vertex count
//!     16     8  count u64 LE — committed source count
//!     24     8  cap   u64 LE — slab capacity in vertex slots (cap ≥ n)
//!     32     8  reserved (zero)
//!     40     —  records: count × stride, stride = codec.record_size(cap)
//! ```
//!
//! Every record is one *capacity slab*: its three columns (`d`, `σ`, `δ`)
//! are sized by `cap`, not `n`, and the `n..cap` tail of each column holds
//! the canonical empty values (`d = UNREACHABLE`, `σ = 0`, `δ = 0`). While
//! headroom remains, [`BdStore::grow_vertex`] is a single 8-byte header
//! update — O(1) I/O — because slot `n` of every record already decodes to
//! exactly the state a fresh vertex must have. Only when `n == cap` is the
//! file re-slabbed (one guarded rewrite at a geometrically larger capacity).
//!
//! The source-id table is kept in a sealed sidecar `<path>.idx` (always
//! replaced via temp-file + rename), and every multi-file mutation is
//! guarded by the `<path>.wal` write-ahead intent record so
//! [`DiskBdStore::open`] can roll a torn `add_source`/re-slab forward or
//! back (see [`crate::recovery`]). DESIGN.md §7 "Durable artefacts" lists
//! how each of these files is sealed and what a torn copy means.
//!
//! Record updates are written in place and un-synced. What
//! [`DiskBdStore::flush`] syncs is `<path>.redo`, a log of the cells each
//! update changed (frame layout in `redo.rs`); [`DiskBdStore::fold`] syncs the
//! data file and empties the log, and [`DiskBdStore::open`] replays it.
//!
//! v2 is the only record format: [`DiskBdStore::open`] refuses any other
//! `EBCBD<k>` generation with a [`BdError::Corrupt`] that names it.

use crate::codec::CodecKind;
use crate::recovery::{self, Geometry, Intent, IntentOp, RecoveryAction};
use crate::redo::{self, RedoEntry, RedoLog};
use crate::seal::{suffixed, write_sealed, Durability};
use ebc_core::bd::{
    BatchSourceFn, BatchStats, BdError, BdResult, BdStore, ExportedRecord, SourceFn, SourceViewMut,
};
use ebc_graph::{fnv1a64, seal, unseal, Cursor, FxHashMap, VertexId, UNREACHABLE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic of the one record format this build reads and writes. The byte
/// before the newline is the format generation.
const MAGIC: &[u8; 7] = b"EBCBD2\n";
pub(crate) const HEADER_LEN: u64 = 7 + 1 + 8 + 8 + 8 + 8;

/// Parsed data-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub codec: CodecKind,
    pub n: usize,
    pub count: usize,
    pub cap: usize,
}

impl Header {
    /// On-disk bytes of one record (the slab stride).
    pub fn stride(&self) -> usize {
        self.codec.record_size(self.cap)
    }

    /// Byte offset of record `slot`.
    pub fn record_offset(&self, slot: usize) -> u64 {
        HEADER_LEN + (slot * self.stride()) as u64
    }

    /// Exact data-file length this header implies.
    pub fn expected_len(&self) -> u64 {
        self.record_offset(self.count)
    }

    /// Parse the header at the start of `file`, refusing any geometry whose
    /// records would not fit in a `u64` file length.
    pub fn read_from(file: &mut File) -> BdResult<Header> {
        let mut raw = Vec::with_capacity(HEADER_LEN as usize);
        file.seek(SeekFrom::Start(0))?;
        Read::by_ref(file).take(HEADER_LEN).read_to_end(&mut raw)?;
        let mut cur = Cursor::new(&raw);
        let magic = cur.take(MAGIC.len())?;
        if magic != MAGIC {
            // another generation of this format (v1 is retired; nothing
            // newer exists yet): name it instead of mis-reading its bytes
            return Err(BdError::Corrupt(match *magic {
                [b'E', b'B', b'C', b'B', b'D', k, b'\n'] if k.is_ascii_digit() => format!(
                    "record format v{} is not supported (this build reads v2 only)",
                    k as char
                ),
                _ => "bad magic".into(),
            }));
        }
        let id = cur.u8()?;
        let codec = CodecKind::from_id(id)
            .ok_or_else(|| BdError::Corrupt(format!("unknown codec id {id}")))?;
        let (n, count, cap) = (cur.u64()?, cur.u64()?, cur.u64()?);
        cur.take(8)?; // reserved
        if cap < n {
            return Err(BdError::Corrupt(format!(
                "slab capacity {cap} below vertex count {n}"
            )));
        }
        let end = cap
            .checked_mul(codec.record_size(1) as u64)
            .and_then(|stride| stride.checked_mul(count))
            .and_then(|records| records.checked_add(HEADER_LEN))
            .filter(|&end| usize::try_from(end).is_ok());
        if end.is_none() {
            return Err(BdError::Corrupt(format!(
                "{count} records of {cap} slots overflow a file length"
            )));
        }
        Ok(Header {
            codec,
            n: n as usize,
            count: count as usize,
            cap: cap as usize,
        })
    }

    /// Write the full header at the start of `file`.
    pub fn write_to(&self, file: &mut File) -> BdResult<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN as usize);
        buf.extend_from_slice(MAGIC);
        buf.push(self.codec.id());
        buf.extend_from_slice(&(self.n as u64).to_le_bytes());
        buf.extend_from_slice(&(self.count as u64).to_le_bytes());
        buf.extend_from_slice(&(self.cap as u64).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&buf)?;
        Ok(())
    }
}

/// Update the header's source-count field in place (offset 16) — a single
/// 8-byte write, atomic under the crash model.
pub(crate) fn write_header_count(file: &mut File, count: u64) -> BdResult<()> {
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&count.to_le_bytes())?;
    Ok(())
}

/// Update the header's live-vertex-count field in place (offset 8).
pub(crate) fn write_header_n(file: &mut File, n: u64) -> BdResult<()> {
    file.seek(SeekFrom::Start(8))?;
    file.write_all(&n.to_le_bytes())?;
    Ok(())
}

/// Path of the `.idx` sidecar for a data file.
pub(crate) fn sidecar_for(path: &Path) -> PathBuf {
    suffixed(path, ".idx")
}

const IDX_MAGIC: &[u8; 8] = b"EBCIDX1\n";
const EXPORT_MAGIC: &[u8; 8] = b"EBCEXP2\n";

/// Path of the export journal [`BdStore::export_source`] writes for source
/// `s` of the data file at `path` (`<path>.exp<s>`).
fn export_path(path: &Path, s: VertexId) -> PathBuf {
    suffixed(path, &format!(".exp{s}"))
}

/// A parsed donor-side export journal: the serialized record of one source
/// mid-handoff, durable from before the donor removed it until the handoff
/// committed (see DESIGN.md §8).
///
/// `<path>.exp<s>` is a sealed record (magic `EBCEXP2\n`) whose payload is,
/// little-endian: codec id `u8`, source `u32`, tag `u64` (an opaque caller
/// token; the sharded layer stores the recipient shard id), `n: u64` (the
/// live vertex count at export time), then one codec-encoded record of `n`
/// slots.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportJournal {
    /// The exported source.
    pub source: VertexId,
    /// Opaque caller token journaled with the export (recipient shard id
    /// for sharded callers).
    pub tag: u64,
    /// Distances from the source.
    pub d: Vec<u32>,
    /// Shortest-path counts from the source.
    pub sigma: Vec<u64>,
    /// Accumulated dependencies.
    pub delta: Vec<f64>,
}

impl ExportJournal {
    /// The journaled payload as an [`ExportedRecord`] ready to install in a
    /// recipient store.
    pub fn into_record(self) -> ExportedRecord {
        ExportedRecord {
            source: self.source,
            d: self.d,
            sigma: self.sigma,
            delta: self.delta,
        }
    }
}

/// Parse an export journal file. Returns `Ok(None)` when the file fails to
/// unseal — by write ordering a torn journal proves the guarded export
/// never began, so callers discard it. A journal that unseals but does not
/// parse is `Corrupt`.
pub fn read_export_journal(path: &Path) -> BdResult<Option<ExportJournal>> {
    let raw = std::fs::read(path)?;
    let Ok(payload) = unseal(EXPORT_MAGIC, &raw) else {
        return Ok(None);
    };
    let mut cur = Cursor::new(payload);
    let id = cur.u8()?;
    let codec = CodecKind::from_id(id)
        .ok_or_else(|| BdError::Corrupt(format!("export journal names codec {id}")))?;
    let source = cur.u32()?;
    let tag = cur.u64()?;
    let n = cur.count_u64(codec.record_size(1))?;
    let record = cur.take(codec.record_size(n))?;
    cur.finish()?;
    let mut d = vec![0u32; n];
    let mut sigma = vec![0u64; n];
    let mut delta = vec![0f64; n];
    codec.decode_record(record, &mut d, &mut sigma, &mut delta);
    Ok(Some(ExportJournal {
        source,
        tag,
        d,
        sigma,
        delta,
    }))
}

/// Export journals pending next to the data file at `path`, in ascending
/// source order. Used by the sharded layer's `open()` to resolve handoffs
/// a crash left in flight.
pub fn pending_exports(path: &Path) -> BdResult<Vec<PathBuf>> {
    let parent = path.parent().unwrap_or(Path::new("."));
    let prefix = {
        let mut name = path
            .file_name()
            .ok_or_else(|| BdError::Corrupt("store path has no file name".into()))?
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

/// Read the sidecar's id table: `count: u64`, then `count` ids (`u32`).
pub(crate) fn read_sidecar_ids(path: &Path) -> BdResult<Vec<VertexId>> {
    let raw = std::fs::read(sidecar_for(path))
        .map_err(|_| BdError::Corrupt("missing sidecar index".into()))?;
    let mut cur = Cursor::new(unseal(IDX_MAGIC, &raw)?);
    let count = cur.count_u64(4)?;
    let ids = (0..count).map(|_| cur.u32()).collect::<Result<_, _>>()?;
    cur.finish()?;
    Ok(ids)
}

/// Replace the sidecar (temp file + rename), so a crash can never leave a
/// half-written id table: readers see the old table or the new one. The
/// journaled protocols, ordered for process kill only, write it
/// [`Durability::ProcessKill`]; `flush` writes it [`Durability::PowerLoss`].
pub(crate) fn write_sidecar(
    path: &Path,
    order: &[VertexId],
    durability: Durability,
) -> BdResult<()> {
    let mut payload = Vec::with_capacity(8 + 4 * order.len());
    payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
    for &s in order {
        payload.extend_from_slice(&s.to_le_bytes());
    }
    write_sealed(&sidecar_for(path), IDX_MAGIC, &payload, durability)?;
    Ok(())
}

/// Slab sizing rule: headroom of `max(8, n/8)` vertex slots beyond `n`.
/// Geometric headroom keeps `grow_vertex` amortized O(1): at most one
/// re-slab per `Θ(n)` growths, each costing one sequential file rewrite.
pub(crate) fn slab_cap(n: usize) -> usize {
    n + (n / 8).max(8)
}

/// Byte budget for one batched run read. A contiguous slot run longer than
/// this is serviced in sequential chunks (one seek each, still sequential
/// on disk), bounding the batch buffer instead of materialising an
/// arbitrarily large run — at paper scale a run can span thousands of
/// multi-megabyte records. 256 KiB keeps the buffer cache-resident.
const MAX_RUN_BYTES: usize = 256 << 10;

/// One maximal run of contiguous record slots inside a [`BatchPlan`].
struct SlotRun {
    /// First record slot of the run.
    first_slot: usize,
    /// The affected sources occupying `first_slot..first_slot + len`, in
    /// slot order.
    sources: Vec<VertexId>,
}

/// Run-sorted I/O schedule for one batched update: the affected slots,
/// sorted and grouped into maximal contiguous runs. Each run is serviced by
/// one random seek + sequential reads (chunked at a fixed byte budget so
/// the buffer stays bounded), and dirty records are written back in
/// coalesced sub-runs — at most one seek per contiguous dirty stretch —
/// instead of one seek+read+write per affected source.
struct BatchPlan {
    /// The contiguous runs, in ascending slot order.
    runs: Vec<SlotRun>,
}

impl BatchPlan {
    /// Build the plan from `(slot, source)` pairs (any order).
    fn build(mut affected: Vec<(usize, VertexId)>) -> Self {
        affected.sort_unstable_by_key(|&(slot, _)| slot);
        let mut runs: Vec<SlotRun> = Vec::new();
        for (slot, s) in affected {
            match runs.last_mut() {
                Some(run) if run.first_slot + run.sources.len() == slot => run.sources.push(s),
                _ => runs.push(SlotRun {
                    first_slot: slot,
                    sources: vec![s],
                }),
            }
        }
        BatchPlan { runs }
    }
}

/// Out-of-core `BD` store: one columnar slab record per source, updated in
/// place, with batched I/O and crash recovery (format v2).
pub struct DiskBdStore {
    file: File,
    path: PathBuf,
    codec: CodecKind,
    n: usize,
    cap: usize,
    order: Vec<VertexId>,
    index: FxHashMap<VertexId, usize>,
    recovered: Option<RecoveryAction>,
    redo: RedoLog,
    /// The data file holds un-synced writes the redo log does not cover
    /// (header fields, appended or moved records): the next `flush` must
    /// fold instead of syncing the log.
    unlogged: bool,
    /// `order` changed since the sidecar was last written durably.
    sidecar_unsynced: bool,
    // reusable scratch (decode/encode buffers, batch run buffer, the
    // callback's written-cell list)
    raw: Vec<u8>,
    batch: Vec<u8>,
    d: Vec<u32>,
    sigma: Vec<u64>,
    delta: Vec<f64>,
    wrote: Vec<VertexId>,
    /// Record bytes read from disk (experiment instrumentation; excludes
    /// fixed-size header/sidecar/intent metadata).
    pub bytes_read: u64,
    /// Record bytes written to disk, in place and to the redo log.
    pub bytes_written: u64,
}

impl DiskBdStore {
    /// Create a fresh v2 store at `path` for records of `n` vertices, with
    /// the default growth headroom ([`DiskBdStore::capacity`] slots).
    pub fn create<P: AsRef<Path>>(path: P, n: usize, codec: CodecKind) -> BdResult<Self> {
        Self::create_with_capacity(path, n, slab_cap(n), codec)
    }

    /// Create a fresh v2 store with an explicit slab capacity (`cap` is
    /// clamped up to `n`). Useful to control exactly when re-slabbing kicks
    /// in; most callers want [`DiskBdStore::create`].
    pub fn create_with_capacity<P: AsRef<Path>>(
        path: P,
        n: usize,
        cap: usize,
        codec: CodecKind,
    ) -> BdResult<Self> {
        let path = path.as_ref().to_path_buf();
        let cap = cap.max(n);
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
            cap,
        };
        header.write_to(&mut file)?;
        write_sidecar(&path, &[], Durability::ProcessKill)?;
        recovery::clear_intent(&path)?;
        // a previous incarnation's frames describe records this file never
        // held
        let redo = RedoLog::open(&path, true)?;
        Ok(DiskBdStore {
            file,
            path,
            codec,
            n,
            cap,
            order: Vec::new(),
            index: FxHashMap::default(),
            recovered: None,
            redo,
            unlogged: true,
            sidecar_unsynced: true,
            raw: Vec::new(),
            batch: Vec::new(),
            d: Vec::new(),
            sigma: Vec::new(),
            delta: Vec::new(),
            wrote: Vec::new(),
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// Open an existing store: run crash recovery if an intent record is
    /// pending, validate header, sidecar, and exact file length, then replay
    /// the redo log over the records.
    pub fn open<P: AsRef<Path>>(path: P) -> BdResult<Self> {
        let path = path.as_ref().to_path_buf();
        let recovered = recovery::run_recovery(&path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let header = Header::read_from(&mut file)?;
        let order = read_sidecar_ids(&path)?;
        if order.len() != header.count {
            return Err(BdError::Corrupt(format!(
                "sidecar/header disagree: {} vs {}",
                order.len(),
                header.count
            )));
        }
        let expect_len = header.expected_len();
        let actual = file.metadata()?.len();
        if actual < expect_len {
            return Err(BdError::Corrupt(format!(
                "data file too short: {actual} < {expect_len}"
            )));
        }
        if actual > expect_len {
            return Err(BdError::Corrupt(format!(
                "trailing garbage: data file is {actual} bytes, header implies {expect_len}"
            )));
        }
        let index = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let redo = RedoLog::open(&path, false)?;
        let mut store = DiskBdStore {
            file,
            path,
            codec: header.codec,
            n: header.n,
            cap: header.cap,
            order,
            index,
            recovered,
            redo,
            // whatever recovery repaired, it wrote un-synced
            unlogged: recovered.is_some(),
            sidecar_unsynced: recovered.is_some(),
            raw: Vec::new(),
            batch: Vec::new(),
            d: Vec::new(),
            sigma: Vec::new(),
            delta: Vec::new(),
            wrote: Vec::new(),
            bytes_read: 0,
            bytes_written: 0,
        };
        store.replay_redo()?;
        Ok(store)
    }

    /// Apply every complete frame of a non-empty redo log to the records,
    /// then fold.
    fn replay_redo(&mut self) -> BdResult<()> {
        if self.redo.len() == 0 {
            return Ok(());
        }
        let header = self.header();
        let (stride, n) = (header.stride(), header.n);
        let mut rec = vec![0u8; stride];
        let DiskBdStore {
            redo, file, index, ..
        } = self;
        let frames = redo.replay(header.cap, header.count, stride, &mut |s, entry| {
            let slot = *index.get(&s).ok_or_else(|| {
                BdError::Corrupt(format!("redo log names source {s}, which is not stored"))
            })?;
            let off = header.record_offset(slot);
            match entry {
                RedoEntry::Record(bytes) => file.write_all_at(bytes, off)?,
                RedoEntry::Cells(body) => {
                    file.read_exact_at(&mut rec, off)?;
                    for (v, d, sigma, delta) in redo::cells(body) {
                        if v as usize >= n {
                            return Err(BdError::Corrupt(format!(
                                "redo log names cell {v} of {n}-vertex records"
                            )));
                        }
                        header
                            .codec
                            .encode_cell(header.cap, v as usize, d, sigma, delta, &mut rec);
                    }
                    file.write_all_at(&rec, off)?;
                }
            }
            Ok(())
        })?;
        self.fold()?;
        self.recovered
            .get_or_insert(RecoveryAction::ReplayedRedo { frames });
        Ok(())
    }

    /// The codec in use.
    pub fn codec(&self) -> CodecKind {
        self.codec
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

    /// What `open()` had to repair, if anything — `None` after a clean
    /// shutdown.
    pub fn last_recovery(&self) -> Option<RecoveryAction> {
        self.recovered
    }

    /// Total on-disk record bytes (excluding header/sidecar) — the quantity
    /// the paper sizes as `O(n²/p)` per machine (§5.2). Slab headroom is
    /// physical file space and is included.
    pub fn data_bytes(&self) -> u64 {
        (self.order.len() * self.stride()) as u64
    }

    fn header(&self) -> Header {
        Header {
            codec: self.codec,
            n: self.n,
            count: self.order.len(),
            cap: self.cap,
        }
    }

    fn stride(&self) -> usize {
        self.header().stride()
    }

    #[inline]
    fn record_offset(&self, slot: usize) -> u64 {
        self.header().record_offset(slot)
    }

    fn slot(&self, s: VertexId) -> BdResult<usize> {
        self.index.get(&s).copied().ok_or(BdError::UnknownSource(s))
    }

    /// Size the scratch arrays to one slab and fill the `n..cap` tail with
    /// the canonical empty values.
    fn reset_scratch_tail(&mut self) {
        self.d.resize(self.cap, UNREACHABLE);
        self.sigma.resize(self.cap, 0);
        self.delta.resize(self.cap, 0.0);
        for i in self.n..self.cap {
            self.d[i] = UNREACHABLE;
            self.sigma[i] = 0;
            self.delta[i] = 0.0;
        }
    }

    fn read_record(&mut self, slot: usize) -> BdResult<()> {
        let size = self.stride();
        let off = self.record_offset(slot);
        self.raw.resize(size, 0);
        self.file
            .read_exact_at(&mut self.raw, off)
            .map_err(|_| BdError::Corrupt(format!("record {slot} truncated")))?;
        self.bytes_read += size as u64;
        self.d.resize(self.cap, 0);
        self.sigma.resize(self.cap, 0);
        self.delta.resize(self.cap, 0.0);
        self.codec
            .decode_record(&self.raw, &mut self.d, &mut self.sigma, &mut self.delta);
        Ok(())
    }

    /// Bring `rec`, the encoded image of source `s`'s record, up to date
    /// with the decoded scratch arrays after a callback reported a change,
    /// and log the change: the cells the callback listed in `self.wrote`,
    /// or the whole record when it itemised nothing.
    fn persist_change(&mut self, s: VertexId, rec: &mut [u8]) -> BdResult<()> {
        if self.wrote.is_empty() {
            self.codec
                .encode_record(&self.d, &self.sigma, &self.delta, rec);
            return self.redo.push_record(s, rec);
        }
        for &v in &self.wrote {
            let i = v as usize;
            // a cell past `n` would break the slab invariant on disk and
            // make the logged frame unreplayable
            assert!(i < self.n, "callback reported cell {v} outside the record");
            self.codec
                .encode_cell(self.cap, i, self.d[i], self.sigma[i], self.delta[i], rec);
        }
        self.redo
            .push_cells(s, &self.wrote, &self.d, &self.sigma, &self.delta)
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
    /// here, so the intent journal and its recovery never meet a frame
    /// written under the geometry they are about to change.
    fn fold_pending(&mut self) -> BdResult<()> {
        if self.redo.len() > 0 {
            self.fold()?;
        }
        Ok(())
    }

    /// Guarded re-slab (a whole-file rewrite): write the intent, stream
    /// every record into a `.tmp` sibling at the new geometry, sync, rename
    /// it over the data file, commit. Record contents are preserved
    /// bit-identically in the live `..n` prefix; the new tail is the
    /// canonical empty value.
    fn reslab(&mut self, new_n: usize, crash: Option<RewriteCrash>) -> BdResult<()> {
        debug_assert!(new_n >= self.n);
        let new_cap = slab_cap(new_n);
        self.fold_pending()?;
        let old_header = self.header();
        let new_header = Header {
            codec: self.codec,
            n: new_n,
            count: self.order.len(),
            cap: new_cap,
        };
        recovery::write_intent(
            &self.path,
            &Intent {
                op: IntentOp::Reslab,
                source: 0,
                payload_checksum: 0,
                old: Geometry::of(&old_header),
                new: Geometry::of(&new_header),
            },
        )?;
        if crash == Some(RewriteCrash::AfterIntent) {
            return Ok(());
        }
        let tmp_path = self.path.with_extension("tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        new_header.write_to(&mut tmp)?;
        let new_stride = new_header.stride();
        let mut out = vec![0u8; new_stride];
        for slot in 0..self.order.len() {
            self.read_record(slot)?; // old geometry
            self.d.resize(new_cap, UNREACHABLE);
            self.sigma.resize(new_cap, 0);
            self.delta.resize(new_cap, 0.0);
            self.codec
                .encode_record(&self.d, &self.sigma, &self.delta, &mut out);
            tmp.write_all(&out)?;
            self.bytes_written += new_stride as u64;
        }
        tmp.sync_data()?;
        if crash == Some(RewriteCrash::AfterTmp) {
            return Ok(());
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp; // synced above: nothing un-synced carries over
        self.unlogged = false;
        self.n = new_n;
        self.cap = new_cap;
        if crash == Some(RewriteCrash::AfterRename) {
            return Ok(());
        }
        recovery::clear_intent(&self.path)?;
        Ok(())
    }

    /// The power-loss durability point: every update applied before this
    /// call survives losing any un-synced page. Syncs the redo log, which
    /// names the cells those updates changed, instead of the data file;
    /// folds when the data file holds writes the log does not cover
    /// (sources added or removed, vertices grown). The sidecar is
    /// rewritten, durably, only if the source order changed.
    pub fn flush(&mut self) -> BdResult<()> {
        if self.unlogged {
            self.fold()?;
        } else {
            self.redo.sync()?;
        }
        if self.sidecar_unsynced {
            write_sidecar(&self.path, &self.order, Durability::PowerLoss)?;
            self.sidecar_unsynced = false;
        }
        Ok(())
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

    fn sources_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend_from_slice(&self.order);
    }

    fn num_sources(&self) -> usize {
        self.order.len()
    }

    /// Read only the span of the distance column covering the two endpoints
    /// — one sequential read, no `σ`/`δ` I/O. This is the paper's §5.1 skip
    /// check ("after loading the distances from disk, we check the distance
    /// for the endpoints"), tightened to the `[min(a,b), max(a,b)]` span.
    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        let slot = self.slot(s)?;
        let dw = self.codec.d_width();
        let base = self.record_offset(slot);
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let span = (hi - lo + 1) * dw;
        self.raw.resize(span.max(self.raw.len()), 0);
        self.file
            .read_exact_at(&mut self.raw[..span], base + (lo * dw) as u64)
            .map_err(|_| BdError::Corrupt("distance column truncated".into()))?;
        self.bytes_read += span as u64;
        let at = |v: usize| {
            self.codec
                .decode_d(&self.raw[(v - lo) * dw..(v - lo) * dw + dw])
        };
        Ok((at(a as usize), at(b as usize)))
    }

    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool> {
        let slot = self.slot(s)?;
        self.read_record(slot)?;
        let n = self.n;
        self.wrote.clear();
        let dirty = f(SourceViewMut {
            d: &mut self.d[..n],
            sigma: &mut self.sigma[..n],
            delta: &mut self.delta[..n],
            wrote: Some(&mut self.wrote),
        });
        if dirty {
            let mut raw = std::mem::take(&mut self.raw);
            self.redo.begin(self.cap, self.order.len());
            self.persist_change(s, &mut raw)?;
            self.file.write_all_at(&raw, self.record_offset(slot))?;
            self.bytes_written += raw.len() as u64;
            self.raw = raw;
            self.commit_redo()?;
        }
        Ok(dirty)
    }

    /// Coalesced batch path: per-source constant-offset peeks first, then
    /// the affected records are read in contiguous `BatchPlan` runs (one
    /// read per run) and dirty records written back in coalesced sub-runs,
    /// with the cells the callback changed patched into the run buffer and
    /// logged as one redo frame for the whole call.
    fn update_batch(
        &mut self,
        sources: &[VertexId],
        u: VertexId,
        v: VertexId,
        f: BatchSourceFn<'_>,
    ) -> BdResult<BatchStats> {
        let mut stats = BatchStats::default();
        let mut affected: Vec<(usize, VertexId)> = Vec::with_capacity(sources.len());
        for &s in sources {
            let (a, b) = self.peek_pair(s, u, v)?;
            if a == b {
                stats.skipped += 1;
            } else {
                affected.push((self.slot(s)?, s));
            }
        }
        let plan = BatchPlan::build(affected);
        let stride = self.stride();
        let n = self.n;
        // keep the run buffer bounded (and cache-resident): long runs are
        // serviced in sequential chunks of up to MAX_RUN_BYTES
        let chunk_records = (MAX_RUN_BYTES / stride).max(1);
        let mut dirty: Vec<bool> = Vec::new();
        let mut batch = std::mem::take(&mut self.batch);
        self.redo.begin(self.cap, self.order.len());
        for run in &plan.runs {
            for (ci, chunk) in run.sources.chunks(chunk_records).enumerate() {
                let first_slot = run.first_slot + ci * chunk_records;
                let bytes = chunk.len() * stride;
                let off = self.record_offset(first_slot);
                batch.resize(bytes, 0);
                self.file.read_exact_at(&mut batch, off).map_err(|_| {
                    BdError::Corrupt(format!("record run at slot {first_slot} truncated"))
                })?;
                self.bytes_read += bytes as u64;
                dirty.clear();
                dirty.resize(chunk.len(), false);
                for (i, &s) in chunk.iter().enumerate() {
                    self.d.resize(self.cap, 0);
                    self.sigma.resize(self.cap, 0);
                    self.delta.resize(self.cap, 0.0);
                    let rec = &mut batch[i * stride..(i + 1) * stride];
                    self.codec
                        .decode_record(rec, &mut self.d, &mut self.sigma, &mut self.delta);
                    stats.processed += 1;
                    self.wrote.clear();
                    let changed = f(
                        s,
                        SourceViewMut {
                            d: &mut self.d[..n],
                            sigma: &mut self.sigma[..n],
                            delta: &mut self.delta[..n],
                            wrote: Some(&mut self.wrote),
                        },
                    );
                    if changed {
                        self.persist_change(s, rec)?;
                        dirty[i] = true;
                        stats.written += 1;
                    }
                }
                // write back maximal contiguous dirty stretches, one write each
                let mut i = 0;
                while i < dirty.len() {
                    if !dirty[i] {
                        i += 1;
                        continue;
                    }
                    let mut j = i + 1;
                    while j < dirty.len() && dirty[j] {
                        j += 1;
                    }
                    let off = self.record_offset(first_slot + i);
                    self.file
                        .write_all_at(&batch[i * stride..j * stride], off)?;
                    self.bytes_written += ((j - i) * stride) as u64;
                    i = j;
                }
            }
        }
        self.batch = batch;
        self.commit_redo()?;
        Ok(stats)
    }

    /// With headroom available this is a single 8-byte header update — slot
    /// `n` of every record already holds `d = ∞, σ = 0, δ = 0` by the slab
    /// invariant — so growth costs O(1) I/O. Only when `n == cap` is the
    /// file re-slabbed at a geometrically larger capacity.
    fn grow_vertex(&mut self) -> BdResult<()> {
        if self.n < self.cap {
            self.n += 1;
            write_header_n(&mut self.file, self.n as u64)?;
            self.unlogged = true;
            return Ok(());
        }
        self.reslab(self.n + 1, None)
    }

    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        self.add_source_inner(s, d, sigma, delta, None)
    }

    /// Journaled swap-remove: the final record is copied into the vacated
    /// slot, the header count drops by one, the sidecar is rewritten, and
    /// the file is truncated — all guarded by a `RemoveSource` intent that
    /// recovery can always roll *forward* (see [`crate::recovery`]).
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        self.remove_source_inner(s, None)
    }

    /// Donor half of a shard handoff: the record (and `tag`) are journaled
    /// durably in `<path>.exp<s>` *before* the journaled
    /// [`BdStore::remove_source`], so a kill at any point leaves either the
    /// source still owned here or its full payload recoverable from the
    /// journal — never neither.
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        self.export_source_inner(s, tag, None)
    }

    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        match std::fs::remove_file(export_path(&self.path, s)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Simulated kill points inside the guarded `add_source` sequence. Test
/// support for the crash-recovery suite; not part of the stable API — the
/// store must be dropped (like a killed process) after a simulated crash.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddCrash {
    /// Die right after the intent record is durable, before the record.
    AfterIntent,
    /// Die with the record half-appended (torn payload).
    MidRecord,
    /// Die after the record append, before the header count update.
    AfterRecord,
    /// Die after the header count update, before the sidecar rewrite.
    AfterHeader,
    /// Die after the sidecar rewrite, before the intent is cleared.
    AfterSidecar,
}

/// Simulated kill points inside the guarded whole-file rewrite (re-slab).
/// Test support for the crash-recovery suite.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteCrash {
    /// Die right after the intent record is durable, before `<path>.tmp`.
    AfterIntent,
    /// Die with `<path>.tmp` fully written but not yet renamed.
    AfterTmp,
    /// Die after the atomic rename, before the intent is cleared.
    AfterRename,
}

/// Simulated kill points inside the guarded `remove_source` sequence. Test
/// support for the crash-recovery suite; the store must be dropped after.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveCrash {
    /// Die right after the intent record is durable, before any mutation.
    AfterIntent,
    /// Die after the final record was copied into the vacated slot.
    AfterCopy,
    /// Die after the header count update, before the sidecar rewrite.
    AfterHeader,
    /// Die after the sidecar rewrite, before the truncate and commit.
    AfterSidecar,
}

/// Simulated kill points inside the guarded `export_source` sequence (the
/// removal sub-steps are covered by [`RemoveCrash`]). Test support.
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
        self.reslab(self.n + 1, Some(crash))
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
        (self.unlogged, self.sidecar_unsynced) = (true, true);
        let last = self.order.len() - 1;
        let old = Geometry::of(&self.header());
        recovery::write_intent(
            &self.path,
            &Intent {
                op: IntentOp::RemoveSource,
                source: s,
                payload_checksum: 0,
                old,
                new: Geometry {
                    count: old.count - 1,
                    ..old
                },
            },
        )?;
        if crash == Some(RemoveCrash::AfterIntent) {
            return Ok(());
        }
        let stride = self.stride();
        if slot != last {
            // raw byte copy of the final record into the vacated slot (no
            // decode round-trip: the moved record must stay bit-identical)
            self.raw.resize(stride, 0);
            let from = self.record_offset(last);
            self.file
                .read_exact_at(&mut self.raw, from)
                .map_err(|_| BdError::Corrupt(format!("record {last} truncated")))?;
            self.bytes_read += stride as u64;
            self.file
                .write_all_at(&self.raw, self.record_offset(slot))?;
            self.bytes_written += stride as u64;
        }
        if crash == Some(RemoveCrash::AfterCopy) {
            return Ok(());
        }
        self.index.remove(&s);
        self.order.swap_remove(slot);
        if let Some(&moved) = self.order.get(slot) {
            self.index.insert(moved, slot);
        }
        write_header_count(&mut self.file, self.order.len() as u64)?;
        if crash == Some(RemoveCrash::AfterHeader) {
            return Ok(());
        }
        write_sidecar(&self.path, &self.order, Durability::ProcessKill)?;
        if crash == Some(RemoveCrash::AfterSidecar) {
            return Ok(());
        }
        self.file.set_len(self.record_offset(self.order.len()))?;
        recovery::clear_intent(&self.path)?;
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
        let n = self.n;
        let d = self.d[..n].to_vec();
        let sigma = self.sigma[..n].to_vec();
        let delta = self.delta[..n].to_vec();
        let mut payload = Vec::with_capacity(21 + self.codec.record_size(n));
        payload.push(self.codec.id());
        payload.extend_from_slice(&s.to_le_bytes());
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        let record_at = payload.len();
        payload.resize(record_at + self.codec.record_size(n), 0);
        self.codec
            .encode_record(&d, &sigma, &delta, &mut payload[record_at..]);
        // written in place and unstaged: a torn journal fails to unseal,
        // which proves the export never began
        let buf = seal(EXPORT_MAGIC, &payload);
        std::fs::write(export_path(&self.path, s), &buf)?;
        // the journal is record payload leaving through this store: charge
        // it to the write counter so byte accounting stays exact
        self.bytes_written += buf.len() as u64;
        let record = ExportedRecord {
            source: s,
            d,
            sigma,
            delta,
        };
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
            return Err(BdError::DuplicateSource(s));
        }
        if d.len() != self.n || sigma.len() != self.n || delta.len() != self.n {
            return Err(BdError::ShapeMismatch {
                expected: self.n,
                got: d.len(),
            });
        }
        self.fold_pending()?;
        (self.unlogged, self.sidecar_unsynced) = (true, true);
        // stage the slab record (live prefix = the new arrays, tail empty)
        self.d = d;
        self.sigma = sigma;
        self.delta = delta;
        self.reset_scratch_tail();
        let stride = self.stride();
        self.raw.resize(stride, 0);
        self.codec
            .encode_record(&self.d, &self.sigma, &self.delta, &mut self.raw);
        let slot = self.order.len();
        let old = Geometry::of(&self.header());
        recovery::write_intent(
            &self.path,
            &Intent {
                op: IntentOp::AddSource,
                source: s,
                payload_checksum: fnv1a64(&self.raw),
                old,
                new: Geometry {
                    count: old.count + 1,
                    ..old
                },
            },
        )?;
        if crash == Some(AddCrash::AfterIntent) {
            return Ok(());
        }
        // 1. the record itself
        let off = self.record_offset(slot);
        self.file.seek(SeekFrom::Start(off))?;
        if crash == Some(AddCrash::MidRecord) {
            self.file.write_all(&self.raw[..stride / 2])?;
            return Ok(());
        }
        self.file.write_all(&self.raw)?;
        self.bytes_written += stride as u64;
        if crash == Some(AddCrash::AfterRecord) {
            return Ok(());
        }
        // 2. header count, 3. sidecar, then commit
        self.index.insert(s, slot);
        self.order.push(s);
        write_header_count(&mut self.file, self.order.len() as u64)?;
        if crash == Some(AddCrash::AfterHeader) {
            return Ok(());
        }
        write_sidecar(&self.path, &self.order, Durability::ProcessKill)?;
        if crash == Some(AddCrash::AfterSidecar) {
            return Ok(());
        }
        recovery::clear_intent(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ebc_store_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(n: usize, salt: u64) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
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
        st.update_with(3, &mut |view| {
            assert_eq!(view.d, &d[..]);
            assert_eq!(view.sigma, &s[..]);
            assert_eq!(view.delta, &del[..]);
            false
        })
        .unwrap();
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
        assert_eq!(st.peek_pair(0, 5, 11).unwrap(), (42, UNREACHABLE));
        // span of 7 u32 entries, far less than the full 16-vertex record
        assert_eq!(
            st.bytes_read - before,
            28,
            "peek must read only the endpoint span"
        );
        let before = st.bytes_read;
        assert_eq!(st.peek_pair(0, 11, 5).unwrap(), (UNREACHABLE, 42));
        assert_eq!(st.bytes_read - before, 28, "order-insensitive");
    }

    #[test]
    fn dirty_flag_controls_writeback() {
        let path = tmpdir("dirty").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
        let (d, s, del) = sample_record(4, 3);
        st.add_source(1, d, s, del).unwrap();
        let w0 = st.bytes_written;
        st.update_with(1, &mut |view| {
            view.delta[0] = 99.0; // mutate but report clean: must NOT persist
            false
        })
        .unwrap();
        assert_eq!(st.bytes_written, w0);
        st.update_with(1, &mut |view| {
            assert_ne!(view.delta[0], 99.0, "clean update must not persist");
            view.delta[0] = 7.5;
            true
        })
        .unwrap();
        assert!(st.bytes_written > w0);
        st.update_with(1, &mut |view| {
            assert_eq!(view.delta[0], 7.5);
            false
        })
        .unwrap();
    }

    #[test]
    fn reopen_preserves_everything() {
        let path = tmpdir("reopen").join("bd.dat");
        {
            let mut st = DiskBdStore::create(&path, 6, CodecKind::Paper).unwrap();
            for src in [4u32, 2, 9] {
                let (d, s, del) = sample_record(6, src as u64);
                st.add_source(src, d, s, del).unwrap();
            }
            st.flush().unwrap();
        }
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.codec(), CodecKind::Paper);
        assert_eq!(st.last_recovery(), None);
        assert_eq!(st.n(), 6);
        assert_eq!(st.sources(), vec![4, 2, 9]);
        let (d, s, _) = sample_record(6, 2);
        st.update_with(2, &mut |view| {
            assert_eq!(view.d, &d[..]);
            assert_eq!(view.sigma, &s[..]);
            false
        })
        .unwrap();
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
        assert_eq!(st.peek_pair(0, 3, 0).unwrap().0, UNREACHABLE);
        st.update_with(0, &mut |view| {
            assert_eq!(view.d.len(), 4);
            assert_eq!(view.d[3], UNREACHABLE);
            assert_eq!(view.sigma[3], 0);
            assert_eq!(view.delta[3], 0.0);
            false
        })
        .unwrap();
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
        st.update_with(2, &mut |view| {
            assert_eq!(&view.d[..3], &d[..]);
            assert_eq!(&view.sigma[..3], &s[..]);
            assert_eq!(&view.delta[..3], &del[..]);
            assert_eq!(&view.d[3..], &[UNREACHABLE, UNREACHABLE]);
            false
        })
        .unwrap();
        // reopen sees the re-slabbed file cleanly
        drop(st);
        let st = DiskBdStore::open(&path).unwrap();
        assert_eq!(st.n(), 5);
        assert_eq!(st.last_recovery(), None);
    }

    #[test]
    fn batch_plan_groups_contiguous_slots() {
        let plan = BatchPlan::build(vec![(5, 50), (0, 10), (1, 11), (2, 12), (7, 70), (6, 60)]);
        assert_eq!(plan.runs.len(), 2);
        assert_eq!(plan.runs[0].first_slot, 0);
        assert_eq!(plan.runs[0].sources, vec![10, 11, 12]);
        assert_eq!(plan.runs[1].first_slot, 5);
        assert_eq!(plan.runs[1].sources, vec![50, 60, 70]);
        assert!(BatchPlan::build(Vec::new()).runs.is_empty());
    }

    #[test]
    fn update_batch_coalesces_contiguous_runs() {
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
        let stride = st.stride() as u64;
        let (r0, w0) = (st.bytes_read, st.bytes_written);
        let sources = st.sources();
        let stats = st
            .update_batch(&sources, 0, 1, &mut |s, view| {
                view.delta[2] = s as f64;
                s % 2 == 0 // dirty: slots 0, 2, 4
            })
            .unwrap();
        assert_eq!(stats.processed, 5);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.written, 3);
        // one run of 5 records: record reads = 5·stride (+ 5 peeks of 8 B)
        assert_eq!(st.bytes_read - r0, 5 * stride + 5 * 8);
        // writes: three non-adjacent dirty records = 3·stride in place, and
        // one redo frame (12 B framing, 20 B geometry) holding the same
        // three records whole, since the callback itemised no cells
        assert_eq!(
            st.bytes_written - w0,
            3 * stride + 12 + 20 + 3 * (8 + stride)
        );
        // persisted exactly the dirty ones
        for s in 0..5u32 {
            st.update_with(s, &mut |view| {
                let expect = if s % 2 == 0 { s as f64 } else { 0.0 };
                assert_eq!(view.delta[2], expect, "source {s}");
                false
            })
            .unwrap();
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
        let stats = st
            .update_batch(&[0, 1], 0, 1, &mut |s, _| {
                assert_eq!(s, 1, "skipped source must not reach the kernel");
                false
            })
            .unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.written, 0);
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
        assert!(matches!(DiskBdStore::open(&path), Err(BdError::Corrupt(_))));
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
        assert!(matches!(DiskBdStore::open(&path), Err(BdError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_detected() {
        let path = tmpdir("garbage").join("bd.dat");
        {
            let mut st = DiskBdStore::create(&path, 4, CodecKind::Wide).unwrap();
            let (d, s, del) = sample_record(4, 6);
            st.add_source(0, d, s, del).unwrap();
            st.flush().unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xAA; 13]);
        std::fs::write(&path, raw).unwrap();
        match DiskBdStore::open(&path) {
            Err(BdError::Corrupt(msg)) => assert!(msg.contains("trailing garbage"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("trailing garbage must be rejected"),
        }
    }

    #[test]
    fn missing_sidecar_detected() {
        let path = tmpdir("sidecar").join("bd.dat");
        {
            DiskBdStore::create(&path, 2, CodecKind::Wide).unwrap();
        }
        std::fs::remove_file(sidecar_for(&path)).unwrap();
        assert!(matches!(DiskBdStore::open(&path), Err(BdError::Corrupt(_))));
    }

    #[test]
    fn duplicate_source_rejected() {
        let path = tmpdir("dup").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 2, CodecKind::Wide).unwrap();
        let (d, s, del) = sample_record(2, 7);
        st.add_source(5, d.clone(), s.clone(), del.clone()).unwrap();
        assert!(matches!(
            st.add_source(5, d, s, del),
            Err(BdError::DuplicateSource(5))
        ));
    }

    #[test]
    fn unknown_source_rejected() {
        let path = tmpdir("unk").join("bd.dat");
        let mut st = DiskBdStore::create(&path, 2, CodecKind::Wide).unwrap();
        assert!(matches!(
            st.peek_pair(0, 0, 1),
            Err(BdError::UnknownSource(0))
        ));
    }
}
