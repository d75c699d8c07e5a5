//! The `BD[·]` betweenness-data abstraction.
//!
//! For every source `s` the framework keeps three fixed-width arrays —
//! distance `d`, shortest-path count `σ`, dependency `δ` — and nothing else
//! (no predecessor lists, §3 "Memory optimisation"). This module defines the
//! storage contract those arrays live behind:
//!
//! * [`MemoryBdStore`] — everything resident (the paper's MO configuration);
//! * the `ebc-store` crate implements the out-of-core columnar layout (DO).
//!
//! The trait surface is shaped by the access pattern of Algorithm 1. One
//! writer, [`BdStore::update_batch`], drives an edge update over every
//! source: it checks the two endpoint distances first, so a source with
//! `dd == 0` is skipped without touching `σ`/`δ` (the paper's §5.1 skip, a
//! "constant offset" read on disk), and hands each remaining source's full
//! mutable `BD[s]` view to the update kernel. Every other caller reads a
//! record through the read-only [`BdStore::read`].

use ebc_graph::{Error, FxHashMap, VertexId, UNREACHABLE};

/// Vertex id, distance and σ of a cell a [`Narrow`] record could not hold:
/// the store writes it once it has re-strided wide.
pub type Spilled = (VertexId, u32, u64);

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Narrow {}
    impl Sealed for super::Wide {}
}

/// A cell type with a fixed little-endian byte form: what a record body on
/// disk holds, column by column.
pub trait Le: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Bytes of one cell.
    const BYTES: usize;
    /// The cell `b` holds (`b` is [`Le::BYTES`] long).
    fn from_le(b: &[u8]) -> Self;
    /// Write the cell into `b` ([`Le::BYTES`] long).
    fn to_le(self, b: &mut [u8]);
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Le for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("one cell's bytes"))
            }
            #[inline]
            fn to_le(self, b: &mut [u8]) {
                b.copy_from_slice(&self.to_le_bytes())
            }
        }
    )*};
}
le!(u8, u16, u32, u64, f64);

/// The integer widths a record's `d` and `σ` cells are stored at (`δ` is
/// an `f64` at both). A [`MemoryBdStore`] holds its records [`Narrow`]
/// until a cell does not fit, then [`Wide`]; the update kernel is compiled
/// once per width.
pub trait Width: sealed::Sealed + 'static {
    /// A distance cell.
    type D: Le;
    /// A path-count cell.
    type S: Le;
    /// Bytes of one cell: `d`, `σ` and the 8-byte `δ`.
    const CELL_BYTES: usize = Self::D::BYTES + Self::S::BYTES + f64::BYTES;
    /// The distance cell `x` holds ([`UNREACHABLE`] for none).
    fn d(x: Self::D) -> u32;
    /// The path count cell `x` holds.
    fn sigma(x: Self::S) -> u64;
    /// Distance `d` at this width, or `None` when it does not fit.
    fn fit_d(d: u32) -> Option<Self::D>;
    /// Path count `sigma` at this width, or `None` when it does not fit.
    fn fit_sigma(sigma: u64) -> Option<Self::S>;
}

/// The paper's §5.1 cell, 11 bytes: `d: u8` with 255 for unreachable (a
/// finite distance up to 254) and `σ: u16`.
#[derive(Debug)]
pub enum Narrow {}

/// The 20-byte cell: `d: u32` and `σ: u64` hold every distance of a graph
/// with `u32` vertex ids and every path count a `u64` sum can reach.
#[derive(Debug)]
pub enum Wide {}

impl Width for Narrow {
    type D = u8;
    type S = u16;
    #[inline]
    fn d(x: u8) -> u32 {
        if x == u8::MAX {
            UNREACHABLE
        } else {
            x as u32
        }
    }
    #[inline]
    fn sigma(x: u16) -> u64 {
        x as u64
    }
    #[inline]
    fn fit_d(d: u32) -> Option<u8> {
        match d {
            UNREACHABLE => Some(u8::MAX),
            0..=254 => Some(d as u8),
            _ => None,
        }
    }
    #[inline]
    fn fit_sigma(sigma: u64) -> Option<u16> {
        u16::try_from(sigma).ok()
    }
}

impl Width for Wide {
    type D = u32;
    type S = u64;
    #[inline]
    fn d(x: u32) -> u32 {
        x
    }
    #[inline]
    fn sigma(x: u64) -> u64 {
        x
    }
    #[inline]
    fn fit_d(d: u32) -> Option<u32> {
        Some(d)
    }
    #[inline]
    fn fit_sigma(sigma: u64) -> Option<u64> {
        Some(sigma)
    }
}

/// One source's `d` and `σ` cells at width `W`, indexed by vertex id.
pub struct Cells<'a, W: Width> {
    /// Distances from the source.
    pub d: &'a mut [W::D],
    /// Shortest-path counts from the source.
    pub sigma: &'a mut [W::S],
}

impl<W: Width> Cells<'_, W> {
    /// Write `d` and `σ` into cell `v`, or push them to `spill` (and write
    /// neither) when either does not fit this width. A [`Wide`] cell holds
    /// every value.
    #[inline]
    pub fn put(&mut self, v: VertexId, d: u32, sigma: u64, spill: &mut Vec<Spilled>) {
        match (W::fit_d(d), W::fit_sigma(sigma)) {
            (Some(d), Some(sigma)) => {
                self.d[v as usize] = d;
                self.sigma[v as usize] = sigma;
            }
            _ => spill.push((v, d, sigma)),
        }
    }
}

/// A record's integer cells at its store's width.
pub enum CellsMut<'a> {
    /// [`Narrow`] cells, and the list a cell that does not fit goes to.
    Narrow(Cells<'a, Narrow>, &'a mut Vec<Spilled>),
    /// [`Wide`] cells.
    Wide(Cells<'a, Wide>),
}

/// Mutable view over one source's `BD[s]` record.
///
/// Every column has length `n` (the number of vertices) and is indexed by
/// vertex id, exactly like the paper's columnar record.
pub struct SourceViewMut<'a> {
    /// Distances and shortest-path counts, at the store's width.
    pub cells: CellsMut<'a>,
    /// Accumulated dependencies `δ_s(·)`.
    pub delta: &'a mut [f64],
    /// Where the callback lists the vertex ids of the cells it wrote, if
    /// the backend wants them (out-of-core backends persist and log just
    /// those cells). Handed over empty; a record whose callback lists no
    /// cell is not written back.
    pub wrote: Option<&'a mut Vec<VertexId>>,
}

impl SourceViewMut<'_> {
    /// The distance of cell `v`.
    pub fn d(&self, v: VertexId) -> u32 {
        match &self.cells {
            CellsMut::Narrow(c, _) => Narrow::d(c.d[v as usize]),
            CellsMut::Wide(c) => c.d[v as usize],
        }
    }

    /// Write cell `v`'s distance and path count; a narrow record spills a
    /// pair it cannot hold ([`Cells::put`]).
    pub fn set(&mut self, v: VertexId, d: u32, sigma: u64) {
        match &mut self.cells {
            CellsMut::Narrow(c, spill) => c.put(v, d, sigma, spill),
            CellsMut::Wide(c) => c.put(v, d, sigma, &mut Vec::new()),
        }
    }
}

/// Result alias for store operations.
pub type BdResult<T> = Result<T, Error>;

/// `s` is not a source of this store (a wrong partition): `Invalid`,
/// naming `s`.
pub fn unknown_source(s: VertexId) -> Error {
    Error::invalid(format!("source {s} not in this store")).with_source(s)
}

/// `s` is already a source of this store: `Invalid`, naming `s`.
pub fn duplicate_source(s: VertexId) -> Error {
    Error::invalid(format!("source {s} already present")).with_source(s)
}

/// A record of `s` with `got` slots offered to a store of `n`: `Invalid`,
/// naming `s`.
pub fn misshapen(s: VertexId, got: usize, n: usize) -> Error {
    Error::invalid(format!(
        "record of source {s} has {got} slots, the store {n}"
    ))
    .with_source(s)
}

/// Refuse an update endpoint outside records of `n` slots: `Invalid`.
pub fn check_endpoints(u: VertexId, v: VertexId, n: usize) -> BdResult<()> {
    let x = u.max(v);
    if x as usize >= n {
        return Err(Error::invalid(format!(
            "update endpoint {x} outside records of {n} slots"
        )));
    }
    Ok(())
}

/// Callback [`BdStore::read`] hands one record to, as `(d, σ, δ)`.
pub type ReadFn<'a> = &'a mut dyn FnMut(&[u32], &[u64], &[f64]);

/// Callback applied to each non-skipped source of an [`BdStore::update_batch`]
/// call: the source id and its view, in which it lists every cell it writes
/// (see [`SourceViewMut::wrote`]). An error stops the batch.
pub type BatchSourceFn<'a> = &'a mut dyn FnMut(VertexId, SourceViewMut<'_>) -> BdResult<()>;

/// One source's full `BD[s]` record serialized out of a store by
/// [`BdStore::export_source`] — the unit of data a shard handoff moves
/// between machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedRecord {
    /// The source the record belongs to.
    pub source: VertexId,
    /// Distances from the source.
    pub d: Vec<u32>,
    /// Shortest-path counts from the source.
    pub sigma: Vec<u64>,
    /// Accumulated dependencies `δ_s(·)`.
    pub delta: Vec<f64>,
}

/// Storage contract for the per-source `BD[s]` records of one partition.
pub trait BdStore: Send {
    /// Number of vertex slots in every record.
    fn n(&self) -> usize;

    /// The sources managed by this store, in deterministic order.
    fn sources(&self) -> Vec<VertexId>;

    /// Number of sources managed by this store.
    fn num_sources(&self) -> usize;

    /// Hand source `s`'s record to `f` as `(d, σ, δ)`, read-only.
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()>;

    /// Drive one edge update of `{u, v}` over every source, in
    /// [`BdStore::sources`] order: skip the sources whose endpoint
    /// distances are equal (`dd == 0`, Proposition 3.1) and hand each
    /// remaining source's full view to `f`, persisting the cells `f` lists
    /// in [`SourceViewMut::wrote`]. The only way a record changes. Returns
    /// the number of sources skipped; an endpoint outside the records is
    /// `Invalid`, before any record is read, and an error from `f` stops
    /// the batch and is returned.
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64>;

    /// Append one vertex slot (`d = UNREACHABLE`, `σ = 0`, `δ = 0`) to every
    /// record — called when a new vertex joins the graph.
    fn grow_vertex(&mut self) -> BdResult<()>;

    /// Register a brand-new source with its freshly computed record.
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()>;

    /// Unregister source `s` and drop its record — the store no longer
    /// answers for it. Slot compaction is backend-specific; the surviving
    /// sources and their records must be unaffected.
    fn remove_source(&mut self, s: VertexId) -> BdResult<()>;

    /// Serialize source `s`'s record out of the store and unregister it —
    /// the donor half of a shard handoff.
    ///
    /// `tag` is an opaque caller token travelling with the export (the
    /// sharded layer passes the recipient shard id). Backends with a crash
    /// story persist the payload and the tag durably *before* removing the
    /// source, so a kill between the removal here and the installation in
    /// the recipient store can be rolled forward from the journal; once the
    /// handoff has committed elsewhere the journal is discarded via
    /// [`BdStore::retire_export`]. This default implementation (in-memory
    /// backends) reads and removes without journaling.
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        let _ = tag;
        let mut rec = ExportedRecord {
            source: s,
            d: Vec::new(),
            sigma: Vec::new(),
            delta: Vec::new(),
        };
        self.read(s, &mut |d, sigma, delta| {
            (rec.d, rec.sigma, rec.delta) = (d.to_vec(), sigma.to_vec(), delta.to_vec());
        })?;
        self.remove_source(s)?;
        Ok(rec)
    }

    /// Discard any durable export journal [`BdStore::export_source`] left
    /// for `s`, once the handoff has committed on the recipient side. No-op
    /// for backends without one; discarding a journal that does not exist
    /// must succeed.
    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        let _ = s;
        Ok(())
    }

    /// Flush buffered record data to durable storage. No-op for in-memory
    /// backends; out-of-core backends override to make their records
    /// durable (the session checkpoint path calls this through the trait,
    /// without knowing the backend).
    fn flush(&mut self) -> BdResult<()> {
        Ok(())
    }
}

/// A boxed store is the store it holds: every method forwards, the provided
/// ones included, so erasing the type (the facade's
/// `Box<dyn BdStore>`) keeps a backend's overrides — export journals, a
/// durable `flush` — instead of falling back to the trait defaults.
impl<S: BdStore + ?Sized> BdStore for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn sources(&self) -> Vec<VertexId> {
        (**self).sources()
    }
    fn num_sources(&self) -> usize {
        (**self).num_sources()
    }
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
        (**self).read(s, f)
    }
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64> {
        (**self).update_batch(u, v, f)
    }
    fn grow_vertex(&mut self) -> BdResult<()> {
        (**self).grow_vertex()
    }
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        (**self).add_source(s, d, sigma, delta)
    }
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        (**self).remove_source(s)
    }
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        (**self).export_source(s, tag)
    }
    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        (**self).retire_export(s)
    }
    fn flush(&mut self) -> BdResult<()> {
        (**self).flush()
    }
}

/// Fully in-memory `BD` store — the paper's *MO* configuration.
///
/// Struct-of-arrays layout: each of `d`/`sigma`/`delta` is one contiguous
/// slab holding every record back to back with stride [`MemoryBdStore::n`]
/// (slot `i`'s record occupies `[i·n, (i+1)·n)`). One allocation per
/// component instead of three per source keeps the kernel's record walks
/// cache-linear and makes growing/removing a record a `memmove`, not an
/// allocator round trip.
///
/// The `d` and `σ` slabs start [`Narrow`] (11 bytes per cell with `δ`) and
/// are re-strided [`Wide`] (20 bytes), once and for good, the first time a
/// cell does not fit: a record [`BdStore::add_source`] brings, or a cell
/// an [`BdStore::update_batch`] callback spills. A re-stride converts
/// every cell exactly, so no record changes by it.
pub struct MemoryBdStore {
    n: usize,
    order: Vec<VertexId>,
    index: FxHashMap<VertexId, usize>,
    slabs: Slabs,
    delta: Vec<f64>,
    /// Cells the current callback could not write narrow.
    spill: Vec<Spilled>,
    /// A narrow row widened for [`BdStore::read`], reused across reads.
    read_buf: Slab<Wide>,
}

/// Rows of `d` and `σ` cells at width `W`, back to back: every record of a
/// [`MemoryBdStore`], or the one record a disk store has loaded.
pub struct Slab<W: Width> {
    /// Distance cells.
    pub d: Vec<W::D>,
    /// Path-count cells.
    pub sigma: Vec<W::S>,
}

impl<W: Width> Default for Slab<W> {
    fn default() -> Self {
        Slab {
            d: Vec::new(),
            sigma: Vec::new(),
        }
    }
}

/// Slabs at their one live width: [`Narrow`] until a cell does not fit,
/// then [`Wide`] for good ([`Slabs::restride`]).
pub enum Slabs {
    /// 1-byte `d`, 2-byte `σ` cells.
    Narrow(Slab<Narrow>),
    /// 4-byte `d`, 8-byte `σ` cells.
    Wide(Slab<Wide>),
}

impl<W: Width> Slab<W> {
    fn cells(&mut self, row: std::ops::Range<usize>) -> Cells<'_, W> {
        Cells {
            d: &mut self.d[row.clone()],
            sigma: &mut self.sigma[row],
        }
    }

    /// Append a record whose every cell fits this width.
    fn push(&mut self, d: &[u32], sigma: &[u64]) {
        let fits = "a record is checked to fit before it is pushed";
        self.d.extend(d.iter().map(|&x| W::fit_d(x).expect(fits)));
        self.sigma
            .extend(sigma.iter().map(|&x| W::fit_sigma(x).expect(fits)));
    }

    /// A fresh vertex's cell: `d = UNREACHABLE`, `σ = 0`.
    fn fresh() -> (W::D, W::S) {
        let fits = "the fresh-vertex cell fits every width";
        (
            W::fit_d(UNREACHABLE).expect(fits),
            W::fit_sigma(0).expect(fits),
        )
    }

    /// Cut or extend to `len` cells, each new one a fresh vertex's.
    fn resize(&mut self, len: usize) {
        let (d, sigma) = Self::fresh();
        self.d.resize(len, d);
        self.sigma.resize(len, sigma);
    }

    fn grow(&mut self, slots: usize, old_n: usize) {
        let (d, sigma) = Self::fresh();
        grow_rows(&mut self.d, slots, old_n, d);
        grow_rows(&mut self.sigma, slots, old_n, sigma);
    }

    fn swap_remove(&mut self, slot: usize, last: usize, n: usize) {
        swap_remove_row(&mut self.d, slot, last, n);
        swap_remove_row(&mut self.sigma, slot, last, n);
    }
}

impl Slabs {
    fn cell_bytes(&self) -> usize {
        match self {
            Slabs::Narrow(_) => Narrow::CELL_BYTES,
            Slabs::Wide(_) => Wide::CELL_BYTES,
        }
    }

    /// Whether the live width holds every cell of the record `(d, σ)`; a
    /// wide one holds every record.
    pub fn holds(&self, d: &[u32], sigma: &[u64]) -> bool {
        match self {
            Slabs::Narrow(_) => {
                d.iter().all(|&x| Narrow::fit_d(x).is_some())
                    && sigma.iter().all(|&x| Narrow::fit_sigma(x).is_some())
            }
            Slabs::Wide(_) => true,
        }
    }

    /// Re-stride narrow slabs wide (a no-op on wide ones). Each slab is
    /// converted whole and its narrow form freed before the next, so the
    /// switch peaks at 22 bytes a cell against the wide 20.
    pub fn restride(&mut self) {
        let Slabs::Narrow(narrow) = self else {
            return;
        };
        let Slab { d, sigma } = std::mem::take(narrow);
        let d = d.into_iter().map(Narrow::d).collect();
        let sigma = sigma.into_iter().map(Narrow::sigma).collect();
        *self = Slabs::Wide(Slab { d, sigma });
    }

    /// Append a record the live width holds ([`Slabs::holds`]).
    pub fn push(&mut self, d: &[u32], sigma: &[u64]) {
        match self {
            Slabs::Narrow(slab) => slab.push(d, sigma),
            Slabs::Wide(slab) => slab.push(d, sigma),
        }
    }

    /// Cut or extend to `len` cells, each new one `d = UNREACHABLE, σ = 0`.
    pub fn resize(&mut self, len: usize) {
        match self {
            Slabs::Narrow(slab) => slab.resize(len),
            Slabs::Wide(slab) => slab.resize(len),
        }
    }

    /// The kernel's view of the cells of `row`: a narrow one spills what it
    /// cannot hold to `spill` ([`Slabs::put_spilled`] writes it).
    pub fn cells_mut<'a>(
        &'a mut self,
        row: std::ops::Range<usize>,
        spill: &'a mut Vec<Spilled>,
    ) -> CellsMut<'a> {
        match self {
            Slabs::Narrow(slab) => CellsMut::Narrow(slab.cells(row), spill),
            Slabs::Wide(slab) => CellsMut::Wide(slab.cells(row)),
        }
    }

    /// Re-stride wide and write the cells `spill` holds into `row`,
    /// emptying it.
    pub fn put_spilled(&mut self, row: std::ops::Range<usize>, spill: &mut Vec<Spilled>) {
        self.restride();
        let Slabs::Wide(slab) = self else {
            unreachable!("a re-stride leaves the slabs wide");
        };
        let mut cells = slab.cells(row);
        for (x, d, sigma) in spill.drain(..) {
            cells.put(x, d, sigma, &mut Vec::new());
        }
    }

    /// The `d` and `σ` cells of `row`, wide: a wide row as it lies, a
    /// narrow one widened into `buf`, reused across calls so no read
    /// allocates once it is sized.
    pub fn wide<'a>(
        &'a self,
        row: std::ops::Range<usize>,
        buf: &'a mut Slab<Wide>,
    ) -> (&'a [u32], &'a [u64]) {
        match self {
            Slabs::Wide(slab) => (&slab.d[row.clone()], &slab.sigma[row]),
            Slabs::Narrow(slab) => {
                buf.d.clear();
                buf.d
                    .extend(slab.d[row.clone()].iter().map(|&x| Narrow::d(x)));
                buf.sigma.clear();
                buf.sigma
                    .extend(slab.sigma[row].iter().map(|&x| Narrow::sigma(x)));
                (&buf.d, &buf.sigma)
            }
        }
    }

    fn grow(&mut self, slots: usize, old_n: usize) {
        match self {
            Slabs::Narrow(slab) => slab.grow(slots, old_n),
            Slabs::Wide(slab) => slab.grow(slots, old_n),
        }
    }

    fn swap_remove(&mut self, slot: usize, last: usize, n: usize) {
        match self {
            Slabs::Narrow(slab) => slab.swap_remove(slot, last, n),
            Slabs::Wide(slab) => slab.swap_remove(slot, last, n),
        }
    }
}

/// Re-stride `slab`'s `slots` rows from `old_n` cells to `old_n + 1` in
/// place, the new cell of each row `fresh`. Rows move to larger offsets,
/// so walking them back to front never clobbers an unmoved row (each row
/// move itself is a memmove).
fn grow_rows<T: Copy>(slab: &mut Vec<T>, slots: usize, old_n: usize, fresh: T) {
    let new_n = old_n + 1;
    slab.resize(slots * new_n, fresh);
    for slot in (0..slots).rev() {
        slab.copy_within(slot * old_n..(slot + 1) * old_n, slot * new_n);
        slab[slot * new_n + old_n] = fresh;
    }
}

/// Mirror `Vec::swap_remove` on a slab of `n`-cell rows: row `last` fills
/// the vacated row `slot`, then the slab shrinks to `last` rows.
fn swap_remove_row<T: Copy>(slab: &mut Vec<T>, slot: usize, last: usize, n: usize) {
    if slot != last {
        slab.copy_within(last * n..(last + 1) * n, slot * n);
    }
    slab.truncate(last * n);
}

impl MemoryBdStore {
    /// Empty store for records of `n` vertices.
    pub fn new(n: usize) -> Self {
        MemoryBdStore {
            n,
            order: Vec::new(),
            index: FxHashMap::default(),
            slabs: Slabs::Narrow(Slab::default()),
            delta: Vec::new(),
            spill: Vec::new(),
            read_buf: Slab::default(),
        }
    }

    /// Resident bytes of the records at the live cell width: 11 per cell
    /// while narrow, 20 once wide.
    pub fn resident_bytes(&self) -> usize {
        self.order.len() * self.n * self.slabs.cell_bytes()
    }

    fn slot(&self, s: VertexId) -> BdResult<usize> {
        self.index.get(&s).copied().ok_or_else(|| unknown_source(s))
    }

    #[inline]
    fn row(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.n..(slot + 1) * self.n
    }
}

impl BdStore for MemoryBdStore {
    fn n(&self) -> usize {
        self.n
    }

    fn sources(&self) -> Vec<VertexId> {
        self.order.clone()
    }

    fn num_sources(&self) -> usize {
        self.order.len()
    }

    /// A wide row is handed over as it lies, a narrow one widened
    /// ([`Slabs::wide`]).
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
        let row = self.row(self.slot(s)?);
        let (d, sigma) = self.slabs.wide(row.clone(), &mut self.read_buf);
        f(d, sigma, &self.delta[row]);
        Ok(())
    }

    /// Walks the slabs row by row; no record is copied and no cell is
    /// itemised (`wrote` is `None`): the view is the record. A narrow view
    /// spills the cells that do not fit; once its callback returns, the
    /// slabs are re-strided wide and the spilled cells written, and every
    /// later source gets a wide view.
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64> {
        check_endpoints(u, v, self.n)?;
        let (u, v) = (u as usize, v as usize);
        let mut skipped = 0;
        for slot in 0..self.order.len() {
            let row = self.row(slot);
            let cells = match &mut self.slabs {
                Slabs::Narrow(slab) => {
                    let cells = slab.cells(row.clone());
                    if cells.d[u] == cells.d[v] {
                        skipped += 1;
                        continue;
                    }
                    CellsMut::Narrow(cells, &mut self.spill)
                }
                Slabs::Wide(slab) => {
                    let cells = slab.cells(row.clone());
                    if cells.d[u] == cells.d[v] {
                        skipped += 1;
                        continue;
                    }
                    CellsMut::Wide(cells)
                }
            };
            let view = SourceViewMut {
                cells,
                delta: &mut self.delta[row.clone()],
                wrote: None,
            };
            if let Err(e) = f(self.order[slot], view) {
                self.spill.clear();
                return Err(e);
            }
            if !self.spill.is_empty() {
                self.slabs.put_spilled(row, &mut self.spill);
            }
        }
        Ok(skipped)
    }

    fn grow_vertex(&mut self) -> BdResult<()> {
        let slots = self.order.len();
        self.slabs.grow(slots, self.n);
        grow_rows(&mut self.delta, slots, self.n, 0.0);
        self.n += 1;
        Ok(())
    }

    /// A record with a cell the narrow slabs cannot hold re-strides them
    /// wide first.
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        if self.index.contains_key(&s) {
            return Err(duplicate_source(s));
        }
        if d.len() != self.n || sigma.len() != self.n || delta.len() != self.n {
            return Err(misshapen(s, d.len(), self.n));
        }
        if !self.slabs.holds(&d, &sigma) {
            self.slabs.restride();
        }
        self.index.insert(s, self.order.len());
        self.order.push(s);
        self.slabs.push(&d, &sigma);
        self.delta.extend_from_slice(&delta);
        Ok(())
    }

    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        let slot = self.slot(s)?;
        self.index.remove(&s);
        self.order.swap_remove(slot);
        let last = self.order.len();
        self.slabs.swap_remove(slot, last, self.n);
        swap_remove_row(&mut self.delta, slot, last, self.n);
        if let Some(&moved) = self.order.get(slot) {
            self.index.insert(moved, slot);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::ErrorKind;

    fn invalid_naming(r: BdResult<impl std::fmt::Debug>, s: VertexId) -> bool {
        matches!(r, Err(e) if e.kind() == ErrorKind::Invalid && e.source_vertex() == Some(s))
    }

    type Record = (Vec<u32>, Vec<u64>, Vec<f64>);

    /// Source `s`'s record, read through [`BdStore::read`].
    fn record(st: &mut impl BdStore, s: VertexId) -> BdResult<Record> {
        let mut rec = Record::default();
        st.read(s, &mut |d, sigma, delta| {
            rec = (d.to_vec(), sigma.to_vec(), delta.to_vec());
        })?;
        Ok(rec)
    }

    fn store_with_two_sources() -> MemoryBdStore {
        let mut st = MemoryBdStore::new(3);
        st.add_source(0, vec![0, 1, 2], vec![1, 1, 1], vec![2.0, 1.0, 0.0])
            .unwrap();
        st.add_source(1, vec![1, 0, 1], vec![1, 1, 1], vec![0.0, 2.0, 0.0])
            .unwrap();
        st
    }

    #[test]
    fn peek_reads_distances() {
        let mut st = store_with_two_sources();
        assert_eq!(record(&mut st, 0).unwrap().0, vec![0, 1, 2]);
        assert_eq!(record(&mut st, 1).unwrap().0, vec![1, 0, 1]);
    }

    #[test]
    fn unknown_source_rejected() {
        let mut st = store_with_two_sources();
        assert!(invalid_naming(record(&mut st, 9), 9));
    }

    #[test]
    fn update_mutates_in_place() {
        let mut st = store_with_two_sources();
        st.update_batch(1, 2, &mut |s, mut view| {
            if s == 0 {
                view.set(2, 7, 5);
                view.delta[2] = 3.5;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(
            record(&mut st, 0).unwrap(),
            (vec![0, 1, 7], vec![1, 1, 5], vec![2.0, 1.0, 3.5])
        );
    }

    #[test]
    fn grow_vertex_extends_records() {
        let mut st = store_with_two_sources();
        st.grow_vertex().unwrap();
        assert_eq!(st.n(), 4);
        assert_eq!(record(&mut st, 0).unwrap().0, vec![0, 1, 2, UNREACHABLE]);
        let (d, sigma, delta) = record(&mut st, 1).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!((sigma[3], delta[3]), (0, 0.0));
    }

    #[test]
    fn duplicate_and_misshapen_sources_rejected() {
        let mut st = store_with_two_sources();
        assert!(invalid_naming(
            st.add_source(0, vec![0; 3], vec![0; 3], vec![0.0; 3]),
            0
        ));
        assert!(invalid_naming(
            st.add_source(2, vec![0; 2], vec![0; 2], vec![0.0; 2]),
            2
        ));
    }

    #[test]
    fn update_batch_default_skips_and_counts() {
        let mut st = store_with_two_sources();
        // source 0: d[0]=0, d[1]=1 → processed; source 1: d[0]=1, d[1]=0 → processed
        let mut seen = Vec::new();
        let skipped = st
            .update_batch(0, 1, &mut |s, view| {
                seen.push(s);
                if s == 0 {
                    view.delta[0] += 1.0;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!((seen, skipped), (vec![0, 1], 0));
        assert_eq!(record(&mut st, 0).unwrap().2[0], 3.0);
        // an edge whose endpoints are equidistant from source 1 is skipped
        let mut seen = Vec::new();
        let skipped = st
            .update_batch(0, 2, &mut |s, _| {
                seen.push(s);
                Ok(())
            })
            .unwrap();
        assert_eq!((seen, skipped), (vec![0], 1));
    }

    #[test]
    fn out_of_range_endpoints_are_invalid_and_change_nothing() {
        let mut st = store_with_two_sources();
        let before = [record(&mut st, 0).unwrap(), record(&mut st, 1).unwrap()];
        for (u, v) in [(0, 3), (3, 0), (7, 1)] {
            let err = st
                .update_batch(u, v, &mut |s, _| panic!("source {s} reached the kernel"))
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Invalid, "({u}, {v})");
        }
        assert_eq!(
            [record(&mut st, 0).unwrap(), record(&mut st, 1).unwrap()],
            before
        );
    }

    #[test]
    fn sources_in_insertion_order() {
        let st = store_with_two_sources();
        assert_eq!(st.sources(), vec![0, 1]);
        assert_eq!(st.num_sources(), 2);
    }

    #[test]
    fn remove_source_compacts_and_preserves_survivors() {
        let mut st = store_with_two_sources();
        st.add_source(2, vec![2, 1, 0], vec![1, 1, 1], vec![0.5, 0.25, 0.0])
            .unwrap();
        st.remove_source(0).unwrap();
        assert_eq!(st.sources(), vec![2, 1], "swap-remove order");
        assert!(invalid_naming(record(&mut st, 0), 0));
        // survivors keep their exact records
        assert_eq!(record(&mut st, 1).unwrap().0, vec![1, 0, 1]);
        assert_eq!(record(&mut st, 2).unwrap().0, vec![2, 1, 0]);
        // removing the last slot needs no index fixup
        st.remove_source(1).unwrap();
        assert_eq!(st.sources(), vec![2]);
        assert!(invalid_naming(st.remove_source(9), 9));
    }

    #[test]
    fn slab_restride_survives_interleaved_grow_and_remove() {
        // Rows are strided in shared slabs; growing re-strides in place and
        // removal memmoves the tail row. Interleave both and check every
        // surviving record cell against an independently maintained model,
        // at each cell width (σ scaled by 10⁵ does not fit a narrow cell).
        for scale in [1u64, 100_000] {
            let mut st = MemoryBdStore::new(2);
            let mut model: Vec<(VertexId, Record)> = Vec::new();
            for s in 0..6u32 {
                let d: Vec<u32> = (0..st.n() as u32).map(|v| v + s).collect();
                let sig: Vec<u64> = (0..st.n() as u64)
                    .map(|v| (v + 10 * s as u64 + 1) * scale)
                    .collect();
                let del: Vec<f64> = (0..st.n()).map(|v| v as f64 + s as f64 / 4.0).collect();
                st.add_source(s, d.clone(), sig.clone(), del.clone())
                    .unwrap();
                model.push((s, (d, sig, del)));
                if s % 2 == 1 {
                    st.grow_vertex().unwrap();
                    for (_, r) in &mut model {
                        r.0.push(UNREACHABLE);
                        r.1.push(0);
                        r.2.push(0.0);
                    }
                }
                if s == 3 {
                    st.remove_source(1).unwrap();
                    model.retain(|r| r.0 != 1);
                }
            }
            for (s, rec) in &model {
                assert_eq!(&record(&mut st, *s).unwrap(), rec, "source {s}, ×{scale}");
            }
            let width = if scale == 1 { 11 } else { 20 };
            assert_eq!(st.resident_bytes(), model.len() * st.n() * width);
        }
    }

    #[test]
    fn resident_bytes_report_the_live_width() {
        let mut st = store_with_two_sources();
        assert_eq!(st.resident_bytes(), 2 * 11 * 3, "narrow: 11 bytes a cell");
        st.add_source(2, vec![2, 1, 0], vec![1, 1, 70_000], vec![0.0; 3])
            .unwrap();
        assert_eq!(st.resident_bytes(), 3 * 20 * 3, "wide: 20 bytes a cell");
    }

    #[test]
    fn narrow_cells_hold_254_and_65535_and_a_record_past_either_restrides() {
        let edge = (vec![254, UNREACHABLE, 0], vec![65_535, 0, 1], vec![0.5; 3]);
        for (d, sigma) in [(255, 1), (254, 65_536), (1 << 20, 1 << 40)] {
            let mut st = MemoryBdStore::new(3);
            st.add_source(0, edge.0.clone(), edge.1.clone(), edge.2.clone())
                .unwrap();
            assert_eq!(st.resident_bytes(), 11 * 3, "the boundary values fit");
            assert_eq!(record(&mut st, 0).unwrap(), edge);
            let past = (vec![d, 0, UNREACHABLE], vec![sigma, 1, 0], vec![1.5; 3]);
            st.add_source(1, past.0.clone(), past.1.clone(), past.2.clone())
                .unwrap();
            assert_eq!(st.resident_bytes(), 2 * 20 * 3, "(d, σ) = ({d}, {sigma})");
            assert_eq!(record(&mut st, 0).unwrap(), edge, "converted exactly");
            assert_eq!(record(&mut st, 1).unwrap(), past);
        }
    }

    #[test]
    fn a_spilled_cell_restrides_the_store_and_is_written_wide() {
        let mut st = store_with_two_sources();
        st.add_source(2, vec![2, 1, 0], vec![1, 1, 1], vec![0.25; 3])
            .unwrap();
        let mut widths = Vec::new();
        st.update_batch(0, 2, &mut |s, mut view| {
            widths.push(matches!(view.cells, CellsMut::Wide(_)));
            match s {
                // d fits and σ does not: neither is written narrow
                0 => view.set(2, 9, 70_000),
                2 => view.set(1, 300, 2),
                _ => {}
            }
            view.delta[1] = s as f64;
            Ok(())
        })
        .unwrap();
        assert_eq!(widths, [false, true], "source 1 is skipped, 2 sees it wide");
        assert_eq!(st.resident_bytes(), 3 * 20 * 3);
        assert_eq!(
            record(&mut st, 0).unwrap(),
            (vec![0, 1, 9], vec![1, 1, 70_000], vec![2.0, 0.0, 0.0])
        );
        assert_eq!(
            record(&mut st, 1).unwrap(),
            (vec![1, 0, 1], vec![1, 1, 1], vec![0.0, 2.0, 0.0])
        );
        assert_eq!(
            record(&mut st, 2).unwrap(),
            (vec![2, 300, 0], vec![1, 2, 1], vec![0.25, 2.0, 0.25])
        );
    }

    #[test]
    fn a_failed_callback_stops_the_batch_and_leaves_no_spill() {
        let mut st = store_with_two_sources();
        let mut seen = Vec::new();
        let err = st
            .update_batch(0, 1, &mut |s, mut view| {
                seen.push(s);
                view.set(2, 1000, 1);
                Err(Error::unsupported("refused"))
            })
            .unwrap_err();
        assert_eq!((err.kind(), seen), (ErrorKind::Unsupported, vec![0]));
        assert_eq!(st.resident_bytes(), 2 * 11 * 3, "nothing re-strided");
        // the next batch replays nothing of the failed one
        st.update_batch(0, 1, &mut |_, _| Ok(())).unwrap();
        assert_eq!(record(&mut st, 0).unwrap().0, vec![0, 1, 2]);
    }

    #[test]
    fn export_source_hands_back_the_record_and_removes_it() {
        let mut st = store_with_two_sources();
        let rec = st.export_source(0, 7).unwrap();
        assert_eq!(rec.source, 0);
        assert_eq!(rec.d, vec![0, 1, 2]);
        assert_eq!(rec.sigma, vec![1, 1, 1]);
        assert_eq!(rec.delta, vec![2.0, 1.0, 0.0]);
        assert_eq!(st.sources(), vec![1], "export removes the source");
        // re-importing on another store round-trips
        let mut other = MemoryBdStore::new(3);
        other
            .add_source(rec.source, rec.d, rec.sigma, rec.delta)
            .unwrap();
        assert_eq!(record(&mut other, 0).unwrap().0, vec![0, 1, 2]);
        // retiring an export that left no journal is a no-op
        st.retire_export(0).unwrap();
    }

    /// A memory store counting the calls to the methods a real backend
    /// implements or overrides: `update_batch`, `flush`, `export_source`
    /// and `retire_export`, in that order.
    struct Counted {
        inner: MemoryBdStore,
        calls: std::sync::Arc<[std::sync::atomic::AtomicUsize; 4]>,
    }

    impl Counted {
        fn count(&self, which: usize) {
            self.calls[which].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl BdStore for Counted {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn sources(&self) -> Vec<VertexId> {
            self.inner.sources()
        }
        fn num_sources(&self) -> usize {
            self.inner.num_sources()
        }
        fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
            self.inner.read(s, f)
        }
        fn update_batch(
            &mut self,
            u: VertexId,
            v: VertexId,
            f: BatchSourceFn<'_>,
        ) -> BdResult<u64> {
            self.count(0);
            self.inner.update_batch(u, v, f)
        }
        fn grow_vertex(&mut self) -> BdResult<()> {
            self.inner.grow_vertex()
        }
        fn add_source(
            &mut self,
            s: VertexId,
            d: Vec<u32>,
            sigma: Vec<u64>,
            delta: Vec<f64>,
        ) -> BdResult<()> {
            self.inner.add_source(s, d, sigma, delta)
        }
        fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
            self.inner.remove_source(s)
        }
        fn flush(&mut self) -> BdResult<()> {
            self.count(1);
            Ok(())
        }
        fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
            self.count(2);
            self.inner.export_source(s, tag)
        }
        fn retire_export(&mut self, _s: VertexId) -> BdResult<()> {
            self.count(3);
            Ok(())
        }
    }

    #[test]
    fn a_boxed_store_keeps_its_overrides() {
        let calls: std::sync::Arc<[std::sync::atomic::AtomicUsize; 4]> = Default::default();
        let counted = Counted {
            inner: store_with_two_sources(),
            calls: calls.clone(),
        };
        let mut boxed: Box<dyn BdStore> = Box::new(counted);
        boxed.update_batch(0, 1, &mut |_, _| Ok(())).unwrap();
        boxed.flush().unwrap();
        let rec = boxed.export_source(0, 1).unwrap();
        boxed.retire_export(0).unwrap();
        assert_eq!((rec.source, boxed.sources()), (0, vec![1]));
        // a box around the box forwards just the same
        let mut twice: Box<Box<dyn BdStore>> = Box::new(boxed);
        twice.flush().unwrap();
        let seen = calls
            .each_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(seen, [1, 2, 1, 1], "update_batch, flush, export, retire");
    }
}
