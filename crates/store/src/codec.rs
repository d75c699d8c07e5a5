//! Record widths and the one record-body layout.
//!
//! A record body holds one source's `BD[s]` as three contiguous columns —
//! `[d column][σ column][δ column]`, each cell little-endian — so a column
//! can be scanned without reading the rest (the paper's distance-first
//! skip check). A body is loaded into, and stored from, a [`Row`]: one row
//! of the memory store's own slab type at the header's width, so the disk
//! store hands the update kernel the same narrow or wide view the memory
//! store does. [`load`] and [`store`] are the only code that knows the
//! column order and the byte widths.

use ebc_core::bd::{Le, Narrow, Slab, Slabs, SourceViewMut, Spilled, Wide, Width};
use ebc_graph::VertexId;
use std::ops::Range;

/// On-disk encoding of one `BD[s]` record: the width of its `d` and `σ`
/// cells, [`Narrow`] or [`ebc_core::bd::Wide`]. A store is created at a
/// start width and re-slabs itself [`CodecKind::Wide`], once, the first
/// time a cell does not fit ([`CodecKind::fits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// The paper's §5.1 layout: 1-byte distance (255 ⇒ unreachable), 2-byte
    /// shortest-path count, 8-byte dependency — 11 bytes per vertex.
    Paper,
    /// Lossless layout: 4-byte distance, 8-byte σ, 8-byte δ — 20 bytes per
    /// vertex.
    Wide,
}

impl CodecKind {
    /// Identifier persisted in store headers.
    pub fn id(self) -> u8 {
        match self {
            CodecKind::Paper => 1,
            CodecKind::Wide => 2,
        }
    }

    /// Inverse of [`CodecKind::id`].
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(CodecKind::Paper),
            2 => Some(CodecKind::Wide),
            _ => None,
        }
    }

    /// Whether this codec holds a cell of distance `d` and path count
    /// `sigma` exactly. [`CodecKind::Wide`] holds every value.
    #[inline]
    pub fn fits(self, d: u32, sigma: u64) -> bool {
        match self {
            CodecKind::Paper => Narrow::fit_d(d).is_some() && Narrow::fit_sigma(sigma).is_some(),
            CodecKind::Wide => true,
        }
    }

    /// Width of one distance entry in bytes.
    pub fn d_width(self) -> usize {
        match self {
            CodecKind::Paper => <Narrow as Width>::D::BYTES,
            CodecKind::Wide => <Wide as Width>::D::BYTES,
        }
    }

    /// Width of one σ entry in bytes.
    pub fn sigma_width(self) -> usize {
        match self {
            CodecKind::Paper => <Narrow as Width>::S::BYTES,
            CodecKind::Wide => <Wide as Width>::S::BYTES,
        }
    }

    /// Width of one δ entry in bytes (always an f64).
    pub fn delta_width(self) -> usize {
        f64::BYTES
    }

    /// Total record size for `n` vertices.
    pub fn record_size(self, n: usize) -> usize {
        n * (self.d_width() + self.sigma_width() + self.delta_width())
    }

    /// Byte offset of the σ column inside a record.
    pub fn sigma_column_offset(self, n: usize) -> usize {
        n * self.d_width()
    }

    /// Byte offset of the δ column inside a record.
    pub fn delta_column_offset(self, n: usize) -> usize {
        n * (self.d_width() + self.sigma_width())
    }
}

/// One cell of a record as `(v, d, σ, δ)`, at every width.
pub(crate) type Cell = (VertexId, u32, u64, f64);

/// One record as a row of the memory store's slabs: its `d` and `σ` cells
/// at the width of a [`CodecKind`], and its `δ` cells.
pub(crate) struct Row {
    pub(crate) cells: Slabs,
    pub(crate) delta: Vec<f64>,
}

impl Row {
    /// A row of `len` fresh-vertex cells at `codec`'s width.
    pub(crate) fn new(codec: CodecKind, len: usize) -> Row {
        let cells = match codec {
            CodecKind::Paper => Slabs::Narrow(Slab::default()),
            CodecKind::Wide => Slabs::Wide(Slab::default()),
        };
        let mut row = Row {
            cells,
            delta: Vec::new(),
        };
        row.resize(len);
        row
    }

    /// The width the row holds its cells at.
    pub(crate) fn codec(&self) -> CodecKind {
        match self.cells {
            Slabs::Narrow(_) => CodecKind::Paper,
            Slabs::Wide(_) => CodecKind::Wide,
        }
    }

    /// Cut or extend to `len` cells, each new one `d = UNREACHABLE`,
    /// `σ = 0`, `δ = 0`.
    pub(crate) fn resize(&mut self, len: usize) {
        self.cells.resize(len);
        self.delta.resize(len, 0.0);
    }

    /// Hold the record `(d, σ, δ)` in the first cells, which the row's
    /// width must hold ([`Slabs::holds`]), and fresh cells after it.
    pub(crate) fn assign(&mut self, d: &[u32], sigma: &[u64], delta: &[f64]) {
        let len = self.delta.len();
        self.resize(0);
        self.cells.push(d, sigma);
        self.delta.extend_from_slice(delta);
        self.resize(len);
    }

    /// Cell `v` as `(v, d, σ, δ)`, wide: a cell as the redo log holds it.
    pub(crate) fn cell(&self, v: VertexId) -> Cell {
        let i = v as usize;
        let (d, sigma) = match &self.cells {
            Slabs::Narrow(slab) => (Narrow::d(slab.d[i]), Narrow::sigma(slab.sigma[i])),
            Slabs::Wide(slab) => (slab.d[i], slab.sigma[i]),
        };
        (v, d, sigma, self.delta[i])
    }

    /// Write a cell [`Row::cell`] gave; a `(d, σ)` the row's width does not
    /// hold goes to `spill` instead ([`ebc_core::bd::Cells::put`]).
    pub(crate) fn put(&mut self, (v, d, sigma, delta): Cell, spill: &mut Vec<Spilled>) {
        let len = self.delta.len();
        SourceViewMut {
            cells: self.cells.cells_mut(0..len, spill),
            delta: &mut self.delta,
            wrote: None,
        }
        .set(v, d, sigma);
        self.delta[v as usize] = delta;
    }

    /// Load a body of `body.len() / cell bytes` cells into the first cells.
    pub(crate) fn load(&mut self, body: &[u8]) {
        match &mut self.cells {
            Slabs::Narrow(slab) => load(body, slab, &mut self.delta),
            Slabs::Wide(slab) => load(body, slab, &mut self.delta),
        }
    }

    /// Load `bytes`, a span of a `d` column, into the cells from `from` on.
    pub(crate) fn load_d(&mut self, from: usize, bytes: &[u8]) {
        match &mut self.cells {
            Slabs::Narrow(slab) => load_col(bytes, &mut slab.d[from..]),
            Slabs::Wide(slab) => load_col(bytes, &mut slab.d[from..]),
        }
    }

    /// Store the first `body.len() / cell bytes` cells as a body.
    pub(crate) fn store(&self, body: &mut [u8]) {
        match &self.cells {
            Slabs::Narrow(slab) => store::<Narrow>(&slab.d, &slab.sigma, &self.delta, body),
            Slabs::Wide(slab) => store::<Wide>(&slab.d, &slab.sigma, &self.delta, body),
        }
    }

    /// Store only the cells `at` into `body`, a body of the whole row.
    pub(crate) fn patch(&self, at: &[VertexId], body: &mut [u8]) {
        match &self.cells {
            Slabs::Narrow(slab) => patch(slab, &self.delta, at, body),
            Slabs::Wide(slab) => patch(slab, &self.delta, at, body),
        }
    }
}

/// Byte ranges of the `d`, `σ` and `δ` columns of a body of `len` cells
/// at width `W`.
fn columns<W: Width>(len: usize) -> [Range<usize>; 3] {
    let sigma_at = len * W::D::BYTES;
    let delta_at = sigma_at + len * W::S::BYTES;
    [
        0..sigma_at,
        sigma_at..delta_at,
        delta_at..len * W::CELL_BYTES,
    ]
}

fn load_col<T: Le>(bytes: &[u8], col: &mut [T]) {
    for (x, b) in col.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
        *x = T::from_le(b);
    }
}

fn store_col<T: Le>(col: &[T], bytes: &mut [u8]) {
    for (x, b) in col.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
        x.to_le(b);
    }
}

fn patch_col<T: Le>(col: &[T], bytes: &mut [u8], at: &[VertexId]) {
    for &v in at {
        let i = v as usize;
        col[i].to_le(&mut bytes[i * T::BYTES..(i + 1) * T::BYTES]);
    }
}

/// Load a body of `body.len() / W::CELL_BYTES` cells into the first cells
/// of `slab` and `delta`.
fn load<W: Width>(body: &[u8], slab: &mut Slab<W>, delta: &mut [f64]) {
    let [d, sigma, del] = columns::<W>(body.len() / W::CELL_BYTES);
    load_col(&body[d], &mut slab.d);
    load_col(&body[sigma], &mut slab.sigma);
    load_col(&body[del], delta);
}

/// Store the first `body.len() / W::CELL_BYTES` cells as a body.
fn store<W: Width>(d: &[W::D], sigma: &[W::S], delta: &[f64], body: &mut [u8]) {
    let [dc, sc, delc] = columns::<W>(body.len() / W::CELL_BYTES);
    store_col(d, &mut body[dc]);
    store_col(sigma, &mut body[sc]);
    store_col(delta, &mut body[delc]);
}

/// Store the cells `at` of a row into `body`, the body of the whole row.
fn patch<W: Width>(slab: &Slab<W>, delta: &[f64], at: &[VertexId], body: &mut [u8]) {
    let [d, sigma, del] = columns::<W>(delta.len());
    patch_col(&slab.d, &mut body[d], at);
    patch_col(&slab.sigma, &mut body[sigma], at);
    patch_col(delta, &mut body[del], at);
}

/// Store a row as a [`CodecKind::Wide`] body whatever its width; `buf`
/// holds a narrow row widened.
pub(crate) fn store_wide(row: &Row, buf: &mut Slab<Wide>, body: &mut [u8]) {
    let (d, sigma) = row.cells.wide(0..row.delta.len(), buf);
    store::<Wide>(d, sigma, &row.delta, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::UNREACHABLE;

    #[test]
    fn widths_and_record_size() {
        assert_eq!(CodecKind::Paper.record_size(10), 110); // the paper's 11 B/vertex
        assert_eq!(CodecKind::Wide.record_size(10), 200);
        assert_eq!(CodecKind::Paper.sigma_column_offset(10), 10);
        assert_eq!(CodecKind::Wide.delta_column_offset(10), 120);
    }

    #[test]
    fn id_roundtrip() {
        for c in [CodecKind::Paper, CodecKind::Wide] {
            assert_eq!(CodecKind::from_id(c.id()), Some(c));
        }
        assert_eq!(CodecKind::from_id(0), None);
        assert_eq!(CodecKind::from_id(9), None);
    }

    type Record = (Vec<u32>, Vec<u64>, Vec<f64>);

    /// `rec` stored from a row at `codec` and loaded into a fresh one.
    fn roundtrip(codec: CodecKind, rec: &Record) -> Record {
        let n = rec.0.len();
        let mut row = Row::new(codec, n);
        row.assign(&rec.0, &rec.1, &rec.2);
        let mut body = vec![0u8; codec.record_size(n)];
        row.store(&mut body);
        let mut back = Row::new(codec, n);
        back.load(&body);
        let mut buf = Slab::default();
        let (d, sigma) = back.cells.wide(0..n, &mut buf);
        (d.to_vec(), sigma.to_vec(), back.delta)
    }

    #[test]
    fn wide_record_roundtrip_lossless() {
        let rec = (
            vec![0, 3, UNREACHABLE, 1_000_000],
            vec![1, u64::MAX, 0, 123_456_789_012],
            vec![0.0, -1.5, f64::MAX, 1e-300],
        );
        assert_eq!(roundtrip(CodecKind::Wide, &rec), rec);
    }

    #[test]
    fn paper_record_roundtrip_within_range() {
        let c = CodecKind::Paper;
        let rec = (
            vec![0, 17, 254, UNREACHABLE],
            vec![1, 65_535, 42, 0],
            vec![0.5, 2.0, -7.25, 0.0],
        );
        assert!(rec
            .0
            .iter()
            .zip(&rec.1)
            .all(|(&d, &sigma)| c.fits(d, sigma)));
        assert_eq!(roundtrip(c, &rec), rec);
        // one past either limit does not fit; the wide codec holds it
        for (d, sigma) in [(255, 1), (UNREACHABLE - 1, 1), (1, 65_536)] {
            assert!(!c.fits(d, sigma), "d = {d}, σ = {sigma}");
        }
        assert!(CodecKind::Wide.fits(UNREACHABLE - 1, u64::MAX));
    }
}
