//! Fixed-width per-vertex record codecs.
//!
//! A record holds one source's `BD[s]` as three contiguous columns —
//! `[d column][σ column][δ column]` — so a column can be scanned without
//! deserialising the rest (the paper's distance-first skip check).

use ebc_core::bd::{Narrow, Width};

/// What a narrow encode of a cell that does not fit says.
const NARROW: &str = "a narrow cell is checked to fit before it is encoded";

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
            CodecKind::Paper => 1,
            CodecKind::Wide => 4,
        }
    }

    /// Width of one σ entry in bytes.
    pub fn sigma_width(self) -> usize {
        match self {
            CodecKind::Paper => 2,
            CodecKind::Wide => 8,
        }
    }

    /// Width of one δ entry in bytes (always an f64).
    pub fn delta_width(self) -> usize {
        8
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

    /// Encode one distance at `buf` (must be `d_width` bytes). Panics when
    /// it does not fit ([`CodecKind::fits`]): a store widens first.
    #[inline]
    pub fn encode_d(self, d: u32, buf: &mut [u8]) {
        match self {
            CodecKind::Paper => buf[0] = Narrow::fit_d(d).expect(NARROW),
            CodecKind::Wide => buf.copy_from_slice(&d.to_le_bytes()),
        }
    }

    /// Decode one distance.
    #[inline]
    pub fn decode_d(self, buf: &[u8]) -> u32 {
        match self {
            CodecKind::Paper => Narrow::d(buf[0]),
            CodecKind::Wide => u32::from_le_bytes(buf[..4].try_into().expect("4-byte d")),
        }
    }

    /// Encode one σ. Panics when it does not fit, as [`CodecKind::encode_d`].
    #[inline]
    pub fn encode_sigma(self, sigma: u64, buf: &mut [u8]) {
        match self {
            CodecKind::Paper => {
                buf[..2].copy_from_slice(&Narrow::fit_sigma(sigma).expect(NARROW).to_le_bytes())
            }
            CodecKind::Wide => buf.copy_from_slice(&sigma.to_le_bytes()),
        }
    }

    /// Decode one σ.
    #[inline]
    pub fn decode_sigma(self, buf: &[u8]) -> u64 {
        match self {
            CodecKind::Paper => {
                Narrow::sigma(u16::from_le_bytes(buf[..2].try_into().expect("2-byte σ")))
            }
            CodecKind::Wide => u64::from_le_bytes(buf[..8].try_into().expect("8-byte σ")),
        }
    }

    /// Encode a full record into `out` (length `record_size(n)`), one
    /// [`CodecKind::encode_cell`] per vertex.
    pub fn encode_record(self, d: &[u32], sigma: &[u64], delta: &[f64], out: &mut [u8]) {
        let n = d.len();
        debug_assert_eq!(out.len(), self.record_size(n));
        for (i, ((&d, &sigma), &delta)) in d.iter().zip(sigma).zip(delta).enumerate() {
            self.encode_cell(n, i, d, sigma, delta, out);
        }
    }

    /// Encode vertex `i`'s three entries in place in `out`, an encoded
    /// record of `n` slots. Panics on a cell this codec does not hold, as
    /// [`CodecKind::encode_d`].
    #[inline]
    pub fn encode_cell(self, n: usize, i: usize, d: u32, sigma: u64, delta: f64, out: &mut [u8]) {
        let (dw, sw) = (self.d_width(), self.sigma_width());
        let (sigma_at, delta_at) = (self.sigma_column_offset(n), self.delta_column_offset(n));
        self.encode_d(d, &mut out[i * dw..(i + 1) * dw]);
        self.encode_sigma(sigma, &mut out[sigma_at + i * sw..sigma_at + (i + 1) * sw]);
        out[delta_at + i * 8..delta_at + (i + 1) * 8].copy_from_slice(&delta.to_le_bytes());
    }

    /// Decode a full record into the provided arrays.
    pub fn decode_record(self, buf: &[u8], d: &mut [u32], sigma: &mut [u64], delta: &mut [f64]) {
        let n = d.len();
        debug_assert_eq!(buf.len(), self.record_size(n));
        let dw = self.d_width();
        let sw = self.sigma_width();
        let (d_col, rest) = buf.split_at(n * dw);
        let (s_col, del_col) = rest.split_at(n * sw);
        for i in 0..n {
            d[i] = self.decode_d(&d_col[i * dw..(i + 1) * dw]);
            sigma[i] = self.decode_sigma(&s_col[i * sw..(i + 1) * sw]);
            delta[i] =
                f64::from_le_bytes(del_col[i * 8..(i + 1) * 8].try_into().expect("8-byte δ"));
        }
    }
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

    #[test]
    fn wide_record_roundtrip_lossless() {
        let c = CodecKind::Wide;
        let d = vec![0, 3, UNREACHABLE, 1_000_000];
        let sigma = vec![1, u64::MAX, 0, 123_456_789_012];
        let delta = vec![0.0, -1.5, f64::MAX, 1e-300];
        let mut buf = vec![0u8; c.record_size(4)];
        c.encode_record(&d, &sigma, &delta, &mut buf);
        let (mut d2, mut s2, mut del2) = (vec![0; 4], vec![0; 4], vec![0.0; 4]);
        c.decode_record(&buf, &mut d2, &mut s2, &mut del2);
        assert_eq!(d2, d);
        assert_eq!(s2, sigma);
        assert_eq!(del2, delta);
    }

    #[test]
    fn paper_record_roundtrip_within_range() {
        let c = CodecKind::Paper;
        let d = vec![0, 17, 254, UNREACHABLE];
        let sigma = vec![1, 65_535, 42, 0];
        let delta = vec![0.5, 2.0, -7.25, 0.0];
        assert!(d.iter().zip(&sigma).all(|(&d, &sigma)| c.fits(d, sigma)));
        let mut buf = vec![0u8; c.record_size(4)];
        c.encode_record(&d, &sigma, &delta, &mut buf);
        let (mut d2, mut s2, mut del2) = (vec![0; 4], vec![0; 4], vec![0.0; 4]);
        c.decode_record(&buf, &mut d2, &mut s2, &mut del2);
        assert_eq!(d2, d);
        assert_eq!(s2, sigma);
        assert_eq!(del2, delta);
        // one past either limit does not fit; the wide codec holds it
        for (d, sigma) in [(255, 1), (UNREACHABLE - 1, 1), (1, 65_536)] {
            assert!(!c.fits(d, sigma), "d = {d}, σ = {sigma}");
        }
        assert!(CodecKind::Wide.fits(UNREACHABLE - 1, u64::MAX));
    }
}
