//! Sealed bytes: the one way every durable artefact of the framework is
//! checksummed, and the one bounds-checked reader every decoder parses with.
//!
//! A sealed record is
//!
//! ```text
//! magic (8 bytes) · payload · FNV-1a-64 of magic and payload (u64 LE)
//! ```
//!
//! [`seal`] builds one and [`unseal`] hands back its payload, or a typed
//! [`SnapshotError::Corrupt`] naming what was wrong (length, magic or
//! checksum). A [`Cursor`] over the payload reads little-endian integers
//! and length-prefixed runs; a read past the end, or a count whose elements
//! cannot fit in the bytes left, is `Corrupt` too, never a panic and never
//! an allocation sized by a lying count. DESIGN.md §7 "Durable artefacts"
//! lists every artefact sealed this way and the file-level rules around it.

use crate::snapshot::SnapshotError;

/// Bytes of the checksum trailer behind a sealed payload.
const TRAILER: usize = 8;

/// 64-bit FNV-1a: the checksum of sealed records and of log frames. Every
/// layer uses this one implementation, so they agree bit for bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// `magic · payload · fnv1a64(magic · payload)`.
pub fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + payload.len() + TRAILER);
    out.extend_from_slice(magic);
    out.extend_from_slice(payload);
    seal_in_place(out)
}

/// Append the checksum trailer to `buf`, which already holds the magic and
/// the payload: [`seal`] for a caller that built the record in place.
pub(crate) fn seal_in_place(mut buf: Vec<u8>) -> Vec<u8> {
    let ck = fnv1a64(&buf);
    buf.extend_from_slice(&ck.to_le_bytes());
    buf
}

/// The payload of `bytes`, a record [`seal`]ed under `magic`. A record too
/// short to hold magic and trailer, with another magic, or whose checksum
/// does not match is [`SnapshotError::Corrupt`].
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], SnapshotError> {
    let body_len = bytes
        .len()
        .checked_sub(TRAILER)
        .filter(|&len| len >= magic.len())
        .ok_or_else(|| corrupt(format!("{} bytes is too short to be sealed", bytes.len())))?;
    let (body, trailer) = bytes.split_at(body_len);
    let mut cur = Cursor::new(body);
    let found = cur.take(magic.len())?;
    if found != magic {
        return Err(corrupt(format!(
            "magic {:?} where {:?} was expected",
            String::from_utf8_lossy(found),
            String::from_utf8_lossy(magic)
        )));
    }
    if Cursor::new(trailer).u64()? != fnv1a64(body) {
        return Err(corrupt(format!(
            "{:?} record fails its checksum",
            String::from_utf8_lossy(magic)
        )));
    }
    Ok(cur.rest())
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        if len > self.remaining() {
            return Err(corrupt(format!(
                "truncated: {len} bytes wanted at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count of elements at least `elem` bytes long each, checked
    /// against the bytes left: a count that cannot fit is `Corrupt`, so it
    /// is safe to size an allocation or a multiplication by.
    pub fn count_u64(&mut self, elem: usize) -> Result<usize, SnapshotError> {
        let count = self.u64()?;
        self.fits(count, elem)
    }

    /// [`Cursor::count_u64`] for a `u32` count.
    pub fn count_u32(&mut self, elem: usize) -> Result<usize, SnapshotError> {
        let count = self.u32()?;
        self.fits(count.into(), elem)
    }

    fn fits(&self, count: u64, elem: usize) -> Result<usize, SnapshotError> {
        usize::try_from(count)
            .ok()
            .filter(|&c| {
                c.checked_mul(elem.max(1))
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or_else(|| {
                corrupt(format!(
                    "count {count} of {elem}-byte elements overruns the {} bytes left",
                    self.remaining()
                ))
            })
    }

    /// `Ok` when every byte has been read; trailing bytes are `Corrupt`.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(corrupt(format!("{left} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic payloads of assorted lengths.
    fn payloads() -> Vec<Vec<u8>> {
        [0usize, 1, 7, 8, 9, 33, 200]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 151 + len) as u8).collect())
            .collect()
    }

    /// Every payload round-trips; every truncation and every single-bit
    /// flip of its sealed record is an `Err`, never a panic and never a
    /// silently different payload.
    #[test]
    fn every_truncation_and_bit_flip_is_an_error() {
        for p in payloads() {
            let sealed = seal(b"EBCTEST1", &p);
            assert_eq!(unseal(b"EBCTEST1", &sealed).unwrap(), &p[..]);
            assert!(unseal(b"EBCTEST2", &sealed).is_err(), "another magic");
            for len in 0..sealed.len() {
                assert!(
                    matches!(
                        unseal(b"EBCTEST1", &sealed[..len]),
                        Err(SnapshotError::Corrupt(_))
                    ),
                    "payload of {} bytes cut to {len}",
                    p.len()
                );
            }
            for bit in 0..sealed.len() * 8 {
                let mut bad = sealed.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(unseal(b"EBCTEST1", &bad), Err(SnapshotError::Corrupt(_))),
                    "payload of {} bytes, bit {bit} flipped",
                    p.len()
                );
            }
        }
    }

    /// A decoder built on the cursor fails with `Corrupt` on every prefix
    /// of a valid encoding, and on lying counts and trailing bytes.
    #[test]
    fn cursor_reads_are_bounds_checked() {
        fn decode(bytes: &[u8]) -> Result<(u8, u32, Vec<u64>, Vec<u8>), SnapshotError> {
            let mut c = Cursor::new(bytes);
            let (a, b) = (c.u8()?, c.u32()?);
            let n = c.count_u64(8)?;
            let mut xs = Vec::with_capacity(n); // sized by the count, as decoders do
            for _ in 0..n {
                xs.push(c.u64()?);
            }
            let m = c.count_u32(1)?;
            let tail = c.take(m)?.to_vec();
            c.finish()?;
            Ok((a, b, xs, tail))
        }
        let mut good = vec![7u8];
        good.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        good.extend_from_slice(&2u64.to_le_bytes());
        good.extend_from_slice(&1u64.to_le_bytes());
        good.extend_from_slice(&u64::MAX.to_le_bytes());
        good.extend_from_slice(&3u32.to_le_bytes());
        good.extend_from_slice(b"abc");
        assert_eq!(
            decode(&good).unwrap(),
            (7, 0xdead_beef, vec![1, u64::MAX], b"abc".to_vec())
        );
        for len in 0..good.len() {
            assert!(decode(&good[..len]).is_err(), "prefix of {len} bytes");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing byte");
        for lie in [3u64, 1 << 40, 1 << 62, u64::MAX] {
            let mut bad = good.clone();
            bad[5..13].copy_from_slice(&lie.to_le_bytes());
            assert!(
                matches!(decode(&bad), Err(SnapshotError::Corrupt(_))),
                "count {lie}"
            );
        }
    }
}
