//! How the store crate puts bytes on disk: sealed files and framed logs.
//!
//! Every durable artefact is one of two things. DESIGN.md §7 "Durable
//! artefacts" lists each one, with its magic, its [`Durability`] and what
//! its reader makes of a torn or corrupt copy.
//!
//! * A **sealed record**: [`ebc_graph::seal`]'s `magic · payload ·
//!   checksum`. A file replaced whole goes through [`write_sealed`]: staged
//!   in `<path>.tmp`, then renamed over `path`. The export journal is a
//!   sealed record written in place, unstaged: a torn one fails to unseal,
//!   and by write ordering that proves its export never began.
//! * A **frame** of an append-only log: `len u32 · fnv1a64 u64 · payload`,
//!   sealed by [`seal_frame`] and read back by [`read_frame`], which draws
//!   the one torn-tail line. [`crate::OpLog`] (the coordinator journal, the
//!   session's history WAL) and the record store's redo log frame this way.

use ebc_graph::{fnv1a64, seal, unseal, Error};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// What a file replaced by [`write_sealed`] survives once the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Rename only. A killed process leaves the old file or the new one;
    /// power loss can leave the new name over bytes that never reached the
    /// disk, which then fail to unseal.
    ProcessKill,
    /// Sync the staged bytes, then rename, so the new file survives power
    /// loss once the rename does (the directory itself is not synced).
    PowerLoss,
}

/// `path` with `suffix` appended to its file name: where each companion
/// file of the data file at `path` lives.
pub(crate) fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    PathBuf::from(p)
}

/// Where a file that is replaced by write-then-rename is staged: `path`
/// with `.tmp` appended to its full file name (never replacing an
/// extension, so `history.meta` and `history.wal` stage apart).
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    suffixed(path, ".tmp")
}

/// What a read of `what` that failed says: one that ran past the end of
/// the file is `Corrupt` ("`what` truncated"); any other I/O failure, EIO
/// say, stays `Io`.
pub(crate) fn short_read(e: std::io::Error, what: impl std::fmt::Display) -> Error {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => Error::corrupt(format!("{what} truncated")),
        _ => e.into(),
    }
}

/// Replace `path` with `bytes`: stage them in `<path>.tmp`, sync them when
/// `durability` asks, rename them over `path`.
pub(crate) fn replace(path: &Path, bytes: &[u8], durability: Durability) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if durability == Durability::PowerLoss {
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Replace `path` with `payload` sealed under `magic` (see [`Durability`]).
pub fn write_sealed(
    path: &Path,
    magic: &[u8; 8],
    payload: &[u8],
    durability: Durability,
) -> std::io::Result<()> {
    replace(path, &seal(magic, payload), durability)
}

/// The payload of the file at `path`, a record sealed under `magic`. A
/// missing file is `Io`; one that fails to unseal is `Corrupt` naming the
/// file.
pub fn read_sealed(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, Error> {
    let bytes = std::fs::read(path)?;
    unseal(magic, &bytes)
        .map(<[u8]>::to_vec)
        .map_err(|e| e.within(path.display()))
}

/// Bytes of the `len · fnv1a64` header in front of every framed payload.
pub(crate) const FRAME_HEADER: usize = 12;

/// Fill in the header of `frame`: its first [`FRAME_HEADER`] bytes are
/// reserved, the payload sits behind them.
pub(crate) fn seal_frame(frame: &mut [u8]) -> Result<(), Error> {
    let (head, payload) = frame.split_at_mut(FRAME_HEADER);
    let len =
        u32::try_from(payload.len()).map_err(|_| Error::corrupt("framed payload exceeds 4 GiB"))?;
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    Ok(())
}

/// Read into `payload` the frame that starts `remaining` bytes before the
/// end of `r`. `Ok(true)` is a complete frame whose checksum held.
/// `Ok(false)` is the end of the log, clean or torn: a header that outruns
/// the file, or a final frame that fails its checksum, is a write the crash
/// cut short. A checksum failure anywhere before the tail is corruption.
pub(crate) fn read_frame<R: Read>(
    r: &mut R,
    remaining: u64,
    payload: &mut Vec<u8>,
) -> Result<bool, Error> {
    if remaining < FRAME_HEADER as u64 {
        return Ok(false);
    }
    let (mut len, mut ck) = ([0u8; 4], [0u8; 8]);
    r.read_exact(&mut len)?;
    r.read_exact(&mut ck)?;
    let len = u32::from_le_bytes(len) as u64;
    let body = remaining - FRAME_HEADER as u64;
    if len > body {
        return Ok(false);
    }
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    if fnv1a64(payload) != u64::from_le_bytes(ck) {
        if len == body {
            return Ok(false);
        }
        return Err(Error::corrupt(
            "framed log entry fails its checksum before the tail",
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::ErrorKind;
    use std::io;

    #[test]
    fn only_a_short_read_is_corruption() {
        let eof = short_read(io::Error::from(io::ErrorKind::UnexpectedEof), "record 3");
        assert_eq!(eof.kind(), ErrorKind::Corrupt);
        assert!(eof.context().contains("record 3 truncated"), "{eof}");
        let eio = short_read(io::Error::other("input/output error"), "record 3");
        assert_eq!(eio.kind(), ErrorKind::Io);
        assert!(eio.context().contains("input/output error"), "{eio}");
    }
}
