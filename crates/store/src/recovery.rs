//! Crash recovery for the on-disk store: the write-ahead intent record and
//! the `open()`-time repair state machine.
//!
//! Every multi-file mutation of a [`crate::DiskBdStore`] — registering a
//! source (`add_source`: record + header + sidecar), removing one, and
//! re-slabbing (`grow_vertex` past the headroom) — first writes a
//! tiny fixed-size *intent record* to the `<path>.wal` sidecar, then
//! performs the mutation, and finally deletes the intent to commit. A crash
//! at any point leaves one of a small set of observable states, and the
//! recovery pass (invoked by `DiskBdStore::open` before the normal
//! header/sidecar validation) rolls the torn mutation *forward* when the
//! durable payload is complete or *back* to the pre-mutation state when it
//! is not. DESIGN.md §7 tabulates the full crash matrix.
//!
//! ## Intent record (`<path>.wal`)
//!
//! A sealed record (magic `EBCWAL2\n`, written in place and unstaged; the
//! table in DESIGN.md §7 "Durable artefacts" has the rule) whose payload
//! is, little-endian: op `u8` (1 = AddSource, 2 = Reslab, 4 =
//! RemoveSource; 3 was the retired v1 migration and reads as an unknown
//! op), source id `u32` (AddSource/RemoveSource only, else 0), payload
//! checksum `u64` (FNV-1a of the encoded record being appended; AddSource
//! only), then the old and the new geometry as `n, count, cap` (`u64`
//! each).
//!
//! ## Crash model
//!
//! Recovery is *kill-safe by write ordering*: the intent is fully written
//! before the guarded files are touched, individual header-field updates
//! and record `write_all`s are assumed atomic at the syscall level, and the
//! sidecar is always replaced via temp-file + `rename`. A torn intent file
//! (one that fails to unseal) therefore proves the guarded mutation never
//! began and is simply discarded. The appended-record checksum stored in
//! the intent lets recovery detect (and roll back) an appended record whose
//! bytes did not survive.
//!
//! The guarantee is scoped to **process kill**, where the page cache
//! preserves write ordering. It does *not* extend to power loss:
//! [`crate::DiskBdStore::flush`] makes the record data durable (by syncing
//! the redo log of the cells each update changed, or by folding, and by
//! syncing the sidecar it rewrites), but the intent record, the sidecar
//! renames inside the guarded sequences, and their containing directory
//! are deliberately not fsynced on the hot path, so a power cut can still
//! reorder the journal protocol against the data writes. Hardening the
//! journal for power loss (fsync of `.wal` and of the directory at each
//! commit point) is future work.
//!
//! The redo log never overlaps this journal: every guarded mutation folds
//! first ([`crate::DiskBdStore::fold`]), so recovery here always runs
//! against an empty log, and `open()` replays the log only afterwards.

use crate::disk::{
    read_sidecar_ids, write_header_field, write_sidecar, Header, COUNT_AT, HEADER_LEN,
};
use crate::seal::{suffixed, Durability};
use ebc_core::bd::BdResult;
use ebc_graph::{fnv1a64, seal, unseal, Cursor, Error, VertexId};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"EBCWAL2\n";

/// The multi-file mutation a write-ahead intent record guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentOp {
    /// `add_source`: append a record, bump the header count, rewrite the
    /// sidecar.
    AddSource,
    /// Re-slab: rewrite the data file at a larger slab capacity (headroom
    /// exhausted by `grow_vertex`).
    Reslab,
    /// `remove_source`: copy the final record into the vacated slot,
    /// decrement the header count, rewrite the sidecar, truncate.
    RemoveSource,
}

impl IntentOp {
    fn id(self) -> u8 {
        match self {
            IntentOp::AddSource => 1,
            IntentOp::Reslab => 2,
            IntentOp::RemoveSource => 4,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(IntentOp::AddSource),
            2 => Some(IntentOp::Reslab),
            4 => Some(IntentOp::RemoveSource),
            _ => None,
        }
    }
}

/// What `open()` had to do to repair a torn mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The durable payload of the torn mutation was complete; recovery
    /// finished the remaining metadata steps.
    RolledForward(IntentOp),
    /// The payload was incomplete; recovery restored the exact
    /// pre-mutation state.
    RolledBack(IntentOp),
    /// A torn or unparsable intent record was discarded — the guarded
    /// mutation had not begun, so no repair was needed.
    DiscardedIntent,
    /// The redo log held frames: every complete one was re-applied to the
    /// records, then the log was folded. `frames` is 0 when all it held
    /// was a torn tail.
    ReplayedRedo {
        /// Complete frames applied.
        frames: u64,
    },
}

/// File geometry snapshot carried by an intent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub n: u64,
    pub count: u64,
    pub cap: u64,
}

impl Geometry {
    pub(crate) fn of(h: &Header) -> Self {
        Geometry {
            n: h.n as u64,
            count: h.count as u64,
            cap: h.cap as u64,
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        for x in [self.n, self.count, self.cap] {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn read(cur: &mut Cursor<'_>) -> Result<Self, Error> {
        Ok(Geometry {
            n: cur.u64()?,
            count: cur.u64()?,
            cap: cur.u64()?,
        })
    }
}

/// One write-ahead intent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Intent {
    pub op: IntentOp,
    pub source: VertexId,
    pub payload_checksum: u64,
    pub old: Geometry,
    pub new: Geometry,
}

impl Intent {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(61);
        payload.push(self.op.id());
        payload.extend_from_slice(&self.source.to_le_bytes());
        payload.extend_from_slice(&self.payload_checksum.to_le_bytes());
        self.old.write(&mut payload);
        self.new.write(&mut payload);
        seal(WAL_MAGIC, &payload)
    }

    /// Parse an intent record; any failure (torn, tampered, unknown op)
    /// means the guarded mutation never began.
    pub(crate) fn decode(raw: &[u8]) -> Result<Intent, Error> {
        let mut cur = Cursor::new(unseal(WAL_MAGIC, raw)?);
        let id = cur.u8()?;
        let op = IntentOp::from_id(id)
            .ok_or_else(|| Error::corrupt(format!("unknown intent op {id}")))?;
        let intent = Intent {
            op,
            source: cur.u32()?,
            payload_checksum: cur.u64()?,
            old: Geometry::read(&mut cur)?,
            new: Geometry::read(&mut cur)?,
        };
        cur.finish()?;
        Ok(intent)
    }
}

/// Path of the intent record guarding the store at `path`.
pub(crate) fn wal_path(path: &Path) -> PathBuf {
    suffixed(path, ".wal")
}

/// Durably write the intent record — the first step of every guarded
/// mutation.
pub(crate) fn write_intent(path: &Path, intent: &Intent) -> BdResult<()> {
    std::fs::write(wal_path(path), intent.encode())?;
    Ok(())
}

/// Commit a guarded mutation by deleting its intent record.
pub(crate) fn clear_intent(path: &Path) -> BdResult<()> {
    match std::fs::remove_file(wal_path(path)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Inspect `<path>.wal` and, if an intent record is pending, repair the
/// store to a consistent state. Returns what was done, or `None` when no
/// intent was pending. Called by `DiskBdStore::open` before validation.
pub(crate) fn run_recovery(path: &Path) -> BdResult<Option<RecoveryAction>> {
    let wal = wal_path(path);
    let raw = match std::fs::read(&wal) {
        Ok(raw) => raw,
        Err(_) => return Ok(None),
    };
    let intent = match Intent::decode(&raw) {
        Ok(i) => i,
        Err(_) => {
            // A torn intent means the guarded mutation never began: the
            // intent write is strictly ordered before any file mutation.
            std::fs::remove_file(&wal)?;
            return Ok(Some(RecoveryAction::DiscardedIntent));
        }
    };
    let action = match intent.op {
        IntentOp::AddSource => recover_add_source(path, &intent)?,
        IntentOp::Reslab => recover_reslab(path, &intent)?,
        IntentOp::RemoveSource => recover_remove_source(path, &intent)?,
    };
    std::fs::remove_file(&wal)?;
    Ok(Some(action))
}

/// Repair a torn `add_source`: roll forward iff the appended record is
/// fully durable (length reached *and* payload checksum matches), else roll
/// back to the pre-append state. Header count and sidecar are rewritten to
/// match whichever side was chosen, and any partial trailing bytes are
/// truncated away.
fn recover_add_source(path: &Path, intent: &Intent) -> BdResult<RecoveryAction> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let header = Header::read_from(&mut file)?;
    // add_source never changes n/cap
    if header.n as u64 != intent.old.n || header.cap as u64 != intent.old.cap {
        return Err(Error::corrupt(
            "intent record does not match store geometry",
        ));
    }
    let stride = header.stride() as u64;
    let actual = file.metadata()?.len();
    let new_len = HEADER_LEN + intent.new.count * stride;
    let complete = actual >= new_len && {
        let mut rec = vec![0u8; stride as usize];
        file.seek(SeekFrom::Start(HEADER_LEN + intent.old.count * stride))?;
        file.read_exact(&mut rec)?;
        fnv1a64(&rec) == intent.payload_checksum
    };
    let mut ids = read_sidecar_ids(path)?;
    if complete {
        write_header_field(&file, COUNT_AT, intent.new.count)?;
        file.set_len(new_len)?;
        if ids.len() as u64 == intent.old.count {
            ids.push(intent.source);
            write_sidecar(path, &ids, Durability::ProcessKill)?;
        } else if ids.len() as u64 != intent.new.count {
            return Err(Error::corrupt("sidecar matches neither side"));
        }
        Ok(RecoveryAction::RolledForward(IntentOp::AddSource))
    } else {
        write_header_field(&file, COUNT_AT, intent.old.count)?;
        file.set_len(HEADER_LEN + intent.old.count * stride)?;
        if ids.len() as u64 == intent.new.count {
            ids.truncate(intent.old.count as usize);
            write_sidecar(path, &ids, Durability::ProcessKill)?;
        } else if ids.len() as u64 != intent.old.count {
            return Err(Error::corrupt("sidecar matches neither side"));
        }
        Ok(RecoveryAction::RolledBack(IntentOp::AddSource))
    }
}

/// Repair a torn `remove_source`. Unlike `add_source`, a removal can
/// **always** be rolled forward: every byte it needs (the final record it
/// copies into the vacated slot) survives until the truncate, which is the
/// last step before commit — so recovery simply finishes the removal,
/// idempotently, from whichever step the kill interrupted. The intent is
/// only ever written *after* the caller has secured the removed record
/// elsewhere (an export journal, for handoffs), so completing the removal
/// never loses data.
fn recover_remove_source(path: &Path, intent: &Intent) -> BdResult<RecoveryAction> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let header = Header::read_from(&mut file)?;
    // remove_source never changes n/cap
    if header.n as u64 != intent.old.n
        || header.cap as u64 != intent.old.cap
        || intent.old.count != intent.new.count + 1
    {
        return Err(Error::corrupt(
            "intent record does not match store geometry",
        ));
    }
    let stride = header.stride() as u64;
    let mut ids = read_sidecar_ids(path)?;
    if let Some(slot) = ids.iter().position(|&id| id == intent.source) {
        // The sidecar still lists the source: the removal did not commit.
        if ids.len() as u64 != intent.old.count {
            return Err(Error::corrupt("sidecar matches neither side"));
        }
        let last = intent.new.count; // index of the final record, old layout
        if (slot as u64) != last {
            // (re)do the idempotent last→slot copy; the donor bytes are
            // still on disk because the truncate below has not happened
            let mut rec = vec![0u8; stride as usize];
            file.seek(SeekFrom::Start(HEADER_LEN + last * stride))?;
            file.read_exact(&mut rec)
                .map_err(|_| Error::corrupt("final record truncated"))?;
            file.seek(SeekFrom::Start(HEADER_LEN + slot as u64 * stride))?;
            file.write_all(&rec)?;
        }
        write_header_field(&file, COUNT_AT, intent.new.count)?;
        ids.swap_remove(slot);
        write_sidecar(path, &ids, Durability::ProcessKill)?;
    } else if ids.len() as u64 == intent.new.count {
        // Sidecar already new: the copy and count are durable by ordering.
        write_header_field(&file, COUNT_AT, intent.new.count)?;
    } else {
        return Err(Error::corrupt("sidecar matches neither side"));
    }
    file.set_len(HEADER_LEN + intent.new.count * stride)?;
    Ok(RecoveryAction::RolledForward(IntentOp::RemoveSource))
}

/// Repair a torn re-slab. The rewrite goes through a fully written `.tmp`
/// sibling followed by an atomic rename, so the main file is always
/// entirely old or entirely new; recovery just decides which side won and
/// removes the leftover temp file.
fn recover_reslab(path: &Path, intent: &Intent) -> BdResult<RecoveryAction> {
    let mut file = OpenOptions::new().read(true).open(path)?;
    let geometry = Geometry::of(&Header::read_from(&mut file)?);
    let action = if geometry == intent.new {
        RecoveryAction::RolledForward(IntentOp::Reslab)
    } else if geometry == intent.old {
        RecoveryAction::RolledBack(IntentOp::Reslab)
    } else {
        return Err(Error::corrupt(
            "store matches neither side of the pending rewrite intent",
        ));
    };
    let _ = std::fs::remove_file(path.with_extension("tmp"));
    Ok(action)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_intent() -> Intent {
        Intent {
            op: IntentOp::AddSource,
            source: 42,
            payload_checksum: 0xdead_beef,
            old: Geometry {
                n: 10,
                count: 3,
                cap: 18,
            },
            new: Geometry {
                n: 10,
                count: 4,
                cap: 18,
            },
        }
    }

    #[test]
    fn intent_roundtrips() {
        let intent = sample_intent();
        let raw = intent.encode();
        assert_eq!(raw.len(), 8 + 61 + 8);
        assert_eq!(Intent::decode(&raw).ok(), Some(intent));
    }

    #[test]
    fn torn_or_tampered_intents_rejected() {
        let intent = sample_intent();
        let raw = intent.encode();
        assert_eq!(Intent::decode(&raw[..raw.len() - 1]).ok(), None, "short");
        let mut bad = raw.clone();
        bad[30] ^= 1;
        assert_eq!(
            Intent::decode(&bad).ok(),
            None,
            "checksum must catch bit flips"
        );
        let mut bad_magic = raw.clone();
        bad_magic[0] = b'X';
        assert_eq!(Intent::decode(&bad_magic).ok(), None);
        // an intact seal around an op no build writes
        let mut payload = unseal(WAL_MAGIC, &raw).unwrap().to_vec();
        payload[0] = 9;
        assert_eq!(
            Intent::decode(&seal(WAL_MAGIC, &payload)).ok(),
            None,
            "unknown op"
        );
    }

    #[test]
    fn fnv_is_stable() {
        // pin the checksum function: recovery of files written by an older
        // build depends on it never changing
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"EBCBD2\n"), fnv1a64(b"EBCBD2\n"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
