//! Per-shard store files and the recovery of a cross-shard source handoff.
//!
//! One [`DiskBdStore`] per shard (`shard-<k>.ebc`, each with its own `.idx`
//! sidecar and `.wal` intent journal), plus a tiny `shards.manifest` naming
//! the shard count and the session stamp. A [`ShardSet`] is the at-rest
//! embodiment of the engine's source→shard map: the authoritative record
//! of which shard owns which source *is the union of the per-shard
//! sidecars*. The map version lives with the caller (the session layer's
//! `session.manifest`); a set only creates, opens and recovers.
//!
//! ## Handoff protocol
//!
//! The engine moves source `s` from shard `a` (donor) to shard `b`
//! (recipient) through three store calls, each durable before the next
//! begins:
//!
//! 1. **donor export** ([`BdStore::export_source`]) — `shard-a.ebc.exp<s>`
//!    journals the full serialized record plus the recipient id (see
//!    [`crate::disk::ExportJournal`]), then `shard-a.ebc` drops the source
//!    (guarded by its own `RemoveSource` WAL intent, always roll-forward);
//! 2. **recipient import** ([`BdStore::add_source`]) — `shard-b.ebc`
//!    registers the record (guarded by its own `AddSource` WAL intent);
//!    the engine then commits the move to its in-memory map;
//! 3. **retire** ([`BdStore::retire_export`]) — the export journal is
//!    deleted.
//!
//! A kill between any two steps leaves a state [`ShardSet::open`] repairs
//! to *exactly-once ownership*: the pending export journal names the source
//! and recipient, per-shard `open()` recovery has already settled each
//! file, and the census over the sidecars decides whether to roll the
//! handoff back (donor still owns the source) or forward (install the
//! journaled payload if nobody owns it). Each roll-forward is one map
//! commit the caller adds to its version ([`ShardSet::rolled_forward`]).
//! DESIGN.md §8 tabulates the crash matrix.

use crate::codec::CodecKind;
use crate::disk::{pending_exports, read_export_journal, DiskBdStore};
use crate::seal::{write_sealed, Durability};
use ebc_core::bd::{BdResult, BdStore};
use ebc_graph::Error;
use ebc_graph::{unseal, Cursor, VertexId};
use std::path::{Path, PathBuf};

/// The manifest is a sealed record whose payload is the shard count and
/// the caller-set graph stamp — the binding between the shard directory
/// and the session layer's graph snapshot (see
/// [`ShardSet::set_graph_stamp`]) — as two `u64`s.
const MANIFEST_MAGIC: &[u8; 8] = b"EBCSHM3\n";

/// Path of shard `k`'s data file inside `dir`.
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.ebc"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("shards.manifest")
}

/// Atomically replace the manifest (temp file + rename): readers see the
/// old contents or the new ones, nothing in between.
fn write_manifest(dir: &Path, shards: u64, graph_stamp: u64) -> BdResult<()> {
    let mut payload = Vec::with_capacity(16);
    for x in [shards, graph_stamp] {
        payload.extend_from_slice(&x.to_le_bytes());
    }
    write_sealed(
        &manifest_path(dir),
        MANIFEST_MAGIC,
        &payload,
        Durability::ProcessKill,
    )?;
    Ok(())
}

/// Read the manifest. Returns `(shards, stamp)`; anything that fails to
/// unseal is corrupt.
fn read_manifest(dir: &Path) -> BdResult<(usize, u64)> {
    let raw =
        std::fs::read(manifest_path(dir)).map_err(|_| Error::corrupt("missing shard manifest"))?;
    let mut cur = Cursor::new(unseal(MANIFEST_MAGIC, &raw)?);
    let (shards, graph_stamp) = (cur.u64()?, cur.u64()?);
    cur.finish()?;
    let shards = usize::try_from(shards)
        .ok()
        .filter(|&p| p > 0)
        .ok_or_else(|| Error::corrupt(format!("shard manifest names {shards} shards")))?;
    Ok((shards, graph_stamp))
}

/// What [`ShardSet::open`] had to do about one pending export journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandoffRecovery {
    /// The donor still owned the source (its removal never committed): the
    /// handoff never happened; the journal was discarded.
    RolledBack {
        /// The source mid-handoff.
        source: VertexId,
        /// The shard that was donating it.
        donor: usize,
    },
    /// The source was owned by nobody: the journaled payload was installed
    /// in the recipient.
    Reinstalled {
        /// The source mid-handoff.
        source: VertexId,
        /// The shard the payload was installed into.
        to: usize,
    },
    /// The recipient already owned the source (import durable, journal not
    /// yet retired): only the journal retirement was finished.
    Completed {
        /// The source mid-handoff.
        source: VertexId,
        /// The shard that owns it.
        to: usize,
    },
    /// A torn or unparsable journal was discarded — by write ordering the
    /// guarded export never began.
    DiscardedJournal {
        /// The shard whose journal was discarded.
        donor: usize,
    },
}

/// A directory of per-shard `BD` store files with movable source ownership.
///
/// ```
/// use ebc_store::{BdStore, CodecKind, ShardSet};
///
/// let dir = std::env::temp_dir().join(format!("ebc_shard_doc_{}", std::process::id()));
/// let mut set = ShardSet::create(&dir, 3, 2, CodecKind::Wide)?;
/// set.shard_mut(0).add_source(5, vec![0, 1, 2], vec![1, 1, 1], vec![0.0; 3])?;
///
/// // hand source 5 over to shard 1 the way the engine does: export
/// // (journal + removal), import, retire — but die before the retire
/// let rec = set.shard_mut(0).export_source(5, 1)?;
/// set.shard_mut(1).add_source(rec.source, rec.d, rec.sigma, rec.delta)?;
/// drop(set);
///
/// // reopening repairs any half-done handoff to exactly-once ownership
/// let set = ShardSet::open(&dir)?;
/// assert_eq!(set.assignment()[1], vec![5]);
/// assert_eq!(set.rolled_forward(), 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), ebc_store::Error>(())
/// ```
pub struct ShardSet {
    dir: PathBuf,
    shards: Vec<DiskBdStore>,
    /// Caller-set binding to the session layer's graph snapshot (0 when
    /// never stamped); preserved across recovery.
    graph_stamp: u64,
    recovered: Vec<HandoffRecovery>,
}

impl ShardSet {
    /// Create a fresh set of `p` empty shard stores for records of `n`
    /// vertices under `dir` (created if missing), unstamped. A set of no
    /// shards is `Invalid`.
    pub fn create<P: AsRef<Path>>(dir: P, n: usize, p: usize, codec: CodecKind) -> BdResult<Self> {
        if p == 0 {
            return Err(Error::invalid("a shard set needs at least one shard"));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut shards = Vec::with_capacity(p);
        for k in 0..p {
            let path = shard_path(&dir, k);
            // a fresh incarnation must not inherit a previous one's pending
            // export journals, or a later open() would resurrect a phantom
            // source from stale payload (create() already clears the WAL)
            for stale in pending_exports(&path)? {
                std::fs::remove_file(stale)?;
            }
            shards.push(DiskBdStore::create(path, n, codec)?);
        }
        write_manifest(&dir, p as u64, 0)?;
        Ok(ShardSet {
            dir,
            shards,
            graph_stamp: 0,
            recovered: Vec::new(),
        })
    }

    /// Open an existing set: run per-shard `open()` recovery, then resolve
    /// any handoff a crash left in flight so that every source is owned by
    /// exactly one shard. The manifest is only read.
    pub fn open<P: AsRef<Path>>(dir: P) -> BdResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (p, graph_stamp) = read_manifest(&dir)?;
        // not sized by `p`: the shard files, not the manifest, bound it
        let mut shards = Vec::new();
        for k in 0..p {
            shards.push(DiskBdStore::open(shard_path(&dir, k))?);
        }
        let n = shards[0].n();
        if shards.iter().any(|s| s.n() != n) {
            return Err(Error::corrupt("shard vertex counts diverge"));
        }
        // resolve pending export journals against the ownership census
        let mut recovered = Vec::new();
        for donor in 0..p {
            for journal_file in pending_exports(shards[donor].path())? {
                let journal = match read_export_journal(&journal_file)? {
                    Some(j) => j,
                    None => {
                        std::fs::remove_file(&journal_file)?;
                        recovered.push(HandoffRecovery::DiscardedJournal { donor });
                        continue;
                    }
                };
                let s = journal.source;
                let owners: Vec<usize> = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| st.sources().contains(&s))
                    .map(|(k, _)| k)
                    .collect();
                let action = if owners.contains(&donor) {
                    // the donor's removal never committed (or rolled back):
                    // the handoff never happened
                    HandoffRecovery::RolledBack { source: s, donor }
                } else if let Some(&to) = owners.first() {
                    // import durable, journal not retired: finish the retire
                    HandoffRecovery::Completed { source: s, to }
                } else {
                    // owned by nobody: the kill hit between donor removal
                    // and recipient import — install the journaled payload
                    let to = journal.tag as usize;
                    if to >= p {
                        return Err(Error::corrupt(format!(
                            "export journal for source {s} names shard {to} of {p}"
                        )));
                    }
                    if journal.d.len() != n {
                        return Err(Error::corrupt(format!(
                            "export journal for source {s} has {} slots, shards have {n}",
                            journal.d.len()
                        )));
                    }
                    let rec = journal.into_record();
                    shards[to].add_source(rec.source, rec.d, rec.sigma, rec.delta)?;
                    HandoffRecovery::Reinstalled { source: s, to }
                };
                std::fs::remove_file(&journal_file)?;
                recovered.push(action);
            }
        }
        // exactly-once: no source may appear in two shards' sidecars
        let mut seen = ebc_graph::FxHashMap::default();
        for (k, st) in shards.iter().enumerate() {
            for s in st.sources() {
                if let Some(prev) = seen.insert(s, k) {
                    return Err(Error::corrupt(format!(
                        "source {s} owned by shards {prev} and {k}"
                    )));
                }
            }
        }
        Ok(ShardSet {
            dir,
            shards,
            graph_stamp,
            recovered,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Vertex slots per record (identical across shards).
    pub fn n(&self) -> usize {
        self.shards[0].n()
    }

    /// What `open()` had to repair — empty after a clean shutdown.
    pub fn recovered(&self) -> &[HandoffRecovery] {
        &self.recovered
    }

    /// How many handoffs `open()` rolled forward (`Reinstalled` or
    /// `Completed`): each is one map commit the killed incarnation never
    /// recorded, for the caller to add to its map version.
    pub fn rolled_forward(&self) -> u64 {
        let committed = |r: &&HandoffRecovery| {
            matches!(
                r,
                HandoffRecovery::Reinstalled { .. } | HandoffRecovery::Completed { .. }
            )
        };
        self.recovered.iter().filter(committed).count() as u64
    }

    /// The directory this set lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The per-vertex codec the shard stores encode records with
    /// (identical across shards by construction).
    pub fn codec(&self) -> CodecKind {
        self.shards[0].codec()
    }

    /// The caller-set graph stamp recorded in the manifest (0 when never
    /// stamped). The session layer stores the checksum of its graph
    /// snapshot here, binding the shard directory to the snapshot it was
    /// checkpointed with.
    pub fn graph_stamp(&self) -> u64 {
        self.graph_stamp
    }

    /// Record `stamp` in the manifest (atomic rewrite).
    pub fn set_graph_stamp(&mut self, stamp: u64) -> BdResult<()> {
        write_manifest(&self.dir, self.shards.len() as u64, stamp)?;
        self.graph_stamp = stamp;
        Ok(())
    }

    /// Shard `k`'s store.
    pub fn shard(&self, k: usize) -> &DiskBdStore {
        &self.shards[k]
    }

    /// Mutable access to shard `k`'s store.
    pub fn shard_mut(&mut self, k: usize) -> &mut DiskBdStore {
        &mut self.shards[k]
    }

    /// Per-shard owned-source lists (shard `k`'s slot order) — the at-rest
    /// source→shard assignment.
    pub fn assignment(&self) -> Vec<Vec<VertexId>> {
        self.shards.iter().map(|s| s.sources()).collect()
    }

    /// Flush every shard's data and index to durable storage.
    pub fn flush(&mut self) -> BdResult<()> {
        for shard in &mut self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Tear the set apart into its per-shard stores (e.g. to hand each to
    /// an engine shard). The manifest and journals stay on disk; reopen the
    /// directory with [`ShardSet::open`] to reassemble.
    pub fn into_stores(self) -> Vec<DiskBdStore> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::ErrorKind;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ebc_shard_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(n: usize, salt: u64) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
        let d = (0..n).map(|i| ((i as u64 + salt) % 6) as u32).collect();
        let sigma = (0..n).map(|i| (i as u64 * 2 + salt) % 50 + 1).collect();
        let delta = (0..n).map(|i| i as f64 * 0.125 + salt as f64).collect();
        (d, sigma, delta)
    }

    /// Move `source` from shard `from` to shard `to` with the store calls
    /// the engine's executor makes: donor export, recipient import, retire.
    fn hand_over(set: &mut ShardSet, source: VertexId, from: usize, to: usize) {
        let rec = set
            .shard_mut(from)
            .export_source(source, to as u64)
            .unwrap();
        set.shard_mut(to)
            .add_source(rec.source, rec.d, rec.sigma, rec.delta)
            .unwrap();
        set.shard_mut(from).retire_export(source).unwrap();
    }

    #[test]
    fn create_populate_handoff_reopen() {
        let dir = tmpdir("roundtrip");
        let n = 5;
        let mut set = ShardSet::create(&dir, n, 3, CodecKind::Wide).unwrap();
        for (shard, s) in [(0usize, 0u32), (0, 1), (1, 2), (2, 3)] {
            let (d, sig, del) = record(n, s as u64);
            set.shard_mut(shard).add_source(s, d, sig, del).unwrap();
        }
        hand_over(&mut set, 1, 0, 2);
        assert_eq!(set.assignment(), vec![vec![0], vec![2], vec![3, 1]]);
        set.flush().unwrap();
        drop(set);
        let mut set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.rolled_forward(), 0);
        assert!(set.recovered().is_empty(), "clean shutdown");
        // the moved record survived bit-for-bit
        let (d, sig, del) = record(n, 1);
        set.shard_mut(2)
            .update_with(1, &mut |view| {
                assert_eq!(view.d, &d[..]);
                assert_eq!(view.sigma, &sig[..]);
                assert_eq!(view.delta, &del[..]);
                false
            })
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_set_of_no_shards_is_invalid() {
        let dir = tmpdir("no_shards");
        let err = ShardSet::create(&dir, 3, 0, CodecKind::Wide).err().unwrap();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(!manifest_path(&dir).exists(), "nothing was written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_clears_stale_export_journals() {
        let dir = tmpdir("stale_exp");
        let n = 3;
        {
            let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
            let (d, sig, del) = record(n, 7);
            set.shard_mut(0).add_source(7, d, sig, del).unwrap();
            // die with the export journal durable and the source removed
            set.shard_mut(0).export_source(7, 1).unwrap();
        }
        // start over in the same directory: the old incarnation's journal
        // must not resurrect source 7 into the fresh set
        {
            ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        }
        let set = ShardSet::open(&dir).unwrap();
        assert!(set.recovered().is_empty(), "{:?}", set.recovered());
        assert_eq!(set.assignment(), vec![Vec::<u32>::new(), Vec::new()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_stamp_survives_handoffs_and_reopen() {
        let dir = tmpdir("stamp");
        let n = 4;
        let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        assert_eq!(set.graph_stamp(), 0, "fresh sets are unstamped");
        let (d, sig, del) = record(n, 3);
        set.shard_mut(0).add_source(3, d, sig, del).unwrap();
        set.set_graph_stamp(0xDEAD_BEEF).unwrap();
        assert_eq!(set.graph_stamp(), 0xDEAD_BEEF);
        let manifest = std::fs::read(manifest_path(&dir)).unwrap();
        hand_over(&mut set, 3, 0, 1);
        set.flush().unwrap();
        drop(set);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.rolled_forward(), 0);
        assert_eq!(set.graph_stamp(), 0xDEAD_BEEF);
        // neither a handoff nor an open rewrites the manifest
        assert_eq!(std::fs::read(manifest_path(&dir)).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_tampering_detected() {
        let dir = tmpdir("manifest");
        ShardSet::create(&dir, 2, 2, CodecKind::Wide).unwrap();
        let mpath = manifest_path(&dir);
        let mut raw = std::fs::read(&mpath).unwrap();
        raw[16] ^= 1; // flip a stamp bit without fixing the checksum
        std::fs::write(&mpath, raw).unwrap();
        assert!(matches!(ShardSet::open(&dir), Err(e) if e.kind() == ErrorKind::Corrupt));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_ownership_without_journal_is_hard_error() {
        let dir = tmpdir("dup");
        let n = 3;
        let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        let (d, sig, del) = record(n, 4);
        set.shard_mut(0)
            .add_source(4, d.clone(), sig.clone(), del.clone())
            .unwrap();
        set.shard_mut(1).add_source(4, d, sig, del).unwrap();
        set.flush().unwrap();
        drop(set);
        // no pending journal can explain the duplicate: refuse to guess
        assert!(matches!(ShardSet::open(&dir), Err(e) if e.kind() == ErrorKind::Corrupt));
        std::fs::remove_dir_all(&dir).ok();
    }
}
