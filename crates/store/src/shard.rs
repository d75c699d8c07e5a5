//! Per-shard store files and the cross-shard source handoff protocol.
//!
//! One [`DiskBdStore`] per shard (`shard-<k>.ebc`, each with its own `.idx`
//! sidecar and `.wal` intent journal), plus a tiny `shards.manifest` naming
//! the shard count and the current **map version**. A [`ShardSet`] is the
//! at-rest embodiment of the engine's source→shard map: the authoritative
//! record of which shard owns which source *is the union of the per-shard
//! sidecars*, and the manifest version advances once per committed handoff.
//!
//! ## Handoff protocol
//!
//! Moving source `s` from shard `a` (donor) to shard `b` (recipient) is a
//! five-step sequence, each step durable before the next begins:
//!
//! 1. **donor export journal** — `shard-a.ebc.exp<s>` holds the full
//!    serialized record plus the recipient id (see
//!    [`crate::disk::ExportJournal`]);
//! 2. **donor removal** — `shard-a.ebc` drops the source (guarded by its
//!    own `RemoveSource` WAL intent, always roll-forward);
//! 3. **recipient import** — `shard-b.ebc` registers the record (guarded
//!    by its own `AddSource` WAL intent);
//! 4. **map commit** — the manifest is rewritten with `version + 1`;
//! 5. the export journal is retired.
//!
//! A kill between any two steps leaves a state [`ShardSet::open`] repairs
//! to *exactly-once ownership*: the pending export journal names the source
//! and recipient, per-shard `open()` recovery has already settled each
//! file, and the census over the sidecars decides whether to roll the
//! handoff back (donor still owns the source) or forward (install the
//! journaled payload if nobody owns it, then commit the map). DESIGN.md §8
//! tabulates the crash matrix.

use crate::codec::CodecKind;
use crate::disk::{pending_exports, read_export_journal, DiskBdStore};
use crate::seal::{write_sealed, Durability};
use ebc_core::bd::{unknown_source, BdResult, BdStore};
use ebc_graph::Error;
use ebc_graph::{unseal, Cursor, VertexId};
use std::path::{Path, PathBuf};

/// The manifest is a sealed record whose payload is the shard count, the
/// map version and the caller-set graph stamp — the binding between the
/// shard directory and the session layer's graph snapshot (see
/// [`ShardSet::set_graph_stamp`]) — as three `u64`s.
const MANIFEST_MAGIC: &[u8; 8] = b"EBCSHM2\n";

/// Path of shard `k`'s data file inside `dir`.
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.ebc"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("shards.manifest")
}

/// Atomically replace the manifest (temp file + rename): readers see the
/// old version or the new one, nothing in between.
fn write_manifest(dir: &Path, shards: u64, version: u64, graph_stamp: u64) -> BdResult<()> {
    let mut payload = Vec::with_capacity(24);
    for x in [shards, version, graph_stamp] {
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

/// Read the manifest. Returns `(shards, version, stamp)`; anything that
/// fails to unseal is corrupt.
fn read_manifest(dir: &Path) -> BdResult<(usize, u64, u64)> {
    let raw =
        std::fs::read(manifest_path(dir)).map_err(|_| Error::corrupt("missing shard manifest"))?;
    let mut cur = Cursor::new(unseal(MANIFEST_MAGIC, &raw)?);
    let (shards, version, graph_stamp) = (cur.u64()?, cur.u64()?, cur.u64()?);
    cur.finish()?;
    let shards = usize::try_from(shards)
        .ok()
        .filter(|&p| p > 0)
        .ok_or_else(|| Error::corrupt(format!("shard manifest names {shards} shards")))?;
    Ok((shards, version, graph_stamp))
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
    /// in the recipient and the map committed.
    Reinstalled {
        /// The source mid-handoff.
        source: VertexId,
        /// The shard the payload was installed into.
        to: usize,
    },
    /// The recipient already owned the source (import durable, journal not
    /// yet retired): only the map commit / journal retirement was finished.
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

/// Simulated kill points inside [`ShardSet::handoff`]. Test support for the
/// crash-recovery suite; the set must be dropped afterwards, like a killed
/// process.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKill {
    /// Die after the donor's export journal is durable, before its removal.
    AfterExportJournal,
    /// Die after the donor's removal committed, before the recipient import.
    AfterExport,
    /// Die after the recipient import committed, before the map commit.
    AfterImport,
    /// Die after the map commit, before the export journal is retired.
    AfterMapCommit,
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
/// // hand source 5 over to shard 1: journaled on both sides + map commit
/// set.handoff(5, 0, 1)?;
/// assert_eq!(set.assignment()[1], vec![5]);
/// assert_eq!(set.version(), 1);
/// drop(set);
///
/// // reopening repairs any half-done handoff to exactly-once ownership
/// let set = ShardSet::open(&dir)?;
/// assert_eq!(set.assignment()[1], vec![5]);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), ebc_store::Error>(())
/// ```
pub struct ShardSet {
    dir: PathBuf,
    shards: Vec<DiskBdStore>,
    version: u64,
    /// Caller-set binding to the session layer's graph snapshot (0 when
    /// never stamped); preserved across handoffs and recovery.
    graph_stamp: u64,
    recovered: Vec<HandoffRecovery>,
    /// First mid-handoff failure; sticky. A failed step after the donor
    /// export may leave the *live* object out of sync with exactly-once
    /// ownership — the journal on disk has the truth, so every further
    /// handoff is refused until the directory is reopened.
    dead: Option<String>,
}

impl ShardSet {
    /// Create a fresh set of `p` empty shard stores for records of `n`
    /// vertices under `dir` (created if missing), with manifest version 0.
    /// A set of no shards is `Invalid`.
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
        write_manifest(&dir, p as u64, 0, 0)?;
        Ok(ShardSet {
            dir,
            shards,
            version: 0,
            graph_stamp: 0,
            recovered: Vec::new(),
            dead: None,
        })
    }

    /// Open an existing set: run per-shard `open()` recovery, then resolve
    /// any handoff a crash left in flight so that every source is owned by
    /// exactly one shard, and re-commit the map if a handoff was rolled
    /// forward.
    pub fn open<P: AsRef<Path>>(dir: P) -> BdResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (p, mut version, graph_stamp) = read_manifest(&dir)?;
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
        let mut committed = 0u64;
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
                    // import durable, journal not retired: finish the commit
                    committed += 1;
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
                    committed += 1;
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
        if committed > 0 {
            version += committed;
            write_manifest(&dir, p as u64, version, graph_stamp)?;
        }
        Ok(ShardSet {
            dir,
            shards,
            version,
            graph_stamp,
            recovered,
            dead: None,
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

    /// The map version: bumped once per committed handoff (including those
    /// `open()` rolled forward).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// What `open()` had to repair — empty after a clean shutdown.
    pub fn recovered(&self) -> &[HandoffRecovery] {
        &self.recovered
    }

    /// How many handoffs `open()` rolled forward (`Reinstalled` or
    /// `Completed`): each committed one map version.
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

    /// Record `stamp` in the manifest (atomic rewrite, version unchanged).
    pub fn set_graph_stamp(&mut self, stamp: u64) -> BdResult<()> {
        write_manifest(&self.dir, self.shards.len() as u64, self.version, stamp)?;
        self.graph_stamp = stamp;
        Ok(())
    }

    /// Serialize every record shard `k` currently owns, in the shard's slot
    /// order — the per-shard record iteration a migration or verification
    /// pass reads without disturbing ownership (records stay in place;
    /// contrast [`DiskBdStore::export_source`]).
    pub fn shard_records(&mut self, k: usize) -> BdResult<Vec<crate::ExportedRecord>> {
        let shard = &mut self.shards[k];
        let sources = shard.sources();
        let mut out = Vec::with_capacity(sources.len());
        for s in sources {
            let (mut d, mut sigma, mut delta) = (Vec::new(), Vec::new(), Vec::new());
            shard.update_with(s, &mut |view| {
                d = view.d.to_vec();
                sigma = view.sigma.to_vec();
                delta = view.delta.to_vec();
                false
            })?;
            out.push(crate::ExportedRecord {
                source: s,
                d,
                sigma,
                delta,
            });
        }
        Ok(out)
    }

    /// Why the set refuses further handoffs, if a previous handoff failed
    /// mid-protocol. Reopening the directory ([`ShardSet::open`]) repairs
    /// the on-disk state from the pending journal and clears this.
    pub fn poisoned(&self) -> Option<&str> {
        self.dead.as_deref()
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

    /// Tear the set apart into its per-shard stores (e.g. to hand each to a
    /// worker thread). The manifest and journals stay on disk; reopen the
    /// directory with [`ShardSet::open`] to reassemble.
    pub fn into_stores(self) -> Vec<DiskBdStore> {
        self.shards
    }

    /// Execute one handoff: move `source` from shard `from` to shard `to`
    /// through the journaled five-step protocol. On success the map version
    /// has advanced by one and no journal is left behind.
    pub fn handoff(&mut self, source: VertexId, from: usize, to: usize) -> BdResult<()> {
        self.handoff_inner(source, from, to, None)
    }

    /// [`ShardSet::handoff`] with a simulated crash (test support; the set
    /// must be dropped afterwards, like a killed process).
    #[doc(hidden)]
    pub fn handoff_crashing(
        &mut self,
        source: VertexId,
        from: usize,
        to: usize,
        kill: HandoffKill,
    ) -> BdResult<()> {
        self.handoff_inner(source, from, to, Some(kill))
    }

    fn handoff_inner(
        &mut self,
        source: VertexId,
        from: usize,
        to: usize,
        kill: Option<HandoffKill>,
    ) -> BdResult<()> {
        if let Some(why) = &self.dead {
            return Err(Error::lost(format!(
                "shard set needs reopen after a failed handoff: {why}"
            )));
        }
        let p = self.shards.len();
        if from >= p || to >= p || from == to {
            return Err(Error::invalid(format!(
                "invalid handoff {source}: shard {from} -> {to} of {p}"
            ))
            .with_source(source));
        }
        if !self.shards[from].sources().contains(&source) {
            // rejected before any mutation: the set stays healthy
            return Err(unknown_source(source));
        }
        // From here on a failure can leave the live object out of sync with
        // the (journal-repairable) on-disk state: poison so the only way
        // forward is a reopen, mirroring the engine's behaviour.
        let result = self.handoff_steps(source, from, to, kill);
        if let Err(e) = &result {
            self.dead = Some(format!("handoff of source {source} failed: {e}"));
        }
        result
    }

    fn handoff_steps(
        &mut self,
        source: VertexId,
        from: usize,
        to: usize,
        kill: Option<HandoffKill>,
    ) -> BdResult<()> {
        let p = self.shards.len();
        let record = if kill == Some(HandoffKill::AfterExportJournal) {
            return self.shards[from]
                .export_source_crashing(source, to as u64, crate::disk::ExportCrash::AfterJournal)
                .map(|_| ());
        } else {
            self.shards[from].export_source(source, to as u64)?
        };
        if kill == Some(HandoffKill::AfterExport) {
            return Ok(());
        }
        self.shards[to].add_source(record.source, record.d, record.sigma, record.delta)?;
        if kill == Some(HandoffKill::AfterImport) {
            return Ok(());
        }
        // commit on disk first; the live version only advances on success
        write_manifest(&self.dir, p as u64, self.version + 1, self.graph_stamp)?;
        self.version += 1;
        if kill == Some(HandoffKill::AfterMapCommit) {
            return Ok(());
        }
        self.shards[from].retire_export(source)
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

    #[test]
    fn create_populate_handoff_reopen() {
        let dir = tmpdir("roundtrip");
        let n = 5;
        let mut set = ShardSet::create(&dir, n, 3, CodecKind::Wide).unwrap();
        for (shard, s) in [(0usize, 0u32), (0, 1), (1, 2), (2, 3)] {
            let (d, sig, del) = record(n, s as u64);
            set.shard_mut(shard).add_source(s, d, sig, del).unwrap();
        }
        set.handoff(1, 0, 2).unwrap();
        assert_eq!(set.version(), 1);
        assert_eq!(set.assignment(), vec![vec![0], vec![2], vec![3, 1]]);
        set.flush().unwrap();
        drop(set);
        let mut set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.version(), 1);
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
    fn invalid_handoffs_rejected() {
        let dir = tmpdir("invalid");
        let mut set = ShardSet::create(&dir, 3, 2, CodecKind::Wide).unwrap();
        let (d, sig, del) = record(3, 0);
        set.shard_mut(0).add_source(0, d, sig, del).unwrap();
        assert!(set.handoff(0, 0, 0).is_err(), "self-handoff");
        assert!(set.handoff(0, 0, 9).is_err(), "recipient out of range");
        assert!(set.handoff(7, 0, 1).is_err(), "unknown source");
        // the set is still usable
        set.handoff(0, 0, 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_handoff_poisons_until_reopen() {
        let dir = tmpdir("poison");
        let n = 3;
        let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        let (d, sig, del) = record(n, 9);
        set.shard_mut(0)
            .add_source(9, d.clone(), sig.clone(), del.clone())
            .unwrap();
        // sabotage: the recipient secretly owns 9 too, so the import step
        // will fail with DuplicateSource after the donor already exported
        set.shard_mut(1).add_source(9, d, sig, del).unwrap();
        let err = set.handoff(9, 0, 1).unwrap_err();
        assert_eq!(
            (err.kind(), err.source_vertex()),
            (ErrorKind::Invalid, Some(9))
        );
        // the live object can no longer vouch for exactly-once ownership:
        // every further handoff is refused until a reopen
        assert!(set.poisoned().is_some());
        let (d2, sig2, del2) = record(n, 4);
        set.shard_mut(0).add_source(4, d2, sig2, del2).unwrap();
        assert!(matches!(set.handoff(4, 0, 1), Err(e) if e.kind() == ErrorKind::Lost));
        set.flush().unwrap();
        drop(set);
        // reopen repairs from the pending journal: the recipient already
        // owns 9, so the torn handoff just completes
        let set = ShardSet::open(&dir).unwrap();
        assert!(set.poisoned().is_none());
        assert_eq!(
            set.recovered(),
            &[HandoffRecovery::Completed { source: 9, to: 1 }]
        );
        assert_eq!(set.rolled_forward(), 1);
        assert_eq!(set.assignment(), vec![vec![4], vec![9]]);
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
            set.handoff_crashing(7, 0, 1, HandoffKill::AfterExport)
                .unwrap();
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
        // a handoff rewrites the manifest; the stamp must ride along
        set.handoff(3, 0, 1).unwrap();
        set.flush().unwrap();
        drop(set);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.version(), 1);
        assert_eq!(set.graph_stamp(), 0xDEAD_BEEF);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_records_serializes_without_disturbing_ownership() {
        let dir = tmpdir("records");
        let n = 5;
        let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        for (shard, s) in [(0usize, 0u32), (1, 1), (0, 4)] {
            let (d, sig, del) = record(n, s as u64);
            set.shard_mut(shard).add_source(s, d, sig, del).unwrap();
        }
        let recs = set.shard_records(0).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.source).collect::<Vec<_>>(),
            vec![0, 4],
            "slot order"
        );
        let (d, sig, del) = record(n, 4);
        assert_eq!(recs[1].d, d);
        assert_eq!(recs[1].sigma, sig);
        assert_eq!(recs[1].delta, del);
        // iteration is read-only: ownership and version untouched
        assert_eq!(set.assignment(), vec![vec![0, 4], vec![1]]);
        assert_eq!(set.version(), 0);
        assert!(set.shard_records(1).unwrap().len() == 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_tampering_detected() {
        let dir = tmpdir("manifest");
        ShardSet::create(&dir, 2, 2, CodecKind::Wide).unwrap();
        let mpath = manifest_path(&dir);
        let mut raw = std::fs::read(&mpath).unwrap();
        raw[16] ^= 1; // flip a version bit without fixing the checksum
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
