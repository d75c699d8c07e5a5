//! Per-shard store files and the recovery of a cross-shard source handoff.
//!
//! One [`DiskBdStore`] per shard (`shard-<k>.ebc`, with its `.redo` log)
//! and nothing else: the shard count is the number of consecutive shard
//! files, and the session stamp sits in every store's header. A
//! [`ShardSet`] is the at-rest embodiment of the engine's source→shard map:
//! the authoritative record of which shard owns which source *is the union
//! of the record ids the shard files hold*. The map version
//! lives with the caller (the session layer's `session.manifest`); a set
//! only creates, opens and recovers.
//!
//! ## Handoff protocol
//!
//! The engine moves source `s` from shard `a` (donor) to shard `b`
//! (recipient) through three store calls, each durable before the next
//! begins:
//!
//! 1. **donor export** ([`BdStore::export_source`]) — `shard-a.ebc.exp<s>`
//!    journals the full serialized record plus the recipient id (see
//!    [`crate::disk::read_export_journal`]), then `shard-a.ebc` drops the
//!    source (a swap-remove that `open` finishes once it has begun);
//! 2. **recipient import** ([`BdStore::add_source`]) — `shard-b.ebc`
//!    appends the record and commits it with its header `count` write;
//!    the engine then commits the move to its in-memory map;
//! 3. **retire** ([`BdStore::retire_export`]) — the export journal is
//!    deleted.
//!
//! A kill between any two steps leaves a state [`ShardSet::open`] repairs
//! to *exactly-once ownership*: the pending export journal names the source
//! and recipient, per-shard `open()` recovery has already settled each
//! file, and the census over the record ids decides whether to roll the
//! handoff back (donor still owns the source) or forward (install the
//! journaled payload if nobody owns it). Each roll-forward is one map
//! commit the caller adds to its version ([`ShardSet::rolled_forward`]).
//! DESIGN.md §8 tabulates the crash matrix.

use crate::codec::CodecKind;
use crate::disk::{pending_exports, read_export_journal, DiskBdStore};
use ebc_core::bd::{BdResult, BdStore};
use ebc_graph::{Error, VertexId};
use std::path::{Path, PathBuf};

/// Path of shard `k`'s data file inside `dir`.
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k}.ebc"))
}

/// Remove shard `k`'s data file from `dir` with every companion a store
/// keeps beside it (`.redo`, `.exp<s>`, `.tmp`).
fn remove_shard_files(dir: &Path, k: usize) -> BdResult<()> {
    let data = format!("shard-{k}.ebc");
    let companion = format!("{data}.");
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name == data || name.starts_with(&companion) {
            std::fs::remove_file(dir.join(&*name))?;
        }
    }
    Ok(())
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
/// set.shard_mut(0).add_source(2, vec![0, 1, 2], vec![1, 1, 1], vec![0.0; 3])?;
///
/// // hand source 2 over to shard 1 the way the engine does: export
/// // (journal + removal), import, retire — but die before the retire
/// let rec = set.shard_mut(0).export_source(2, 1)?;
/// set.shard_mut(1).add_source(rec.source, rec.d, rec.sigma, rec.delta)?;
/// drop(set);
///
/// // reopening repairs any half-done handoff to exactly-once ownership
/// let set = ShardSet::open(&dir)?;
/// assert_eq!(set.assignment()[1], vec![2]);
/// assert_eq!(set.rolled_forward(), 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), ebc_store::Error>(())
/// ```
pub struct ShardSet {
    shards: Vec<DiskBdStore>,
    recovered: Vec<HandoffRecovery>,
}

impl ShardSet {
    /// Create a fresh set of `p` empty shard stores for records of `n`
    /// vertices under `dir` (created if missing), unstamped, each starting
    /// at the width `codec`. A set of no shards is `Invalid`.
    pub fn create<P: AsRef<Path>>(dir: P, n: usize, p: usize, codec: CodecKind) -> BdResult<Self> {
        if p == 0 {
            return Err(Error::invalid("a shard set needs at least one shard"));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(p);
        for k in 0..p {
            let path = shard_path(dir, k);
            // a fresh incarnation must not inherit a previous one's pending
            // export journals, or a later open() would resurrect a phantom
            // source from stale payload (create() clears the redo log and
            // a staged re-slab)
            for stale in pending_exports(&path)? {
                std::fs::remove_file(stale)?;
            }
            shards.push(DiskBdStore::create(path, n, codec)?);
        }
        // `open` counts the shard files: a previous incarnation's extra
        // shards must not be read back as members of this set
        for k in (p..).take_while(|&k| shard_path(dir, k).exists()) {
            remove_shard_files(dir, k)?;
        }
        Ok(ShardSet {
            shards,
            recovered: Vec::new(),
        })
    }

    /// Open an existing set — `shard-0.ebc`, `shard-1.ebc`, … up to the
    /// first missing index: run per-shard `open()` recovery, then resolve
    /// any handoff a crash left in flight so that every source is owned by
    /// exactly one shard. A directory without `shard-0.ebc`, or whose
    /// stores disagree on vertex count or stamp, is `Corrupt`.
    pub fn open<P: AsRef<Path>>(dir: P) -> BdResult<Self> {
        let dir = dir.as_ref();
        let mut shards = Vec::new();
        while shard_path(dir, shards.len()).exists() {
            shards.push(DiskBdStore::open(shard_path(dir, shards.len()))?);
        }
        let p = shards.len();
        let Some(first) = shards.first() else {
            return Err(Error::corrupt("no shard-0.ebc"));
        };
        let (n, stamp) = (first.n(), first.stamp());
        if shards.iter().any(|s| s.n() != n) {
            return Err(Error::corrupt("shard vertex counts diverge"));
        }
        if shards.iter().any(|s| s.stamp() != stamp) {
            return Err(Error::corrupt(
                "shard stamps diverge: stores of two sessions",
            ));
        }
        // resolve pending export journals against the ownership census
        let mut recovered = Vec::new();
        for donor in 0..p {
            for journal_file in pending_exports(shards[donor].path())? {
                let Some((tag, rec)) = read_export_journal(&journal_file)? else {
                    std::fs::remove_file(&journal_file)?;
                    recovered.push(HandoffRecovery::DiscardedJournal { donor });
                    continue;
                };
                let s = rec.source;
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
                    let to = tag as usize;
                    if to >= p {
                        return Err(Error::corrupt(format!(
                            "export journal for source {s} names shard {to} of {p}"
                        )));
                    }
                    if rec.d.len() != n {
                        return Err(Error::corrupt(format!(
                            "export journal for source {s} has {} slots, shards have {n}",
                            rec.d.len()
                        )));
                    }
                    shards[to].add_source(rec.source, rec.d, rec.sigma, rec.delta)?;
                    HandoffRecovery::Reinstalled { source: s, to }
                };
                std::fs::remove_file(&journal_file)?;
                recovered.push(action);
            }
        }
        // exactly-once: no source may appear in two shards' records
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
        Ok(ShardSet { shards, recovered })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// The caller-set graph stamp in the store headers (0 when never
    /// stamped). The session layer stores the checksum of its bootstrap
    /// graph snapshot here, binding the shard files to their session.
    pub fn graph_stamp(&self) -> u64 {
        self.shards[0].stamp()
    }

    /// Write `stamp` into every store's header, in place; durable at the
    /// next [`ShardSet::flush`].
    pub fn set_graph_stamp(&mut self, stamp: u64) -> BdResult<()> {
        for shard in &mut self.shards {
            shard.set_stamp(stamp)?;
        }
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

    /// Flush every shard's records to durable storage.
    pub fn flush(&mut self) -> BdResult<()> {
        for shard in &mut self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Tear the set apart into its per-shard stores (e.g. to hand each to
    /// an engine shard). The journals stay on disk; reopen the
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
            .read(1, &mut |got_d, got_sig, got_del| {
                assert_eq!((got_d, got_sig, got_del), (&d[..], &sig[..], &del[..]));
            })
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_set_of_no_shards_is_invalid() {
        let dir = tmpdir("no_shards");
        let err = ShardSet::create(&dir, 3, 0, CodecKind::Wide).err().unwrap();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(!shard_path(&dir, 0).exists(), "nothing was written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_clears_stale_export_journals() {
        let dir = tmpdir("stale_exp");
        let n = 8;
        {
            let mut set = ShardSet::create(&dir, n, 3, CodecKind::Wide).unwrap();
            let (d, sig, del) = record(n, 7);
            set.shard_mut(0).add_source(7, d, sig, del).unwrap();
            // die with the export journal durable and the source removed
            set.shard_mut(0).export_source(7, 1).unwrap();
        }
        let third = |dir: &Path| -> Vec<_> {
            let names = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name());
            names
                .filter(|f| f.to_string_lossy().starts_with("shard-2."))
                .collect()
        };
        let left = third(&dir);
        assert!(left.len() > 1, "shard 2 has companions: {left:?}");
        // start over in the same directory with fewer shards: neither the
        // old incarnation's journal nor its third shard, companions
        // included, may come back
        {
            ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
        }
        let left = third(&dir);
        assert!(left.is_empty(), "{left:?}");
        let set = ShardSet::open(&dir).unwrap();
        assert!(set.recovered().is_empty(), "{:?}", set.recovered());
        assert_eq!(set.assignment(), vec![Vec::<u32>::new(), Vec::new()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_clears_stale_staging_files() {
        use crate::disk::RewriteCrash;
        let dir = tmpdir("stale_tmp");
        let n = 3;
        {
            // both shards die with a re-slab staged but not renamed
            let mut set = ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap();
            for k in 0..2 {
                let shard = set.shard_mut(k);
                for _ in n..shard.capacity() {
                    shard.grow_vertex().unwrap();
                }
                shard.grow_vertex_crashing(RewriteCrash::AfterTmp).unwrap();
            }
        }
        let staged = |dir: &Path| -> Vec<_> {
            let names = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name());
            names
                .filter(|f| f.to_string_lossy().ends_with(".tmp"))
                .collect()
        };
        assert_eq!(staged(&dir).len(), 2, "{:?}", staged(&dir));
        // one shard kept, one dropped: neither leaves its staging file
        {
            ShardSet::create(&dir, n, 1, CodecKind::Wide).unwrap();
        }
        assert!(staged(&dir).is_empty(), "{:?}", staged(&dir));
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
        hand_over(&mut set, 3, 0, 1);
        // grow every shard past its headroom: the re-slab rewrites each
        // data file whole, header included
        let cap = set.shard(0).capacity();
        for k in 0..2 {
            for _ in n..=cap {
                set.shard_mut(k).grow_vertex().unwrap();
            }
        }
        assert!(set.shard(0).capacity() > cap, "re-slabbed");
        set.flush().unwrap();
        drop(set);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.rolled_forward(), 0);
        assert_eq!(set.graph_stamp(), 0xDEAD_BEEF);
        assert_eq!(set.shard(1).n(), cap + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_whose_stamps_differ_are_corrupt() {
        let dir = tmpdir("stamps_differ");
        let mut set = ShardSet::create(&dir, 2, 2, CodecKind::Wide).unwrap();
        set.set_graph_stamp(7).unwrap();
        // shard 1 from another session's directory
        set.shard_mut(1).set_stamp(8).unwrap();
        set.flush().unwrap();
        drop(set);
        let err = ShardSet::open(&dir).err().unwrap();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_ownership_without_journal_is_hard_error() {
        let dir = tmpdir("dup");
        let n = 5;
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
