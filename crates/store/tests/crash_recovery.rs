//! Crash-injection suite: kill the store at every point of the guarded
//! `add_source`, re-slab, and `remove_source` sequences — plus the sharded
//! handoff protocol at every window between donor-export journal,
//! recipient import, and map commit — reopen, and verify `open()` repairs
//! the files to a consistent state. Each
//! single-store case is one row of the DESIGN.md §7 crash matrix; each
//! handoff case is one row of the §8 matrix, whose acceptance bar is that
//! the mid-handoff source ends up **owned by exactly one shard**.

use ebc_core::bd::BdStore;
use ebc_core::{Error, ErrorKind};
use ebc_graph::{fnv1a64, seal, unseal};
use ebc_store::disk::{AddCrash, ExportCrash, RemoveCrash, RewriteCrash};
use ebc_store::shard::{HandoffKill, HandoffRecovery};
use ebc_store::{CodecKind, DiskBdStore, IntentOp, RecoveryAction, ShardSet};
use std::path::{Path, PathBuf};

/// One v1 record: `(source id, d, sigma, delta)`.
type V1Record = (u32, Vec<u32>, Vec<u64>, Vec<f64>);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ebc_store_crash");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.bd", std::process::id()))
}

fn sample(n: usize, salt: u64) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
    let d = (0..n).map(|i| ((i as u64 + salt) % 5) as u32).collect();
    let sigma = (0..n).map(|i| (i as u64 + salt) % 9 + 1).collect();
    let delta = (0..n).map(|i| i as f64 * 0.5 + salt as f64).collect();
    (d, sigma, delta)
}

/// Store with two committed sources (7 and 3), flushed and dropped.
fn seeded(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::create(path, n, CodecKind::Wide).unwrap();
    for s in [7u32, 3] {
        let (d, sig, del) = sample(n, s as u64);
        st.add_source(s, d, sig, del).unwrap();
    }
    st.flush().unwrap();
}

/// Assert the reopened store matches the pre-crash two-source state and is
/// fully usable (round-trips a fresh add of the torn source).
fn assert_rolled_back(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3]);
    for s in [7u32, 3] {
        let (d, sig, del) = sample(n, s as u64);
        st.update_with(s, &mut |view| {
            assert_eq!(view.d, &d[..]);
            assert_eq!(view.sigma, &sig[..]);
            assert_eq!(view.delta, &del[..]);
            false
        })
        .unwrap();
    }
    // the rolled-back source can be re-added cleanly
    let (d, sig, del) = sample(n, 11);
    st.add_source(11, d, sig, del).unwrap();
    drop(st);
    let st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3, 11]);
    assert_eq!(st.last_recovery(), None, "commit left no pending intent");
}

/// Assert the reopened store contains the torn source with its exact
/// record.
fn assert_rolled_forward(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![7, 3, 11]);
    let (d, sig, del) = sample(n, 11);
    st.update_with(11, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

fn tear_add(path: &PathBuf, n: usize, crash: AddCrash) {
    let mut st = DiskBdStore::open(path).unwrap();
    let (d, sig, del) = sample(n, 11);
    st.add_source_crashing(11, d, sig, del, crash).unwrap();
    // dropped without commit — the simulated kill
}

#[test]
fn add_source_crash_after_intent_rolls_back() {
    let n = 6;
    let path = tmp("add_intent");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterIntent);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_back(&path, n);
}

#[test]
fn add_source_crash_mid_record_rolls_back() {
    let n = 6;
    let path = tmp("add_midrec");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::MidRecord);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource)),
        "a half-written record must never be adopted"
    );
    drop(st);
    assert_rolled_back(&path, n);
}

#[test]
fn add_source_crash_after_record_rolls_forward() {
    let n = 6;
    let path = tmp("add_rec");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterRecord);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource)),
        "a durable record (checksum verified) completes the add"
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn add_source_crash_after_header_rolls_forward() {
    let n = 6;
    let path = tmp("add_hdr");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterHeader);
    // this is exactly the formerly fatal state: header and sidecar disagree
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn add_source_crash_after_sidecar_rolls_forward() {
    let n = 6;
    let path = tmp("add_side");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterSidecar);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::AddSource))
    );
    drop(st);
    assert_rolled_forward(&path, n);
}

#[test]
fn torn_intent_record_is_discarded() {
    let n = 6;
    let path = tmp("torn_wal");
    seeded(&path, n);
    // garbage .wal: the guarded mutation never began
    let mut wal = path.as_os_str().to_owned();
    wal.push(".wal");
    std::fs::write(PathBuf::from(wal), b"EBCWAL\n garbage").unwrap();
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), Some(RecoveryAction::DiscardedIntent));
    assert_eq!(st.sources(), vec![7, 3]);
}

#[test]
fn reslab_crash_after_intent_rolls_back() {
    let n = 4;
    let path = tmp("reslab_intent");
    {
        // zero headroom so the next growth must re-slab
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 1);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterIntent).unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::Reslab))
    );
    assert_eq!(st.n(), n, "growth never became visible");
    assert_eq!(st.capacity(), n);
}

#[test]
fn reslab_crash_after_tmp_rolls_back_and_removes_tmp() {
    let n = 4;
    let path = tmp("reslab_tmp");
    {
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 2);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterTmp).unwrap();
    }
    assert!(
        path.with_extension("tmp").exists(),
        "crash left the tmp file"
    );
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::Reslab))
    );
    assert!(!path.with_extension("tmp").exists(), "recovery cleans up");
    assert_eq!(st.n(), n);
    let (d, sig, del) = sample(n, 2);
    st.update_with(0, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

#[test]
fn reslab_crash_after_rename_rolls_forward() {
    let n = 4;
    let path = tmp("reslab_rename");
    {
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 3);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex_crashing(RewriteCrash::AfterRename).unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::Reslab))
    );
    assert_eq!(st.n(), n + 1, "the renamed file carries the grown geometry");
    assert!(st.capacity() > n + 1);
    let (d, sig, del) = sample(n, 3);
    st.update_with(0, &mut |view| {
        assert_eq!(&view.d[..n], &d[..]);
        assert_eq!(view.d[n], ebc_graph::UNREACHABLE);
        assert_eq!(&view.sigma[..n], &sig[..]);
        assert_eq!(&view.delta[..n], &del[..]);
        false
    })
    .unwrap();
}

/// Build a retired v1 file by hand (24-byte header, `cap == n`).
fn write_v1_file(path: &PathBuf, codec: CodecKind, n: usize, records: &[V1Record]) {
    let mut data = Vec::new();
    data.extend_from_slice(b"EBCBD1\n");
    data.push(codec.id());
    data.extend_from_slice(&(n as u64).to_le_bytes());
    data.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut buf = vec![0u8; codec.record_size(n)];
    for (_, d, sig, del) in records {
        codec.encode_record(d, sig, del, &mut buf);
        data.extend_from_slice(&buf);
    }
    std::fs::write(path, data).unwrap();
    let mut idx = Vec::new();
    idx.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (s, ..) in records {
        idx.extend_from_slice(&s.to_le_bytes());
    }
    let mut sidecar = path.as_os_str().to_owned();
    sidecar.push(".idx");
    std::fs::write(PathBuf::from(sidecar), idx).unwrap();
}

/// Retired formats are refused with a typed error that says why — never
/// mis-read as the current layout, never a panic: a v1 record file, a
/// `.wal` intent carrying the retired migration op, and the stamp-less
/// 32-byte shard manifest.
#[test]
fn retired_formats_are_refused_not_misread() {
    let n = 5;
    let (d, sig, del) = sample(n, 4);
    for codec in [CodecKind::Wide, CodecKind::Paper] {
        let path = tmp(&format!("retired_v1_{}", codec.id()));
        write_v1_file(&path, codec, n, &[(2, d.clone(), sig.clone(), del.clone())]);
        match DiskBdStore::open(&path) {
            Err(e) if e.kind() == ErrorKind::Corrupt => assert!(e.context().contains("v1"), "{e}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a v1 file must not open"),
        }
    }

    // op id 3 (v1→v2 migration) over a healthy v2 store: sealed and
    // well-formed, but no longer an op — discarded like any torn intent
    let path = tmp("retired_intent");
    seeded(&path, n);
    let mut payload = vec![0u8; 61];
    payload[0] = 3;
    std::fs::write(companion(&path, ".wal"), seal(b"EBCWAL2\n", &payload)).unwrap();
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), Some(RecoveryAction::DiscardedIntent));
    assert_eq!(st.sources(), vec![7, 3]);

    // the pre-stamp manifest: magic + format 0 + shards + version + checksum
    let dir = shard_dir("retired_manifest");
    drop(ShardSet::create(&dir, n, 2, CodecKind::Wide).unwrap());
    let mut manifest = Vec::with_capacity(32);
    manifest.extend_from_slice(b"EBCSHM\n");
    manifest.push(0);
    manifest.extend_from_slice(&2u64.to_le_bytes());
    manifest.extend_from_slice(&0u64.to_le_bytes());
    let ck = fnv1a64(&manifest);
    manifest.extend_from_slice(&ck.to_le_bytes());
    std::fs::write(dir.join("shards.manifest"), manifest).unwrap();
    assert!(matches!(ShardSet::open(&dir), Err(e) if e.kind() == ErrorKind::Corrupt));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_crash_recovery_is_idempotent() {
    // recover, then crash the *next* mutation too: each reopen must repair
    // independently
    let n = 6;
    let path = tmp("double");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterHeader);
    {
        let st = DiskBdStore::open(&path).unwrap();
        assert!(matches!(
            st.last_recovery(),
            Some(RecoveryAction::RolledForward(IntentOp::AddSource))
        ));
    }
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        let (d, sig, del) = sample(n, 12);
        st.add_source_crashing(12, d, sig, del, AddCrash::MidRecord)
            .unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledBack(IntentOp::AddSource))
    );
    assert_eq!(st.sources(), vec![7, 3, 11]);
}

#[test]
fn stale_intent_with_clean_files_is_harmless() {
    // AfterSidecar tear twice in a row exercises the "sidecar already new"
    // branch; a second reopen after recovery sees no intent at all
    let n = 6;
    let path = tmp("stale");
    seeded(&path, n);
    tear_add(&path, n, AddCrash::AfterSidecar);
    {
        DiskBdStore::open(&path).unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        None,
        "first recovery cleared the intent"
    );
    assert_eq!(st.sources(), vec![7, 3, 11]);
}

/// Removal kills: every kill point must roll *forward* (the removal's
/// inputs survive until the final truncate, and the intent is only written
/// once the caller has secured the record elsewhere).
fn assert_removal_completed(path: &PathBuf, n: usize) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::RemoveSource))
    );
    assert_eq!(st.sources(), vec![3], "survivor after swap-remove of 7");
    // the swapped record (source 3 moved into slot 0) is bit-intact
    let (d, sig, del) = sample(n, 3);
    st.update_with(3, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
    // the removed source is gone and can be freshly re-added
    let err = st.peek_pair(7, 0, 1).unwrap_err();
    assert_eq!(
        (err.kind(), err.source_vertex()),
        (ErrorKind::Invalid, Some(7))
    );
    let (d, sig, del) = sample(n, 7);
    st.add_source(7, d, sig, del).unwrap();
    drop(st);
    let st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.sources(), vec![3, 7]);
    assert_eq!(st.last_recovery(), None);
}

#[test]
fn remove_source_crashes_all_roll_forward() {
    let n = 6;
    for (name, crash) in [
        ("rm_intent", RemoveCrash::AfterIntent),
        ("rm_copy", RemoveCrash::AfterCopy),
        ("rm_hdr", RemoveCrash::AfterHeader),
        ("rm_side", RemoveCrash::AfterSidecar),
    ] {
        let path = tmp(name);
        seeded(&path, n);
        {
            let mut st = DiskBdStore::open(&path).unwrap();
            st.remove_source_crashing(7, crash).unwrap();
        }
        assert_removal_completed(&path, n);
    }
}

#[test]
fn remove_source_crash_on_last_slot_needs_no_copy() {
    let n = 6;
    let path = tmp("rm_last");
    seeded(&path, n); // sources [7, 3]; 3 occupies the last slot
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.remove_source_crashing(3, RemoveCrash::AfterIntent)
            .unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::RolledForward(IntentOp::RemoveSource))
    );
    assert_eq!(st.sources(), vec![7]);
    let (d, sig, del) = sample(n, 7);
    st.update_with(7, &mut |view| {
        assert_eq!(view.d, &d[..]);
        assert_eq!(view.sigma, &sig[..]);
        assert_eq!(view.delta, &del[..]);
        false
    })
    .unwrap();
}

#[test]
fn export_crash_after_journal_leaves_source_owned() {
    // the export journal is durable but the removal never began: a plain
    // single-store reopen sees the source untouched (the journal is a
    // shard-level concern the ShardSet resolves)
    let n = 6;
    let path = tmp("exp_journal");
    seeded(&path, n);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None, "no WAL intent was written");
    assert_eq!(st.sources(), vec![7, 3]);
    let pending = ebc_store::disk::pending_exports(&path).unwrap();
    assert_eq!(pending.len(), 1, "the journal awaits shard-level recovery");
    let journal = ebc_store::disk::read_export_journal(&pending[0])
        .unwrap()
        .expect("journal parses");
    assert_eq!(journal.source, 7);
    assert_eq!(journal.tag, 1);
    let (d, sig, del) = sample(n, 7);
    assert_eq!(journal.d, d);
    assert_eq!(journal.sigma, sig);
    assert_eq!(journal.delta, del);
}

// ---- sharded handoff crash matrix (DESIGN.md §8) ----

fn shard_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ebc_shard_crash")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two shards, shard 0 owning {7, 3}, shard 1 owning {5}, flushed.
fn seeded_set(dir: &PathBuf, n: usize) {
    let mut set = ShardSet::create(dir, n, 2, CodecKind::Wide).unwrap();
    for (shard, s) in [(0usize, 7u32), (0, 3), (1, 5)] {
        let (d, sig, del) = sample(n, s as u64);
        set.shard_mut(shard).add_source(s, d, sig, del).unwrap();
    }
    set.flush().unwrap();
}

/// Every source of the seeded set is owned by exactly one shard, and every
/// record (including the mid-handoff one, wherever it landed) is
/// bit-intact.
fn assert_exactly_once_and_intact(set: &mut ShardSet, n: usize) {
    let assignment = set.assignment();
    for s in [7u32, 3, 5] {
        let owners: Vec<usize> = (0..set.num_shards())
            .filter(|&k| assignment[k].contains(&s))
            .collect();
        assert_eq!(owners.len(), 1, "source {s} owned by {owners:?}");
        let (d, sig, del) = sample(n, s as u64);
        set.shard_mut(owners[0])
            .update_with(s, &mut |view| {
                assert_eq!(view.d, &d[..], "source {s} distances");
                assert_eq!(view.sigma, &sig[..], "source {s} sigma");
                assert_eq!(view.delta, &del[..], "source {s} delta");
                false
            })
            .unwrap();
    }
}

#[test]
fn handoff_kill_after_export_journal_rolls_back() {
    let n = 5;
    let dir = shard_dir("ho_journal");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterExportJournal)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::RolledBack {
            source: 7,
            donor: 0
        }]
    );
    assert_eq!(set.version(), 0, "nothing committed");
    assert_eq!(set.rolled_forward(), 0);
    assert_eq!(set.assignment()[0], vec![7, 3], "donor still owns 7");
    assert_exactly_once_and_intact(&mut set, n);
    drop(set);
    let set = ShardSet::open(&dir).unwrap();
    assert!(set.recovered().is_empty(), "recovery is not re-run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_export_reinstalls_from_journal() {
    // the kill window where the source is owned by *nobody* on disk: only
    // the journal payload can resurrect it
    let n = 5;
    let dir = shard_dir("ho_export");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterExport)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert!(set.version() >= 1, "the completed handoff is committed");
    assert_eq!(set.rolled_forward(), 1);
    assert!(set.assignment()[1].contains(&7), "recipient owns 7");
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_import_completes_the_commit() {
    let n = 5;
    let dir = shard_dir("ho_import");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterImport)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Completed { source: 7, to: 1 }]
    );
    assert!(set.version() >= 1);
    assert!(set.assignment()[1].contains(&7));
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_map_commit_retires_the_journal() {
    let n = 5;
    let dir = shard_dir("ho_commit");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.handoff_crashing(7, 0, 1, HandoffKill::AfterMapCommit)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Completed { source: 7, to: 1 }]
    );
    // version is monotonic; recovery may advance it past the manifest's 1
    assert!(set.version() >= 1);
    assert!(set.assignment()[1].contains(&7));
    assert_exactly_once_and_intact(&mut set, n);
    drop(set);
    let set = ShardSet::open(&dir).unwrap();
    assert!(set.recovered().is_empty(), "journal gone after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_kill_export_then_remove_converges() {
    // kill during the handoff's donor removal (not just between protocol
    // steps): the per-shard WAL rolls the removal forward, then the shard
    // layer sees an ownerless source and reinstalls it at the recipient
    let n = 5;
    let dir = shard_dir("ho_double");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        // export journal durable...
        set.shard_mut(0)
            .export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    {
        // ...then the removal itself dies halfway
        let mut st = DiskBdStore::open(dir.join("shard-0.ebc")).unwrap();
        st.remove_source_crashing(7, RemoveCrash::AfterHeader)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_states_still_error() {
    // no intent + header/sidecar disagreement must stay a hard error (it
    // cannot be attributed to a known torn mutation)
    let n = 6;
    let path = tmp("hard_err");
    seeded(&path, n);
    reseal(&companion(&path, ".idx"), |idx| {
        idx[0] += 1; // count 2 → 3 without any intent
        idx.extend_from_slice(&11u32.to_le_bytes());
    });
    assert!(matches!(DiskBdStore::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
}

/// `path` with `suffix` appended to its file name.
fn companion(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    PathBuf::from(p)
}

/// Patch the payload of the sealed file at `path` and seal it again, so the
/// reader under test sees an intact seal around the patched bytes.
fn reseal(path: &Path, patch: impl FnOnce(&mut Vec<u8>)) {
    let raw = std::fs::read(path).unwrap();
    let magic: [u8; 8] = raw[..8].try_into().unwrap();
    let mut payload = unseal(&magic, &raw).unwrap().to_vec();
    patch(&mut payload);
    std::fs::write(path, seal(&magic, &payload)).unwrap();
}

fn assert_corrupt<T>(got: Result<T, Error>, what: &str) {
    match got {
        Err(e) if e.kind() == ErrorKind::Corrupt => {}
        Err(other) => panic!("{what}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{what}: corrupt bytes were accepted"),
    }
}

/// A sidecar whose id count is 2^62 is refused, not sized into an
/// allocation (the count used to overflow `8 + 4 * count`).
#[test]
fn idx_count_overflow_is_corrupt_not_a_panic() {
    let path = tmp("idx_overflow");
    seeded(&path, 6);
    reseal(&companion(&path, ".idx"), |idx| {
        idx[..8].copy_from_slice(&(1u64 << 62).to_le_bytes())
    });
    assert_corrupt(DiskBdStore::open(&path), "idx count 2^62");
}

/// An export journal whose vertex count is 2^62 is refused by the journal
/// reader and by `ShardSet::open` (the count used to overflow the record
/// size).
#[test]
fn export_journal_count_overflow_is_corrupt_not_a_panic() {
    let n = 5;
    let dir = shard_dir("exp_overflow");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.shard_mut(0)
            .export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    let pending = ebc_store::disk::pending_exports(&dir.join("shard-0.ebc")).unwrap();
    assert_eq!(pending.len(), 1);
    // payload: codec u8 · source u32 · tag u64 · n u64 · record
    reseal(&pending[0], |exp| {
        exp[13..21].copy_from_slice(&(1u64 << 62).to_le_bytes())
    });
    assert_corrupt(
        ebc_store::disk::read_export_journal(&pending[0]),
        "export n 2^62",
    );
    assert_corrupt(ShardSet::open(&dir), "shard set over that journal");
    std::fs::remove_dir_all(&dir).ok();
}

/// A data-file header whose slab capacity makes `count × stride` overflow a
/// file length is refused (it used to overflow the record size, or in a
/// release build to open as if it were valid).
#[test]
fn header_geometry_overflow_is_corrupt_not_a_panic() {
    let path = tmp("header_overflow");
    seeded(&path, 6);
    let mut raw = std::fs::read(&path).unwrap();
    raw[24..32].copy_from_slice(&(1u64 << 61).to_le_bytes()); // cap
    std::fs::write(&path, raw).unwrap();
    assert_corrupt(DiskBdStore::open(&path), "cap 2^61");
}
