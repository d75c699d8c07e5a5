//! Crash-injection suite: kill the store at every point of `add_source`,
//! `remove_source` and the re-slab (for growth and for widening) — plus the sharded handoff at every
//! window between the store calls the engine's move executor makes (donor
//! export journal, donor removal, recipient import) — reopen, and verify
//! `open()` repairs the file to a consistent state. Each single-store case
//! is one row of the DESIGN.md §7 open rules: the reopened store equals,
//! bit for bit, a memory twin before or after the torn operation. Each
//! handoff case is one row of the §8 matrix, whose acceptance bar is that
//! the mid-handoff source ends up **owned by exactly one shard**.

use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::{Error, ErrorKind};
use ebc_graph::{seal, unseal};
use ebc_store::disk::{AddCrash, ExportCrash, RemoveCrash, RewriteCrash};
use ebc_store::shard::HandoffRecovery;
use ebc_store::{CodecKind, DiskBdStore, RecoveryAction, ShardSet};
use std::path::{Path, PathBuf};

/// Vertex count of the single-store cases.
const N: usize = 16;
/// Bytes of the data-file header.
const HEADER_LEN: u64 = 40;

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

/// The seeded sources, in slot order.
const SEEDED: [u32; 3] = [7, 3, 9];

/// Store with the seeded sources committed, flushed and dropped.
fn seeded(path: &PathBuf, n: usize) {
    seeded_at(path, n, CodecKind::Wide)
}

/// [`seeded`], the store created at `codec`.
fn seeded_at(path: &PathBuf, n: usize, codec: CodecKind) {
    let mut st = DiskBdStore::create(path, n, codec).unwrap();
    for s in SEEDED {
        let (d, sig, del) = sample(n, s as u64);
        st.add_source(s, d, sig, del).unwrap();
    }
    st.flush().unwrap();
}

/// Every record, in slot order, with `δ` as bits.
type Bits = Vec<(u32, Vec<u32>, Vec<u64>, Vec<u64>)>;

fn bits<S: BdStore>(store: &mut S) -> Bits {
    let sources = store.sources();
    sources
        .into_iter()
        .map(|s| {
            let mut rec = (s, Vec::new(), Vec::new(), Vec::new());
            store
                .read(s, &mut |d, sigma, delta| {
                    rec.1 = d.to_vec();
                    rec.2 = sigma.to_vec();
                    rec.3 = delta.iter().map(|x| x.to_bits()).collect();
                })
                .unwrap();
            rec
        })
        .collect()
}

/// A structural operation on a seeded store.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u32),
    Remove(u32),
}

impl Op {
    fn run<S: BdStore>(self, st: &mut S) {
        match self {
            Op::Add(s) => {
                let (d, sig, del) = sample(N, s as u64);
                st.add_source(s, d, sig, del).unwrap();
            }
            Op::Remove(s) => st.remove_source(s).unwrap(),
        }
    }
}

/// The memory twin of a seeded store, after `ops`.
fn twin(ops: &[Op]) -> Bits {
    let mut mem = MemoryBdStore::new(N);
    SEEDED
        .map(Op::Add)
        .iter()
        .chain(ops)
        .for_each(|op| op.run(&mut mem));
    bits(&mut mem)
}

/// Reopen `path`, check what `open` did and that the records are exactly
/// `want`, then reopen once more: a repair is never re-run.
fn assert_reopens_to(path: &Path, action: Option<RecoveryAction>, want: &Bits) {
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.last_recovery(), action);
    assert_eq!(&bits(&mut st), want);
    drop(st);
    let mut st = DiskBdStore::open(path).unwrap();
    assert_eq!(st.last_recovery(), None, "the repair is durable");
    assert_eq!(&bits(&mut st), want);
}

fn tear_add(path: &PathBuf, crash: AddCrash) {
    let mut st = DiskBdStore::open(path).unwrap();
    let (d, sig, del) = sample(N, 11);
    st.add_source_crashing(11, d, sig, del, crash).unwrap();
    // dropped without commit — the simulated kill
}

fn tear_remove(path: &PathBuf, s: u32, crash: RemoveCrash) {
    let mut st = DiskBdStore::open(path).unwrap();
    st.remove_source_crashing(s, crash).unwrap();
}

#[test]
fn add_source_crash_mid_record_rolls_back() {
    let path = tmp("add_midrec");
    seeded(&path, N);
    tear_add(&path, AddCrash::MidRecord);
    assert_reopens_to(&path, Some(RecoveryAction::DroppedTail), &twin(&[]));
    // the rolled-back source can be re-added cleanly
    let mut st = DiskBdStore::open(&path).unwrap();
    Op::Add(11).run(&mut st);
    drop(st);
    assert_reopens_to(&path, None, &twin(&[Op::Add(11)]));
}

/// A complete append whose `count` write never landed is not committed:
/// `open` rolls it back like a torn one.
#[test]
fn add_source_crash_after_record_rolls_back() {
    let path = tmp("add_rec");
    seeded(&path, N);
    tear_add(&path, AddCrash::AfterRecord);
    assert_reopens_to(&path, Some(RecoveryAction::DroppedTail), &twin(&[]));
}

/// The header `count` write is the add's last step: a kill after it finds
/// the add committed and nothing to repair.
#[test]
fn add_source_crash_after_header_rolls_forward() {
    let path = tmp("add_hdr");
    seeded(&path, N);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        Op::Add(11).run(&mut st);
    }
    assert_reopens_to(&path, None, &twin(&[Op::Add(11)]));
}

/// Cut or extend the data file at every offset around its final stride: a
/// tail of up to one stride past `count` is dropped, more is `Corrupt`, and
/// so is a file too short for `count`.
#[test]
fn final_stride_sweep_drops_one_stride_and_refuses_more() {
    let path = tmp("sweep");
    seeded(&path, N);
    let stride = {
        let st = DiskBdStore::open(&path).unwrap();
        8 + CodecKind::Wide.record_size(st.capacity())
    };
    let committed = std::fs::read(&path).unwrap();
    assert_eq!(
        committed.len() as u64,
        HEADER_LEN + (SEEDED.len() * stride) as u64
    );
    // an uncommitted append cut at every offset: the pre-op twin
    tear_add(&path, AddCrash::AfterRecord);
    let torn_add = std::fs::read(&path).unwrap();
    assert_eq!(torn_add.len(), committed.len() + stride);
    let pre = twin(&[]);
    for cut in 0..=stride {
        std::fs::write(&path, &torn_add[..committed.len() + cut]).unwrap();
        let mut st = DiskBdStore::open(&path).unwrap();
        let action = (cut > 0).then_some(RecoveryAction::DroppedTail);
        assert_eq!(st.last_recovery(), action, "cut {cut}");
        assert_eq!(bits(&mut st), pre, "cut {cut}");
        drop(st);
        assert_eq!(std::fs::read(&path).unwrap(), committed, "cut {cut}");
    }
    // an unfinished truncate cut at every offset: the post-op twin
    std::fs::write(&path, &committed).unwrap();
    tear_remove(&path, 7, RemoveCrash::AfterCount);
    let torn_remove = std::fs::read(&path).unwrap();
    let kept = torn_remove.len() - stride;
    let post = twin(&[Op::Remove(7)]);
    for cut in 0..=stride {
        std::fs::write(&path, &torn_remove[..kept + cut]).unwrap();
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(bits(&mut st), post, "cut {cut}");
    }
    // more than one stride past `count`, or less than `count` records
    for extra in stride + 1..=2 * stride {
        let mut raw = committed.clone();
        raw.resize(committed.len() + extra, 0xAA);
        std::fs::write(&path, &raw).unwrap();
        assert_corrupt(DiskBdStore::open(&path), &format!("{extra} bytes past"));
    }
    for short in 1..=stride {
        std::fs::write(&path, &committed[..committed.len() - short]).unwrap();
        assert_corrupt(DiskBdStore::open(&path), &format!("{short} bytes short"));
    }
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
    let staged = companion(&path, ".tmp");
    assert!(staged.exists(), "crash left the staged file");
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None, "the data file was never touched");
    assert!(!staged.exists(), "open cleans up");
    assert_eq!((st.n(), st.capacity()), (n, n));
    let (d, sig, del) = sample(n, 2);
    st.read(0, &mut |got_d, got_sigma, got_delta| {
        assert_eq!(got_d, &d[..]);
        assert_eq!(got_sigma, &sig[..]);
        assert_eq!(got_delta, &del[..]);
    })
    .unwrap();
}

/// A kill after the widening re-slab staged its `Wide` file, before the
/// rename: the store reopens narrow, every record bitwise as before, and
/// the staged file is gone.
#[test]
fn widen_crash_after_tmp_reopens_narrow_and_removes_tmp() {
    let path = tmp("widen_tmp");
    seeded_at(&path, N, CodecKind::Paper);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.widen_crashing(RewriteCrash::AfterTmp).unwrap();
    }
    let staged = companion(&path, ".tmp");
    assert!(staged.exists(), "crash left the staged file");
    assert_reopens_to(&path, None, &twin(&[]));
    assert!(!staged.exists(), "open cleans up");
    assert_eq!(DiskBdStore::open(&path).unwrap().codec(), CodecKind::Paper);
}

/// A record with a distance past 254 and a path count past 65,535 widens a
/// `Paper` store before it lands; dropped without a flush, the store
/// reopens `Wide` with every record bitwise and nothing to repair.
#[test]
fn a_store_widened_by_add_source_reopens_wide_without_a_flush() {
    let path = tmp("widen_add");
    seeded_at(&path, N, CodecKind::Paper);
    let (mut d, mut sig, del) = sample(N, 11);
    (d[1], sig[2]) = (255, 70_000);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.add_source(11, d.clone(), sig.clone(), del.clone())
            .unwrap();
        assert_eq!(st.codec(), CodecKind::Wide);
        // dropped without flush — the simulated kill
    }
    let mut mem = MemoryBdStore::new(N);
    SEEDED.map(Op::Add).iter().for_each(|op| op.run(&mut mem));
    mem.add_source(11, d, sig, del).unwrap();
    assert_reopens_to(&path, None, &bits(&mut mem));
    assert_eq!(DiskBdStore::open(&path).unwrap().codec(), CodecKind::Wide);
}

/// The rename is the re-slab's last step: a kill after it finds the grown
/// geometry and nothing to repair.
#[test]
fn reslab_crash_after_rename_rolls_forward() {
    let n = 4;
    let path = tmp("reslab_rename");
    {
        let mut st = DiskBdStore::create_with_capacity(&path, n, n, CodecKind::Wide).unwrap();
        let (d, sig, del) = sample(n, 3);
        st.add_source(0, d, sig, del).unwrap();
        st.grow_vertex().unwrap();
    }
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None);
    assert_eq!(st.n(), n + 1, "the renamed file carries the grown geometry");
    assert!(st.capacity() > n + 1);
    let (d, sig, del) = sample(n, 3);
    st.read(0, &mut |got_d, got_sigma, got_delta| {
        assert_eq!(&got_d[..n], &d[..]);
        assert_eq!(got_d[n], ebc_graph::UNREACHABLE);
        assert_eq!(&got_sigma[..n], &sig[..]);
        assert_eq!(&got_delta[..n], &del[..]);
    })
    .unwrap();
}

/// Build a retired-format file by hand: v1 (24-byte header, `cap == n`) or
/// v2 (the 40-byte header, no id prefixes, the ids in a sidecar).
fn write_retired_file(path: &PathBuf, version: u8, codec: CodecKind, n: usize) {
    let mut data = format!("EBCBD{version}\n").into_bytes();
    data.push(codec.id());
    data.extend_from_slice(&(n as u64).to_le_bytes());
    data.extend_from_slice(&1u64.to_le_bytes());
    if version == 2 {
        data.extend_from_slice(&(n as u64).to_le_bytes()); // cap
        data.extend_from_slice(&0u64.to_le_bytes()); // stamp
    }
    // the record body, as a v3 store of `cap == n` writes it behind the
    // 40-byte header and the 8-byte source id
    let body = {
        let mut st = DiskBdStore::create_with_capacity(path, n, n, codec).unwrap();
        let (d, sig, del) = sample(n, 4);
        st.add_source(0, d, sig, del).unwrap();
        st.fold().unwrap();
        std::fs::read(path).unwrap()[HEADER_LEN as usize + 8..].to_vec()
    };
    assert_eq!(body.len(), codec.record_size(n));
    data.extend_from_slice(&body);
    std::fs::write(path, data).unwrap();
}

/// Retired formats are refused with a typed error that says why — never
/// mis-read as the current layout, never a panic.
#[test]
fn retired_formats_are_refused_not_misread() {
    for version in [1, 2] {
        for codec in [CodecKind::Wide, CodecKind::Paper] {
            let path = tmp(&format!("retired_v{version}_{}", codec.id()));
            write_retired_file(&path, version, codec, 5);
            match DiskBdStore::open(&path) {
                Err(e) if e.kind() == ErrorKind::Corrupt => {
                    assert!(e.context().contains(&format!("v{version}")), "{e}")
                }
                Err(other) => panic!("expected Corrupt, got {other}"),
                Ok(_) => panic!("a v{version} file must not open"),
            }
        }
    }
}

#[test]
fn double_crash_recovery_is_idempotent() {
    // recover, then crash the *next* mutation too: each reopen must repair
    // independently
    let path = tmp("double");
    seeded(&path, N);
    tear_remove(&path, 7, RemoveCrash::AfterId);
    let removed = twin(&[Op::Remove(7)]);
    assert_reopens_to(&path, Some(RecoveryAction::FinishedRemove), &removed);
    tear_add(&path, AddCrash::MidRecord);
    assert_reopens_to(&path, Some(RecoveryAction::DroppedTail), &removed);
}

/// Removal kills from a middle slot: every kill point rolls *forward*
/// (the moved record's bytes survive until the truncate, and the removed
/// source is secured elsewhere before the removal begins).
#[test]
fn remove_source_crashes_all_roll_forward() {
    for (name, crash, action) in [
        (
            "rm_id",
            RemoveCrash::AfterId,
            RecoveryAction::FinishedRemove,
        ),
        (
            "rm_body",
            RemoveCrash::AfterBody,
            RecoveryAction::FinishedRemove,
        ),
        (
            "rm_count",
            RemoveCrash::AfterCount,
            RecoveryAction::DroppedTail,
        ),
    ] {
        let path = tmp(name);
        seeded(&path, N);
        tear_remove(&path, 7, crash);
        assert_reopens_to(&path, Some(action), &twin(&[Op::Remove(7)]));
        // the removed source is gone and can be freshly re-added
        let mut st = DiskBdStore::open(&path).unwrap();
        let err = st.read(7, &mut |_, _, _| ()).unwrap_err();
        assert_eq!(
            (err.kind(), err.source_vertex()),
            (ErrorKind::Invalid, Some(7))
        );
        Op::Add(7).run(&mut st);
        drop(st);
        assert_reopens_to(&path, None, &twin(&[Op::Remove(7), Op::Add(7)]));
    }
}

/// Removal kills from the last slot: there is no id to write and no body
/// to copy, so a kill before the `count` write leaves the store as it was,
/// and one after it leaves the removal done.
#[test]
fn remove_source_crash_on_last_slot_needs_no_copy() {
    for (name, crash, action, ops) in [
        ("rm_last_id", RemoveCrash::AfterId, None, &[][..]),
        ("rm_last_body", RemoveCrash::AfterBody, None, &[]),
        (
            "rm_last_count",
            RemoveCrash::AfterCount,
            Some(RecoveryAction::DroppedTail),
            &[Op::Remove(9)],
        ),
    ] {
        let path = tmp(name);
        seeded(&path, N); // 9 occupies the last slot
        tear_remove(&path, 9, crash);
        assert_reopens_to(&path, action, &twin(ops));
    }
}

#[test]
fn export_crash_after_journal_leaves_source_owned() {
    // the export journal is durable but the removal never began: a plain
    // single-store reopen sees the source untouched (the journal is a
    // shard-level concern the ShardSet resolves)
    let n = N;
    let path = tmp("exp_journal");
    seeded(&path, n);
    {
        let mut st = DiskBdStore::open(&path).unwrap();
        st.export_source_crashing(7, 1, ExportCrash::AfterJournal)
            .unwrap();
    }
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None, "nothing to repair");
    assert_eq!(st.sources(), SEEDED.to_vec());
    let pending = ebc_store::disk::pending_exports(&path).unwrap();
    assert_eq!(pending.len(), 1, "the journal awaits shard-level recovery");
    let (tag, rec) = ebc_store::disk::read_export_journal(&pending[0])
        .unwrap()
        .expect("journal parses");
    assert_eq!(rec.source, 7);
    assert_eq!(tag, 1);
    let (d, sig, del) = sample(n, 7);
    assert_eq!(rec.d, d);
    assert_eq!(rec.sigma, sig);
    assert_eq!(rec.delta, del);
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
            .read(s, &mut |got_d, got_sigma, got_delta| {
                assert_eq!(got_d, &d[..], "source {s} distances");
                assert_eq!(got_sigma, &sig[..], "source {s} sigma");
                assert_eq!(got_delta, &del[..], "source {s} delta");
            })
            .unwrap();
    }
}

#[test]
fn handoff_kill_after_export_journal_rolls_back() {
    let n = 8;
    let dir = shard_dir("ho_journal");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.shard_mut(0)
            .export_source_crashing(7, 1, ExportCrash::AfterJournal)
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
    assert_eq!(set.rolled_forward(), 0, "nothing committed");
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
    let n = 8;
    let dir = shard_dir("ho_export");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        set.shard_mut(0).export_source(7, 1).unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert_eq!(
        set.rolled_forward(),
        1,
        "the completed handoff is committed"
    );
    assert!(set.assignment()[1].contains(&7), "recipient owns 7");
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handoff_kill_after_import_completes_the_commit() {
    // the engine's map commit is in memory, so a kill after it leaves the
    // same bytes as a kill right after the import
    let n = 8;
    let dir = shard_dir("ho_import");
    seeded_set(&dir, n);
    {
        let mut set = ShardSet::open(&dir).unwrap();
        let rec = set.shard_mut(0).export_source(7, 1).unwrap();
        set.shard_mut(1)
            .add_source(rec.source, rec.d, rec.sigma, rec.delta)
            .unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Completed { source: 7, to: 1 }]
    );
    assert_eq!(set.rolled_forward(), 1);
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
    // steps): the donor store's open finishes the removal, then the shard
    // layer sees an ownerless source and reinstalls it at the recipient
    let n = 8;
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
        st.remove_source_crashing(7, RemoveCrash::AfterId).unwrap();
    }
    let mut set = ShardSet::open(&dir).unwrap();
    assert_eq!(
        set.recovered(),
        &[HandoffRecovery::Reinstalled { source: 7, to: 1 }]
    );
    assert_exactly_once_and_intact(&mut set, n);
    std::fs::remove_dir_all(&dir).ok();
}

/// States no kill leaves stay a hard error: a header `count` above the
/// records the file holds, or so far below them that more than one record
/// trails it.
#[test]
fn unrecoverable_states_still_error() {
    let path = tmp("hard_err");
    seeded(&path, N);
    let clean = std::fs::read(&path).unwrap();
    for count in [SEEDED.len() as u64 + 1, SEEDED.len() as u64 - 2, 0] {
        let mut raw = clean.clone();
        raw[16..24].copy_from_slice(&count.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert_corrupt(DiskBdStore::open(&path), &format!("count {count}"));
    }
}

/// Hostile id prefixes are refused, never sized into anything or trusted:
/// an id past `n` (up to `u64::MAX`), and a repeated id anywhere but the
/// one place an interrupted swap-remove leaves it (the last slot).
#[test]
fn hostile_record_ids_are_corrupt_not_a_panic() {
    let path = tmp("hostile_ids");
    seeded(&path, N);
    let clean = std::fs::read(&path).unwrap();
    let stride = (clean.len() - HEADER_LEN as usize) / SEEDED.len();
    let with_ids = |ids: &[(usize, u64)]| {
        let mut raw = clean.clone();
        for &(slot, id) in ids {
            let at = HEADER_LEN as usize + slot * stride;
            raw[at..at + 8].copy_from_slice(&id.to_le_bytes());
        }
        std::fs::write(&path, raw).unwrap();
    };
    for id in [N as u64, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX] {
        for slot in 0..SEEDED.len() {
            with_ids(&[(slot, id)]);
            assert_corrupt(DiskBdStore::open(&path), &format!("id {id} in slot {slot}"));
        }
    }
    // slot 1 repeats slot 0; the last id fills both earlier slots; slot 0
    // repeats slot 1 while the last is unique
    for ids in [&[(1, 7)][..], &[(0, 9), (1, 9)], &[(0, 3)]] {
        with_ids(ids);
        assert_corrupt(DiskBdStore::open(&path), &format!("ids {ids:?}"));
    }
    // the last id repeated once, earlier: a swap-remove to finish
    with_ids(&[(0, 9)]);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), Some(RecoveryAction::FinishedRemove));
    assert_eq!(st.sources(), vec![9, 3]);
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

/// An export journal whose vertex count is 2^62 is refused by the journal
/// reader and by `ShardSet::open` (the count used to overflow the record
/// size).
#[test]
fn export_journal_count_overflow_is_corrupt_not_a_panic() {
    let n = 8;
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
    seeded(&path, N);
    let mut raw = std::fs::read(&path).unwrap();
    raw[24..32].copy_from_slice(&(1u64 << 61).to_le_bytes()); // cap
    std::fs::write(&path, raw).unwrap();
    assert_corrupt(DiskBdStore::open(&path), "cap 2^61");
}
