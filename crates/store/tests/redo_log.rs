//! The cell-delta redo log behind `DiskBdStore::flush` (DESIGN.md §7 "Redo
//! log"). The power-loss model used throughout: everything written to the
//! data file since its last sync is lost, so the file is put back to the
//! image it had right after a fold while `<path>.redo` is kept.

use ebc_core::bd::{BdStore, MemoryBdStore, SourceViewMut};
use ebc_core::brandes::{single_source_update_with, BrandesScratch};
use ebc_core::exact::{exact_scores, ExactSum};
use ebc_core::incremental::{update_source, UpdateConfig, Workspace};
use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_core::ErrorKind;
use ebc_graph::{EdgeOp, Graph, VertexId};
use ebc_store::shard::shard_path;
use ebc_store::{CodecKind, DiskBdStore, RecoveryAction, ShardSet};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A fresh, empty directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ebc_store_redo")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A data-file path in a fresh directory.
fn tmp(name: &str) -> PathBuf {
    tmp_dir(name).join("bd.ebc")
}

fn redo_of(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".redo");
    PathBuf::from(p)
}

fn redo_len(path: &Path) -> u64 {
    std::fs::metadata(redo_of(path)).unwrap().len()
}

const N: usize = 120;
const SOURCES: [VertexId; 8] = [4, 9, 2, 17, 30, 57, 101, 88];

/// Endpoint distances differ (cells 0 and 1), so no source is skipped.
fn seed_record(s: VertexId) -> (Vec<u32>, Vec<u64>, Vec<f64>) {
    let mut d: Vec<u32> = (0..N as u32).map(|i| (i + s) % 6 + 1).collect();
    (d[0], d[1]) = (0, 3);
    let sigma = (0..N as u64).map(|i| i * 3 + s as u64 + 1).collect();
    let delta = (0..N).map(|i| i as f64 * 0.25 + s as f64).collect();
    (d, sigma, delta)
}

fn seed<S: BdStore>(store: &mut S) {
    for s in SOURCES {
        let (d, sigma, delta) = seed_record(s);
        store.add_source(s, d, sigma, delta).unwrap();
    }
}

/// Step `t` of the synthetic history: every source gets three cells
/// rewritten and itemises them through `view.wrote`; source 2 on even
/// steps lists every cell of its record besides.
fn step<S: BdStore>(store: &mut S, t: u32) {
    store
        .update_batch(0, 1, &mut |s, mut view: SourceViewMut<'_>| {
            for j in 0..3u32 {
                let v = 2 + (s * 7 + t * 3 + j * 5) % (N as u32 - 2);
                view.set(v, t + j, s as u64 * 100 + t as u64);
                view.delta[v as usize] = t as f64 * 0.5 + v as f64;
                if let Some(w) = view.wrote.as_mut() {
                    w.push(v);
                }
            }
            if let Some(w) = view.wrote.filter(|_| s == 2 && t.is_multiple_of(2)) {
                w.extend(0..N as VertexId);
            }
            Ok(())
        })
        .unwrap();
    store.flush().unwrap();
}

type Bits = Vec<(VertexId, Vec<u32>, Vec<u64>, Vec<u64>)>;

/// Every record of `store`, δ as bits, in ascending source order.
fn bits<S: BdStore>(store: &mut S) -> Bits {
    let mut sources = store.sources();
    sources.sort_unstable();
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

/// The memory twin after `steps` steps.
fn twin(steps: u32) -> MemoryBdStore {
    let mut mem = MemoryBdStore::new(N);
    seed(&mut mem);
    (0..steps).for_each(|t| step(&mut mem, t));
    mem
}

/// A seeded, folded disk store; returns it with its post-fold image.
fn folded_store(path: &Path, codec: CodecKind) -> (DiskBdStore, Vec<u8>) {
    let mut st = DiskBdStore::create(path, N, codec).unwrap();
    seed(&mut st);
    st.fold().unwrap();
    assert_eq!(redo_len(path), 0);
    let image = std::fs::read(path).unwrap();
    (st, image)
}

// (a) flushed updates survive losing every in-place page written since the
// last fold
#[test]
fn flushed_updates_survive_losing_the_in_place_writes() {
    for (codec, name) in [
        (CodecKind::Wide, "loss_wide"),
        (CodecKind::Paper, "loss_paper"),
    ] {
        let path = tmp(name);
        let (mut st, image) = folded_store(&path, codec);
        let k = 4;
        (0..k).for_each(|t| step(&mut st, t));
        assert!(
            redo_len(&path) > 0,
            "k updates fit below the fold threshold"
        );
        let live = bits(&mut st);
        drop(st);
        std::fs::write(&path, &image).unwrap();

        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(
            st.last_recovery(),
            Some(RecoveryAction::ReplayedRedo { frames: k as u64 })
        );
        assert_eq!(bits(&mut st), live, "{name}: replay rebuilt the live state");
        assert_eq!(live, bits(&mut twin(k)), "{name}: and that is the twin's");
        assert_eq!(redo_len(&path), 0, "replay ends in a fold");
    }
}

// (b) a torn final frame is the update that never finished
#[test]
fn torn_tail_yields_the_last_complete_frame() {
    let path = tmp("torn");
    let (mut st, image) = folded_store(&path, CodecKind::Wide);
    let k = 3;
    let mut ends = vec![0u64];
    for t in 0..k {
        step(&mut st, t);
        ends.push(redo_len(&path));
    }
    drop(st);
    let log = std::fs::read(redo_of(&path)).unwrap();
    let (last_start, last_end) = (ends[k as usize - 1], ends[k as usize]);
    let before_last = bits(&mut twin(k - 1));
    // inside the header, inside the payload, one byte short, and a sweep
    let mut cuts: Vec<u64> = (last_start..last_end).step_by(37).collect();
    cuts.extend([
        last_start + 1,
        last_start + 11,
        last_start + 12,
        last_end - 1,
    ]);
    for cut in cuts {
        std::fs::write(&path, &image).unwrap();
        std::fs::write(redo_of(&path), &log[..cut as usize]).unwrap();
        let mut st = match DiskBdStore::open(&path) {
            Ok(st) => st,
            Err(e) => panic!("cut at {cut}: a torn tail must open, got {e}"),
        };
        assert_eq!(
            st.last_recovery(),
            Some(RecoveryAction::ReplayedRedo {
                frames: k as u64 - 1
            }),
            "cut at {cut}"
        );
        assert_eq!(bits(&mut st), before_last, "cut at {cut}");
    }
    // a log that is nothing but a torn frame replays nothing and opens
    std::fs::write(&path, &image).unwrap();
    std::fs::write(redo_of(&path), &log[..(ends[1] - 5) as usize]).unwrap();
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::ReplayedRedo { frames: 0 })
    );
    assert_eq!(bits(&mut st), bits(&mut twin(0)));
    // damage before the tail is corruption, not a crash artifact
    let mut bad = log.clone();
    bad[20] ^= 0x40;
    std::fs::write(&path, &image).unwrap();
    std::fs::write(redo_of(&path), &bad).unwrap();
    assert!(matches!(DiskBdStore::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
}

// (c) replay over a data file that lost nothing (a process kill) is a no-op
#[test]
fn replay_is_idempotent_and_runs_once() {
    let path = tmp("idempotent");
    let (mut st, _) = folded_store(&path, CodecKind::Wide);
    (0..3).for_each(|t| step(&mut st, t));
    drop(st);
    let data = std::fs::read(&path).unwrap();
    assert!(redo_len(&path) > 0);
    let st = DiskBdStore::open(&path).unwrap();
    assert_eq!(
        st.last_recovery(),
        Some(RecoveryAction::ReplayedRedo { frames: 3 })
    );
    drop(st);
    assert_eq!(std::fs::read(&path).unwrap(), data, "no byte changed");
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None, "the second open replays nothing");
    assert_eq!(bits(&mut st), bits(&mut twin(3)));
}

/// The fold rule: the log never reaches the size of the records it
/// describes, whatever the history length.
#[test]
fn log_folds_itself_at_data_bytes() {
    let path = tmp("self_fold");
    let (mut st, _) = folded_store(&path, CodecKind::Wide);
    let mut folds = 0;
    let mut before = 0;
    for t in 0..40 {
        step(&mut st, t);
        let now = redo_len(&path);
        assert!(now < st.data_bytes(), "step {t}: {now} logged bytes");
        folds += (now < before) as u32;
        before = now;
    }
    assert!(folds >= 2, "40 steps outgrow the store more than once");
    drop(st);
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(bits(&mut st), bits(&mut twin(40)));
}

// (d) structural operations never run over a non-empty log
#[test]
fn structural_operations_fold_first() {
    type Op = fn(&mut DiskBdStore);
    let ops: [(&str, Op); 5] = [
        ("add", |st| {
            let (d, sigma, delta) = seed_record(33);
            st.add_source(33, d, sigma, delta).unwrap()
        }),
        ("remove", |st| st.remove_source(9).unwrap()),
        ("export", |st| {
            st.export_source(2, 0).unwrap();
        }),
        ("reslab", |st| {
            while st.headroom() > 0 {
                st.grow_vertex().unwrap();
            }
            st.grow_vertex().unwrap()
        }),
        ("update", |st| {
            // not structural: it must *extend* the log, checked below
            st.update_batch(0, 1, &mut |s, view| {
                if s == 4 {
                    view.delta[5] = 1.5;
                    view.wrote.unwrap().push(5);
                }
                Ok(())
            })
            .unwrap();
        }),
    ];
    for (name, op) in ops {
        let path = tmp(&format!("structural_{name}"));
        let (mut st, _) = folded_store(&path, CodecKind::Wide);
        step(&mut st, 0);
        let logged = redo_len(&path);
        assert!(logged > 0);
        op(&mut st);
        if name == "update" {
            assert!(redo_len(&path) > logged, "single-record updates are logged");
        } else {
            assert_eq!(redo_len(&path), 0, "{name} must fold first");
        }
        // and what the fold made durable is what a reopen sees
        st.flush().unwrap();
        let live = bits(&mut st);
        drop(st);
        let mut st = DiskBdStore::open(&path).unwrap();
        assert_eq!(bits(&mut st), live, "{name}");
    }
    // the same through a shard handoff
    let dir = tmp_dir("structural_handoff");
    let mut set = ShardSet::create(&dir, N, 2, CodecKind::Wide).unwrap();
    seed(set.shard_mut(0));
    set.flush().unwrap();
    step(set.shard_mut(0), 0);
    assert!(redo_len(&shard_path(&dir, 0)) > 0);
    hand_over(&mut set, 9, 0, 1);
    assert_eq!(redo_len(&shard_path(&dir, 0)), 0);
    assert_eq!(redo_len(&shard_path(&dir, 1)), 0);
}

/// A cell an update lists past the `Paper` limits re-slabs the store
/// `Wide` in the middle of the update, after an earlier slot was written
/// back narrow: the update writes one narrow record, re-slabs two and
/// writes one wide, and its one frame, narrow and wide cells alike,
/// replays over the widened file. A vertex grown into the headroom first
/// leaves `cap` above `slab_cap(n)`: the widening keeps `cap`, the
/// geometry the frame was begun under.
#[test]
fn an_update_that_widens_its_store_logs_one_replayable_frame() {
    let path = tmp("widen_mid_update");
    let mut st = DiskBdStore::create(&path, N, CodecKind::Paper).unwrap();
    let (first, second) = (seed_record(4), seed_record(9));
    for (s, (d, sigma, delta)) in [(4, first.clone()), (9, second.clone())] {
        st.add_source(s, d, sigma, delta).unwrap();
    }
    st.grow_vertex().unwrap();
    let cap = st.capacity();
    st.fold().unwrap();
    let w0 = st.bytes_written;
    st.update_batch(0, 1, &mut |s, mut view| {
        match s {
            4 => view.delta[2] = 7.5,
            _ => view.set(2, 2, 70_000),
        }
        view.wrote.as_mut().unwrap().push(2);
        Ok(())
    })
    .unwrap();
    let logged = redo_len(&path);
    let body = |codec: CodecKind| codec.record_size(cap) as u64;
    assert_eq!((st.codec(), st.capacity()), (CodecKind::Wide, cap));
    assert_eq!(
        st.bytes_written - w0,
        body(CodecKind::Paper) + 3 * body(CodecKind::Wide) + logged
    );
    st.flush().unwrap();
    drop(st);
    let mut st = DiskBdStore::open(&path).unwrap();
    let replayed = Some(RecoveryAction::ReplayedRedo { frames: 1 });
    assert_eq!(
        (st.codec(), st.last_recovery()),
        (CodecKind::Wide, replayed)
    );
    let mut mem = MemoryBdStore::new(N);
    for (s, (mut d, mut sigma, mut delta)) in [(4, first), (9, second)] {
        match s {
            4 => delta[2] = 7.5,
            _ => (d[2], sigma[2]) = (2, 70_000),
        }
        mem.add_source(s, d, sigma, delta).unwrap();
    }
    mem.grow_vertex().unwrap();
    assert_eq!(bits(&mut st), bits(&mut mem));
}

/// A logged cell the store's codec cannot hold is corruption: a `Paper`
/// store re-slabs itself `Wide` before it logs such a cell, so only a
/// frame written under another codec, same geometry, can carry one.
#[test]
fn a_cell_the_codec_cannot_hold_is_corrupt_on_replay() {
    let (paper, wide) = (tmp("codec_paper"), tmp("codec_wide"));
    drop(folded_store(&paper, CodecKind::Paper));
    let (mut st, _) = folded_store(&wide, CodecKind::Wide);
    st.update_batch(0, 1, &mut |s, mut view| {
        if s == 9 {
            let d = view.d(5);
            view.set(5, d, 70_000);
            view.wrote.as_mut().unwrap().push(5);
        }
        Ok(())
    })
    .unwrap();
    st.flush().unwrap();
    drop(st);
    std::fs::copy(redo_of(&wide), redo_of(&paper)).unwrap();
    match DiskBdStore::open(&paper) {
        Err(e) => assert_eq!(e.kind(), ErrorKind::Corrupt, "{e}"),
        Ok(_) => panic!("σ = 70 000 replayed into a paper record"),
    }
}

/// Move `s` from shard `from` to shard `to` with the store calls the
/// engine's move executor makes: donor export, recipient import, retire.
fn hand_over(set: &mut ShardSet, s: u32, from: usize, to: usize) {
    let rec = set.shard_mut(from).export_source(s, to as u64).unwrap();
    set.shard_mut(to)
        .add_source(rec.source, rec.d, rec.sigma, rec.delta)
        .unwrap();
    set.shard_mut(from).retire_export(s).unwrap();
}

// (e) a log belongs to one incarnation of one store
#[test]
fn stale_and_foreign_logs() {
    let path = tmp("stale");
    let (mut st, _) = folded_store(&path, CodecKind::Wide);
    step(&mut st, 0);
    drop(st);
    let frames = std::fs::read(redo_of(&path)).unwrap();
    assert!(!frames.is_empty());
    // create() over the leftovers starts clean
    let mut st = DiskBdStore::create(&path, N, CodecKind::Wide).unwrap();
    assert_eq!(redo_len(&path), 0);
    seed(&mut st);
    st.flush().unwrap();
    drop(st);
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), None);
    assert_eq!(bits(&mut st), bits(&mut twin(0)));
    drop(st);
    // frames written under another source count are refused...
    let mut st = DiskBdStore::open(&path).unwrap();
    st.remove_source(30).unwrap();
    st.flush().unwrap();
    drop(st);
    std::fs::write(redo_of(&path), &frames).unwrap();
    assert!(matches!(DiskBdStore::open(&path), Err(e) if e.kind() == ErrorKind::Corrupt));
    // ...and so are frames written under another slab capacity
    let other = tmp("foreign_cap");
    let mut st = DiskBdStore::create_with_capacity(&other, N, N + 1, CodecKind::Wide).unwrap();
    seed(&mut st);
    st.flush().unwrap();
    drop(st);
    std::fs::write(redo_of(&other), &frames).unwrap();
    assert!(matches!(
        DiskBdStore::open(&other),
        Err(e) if e.kind() == ErrorKind::Corrupt
    ));
}

/// The flush contract through `open`'s repairs: a structural operation
/// folds first, so a removal cut short after logged updates leaves no frame
/// for recovery to meet, and finishing it matches the memory twin.
#[test]
fn structural_recovery_never_meets_a_frame() {
    use ebc_store::disk::RemoveCrash;
    let path = tmp("structural");
    let (mut st, _) = folded_store(&path, CodecKind::Wide);
    step(&mut st, 0);
    assert!(redo_len(&path) > 0, "the step logged a frame");
    st.remove_source_crashing(SOURCES[0], RemoveCrash::AfterId)
        .unwrap();
    drop(st);
    assert_eq!(redo_len(&path), 0);
    let mut st = DiskBdStore::open(&path).unwrap();
    assert_eq!(st.last_recovery(), Some(RecoveryAction::FinishedRemove));
    let mut mem = twin(1);
    mem.remove_source(SOURCES[0]).unwrap();
    assert_eq!(bits(&mut st), bits(&mut mem));
}

// ---- (f) the kernel over real update histories ----

/// A graph, `p` record stores partitioning its sources, and the kernel
/// state to stream updates through them the way a shard worker does.
struct Driver<S: BdStore> {
    g: Graph,
    stores: Vec<S>,
    scores: Scores,
    ws: Workspace,
    scratch: BrandesScratch,
}

impl<S: BdStore> Driver<S> {
    fn bootstrap(g: &Graph, mut stores: Vec<S>) -> Self {
        let mut scores = Scores::zeros_for(g);
        let mut scratch = BrandesScratch::new(g.n());
        let p = stores.len();
        for s in g.vertices() {
            let r = single_source_update_with(g, s, &mut scores, &mut scratch).unwrap();
            stores[s as usize % p]
                .add_source(s, r.d, r.sigma, r.delta)
                .unwrap();
        }
        Driver {
            g: g.clone(),
            stores,
            scores,
            ws: Workspace::new(g.n()),
            scratch,
        }
    }

    /// Apply `update` if the graph allows it, then flush every store.
    fn apply(&mut self, update: Update) {
        let Update { op, u, v } = update;
        let grows = op == EdgeOp::Add && u.max(v) as usize == self.g.n();
        let removed = match op {
            EdgeOp::Add if u == v || u.max(v) as usize > self.g.n() => return,
            EdgeOp::Add if !grows && self.g.has_edge(u, v) => return,
            EdgeOp::Add => {
                if grows {
                    self.g.add_vertex();
                    self.stores
                        .iter_mut()
                        .for_each(|st| st.grow_vertex().unwrap());
                }
                self.g.add_edge(u, v).unwrap();
                None
            }
            EdgeOp::Remove if !self.g.has_edge(u, v) => return,
            EdgeOp::Remove => Some(self.g.remove_edge(u, v).unwrap()),
        };
        self.scores.ensure_shape(self.g.n(), self.g.edge_slots());
        self.ws.grow(self.g.n());
        let (g, scores, ws) = (&self.g, &mut self.scores, &mut self.ws);
        let cfg = UpdateConfig::default();
        for st in &mut self.stores {
            st.update_batch(u, v, &mut |s, view| {
                update_source(g, s, op, u, v, view, scores, ws, &cfg)
            })
            .unwrap();
        }
        if grows {
            let hi = u.max(v);
            self.scratch = BrandesScratch::new(self.g.n());
            let r = single_source_update_with(&self.g, hi, &mut self.scores, &mut self.scratch)
                .unwrap();
            let p = self.stores.len();
            self.stores[hi as usize % p]
                .add_source(hi, r.d, r.sigma, r.delta)
                .unwrap();
        }
        if let Some(eid) = removed {
            self.scores.ebc[eid as usize] = 0.0;
        }
        self.stores.iter_mut().for_each(|st| st.flush().unwrap());
    }

    /// The partition-invariant exact scores, as bits.
    fn reduce_exact(&mut self) -> (Vec<u64>, Vec<u64>) {
        let g = &self.g;
        let scores = if let [only] = &mut self.stores[..] {
            exact_scores(g, only).unwrap()
        } else {
            let mut total = ExactSum::new(g.n(), g.edge_slots());
            for st in &mut self.stores {
                total.merge(&ExactSum::of_store(g, st).unwrap());
            }
            assert_eq!(total.sources, g.n() as u64, "the shards cover the sources");
            total.into_scores()
        };
        (
            scores.vbc.iter().map(|x| x.to_bits()).collect(),
            scores.ebc.iter().map(|x| x.to_bits()).collect(),
        )
    }
}

const RING: u32 = 20;

fn ring_with_chords(n: u32) -> Graph {
    let mut g = Graph::with_vertices(n as usize);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n).unwrap();
    }
    for i in (0..n).step_by(4) {
        let j = (i + n / 2) % n;
        if !g.has_edge(i, j) {
            g.add_edge(i, j).unwrap();
        }
    }
    g
}

/// Raw history entries `(kind, a, b)`: kinds 0–2 remove an edge, 3–5 add
/// one, 6 adds an edge to a new vertex.
fn history(raw: &[(u8, u32, u32)], n0: u32) -> Vec<Update> {
    let mut n = n0;
    raw.iter()
        .map(|&(kind, a, b)| match kind {
            0..=2 => Update::remove(a % n, b % n),
            3..=5 => Update::add(a % n, b % n),
            _ => {
                n += 1;
                Update::add(a % (n - 1), n - 1)
            }
        })
        .collect()
}

/// Data-file images as of each store's last sync: refreshed whenever a
/// store's log is empty, which after a flushed step means "folded, or
/// wrote nothing, since".
fn refresh_images(paths: &[PathBuf], images: &mut [Vec<u8>]) {
    for (path, image) in paths.iter().zip(images) {
        if redo_len(path) == 0 {
            *image = std::fs::read(path).unwrap();
        }
    }
}

/// Stream `updates` through `p` disk shards under `dir`, hand one source
/// over at `handoff_at`, lose power after `crash_at` updates, reopen, finish
/// the history, and return the exact scores next to an un-crashed memory
/// twin's.
fn crash_and_compare(dir: &Path, p: usize, updates: &[Update], crash_at: usize, handoff_at: usize) {
    let g = ring_with_chords(RING);
    let mut mem = Driver::bootstrap(&g, vec![MemoryBdStore::new(g.n())]);
    let paths: Vec<PathBuf> = (0..p).map(|k| shard_path(dir, k)).collect();
    let set = ShardSet::create(dir, g.n(), p, CodecKind::Wide).unwrap();
    let mut disk = Driver::bootstrap(&g, set.into_stores());
    disk.stores.iter_mut().for_each(|st| st.flush().unwrap());
    let mut images: Vec<Vec<u8>> = vec![Vec::new(); p];
    refresh_images(&paths, &mut images);

    for (i, &u) in updates.iter().enumerate() {
        if i == crash_at {
            // power loss: in-place pages since each store's last sync are
            // gone, the synced logs are not
            let Driver { g, scores, .. } = disk;
            for (path, image) in paths.iter().zip(&images) {
                std::fs::write(path, image).unwrap();
            }
            let set = ShardSet::open(dir).unwrap();
            disk = Driver {
                ws: Workspace::new(g.n()),
                scratch: BrandesScratch::new(g.n()),
                g,
                stores: set.into_stores(),
                scores,
            };
            refresh_images(&paths, &mut images);
        }
        if i == handoff_at && p > 1 {
            // move one source between shards through the journaled path
            let stores = std::mem::take(&mut disk.stores);
            drop(stores);
            let mut set = ShardSet::open(dir).unwrap();
            let s = set.assignment()[0][0];
            hand_over(&mut set, s, 0, 1);
            set.flush().unwrap();
            disk.stores = set.into_stores();
            refresh_images(&paths, &mut images);
        }
        mem.apply(u);
        disk.apply(u);
        refresh_images(&paths, &mut images);
    }
    assert_eq!(disk.g.n(), mem.g.n());
    assert_eq!(disk.reduce_exact(), mem.reduce_exact());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random add/remove/grow histories over one disk store and over a
    /// three-shard set with a handoff mid-history: losing every un-synced
    /// in-place page at a random point changes no bit of the exact scores.
    #[test]
    fn power_loss_mid_history_is_invisible(
        raw in proptest::collection::vec((0u8..7, 0u32..64, 0u32..64), 6..28),
        crash in 0usize..1000,
        handoff in 0usize..1000,
        case in any::<u64>(),
    ) {
        let updates = history(&raw, RING);
        for p in [1usize, 3] {
            let dir = tmp_dir(&format!("prop_{p}_{case}"));
            crash_and_compare(
                &dir,
                p,
                &updates,
                1 + crash % (updates.len() - 1),
                handoff % updates.len(),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
