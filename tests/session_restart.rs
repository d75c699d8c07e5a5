//! Durable-restart suite: a killed session reopened with `Session::open`
//! must (a) run **zero** Brandes bootstrap iterations and (b) produce
//! exact scores bitwise identical to a surviving oracle that applied the
//! same updates — across disk sessions on one machine and sharded over
//! p ∈ {3, 8}, with kills injected between `apply_stream` batches and
//! inside the engine's handoff executor.

use streaming_bc::core::bd::{BatchSourceFn, BdResult, BdStore, ReadFn};
use streaming_bc::core::{BetweennessState, Scores, Update};
use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::graph::Graph;
use streaming_bc::graph::VertexId;
use streaming_bc::graph::{seal, unseal};
use streaming_bc::store::disk::ExportCrash;
use streaming_bc::store::ExportedRecord;
use streaming_bc::{Backend, Checkpoint, ErrorKind, Session};

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sbc_session_restart")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A graph plus two update batches; the first batch grows the vertex set so
/// restart must also recover adopted sources.
fn scenario() -> (Graph, Vec<Update>, Vec<Update>) {
    let g = holme_kim(40, 3, 0.4, 9);
    let mut batch1: Vec<Update> = addition_stream(&g, 5, 1)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    batch1.push(Update::add(7, 40)); // vertex 40 arrives
    batch1.push(Update::add(40, 41)); // and 41
    let batch2: Vec<Update> = removal_stream(&g, 5, 2)
        .into_iter()
        .map(|(u, v)| Update::remove(u, v))
        .chain([Update::add(2, 42)]) // growth after the restart too
        .collect();
    (g, batch1, batch2)
}

/// The surviving single-state oracle: never killed, same update history.
fn oracle(g: &Graph, batches: &[&[Update]]) -> Scores {
    let mut single = BetweennessState::new(g);
    for batch in batches {
        for &u in *batch {
            single.apply(u).unwrap();
        }
    }
    single.exact_scores().unwrap()
}

fn check_restart(backend: Backend, dir: &std::path::Path, p: usize, ctx: &str) {
    let (g, batch1, batch2) = scenario();
    let pre_kill_oracle = oracle(&g, &[&batch1]);
    let full_oracle = oracle(&g, &[&batch1, &batch2]);

    // ── run until the kill point ─────────────────────────────────────────
    let mut session = Session::builder()
        .backend(backend)
        .workers(p)
        .build(&g)
        .unwrap();
    assert_eq!(
        session.brandes_runs(),
        Some(g.n() as u64),
        "{ctx}: bootstrap ran one Brandes iteration per source"
    );
    session.apply_stream(&batch1).unwrap();
    let pre_kill = session.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&pre_kill),
        bits(&pre_kill_oracle),
        "{ctx}: pre-kill scores already diverged"
    );
    // kill between apply_stream batches: the process dies, nothing is
    // shut down in an orderly way beyond what EveryApply already made
    // durable
    drop(session);

    // ── re-bootstrap-free reopen ─────────────────────────────────────────
    let mut resumed = Session::open(dir).unwrap();
    assert_eq!(resumed.workers(), p, "{ctx}: worker count not restored");
    assert_eq!(
        resumed.brandes_runs(),
        Some(0),
        "{ctx}: resume ran a Brandes bootstrap"
    );
    assert_eq!(resumed.graph().n(), g.n() + 2, "{ctx}: graph not restored");
    let recovered = resumed.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&recovered),
        bits(&pre_kill_oracle),
        "{ctx}: recovered scores not bitwise equal to the surviving oracle"
    );
    // stronger still: a fresh Brandes bootstrap of the recovered graph
    // yields the same bits (the kernel's record updates are bitwise
    // faithful to recomputation, and the structural snapshot preserved the
    // adjacency order the summation depends on)
    let fresh = BetweennessState::new(resumed.graph())
        .exact_scores()
        .unwrap();
    assert_eq!(
        bits(&recovered),
        bits(&fresh),
        "{ctx}: recovered scores not bitwise equal to a fresh bootstrap"
    );

    // ── the restart is a true continuation ───────────────────────────────
    resumed.apply_stream(&batch2).unwrap();
    let continued = resumed.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&continued),
        bits(&full_oracle),
        "{ctx}: post-restart stream diverged from the surviving oracle"
    );
    resumed.verify(1e-6).unwrap();
}

#[test]
fn disk_session_restarts_bitwise_equal() {
    let dir = tmpdir("disk");
    check_restart(Backend::Disk(dir.clone()), &dir, 1, "disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_sessions_restart_bitwise_equal() {
    for p in [3usize, 8] {
        let dir = tmpdir(&format!("sharded_{p}"));
        check_restart(
            Backend::Disk(dir.clone()),
            &dir,
            p,
            &format!("sharded p={p}"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Killing after each single `apply` (not just batch boundaries): under
/// `Checkpoint::EveryApply` every apply is a durable cut point.
#[test]
fn kill_after_every_single_apply() {
    let (g, batch1, _) = scenario();
    let dir = tmpdir("every_apply");
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .build(&g)
            .unwrap();
        session.apply(batch1[0]).unwrap();
        drop(session); // kill #1
    }
    let mut single = BetweennessState::new(&g);
    single.apply(batch1[0]).unwrap();
    for &u in &batch1[1..4] {
        let mut session = Session::open(&dir).unwrap();
        session.apply(u).unwrap();
        single.apply(u).unwrap();
        let a = session.reduce_exact().unwrap().scores;
        let b = single.exact_scores().unwrap();
        assert_eq!(bits(&a), bits(&b), "diverged after kill+apply of {u:?}");
        drop(session); // kill again
    }
}

/// Manual checkpointing: the recovery cut is the last checkpoint. A clean
/// kill right after `checkpoint()` reopens bitwise-equal; a kill with an
/// un-checkpointed *growth* tail leaves the (synchronously written)
/// records owning more sources than the manifest's graph — which
/// `Session::open` must detect and refuse rather than resume garbage.
#[test]
fn manual_checkpoint_defines_the_recovery_cut() {
    let (g, batch1, _) = scenario();
    let dir = tmpdir("manual");
    let (upto_ckpt, after_ckpt) = batch1.split_at(3);
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .checkpoint(Checkpoint::Manual)
            .build(&g)
            .unwrap();
        session.apply_stream(upto_ckpt).unwrap();
        session.checkpoint().unwrap();
        drop(session); // kill right at the checkpoint: clean cut
    }
    {
        let mut resumed = Session::open(&dir).unwrap();
        let a = resumed.reduce_exact().unwrap().scores;
        let b = oracle(&g, &[upto_ckpt]);
        assert_eq!(bits(&a), bits(&b), "checkpointed cut diverged");
        // keep Manual mode, stream the growth tail, and die un-checkpointed
        resumed.set_checkpoint(Checkpoint::Manual);
        resumed.apply_stream(after_ckpt).unwrap();
        drop(resumed);
    }
    // the tail grew the vertex set, so the records now own more sources
    // than the checkpointed manifest's graph: open must report the skew
    // (records ahead of the manifest), not silently replay
    let err = Session::open(&dir).unwrap_err();
    match err.kind() {
        ErrorKind::RecordsAhead {
            manifest_sources,
            record_sources,
            ..
        } => {
            assert_eq!(manifest_sources, g.n(), "manifest is the checkpoint cut");
            assert!(
                record_sources > manifest_sources,
                "the un-checkpointed tail grew the record set \
                 ({record_sources} vs {manifest_sources})"
            );
        }
        other => panic!("stale manifest with grown records must be detected, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The Disk backend is a one-shard `ShardSet`, so an un-checkpointed growth
/// tail gets the same typed census as a sharded session.
#[test]
fn manual_disk_growth_tail_reports_records_ahead() {
    let (g, batch1, _) = scenario();
    let dir = tmpdir("manual_disk");
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .checkpoint(Checkpoint::Manual)
            .build(&g)
            .unwrap();
        session.apply_stream(&batch1).unwrap(); // grows to n + 2, never checkpointed
    }
    match Session::open(&dir).unwrap_err().kind() {
        ErrorKind::RecordsAhead {
            manifest_sources,
            record_sources,
            ..
        } => assert_eq!((manifest_sources, record_sources), (g.n(), g.n() + 2)),
        other => panic!("expected the records-ahead census, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An un-checkpointed tail that grows nothing leaves the source census
/// equal, but the history runs past the manifest's seq while the records
/// already hold the tail: `Session::open` must refuse it with the same
/// census, never resume the checkpoint's graph against newer records.
#[test]
fn manual_history_past_manifest_reports_records_ahead() {
    let g = holme_kim(40, 3, 0.4, 9);
    let adds: Vec<Update> = addition_stream(&g, 6, 3)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    let (upto_ckpt, tail) = adds.split_at(3);
    for p in [1usize, 3] {
        let dir = tmpdir(&format!("manual_history_ahead_{p}"));
        {
            let mut session = Session::builder()
                .backend(Backend::Disk(dir.clone()))
                .workers(p)
                .checkpoint(Checkpoint::Manual)
                .build(&g)
                .unwrap();
            session.apply_stream(upto_ckpt).unwrap();
            session.checkpoint().unwrap();
            for &u in tail {
                session.apply(u).unwrap();
            }
            assert_eq!(session.seq(), 6, "p={p}");
        }
        let err = Session::open(&dir).unwrap_err();
        match err.kind() {
            ErrorKind::RecordsAhead {
                manifest_sources,
                record_sources,
                ..
            } => assert_eq!((manifest_sources, record_sources), (g.n(), g.n()), "p={p}"),
            other => panic!("p={p}: expected the records-ahead census, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("seq 6") && msg.contains("seq 3"),
            "p={p}: the refusal names both seqs: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Where [`Killing`] cuts a handoff short: each is one store call of the
/// engine's move executor, failed as a kill would leave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillWindow {
    /// The donor's `export_source`, after its export journal is durable.
    ExportJournal,
    /// The recipient's `add_source`: the donor has exported, nobody owns
    /// the source.
    Import,
    /// The donor's `retire_export`: the recipient owns the source, the
    /// journal is still there.
    Retire,
}

/// A disk store that dies at one handoff call (`kill`, when set), leaving
/// its files as the kill would; every other call forwards.
struct Killing {
    inner: streaming_bc::store::DiskBdStore,
    kill: Option<KillWindow>,
}

impl Killing {
    fn killed(&self, window: KillWindow) -> Result<(), streaming_bc::Error> {
        match self.kill == Some(window) {
            true => Err(streaming_bc::Error::lost(format!("killed at {window:?}"))),
            false => Ok(()),
        }
    }
}

impl BdStore for Killing {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn sources(&self) -> Vec<VertexId> {
        self.inner.sources()
    }
    fn num_sources(&self) -> usize {
        self.inner.num_sources()
    }
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
        self.inner.read(s, f)
    }
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64> {
        self.inner.update_batch(u, v, f)
    }
    fn grow_vertex(&mut self) -> BdResult<()> {
        self.inner.grow_vertex()
    }
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        self.killed(KillWindow::Import)?;
        self.inner.add_source(s, d, sigma, delta)
    }
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        self.inner.remove_source(s)
    }
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        if self.kill == Some(KillWindow::ExportJournal) {
            self.inner
                .export_source_crashing(s, tag, ExportCrash::AfterJournal)?;
            self.killed(KillWindow::ExportJournal)?;
        }
        self.inner.export_source(s, tag)
    }
    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        self.killed(KillWindow::Retire)?;
        self.inner.retire_export(s)
    }
    fn flush(&mut self) -> BdResult<()> {
        self.inner.flush()
    }
}

/// The kill windows, each with the map-version bump recovery commits for
/// it: a journal-only export never moved the source, the other two roll
/// forward to the recipient.
const KILL_WINDOWS: [(KillWindow, u64); 3] = [
    (KillWindow::ExportJournal, 0),
    (KillWindow::Import, 1),
    (KillWindow::Retire, 1),
];

/// A disk directory at p shards whose last handoff died in `window`.
struct KilledHandoff {
    dir: std::path::PathBuf,
    graph: Graph,
    /// The map version in the session manifest: one live handoff committed.
    base: u64,
    /// The exact scores of a session that was never killed.
    oracle: Scores,
}

/// Builds a Disk session at p shards, applies a batch and makes one live
/// handoff (committing map version `base`); then an engine over the
/// directory's stores runs a second handoff into a kill at `window` and
/// is dropped, as its process would be. `test` keeps the directories of
/// concurrent tests apart.
fn kill_mid_handoff(test: &str, p: usize, window: KillWindow) -> KilledHandoff {
    use streaming_bc::core::shard::ShardState;
    use streaming_bc::engine::ClusterEngine;
    use streaming_bc::store::ShardSet;

    let ctx = format!("p={p} {window:?}");
    let (g, batch1, _) = scenario();
    let dir = tmpdir(&format!("{test}_{p}_{window:?}"));
    let (graph, base) = {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(p)
            .build(&g)
            .unwrap();
        session.apply_stream(&batch1).unwrap();
        let map = session.shard_map().unwrap();
        session.handoff(map.assignment[0][0], 1).unwrap();
        let base = session.shard_map_version().unwrap();
        assert_eq!(base, map.version + 1, "{ctx}");
        (session.graph().clone(), base)
    };
    let (from, to) = (0, p - 1);
    let stores = ShardSet::open(&dir).unwrap().into_stores();
    let stores = (0..).zip(stores).map(|(k, inner)| {
        let kill = match window {
            KillWindow::Import => (k == to).then_some(window),
            _ => (k == from).then_some(window),
        };
        Killing { inner, kill }
    });
    let mut engine =
        ClusterEngine::<ShardState<Killing>>::resume(&graph, stores.collect(), base).unwrap();
    let victim = engine.shard_map().sources_of(from)[0];
    let err = engine.handoff(victim, to).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Lost, "{ctx}: {err}");
    assert!(err.to_string().contains("killed at"), "{ctx}: {err}");
    KilledHandoff {
        dir,
        graph,
        base,
        oracle: oracle(&g, &[&batch1]),
    }
}

/// A kill inside the engine's move executor — at each of its three store
/// calls — reopens to exactly-once ownership and resumes bitwise equal,
/// re-bootstrap free, on every open: the shard recovery and the resume
/// path compose.
#[test]
fn mid_handoff_kill_then_session_open() {
    for p in [2usize, 3] {
        for (window, _) in KILL_WINDOWS {
            let killed = kill_mid_handoff("handoff_kill", p, window);
            for open in ["first", "second"] {
                let ctx = format!("p={p} {window:?}, {open} open");
                let mut resumed = Session::open(&killed.dir).unwrap();
                assert_eq!(resumed.brandes_runs(), Some(0), "{ctx}");
                let mut owned: Vec<u32> = resumed.shard_map().unwrap().assignment.concat();
                owned.sort_unstable();
                let all: Vec<u32> = (0..killed.graph.n() as u32).collect();
                assert_eq!(owned, all, "{ctx}");
                let recovered = resumed.reduce_exact().unwrap().scores;
                assert_eq!(bits(&recovered), bits(&killed.oracle), "{ctx}");
            }
            std::fs::remove_dir_all(&killed.dir).ok();
        }
    }
}

/// A handoff that recovery completes keeps its map-version bump: a live
/// handoff commits its version to the session manifest, the killed one
/// adds its own commit once recovery rolls it forward (none when only its
/// export journal was written), and the first open records that, so the
/// second open — which finds no journal left — agrees.
#[test]
fn rolled_forward_handoff_keeps_its_version_bump() {
    for p in [2usize, 3] {
        for (window, bump) in KILL_WINDOWS {
            let killed = kill_mid_handoff("handoff_version", p, window);
            for open in ["first", "second"] {
                let ctx = format!("p={p} {window:?}, {open} open");
                let mut resumed = Session::open(&killed.dir).unwrap();
                let version = resumed.shard_map().unwrap().version;
                assert_eq!(version, killed.base + bump, "{ctx}");
                let recovered = resumed.reduce_exact().unwrap().scores;
                assert_eq!(bits(&recovered), bits(&killed.oracle), "{ctx}");
            }
            std::fs::remove_dir_all(&killed.dir).ok();
        }
    }
}

/// Foreign manifests are rejected: a session manifest from directory A
/// combined with directory B's shard files must not silently resume.
#[test]
fn mixed_session_directories_rejected() {
    let (g, batch1, _) = scenario();
    let g2 = holme_kim(40, 3, 0.4, 123); // same size, different session
    let dir_a = tmpdir("mix_a");
    let dir_b = tmpdir("mix_b");
    for (dir, graph) in [(&dir_a, &g), (&dir_b, &g2)] {
        let mut s = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(2)
            .build(graph)
            .unwrap();
        s.apply_stream(&batch1[..2]).unwrap();
        drop(s);
    }
    // graft A's manifest onto B's stores
    std::fs::copy(
        dir_a.join("session.manifest"),
        dir_b.join("session.manifest"),
    )
    .unwrap();
    let err = Session::open(&dir_b).unwrap_err();
    assert!(
        err.kind() == ErrorKind::Corrupt,
        "mixed directories must be rejected, got {err:?}"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// A directory written under a retired manifest magic opens as `Corrupt`:
/// the `EBCSESS3` session manifest (with its `prune=`/`preds=` lines) and
/// the `EBCSESS4` one (text header lines beside a `shards.manifest`).
#[test]
fn retired_manifests_open_as_corrupt() {
    let (g, _, _) = scenario();
    let dir = tmpdir("retired_manifests");
    drop(
        Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(2)
            .build(&g)
            .unwrap(),
    );
    let path = dir.join("session.manifest");
    let current = std::fs::read(&path).unwrap();
    for old in [b"EBCSESS3", b"EBCSESS4"] {
        std::fs::write(&path, seal(old, unseal(b"EBCSESS5", &current).unwrap())).unwrap();
        let err = Session::open(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{old:?}: {err}");
    }
    std::fs::write(&path, current).unwrap();
    Session::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The shard count is the run of consecutive `shard-<k>.ebc` files: with
/// any one of a 3-worker directory's files gone it is `Corrupt`, never a
/// smaller session.
#[test]
fn a_missing_shard_file_is_corrupt() {
    let (g, _, _) = scenario();
    let dir = tmpdir("missing_shard");
    drop(
        Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .build(&g)
            .unwrap(),
    );
    for k in 0..3 {
        let path = dir.join(format!("shard-{k}.ebc"));
        let kept = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let err = Session::open(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "shard-{k}.ebc gone: {err}");
        std::fs::write(&path, kept).unwrap();
    }
    Session::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A sound seal over a worker count of 0 or 2⁴⁰ is `Corrupt`: the count is
/// only compared with the shard files, never used to size anything.
#[test]
fn manifest_worker_count_out_of_range_is_corrupt() {
    let (g, _, _) = scenario();
    let dir = tmpdir("manifest_workers");
    drop(
        Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(2)
            .build(&g)
            .unwrap(),
    );
    let path = dir.join("session.manifest");
    let current = std::fs::read(&path).unwrap();
    for workers in [0u64, 1 << 40] {
        let mut payload = unseal(b"EBCSESS5", &current).unwrap().to_vec();
        payload[..8].copy_from_slice(&workers.to_le_bytes());
        std::fs::write(&path, seal(b"EBCSESS5", &payload)).unwrap();
        let err = Session::open(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "workers={workers}: {err}");
    }
    std::fs::write(&path, current).unwrap();
    Session::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Memory sessions are not durable and say so.
#[test]
fn memory_sessions_have_no_directory() {
    let (g, _, _) = scenario();
    let session = Session::builder()
        .backend(Backend::Memory)
        .workers(2)
        .build(&g)
        .unwrap();
    assert!(session.dir().is_none());
}

/// A mid-batch validation error must not skip the checkpoint: the applied
/// prefix (including growth) is durable, and a kill right after the failed
/// call reopens to exactly the prefix state.
#[test]
fn failed_stream_still_checkpoints_the_applied_prefix() {
    let (g, _, _) = scenario();
    let dir = tmpdir("err_ckpt");
    let grows_then_fails = [
        Update::add(0, 40),  // vertex 40 arrives (applied)
        Update::add(40, 5),  // applied
        Update::add(0, 40),  // duplicate edge: validation error here
        Update::add(40, 41), // never dispatched
    ];
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .build(&g)
            .unwrap();
        let err = session.apply_stream(&grows_then_fails).unwrap_err();
        assert!(
            err.kind() == ErrorKind::Invalid,
            "expected the validation error, got {err:?}"
        );
        drop(session); // kill right after the failed call
    }
    let mut resumed = Session::open(&dir).unwrap();
    assert_eq!(resumed.graph().n(), g.n() + 1, "prefix growth not covered");
    let recovered = resumed.reduce_exact().unwrap().scores;
    let prefix_oracle = oracle(&g, &[&grows_then_fails[..2]]);
    assert_eq!(
        bits(&recovered),
        bits(&prefix_oracle),
        "recovered state is not the applied prefix"
    );
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// The disk backend rejects grafted manifests too (the sharded analogue is
/// `mixed_session_directories_rejected`): its one-shard manifest carries the
/// session stamp that binds the store directory to its own manifest.
#[test]
fn mixed_disk_directories_rejected() {
    let (g, batch1, _) = scenario();
    let g2 = holme_kim(40, 3, 0.4, 321); // same n, different session
    let dir_a = tmpdir("dmix_a");
    let dir_b = tmpdir("dmix_b");
    for (dir, graph) in [(&dir_a, &g), (&dir_b, &g2)] {
        let mut s = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .build(graph)
            .unwrap();
        s.apply_stream(&batch1[..2]).unwrap();
        drop(s);
    }
    std::fs::copy(
        dir_a.join("session.manifest"),
        dir_b.join("session.manifest"),
    )
    .unwrap();
    let err = Session::open(&dir_b).unwrap_err();
    assert!(
        err.kind() == ErrorKind::Corrupt,
        "grafted disk manifest must be rejected, got {err:?}"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Every session directory has a `history.meta`: one without it is
/// corrupt, not a history-less session to resume silently.
#[test]
fn missing_history_meta_is_corrupt() {
    let (g, batch1, _) = scenario();
    for (name, backend, p) in [
        ("nohist_disk", Backend::Disk as fn(_) -> _, 1),
        ("nohist_sharded", Backend::Disk as fn(_) -> _, 3),
    ] {
        let dir = tmpdir(name);
        let mut s = Session::builder()
            .backend(backend(dir.clone()))
            .workers(p)
            .build(&g)
            .unwrap();
        s.apply_stream(&batch1[..2]).unwrap();
        drop(s);
        std::fs::remove_file(dir.join("history.meta")).unwrap();
        for err in [
            Session::open(&dir).unwrap_err(),
            Session::replay_dir(&dir, None).unwrap_err(),
        ] {
            assert!(
                err.kind() == ErrorKind::Corrupt,
                "{name}: expected Corrupt, got {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
