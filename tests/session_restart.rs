//! Durable-restart suite: a killed session reopened with `Session::open`
//! must (a) run **zero** Brandes bootstrap iterations and (b) produce
//! exact scores bitwise identical to a surviving oracle that applied the
//! same updates — across disk sessions on one machine and sharded over
//! p ∈ {3, 8}, with kills injected between `apply_stream` batches and
//! mid-handoff at the store layer.

use streaming_bc::core::{BetweennessState, Scores, Update};
use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::graph::Graph;
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

/// A kill torn *inside* the store layer (mid-handoff, at a journaled kill
/// point) still reopens to exactly-once ownership, and the session resumes
/// bitwise-equal: the shard recovery and the resume path compose.
#[test]
fn mid_handoff_kill_then_session_open() {
    use streaming_bc::store::{BdStore as _, ShardSet};

    let (g, batch1, _) = scenario();
    let dir = tmpdir("handoff_kill");
    let oracle_scores = oracle(&g, &[&batch1]);
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .build(&g)
            .unwrap();
        session.apply_stream(&batch1).unwrap();
        drop(session);
    }
    // reopen the directory at the store layer and die mid-handoff
    {
        let mut set = ShardSet::open(&dir).unwrap();
        let donor_sources = set.shard(0).sources();
        let victim = donor_sources[0];
        set.handoff_crashing(
            victim,
            0,
            1,
            streaming_bc::store::shard::HandoffKill::AfterExport,
        )
        .unwrap();
        drop(set); // the "process" dies with the handoff half-done
    }
    // Session::open must compose shard recovery (roll the handoff forward)
    // with the re-bootstrap-free resume
    let mut resumed = Session::open(&dir).unwrap();
    assert_eq!(resumed.brandes_runs(), Some(0));
    let recovered = resumed.reduce_exact().unwrap().scores;
    assert_eq!(
        bits(&recovered),
        bits(&oracle_scores),
        "mid-handoff kill changed the recovered scores"
    );
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// A handoff that recovery completes keeps its map-version bump: a live
/// handoff commits map version 1 (into the session manifest, at its
/// checkpoint), a second handoff dies mid-protocol at the store layer, and
/// the reopened session counts both moves — on every later open too.
#[test]
fn rolled_forward_handoff_keeps_its_version_bump() {
    use streaming_bc::store::shard::HandoffKill;
    use streaming_bc::store::{BdStore as _, ShardSet};

    let (g, _, _) = scenario();
    let dir = tmpdir("handoff_version");
    {
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .build(&g)
            .unwrap();
        let source = session.shard_map().unwrap().assignment[0][0];
        session.handoff(source, 1).unwrap();
        assert_eq!(session.shard_map().unwrap().version, 1);
    }
    {
        let mut set = ShardSet::open(&dir).unwrap();
        let victim = set.shard(0).sources()[0];
        set.handoff_crashing(victim, 0, 2, HandoffKill::AfterExport)
            .unwrap();
    }
    // the second open finds no journal to roll forward: the first open
    // must already have recorded the bump, even though nothing checkpointed
    for open in ["first", "second"] {
        let mut resumed = Session::open(&dir).unwrap();
        assert_eq!(resumed.shard_map().unwrap().version, 2, "{open} open");
        let recovered = resumed.reduce_exact().unwrap().scores;
        assert_eq!(bits(&recovered), bits(&oracle(&g, &[])), "{open} open");
    }
    std::fs::remove_dir_all(&dir).ok();
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
