//! Coordinator durability: kill the control plane, restart it from its
//! `--dir`, and keep commanding the running node fleet — with the map
//! version, failover count, node registry, and `next_index` cursors all
//! surviving the restart, and the final `reduce_exact` bitwise equal to a
//! serial replay of the full update stream. A sequence number the journal
//! cannot reserve, and a journal record the re-fold contradicts, are typed
//! errors.

mod common;

use common::{tmpdir, to_bits};
use ebc_cluster::journal::{CoordJournal, JournalEntry, JournalRecord};
use ebc_cluster::{
    CoordinatorConfig, KillSpec, KillWindow, NodeConfig, NodeId, SimBuilder, SimCluster,
};
use std::time::Duration;
use streaming_bc::core::BetweennessState;
use streaming_bc::graph::Graph;
use streaming_bc::{ErrorKind, Update};

fn ring(n: u32) -> Graph {
    let mut g = Graph::with_vertices(n as usize);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n).unwrap();
    }
    g
}

/// Additions, a removal, and two growth updates (the second touches the
/// adopted vertex again, so the adoption must survive the restart too).
fn update_stream(n: u32) -> Vec<Update> {
    vec![
        Update::add(0, 4),
        Update::add(2, 7),
        Update::remove(0, 1),
        Update::add(n, 3),
        Update::add(n, 8),
        Update::add(1, 6),
    ]
}

fn oracle_bits(g: &Graph, stream: &[Update]) -> (Vec<u64>, Vec<u64>) {
    let mut st = BetweennessState::new(g);
    for &u in stream {
        st.apply(u).unwrap();
    }
    let s = st.exact_scores().unwrap();
    (to_bits(&s.vbc), to_bits(&s.ebc))
}

fn cluster_bits(sim: &mut SimCluster, ctx: &str) -> (Vec<u64>, Vec<u64>) {
    let s = sim
        .coord
        .reduce_exact()
        .unwrap_or_else(|e| panic!("{ctx}: reduce_exact failed: {e}"));
    (to_bits(&s.vbc), to_bits(&s.ebc))
}

fn fast_cfgs() -> (NodeConfig, CoordinatorConfig) {
    let node = NodeConfig {
        rep_attempts: 3,
        rep_timeout: Duration::from_millis(40),
    };
    let coord = CoordinatorConfig {
        rpc_timeout: Duration::from_millis(80),
        rpc_attempts: 4,
        ..CoordinatorConfig::default()
    };
    (node, coord)
}

/// The plain restart: apply half the stream, crash the coordinator, resume
/// it from `--dir`, apply the rest — bitwise vs the serial oracle, across
/// shard counts.
#[test]
fn coordinator_restart_is_bitwise() {
    let g = ring(12);
    let stream = update_stream(12);
    let want = oracle_bits(&g, &stream);

    for p in [1usize, 3, 8] {
        let ctx = format!("p={p}");
        let dir = tmpdir(&format!("coord_resume_p{p}"));
        let (node_cfg, coord_cfg) = fast_cfgs();
        let mut sim = SimBuilder::new(p)
            .node_cfg(node_cfg)
            .coord_cfg(coord_cfg.clone())
            .persist_to(&dir)
            .launch(&g)
            .unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));
        let (first, rest) = stream.split_at(stream.len() / 2);
        for &u in first {
            sim.coord.apply(u).unwrap();
        }
        let version_before = sim.coord.version();
        assert!(CoordJournal::exists(&dir), "{ctx}: no snapshot in --dir");

        let mut sim = sim
            .crash_coord()
            .resume_coord(coord_cfg, &dir)
            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
        assert!(
            sim.coord.version() >= version_before,
            "{ctx}: map version went backwards across the restart"
        );
        assert_eq!(sim.coord.num_shards(), p, "{ctx}");
        for &u in rest {
            sim.coord.apply(u).unwrap();
        }
        assert_eq!(want, cluster_bits(&mut sim, &ctx), "{ctx}: bits changed");
        sim.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A failover before the crash: the bumped map version, the failover
/// count, and the rewritten group must all come back from the snapshot —
/// a resumed coordinator at a stale version would be fenced by its own
/// fleet.
#[test]
fn resume_preserves_failover_and_fencing_version() {
    let g = ring(10);
    let stream = update_stream(10);
    let want = oracle_bits(&g, &stream);
    let dir = tmpdir("coord_resume_failover");
    let (node_cfg, coord_cfg) = fast_cfgs();

    let mut sim = SimBuilder::new(2)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg.clone())
        .persist_to(&dir)
        .kill(
            NodeId(2),
            KillSpec {
                window: KillWindow::MidApply,
                at_index: 2,
            },
        )
        .launch(&g)
        .unwrap();
    let (first, rest) = stream.split_at(3);
    for &u in first {
        sim.coord.apply(u).unwrap();
    }
    assert_eq!(sim.coord.failovers(), 1, "leader kill did not fail over");
    let version_before = sim.coord.version();
    let leader_before = sim.coord.groups()[1].leader;

    let mut sim = sim.crash_coord().resume_coord(coord_cfg, &dir).unwrap();
    assert_eq!(sim.coord.failovers(), 1, "failover count lost");
    assert_eq!(sim.coord.version(), version_before, "fencing version lost");
    assert_eq!(
        sim.coord.groups()[1].leader,
        leader_before,
        "promoted leader lost"
    );
    for &u in rest {
        sim.coord.apply(u).unwrap();
    }
    assert_eq!(want, cluster_bits(&mut sim, "failover+resume"));
    sim.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write-ahead window: an update journaled but never dispatched (the
/// coordinator died between the journal append and the fan-out). Resume
/// must re-drive it from the journal — the fleet sees it exactly once and
/// the oracle stream includes it.
#[test]
fn resume_redrives_journaled_undispatched_update() {
    let g = ring(12);
    let stream = update_stream(12);
    let p = 3usize;
    let dir = tmpdir("coord_resume_inflight");
    let (node_cfg, coord_cfg) = fast_cfgs();

    let mut sim = SimBuilder::new(p)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg.clone())
        .persist_to(&dir)
        .launch(&g)
        .unwrap();
    let (applied, tail) = stream.split_at(stream.len() - 1);
    for &u in applied {
        sim.coord.apply(u).unwrap();
    }
    let headless = sim.crash_coord();

    // forge the crash window: journal the final update exactly as the
    // dead coordinator would have (write-ahead, dispatch indices = one
    // Init entry + every applied update) without dispatching it anywhere
    {
        let (mut journal, ..) = CoordJournal::open(&dir).expect("reopen journal");
        journal
            .append(&JournalRecord {
                entry: JournalEntry {
                    update: tail[0],
                    adopter: None,
                },
                indices: vec![1 + applied.len() as u64; p],
            })
            .expect("forge write-ahead record");
    }

    let mut sim = headless.resume_coord(coord_cfg, &dir).unwrap();
    // no further applies: resume alone must have completed the update
    let want = oracle_bits(&g, &stream);
    assert_eq!(
        want,
        cluster_bits(&mut sim, "re-driven tail"),
        "journaled-but-undispatched update was not re-driven"
    );
    sim.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming twice in a row (crash loop) stays exactly-once: the second
/// resume re-drives the same newest record, which every node answers from
/// its dedup window.
#[test]
fn double_resume_is_exactly_once() {
    let g = ring(10);
    let stream = update_stream(10);
    let want = oracle_bits(&g, &stream);
    let dir = tmpdir("coord_resume_twice");
    let (node_cfg, coord_cfg) = fast_cfgs();

    let mut sim = SimBuilder::new(3)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg.clone())
        .persist_to(&dir)
        .launch(&g)
        .unwrap();
    for &u in &stream {
        sim.coord.apply(u).unwrap();
    }
    let mut sim = sim
        .crash_coord()
        .resume_coord(coord_cfg.clone(), &dir)
        .unwrap();
    assert_eq!(want, cluster_bits(&mut sim, "first resume"));
    let mut sim = sim.crash_coord().resume_coord(coord_cfg, &dir).unwrap();
    assert_eq!(want, cluster_bits(&mut sim, "second resume"));
    sim.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sequence number the journal cannot reserve is never sent (a resumed
/// coordinator would restart below it): with `coord.seq` unwritable, the
/// launch fails `Io`.
#[test]
fn an_unreservable_sequence_number_is_io() {
    let dir = tmpdir("coord_resume_seq");
    std::fs::create_dir_all(dir.join("coord.seq")).unwrap();
    let Err(err) = SimBuilder::new(2).persist_to(&dir).launch(&ring(8)) else {
        panic!("launched without reserving its sequence numbers");
    };
    assert_eq!(err.kind(), ErrorKind::Io, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled record whose adopter the re-fold does not derive is
/// `Corrupt`, naming the record, instead of a resumed map that differs
/// from the fleet's.
#[test]
fn resume_refuses_a_record_the_refold_contradicts() {
    let g = ring(12);
    let stream = update_stream(12);
    let p = 3usize;
    let dir = tmpdir("coord_resume_adopter");
    let (node_cfg, coord_cfg) = fast_cfgs();
    let mut sim = SimBuilder::new(p)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg.clone())
        .persist_to(&dir)
        .launch(&g)
        .unwrap();
    let (applied, tail) = stream.split_at(stream.len() - 1);
    for &u in applied {
        sim.coord.apply(u).unwrap();
    }
    let headless = sim.crash_coord();
    // the final update brings no vertex, yet is journaled as adopted
    {
        let (mut journal, ..) = CoordJournal::open(&dir).expect("reopen journal");
        journal
            .append(&JournalRecord {
                entry: JournalEntry {
                    update: tail[0],
                    adopter: Some(1),
                },
                indices: vec![1 + applied.len() as u64; p],
            })
            .expect("forge the record");
    }
    let Err(err) = headless.resume_coord(coord_cfg, &dir) else {
        panic!("resumed over a contradicted journal record");
    };
    assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
    let record = format!("journal record {}", applied.len());
    assert!(err.context().contains(&record), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
