//! Network partitions and seeded chaos: the coordinator must fence a
//! leader it lost behind a partition (the map version it missed makes its
//! lease unrecoverable — no split brain, no double-apply after the heal),
//! and the whole protocol must converge **bitwise** under deterministic
//! seed-driven drop/duplicate/delay injection. Every chaos assertion
//! prints its seed so a failure replays exactly.

mod common;

use common::to_bits;
use ebc_cluster::wire::ReplyBody;
use ebc_cluster::{
    CoordinatorConfig, FaultSpec, NodeConfig, NodeId, Role, SimBuilder, SimCluster, COORD,
};
use std::time::Duration;
use streaming_bc::core::BetweennessState;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::Update;

fn base_graph() -> Graph {
    holme_kim(16, 2, 0.3, 5)
}

fn update_stream(g: &Graph) -> Vec<Update> {
    let mut s = common::non_edge_adds(g, 5);
    let (u, v) = g.edges().next().expect("graph has an edge").0.endpoints();
    s.push(Update::remove(u, v));
    let n = g.n() as u32;
    s.push(Update::add(n, 3));
    s.push(Update::add(n, 7));
    s
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

fn node_status(sim: &mut SimCluster, node: NodeId, ctx: &str) -> (Role, u64, u64, u64) {
    match sim.coord.node_status(node) {
        Ok(ReplyBody::Status {
            role,
            version,
            wal_len,
            fenced,
            ..
        }) => (role, version, wal_len, fenced),
        other => panic!("{ctx}: status of {node:?} came back {other:?}"),
    }
}

/// A partition isolates shard 0's leader from the coordinator (the nodes
/// still see each other). Its lease expires, the follower is promoted at a
/// bumped map version, and traffic continues. After the heal the deposed
/// leader is explicitly fenced: it drops to `Idle`, its next-version
/// demotion registers in its fence counter, the promoted leader's WAL
/// holds every update exactly once, and the scores are bitwise equal to a
/// serial replay — the partition never happened, as far as the bits care.
#[test]
fn healed_partition_is_fenced_without_double_apply() {
    let ctx = "partition/heal p=2 shard=0";
    let g = base_graph();
    let stream = update_stream(&g);
    let want = oracle_bits(&g, &stream);

    let (node_cfg, coord_cfg) = fast_cfgs();
    let mut sim = SimBuilder::new(2)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg)
        .launch(&g)
        .unwrap();
    let victim = sim.leader_id(0);
    let version_before = sim.coord.version();

    // two updates while the cluster is whole
    for &u in &stream[..2] {
        sim.coord.apply(u).unwrap();
    }

    // the coordinator loses shard 0's leader; the third apply runs the
    // lease out and promotes the follower
    sim.net.partition(COORD, victim);
    for &u in &stream[2..] {
        sim.coord
            .apply(u)
            .unwrap_or_else(|e| panic!("{ctx}: apply across the partition failed: {e}"));
    }
    assert_eq!(sim.coord.failovers(), 1, "{ctx}: expected one failover");
    assert!(
        sim.coord.version() > version_before,
        "{ctx}: promotion must bump the map version"
    );
    assert_eq!(sim.coord.groups()[0].leader, sim.follower_id(0), "{ctx}");

    // heal: the deposed leader reappears, still believing it leads shard 0
    // at the stale version — fencing is what retires it
    sim.net.heal(COORD, victim);
    let (role, _, stale_wal, fenced_before) = node_status(&mut sim, victim, ctx);
    assert_eq!(role, Role::Leader, "{ctx}: zombie lost its delusion early");
    assert_eq!(
        stale_wal, 3,
        "{ctx}: the zombie's WAL must end where the partition began"
    );

    assert_eq!(sim.coord.fence_stale(), 1, "{ctx}: fence after heal");
    let (role, version, stale_wal_after, fenced_after) = node_status(&mut sim, victim, ctx);
    assert_eq!(role, Role::Idle, "{ctx}: fenced leader must drop its shard");
    assert_eq!(
        version,
        sim.coord.version(),
        "{ctx}: fence carries the new version"
    );
    assert_eq!(
        stale_wal_after, 0,
        "{ctx}: a demoted zombie must hold no shard state"
    );
    assert!(
        fenced_after >= fenced_before,
        "{ctx}: fence counter went backwards"
    );

    // no double-apply: the promoted leader holds Init + each update once
    let leader = sim.coord.groups()[0].leader;
    let (role, _, wal_len, _) = node_status(&mut sim, leader, ctx);
    assert_eq!(role, Role::Leader, "{ctx}");
    assert_eq!(
        wal_len,
        1 + stream.len() as u64,
        "{ctx}: WAL gap or double-apply after the heal"
    );

    let got = cluster_bits(&mut sim, ctx);
    assert_eq!(want, got, "{ctx}: partition changed the bits");
    sim.shutdown();
}

/// Deterministic chaos: every link drops, duplicates, and delays frames
/// from one logged seed while the full update stream (removal and graph
/// growth included) goes through. Dedup by sequence number and WAL index
/// must absorb every retry and replay — the reduce under chaos, the calm
/// re-read, and the serial oracle all agree bitwise. A failed run prints
/// the seed; `SBC_CHAOS_SEED` replays it exactly.
#[test]
fn chaos_soak_converges_bitwise() {
    // Override to replay a failure: SBC_CHAOS_SEED=<decimal> cargo test ...
    let seed: u64 = std::env::var("SBC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE11);
    println!("chaos soak: seed={seed} (set SBC_CHAOS_SEED to replay)");
    let ctx = format!("chaos seed={seed} p=3");

    let g = base_graph();
    let stream = update_stream(&g);
    let want = oracle_bits(&g, &stream);

    // the node-side replication lease (3 × 40 ms) must stay well under the
    // coordinator's per-shard lease (8 × 60 ms): a leader stuck re-shipping
    // into a dropped link has to give up (degraded) before the coordinator
    // declares the whole shard dead
    let node_cfg = NodeConfig {
        rep_attempts: 3,
        rep_timeout: Duration::from_millis(40),
    };
    let coord_cfg = CoordinatorConfig {
        rpc_timeout: Duration::from_millis(60),
        rpc_attempts: 8,
        ..CoordinatorConfig::default()
    };
    let mut sim = SimBuilder::new(3)
        .node_cfg(node_cfg)
        .coord_cfg(coord_cfg)
        .launch(&g)
        .unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));

    // faults go live only after the bootstrap (which runs single-attempt)
    sim.net.set_faults(Some(FaultSpec {
        seed,
        drop_pm: 80,
        dup_pm: 60,
        delay_pm: 80,
    }));

    for (i, &u) in stream.iter().enumerate() {
        sim.coord
            .apply(u)
            .unwrap_or_else(|e| panic!("{ctx}: apply {i} failed under chaos: {e}"));
    }

    // chaos stays on for the reduce too: retries must still converge...
    let noisy = cluster_bits(&mut sim, &ctx);
    assert_eq!(want, noisy, "{ctx}: chaos changed the bits");

    // ...and a calm re-read agrees with the noisy one
    sim.net.set_faults(None);
    let calm = cluster_bits(&mut sim, &ctx);
    assert_eq!(
        noisy, calm,
        "{ctx}: calm re-read disagrees with the noisy read"
    );
    sim.shutdown();
}
