//! The failover crash matrix: a shard leader is killed at every protocol
//! window — mid-apply (WAL entry local, follower behind), mid-WAL-ship
//! (follower caught up, leader dies before acking the coordinator), and
//! mid-promote (the lease expires while the old leader is still alive, so
//! its last fan-out lands *during* the promotion) — across p ∈ {1, 3, 8}
//! shards. In every cell the promoted follower's `reduce_exact` must be
//! **bitwise** equal to a serial [`BetweennessState`] replay of the same
//! update stream: replication and failover are invisible to the scores.
//! A handoff survives the same kills on its donor's and its recipient's
//! leader, at p ∈ {2, 3}.

mod common;

use common::to_bits;
use ebc_cluster::wire::ReplyBody;
use ebc_cluster::{
    CoordEvent, CoordinatorConfig, KillSpec, KillWindow, NodeConfig, NodeId, Role, SimBuilder,
    SimCluster, COORD,
};
use std::time::Duration;
use streaming_bc::core::BetweennessState;
use streaming_bc::engine::SourceMove;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::Update;

fn base_graph() -> Graph {
    holme_kim(18, 2, 0.3, 7)
}

/// The matrix's update stream: additions, a removal, and two updates that
/// grow the graph (the second touches the adopted vertex again, so the
/// adoption must actually have stuck on every shard).
fn update_stream(g: &Graph) -> Vec<Update> {
    let mut s = common::non_edge_adds(g, 3);
    let (u, v) = g.edges().next().expect("graph has an edge").0.endpoints();
    s.push(Update::remove(u, v));
    let n = g.n() as u32;
    s.push(Update::add(n, 2));
    s.push(Update::add(n, 9));
    s
}

/// The serial oracle: one plain in-memory state, no shards, no wire, no
/// failures — the bit pattern every cluster cell must reproduce.
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

/// Tight leases so a failover costs milliseconds, not the defaults' whole
/// seconds — and so the node-side replication lease is shorter than the
/// coordinator's RPC lease (a dying ship must not outlive a fence probe).
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

/// `fence_stale` needs the zombie idle enough to answer; retry through its
/// (bounded) ship backoff instead of sleeping a worst case up front.
fn fence_until_demoted(sim: &mut SimCluster, want: usize, ctx: &str) {
    let mut demoted = 0;
    for _ in 0..100 {
        demoted += sim.coord.fence_stale();
        if demoted >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{ctx}: fenced only {demoted}/{want} stale leaders");
}

fn status_of(sim: &mut SimCluster, node: NodeId, ctx: &str) -> (Role, u64, u64) {
    match sim.coord.node_status(node) {
        Ok(ReplyBody::Status {
            role,
            version,
            wal_len,
            ..
        }) => (role, version, wal_len),
        other => panic!("{ctx}: status of {node:?} came back {other:?}"),
    }
}

/// Mid-apply and mid-ship: the node-side crash injection fires inside the
/// leader's own protocol handler, deterministically at one WAL index.
#[test]
fn kill_window_matrix_is_bitwise() {
    let g = base_graph();
    let stream = update_stream(&g);
    let want = oracle_bits(&g, &stream);

    for p in [1usize, 3, 8] {
        for window in [KillWindow::MidApply, KillWindow::MidShip] {
            // kill a middle shard so both lower and higher shards keep
            // running across the failover
            let shard = p / 2;
            let ctx = format!("p={p} window={window:?} shard={shard}");
            let (node_cfg, coord_cfg) = fast_cfgs();
            let mut sim = SimBuilder::new(p)
                .node_cfg(node_cfg)
                .coord_cfg(coord_cfg)
                .kill(
                    NodeId(1 + shard as u32),
                    KillSpec {
                        window,
                        at_index: 3,
                    },
                )
                .launch(&g)
                .unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));
            for &u in &stream {
                sim.coord
                    .apply(u)
                    .unwrap_or_else(|e| panic!("{ctx}: apply failed: {e}"));
            }
            assert_eq!(sim.coord.failovers(), 1, "{ctx}: expected one failover");
            assert_eq!(
                sim.coord.groups()[shard].leader,
                sim.follower_id(shard),
                "{ctx}: leadership did not move to the follower"
            );

            // the promoted follower holds the full WAL: Init + every update
            let leader = sim.coord.groups()[shard].leader;
            let (role, version, wal_len) = status_of(&mut sim, leader, &ctx);
            assert_eq!(role, Role::Leader, "{ctx}");
            assert_eq!(version, sim.coord.version(), "{ctx}");
            assert_eq!(wal_len, 1 + stream.len() as u64, "{ctx}: WAL gap or dup");

            let got = cluster_bits(&mut sim, &ctx);
            assert_eq!(want, got, "{ctx}: failover changed the bits");
            sim.shutdown();
        }
    }
}

/// Mid-promote: the old leader is *alive* but its coordinator link is
/// held, so the lease expires and promotion starts; the `Promoting` event
/// releases the held apply, which then lands on the zombie — whose fan-out
/// races the promotion itself. Whichever way the race resolves (replicate
/// before the promote, or ignored after it), indexes and the map version
/// must make the outcome bitwise identical and exactly-once.
#[test]
fn midpromote_zombie_fanout_is_fenced_and_bitwise() {
    let g = base_graph();
    let stream = update_stream(&g);
    let want = oracle_bits(&g, &stream);

    for p in [1usize, 3, 8] {
        let ctx = format!("p={p} window=MidPromote shard=0");
        let (node_cfg, coord_cfg) = fast_cfgs();
        let mut sim = SimBuilder::new(p)
            .node_cfg(node_cfg)
            .coord_cfg(coord_cfg)
            .launch(&g)
            .unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));
        let victim = sim.leader_id(0);

        // the moment promotion of shard 0 begins, hand the zombie its
        // held-back apply traffic
        let net = sim.net.clone();
        sim.coord.set_event_hook(Box::new(move |ev| {
            if let CoordEvent::Promoting { shard: 0, .. } = ev {
                net.release(COORD, victim);
            }
        }));

        for (i, &u) in stream.iter().enumerate() {
            if i == 2 {
                sim.net.hold(COORD, victim);
            }
            sim.coord
                .apply(u)
                .unwrap_or_else(|e| panic!("{ctx}: apply {i} failed: {e}"));
        }
        assert_eq!(sim.coord.failovers(), 1, "{ctx}: expected one failover");

        // the coordinator fences the zombie off the map version it missed
        fence_until_demoted(&mut sim, 1, &ctx);
        let (role, version, _) = status_of(&mut sim, victim, &ctx);
        assert_eq!(role, Role::Idle, "{ctx}: zombie not demoted");
        assert_eq!(
            version,
            sim.coord.version(),
            "{ctx}: zombie missed the fence"
        );

        // exactly-once: the promoted leader's WAL has every update exactly
        // once, however the zombie's late fan-out raced the promotion
        let leader = sim.coord.groups()[0].leader;
        assert_eq!(leader, sim.follower_id(0), "{ctx}");
        let (role, _, wal_len) = status_of(&mut sim, leader, &ctx);
        assert_eq!(role, Role::Leader, "{ctx}");
        assert_eq!(wal_len, 1 + stream.len() as u64, "{ctx}: WAL gap or dup");

        let got = cluster_bits(&mut sim, &ctx);
        assert_eq!(want, got, "{ctx}: mid-promote race changed the bits");
        sim.shutdown();
    }
}

/// A handoff whose donor or recipient leader dies mid-op, at the op's WAL
/// index: the promoted follower is asked again at the same index and either
/// appends the op (mid-apply) or answers from its log (mid-ship — an export
/// with the record it kept). The handoff completes after exactly one
/// failover, the map names the recipient, and the exact scores are an
/// unkilled twin's, bit for bit.
#[test]
fn handoff_survives_a_leader_kill_on_either_side() {
    let g = base_graph();
    let stream = update_stream(&g);
    // Init plus one entry per update: the handoff's export and import are
    // the next entry on the donor and on the recipient
    let at_index = 1 + stream.len() as u64;
    for p in [2usize, 3] {
        let (donor, recipient) = (0, p - 1);
        let handed_off = |kill: Option<(usize, KillWindow)>, ctx: &str| {
            let (node_cfg, coord_cfg) = fast_cfgs();
            let mut builder = SimBuilder::new(p).node_cfg(node_cfg).coord_cfg(coord_cfg);
            if let Some((shard, window)) = kill {
                builder = builder.kill(NodeId(1 + shard as u32), KillSpec { window, at_index });
            }
            let mut sim = builder
                .launch(&g)
                .unwrap_or_else(|e| panic!("{ctx}: launch failed: {e}"));
            for &u in &stream {
                sim.coord
                    .apply(u)
                    .unwrap_or_else(|e| panic!("{ctx}: apply failed: {e}"));
            }
            let source = sim.coord.map().sources_of(donor)[0];
            let mv = SourceMove {
                source,
                from: donor,
                to: recipient,
            };
            sim.coord
                .handoff(&mv)
                .unwrap_or_else(|e| panic!("{ctx}: handoff failed: {e}"));
            (sim, source)
        };
        let (mut twin, _) = handed_off(None, "twin");
        let want = cluster_bits(&mut twin, "twin");
        twin.shutdown();
        for (side, shard) in [("donor", donor), ("recipient", recipient)] {
            for window in [KillWindow::MidApply, KillWindow::MidShip] {
                let ctx = format!("p={p} {side} leader killed {window:?}");
                let (mut sim, source) = handed_off(Some((shard, window)), &ctx);
                assert_eq!(sim.coord.failovers(), 1, "{ctx}: expected one failover");
                assert_eq!(
                    sim.coord.map().owner_of(source),
                    Some(recipient),
                    "{ctx}: the map does not name the recipient"
                );
                assert_eq!(
                    want,
                    cluster_bits(&mut sim, &ctx),
                    "{ctx}: the handoff changed the bits"
                );
                sim.shutdown();
            }
        }
    }
}
