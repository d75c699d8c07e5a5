//! The fleet's shards run at the same time: an update reaches every
//! group's leader before any leader's reply comes back, so a p-shard
//! update costs its slowest group, not the sum of all groups (the paper's
//! map phase, §5). A link that held its lock across a reply wait would
//! send to the second leader only after the first one answered.

mod common;

use common::to_bits;
use ebc_cluster::wire::{self, NodeMsg, Reply, ReplyBody, Request};
use ebc_cluster::{CoordinatorConfig, Mailbox, NodeId, SimBuilder, TestNet, Transport, COORD};
use std::time::{Duration, Instant};
use streaming_bc::core::BetweennessState;
use streaming_bc::gen::models::holme_kim;

/// A node outside the fleet that asks leaders for their status directly.
struct Probe {
    id: NodeId,
    mailbox: Mailbox,
    seq: u64,
}

impl Probe {
    /// `node`'s op count, or `None` if it did not answer in time (a
    /// leader inside its ship window drops other frames).
    fn wal_len(&mut self, net: &TestNet, node: NodeId) -> Option<u64> {
        self.seq += 1;
        let (seq, req) = (self.seq, Request::Status);
        let frame = wire::encode(&NodeMsg::Request {
            seq,
            version: 0,
            req,
        });
        net.transport(self.id).send(node, None, &frame).ok()?;
        let deadline = Instant::now() + Duration::from_millis(100);
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            let env = self.mailbox.recv_timeout(left)?;
            if let Ok(NodeMsg::Reply { seq: s, reply }) = wire::decode(&env.frame) {
                if s == seq {
                    let Reply::Ok(ReplyBody::Status { wal_len, .. }) = reply else {
                        panic!("status of {node}: {reply:?}");
                    };
                    return Some(wal_len);
                }
            }
        }
        None
    }

    /// Whether `node` reaches `wal_len` ops within five seconds.
    fn reaches(&mut self, net: &TestNet, node: NodeId, wal_len: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.wal_len(net, node) == Some(wal_len) {
                return true;
            }
        }
        false
    }
}

/// Both leaders' replies to the coordinator are held back: both leaders
/// must still run the update before either reply is released. Released,
/// the apply completes with no failover, bitwise equal to a serial replay.
#[test]
fn every_leader_runs_the_update_before_any_reply_returns() {
    let g = holme_kim(16, 2, 0.3, 5);
    let update = common::non_edge_adds(&g, 1)[0];
    // a lease far longer than the test: nothing retries or fails over
    // while the replies are held
    let cfg = CoordinatorConfig {
        rpc_timeout: Duration::from_secs(30),
        ..CoordinatorConfig::default()
    };
    let mut sim = SimBuilder::new(2).coord_cfg(cfg).launch(&g).unwrap();
    let net = sim.net.clone();
    let leaders = [sim.leader_id(0), sim.leader_id(1)];
    let mut probe = Probe {
        id: NodeId(99),
        mailbox: net.add_node(NodeId(99)),
        seq: 0,
    };
    // Init is op 0; the update is op 1
    for leader in leaders {
        assert_eq!(probe.wal_len(&net, leader), Some(1), "{leader} booted");
        net.hold(leader, COORD);
    }

    let ran = std::thread::scope(|scope| {
        let applied = scope.spawn(|| sim.coord.apply(update));
        let ran = leaders.map(|leader| probe.reaches(&net, leader, 2));
        for leader in leaders {
            net.release(leader, COORD);
        }
        let applied = applied.join().expect("the apply thread panicked");
        applied.unwrap_or_else(|e| panic!("apply failed: {e}"));
        ran
    });
    assert_eq!(
        ran,
        [true, true],
        "a leader ran the update only after another leader's reply returned"
    );
    assert_eq!(sim.coord.failovers(), 0);

    let mut serial = BetweennessState::new(&g);
    serial.apply(update).unwrap();
    let want = serial.exact_scores().unwrap();
    let got = sim.coord.reduce_exact().unwrap();
    assert_eq!(
        (to_bits(&got.vbc), to_bits(&got.ebc)),
        (to_bits(&want.vbc), to_bits(&want.ebc))
    );
    sim.shutdown();
}
