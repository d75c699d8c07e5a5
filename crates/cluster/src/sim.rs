//! In-process cluster simulation: real nodes, real frames, one thread per
//! node, all traffic through a fault-injectable [`TestNet`].
//!
//! This is the harness both the deterministic failover/partition test
//! suites and `sbc_bench`'s `fleet_repl` workload drive. Node ids follow a
//! fixed scheme so tests can target protocol windows precisely:
//!
//! * [`COORD`] (`n0`) — the coordinator;
//! * `n(1+k)` — the initial leader of shard `k` ([`SimCluster::leader_id`]);
//! * `n(1+p+k)` — shard `k`'s follower, when replication is on
//!   ([`SimCluster::follower_id`]).
//!
//! Crash injection is armed per node *before* launch ([`SimBuilder::kill`]),
//! link faults any time through the shared [`TestNet`] handle.

use crate::coord::{ClusterError, Coordinator, CoordinatorConfig, ShardSpec};
use crate::node::{KillSpec, NodeConfig, ShardNode};
use crate::transport::{TestNet, TestTransport};
use crate::wire::{NodeId, COORD};
use ebc_graph::Graph;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Configures and launches a [`SimCluster`].
pub struct SimBuilder {
    p: usize,
    replicated: bool,
    node_cfg: NodeConfig,
    coord_cfg: CoordinatorConfig,
    kills: HashMap<NodeId, KillSpec>,
    persist: Option<PathBuf>,
}

impl SimBuilder {
    /// A cluster of `p` shards, replicated by default.
    pub fn new(p: usize) -> Self {
        SimBuilder {
            p,
            replicated: true,
            node_cfg: NodeConfig::default(),
            coord_cfg: CoordinatorConfig::default(),
            kills: HashMap::new(),
            persist: None,
        }
    }

    /// Arm coordinator durability at `dir` (see
    /// [`Coordinator::persist_to`]): the launched control plane can then
    /// be crashed with [`SimCluster::crash_coord`] and restarted with
    /// [`HeadlessSim::resume_coord`].
    pub fn persist_to(mut self, dir: impl AsRef<Path>) -> Self {
        self.persist = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Run without followers (no replication, failover impossible).
    pub fn unreplicated(mut self) -> Self {
        self.replicated = false;
        self
    }

    /// Override the node configuration.
    pub fn node_cfg(mut self, cfg: NodeConfig) -> Self {
        self.node_cfg = cfg;
        self
    }

    /// Override the coordinator configuration.
    pub fn coord_cfg(mut self, cfg: CoordinatorConfig) -> Self {
        self.coord_cfg = cfg;
        self
    }

    /// Arm deterministic crash injection on one node.
    pub fn kill(mut self, node: NodeId, spec: KillSpec) -> Self {
        self.kills.insert(node, spec);
        self
    }

    /// Spawn the node threads, bootstrap the cluster over `g`, and hand
    /// back the running harness.
    pub fn launch(self, g: &Graph) -> Result<SimCluster, ClusterError> {
        let net = TestNet::new();
        let coord_mb = net.add_node(COORD);
        let mut handles = Vec::new();
        let mut specs = Vec::new();
        let p = self.p;
        for k in 0..p {
            let leader = NodeId(1 + k as u32);
            let follower = self.replicated.then(|| NodeId(1 + (p + k) as u32));
            specs.push(ShardSpec::new(leader, follower));
            for id in std::iter::once(leader).chain(follower) {
                let mb = net.add_node(id);
                let mut node = ShardNode::new(id, net.transport(id), mb, self.node_cfg.clone());
                node.set_kill(self.kills.get(&id).copied());
                handles.push(std::thread::spawn(move || node.run()));
            }
        }
        let mut coord = Coordinator::new(net.transport(COORD), coord_mb, self.coord_cfg);
        if let Some(dir) = &self.persist {
            coord.persist_to(dir)?;
        }
        coord.bootstrap(g, specs)?;
        Ok(SimCluster {
            net,
            coord,
            handles,
            p,
        })
    }
}

/// A running in-process cluster.
pub struct SimCluster {
    /// The shared fabric — partition/hold/fault it at will.
    pub net: TestNet,
    /// The control plane.
    pub coord: Coordinator<TestTransport>,
    handles: Vec<JoinHandle<()>>,
    p: usize,
}

impl SimCluster {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.p
    }

    /// The id of shard `k`'s *initial* leader (failover may have moved
    /// leadership since; see [`Coordinator::groups`]).
    pub fn leader_id(&self, k: usize) -> NodeId {
        NodeId(1 + k as u32)
    }

    /// The id of shard `k`'s initial follower.
    pub fn follower_id(&self, k: usize) -> NodeId {
        NodeId(1 + (self.p + k) as u32)
    }

    /// Drain the cluster and join every node thread. Heals all faults
    /// first so shutdown frames cannot be dropped or parked.
    pub fn shutdown(self) {
        self.net.heal_all();
        self.coord.shutdown();
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Kill the control plane only: the coordinator is dropped (its
    /// mailbox closes, as a crash would) while every node thread keeps
    /// serving. Restart it from its durable directory with
    /// [`HeadlessSim::resume_coord`].
    pub fn crash_coord(self) -> HeadlessSim {
        drop(self.coord);
        HeadlessSim {
            net: self.net,
            handles: self.handles,
            p: self.p,
        }
    }
}

/// A simulated cluster whose coordinator has crashed — the node fleet is
/// still running and owns all the shard state.
pub struct HeadlessSim {
    /// The shared fabric.
    pub net: TestNet,
    handles: Vec<JoinHandle<()>>,
    p: usize,
}

impl HeadlessSim {
    /// Restart the control plane from the durable state at `dir` (see
    /// [`Coordinator::resume`]) and hand back the running harness.
    pub fn resume_coord(
        self,
        cfg: CoordinatorConfig,
        dir: impl AsRef<Path>,
    ) -> Result<SimCluster, ClusterError> {
        let mb = self.net.add_node(COORD);
        let coord = Coordinator::resume(self.net.transport(COORD), mb, cfg, dir)?;
        Ok(SimCluster {
            net: self.net,
            coord,
            handles: self.handles,
            p: self.p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::KillWindow;
    use ebc_core::state::Update;

    fn ring(n: u32) -> Graph {
        let mut g = Graph::with_vertices(n as usize);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n).unwrap();
        }
        g
    }

    fn bits(s: &ebc_core::scores::Scores) -> (Vec<u64>, Vec<u64>) {
        (
            s.vbc.iter().map(|x| x.to_bits()).collect(),
            s.ebc.iter().map(|x| x.to_bits()).collect(),
        )
    }

    #[test]
    fn partition_count_is_bitwise_invisible() {
        let g = ring(12);
        let stream = [
            Update::add(0, 5),
            Update::add(3, 9),
            Update::remove(0, 1),
            Update::add(12, 4), // grows the graph: some shard adopts 12
            Update::add(12, 8),
        ];
        let mut reference = None;
        for p in [1usize, 3] {
            let mut sim = SimBuilder::new(p).launch(&g).unwrap();
            for &u in &stream {
                sim.coord.apply(u).unwrap();
            }
            let exact = sim.coord.reduce_exact().unwrap();
            let fast = sim.coord.reduce().unwrap();
            // fast reduce agrees with the exact oracle to fp tolerance
            for (a, b) in exact.vbc.iter().zip(&fast.vbc) {
                assert!((a - b).abs() < 1e-9, "fast vs exact: {a} vs {b}");
            }
            match &reference {
                None => reference = Some(bits(&exact)),
                Some(r) => assert_eq!(r, &bits(&exact), "p={p} changed the bits"),
            }
            sim.shutdown();
        }
    }

    #[test]
    fn leader_kill_fails_over_and_stays_bitwise() {
        let g = ring(10);
        let stream: Vec<Update> = (2..7).map(|i| Update::add(0, i)).collect();

        // oracle: the same stream with no failures
        let mut calm = SimBuilder::new(2).launch(&g).unwrap();
        for &u in &stream {
            calm.coord.apply(u).unwrap();
        }
        let want = bits(&calm.coord.reduce_exact().unwrap());
        calm.shutdown();

        // shard 1's leader dies mid-apply on WAL entry 3
        let mut sim = SimBuilder::new(2)
            .kill(
                NodeId(2),
                KillSpec {
                    window: KillWindow::MidApply,
                    at_index: 3,
                },
            )
            .launch(&g)
            .unwrap();
        for &u in &stream {
            sim.coord.apply(u).unwrap();
        }
        assert_eq!(sim.coord.failovers(), 1);
        let got = bits(&sim.coord.reduce_exact().unwrap());
        assert_eq!(want, got, "failover changed the bits");
        sim.shutdown();
    }
}
