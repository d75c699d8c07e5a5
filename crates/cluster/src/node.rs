//! The shard node: one process owning (or replicating) one shard.
//!
//! A [`ShardNode`] is a single-threaded event loop over a [`Mailbox`]. As
//! **leader** it executes coordinator requests against its private
//! [`ShardState`] + [`Graph`] replica (updates fold in through the shared
//! [`Update::fold_into`](ebc_core::state::Update::fold_into)), appending every state-changing op to
//! its WAL ([`OpLog`]) *as the serialized wire frame* and synchronously
//! shipping that frame to its follower before acknowledging. As
//! **follower** it absorbs [`NodeMsg::Replicate`] frames in index order,
//! running the *same* `ShardRuntime::apply_entry` code path the leader
//! ran — which, the kernel being a pure function of `(graph, BD, op)`, makes
//! its state bitwise identical to the leader's at every WAL length.
//!
//! Safety rails (DESIGN.md §12):
//!
//! * **Fencing** — every versioned request carries the coordinator's map
//!   version; a request older than the highest seen is refused with
//!   [`ErrKind::Fenced`]. Promotion bumps the map version, so a stale
//!   leader's world view dies with its lease.
//! * **Exactly-once** — requests are deduplicated per sender by sequence
//!   number (a retried request replays the cached reply), and ops are
//!   deduplicated by WAL index on both leader and follower, so duplicate
//!   delivery never double-applies.
//! * **Role check on replication** — a promoted node ignores `Replicate`
//!   frames outright (it is no longer a follower), so a zombie leader's
//!   late shipments cannot corrupt the new timeline.
//!
//! Deterministic crash injection ([`KillSpec`]) kills the node at a chosen
//! protocol window × WAL index — the failover matrix in
//! `tests/cluster_failover.rs` sweeps these.

use crate::transport::{Mailbox, SendError, Transport};
use crate::wire::{self, ErrKind, NodeId, NodeMsg, Reply, ReplyBody, Request, Role, ShardOp};
use ebc_core::bd::{ExportedRecord, MemoryBdStore};
use ebc_core::incremental::UpdateConfig;
use ebc_core::shard::ShardState;
use ebc_graph::Graph;
use ebc_store::OpLog;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Tuning knobs for a node.
#[derive(Clone)]
pub struct NodeConfig {
    /// Ship attempts before declaring the follower lost and serving
    /// degraded.
    pub rep_attempts: u32,
    /// Per-attempt wait for the follower's ack.
    pub rep_timeout: Duration,
    /// Kernel configuration (must match the coordinator's).
    pub update_cfg: UpdateConfig,
    /// When set, the WAL writes through to this file (torn tails are
    /// truncated on reopen; see [`OpLog::open`]).
    pub wal_path: Option<PathBuf>,
    /// When set, compact the op log once its retained frames exceed this
    /// many bytes — but only **behind the replication watermark**: a
    /// leader never truncates an entry its follower has not acknowledged
    /// (it may still have to re-ship it), so a lost follower freezes
    /// compaction at the last acked index. `None` (the default) keeps the
    /// log append-forever.
    pub wal_compact_bytes: Option<u64>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            rep_attempts: 5,
            rep_timeout: Duration::from_millis(200),
            update_cfg: UpdateConfig::default(),
            wal_path: None,
            wal_compact_bytes: None,
        }
    }
}

/// Protocol window at which a [`KillSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillWindow {
    /// After the op is WAL-appended and locally applied, before it ships
    /// to the follower — the follower never hears of the entry.
    MidApply,
    /// After the follower acknowledged the shipment, before the
    /// coordinator is answered — leader and follower agree, the
    /// coordinator doesn't know it.
    MidShip,
}

/// Deterministic crash injection: die at `window` while executing WAL
/// entry `at_index` (the in-process analogue of `SBC_SERVE_CRASH_AFTER`).
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// Where in the op's lifecycle to die.
    pub window: KillWindow,
    /// Which WAL index triggers it.
    pub at_index: u64,
}

/// The compute state a node holds once its shard is bootstrapped.
struct ShardRuntime {
    shard: u32,
    g: Graph,
    state: ShardState<MemoryBdStore>,
    wal: OpLog,
    follower: Option<NodeId>,
    follower_hint: Option<String>,
    follower_lost: bool,
    /// Replication watermark: the follower's last acknowledged log length
    /// (entries `< acked` are durable on the follower too). Frozen when
    /// the follower is lost.
    acked: u64,
}

impl ShardRuntime {
    /// Build a runtime from a [`ShardOp::Init`]: decode the structural
    /// snapshot and Brandes-bootstrap the owned sources. Returns the
    /// iteration count.
    fn from_init(
        shard: u32,
        snapshot: &[u8],
        sources: &[u32],
        wal: OpLog,
        cfg: &UpdateConfig,
    ) -> Result<(Self, u64), String> {
        let g = Graph::from_snapshot_bytes(snapshot).map_err(|e| e.to_string())?;
        let mut state = ShardState::new(
            MemoryBdStore::new(g.n()),
            g.n(),
            g.edge_slots(),
            cfg.clone(),
        );
        let brandes = state.bootstrap(&g, sources).map_err(|e| e.to_string())?;
        Ok((
            ShardRuntime {
                shard,
                g,
                state,
                wal,
                follower: None,
                follower_hint: None,
                follower_lost: false,
                acked: 0,
            },
            brandes,
        ))
    }

    /// Execute one replicated op against the replica — the code path
    /// shared verbatim by leader apply and follower replay. Returns the
    /// exported record for [`ShardOp::Export`].
    fn apply_entry(&mut self, index: u64, op: &ShardOp) -> Result<Option<ExportedRecord>, String> {
        match op {
            ShardOp::Init { .. } => Err("init op beyond entry 0".to_string()),
            ShardOp::Apply { update, adopt } => {
                // the same fold the coordinator ran on its replica; the
                // adopting shard comes from the coordinator
                let (_, removed) = update.fold_into(&mut self.g).map_err(|e| e.to_string())?;
                self.state
                    .apply(&self.g, *update, removed, *adopt)
                    .map_err(|e| e.to_string())?;
                Ok(None)
            }
            ShardOp::Export { source } => {
                let record = self
                    .state
                    .export(*source, index)
                    .map_err(|e| e.to_string())?;
                self.state.retire(*source).map_err(|e| e.to_string())?;
                Ok(Some(record))
            }
            ShardOp::Import { record } => {
                self.state
                    .import(record.clone())
                    .map_err(|e| e.to_string())?;
                Ok(None)
            }
        }
    }

    fn degraded(&self) -> bool {
        self.follower.is_none() || self.follower_lost
    }
}

/// A cluster shard node. Generic over the [`Transport`] so the same event
/// loop runs in a fault-injected thread or behind a TCP socket.
pub struct ShardNode<T: Transport> {
    id: NodeId,
    transport: T,
    mailbox: Mailbox,
    cfg: NodeConfig,
    kill: Option<KillSpec>,
    role: Role,
    version: u64,
    fenced: u64,
    dedup: HashMap<NodeId, (u64, String)>,
    rt: Option<ShardRuntime>,
}

/// Control-flow outcome of one frame.
enum Flow {
    /// Keep serving.
    Continue,
    /// Exit the loop (shutdown drained, or a kill fired).
    Die,
}

impl<T: Transport> ShardNode<T> {
    /// A fresh idle node.
    pub fn new(id: NodeId, transport: T, mailbox: Mailbox, cfg: NodeConfig) -> Self {
        ShardNode {
            id,
            transport,
            mailbox,
            cfg,
            kill: None,
            role: Role::Idle,
            version: 0,
            fenced: 0,
            dedup: HashMap::new(),
            rt: None,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Arm (or disarm) deterministic crash injection.
    pub fn set_kill(&mut self, kill: Option<KillSpec>) {
        self.kill = kill;
    }

    /// Serve frames until a `Shutdown` request or an armed kill fires.
    /// Dropping the mailbox on return is what peers observe as the crash.
    pub fn run(mut self) {
        loop {
            let Some(env) = self.mailbox.recv_timeout(Duration::from_millis(100)) else {
                continue;
            };
            let Ok(msg) = wire::decode(&env.frame) else {
                continue; // garbage on the wire is the codec's problem, not ours
            };
            match msg {
                NodeMsg::Request { seq, version, req } => {
                    if let Flow::Die = self.handle_request(env.from, seq, version, req) {
                        return;
                    }
                }
                NodeMsg::Replicate { index, op } => {
                    self.handle_replicate(env.from, &env.frame, index, &op)
                }
                // stray acks (duplicates, late arrivals) outside a ship
                // wait are stale by definition
                NodeMsg::RepAck { .. } | NodeMsg::Reply { .. } | NodeMsg::Hello { .. } => {}
            }
        }
    }

    fn killed_at(&self, window: KillWindow, index: u64) -> bool {
        self.kill
            .is_some_and(|k| k.window == window && k.at_index == index)
    }

    fn reply_to(&mut self, to: NodeId, seq: u64, reply: Reply) {
        let frame = wire::encode(&NodeMsg::Reply { seq, reply });
        self.dedup.insert(to, (seq, frame.clone()));
        let _ = self.transport.send(to, None, &frame);
    }

    fn handle_request(&mut self, from: NodeId, seq: u64, version: u64, req: Request) -> Flow {
        // exactly-once per sender: a retried seq replays the cached reply,
        // an older seq is a late duplicate
        if let Some((last, cached)) = self.dedup.get(&from) {
            if seq == *last {
                let frame = cached.clone();
                let _ = self.transport.send(from, None, &frame);
                return Flow::Continue;
            }
            if seq < *last {
                return Flow::Continue;
            }
        }
        // fencing: versioned requests from an older map view are refused
        if !req.is_unfenced() {
            if version < self.version {
                self.fenced += 1;
                let have = self.version;
                self.reply_to(
                    from,
                    seq,
                    Reply::Err {
                        kind: ErrKind::Fenced,
                        msg: format!("request at map version {version}, node has seen {have}"),
                        have,
                    },
                );
                return Flow::Continue;
            }
            self.version = version;
        }
        match req {
            Request::Bootstrap {
                shard,
                snapshot,
                sources,
                follower,
                follower_hint,
            } => self.do_bootstrap(
                from,
                seq,
                shard,
                &snapshot,
                &sources,
                follower,
                follower_hint,
            ),
            Request::Apply {
                index,
                update,
                adopt,
            } => self.do_op(from, seq, index, ShardOp::Apply { update, adopt }),
            Request::Export { source } => {
                self.do_op(from, seq, index_of(&self.rt), ShardOp::Export { source })
            }
            Request::Import { record } => {
                self.do_op(from, seq, index_of(&self.rt), ShardOp::Import { record })
            }
            Request::Partials => {
                let reply = match self.rt.as_ref() {
                    None => protocol_err("no shard state"),
                    Some(rt) => Reply::Ok(ReplyBody::Partials {
                        scores: rt.state.partial().clone(),
                    }),
                };
                self.reply_to(from, seq, reply);
                Flow::Continue
            }
            Request::ExactSum => {
                let reply = match self.rt.as_mut() {
                    None => protocol_err("no shard state"),
                    Some(rt) => match rt.state.exact_sum(&rt.g) {
                        Ok(sum) => Reply::Ok(ReplyBody::ExactSum { sum }),
                        Err(e) => state_err(e.to_string()),
                    },
                };
                self.reply_to(from, seq, reply);
                Flow::Continue
            }
            Request::Promote => {
                let reply = match (&self.role, self.rt.as_mut()) {
                    (Role::Follower, Some(rt)) => {
                        self.role = Role::Leader;
                        rt.follower = None;
                        rt.follower_hint = None;
                        Reply::Ok(ReplyBody::Done {
                            wal_len: rt.wal.len(),
                            deduped: false,
                            degraded: true,
                        })
                    }
                    _ => protocol_err("promote requires a follower with shard state"),
                };
                self.reply_to(from, seq, reply);
                Flow::Continue
            }
            Request::Demote => {
                // fence and reset: the shard lives elsewhere now
                self.rt = None;
                self.role = Role::Idle;
                self.reply_to(
                    from,
                    seq,
                    Reply::Ok(ReplyBody::Done {
                        wal_len: 0,
                        deduped: false,
                        degraded: false,
                    }),
                );
                Flow::Continue
            }
            Request::Status => {
                let reply = Reply::Ok(ReplyBody::Status {
                    role: self.role,
                    version: self.version,
                    shard: self.rt.as_ref().map(|rt| rt.shard),
                    wal_len: self.rt.as_ref().map_or(0, |rt| rt.wal.len()),
                    sources: self
                        .rt
                        .as_ref()
                        .map_or(0, |rt| rt.state.num_sources() as u64),
                    fenced: self.fenced,
                });
                self.reply_to(from, seq, reply);
                Flow::Continue
            }
            Request::Shutdown => {
                self.reply_to(
                    from,
                    seq,
                    Reply::Ok(ReplyBody::Done {
                        wal_len: self.rt.as_ref().map_or(0, |rt| rt.wal.len()),
                        deduped: false,
                        degraded: false,
                    }),
                );
                Flow::Die
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // the Bootstrap frame, destructured
    fn do_bootstrap(
        &mut self,
        from: NodeId,
        seq: u64,
        shard: u32,
        snapshot: &[u8],
        sources: &[u32],
        follower: Option<NodeId>,
        follower_hint: Option<String>,
    ) -> Flow {
        let wal = match self.open_wal() {
            Ok(wal) => wal,
            Err(e) => {
                self.reply_to(from, seq, state_err(e));
                return Flow::Continue;
            }
        };
        let init = ShardOp::Init {
            shard,
            snapshot: snapshot.to_vec(),
            sources: sources.to_vec(),
        };
        let frame = wire::encode(&NodeMsg::Replicate { index: 0, op: init });
        let (mut rt, brandes) =
            match ShardRuntime::from_init(shard, snapshot, sources, wal, &self.cfg.update_cfg) {
                Ok(x) => x,
                Err(e) => {
                    self.reply_to(from, seq, state_err(e));
                    return Flow::Continue;
                }
            };
        if let Err(e) = rt.wal.append(frame.as_bytes()) {
            self.reply_to(from, seq, state_err(e.to_string()));
            return Flow::Continue;
        }
        rt.follower = follower;
        rt.follower_hint = follower_hint;
        self.ship(&mut rt, 0, &frame);
        self.role = Role::Leader;
        let wal_len = rt.wal.len();
        self.rt = Some(rt);
        self.reply_to(
            from,
            seq,
            Reply::Ok(ReplyBody::Bootstrapped { wal_len, brandes }),
        );
        Flow::Continue
    }

    /// Leader-side execution of one WAL-indexed op: dedup by index, append,
    /// apply, ship, reply — with the kill windows in between.
    fn do_op(&mut self, from: NodeId, seq: u64, index: u64, op: ShardOp) -> Flow {
        if self.role != Role::Leader {
            self.reply_to(from, seq, protocol_err("not the shard leader"));
            return Flow::Continue;
        }
        let Some(mut rt) = self.rt.take() else {
            self.reply_to(from, seq, protocol_err("no shard state"));
            return Flow::Continue;
        };
        let wal_len = rt.wal.len();
        if index < wal_len {
            // duplicate delivery of an op already executed: absorb
            let degraded = rt.degraded();
            self.rt = Some(rt);
            self.reply_to(
                from,
                seq,
                Reply::Ok(ReplyBody::Done {
                    wal_len,
                    deduped: true,
                    degraded,
                }),
            );
            return Flow::Continue;
        }
        if index > wal_len {
            self.rt = Some(rt);
            self.reply_to(
                from,
                seq,
                protocol_err(format!("wal gap: op at {index}, log at {wal_len}")),
            );
            return Flow::Continue;
        }
        let frame = wire::encode(&NodeMsg::Replicate {
            index,
            op: op.clone(),
        });
        if let Err(e) = rt.wal.append(frame.as_bytes()) {
            self.rt = Some(rt);
            self.reply_to(from, seq, state_err(e.to_string()));
            return Flow::Continue;
        }
        let exported = match rt.apply_entry(index, &op) {
            Ok(x) => x,
            Err(e) => {
                self.rt = Some(rt);
                self.reply_to(from, seq, state_err(e));
                return Flow::Continue;
            }
        };
        if self.killed_at(KillWindow::MidApply, index) {
            return Flow::Die; // entry is local-only: the follower never saw it
        }
        self.ship(&mut rt, index, &frame);
        if self.killed_at(KillWindow::MidShip, index) {
            return Flow::Die; // follower has the entry: the coordinator doesn't know
        }
        Self::maybe_compact(&self.cfg, &mut rt);
        let wal_len = rt.wal.len();
        let degraded = rt.degraded();
        self.rt = Some(rt);
        let reply = match exported {
            Some(record) => Reply::Ok(ReplyBody::Exported {
                record,
                wal_len,
                degraded,
            }),
            None => Reply::Ok(ReplyBody::Done {
                wal_len,
                deduped: false,
                degraded,
            }),
        };
        self.reply_to(from, seq, reply);
        Flow::Continue
    }

    /// Synchronously replicate WAL entry `index` (frame already encoded)
    /// to the follower: send, await an ack covering the entry, retry up to
    /// `rep_attempts` times, then declare the follower lost and serve
    /// degraded.
    fn ship(&mut self, rt: &mut ShardRuntime, index: u64, frame: &str) {
        let Some(f) = rt.follower else { return };
        if rt.follower_lost {
            return;
        }
        for _ in 0..self.cfg.rep_attempts {
            match self.transport.send(f, rt.follower_hint.as_deref(), frame) {
                Err(SendError::Closed) => break, // follower is gone for good
                Err(SendError::Io(_)) => continue,
                Ok(()) => {}
            }
            let deadline = Instant::now() + self.cfg.rep_timeout;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break; // attempt timed out; resend
                }
                let Some(env) = self.mailbox.recv_timeout(deadline - now) else {
                    break;
                };
                // inside the ship window only the follower's ack matters;
                // anything else is a duplicate or a stale frame (the
                // coordinator is itself blocked on our reply)
                if env.from == f {
                    if let Ok(NodeMsg::RepAck { wal_len }) = wire::decode(&env.frame) {
                        if wal_len > index {
                            // everything below the acked length is durable
                            // on the follower: the compaction watermark
                            rt.acked = rt.acked.max(wal_len);
                            return;
                        }
                    }
                }
            }
        }
        rt.follower_lost = true;
    }

    /// Follower-side replication: absorb WAL entries in index order,
    /// acknowledging with the post-absorb log length. Non-followers ignore
    /// shipments outright — that role check is what fences a zombie
    /// leader's late frames after a promotion.
    fn handle_replicate(&mut self, from: NodeId, raw: &str, index: u64, op: &ShardOp) {
        match self.role {
            Role::Follower => {}
            Role::Idle if index == 0 => {} // birth: the Init entry
            _ => return,
        }
        if let ShardOp::Init {
            shard,
            snapshot,
            sources,
        } = op
        {
            if self.rt.is_some() {
                // duplicate Init: just re-ack
                let wal_len = self.rt.as_ref().map_or(0, |rt| rt.wal.len());
                let _ =
                    self.transport
                        .send(from, None, &wire::encode(&NodeMsg::RepAck { wal_len }));
                return;
            }
            let Ok(wal) = self.open_wal() else { return };
            let Ok((mut rt, _)) =
                ShardRuntime::from_init(*shard, snapshot, sources, wal, &self.cfg.update_cfg)
            else {
                return;
            };
            if rt.wal.append(raw.as_bytes()).is_err() {
                return;
            }
            self.role = Role::Follower;
            self.rt = Some(rt);
            let _ = self
                .transport
                .send(from, None, &wire::encode(&NodeMsg::RepAck { wal_len: 1 }));
            return;
        }
        let Some(rt) = self.rt.as_mut() else { return };
        let wal_len = rt.wal.len();
        if index < wal_len {
            // duplicate shipment: re-ack so the leader stops retrying
            let _ = self
                .transport
                .send(from, None, &wire::encode(&NodeMsg::RepAck { wal_len }));
            return;
        }
        if index > wal_len {
            return; // gap: an earlier entry is still in flight; leader will retry
        }
        if rt.wal.append(raw.as_bytes()).is_err() {
            return;
        }
        if rt.apply_entry(index, op).is_err() {
            return; // diverged replica is worse than a dead one: stop acking
        }
        Self::maybe_compact(&self.cfg, rt);
        let wal_len = rt.wal.len();
        let _ = self
            .transport
            .send(from, None, &wire::encode(&NodeMsg::RepAck { wal_len }));
    }

    /// Drop WAL entries that are durable everywhere they need to be. A
    /// leader compacts strictly behind the replication watermark (frozen
    /// at the last acked index once the follower is lost); a follower —
    /// or a leader running without a replica — compacts behind its own
    /// log length. A failed rewrite is never fatal: the old file stays
    /// intact and dedup-by-index absorbs the resurrected prefix on reopen.
    fn maybe_compact(cfg: &NodeConfig, rt: &mut ShardRuntime) {
        let Some(threshold) = cfg.wal_compact_bytes else {
            return;
        };
        if rt.wal.byte_len() < threshold {
            return;
        }
        let watermark = if rt.follower.is_none() && !rt.follower_lost {
            rt.wal.len()
        } else {
            rt.acked
        };
        if watermark > rt.wal.base() {
            let _ = rt.wal.truncate_prefix(watermark);
        }
    }

    fn open_wal(&self) -> Result<OpLog, String> {
        match &self.cfg.wal_path {
            None => Ok(OpLog::memory()),
            Some(path) => OpLog::open(path).map_err(|e| e.to_string()),
        }
    }
}

fn index_of(rt: &Option<ShardRuntime>) -> u64 {
    rt.as_ref().map_or(0, |rt| rt.wal.len())
}

fn protocol_err(msg: impl Into<String>) -> Reply {
    Reply::Err {
        kind: ErrKind::Protocol,
        msg: msg.into(),
        have: 0,
    }
}

fn state_err(msg: impl Into<String>) -> Reply {
    Reply::Err {
        kind: ErrKind::State,
        msg: msg.into(),
        have: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TestNet;
    use crate::wire::COORD;
    use ebc_core::state::Update;
    use std::time::Duration;

    fn rpc(net: &TestNet, mb: &Mailbox, to: NodeId, seq: u64, version: u64, req: Request) -> Reply {
        let mut t = net.transport(COORD);
        t.send(
            to,
            None,
            &wire::encode(&NodeMsg::Request { seq, version, req }),
        )
        .unwrap();
        loop {
            let env = mb.recv_timeout(Duration::from_secs(5)).expect("reply");
            if let Ok(NodeMsg::Reply { seq: s, reply }) = wire::decode(&env.frame) {
                if s == seq {
                    return reply;
                }
            }
        }
    }

    fn line_graph(n: u32) -> Graph {
        let mut g = Graph::with_vertices(n as usize);
        for v in 1..n {
            g.add_edge(v - 1, v).unwrap();
        }
        g
    }

    #[test]
    fn bootstrap_apply_status_shutdown() {
        let net = TestNet::new();
        let coord_mb = net.add_node(COORD);
        let nid = NodeId(1);
        let node_mb = net.add_node(nid);
        let node = ShardNode::new(nid, net.transport(nid), node_mb, NodeConfig::default());
        let h = std::thread::spawn(move || node.run());

        let g = line_graph(4);
        let r = rpc(
            &net,
            &coord_mb,
            nid,
            1,
            0,
            Request::Bootstrap {
                shard: 0,
                snapshot: g.snapshot_bytes(),
                sources: vec![0, 1, 2, 3],
                follower: None,
                follower_hint: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Ok(ReplyBody::Bootstrapped {
                    wal_len: 1,
                    brandes: 4
                })
            ),
            "{r:?}"
        );

        let r = rpc(
            &net,
            &coord_mb,
            nid,
            2,
            0,
            Request::Apply {
                index: 1,
                update: Update::add(0, 3),
                adopt: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Ok(ReplyBody::Done {
                    wal_len: 2,
                    deduped: false,
                    degraded: true, // no follower was ever assigned
                })
            ),
            "{r:?}"
        );

        // a retried seq replays the cached reply without re-applying
        let r = rpc(
            &net,
            &coord_mb,
            nid,
            2,
            0,
            Request::Apply {
                index: 1,
                update: Update::add(0, 3),
                adopt: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Ok(ReplyBody::Done {
                    wal_len: 2,
                    deduped: false,
                    ..
                })
            ),
            "cached replay: {r:?}"
        );

        // a fresh seq re-sending an old index dedups by WAL position
        let r = rpc(
            &net,
            &coord_mb,
            nid,
            3,
            0,
            Request::Apply {
                index: 1,
                update: Update::add(0, 3),
                adopt: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Ok(ReplyBody::Done {
                    wal_len: 2,
                    deduped: true,
                    ..
                })
            ),
            "index dedup: {r:?}"
        );

        // fencing: an older map version is refused
        let r = rpc(&net, &coord_mb, nid, 4, 3, Request::Partials);
        assert!(matches!(r, Reply::Ok(ReplyBody::Partials { .. })), "{r:?}");
        let r = rpc(
            &net,
            &coord_mb,
            nid,
            5,
            1,
            Request::Apply {
                index: 2,
                update: Update::add(1, 3),
                adopt: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Err {
                    kind: ErrKind::Fenced,
                    have: 3,
                    ..
                }
            ),
            "{r:?}"
        );

        let r = rpc(&net, &coord_mb, nid, 6, 3, Request::Status);
        let Reply::Ok(ReplyBody::Status {
            role,
            version,
            shard,
            wal_len,
            sources,
            fenced,
        }) = r
        else {
            panic!("bad status")
        };
        assert_eq!(
            (role, version, shard, wal_len, sources, fenced),
            (Role::Leader, 3, Some(0), 2, 4, 1)
        );

        let r = rpc(&net, &coord_mb, nid, 7, 3, Request::Shutdown);
        assert!(matches!(r, Reply::Ok(ReplyBody::Done { .. })));
        h.join().unwrap();
    }

    #[test]
    fn follower_replays_and_promotes() {
        let net = TestNet::new();
        let coord_mb = net.add_node(COORD);
        let (lid, fid) = (NodeId(1), NodeId(2));
        let lmb = net.add_node(lid);
        let fmb = net.add_node(fid);
        let leader = ShardNode::new(lid, net.transport(lid), lmb, NodeConfig::default());
        let follower = ShardNode::new(fid, net.transport(fid), fmb, NodeConfig::default());
        let lh = std::thread::spawn(move || leader.run());
        let fh = std::thread::spawn(move || follower.run());

        let g = line_graph(5);
        let r = rpc(
            &net,
            &coord_mb,
            lid,
            1,
            0,
            Request::Bootstrap {
                shard: 0,
                snapshot: g.snapshot_bytes(),
                sources: vec![0, 1, 2, 3, 4],
                follower: Some(fid),
                follower_hint: None,
            },
        );
        assert!(
            matches!(r, Reply::Ok(ReplyBody::Bootstrapped { .. })),
            "{r:?}"
        );
        for (i, (u, v)) in [(0u32, 2u32), (1, 3), (0, 4)].iter().enumerate() {
            let r = rpc(
                &net,
                &coord_mb,
                lid,
                2 + i as u64,
                0,
                Request::Apply {
                    index: 1 + i as u64,
                    update: Update::add(*u, *v),
                    adopt: None,
                },
            );
            assert!(
                matches!(
                    r,
                    Reply::Ok(ReplyBody::Done {
                        degraded: false,
                        ..
                    })
                ),
                "replicated apply {i}: {r:?}"
            );
        }

        // leader's partials...
        let Reply::Ok(ReplyBody::Partials { scores: on_leader }) =
            rpc(&net, &coord_mb, lid, 10, 0, Request::Partials)
        else {
            panic!("leader partials")
        };
        // ...match the promoted follower's bitwise
        let r = rpc(&net, &coord_mb, fid, 1, 1, Request::Promote);
        assert!(
            matches!(r, Reply::Ok(ReplyBody::Done { wal_len: 4, .. })),
            "{r:?}"
        );
        let Reply::Ok(ReplyBody::Partials {
            scores: on_follower,
        }) = rpc(&net, &coord_mb, fid, 2, 1, Request::Partials)
        else {
            panic!("follower partials")
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&on_leader.vbc), bits(&on_follower.vbc));
        assert_eq!(bits(&on_leader.ebc), bits(&on_follower.ebc));

        // the stale leader's ships are ignored by the promoted node: a
        // direct Replicate frame at its next index must not be absorbed
        let mut t = net.transport(lid);
        t.send(
            fid,
            None,
            &wire::encode(&NodeMsg::Replicate {
                index: 4,
                op: ShardOp::Apply {
                    update: Update::add(2, 4),
                    adopt: None,
                },
            }),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let Reply::Ok(ReplyBody::Status { wal_len, role, .. }) =
            rpc(&net, &coord_mb, fid, 3, 1, Request::Status)
        else {
            panic!("status")
        };
        assert_eq!((wal_len, role), (4, Role::Leader), "zombie ship fenced");

        for (id, seq) in [(lid, 11), (fid, 4)] {
            rpc(&net, &coord_mb, id, seq, 1, Request::Shutdown);
        }
        lh.join().unwrap();
        fh.join().unwrap();
    }

    /// With an aggressive `wal_compact_bytes` the log compacts behind the
    /// watermark on every op, yet indices stay globally stable: `wal_len`
    /// keeps counting, dedup-by-index still absorbs re-sent ops, and a
    /// promoted follower reports the full log length with bitwise-equal
    /// partials.
    #[test]
    fn wal_compaction_preserves_indices_and_replication() {
        let net = TestNet::new();
        let coord_mb = net.add_node(COORD);
        let (lid, fid) = (NodeId(1), NodeId(2));
        let lmb = net.add_node(lid);
        let fmb = net.add_node(fid);
        let dir = std::env::temp_dir().join(format!("sbc-node-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = |wal: PathBuf| NodeConfig {
            wal_path: Some(wal),
            wal_compact_bytes: Some(1),
            ..NodeConfig::default()
        };
        let leader = ShardNode::new(lid, net.transport(lid), lmb, cfg(dir.join("leader.wal")));
        let follower = ShardNode::new(fid, net.transport(fid), fmb, cfg(dir.join("follower.wal")));
        let lh = std::thread::spawn(move || leader.run());
        let fh = std::thread::spawn(move || follower.run());

        let g = line_graph(5);
        let r = rpc(
            &net,
            &coord_mb,
            lid,
            1,
            0,
            Request::Bootstrap {
                shard: 0,
                snapshot: g.snapshot_bytes(),
                sources: vec![0, 1, 2, 3, 4],
                follower: Some(fid),
                follower_hint: None,
            },
        );
        assert!(
            matches!(r, Reply::Ok(ReplyBody::Bootstrapped { wal_len: 1, .. })),
            "{r:?}"
        );
        for (i, (u, v)) in [(0u32, 2u32), (1, 3), (0, 4)].iter().enumerate() {
            let r = rpc(
                &net,
                &coord_mb,
                lid,
                2 + i as u64,
                0,
                Request::Apply {
                    index: 1 + i as u64,
                    update: Update::add(*u, *v),
                    adopt: None,
                },
            );
            let want = 2 + i as u64;
            assert!(
                matches!(
                    r,
                    Reply::Ok(ReplyBody::Done {
                        wal_len,
                        deduped: false,
                        degraded: false,
                    }) if wal_len == want
                ),
                "apply {i}: {r:?}"
            );
        }

        // an already-compacted index still dedups (index < global len)
        let r = rpc(
            &net,
            &coord_mb,
            lid,
            5,
            0,
            Request::Apply {
                index: 1,
                update: Update::add(0, 2),
                adopt: None,
            },
        );
        assert!(
            matches!(
                r,
                Reply::Ok(ReplyBody::Done {
                    wal_len: 4,
                    deduped: true,
                    ..
                })
            ),
            "compacted-index dedup: {r:?}"
        );

        let Reply::Ok(ReplyBody::Partials { scores: on_leader }) =
            rpc(&net, &coord_mb, lid, 6, 0, Request::Partials)
        else {
            panic!("leader partials")
        };
        let r = rpc(&net, &coord_mb, fid, 1, 1, Request::Promote);
        assert!(
            matches!(r, Reply::Ok(ReplyBody::Done { wal_len: 4, .. })),
            "{r:?}"
        );
        let Reply::Ok(ReplyBody::Partials {
            scores: on_follower,
        }) = rpc(&net, &coord_mb, fid, 2, 1, Request::Partials)
        else {
            panic!("follower partials")
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&on_leader.vbc), bits(&on_follower.vbc));
        assert_eq!(bits(&on_leader.ebc), bits(&on_follower.ebc));

        for (id, seq) in [(lid, 7), (fid, 3)] {
            rpc(&net, &coord_mb, id, seq, 1, Request::Shutdown);
        }
        lh.join().unwrap();
        fh.join().unwrap();

        // the on-disk logs really compacted: global length survives, but
        // only the unacked suffix (leader) / nothing (follower keeps its
        // own tail) is retained
        let leader_log = OpLog::open(dir.join("leader.wal")).unwrap();
        assert_eq!(leader_log.len(), 4, "global length is stable");
        assert!(
            leader_log.base() >= 3,
            "leader compacted behind the watermark (base {})",
            leader_log.base()
        );
        let follower_log = OpLog::open(dir.join("follower.wal")).unwrap();
        assert_eq!(follower_log.len(), 4);
        assert_eq!(
            follower_log.base(),
            4,
            "follower compacts behind its own length"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
