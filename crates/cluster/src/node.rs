//! The shard node: one process owning (or replicating) one shard.
//!
//! A [`ShardNode`] is a single-threaded event loop over a [`Mailbox`] —
//! the far end of one `RemoteShard` of the coordinator's engine. As
//! **leader** it executes coordinator requests against its private
//! [`ShardState`] and the [`Graph`] replica inside it (updates fold in
//! through [`Shard::apply`], the write path every engine shard runs too),
//! counting every state-changing op and synchronously shipping it to its
//! follower as a [`NodeMsg::Replicate`] frame before acknowledging. As
//! **follower** it absorbs those frames in index order, running the *same*
//! `ShardRuntime::apply_entry` code path the leader ran — which, the
//! kernel being a pure function of `(graph, BD, op)`, makes its state
//! bitwise identical to the leader's at every op count.
//!
//! A node keeps no log: its state is the shard's `BD` records and partial
//! scores, and the op count (`wal_len` on the wire) is all the index
//! dedup, the replication acks and the coordinator's cursors need. A node
//! that dies is replaced by its follower, never restarted from disk.
//!
//! Safety rails (DESIGN.md §12):
//!
//! * **Fencing** — every versioned request carries the coordinator's
//!   fencing token (its map version plus its failover count); a request
//!   older than the highest seen is refused as `Fenced`. Promotion bumps
//!   the token, so a stale leader's world view dies with its lease.
//! * **Exactly-once** — requests are deduplicated per sender by sequence
//!   number (a retried request replays the cached reply), and every
//!   state-changing op (`Apply`, `Export`, `Import`, `Retire`) carries the
//!   coordinator's WAL index and is deduplicated by it on both leader and
//!   follower, so duplicate delivery — a retry after a failover included —
//!   never double-applies. An exported record stays on the node (leader
//!   and follower alike) until its `Retire`, so a deduplicated `Export`
//!   answers with it.
//! * **Role check on replication** — a promoted node ignores `Replicate`
//!   frames outright (it is no longer a follower), so a zombie leader's
//!   late shipments cannot corrupt the new timeline.
//!
//! Deterministic crash injection ([`KillSpec`]) kills the node at a chosen
//! protocol window × op index — the failover matrix in
//! `tests/cluster_failover.rs` sweeps these.

use crate::transport::{Mailbox, Transport};
use crate::wire::{self, NodeId, NodeMsg, Reply, ReplyBody, Request, Role, ShardOp};
use ebc_core::bd::{ExportedRecord, MemoryBdStore};
use ebc_core::incremental::UpdateConfig;
use ebc_core::shard::{Shard, ShardState};
use ebc_core::{Error, ErrorKind};
use ebc_graph::{Graph, VertexId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tuning knobs for a node.
#[derive(Clone)]
pub struct NodeConfig {
    /// Ship attempts before declaring the follower lost and serving
    /// degraded.
    pub rep_attempts: u32,
    /// Per-attempt wait for the follower's ack.
    pub rep_timeout: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            rep_attempts: 5,
            rep_timeout: Duration::from_millis(200),
        }
    }
}

/// Protocol window at which a [`KillSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillWindow {
    /// After the op is counted and locally applied, before it ships to
    /// the follower — the follower never hears of the op.
    MidApply,
    /// After the follower acknowledged the shipment, before the
    /// coordinator is answered — leader and follower agree, the
    /// coordinator doesn't know it.
    MidShip,
}

/// Deterministic crash injection: die at `window` while executing the op
/// at index `at_index` (the in-process analogue of `SBC_SERVE_CRASH_AFTER`).
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// Where in the op's lifecycle to die.
    pub window: KillWindow,
    /// Which op index triggers it.
    pub at_index: u64,
}

/// The compute state a node holds once its shard is bootstrapped.
struct ShardRuntime {
    shard: u32,
    state: ShardState<MemoryBdStore>,
    /// Ops executed, the `Init` at index 0 included: the index the next op
    /// must carry, reported as `wal_len`.
    ops: u64,
    follower: Option<NodeId>,
    follower_hint: Option<String>,
    follower_lost: bool,
    /// Records exported and not yet retired, for answering a retried
    /// export.
    exported: HashMap<VertexId, ExportedRecord>,
}

impl ShardRuntime {
    /// Build a runtime from a [`ShardOp::Init`] (op 0): decode the
    /// structural snapshot and Brandes-bootstrap the owned sources under
    /// the default kernel configuration, the one the coordinator runs.
    /// Returns the iteration count.
    fn from_init(shard: u32, snapshot: &[u8], sources: &[u32]) -> Result<(Self, u64), Error> {
        let g = Graph::from_snapshot_bytes(snapshot)?;
        let mut state = ShardState::new(MemoryBdStore::new(g.n()), g, UpdateConfig::default());
        let brandes = state.bootstrap(sources)?;
        Ok((
            ShardRuntime {
                shard,
                state,
                ops: 1,
                follower: None,
                follower_hint: None,
                follower_lost: false,
                exported: HashMap::new(),
            },
            brandes,
        ))
    }

    /// Execute one replicated op against the replica — the code path
    /// shared verbatim by leader apply and follower replay. Returns the
    /// exported record for [`ShardOp::Export`], which the runtime keeps
    /// until the matching [`ShardOp::Retire`].
    fn apply_entry(&mut self, index: u64, op: &ShardOp) -> Result<Option<ExportedRecord>, Error> {
        match op {
            ShardOp::Init { .. } => Err(Error::invalid("init op beyond entry 0")),
            ShardOp::Apply { update, adopt } => {
                // the same fold the coordinator ran on its replica; the
                // adopting shard comes from the coordinator
                self.state.apply(*update, adopt.is_some())?;
                Ok(None)
            }
            ShardOp::Export { source } => {
                let record = self.state.export(*source, index)?;
                self.exported.insert(*source, record.clone());
                Ok(Some(record))
            }
            ShardOp::Import { record } => {
                self.state.import(record.clone())?;
                Ok(None)
            }
            ShardOp::Retire { source } => {
                self.state.retire(*source)?;
                self.exported.remove(source);
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

/// The acknowledgement of a request that ran no op.
fn done(wal_len: u64, degraded: bool) -> ReplyBody {
    ReplyBody::Done {
        wal_len,
        deduped: false,
        degraded,
    }
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
                NodeMsg::Replicate { index, op } => self.handle_replicate(env.from, index, op),
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

    fn reply_to(&mut self, to: NodeId, seq: u64, reply: Result<ReplyBody, Error>) {
        let reply = match reply {
            Ok(body) => Reply::Ok(body),
            Err(e) => Reply::Err(e),
        };
        let frame = wire::encode(&NodeMsg::Reply { seq, reply });
        self.dedup.insert(to, (seq, frame.clone()));
        let _ = self.transport.send(to, None, &frame);
    }

    fn runtime(&mut self) -> Result<&mut ShardRuntime, Error> {
        self.rt
            .as_mut()
            .ok_or_else(|| Error::invalid("no shard state"))
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
                let msg = format!("request at map version {version}, node has seen {have}");
                let fenced = Error::new(ErrorKind::Fenced { have }, msg);
                self.reply_to(from, seq, Err(fenced));
                return Flow::Continue;
            }
            self.version = version;
        }
        let flow = match req {
            Request::Shutdown => Flow::Die,
            _ => Flow::Continue,
        };
        let reply = match req {
            Request::Bootstrap {
                shard,
                snapshot,
                sources,
                follower,
                follower_hint,
            } => Some(self.bootstrap(shard, snapshot, sources, follower, follower_hint)),
            Request::Apply {
                index,
                update,
                adopt,
            } => self.leader_op(index, ShardOp::Apply { update, adopt }),
            Request::Export { index, source } => self.leader_op(index, ShardOp::Export { source }),
            Request::Import { index, record } => self.leader_op(index, ShardOp::Import { record }),
            Request::Retire { index, source } => self.leader_op(index, ShardOp::Retire { source }),
            Request::Partials => Some(self.runtime().map(|rt| ReplyBody::Partials {
                scores: rt.state.partial().clone(),
                dirty: rt.state.drain_dirty(),
            })),
            Request::ExactSum => Some(self.runtime().and_then(|rt| {
                let sum = rt.state.exact_sum()?;
                Ok(ReplyBody::ExactSum { sum })
            })),
            Request::Promote => Some(match (self.role, self.rt.as_mut()) {
                (Role::Follower, Some(rt)) => {
                    self.role = Role::Leader;
                    rt.follower = None;
                    rt.follower_hint = None;
                    Ok(done(rt.ops, true))
                }
                _ => Err(Error::invalid(
                    "promote requires a follower with shard state",
                )),
            }),
            Request::Demote => {
                // fence and reset: the shard lives elsewhere now
                self.rt = None;
                self.role = Role::Idle;
                Some(Ok(done(0, false)))
            }
            Request::Status => Some(Ok(ReplyBody::Status {
                role: self.role,
                version: self.version,
                shard: self.rt.as_ref().map(|rt| rt.shard),
                wal_len: self.rt.as_ref().map_or(0, |rt| rt.ops),
                sources: self
                    .rt
                    .as_ref()
                    .map_or(0, |rt| rt.state.num_sources() as u64),
                fenced: self.fenced,
            })),
            Request::Shutdown => Some(Ok(done(self.rt.as_ref().map_or(0, |rt| rt.ops), false))),
        };
        match reply {
            // an armed kill fired mid-op: die unanswered
            None => Flow::Die,
            Some(reply) => {
                self.reply_to(from, seq, reply);
                flow
            }
        }
    }

    /// Become the leader of `shard`: build the runtime from the snapshot
    /// (op 0) and ship that `Init` to the follower.
    fn bootstrap(
        &mut self,
        shard: u32,
        snapshot: Vec<u8>,
        sources: Vec<VertexId>,
        follower: Option<NodeId>,
        follower_hint: Option<String>,
    ) -> Result<ReplyBody, Error> {
        let (mut rt, brandes) = ShardRuntime::from_init(shard, &snapshot, &sources)?;
        rt.follower = follower;
        rt.follower_hint = follower_hint;
        let init = ShardOp::Init {
            shard,
            snapshot,
            sources,
        };
        self.ship(&mut rt, 0, init);
        self.role = Role::Leader;
        let wal_len = rt.ops;
        self.rt = Some(rt);
        Ok(ReplyBody::Bootstrapped { wal_len, brandes })
    }

    /// Leader-side execution of one indexed op; `None` when an armed kill
    /// fired during it.
    fn leader_op(&mut self, index: u64, op: ShardOp) -> Option<Result<ReplyBody, Error>> {
        let Some(mut rt) = self.rt.take().filter(|_| self.role == Role::Leader) else {
            return Some(Err(Error::invalid("not the shard leader")));
        };
        let outcome = self.execute(&mut rt, index, op);
        self.rt = Some(rt);
        outcome
    }

    /// Dedup by index, count, apply, ship — with the kill windows in
    /// between.
    fn execute(
        &mut self,
        rt: &mut ShardRuntime,
        index: u64,
        op: ShardOp,
    ) -> Option<Result<ReplyBody, Error>> {
        let wal_len = rt.ops;
        let degraded = rt.degraded();
        if index < wal_len {
            // duplicate delivery of an op already executed: absorb, an
            // export answering with the record it kept
            return Some(match &op {
                ShardOp::Export { source } => match rt.exported.get(source) {
                    Some(record) => Ok(ReplyBody::Exported {
                        record: record.clone(),
                        wal_len,
                        degraded,
                    }),
                    None => Err(
                        Error::invalid(format!("no export of source {source} is pending"))
                            .with_source(*source),
                    ),
                },
                _ => Ok(ReplyBody::Done {
                    wal_len,
                    deduped: true,
                    degraded,
                }),
            });
        }
        if index > wal_len {
            let gap = format!("op gap: op at {index}, node at {wal_len}");
            return Some(Err(Error::invalid(gap)));
        }
        // the index is spent even when the op fails
        rt.ops += 1;
        let exported = match rt.apply_entry(index, &op) {
            Ok(exported) => exported,
            Err(e) => return Some(Err(e)),
        };
        if self.killed_at(KillWindow::MidApply, index) {
            return None; // op is local-only: the follower never saw it
        }
        self.ship(rt, index, op);
        if self.killed_at(KillWindow::MidShip, index) {
            return None; // follower has the op: the coordinator doesn't know
        }
        let (wal_len, degraded) = (rt.ops, rt.degraded());
        Some(Ok(match exported {
            Some(record) => ReplyBody::Exported {
                record,
                wal_len,
                degraded,
            },
            None => ReplyBody::Done {
                wal_len,
                deduped: false,
                degraded,
            },
        }))
    }

    /// Synchronously replicate op `index` to the follower, if there is one
    /// to ship to: encode the frame, send, await an ack covering the op,
    /// retry up to `rep_attempts` times, then declare the follower lost
    /// and serve degraded.
    fn ship(&mut self, rt: &mut ShardRuntime, index: u64, op: ShardOp) {
        let Some(f) = rt.follower.filter(|_| !rt.follower_lost) else {
            return;
        };
        let frame = wire::encode(&NodeMsg::Replicate { index, op });
        for _ in 0..self.cfg.rep_attempts {
            match self.transport.send(f, rt.follower_hint.as_deref(), &frame) {
                Err(e) if e.kind() == ErrorKind::Lost => break, // follower is gone for good
                Err(_) => continue,
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
                            return;
                        }
                    }
                }
            }
        }
        rt.follower_lost = true;
    }

    /// Follower-side replication: absorb ops in index order, acknowledging
    /// with the post-absorb op count. Non-followers ignore shipments
    /// outright — that role check is what fences a zombie leader's late
    /// frames after a promotion.
    fn handle_replicate(&mut self, from: NodeId, index: u64, op: ShardOp) {
        match self.role {
            Role::Follower => {}
            Role::Idle if index == 0 => {} // birth: the Init op
            _ => return,
        }
        if let Some(wal_len) = self.absorb(index, &op) {
            let ack = wire::encode(&NodeMsg::RepAck { wal_len });
            let _ = self.transport.send(from, None, &ack);
        }
    }

    /// Absorb one shipped op: the op count to acknowledge, or `None` to
    /// stay silent.
    fn absorb(&mut self, index: u64, op: &ShardOp) -> Option<u64> {
        if let ShardOp::Init {
            shard,
            snapshot,
            sources,
        } = op
        {
            if let Some(rt) = &self.rt {
                return Some(rt.ops); // duplicate Init: just re-ack
            }
            let (rt, _) = ShardRuntime::from_init(*shard, snapshot, sources).ok()?;
            self.role = Role::Follower;
            self.rt = Some(rt);
            return Some(1);
        }
        let rt = self.rt.as_mut()?;
        if index < rt.ops {
            return Some(rt.ops); // duplicate shipment: re-ack so the leader stops retrying
        }
        if index > rt.ops {
            return None; // gap: an earlier op is still in flight; leader will retry
        }
        rt.ops += 1;
        // a diverged replica is worse than a dead one: stop acking
        rt.apply_entry(index, op).ok()?;
        Some(rt.ops)
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

    /// Bootstrap shard 0 of `line_graph(n)`, owning every source.
    fn bootstrap(n: u32, follower: Option<NodeId>) -> Request {
        Request::Bootstrap {
            shard: 0,
            snapshot: line_graph(n).snapshot_bytes(),
            sources: (0..n).collect(),
            follower,
            follower_hint: None,
        }
    }

    /// Add edge `{u, v}` as op `index`.
    fn apply(index: u64, u: u32, v: u32) -> Request {
        Request::Apply {
            index,
            update: Update::add(u, v),
            adopt: None,
        }
    }

    /// `(wal_len, deduped, degraded)` of a `Done` reply.
    fn done_of(r: &Reply) -> (u64, bool, bool) {
        match r {
            Reply::Ok(ReplyBody::Done {
                wal_len,
                deduped,
                degraded,
            }) => (*wal_len, *deduped, *degraded),
            other => panic!("not an acknowledgement: {other:?}"),
        }
    }

    /// The partials of a `Partials` reply, as bits.
    fn partial_bits(r: Reply) -> (Vec<u64>, Vec<u64>) {
        let Reply::Ok(ReplyBody::Partials { scores, .. }) = r else {
            panic!("not partials: {r:?}")
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (bits(&scores.vbc), bits(&scores.ebc))
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

        let r = rpc(&net, &coord_mb, nid, 1, 0, bootstrap(4, None));
        let booted = Reply::Ok(ReplyBody::Bootstrapped {
            wal_len: 1,
            brandes: 4,
        });
        assert_eq!(r, booted);

        let r = rpc(&net, &coord_mb, nid, 2, 0, apply(1, 0, 3));
        // no follower was ever assigned: degraded
        assert_eq!(done_of(&r), (2, false, true));

        // a retried seq replays the cached reply without re-applying
        let r = rpc(&net, &coord_mb, nid, 2, 0, apply(1, 0, 3));
        let (wal_len, deduped, _) = done_of(&r);
        assert_eq!((wal_len, deduped), (2, false), "cached replay");

        // a fresh seq re-sending an old index dedups by op index
        let r = rpc(&net, &coord_mb, nid, 3, 0, apply(1, 0, 3));
        let (wal_len, deduped, _) = done_of(&r);
        assert_eq!((wal_len, deduped), (2, true), "index dedup");

        // fencing: an older map version is refused
        let r = rpc(&net, &coord_mb, nid, 4, 3, Request::Partials);
        assert!(matches!(r, Reply::Ok(ReplyBody::Partials { .. })), "{r:?}");
        let r = rpc(&net, &coord_mb, nid, 5, 1, apply(2, 1, 3));
        assert!(
            matches!(&r, Reply::Err(e) if e.kind() == ErrorKind::Fenced { have: 3 }),
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
        done_of(&r);
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

        let r = rpc(&net, &coord_mb, lid, 1, 0, bootstrap(5, Some(fid)));
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
                apply(1 + i as u64, *u, *v),
            );
            assert!(!done_of(&r).2, "replicated apply {i}: {r:?}");
        }

        // leader's partials match the promoted follower's bitwise
        let on_leader = partial_bits(rpc(&net, &coord_mb, lid, 10, 0, Request::Partials));
        let r = rpc(&net, &coord_mb, fid, 1, 1, Request::Promote);
        assert_eq!(done_of(&r).0, 4, "{r:?}");
        let on_follower = partial_bits(rpc(&net, &coord_mb, fid, 2, 1, Request::Partials));
        assert_eq!(on_leader, on_follower);

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
}
