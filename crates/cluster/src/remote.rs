//! A remote shard: one replication group of [`ShardNode`](crate::node::ShardNode)s
//! behind the coordinator's one link.
//!
//! The coordinator's engine is the `ClusterEngine` a session drives; only
//! the way a shard is reached differs. A [`RemoteShard`] implements
//! [`Shard`] by sending its group's leader one wire request per call. All
//! remote shards of an engine share one link, in two halves:
//!
//! * the **control state**, behind a mutex held only for short sections:
//!   the transport (every send happens under it), the RPC sequence and its
//!   journal reservation, the fencing token, the per-shard WAL cursors
//!   (`next_index`), the replication groups with their leases and
//!   failover, and the coordinator journal;
//! * the **reply router**, which owns the mailbox. A caller registers
//!   `(node, seq)` before it sends, then waits for that reply without the
//!   lock; whichever waiter holds the mailbox reads the next frame and
//!   hands it to its owner. A reply nobody waits for (an older seq, a
//!   duplicate) is dropped.
//!
//! So the scoped shard threads of an engine round all have their RPCs in
//! flight at once, and an update costs its slowest group, not the sum of
//! all groups (the paper's map phase). Each node serves one shard, so the
//! requests to any one node still go out in seq order.
//!
//! **Failure model.** A leader that exhausts the RPC retry budget
//! (`rpc_attempts × rpc_timeout` — the lease) is declared dead. Failover
//! promotes the shard's follower: count the failover (the fencing token
//! rises by one), send `Promote`, swap the group, persist the new groups —
//! and then *retry the same WAL index* against the new leader. Every
//! state-changing op carries its index, and the index dedup makes the
//! retry safe in both crash windows: if the dead leader never shipped the
//! op ([`KillWindow::MidApply`](crate::node::KillWindow::MidApply)) the
//! promoted node applies it to the shard it holds in memory; if it shipped
//! but never answered ([`KillWindow::MidShip`](crate::node::KillWindow::MidShip))
//! the promoted node has already applied it, and answers the duplicate
//! index without re-applying. A second death in one
//! call, or a leader without a follower, is `Lost`, which poisons the
//! engine. Deposed leaders are remembered for `Coordinator::fence_stale`.
//! A failover keeps the control state locked throughout, so no frame goes
//! out at the raised token before the new groups are durable.
//!
//! **Fencing token.** Every frame carries the engine's map version
//! (adoptions plus moves) plus the failover count, as they stood when the
//! frame was encoded; its retries resend it unchanged. Both only grow, and
//! one node's frames are encoded in the order they are sent, so each node
//! sees the token rise, and it refuses a frame below the highest token it
//! has seen as `Fenced`.

use crate::coord::{CoordEvent, CoordinatorConfig, EventHook};
use crate::journal::{CoordJournal, FleetState};
use crate::transport::{Mailbox, Transport};
use crate::wire::{self, NodeId, NodeMsg, Reply, ReplyBody, Request};
use ebc_core::bd::ExportedRecord;
use ebc_core::exact::ExactSum;
use ebc_core::scores::Scores;
use ebc_core::shard::Shard;
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};
use ebc_graph::VertexId;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Shard `k`'s leader died with no follower left to promote.
fn shard_lost(k: usize) -> Error {
    Error::lost(format!("shard {k}: leader dead and no follower to promote"))
}

/// A node answered with a reply of the wrong shape.
fn unexpected(what: &str, body: &ReplyBody) -> Error {
    Error::corrupt(format!("unexpected {what} reply: {body:?}"))
}

/// Lock one half of the link. A panic while the control state was held
/// came from a shard call, which poisons the engine; from then on the link
/// serves only best-effort calls (status, fencing, shutdown), which a
/// half-done failover does not stop. No router section can panic.
fn lock<X>(mutex: &Mutex<X>) -> MutexGuard<'_, X> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The link's control state (see the module docs).
pub(crate) struct Control<T: Transport> {
    transport: T,
    /// The last RPC sequence number used.
    pub(crate) seq: u64,
    /// The engine's map version as the coordinator last stamped it.
    pub(crate) map_version: u64,
    pub(crate) fleet: FleetState,
    pub(crate) events: Option<EventHook>,
    /// Durable control state, when armed.
    pub(crate) journal: Option<CoordJournal>,
    /// The last seq sent to each node: it never goes down, or the node
    /// would drop the request as a late duplicate.
    sent: HashMap<NodeId, u64>,
}

impl<T: Transport> Control<T> {
    /// The fencing token every frame carries.
    fn token(&self) -> u64 {
        self.map_version + self.fleet.failovers
    }

    fn emit(&mut self, ev: CoordEvent) {
        if let Some(hook) = self.events.as_mut() {
            hook(&ev);
        }
    }

    pub(crate) fn hint_of(&self, node: NodeId) -> Option<String> {
        self.fleet.known.get(&node).cloned().flatten()
    }

    /// Reserve the next seq and encode `req` under it at the current
    /// fencing token; every attempt resends this frame. A seq the journal
    /// cannot reserve is `Io` and never sent: a resumed coordinator starts
    /// at the persisted ceiling, and nodes would drop its requests as late
    /// duplicates.
    fn frame(&mut self, req: Request) -> Result<(u64, String), Error> {
        self.seq += 1;
        let seq = self.seq;
        if let Some(journal) = self.journal.as_mut() {
            journal.reserve_seq(seq)?;
        }
        let version = self.token();
        Ok((seq, wire::encode(&NodeMsg::Request { seq, version, req })))
    }

    fn send(&mut self, to: NodeId, hint: Option<&str>, seq: u64, frame: &str) -> Result<(), Error> {
        let last = self.sent.entry(to).or_default();
        debug_assert!(*last <= seq, "request {seq} to {to} after request {last}");
        *last = seq;
        self.transport.send(to, hint, frame)
    }
}

/// Hands each reply on the coordinator's mailbox to the call awaiting it
/// (see the module docs).
struct Router {
    mailbox: Mutex<Mailbox>,
    routes: Mutex<Routes>,
    /// Signalled whenever a frame was routed or the mailbox fell free.
    routed: Condvar,
}

#[derive(Default)]
struct Routes {
    /// The calls in flight by `(node, seq)`, each with its reply once it
    /// arrived.
    pending: HashMap<(NodeId, u64), Option<Reply>>,
    /// Whether a waiter is reading the mailbox.
    reading: bool,
}

impl Router {
    fn new(mailbox: Mailbox) -> Self {
        Router {
            mailbox: Mutex::new(mailbox),
            routes: Mutex::new(Routes::default()),
            routed: Condvar::new(),
        }
    }

    /// Route replies to request `seq` to `to` from now on.
    fn expect(&self, to: NodeId, seq: u64) {
        lock(&self.routes).pending.insert((to, seq), None);
    }

    /// Stop routing them: a later copy is dropped.
    fn forget(&self, to: NodeId, seq: u64) {
        lock(&self.routes).pending.remove(&(to, seq));
    }

    /// Wait until `deadline` for the reply to request `seq` to `to`,
    /// reading the mailbox whenever no other waiter does. A frame that is
    /// no awaited reply, or a copy of one already routed, is dropped.
    fn wait(&self, to: NodeId, seq: u64, deadline: Instant) -> Option<Reply> {
        let mut routes = lock(&self.routes);
        loop {
            if let Some(reply) = routes.pending.get_mut(&(to, seq)).and_then(Option::take) {
                return Some(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if routes.reading {
                routes = self
                    .routed
                    .wait_timeout(routes, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            routes.reading = true;
            drop(routes);
            let env = lock(&self.mailbox).recv_timeout(deadline - now);
            let reply = env.and_then(|env| match wire::decode(&env.frame) {
                Ok(NodeMsg::Reply { seq, reply }) => Some(((env.from, seq), reply)),
                _ => None,
            });
            routes = lock(&self.routes);
            routes.reading = false;
            if let Some((key, reply)) = reply {
                if let Some(slot @ None) = routes.pending.get_mut(&key) {
                    *slot = Some(reply);
                }
            }
            self.routed.notify_all();
        }
    }
}

/// The coordinator's one link to its fleet (see the module docs).
pub(crate) struct Link<T: Transport> {
    control: Mutex<Control<T>>,
    router: Router,
    pub(crate) cfg: CoordinatorConfig,
}

/// The link as the coordinator and its remote shards share it.
pub(crate) type SharedLink<T> = Arc<Link<T>>;

impl<T: Transport> Link<T> {
    /// A link with no shards yet.
    pub(crate) fn new(transport: T, mailbox: Mailbox, cfg: CoordinatorConfig) -> Self {
        Link {
            control: Mutex::new(Control {
                transport,
                seq: 0,
                map_version: 0,
                fleet: FleetState::default(),
                events: None,
                journal: None,
                sent: HashMap::new(),
            }),
            router: Router::new(mailbox),
            cfg,
        }
    }

    /// Lock the control state, for a short section.
    pub(crate) fn control(&self) -> MutexGuard<'_, Control<T>> {
        lock(&self.control)
    }

    /// One RPC with retries: reserve the seq, register it with the router,
    /// send, await the matching reply, retry up to `attempts`. A node that
    /// never answers — its lease expired — is `Lost` (node replies never
    /// carry that kind); a refusal is the node's error. `held` is the
    /// control state when the caller keeps it locked throughout (a
    /// failover); otherwise each send locks it alone and the wait holds no
    /// lock. A send error a retry may get past backs off by waiting on the
    /// router, so replies to other calls keep flowing.
    fn call(
        &self,
        mut held: Option<&mut Control<T>>,
        to: NodeId,
        hint: Option<&str>,
        req: Request,
        attempts: u32,
        timeout: Duration,
    ) -> Result<ReplyBody, Error> {
        let (seq, frame) = match held.as_deref_mut() {
            Some(control) => control.frame(req),
            None => self.control().frame(req),
        }?;
        self.router.expect(to, seq);
        let outcome = 'call: {
            for _ in 0..attempts {
                let sent = match held.as_deref_mut() {
                    Some(control) => control.send(to, hint, seq, &frame),
                    None => self.control().send(to, hint, seq, &frame),
                };
                let wait = match sent {
                    Err(e) if e.kind() == ErrorKind::Lost => break 'call Err(e),
                    Err(_) => timeout.min(Duration::from_millis(50)),
                    Ok(()) => timeout,
                };
                match self.router.wait(to, seq, Instant::now() + wait) {
                    Some(Reply::Ok(body)) => break 'call Ok(body),
                    Some(Reply::Err(e)) => break 'call Err(e),
                    None => {}
                }
            }
            Err(Error::lost(format!("{to} unreachable")))
        };
        self.router.forget(to, seq);
        outcome
    }

    pub(crate) fn rpc_with(
        &self,
        to: NodeId,
        hint: Option<&str>,
        req: Request,
        attempts: u32,
        timeout: Duration,
    ) -> Result<ReplyBody, Error> {
        self.call(None, to, hint, req, attempts, timeout)
    }

    pub(crate) fn rpc(
        &self,
        to: NodeId,
        hint: Option<&str>,
        req: Request,
    ) -> Result<ReplyBody, Error> {
        self.rpc_with(to, hint, req, self.cfg.rpc_attempts, self.cfg.rpc_timeout)
    }

    /// Shard-directed RPC: on a dead leader, fail over and retry against
    /// the promoted follower. At most one failover per call — a second
    /// death means the whole group is gone.
    fn shard_rpc(&self, k: usize, req: Request) -> Result<ReplyBody, Error> {
        let mut failed_over = false;
        loop {
            let (leader, hint) = {
                let control = self.control();
                let group = &control.fleet.groups[k];
                (group.leader, group.leader_hint.clone())
            };
            match self.rpc(leader, hint.as_deref(), req.clone()) {
                Err(e) if e.kind() == ErrorKind::Lost && failed_over => return Err(shard_lost(k)),
                Err(e) if e.kind() == ErrorKind::Lost => {
                    self.failover(k)?;
                    failed_over = true;
                }
                result => return result,
            }
        }
    }

    /// A state-changing op on shard `k` at its next WAL index; the reply's
    /// log length becomes the shard's next index. Only shard `k`'s calls
    /// touch its index, so it cannot move between the two sections.
    fn indexed(&self, k: usize, req: impl FnOnce(u64) -> Request) -> Result<ReplyBody, Error> {
        let index = self.control().fleet.next_index[k];
        let reply = self.shard_rpc(k, req(index))?;
        match &reply {
            ReplyBody::Done { wal_len, .. } | ReplyBody::Exported { wal_len, .. } => {
                self.control().fleet.next_index[k] = *wal_len;
                Ok(reply)
            }
            other => Err(unexpected("op", other)),
        }
    }

    /// Promote shard `k`'s follower after its leader's lease expired. The
    /// control state stays locked throughout, so no frame goes out at the
    /// raised fencing token before the promotion is durable.
    fn failover(&self, k: usize) -> Result<(), Error> {
        let mut guard = self.control();
        let control = &mut *guard;
        let dead = control.fleet.groups[k].leader;
        control.emit(CoordEvent::LeaderDead {
            shard: k as u32,
            leader: dead,
        });
        let Some(follower) = control.fleet.groups[k].follower.take() else {
            return Err(shard_lost(k));
        };
        control.fleet.failovers += 1;
        let version = control.token();
        control.emit(CoordEvent::Promoting {
            shard: k as u32,
            follower,
            version,
        });
        let hint = control.fleet.groups[k].follower_hint.take();
        let (attempts, timeout) = (self.cfg.rpc_attempts, self.cfg.rpc_timeout);
        let promote = Request::Promote;
        match self.call(
            Some(control),
            follower,
            hint.as_deref(),
            promote,
            attempts,
            timeout,
        ) {
            Ok(ReplyBody::Done { wal_len, .. }) => {
                control.fleet.groups[k].leader = follower;
                control.fleet.groups[k].leader_hint = hint;
                control.fleet.stale.push(dead);
                control.emit(CoordEvent::Promoted {
                    shard: k as u32,
                    leader: follower,
                    wal_len,
                });
                // the promotion raised the fencing token: make it durable
                // before anything is served under it
                match control.journal.as_mut() {
                    Some(journal) => journal.rewrite_fleet(&control.fleet),
                    None => Ok(()),
                }
            }
            _ => Err(shard_lost(k)),
        }
    }
}

/// One shard of the coordinator's engine: a replication group reached over
/// the shared link (see the module docs).
pub struct RemoteShard<T: Transport> {
    k: usize,
    link: SharedLink<T>,
    /// The graph snapshot the group bootstraps from, until it has.
    boot: Option<Arc<[u8]>>,
    /// The partial as last read from the leader.
    partial: Scores,
    /// Whether no op that moves scores went out since `partial` was read.
    fresh: bool,
    /// Vertices the leader reported changed, not yet drained.
    dirty: Vec<VertexId>,
    brandes_runs: u64,
}

impl<T: Transport> RemoteShard<T> {
    /// Shard `k` over `link`, bootstrapping from `boot` if given (a
    /// resumed coordinator's shards already hold their state).
    pub(crate) fn new(link: SharedLink<T>, k: usize, boot: Option<Arc<[u8]>>) -> Self {
        RemoteShard {
            k,
            link,
            boot,
            partial: Scores::default(),
            fresh: false,
            dirty: Vec::new(),
            brandes_runs: 0,
        }
    }
}

impl<T: Transport> Shard for RemoteShard<T> {
    /// Send the group's leader the snapshot and its sources; the leader
    /// replicates entry 0 to its follower, which runs its own Brandes over
    /// the same snapshot. One long attempt, no failover.
    fn bootstrap(&mut self, sources: &[VertexId]) -> Result<u64, Error> {
        let k = self.k;
        let snapshot = self
            .boot
            .take()
            .ok_or_else(|| Error::invalid(format!("shard {k} has no graph to bootstrap from")))?;
        let spec = self.link.control().fleet.groups[k].clone();
        let req = Request::Bootstrap {
            shard: k as u32,
            snapshot: snapshot.to_vec(),
            sources: sources.to_vec(),
            follower: spec.follower,
            follower_hint: spec.follower_hint,
        };
        let (leader, hint) = (spec.leader, spec.leader_hint.as_deref());
        match self
            .link
            .rpc_with(leader, hint, req, 1, self.link.cfg.bootstrap_timeout)
        {
            Ok(ReplyBody::Bootstrapped { wal_len, brandes }) => {
                self.link.control().fleet.next_index[k] = wal_len;
                self.brandes_runs += brandes;
                Ok(brandes)
            }
            Ok(other) => Err(unexpected("bootstrap", &other)),
            Err(e) => Err(e.within(format!("bootstrap of shard {k}"))),
        }
    }

    /// The nodes keep their state across a coordinator restart: nothing to
    /// send.
    fn resume(&mut self, _owned: usize) -> Result<u64, Error> {
        Ok(0)
    }

    fn apply(&mut self, update: Update, adopts: bool) -> Result<(), Error> {
        let adopt = adopts.then(|| update.u.max(update.v));
        self.fresh = false;
        self.link.indexed(self.k, |index| Request::Apply {
            index,
            update,
            adopt,
        })?;
        self.brandes_runs += u64::from(adopts);
        Ok(())
    }

    /// Read from the leader unless no score-moving op went out since the
    /// last read; the reply also names the vertices that changed.
    fn partial(&mut self) -> Result<&Scores, Error> {
        if !self.fresh {
            match self.link.shard_rpc(self.k, Request::Partials)? {
                ReplyBody::Partials { scores, dirty } => {
                    self.partial = scores;
                    self.dirty.extend(dirty);
                    self.fresh = true;
                }
                other => return Err(unexpected("partials", &other)),
            }
        }
        Ok(&self.partial)
    }

    fn exact_sum(&mut self) -> Result<ExactSum, Error> {
        match self.link.shard_rpc(self.k, Request::ExactSum)? {
            ReplyBody::ExactSum { sum } => Ok(sum),
            other => Err(unexpected("exact-sum", &other)),
        }
    }

    fn export(&mut self, source: VertexId, _tag: u64) -> Result<ExportedRecord, Error> {
        match self
            .link
            .indexed(self.k, |index| Request::Export { index, source })?
        {
            ReplyBody::Exported { record, .. } => Ok(record),
            other => Err(unexpected("export", &other)),
        }
    }

    fn import(&mut self, record: ExportedRecord) -> Result<(), Error> {
        self.link
            .indexed(self.k, |index| Request::Import { index, record })
            .map(drop)
    }

    fn retire(&mut self, source: VertexId) -> Result<(), Error> {
        self.link
            .indexed(self.k, |index| Request::Retire { index, source })
            .map(drop)
    }

    /// Every op is already in the group's WAL before it is acknowledged.
    fn flush(&mut self) -> Result<(), Error> {
        Ok(())
    }

    fn drain_dirty(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.dirty)
    }

    fn brandes_runs(&self) -> u64 {
        self.brandes_runs
    }
}

#[cfg(test)]
impl<T: Transport> Link<T> {
    /// Calls registered with the router and not yet forgotten.
    pub(crate) fn in_flight(&self) -> usize {
        lock(&self.router.routes).pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{mailbox, Envelope};

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);

    /// Node `from`'s reply to request `seq`, acknowledging `wal_len` ops.
    fn reply(from: NodeId, seq: u64, wal_len: u64) -> Envelope {
        let reply = Reply::Ok(ReplyBody::Done {
            wal_len,
            deduped: false,
            degraded: false,
        });
        let frame = wire::encode(&NodeMsg::Reply { seq, reply });
        Envelope { from, frame }
    }

    fn wal_len(reply: Option<Reply>) -> Option<u64> {
        match reply? {
            Reply::Ok(ReplyBody::Done { wal_len, .. }) => Some(wal_len),
            other => panic!("not an acknowledgement: {other:?}"),
        }
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(20)
    }

    #[test]
    fn replies_nobody_awaits_are_dropped() {
        let (tx, mailbox) = mailbox();
        let router = Router::new(mailbox);
        router.expect(A, 5);
        // an older seq, and the same seq from another node
        tx.send(reply(A, 4, 40)).unwrap();
        tx.send(reply(B, 5, 50)).unwrap();
        assert_eq!(wal_len(router.wait(A, 5, soon())), None);
        // the awaited reply, then a copy of it
        tx.send(reply(A, 5, 1)).unwrap();
        tx.send(reply(A, 5, 2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(wal_len(router.wait(A, 5, deadline)), Some(1));
        router.forget(A, 5);
        // the copy arrives after the call ended: nobody takes it
        router.expect(A, 6);
        assert_eq!(wal_len(router.wait(A, 6, soon())), None);
        router.forget(A, 6);
        assert!(lock(&router.routes).pending.is_empty());
        assert!(router.mailbox.lock().unwrap().try_recv().is_none());
    }

    #[test]
    fn a_reply_reaches_its_caller_whoever_reads_it() {
        let (tx, mailbox) = mailbox();
        let router = Router::new(mailbox);
        router.expect(A, 1);
        router.expect(B, 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        std::thread::scope(|scope| {
            let for_a = scope.spawn(|| wal_len(router.wait(A, 1, deadline)));
            let for_b = scope.spawn(|| wal_len(router.wait(B, 2, deadline)));
            // B's reply first: whichever caller reads it hands it over
            tx.send(reply(B, 2, 20)).unwrap();
            tx.send(reply(A, 1, 10)).unwrap();
            assert_eq!(for_a.join().unwrap(), Some(10));
            assert_eq!(for_b.join().unwrap(), Some(20));
        });
    }
}
