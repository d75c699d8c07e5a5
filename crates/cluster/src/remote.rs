//! A remote shard: one replication group of [`ShardNode`](crate::node::ShardNode)s
//! behind the coordinator's one link.
//!
//! The coordinator's engine is the `ClusterEngine` a session drives; only
//! the way a shard is reached differs. A [`RemoteShard`] implements
//! [`Shard`] by sending its group's leader one wire request per call. All
//! remote shards of an engine share one link: the transport and
//! mailbox, the RPC sequence, the replication groups with their leases and
//! failover, the per-shard WAL cursors (`next_index`), the fencing token
//! and the coordinator journal. The link sits behind a mutex, so RPCs stay
//! one at a time however many scoped shard threads the engine runs.
//!
//! **Failure model.** A leader that exhausts the RPC retry budget
//! (`rpc_attempts × rpc_timeout` — the lease) is declared dead. Failover
//! promotes the shard's follower: count the failover (the fencing token
//! rises by one), send `Promote`, swap the group, persist the new groups —
//! and then *retry the same WAL index* against the new leader. Every
//! state-changing op carries its index, and the index dedup makes the
//! retry safe in both crash windows: if the dead leader never shipped the
//! entry ([`KillWindow::MidApply`](crate::node::KillWindow::MidApply)) the
//! promoted node appends it; if it shipped but never answered
//! ([`KillWindow::MidShip`](crate::node::KillWindow::MidShip)) the promoted
//! node answers from its log without re-applying. A second death in one
//! call, or a leader without a follower, is `Lost`, which poisons the
//! engine. Deposed leaders are remembered for `Coordinator::fence_stale`.
//!
//! **Fencing token.** Every frame carries the engine's map version
//! (adoptions plus moves) plus the failover count. Both only grow, so the
//! token does too, and a node refuses a frame below the highest token it
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Shard `k`'s leader died with no follower left to promote.
fn shard_lost(k: usize) -> Error {
    Error::lost(format!("shard {k}: leader dead and no follower to promote"))
}

/// A node answered with a reply of the wrong shape.
fn unexpected(what: &str, body: &ReplyBody) -> Error {
    Error::corrupt(format!("unexpected {what} reply: {body:?}"))
}

/// The coordinator's one link to its fleet (see the module docs).
pub(crate) struct Link<T: Transport> {
    transport: T,
    mailbox: Mailbox,
    pub(crate) cfg: CoordinatorConfig,
    /// The last RPC sequence number used.
    pub(crate) seq: u64,
    /// The engine's map version as the coordinator last stamped it.
    pub(crate) map_version: u64,
    pub(crate) fleet: FleetState,
    pub(crate) events: Option<EventHook>,
    /// Durable control state, when armed.
    pub(crate) journal: Option<CoordJournal>,
}

/// The link as the coordinator and its remote shards share it.
pub(crate) type SharedLink<T> = Arc<Mutex<Link<T>>>;

/// Lock the link. A panic while it was held came from a shard call, which
/// poisons the engine; from then on the link serves only best-effort calls
/// (status, fencing, shutdown), which a half-done failover does not stop.
pub(crate) fn lock<T: Transport>(link: &SharedLink<T>) -> MutexGuard<'_, Link<T>> {
    link.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T: Transport> Link<T> {
    /// A link with no shards yet.
    pub(crate) fn new(transport: T, mailbox: Mailbox, cfg: CoordinatorConfig) -> Self {
        Link {
            transport,
            mailbox,
            cfg,
            seq: 0,
            map_version: 0,
            fleet: FleetState::default(),
            events: None,
            journal: None,
        }
    }

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

    /// One RPC with retries: reserve the seq, send, await the matching
    /// seq, retry up to `attempts`. Stray frames (older seqs, duplicate
    /// acks) are drained and dropped. A seq the journal cannot reserve is
    /// `Io` and never sent: a resumed coordinator starts at the persisted
    /// ceiling, and nodes would drop its requests as late duplicates. A
    /// node that never answers — its lease expired — is `Lost` (node
    /// replies never carry that kind); a refusal is the node's error.
    pub(crate) fn rpc_with(
        &mut self,
        to: NodeId,
        hint: Option<String>,
        req: Request,
        attempts: u32,
        timeout: Duration,
    ) -> Result<ReplyBody, Error> {
        self.seq += 1;
        let seq = self.seq;
        if let Some(journal) = self.journal.as_mut() {
            journal.reserve_seq(seq)?;
        }
        let frame = wire::encode(&NodeMsg::Request {
            seq,
            version: self.token(),
            req,
        });
        for _ in 0..attempts {
            match self.transport.send(to, hint.as_deref(), &frame) {
                Err(e) if e.kind() == ErrorKind::Lost => return Err(e),
                Err(_) => {
                    std::thread::sleep(timeout.min(Duration::from_millis(50)));
                    continue;
                }
                Ok(()) => {}
            }
            let deadline = Instant::now() + timeout;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let Some(env) = self.mailbox.recv_timeout(deadline - now) else {
                    break;
                };
                if env.from != to {
                    continue;
                }
                let Ok(NodeMsg::Reply { seq: s, reply }) = wire::decode(&env.frame) else {
                    continue;
                };
                if s != seq {
                    continue; // stale reply from an earlier attempt/request
                }
                return match reply {
                    Reply::Ok(body) => Ok(body),
                    Reply::Err(e) => Err(e),
                };
            }
        }
        Err(Error::lost(format!("{to} unreachable")))
    }

    pub(crate) fn rpc(
        &mut self,
        to: NodeId,
        hint: Option<String>,
        req: Request,
    ) -> Result<ReplyBody, Error> {
        let (attempts, timeout) = (self.cfg.rpc_attempts, self.cfg.rpc_timeout);
        self.rpc_with(to, hint, req, attempts, timeout)
    }

    /// Shard-directed RPC: on a dead leader, fail over and retry against
    /// the promoted follower. At most one failover per call — a second
    /// death means the whole group is gone.
    pub(crate) fn shard_rpc(&mut self, k: usize, req: Request) -> Result<ReplyBody, Error> {
        let mut failed_over = false;
        loop {
            let group = &self.fleet.groups[k];
            let (leader, hint) = (group.leader, group.leader_hint.clone());
            match self.rpc(leader, hint, req.clone()) {
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
    /// log length becomes the shard's next index.
    fn indexed(&mut self, k: usize, req: impl FnOnce(u64) -> Request) -> Result<ReplyBody, Error> {
        let reply = self.shard_rpc(k, req(self.fleet.next_index[k]))?;
        match &reply {
            ReplyBody::Done { wal_len, .. } | ReplyBody::Exported { wal_len, .. } => {
                self.fleet.next_index[k] = *wal_len;
                Ok(reply)
            }
            other => Err(unexpected("op", other)),
        }
    }

    /// Promote shard `k`'s follower after its leader's lease expired.
    fn failover(&mut self, k: usize) -> Result<(), Error> {
        let dead = self.fleet.groups[k].leader;
        self.emit(CoordEvent::LeaderDead {
            shard: k as u32,
            leader: dead,
        });
        let Some(follower) = self.fleet.groups[k].follower.take() else {
            return Err(shard_lost(k));
        };
        self.fleet.failovers += 1;
        let version = self.token();
        self.emit(CoordEvent::Promoting {
            shard: k as u32,
            follower,
            version,
        });
        let hint = self.fleet.groups[k].follower_hint.take();
        match self.rpc(follower, hint.clone(), Request::Promote) {
            Ok(ReplyBody::Done { wal_len, .. }) => {
                self.fleet.groups[k].leader = follower;
                self.fleet.groups[k].leader_hint = hint;
                self.fleet.stale.push(dead);
                self.emit(CoordEvent::Promoted {
                    shard: k as u32,
                    leader: follower,
                    wal_len,
                });
                // the promotion raised the fencing token: make it durable
                // before anything is served under it
                match self.journal.as_mut() {
                    Some(journal) => journal.rewrite_fleet(&self.fleet),
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
        let mut link = lock(&self.link);
        let spec = link.fleet.groups[k].clone();
        let req = Request::Bootstrap {
            shard: k as u32,
            snapshot: snapshot.to_vec(),
            sources: sources.to_vec(),
            follower: spec.follower,
            follower_hint: spec.follower_hint,
        };
        let timeout = link.cfg.bootstrap_timeout;
        match link.rpc_with(spec.leader, spec.leader_hint, req, 1, timeout) {
            Ok(ReplyBody::Bootstrapped { wal_len, brandes }) => {
                link.fleet.next_index[k] = wal_len;
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
        lock(&self.link).indexed(self.k, |index| Request::Apply {
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
            match lock(&self.link).shard_rpc(self.k, Request::Partials)? {
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
        match lock(&self.link).shard_rpc(self.k, Request::ExactSum)? {
            ReplyBody::ExactSum { sum } => Ok(sum),
            other => Err(unexpected("exact-sum", &other)),
        }
    }

    fn export(&mut self, source: VertexId, _tag: u64) -> Result<ExportedRecord, Error> {
        match lock(&self.link).indexed(self.k, |index| Request::Export { index, source })? {
            ReplyBody::Exported { record, .. } => Ok(record),
            other => Err(unexpected("export", &other)),
        }
    }

    fn import(&mut self, record: ExportedRecord) -> Result<(), Error> {
        lock(&self.link)
            .indexed(self.k, |index| Request::Import { index, record })
            .map(drop)
    }

    fn retire(&mut self, source: VertexId) -> Result<(), Error> {
        lock(&self.link)
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
