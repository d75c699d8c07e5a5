//! The coordinator: the cluster's control plane and sole write path.
//!
//! A [`Coordinator`] owns the versioned [`ShardMap`] (the Clarium-style
//! registry/map/lease triple: which node leads which shard, at which map
//! version, with the RPC retry budget acting as the lease), a private
//! structural [`Graph`] replica every update is folded into
//! ([`Update::fold_into`], the validation every embodiment shares) before
//! anything is dispatched, and the
//! per-shard `next_index` cursors that make the WAL-indexed op stream
//! exactly-once end to end.
//!
//! **Failure model.** A leader that exhausts the RPC retry budget
//! (`rpc_attempts × rpc_timeout` — the lease) is declared dead. Failover
//! promotes the shard's follower: bump the map version (the new fencing
//! token), send `Promote`, swap the group — and then *retry the same WAL
//! index* against the new leader. The index dedup makes the retry safe in
//! both crash windows: if the dead leader never shipped the entry
//! ([`KillWindow::MidApply`](crate::node::KillWindow::MidApply)) the
//! promoted node appends it; if it shipped but never answered
//! ([`KillWindow::MidShip`](crate::node::KillWindow::MidShip)) the promoted
//! node answers from its log without re-applying. Stale leaders that were
//! merely partitioned are remembered and fenced with `Demote` once
//! reachable ([`Coordinator::fence_stale`]).
//!
//! Reads fold deterministically: the fast reduce sums shard partials in
//! ascending shard order ([`Scores::fold`], the cluster engine's fold too);
//! `reduce_exact` adds the shards' fixed-point exact sums, which is bitwise
//! invariant to the partitioning *and* to how many failovers rewrote the
//! groups.
//!
//! Every call reports failure as one [`Error`]: an update the replica
//! refuses or a move the map cannot record is `Invalid` before any node is
//! touched, a node's refusal arrives with the node's own kind (`Fenced`,
//! `Invalid`, `Corrupt`, ...), and a shard whose leader died with no
//! follower left is `Lost`.

use crate::journal::{CoordJournal, CoordSnapshot, JournalEntry, JournalRecord};
use crate::transport::{Mailbox, Transport};
use crate::wire::{self, NodeId, NodeMsg, Reply, ReplyBody, Request};
use ebc_core::api::RebalanceOutcome;
use ebc_core::exact::ExactSum;
use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};
use ebc_engine::shardmap::{ShardMap, SourceMove};
use ebc_graph::Graph;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timing and retry policy.
#[derive(Clone)]
pub struct CoordinatorConfig {
    /// Per-attempt reply wait.
    pub rpc_timeout: Duration,
    /// Attempts before a node is declared dead — `rpc_attempts ×
    /// rpc_timeout` is the lease a leader must renew by answering.
    pub rpc_attempts: u32,
    /// Reply wait for `Bootstrap` (Brandes over a partition dwarfs normal
    /// ops; a single long attempt, not a retry ladder).
    pub bootstrap_timeout: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            rpc_timeout: Duration::from_millis(300),
            rpc_attempts: 5,
            bootstrap_timeout: Duration::from_secs(60),
        }
    }
}

/// One shard's replication group as the coordinator sees it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Current leader.
    pub leader: NodeId,
    /// Current follower, if the group still has one.
    pub follower: Option<NodeId>,
    /// Dial hint for the leader (stream transports).
    pub leader_hint: Option<String>,
    /// Dial hint for the follower, forwarded to the leader for WAL
    /// shipping.
    pub follower_hint: Option<String>,
}

impl ShardSpec {
    /// A group with no dial hints (in-process fabrics).
    pub fn new(leader: NodeId, follower: Option<NodeId>) -> Self {
        ShardSpec {
            leader,
            follower,
            leader_hint: None,
            follower_hint: None,
        }
    }
}

/// An observer of [`CoordEvent`]s, registered via
/// [`Coordinator::set_event_hook`].
pub type EventHook = Box<dyn FnMut(&CoordEvent) + Send>;

/// Control-plane transitions, surfaced for observability — and as the
/// deterministic injection point the failover tests hook (e.g. releasing a
/// zombie leader's held frames exactly while a promotion is in flight).
#[derive(Debug, Clone)]
pub enum CoordEvent {
    /// A leader exhausted its lease.
    LeaderDead {
        /// The shard.
        shard: u32,
        /// The unresponsive leader.
        leader: NodeId,
    },
    /// About to promote `follower`; the map version has already advanced.
    Promoting {
        /// The shard.
        shard: u32,
        /// The follower being promoted.
        follower: NodeId,
        /// The new fencing version.
        version: u64,
    },
    /// Promotion acknowledged; the group now serves from `leader`.
    Promoted {
        /// The shard.
        shard: u32,
        /// The new leader.
        leader: NodeId,
        /// The follower's WAL length at promotion.
        wal_len: u64,
    },
}

/// Shard `k`'s leader died with no follower left to promote.
fn shard_lost(k: usize) -> Error {
    Error::lost(format!("shard {k}: leader dead and no follower to promote"))
}

/// A node answered with a reply of the wrong shape.
fn unexpected(what: &str, body: &ReplyBody) -> Error {
    Error::corrupt(format!("unexpected {what} reply: {body:?}"))
}

/// Outcome of one replicated update.
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Shard that adopted a newly arrived vertex, if the update grew the
    /// graph.
    pub adopter: Option<usize>,
    /// Shards currently serving without a live follower.
    pub degraded: Vec<u32>,
    /// Failovers performed while applying this update.
    pub failovers: u32,
}

/// The cluster control plane. Generic over [`Transport`] like the nodes.
pub struct Coordinator<T: Transport> {
    transport: T,
    mailbox: Mailbox,
    cfg: CoordinatorConfig,
    replica: Graph,
    map: ShardMap,
    groups: Vec<ShardSpec>,
    next_index: Vec<u64>,
    seq: u64,
    failovers: u64,
    stale: Vec<NodeId>,
    /// Every node ever registered, with its dial hint — demoted
    /// stragglers included, so fencing, status probes, and
    /// [`Coordinator::shutdown`] can reach nodes no group references
    /// (or that the transport never dialed).
    known: std::collections::BTreeMap<NodeId, Option<String>>,
    events: Option<EventHook>,
    /// Durable control state, when [`Coordinator::persist_to`] armed it
    /// (or [`Coordinator::resume`] reopened it).
    journal: Option<CoordJournal>,
}

impl<T: Transport> Coordinator<T> {
    /// A coordinator with no shards yet; call
    /// [`bootstrap`](Coordinator::bootstrap) next.
    pub fn new(transport: T, mailbox: Mailbox, cfg: CoordinatorConfig) -> Self {
        Coordinator {
            transport,
            mailbox,
            cfg,
            replica: Graph::new(),
            map: ShardMap::bootstrap(0, 1),
            groups: Vec::new(),
            next_index: Vec::new(),
            seq: 0,
            failovers: 0,
            stale: Vec::new(),
            known: std::collections::BTreeMap::new(),
            events: None,
            journal: None,
        }
    }

    /// Arm durable control state at `dir`: every map-changing event
    /// (bootstrap, failover, handoff) rewrites a checksummed snapshot
    /// there, and every applied update is write-ahead journaled, so
    /// [`Coordinator::resume`] can restart this coordinator over the
    /// running fleet. Call before [`bootstrap`](Coordinator::bootstrap);
    /// calling later snapshots the current state immediately.
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<(), Error> {
        self.journal = Some(CoordJournal::create(dir)?);
        if !self.groups.is_empty() {
            self.snapshot_now(false)?;
        }
        Ok(())
    }

    /// Rewrite the durable snapshot from the live state. `in_flight`
    /// marks the newest journal record as possibly part-dispatched so
    /// [`Coordinator::resume`] re-drives it. No-op without a journal.
    fn snapshot_now(&mut self, in_flight: bool) -> Result<(), Error> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let applied = journal.len();
        let owned = (0..self.map.num_shards())
            .map(|k| self.map.sources_of(k).to_vec())
            .collect();
        let snap = CoordSnapshot {
            version: self.map.version(),
            applied,
            failovers: self.failovers,
            groups: self
                .groups
                .iter()
                .map(|g| {
                    (
                        g.leader.0,
                        g.follower.map(|f| f.0),
                        g.leader_hint.clone(),
                        g.follower_hint.clone(),
                    )
                })
                .collect(),
            owned,
            known: self.known.iter().map(|(n, h)| (n.0, h.clone())).collect(),
            stale: self.stale.iter().map(|n| n.0).collect(),
            next_index: self.next_index.clone(),
            graph: self.replica.snapshot_bytes(),
        };
        journal.write_snapshot(&snap, in_flight)
    }

    /// Restart a coordinator from the durable state a previous
    /// incarnation left in `dir`, resuming command of the running node
    /// fleet: reload the snapshot, re-fold the journaled update suffix
    /// into the replica and map, re-drive the last journaled update at
    /// its recorded WAL indices (the nodes' index dedup makes the retry
    /// exactly-once in every crash window), and continue the RPC
    /// sequence past the persisted reservation so nodes do not drop the
    /// new incarnation's requests as stale.
    ///
    /// A crash *mid-handoff* is the one window this does not cover: the
    /// donor may have retired a source the snapshot still assigns to it.
    /// Re-bootstrap the cluster in that case.
    pub fn resume(
        transport: T,
        mailbox: Mailbox,
        cfg: CoordinatorConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, Error> {
        let (journal, snap, base, records) = CoordJournal::open(dir)?;
        let replica =
            Graph::from_snapshot_bytes(&snap.graph).map_err(|e| e.within("graph replica"))?;
        let map = ShardMap::from_assignment_versioned(snap.owned.clone(), snap.version)
            .map_err(|e| Error::corrupt(format!("shard map: {}", e.context())))?;
        let groups = snap
            .groups
            .iter()
            .map(|(leader, follower, lh, fh)| ShardSpec {
                leader: NodeId(*leader),
                follower: follower.map(NodeId),
                leader_hint: lh.clone(),
                follower_hint: fh.clone(),
            })
            .collect();
        let seq = journal.reserved_seq();
        let mut coord = Coordinator {
            transport,
            mailbox,
            cfg,
            replica,
            map,
            groups,
            next_index: snap.next_index.clone(),
            seq,
            failovers: snap.failovers,
            stale: snap.stale.iter().copied().map(NodeId).collect(),
            known: snap
                .known
                .iter()
                .map(|(n, h)| (NodeId(*n), h.clone()))
                .collect(),
            events: None,
            journal: Some(journal),
        };
        // re-fold the journal suffix the snapshot predates
        for (i, rec) in records.iter().enumerate() {
            if base + i as u64 >= snap.applied {
                let adopter = coord.fold(rec.entry.update)?;
                debug_assert_eq!(adopter.map(|k| k as u32), rec.entry.adopter);
            }
        }
        // re-drive the newest journaled update: shards that executed it
        // answer from their dedup window, shards the crash cut off
        // append it now — and every reply resyncs `next_index`
        if let Some(last) = records.last().cloned() {
            for k in 0..coord.groups.len() {
                let adopt = (last.entry.adopter == Some(k as u32))
                    .then(|| last.entry.update.u.max(last.entry.update.v));
                match coord.shard_rpc(
                    k,
                    Request::Apply {
                        index: last.indices[k],
                        update: last.entry.update,
                        adopt,
                    },
                )? {
                    ReplyBody::Done { wal_len, .. } => coord.next_index[k] = wal_len,
                    other => return Err(unexpected("resume", &other)),
                }
            }
        }
        coord.snapshot_now(false)?;
        Ok(coord)
    }

    /// Install an observer for control-plane transitions.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.events = Some(hook);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// Current map version (the fencing token).
    pub fn version(&self) -> u64 {
        self.map.version()
    }

    /// Failovers performed since bootstrap.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The structural replica (matches every node's, by construction).
    pub fn graph(&self) -> &Graph {
        &self.replica
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Current replication groups.
    pub fn groups(&self) -> &[ShardSpec] {
        &self.groups
    }

    fn emit(&mut self, ev: CoordEvent) {
        if let Some(hook) = self.events.as_mut() {
            hook(&ev);
        }
    }

    /// One RPC with retries: send, await the matching seq, retry up to
    /// `attempts`. Stray frames (older seqs, duplicate acks) are drained
    /// and dropped. A node that never answers — its lease expired — is
    /// `Lost` (node replies never carry that kind); a refusal is the
    /// node's error.
    fn rpc_with(
        &mut self,
        to: NodeId,
        hint: Option<String>,
        req: Request,
        attempts: u32,
        timeout: Duration,
    ) -> Result<ReplyBody, Error> {
        self.seq += 1;
        let seq = self.seq;
        if let Some(j) = self.journal.as_mut() {
            // extend the persisted seq ceiling so a resumed incarnation
            // starts past every seq this one ever used (best-effort: a
            // failed rewrite retries on the next RPC)
            let _ = j.reserve_seq(seq);
        }
        let frame = wire::encode(&NodeMsg::Request {
            seq,
            version: self.map.version(),
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

    fn rpc(&mut self, to: NodeId, hint: Option<String>, req: Request) -> Result<ReplyBody, Error> {
        let (attempts, timeout) = (self.cfg.rpc_attempts, self.cfg.rpc_timeout);
        self.rpc_with(to, hint, req, attempts, timeout)
    }

    /// Shard-directed RPC: on a dead leader, fail over and retry against
    /// the promoted follower (versions and indexes make the retry
    /// exactly-once). At most one failover per call — a second death means
    /// the whole group is gone.
    fn shard_rpc(&mut self, k: usize, req: Request) -> Result<ReplyBody, Error> {
        let mut failed_over = false;
        loop {
            let (leader, hint) = {
                let g = &self.groups[k];
                (g.leader, g.leader_hint.clone())
            };
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

    /// Promote shard `k`'s follower after its leader's lease expired.
    fn failover(&mut self, k: usize) -> Result<(), Error> {
        let dead = self.groups[k].leader;
        self.emit(CoordEvent::LeaderDead {
            shard: k as u32,
            leader: dead,
        });
        let Some(follower) = self.groups[k].follower.take() else {
            return Err(shard_lost(k));
        };
        let version = self.map.bump_version();
        self.emit(CoordEvent::Promoting {
            shard: k as u32,
            follower,
            version,
        });
        let hint = self.groups[k].follower_hint.clone();
        match self.rpc(follower, hint.clone(), Request::Promote) {
            Ok(ReplyBody::Done { wal_len, .. }) => {
                self.groups[k].leader = follower;
                self.groups[k].leader_hint = hint;
                self.groups[k].follower_hint = None;
                self.failovers += 1;
                self.stale.push(dead);
                self.emit(CoordEvent::Promoted {
                    shard: k as u32,
                    leader: follower,
                    wal_len,
                });
                // the promotion bumped the fencing version: make it
                // durable before anything is served under it (the
                // newest journal record may still be part-dispatched)
                self.snapshot_now(true)
            }
            _ => Err(shard_lost(k)),
        }
    }

    /// Stand the cluster up: install the map over `g.n()` sources and
    /// `specs.len()` shards, snapshot the graph, and bootstrap every
    /// group's leader (each leader replicates entry 0 to its follower,
    /// which runs its own Brandes over the same snapshot). No shard at
    /// all is `Invalid`.
    pub fn bootstrap(&mut self, g: &Graph, specs: Vec<ShardSpec>) -> Result<(), Error> {
        if specs.is_empty() {
            return Err(Error::invalid("a cluster needs at least one shard"));
        }
        self.replica = g.clone();
        self.map = ShardMap::bootstrap(g.n(), specs.len());
        self.groups = specs;
        self.known = self
            .groups
            .iter()
            .flat_map(|s| {
                std::iter::once((s.leader, s.leader_hint.clone()))
                    .chain(s.follower.map(|f| (f, s.follower_hint.clone())))
            })
            .collect();
        self.next_index = vec![0; self.groups.len()];
        let snapshot = self.replica.snapshot_bytes();
        for k in 0..self.groups.len() {
            let sources = self.map.sources_of(k).to_vec();
            let (leader, leader_hint, follower, follower_hint) = {
                let s = &self.groups[k];
                (
                    s.leader,
                    s.leader_hint.clone(),
                    s.follower,
                    s.follower_hint.clone(),
                )
            };
            let req = Request::Bootstrap {
                shard: k as u32,
                snapshot: snapshot.clone(),
                sources,
                follower,
                follower_hint,
            };
            let timeout = self.cfg.bootstrap_timeout;
            match self.rpc_with(leader, leader_hint, req, 1, timeout) {
                Ok(ReplyBody::Bootstrapped { wal_len, .. }) => {
                    self.next_index[k] = wal_len;
                }
                Ok(other) => return Err(unexpected("bootstrap", &other)),
                Err(e) => return Err(e.within(format!("bootstrap of shard {k}"))),
            }
        }
        self.snapshot_now(false)?;
        Ok(())
    }

    /// Fold one update into the replica ([`Update::fold_into`]: a rejected
    /// update leaves no trace) and let the map adopt an arriving vertex.
    /// Deterministic, so a resumed coordinator re-derives identical state
    /// by re-folding the journaled update suffix. Returns the adopting
    /// shard, if any.
    fn fold(&mut self, update: Update) -> Result<Option<usize>, Error> {
        let (arriving, _) = update.fold_into(&mut self.replica)?;
        arriving.map(|s| self.map.adopt(s)).transpose()
    }

    /// Replicate one edge update across every shard (the paper's map
    /// phase, over the wire): validate against the replica, assign
    /// adoption if the graph grew, then fan the WAL-indexed op to each
    /// leader — failing over and retrying the same index when a lease
    /// expires.
    pub fn apply(&mut self, update: Update) -> Result<ApplyReport, Error> {
        let adopter = self.fold(update)?;
        if let Some(journal) = self.journal.as_mut() {
            // write-ahead: journal the update and its dispatch indices
            // before any shard sees it, so a resumed coordinator can
            // re-drive exactly this entry at exactly these indices
            journal.append(&JournalRecord {
                entry: JournalEntry {
                    update,
                    adopter: adopter.map(|k| k as u32),
                },
                indices: self.next_index.clone(),
            })?;
        }
        let before = self.failovers;
        let mut degraded = Vec::new();
        for k in 0..self.groups.len() {
            let adopt = (adopter == Some(k)).then(|| update.u.max(update.v));
            let index = self.next_index[k];
            match self.shard_rpc(
                k,
                Request::Apply {
                    index,
                    update,
                    adopt,
                },
            )? {
                ReplyBody::Done {
                    wal_len,
                    degraded: d,
                    ..
                } => {
                    self.next_index[k] = wal_len;
                    if d {
                        degraded.push(k as u32);
                    }
                }
                other => return Err(unexpected("apply", &other)),
            }
        }
        Ok(ApplyReport {
            adopter,
            degraded,
            failovers: (self.failovers - before) as u32,
        })
    }

    /// The fast reduce (`t_M`): fold shard partials in ascending shard
    /// order ([`Scores::fold`]).
    pub fn reduce(&mut self) -> Result<Scores, Error> {
        let mut partials = Vec::with_capacity(self.groups.len());
        for k in 0..self.groups.len() {
            match self.shard_rpc(k, Request::Partials)? {
                ReplyBody::Partials { scores } => partials.push(scores),
                other => return Err(unexpected("partials", &other)),
            }
        }
        Ok(Scores::fold(
            self.replica.n(),
            self.replica.edge_slots(),
            &partials,
        ))
    }

    /// The exact reduce: add every shard's exact sum, each checked against
    /// the map's source count and the replica's shape — bitwise equal to a
    /// serial replay regardless of partitioning, handoffs, or how many
    /// failovers rewrote the groups. A sum covering the wrong sources is
    /// `Corrupt`.
    pub fn reduce_exact(&mut self) -> Result<Scores, Error> {
        let (n, edge_slots) = (self.replica.n(), self.replica.edge_slots());
        let mut total = ExactSum::new(n, edge_slots);
        for k in 0..self.groups.len() {
            let sum = match self.shard_rpc(k, Request::ExactSum)? {
                ReplyBody::ExactSum { sum } => sum,
                other => return Err(unexpected("exact-sum", &other)),
            };
            sum.check(self.map.sources_of(k).len(), n, edge_slots)
                .map_err(|e| e.within(format!("shard {k}")))?;
            total.merge(&sum);
        }
        Ok(total.into_scores())
    }

    /// Move one source between shards over the wire: export from the
    /// donor, import at the recipient, then commit the move in the map
    /// (bumping the version). A move the map cannot record — a donor that
    /// does not own the source, a recipient shard that does not exist, or
    /// a move onto the owner itself — is `Invalid` naming the source
    /// ([`ShardMap::check_move`]) before any shard is touched.
    pub fn handoff(&mut self, mv: &SourceMove) -> Result<(), Error> {
        self.map.check_move(mv)?;
        let record = match self.shard_rpc(mv.from, Request::Export { source: mv.source })? {
            ReplyBody::Exported {
                record, wal_len, ..
            } => {
                self.next_index[mv.from] = wal_len;
                record
            }
            other => return Err(unexpected("export", &other)),
        };
        match self.shard_rpc(mv.to, Request::Import { record })? {
            ReplyBody::Done { wal_len, .. } => self.next_index[mv.to] = wal_len,
            other => return Err(unexpected("import", &other)),
        }
        self.map.apply_move(mv)?;
        self.snapshot_now(false)
    }

    /// Restore the ownership skew invariant by executing the map's
    /// deterministic rebalance plan as wire handoffs. Returns the executed
    /// moves in commit order, the threshold the plan applied and the
    /// resulting map version.
    pub fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        let plan = self.map.plan_rebalance(threshold);
        for mv in &plan.moves {
            self.handoff(mv)?;
        }
        Ok(RebalanceOutcome {
            moves: plan
                .moves
                .iter()
                .map(|mv| (mv.source, mv.from, mv.to))
                .collect(),
            threshold: plan.threshold,
            map_version: self.version(),
        })
    }

    /// Fence every leader deposed by a failover that may still be alive
    /// behind a healed partition: send `Demote` at the current (higher)
    /// map version, clearing their shard state. Unreachable nodes stay
    /// queued for the next call. Returns how many were demoted.
    pub fn fence_stale(&mut self) -> usize {
        let stale = std::mem::take(&mut self.stale);
        let mut demoted = 0;
        for node in stale {
            let hint = self.hint_of(node);
            match self.rpc(node, hint, Request::Demote) {
                Ok(_) => demoted += 1,
                Err(_) => self.stale.push(node),
            }
        }
        demoted
    }

    fn hint_of(&self, node: NodeId) -> Option<String> {
        self.known.get(&node).cloned().flatten()
    }

    /// Query one node's status (diagnostics; unfenced).
    pub fn node_status(&mut self, to: NodeId) -> Result<ReplyBody, Error> {
        let hint = self.hint_of(to);
        self.rpc(to, hint, Request::Status)
    }

    /// Drain the cluster: best-effort `Shutdown` to every known node
    /// (leaders, followers, and fenced stragglers).
    pub fn shutdown(mut self) {
        let _ = self.snapshot_now(false); // park a clean resume point
        let mut targets: Vec<NodeId> = self.known.keys().copied().collect();
        for g in &self.groups {
            targets.push(g.leader);
            targets.extend(g.follower);
        }
        targets.extend(self.stale.iter().copied());
        targets.sort_unstable();
        targets.dedup();
        for node in targets {
            let hint = self.hint_of(node);
            let _ = self.rpc_with(node, hint, Request::Shutdown, 1, self.cfg.rpc_timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;

    fn ring(n: u32) -> Graph {
        let mut g = Graph::with_vertices(n as usize);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n).unwrap();
        }
        g
    }

    #[test]
    fn invalid_handoffs_are_refused_before_any_rpc() {
        let g = ring(8);
        let mut sim = SimBuilder::new(2).launch(&g).unwrap();
        let source = sim.coord.map().sources_of(0)[0];
        let state = |coord: &mut Coordinator<_>| {
            let exact = coord.reduce_exact().unwrap();
            let bits: Vec<u64> = exact
                .vbc
                .iter()
                .chain(&exact.ebc)
                .map(|x| x.to_bits())
                .collect();
            (
                coord.version(),
                coord.map().owner_of(source),
                coord.next_index.clone(),
                bits,
            )
        };
        let before = state(&mut sim.coord);
        for (why, from, to) in [
            ("missing shard", 0, 2),
            ("current owner", 0, 0),
            ("wrong donor", 1, 0),
        ] {
            match sim.coord.handoff(&SourceMove { source, from, to }) {
                Err(e) if e.kind() == ErrorKind::Invalid && e.source_vertex() == Some(source) => {}
                other => panic!("{why}: expected a typed refusal, got {other:?}"),
            }
            assert_eq!(
                state(&mut sim.coord),
                before,
                "{why}: the refusal left a trace"
            );
        }
        // the cluster still hands the source over where it can go
        sim.coord
            .handoff(&SourceMove {
                source,
                from: 0,
                to: 1,
            })
            .unwrap();
        assert_eq!(sim.coord.map().owner_of(source), Some(1));
        sim.shutdown();
    }

    #[test]
    fn reduce_exact_refuses_a_missing_or_doubled_shard() {
        let g = ring(8);
        // export one of shard 0's sources behind the map's back
        let export = |coord: &mut Coordinator<_>| {
            let source = coord.map().sources_of(0)[0];
            match coord.shard_rpc(0, Request::Export { source }).unwrap() {
                ReplyBody::Exported { record, .. } => record,
                other => panic!("unexpected export reply: {other:?}"),
            }
        };
        // missing: shard 0 no longer sums a source the map says it owns
        let mut sim = SimBuilder::new(2).unreplicated().launch(&g).unwrap();
        export(&mut sim.coord);
        assert!(is_short_or_padded(&sim.coord.reduce_exact().unwrap_err()));
        sim.shutdown();
        // doubled: shard 1 also sums a source shard 0 still owns
        let mut sim = SimBuilder::new(2).unreplicated().launch(&g).unwrap();
        let record = export(&mut sim.coord);
        for k in [0, 1] {
            let record = record.clone();
            sim.coord.shard_rpc(k, Request::Import { record }).unwrap();
        }
        assert!(is_short_or_padded(&sim.coord.reduce_exact().unwrap_err()));
        sim.shutdown();
    }

    fn is_short_or_padded(e: &Error) -> bool {
        e.kind() == ErrorKind::Corrupt && e.context().contains("exact sum covers")
    }

    /// A coordinator asked to stand up no shard at all refuses, rather
    /// than panicking.
    #[test]
    fn bootstrap_without_shards_is_invalid() {
        let (_tx, mailbox) = crate::transport::mailbox();
        let net = crate::transport::TestNet::new();
        let mut coord = Coordinator::new(
            net.transport(crate::wire::COORD),
            mailbox,
            CoordinatorConfig::default(),
        );
        let err = coord.bootstrap(&ring(4), Vec::new()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid, "{err}");
    }
}
