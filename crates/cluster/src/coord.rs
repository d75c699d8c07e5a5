//! The coordinator: the fleet's control plane and sole write path.
//!
//! A [`Coordinator`] is the one engine every session drives, a
//! `ClusterEngine` — its validation replica, versioned `ShardMap`, fold,
//! adoption, reduce, exact check, handoff and rebalance — over
//! [`RemoteShard`]s, each a replication group of nodes reached over one
//! shared link ([`crate::remote`], which also holds leases, failover and
//! the fencing token). Beside the engine it keeps only what a fleet alone
//! has: the durable journal, the failover count, stale-leader fencing,
//! node status and shutdown.
//!
//! **Writes.** [`Coordinator::apply`] is the engine's fold (validate,
//! adopt), then a write-ahead journal record of the update and its
//! per-shard WAL indices, then the engine's run (one scoped round in which
//! every remote shard sends its leader the update at its index). One
//! update per call, because the journal is per update.
//!
//! **Failure.** An update the replica refuses, or a move the map cannot
//! record, is `Invalid` before any node is touched, and the coordinator
//! stays usable. A node's refusal (`Fenced`, `Invalid`, `Corrupt`, ...) or
//! a shard whose leader died with no follower left (`Lost`) poisons the
//! engine as a local shard error would: that call returns it, later calls
//! are `Lost`. So does a journal failure between fold and run, which
//! leaves the replica ahead of every shard.
//!
//! **Fencing.** Every frame carries the engine's map version plus the
//! failover count; [`Coordinator::version`] reports that token. Stale
//! leaders that were merely partitioned are remembered and fenced with
//! `Demote` once reachable ([`Coordinator::fence_stale`]).

use crate::journal::{CoordJournal, CoordSnapshot, JournalEntry, JournalRecord};
use crate::remote::{Link, RemoteShard, SharedLink};
use crate::transport::{Mailbox, Transport};
use crate::wire::{NodeId, ReplyBody, Request};
use ebc_core::api::RebalanceOutcome;
use ebc_core::rankindex::ScoreDelta;
use ebc_core::scores::Scores;
use ebc_core::shard::Shard;
use ebc_core::state::Update;
use ebc_core::Error;
use ebc_engine::shardmap::{ShardMap, SourceMove};
use ebc_engine::{ApplyReport, ClusterEngine, Folded};
use ebc_graph::Graph;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// About to promote `follower`; the fencing token has already risen.
    Promoting {
        /// The shard.
        shard: u32,
        /// The follower being promoted.
        follower: NodeId,
        /// The new fencing token.
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

/// The engine a coordinator drives.
type Engine<T> = ClusterEngine<RemoteShard<T>>;

fn not_bootstrapped() -> Error {
    Error::invalid("the coordinator has no shards yet: bootstrap it first")
}

/// The fleet control plane. Generic over [`Transport`] like the nodes.
pub struct Coordinator<T: Transport> {
    /// The one engine, over remote shards, once bootstrapped.
    engine: Option<Engine<T>>,
    link: SharedLink<T>,
}

impl<T: Transport> Coordinator<T> {
    /// A coordinator with no shards yet; call
    /// [`bootstrap`](Coordinator::bootstrap) next.
    pub fn new(transport: T, mailbox: Mailbox, cfg: CoordinatorConfig) -> Self {
        Coordinator {
            engine: None,
            link: Arc::new(Link::new(transport, mailbox, cfg)),
        }
    }

    /// The engine, with the link stamping frames at its map version.
    fn engine(&mut self) -> Result<&mut Engine<T>, Error> {
        let engine = self.engine.as_mut().ok_or_else(not_bootstrapped)?;
        self.link.control().map_version = engine.shard_map().version();
        Ok(engine)
    }

    /// The link, stamping frames at the engine's map version.
    fn link(&self) -> &Link<T> {
        if let Some(engine) = &self.engine {
            self.link.control().map_version = engine.shard_map().version();
        }
        &self.link
    }

    /// Arm durable control state at `dir`: the first block of RPC
    /// sequence numbers is reserved now, every map-changing event
    /// (bootstrap, failover, handoff) rewrites a checksummed snapshot there,
    /// and every applied update is write-ahead journaled, so
    /// [`Coordinator::resume`] can restart this coordinator over the
    /// running fleet. Call before [`bootstrap`](Coordinator::bootstrap);
    /// calling later snapshots the current state immediately.
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<(), Error> {
        let mut journal = CoordJournal::create(dir)?;
        {
            let mut control = self.link.control();
            journal.reserve_seq(control.seq)?;
            control.journal = Some(journal);
        }
        self.snapshot_now(false)
    }

    /// Rewrite the durable snapshot from the live state. `in_flight`
    /// marks the newest journal record as possibly part-dispatched so
    /// [`Coordinator::resume`] re-drives it. No-op without a journal or
    /// before bootstrap.
    fn snapshot_now(&self, in_flight: bool) -> Result<(), Error> {
        let Some(engine) = self.engine.as_ref() else {
            return Ok(());
        };
        let mut control = self.link().control();
        let control = &mut *control;
        let Some(journal) = control.journal.as_mut() else {
            return Ok(());
        };
        let map = engine.shard_map();
        let snap = CoordSnapshot {
            map_version: map.version(),
            applied: journal.len(),
            owned: (0..map.num_shards())
                .map(|k| map.sources_of(k).to_vec())
                .collect(),
            graph: engine.graph().snapshot_bytes(),
            fleet: control.fleet.clone(),
        };
        journal.write_snapshot(&snap, in_flight)
    }

    /// Restart a coordinator from the durable state a previous
    /// incarnation left in `dir`, resuming command of the running node
    /// fleet: reload the snapshot, re-fold the journaled update suffix
    /// into the engine's replica and map (a record whose adopter the
    /// re-fold does not derive is `Corrupt`, naming its position),
    /// re-drive the last journaled update at its recorded WAL indices (the
    /// nodes' index dedup makes the retry exactly-once in every crash
    /// window), and continue the RPC sequence past the persisted
    /// reservation so nodes do not drop the new incarnation's requests as
    /// stale.
    ///
    /// A crash *mid-handoff or mid-rebalance* is the one window this does
    /// not cover: a source may have moved after the snapshot was taken.
    /// Re-bootstrap the cluster in that case.
    pub fn resume(
        transport: T,
        mailbox: Mailbox,
        cfg: CoordinatorConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, Error> {
        let (journal, snap, base, records) = CoordJournal::open(dir)?;
        let graph =
            Graph::from_snapshot_bytes(&snap.graph).map_err(|e| e.within("graph replica"))?;
        let map = ShardMap::from_assignment_versioned(snap.owned, snap.map_version)
            .map_err(|e| Error::corrupt(format!("shard map: {}", e.context())))?;
        let link = Arc::new(Link::new(transport, mailbox, cfg));
        {
            let mut control = link.control();
            control.seq = journal.reserved_seq();
            control.fleet = snap.fleet;
            control.journal = Some(journal);
        }
        let shards = (0..map.num_shards())
            .map(|k| RemoteShard::new(link.clone(), k, None))
            .collect();
        let engine = ClusterEngine::start(&graph, shards, map, |shard, owned| {
            shard.resume(owned.len())
        })?;
        let mut coord = Coordinator {
            engine: Some(engine),
            link,
        };
        // re-fold the journal suffix the snapshot predates; the nodes
        // already ran it, so nothing is sent
        for (at, rec) in (base..).zip(&records) {
            if at < snap.applied {
                continue;
            }
            let mut folded = coord.engine()?.fold(&[rec.entry.update])?;
            if let Some(refused) = folded.refused.take() {
                return Err(refused.within(format!("journal record {at}")));
            }
            let adopter = folded.steps[0].1.map(|k| k as u32);
            if adopter != rec.entry.adopter {
                return Err(Error::corrupt(format!(
                    "journal record {at}: {:?} journaled with adopter {:?}, the re-fold derives {adopter:?}",
                    rec.entry.update, rec.entry.adopter
                )));
            }
        }
        // re-drive the newest journaled update at its recorded indices:
        // shards that executed it answer from their dedup window, shards the
        // crash cut off append it now, and every reply resyncs `next_index`
        if let Some(last) = records.last() {
            if last.indices.len() != coord.num_shards() {
                let why = "the newest journal record names another shard count";
                return Err(Error::corrupt(why));
            }
            coord.link.control().fleet.next_index = last.indices.clone();
            let steps = vec![(last.entry.update, last.entry.adopter.map(|k| k as usize))];
            coord.engine()?.run(Folded {
                steps,
                refused: None,
            })?;
        }
        coord.snapshot_now(false)?;
        Ok(coord)
    }

    /// Install an observer for control-plane transitions.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.link.control().events = Some(hook);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engine.as_ref().map_or(0, ClusterEngine::num_workers)
    }

    /// The fencing token: the engine's map version (adoptions plus moves)
    /// plus the failover count.
    pub fn version(&self) -> u64 {
        let map_version = self.engine.as_ref().map_or(0, |e| e.shard_map().version());
        map_version + self.link.control().fleet.failovers
    }

    /// Failovers performed since bootstrap.
    pub fn failovers(&self) -> u64 {
        self.link.control().fleet.failovers
    }

    /// The engine's validation replica (matches every node's, by
    /// construction).
    ///
    /// # Panics
    ///
    /// Before [`bootstrap`](Coordinator::bootstrap).
    pub fn graph(&self) -> &Graph {
        self.engine
            .as_ref()
            .expect("a bootstrapped coordinator")
            .graph()
    }

    /// The engine's shard map.
    ///
    /// # Panics
    ///
    /// Before [`bootstrap`](Coordinator::bootstrap).
    pub fn map(&self) -> &ShardMap {
        self.engine
            .as_ref()
            .expect("a bootstrapped coordinator")
            .shard_map()
    }

    /// Current replication groups.
    pub fn groups(&self) -> Vec<ShardSpec> {
        self.link.control().fleet.groups.clone()
    }

    /// Stand the cluster up: one remote shard per group in `specs`, each
    /// leader bootstrapped over `g` with the sources the engine's map
    /// assigns it (each leader replicates entry 0 to its follower, which
    /// runs its own Brandes over the same snapshot). No shard at all is
    /// `Invalid`.
    pub fn bootstrap(&mut self, g: &Graph, specs: Vec<ShardSpec>) -> Result<(), Error> {
        if specs.is_empty() {
            return Err(Error::invalid("a cluster needs at least one shard"));
        }
        let p = specs.len();
        {
            let mut control = self.link.control();
            control.fleet.known = specs
                .iter()
                .flat_map(|s| {
                    std::iter::once((s.leader, s.leader_hint.clone()))
                        .chain(s.follower.map(|f| (f, s.follower_hint.clone())))
                })
                .collect();
            control.fleet.groups = specs;
            control.fleet.next_index = vec![0; p];
            control.map_version = 0;
        }
        let snapshot: Arc<[u8]> = g.snapshot_bytes().into();
        let shards = (0..p)
            .map(|k| RemoteShard::new(self.link.clone(), k, Some(snapshot.clone())))
            .collect();
        let map = ShardMap::bootstrap(g.n(), p);
        let engine = ClusterEngine::start(g, shards, map, |shard, owned| shard.bootstrap(owned))?;
        self.engine = Some(engine);
        self.snapshot_now(false)
    }

    /// Replicate one edge update across every shard (the paper's map
    /// phase, over the wire): the engine folds it (validate, adopt), the
    /// journal records it write-ahead with its dispatch indices, and the
    /// engine runs it on every shard — a remote shard failing over and
    /// retrying the same WAL index when a lease expires.
    pub fn apply(&mut self, update: Update) -> Result<ApplyReport, Error> {
        let engine = self.engine.as_mut().ok_or_else(not_bootstrapped)?;
        let mut folded = engine.fold(&[update])?;
        if let Some(refused) = folded.refused.take() {
            return Err(refused);
        }
        let journaled = {
            let mut control = self.link.control();
            control.map_version = engine.shard_map().version();
            let record = JournalRecord {
                entry: JournalEntry {
                    update,
                    adopter: folded.steps[0].1.map(|k| k as u32),
                },
                indices: control.fleet.next_index.clone(),
            };
            // write-ahead: before any shard sees the update, so a resumed
            // coordinator can re-drive exactly this entry at exactly these
            // indices
            control
                .journal
                .as_mut()
                .map_or(Ok(()), |j| j.append(&record))
        };
        if let Err(e) = journaled {
            return Err(engine.poison(e));
        }
        let mut reports = engine.run(folded)?;
        Ok(reports.remove(0))
    }

    /// The fast reduce (`t_M`): the engine folds the shards' partials in
    /// ascending shard order.
    pub fn reduce(&mut self) -> Result<Scores, Error> {
        Ok(self.engine()?.reduce()?.scores)
    }

    /// The exact reduce: the engine adds every shard's exact sum, each
    /// checked against the map's source count and the replica's shape —
    /// bitwise equal to a serial replay regardless of partitioning,
    /// handoffs, or how many failovers rewrote the groups. A sum covering
    /// the wrong sources is `Corrupt`.
    pub fn reduce_exact(&mut self) -> Result<Scores, Error> {
        Ok(self.engine()?.reduce_exact()?.scores)
    }

    /// What changed in the fast-reduce scores since the last drain (the
    /// engine's [`ClusterEngine::take_score_delta`]; each node reports the
    /// vertices its shard changed with its partial).
    pub fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        self.engine()?.take_score_delta()
    }

    /// Move one source between shards through the engine's handoff
    /// (export, import, map commit, retire — each an indexed, exactly-once
    /// node op), then snapshot. A move the map cannot record — a donor
    /// that does not own the source, a recipient shard that does not
    /// exist, or a move onto the owner itself — is `Invalid` naming the
    /// source ([`ShardMap::check_move`]) before any shard is touched.
    pub fn handoff(&mut self, mv: &SourceMove) -> Result<(), Error> {
        let engine = self.engine()?;
        engine.shard_map().check_move(mv)?;
        engine.handoff(mv.source, mv.to)?;
        self.snapshot_now(false)
    }

    /// Restore the ownership skew invariant through the engine's
    /// deterministic rebalance, then snapshot. Returns the executed moves
    /// in commit order, the threshold the plan applied and the resulting
    /// fencing token.
    pub fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        let mut outcome = self.engine()?.rebalance(threshold)?;
        self.snapshot_now(false)?;
        outcome.map_version = self.version();
        Ok(outcome)
    }

    /// Fence every leader deposed by a failover that may still be alive
    /// behind a healed partition: send `Demote` at the current (higher)
    /// fencing token, clearing their shard state. Unreachable nodes stay
    /// queued for the next call. Returns how many were demoted.
    pub fn fence_stale(&mut self) -> usize {
        let link = self.link();
        let stale = std::mem::take(&mut link.control().fleet.stale);
        let mut demoted = 0;
        for node in stale {
            let hint = link.control().hint_of(node);
            match link.rpc(node, hint.as_deref(), Request::Demote) {
                Ok(_) => demoted += 1,
                Err(_) => link.control().fleet.stale.push(node),
            }
        }
        demoted
    }

    /// Query one node's status (diagnostics; unfenced).
    pub fn node_status(&mut self, to: NodeId) -> Result<ReplyBody, Error> {
        let link = self.link();
        let hint = link.control().hint_of(to);
        link.rpc(to, hint.as_deref(), Request::Status)
    }

    /// Drain the cluster: best-effort `Shutdown` to every known node
    /// (leaders, followers, and fenced stragglers).
    pub fn shutdown(self) {
        let _ = self.snapshot_now(false); // park a clean resume point
        let link = self.link();
        let targets = {
            let fleet = &link.control().fleet;
            let mut targets: Vec<NodeId> = fleet.known.keys().copied().collect();
            for g in &fleet.groups {
                targets.push(g.leader);
                targets.extend(g.follower);
            }
            targets.extend(fleet.stale.iter().copied());
            targets.sort_unstable();
            targets.dedup();
            targets
        };
        for node in targets {
            let hint = link.control().hint_of(node);
            let timeout = link.cfg.rpc_timeout;
            let _ = link.rpc_with(node, hint.as_deref(), Request::Shutdown, 1, timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;
    use crate::wire::COORD;
    use ebc_core::ErrorKind;

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
                coord.link.control().fleet.next_index.clone(),
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

    /// Every call leaves the router's pending table empty: after a reply,
    /// after a refusal, after a dead peer and after a lease that ran out.
    #[test]
    fn no_call_stays_in_flight() {
        let g = ring(8);
        let mut sim = SimBuilder::new(2).launch(&g).unwrap();
        let leader = sim.leader_id(0);
        let coord = &mut sim.coord;
        assert_eq!(coord.link.in_flight(), 0, "bootstrap");
        coord.apply(Update::add(0, 4)).unwrap();
        coord.apply(Update::add(2, 8)).unwrap();
        assert_eq!(coord.link.in_flight(), 0, "apply");
        coord.reduce().unwrap();
        coord.reduce_exact().unwrap();
        coord.take_score_delta().unwrap();
        assert_eq!(coord.link.in_flight(), 0, "reads");
        let source = coord.map().sources_of(0)[0];
        coord
            .handoff(&SourceMove {
                source,
                from: 0,
                to: 1,
            })
            .unwrap();
        assert_eq!(coord.link.in_flight(), 0, "handoff");
        let refused = coord.link.rpc(leader, None, Request::Promote);
        assert!(refused.is_err(), "a leader cannot be promoted");
        let dead = coord.node_status(NodeId(99)).unwrap_err();
        assert_eq!(dead.kind(), ErrorKind::Lost, "{dead}");
        sim.net.partition(COORD, leader);
        let lease = Duration::from_millis(20);
        let silent = sim
            .coord
            .link
            .rpc_with(leader, None, Request::Status, 2, lease)
            .unwrap_err();
        assert_eq!(silent.kind(), ErrorKind::Lost, "{silent}");
        assert_eq!(sim.coord.link.in_flight(), 0, "failed calls");
        sim.shutdown();
    }
}
