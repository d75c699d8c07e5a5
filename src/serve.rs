//! Binding [`Session`] to the network frontend.
//!
//! `ebc-serve` owns transport, framing and the command protocol but knows
//! nothing about the facade (the dependency points the other way: this
//! crate's `sbc` binary links the server). The bridge is
//! [`ServedSession`], a newtype implementing [`ebc_serve::ServeEngine`]
//! over a [`Session`], and [`ServedCluster`], the same over a fleet
//! coordinator — the session's engine over remote shards, whose rank index
//! both feed from the engine's score deltas. Neither maps errors: a session's or a coordinator's
//! [`Error`] reaches the client with its kind and fields intact
//! (`records_ahead` with its census, `corrupt` with its source).
//!
//! ```no_run
//! use streaming_bc::{Backend, Session};
//! use streaming_bc::serve::ServedSession;
//! use streaming_bc::graph::Graph;
//! use ebc_serve::{Server, ServerConfig};
//!
//! let mut g = Graph::with_vertices(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
//!     g.add_edge(u, v).unwrap();
//! }
//! let session = Session::builder().backend(Backend::Memory).build(&g)?;
//! let handle = Server::spawn(ServedSession::new(session), ServerConfig::default())?;
//! println!("serving on {}", handle.tcp_addr().unwrap());
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::session::Session;
use ebc_cluster::{Coordinator, Transport};
use ebc_core::api::RebalanceOutcome;
use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};
use ebc_serve::{EngineInfo, ServeEngine};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use ebc_serve::{Server, ServerConfig, ServerHandle};

/// A [`Session`] wearing the [`ServeEngine`] trait so `ebc-serve` can
/// drive it from the writer task.
pub struct ServedSession {
    session: Session,
}

impl ServedSession {
    /// Wrap a bootstrapped or reopened session for serving.
    pub fn new(session: Session) -> Self {
        ServedSession { session }
    }

    /// The wrapped session back (e.g. after a drain, for inspection).
    pub fn into_inner(self) -> Session {
        self.session
    }
}

/// A cluster [`Coordinator`] wearing the [`ServeEngine`] trait: `sbc
/// coord --serve` plugs a whole replicated shard cluster into the same
/// TCP/unix JSON-line frontend a single [`Session`] gets — clients cannot
/// tell a fleet of `sbc node` processes from one in-process engine, and
/// `reduce_exact` stays bitwise equal to both.
///
/// The coordinator is the same engine a session drives, over remote
/// shards, so the rank index is fed the same way: from the engine's
/// sparse score deltas (each node names the vertices its shard changed).
/// Clones share the coordinator and the index (the server's writer task is
/// the only caller, so the mutex is uncontended); keep one clone outside
/// [`Server::spawn`] and [`ServedCluster::take`] the coordinator back after
/// the drain to shut the node fleet down.
pub struct ServedCluster<T: Transport> {
    coord: Arc<Mutex<Option<Coordinator<T>>>>,
    /// The index every drained delta feeds.
    rank: Arc<Mutex<RankIndex>>,
}

impl<T: Transport> Clone for ServedCluster<T> {
    fn clone(&self) -> Self {
        ServedCluster {
            coord: self.coord.clone(),
            rank: self.rank.clone(),
        }
    }
}

impl<T: Transport> ServedCluster<T> {
    /// Wrap a bootstrapped coordinator for serving.
    pub fn new(coord: Coordinator<T>) -> Self {
        ServedCluster {
            coord: Arc::new(Mutex::new(Some(coord))),
            rank: Default::default(),
        }
    }

    /// Reclaim the coordinator (e.g. to drain the node fleet after the
    /// frontend drained). Subsequent engine calls answer `shutting_down`.
    pub fn take(&self) -> Option<Coordinator<T>> {
        self.coord.lock().unwrap().take()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Coordinator<T>) -> Result<R, Error>) -> Result<R, Error> {
        let mut guard = self.coord.lock().unwrap();
        let coord = guard
            .as_mut()
            .ok_or_else(|| Error::new(ErrorKind::ShuttingDown, "the coordinator was reclaimed"))?;
        f(coord)
    }
}

impl<T: Transport> ServeEngine for ServedCluster<T> {
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error> {
        self.with(|coord| updates.iter().try_for_each(|&u| coord.apply(u).map(drop)))
    }

    fn rank_snapshot(&mut self) -> Result<RankIndex, Error> {
        self.take_score_delta()?;
        Ok(self
            .rank
            .lock()
            .expect("no panic while feeding the rank index")
            .clone())
    }

    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        let delta = self.with(Coordinator::take_score_delta)?;
        self.rank
            .lock()
            .expect("no panic while feeding the rank index")
            .apply(&delta);
        Ok(delta)
    }

    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, Duration), Error> {
        self.with(|coord| {
            let t0 = std::time::Instant::now();
            let s = coord.reduce_exact()?;
            Ok((s.vbc, s.ebc, t0.elapsed()))
        })
    }

    fn checkpoint(&mut self) -> Result<(), Error> {
        // nodes hold their shard in memory and dedup ops by index, and the
        // coordinator's journal syncs each append: nothing is left to flush
        self.with(|_| Ok(()))
    }

    fn handoff(&mut self, source: u32, to: usize) -> Result<RebalanceOutcome, Error> {
        self.with(|coord| {
            let mv = coord.map().move_to(source, to)?;
            coord.handoff(&mv)?;
            Ok(RebalanceOutcome {
                moves: vec![(source, mv.from, to)],
                threshold: 0,
                map_version: coord.version(),
            })
        })
    }

    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        self.with(|coord| coord.rebalance(threshold))
    }

    fn info(&self) -> EngineInfo {
        let guard = self.coord.lock().unwrap();
        match guard.as_ref() {
            Some(coord) => EngineInfo {
                n: coord.graph().n(),
                m: coord.graph().m(),
                workers: coord.num_shards(),
                backend: "cluster".to_string(),
                map_version: Some(coord.version()),
                live_wal_bytes: None,
                sealed_history_bytes: None,
                last_compaction_seq: None,
            },
            None => EngineInfo {
                n: 0,
                m: 0,
                workers: 0,
                backend: "cluster".to_string(),
                map_version: None,
                live_wal_bytes: None,
                sealed_history_bytes: None,
                last_compaction_seq: None,
            },
        }
    }
}

impl ServeEngine for ServedSession {
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error> {
        self.session.apply_stream(updates)
    }

    fn rank_snapshot(&mut self) -> Result<RankIndex, Error> {
        self.session.rank_index().cloned()
    }

    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        self.session.take_score_delta()
    }

    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, Duration), Error> {
        let reduced = self.session.reduce_exact()?;
        Ok((reduced.scores.vbc, reduced.scores.ebc, reduced.wall))
    }

    fn checkpoint(&mut self) -> Result<(), Error> {
        self.session.checkpoint()
    }

    fn handoff(&mut self, source: u32, to: usize) -> Result<RebalanceOutcome, Error> {
        self.session.handoff(source, to)
    }

    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        self.session.rebalance(threshold)
    }

    fn info(&self) -> EngineInfo {
        let history = self.session.history_stats();
        EngineInfo {
            n: self.session.graph().n(),
            m: self.session.graph().m(),
            workers: self.session.workers(),
            backend: match self.session.dir() {
                Some(_) => "disk",
                None => "memory",
            }
            .to_string(),
            map_version: self.session.shard_map_version(),
            live_wal_bytes: history.as_ref().map(|h| h.live_wal_bytes),
            sealed_history_bytes: history.as_ref().map(|h| h.sealed_bytes),
            last_compaction_seq: history.as_ref().map(|h| h.last_compaction_seq),
        }
    }
}
