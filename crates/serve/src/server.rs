//! The server core: one writer task owning the engine, snapshot-published
//! reads, bounded backpressure, streaming subscriptions, graceful drain.
//!
//! ## Concurrency shape
//!
//! * **One writer task** (a dedicated thread) owns the [`ServeEngine`]
//!   outright. Every mutating command — `apply`, `handoff`, `rebalance`,
//!   `checkpoint`, `reduce_exact` (which needs `&mut` access) — travels to
//!   it as a `Job` over a **bounded** `sync_channel`: a connection
//!   submitting into a full queue blocks, which is the backpressure the
//!   transport propagates to the client. Updates therefore apply in one
//!   global serial order; the order is observable through the `seq` range
//!   each `apply` acknowledgment carries, which is what lets the
//!   concurrency suite replay the exact interleaving serially and demand
//!   bitwise-equal scores.
//! * **Readers never block writers**: after every applied batch the writer
//!   publishes an immutable [`Snapshot`] (scores + counters) behind an
//!   `RwLock<Arc<_>>`; `scores`/`top_k`/`stats` clone the `Arc` and answer
//!   from it on the connection thread. A reader holds the lock only for
//!   the clone, never while serializing.
//! * **Subscriptions** (`subscribe top_k`) are carried by the writer task:
//!   after each batch it diffs the new top-`k` against what each
//!   subscriber last saw and pushes an event line into that connection's
//!   outbound queue (never blocking: a subscriber that stopped draining is
//!   dropped rather than allowed to stall the update path).
//! * **Graceful drain**: once shutdown triggers, frontends stop accepting,
//!   connections refuse new work with a `shutting_down` error, the writer
//!   finishes every job already in the queue (in-flight batches are acked,
//!   not lost), checkpoints, and exits.

use crate::engine::{EngineInfo, ServeEngine};
use crate::frontend;
use ebc_core::api::RebalanceOutcome;
use ebc_core::rankindex::RankIndex;
use ebc_core::state::Update;
use ebc_core::Error;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`Server`] binds and behaves.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0` for an ephemeral port), or
    /// `None` for no TCP frontend.
    pub tcp: Option<String>,
    /// Unix-socket path, or `None` for no unix frontend. An existing
    /// socket file at the path is replaced.
    pub unix: Option<PathBuf>,
    /// Capacity of the writer task's job queue — the backpressure bound.
    pub queue_depth: usize,
    /// Crash injection for the restart-under-traffic suite: abort the
    /// whole process immediately after this many updates have been applied
    /// (mid-batch, after the prefix was made durable, before any ack).
    /// Driven by `SBC_SERVE_CRASH_AFTER` in the `sbc serve` binary; never
    /// set in production.
    pub crash_after: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
            queue_depth: 64,
            crash_after: None,
        }
    }
}

/// An immutable point-in-time read view, swapped in by the writer task
/// after every mutation.
#[derive(Debug)]
pub struct Snapshot {
    /// Updates applied when this snapshot was taken (the global sequence).
    pub seq: u64,
    /// Batches applied when this snapshot was taken.
    pub epoch: u64,
    /// The maintained fast-path scores *and* their rank order: what
    /// [`ServeEngine::rank_snapshot`] returned for this generation — an
    /// `O(1)` node-sharing clone of the one index the engine side owns
    /// and feeds. The server keeps no index of its own, so `scores`,
    /// `top_k`, `rank_of` and subscription diffing read the very
    /// structure the engine's own ranked reads use, without re-sorting.
    pub index: RankIndex,
    /// Engine counters at snapshot time.
    pub info: EngineInfo,
}

/// A top-`k` subscription registered with the writer task.
pub(crate) struct Subscription {
    pub(crate) k: usize,
    /// The owning connection's outbound line queue.
    pub(crate) out: SyncSender<String>,
    /// Ranking (id, score-bits) this subscriber last saw.
    pub(crate) last: Vec<(u32, u64)>,
}

/// Work for the writer task. Every job carries a rendezvous reply channel;
/// the writer always answers, so a submitting connection never hangs.
pub(crate) enum Job {
    Apply {
        updates: Vec<Update>,
        reply: SyncSender<Result<(u64, u64), Error>>,
    },
    ReduceExact {
        #[allow(clippy::type_complexity)]
        reply: SyncSender<Result<(Vec<f64>, Vec<f64>, Duration), Error>>,
    },
    Checkpoint {
        reply: SyncSender<Result<(), Error>>,
    },
    Handoff {
        source: u32,
        to: usize,
        reply: SyncSender<Result<RebalanceOutcome, Error>>,
    },
    Rebalance {
        threshold: usize,
        reply: SyncSender<Result<RebalanceOutcome, Error>>,
    },
    Subscribe {
        sub: Subscription,
        /// Pre-rendered ack line; the writer task pushes it into the
        /// subscriber's outbound queue *before* the seeded first event, so
        /// the client always sees ack → events in that order.
        ack: String,
        reply: SyncSender<Result<(), Error>>,
    },
}

/// State shared between the writer task, the frontends and every
/// connection thread.
pub(crate) struct Shared {
    /// Latest published read view.
    pub(crate) snapshot: RwLock<Arc<Snapshot>>,
    /// Prototype job sender; connections clone it at accept time. Taken
    /// (dropped) on shutdown so the writer's receiver disconnects once the
    /// last connection lets go.
    pub(crate) jobs: Mutex<Option<SyncSender<Job>>>,
    /// Set once; everything polls it.
    pub(crate) shutdown: AtomicBool,
    /// Open connections (both frontends).
    pub(crate) connections: AtomicUsize,
    /// Live subscriptions (maintained by the writer task).
    pub(crate) subscribers: AtomicUsize,
    /// Total accepted connections (stats).
    pub(crate) accepted: AtomicU64,
    /// When set, the engine could not be opened: every command except
    /// `ping` is answered with this error (a `records_ahead` census, say).
    pub(crate) unavailable: Option<Error>,
}

impl Shared {
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // dropping the prototype sender lets the writer task's receiver
        // disconnect once in-flight connections finish their jobs
        drop(self.jobs.lock().expect("jobs lock").take());
    }

    /// A clone of the job sender, unless the server is draining.
    pub(crate) fn job_sender(&self) -> Option<SyncSender<Job>> {
        self.jobs.lock().expect("jobs lock").clone()
    }
}

/// A running server: bound frontends plus the writer task.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (with the ephemeral port resolved).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound unix-socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Trigger a graceful drain: stop accepting, finish queued work,
    /// checkpoint, exit. Returns immediately; use [`ServerHandle::join`]
    /// to wait.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether shutdown has been triggered (by signal, command or
    /// [`ServerHandle::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the accept loops and the writer task have exited (i.e.
    /// the drain completed), then reap the unix socket file. Connection
    /// threads close themselves shortly after; [`ServerHandle::join`]
    /// waits up to ~2 s for them so an `exec`-and-exit caller does not
    /// race their final flushes.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        for _ in 0..200 {
            if self.shared.connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Builder-free entry points: spawn a server over an engine, or a degraded
/// one that reports why the engine is unavailable.
pub struct Server;

impl Server {
    /// Bind the configured frontends and start serving `engine`. An
    /// engine that cannot produce its first [`ServeEngine::rank_snapshot`]
    /// is not served: the error comes back as [`std::io::Error::other`].
    pub fn spawn<E: ServeEngine + 'static>(
        mut engine: E,
        cfg: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let initial = Snapshot {
            seq: 0,
            epoch: 0,
            index: engine.rank_snapshot().map_err(std::io::Error::other)?,
            info: engine.info(),
        };
        let (tx, rx) = sync_channel::<Job>(cfg.queue_depth.max(1));
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(initial)),
            jobs: Mutex::new(Some(tx)),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            subscribers: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            unavailable: None,
        });
        let mut handle = Self::bind_frontends(&cfg, Arc::clone(&shared))?;
        let crash_after = cfg.crash_after;
        let writer_shared = Arc::clone(&shared);
        handle.threads.push(
            std::thread::Builder::new()
                .name("sbc-serve-writer".into())
                .spawn(move || writer_loop(&mut engine, rx, &writer_shared, crash_after))
                .expect("spawn writer task"),
        );
        Ok(handle)
    }

    /// Bind the frontends **without** an engine: every command except
    /// `ping` is answered with `error` (typed, e.g. `records_ahead`), so a
    /// session directory that cannot be resumed yields a diagnosable
    /// server instead of a hang or a crash loop.
    pub fn spawn_unavailable(error: Error, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let initial = Snapshot {
            seq: 0,
            epoch: 0,
            index: RankIndex::new(),
            info: EngineInfo {
                n: 0,
                m: 0,
                workers: 0,
                backend: "unavailable".to_string(),
                map_version: None,
                live_wal_bytes: None,
                sealed_history_bytes: None,
                last_compaction_seq: None,
            },
        };
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(initial)),
            jobs: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            subscribers: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            unavailable: Some(error),
        });
        Self::bind_frontends(&cfg, shared)
    }

    fn bind_frontends(cfg: &ServerConfig, shared: Arc<Shared>) -> std::io::Result<ServerHandle> {
        let mut threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sbc-serve-tcp".into())
                    .spawn(move || frontend::tcp::accept_loop(listener, &shared))
                    .expect("spawn tcp frontend"),
            );
        }
        let mut unix_path = None;
        if let Some(path) = &cfg.unix {
            // replace a stale socket file from a previous run
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            unix_path = Some(path.clone());
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sbc-serve-unix".into())
                    .spawn(move || frontend::unix::accept_loop(listener, &shared))
                    .expect("spawn unix frontend"),
            );
        }
        Ok(ServerHandle {
            shared,
            tcp_addr,
            unix_path,
            threads,
        })
    }
}

/// The single writer task: the only code that ever touches the engine.
fn writer_loop<E: ServeEngine>(
    engine: &mut E,
    rx: Receiver<Job>,
    shared: &Shared,
    crash_after: Option<u64>,
) {
    let mut seq: u64 = 0;
    let mut epoch: u64 = 0;
    let mut subs: Vec<Subscription> = Vec::new();
    // recv() returning Err means every sender is gone: the prototype was
    // taken by shutdown AND all in-flight connections released theirs —
    // exactly the "queue fully drained" condition.
    while let Ok(job) = rx.recv() {
        match job {
            Job::Apply { updates, reply } => {
                if let Some(limit) = crash_after {
                    let remaining = limit.saturating_sub(seq) as usize;
                    if remaining <= updates.len() {
                        // the crash point lands inside this batch: make the
                        // prefix durable (apply + checkpoint), then die
                        // without acknowledging — the restart suite's
                        // deterministic mid-batch kill
                        let _ = engine.apply_batch(&updates[..remaining]);
                        let _ = engine.checkpoint();
                        std::process::abort();
                    }
                }
                let result = engine.apply_batch(&updates).map(|()| {
                    let first = seq + 1;
                    seq += updates.len() as u64;
                    epoch += 1;
                    (first, seq)
                });
                if result.is_ok() {
                    // publish and notify before the ack: an acknowledged
                    // writer reads its own batch from the very next
                    // snapshot, and a subscriber has the batch's event
                    // queued before anyone sees the ack (notify never
                    // blocks — slow subscribers are dropped, not awaited)
                    publish(engine, shared, seq, epoch);
                    notify_subscribers(&mut subs, shared, seq, epoch);
                }
                let _ = reply.send(result);
            }
            Job::ReduceExact { reply } => {
                let _ = reply.send(engine.reduce_exact());
            }
            Job::Checkpoint { reply } => {
                let _ = reply.send(engine.checkpoint());
            }
            Job::Handoff { source, to, reply } => {
                let result = engine.handoff(source, to);
                let _ = reply.send(result);
                publish(engine, shared, seq, epoch);
            }
            Job::Rebalance { threshold, reply } => {
                let result = engine.rebalance(threshold);
                let _ = reply.send(result);
                publish(engine, shared, seq, epoch);
            }
            Job::Subscribe { sub, ack, reply } => {
                let acked = sub.out.try_send(ack).is_ok();
                if acked {
                    subs.push(sub);
                }
                shared.subscribers.store(subs.len(), Ordering::SeqCst);
                let _ = reply.send(Ok(()));
                // seed the new subscriber with the current ranking
                notify_subscribers(&mut subs, shared, seq, epoch);
            }
        }
    }
    // drained: make everything durable before the process goes away
    let _ = engine.checkpoint();
}

/// Swap in a fresh snapshot of the engine's rank index and counters.
fn publish<E: ServeEngine>(engine: &mut E, shared: &Shared, seq: u64, epoch: u64) {
    let Ok(index) = engine.rank_snapshot() else {
        return; // keep the previous snapshot rather than poison readers
    };
    let snap = Arc::new(Snapshot {
        seq,
        epoch,
        index,
        info: engine.info(),
    });
    let retired = std::mem::replace(&mut *shared.snapshot.write().expect("snapshot lock"), snap);
    // the write guard is gone: freeing the treap nodes only the retired
    // snapshot still owned must not keep readers waiting on the lock
    drop(retired);
}

/// Push a `top_k` event to every subscriber whose watched ranking changed
/// since they last heard (comparing score *bits*, so a same-set
/// score-value change still notifies).
///
/// Each subscriber's entries come from an `O(k + log n)` walk of the
/// snapshot's rank index — there is no per-subscriber re-sort of the full
/// score vector — and `entered`/`left` are set-diffed against the
/// fingerprint of the last event they were sent.
fn notify_subscribers(subs: &mut Vec<Subscription>, shared: &Shared, seq: u64, epoch: u64) {
    if subs.is_empty() {
        return;
    }
    let snap = Arc::clone(&shared.snapshot.read().expect("snapshot lock"));
    subs.retain_mut(|sub| {
        let entries = snap.index.top_entries(sub.k);
        let fingerprint: Vec<(u32, u64)> = entries.iter().map(|&(v, s)| (v, s.to_bits())).collect();
        if fingerprint == sub.last {
            return true;
        }
        let old: HashSet<u32> = sub.last.iter().map(|&(v, _)| v).collect();
        let new: HashSet<u32> = fingerprint.iter().map(|&(v, _)| v).collect();
        // rank order, same as `RankTracker::observe_ranked`
        let entered: Vec<u32> = fingerprint
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| !old.contains(v))
            .collect();
        let left: Vec<u32> = sub
            .last
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| !new.contains(v))
            .collect();
        let line = crate::command::handlers::top_k_event(seq, epoch, &entries, &entered, &left);
        sub.last = fingerprint;
        match sub.out.try_send(line) {
            Ok(()) => true,
            // a subscriber that is gone or not draining its queue is
            // dropped — the update path never waits on a slow consumer
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
        }
    });
    shared.subscribers.store(subs.len(), Ordering::SeqCst);
}
