//! The persistent worker pool: one long-lived OS thread per simulated
//! machine, driven over channels.
//!
//! The paper's §5 cluster keeps long-lived workers that each own a source
//! partition and answer a *stream* of updates; respawning scoped threads per
//! update (the previous embodiment) measured thread-spawn overhead instead
//! of the map-phase critical path. Here each worker thread owns its graph
//! replica, private `BD` store, incremental partial scores and kernel
//! scratch for its whole lifetime, and executes commands from its private
//! queue:
//!
//! * [`Command::Bootstrap`] — one Brandes iteration per owned source;
//! * [`Command::Apply`] — the map task for one update (plus an optional
//!   adoption of a newly arrived source);
//! * [`Command::Partials`] — hand a copy of its partial scores to the
//!   coordinator, its one term of the fast reduce;
//! * [`Command::ExactSum`] — sum its owned sources' exact contributions
//!   (see [`ebc_core::exact`]), its one term of the exact reduce;
//! * [`Command::Export`] / [`Command::Import`] — the two halves of a shard
//!   handoff: the donor serializes one owned source's `BD` record out of
//!   its private store (journaled by backends with a crash story) and the
//!   recipient installs it; [`Command::Retire`] discards the donor's export
//!   journal once the coordinator has committed the move in its shard map;
//! * [`Command::Shutdown`] — drain and exit (also triggered by channel
//!   disconnect, so dropping the pool can never leak a thread).
//!
//! **Failure containment.** A store error (or a panic caught at the command
//! boundary) poisons the worker: its partial may be half-updated, so every
//! subsequent command answers `Lost` immediately instead of computing — or
//! hanging — on corrupt state.

use ebc_core::bd::{BdStore, ExportedRecord};
use ebc_core::exact::ExactSum;
use ebc_core::incremental::UpdateConfig;
use ebc_core::scores::Scores;
use ebc_core::shard::ShardState;
use ebc_core::state::Update;
use ebc_graph::csr::CsrView;
use ebc_graph::{EdgeId, Error, VertexId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Commands a worker executes from its private queue, in order.
pub(crate) enum Command {
    /// Brandes-bootstrap the given owned sources into the store. A
    /// membership list, not a range: the shard map may assign any subset
    /// (contiguous only in the `partition_ranges` bootstrap case).
    Bootstrap { sources: Vec<VertexId> },
    /// Rehydrate from the store's existing records instead of running
    /// Brandes: the partial score vector is the owned sources' exact sum,
    /// rounded once, checked to cover the `owned` sources the map assigns
    /// this worker. The re-bootstrap-free restart path — replies
    /// [`Reply::Bootstrapped`] with a Brandes count of zero.
    Resume { owned: usize },
    /// Flush the private store's durable backing (no-op for memory stores).
    Flush,
    /// Map task for one update; `adopt` names a newly arrived vertex this
    /// worker takes into its partition.
    ///
    /// Carries the pinned post-update [`CsrView`] epoch: workers lag the
    /// coordinator under pipelining, so each map task must travel with the
    /// exact structural snapshot it is defined against (FIFO command order
    /// then guarantees every later command sees a current-or-newer view).
    /// `removed_eid` is the slot freed by a removal, computed once by the
    /// coordinator's single-writer replica — the worker no longer maintains
    /// (or clones) any mutable graph of its own.
    Apply {
        update: Update,
        removed_eid: Option<EdgeId>,
        adopt: Option<VertexId>,
        view: Arc<CsrView>,
    },
    /// Copy out the partial scores (the fast reduce term).
    Partials,
    /// Sum the owned sources' exact contributions.
    ExactSum,
    /// Serialize `source`'s record out of the private store and stop owning
    /// it — the donor half of a shard handoff. `tag` is journaled with the
    /// export by crash-safe backends (the coordinator passes the recipient
    /// shard id).
    Export { source: VertexId, tag: u64 },
    /// Install a record exported by a peer — the recipient half.
    Import { record: Box<ExportedRecord> },
    /// Discard the export journal left for `source`, the coordinator having
    /// committed the handoff in its shard map.
    Retire { source: VertexId },
    /// Drain and exit.
    Shutdown,
}

/// Per-update facts the coordinator needs without touching worker state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApplyEcho {
    /// This worker's busy time for the map task.
    pub busy: Duration,
    /// Edge slots of the replica after the update — reported in the reply so
    /// the coordinator never reads a worker's replica directly.
    pub edge_slots: usize,
}

/// What a worker answers one command with (every command but `Shutdown`
/// gets exactly one reply, `Ok` or the command's error).
pub(crate) enum Reply {
    /// The number of Brandes single-source iterations the worker ran
    /// (`sources.len()` for a bootstrap, 0 for a resume) — the coordinator
    /// sums these into its re-bootstrap accounting.
    Bootstrapped(u64),
    Applied(ApplyEcho),
    Partials(Box<Scores>),
    ExactSum(Box<ExactSum>),
    Exported(Box<ExportedRecord>),
    /// `Flush`, `Import` and `Retire` completed.
    Done,
}

struct WorkerThread<S: BdStore> {
    id: usize,
    /// Pinned CSR epoch this worker currently computes against — an `Arc`
    /// share of the coordinator's published snapshot, not a private clone.
    view: Arc<CsrView>,
    /// The shard compute core (store + partials + scratch) shared with the
    /// single machine and the remote-node embodiment — see
    /// [`ebc_core::shard`].
    shard: ShardState<S>,
    poisoned: bool,
    cmd_rx: Receiver<Command>,
    reply_tx: Sender<Result<Reply, Error>>,
}

impl<S: BdStore> WorkerThread<S> {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            if let Command::Shutdown = cmd {
                break;
            }
            let result = self.guarded(|w| w.execute(cmd));
            let _ = self.reply_tx.send(result);
        }
    }

    fn execute(&mut self, cmd: Command) -> Result<Reply, Error> {
        Ok(match cmd {
            Command::Bootstrap { sources } => {
                Reply::Bootstrapped(self.shard.bootstrap(self.view.as_ref(), &sources)?)
            }
            Command::Resume { owned } => {
                Reply::Bootstrapped(self.shard.resume(self.view.as_ref(), owned)?)
            }
            Command::Apply {
                update,
                removed_eid,
                adopt,
                view,
            } => Reply::Applied(self.apply(update, removed_eid, adopt, view)?),
            Command::Partials => Reply::Partials(Box::new(self.shard.partial().clone())),
            Command::ExactSum => {
                Reply::ExactSum(Box::new(self.shard.exact_sum(self.view.as_ref())?))
            }
            Command::Export { source, tag } => {
                Reply::Exported(Box::new(self.shard.export(source, tag)?))
            }
            Command::Flush => {
                self.shard.flush()?;
                Reply::Done
            }
            Command::Import { record } => {
                self.shard.import(*record)?;
                Reply::Done
            }
            Command::Retire { source } => {
                self.shard.retire(source)?;
                Reply::Done
            }
            // `run` exits before executing it
            Command::Shutdown => Reply::Done,
        })
    }

    /// Run `f` with poison gating and panic containment: a poisoned worker
    /// answers immediately, a store error or panic poisons it.
    fn guarded(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Reply, Error>,
    ) -> Result<Reply, Error> {
        if self.poisoned {
            return Err(Error::lost(format!("worker {} previously failed", self.id)));
        }
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => {
                // A store error can leave the record/partial half-written;
                // graph-level errors are validated away by the coordinator,
                // so any error reaching this point taints the worker.
                self.poisoned = true;
                Err(e)
            }
            Err(_) => {
                self.poisoned = true;
                Err(Error::lost(format!(
                    "worker {} panicked during a command",
                    self.id
                )))
            }
        }
    }

    /// Map task for one update: adopt the shipped view epoch, then run the
    /// kernel for every owned source (skipping `dd == 0` via the cheap peek).
    /// Structural mutation already happened on the coordinator's replica —
    /// the worker only widens its store/scratch to the view's dimensions.
    fn apply(
        &mut self,
        update: Update,
        removed_eid: Option<EdgeId>,
        adopt: Option<VertexId>,
        view: Arc<CsrView>,
    ) -> Result<ApplyEcho, Error> {
        let t0 = Instant::now();
        self.view = view;
        let view = Arc::clone(&self.view);
        self.shard
            .apply(view.as_ref(), update, removed_eid, adopt)?;
        Ok(ApplyEcho {
            busy: t0.elapsed(),
            edge_slots: self.view.edge_slots(),
        })
    }
}

/// Handle to the spawned pool: per-worker command/reply channels plus the
/// join handles. Dropping the pool shuts every worker down and joins it.
pub(crate) struct WorkerPool {
    cmd_tx: Vec<Sender<Command>>,
    reply_rx: Vec<Receiver<Result<Reply, Error>>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

/// Worker `k`'s channel is gone: its thread died.
fn lost(k: usize) -> Error {
    Error::lost(format!("worker {k} thread lost"))
}

impl WorkerPool {
    /// Spawn one worker thread per store, all pinning the same shared CSR
    /// snapshot (no per-worker graph clones). A thread the OS refuses is
    /// `Io`; the workers already spawned are joined.
    pub fn spawn<S: BdStore + 'static>(
        view: Arc<CsrView>,
        cfg: UpdateConfig,
        stores: Vec<S>,
    ) -> Result<Self, Error> {
        let mut pool = WorkerPool {
            cmd_tx: Vec::with_capacity(stores.len()),
            reply_rx: Vec::with_capacity(stores.len()),
            handles: Vec::with_capacity(stores.len()),
        };
        for (id, store) in stores.into_iter().enumerate() {
            let (ctx, crx) = channel::<Command>();
            let (rtx, rrx) = channel();
            pool.cmd_tx.push(ctx);
            pool.reply_rx.push(rrx);
            let worker = WorkerThread {
                id,
                view: Arc::clone(&view),
                shard: ShardState::new(store, view.n(), view.edge_slots(), cfg.clone()),
                poisoned: false,
                cmd_rx: crx,
                reply_tx: rtx,
            };
            let handle = std::thread::Builder::new()
                .name(format!("ebc-worker-{id}"))
                .spawn(move || worker.run())?;
            pool.handles.push(Some(handle));
        }
        Ok(pool)
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.cmd_tx.len()
    }

    /// Queue a command on `worker`'s channel.
    pub fn send(&self, worker: usize, cmd: Command) -> Result<(), Error> {
        self.cmd_tx[worker].send(cmd).map_err(|_| lost(worker))
    }

    /// Next reply from `worker` (replies arrive in command order), with
    /// `take` picking out the payload the command asked for.
    pub fn recv<T>(
        &self,
        worker: usize,
        take: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, Error> {
        let reply = self.reply_rx[worker].recv().map_err(|_| lost(worker))??;
        take(reply).ok_or_else(|| Error::lost(format!("worker {worker} answered out of protocol")))
    }

    /// One command to one worker, and its reply.
    pub fn call<T>(
        &self,
        worker: usize,
        cmd: Command,
        take: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, Error> {
        self.send(worker, cmd)?;
        self.recv(worker, take)
    }

    /// `cmd(k)` to every worker `k`, then [`WorkerPool::gather`].
    pub fn round<T>(
        &self,
        cmd: impl Fn(usize) -> Command,
        take: impl Fn(Reply) -> Option<T>,
    ) -> Result<Vec<T>, Error> {
        for worker in 0..self.len() {
            self.send(worker, cmd(worker))?;
        }
        self.gather(take)
    }

    /// One reply from every worker, in worker order. The first failure
    /// wins, once every reply is in.
    pub fn gather<T>(&self, take: impl Fn(Reply) -> Option<T>) -> Result<Vec<T>, Error> {
        let (mut out, mut first_err) = (Vec::with_capacity(self.len()), None);
        for worker in 0..self.len() {
            match self.recv(worker, &take) {
                Ok(v) => out.push(v),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(out), Err)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.cmd_tx {
            let _ = tx.send(Command::Shutdown);
        }
        for handle in &mut self.handles {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}
