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
//! * [`Command::MergePartials`] — its role in one tree-structured fast
//!   reduce: receive and fold peer partials, then forward up the tree;
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
//! subsequent `Apply`/`ExactSum` answers [`EngineError::Poisoned`]
//! immediately instead of computing — or hanging — on corrupt state.
//! Poisoned workers still participate mechanically in merge trees so peers
//! never block on a silent partner.

use crate::cluster::EngineError;
use ebc_core::bd::{BdStore, ExportedRecord};
use ebc_core::exact::ExactSum;
use ebc_core::incremental::UpdateConfig;
use ebc_core::scores::Scores;
use ebc_core::shard::ShardState;
use ebc_core::state::Update;
use ebc_graph::csr::CsrView;
use ebc_graph::{EdgeId, VertexId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One worker's role in a tree-structured fast reduce.
#[derive(Debug, Clone)]
pub(crate) struct MergePlan {
    /// Peers whose accumulated partials this worker folds in, in this exact
    /// order (merge order is part of the deterministic contract).
    pub recv_from: Vec<usize>,
    /// Where the folded result goes: a parent worker, or (`None`, root only)
    /// back to the coordinator as a [`Reply::Merged`].
    pub send_to: Option<usize>,
}

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
    /// Participate in one fast (partial-sum) tree reduce.
    MergePartials { plan: MergePlan },
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

/// Worker → coordinator replies (one per command, except `MergePartials`
/// which replies only from the tree root and `Shutdown` which is silent).
pub(crate) enum Reply {
    /// Carries the number of Brandes single-source iterations the worker ran
    /// (`sources.len()` for a bootstrap, 0 for a resume) — the coordinator
    /// sums these into its re-bootstrap accounting.
    Bootstrapped(Result<u64, EngineError>),
    Applied(Result<ApplyEcho, EngineError>),
    Merged(Box<Scores>),
    ExactSum(Result<ExactSum, EngineError>),
    Exported(Box<Result<ExportedRecord, EngineError>>),
    Imported(Result<(), EngineError>),
    Retired(Result<(), EngineError>),
    Flushed(Result<(), EngineError>),
}

/// Payload on the worker-to-worker merge channels: sender id + accumulated
/// partial.
type MergeMsg = (usize, Box<Scores>);

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
    reply_tx: Sender<Reply>,
    merge_rx: Receiver<MergeMsg>,
    merge_tx: Vec<Sender<MergeMsg>>,
    /// Out-of-order merge payloads, one slot per sender: children deliver
    /// in any order, the fold consumes them in plan order. One slot is
    /// enough because reduces are barriered — the root answers only after
    /// every payload of the round was consumed, and the coordinator waits
    /// for that answer before it can start another round.
    stash: Vec<Option<Box<Scores>>>,
}

impl<S: BdStore> WorkerThread<S> {
    fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            match cmd {
                Command::Shutdown => break,
                Command::Bootstrap { sources } => {
                    let result = self.guarded(|w| {
                        w.shard
                            .bootstrap(w.view.as_ref(), &sources)
                            .map_err(Into::into)
                    });
                    let _ = self.reply_tx.send(Reply::Bootstrapped(result));
                }
                Command::Resume { owned } => {
                    let result = self
                        .guarded(|w| w.shard.resume(w.view.as_ref(), owned).map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::Bootstrapped(result));
                }
                Command::Flush => {
                    let result = self.guarded(|w| w.shard.flush().map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::Flushed(result));
                }
                Command::Apply {
                    update,
                    removed_eid,
                    adopt,
                    view,
                } => {
                    let result = self.guarded(|w| w.apply(update, removed_eid, adopt, view));
                    let _ = self.reply_tx.send(Reply::Applied(result));
                }
                Command::MergePartials { plan } => self.merge(plan),
                Command::ExactSum => {
                    let result =
                        self.guarded(|w| w.shard.exact_sum(w.view.as_ref()).map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::ExactSum(result));
                }
                Command::Export { source, tag } => {
                    let result = self.guarded(|w| w.shard.export(source, tag).map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::Exported(Box::new(result)));
                }
                Command::Import { record } => {
                    let result = self.guarded(|w| w.shard.import(*record).map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::Imported(result));
                }
                Command::Retire { source } => {
                    let result = self.guarded(|w| w.shard.retire(source).map_err(Into::into));
                    let _ = self.reply_tx.send(Reply::Retired(result));
                }
            }
        }
    }

    /// Run `f` with poison gating and panic containment: a poisoned worker
    /// answers immediately, a store error or panic poisons it.
    fn guarded<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        if self.poisoned {
            return Err(EngineError::Poisoned(format!(
                "worker {} previously failed",
                self.id
            )));
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
                Err(EngineError::Poisoned(format!(
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
    ) -> Result<ApplyEcho, EngineError> {
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

    /// Tree-reduce participation. Runs even when poisoned (the values are
    /// then garbage the coordinator already knows to discard, but peers must
    /// never block waiting for this worker). Panics in the fold are caught
    /// so the send below *always* happens — the merge tree must make
    /// progress even through a broken worker, or its parent (and ultimately
    /// the coordinator and `Drop`) would block forever.
    fn merge(&mut self, plan: MergePlan) {
        let acc = match catch_unwind(AssertUnwindSafe(|| {
            let mut acc = Box::new(self.shard.partial().clone());
            for &from in &plan.recv_from {
                match self.recv_merge(from) {
                    Some(peer) => acc.merge_from(&peer),
                    None => break, // peer lost: propagate what we have
                }
            }
            acc
        })) {
            Ok(acc) => acc,
            Err(_) => {
                // garbage is fine — the coordinator only reads reduce output
                // from a healthy engine; what matters is unblocking the tree
                self.poisoned = true;
                Box::new(Scores::default())
            }
        };
        match plan.send_to {
            Some(parent) => {
                let _ = self.merge_tx[parent].send((self.id, acc));
            }
            None => {
                let _ = self.reply_tx.send(Reply::Merged(acc));
            }
        }
    }

    fn recv_merge(&mut self, from: usize) -> Option<Box<Scores>> {
        if let Some(s) = self.stash[from].take() {
            return Some(s);
        }
        loop {
            match self.merge_rx.recv() {
                Ok((src, scores)) if src == from => return Some(scores),
                Ok((src, scores)) => self.stash[src] = Some(scores),
                // Defensive only: with every command panic-contained, worker
                // threads cannot die mid-protocol, and (since each worker
                // holds clones of all merge senders) this channel cannot
                // disconnect while any worker lives.
                Err(_) => return None,
            }
        }
    }
}

/// Handle to the spawned pool: per-worker command/reply channels plus the
/// join handles. Dropping the pool shuts every worker down and joins it.
pub(crate) struct WorkerPool {
    cmd_tx: Vec<Sender<Command>>,
    reply_rx: Vec<Receiver<Reply>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn one worker thread per store, all pinning the same shared CSR
    /// snapshot (no per-worker graph clones).
    pub fn spawn<S: BdStore + 'static>(
        view: Arc<CsrView>,
        cfg: UpdateConfig,
        stores: Vec<S>,
    ) -> Self {
        let p = stores.len();
        let mut merge_txs = Vec::with_capacity(p);
        let mut merge_rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<MergeMsg>();
            merge_txs.push(tx);
            merge_rxs.push(rx);
        }
        let mut cmd_tx = Vec::with_capacity(p);
        let mut reply_rx = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (id, (store, merge_rx)) in stores.into_iter().zip(merge_rxs).enumerate() {
            let (ctx, crx) = channel::<Command>();
            let (rtx, rrx) = channel::<Reply>();
            cmd_tx.push(ctx);
            reply_rx.push(rrx);
            let worker = WorkerThread {
                id,
                view: Arc::clone(&view),
                shard: ShardState::new(store, view.n(), view.edge_slots(), cfg.clone()),
                poisoned: false,
                cmd_rx: crx,
                reply_tx: rtx,
                merge_rx,
                merge_tx: merge_txs.clone(),
                stash: vec![None; p],
            };
            let handle = std::thread::Builder::new()
                .name(format!("ebc-worker-{id}"))
                .spawn(move || worker.run())
                .expect("spawn worker thread");
            handles.push(Some(handle));
        }
        WorkerPool {
            cmd_tx,
            reply_rx,
            handles,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.cmd_tx.len()
    }

    /// Queue a command on `worker`'s channel.
    pub fn send(&self, worker: usize, cmd: Command) -> Result<(), EngineError> {
        self.cmd_tx[worker]
            .send(cmd)
            .map_err(|_| EngineError::WorkerLost(worker))
    }

    /// Next reply from `worker` (replies arrive in command order).
    pub fn recv(&self, worker: usize) -> Result<Reply, EngineError> {
        self.reply_rx[worker]
            .recv()
            .map_err(|_| EngineError::WorkerLost(worker))
    }

    /// The merge schedule of one tree-structured fast reduce over `p`
    /// workers: in round `step`, worker `i` (a multiple of `2·step`) folds in
    /// worker `i + step`; the root (worker 0) replies to the coordinator.
    pub fn merge_plans(p: usize) -> Vec<MergePlan> {
        let mut plans: Vec<MergePlan> = (0..p)
            .map(|_| MergePlan {
                recv_from: Vec::new(),
                send_to: None,
            })
            .collect();
        let mut step = 1;
        while step < p {
            let mut i = 0;
            while i + step < p {
                plans[i].recv_from.push(i + step);
                plans[i + step].send_to = Some(i);
                i += 2 * step;
            }
            step *= 2;
        }
        plans
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_plans_form_a_binary_tree() {
        for p in 1..=9usize {
            let plans = WorkerPool::merge_plans(p);
            assert_eq!(plans.len(), p);
            // root replies to the coordinator, everyone else sends exactly once
            assert_eq!(plans[0].send_to, None);
            for (i, plan) in plans.iter().enumerate().skip(1) {
                let parent = plan.send_to.expect("non-root sends");
                assert!(parent < i, "parent {parent} of {i} must be lower-id");
                assert!(
                    plans[parent].recv_from.contains(&i),
                    "parent {parent} must expect {i}"
                );
            }
            // every send is expected exactly once
            let expected: usize = plans.iter().map(|pl| pl.recv_from.len()).sum();
            assert_eq!(expected, p - 1);
        }
    }

    #[test]
    fn merge_plan_order_is_ascending_step() {
        let plans = WorkerPool::merge_plans(8);
        assert_eq!(plans[0].recv_from, vec![1, 2, 4]);
        assert_eq!(plans[4].recv_from, vec![5, 6]);
        assert_eq!(plans[4].send_to, Some(0));
        assert_eq!(plans[6].recv_from, vec![7]);
        assert_eq!(plans[6].send_to, Some(4));
    }
}
