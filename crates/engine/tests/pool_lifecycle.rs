//! Lifecycle of the engine's shards (the workers of the map phase): every
//! call joins the scoped threads it started and dropping a `ClusterEngine`
//! releases every store, and a shard whose store fails — with an error or
//! a panic, on the calling thread's shard 0 or on a scoped thread —
//! poisons the engine: the failure comes back typed on the call that hit
//! it, never as an unwinding panic or a hang, and every later call answers
//! `Lost`.

use ebc_core::bd::{BatchSourceFn, BdResult, BdStore, MemoryBdStore, ReadFn};
use ebc_core::shard::ShardState;
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};
use ebc_engine::ClusterEngine;
use ebc_gen::models::holme_kim;
use ebc_gen::streams::addition_stream;
use ebc_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// How an [`InstrumentedStore`] fails.
#[derive(Clone)]
enum Fault {
    /// Never.
    None,
    /// Every `update_batch` spends one unit; a depleted budget errors.
    Budget(Arc<AtomicIsize>),
    /// The first `update_batch` panics.
    Panic,
}

/// Memory store with an injected fault and a drop counter proving the
/// engine released it.
struct InstrumentedStore {
    inner: MemoryBdStore,
    fault: Fault,
    drops: Arc<AtomicUsize>,
}

impl Drop for InstrumentedStore {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

impl BdStore for InstrumentedStore {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn sources(&self) -> Vec<VertexId> {
        self.inner.sources()
    }
    fn num_sources(&self) -> usize {
        self.inner.num_sources()
    }
    fn read(&mut self, s: VertexId, f: ReadFn<'_>) -> BdResult<()> {
        self.inner.read(s, f)
    }
    fn update_batch(&mut self, u: VertexId, v: VertexId, f: BatchSourceFn<'_>) -> BdResult<u64> {
        match &self.fault {
            Fault::Panic => panic!("injected store panic"),
            Fault::Budget(budget) if budget.fetch_sub(1, Ordering::SeqCst) <= 0 => {
                return Err(Error::corrupt("injected store failure"));
            }
            _ => {}
        }
        self.inner.update_batch(u, v, f)
    }
    fn grow_vertex(&mut self) -> BdResult<()> {
        self.inner.grow_vertex()
    }
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        self.inner.add_source(s, d, sigma, delta)
    }
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        self.inner.remove_source(s)
    }
}

/// A `p`-shard engine over instrumented stores, `faulty` failing with
/// `fault`, every store counting its drop into `drops`.
fn engine(
    g: &Graph,
    p: usize,
    faulty: usize,
    fault: Fault,
    drops: &Arc<AtomicUsize>,
) -> ClusterEngine<ShardState<InstrumentedStore>> {
    ClusterEngine::new_with(g, p, |shard, n| {
        Ok(InstrumentedStore {
            inner: MemoryBdStore::new(n),
            fault: if shard == faulty {
                fault.clone()
            } else {
                Fault::None
            },
            drops: drops.clone(),
        })
    })
    .unwrap()
}

fn stream(g: &Graph, len: usize, seed: u64) -> Vec<Update> {
    addition_stream(g, len, seed)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect()
}

/// Every call on a poisoned engine answers `Lost` at once.
fn assert_every_call_is_lost(
    cluster: &mut ClusterEngine<ShardState<InstrumentedStore>>,
    ctx: &str,
) {
    let lost = |e: Error| e.kind() == ErrorKind::Lost;
    let n = cluster.n() as u32;
    assert!(cluster.apply(Update::add(0, n)).is_err_and(lost), "{ctx}");
    assert!(cluster.apply_stream(&[]).is_err_and(lost), "{ctx}");
    assert!(cluster.reduce().is_err_and(lost), "{ctx}");
    assert!(cluster.reduce_exact().is_err_and(lost), "{ctx}");
    assert!(cluster.take_score_delta().is_err_and(lost), "{ctx}");
    assert!(cluster.flush().is_err_and(lost), "{ctx}");
    assert!(cluster.rebalance(1).is_err_and(lost), "{ctx}");
}

#[test]
fn dropping_the_engine_joins_all_workers() {
    let g = holme_kim(30, 3, 0.4, 21);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 4;
    let mut cluster = engine(&g, p, p, Fault::None, &drops);
    cluster.apply_stream(&stream(&g, 6, 5)).unwrap();
    assert_eq!(drops.load(Ordering::SeqCst), 0, "stores released early");
    drop(cluster);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        p,
        "a store outlived its engine"
    );
}

#[test]
fn poisoned_worker_surfaces_as_engine_error_not_a_hang() {
    let g = holme_kim(30, 3, 0.4, 23);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 3;
    // shard 1 may run two updates, then every further one fails
    let budget = Arc::new(AtomicIsize::new(2));
    let mut cluster = engine(&g, p, 1, Fault::Budget(budget), &drops);
    // keep applying until the injected failure fires
    let mut saw_store_error = false;
    for u in stream(&g, 8, 7) {
        match cluster.apply(u) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Corrupt => {
                assert_eq!(e.context(), "injected store failure");
                saw_store_error = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(saw_store_error, "failure budget never fired");
    assert_every_call_is_lost(&mut cluster, "after a store error");
    drop(cluster);
    assert_eq!(drops.load(Ordering::SeqCst), p);
}

#[test]
fn mid_stream_poison_still_tears_down_cleanly() {
    let g = holme_kim(40, 3, 0.4, 29);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 4;
    let budget = Arc::new(AtomicIsize::new(5));
    let mut cluster = engine(&g, p, 2, Fault::Budget(budget), &drops);
    // the failure fires part-way through the batch every shard runs
    let err = cluster.apply_stream(&stream(&g, 20, 9)).unwrap_err();
    assert_eq!(
        err.kind(),
        ErrorKind::Corrupt,
        "expected the injected store error, got {err}"
    );
    drop(cluster);
    assert_eq!(drops.load(Ordering::SeqCst), p);
}

#[test]
fn a_store_panic_is_lost_on_the_caller_and_on_a_scoped_thread() {
    let g = holme_kim(24, 2, 0.3, 31);
    let p = 3;
    // shard 0 runs on the calling thread, shard p − 1 on a scoped thread
    for faulty in [0, p - 1] {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut cluster = engine(&g, p, faulty, Fault::Panic, &drops);
        let err = cluster.apply_stream(&stream(&g, 4, 3)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Lost, "shard {faulty}: {err}");
        assert!(
            err.context().contains(&format!("shard {faulty} panicked")),
            "shard {faulty}: {err}"
        );
        assert_every_call_is_lost(&mut cluster, &format!("after shard {faulty} panicked"));
        drop(cluster);
        assert_eq!(drops.load(Ordering::SeqCst), p, "shard {faulty}");
    }
}
