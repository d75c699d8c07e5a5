//! Lifecycle of the persistent pool: dropping a `ClusterEngine` joins every
//! worker thread (no leak, no panic) even with work still queued, and a
//! worker whose store fails is poisoned — the failure surfaces as an
//! typed error on the apply that hit it and as `Lost` on every subsequent
//! call, never as a hang.

use ebc_core::bd::{BdResult, BdStore, MemoryBdStore, SourceFn};
use ebc_core::incremental::UpdateConfig;
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};
use ebc_engine::ClusterEngine;
use ebc_gen::models::holme_kim;
use ebc_gen::streams::addition_stream;
use ebc_graph::VertexId;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// Memory store with an optional failure budget (every `update_with` spends
/// one unit; a depleted budget errors) and a drop counter proving the owning
/// worker thread released it.
struct InstrumentedStore {
    inner: MemoryBdStore,
    budget: Option<Arc<AtomicIsize>>,
    drops: Arc<AtomicUsize>,
}

impl InstrumentedStore {
    fn new(n: usize, budget: Option<Arc<AtomicIsize>>, drops: Arc<AtomicUsize>) -> Self {
        InstrumentedStore {
            inner: MemoryBdStore::new(n),
            budget,
            drops,
        }
    }
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
    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        self.inner.peek_pair(s, a, b)
    }
    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool> {
        if let Some(budget) = &self.budget {
            if budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
                return Err(Error::corrupt("injected store failure"));
            }
        }
        self.inner.update_with(s, f)
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

#[test]
fn dropping_the_engine_joins_all_workers() {
    let g = holme_kim(30, 3, 0.4, 21);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 4;
    let drops_factory = drops.clone();
    let mut cluster = ClusterEngine::new_with(&g, p, UpdateConfig::default(), move |_worker, n| {
        Ok(InstrumentedStore::new(n, None, drops_factory.clone()))
    })
    .unwrap();
    let updates: Vec<Update> = addition_stream(&g, 6, 5)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    cluster.apply_stream(&updates).unwrap();
    assert_eq!(drops.load(Ordering::SeqCst), 0, "stores released early");
    drop(cluster);
    // Drop returned, so every thread was joined — and each released its store.
    assert_eq!(drops.load(Ordering::SeqCst), p, "a worker leaked its store");
}

#[test]
fn poisoned_worker_surfaces_as_engine_error_not_a_hang() {
    let g = holme_kim(30, 3, 0.4, 23);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 3;
    // worker 1 may touch records twice, then every further write fails
    let budget = Arc::new(AtomicIsize::new(2));
    let drops_factory = drops.clone();
    let budget_factory = budget.clone();
    let mut cluster = ClusterEngine::new_with(&g, p, UpdateConfig::default(), move |worker, n| {
        let budget = (worker == 1).then(|| budget_factory.clone());
        Ok(InstrumentedStore::new(n, budget, drops_factory.clone()))
    })
    .unwrap();

    let updates: Vec<Update> = addition_stream(&g, 8, 7)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    // keep applying until the injected failure fires
    let mut saw_store_error = false;
    for &u in &updates {
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

    // the engine is poisoned: subsequent operations answer immediately
    let lost = |e: Error| e.kind() == ErrorKind::Lost;
    assert!(cluster.apply(Update::add(0, 29)).is_err_and(lost));
    assert!(cluster.reduce().is_err_and(lost));
    assert!(cluster.reduce_exact().is_err_and(lost));

    // ... and tearing it down still joins everything
    drop(cluster);
    assert_eq!(drops.load(Ordering::SeqCst), p);
}

#[test]
fn mid_stream_poison_still_tears_down_cleanly() {
    let g = holme_kim(40, 3, 0.4, 29);
    let drops = Arc::new(AtomicUsize::new(0));
    let p = 4;
    let budget = Arc::new(AtomicIsize::new(5));
    let drops_factory = drops.clone();
    let budget_factory = budget.clone();
    let mut cluster = ClusterEngine::new_with(&g, p, UpdateConfig::default(), move |worker, n| {
        let budget = (worker == 2).then(|| budget_factory.clone());
        Ok(InstrumentedStore::new(n, budget, drops_factory.clone()))
    })
    .unwrap();
    // a long pipelined stream: the failure fires while later updates are
    // already queued on the workers' channels
    let updates: Vec<Update> = addition_stream(&g, 20, 9)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    let err = cluster.apply_stream(&updates).unwrap_err();
    assert_eq!(
        err.kind(),
        ErrorKind::Corrupt,
        "expected the injected store error, got {err}"
    );
    // dropping with commands still in flight joins every worker
    drop(cluster);
    assert_eq!(drops.load(Ordering::SeqCst), p);
}
