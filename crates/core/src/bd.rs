//! The `BD[·]` betweenness-data abstraction.
//!
//! For every source `s` the framework keeps three fixed-width arrays —
//! distance `d`, shortest-path count `σ`, dependency `δ` — and nothing else
//! (no predecessor lists, §3 "Memory optimisation"). This module defines the
//! storage contract those arrays live behind:
//!
//! * [`MemoryBdStore`] — everything resident (the paper's MO configuration);
//! * the `ebc-store` crate implements the out-of-core columnar layout (DO).
//!
//! The trait surface is shaped by the two access patterns of Algorithm 1:
//!
//! 1. [`BdStore::peek_pair`] reads only the two endpoint distances so a
//!    source with `dd == 0` can be skipped without touching `σ`/`δ`
//!    (the paper's §5.1 skip, "constant offset" seek on disk);
//! 2. [`BdStore::update_with`] hands the full mutable `BD[s]` view to the
//!    update kernel and persists it only if the kernel reports a change.

use ebc_graph::{Error, FxHashMap, VertexId, UNREACHABLE};

/// Mutable view over one source's `BD[s]` arrays.
///
/// All three slices have length `n` (the number of vertices) and are indexed
/// by vertex id, exactly like the paper's columnar record.
pub struct SourceViewMut<'a> {
    /// Distances from the source; [`UNREACHABLE`] when disconnected.
    pub d: &'a mut [u32],
    /// Shortest-path counts from the source.
    pub sigma: &'a mut [u64],
    /// Accumulated dependencies `δ_s(·)`.
    pub delta: &'a mut [f64],
    /// Where the callback reports the vertex ids of the cells it wrote, if
    /// the backend wants them (out-of-core backends persist and log just
    /// those cells). Handed over empty. A callback that returns `true` and
    /// reports nothing has changed the record in ways it did not itemise,
    /// and the backend persists the whole record.
    pub wrote: Option<&'a mut Vec<VertexId>>,
}

/// Result alias for store operations.
pub type BdResult<T> = Result<T, Error>;

/// `s` is not a source of this store (a wrong partition): `Invalid`,
/// naming `s`.
pub fn unknown_source(s: VertexId) -> Error {
    Error::invalid(format!("source {s} not in this store")).with_source(s)
}

/// `s` is already a source of this store: `Invalid`, naming `s`.
pub fn duplicate_source(s: VertexId) -> Error {
    Error::invalid(format!("source {s} already present")).with_source(s)
}

/// A record of `s` with `got` slots offered to a store of `n`: `Invalid`,
/// naming `s`.
pub fn misshapen(s: VertexId, got: usize, n: usize) -> Error {
    Error::invalid(format!(
        "record of source {s} has {got} slots, the store {n}"
    ))
    .with_source(s)
}

/// Callback that mutates one source view and reports whether it changed
/// anything (`false` lets out-of-core backends skip the write-back).
pub type SourceFn<'a> = &'a mut dyn FnMut(SourceViewMut<'_>) -> bool;

/// Callback applied to each non-skipped source of an [`BdStore::update_batch`]
/// call; receives the source id alongside its view and reports dirtiness
/// exactly like [`SourceFn`].
pub type BatchSourceFn<'a> = &'a mut dyn FnMut(VertexId, SourceViewMut<'_>) -> bool;

/// Counters describing one [`BdStore::update_batch`] invocation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Sources skipped by the `dd == 0` peek without materialising a record.
    pub skipped: u64,
    /// Sources whose full record was handed to the kernel.
    pub processed: u64,
    /// Records the kernel reported dirty and the store persisted.
    pub written: u64,
}

/// One source's full `BD[s]` record serialized out of a store by
/// [`BdStore::export_source`] — the unit of data a shard handoff moves
/// between machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedRecord {
    /// The source the record belongs to.
    pub source: VertexId,
    /// Distances from the source.
    pub d: Vec<u32>,
    /// Shortest-path counts from the source.
    pub sigma: Vec<u64>,
    /// Accumulated dependencies `δ_s(·)`.
    pub delta: Vec<f64>,
}

/// Storage contract for the per-source `BD[s]` records of one partition.
pub trait BdStore: Send {
    /// Number of vertex slots in every record.
    fn n(&self) -> usize;

    /// The sources managed by this store, in deterministic order.
    fn sources(&self) -> Vec<VertexId>;

    /// Fill `out` with [`BdStore::sources`] (same order), reusing its
    /// capacity. Backends that keep a resident order vector override this so
    /// the per-update source enumeration in the engine hot loop does not
    /// allocate.
    fn sources_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.sources());
    }

    /// Number of sources managed by this store.
    fn num_sources(&self) -> usize;

    /// Read the distances of `a` and `b` under source `s` without
    /// materialising the full record (the `dd == 0` fast path).
    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)>;

    /// Run `f` over the mutable view of source `s`, persisting the record if
    /// `f` returns `true`. Returns that flag.
    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool>;

    /// Drive one edge update of `{u, v}` over `sources`: peek the endpoint
    /// distances of every source, skip the `dd == 0` ones (Proposition 3.1),
    /// and hand each remaining source's full view to `f`, persisting it when
    /// `f` reports a change.
    ///
    /// This default implementation is the trait-generic loop — one
    /// [`BdStore::peek_pair`] plus one [`BdStore::update_with`] per source —
    /// which is optimal for in-memory backends. Out-of-core backends
    /// override it to coalesce the record I/O of one update into run-sorted
    /// batched reads and writes (≤ 1 seek per contiguous slot run) instead
    /// of one seek+read+write per affected source.
    fn update_batch(
        &mut self,
        sources: &[VertexId],
        u: VertexId,
        v: VertexId,
        f: BatchSourceFn<'_>,
    ) -> BdResult<BatchStats> {
        let mut stats = BatchStats::default();
        for &s in sources {
            let (a, b) = self.peek_pair(s, u, v)?;
            if a == b {
                stats.skipped += 1;
                continue;
            }
            stats.processed += 1;
            if self.update_with(s, &mut |view| f(s, view))? {
                stats.written += 1;
            }
        }
        Ok(stats)
    }

    /// Append one vertex slot (`d = UNREACHABLE`, `σ = 0`, `δ = 0`) to every
    /// record — called when a new vertex joins the graph.
    fn grow_vertex(&mut self) -> BdResult<()>;

    /// Register a brand-new source with its freshly computed record.
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()>;

    /// Unregister source `s` and drop its record — the store no longer
    /// answers for it. Slot compaction is backend-specific; the surviving
    /// sources and their records must be unaffected.
    fn remove_source(&mut self, s: VertexId) -> BdResult<()>;

    /// Serialize source `s`'s record out of the store and unregister it —
    /// the donor half of a shard handoff.
    ///
    /// `tag` is an opaque caller token travelling with the export (the
    /// sharded layer passes the recipient shard id). Backends with a crash
    /// story persist the payload and the tag durably *before* removing the
    /// source, so a kill between the removal here and the installation in
    /// the recipient store can be rolled forward from the journal; once the
    /// handoff has committed elsewhere the journal is discarded via
    /// [`BdStore::retire_export`]. This default implementation (in-memory
    /// backends) reads and removes without journaling.
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        let _ = tag;
        let (mut d, mut sigma, mut delta) = (Vec::new(), Vec::new(), Vec::new());
        self.update_with(s, &mut |view| {
            d = view.d.to_vec();
            sigma = view.sigma.to_vec();
            delta = view.delta.to_vec();
            false
        })?;
        self.remove_source(s)?;
        Ok(ExportedRecord {
            source: s,
            d,
            sigma,
            delta,
        })
    }

    /// Discard any durable export journal [`BdStore::export_source`] left
    /// for `s`, once the handoff has committed on the recipient side. No-op
    /// for backends without one; discarding a journal that does not exist
    /// must succeed.
    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        let _ = s;
        Ok(())
    }

    /// Flush buffered record data to durable storage. No-op for in-memory
    /// backends; out-of-core backends override to sync their data and
    /// sidecar files (the session checkpoint path calls this through the
    /// trait, without knowing the backend).
    fn flush(&mut self) -> BdResult<()> {
        Ok(())
    }
}

/// A boxed store is the store it holds: every method forwards, the provided
/// ones included, so erasing the type (the facade's
/// `Box<dyn BdStore>`) keeps a backend's overrides — batched record I/O,
/// export journals, a durable `flush` — instead of falling back to the
/// trait defaults.
impl<S: BdStore + ?Sized> BdStore for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn sources(&self) -> Vec<VertexId> {
        (**self).sources()
    }
    fn sources_into(&self, out: &mut Vec<VertexId>) {
        (**self).sources_into(out)
    }
    fn num_sources(&self) -> usize {
        (**self).num_sources()
    }
    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        (**self).peek_pair(s, a, b)
    }
    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool> {
        (**self).update_with(s, f)
    }
    fn update_batch(
        &mut self,
        sources: &[VertexId],
        u: VertexId,
        v: VertexId,
        f: BatchSourceFn<'_>,
    ) -> BdResult<BatchStats> {
        (**self).update_batch(sources, u, v, f)
    }
    fn grow_vertex(&mut self) -> BdResult<()> {
        (**self).grow_vertex()
    }
    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        (**self).add_source(s, d, sigma, delta)
    }
    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        (**self).remove_source(s)
    }
    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        (**self).export_source(s, tag)
    }
    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        (**self).retire_export(s)
    }
    fn flush(&mut self) -> BdResult<()> {
        (**self).flush()
    }
}

/// Fully in-memory `BD` store — the paper's *MO* configuration.
///
/// Struct-of-arrays layout: each of `d`/`sigma`/`delta` is one contiguous
/// slab holding every record back to back with stride [`MemoryBdStore::n`]
/// (slot `i`'s record occupies `[i·n, (i+1)·n)`). One allocation per
/// component instead of three per source keeps the kernel's record walks
/// cache-linear and makes growing/removing a record a `memmove`, not an
/// allocator round trip.
pub struct MemoryBdStore {
    n: usize,
    order: Vec<VertexId>,
    index: FxHashMap<VertexId, usize>,
    d: Vec<u32>,
    sigma: Vec<u64>,
    delta: Vec<f64>,
}

impl MemoryBdStore {
    /// Empty store for records of `n` vertices.
    pub fn new(n: usize) -> Self {
        MemoryBdStore {
            n,
            order: Vec::new(),
            index: FxHashMap::default(),
            d: Vec::new(),
            sigma: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Approximate resident bytes (for the experiments' memory reporting).
    pub fn resident_bytes(&self) -> usize {
        self.order.len() * self.n * (4 + 8 + 8)
    }

    fn slot(&self, s: VertexId) -> BdResult<usize> {
        self.index.get(&s).copied().ok_or_else(|| unknown_source(s))
    }

    #[inline]
    fn row(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.n..(slot + 1) * self.n
    }
}

impl BdStore for MemoryBdStore {
    fn n(&self) -> usize {
        self.n
    }

    fn sources(&self) -> Vec<VertexId> {
        self.order.clone()
    }

    fn sources_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend_from_slice(&self.order);
    }

    fn num_sources(&self) -> usize {
        self.order.len()
    }

    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        let base = self.slot(s)? * self.n;
        Ok((self.d[base + a as usize], self.d[base + b as usize]))
    }

    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool> {
        let slot = self.slot(s)?;
        let row = self.row(slot);
        let view = SourceViewMut {
            d: &mut self.d[row.clone()],
            sigma: &mut self.sigma[row.clone()],
            delta: &mut self.delta[row],
            wrote: None,
        };
        Ok(f(view))
    }

    fn grow_vertex(&mut self) -> BdResult<()> {
        // Re-stride the slabs in place: widen each row by one slot and seed
        // the new column with the fresh-vertex sentinel. Rows move to larger
        // offsets, so walking them back to front never clobbers an unmoved
        // row (each row move itself is a memmove).
        let (old_n, new_n, slots) = (self.n, self.n + 1, self.order.len());
        self.d.resize(slots * new_n, UNREACHABLE);
        self.sigma.resize(slots * new_n, 0);
        self.delta.resize(slots * new_n, 0.0);
        for slot in (0..slots).rev() {
            let src = slot * old_n..slot * old_n + old_n;
            let dst = slot * new_n;
            self.d.copy_within(src.clone(), dst);
            self.sigma.copy_within(src.clone(), dst);
            self.delta.copy_within(src, dst);
            self.d[dst + old_n] = UNREACHABLE;
            self.sigma[dst + old_n] = 0;
            self.delta[dst + old_n] = 0.0;
        }
        self.n = new_n;
        Ok(())
    }

    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        if self.index.contains_key(&s) {
            return Err(duplicate_source(s));
        }
        if d.len() != self.n || sigma.len() != self.n || delta.len() != self.n {
            return Err(misshapen(s, d.len(), self.n));
        }
        self.index.insert(s, self.order.len());
        self.order.push(s);
        self.d.extend_from_slice(&d);
        self.sigma.extend_from_slice(&sigma);
        self.delta.extend_from_slice(&delta);
        Ok(())
    }

    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        let slot = self.slot(s)?;
        self.index.remove(&s);
        self.order.swap_remove(slot);
        // Mirror `swap_remove` on the slabs: the last row fills the vacated
        // stride, then the slabs shrink by one row.
        let last = self.order.len();
        if slot != last {
            let src = last * self.n..(last + 1) * self.n;
            let dst = slot * self.n;
            self.d.copy_within(src.clone(), dst);
            self.sigma.copy_within(src.clone(), dst);
            self.delta.copy_within(src, dst);
        }
        self.d.truncate(last * self.n);
        self.sigma.truncate(last * self.n);
        self.delta.truncate(last * self.n);
        if let Some(&moved) = self.order.get(slot) {
            self.index.insert(moved, slot);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_graph::ErrorKind;

    fn invalid_naming(r: BdResult<impl std::fmt::Debug>, s: VertexId) -> bool {
        matches!(r, Err(e) if e.kind() == ErrorKind::Invalid && e.source_vertex() == Some(s))
    }

    fn store_with_two_sources() -> MemoryBdStore {
        let mut st = MemoryBdStore::new(3);
        st.add_source(0, vec![0, 1, 2], vec![1, 1, 1], vec![2.0, 1.0, 0.0])
            .unwrap();
        st.add_source(1, vec![1, 0, 1], vec![1, 1, 1], vec![0.0, 2.0, 0.0])
            .unwrap();
        st
    }

    #[test]
    fn peek_reads_distances() {
        let mut st = store_with_two_sources();
        assert_eq!(st.peek_pair(0, 1, 2).unwrap(), (1, 2));
        assert_eq!(st.peek_pair(1, 0, 2).unwrap(), (1, 1));
    }

    #[test]
    fn unknown_source_rejected() {
        let mut st = store_with_two_sources();
        assert!(invalid_naming(st.peek_pair(9, 0, 1), 9));
        assert!(invalid_naming(st.update_with(9, &mut |_| false), 9));
    }

    #[test]
    fn update_mutates_in_place() {
        let mut st = store_with_two_sources();
        let dirty = st
            .update_with(0, &mut |view| {
                view.d[2] = 7;
                view.sigma[2] = 5;
                view.delta[2] = 3.5;
                true
            })
            .unwrap();
        assert!(dirty);
        assert_eq!(st.peek_pair(0, 2, 2).unwrap(), (7, 7));
        st.update_with(0, &mut |view| {
            assert_eq!(view.sigma[2], 5);
            assert_eq!(view.delta[2], 3.5);
            false
        })
        .unwrap();
    }

    #[test]
    fn grow_vertex_extends_records() {
        let mut st = store_with_two_sources();
        st.grow_vertex().unwrap();
        assert_eq!(st.n(), 4);
        assert_eq!(st.peek_pair(0, 3, 0).unwrap(), (UNREACHABLE, 0));
        st.update_with(1, &mut |view| {
            assert_eq!(view.d.len(), 4);
            assert_eq!(view.sigma[3], 0);
            assert_eq!(view.delta[3], 0.0);
            false
        })
        .unwrap();
    }

    #[test]
    fn duplicate_and_misshapen_sources_rejected() {
        let mut st = store_with_two_sources();
        assert!(invalid_naming(
            st.add_source(0, vec![0; 3], vec![0; 3], vec![0.0; 3]),
            0
        ));
        assert!(invalid_naming(
            st.add_source(2, vec![0; 2], vec![0; 2], vec![0.0; 2]),
            2
        ));
    }

    #[test]
    fn update_batch_default_skips_and_counts() {
        let mut st = store_with_two_sources();
        // source 0: d[0]=0, d[1]=1 → processed; source 1: d[0]=1, d[1]=0 → processed
        let sources = st.sources();
        let mut seen = Vec::new();
        let stats = st
            .update_batch(&sources, 0, 1, &mut |s, view| {
                seen.push(s);
                if s == 0 {
                    view.delta[0] += 1.0;
                    true
                } else {
                    false
                }
            })
            .unwrap();
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(
            stats,
            BatchStats {
                skipped: 0,
                processed: 2,
                written: 1
            }
        );
        // an edge whose endpoints are equidistant from source 1 is skipped
        let stats = st
            .update_batch(&[1], 0, 2, &mut |_, _| panic!("must be skipped"))
            .unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.processed, 0);
    }

    #[test]
    fn sources_in_insertion_order() {
        let st = store_with_two_sources();
        assert_eq!(st.sources(), vec![0, 1]);
        assert_eq!(st.num_sources(), 2);
    }

    #[test]
    fn remove_source_compacts_and_preserves_survivors() {
        let mut st = store_with_two_sources();
        st.add_source(2, vec![2, 1, 0], vec![1, 1, 1], vec![0.5, 0.25, 0.0])
            .unwrap();
        st.remove_source(0).unwrap();
        assert_eq!(st.sources(), vec![2, 1], "swap-remove order");
        assert!(invalid_naming(st.peek_pair(0, 0, 1), 0));
        // survivors keep their exact records
        assert_eq!(st.peek_pair(1, 0, 2).unwrap(), (1, 1));
        assert_eq!(st.peek_pair(2, 0, 2).unwrap(), (2, 0));
        // removing the last slot needs no index fixup
        st.remove_source(1).unwrap();
        assert_eq!(st.sources(), vec![2]);
        assert!(invalid_naming(st.remove_source(9), 9));
    }

    #[test]
    fn slab_restride_survives_interleaved_grow_and_remove() {
        // Rows are strided in shared slabs; growing re-strides in place and
        // removal memmoves the tail row. Interleave both and check every
        // surviving record cell against an independently maintained model.
        type ModelRow = (VertexId, Vec<u32>, Vec<u64>, Vec<f64>);
        let mut st = MemoryBdStore::new(2);
        let mut model: Vec<ModelRow> = Vec::new();
        for s in 0..6u32 {
            let d: Vec<u32> = (0..st.n() as u32).map(|v| v + s).collect();
            let sig: Vec<u64> = (0..st.n() as u64).map(|v| v + 10 * s as u64 + 1).collect();
            let del: Vec<f64> = (0..st.n()).map(|v| v as f64 + s as f64 / 4.0).collect();
            st.add_source(s, d.clone(), sig.clone(), del.clone())
                .unwrap();
            model.push((s, d, sig, del));
            if s % 2 == 1 {
                st.grow_vertex().unwrap();
                for r in &mut model {
                    r.1.push(UNREACHABLE);
                    r.2.push(0);
                    r.3.push(0.0);
                }
            }
            if s == 3 {
                st.remove_source(1).unwrap();
                model.retain(|r| r.0 != 1);
            }
        }
        for (s, d, sig, del) in &model {
            st.update_with(*s, &mut |view| {
                assert_eq!(view.d, &d[..], "d row of source {s}");
                assert_eq!(view.sigma, &sig[..], "sigma row of source {s}");
                assert_eq!(view.delta, &del[..], "delta row of source {s}");
                false
            })
            .unwrap();
        }
        let mut buf = vec![99; 4];
        st.sources_into(&mut buf);
        assert_eq!(buf, st.sources());
    }

    #[test]
    fn export_source_hands_back_the_record_and_removes_it() {
        let mut st = store_with_two_sources();
        let rec = st.export_source(0, 7).unwrap();
        assert_eq!(rec.source, 0);
        assert_eq!(rec.d, vec![0, 1, 2]);
        assert_eq!(rec.sigma, vec![1, 1, 1]);
        assert_eq!(rec.delta, vec![2.0, 1.0, 0.0]);
        assert_eq!(st.sources(), vec![1], "export removes the source");
        // re-importing on another store round-trips
        let mut other = MemoryBdStore::new(3);
        other
            .add_source(rec.source, rec.d, rec.sigma, rec.delta)
            .unwrap();
        assert_eq!(other.peek_pair(0, 1, 2).unwrap(), (1, 2));
        // retiring an export that left no journal is a no-op
        st.retire_export(0).unwrap();
    }

    /// A memory store counting the calls to the provided methods a real
    /// backend overrides: `update_batch`, `flush`, `export_source` and
    /// `retire_export`, in that order.
    struct Counted {
        inner: MemoryBdStore,
        calls: std::sync::Arc<[std::sync::atomic::AtomicUsize; 4]>,
    }

    impl Counted {
        fn count(&self, which: usize) {
            self.calls[which].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl BdStore for Counted {
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
            self.inner.update_with(s, f)
        }
        fn update_batch(
            &mut self,
            sources: &[VertexId],
            u: VertexId,
            v: VertexId,
            f: BatchSourceFn<'_>,
        ) -> BdResult<BatchStats> {
            self.count(0);
            self.inner.update_batch(sources, u, v, f)
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
        fn flush(&mut self) -> BdResult<()> {
            self.count(1);
            Ok(())
        }
        fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
            self.count(2);
            self.inner.export_source(s, tag)
        }
        fn retire_export(&mut self, _s: VertexId) -> BdResult<()> {
            self.count(3);
            Ok(())
        }
    }

    #[test]
    fn a_boxed_store_keeps_its_overrides() {
        let calls: std::sync::Arc<[std::sync::atomic::AtomicUsize; 4]> = Default::default();
        let counted = Counted {
            inner: store_with_two_sources(),
            calls: calls.clone(),
        };
        let mut boxed: Box<dyn BdStore> = Box::new(counted);
        boxed
            .update_batch(&[0, 1], 0, 1, &mut |_, _| false)
            .unwrap();
        boxed.flush().unwrap();
        let rec = boxed.export_source(0, 1).unwrap();
        boxed.retire_export(0).unwrap();
        assert_eq!((rec.source, boxed.sources()), (0, vec![1]));
        // a box around the box forwards just the same
        let mut twice: Box<Box<dyn BdStore>> = Box::new(boxed);
        twice.flush().unwrap();
        let seen = calls
            .each_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(seen, [1, 2, 1, 1], "update_batch, flush, export, retire");
    }
}
