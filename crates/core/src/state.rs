//! The end-to-end framework of Figure 1: bootstrap once with Brandes, then
//! keep vertex and edge betweenness current while streaming edge updates.

use crate::bd::{BdError, BdStore, MemoryBdStore};
use crate::brandes::{single_source_update, single_source_update_with, BrandesScratch};
use crate::incremental::{update_source, UpdateConfig, UpdateStats, Workspace};
use crate::scores::Scores;
use ebc_graph::{EdgeOp, Graph, GraphError, VertexId};
use std::fmt;

/// One streamed edge update (the elements of the paper's stream `ES`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Add or remove.
    pub op: EdgeOp,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl Update {
    /// An edge addition.
    pub fn add(u: VertexId, v: VertexId) -> Self {
        Update {
            op: EdgeOp::Add,
            u,
            v,
        }
    }

    /// An edge removal.
    pub fn remove(u: VertexId, v: VertexId) -> Self {
        Update {
            op: EdgeOp::Remove,
            u,
            v,
        }
    }
}

/// Errors from [`BetweennessState`] operations.
#[derive(Debug)]
pub enum StateError {
    /// Invalid graph mutation (duplicate edge, missing edge, self-loop...).
    Graph(GraphError),
    /// Storage failure.
    Store(BdError),
    /// An addition referenced a vertex more than one past the current
    /// maximum; new vertices must arrive densely (paper §3.1 handles one new
    /// endpoint per arriving edge).
    SparseVertex(VertexId),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Graph(e) => write!(f, "graph error: {e}"),
            StateError::Store(e) => write!(f, "store error: {e}"),
            StateError::SparseVertex(v) => {
                write!(f, "vertex {v} skips ids; new vertices must arrive densely")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl From<GraphError> for StateError {
    fn from(e: GraphError) -> Self {
        StateError::Graph(e)
    }
}

impl From<BdError> for StateError {
    fn from(e: BdError) -> Self {
        StateError::Store(e)
    }
}

/// Online betweenness centrality over an evolving graph (single machine).
///
/// Owns the graph, the `BD[·]` records for *all* sources, and the running
/// VBC/EBC scores. For the partitioned multi-worker embodiment see the
/// `ebc-engine` crate, which drives the same kernel over disjoint source
/// ranges.
pub struct BetweennessState<S: BdStore = MemoryBdStore> {
    graph: Graph,
    store: S,
    scores: Scores,
    ws: Workspace,
    cfg: UpdateConfig,
    /// Whether a dense score baseline has been drained by
    /// [`BetweennessState::take_score_delta`]; until then every drain
    /// republishes the full vector.
    published: bool,
}

impl BetweennessState<MemoryBdStore> {
    /// Bootstrap (step 1, Figure 1): run the predecessor-free Brandes over
    /// every source, keeping the records in memory.
    pub fn new(graph: &Graph) -> Self {
        Self::new_with(graph.clone(), UpdateConfig::default())
    }

    /// [`BetweennessState::new`] with a custom kernel configuration.
    pub fn new_with(graph: Graph, cfg: UpdateConfig) -> Self {
        let mut store = MemoryBdStore::new(graph.n());
        let mut scores = Scores::zeros_for(&graph);
        let mut scratch = BrandesScratch::new(graph.n());
        for s in graph.vertices() {
            let r = single_source_update_with(&graph, s, &mut scores, &mut scratch);
            store
                .add_source(s, r.d, r.sigma, r.delta)
                .expect("fresh store accepts all sources");
        }
        let n = graph.n();
        BetweennessState {
            graph,
            store,
            scores,
            ws: Workspace::new(n),
            cfg,
            published: false,
        }
    }
}

impl<S: BdStore> BetweennessState<S> {
    /// Bootstrap into a caller-provided (e.g. out-of-core) store. The store
    /// must be empty; records for every vertex of `graph` are inserted.
    pub fn new_into_store(
        graph: Graph,
        mut store: S,
        cfg: UpdateConfig,
    ) -> Result<Self, StateError> {
        let mut scores = Scores::zeros_for(&graph);
        let mut scratch = BrandesScratch::new(graph.n());
        for s in graph.vertices() {
            let r = single_source_update_with(&graph, s, &mut scores, &mut scratch);
            store.add_source(s, r.d, r.sigma, r.delta)?;
        }
        let n = graph.n();
        Ok(BetweennessState {
            graph,
            store,
            scores,
            ws: Workspace::new(n),
            cfg,
            published: false,
        })
    }

    /// Resume from previously persisted records alone: the running scores
    /// are the records' exact sum ([`crate::exact::ExactSum`]), rounded
    /// once. This is the DO-mode crash-recovery path — reopen the
    /// (recovered) disk store, then resume and keep streaming updates. The
    /// reconstructed scores agree with the pre-crash incrementally
    /// maintained ones up to floating-point summation order.
    pub fn resume(graph: Graph, mut store: S, cfg: UpdateConfig) -> Result<Self, StateError> {
        let scores = crate::exact::exact_scores(&graph, &mut store)?;
        Ok(Self::from_parts(graph, store, scores, cfg))
    }

    /// Resume from previously persisted records (the store already holds one
    /// record per vertex and `scores` matches them).
    pub fn from_parts(graph: Graph, store: S, scores: Scores, cfg: UpdateConfig) -> Self {
        let n = graph.n();
        BetweennessState {
            graph,
            store,
            scores,
            ws: Workspace::new(n),
            cfg,
            published: false,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current vertex betweenness (ordered-pair convention, Def. 2.1).
    pub fn vertex_centrality(&self) -> &[f64] {
        &self.scores.vbc
    }

    /// Current scores (vertex and edge).
    pub fn scores(&self) -> &Scores {
        &self.scores
    }

    /// Edge betweenness of `{u, v}`, if present.
    pub fn edge_centrality(&self, u: VertexId, v: VertexId) -> Option<f64> {
        self.scores.ebc_of(&self.graph, u, v)
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> UpdateStats {
        self.ws.stats
    }

    /// Reset work counters.
    pub fn reset_stats(&mut self) {
        self.ws.stats = UpdateStats::default();
    }

    /// Borrow the underlying store (e.g. to flush an out-of-core backend).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutably borrow the underlying store (record reads are `&mut` because
    /// out-of-core backends seek).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Deterministic exact scores derived from the `BD[·]` records via the
    /// fixed-point sum of [`crate::exact`]. Bitwise equal to any
    /// `ebc-engine` cluster's exact reduce over the same update history,
    /// regardless of worker count or store backend — the oracle the
    /// parallel-consistency suite compares against. The incrementally
    /// maintained [`BetweennessState::scores`] agree with this value only up
    /// to floating-point summation order.
    pub fn exact_scores(&mut self) -> Result<Scores, StateError> {
        Ok(crate::exact::exact_scores(&self.graph, &mut self.store)?)
    }

    /// Add an isolated vertex: it joins the source set with an empty record
    /// and zero centrality (paper §3.1).
    pub fn add_vertex(&mut self) -> Result<VertexId, StateError> {
        let v = self.graph.add_vertex();
        self.store.grow_vertex()?;
        self.scores
            .ensure_shape(self.graph.n(), self.graph.edge_slots());
        self.ws.grow(self.graph.n());
        // The new vertex is a source too: its record is trivial (d=∞
        // everywhere except itself).
        let n = self.graph.n();
        let mut d = vec![ebc_graph::UNREACHABLE; n];
        let mut sigma = vec![0u64; n];
        d[v as usize] = 0;
        sigma[v as usize] = 1;
        self.store.add_source(v, d, sigma, vec![0.0; n])?;
        // the score vector grew: the rank index must learn the new entry
        self.ws.mark_dirty(v);
        Ok(v)
    }

    /// Apply one edge update (step 2, Figure 1): mutate the graph, then run
    /// the incremental kernel for every source (skipping `dd == 0` sources
    /// via the cheap distance peek).
    pub fn apply(&mut self, update: Update) -> Result<(), StateError> {
        let Update { op, u, v } = update;
        match op {
            EdgeOp::Add => {
                let hi = u.max(v);
                if hi as usize > self.graph.n() {
                    return Err(StateError::SparseVertex(hi));
                }
                let new_vertex = (hi as usize) == self.graph.n();
                if new_vertex {
                    // §3.1: arriving vertices join with zero centrality; the
                    // generic addition kernel then treats them as uL with
                    // d[uL] = ∞ for every existing source.
                    self.graph.add_vertex();
                    self.store.grow_vertex()?;
                    self.ws.grow(self.graph.n());
                }
                self.graph.add_edge(u, v)?;
                self.scores
                    .ensure_shape(self.graph.n(), self.graph.edge_slots());
                self.run_kernel(op, u, v)?;
                if new_vertex {
                    // The new vertex also becomes a source: one fresh Brandes
                    // iteration adds its pair dependencies. Its dependency
                    // vector is exactly the set of vbc entries this pass
                    // touched outside the kernel's dirty tracking, plus the
                    // new score slot itself.
                    let r = single_source_update(&self.graph, hi, &mut self.scores);
                    self.ws.mark_dirty(hi);
                    for (w, &dep) in r.delta.iter().enumerate() {
                        if dep != 0.0 && w as u32 != hi {
                            self.ws.mark_dirty(w as u32);
                        }
                    }
                    self.store.add_source(hi, r.d, r.sigma, r.delta)?;
                }
                Ok(())
            }
            EdgeOp::Remove => {
                let eid = self.graph.remove_edge(u, v)?;
                self.run_kernel(op, u, v)?;
                // Every source has retracted its contribution; the slot is
                // recycled, so clear any residual floating-point dust.
                self.scores.ebc[eid as usize] = 0.0;
                Ok(())
            }
        }
    }

    /// Drain what changed in the running VBC since the last drain, as a
    /// [`crate::rankindex::ScoreDelta`] for
    /// [`crate::rankindex::RankIndex`] maintenance.
    ///
    /// The first drain (and the first after a resume) is a dense baseline;
    /// after that the kernel's dirty tracking yields sparse deltas whose
    /// values are read from the running scores at drain time, so applying
    /// the stream of deltas to an index reproduces
    /// [`BetweennessState::scores`]`.vbc` bit for bit.
    pub fn take_score_delta(&mut self) -> crate::rankindex::ScoreDelta {
        use crate::rankindex::ScoreDelta;
        if !self.published {
            self.published = true;
            self.ws.drain_dirty();
            return ScoreDelta::Dense(self.scores.vbc.clone());
        }
        let mut dirty = self.ws.drain_dirty();
        if dirty.is_empty() {
            return ScoreDelta::Unchanged;
        }
        // ascending id order so fresh vertices extend the index densely
        dirty.sort_unstable();
        ScoreDelta::Sparse(
            dirty
                .into_iter()
                .map(|v| (v, self.scores.vbc[v as usize]))
                .collect(),
        )
    }

    fn run_kernel(&mut self, op: EdgeOp, u: VertexId, v: VertexId) -> Result<(), StateError> {
        let graph = &self.graph;
        let scores = &mut self.scores;
        let ws = &mut self.ws;
        let cfg = &self.cfg;
        let sources = self.store.sources();
        let stats = self.store.update_batch(&sources, u, v, &mut |s, view| {
            update_source(graph, s, op, u, v, view, scores, ws, cfg)
        })?;
        self.ws.stats.sources_skipped += stats.skipped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::brandes;

    fn check(state: &BetweennessState) {
        let fresh = brandes(state.graph());
        assert!(state.scores().max_vbc_diff(&fresh) < 1e-6);
        assert!(state.scores().max_ebc_diff(&fresh, state.graph()) < 1e-6);
    }

    #[test]
    fn quickstart_flow() {
        let mut g = Graph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            g.add_edge(u, v).unwrap();
        }
        let mut st = BetweennessState::new(&g);
        st.apply(Update::add(1, 3)).unwrap();
        check(&st);
        st.apply(Update::remove(0, 2)).unwrap();
        check(&st);
    }

    #[test]
    fn new_vertex_via_edge() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut st = BetweennessState::new(&g);
        st.apply(Update::add(2, 3)).unwrap(); // vertex 3 arrives
        assert_eq!(st.graph().n(), 4);
        check(&st);
        st.apply(Update::add(3, 0)).unwrap();
        check(&st);
    }

    #[test]
    fn sparse_vertex_rejected() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(0, 1).unwrap();
        let mut st = BetweennessState::new(&g);
        assert!(matches!(
            st.apply(Update::add(0, 7)),
            Err(StateError::SparseVertex(7))
        ));
    }

    #[test]
    fn duplicate_add_rejected_cleanly() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(0, 1).unwrap();
        let mut st = BetweennessState::new(&g);
        assert!(matches!(
            st.apply(Update::add(0, 1)),
            Err(StateError::Graph(_))
        ));
        check(&st); // state unharmed
    }

    #[test]
    fn isolated_vertex_then_connect() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut st = BetweennessState::new(&g);
        let v = st.add_vertex().unwrap();
        assert_eq!(v, 3);
        check(&st);
        st.apply(Update::add(1, 3)).unwrap();
        check(&st);
    }

    #[test]
    fn removed_edge_slot_zeroed() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut st = BetweennessState::new(&g);
        let eid = st.graph().edge_id(0, 1).unwrap();
        st.apply(Update::remove(0, 1)).unwrap();
        assert_eq!(st.scores().ebc[eid as usize], 0.0);
        check(&st);
    }

    #[test]
    fn score_deltas_reconstruct_running_vbc() {
        use crate::rankindex::{RankIndex, ScoreDelta};
        let mut g = Graph::with_vertices(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.add_edge(u, v).unwrap();
        }
        let mut st = BetweennessState::new(&g);
        let mut ix = RankIndex::new();
        // first drain: dense baseline
        let d = st.take_score_delta();
        assert!(matches!(d, ScoreDelta::Dense(_)));
        ix.apply(&d);
        // quiescent drain: nothing moved
        assert!(st.take_score_delta().is_empty());
        // a stream including vertex arrival, an isolated vertex, a removal
        let updates = [
            Update::add(0, 2),
            Update::add(4, 5), // vertex 5 arrives
            Update::remove(1, 2),
            Update::add(3, 5),
        ];
        for u in updates {
            st.apply(u).unwrap();
            ix.apply(&st.take_score_delta());
            let want = &st.scores().vbc;
            let got = ix.to_scores();
            assert_eq!(got.len(), want.len());
            for (v, (a, b)) in got.iter().zip(want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "vbc[{v}] after {u:?}");
            }
        }
        let v = st.add_vertex().unwrap();
        ix.apply(&st.take_score_delta());
        assert_eq!(ix.len(), st.graph().n());
        assert_eq!(ix.score(v), Some(0.0));
    }

    #[test]
    fn girvan_newman_style_peeling() {
        // repeatedly remove the top edge; scores must track throughout.
        let mut g = Graph::with_vertices(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        let mut st = BetweennessState::new(&g);
        for _ in 0..5 {
            let Some((key, _)) = st.scores().top_edge(st.graph()) else {
                break;
            };
            let (u, v) = key.endpoints();
            st.apply(Update::remove(u, v)).unwrap();
            check(&st);
        }
    }
}
