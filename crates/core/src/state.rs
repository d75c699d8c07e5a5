//! The end-to-end framework of Figure 1: bootstrap once with Brandes, then
//! keep vertex and edge betweenness current while streaming edge updates.
//!
//! The single machine is the one-shard case of the paper's partitioned
//! framework: [`BetweennessState`] is one [`ShardState`] owning every
//! source, and every update is first validated and folded into the shard's
//! graph by [`Update::fold_into`] — the same fold the cluster embodiments
//! run against their replicas.

use crate::bd::{BdStore, MemoryBdStore};
use crate::incremental::{UpdateConfig, UpdateStats};
use crate::scores::Scores;
use crate::shard::{Shard, ShardState};
use ebc_graph::{Cursor, EdgeId, EdgeOp, Error, Graph, GraphError, VertexId};

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

    /// Validate this update against `graph` and, only if it is valid,
    /// apply it: a self-loop, a sparse vertex id, a duplicate addition or
    /// a missing removal is rejected with the replica untouched. A valid
    /// addition naming vertex `n` grows the replica by that vertex first
    /// (paper §3.1: one new endpoint per arriving edge). Returns the
    /// vertex that arrived with an addition and the edge slot a removal
    /// freed — the two facts the shard-side map task needs besides the
    /// update itself. A rejection is `Invalid`, its [`GraphError`] in
    /// [`Error::graph_error`].
    ///
    /// Every embodiment runs this one fold before anything else mutates:
    /// [`Shard::apply`] on every shard's replica, and the validation
    /// replicas of the cluster engine and the fleet coordinator.
    pub fn fold_into(self, graph: &mut Graph) -> Result<(Option<VertexId>, Option<EdgeId>), Error> {
        let Update { op, u, v } = self;
        if u == v {
            return Err(GraphError::SelfLoop(u).into());
        }
        match op {
            EdgeOp::Add => {
                let hi = u.max(v);
                let n = graph.n();
                if hi as usize > n {
                    return Err(GraphError::SparseVertex(hi).into());
                }
                // with u != v, an addition that grows the replica cannot
                // fail: the arriving endpoint has no edges yet
                let arriving = (hi as usize == n).then(|| graph.add_vertex());
                graph.add_edge(u, v)?;
                Ok((arriving, None))
            }
            EdgeOp::Remove => Ok((None, Some(graph.remove_edge(u, v)?))),
        }
    }

    /// The update's binary record, `[op u8][u u32][v u32]` little-endian
    /// with op 0 for an addition and 1 for a removal — the bytes the
    /// session history and the coordinator journal keep on disk.
    pub fn to_bytes(self) -> [u8; 9] {
        let mut buf = [0u8; 9];
        buf[0] = match self.op {
            EdgeOp::Add => 0,
            EdgeOp::Remove => 1,
        };
        buf[1..5].copy_from_slice(&self.u.to_le_bytes());
        buf[5..9].copy_from_slice(&self.v.to_le_bytes());
        buf
    }

    /// Read one [`Update::to_bytes`] record from `cur`: a short read or an
    /// unknown op is `Corrupt`.
    pub fn read_from(cur: &mut Cursor<'_>) -> Result<Self, Error> {
        let (op, u, v) = (cur.u8()?, cur.u32()?, cur.u32()?);
        match op {
            0 => Ok(Update::add(u, v)),
            1 => Ok(Update::remove(u, v)),
            other => Err(Error::corrupt(format!("unknown update op {other}"))),
        }
    }
}

/// Online betweenness centrality over an evolving graph (single machine):
/// one [`ShardState`] owning every source — the one-shard case of the
/// partitioned embodiment in the `ebc-engine` crate, running the same shard
/// code over the same kernel.
pub struct BetweennessState<S: BdStore = MemoryBdStore> {
    shard: ShardState<S>,
    /// Whether a dense score baseline has been drained by
    /// [`BetweennessState::take_score_delta`]; until then every drain
    /// republishes the full vector.
    published: bool,
}

impl BetweennessState<MemoryBdStore> {
    /// Bootstrap (step 1, Figure 1): run the predecessor-free Brandes over
    /// every source, keeping the records in memory.
    ///
    /// # Panics
    ///
    /// When some vertex is reached by more shortest paths than a `u64`
    /// counts (a chain of 64 diamonds does it);
    /// [`BetweennessState::new_into_store`] refuses such a graph as
    /// `Unsupported` instead.
    pub fn new(graph: &Graph) -> Self {
        Self::new_with(graph.clone(), UpdateConfig::default())
    }

    /// [`BetweennessState::new`] with a custom kernel configuration; it
    /// panics where `new` does.
    pub fn new_with(graph: Graph, cfg: UpdateConfig) -> Self {
        let store = MemoryBdStore::new(graph.n());
        Self::new_into_store(graph, store, cfg).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<S: BdStore> BetweennessState<S> {
    /// Bootstrap into a caller-provided (e.g. out-of-core) store. The store
    /// must be empty; records for every vertex of `graph` are inserted. A
    /// vertex reached by more shortest paths than a `u64` counts is
    /// `Unsupported`, naming the source.
    pub fn new_into_store(graph: Graph, store: S, cfg: UpdateConfig) -> Result<Self, Error> {
        let sources: Vec<VertexId> = graph.vertices().collect();
        let mut shard = ShardState::new(store, graph, cfg);
        shard.bootstrap(&sources)?;
        Ok(BetweennessState {
            shard,
            published: false,
        })
    }

    /// Resume from previously persisted records alone (the DO-mode
    /// crash-recovery path): [`Shard::resume`] rounds the records'
    /// exact sum ([`crate::exact::ExactSum`]) into the running scores, and
    /// refuses a store that is not shaped for `graph` or does not hold a
    /// record for every vertex. The reconstructed scores agree with the
    /// pre-crash incrementally maintained ones up to floating-point
    /// summation order.
    pub fn resume(graph: Graph, store: S, cfg: UpdateConfig) -> Result<Self, Error> {
        let n = graph.n();
        let mut shard = ShardState::new(store, graph, cfg);
        shard.resume(n)?;
        Ok(BetweennessState {
            shard,
            published: false,
        })
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        self.shard.graph()
    }

    /// Current scores (vertex and edge).
    pub fn scores(&self) -> &Scores {
        self.shard.partial()
    }

    /// Edge betweenness of `{u, v}`, if present.
    pub fn edge_centrality(&self, u: VertexId, v: VertexId) -> Option<f64> {
        self.scores().ebc_of(self.graph(), u, v)
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> UpdateStats {
        self.shard.stats()
    }

    /// Brandes single-source iterations run so far: `n` after a bootstrap
    /// plus one per arrived or added vertex, and 0 right after a resume.
    pub fn brandes_runs(&self) -> u64 {
        self.shard.brandes_runs()
    }

    /// Borrow the underlying store (e.g. to flush an out-of-core backend).
    pub fn store(&self) -> &S {
        self.shard.store()
    }

    /// Mutably borrow the underlying store (record reads are `&mut` because
    /// out-of-core backends seek).
    pub fn store_mut(&mut self) -> &mut S {
        self.shard.store_mut()
    }

    /// Deterministic exact scores derived from the `BD[·]` records via the
    /// fixed-point sum of [`crate::exact`], checked to cover every vertex
    /// exactly once (a store missing a record is `Corrupt`, not short
    /// scores). Bitwise equal to any `ebc-engine` cluster's exact
    /// reduce over the same update history, regardless of worker count or
    /// store backend — the oracle the parallel-consistency suite compares
    /// against. The incrementally maintained [`BetweennessState::scores`]
    /// agree with this value only up to floating-point summation order.
    pub fn exact_scores(&mut self) -> Result<Scores, Error> {
        let (n, edge_slots) = (self.graph().n(), self.graph().edge_slots());
        let sum = self.shard.exact_sum()?;
        sum.check(n, n, edge_slots)?;
        Ok(sum.into_scores())
    }

    /// Add an isolated vertex: it joins the source set with zero centrality
    /// (paper §3.1); its Brandes record is the trivial one.
    pub fn add_vertex(&mut self) -> Result<VertexId, Error> {
        self.shard.add_vertex()
    }

    /// Apply one edge update (step 2, Figure 1) through
    /// [`Shard::apply`]: fold it into the graph (a rejected update
    /// leaves no trace), then run the map task over every source (skipping
    /// `dd == 0` sources via the cheap distance peek) and adopt an arriving
    /// vertex. A path count past `u64::MAX` is `Unsupported`, naming the
    /// source; the state is then part-updated and must not be used again
    /// (an engine poisons itself on it).
    pub fn apply(&mut self, update: Update) -> Result<(), Error> {
        self.shard.apply(update, true)
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
        let mut dirty = self.shard.drain_dirty();
        let vbc = &self.shard.partial().vbc;
        if !self.published {
            self.published = true;
            return ScoreDelta::Dense(vbc.clone());
        }
        if dirty.is_empty() {
            return ScoreDelta::Unchanged;
        }
        // ascending id order so fresh vertices extend the index densely
        dirty.sort_unstable();
        ScoreDelta::Sparse(dirty.into_iter().map(|v| (v, vbc[v as usize])).collect())
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
        let err = st.apply(Update::add(0, 7)).unwrap_err();
        assert_eq!(err.graph_error(), Some(GraphError::SparseVertex(7)));
    }

    #[test]
    fn duplicate_add_rejected_cleanly() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(0, 1).unwrap();
        let mut st = BetweennessState::new(&g);
        let err = st.apply(Update::add(0, 1)).unwrap_err();
        assert_eq!(err.kind(), ebc_graph::ErrorKind::Invalid);
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
    fn update_bytes_round_trip_and_refuse_unknown_ops() {
        for u in [Update::add(0, 7), Update::remove(u32::MAX, 3)] {
            let bytes = u.to_bytes();
            let mut cur = Cursor::new(&bytes);
            assert_eq!(Update::read_from(&mut cur).unwrap(), u);
            cur.finish().unwrap();
        }
        let corrupt = |bytes: &[u8]| {
            let err = Update::read_from(&mut Cursor::new(bytes)).unwrap_err();
            err.kind() == ebc_graph::ErrorKind::Corrupt
        };
        let mut bad = Update::add(1, 2).to_bytes();
        bad[0] = 2;
        assert!(corrupt(&bad), "unknown op");
        assert!(corrupt(&bad[..8]), "short read");
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
