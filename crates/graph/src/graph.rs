//! Dynamic undirected simple graph with dense `u32` vertex ids and stable
//! edge slots.
//!
//! Every edge is assigned a dense *edge slot* (`EdgeId`) that stays fixed for
//! the lifetime of the edge and is recycled after removal. Edge betweenness
//! scores can therefore be kept in a flat `Vec<f64>` indexed by slot instead
//! of a hash map — the dependency-accumulation inner loop touches one edge
//! score per scanned neighbour, so this is the hottest index in the whole
//! framework.

use crate::fxhash::FxHashMap;
use std::fmt;

/// Dense vertex identifier. The framework's per-source state (`BD[s]`) is a
/// set of flat arrays indexed by this id, mirroring the paper's columnar
/// on-disk layout (§5.1) where the vertex id is implied by array position.
pub type VertexId = u32;

/// Dense, recycled edge-slot identifier (index into score arrays).
pub type EdgeId = u32;

/// Canonical undirected edge key: the two endpoints packed into a `u64` with
/// the smaller id in the high half. Order-insensitive identity of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeKey(pub u64);

impl EdgeKey {
    /// Build the canonical key for the edge `{u, v}` (order-insensitive).
    #[inline]
    pub fn new(u: VertexId, v: VertexId) -> Self {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        EdgeKey(((lo as u64) << 32) | hi as u64)
    }

    /// The endpoints `(min, max)` of this edge.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (
            (self.0 >> 32) as VertexId,
            (self.0 & 0xffff_ffff) as VertexId,
        )
    }
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (u, v) = self.endpoints();
        write!(f, "({u},{v})")
    }
}

/// One directed half of an undirected edge as stored in an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Half {
    /// Target vertex.
    pub to: VertexId,
    /// Edge slot shared by both halves.
    pub eid: EdgeId,
}

/// Errors raised by graph mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// Self-loops carry no shortest paths and are rejected (σ(s,t|e)=0 for
    /// any loop, so they never affect betweenness).
    SelfLoop(VertexId),
    /// An endpoint is not a vertex of the graph.
    UnknownVertex(VertexId),
    /// The edge to remove does not exist.
    MissingEdge(VertexId, VertexId),
    /// The edge to add already exists (simple graph).
    DuplicateEdge(VertexId, VertexId),
    /// An addition referenced a vertex more than one past the current
    /// maximum; new vertices must arrive densely (paper §3.1 handles one
    /// new endpoint per arriving edge).
    SparseVertex(VertexId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v}"),
            GraphError::UnknownVertex(v) => write!(f, "vertex {v} does not exist"),
            GraphError::MissingEdge(u, v) => write!(f, "edge ({u},{v}) does not exist"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u},{v}) already exists"),
            GraphError::SparseVertex(v) => {
                write!(f, "vertex {v} skips ids; new vertices must arrive densely")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A dynamic, undirected, simple graph.
///
/// Vertices are dense `0..n` indices; adding a vertex extends the range.
/// Adjacency lists hold the surviving edges in insertion order: a removal
/// shifts the later neighbours down (O(deg), after the O(deg) lookup), so
/// it never reorders the survivors. The dependency sums run in this order,
/// which makes a vertex's adjacency, and so every record bit, a function of
/// the edges' insertion order alone. Edge existence is tracked in a hash
/// map from canonical [`EdgeKey`]s to slots, so streaming updates validate
/// in O(1).
#[derive(Clone, Default)]
pub struct Graph {
    pub(crate) adj: Vec<Vec<Half>>,
    pub(crate) index: FxHashMap<EdgeKey, EdgeId>,
    /// Slot -> key; `None` for free slots.
    pub(crate) slots: Vec<Option<EdgeKey>>,
    pub(crate) free: Vec<EdgeId>,
}

impl Graph {
    /// Empty graph with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Graph with `n` isolated vertices `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            ..Default::default()
        }
    }

    /// Build from an iterator of edges, growing the vertex set on demand and
    /// skipping duplicates and self-loops (convenient for generated input).
    pub fn from_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Self {
        let mut g = Graph::new();
        for (u, v) in edges {
            if u == v {
                continue;
            }
            g.ensure_vertex(u.max(v));
            let _ = g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.index.len()
    }

    /// Number of edge slots ever allocated (score arrays must be this long).
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.slots.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Add a new isolated vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as VertexId
    }

    /// Ensure vertices `0..=v` exist (used when ingesting edge lists).
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if (v as usize) >= self.adj.len() {
            self.adj.resize(v as usize + 1, Vec::new());
        }
    }

    #[inline]
    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// Add the undirected edge `{u, v}`; returns its slot.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let key = EdgeKey::new(u, v);
        if self.index.contains_key(&key) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let eid = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(key);
                id
            }
            None => {
                self.slots.push(Some(key));
                (self.slots.len() - 1) as EdgeId
            }
        };
        self.index.insert(key, eid);
        self.adj[u as usize].push(Half { to: v, eid });
        self.adj[v as usize].push(Half { to: u, eid });
        Ok(eid)
    }

    /// Remove the undirected edge `{u, v}`; returns the freed slot.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let key = EdgeKey::new(u, v);
        let eid = match self.index.remove(&key) {
            Some(eid) => eid,
            None => return Err(GraphError::MissingEdge(u, v)),
        };
        self.slots[eid as usize] = None;
        self.free.push(eid);
        let pos = self.adj[u as usize]
            .iter()
            .position(|h| h.to == v)
            .expect("adjacency in sync");
        self.adj[u as usize].remove(pos);
        let pos = self.adj[v as usize]
            .iter()
            .position(|h| h.to == u)
            .expect("adjacency in sync");
        self.adj[v as usize].remove(pos);
        Ok(eid)
    }

    /// True if the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.index.contains_key(&EdgeKey::new(u, v))
    }

    /// Slot of the edge `{u, v}`, if present.
    #[inline]
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.index.get(&EdgeKey::new(u, v)).copied()
    }

    /// Neighbour halves of `v` (arbitrary but deterministic order).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Half] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adj.len() as VertexId
    }

    /// Iterator over live edges as `(key, slot)` pairs (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeKey, EdgeId)> + '_ {
        self.index.iter().map(|(k, v)| (*k, *v))
    }

    /// All edges as canonical `(min, max)` pairs, sorted — deterministic order
    /// for reproducible experiments and tests.
    pub fn sorted_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut es: Vec<_> = self.index.keys().map(|k| k.endpoints()).collect();
        es.sort_unstable();
        es
    }

    /// Bytes held by the adjacency lists and the slot table (diagnostics;
    /// the edge index's hash table is not counted).
    pub fn resident_bytes(&self) -> usize {
        let halves: usize = self.adj.iter().map(Vec::capacity).sum();
        halves * std::mem::size_of::<Half>()
            + self.adj.capacity() * std::mem::size_of::<Vec<Half>>()
            + self.slots.capacity() * std::mem::size_of::<Option<EdgeKey>>()
    }

    /// Average degree `2m/n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_key_is_canonical() {
        assert_eq!(EdgeKey::new(3, 7), EdgeKey::new(7, 3));
        assert_eq!(EdgeKey::new(3, 7).endpoints(), (3, 7));
        assert_eq!(EdgeKey::new(7, 3).endpoints(), (3, 7));
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 0));
        assert_eq!(g.degree(1), 2);
        g.remove_edge(0, 1).unwrap();
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.neighbors(1)[0].to, 2);
    }

    #[test]
    fn edge_slots_are_recycled() {
        let mut g = Graph::with_vertices(4);
        let e01 = g.add_edge(0, 1).unwrap();
        let e12 = g.add_edge(1, 2).unwrap();
        assert_ne!(e01, e12);
        g.remove_edge(0, 1).unwrap();
        let e23 = g.add_edge(2, 3).unwrap();
        assert_eq!(e23, e01, "freed slot should be reused");
        assert_eq!(g.edge_slots(), 2);
        assert_eq!(g.edge_id(3, 2), Some(e23));
    }

    #[test]
    fn edge_id_lookup() {
        let mut g = Graph::with_vertices(3);
        let e = g.add_edge(0, 2).unwrap();
        assert_eq!(g.edge_id(2, 0), Some(e));
        assert_eq!(g.edge_id(0, 1), None);
        g.remove_edge(0, 2).unwrap();
        assert_eq!(g.edge_id(0, 2), None);
    }

    #[test]
    fn halves_share_slot() {
        let mut g = Graph::with_vertices(2);
        let e = g.add_edge(0, 1).unwrap();
        assert_eq!(g.neighbors(0)[0].eid, e);
        assert_eq!(g.neighbors(1)[0].eid, e);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.add_edge(1, 0), Err(GraphError::DuplicateEdge(1, 0)));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::with_vertices(2);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut g = Graph::with_vertices(2);
        assert_eq!(g.add_edge(0, 5), Err(GraphError::UnknownVertex(5)));
        assert_eq!(g.remove_edge(0, 5), Err(GraphError::UnknownVertex(5)));
    }

    #[test]
    fn missing_edge_removal_rejected() {
        let mut g = Graph::with_vertices(3);
        assert_eq!(g.remove_edge(0, 1), Err(GraphError::MissingEdge(0, 1)));
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut g = Graph::new();
        g.ensure_vertex(9);
        assert_eq!(g.n(), 10);
        g.ensure_vertex(3); // no shrink
        assert_eq!(g.n(), 10);
    }

    #[test]
    fn add_vertex_returns_fresh_id() {
        let mut g = Graph::with_vertices(2);
        assert_eq!(g.add_vertex(), 2);
        assert_eq!(g.n(), 3);
    }

    #[test]
    fn from_edges_builder() {
        let g = Graph::from_edges([(0, 1), (1, 2), (1, 1), (2, 1), (4, 0)]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 3); // self-loop and duplicate skipped
        assert!(g.has_edge(4, 0));
    }

    #[test]
    fn sorted_edges_deterministic() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(2, 3).unwrap();
        g.add_edge(1, 0).unwrap();
        assert_eq!(g.sorted_edges(), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn average_degree() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 3).unwrap();
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
        assert_eq!(Graph::new().average_degree(), 0.0);
    }
}
