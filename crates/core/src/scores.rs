//! Betweenness score containers.

use ebc_graph::{EdgeKey, Graph, VertexId};

/// Vertex and edge betweenness centrality scores.
///
/// Following the paper's Definitions 2.1 and 2.2, scores are sums over
/// *ordered* pairs `(s, t), s ≠ t`: on an undirected graph every unordered
/// pair contributes twice, so values are exactly twice the "classic"
/// undirected convention; halve them for that convention.
///
/// Edge scores are stored in a flat vector indexed by the graph's stable edge
/// slots ([`ebc_graph::EdgeId`]) — the dependency-accumulation inner loop
/// updates one edge score per scanned neighbour, so this avoids a hash lookup
/// on the hottest path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scores {
    /// Vertex betweenness, indexed by vertex id.
    pub vbc: Vec<f64>,
    /// Edge betweenness, indexed by edge slot.
    pub ebc: Vec<f64>,
}

impl Scores {
    /// Zeroed scores shaped for graph `g`.
    pub fn zeros_for(g: &Graph) -> Self {
        Scores {
            vbc: vec![0.0; g.n()],
            ebc: vec![0.0; g.edge_slots()],
        }
    }

    /// Zeroed scores with explicit dimensions.
    pub fn zeros(n: usize, edge_slots: usize) -> Self {
        Scores {
            vbc: vec![0.0; n],
            ebc: vec![0.0; edge_slots],
        }
    }

    /// Grow (never shrink) to cover `n` vertices and `edge_slots` slots.
    pub fn ensure_shape(&mut self, n: usize, edge_slots: usize) {
        if self.vbc.len() < n {
            self.vbc.resize(n, 0.0);
        }
        if self.ebc.len() < edge_slots {
            self.ebc.resize(edge_slots, 0.0);
        }
    }

    /// Edge betweenness of `{u, v}`, if the edge exists.
    pub fn ebc_of(&self, g: &Graph, u: VertexId, v: VertexId) -> Option<f64> {
        g.edge_id(u, v).map(|eid| self.ebc[eid as usize])
    }

    /// All live edges with their betweenness, sorted by key (deterministic).
    pub fn ebc_entries(&self, g: &Graph) -> Vec<(EdgeKey, f64)> {
        let mut out: Vec<_> = g
            .edges()
            .map(|(key, eid)| (key, self.ebc[eid as usize]))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Edge with the maximum betweenness (ties broken by canonical key, so the
    /// result is deterministic). `None` on an edgeless graph.
    pub fn top_edge(&self, g: &Graph) -> Option<(EdgeKey, f64)> {
        let mut best: Option<(EdgeKey, f64)> = None;
        for (key, eid) in g.edges() {
            let score = self.ebc[eid as usize];
            best = match best {
                None => Some((key, score)),
                Some((bk, bs)) => {
                    if score > bs || (score == bs && key < bk) {
                        Some((key, score))
                    } else {
                        Some((bk, bs))
                    }
                }
            };
        }
        best
    }

    /// The fast reduce: fold per-shard `partials` into zeroed scores shaped
    /// `(n, edge_slots)`, in the order given. Every partitioned embodiment
    /// passes its shards in ascending id order, so the result is
    /// deterministic for a fixed partition (and bitwise dependent on it:
    /// `f64` addition is not associative).
    pub fn fold<'a>(
        n: usize,
        edge_slots: usize,
        partials: impl IntoIterator<Item = &'a Scores>,
    ) -> Scores {
        let mut total = Scores::zeros(n, edge_slots);
        for partial in partials {
            total.merge_from(partial);
        }
        total
    }

    /// Elementwise accumulate `other` into `self` (the paper's reduce step:
    /// partial per-partition scores sum to the global scores).
    pub fn merge_from(&mut self, other: &Scores) {
        self.ensure_shape(other.vbc.len(), other.ebc.len());
        for (a, b) in self.vbc.iter_mut().zip(&other.vbc) {
            *a += b;
        }
        for (a, b) in self.ebc.iter_mut().zip(&other.ebc) {
            *a += b;
        }
    }

    /// Maximum absolute difference in VBC against `other` (test helper).
    pub fn max_vbc_diff(&self, other: &Scores) -> f64 {
        self.vbc
            .iter()
            .zip(&other.vbc)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute EBC difference over the live edges of `g`.
    pub fn max_ebc_diff(&self, other: &Scores, g: &Graph) -> f64 {
        let mut worst: f64 = 0.0;
        for (_, eid) in g.edges() {
            let a = self.ebc.get(eid as usize).copied().unwrap_or(0.0);
            let b = other.ebc.get(eid as usize).copied().unwrap_or(0.0);
            worst = worst.max((a - b).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_elementwise() {
        let mut a = Scores {
            vbc: vec![1.0, 2.0],
            ebc: vec![0.5],
        };
        let b = Scores {
            vbc: vec![0.25, 0.75, 3.0],
            ebc: vec![0.5, 1.0],
        };
        a.merge_from(&b);
        assert_eq!(a.vbc, vec![1.25, 2.75, 3.0]);
        assert_eq!(a.ebc, vec![1.0, 1.0]);
    }

    #[test]
    fn top_edge_deterministic_ties() {
        let mut g = Graph::with_vertices(4);
        let e0 = g.add_edge(0, 1).unwrap();
        let e1 = g.add_edge(2, 3).unwrap();
        let mut s = Scores::zeros_for(&g);
        s.ebc[e0 as usize] = 5.0;
        s.ebc[e1 as usize] = 5.0;
        // tie broken toward the smaller canonical key (0,1)
        assert_eq!(s.top_edge(&g).unwrap().0, EdgeKey::new(0, 1));
    }

    #[test]
    fn diffs() {
        let mut g = Graph::with_vertices(2);
        let e = g.add_edge(0, 1).unwrap();
        let mut a = Scores::zeros_for(&g);
        let mut b = Scores::zeros_for(&g);
        a.vbc[1] = 1.0;
        b.ebc[e as usize] = 0.5;
        assert_eq!(a.max_vbc_diff(&b), 1.0);
        assert_eq!(a.max_ebc_diff(&b, &g), 0.5);
    }

    #[test]
    fn ebc_of_missing_edge_is_none() {
        let g = Graph::with_vertices(2);
        let s = Scores::zeros_for(&g);
        assert!(s.ebc_of(&g, 0, 1).is_none());
    }
}
