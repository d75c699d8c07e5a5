//! Graph statistics used by Table 2 of the paper: average degree, clustering
//! coefficient, and effective diameter.

use crate::graph::{Graph, VertexId};
use crate::traversal::distance_histogram;

/// Summary statistics for a graph, matching the columns of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Average degree `2m/n` (paper column "AD").
    pub avg_degree: f64,
    /// Average local clustering coefficient (paper column "CC").
    pub clustering_coefficient: f64,
    /// 90th-percentile effective diameter (paper column "ED"), estimated from
    /// BFS over a sample of sources with linear interpolation.
    pub effective_diameter: f64,
}

impl GraphStats {
    /// Compute stats using at most `diameter_samples` BFS sources (pass
    /// `usize::MAX` for an exact computation on small graphs).
    pub fn compute(g: &Graph, diameter_samples: usize) -> Self {
        GraphStats {
            n: g.n(),
            m: g.m(),
            avg_degree: g.average_degree(),
            clustering_coefficient: average_clustering(g),
            effective_diameter: effective_diameter(g, diameter_samples),
        }
    }
}

/// Local clustering coefficient of a single vertex: the fraction of pairs of
/// neighbours that are themselves connected (0 for degree < 2).
pub fn local_clustering(g: &Graph, v: VertexId) -> f64 {
    let nbrs = g.neighbors(v);
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if g.has_edge(nbrs[i].to, nbrs[j].to) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Average local clustering coefficient over all vertices (Watts–Strogatz
/// definition, the one KONECT reports in the paper's Table 2).
pub fn average_clustering(g: &Graph) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    let total: f64 = g.vertices().map(|v| local_clustering(g, v)).sum();
    total / g.n() as f64
}

/// 90th-percentile effective diameter with linear interpolation, estimated
/// from BFS distance histograms of up to `samples` evenly spaced sources.
///
/// For a connected graph and `samples >= n` this is exact. The paper's ED
/// column comes from KONECT, which uses the same percentile definition.
pub fn effective_diameter(g: &Graph, samples: usize) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    let step = (g.n() / samples.min(g.n()).max(1)).max(1);
    let mut hist: Vec<u64> = Vec::new();
    let mut sampled = 0usize;
    for v in (0..g.n()).step_by(step) {
        let h = distance_histogram(g, v as VertexId);
        if h.len() > hist.len() {
            hist.resize(h.len(), 0);
        }
        for (d, c) in h.iter().enumerate() {
            hist[d] += *c as u64;
        }
        sampled += 1;
        if sampled >= samples {
            break;
        }
    }
    // hist[0] counts the sources themselves; effective diameter considers
    // distances between distinct pairs, so drop distance 0.
    if hist.len() <= 1 {
        return 0.0;
    }
    let total: u64 = hist[1..].iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = 0.9 * total as f64;
    let mut cum = 0u64;
    for (d, &c) in hist.iter().enumerate().skip(1) {
        let prev = cum as f64;
        cum += c;
        if cum as f64 >= target {
            // Interpolate within level d: fraction of the level needed.
            let need = target - prev;
            let frac = if c == 0 { 0.0 } else { need / c as f64 };
            return (d - 1) as f64 + frac;
        }
    }
    (hist.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    #[test]
    fn local_clustering_values() {
        let g = triangle_plus_tail();
        assert!((local_clustering(&g, 0) - 1.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        // vertex 2 has neighbours {0,1,3}; only (0,1) connected => 1/3
        assert!((local_clustering(&g, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
    }

    #[test]
    fn average_clustering_value() {
        let g = triangle_plus_tail();
        let expect = (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0;
        assert!((average_clustering(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn clique_clustering_is_one() {
        let mut g = Graph::with_vertices(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j).unwrap();
            }
        }
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn effective_diameter_clique_is_under_one() {
        let mut g = Graph::with_vertices(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j).unwrap();
            }
        }
        let ed = effective_diameter(&g, usize::MAX);
        assert!(ed <= 1.0 && ed > 0.0, "ed = {ed}");
    }

    #[test]
    fn effective_diameter_path_reasonable() {
        let mut g = Graph::with_vertices(11);
        for i in 0..10u32 {
            g.add_edge(i, i + 1).unwrap();
        }
        let ed = effective_diameter(&g, usize::MAX);
        // longest distance is 10; the 90th percentile must be below that but
        // well above half of it.
        assert!(ed > 5.0 && ed <= 10.0, "ed = {ed}");
    }

    #[test]
    fn stats_bundle() {
        let g = triangle_plus_tail();
        let s = GraphStats::compute(&g, usize::MAX);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 4);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        assert!(s.effective_diameter > 0.0);
    }

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::compute(&Graph::new(), 8);
        assert_eq!(s.n, 0);
        assert_eq!(s.effective_diameter, 0.0);
        assert_eq!(s.clustering_coefficient, 0.0);
    }
}
