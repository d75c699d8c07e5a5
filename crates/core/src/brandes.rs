//! Static Brandes baselines (step 1 of the framework) computing vertex and
//! edge betweenness simultaneously.
//!
//! Two variants are provided, mirroring the paper's §6.1 comparison:
//!
//! * **MO** (*memory, no predecessor lists*): the search phase stores only
//!   `d` and `σ`; the backtracking phase scans *all* neighbours of a vertex
//!   and selects DAG successors by level (`d[x] == d[w] + 1`). This is both
//!   the paper's optimization (§3, "Memory optimisation") and the exact
//!   accumulation-order contract the incremental kernel relies on: a vertex's
//!   dependency is always the sum over its DAG successors *in adjacency
//!   order*, which makes unchanged values bitwise-reproducible.
//! * **MP** (*memory, predecessor lists*): the classic Brandes formulation
//!   that materialises `P_s[v]` during the BFS — kept as the baseline that
//!   Figure 5 compares against.
//!
//! Both produce identical scores up to floating-point summation order.

use crate::scores::Scores;
use ebc_graph::{Error, Graph, VertexId, UNREACHABLE};

/// Per-source data produced by one Brandes iteration — exactly the paper's
/// `BD[s]` record: distance, number of shortest paths, and dependency for
/// every vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceResult {
    /// BFS distance from the source ([`UNREACHABLE`] if disconnected).
    pub d: Vec<u32>,
    /// Number of shortest paths from the source (0 if unreachable).
    pub sigma: Vec<u64>,
    /// Accumulated dependency `δ_s(v)`.
    pub delta: Vec<f64>,
}

/// Reusable scratch for repeated single-source iterations.
#[derive(Debug, Default)]
pub struct BrandesScratch {
    dist: Vec<u32>,
    sigma: Vec<u64>,
    delta: Vec<f64>,
    /// Vertices in BFS discovery order (levels are non-decreasing).
    order: Vec<VertexId>,
}

impl BrandesScratch {
    /// Scratch sized for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        BrandesScratch {
            dist: vec![UNREACHABLE; n],
            sigma: vec![0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
        }
    }

    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, UNREACHABLE);
        self.sigma.clear();
        self.sigma.resize(n, 0);
        self.delta.clear();
        self.delta.resize(n, 0.0);
        self.order.clear();
    }
}

/// Source `s` reaches vertex `v` along more shortest paths than a `u64`
/// counts: `Unsupported`, naming `s`.
pub(crate) fn sigma_overflow(s: VertexId, v: VertexId) -> Error {
    Error::unsupported(format!(
        "source {s}: more shortest paths reach vertex {v} than a u64 counts"
    ))
    .with_source(s)
}

/// BFS phase: fill `dist`, `sigma`, and the discovery `order`. A path
/// count past `u64::MAX` is [`sigma_overflow`].
pub(crate) fn sssp_mo(g: &Graph, s: VertexId, scratch: &mut BrandesScratch) -> Result<(), Error> {
    scratch.reset(g.n());
    scratch.dist[s as usize] = 0;
    scratch.sigma[s as usize] = 1;
    scratch.order.push(s);
    let mut head = 0usize;
    while head < scratch.order.len() {
        let v = scratch.order[head];
        head += 1;
        let dv = scratch.dist[v as usize];
        for h in g.neighbors(v) {
            let w = h.to as usize;
            if scratch.dist[w] == UNREACHABLE {
                scratch.dist[w] = dv + 1;
                scratch.order.push(h.to);
            }
            if scratch.dist[w] == dv + 1 {
                scratch.sigma[w] = (scratch.sigma[w].checked_add(scratch.sigma[v as usize]))
                    .ok_or_else(|| sigma_overflow(s, h.to))?;
            }
        }
    }
    Ok(())
}

/// Predecessor-free dependency accumulation in *reverse BFS order*, pulling
/// each vertex's dependency from its DAG successors in adjacency order, and
/// folding the per-source contributions into `scores`.
pub(crate) fn accumulate_mo(
    g: &Graph,
    s: VertexId,
    scratch: &mut BrandesScratch,
    scores: &mut Scores,
) {
    for idx in (0..scratch.order.len()).rev() {
        let w = scratch.order[idx];
        let dw = scratch.dist[w as usize];
        let sw = scratch.sigma[w as usize] as f64;
        let mut dep = 0.0;
        for h in g.neighbors(w) {
            let x = h.to as usize;
            if scratch.dist[x] == dw + 1 {
                let c = sw / scratch.sigma[x] as f64 * (1.0 + scratch.delta[x]);
                dep += c;
                scores.ebc[h.eid as usize] += c;
            }
        }
        scratch.delta[w as usize] = dep;
        if w != s {
            scores.vbc[w as usize] += dep;
        }
    }
}

/// One full source iteration of the predecessor-free algorithm: accumulates
/// this source's VBC/EBC contributions into `scores` and returns the `BD[s]`
/// arrays for storage (step 1 of the framework, Figure 1).
///
/// A vertex reached by more shortest paths than a `u64` counts is
/// `Unsupported`, naming `s`, with `scores` untouched.
pub fn single_source_update(
    g: &Graph,
    s: VertexId,
    scores: &mut Scores,
) -> Result<SourceResult, Error> {
    let mut scratch = BrandesScratch::new(g.n());
    single_source_update_with(g, s, scores, &mut scratch)
}

/// [`single_source_update`] with caller-provided scratch (hot loop variant).
pub fn single_source_update_with(
    g: &Graph,
    s: VertexId,
    scores: &mut Scores,
    scratch: &mut BrandesScratch,
) -> Result<SourceResult, Error> {
    sssp_mo(g, s, scratch)?;
    accumulate_mo(g, s, scratch, scores);
    Ok(SourceResult {
        d: scratch.dist.clone(),
        sigma: scratch.sigma.clone(),
        delta: scratch.delta.clone(),
    })
}

/// Full predecessor-free Brandes (MO): VBC and EBC for every vertex and edge.
///
/// `O(nm)` time, `O(n + m)` working space beyond the output.
///
/// # Panics
///
/// When some vertex is reached by more shortest paths than a `u64` counts
/// (a chain of 64 diamonds does it): its scores cannot be computed
/// exactly. A `BetweennessState` or `Session` bootstrap refuses such a
/// graph as `Unsupported` instead.
pub fn brandes(g: &Graph) -> Scores {
    let mut scores = Scores::zeros(g.n(), g.edge_slots());
    let mut scratch = BrandesScratch::new(g.n());
    for s in 0..g.n() as VertexId {
        sssp_mo(g, s, &mut scratch).unwrap_or_else(|e| panic!("{e}"));
        accumulate_mo(g, s, &mut scratch, &mut scores);
    }
    scores
}

/// Classic Brandes with predecessor lists (MP): the baseline the paper's
/// Figure 5 compares against. Identical output to [`brandes`] up to
/// floating-point summation order.
///
/// # Panics
///
/// Where [`brandes`] does: when a path count does not fit a `u64`.
pub fn brandes_with_predecessors(g: &Graph) -> Scores {
    let n = g.n();
    let mut scores = Scores::zeros_for(g);
    let mut dist = vec![UNREACHABLE; n];
    let mut sigma = vec![0u64; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);

    for s in g.vertices() {
        for v in 0..n {
            dist[v] = UNREACHABLE;
            sigma[v] = 0;
            delta[v] = 0.0;
            preds[v].clear();
        }
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1;
        order.push(s);
        let mut head = 0usize;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let dv = dist[v as usize];
            for h in g.neighbors(v) {
                let w = h.to as usize;
                if dist[w] == UNREACHABLE {
                    dist[w] = dv + 1;
                    order.push(h.to);
                }
                if dist[w] == dv + 1 {
                    sigma[w] = (sigma[w].checked_add(sigma[v as usize]))
                        .unwrap_or_else(|| panic!("{}", sigma_overflow(s, h.to)));
                    preds[w].push((v, h.eid));
                }
            }
        }
        for idx in (0..order.len()).rev() {
            let w = order[idx];
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize] as f64;
            for &(v, eid) in &preds[w as usize] {
                let c = sigma[v as usize] as f64 * coeff;
                delta[v as usize] += c;
                scores.ebc[eid as usize] += c;
            }
            if w != s {
                scores.vbc[w as usize] += delta[w as usize];
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(i as u32, i as u32 + 1).unwrap();
        }
        g
    }

    #[test]
    fn path_graph_vbc() {
        // P4: 0-1-2-3. Ordered-pair VBC of vertex 1: pairs (0,2),(0,3),(2,0),
        // (3,0),(3,2)? — middle vertices lie on all paths crossing them.
        let g = path(4);
        let s = brandes(&g);
        // vertex 1 is interior to pairs {0}×{2,3} and back => 4 ordered pairs
        assert_eq!(s.vbc, vec![0.0, 4.0, 4.0, 0.0]);
        // edge (0,1) carries pairs 0×{1,2,3} both directions = 6
        assert_eq!(s.ebc_of(&g, 0, 1), Some(6.0));
        assert_eq!(s.ebc_of(&g, 1, 2), Some(8.0));
    }

    #[test]
    fn star_graph_vbc() {
        // star with centre 0 and 4 leaves: centre carries all 4*3 leaf pairs.
        let mut g = Graph::with_vertices(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf).unwrap();
        }
        let s = brandes(&g);
        assert_eq!(s.vbc[0], 12.0);
        for leaf in 1..5 {
            assert_eq!(s.vbc[leaf], 0.0);
            // each spoke carries pairs leaf×{everything else} twice = 2*4
            assert_eq!(s.ebc_of(&g, 0, leaf as u32), Some(8.0));
        }
    }

    #[test]
    fn cycle_graph_even() {
        // C4: every vertex lies on one of the two shortest paths between the
        // opposite pair: σ=2, contribution 1/2 per ordered pair (2 pairs) = 1.
        let mut g = Graph::with_vertices(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4).unwrap();
        }
        let s = brandes(&g);
        for v in 0..4 {
            assert!((s.vbc[v] - 1.0).abs() < 1e-12, "vbc[{v}] = {}", s.vbc[v]);
        }
    }

    #[test]
    fn disconnected_pairs_do_not_count() {
        let mut g = path(3);
        g.add_vertex(); // isolated vertex 3
        let s = brandes(&g);
        assert_eq!(s.vbc, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn mp_and_mo_agree() {
        // deterministic pseudo-random graph
        let mut g = Graph::with_vertices(30);
        let mut x = 12345u64;
        for _ in 0..80 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 30) as u32;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 30) as u32;
            if u != v {
                let _ = g.add_edge(u, v);
            }
        }
        let mo = brandes(&g);
        let mp = brandes_with_predecessors(&g);
        assert!(mo.max_vbc_diff(&mp) < 1e-9);
        assert!(mo.max_ebc_diff(&mp, &g) < 1e-9);
    }

    #[test]
    fn single_source_matches_full_run() {
        let g = path(5);
        let mut by_source = Scores::zeros_for(&g);
        for s in g.vertices() {
            single_source_update(&g, s, &mut by_source).unwrap();
        }
        let full = brandes(&g);
        assert!(by_source.max_vbc_diff(&full) < 1e-12);
    }

    #[test]
    fn source_result_contents() {
        let g = path(3);
        let mut sc = Scores::zeros_for(&g);
        let r = single_source_update(&g, 0, &mut sc).unwrap();
        assert_eq!(r.d, vec![0, 1, 2]);
        assert_eq!(r.sigma, vec![1, 1, 1]);
        // δ_0(1) = 1 (vertex 2 depends on 1), δ_0(2) = 0
        assert_eq!(r.delta[1], 1.0);
        assert_eq!(r.delta[2], 0.0);
    }

    #[test]
    fn vbc_sum_equals_pair_dependency_total() {
        // Σ_v VBC(v) = Σ_{s≠t} (number of interior vertices weighted) — for a
        // tree every pair contributes (dist-1) interior vertices.
        let g = path(5);
        let s = brandes(&g);
        let total: f64 = s.vbc.iter().sum();
        // ordered pairs at distance k contribute k-1 each: pairs by distance:
        // d=1:8, d=2:6, d=3:4, d=4:2 -> total = 6*1+4*2+2*3 = 20
        assert!((total - 20.0).abs() < 1e-9);
    }
}
