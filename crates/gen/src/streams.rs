//! Update-stream generators (the paper's §6 "Graph updates" workloads).

use ebc_graph::{EdgeEvent, EdgeOp, EdgeStream, Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The paper's addition workload: `k` random **unconnected** vertex pairs of
/// `g`, to be added one by one. Pairs are distinct within the stream.
pub fn addition_stream(g: &Graph, k: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.n();
    let mut out = Vec::with_capacity(k);
    if n < 2 {
        return out;
    }
    let mut picked = std::collections::HashSet::new();
    let max_new = n * (n - 1) / 2 - g.m();
    let k = k.min(max_new);
    let mut guard = 0usize;
    while out.len() < k && guard < 1000 * (k + 1) {
        guard += 1;
        let u = rng.random_range(0..n) as VertexId;
        let v = rng.random_range(0..n) as VertexId;
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if picked.insert(key) {
            out.push(key);
        }
    }
    out
}

/// The paper's removal workload: `k` distinct random **existing** edges.
pub fn removal_stream(g: &Graph, k: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = g.sorted_edges();
    let k = k.min(edges.len());
    // partial Fisher-Yates: draw k distinct edges
    for i in 0..k {
        let j = rng.random_range(i..edges.len());
        edges.swap(i, j);
    }
    edges.truncate(k);
    edges
}

/// Replay a grown graph as a timestamped addition stream with log-normal
/// inter-arrival gaps (heavy-tailed, matching the bursty arrivals visible in
/// the paper's Figure 8): `mean_gap` seconds on average, `sigma` controlling
/// burstiness.
///
/// Returns `(bootstrap_graph, tail_stream)`: the graph with all but the last
/// `tail` edges applied, plus the timestamped final `tail` edges — the exact
/// protocol the paper uses for its online experiments ("for real graphs we
/// replay \[edges\] in order", keeping the last 100 as the live stream).
pub fn replay_growth(
    arrival_order: &[(VertexId, VertexId)],
    n: usize,
    tail: usize,
    mean_gap: f64,
    sigma: f64,
    seed: u64,
) -> (Graph, EdgeStream) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tail = tail.min(arrival_order.len());
    let split = arrival_order.len() - tail;
    let mut g = Graph::from_edges(arrival_order[..split].iter().copied());
    while g.n() < n {
        g.add_vertex();
    }
    // log-normal gaps with E[gap] = mean_gap:  exp(mu + sigma Z), with
    // mu = ln(mean) - sigma^2/2.
    let mu = mean_gap.max(f64::MIN_POSITIVE).ln() - sigma * sigma / 2.0;
    let mut t = 0.0;
    let mut events = Vec::with_capacity(tail);
    for &(u, v) in &arrival_order[split..] {
        let z = standard_normal(&mut rng);
        t += (mu + sigma * z).exp();
        events.push(EdgeEvent {
            time: t,
            op: EdgeOp::Add,
            u,
            v,
        });
    }
    (g, EdgeStream::from_events(events))
}

/// Attach synthetic timestamps (log-normal gaps) to an untimestamped update
/// list.
pub fn with_lognormal_times(
    updates: &[(EdgeOp, VertexId, VertexId)],
    mean_gap: f64,
    sigma: f64,
    seed: u64,
) -> EdgeStream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mu = mean_gap.max(f64::MIN_POSITIVE).ln() - sigma * sigma / 2.0;
    let mut t = 0.0;
    let events = updates
        .iter()
        .map(|&(op, u, v)| {
            t += (mu + sigma * standard_normal(&mut rng)).exp();
            EdgeEvent { time: t, op, u, v }
        })
        .collect();
    EdgeStream::from_events(events)
}

/// Box–Muller standard normal draw.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{erdos_renyi_gnm, holme_kim_with_order};

    #[test]
    fn additions_are_absent_distinct_pairs() {
        let g = erdos_renyi_gnm(40, 100, 3);
        let adds = addition_stream(&g, 30, 4);
        assert_eq!(adds.len(), 30);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in adds {
            assert!(u != v);
            assert!(!g.has_edge(u, v), "({u},{v}) already present");
            assert!(seen.insert((u, v)), "duplicate pair in stream");
        }
    }

    #[test]
    fn additions_capped_by_available_pairs() {
        let g = erdos_renyi_gnm(4, 5, 1); // 6 pairs possible, 5 taken
        let adds = addition_stream(&g, 10, 2);
        assert_eq!(adds.len(), 1);
    }

    #[test]
    fn removals_are_distinct_existing_edges() {
        let g = erdos_renyi_gnm(30, 60, 5);
        let rems = removal_stream(&g, 25, 6);
        assert_eq!(rems.len(), 25);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in rems {
            assert!(g.has_edge(u, v));
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn removals_capped_at_m() {
        let g = erdos_renyi_gnm(10, 9, 5);
        assert_eq!(removal_stream(&g, 100, 1).len(), 9);
    }

    #[test]
    fn replay_growth_splits_bootstrap_and_tail() {
        let (full, order) = holme_kim_with_order(80, 3, 0.3, 8);
        let (boot, tail) = replay_growth(&order, full.n(), 10, 2.0, 0.5, 9);
        assert_eq!(tail.len(), 10);
        assert_eq!(boot.m() + 10, full.m());
        // applying the tail reconstructs the full graph
        let mut g = boot.clone();
        tail.apply_all(&mut g).unwrap();
        assert_eq!(g.sorted_edges(), full.sorted_edges());
        // timestamps strictly increasing and positive
        let times: Vec<f64> = tail.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times[0] > 0.0);
    }

    #[test]
    fn lognormal_times_mean_roughly_matches() {
        let updates: Vec<_> = (0..2000u32).map(|i| (EdgeOp::Add, i, i + 1)).collect();
        let s = with_lognormal_times(&updates, 3.0, 0.8, 11);
        let gaps = s.inter_arrival_times();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean - 3.0).abs() < 0.5,
            "mean gap {mean} should be close to 3.0"
        );
    }

    #[test]
    fn streams_deterministic_in_seed() {
        let g = erdos_renyi_gnm(30, 60, 5);
        assert_eq!(addition_stream(&g, 10, 7), addition_stream(&g, 10, 7));
        assert_ne!(addition_stream(&g, 10, 7), addition_stream(&g, 10, 8));
        assert_eq!(removal_stream(&g, 10, 7), removal_stream(&g, 10, 7));
    }
}
