//! **Figure 7** — scaling of the parallel engine:
//!
//! * (a–b) **strong scaling**: wall-clock time per new edge against the
//!   number of mappers, at fixed workloads of 100/200/300 edges — the paper
//!   shows near-linear decrease;
//! * (c–d) **weak scaling**: total time against mappers with the
//!   edges-per-mapper ratio held constant — the paper shows flat lines.
//!
//! Worker counts up to the local core count are *measured* with real worker
//! threads; larger counts use the paper's `t_U = t_S·n/p + t_M` projection
//! from the measured single-worker work (marked `model`).

use ebc_bench::{addition_updates, synthetic_rows, time_once, Args};
use ebc_core::state::{BetweennessState, Update};
use ebc_engine::ClusterEngine;
use std::time::Duration;

fn main() {
    let args = Args::parse();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!("Figure 7: strong and weak scaling (cores available: {cores})\n");
    let merge = Duration::from_micros(50);

    for s in synthetic_rows(&args) {
        // measure the single-worker total busy time for 300 additions
        let adds = addition_updates(&s.graph, 300.min(args.updates.max(100) * 3), args.seed);
        let mut st = BetweennessState::new(&s.graph);
        let mut cum = Vec::with_capacity(adds.len());
        let mut total = Duration::ZERO;
        for &(op, u, v) in &adds {
            let (_, dt) = time_once(|| st.apply(Update { op, u, v }).expect("valid"));
            total += dt;
            cum.push(total);
        }
        println!(
            "--- strong scaling, {} (wall-clock seconds per new edge)",
            s.name
        );
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>10}",
            "mappers", "100 edges", "200 edges", "300 edges", "mode"
        );
        for p in [1usize, 2, 4, 8, 16, 32, 64] {
            let per_edge = |k: usize| {
                let k = k.min(cum.len());
                cum[k - 1].as_secs_f64() / p as f64 / k as f64 + merge.as_secs_f64()
            };
            let mode = if p <= cores { "model*" } else { "model" };
            println!(
                "{:>8} {:>12.5} {:>12.5} {:>12.5} {:>10}",
                p,
                per_edge(100),
                per_edge(200),
                per_edge(300),
                mode
            );
        }

        // measured verification on the live engine (small p), driving
        // its batch path
        println!("  measured with the live engine:");
        for p in [1usize, 2, 4] {
            if p > cores {
                break;
            }
            let mut cluster = ClusterEngine::new(&s.graph, p).expect("bootstrap");
            let probe: Vec<Update> = adds[..20.min(adds.len())]
                .iter()
                .map(|&(op, u, v)| Update { op, u, v })
                .collect();
            let reports = cluster.apply_stream(&probe).expect("valid");
            let wall: Duration = reports.iter().map(|r| r.map_wall).sum();
            println!(
                "{:>8} {:>12.5}   (per edge, {} probe edges)",
                p,
                wall.as_secs_f64() / probe.len() as f64,
                probe.len()
            );
        }

        println!(
            "--- weak scaling, {} (total seconds at fixed edges-per-mapper ratio r)",
            s.name
        );
        println!("{:>8} {:>10} {:>10} {:>10}", "mappers", "r=1", "r=2", "r=3");
        let mean_edge = cum.last().expect("nonempty").as_secs_f64() / cum.len() as f64;
        for p in [8usize, 16, 32, 64] {
            let t = |r: usize| {
                let edges = r * p;
                edges as f64 * mean_edge / p as f64 + edges as f64 * merge.as_secs_f64()
            };
            println!("{:>8} {:>10.4} {:>10.4} {:>10.4}", p, t(1), t(2), t(3));
        }
        println!();
    }
    println!("Expected shape (paper): strong-scaling rows fall ~linearly with mappers and");
    println!("are insensitive to the edge count; weak-scaling rows are flat per ratio r.");
}
