//! Shared measurement utilities for the experiment binaries.

use ebc_core::brandes::brandes;
use ebc_core::incremental::UpdateConfig;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::Scores;
use ebc_gen::standins::{standin, Standin, StandinKind};
use ebc_graph::{EdgeOp, Graph};
use ebc_store::{BdStore, CodecKind, DiskBdStore, ShardSet};
use std::time::{Duration, Instant};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Extra shrink factor applied on top of each dataset's default scale.
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of streamed updates per experiment (the paper uses 100).
    pub updates: usize,
    /// Include the expensive configurations (100k synthetic, 1000 GN peels).
    pub full: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1,
            seed: 42,
            updates: 100,
            full: false,
        }
    }
}

impl Args {
    /// Parse from `std::env::args` (flags: `--scale k`, `--seed s`,
    /// `--updates k`, `--full`).
    pub fn parse() -> Self {
        let mut out = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => out.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(1),
                "--seed" => out.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(42),
                "--updates" => out.updates = it.next().and_then(|v| v.parse().ok()).unwrap_or(100),
                "--full" => out.full = true,
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        out
    }
}

/// Default shrink factors keeping each dataset's Brandes run in seconds on a
/// laptop. `--scale 1` with these defaults gives graphs of ~1-2.2k vertices;
/// multiply via `--scale`, or edit to smaller factors for paper-scale runs.
pub fn default_scale(kind: StandinKind) -> usize {
    match kind {
        StandinKind::Synthetic(_) => 1,
        StandinKind::WikiElections => 8,
        StandinKind::Slashdot => 32,
        StandinKind::Facebook => 32,
        StandinKind::Epinions => 64,
        StandinKind::Dblp => 512,
        StandinKind::Amazon => 1024,
    }
}

/// Build one dataset at its default experiment scale.
pub fn dataset(kind: StandinKind, args: &Args) -> Standin {
    standin(kind, default_scale(kind) * args.scale, args.seed)
}

/// The synthetic rows used by most experiments (1k, 10k; +100k with
/// `--full`).
pub fn synthetic_rows(args: &Args) -> Vec<Standin> {
    let mut sizes = vec![1_000, 10_000];
    if args.full {
        sizes.push(100_000);
    }
    sizes
        .into_iter()
        .map(|n| standin(StandinKind::Synthetic(n / args.scale.max(1)), 1, args.seed))
        .collect()
}

/// The six real-graph stand-ins.
pub fn real_rows(args: &Args) -> Vec<Standin> {
    [
        StandinKind::WikiElections,
        StandinKind::Slashdot,
        StandinKind::Facebook,
        StandinKind::Epinions,
        StandinKind::Dblp,
        StandinKind::Amazon,
    ]
    .into_iter()
    .map(|k| dataset(k, args))
    .collect()
}

/// Wall-clock a closure.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// One full predecessor-free Brandes run, timed (the speedup denominator).
pub fn time_brandes(g: &Graph) -> (Scores, Duration) {
    time_once(|| brandes(g))
}

/// Framework configuration measured by the speedup experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// In memory, with predecessor-list maintenance (paper's MP).
    Mp,
    /// In memory, predecessor-free (paper's MO).
    Mo,
    /// On disk, predecessor-free (paper's DO).
    Do,
}

impl Variant {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Mp => "MP",
            Variant::Mo => "MO",
            Variant::Do => "DO",
        }
    }
}

fn unique_tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ebc_bench_stores");
    std::fs::create_dir_all(&dir).ok();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{tag}_{}_{id}.bd", std::process::id()))
}

/// Measure per-update times of `variant` on `updates` applied to `g` in
/// order. Returns one duration per update.
pub fn update_times(g: &Graph, updates: &[(EdgeOp, u32, u32)], variant: Variant) -> Vec<Duration> {
    let cfg = match variant {
        Variant::Mp => UpdateConfig {
            maintain_predecessors: true,
            ..Default::default()
        },
        _ => UpdateConfig::default(),
    };
    let mut times = Vec::with_capacity(updates.len());
    match variant {
        Variant::Do => {
            let store =
                DiskBdStore::create(unique_tmp("do"), g.n(), CodecKind::Wide).expect("tmp store");
            let mut st = BetweennessState::new_into_store(g.clone(), store, cfg)
                .expect("bootstrap into disk store");
            for &(op, u, v) in updates {
                let (_, dt) = time_once(|| st.apply(Update { op, u, v }).expect("valid update"));
                times.push(dt);
            }
        }
        _ => {
            let mut st = BetweennessState::new_with(g.clone(), cfg);
            for &(op, u, v) in updates {
                let (_, dt) = time_once(|| st.apply(Update { op, u, v }).expect("valid update"));
                times.push(dt);
            }
        }
    }
    times
}

/// Convert per-update times into speedups over a Brandes baseline.
pub fn speedups(brandes_time: Duration, times: &[Duration]) -> Vec<f64> {
    times
        .iter()
        .map(|t| brandes_time.as_secs_f64() / t.as_secs_f64().max(1e-9))
        .collect()
}

/// Min / median / max of a sample (sorted copy; NaN-free input).
pub fn min_med_max(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    (s[0], s[s.len() / 2], s[s.len() - 1])
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Print a CDF as decile rows (the textual rendition of Figures 5/6).
pub fn print_cdf(label: &str, xs: &[f64]) {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    print!("{label:>24} |");
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let idx = ((s.len() as f64 - 1.0) * q).round() as usize;
        print!(
            " p{:<3} {:>8.1}",
            (q * 100.0) as u32,
            s.get(idx).copied().unwrap_or(0.0)
        );
    }
    println!();
}

/// The addition workload of §6: `k` random unconnected pairs.
pub fn addition_updates(g: &Graph, k: usize, seed: u64) -> Vec<(EdgeOp, u32, u32)> {
    ebc_gen::streams::addition_stream(g, k, seed)
        .into_iter()
        .map(|(u, v)| (EdgeOp::Add, u, v))
        .collect()
}

/// The removal workload of §6: `k` random existing edges.
pub fn removal_updates(g: &Graph, k: usize, seed: u64) -> Vec<(EdgeOp, u32, u32)> {
    ebc_gen::streams::removal_stream(g, k, seed)
        .into_iter()
        .map(|(u, v)| (EdgeOp::Remove, u, v))
        .collect()
}

/// Move source `s` from shard `from` to shard `to` of an at-rest set with
/// the store calls the engine's move executor makes: the donor's journaled
/// export, the recipient's import, the donor's retire.
pub fn move_source(set: &mut ShardSet, s: u32, from: usize, to: usize) -> ebc_store::BdResult<()> {
    let rec = set.shard_mut(from).export_source(s, to as u64)?;
    set.shard_mut(to)
        .add_source(rec.source, rec.d, rec.sigma, rec.delta)?;
    set.shard_mut(from).retire_export(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_gen::models::holme_kim;

    #[test]
    fn min_med_max_basics() {
        assert_eq!(min_med_max(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(min_med_max(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn speedup_math() {
        let s = speedups(Duration::from_secs(1), &[Duration::from_millis(100)]);
        assert!((s[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn update_times_variants_produce_results() {
        let g = holme_kim(40, 3, 0.3, 7);
        let adds = addition_updates(&g, 5, 1);
        for v in [Variant::Mp, Variant::Mo, Variant::Do] {
            let times = update_times(&g, &adds, v);
            assert_eq!(times.len(), 5, "{v:?}");
        }
    }

    #[test]
    fn workloads_respect_counts() {
        let g = holme_kim(30, 3, 0.3, 7);
        assert_eq!(addition_updates(&g, 7, 1).len(), 7);
        assert_eq!(removal_updates(&g, 7, 1).len(), 7);
    }
}
