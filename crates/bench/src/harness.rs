//! Shared measurement utilities for the `paper` harness.

use ebc_core::bd::BdStore;
use ebc_core::incremental::{UpdateConfig, UpdateStats};
use ebc_core::state::{BetweennessState, Update};
use ebc_gen::standins::StandinKind;
use ebc_graph::Graph;
use ebc_store::{CodecKind, DiskBdStore, ShardSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default shrink factors keeping each real stand-in near 1-2k vertices, so
/// its Brandes run takes well under a second.
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

/// Wall-clock a closure.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Framework configuration measured by the speedup experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// In memory, with predecessor-list maintenance (paper's MP).
    Mp,
    /// In memory, predecessor-free (paper's MO).
    Mo,
    /// On disk, predecessor-free (paper's DO), in the given record codec.
    Do(CodecKind),
}

/// What one update cost: its wall time and exact work counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Wall time of the `apply`.
    pub wall: Duration,
    /// The `BetweennessState::stats()` delta across the update.
    pub stats: UpdateStats,
    /// Record bytes read and written by a DO store (zero in memory).
    pub io: (u64, u64),
}

/// A directory under the temp dir that is removed, with everything in it,
/// when the value drops — a measurement that panics cleans up too.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `$TMPDIR/ebc_bench_stores/<tag>_<pid>_<k>/`, empty.
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = store_root().join(format!("{tag}_{}_{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch store directory");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where DO measurements keep their stores while they run.
fn store_root() -> PathBuf {
    std::env::temp_dir().join("ebc_bench_stores")
}

/// Bootstrap `variant` on `g`, apply `updates` in order and return one
/// [`Step`] per update. A DO store lives in a [`ScratchDir`] that is gone
/// when this returns, whether it returns or unwinds.
pub fn measure(g: &Graph, updates: &[Update], variant: Variant) -> Vec<Step> {
    let cfg = UpdateConfig {
        maintain_predecessors: variant == Variant::Mp,
    };
    match variant {
        Variant::Do(codec) => {
            let dir = ScratchDir::new("do");
            let store = DiskBdStore::create(dir.path().join("bd.ebc"), g.n(), codec)
                .expect("create scratch store");
            let mut st = BetweennessState::new_into_store(g.clone(), store, cfg)
                .expect("bootstrap into disk store");
            drive(&mut st, updates, |s| (s.bytes_read, s.bytes_written))
        }
        _ => {
            let mut st = BetweennessState::new_with(g.clone(), cfg);
            drive(&mut st, updates, |_| (0, 0))
        }
    }
}

fn drive<S: BdStore>(
    st: &mut BetweennessState<S>,
    updates: &[Update],
    io: impl Fn(&S) -> (u64, u64),
) -> Vec<Step> {
    updates
        .iter()
        .map(|&up| {
            let (s0, io0) = (st.stats(), io(st.store()));
            let (_, wall) = time_once(|| st.apply(up).expect("valid update"));
            let (s1, io1) = (st.stats(), io(st.store()));
            Step {
                wall,
                stats: UpdateStats {
                    sources_processed: s1.sources_processed - s0.sources_processed,
                    sources_skipped: s1.sources_skipped - s0.sources_skipped,
                    touched: s1.touched - s0.touched,
                    popped: s1.popped - s0.popped,
                    scanned: s1.scanned - s0.scanned,
                },
                io: (io1.0 - io0.0, io1.1 - io0.1),
            }
        })
        .collect()
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

/// The addition workload of §6: `k` random unconnected pairs.
pub fn addition_updates(g: &Graph, k: usize, seed: u64) -> Vec<Update> {
    ebc_gen::streams::addition_stream(g, k, seed)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect()
}

/// The removal workload of §6: `k` random existing edges.
pub fn removal_updates(g: &Graph, k: usize, seed: u64) -> Vec<Update> {
    ebc_gen::streams::removal_stream(g, k, seed)
        .into_iter()
        .map(|(u, v)| Update::remove(u, v))
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
    use std::sync::Mutex;

    /// DO measurements of this process share `store_root()`; the leak check
    /// lists it, so the tests that create stores take turns.
    static STORES: Mutex<()> = Mutex::new(());

    fn own_entries() -> Vec<String> {
        let prefix = format!("do_{}_", std::process::id());
        std::fs::read_dir(store_root())
            .map(|rd| {
                rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .filter(|name| name.starts_with(&prefix))
                    .collect()
            })
            .unwrap_or_default()
    }

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
        let _turn = STORES.lock().unwrap_or_else(|e| e.into_inner());
        let g = holme_kim(40, 3, 0.3, 7);
        let adds = addition_updates(&g, 5, 1);
        for v in [
            Variant::Mp,
            Variant::Mo,
            Variant::Do(CodecKind::Paper),
            Variant::Do(CodecKind::Wide),
        ] {
            let steps = measure(&g, &adds, v);
            assert_eq!(steps.len(), 5, "{v:?}");
            let io = steps.iter().any(|s| s.io != (0, 0));
            assert_eq!(io, matches!(v, Variant::Do(_)), "{v:?}");
        }
    }

    #[test]
    fn do_rows_leave_no_store_files() {
        let _turn = STORES.lock().unwrap_or_else(|e| e.into_inner());
        let g = holme_kim(40, 3, 0.3, 7);
        measure(
            &g,
            &addition_updates(&g, 3, 1),
            Variant::Do(CodecKind::Wide),
        );
        assert_eq!(own_entries(), Vec::<String>::new(), "a finished DO row");
        // a row that fails mid-stream (an edge that is not there) unwinds
        // through the same cleanup
        let bad = [Update::remove(0, 0)];
        let failed = std::panic::catch_unwind(|| measure(&g, &bad, Variant::Do(CodecKind::Wide)));
        assert!(failed.is_err());
        assert_eq!(own_entries(), Vec::<String>::new(), "a failed DO row");
    }

    #[test]
    fn workloads_respect_counts() {
        let g = holme_kim(30, 3, 0.3, 7);
        assert_eq!(addition_updates(&g, 7, 1).len(), 7);
        assert_eq!(removal_updates(&g, 7, 1).len(), 7);
    }
}
