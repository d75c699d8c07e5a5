//! The benchmark's own tests: seed hygiene of the stream generator, and a
//! smoke run of the whole suite checked against `BENCHMARK.json`.
//!
//! ```sh
//! cargo test --release --manifest-path sbc_bench/Cargo.toml
//! ```

use ebc_serve::json::{self, Value};
use sbc_bench::inputs::{apply_to, bootstrap_graph, churn, CHURN_BAND};
use std::path::{Path, PathBuf};
use std::process::Command;
use streaming_bc::graph::EdgeOp;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[test]
fn churn_is_deterministic_valid_balanced_and_banded() {
    let base = bootstrap_graph(400, 7);
    let a = churn(&base, 11, 3000, CHURN_BAND);
    let b = churn(&base, 11, 3000, CHURN_BAND);
    assert_eq!(a.stream, b.stream, "same seed, same stream");
    assert_eq!(a.graph.sorted_edges(), b.graph.sorted_edges());
    let other = churn(&base, 12, 3000, CHURN_BAND);
    assert_ne!(a.stream, other.stream, "different seeds, different streams");

    let m0 = a.graph.m() as i64;
    assert_eq!(m0, base.m() as i64, "warm-up keeps the edge count");
    let mut g = a.graph.clone();
    let mut removals = 0;
    for u in &a.stream {
        // an add of a present edge or a removal of an absent one errors here
        apply_to(&mut g, u).expect("every update is valid when it is emitted");
        removals += (u.op == EdgeOp::Remove) as usize;
        assert!(
            (g.m() as i64 - m0).abs() <= CHURN_BAND as i64,
            "m left the band"
        );
    }
    assert_eq!(g.n(), base.n(), "churn never adds a vertex");
    let share = removals as f64 / a.stream.len() as f64;
    assert!((share - 0.5).abs() <= 0.03, "removal share {share}");
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sbc_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run sbc_bench")
}

fn names(list: &Value) -> Vec<String> {
    let items = list.as_arr().expect("a list in BENCHMARK.json");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_metric(metrics: &Value, name: &str, context: &str) -> f64 {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
        "metric name {name:?}"
    );
    let m = metrics
        .get(name)
        .unwrap_or_else(|| panic!("{context}: no metric {name}"));
    let value = m.get("value").and_then(Value::as_f64);
    let value = value.unwrap_or_else(|| panic!("{context}: {name} has no finite value"));
    assert!(value.is_finite(), "{context}: {name} = {value}");
    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
    assert!(!unit.is_empty(), "{context}: {name} has no unit");
    value
}

#[test]
fn smoke_run_reports_every_declared_metric_and_repeats_its_counters() {
    let bench_json = json::parse(&std::fs::read_to_string(BENCHMARK_JSON).unwrap()).unwrap();
    let dir = scratch("smoke");
    let out = bench(
        &dir,
        &[
            "all",
            "--smoke",
            "--trace",
            "--seed",
            "3",
            "--out",
            "smoke.json",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = json::parse(&std::fs::read_to_string(dir.join("smoke.json")).unwrap()).unwrap();
    assert_eq!(
        report.get("seed").and_then(Value::as_u64),
        Some(3),
        "seed echoed"
    );
    for key in ["nproc", "git_commit", "seconds"] {
        assert!(report.get(key).is_some(), "{key} echoed");
    }
    assert!(dir.join("smoke.json.trace.json").exists(), "trace written");

    for workload in names(bench_json.get("workloads").unwrap()) {
        let w = report.get("workloads").and_then(|ws| ws.get(&workload));
        let w = w.unwrap_or_else(|| panic!("workload {workload} missing from the output"));
        for key in ["graph_n", "graph_m", "stream_len"] {
            assert!(
                w.get("detail").and_then(|d| d.get(key)).is_some(),
                "{workload}: {key}"
            );
        }
        assert_eq!(
            w.get("failed").and_then(Value::as_u64),
            Some(0),
            "{workload} failed ops"
        );
        for name in names(bench_json.get("end_to_end").unwrap()) {
            let value = assert_metric(w.get("end_to_end").unwrap(), &name, &workload);
            assert!(value != 0.0, "{workload}: end-to-end metric {name} is 0");
        }
        for name in names(bench_json.get("per_layer").unwrap()) {
            assert_metric(w.get("per_layer").unwrap(), &name, &workload);
        }
    }

    // exact counters repeat bit for bit for a (seed, seconds) pair
    let again = bench(
        &dir,
        &[
            "--workload",
            "do_durable",
            "--seed",
            "3",
            "--smoke",
            "--trace",
            "1",
        ],
    );
    assert!(
        again.status.success(),
        "{}",
        String::from_utf8_lossy(&again.stderr)
    );
    let stdout = String::from_utf8_lossy(&again.stdout);
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let first = report
        .get("workloads")
        .unwrap()
        .get("do_durable")
        .unwrap()
        .get("per_layer")
        .unwrap();
    let second = result.get("metrics").unwrap();
    for name in [
        "core.sources_processed",
        "core.sources_skipped",
        "core.touched_per_update",
        "core.popped_per_update",
        "store.bytes_read_per_update",
        "store.bytes_written_per_update",
    ] {
        let (a, b) = (
            assert_metric(first, name, "first"),
            assert_metric(second, name, "second"),
        );
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} differs between two runs of one seed"
        );
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    let dir = scratch("corrupt");
    let out = bench(
        &dir,
        &[
            "--workload",
            "fleet_repl",
            "--seed",
            "1",
            "--smoke",
            "--trace",
            "0",
            "--corrupt-oracle",
        ],
    );
    assert!(
        !out.status.success(),
        "the gate let a corrupted oracle through"
    );
    assert!(out.stdout.is_empty(), "a failed gate prints no result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("serial oracle"));
}
