//! The suite-level commands: `all` (every workload, each in a child
//! process of its own), `compare` (two `all` outputs against the bounds of
//! `BENCHMARK.json`) and `calibrate` (run-to-run spread of every metric).

use crate::stats::{iqr_share, median};
use crate::workloads::Workload;
use ebc_serve::json::{self, obj, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where `calibrate` records the spreads `compare` reads.
pub const CALIBRATION_PATH: &str = "sbc_bench/calibration.json";
/// The contract's ceiling on a bound.
const MAX_BOUND: f64 = 0.25;

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `v[key]`, or `null`.
fn field(v: &Value, key: &str) -> Value {
    v.get(key).cloned().unwrap_or(Value::Null)
}

fn members(v: &Value) -> impl Iterator<Item = (&String, &Value)> {
    match v {
        Value::Obj(m) => Some(m.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// Run one workload in a child process - a fresh allocator and `VmHWM` per
/// workload - and return its (detail, result) lines.
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }]);
    if let Some(path) = trace {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{} failed its run: {}",
            w.name(),
            stderr.trim_end()
        ));
    }
    let mut lines = stdout.lines();
    let detail = lines.next().ok_or("child printed nothing")?;
    let result = lines.last().ok_or("child printed no result line")?;
    Ok((
        json::parse(detail).map_err(|e| e.to_string())?,
        json::parse(result).map_err(|e| e.to_string())?,
    ))
}

fn print_metrics(title: &str, metrics: &Value, samples: Option<&Value>) {
    println!("  {title}");
    for (name, m) in members(metrics) {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let n = samples.map_or(String::new(), |s| format!("  (n={})", s.to_json()));
        println!("    {name:<36} {value:>16.4} {unit}{n}");
    }
}

fn git_commit() -> String {
    let out = Command::new("git").args(["rev-parse", "HEAD"]).output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// `all`: every workload untraced, then (with `trace`) traced; prints every
/// metric by name with its unit and writes one JSON file. A failed
/// correctness gate fails the command before anything is written.
pub fn all(seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Value, String> {
    let mut workloads = BTreeMap::new();
    let mut traces = Vec::new();
    for w in Workload::ALL {
        let (detail, result) = child(w, seed, seconds, None)?;
        println!("{}", w.name());
        let timed = detail.get("latency_samples");
        print_metrics("end to end", &field(&result, "metrics"), timed);
        print_metrics(
            "this workload only (no bound)",
            &field(&detail, "extras"),
            None,
        );
        let mut entry = BTreeMap::from([
            ("detail".to_string(), detail),
            ("end_to_end".to_string(), field(&result, "metrics")),
            ("attempted".to_string(), field(&result, "attempted")),
            ("failed".to_string(), field(&result, "failed")),
        ]);
        if trace {
            let path = PathBuf::from(format!("{}.{}.tmp", out.display(), w.name()));
            let (trace_detail, traced) = child(w, seed, seconds, Some(&path))?;
            print_metrics("per layer", &field(&traced, "metrics"), None);
            println!("  self time of one call (us): {}", trace_detail.to_json());
            entry.insert("per_layer".into(), field(&traced, "metrics"));
            entry.insert("trace_detail".into(), trace_detail);
            traces.push(read_json(&path)?);
            let _ = std::fs::remove_file(&path);
        }
        workloads.insert(w.name().to_string(), Value::Obj(entry));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());
    let report = obj([
        ("bench", Value::from("sbc_bench")),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("nproc", Value::from(nproc)),
        ("git_commit", Value::from(git_commit())),
        ("workloads", Value::Obj(workloads)),
    ]);
    std::fs::write(out, report.to_json() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    if trace {
        let path = format!("{}.trace.json", out.display());
        let doc = obj([("traces", Value::Arr(traces))]);
        std::fs::write(&path, doc.to_json() + "\n").map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(report)
}

/// `(name, bound, lower_is_better)` of every end-to-end metric.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let bench = read_json(Path::new("BENCHMARK.json"))?;
    let list = bench.get("end_to_end").and_then(Value::as_arr);
    list.ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str)?.to_string();
            let bound = m.get("bound").and_then(Value::as_f64)?;
            let lower = m.get("better").and_then(Value::as_str)? == "lower";
            Some((name, bound, lower))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn metric_of(report: &Value, workload: &str, metric: &str) -> Option<f64> {
    let w = report.get("workloads")?.get(workload)?;
    w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
}

fn failed_share(report: &Value, workload: &str) -> f64 {
    let count = |key: &str| {
        let w = report.get("workloads").and_then(|ws| ws.get(workload));
        w.and_then(|w| w.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    count("failed") / count("attempted").max(1.0)
}

/// `compare`: one row per (metric, workload) with both values, the ratio
/// and its base, and `ok`, `worse` or `unresolved` (the recorded run-to-run
/// spread exceeds the bound, so the pairing cannot be judged). `Ok(false)`
/// when any row is worse or B failed a larger share of its operations.
pub fn compare(a_path: &Path, b_path: &Path, calibration: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let spreads = read_json(calibration).ok();
    if spreads.is_none() {
        println!(
            "no calibration at {}: no row can be unresolved",
            calibration.display()
        );
    }
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for w in Workload::ALL {
        for (metric, bound, lower) in bounds()? {
            let (Some(va), Some(vb)) = (
                metric_of(&a, w.name(), &metric),
                metric_of(&b, w.name(), &metric),
            ) else {
                println!("{:<14} {metric:<20} missing from one side", w.name());
                clean = false;
                continue;
            };
            let spread = spreads.as_ref().and_then(|s| {
                s.get("spread")?
                    .get(w.name())?
                    .get(&metric)?
                    .get("iqr_share")?
                    .as_f64()
            });
            let worsening = if lower { vb / va - 1.0 } else { 1.0 - vb / va };
            let verdict = if spread.is_some_and(|s| s > bound) {
                "unresolved"
            } else if worsening > bound {
                clean = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<14} {metric:<20} {va:>14.4} {vb:>14.4} {:>9.4} {bound:>7.2}  {verdict}",
                w.name(),
                vb / va
            );
        }
        let (fa, fb) = (failed_share(&a, w.name()), failed_share(&b, w.name()));
        let verdict = if fb > fa { "worse" } else { "ok" };
        clean &= fb <= fa;
        println!(
            "{:<14} {:<20} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {verdict}",
            w.name(),
            "failed_share",
            "-",
            "-"
        );
    }
    Ok(clean)
}

/// `calibrate`: the suite `runs` times with seeds `seed, seed+1, ...`,
/// recording the median and inter-quartile spread of every end-to-end
/// metric per workload, and the bound each spread supports:
/// max(10 %, 2 x spread), which must stay within the contract's 25 %.
/// `BENCHMARK.json` holds exactly the contract's keys, so the record goes
/// to a file of its own; copy a suggested bound over by hand.
pub fn calibrate(runs: usize, seed: u64, seconds: f64, out: &Path) -> Result<(), String> {
    let declared = bounds()?; // before the minutes of runs, not after
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in 0..runs {
        let path = PathBuf::from(format!(".bench_out/calibrate-{r}.json"));
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        let report = all(seed + r as u64, seconds, false, &path)?;
        for (w, entry) in members(&field(&report, "workloads")) {
            for (name, m) in members(&field(entry, "end_to_end")) {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                samples
                    .entry((w.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    let mut spread: BTreeMap<String, Value> = BTreeMap::new();
    println!(
        "{:<14} {:<20} {:>14} {:>9} {:>10} {:>9}",
        "workload", "metric", "median", "iqr/med", "supports", "declared"
    );
    for ((w, name), xs) in &samples {
        let share = iqr_share(xs);
        let supports = (2.0 * share).max(0.10);
        let bound = declared
            .iter()
            .find(|d| d.0 == *name)
            .map_or(f64::NAN, |d| d.1);
        let flag = if supports > MAX_BOUND {
            "  <- does not repeat"
        } else {
            ""
        };
        println!(
            "{w:<14} {name:<20} {:>14.4} {share:>9.4} {supports:>10.2} {bound:>9.2}{flag}",
            median(xs)
        );
        let entry = obj([
            ("median", Value::from(median(xs))),
            ("iqr_share", Value::from(share)),
            ("supports_bound", Value::from(supports)),
        ]);
        let per_workload = spread
            .entry(w.clone())
            .or_insert_with(|| Value::Obj(BTreeMap::new()));
        if let Value::Obj(m) = per_workload {
            m.insert(name.clone(), entry);
        }
    }
    let doc = obj([
        ("runs", Value::from(runs)),
        ("first_seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("git_commit", Value::from(git_commit())),
        ("spread", Value::Obj(spread)),
    ]);
    std::fs::write(out, doc.to_json() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    Ok(())
}
