//! `sbc_bench`: see `README.md` beside this crate.
//!
//! ```text
//! sbc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! sbc_bench all [--seed n] [--seconds s | --smoke] [--trace] [--out file]
//! sbc_bench compare <a.json> <b.json> [--calibration file]
//! sbc_bench calibrate [--runs 5] [--seed n] [--seconds s] [--out file]
//! ```

use sbc_bench::report::{all, calibrate, compare, CALIBRATION_PATH};
use sbc_bench::run::{run_traced, run_untraced};
use sbc_bench::workloads::{Config, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The window `BENCHMARK.json` asks for; `all` and `calibrate` default to it.
const RUN_SECONDS: f64 = 15.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot read {raw:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// `--smoke` is every workload at a one-second window: the same code
    /// paths and the same gates in a few seconds.
    fn seconds(&self) -> Result<f64, String> {
        let seconds = if self.has("--smoke") {
            1.0
        } else {
            self.parsed("--seconds", RUN_SECONDS)?
        };
        if seconds > 0.0 && seconds <= 60.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds}: must be in (0, 60]"))
        }
    }
}

/// `path`, with its directory made.
fn output_path(path: &str) -> Result<PathBuf, String> {
    let path = PathBuf::from(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    Ok(path)
}

/// One run of one workload. Prints a detail line, then the result line.
fn one_run(args: &Args) -> Result<ExitCode, String> {
    let name = args
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let cfg = Config {
        seed: args.parsed("--seed", 1)?,
        seconds: args.seconds()?,
        corrupt_oracle: args.has("--corrupt-oracle"),
    };
    let report = match args.parsed("--trace", 0u8)? {
        0 => run_untraced(w, &cfg),
        _ => run_traced(w, &cfg),
    }
    // a failed gate prints no result
    .map_err(|e| format!("{name}: correctness gate failed: {e}"))?;
    if let Some(trace) = &report.trace {
        let default = format!(".bench_out/trace-{name}-{}.json", cfg.seed);
        let path = output_path(args.value("--trace-out").unwrap_or(&default))?;
        std::fs::write(&path, trace.to_json() + "\n").map_err(|e| e.to_string())?;
    }
    println!("{}", report.detail.to_json());
    println!("{}", report.result_line(true));
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.0.first().map(String::as_str) {
        Some("all") => {
            let out = output_path(args.value("--out").unwrap_or(".bench_out/sbc_bench.json"))?;
            all(
                args.parsed("--seed", 1)?,
                args.seconds()?,
                args.has("--trace"),
                &out,
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (args.0.get(1), args.0.get(2)) else {
                return Err("compare <a.json> <b.json>".into());
            };
            let calibration = args.value("--calibration").unwrap_or(CALIBRATION_PATH);
            let clean = compare(Path::new(a), Path::new(b), Path::new(calibration))?;
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("calibrate") => {
            let out = args.value("--out").unwrap_or(CALIBRATION_PATH);
            calibrate(
                args.parsed("--runs", 5)?,
                args.parsed("--seed", 1)?,
                args.seconds()?,
                Path::new(out),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        _ => one_run(args),
    }
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sbc_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
