//! One run of one workload: rounds, aggregation into named metrics, and the
//! two JSON lines a run prints.

use crate::ladder::ladder;
use crate::stats::{median, quantile, tail};
use crate::targets::Scratch;
use crate::trace::Tracer;
use crate::workloads::{
    brandes_s, closed_round, round_inputs, serve_round, Config, Round, Tally, Workload, BATCH,
    GATE_PREFIX, ROUNDS,
};
use ebc_serve::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Every round of a pass, with the in-run Brandes base.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub brandes_s: f64,
    pub tally: Tally,
    pub graph_n: usize,
    pub graph_m: usize,
}

/// Run `rounds` rounds of `window` each. Round `r` always sees the same
/// inputs for a seed, whatever the window.
pub fn measure(
    w: Workload,
    cfg: &Config,
    rounds: usize,
    window: Duration,
    scratch: &mut Scratch,
    mut tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let base = w.base_graph();
    let mut tally = Tally::default();
    let mut out = Vec::with_capacity(rounds);
    // one Brandes beside every window, so the base of the speed-up sees the
    // same host weather as the updates it is divided by
    let mut brandes = vec![brandes_s(&base, 1)];
    for r in 0..rounds {
        let inputs = round_inputs(w, cfg, &base, r, window.as_secs_f64());
        let tr = tracer.as_deref_mut();
        let corrupt = cfg.corrupt_oracle;
        out.push(match w {
            Workload::ServeOnline => {
                let sched_seed = crate::inputs::sub_seed(cfg.seed, 0x5c4ed ^ r as u64);
                serve_round(&inputs, window, sched_seed, corrupt, &mut tally, tr)?
            }
            _ => closed_round(w, &inputs, window, corrupt, scratch, &mut tally, tr)?,
        });
        brandes.push(brandes_s(&base, 1));
    }
    Ok(Measured {
        rounds: out,
        brandes_s: median(&brandes),
        tally,
        graph_n: base.n(),
        graph_m: base.m(),
    })
}

fn over_rounds(m: &Measured, f: impl Fn(&Round) -> f64) -> f64 {
    median(&m.rounds.iter().map(f).collect::<Vec<_>>())
}

fn pooled(m: &Measured, f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    m.rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// The metrics a user of the system would see, from an untraced pass.
pub fn end_to_end(w: Workload, m: &Measured) -> Vec<Metric> {
    let p50 = over_rounds(m, Round::p50_ms);
    let tail_ms = quantile(&pooled(m, |r| &r.lat_ms), w.tail_pct() as f64 / 100.0);
    let per_update_ms = p50 / w.step_len() as f64;
    vec![
        ("setup_s", over_rounds(m, |r| r.setup_s), "s"),
        (
            "updates_per_s",
            over_rounds(m, |r| r.updates as f64 / r.wall_s),
            "1/s",
        ),
        ("update_p50_ms", p50, "ms"),
        ("update_tail_ms", tail_ms, "ms"),
        (
            "speedup_vs_brandes",
            m.brandes_s * 1e3 / per_update_ms,
            "ratio",
        ),
        // the first round's: one instance's footprint. Later rounds build on
        // what the allocator kept of earlier ones (and of their oracles), and
        // the process's final peak differs by 20 % between runs
        ("peak_rss_mb", m.rounds[0].peak_rss_mb, "MiB"),
    ]
}

/// Metrics only some workloads have (`do_durable`: reopen and replay;
/// `serve_online`: the online criterion and the reader's view). They are
/// printed with the end-to-end set but carry no bound: `BENCHMARK.json`
/// takes one list of end-to-end metrics that every workload must report.
pub fn workload_extras(m: &Measured) -> Vec<Metric> {
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in m.rounds.iter().flat_map(|r| &r.extras) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    let unit = |name: &str| match name {
        n if n.ends_with("_s") => "s",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_share") => "share",
        _ => "count",
    };
    let mut out: Vec<Metric> = names
        .into_iter()
        .map(|name| {
            let of = |r: &Round| {
                r.extras
                    .iter()
                    .find(|e| e.0 == name)
                    .map_or(f64::NAN, |e| e.1)
            };
            (name, over_rounds(m, of), unit(name))
        })
        .collect();
    let queries = pooled(m, |r| &r.query_ms);
    if !queries.is_empty() {
        out.push(("query_p50_ms", median(&queries), "ms"));
        out.push(("query_tail_ms", tail(&queries).1, "ms"));
        // the reader is a closed loop: its latencies add up to its wall
        let busy_s = queries.iter().sum::<f64>() / 1e3;
        out.push(("queries_per_s", queries.len() as f64 / busy_s, "1/s"));
    }
    out.push((
        "late_over_early",
        over_rounds(m, Round::late_over_early),
        "ratio",
    ));
    out
}

/// What one run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Context that does not fit the result line: sizes, sample counts,
    /// workload-specific metrics.
    pub detail: Value,
    /// Spans and counters of a traced run.
    pub trace: Option<Value>,
}

fn metrics_value(metrics: &[Metric]) -> Value {
    let map: BTreeMap<String, Value> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = obj([("value", Value::from(value)), ("unit", Value::from(unit))]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Obj(map)
}

impl Report {
    /// The last line of a run's standard output.
    pub fn result_line(&self, correct: bool) -> String {
        obj([
            ("correct", Value::from(correct)),
            ("attempted", Value::from(self.tally.attempted)),
            ("failed", Value::from(self.tally.failed)),
            ("metrics", metrics_value(&self.metrics)),
        ])
        .to_json()
    }
}

fn detail(w: Workload, cfg: &Config, m: &Measured, extras: &[Metric]) -> Value {
    let updates: usize = m.rounds.iter().map(|r| r.updates).sum();
    let calls: usize = m.rounds.iter().map(|r| r.lat_ms.len()).sum();
    let queries: usize = m.rounds.iter().map(|r| r.query_ms.len()).sum();
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());
    let failed_share = m.tally.failed as f64 / m.tally.attempted.max(1) as f64;
    obj([
        ("workload", Value::from(w.name())),
        ("seed", Value::from(cfg.seed)),
        ("seconds", Value::from(cfg.seconds)),
        ("nproc", Value::from(nproc)),
        ("graph_n", Value::from(m.graph_n)),
        ("graph_m", Value::from(m.graph_m)),
        ("rounds", Value::from(m.rounds.len())),
        ("gate_prefix", Value::from(GATE_PREFIX)),
        (
            "stream_len",
            Value::from(updates + m.rounds.len() * GATE_PREFIX),
        ),
        ("timed_updates", Value::from(updates)),
        ("latency_samples", Value::from(calls)),
        ("query_samples", Value::from(queries)),
        ("tail_pct", Value::from(w.tail_pct() as u64)),
        ("brandes_s", Value::from(m.brandes_s)),
        ("failed_share", Value::from(failed_share)),
        ("extras", metrics_value(extras)),
    ])
}

/// `--trace 0`: the timed windows, tracing off.
pub fn run_untraced(w: Workload, cfg: &Config) -> Result<Report, String> {
    let mut scratch = Scratch::new().map_err(|e| e.to_string())?;
    let window = Duration::from_secs_f64(cfg.seconds / ROUNDS as f64);
    let m = measure(w, cfg, ROUNDS, window, &mut scratch, None)?;
    let extras = workload_extras(&m);
    Ok(Report {
        metrics: end_to_end(w, &m),
        tally: m.tally,
        detail: detail(w, cfg, &m, &extras),
        trace: None,
    })
}

/// Updates each ladder stack is driven for: four per second asked for, a
/// whole number of `par_batch` batches, so the counters repeat exactly for
/// a (seed, seconds) pair.
fn ladder_prefix(seconds: f64) -> usize {
    ((4.0 * seconds) as usize)
        .clamp(BATCH, 4 * BATCH)
        .next_multiple_of(BATCH)
}

/// `--trace 1`: the workload once untraced and once traced on the same
/// inputs (their difference is the tracing overhead), then the layer
/// ladder on those inputs. The untraced pass is one window of a third of
/// the run on one instance - longer than a timed round's - so that
/// `session.late_over_early` can see a cost that grows with history.
pub fn run_traced(w: Workload, cfg: &Config) -> Result<Report, String> {
    let mut scratch = Scratch::new().map_err(|e| e.to_string())?;
    let window = Duration::from_secs_f64(cfg.seconds / 3.0);
    let mut tracer = Tracer::default();
    let plain = measure(w, cfg, 1, window, &mut scratch, None)?;
    let traced = measure(w, cfg, 1, window / 2, &mut scratch, Some(&mut tracer))?;
    // the same prefix of the same stream on both sides
    let common = plain.rounds[0]
        .lat_ms
        .len()
        .min(traced.rounds[0].lat_ms.len());
    let plain_p50 = median(&plain.rounds[0].lat_ms[..common]);
    let traced_p50 = median(&traced.rounds[0].lat_ms[..common]);

    let p = ladder_prefix(cfg.seconds);
    let base = w.base_graph();
    let inputs = round_inputs(w, cfg, &base, 0, window.as_secs_f64());
    let mut metrics = ladder(&inputs.graph, &inputs.stream, p, &mut scratch, &mut tracer)?;

    let chain = tracer.chain_self_us(w.chain());
    let explained: f64 = chain.iter().map(|c| c.1).sum();
    let call_us = plain_p50 * 1e3;
    metrics.extend([
        (
            "trace_overhead_pct",
            (traced_p50 / plain_p50 - 1.0) * 100.0,
            "%",
        ),
        ("unattributed_us", call_us - explained, "us"),
        (
            "unattributed_share",
            (call_us - explained) / call_us,
            "share",
        ),
        (
            "session.late_over_early",
            plain.rounds[0].late_over_early(),
            "ratio",
        ),
    ]);
    let mut tally = plain.tally;
    tally.add(traced.tally);
    let self_table = chain
        .iter()
        .map(|&(name, us)| obj([("stack", Value::from(name)), ("self_us", Value::from(us))]))
        .collect();
    let detail = obj([
        ("workload", Value::from(w.name())),
        ("seed", Value::from(cfg.seed)),
        ("ladder_updates", Value::from(p)),
        ("call_p50_us", Value::from(call_us)),
        ("self_time", Value::Arr(self_table)),
    ]);
    Ok(Report {
        metrics,
        tally,
        detail,
        trace: Some(tracer.to_json(w.name(), w.chain())),
    })
}
