//! In-memory spans and counters, recorded by the harness around its calls
//! into each layer and written out when the pass ends.
//!
//! The layers are timed from outside, by *stack differencing*: the same
//! stream prefix is driven through successively thicker public stacks, so
//! the spans of one update (same `update_idx`) come from separate
//! executions and do not nest in wall-clock time. A span's `parent` names
//! the thicker stack it is subtracted from; a stack's self time for an
//! update is its span minus its child's.

use crate::stats::median;
use ebc_serve::json::{obj, Value};
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub update_idx: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(name, update_idx, value)`, taken at the same boundaries as the spans.
    pub counters: Vec<(&'static str, u32, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, idx: usize, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed();
        let out = f();
        self.push(name, idx, start, self.epoch.elapsed());
        out
    }

    /// Record a span for an interval the callee measured itself (it ends now).
    pub fn record(&mut self, name: &'static str, idx: usize, busy: Duration) {
        let end = self.epoch.elapsed();
        self.push(name, idx, end.saturating_sub(busy), end);
    }

    fn push(&mut self, name: &'static str, idx: usize, start: Duration, end: Duration) {
        self.spans.push(Span {
            name,
            update_idx: idx as u32,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
    }

    pub fn count(&mut self, name: &'static str, idx: usize, value: f64) {
        self.counters.push((name, idx as u32, value));
    }

    /// Durations of every span called `name`, in microseconds, by update.
    fn series(&self, name: &str) -> Vec<(u32, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.update_idx, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.series(name).into_iter().map(|(_, d)| d).collect()
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Median over updates of `thick - thin`, pairing spans by update.
    pub fn self_us(&self, thick: &str, thin: &str) -> f64 {
        let thin = self.series(thin);
        let diffs: Vec<f64> = self
            .series(thick)
            .into_iter()
            .filter_map(|(idx, d)| {
                let (_, t) = thin.iter().find(|(i, _)| *i == idx)?;
                Some(d - t)
            })
            .collect();
        median(&diffs)
    }

    /// Self time of every stack of `chain` (thickest first; the last has no
    /// child and keeps its whole span), in microseconds.
    pub fn chain_self_us(&self, chain: &[&'static str]) -> Vec<(&'static str, f64)> {
        chain
            .iter()
            .enumerate()
            .map(|(i, &name)| match chain.get(i + 1) {
                Some(child) => (name, self.self_us(name, child)),
                None => (name, self.p50_us(name)),
            })
            .collect()
    }

    pub fn counter_values(&self, name: &str) -> Vec<f64> {
        let of_name = self.counters.iter().filter(|c| c.0 == name);
        of_name.map(|c| c.2).collect()
    }

    /// The trace file: every span with the parent `chain` gives it.
    pub fn to_json(&self, workload: &str, chain: &[&'static str]) -> Value {
        let parent = |name: &str| {
            let at = chain.iter().position(|c| *c == name)?;
            at.checked_sub(1).map(|p| chain[p])
        };
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::from(s.name)),
                    ("workload", Value::from(workload)),
                    ("update_idx", Value::from(s.update_idx as u64)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", parent(s.name).map_or(Value::Null, Value::from)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|&(name, idx, value)| {
                obj([
                    ("name", Value::from(name)),
                    ("update_idx", Value::from(idx as u64)),
                    ("value", Value::from(value)),
                ])
            })
            .collect();
        obj([
            ("workload", Value::from(workload)),
            ("spans", Value::Arr(spans)),
            ("counters", Value::Arr(counters)),
        ])
    }
}
