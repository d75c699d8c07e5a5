//! The five workloads: set-up, warm-up with the bitwise gate, the timed
//! window, the from-scratch gate - repeated for [`ROUNDS`] independent
//! streams per run, so every reported number is a median over rounds.

use crate::inputs::{apply_to, churn, lognormal_schedule, sub_seed, Inputs, CHURN_BAND};
use crate::stats::{median, quantile};
use crate::targets::{
    apply_line, bits, recv_line, Bits, FleetTarget, Scratch, ServeTarget, SessionTarget, Target,
    Wire, TOP_K_LINE,
};
use crate::trace::Tracer;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use streaming_bc::cluster::SimBuilder;
use streaming_bc::core::brandes::brandes;
use streaming_bc::core::verify::divergence_from_scratch;
use streaming_bc::core::BetweennessState;
use streaming_bc::graph::Graph;
use streaming_bc::{Checkpoint, Update};

/// Independent (stream, set-up, window) repetitions per run. The host's
/// speed wanders by a few percent over tens of seconds and the kernel's
/// cost depends on which edges a stream happens to toggle; the median over
/// rounds is what repeats. Odd, so the median is a round that was run.
pub const ROUNDS: usize = 5;
/// `par_batch` applies this many updates per call.
pub const BATCH: usize = 32;
/// Updates applied before each timed window (one `par_batch` call). They
/// fill caches and lazy state, and the exact scores after them must equal
/// the serial oracle's bit for bit.
pub const GATE_PREFIX: usize = BATCH;
/// The fixed arrival rate of `serve_online`'s open-loop phase, about half
/// of the closed-loop capacity measured on the 2-core reference host.
/// Never recomputed at run time: a rate that followed capacity would hide
/// a slowdown.
pub const PACED_RATE: f64 = 100.0;
/// Burstiness of the log-normal inter-arrival gaps.
pub const PACED_SIGMA: f64 = 0.5;
/// The bootstrap graphs do not depend on `--seed`: at n=400 the kernel's
/// median cost differs by +-20 % from one Holme-Kim draw to the next, which
/// would drown every bound. The seed picks the streams.
const GRAPH_SEED: u64 = 0x5bc;
/// No workload sustains more updates per second than this on any host we
/// expect; streams are generated this long per second of window.
const MAX_RATE: f64 = 2000.0;
const VERIFY_TOL: f64 = 1e-6;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MoStream,
    ParBatch,
    DoDurable,
    ServeOnline,
    FleetRepl,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MoStream,
        Workload::ParBatch,
        Workload::DoDurable,
        Workload::ServeOnline,
        Workload::FleetRepl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MoStream => "mo_stream",
            Workload::ParBatch => "par_batch",
            Workload::DoDurable => "do_durable",
            Workload::ServeOnline => "serve_online",
            Workload::FleetRepl => "fleet_repl",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// G1k (the kernel dominates) or G400 (the wrapper layers dominate).
    pub fn graph_n(self) -> usize {
        match self {
            Workload::MoStream | Workload::ParBatch => 1000,
            _ => 400,
        }
    }

    /// Updates per closed-loop call.
    pub fn step_len(self) -> usize {
        match self {
            Workload::ParBatch => BATCH,
            _ => 1,
        }
    }

    /// The percentile `update_tail_ms` reports, over the calls of all
    /// rounds. `par_batch` completes ~9 batches a second, so p90 is the
    /// highest that keeps ten samples beyond it. The others would support
    /// p99 by that rule, but with ~20 samples beyond it p99 differed by 20 %
    /// between runs on the reference host; p95 repeats.
    pub fn tail_pct(self) -> u32 {
        match self {
            Workload::ParBatch => 90,
            _ => 95,
        }
    }

    /// Thickest-first stacks whose spans add up to one update of this
    /// workload; each is the parent of the next in the trace file.
    pub fn chain(self) -> &'static [&'static str] {
        match self {
            Workload::MoStream => &["session.mem_apply", "core.apply", "graph.mutate_publish"],
            Workload::ParBatch => &[
                "session.batch_apply",
                "engine.batch_apply",
                "engine.map_busy",
            ],
            Workload::DoDurable => &[
                "session.apply",
                "store.apply",
                "core.apply",
                "graph.mutate_publish",
            ],
            Workload::ServeOnline => &[
                "serve.wire_apply",
                "serve.engine_apply",
                "core.apply",
                "graph.mutate_publish",
            ],
            Workload::FleetRepl => &["cluster.coord_apply", "core.apply", "graph.mutate_publish"],
        }
    }

    pub fn base_graph(self) -> Graph {
        crate::inputs::bootstrap_graph(self.graph_n(), GRAPH_SEED)
    }

    fn setup(self, g: &Graph, scratch: &mut Scratch) -> Result<Box<dyn Target>, String> {
        Ok(match self {
            Workload::MoStream => Box::new(SessionTarget::memory(g, 1)?),
            Workload::ParBatch => Box::new(SessionTarget::memory(g, 2)?),
            Workload::DoDurable => Box::new(SessionTarget::disk(
                g,
                &scratch.dir("do_durable"),
                Checkpoint::EveryApply,
            )?),
            Workload::FleetRepl => Box::new(FleetTarget::launch(SimBuilder::new(2), g)?),
            Workload::ServeOnline => unreachable!("serve_online has its own round"),
        })
    }
}

/// What a run is asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Flip one bit of every oracle: the gate must then fail.
    pub corrupt_oracle: bool,
}

/// Operations attempted and failed; a failed one counts as missing every
/// latency limit.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn note<T>(&mut self, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("operation failed: {e}");
            }
        }
    }
}

/// One round's measurements.
pub struct Round {
    pub setup_s: f64,
    /// `VmHWM` when the round's target was torn down.
    pub peak_rss_mb: f64,
    /// Per closed-loop call (per due update in the paced phase), ms.
    pub lat_ms: Vec<f64>,
    /// Acked updates and wall seconds of the closed-loop window.
    pub updates: usize,
    pub wall_s: f64,
    pub query_ms: Vec<f64>,
    pub extras: Vec<(&'static str, f64)>,
}

impl Round {
    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// p50 of the window's last quarter over p50 of its first: 1.0 on a
    /// stationary stream unless cost grows with history.
    pub fn late_over_early(&self) -> f64 {
        let q = (self.lat_ms.len() / 4).max(1);
        median(&self.lat_ms[self.lat_ms.len() - q..]) / median(&self.lat_ms[..q])
    }
}

/// The inputs of round `r` of a run.
pub fn round_inputs(w: Workload, cfg: &Config, base: &Graph, r: usize, window_s: f64) -> Inputs {
    let len = GATE_PREFIX + (MAX_RATE * window_s).ceil() as usize;
    let len = len.next_multiple_of(BATCH);
    let salt = (r as u64) << 8 | w as u64;
    churn(base, sub_seed(cfg.seed, salt), len, CHURN_BAND)
}

/// The serial oracle: exact scores of a single `BetweennessState` driven by
/// `stream`, computed outside every timed window.
fn oracle_bits(g: &Graph, stream: &[Update], corrupt: bool) -> Result<Bits, String> {
    let mut state = BetweennessState::new(g);
    for &u in stream {
        state.apply(u).map_err(|e| e.to_string())?;
    }
    let mut want = bits(&state.exact_scores().map_err(|e| e.to_string())?);
    if corrupt {
        want.0[0] ^= 1;
    }
    Ok(want)
}

/// Drive the warm-up prefix through a freshly set-up target. Returns the
/// stream position the timed window starts at and the target's exact scores
/// there, for [`gate_bitwise`].
fn warm_up(
    target: &mut dyn Target,
    inputs: &Inputs,
    step_len: usize,
    tally: &mut Tally,
) -> Result<(usize, Bits), String> {
    let mut pos = 0;
    let unbounded = Duration::MAX;
    closed_loop(
        target,
        &inputs.stream,
        &mut pos,
        GATE_PREFIX,
        step_len,
        unbounded,
        tally,
        None,
    );
    Ok((pos, bits(&target.exact()?)))
}

/// The scores a target had after the warm-up prefix against the serial
/// oracle's, bit for bit. Called once the target is gone: the oracle holds a
/// full set of records of its own, which must not sit in the target's peak
/// memory, before it (the allocator keeps what it frees) or beside it.
fn gate_bitwise(inputs: &Inputs, got: &Bits, corrupt: bool) -> Result<(), String> {
    let want = oracle_bits(&inputs.graph, &inputs.stream[..GATE_PREFIX], corrupt)?;
    if *got == want {
        Ok(())
    } else {
        Err(format!(
            "exact scores differ from the serial oracle after {GATE_PREFIX} updates"
        ))
    }
}

/// `verify(1e-6)`: the exact scores against a from-scratch Brandes on the
/// graph the whole applied stream leads to.
fn gate_scratch(target: &mut dyn Target, inputs: &Inputs, applied: usize) -> Result<(), String> {
    let mut g = inputs.graph.clone();
    for u in &inputs.stream[..applied] {
        apply_to(&mut g, u).map_err(|e| e.to_string())?;
    }
    let d = divergence_from_scratch(&g, &target.exact()?);
    if d.within(VERIFY_TOL) {
        Ok(())
    } else {
        Err(format!(
            "scores diverge from a from-scratch Brandes after {applied} updates \
             (vbc {:.3e}, ebc {:.3e})",
            d.vbc, d.ebc
        ))
    }
}

/// Closed loop: the next call is made when the previous one returns.
/// Runs from `*pos` until `budget` is spent (or `upto` is reached).
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    target: &mut dyn Target,
    stream: &[Update],
    pos: &mut usize,
    upto: usize,
    step_len: usize,
    budget: Duration,
    tally: &mut Tally,
    mut tracer: Option<(&mut Tracer, &'static str)>,
) -> (Vec<f64>, f64) {
    let mut lat_ms = Vec::new();
    let t0 = Instant::now();
    while *pos + step_len <= upto && t0.elapsed() < budget {
        let batch = &stream[*pos..*pos + step_len];
        let t = Instant::now();
        let result = match &mut tracer {
            Some((tr, name)) => tr.time(name, *pos, || target.step(batch)),
            None => target.step(batch),
        };
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.note(&result);
        *pos += step_len;
    }
    (lat_ms, t0.elapsed().as_secs_f64())
}

/// One round of a closed-loop workload.
pub fn closed_round(
    w: Workload,
    inputs: &Inputs,
    window: Duration,
    corrupt: bool,
    scratch: &mut Scratch,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut target = w.setup(&inputs.graph, scratch)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut pos, warm_bits) = warm_up(&mut *target, inputs, w.step_len(), tally)?;
    let stream = &inputs.stream;

    let name = w.chain()[0];
    let (lat_ms, wall_s) = closed_loop(
        &mut *target,
        stream,
        &mut pos,
        stream.len(),
        w.step_len(),
        window,
        tally,
        tracer.map(|t| (t, name)),
    );
    if lat_ms.is_empty() {
        return Err("the window completed no call".into());
    }
    gate_scratch(&mut *target, inputs, pos)?;
    let extras = target.finish()?;
    let peak_rss_mb = peak_rss_mb();
    gate_bitwise(inputs, &warm_bits, corrupt)?;
    Ok(Round {
        setup_s,
        peak_rss_mb,
        updates: pos - GATE_PREFIX,
        lat_ms,
        wall_s,
        query_ms: Vec::new(),
        extras,
    })
}

/// Sleep, then spin the last stretch, until `due`.
fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the open-loop phase saw.
pub struct Paced {
    /// Ack time minus due time per update, ms.
    pub lat_ms: Vec<f64>,
    /// Send time minus due time per update, ms: how late the generator ran.
    pub gen_lag_ms: Vec<f64>,
    /// Updates not acked (or failed) by the time the next one was due.
    pub missed: usize,
    /// Updates sent and not yet acked when the schedule ended.
    pub backlog_end: usize,
}

/// Open loop: `stream[i]` is sent when `sched[i]` seconds have passed,
/// whether or not earlier updates were acked; a second thread reads the
/// acks. Every latency runs from the instant the update was due.
pub fn paced(
    wire: &mut Wire,
    stream: &[Update],
    sched: &[f64],
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Paced {
    let lines: Vec<String> = stream.iter().map(|u| apply_line(&[*u]) + "\n").collect();
    let acked = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(sched[i]);
    let Wire { reader, writer } = wire;
    let mut sent_at = Vec::with_capacity(lines.len());
    let mut backlog_end = 0;
    let acks: Vec<(Instant, Result<(), String>)> = std::thread::scope(|s| {
        let acked = &acked;
        let n = lines.len();
        let rx = s.spawn(move || {
            let mut acks = Vec::with_capacity(n);
            for _ in 0..n {
                let result = recv_line(reader).map(drop);
                acks.push((Instant::now(), result));
                acked.fetch_add(1, Ordering::Relaxed);
            }
            acks
        });
        for (i, line) in lines.iter().enumerate() {
            wait_until(due(i));
            sent_at.push(Instant::now());
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        backlog_end = sent_at.len() - acked.load(Ordering::Relaxed);
        rx.join().expect("ack reader")
    });
    let mut out = Paced {
        lat_ms: Vec::with_capacity(acks.len()),
        gen_lag_ms: Vec::with_capacity(acks.len()),
        missed: 0,
        backlog_end,
    };
    for (i, (at, result)) in acks.iter().enumerate() {
        tally.note(result);
        let lat = at.saturating_duration_since(due(i));
        out.lat_ms.push(lat.as_secs_f64() * 1e3);
        if let Some(sent) = sent_at.get(i) {
            let lag = sent.saturating_duration_since(due(i));
            out.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
        }
        if i + 1 < acks.len() && (result.is_err() || *at > due(i + 1)) {
            out.missed += 1;
        }
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("serve.paced_update", i, lat);
        }
    }
    out
}

/// The reader: closed-loop `top_k` round trips until `stop` (or the first
/// failure), returning each one's latency in ms.
pub fn query_loop(reader: &mut Wire, stop: &AtomicBool, tally: &mut Tally) -> Vec<f64> {
    let mut lat_ms = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        let result = reader.roundtrip(TOP_K_LINE);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.note(&result);
        if result.is_err() {
            break;
        }
    }
    lat_ms
}

/// One round of `serve_online`: a closed-loop capacity phase and an
/// open-loop paced phase of half the window each, with a reader running
/// closed-loop `top_k` on its own connection through both.
pub fn serve_round(
    inputs: &Inputs,
    window: Duration,
    sched_seed: u64,
    corrupt: bool,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let (mut target, mut reader) = ServeTarget::spawn(&inputs.graph)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut pos, warm_bits) = warm_up(&mut target, inputs, 1, tally)?;
    let stream = &inputs.stream;

    let phase = window / 2;
    let paced_len = (phase.as_secs_f64() * PACED_RATE).ceil() as usize;
    let sched = lognormal_schedule(paced_len, PACED_RATE, PACED_SIGMA, sched_seed);
    let stop = AtomicBool::new(false);
    let mut reader_tally = Tally::default();
    let (capacity, paced_out, query_ms) = std::thread::scope(|s| {
        let (stop, reader_tally) = (&stop, &mut reader_tally);
        let queries = s.spawn(move || query_loop(&mut reader, stop, reader_tally));
        let traced = tracer.as_deref_mut().map(|t| (t, "serve.wire_apply"));
        let upto = stream.len() - paced_len;
        let capacity = closed_loop(&mut target, stream, &mut pos, upto, 1, phase, tally, traced);
        let paced_out = paced(
            &mut target.writer,
            &stream[pos..pos + paced_len],
            &sched,
            tally,
            tracer,
        );
        stop.store(true, Ordering::Relaxed);
        (capacity, paced_out, queries.join().expect("query reader"))
    });
    tally.add(reader_tally);
    let (capacity_ms, wall_s) = capacity;
    if capacity_ms.is_empty() || query_ms.is_empty() {
        return Err("the window completed no call".into());
    }
    let updates = pos - GATE_PREFIX;
    pos += paced_len;
    gate_scratch(&mut target, inputs, pos)?;
    Box::new(target).finish()?;
    let peak_rss_mb = peak_rss_mb();
    gate_bitwise(inputs, &warm_bits, corrupt)?;
    let miss_share = paced_out.missed as f64 / (paced_len - 1).max(1) as f64;
    Ok(Round {
        setup_s,
        peak_rss_mb,
        lat_ms: paced_out.lat_ms,
        updates,
        wall_s,
        query_ms,
        extras: vec![
            ("online_miss_share", miss_share),
            ("capacity_p50_ms", median(&capacity_ms)),
            ("gen_lag_tail_ms", quantile(&paced_out.gen_lag_ms, 0.99)),
            ("backlog_end", paced_out.backlog_end as f64),
        ],
    })
}

/// Median wall of a from-scratch `brandes()` on `g`: the base of
/// `speedup_vs_brandes`, measured in-run so the ratio is host-independent.
pub fn brandes_s(g: &Graph, reps: usize) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(brandes(std::hint::black_box(g)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(f64::NAN) / 1024.0
}
