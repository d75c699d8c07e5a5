//! **`paper`** — the one harness behind the paper's evaluation (§6), and the
//! gate over its exact counters.
//!
//! It runs a fixed list of rows, each for a fixed number of updates, and
//! records per update the wall time, the kernel's work counters and (DO)
//! the store's record bytes; per graph, the Brandes wall time and Table 2's
//! n, m, AD, CC and ED. DESIGN.md §5 is the row index.
//!
//! ```sh
//! cargo run --release -p ebc-bench --bin paper -- --smoke   # gate: n <= 400, compare
//! cargo run --release -p ebc-bench --bin paper -- --smoke --out BENCH_paper.json
//! cargo run --release -p ebc-bench --bin paper -- --out BENCH_paper.json   # full rows
//! ```
//!
//! Without `--out` the measured section (`smoke` or `full`) is compared
//! with the committed `BENCH_paper.json`: every field outside a `"wall"`
//! key must match exactly, and each one that does not is named and the
//! exit status is 1. With `--out PATH` the section is written into PATH
//! instead, keeping PATH's other sections.

use ebc_bench::gate::{diff, render};
use ebc_bench::{
    addition_updates, default_scale, measure, min_med_max, move_source, removal_updates, speedups,
    time_once, ScratchDir, Step, Variant,
};
use ebc_core::bd::BdStore;
use ebc_core::brandes::brandes;
use ebc_core::rankindex::RankIndex;
use ebc_core::ranking;
use ebc_core::state::Update;
use ebc_engine::{simulate_online, ClusterEngine};
use ebc_gen::models::holme_kim;
use ebc_gen::standins::{standin, Standin, StandinKind};
use ebc_gen::streams::replay_growth;
use ebc_gn::{girvan_newman_incremental, girvan_newman_recompute};
use ebc_graph::stats::GraphStats;
use ebc_serve::json::{obj, parse, Value};
use ebc_store::{CodecKind, DiskBdStore, ShardSet};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Additions, then removals, per kernel and cluster row.
const ADDS: usize = 20;
const REMOVES: usize = 20;

const REAL: [StandinKind; 6] = [
    StandinKind::WikiElections,
    StandinKind::Slashdot,
    StandinKind::Facebook,
    StandinKind::Epinions,
    StandinKind::Dblp,
    StandinKind::Amazon,
];

#[derive(Debug, Default, PartialEq)]
struct Cli {
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(it.next().ok_or("--out needs a path")?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("paper: {e}\nusage: paper [--smoke] [--out PATH]");
        std::process::exit(2)
    });
    let name = if cli.smoke { "smoke" } else { "full" };
    let t0 = Instant::now();
    let measured = run(cli.smoke);
    eprintln!("paper: {name} rows took {:.1}s", t0.elapsed().as_secs_f64());
    match cli.out {
        Some(path) => {
            // keep the file's other sections; refuse to overwrite what does not parse
            let mut doc = match std::fs::read_to_string(&path).map(|t| parse(&t)) {
                Ok(Ok(Value::Obj(m))) => m,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
                _ => panic!("{} exists and is not a JSON object", path.display()),
            };
            doc.insert("paper".into(), parse(PAPER).expect("PAPER is JSON"));
            doc.insert(name.into(), measured);
            std::fs::write(&path, render(&Value::Obj(doc))).expect("write the bench file");
            eprintln!("paper: wrote the {name} section of {}", path.display());
        }
        None => {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
            let text = std::fs::read_to_string(path).expect("read the committed BENCH_paper.json");
            let committed = parse(&text).expect("committed BENCH_paper.json parses");
            let Some(section) = committed.get(name) else {
                eprintln!("paper: BENCH_paper.json has no {name} section");
                std::process::exit(1)
            };
            let diffs = diff(name, section, &measured);
            for d in &diffs {
                println!("{d}");
            }
            if !diffs.is_empty() {
                eprintln!(
                    "paper: {} gated field(s) differ from BENCH_paper.json; if the change \
                     is intended, re-record with --out BENCH_paper.json and say why",
                    diffs.len()
                );
                std::process::exit(1);
            }
            eprintln!("paper: every gated {name} field matches BENCH_paper.json");
        }
    }
}

/// Measure every row of one section.
fn run(smoke: bool) -> Value {
    let mut h = Harness {
        smoke,
        ..Harness::default()
    };
    let (sizes, do_sizes, mp_n, topk_ns): (&[usize], &[usize], _, &[usize]) = if smoke {
        (&[200, 400], &[200, 400], 400, &[100, 400])
    } else {
        let topk = &[1_000, 4_000, 16_000, 65_000, 260_000];
        (
            &[1_000, 2_000, 5_000, 10_000, 20_000],
            &[1_000, 10_000],
            1_000,
            topk,
        )
    };
    // Table 3/4 and Figure 5
    for &n in sizes {
        for seed in 1..=3 {
            h.kernel(StandinKind::Synthetic(n), seed, Variant::Mo);
        }
    }
    for &n in do_sizes {
        for codec in [CodecKind::Paper, CodecKind::Wide] {
            h.kernel(StandinKind::Synthetic(n), 1, Variant::Do(codec));
        }
    }
    h.kernel(StandinKind::Synthetic(mp_n), 1, Variant::Mp);
    h.kernel(StandinKind::WikiElections, 1, Variant::Mp);
    for kind in REAL {
        h.kernel(kind, 1, Variant::Mo);
    }
    // Figure 6 and the measurable part of Figure 7
    for &n in sizes {
        h.cluster(StandinKind::Synthetic(n));
    }
    for kind in REAL {
        h.cluster(kind);
    }
    // Table 5 / Figure 8, then Figure 9
    let tail = if smoke { 20 } else { 100 };
    h.online(StandinKind::Slashdot, 4.0, tail);
    h.online(StandinKind::Facebook, 0.8, tail);
    h.girvan_newman(if smoke { 200 } else { 1_000 });
    // the rank index and the handoff protocol
    for &n in topk_ns {
        h.topk(n);
    }
    let (n, per_shard, moves, live_n) = if smoke {
        (400, 16, 8, 400)
    } else {
        (2_048, 64, 16, 1_000)
    };
    h.handoff_at_rest(n, per_shard, moves);
    h.handoff_live(live_n);
    h.into_value()
}

/// The rows measured so far, and each graph built for them.
#[derive(Default)]
struct Harness {
    smoke: bool,
    graphs: BTreeMap<String, (Standin, Duration, Value)>,
    rows: Vec<Value>,
}

impl Harness {
    fn into_value(self) -> Value {
        let graphs = arr(self.graphs.into_values().map(|g| g.2));
        obj([("graphs", graphs), ("rows", self.rows.into())])
    }

    /// The stand-in at this section's scale, built, measured and cached
    /// once: its id, the graph and its Brandes wall time.
    fn graph(&mut self, kind: StandinKind, seed: u64) -> (String, Standin, Duration) {
        let scale = match kind {
            StandinKind::Synthetic(_) => 1,
            _ if self.smoke => kind.paper_n() / 300,
            _ => default_scale(kind),
        };
        let label = match kind {
            StandinKind::Synthetic(_) => "synthetic".to_string(),
            _ => kind.name(),
        };
        let id = format!("{label}-{}/s{seed}", kind.paper_n() / scale);
        let entry = self.graphs.entry(id.clone()).or_insert_with(|| {
            let s = standin(kind, scale, seed);
            // the speedup denominator: one predecessor-free Brandes run
            let (_, brandes) = time_once(|| brandes(&s.graph));
            let st = GraphStats::compute(&s.graph, 64);
            eprintln!("  graph {id}: n={} m={} brandes {brandes:.2?}", st.n, st.m);
            let v = obj([
                ("id", id.as_str().into()),
                ("n", st.n.into()),
                ("m", st.m.into()),
                ("ad", st.avg_degree.into()),
                ("cc", st.clustering_coefficient.into()),
                ("ed", st.effective_diameter.into()),
                ("wall", obj([("brandes_s", brandes.as_secs_f64().into())])),
            ]);
            (s, brandes, v)
        });
        (id, entry.0.clone(), entry.1)
    }

    /// Table 3/4 and Figure 5: one bootstrap of `variant`, `ADDS` additions
    /// then `REMOVES` removals (drawn from the original graph), reported as
    /// an addition row and a removal row.
    fn kernel(&mut self, kind: StandinKind, seed: u64, variant: Variant) {
        let (gid, s, brandes) = self.graph(kind, seed);
        let updates = stream(&s, seed);
        let steps = measure(&s.graph, &updates, variant);
        let (name, codec) = match variant {
            Variant::Mp => ("mp", None),
            Variant::Mo => ("mo", None),
            Variant::Do(CodecKind::Paper) => ("do", Some("paper")),
            Variant::Do(CodecKind::Wide) => ("do", Some("wide")),
        };
        let prefix = codec.map_or(format!("{name}/{gid}"), |c| format!("{name}-{c}/{gid}"));
        for (op, part) in [("add", &steps[..ADDS]), ("remove", &steps[ADDS..])] {
            let walls: Vec<Duration> = part.iter().map(|st| st.wall).collect();
            let sp = speedups(brandes, &walls);
            let (lo, med, hi) = min_med_max(&sp);
            let column = |f: fn(&Step) -> u64| arr(part.iter().map(f));
            let mut row = BTreeMap::from([
                ("id".to_string(), format!("{prefix}/{op}").into()),
                ("graph".into(), gid.as_str().into()),
                ("variant".into(), name.to_uppercase().into()),
                ("op".into(), op.into()),
                ("seed".into(), seed.into()),
                (
                    "sources_processed".into(),
                    column(|st| st.stats.sources_processed),
                ),
                (
                    "sources_skipped".into(),
                    column(|st| st.stats.sources_skipped),
                ),
                ("touched".into(), column(|st| st.stats.touched)),
                ("popped".into(), column(|st| st.stats.popped)),
                ("scanned".into(), column(|st| st.stats.scanned)),
            ]);
            if let Some(c) = codec {
                row.insert("codec".into(), c.into());
                row.insert("bytes_read".into(), column(|st| st.io.0));
                row.insert("bytes_written".into(), column(|st| st.io.1));
            }
            let wall = obj([
                ("update_s", secs(&walls)),
                ("speedup_min", lo.into()),
                ("speedup_median", med.into()),
                ("speedup_max", hi.into()),
            ]);
            row.insert("wall".into(), wall);
            eprintln!("  {prefix}/{op}: speedup min/med/max {lo:.0}/{med:.0}/{hi:.0}");
            self.rows.push(Value::Obj(row));
        }
    }

    /// Figure 6 and 7: the seed-1 MO stream through `ClusterEngine` at
    /// p = 1 and 2. Figure 6's speedup divides Brandes by the cumulative
    /// worker time plus the reduce; Figure 7's wall is the map's.
    fn cluster(&mut self, kind: StandinKind) {
        let (gid, s, brandes) = self.graph(kind, 1);
        let updates = stream(&s, 1);
        for p in [1usize, 2] {
            let mut cluster = ClusterEngine::new(&s.graph, p).expect("bootstrap cluster");
            let (mut map, mut cumulative) = (Vec::new(), Vec::new());
            for &up in &updates {
                let rep = cluster.apply(up).expect("valid update");
                let reduce = cluster.reduce().expect("live cluster").wall;
                map.push(rep.map_wall + reduce);
                cumulative.push(rep.cumulative + reduce);
            }
            let (_, med, _) = min_med_max(&speedups(brandes, &cumulative));
            eprintln!("  cluster/{gid}/p{p}: cumulative speedup median {med:.0}");
            self.rows.push(obj([
                ("id", format!("cluster/{gid}/p{p}").into()),
                ("graph", gid.as_str().into()),
                ("p", p.into()),
                ("updates", updates.len().into()),
                (
                    "source_counts",
                    arr(cluster.source_counts().iter().copied()),
                ),
                (
                    "wall",
                    obj([
                        ("map_wall_s", secs(&map)),
                        ("cumulative_s", secs(&cumulative)),
                        ("cumulative_speedup_median", med.into()),
                    ]),
                ),
            ]));
        }
    }

    /// Table 5 / Figure 8: replay the stand-in's last `tail` arrivals
    /// through `simulate_online` at p = 1 and 2, with the mean gap set to
    /// `gap_factor` times the p = 1 mean update time of a probe replay.
    fn online(&mut self, kind: StandinKind, gap_factor: f64, tail: usize) {
        let (gid, s, _) = self.graph(kind, 1);
        let n = s.graph.n();
        let (boot, probe) = replay_growth(&s.arrival_order, n, tail, 1.0, 1.4, 1);
        let mut cluster = ClusterEngine::new(&boot, 1).expect("bootstrap probe");
        let p1 = simulate_online(&mut cluster, &probe).expect("probe replay");
        let gap = p1.mean_update_time().max(1e-6) * gap_factor;
        let (boot, stream) = replay_growth(&s.arrival_order, n, tail, gap, 1.4, 1);
        for p in [1usize, 2] {
            let mut cluster = ClusterEngine::new(&boot, p).expect("bootstrap cluster");
            let r = simulate_online(&mut cluster, &stream).expect("online replay");
            eprintln!(
                "  online/{gid}/p{p}: {:.1}% missed, avg delay {:.4}s",
                r.pct_missed(),
                r.avg_delay
            );
            self.rows.push(obj([
                ("id", format!("online/{gid}/p{p}").into()),
                ("graph", gid.as_str().into()),
                ("p", p.into()),
                ("boot_n", boot.n().into()),
                ("boot_m", boot.m().into()),
                ("events", r.events.len().into()),
                (
                    "wall",
                    obj([
                        ("mean_gap_s", gap.into()),
                        ("missed", r.missed.into()),
                        ("pct_missed", r.pct_missed().into()),
                        ("avg_delay_s", r.avg_delay.into()),
                        ("gap_s", arr(r.events.iter().map(|e| e.gap))),
                        ("update_s", arr(r.events.iter().map(|e| e.update_time))),
                    ]),
                ),
            ]));
        }
    }

    /// Figure 9: Girvan–Newman with incrementally maintained edge
    /// betweenness against recomputing after every removal.
    fn girvan_newman(&mut self, n: usize) {
        let (gid, s, _) = self.graph(StandinKind::Synthetic(n), 1);
        for k in [1usize, 10, 100] {
            let (inc, t_inc) = time_once(|| girvan_newman_incremental(&s.graph, k));
            let (rec, t_rec) = time_once(|| girvan_newman_recompute(&s.graph, k));
            // both strategies must peel the same number of edges
            assert_eq!(inc.steps.len(), rec.steps.len(), "{gid} k={k}");
            let speedup = t_rec.as_secs_f64() / t_inc.as_secs_f64().max(1e-9);
            eprintln!("  gn/{gid}/k{k}: speedup {speedup:.1}");
            self.rows.push(obj([
                ("id", format!("gn/{gid}/k{k}").into()),
                ("graph", gid.as_str().into()),
                ("k", k.into()),
                ("peeled", inc.steps.len().into()),
                (
                    "components",
                    inc.steps.last().map_or(1, |st| st.components).into(),
                ),
                (
                    "wall",
                    obj([
                        ("incremental_s", t_inc.as_secs_f64().into()),
                        ("recompute_s", t_rec.as_secs_f64().into()),
                        ("speedup", speedup.into()),
                    ]),
                ),
            ]));
        }
    }

    /// Ranked reads: the incremental [`RankIndex`] against a re-scan of a
    /// quantized, tie-heavy score vector, after both oracle asserts.
    fn topk(&mut self, n: usize) {
        const K: usize = 10;
        let mut state = 0x5eed ^ n as u64;
        let vbc: Vec<f64> = (0..n)
            .map(|_| (splitmix64(&mut state) % 100_000) as f64 / 16.0)
            .collect();
        let index = RankIndex::from_scores(&vbc);
        // the bitwise contract first, then the stopwatch
        let oracle: Vec<(u32, f64)> = ranking::top_k(&vbc, K)
            .into_iter()
            .map(|v| (v, vbc[v as usize]))
            .collect();
        assert_eq!(index.top_entries(K), oracle, "n={n}: index disagrees");
        let probe = oracle[K / 2].0;
        let rank = rescan_rank_of(&vbc, probe);
        assert_eq!(index.rank_of(probe), Some(rank), "n={n}: rank_of disagrees");

        let rescan_topk = per_call(|| ranking::top_k(black_box(&vbc), K));
        let indexed_topk = per_call(|| black_box(&index).top_k(K));
        let rescan_rank = per_call(|| rescan_rank_of(black_box(&vbc), probe));
        let indexed_rank = per_call(|| black_box(&index).rank_of(probe));
        // maintenance cost: one write-path score change on a fresh clone
        let mut state = n as u64 | 1;
        let mut live = index.clone();
        let indexed_set = per_call(|| {
            let r = splitmix64(&mut state);
            live.set((r % n as u64) as u32, (r >> 32) as f64 / 16.0);
        });
        eprintln!("  topk/n{n}: top_k {rescan_topk:.3}us -> {indexed_topk:.3}us");
        self.rows.push(obj([
            ("id", format!("topk/n{n}").into()),
            ("n", n.into()),
            ("top", arr(oracle.iter().map(|&(v, _)| v as u64))),
            ("probe", (probe as u64).into()),
            ("probe_rank", rank.into()),
            (
                "wall",
                obj([
                    ("rescan_topk_us", rescan_topk.into()),
                    ("indexed_topk_us", indexed_topk.into()),
                    ("rescan_rank_of_us", rescan_rank.into()),
                    ("indexed_rank_of_us", indexed_rank.into()),
                    ("indexed_set_us", indexed_set.into()),
                ]),
            ),
        ]));
    }

    /// Handoff at rest: `moves` journaled moves out of shard 0 of a 4-shard
    /// disk set against rewriting every shard file for the same assignment
    /// change (the static-range layout's only option). Byte counts are the
    /// stores' exact I/O counters; walls are the best of three runs.
    fn handoff_at_rest(&mut self, n: usize, per_shard: usize, moves: usize) {
        const SHARDS: usize = 4;
        let populated = |dir: &ScratchDir| {
            let mut set = ShardSet::create(dir.path(), n, SHARDS, CodecKind::Wide).unwrap();
            for k in 0..SHARDS {
                for i in 0..per_shard {
                    let s = (k * per_shard + i) as u32;
                    let d = (0..n).map(|i| (i as u32 + s) % 9).collect();
                    let sigma = (0..n).map(|i| (i as u64 + s as u64) % 31 + 1).collect();
                    let delta = (0..n).map(|i| i as f64 * 0.5 + s as f64).collect();
                    set.shard_mut(k).add_source(s, d, sigma, delta).unwrap();
                }
            }
            set
        };
        let io = |set: &ShardSet| {
            (0..SHARDS).fold((0, 0), |(r, w), k| {
                (r + set.shard(k).bytes_read, w + set.shard(k).bytes_written)
            })
        };
        // a moved source `s < moves` lands on shard 1 + s % 3
        let dest = |s: usize| 1 + s % (SHARDS - 1);
        let (mut handoff_s, mut repart_s) = (f64::INFINITY, f64::INFINITY);
        let (mut handoff, mut repart) = ((0, 0), (0, 0));
        for _ in 0..3 {
            let dir = ScratchDir::new("handoff");
            let mut set = populated(&dir);
            let before = io(&set);
            let (_, wall) = time_once(|| {
                for s in 0..moves {
                    move_source(&mut set, s as u32, 0, dest(s)).unwrap();
                }
            });
            let after = io(&set);
            handoff = (after.0 - before.0, after.1 - before.1);
            handoff_s = handoff_s.min(wall.as_secs_f64());

            let dir = ScratchDir::new("repart");
            let mut set = populated(&dir);
            let out = ScratchDir::new("repart_out");
            let before = io(&set);
            let (written, wall) = time_once(|| {
                let mut fresh: Vec<DiskBdStore> = (0..SHARDS)
                    .map(|k| {
                        let path = out.path().join(format!("shard-{k}.ebc"));
                        DiskBdStore::create(path, n, CodecKind::Wide).unwrap()
                    })
                    .collect();
                for from in 0..SHARDS {
                    for s in set.shard(from).sources() {
                        let to = if (s as usize) < moves {
                            dest(s as usize)
                        } else {
                            from
                        };
                        let mut rec = (Vec::new(), Vec::new(), Vec::new());
                        let mut read = |d: &[u32], sigma: &[u64], delta: &[f64]| {
                            rec = (d.to_vec(), sigma.to_vec(), delta.to_vec());
                        };
                        set.shard_mut(from).read(s, &mut read).unwrap();
                        fresh[to].add_source(s, rec.0, rec.1, rec.2).unwrap();
                    }
                }
                fresh.iter().map(|f| f.bytes_written).sum::<u64>()
            });
            let after = io(&set);
            repart = (after.0 - before.0, after.1 - before.1 + written);
            repart_s = repart_s.min(wall.as_secs_f64());
        }
        eprintln!("  handoff/at-rest/n{n}: handoff rw {handoff:?} vs repartition rw {repart:?}");
        self.rows.push(obj([
            ("id", format!("handoff/at-rest/n{n}").into()),
            ("n", n.into()),
            ("shards", SHARDS.into()),
            ("sources_per_shard", per_shard.into()),
            ("moves", moves.into()),
            ("handoff_bytes_read", handoff.0.into()),
            ("handoff_bytes_written", handoff.1.into()),
            ("repartition_bytes_read", repart.0.into()),
            ("repartition_bytes_written", repart.1.into()),
            (
                "wall",
                obj([
                    ("handoff_s", handoff_s.into()),
                    ("repartition_s", repart_s.into()),
                ]),
            ),
        ]));
    }

    /// Handoff live: drain worker 0 of a 4-worker memory cluster onto
    /// worker 1, then time `rebalance(1)` against re-running the bootstrap
    /// (best of three each).
    fn handoff_live(&mut self, n: usize) {
        let (p, g) = (4, holme_kim(n, 3, 0.4, 42));
        let (mut rebalance, mut bootstrap, mut moves) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..3 {
            let mut cluster = ClusterEngine::new(&g, p).unwrap();
            for s in cluster.shard_map().sources_of(0).to_vec() {
                cluster.handoff(s, 1).unwrap();
            }
            let (report, wall) = time_once(|| cluster.rebalance(1).unwrap());
            moves = report.moves.len();
            rebalance = rebalance.min(wall.as_secs_f64());
            let (_, wall) = time_once(|| ClusterEngine::new(&g, p).unwrap());
            bootstrap = bootstrap.min(wall.as_secs_f64());
        }
        eprintln!("  handoff/live/n{n}: rebalance {rebalance:.6}s vs re-bootstrap {bootstrap:.6}s");
        self.rows.push(obj([
            ("id", format!("handoff/live/n{n}").into()),
            ("n", n.into()),
            ("p", p.into()),
            ("moves", moves.into()),
            (
                "wall",
                obj([
                    ("rebalance_s", rebalance.into()),
                    ("rebootstrap_s", bootstrap.into()),
                ]),
            ),
        ]));
    }
}

/// `ADDS` additions, then `REMOVES` removals, both drawn from the graph
/// before any update.
fn stream(s: &Standin, seed: u64) -> Vec<Update> {
    let mut updates = addition_updates(&s.graph, ADDS, seed);
    updates.extend(removal_updates(&s.graph, REMOVES, seed + 1));
    updates
}

fn secs(ds: &[Duration]) -> Value {
    arr(ds.iter().map(Duration::as_secs_f64))
}

fn arr<T: Into<Value>>(xs: impl IntoIterator<Item = T>) -> Value {
    Value::Arr(xs.into_iter().map(Into::into).collect())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The re-scan answer to `rank_of`: count strictly-better vertices under
/// the ranking tie rule.
fn rescan_rank_of(vbc: &[f64], v: u32) -> usize {
    let sv = vbc[v as usize];
    1 + vbc
        .iter()
        .enumerate()
        .filter(|&(w, &sw)| sw.total_cmp(&sv).then(v.cmp(&(w as u32))).is_gt())
        .count()
}

/// Median over five repetitions of the mean per-call wall time of 200
/// calls, in microseconds.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut walls: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..200 {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / 200.0 * 1e6
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    walls[2]
}

/// The paper's own numbers, recorded beside the rows: Table 2's LCC sizes
/// and clustering, Table 3's related-work speedups, Table 4's min / median
/// / max speedups and Table 5's missed share and delay per mapper count.
const PAPER: &str = r#"{
"table2": [
  {"graph": "1k", "n": 1000, "m": 5895, "cc": 0.263},
  {"graph": "10k", "n": 10000, "m": 58539, "cc": 0.219},
  {"graph": "100k", "n": 100000, "m": 587970, "cc": 0.207},
  {"graph": "1000k", "n": 1000000, "m": 5896878, "cc": 0.204},
  {"graph": "wikielections", "n": 7066, "m": 100780, "cc": 0.126},
  {"graph": "slashdot", "n": 51082, "m": 117377, "cc": 0.006},
  {"graph": "facebook", "n": 63392, "m": 816885, "cc": 0.148},
  {"graph": "epinions", "n": 119130, "m": 704571, "cc": 0.081},
  {"graph": "dblp", "n": 1105171, "m": 4835099, "cc": 0.6483},
  {"graph": "amazon", "n": 2146057, "m": 5743145, "cc": 0.0004}],
"table3": [
  {"work": "Kas et al.", "graph": "wikivote", "speedup": 3},
  {"work": "Kas et al.", "graph": "contact", "speedup": 4},
  {"work": "Kas et al.", "graph": "fb-like", "speedup": 18},
  {"work": "Kas et al.", "graph": "ca-GrQc", "speedup": 68},
  {"work": "Kas et al.", "graph": "ca-HepTh", "speedup": 358},
  {"work": "QUBE", "graph": "ca-GrQc", "speedup": 2},
  {"work": "QUBE", "graph": "adjnoun", "speedup": 20},
  {"work": "Green et al.", "graph": "ca-GrQc", "speedup": 40},
  {"work": "Green et al.", "graph": "ca-HepTh", "speedup": 40},
  {"work": "Green et al.", "graph": "ca-CondMat", "speedup": 109},
  {"work": "Green et al.", "graph": "as-22july06", "speedup": 61}],
"table4": [
  {"graph": "1k", "add_min_med_max": [3, 12, 23], "remove_min_med_max": [2, 10, 19]},
  {"graph": "10k", "add_min_med_max": [16, 34, 62], "remove_min_med_max": [2, 35, 155]},
  {"graph": "100k", "add_min_med_max": [21, 49, 96], "remove_min_med_max": [4, 45, 134]},
  {"graph": "1000k", "add_min_med_max": [5, 10, 20], "remove_min_med_max": [1, 12, 78]},
  {"graph": "wikielections", "add_min_med_max": [9, 47, 95], "remove_min_med_max": [1, 45, 92]},
  {"graph": "slashdot", "add_min_med_max": [15, 25, 121], "remove_min_med_max": [8, 24, 127]},
  {"graph": "facebook", "add_min_med_max": [10, 66, 462], "remove_min_med_max": [1, 102, 243]},
  {"graph": "epinions", "add_min_med_max": [24, 56, 138], "remove_min_med_max": [2, 45, 90]},
  {"graph": "dblp", "add_min_med_max": [3, 8, 15], "remove_min_med_max": [3, 8, 429]},
  {"graph": "amazon", "add_min_med_max": [2, 4, 15], "remove_min_med_max": [2, 3, 5]}],
"table5": [
  {"graph": "slashdot", "mappers": 1, "pct_missed": 44.6, "avg_delay_s": 257.9},
  {"graph": "slashdot", "mappers": 10, "pct_missed": 1.1, "avg_delay_s": 32.4},
  {"graph": "facebook", "mappers": 1, "pct_missed": 69.7, "avg_delay_s": 1061.1},
  {"graph": "facebook", "mappers": 10, "pct_missed": 19.2, "avg_delay_s": 96.6},
  {"graph": "facebook", "mappers": 50, "pct_missed": 3.0, "avg_delay_s": 8.6},
  {"graph": "facebook", "mappers": 100, "pct_missed": 1.0, "avg_delay_s": 5.5}]
}"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Result<Cli, String> {
        parse_args(a.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_are_smoke_and_out_only() {
        assert_eq!(
            args(&["--smoke", "--out", "x.json"]),
            Ok(Cli {
                smoke: true,
                out: Some("x.json".into())
            })
        );
        assert_eq!(args(&[]).map(|c| c.smoke), Ok(false));
        assert_eq!(
            args(&["--updates", "abc"]),
            Err("unknown flag --updates".into())
        );
        assert!(args(&["--out"]).is_err());
    }
}
