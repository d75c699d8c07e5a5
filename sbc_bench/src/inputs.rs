//! Seeded inputs. The program under test only ever sees the graphs and
//! `Update`s made here; everything is a pure function of `--seed`.

use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::with_lognormal_times;
use streaming_bc::graph::{EdgeOp, Graph, GraphError};
use streaming_bc::Update;

/// How far `m` may drift from the bootstrap `m0` in a churn stream.
pub const CHURN_BAND: usize = 64;

/// splitmix64: the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Derive an independent seed for part `salt` of a run.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The bootstrap graph of a workload: Holme-Kim powerlaw-cluster, the
/// repository's stand-in for the paper's synthetic social graphs.
pub fn bootstrap_graph(n: usize, seed: u64) -> Graph {
    holme_kim(n, 3, 0.3, seed)
}

/// Apply `u` to a plain graph: how the harness mirrors what the program
/// under test was fed.
pub fn apply_to(g: &mut Graph, u: &Update) -> Result<(), GraphError> {
    match u.op {
        EdgeOp::Add => g.add_edge(u.u, u.v).map(drop),
        EdgeOp::Remove => g.remove_edge(u.u, u.v).map(drop),
    }
}

/// The inputs of one round: the graph the program bootstraps from and the
/// update stream it is then fed.
pub struct Inputs {
    pub graph: Graph,
    pub stream: Vec<Update>,
}

/// A stationary add/remove stream around `base`. Two bounded pools drive
/// it: `extras` (random non-edges currently added, at most `band`) and
/// `missing` (edges of `base` currently removed, at most `band`). Each step
/// picks one of four moves uniformly - add a fresh random non-edge, remove a
/// random extra, remove a random `base` edge, re-add a random missing one -
/// and takes the opposite move of the pair when its pool is full or empty.
/// Adds and removals are half each, `|m - m0| <= band`, and the graph never
/// strays more than `2 * band` edge edits from `base`, so its degree
/// structure - and with it the kernel's cost per update - does not drift:
/// a drift in per-update cost over a run is caused by history length and
/// nothing else. (Removing uniformly random present edges and adding
/// uniformly random non-edges without the pools rewires a power-law graph
/// into a uniform one within a few thousand steps; the kernel's median cost
/// on the 400-vertex graph then grows by half over a run.)
///
/// Both pools start half full - the bootstrap graph is `base` after
/// `band / 2` moves of each growing kind - so their expected sizes are
/// stationary from the first update on.
pub fn churn(base: &Graph, seed: u64, len: usize, band: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut mirror = base.clone();
    let mut originals = base.sorted_edges();
    let mut extras: Vec<(u32, u32)> = Vec::new();
    let mut missing: Vec<(u32, u32)> = Vec::new();
    let n = base.n();
    let mut graph = None;
    let mut stream = Vec::with_capacity(len);
    for step in 0..band + len {
        let warm = step < band;
        if step == band {
            graph = Some(mirror.clone());
        }
        let mut mv = if warm { 2 * (step % 2) } else { rng.below(4) };
        // a full or empty pool forces the opposite move of the same pair
        let blocked = match mv {
            0 => extras.len() >= band,
            1 => extras.is_empty(),
            2 => missing.len() >= band,
            _ => missing.is_empty(),
        };
        if blocked {
            mv ^= 1;
        }
        let update = match mv {
            0 => {
                let (u, v) = loop {
                    let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
                    if u != v && !mirror.has_edge(u, v) && !base.has_edge(u, v) {
                        break (u, v);
                    }
                };
                extras.push((u, v));
                Update::add(u, v)
            }
            1 => {
                let (u, v) = extras.swap_remove(rng.below(extras.len()));
                Update::remove(u, v)
            }
            2 => {
                let (u, v) = originals.swap_remove(rng.below(originals.len()));
                missing.push((u, v));
                Update::remove(u, v)
            }
            _ => {
                let (u, v) = missing.swap_remove(rng.below(missing.len()));
                originals.push((u, v));
                Update::add(u, v)
            }
        };
        apply_to(&mut mirror, &update).expect("churn emits only valid updates");
        if !warm {
            stream.push(update);
        }
    }
    Inputs {
        graph: graph.unwrap_or(mirror),
        stream,
    }
}

/// Due times (seconds from the start of the schedule) for `len` arrivals
/// at `rate` per second with log-normal gaps - the paper's Fig. 8 arrival
/// model, through the repository's own generator.
pub fn lognormal_schedule(len: usize, rate: f64, sigma: f64, seed: u64) -> Vec<f64> {
    let dummy = vec![(EdgeOp::Add, 0, 1); len];
    with_lognormal_times(&dummy, 1.0 / rate, sigma, seed)
        .events()
        .iter()
        .map(|e| e.time)
        .collect()
}
