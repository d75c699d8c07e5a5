//! The per-source incremental update kernel — the paper's Algorithms 1–10.
//!
//! Given one edge addition or removal, [`update_source`] brings a single
//! source's `BD[s] = {d, σ, δ}` record and the global VBC/EBC scores up to
//! date. The framework (and its parallel embodiment) simply runs this kernel
//! for every source, skipping sources where both endpoints sit at the same
//! distance (`dd == 0`, Proposition 3.1).
//!
//! ## Relation to the paper's pseudocode
//!
//! The published Algorithms 2–10 enumerate the case analysis of Figure 3
//! (same level / one-level rise / multi-level rise / drop / pivots /
//! disconnection) with separate code paths. We implement the same
//! computation as two uniform phases (see `DESIGN.md` §3 for the
//! derivation and the equivalence argument):
//!
//! * **Phase A — structure repair.** Compute new distances `d′` for the
//!   affected region (partial BFS "decrease" for additions; for removals a
//!   multi-source bucket BFS over the old sub-DAG under `uL`, seeded at the
//!   boundary — the seeds with unchanged distance are exactly the paper's
//!   *pivots*), then recompute `σ′` level by level. The *touched set* `T` is
//!   every vertex whose `d` or `σ` changed; the disconnected-component case
//!   falls out naturally as `d′ = ∞`.
//! * **Phase B — dependency re-accumulation.** Process touched vertices
//!   deepest-level first through bucket queues (the paper's `LQ[·]`). Each
//!   popped vertex *pulls* its new dependency from its new-DAG successors in
//!   adjacency order — the identical summation the predecessor-free
//!   bootstrap uses, so untouched subtrees reproduce bitwise — while edge
//!   scores receive one net `c − α` correction per scanned pair (`c` from
//!   the new DAG, `α` recomputed from the old arrays), covering all
//!   reconfiguration cases of Figure 3 without per-case code and cancelling
//!   exactly when nothing changed. New-DAG predecessors of every popped
//!   vertex are enqueued in turn (the paper's `UP` fringe, Algorithm 3),
//!   carrying corrections up to the source.

use crate::bd::SourceViewMut;
use crate::scores::Scores;
use ebc_graph::{EdgeKey, EdgeOp, GraphView, VertexId, UNREACHABLE};

/// Tuning knobs for the update kernel.
#[derive(Debug, Clone, Default)]
pub struct UpdateConfig {
    /// When `true`, a popped vertex that is outside the touched set and whose
    /// recomputed dependency is bitwise-identical to the stored one does not
    /// enqueue its predecessors, cutting the ancestor walk short. The paper's
    /// Algorithm 3 always walks corrections up to the source (`false`).
    /// Pruning is exact because bootstrap and kernel share the same
    /// pull-in-adjacency-order summation (see module docs); it is exposed as
    /// an ablation for the benchmark suite.
    pub prune_unchanged: bool,
    /// When `true`, the kernel additionally maintains materialised
    /// predecessor lists for every vertex it touches — the bookkeeping the
    /// paper's *MP* configuration (and Green et al.'s algorithm) pays and
    /// that the predecessor-free design eliminates (§3 "Memory
    /// optimisation"). Scores are unaffected; this knob exists so the
    /// Figure 5 MP-vs-MO comparison measures a faithful cost model.
    pub maintain_predecessors: bool,
}

/// Counters describing how much work updates performed (reset explicitly).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Sources processed beyond the `dd == 0` skip.
    pub sources_processed: u64,
    /// Sources skipped by Proposition 3.1 (`dd == 0`).
    pub sources_skipped: u64,
    /// Vertices whose `d` or `σ` changed (|T| summed over sources).
    pub touched: u64,
    /// Vertices popped in the dependency-accumulation phase.
    pub popped: u64,
}

const F_ND: u8 = 1; // nd assigned (phase A distance candidate/final)
const F_SIG: u8 = 2; // nsig assigned
const F_T: u8 = 4; // in touched set T (d or σ changed)
const F_ENQ: u8 = 8; // enqueued in a phase-B queue
const F_POP: u8 = 16; // dependency finalised in ndel
const F_R: u8 = 32; // member of the removal region R
const F_PEND: u8 = 64; // scheduled for σ recomputation

/// Bucket queue over BFS levels with stable cursors (no reallocation between
/// pushes and pops at the same level, which phase B relies on).
#[derive(Debug, Default)]
struct BucketQueue {
    buckets: Vec<Vec<u32>>,
    heads: Vec<usize>,
    used: Vec<u32>,
    max_used: u32,
}

impl BucketQueue {
    fn ensure(&mut self, levels: usize) {
        if self.buckets.len() < levels {
            self.buckets.resize_with(levels, Vec::new);
            self.heads.resize(levels, 0);
        }
    }

    #[inline]
    fn push(&mut self, level: u32, v: u32) {
        self.buckets[level as usize].push(v);
        self.used.push(level);
        self.max_used = self.max_used.max(level);
    }

    #[inline]
    fn pop(&mut self, level: u32) -> Option<u32> {
        let l = level as usize;
        if self.heads[l] < self.buckets[l].len() {
            let v = self.buckets[l][self.heads[l]];
            self.heads[l] += 1;
            Some(v)
        } else {
            None
        }
    }

    fn reset(&mut self) {
        for &l in &self.used {
            self.buckets[l as usize].clear();
            self.heads[l as usize] = 0;
        }
        self.used.clear();
        self.max_used = 0;
    }
}

/// Reusable per-worker scratch. All per-vertex state is epoch-stamped so a
/// fresh update clears in O(1); capacity grows with the graph.
#[derive(Debug, Default)]
pub struct Workspace {
    epoch: u32,
    stamp: Vec<u32>,
    flags: Vec<u8>,
    nd: Vec<u32>,
    nsig: Vec<u64>,
    ndel: Vec<f64>,
    /// Every vertex stamped this epoch (drives the final write-back).
    touched_list: Vec<u32>,
    /// Vertices in T (subset of `touched_list`).
    t_list: Vec<u32>,
    /// Vertices with a new (changed or tentative) distance.
    moved: Vec<u32>,
    region: Vec<u32>,
    queue: Vec<u32>,
    inf_bucket: Vec<u32>,
    bq: BucketQueue,
    lq: BucketQueue,
    /// Materialised predecessor lists (only populated under
    /// [`UpdateConfig::maintain_predecessors`]).
    preds: Vec<Vec<u32>>,
    /// Vertices whose running `vbc` changed since the last
    /// [`Workspace::drain_dirty`] — the sparse feed for
    /// [`crate::rankindex::RankIndex`] maintenance. Unlike the per-update
    /// epoch state above, this survives `begin` and accumulates across
    /// updates until a publisher drains it.
    dirty: Vec<u32>,
    /// `dirty_stamp[v] == dirty_epoch + 1` marks membership in `dirty`,
    /// so re-marking a vertex is O(1) and the list stays duplicate-free.
    dirty_stamp: Vec<u32>,
    dirty_epoch: u32,
    /// Work counters for experiments.
    pub stats: UpdateStats,
}

impl Workspace {
    /// Workspace for graphs of up to `n` vertices (grows automatically).
    pub fn new(n: usize) -> Self {
        let mut ws = Workspace::default();
        ws.grow(n);
        ws
    }

    /// Ensure capacity for `n` vertices.
    pub fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.flags.resize(n, 0);
            self.nd.resize(n, 0);
            self.nsig.resize(n, 0);
            self.ndel.resize(n, 0.0);
        }
        self.bq.ensure(n + 2);
        self.lq.ensure(n + 2);
    }

    fn begin(&mut self, n: usize) {
        self.grow(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrapped: invalidate all stamps
            self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.epoch = 1;
        }
        self.touched_list.clear();
        self.t_list.clear();
        self.moved.clear();
        self.region.clear();
        self.queue.clear();
        self.inf_bucket.clear();
        self.bq.reset();
        self.lq.reset();
    }

    #[inline]
    fn stamped(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    #[inline]
    fn flag(&self, v: u32) -> u8 {
        if self.stamped(v) {
            self.flags[v as usize]
        } else {
            0
        }
    }

    #[inline]
    fn set_flag(&mut self, v: u32, bit: u8) {
        if !self.stamped(v) {
            self.stamp[v as usize] = self.epoch;
            self.flags[v as usize] = 0;
            self.touched_list.push(v);
        }
        self.flags[v as usize] |= bit;
    }

    /// Record that `v`'s running `vbc` changed bits. Idempotent per drain
    /// window; over-marking is harmless (the index treats a no-op change
    /// as free), under-marking is not.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, v: u32) {
        let vi = v as usize;
        if self.dirty_stamp.len() <= vi {
            self.dirty_stamp.resize(vi + 1, 0);
        }
        let tag = self.dirty_epoch.wrapping_add(1);
        if self.dirty_stamp[vi] != tag {
            self.dirty_stamp[vi] = tag;
            self.dirty.push(v);
        }
    }

    /// Take the accumulated dirty set and open a fresh drain window.
    pub(crate) fn drain_dirty(&mut self) -> Vec<u32> {
        self.dirty_epoch = self.dirty_epoch.wrapping_add(1);
        if self.dirty_epoch == u32::MAX {
            // the next membership tag would wrap onto stale stamps
            self.dirty_stamp.iter_mut().for_each(|s| *s = 0);
            self.dirty_epoch = 0;
        }
        std::mem::take(&mut self.dirty)
    }
}

/// Apply one already-performed edge update to one source's `BD[s]` record.
///
/// `g` must be the graph **after** the update; `view` holds the record from
/// **before**. Score deltas are accumulated into `scores` (which may be a
/// per-partition partial). Returns `true` iff the record changed (out-of-core
/// backends use this to decide on the write-back), and then reports the
/// vertices whose cells it wrote through `view.wrote`.
///
/// Note: for removals the caller owns zeroing/freeing the removed edge's
/// score slot once after all sources are processed — per-source subtraction
/// of a slot that is being deleted anyway would be wasted work.
#[allow(clippy::too_many_arguments)] // the kernel entry point mirrors the paper's signature
pub fn update_source<G: GraphView>(
    g: &G,
    s: VertexId,
    op: EdgeOp,
    u1: VertexId,
    u2: VertexId,
    view: SourceViewMut<'_>,
    scores: &mut Scores,
    ws: &mut Workspace,
    cfg: &UpdateConfig,
) -> bool {
    let d1 = view.d[u1 as usize];
    let d2 = view.d[u2 as usize];
    // Proposition 3.1: same distance (including both unreachable) — the edge
    // carries no shortest path from s; nothing changes.
    if d1 == d2 {
        ws.stats.sources_skipped += 1;
        return false;
    }
    ws.stats.sources_processed += 1;
    ws.begin(g.n());

    let (uh, ul) = if d1 < d2 { (u1, u2) } else { (u2, u1) };
    let added = match op {
        EdgeOp::Add => Some(EdgeKey::new(u1, u2)),
        EdgeOp::Remove => None,
    };

    {
        let mut k = Kernel {
            g,
            s,
            old_d: view.d,
            old_sig: view.sigma,
            old_del: view.delta,
            scores,
            ws,
            added,
            cfg,
        };
        match op {
            EdgeOp::Add => k.phase_a_addition(uh, ul),
            EdgeOp::Remove => k.phase_a_removal(uh, ul),
        }
        if k.ws.t_list.is_empty() {
            return false;
        }
        k.phase_b(op, uh);
    }

    // Write-back: distances and σ for structurally touched vertices, δ for
    // every popped vertex. `touched_list` covers both sets.
    for i in 0..ws.touched_list.len() {
        let v = ws.touched_list[i];
        let f = ws.flags[v as usize];
        if f & (F_ND | F_SIG) != 0 {
            if f & F_ND != 0 {
                view.d[v as usize] = ws.nd[v as usize];
            }
            if f & F_SIG != 0 {
                view.sigma[v as usize] = ws.nsig[v as usize];
            }
        }
        if f & F_POP != 0 {
            view.delta[v as usize] = ws.ndel[v as usize];
        }
    }
    if let Some(wrote) = view.wrote {
        wrote.extend_from_slice(&ws.touched_list);
    }
    true
}

struct Kernel<'a, G: GraphView> {
    g: &'a G,
    s: VertexId,
    old_d: &'a [u32],
    old_sig: &'a [u64],
    old_del: &'a [f64],
    scores: &'a mut Scores,
    ws: &'a mut Workspace,
    added: Option<EdgeKey>,
    cfg: &'a UpdateConfig,
}

impl<'a, G: GraphView> Kernel<'a, G> {
    #[inline]
    fn cur_d(&self, v: u32) -> u32 {
        if self.ws.flag(v) & F_ND != 0 {
            self.ws.nd[v as usize]
        } else {
            self.old_d[v as usize]
        }
    }

    #[inline]
    fn cur_sig(&self, v: u32) -> u64 {
        if self.ws.flag(v) & F_SIG != 0 {
            self.ws.nsig[v as usize]
        } else {
            self.old_sig[v as usize]
        }
    }

    /// Dependency of `v` as seen by a shallower vertex: the finalised new
    /// value if `v` was popped this update, otherwise the stored one.
    #[inline]
    fn delta_star(&self, v: u32) -> f64 {
        if self.ws.flag(v) & F_POP != 0 {
            self.ws.ndel[v as usize]
        } else {
            self.old_del[v as usize]
        }
    }

    #[inline]
    fn set_nd(&mut self, v: u32, d: u32) {
        self.ws.set_flag(v, F_ND);
        self.ws.nd[v as usize] = d;
    }

    #[inline]
    fn set_nsig(&mut self, v: u32, sig: u64) {
        self.ws.set_flag(v, F_SIG);
        self.ws.nsig[v as usize] = sig;
    }

    fn mark_in_t(&mut self, v: u32) {
        if self.ws.flag(v) & F_T == 0 {
            self.ws.set_flag(v, F_T);
            self.ws.t_list.push(v);
        }
    }

    fn schedule_sigma(&mut self, v: u32) {
        if self.ws.flag(v) & F_PEND == 0 {
            self.ws.set_flag(v, F_PEND);
            let lvl = self.cur_d(v);
            debug_assert_ne!(lvl, UNREACHABLE, "σ scheduling requires a finite level");
            self.ws.bq.push(lvl, v);
        }
    }

    /// Addition, structural part: distances can only decrease, and every
    /// improved path crosses the new edge and continues from `uL`, so a
    /// single bucket BFS seeded at `uL` with tentative distance `d[uH]+1`
    /// computes all new distances (covers the 0-level-rise, multi-level-rise
    /// and component-merge cases of §3.1/§4.2 uniformly).
    fn phase_a_addition(&mut self, uh: u32, ul: u32) {
        let base = self.old_d[uh as usize];
        debug_assert_ne!(base, UNREACHABLE);
        let t_new = base + 1;
        if self.old_d[ul as usize] > t_new {
            self.set_nd(ul, t_new);
            self.ws.moved.push(ul);
            self.ws.bq.push(t_new, ul);
            let mut lvl = t_new;
            while lvl <= self.ws.bq.max_used {
                while let Some(v) = self.ws.bq.pop(lvl) {
                    debug_assert_eq!(self.ws.nd[v as usize], lvl);
                    for h in self.g.neighbors(v) {
                        let w = h.to;
                        let cand = lvl + 1;
                        if cand < self.cur_d(w) {
                            debug_assert!(self.ws.flag(w) & F_ND == 0);
                            self.set_nd(w, cand);
                            self.ws.moved.push(w);
                            self.ws.bq.push(cand, w);
                        }
                    }
                }
                lvl += 1;
            }
        }
        self.ws.bq.reset();
        // σ repair: seeds are every moved vertex plus uL itself (the
        // 0-level-rise case moves nothing but still adds paths through uL).
        self.schedule_sigma(ul);
        for i in 0..self.ws.moved.len() {
            let v = self.ws.moved[i];
            self.schedule_sigma(v);
        }
        self.sigma_repair();
    }

    /// Removal, structural part. The affected region `R` is the old-DAG
    /// descendant cone of `uL` (a vertex's distance can only grow if *all*
    /// its old shortest paths used the removed edge, and such paths continue
    /// inside that cone). New distances for `R` come from a multi-source
    /// bucket BFS seeded with boundary distances `min(d[x]+1, x ∉ R)` — the
    /// seeds that keep their old distance are the paper's pivots (Def. 3.2).
    /// Unreachable results (`d′ = ∞`) are the disconnection case of §4.5.
    fn phase_a_removal(&mut self, _uh: u32, ul: u32) {
        // R discovery over old-DAG successor edges.
        self.ws.set_flag(ul, F_R);
        self.ws.region.push(ul);
        self.ws.queue.push(ul);
        let mut head = 0;
        while head < self.ws.queue.len() {
            let v = self.ws.queue[head];
            head += 1;
            let dv = self.old_d[v as usize];
            for h in self.g.neighbors(v) {
                let w = h.to;
                if self.old_d[w as usize] == dv + 1 && self.ws.flag(w) & F_R == 0 {
                    self.ws.set_flag(w, F_R);
                    self.ws.region.push(w);
                    self.ws.queue.push(w);
                }
            }
        }
        // Boundary seeds.
        for i in 0..self.ws.region.len() {
            let r = self.ws.region[i];
            let mut best = UNREACHABLE;
            for h in self.g.neighbors(r) {
                let w = h.to;
                let dw = self.old_d[w as usize];
                if self.ws.flag(w) & F_R == 0 && dw != UNREACHABLE {
                    best = best.min(dw + 1);
                }
            }
            self.set_nd(r, best);
            if best != UNREACHABLE {
                self.ws.bq.push(best, r);
            }
        }
        // Multi-source relaxation inside R (unit weights => bucket BFS).
        let mut lvl = 0u32;
        while lvl <= self.ws.bq.max_used {
            while let Some(v) = self.ws.bq.pop(lvl) {
                if self.ws.nd[v as usize] != lvl {
                    continue; // stale queue entry
                }
                for h in self.g.neighbors(v) {
                    let w = h.to;
                    if self.ws.flag(w) & F_R != 0 && lvl + 1 < self.ws.nd[w as usize] {
                        self.ws.nd[w as usize] = lvl + 1;
                        self.ws.bq.push(lvl + 1, w);
                    }
                }
            }
            lvl += 1;
        }
        self.ws.bq.reset();
        // σ repair over the whole region; unreachable members short-circuit.
        for i in 0..self.ws.region.len() {
            let r = self.ws.region[i];
            debug_assert!(self.ws.nd[r as usize] >= self.old_d[r as usize]);
            if self.ws.nd[r as usize] == UNREACHABLE {
                self.set_nsig(r, 0);
                self.mark_in_t(r);
            } else {
                self.schedule_sigma(r);
            }
        }
        self.sigma_repair();
    }

    /// Shared σ recomputation: process scheduled vertices in ascending new
    /// level, rebuilding `σ′(v) = Σ σ′(x)` over new-DAG predecessors (old
    /// values serve for untouched predecessors). Vertices whose `d` or `σ`
    /// changed enter `T` and schedule their new-DAG successors.
    fn sigma_repair(&mut self) {
        let mut lvl = 0u32;
        while lvl <= self.ws.bq.max_used {
            while let Some(v) = self.ws.bq.pop(lvl) {
                let dv = self.cur_d(v);
                debug_assert_eq!(dv, lvl);
                let mut sig: u64 = 0;
                for h in self.g.neighbors(v) {
                    let w = h.to;
                    let dw = self.cur_d(w);
                    if dw != UNREACHABLE && dw + 1 == dv {
                        sig = sig.saturating_add(self.cur_sig(w));
                    }
                }
                let changed = (self.ws.flag(v) & F_ND != 0
                    && self.ws.nd[v as usize] != self.old_d[v as usize])
                    || sig != self.old_sig[v as usize];
                self.set_nsig(v, sig);
                if changed {
                    self.mark_in_t(v);
                    for h in self.g.neighbors(v) {
                        let w = h.to;
                        let dw = self.cur_d(w);
                        if dw != UNREACHABLE && dw == dv + 1 && self.ws.flag(w) & F_PEND == 0 {
                            self.schedule_sigma(w);
                        }
                    }
                }
            }
            lvl += 1;
        }
        self.ws.bq.reset();
        self.ws.stats.touched += self.ws.t_list.len() as u64;
    }

    fn enqueue(&mut self, v: u32) {
        if self.ws.flag(v) & F_ENQ != 0 {
            return;
        }
        let lvl = self.cur_d(v);
        debug_assert_ne!(
            lvl, UNREACHABLE,
            "unreachable vertices are always in T and pre-enqueued"
        );
        self.ws.set_flag(v, F_ENQ);
        self.ws.lq.push(lvl, v);
    }

    /// Dependency re-accumulation (paper Algorithms 2/3/4/7/9/10 unified).
    fn phase_b(&mut self, op: EdgeOp, uh: u32) {
        // Seed the level queues with T; unreachable members go to a dedicated
        // bucket processed first (they are conceptually the deepest).
        for i in 0..self.ws.t_list.len() {
            let v = self.ws.t_list[i];
            self.ws.set_flag(v, F_ENQ);
            let lvl = self.cur_d(v);
            if lvl == UNREACHABLE {
                self.ws.inf_bucket.push(v);
            } else {
                self.ws.lq.push(lvl, v);
            }
        }
        if matches!(op, EdgeOp::Remove) {
            // The removed partner is no longer adjacent to uL, so the scan
            // cannot discover it: enqueue explicitly (Alg. 2 line 13).
            self.enqueue(uh);
        }
        for i in 0..self.ws.inf_bucket.len() {
            let w = self.ws.inf_bucket[i];
            self.pop_vertex(w, UNREACHABLE);
        }
        let mut lvl = self.ws.lq.max_used;
        loop {
            while let Some(w) = self.ws.lq.pop(lvl) {
                self.pop_vertex(w, lvl);
            }
            if lvl == 0 {
                break;
            }
            lvl -= 1;
        }
    }

    /// Finalise one vertex: pull the new dependency from new-DAG successors,
    /// fix edge scores against old-DAG pairs, update VBC, propagate upward.
    fn pop_vertex(&mut self, w: u32, lvl: u32) {
        debug_assert!(self.ws.flag(w) & F_POP == 0, "vertex popped twice");
        self.ws.stats.popped += 1;
        let dw_old = self.old_d[w as usize];
        let sw_new = self.cur_sig(w) as f64;
        let sw_old = self.old_sig[w as usize] as f64;
        let w_reachable = lvl != UNREACHABLE;
        let mut dep = 0.0;
        for h in self.g.neighbors(w) {
            let x = h.to;
            let dx_new = self.cur_d(x);
            let dx_old = self.old_d[x as usize];
            // (1) x is a new-DAG successor: pull dependency, credit the edge.
            // (2) x was an old-DAG successor: retract the old contribution α
            //     (skipped for the freshly added edge, which had none).
            // The two corrections land on the same edge slot, so they are
            // applied as one net `c − α` update: when nothing changed they
            // cancel *exactly* (c == α bitwise), making the pop of an
            // unchanged vertex a no-op on the scores. This is what makes the
            // `prune_unchanged` ablation bitwise-neutral (see UpdateConfig).
            let is_new_succ = w_reachable && dx_new != UNREACHABLE && dx_new == lvl + 1;
            let is_old_succ = dw_old != UNREACHABLE
                && dx_old != UNREACHABLE
                && dx_old == dw_old + 1
                && self.added != Some(EdgeKey::new(w, x));
            if !is_new_succ && !is_old_succ {
                continue;
            }
            let mut edge_correction = 0.0;
            if is_new_succ {
                let c = sw_new / self.cur_sig(x) as f64 * (1.0 + self.delta_star(x));
                dep += c;
                edge_correction += c;
            }
            if is_old_succ {
                let alpha =
                    sw_old / self.old_sig[x as usize] as f64 * (1.0 + self.old_del[x as usize]);
                edge_correction -= alpha;
            }
            self.scores.ebc[h.eid as usize] += edge_correction;
        }
        if self.cfg.maintain_predecessors {
            // MP cost model: rewrite this vertex's predecessor list the way
            // a predecessor-list algorithm must after the update.
            if self.ws.preds.len() < self.g.n() {
                self.ws.preds.resize_with(self.g.n(), Vec::new);
            }
            let mut list = std::mem::take(&mut self.ws.preds[w as usize]);
            list.clear();
            if w_reachable {
                for h in self.g.neighbors(w) {
                    let dx = self.cur_d(h.to);
                    if dx != UNREACHABLE && dx + 1 == lvl {
                        list.push(h.to);
                    }
                }
            }
            self.ws.preds[w as usize] = list;
        }
        let delta_old = self.old_del[w as usize];
        if w != self.s {
            let inc = dep - delta_old;
            self.scores.vbc[w as usize] += inc;
            // a zero increment cannot change the stored bits (vbc is never
            // -0.0: it accumulates non-negative dependencies), so only a
            // nonzero — or NaN — increment dirties the rank index feed
            if inc != 0.0 {
                self.ws.mark_dirty(w);
            }
        }
        self.ws.set_flag(w, F_POP);
        self.ws.ndel[w as usize] = dep;

        // Propagation. Pruning (exact, see UpdateConfig) may stop the
        // ancestor walk when nothing about w changed.
        let w_changed = self.ws.flag(w) & F_T != 0 || dep != delta_old;
        if self.cfg.prune_unchanged && !w_changed {
            return;
        }
        for h in self.g.neighbors(w) {
            let x = h.to;
            let dx_new = self.cur_d(x);
            if w_reachable && dx_new != UNREACHABLE && dx_new + 1 == lvl {
                // new-DAG predecessor: unconditional UP-touch (Alg. 3 line 2)
                self.enqueue(x);
            } else {
                let dx_old = self.old_d[x as usize];
                if dw_old != UNREACHABLE
                    && dx_old != UNREACHABLE
                    && dx_old + 1 == dw_old
                    && self.added != Some(EdgeKey::new(w, x))
                {
                    // x was an old-DAG predecessor but no longer is: it loses
                    // its α(x,w) contribution and must pop too. If the pair
                    // broke because x became unreachable, x is in T already.
                    if dx_new != UNREACHABLE {
                        self.enqueue(x);
                    } else {
                        debug_assert!(self.ws.flag(x) & F_ENQ != 0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bd::{BdStore, MemoryBdStore};
    use crate::brandes::{brandes, single_source_update};
    use ebc_graph::Graph;

    /// Tiny harness: bootstrap a state on `g0`, apply updates through the
    /// kernel, and compare against recomputation from scratch.
    struct Harness {
        g: Graph,
        store: MemoryBdStore,
        scores: Scores,
        ws: Workspace,
        cfg: UpdateConfig,
    }

    impl Harness {
        fn new(g: Graph) -> Self {
            Self::with_config(g, UpdateConfig::default())
        }

        fn with_config(g: Graph, cfg: UpdateConfig) -> Self {
            let mut store = MemoryBdStore::new(g.n());
            let mut scores = Scores::zeros_for(&g);
            for s in g.vertices() {
                let r = single_source_update(&g, s, &mut scores);
                store.add_source(s, r.d, r.sigma, r.delta).unwrap();
            }
            let n = g.n();
            Harness {
                g,
                store,
                scores,
                ws: Workspace::new(n),
                cfg,
            }
        }

        fn add(&mut self, u: u32, v: u32) {
            let eid = self.g.add_edge(u, v).unwrap();
            self.scores.ensure_shape(self.g.n(), self.g.edge_slots());
            self.run(EdgeOp::Add, u, v);
            let _ = eid;
        }

        fn remove(&mut self, u: u32, v: u32) {
            let eid = self.g.remove_edge(u, v).unwrap();
            self.run(EdgeOp::Remove, u, v);
            self.scores.ebc[eid as usize] = 0.0;
        }

        fn run(&mut self, op: EdgeOp, u: u32, v: u32) {
            let g = &self.g;
            let scores = &mut self.scores;
            let ws = &mut self.ws;
            let cfg = &self.cfg;
            for s in self.store.sources() {
                let (a, b) = self.store.peek_pair(s, u, v).unwrap();
                if a == b {
                    ws.stats.sources_skipped += 1;
                    continue;
                }
                self.store
                    .update_with(s, &mut |view| {
                        update_source(g, s, op, u, v, view, scores, ws, cfg)
                    })
                    .unwrap();
            }
        }

        fn check(&self, label: &str) {
            let fresh = brandes(&self.g);
            let dv = self.scores.max_vbc_diff(&fresh);
            let de = self.scores.max_ebc_diff(&fresh, &self.g);
            assert!(dv < 1e-6, "{label}: VBC diverged by {dv}");
            assert!(de < 1e-6, "{label}: EBC diverged by {de}");
        }
    }

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(i as u32, i as u32 + 1).unwrap();
        }
        g
    }

    #[test]
    fn addition_same_level_is_skipped() {
        // 0-1, 0-2: vertices 1,2 both at distance 1 from 0; adding (1,2)
        // changes nothing for source 0 — and for sources 1/2 it does.
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        let mut h = Harness::new(g);
        h.add(1, 2);
        h.check("triangle close");
        assert!(h.ws.stats.sources_skipped >= 1);
    }

    #[test]
    fn addition_zero_level_rise() {
        // dd == 1: new edge creates extra shortest paths, no level moves.
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 3).unwrap();
        g.add_edge(0, 2).unwrap();
        let mut h = Harness::new(g);
        h.add(2, 3); // 3 now reachable from 0 via 1 and via 2
        h.check("zero level rise");
    }

    #[test]
    fn addition_multi_level_rise() {
        let mut h = Harness::new(path(6));
        h.add(0, 5); // far endpoints: large structural change
        h.check("multi level rise");
    }

    #[test]
    fn addition_shortcut_middle() {
        let mut h = Harness::new(path(7));
        h.add(1, 5);
        h.check("shortcut");
        h.add(0, 3);
        h.check("second shortcut");
    }

    #[test]
    fn addition_component_merge() {
        let mut g = Graph::with_vertices(6);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(3, 4).unwrap();
        g.add_edge(4, 5).unwrap();
        let mut h = Harness::new(g);
        h.add(2, 3); // merge two paths into P6
        h.check("component merge");
    }

    #[test]
    fn removal_with_alternative_predecessor() {
        // square 0-1-2-3-0: removing one side keeps everything reachable.
        let mut g = Graph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v).unwrap();
        }
        let mut h = Harness::new(g);
        h.remove(1, 2);
        h.check("square minus side");
    }

    #[test]
    fn removal_zero_level_drop() {
        // diamond: 0-1, 0-2, 1-3, 2-3 (+ chord 1-2). Remove (1,3): 3 keeps
        // its level through 2.
        let mut g = Graph::with_vertices(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        let mut h = Harness::new(g);
        h.remove(1, 3);
        h.check("zero level drop");
    }

    #[test]
    fn removal_multi_level_drop() {
        // path + shortcut; removing the shortcut drops a whole region.
        let mut g = path(7);
        g.add_edge(0, 4).unwrap();
        let mut h = Harness::new(g);
        h.remove(0, 4);
        h.check("multi level drop");
    }

    #[test]
    fn removal_disconnects_component() {
        let mut h = Harness::new(path(5));
        h.remove(2, 3); // splits {0,1,2} from {3,4}
        h.check("disconnect");
        h.remove(0, 1);
        h.check("disconnect again");
    }

    #[test]
    fn removal_isolates_vertex() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut h = Harness::new(g);
        h.remove(1, 2); // vertex 2 becomes a singleton
        h.check("isolate");
        assert_eq!(h.scores.vbc[2], 0.0);
    }

    #[test]
    fn add_then_remove_roundtrip_scores() {
        let g = path(6);
        let before = brandes(&g);
        let mut h = Harness::new(g);
        h.add(1, 4);
        h.remove(1, 4);
        h.check("roundtrip");
        assert!(h.scores.max_vbc_diff(&before) < 1e-6);
    }

    #[test]
    fn dense_clique_updates() {
        let mut g = Graph::with_vertices(6);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                g.add_edge(i, j).unwrap();
            }
        }
        let mut h = Harness::new(g);
        h.remove(0, 1);
        h.check("clique minus edge");
        h.remove(0, 2);
        h.check("clique minus two");
        h.add(0, 1);
        h.check("clique restore one");
    }

    #[test]
    fn pruning_matches_unpruned() {
        let mut pruned = Harness::with_config(
            path(8),
            UpdateConfig {
                prune_unchanged: true,
                ..Default::default()
            },
        );
        pruned.add(2, 6);
        pruned.check("pruned add");
        pruned.remove(3, 4);
        pruned.check("pruned remove");
    }

    #[test]
    fn long_mixed_sequence() {
        let mut g = Graph::with_vertices(10);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (2, 7),
        ] {
            g.add_edge(u, v).unwrap();
        }
        let mut h = Harness::new(g);
        for (i, (op, u, v)) in [
            (EdgeOp::Add, 0, 9),
            (EdgeOp::Add, 3, 8),
            (EdgeOp::Remove, 2, 7),
            (EdgeOp::Add, 1, 6),
            (EdgeOp::Remove, 4, 5),
            (EdgeOp::Remove, 0, 9),
            (EdgeOp::Add, 5, 9),
            (EdgeOp::Remove, 8, 9),
        ]
        .into_iter()
        .enumerate()
        {
            match op {
                EdgeOp::Add => h.add(u, v),
                EdgeOp::Remove => h.remove(u, v),
            }
            h.check(&format!("mixed step {i}"));
        }
    }

    #[test]
    fn reports_every_cell_it_wrote() {
        // out-of-core backends persist only the reported cells: a changed
        // cell missing from the report would be lost on disk
        let mut g = path(7);
        g.add_edge(0, 4).unwrap();
        let mut scores = Scores::zeros_for(&g);
        let records: Vec<_> = g
            .vertices()
            .map(|s| single_source_update(&g, s, &mut scores))
            .collect();
        for (op, u, v) in [(EdgeOp::Remove, 0, 4), (EdgeOp::Add, 1, 5)] {
            let mut g = g.clone();
            match op {
                EdgeOp::Add => g.add_edge(u, v).map(|_| ()).unwrap(),
                EdgeOp::Remove => g.remove_edge(u, v).map(|_| ()).unwrap(),
            }
            scores.ensure_shape(g.n(), g.edge_slots());
            let mut ws = Workspace::new(g.n());
            for (s, old) in records.iter().enumerate() {
                let (mut d, mut sigma, mut delta) =
                    (old.d.clone(), old.sigma.clone(), old.delta.clone());
                let mut wrote = Vec::new();
                let view = SourceViewMut {
                    d: &mut d,
                    sigma: &mut sigma,
                    delta: &mut delta,
                    wrote: Some(&mut wrote),
                };
                let cfg = UpdateConfig::default();
                let dirty = update_source(&g, s as u32, op, u, v, view, &mut scores, &mut ws, &cfg);
                assert_eq!(dirty, !wrote.is_empty(), "source {s}");
                for x in 0..g.n() {
                    let same = d[x] == old.d[x]
                        && sigma[x] == old.sigma[x]
                        && delta[x].to_bits() == old.delta[x].to_bits();
                    assert!(same || wrote.contains(&(x as u32)), "source {s} cell {x}");
                }
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Harness::new(path(5));
        h.add(0, 4);
        let st = h.ws.stats;
        assert!(st.sources_processed > 0);
        assert!(st.popped > 0);
        assert!(st.touched > 0);
    }
}
