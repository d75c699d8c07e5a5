//! Incrementally maintained ordered index over centrality scores.
//!
//! The paper's closing application (§7) is online detection of emerging
//! leaders: consumers read *rankings*, not raw scores, and they read them
//! far more often than the graph changes shape at the top. [`RankIndex`]
//! keeps the full score order materialized across updates so
//! [`RankIndex::top_k`] is `O(k + log n)` and [`RankIndex::rank_of`] /
//! [`RankIndex::percentile`] are `O(log n)`, instead of the `O(n log n)`
//! re-sort of [`crate::ranking::top_k`] (which stays as the oracle the
//! index is property-tested against, bit for bit).
//!
//! ## Structure
//!
//! The order is a **persistent treap** keyed by one `u128` per vertex:
//! the high 64 bits are the bitwise *complement* of the IEEE-754
//! total-order key of the score (so ascending key order is descending
//! score order, `f64::total_cmp` exactly), the low 32 bits are the vertex
//! id (so equal scores break toward the smaller id — the same tie rule as
//! `ranking::top_k`). Heap priorities are `splitmix64(vertex)`: the
//! finalizer is a bijection on `u64`, so priorities are distinct and the
//! tree shape is a deterministic function of the key set. Nodes are
//! `Arc`-shared and an update copies only the nodes on the paths it
//! changes, which makes cloning the whole index `O(1)` — a served session
//! publishes a clone inside each immutable snapshot without copying `n`
//! scores.
//!
//! Scores themselves live in a chunked copy-on-write vector
//! (`ScoreVec`) so a snapshot clone shares unchanged chunks and a
//! sparse update copies only the chunks it touches.
//!
//! ## Delta maintenance
//!
//! Producers publish [`ScoreDelta`]s: `Unchanged` (nothing moved),
//! `Sparse` (the update kernel's dirty vertices with their new scores) or
//! `Dense` (a full re-publication, e.g. right after bootstrap).
//! [`RankIndex::apply`] folds a sparse delta in with **one bulk pass**,
//! whatever its size. It gathers the old and the new key of every vertex
//! whose score bits change — a vertex whose new bits equal its old bits is
//! dropped, so over-approximate dirty sets are harmless; of a vertex
//! listed more than once the last entry wins; a fresh id extends the index
//! and the ids skipped on the way are born at `0.0` — sorts both lists,
//! and then takes one recursive `difference(tree, old keys)` and one
//! `union(tree, build(new keys))`, `build` being the linear right-spine
//! construction [`RankIndex::from_scores`] uses. Both recursions descend
//! only where a key falls and return every other subtree shared and
//! untouched, so `m` changed vertices cost `O(m · log(n/m + 1))` node
//! copies: `O(log n)` each when few move, `O(n)` in total when most do —
//! a typical update dirties over half the graph, which is why this is one
//! pass and not `m` delete-and-insert descents from the root. There is no
//! size threshold and no rebuild switch: [`RankIndex::set`] is the
//! `m = 1` case of the same code, and since the shape is a function of the
//! key set the result is always node for node the tree `from_scores`
//! builds. Correctness only needs the dirty set to *cover* every vertex
//! whose score bits changed.

use std::sync::Arc;

/// Chunk size of the copy-on-write score vector. Small enough that a
/// sparse update copies little, large enough that the `Arc` directory
/// stays tiny (`n / 512` pointers).
const CHUNK: usize = 512;

/// What changed in the published score vector since the last drain.
#[derive(Clone, Debug, PartialEq)]
pub enum ScoreDelta {
    /// No score changed bits; the index is already current.
    Unchanged,
    /// Exactly these vertices changed (or appeared), with their new
    /// scores. May over-approximate: unchanged entries are no-ops.
    Sparse(Vec<(u32, f64)>),
    /// Full re-publication of every score (bootstrap, resume, or a
    /// producer that cannot track deltas).
    Dense(Vec<f64>),
}

impl ScoreDelta {
    /// True when applying the delta cannot change the index.
    pub fn is_empty(&self) -> bool {
        match self {
            ScoreDelta::Unchanged => true,
            ScoreDelta::Sparse(changes) => changes.is_empty(),
            ScoreDelta::Dense(_) => false,
        }
    }

    /// Diff a freshly computed dense vector against the previously
    /// published one (bitwise), remembering `next` for the next call.
    ///
    /// This is the delta producer for engines whose reduce step
    /// re-materializes the vector (the clustered embodiments): the values
    /// always come from the true reduce, so the index stays bitwise equal
    /// to what `scores()` would report, and unchanged entries fold to an
    /// empty delta.
    pub fn from_diff(prev: &mut Option<Vec<f64>>, next: Vec<f64>) -> ScoreDelta {
        let Some(old) = prev else {
            *prev = Some(next.clone());
            return ScoreDelta::Dense(next);
        };
        let mut changes: Vec<(u32, f64)> = Vec::new();
        for (v, &x) in next.iter().enumerate() {
            if old.get(v).map(|o| o.to_bits()) != Some(x.to_bits()) {
                changes.push((v as u32, x));
            }
        }
        if next.len() < old.len() {
            // vertices never disappear from the score vector; a shrink
            // means the producer restarted — fall back to dense
            *prev = Some(next.clone());
            return ScoreDelta::Dense(next);
        }
        *old = next;
        if changes.is_empty() {
            ScoreDelta::Unchanged
        } else {
            ScoreDelta::Sparse(changes)
        }
    }
}

/// Monotone map from `f64` to `u64` in `total_cmp` order: `a.total_cmp(&b)
/// == score_key(a).cmp(&score_key(b))` for all bit patterns, NaNs
/// included.
#[inline]
fn score_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The treap's BST key: ascending key order is (descending score by
/// `total_cmp`, ascending vertex id) — exactly the oracle's comparator.
#[inline]
fn rank_key(score: f64, v: u32) -> u128 {
    (((!score_key(score)) as u128) << 32) | v as u128
}

/// splitmix64 finalizer: a bijection on `u64`, so distinct vertices get
/// distinct heap priorities and the treap shape is deterministic.
#[inline]
fn priority(v: u32) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Node {
    key: u128,
    pri: u64,
    size: usize,
    score: f64,
    left: Link,
    right: Link,
}

type Link = Option<Arc<Node>>;

impl Node {
    #[inline]
    fn vertex(&self) -> u32 {
        (self.key & 0xFFFF_FFFF) as u32
    }
}

#[inline]
fn size(t: &Link) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

/// Rebuild `n` around the children `f` maps its current ones to.
///
/// A node nothing else can reach (fresh from [`build`], or already copied
/// earlier in the same pass) is relinked in place. A node a clone of the
/// index still shares is copied, and `f` gets its children as shared
/// clones, so nothing below a shared node is ever taken for exclusively
/// owned: persistence costs one copy per *shared* node on the path and no
/// copy at all for the pass's own intermediate results.
fn relink(mut n: Arc<Node>, f: impl FnOnce(Link, Link) -> (Link, Link)) -> Arc<Node> {
    if let Some(own) = Arc::get_mut(&mut n) {
        let (left, right) = f(own.left.take(), own.right.take());
        own.size = size(&left) + size(&right) + 1;
        own.left = left;
        own.right = right;
        return n;
    }
    let (left, right) = f(n.left.clone(), n.right.clone());
    Arc::new(Node {
        key: n.key,
        pri: n.pri,
        size: size(&left) + size(&right) + 1,
        score: n.score,
        left,
        right,
    })
}

/// Join two treaps, every key of `l` below every key of `r`.
fn merge(l: Link, r: Link) -> Link {
    match (l, r) {
        (None, t) | (t, None) => t,
        (Some(a), Some(b)) => Some(if a.pri >= b.pri {
            relink(a, |left, right| (left, merge(right, Some(b))))
        } else {
            relink(b, |left, right| (merge(Some(a), left), right))
        }),
    }
}

/// Split into (`keys < key`, `keys ≥ key`).
fn split(t: Link, key: u128) -> (Link, Link) {
    let Some(n) = t else { return (None, None) };
    let mut cut = None;
    if n.key < key {
        let below = relink(n, |left, right| {
            let (a, b) = split(right, key);
            cut = b;
            (left, a)
        });
        (Some(below), cut)
    } else {
        let above = relink(n, |left, right| {
            let (a, b) = split(left, key);
            cut = a;
            (b, right)
        });
        (cut, Some(above))
    }
}

/// `t` without `keys` (ascending). Subtrees no key falls into come back
/// shared and untouched, so the pass copies `O(m · log(n/m + 1))` nodes
/// for `m` keys.
fn difference(t: Link, keys: &[u128]) -> Link {
    if keys.is_empty() {
        return t;
    }
    let n = t?;
    let (below, rest) = keys.split_at(keys.partition_point(|&k| k < n.key));
    if rest.first() != Some(&n.key) {
        return Some(relink(n, |left, right| {
            (difference(left, below), difference(right, rest))
        }));
    }
    let (left, right) = match Arc::try_unwrap(n) {
        Ok(own) => (own.left, own.right),
        Err(shared) => (shared.left.clone(), shared.right.clone()),
    };
    merge(difference(left, below), difference(right, &rest[1..]))
}

/// The treap over the keys of both `a` and `b` (disjoint key sets): the
/// higher-priority root stays, the other tree is split around its key and
/// the halves recurse. Same sharing and cost as [`difference`].
fn union(a: Link, b: Link) -> Link {
    let (a, b) = match (a, b) {
        (None, t) | (t, None) => return t,
        (Some(a), Some(b)) => (a, b),
    };
    let (top, low) = if a.pri >= b.pri { (a, b) } else { (b, a) };
    let (below, above) = split(Some(low), top.key);
    Some(relink(top, |left, right| {
        (union(left, below), union(right, above))
    }))
}

/// The treap over key-sorted `(key, score)` items, in `O(len)`: the
/// standard right-spine cartesian-tree build, the spine holding the path
/// from the root to the largest key so far.
fn build(items: &[(u128, f64)]) -> Link {
    struct Tmp {
        pri: u64,
        left: Option<usize>,
        right: Option<usize>,
    }
    let mut arena: Vec<Tmp> = Vec::with_capacity(items.len());
    let mut spine: Vec<usize> = Vec::new();
    for &(key, _) in items {
        let pri = priority(key as u32);
        let mut last: Option<usize> = None;
        while let Some(&top) = spine.last() {
            if arena[top].pri < pri {
                last = spine.pop();
            } else {
                break;
            }
        }
        let id = arena.len();
        arena.push(Tmp {
            pri,
            left: last,
            right: None,
        });
        if let Some(&top) = spine.last() {
            arena[top].right = Some(id);
        }
        spine.push(id);
    }

    fn freeze(items: &[(u128, f64)], arena: &[Tmp], i: Option<usize>) -> Link {
        let i = i?;
        let t = &arena[i];
        let left = freeze(items, arena, t.left);
        let right = freeze(items, arena, t.right);
        Some(Arc::new(Node {
            key: items[i].0,
            pri: t.pri,
            size: size(&left) + size(&right) + 1,
            score: items[i].1,
            left,
            right,
        }))
    }
    freeze(items, &arena, spine.first().copied())
}

/// Chunked copy-on-write score vector: a clone shares every chunk, a
/// point write copies one `CHUNK`-sized chunk.
#[derive(Clone, Debug, Default)]
struct ScoreVec {
    chunks: Vec<Arc<Vec<f64>>>,
    len: usize,
}

impl ScoreVec {
    fn get(&self, i: usize) -> f64 {
        self.chunks[i / CHUNK][i % CHUNK]
    }

    fn set(&mut self, i: usize, x: f64) {
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK] = x;
    }

    fn push(&mut self, x: f64) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk exists")).push(x);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }
}

/// The incrementally maintained score order (module docs for the
/// structure and the delta-maintenance rules).
#[derive(Clone, Debug, Default)]
pub struct RankIndex {
    root: Link,
    scores: ScoreVec,
}

impl RankIndex {
    /// An empty index; feed it with [`RankIndex::apply`] or
    /// [`RankIndex::set`].
    pub fn new() -> Self {
        RankIndex::default()
    }

    /// Bulk-build from a dense score vector in `O(n log n)` (sort by
    /// rank key, then the `O(n)` right-spine treap build).
    pub fn from_scores(scores: &[f64]) -> Self {
        let mut items: Vec<(u128, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &x)| (rank_key(x, v as u32), x))
            .collect();
        items.sort_unstable_by_key(|&(key, _)| key);
        let mut sv = ScoreVec::default();
        for &x in scores {
            sv.push(x);
        }
        RankIndex {
            root: build(&items),
            scores: sv,
        }
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.scores.len
    }

    /// True when no vertex is indexed.
    pub fn is_empty(&self) -> bool {
        self.scores.len == 0
    }

    /// The indexed score of `v`, if `v` is indexed.
    pub fn score(&self, v: u32) -> Option<f64> {
        ((v as usize) < self.scores.len).then(|| self.scores.get(v as usize))
    }

    /// Point update: move `v` to `score` — a one-entry
    /// [`ScoreDelta::Sparse`], `O(log n)`.
    pub fn set(&mut self, v: u32, score: f64) {
        self.apply_sparse(&[(v, score)]);
    }

    /// Fold one published delta into the index.
    pub fn apply(&mut self, delta: &ScoreDelta) {
        match delta {
            ScoreDelta::Unchanged => {}
            ScoreDelta::Sparse(changes) => self.apply_sparse(changes),
            ScoreDelta::Dense(scores) => *self = RankIndex::from_scores(scores),
        }
    }

    /// The one sparse-update path (module docs, "Delta maintenance"):
    /// gather the keys that leave and the keys that enter, then one
    /// [`difference`] and one [`union`] over the whole tree.
    fn apply_sparse(&mut self, changes: &[(u32, f64)]) {
        // the last entry per vertex wins: stable by id, keep each run's tail
        let mut latest = changes.to_vec();
        latest.sort_by_key(|&(v, _)| v);
        let mut removed: Vec<u128> = Vec::with_capacity(latest.len());
        let mut inserted: Vec<(u128, f64)> = Vec::with_capacity(latest.len());
        for (i, &(v, score)) in latest.iter().enumerate() {
            if latest.get(i + 1).is_some_and(|next| next.0 == v) {
                continue;
            }
            let vi = v as usize;
            // a fresh id extends the index; ids skipped on the way get the
            // `0.0` every vertex is born with
            while self.scores.len < vi {
                let pad = self.scores.len as u32;
                self.scores.push(0.0);
                inserted.push((rank_key(0.0, pad), 0.0));
            }
            if vi == self.scores.len {
                self.scores.push(score);
                inserted.push((rank_key(score, v), score));
                continue;
            }
            let old = self.scores.get(vi);
            if old.to_bits() != score.to_bits() {
                removed.push(rank_key(old, v));
                self.scores.set(vi, score);
                inserted.push((rank_key(score, v), score));
            }
        }
        removed.sort_unstable();
        inserted.sort_unstable_by_key(|&(key, _)| key);
        self.root = union(difference(self.root.take(), &removed), build(&inserted));
    }

    /// The top `k` vertex ids — bitwise the same list as
    /// `ranking::top_k(&scores, k)` on the indexed scores. `O(k + log n)`.
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        self.top_entries(k).into_iter().map(|(v, _)| v).collect()
    }

    /// The top `k` as `(vertex, score)` pairs, rank order. `O(k + log n)`.
    pub fn top_entries(&self, k: usize) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        let mut stack: Vec<&Arc<Node>> = Vec::new();
        let mut cur = self.root.as_ref();
        while out.len() < k {
            while let Some(n) = cur {
                stack.push(n);
                cur = n.left.as_ref();
            }
            let Some(n) = stack.pop() else { break };
            out.push((n.vertex(), n.score));
            cur = n.right.as_ref();
        }
        out
    }

    /// 1-based rank of `v` (1 = most central, ties toward smaller id),
    /// `None` when `v` is not indexed. `O(log n)`.
    pub fn rank_of(&self, v: u32) -> Option<usize> {
        let score = self.score(v)?;
        let key = rank_key(score, v);
        let mut before = 0usize;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => cur = n.left.as_ref(),
                std::cmp::Ordering::Greater => {
                    before += size(&n.left) + 1;
                    cur = n.right.as_ref();
                }
                std::cmp::Ordering::Equal => return Some(before + size(&n.left) + 1),
            }
        }
        // the score vector and the tree are maintained in lockstep, so a
        // scored vertex is always in the tree
        None
    }

    /// Fraction of indexed vertices ranked at or below `v` — the top
    /// vertex answers `1.0`, the bottom `1/n`. `O(log n)`.
    pub fn percentile(&self, v: u32) -> Option<f64> {
        let rank = self.rank_of(v)?;
        let n = self.len();
        Some((n - (rank - 1)) as f64 / n as f64)
    }

    /// The entry at 1-based `rank`, `None` when out of range. `O(log n)`.
    pub fn nth(&self, rank: usize) -> Option<(u32, f64)> {
        if rank == 0 || rank > self.len() {
            return None;
        }
        let mut remaining = rank;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            let left = size(&n.left);
            if remaining <= left {
                cur = n.left.as_ref();
            } else if remaining == left + 1 {
                return Some((n.vertex(), n.score));
            } else {
                remaining -= left + 1;
                cur = n.right.as_ref();
            }
        }
        None
    }

    /// The indexed scores as a dense vector (vertex-id order).
    pub fn to_scores(&self) -> Vec<f64> {
        self.scores.iter().collect()
    }

    /// Iterate the indexed scores in vertex-id order.
    pub fn scores_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.scores.iter()
    }

    /// The tree's shape: `(key, priority, subtree size)` of every node,
    /// preorder. Equal walks of two search trees mean the same tree.
    #[cfg(test)]
    fn shape(&self) -> Vec<(u128, u64, usize)> {
        fn walk(t: &Link, out: &mut Vec<(u128, u64, usize)>) {
            if let Some(n) = t {
                out.push((n.key, n.pri, n.size));
                walk(&n.left, out);
                walk(&n.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len());
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Random scores with deliberate ties, zeros of both signs, infinities
    /// and NaNs — every class `total_cmp` distinguishes.
    fn adversarial_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| match xorshift(&mut s) % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => -f64::NAN,
                6 | 7 => (xorshift(&mut s) % 5) as f64, // ties
                _ => (xorshift(&mut s) % 1000) as f64 / 7.0,
            })
            .collect()
    }

    /// The sort oracle on every read, and node for node the tree
    /// `from_scores` builds: a treap's shape is a function of its key
    /// set, so however the index got here it must be *that* tree.
    fn assert_matches_oracle(ix: &RankIndex, scores: &[f64]) {
        assert_eq!(ix.len(), scores.len());
        assert_eq!(
            ix.shape(),
            RankIndex::from_scores(scores).shape(),
            "not the tree from_scores builds"
        );
        let full = ranking::top_k(scores, scores.len());
        assert_eq!(ix.top_k(scores.len()), full, "full order diverges");
        let entries: Vec<(u32, u64)> = full
            .iter()
            .map(|&v| (v, scores[v as usize].to_bits()))
            .collect();
        let got = ix.top_entries(scores.len());
        let got: Vec<(u32, u64)> = got.iter().map(|&(v, s)| (v, s.to_bits())).collect();
        assert_eq!(got, entries, "top_entries diverges");
        for k in [0, 1, 3, scores.len() / 2] {
            assert_eq!(ix.top_k(k), ranking::top_k(scores, k), "k={k}");
        }
        for (pos, &v) in full.iter().enumerate() {
            assert_eq!(ix.rank_of(v), Some(pos + 1), "rank of {v}");
            let (nv, ns) = ix.nth(pos + 1).expect("rank in range");
            assert_eq!(nv, v, "entry at rank {}", pos + 1);
            assert_eq!(ns.to_bits(), scores[v as usize].to_bits());
        }
        let got = ix.to_scores();
        assert_eq!(got.len(), scores.len());
        for (v, (&a, &b)) in got.iter().zip(scores).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "score bits of {v}");
        }
    }

    #[test]
    fn score_key_is_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    score_key(a).cmp(&score_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_build_matches_oracle_on_adversarial_scores() {
        for seed in 1..6 {
            let scores = adversarial_scores(97, seed);
            assert_matches_oracle(&RankIndex::from_scores(&scores), &scores);
        }
    }

    #[test]
    fn incremental_sets_match_rebuild() {
        let mut s = 42u64;
        let mut scores = adversarial_scores(50, 7);
        let mut ix = RankIndex::from_scores(&scores);
        for step in 0..300 {
            let v = (xorshift(&mut s) % scores.len() as u64) as u32;
            let replacement = adversarial_scores(1, s ^ step)[0];
            scores[v as usize] = replacement;
            ix.set(v, replacement);
            if step % 37 == 0 {
                assert_matches_oracle(&ix, &scores);
            }
        }
        assert_matches_oracle(&ix, &scores);
    }

    #[test]
    fn growth_fills_gaps_with_zero() {
        let mut ix = RankIndex::new();
        ix.set(0, 3.0);
        ix.set(4, 1.0); // vertices 1..=3 are born at 0.0
        assert_eq!(ix.len(), 5);
        assert_matches_oracle(&ix, &[3.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn apply_delta_variants() {
        let base = [2.0, 9.0, 4.0];
        let mut ix = RankIndex::new();
        ix.apply(&ScoreDelta::Dense(base.to_vec()));
        assert_matches_oracle(&ix, &base);
        ix.apply(&ScoreDelta::Unchanged);
        assert_matches_oracle(&ix, &base);
        ix.apply(&ScoreDelta::Sparse(vec![(0, 10.0), (3, 1.0)]));
        assert_matches_oracle(&ix, &[10.0, 9.0, 4.0, 1.0]);
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let scores = adversarial_scores(64, 3);
        let mut ix = RankIndex::from_scores(&scores);
        let snap = ix.clone();
        for v in 0..64u32 {
            ix.set(v, f64::from(v));
        }
        assert_matches_oracle(&snap, &scores);
        let now: Vec<f64> = (0..64).map(f64::from).collect();
        assert_matches_oracle(&ix, &now);
    }

    #[test]
    fn diff_produces_minimal_sparse_deltas() {
        let mut prev = None;
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 2.0]);
        assert_eq!(d, ScoreDelta::Dense(vec![1.0, 2.0]));
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 2.0]);
        assert!(d.is_empty());
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 5.0, 7.0]);
        assert_eq!(d, ScoreDelta::Sparse(vec![(1, 5.0), (2, 7.0)]));
        // -0.0 vs 0.0 is a bitwise change even though they compare equal
        let d = ScoreDelta::from_diff(&mut prev, vec![-0.0, 5.0, 7.0]);
        assert_eq!(d, ScoreDelta::Sparse(vec![(0, -0.0)]));
    }

    /// Fold `changes` into `scores` the way the index must: in order (so
    /// the last entry per vertex wins), fresh ids padded with `0.0`.
    fn fold(scores: &mut Vec<f64>, changes: &[(u32, f64)]) {
        for &(v, x) in changes {
            if scores.len() <= v as usize {
                scores.resize(v as usize + 1, 0.0);
            }
            scores[v as usize] = x;
        }
    }

    /// One bulk `apply` equals the same changes one `set` at a time equals
    /// the oracle on the folded scores — and all three are one tree.
    fn assert_bulk_equals_pointwise(base: &[f64], changes: &[(u32, f64)]) {
        let mut bulk = RankIndex::from_scores(base);
        bulk.apply(&ScoreDelta::Sparse(changes.to_vec()));
        let mut pointwise = RankIndex::from_scores(base);
        for &(v, x) in changes {
            pointwise.set(v, x);
        }
        let mut scores = base.to_vec();
        fold(&mut scores, changes);
        assert_matches_oracle(&bulk, &scores);
        assert_matches_oracle(&pointwise, &scores);
    }

    #[test]
    fn bulk_apply_adversarial_deltas() {
        let base = adversarial_scores(61, 9);
        let n = base.len() as u32;
        let all_dirty: Vec<(u32, f64)> = adversarial_scores(61, 10)
            .into_iter()
            .enumerate()
            .map(|(v, x)| (v as u32, x))
            .collect();
        let all_noop: Vec<(u32, f64)> = base
            .iter()
            .enumerate()
            .map(|(v, &x)| (v as u32, x))
            .collect();
        let cases: Vec<(&str, Vec<(u32, f64)>)> = vec![
            ("empty", vec![]),
            ("single dirty", vec![(17, 123.5)]),
            (
                "unsorted ids",
                vec![(40, 1.0), (3, 2.0), (22, 1.0), (0, -4.0)],
            ),
            (
                "listed twice, last wins",
                vec![(5, 9.0), (30, 1.0), (5, 2.0), (30, 1.0), (5, 7.5)],
            ),
            // back to the old bits through a detour: a net no-op
            (
                "twice, ending where it began",
                vec![(8, 55.0), (8, base[8])],
            ),
            ("fresh id", vec![(n, 3.0)]),
            ("fresh ids with a gap", vec![(n + 4, 6.0), (2, 6.0)]),
            (
                "fresh id listed twice beyond a gap",
                vec![(n + 2, 1.0), (n + 2, f64::NAN)],
            ),
            (
                "every class total_cmp tells apart",
                vec![
                    (1, f64::NAN),
                    (2, -f64::NAN),
                    (3, 0.0),
                    (4, -0.0),
                    (6, f64::INFINITY),
                    (7, f64::NEG_INFINITY),
                    (9, f64::MIN_POSITIVE),
                ],
            ),
            ("all dirty", all_dirty),
            ("all no-op", all_noop),
        ];
        for (name, changes) in &cases {
            println!("case: {name}");
            assert_bulk_equals_pointwise(&base, changes);
        }
        // and onto an empty index: everything is a fresh id
        assert_bulk_equals_pointwise(&[], &[(3, 2.0), (1, 5.0), (3, 4.0)]);
    }

    #[test]
    fn random_bulk_applies_stay_the_canonical_tree() {
        let mut s = 0xB01Du64;
        let mut scores = adversarial_scores(120, 21);
        let mut ix = RankIndex::from_scores(&scores);
        for round in 0..60 {
            // from one dirty vertex to all of them, ids unsorted and
            // repeating, a fresh id now and then
            let m = 1 + (xorshift(&mut s) as usize % scores.len());
            let values = adversarial_scores(m, s ^ round);
            let mut changes: Vec<(u32, f64)> = values
                .into_iter()
                .map(|x| ((xorshift(&mut s) % scores.len() as u64) as u32, x))
                .collect();
            if round % 7 == 0 {
                changes.push((scores.len() as u32 + (round as u32 % 3), 1.25));
            }
            ix.apply(&ScoreDelta::Sparse(changes.clone()));
            fold(&mut scores, &changes);
            assert_matches_oracle(&ix, &scores);
        }
    }

    #[test]
    fn clone_before_a_bulk_apply_keeps_the_old_order() {
        let before = adversarial_scores(80, 5);
        let mut ix = RankIndex::from_scores(&before);
        let snap = ix.clone();
        let changes: Vec<(u32, f64)> = (0..90u32).rev().map(|v| (v, f64::from(v % 7))).collect();
        ix.apply(&ScoreDelta::Sparse(changes.clone()));
        assert_matches_oracle(&snap, &before);
        let mut after = before.clone();
        fold(&mut after, &changes);
        assert_matches_oracle(&ix, &after);
        // the old generation goes away; the new one owns what it needs
        drop(snap);
        assert_matches_oracle(&ix, &after);
        // and an index nothing shares is relinked in place to the same tree
        ix.apply(&ScoreDelta::Sparse(vec![(3, 99.0), (79, -1.0)]));
        fold(&mut after, &[(3, 99.0), (79, -1.0)]);
        assert_matches_oracle(&ix, &after);
    }

    #[test]
    fn percentile_ends() {
        let ix = RankIndex::from_scores(&[1.0, 9.0, 5.0, 0.0]);
        assert_eq!(ix.percentile(1), Some(1.0)); // leader
        assert_eq!(ix.percentile(3), Some(0.25)); // last of four
        assert_eq!(ix.percentile(9), None);
        assert_eq!(ix.rank_of(2), Some(2));
    }
}
