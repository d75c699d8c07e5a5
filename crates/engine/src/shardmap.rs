//! The versioned source→shard map: one ownership authority for bootstrap
//! partitioning, adoption of arriving vertices, and rebalance handoffs.
//!
//! The paper's Figure 4 framework pins each worker to a static source range
//! `Π_i`; growing past one machine's source set needs ownership that can
//! *move*. A [`ShardMap`] replaces the raw `Vec<Range<u32>>` view with an
//! explicit source→shard assignment that
//!
//! * bootstraps to the exact [`crate::partition_ranges`] layout (existing
//!   contiguous partitions are bit-identical — the map is a strict
//!   generalisation, not a new policy);
//! * adopts arriving sources under one pinned rule (fewest owned sources,
//!   ties to the lowest shard id), so replays are deterministic;
//! * computes **deterministic rebalance plans**: when the owned-source skew
//!   `max − min` exceeds a configurable threshold, [`ShardMap::plan_rebalance`]
//!   emits the exact sequence of [`SourceMove`]s that restores the
//!   invariant (largest shard donates its highest-id source to the
//!   smallest shard, ties to the lowest shard id — every step pinned so
//!   replays are reproducible);
//! * carries a **version** that advances on every ownership change, so
//!   executors (the cluster engine's export/import path, the at-rest
//!   `ebc-store` `ShardSet`) can correlate their commits with the map.
//!
//! The map is coordinator-side bookkeeping only: it never touches worker
//! state. Each worker's exact sum covers its *store's* membership list
//! (which mirrors the map move for move), and the coordinators check its
//! source count against [`ShardMap::sources_of`]; since the exact sum is
//! integer addition, any cover — contiguous or not — gives the same bits.

use crate::partition::partition_ranges;
use ebc_graph::{Error, FxHashMap, VertexId};

/// One source changing hands: the atom of a [`RebalancePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceMove {
    /// The source being handed over.
    pub source: VertexId,
    /// Donor shard.
    pub from: usize,
    /// Recipient shard.
    pub to: usize,
}

/// A deterministic sequence of moves restoring the skew invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalancePlan {
    /// The moves, in execution order.
    pub moves: Vec<SourceMove>,
    /// The skew threshold the plan restores (`max − min ≤ threshold`).
    pub threshold: usize,
    /// Map version the plan was computed against; executing a move through
    /// [`ShardMap::apply_move`] advances the version, so a plan is only
    /// valid against the map state it was derived from.
    pub from_version: u64,
}

impl RebalancePlan {
    /// No moves needed.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// `source` is already owned by shard `k`: `Invalid`, naming it.
fn already_owned(source: VertexId, k: usize) -> Error {
    Error::invalid(format!("source {source} already owned by shard {k}")).with_source(source)
}

/// The versioned source→shard assignment (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Per-shard owned sources. Order within a shard is bookkeeping only
    /// (membership is what the invariants speak about).
    owned: Vec<Vec<VertexId>>,
    /// Reverse index: source → owning shard.
    owner: FxHashMap<VertexId, usize>,
    /// Per-shard owned counts, kept in lockstep with `owned` so callers can
    /// borrow them as a slice.
    counts: Vec<usize>,
    /// Advances by one on every ownership change (adopt or applied move).
    version: u64,
}

impl ShardMap {
    /// Bootstrap map for `n` sources over `p` shards: delegates to
    /// [`partition_ranges`], so the initial layout is bit-identical to the
    /// contiguous `Π_i` partitioning the engine always used.
    pub fn bootstrap(n: usize, p: usize) -> Self {
        let ranges = partition_ranges(n, p);
        let owned: Vec<Vec<VertexId>> = ranges.iter().map(|r| r.clone().collect()).collect();
        Self::from_owned(owned).expect("contiguous ranges are disjoint")
    }

    /// Rebuild a map from an explicit per-shard assignment (e.g. the
    /// at-rest `ShardSet` sidecars after a recovery). `Invalid` if there
    /// is no shard or a source appears in two shards.
    pub fn from_assignment(owned: Vec<Vec<VertexId>>) -> Result<Self, Error> {
        Self::from_owned(owned)
    }

    /// [`ShardMap::from_assignment`] stamped with a recovered version, so a
    /// resumed cluster's map continues the killed incarnation's version
    /// sequence instead of restarting at 0 (the `ClusterEngine::resume`
    /// path hands the `ShardSet` manifest version here).
    pub fn from_assignment_versioned(
        owned: Vec<Vec<VertexId>>,
        version: u64,
    ) -> Result<Self, Error> {
        let mut map = Self::from_owned(owned)?;
        map.version = version;
        Ok(map)
    }

    fn from_owned(owned: Vec<Vec<VertexId>>) -> Result<Self, Error> {
        if owned.is_empty() {
            return Err(Error::invalid("a shard map needs at least one shard"));
        }
        let mut owner = FxHashMap::default();
        for (k, sources) in owned.iter().enumerate() {
            for &s in sources {
                if let Some(prev) = owner.insert(s, k) {
                    return Err(already_owned(s, prev));
                }
            }
        }
        let counts = owned.iter().map(|o| o.len()).collect();
        Ok(ShardMap {
            owned,
            owner,
            counts,
            version: 0,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.owned.len()
    }

    /// Per-shard owned-source counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total owned sources across all shards.
    pub fn total(&self) -> usize {
        self.owner.len()
    }

    /// Current map version (0 at bootstrap; +1 per ownership change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advance the version without an ownership change and return the new
    /// value. A leadership promotion is an ownership-*relevant* event — the
    /// replica set serving a shard changed even though the source→shard
    /// assignment did not — and distributed coordinators use the map
    /// version as the fencing token stale leaders are rejected by, so a
    /// promotion must be version-visible.
    pub fn bump_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// Owned-source skew: `max − min` across shards.
    pub fn skew(&self) -> usize {
        let max = self.counts.iter().max().copied().unwrap_or(0);
        let min = self.counts.iter().min().copied().unwrap_or(0);
        max - min
    }

    /// The shard owning `s`, if any.
    pub fn owner_of(&self, s: VertexId) -> Option<usize> {
        self.owner.get(&s).copied()
    }

    /// The sources shard `k` owns (bookkeeping order).
    pub fn sources_of(&self, k: usize) -> &[VertexId] {
        &self.owned[k]
    }

    /// Assign one newly arrived source under the pinned adoption rule —
    /// fewest owned sources, ties to the lowest shard id. Returns the
    /// adopting shard; a source already owned is `Invalid`.
    pub fn adopt(&mut self, s: VertexId) -> Result<usize, Error> {
        if let Some(&k) = self.owner.get(&s) {
            return Err(already_owned(s, k));
        }
        let adopter = self
            .counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| c)
            .map(|(i, _)| i)
            .expect("at least one shard");
        self.owner.insert(s, adopter);
        self.owned[adopter].push(s);
        self.counts[adopter] += 1;
        self.version += 1;
        Ok(adopter)
    }

    /// Compute the deterministic rebalance plan for `threshold` (clamped up
    /// to 1 — counts cannot be made more equal than within one): while
    /// `max − min > threshold`, the shard with the most sources (ties to
    /// the lowest id) donates its **highest-id** source to the shard with
    /// the fewest (ties to the lowest id). Pure: the map is not modified;
    /// execute the plan move by move via [`ShardMap::apply_move`] so the
    /// map only ever reflects handoffs that actually happened.
    pub fn plan_rebalance(&self, threshold: usize) -> RebalancePlan {
        let threshold = threshold.max(1);
        if self.skew() <= threshold {
            // the common idle-tick case: no simulation state to build
            return RebalancePlan {
                moves: Vec::new(),
                threshold,
                from_version: self.version,
            };
        }
        let mut counts = self.counts.clone();
        // simulation state: per-shard sorted source lists (pop = highest id)
        let mut sim: Vec<Vec<VertexId>> = self
            .owned
            .iter()
            .map(|o| {
                let mut v = o.clone();
                v.sort_unstable();
                v
            })
            .collect();
        let mut moves = Vec::new();
        loop {
            let (mut max_k, mut min_k) = (0usize, 0usize);
            for k in 1..counts.len() {
                if counts[k] > counts[max_k] {
                    max_k = k;
                }
                if counts[k] < counts[min_k] {
                    min_k = k;
                }
            }
            if counts[max_k] - counts[min_k] <= threshold {
                break;
            }
            let source = sim[max_k].pop().expect("donor owns at least one source");
            counts[max_k] -= 1;
            counts[min_k] += 1;
            sim[min_k].push(source); // sorted order irrelevant for recipients
            moves.push(SourceMove {
                source,
                from: max_k,
                to: min_k,
            });
        }
        RebalancePlan {
            moves,
            threshold,
            from_version: self.version,
        }
    }

    /// Refuse, as `Invalid` naming the source, a move this map cannot
    /// record: a shard id out of range, a move onto the donor itself, or a
    /// donor that does not own the source. Every handoff path runs this
    /// before touching a shard.
    pub fn check_move(&self, mv: &SourceMove) -> Result<(), Error> {
        let SourceMove { source, from, to } = *mv;
        let p = self.owned.len();
        let why = if from >= p || to >= p {
            format!("shard {} is not one of the {p} shards", from.max(to))
        } else if from == to {
            format!("shard {to} already owns source {source}")
        } else if self.owner.get(&source) != Some(&from) {
            format!("source {source} is not owned by shard {from}")
        } else {
            return Ok(());
        };
        Err(Error::invalid(format!("cannot move source {source}: {why}")).with_source(source))
    }

    /// The move handing `source` from its current owner to shard `to`,
    /// checked by [`ShardMap::check_move`]; an unowned source is `Invalid`.
    pub fn move_to(&self, source: VertexId, to: usize) -> Result<SourceMove, Error> {
        let from = self.owner_of(source).ok_or_else(|| {
            Error::invalid(format!("source {source} is not owned by any shard")).with_source(source)
        })?;
        let mv = SourceMove { source, from, to };
        self.check_move(&mv)?;
        Ok(mv)
    }

    /// Record one executed move (adoption and rebalance share this single
    /// ownership authority). Validates it ([`ShardMap::check_move`]) and
    /// advances the version.
    pub fn apply_move(&mut self, mv: &SourceMove) -> Result<(), Error> {
        self.check_move(mv)?;
        let pos = self.owned[mv.from]
            .iter()
            .position(|&s| s == mv.source)
            .expect("owner index and owned lists agree");
        self.owned[mv.from].swap_remove(pos);
        self.counts[mv.from] -= 1;
        self.owned[mv.to].push(mv.source);
        self.counts[mv.to] += 1;
        self.owner.insert(mv.source, mv.to);
        self.version += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_is_exactly_once(map: &ShardMap, universe: impl Iterator<Item = u32>) {
        let mut owned_total = 0usize;
        for s in universe {
            let owners = (0..map.num_shards())
                .filter(|&k| map.sources_of(k).contains(&s))
                .count();
            assert_eq!(owners, 1, "source {s} owned {owners} times");
            assert!(map.owner_of(s).is_some());
            owned_total += 1;
        }
        assert_eq!(map.total(), owned_total);
    }

    #[test]
    fn bootstrap_matches_partition_ranges_bit_for_bit() {
        for (n, p) in [(10usize, 3usize), (103, 10), (5, 8), (0, 4), (64, 1)] {
            let map = ShardMap::bootstrap(n, p);
            let ranges = partition_ranges(n, p);
            assert_eq!(map.num_shards(), p);
            for (k, r) in ranges.iter().enumerate() {
                let expect: Vec<u32> = r.clone().collect();
                assert_eq!(map.sources_of(k), &expect[..], "n={n} p={p} shard {k}");
            }
            assert_eq!(map.version(), 0);
            assert!(map.skew() <= 1);
        }
    }

    /// Every refusal is `Invalid` naming the source, and leaves the map as
    /// it was.
    fn refuses(result: Result<impl std::fmt::Debug, Error>, source: VertexId) {
        let err = result.unwrap_err();
        assert_eq!(err.kind(), ebc_graph::ErrorKind::Invalid, "{err}");
        assert_eq!(err.source_vertex(), Some(source), "{err}");
    }

    #[test]
    fn adoption_rule_matches_the_pinned_ledger() {
        let mut map = ShardMap::bootstrap(7, 3); // counts [3, 2, 2]
        assert_eq!(map.adopt(7).unwrap(), 1);
        assert_eq!(map.adopt(8).unwrap(), 2);
        assert_eq!(map.adopt(9).unwrap(), 0);
        assert_eq!(map.counts(), &[4, 3, 3]);
        assert_eq!(map.version(), 3);
        refuses(map.adopt(8), 8);
        assert_eq!(map.version(), 3);
    }

    #[test]
    fn plan_restores_skew_deterministically() {
        let mut map = ShardMap::bootstrap(12, 3); // [4, 4, 4]
                                                  // skew it: shard 0 takes everything shard 2 owns
        for s in [8u32, 9, 10, 11] {
            map.apply_move(&SourceMove {
                source: s,
                from: 2,
                to: 0,
            })
            .unwrap();
        }
        assert_eq!(map.counts(), &[8, 4, 0]);
        assert_eq!(map.skew(), 8);
        let plan = map.plan_rebalance(1);
        // pinned: highest id from the largest shard to the smallest shard
        assert_eq!(
            plan.moves,
            vec![
                SourceMove {
                    source: 11,
                    from: 0,
                    to: 2
                },
                SourceMove {
                    source: 10,
                    from: 0,
                    to: 2
                },
                SourceMove {
                    source: 9,
                    from: 0,
                    to: 2
                },
                SourceMove {
                    source: 8,
                    from: 0,
                    to: 2
                },
            ]
        );
        // identical plan on an identical map (determinism)
        assert_eq!(map.plan_rebalance(1), plan);
        for mv in &plan.moves {
            map.apply_move(mv).unwrap();
        }
        assert_eq!(map.counts(), &[4, 4, 4]);
        assert!(map.skew() <= 1);
        assert!(map.plan_rebalance(1).is_empty());
        cover_is_exactly_once(&map, 0..12);
    }

    #[test]
    fn threshold_zero_is_clamped_to_one() {
        let map = ShardMap::bootstrap(7, 2); // [4, 3] — within one
        let plan = map.plan_rebalance(0);
        assert_eq!(plan.threshold, 1);
        assert!(plan.is_empty(), "within-one cannot be improved");
    }

    #[test]
    fn moves_are_validated() {
        let mut map = ShardMap::bootstrap(6, 2);
        for (from, to) in [(1, 0), (0, 0), (0, 7)] {
            refuses(
                map.apply_move(&SourceMove {
                    source: 0,
                    from,
                    to,
                }),
                0,
            );
        }
        refuses(map.move_to(99, 1), 99);
        refuses(map.move_to(0, 0), 0);
        assert_eq!(
            map.move_to(0, 1).unwrap(),
            SourceMove {
                source: 0,
                from: 0,
                to: 1
            }
        );
        assert_eq!(map.version(), 0, "rejected moves leave the map untouched");
    }

    #[test]
    fn from_assignment_rejects_duplicates() {
        refuses(ShardMap::from_assignment(vec![vec![0, 1], vec![1, 2]]), 1);
        assert!(ShardMap::from_assignment(Vec::new()).is_err());
        let map = ShardMap::from_assignment(vec![vec![5, 0], vec![], vec![3]]).unwrap();
        assert_eq!(map.counts(), &[2, 0, 1]);
        assert_eq!(map.owner_of(3), Some(2));
        assert_eq!(map.owner_of(4), None);
        assert_eq!(map.skew(), 2);
    }

    #[test]
    fn empty_shards_receive_before_donating_again() {
        let mut map =
            ShardMap::from_assignment(vec![vec![0, 1, 2, 3, 4], vec![], vec![5]]).unwrap();
        let plan = map.plan_rebalance(1);
        for mv in &plan.moves {
            map.apply_move(mv).unwrap();
        }
        assert!(map.skew() <= 1, "{:?}", map.counts());
        cover_is_exactly_once(&map, 0..6);
    }
}
