//! # ebc-engine
//!
//! The parallel and online embodiment of the framework (paper §5.2–§5.4).
//!
//! The paper's key observation is that the incremental computation is
//! *embarrassingly parallel over sources*: `BD[·]` is range-partitioned over
//! `p` shared-nothing machines (`Π_i`), every machine holds a replica of the
//! graph and processes each arriving update for its own sources only, and
//! partial betweenness scores are summed in a reduce step (Figure 4 shows
//! the MapReduce rendition).
//!
//! This crate reproduces that architecture in one engine that owns `p`
//! [`ebc_core::shard::ShardState`]s (private `BD` store, incremental partial
//! scores, kernel scratch) and runs each call's per-shard work on scoped
//! threads, shard 0 on the caller — so `p = 1`, the single machine, spawns
//! nothing.
//!
//! * [`partition`] — the `Π_i` source-range math;
//! * [`shardmap`] — the versioned [`shardmap::ShardMap`] generalising the
//!   static ranges into a movable source→shard assignment: bootstrap
//!   layouts bit-identical to [`partition::partition_ranges`], the pinned
//!   adoption rule for arriving vertices (smallest partition, ties to the
//!   smallest shard id), and deterministic [`shardmap::RebalancePlan`]s
//!   that restore the owned-source skew invariant via source handoffs;
//! * [`cluster`] — [`cluster::ClusterEngine`]: writes folded into a replica
//!   by [`ebc_core::state::Update::fold_into`] and run by every shard
//!   against per-update CSR epochs, the fast
//!   [`cluster::ClusterEngine::reduce`] (the paper's `t_M`: partials folded
//!   in ascending shard order), the partition-invariant
//!   [`cluster::ClusterEngine::reduce_exact`] oracle (one fixed-point
//!   [`ebc_core::exact::ExactSum`] per shard, checked against the map and
//!   added: bitwise identical across shard counts, store backends, and
//!   ownership layouts), the sparse rank-index feed
//!   [`cluster::ClusterEngine::take_score_delta`], and the live handoff
//!   path ([`cluster::ClusterEngine::rebalance`] /
//!   [`cluster::ClusterEngine::handoff`]);
//! * [`online`] — the online-updates experiment (§5.3, Figure 8, Table 5):
//!   replay a timestamped stream and record, per update, the inter-arrival
//!   gap, the processing time, queueing delays, and missed deadlines. Both
//!   *measured* mode (the live engine) and *modeled* mode (the paper's
//!   `t_U = t_S·n/p + t_M` projection, for worker counts beyond the local
//!   core count) are provided.

pub mod cluster;
pub mod online;
pub mod partition;
pub mod shardmap;

pub use cluster::{ApplyReport, ClusterEngine};
pub use online::{simulate_modeled, simulate_online, OnlineEvent, OnlineReport};
pub use partition::partition_ranges;
pub use shardmap::{RebalancePlan, ShardMap, SourceMove};
