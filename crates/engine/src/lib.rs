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
//! This crate reproduces that architecture with a **persistent worker
//! pool**: `p` long-lived threads are spawned at bootstrap, each owning one
//! machine's [`ebc_core::shard::ShardState`] for its whole lifetime (private
//! `BD` store, incremental partial scores, kernel scratch), and driven over
//! per-worker command channels — so the steady-state update path costs one
//! channel round-trip per worker, not a thread spawn.
//!
//! * [`partition`] — the `Π_i` source-range math plus the
//!   [`partition::AdoptionLedger`] pinning how newly arrived vertices are
//!   assigned (smallest partition, ties to the smallest worker id);
//! * [`shardmap`] — the versioned [`shardmap::ShardMap`] generalising the
//!   static ranges into a movable source→shard assignment: bootstrap
//!   layouts bit-identical to [`partition::partition_ranges`], the pinned
//!   adoption rule, and deterministic [`shardmap::RebalancePlan`]s that
//!   restore the owned-source skew invariant via source handoffs;
//! * `pool` (private) — worker threads, the
//!   `Bootstrap`/`Apply`/`MergePartials`/`ExactSum`/`Export`/`Import`/
//!   `Shutdown` command protocol, poison containment, and the pairwise
//!   merge-tree schedule;
//! * [`cluster`] — [`cluster::ClusterEngine`]: dispatch from a coordinator
//!   replica validated by [`ebc_core::state::Update::fold_into`], the pipelined [`cluster::ClusterEngine::apply_stream`]
//!   batch path, the tree-structured fast [`cluster::ClusterEngine::reduce`]
//!   (the paper's `t_M`), the partition-invariant
//!   [`cluster::ClusterEngine::reduce_exact`] oracle (one fixed-point
//!   [`ebc_core::exact::ExactSum`] per worker, checked against the map and
//!   added: bitwise identical across worker counts, store backends, and
//!   ownership layouts), and the
//!   live handoff path ([`cluster::ClusterEngine::rebalance`] /
//!   [`cluster::ClusterEngine::handoff`]);
//! * [`online`] — the online-updates experiment (§5.3, Figure 8, Table 5):
//!   replay a timestamped stream and record, per update, the inter-arrival
//!   gap, the processing time, queueing delays, and missed deadlines. Both
//!   *measured* mode (the live pool) and *modeled* mode (the paper's
//!   `t_U = t_S·n/p + t_M` projection, for worker counts beyond the local
//!   core count) are provided.

pub mod cluster;
pub mod online;
pub mod partition;
mod pool;
pub mod shardmap;

pub use cluster::{ApplyReport, ClusterEngine, EngineError, RebalanceReport};
pub use online::{simulate_modeled, simulate_online, OnlineEvent, OnlineReport};
pub use partition::{partition_ranges, AdoptionLedger};
pub use shardmap::{RebalancePlan, ShardMap, ShardMapError, SourceMove};
