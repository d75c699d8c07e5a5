//! # ebc-core
//!
//! The primary contribution of *"Scalable Online Betweenness Centrality in
//! Evolving Graphs"* (Kourtellis, De Francisci Morales, Bonchi — ICDE 2016):
//! an incremental algorithm that keeps **both vertex and edge betweenness
//! centrality** up to date while edges are **added and removed**, one update
//! at a time, using only three fixed-width per-vertex arrays per source
//! (`BD[s] = {d, σ, δ}` — distance, shortest-path count, dependency) and **no
//! predecessor lists**, for `O(n²)` total space.
//!
//! ## Layout
//!
//! * [`mod@brandes`] — the static baselines: predecessor-free Brandes (the
//!   paper's *MO* variant, also used as step 1 of the framework) and the
//!   classic predecessor-list Brandes (*MP*), both producing VBC and EBC
//!   simultaneously (Brandes 2008).
//! * [`bd`] — the `BD[s]` betweenness-data abstraction: a [`bd::BdStore`]
//!   trait with an in-memory implementation (the out-of-core implementation
//!   lives in the `ebc-store` crate).
//! * [`incremental`] — the per-source update kernel (Algorithms 1–10 of the
//!   paper, re-derived in a uniform pull-based formulation; see `DESIGN.md`).
//! * [`shard`] — [`ShardState`]: one shard's store, partial scores and
//!   kernel arena, the compute core every embodiment runs.
//! * [`state`] — [`BetweennessState`]: the end-to-end framework of Figure 1
//!   (bootstrap once, then stream updates) — a graph plus one
//!   [`ShardState`] owning every source — and [`Update::fold_into`], the
//!   one validation every embodiment applies before mutating its replica.
//! * [`scores`] — score containers and merge (reduce) operations.
//! * [`api`] — the reports the `streaming-bc` facade's `Session` hands out
//!   ([`api::Reduced`], [`api::ShardAssignment`],
//!   [`api::RebalanceOutcome`]); every layer reports failures as one
//!   [`Error`] with an [`ErrorKind`] (re-exported from `ebc-graph`).
//! * [`verify`] — recompute-from-scratch oracles for tests, experiments and
//!   the session's `verify`.

pub mod api;
pub mod approx;
pub mod bd;
pub mod brandes;
pub mod exact;
pub mod incremental;
pub mod rankindex;
pub mod ranking;
pub mod scores;
pub mod scratch;
pub mod shard;
pub mod state;
pub mod verify;

pub use api::{RebalanceOutcome, Reduced, ShardAssignment};
pub use approx::approx_betweenness;
pub use bd::{BdStore, MemoryBdStore, SourceViewMut};
pub use brandes::{brandes, brandes_with_predecessors, single_source_update};
pub use ebc_graph::{Error, ErrorKind};
pub use incremental::{update_source, UpdateConfig, UpdateStats, Workspace};
pub use rankindex::{RankIndex, ScoreDelta};
pub use scores::Scores;
pub use scratch::KernelScratch;
pub use shard::ShardState;
pub use state::{BetweennessState, Replica, Update};
