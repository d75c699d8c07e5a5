//! The engine surface the server drives — and nothing more.
//!
//! `ebc-serve` deliberately does **not** depend on the `streaming-bc`
//! facade (the facade's binary depends on this crate; a direct dependency
//! would be a cycle). Instead the server is generic over [`ServeEngine`],
//! a thin mirror of the `Session` operations the protocol exposes; the
//! facade implements it for `Session`, and the test suite implements it
//! with mocks to pin server behavior without a real engine. A failure is
//! the engine's own [`Error`], sent to the client as it is
//! ([`crate::encode_error`]).

use ebc_core::api::RebalanceOutcome;
use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::state::Update;
use ebc_core::Error;
use std::time::Duration;

/// Point-in-time descriptive counters for the `stats` command.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineInfo {
    /// Current vertex count.
    pub n: usize,
    /// Current edge count.
    pub m: usize,
    /// Map-phase workers.
    pub workers: usize,
    /// Human-readable backend tag (`"memory"`, `"disk"`, `"cluster"`,
    /// `"mock"`, ...).
    pub backend: String,
    /// Ownership-map version for partitioned embodiments.
    pub map_version: Option<u64>,
    /// Bytes of live (not yet compacted) journal frames, for durable
    /// sessions with a history directory.
    pub live_wal_bytes: Option<u64>,
    /// Total bytes across sealed history segments.
    pub sealed_history_bytes: Option<u64>,
    /// Highest seq folded into a compaction (sealed or discarded);
    /// 0 before the first compaction.
    pub last_compaction_seq: Option<u64>,
}

/// What the server needs from a session. One instance is owned by the
/// single writer thread; `Send` lets it move there at spawn.
///
/// Durability contract: when `apply_batch` returns `Ok`, the batch is as
/// durable as the engine's checkpoint policy makes it — the server
/// acknowledges the client only after this returns, so an ack means
/// "applied and checkpointed" for `Checkpoint::EveryApply` sessions.
pub trait ServeEngine: Send {
    /// Apply a batch of updates in order, atomically from the protocol's
    /// point of view: no reply reaches the client until the whole batch
    /// (and its checkpoint, per policy) landed.
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error>;

    /// The engine's rank index, current with every applied update — the
    /// index of each published [`crate::Snapshot`]. The engine side owns
    /// and feeds the only index there is (one bulk pass per update,
    /// `O(m · log(n/m + 1))` for `m` changed scores); this hands out an
    /// `O(1)` node-sharing clone of it, so publishing costs the server
    /// nothing beyond the engine's own feed. Its scores are the fast-path
    /// maintained scores (the paper's reduce) bit for bit.
    fn rank_snapshot(&mut self) -> Result<RankIndex, Error>;

    /// Drain what changed in the fast-path scores since the last drain,
    /// for a caller maintaining an index of its own (the server does not:
    /// it publishes [`ServeEngine::rank_snapshot`]). The first drain is
    /// dense; applying the drained deltas in order reproduces the
    /// fast-path scores bit for bit.
    fn take_score_delta(&mut self) -> Result<ScoreDelta, Error>;

    /// The partition-invariant exact reduction: `(vbc, ebc, wall)`.
    /// Bitwise identical across embodiments for the same update history.
    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, Duration), Error>;

    /// Flush stores and rewrite the durable manifest now.
    fn checkpoint(&mut self) -> Result<(), Error>;

    /// Hand ownership of `source` to worker `to` (partitioned only).
    fn handoff(&mut self, source: u32, to: usize) -> Result<RebalanceOutcome, Error>;

    /// Restore the owned-source skew invariant `max − min ≤ threshold`
    /// (partitioned only).
    fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error>;

    /// Descriptive counters for `stats`.
    fn info(&self) -> EngineInfo;
}
