//! The engine surface the server drives — and nothing more.
//!
//! `ebc-serve` deliberately does **not** depend on the `streaming-bc`
//! facade (the facade's binary depends on this crate; a direct dependency
//! would be a cycle). Instead the server is generic over [`ServeEngine`],
//! a thin mirror of the `Session` operations the protocol exposes; the
//! facade implements it for `Session`, and the test suite implements it
//! with mocks to pin server behavior without a real engine.

use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::state::Update;
use std::fmt;
use std::time::Duration;

/// A typed engine-side failure, shaped for the wire: every variant maps to
/// a protocol error `kind` so clients can dispatch on it without parsing
/// prose.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The update or query is invalid against the current state; the
    /// engine is untouched and the connection stays usable.
    Invalid(String),
    /// The engine failed in a way that may leave it untrustworthy.
    Engine(String),
    /// The session directory's record files are ahead of its manifest — a
    /// `Checkpoint::Manual` session killed after un-checkpointed growth.
    /// Carried field-for-field from `SessionError::RecordsAhead` so the
    /// client sees the same census the library caller would.
    RecordsAhead {
        /// Ownership-map version the at-rest manifest recorded.
        manifest_map_version: u64,
        /// Ownership-map version the recovered shard files carry.
        store_version: u64,
        /// Sources in the manifest's graph snapshot.
        manifest_sources: usize,
        /// Sources the recovered record files actually own.
        record_sources: usize,
    },
    /// The operation needs an embodiment this session does not have
    /// (e.g. `rebalance` on a single-machine backend).
    Unsupported(String),
    /// A replay (or open) reached for history records that no sealed
    /// segment holds — a deleted segment file, or a seek below a
    /// `keep_history = false` truncation point. Carried field-for-field
    /// from `SessionError::HistoryGap` so clients see the missing range.
    HistoryGap {
        /// First missing seq.
        missing_first: u64,
        /// Last missing seq.
        missing_last: u64,
    },
    /// The server is draining for shutdown and refuses new work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServeError::RecordsAhead {
                manifest_map_version,
                store_version,
                manifest_sources,
                record_sources,
            } => write!(
                f,
                "records ahead of manifest: stores own {record_sources} sources \
                 (map v{store_version}), manifest has {manifest_sources} \
                 (map v{manifest_map_version})"
            ),
            ServeError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ServeError::HistoryGap {
                missing_first,
                missing_last,
            } => write!(
                f,
                "history has a gap: records {missing_first}..={missing_last} are missing"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The wire `kind` tag of an error (see DESIGN.md §11 for the full table).
impl ServeError {
    /// Stable machine-readable discriminant used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Invalid(_) => "invalid",
            ServeError::Engine(_) => "engine",
            ServeError::RecordsAhead { .. } => "records_ahead",
            ServeError::Unsupported(_) => "unsupported",
            ServeError::HistoryGap { .. } => "history_gap",
            ServeError::ShuttingDown => "shutting_down",
        }
    }
}

/// Executed ownership moves, mirroring `RebalanceOutcome` without the
/// dependency (each move is `(source, from, to)`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MoveReport {
    /// Executed handoffs in commit order.
    pub moves: Vec<(u32, usize, usize)>,
    /// Ownership-map version after the last committed move.
    pub map_version: u64,
}

/// Point-in-time descriptive counters for the `stats` command.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineInfo {
    /// Current vertex count.
    pub n: usize,
    /// Current edge count.
    pub m: usize,
    /// Map-phase workers.
    pub workers: usize,
    /// Human-readable backend tag (`"memory"`, `"disk"`, `"sharded"`,
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
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), ServeError>;

    /// The fast-path maintained scores (the paper's reduce).
    fn scores_vbc(&mut self) -> Result<Vec<f64>, ServeError>;

    /// The engine's rank index, current with every applied update — the
    /// index of each published [`crate::Snapshot`]. The engine side owns
    /// and feeds the only index there is (one bulk pass per update,
    /// `O(m · log(n/m + 1))` for `m` changed scores); this hands out an
    /// `O(1)` node-sharing clone of it, so publishing costs the server
    /// nothing beyond the engine's own feed. Its scores equal
    /// `scores_vbc` bit for bit.
    fn rank_snapshot(&mut self) -> Result<RankIndex, ServeError>;

    /// Drain what changed in the fast-path scores since the last drain,
    /// for a caller maintaining an index of its own (the server does not:
    /// it publishes [`ServeEngine::rank_snapshot`]). Applying the drained
    /// deltas in order reproduces `scores_vbc` bit for bit.
    ///
    /// The default cannot track changes and republishes densely; engines
    /// with dirty tracking (the facade's `Session`) override it with
    /// sparse deltas.
    fn take_score_delta(&mut self) -> Result<ScoreDelta, ServeError> {
        self.scores_vbc().map(ScoreDelta::Dense)
    }

    /// The partition-invariant exact reduction: `(vbc, ebc, wall)`.
    /// Bitwise identical across embodiments for the same update history.
    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, Duration), ServeError>;

    /// Flush stores and rewrite the durable manifest now.
    fn checkpoint(&mut self) -> Result<(), ServeError>;

    /// Hand ownership of `source` to worker `to` (partitioned only).
    fn handoff(&mut self, source: u32, to: usize) -> Result<MoveReport, ServeError>;

    /// Restore the owned-source skew invariant `max − min ≤ threshold`
    /// (partitioned only).
    fn rebalance(&mut self, threshold: usize) -> Result<MoveReport, ServeError>;

    /// Descriptive counters for `stats`.
    fn info(&self) -> EngineInfo;
}
