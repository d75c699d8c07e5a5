//! Protocol commands: the typed request surface, split — like sneldb's
//! `command/{parser,handlers}` — into [`parser`] (wire → [`Command`],
//! transport-agnostic, fuzzable in isolation) and [`handlers`] (the
//! per-connection dispatch that routes a parsed command to the snapshot
//! read path or the single writer task).

pub mod handlers;
pub mod parser;

use crate::json::Value;
use ebc_core::state::Update;
use ebc_core::{Error, ErrorKind};

/// Every command a client can issue. DESIGN.md §11 is the wire reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; answered locally, works even on a degraded server.
    Ping,
    /// Apply updates in order, atomically acknowledged after the engine
    /// (and its checkpoint policy) made them durable.
    Apply {
        /// The parsed updates, in wire order.
        updates: Vec<Update>,
    },
    /// Snapshot read of the maintained vertex scores.
    Scores,
    /// Snapshot read of the current top-`k` ranking.
    TopK {
        /// How many vertices to rank.
        k: usize,
    },
    /// Snapshot read of one vertex's rank (1 = most central) and
    /// percentile under the ranking tie rule.
    RankOf {
        /// Vertex to look up.
        v: u32,
    },
    /// The partition-invariant exact reduction (runs on the writer task).
    ReduceExact,
    /// Flush stores and rewrite the durable manifest now.
    Checkpoint,
    /// Hand ownership of one source to another worker.
    Handoff {
        /// Source vertex to move.
        source: u32,
        /// Destination worker index.
        to: usize,
    },
    /// Restore the owned-source skew invariant.
    Rebalance {
        /// Allowed `max − min` owned-source skew.
        threshold: usize,
    },
    /// Server / engine counters.
    Stats,
    /// Start streaming top-`k` delta events after every applied batch.
    Subscribe {
        /// Ranking size to watch.
        k: usize,
    },
    /// Drain in-flight work, checkpoint, and exit.
    Shutdown,
}

/// A parsed request: the echoed correlation `id` plus the command.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation value, echoed verbatim in the response
    /// (`Value::Null` when absent).
    pub id: Value,
    /// The command itself.
    pub cmd: Command,
}

/// A structured protocol-level failure (the request never reached the
/// engine). `kind` is the machine-readable discriminant on the wire; an
/// engine-side failure travels as [`encode_error`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable discriminant: `"parse"` or `"protocol"`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// A malformed-JSON error.
    pub fn parse(message: impl Into<String>) -> Self {
        WireError {
            kind: "parse",
            message: message.into(),
        }
    }

    /// A well-formed-JSON but invalid-request error.
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError {
            kind: "protocol",
            message: message.into(),
        }
    }
}

/// The wire form of an engine-side [`Error`]: an object holding the kind's
/// tag (`kind`) and fields ([`ErrorKind::fields`]), the context as
/// `message`, and `source` when the error names one. The serve responses'
/// `error` member and the cluster's node replies both carry this object.
pub fn encode_error(e: &Error) -> Value {
    let kind = e.kind();
    let mut fields = vec![
        ("kind".to_string(), Value::from(kind.tag())),
        ("message".to_string(), Value::from(e.context())),
    ];
    fields.extend(
        kind.fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::from(v))),
    );
    if let Some(s) = e.source_vertex() {
        fields.push(("source".to_string(), Value::from(u64::from(s))));
    }
    Value::Obj(fields.into_iter().collect())
}

/// The [`Error`] an [`encode_error`] object carries; `None` for anything
/// else (an unknown kind, a missing field).
pub fn decode_error(v: &Value) -> Option<Error> {
    let field = |key: &str| v.get(key).and_then(Value::as_u64);
    let kind = ErrorKind::from_tag(v.get("kind")?.as_str()?, field)?;
    let error = Error::new(kind, v.get("message")?.as_str()?);
    Some(match field("source") {
        Some(s) => error.with_source(u32::try_from(s).ok()?),
        None => error,
    })
}
