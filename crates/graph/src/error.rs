//! One error taxonomy for every layer of the framework.
//!
//! Graph, kernel, stores, cluster engine, fleet, serve frontend and session
//! facade all report a failure as one [`Error`]: an [`ErrorKind`] saying
//! what went wrong and what it left behind, plus the context the raising
//! layer knew — a message, the source vertex a record or move is about,
//! and the [`GraphError`] behind a refused update. A layer adds context
//! ([`Error::within`]) but never changes the kind, so a failure reads the
//! same from a session, from the fleet and on the wire: both wires encode
//! the kind through the one tag table of [`ErrorKind::tag`],
//! [`ErrorKind::fields`] and [`ErrorKind::from_tag`]. DESIGN.md §11
//! "Errors" tabulates the kinds.

use crate::graph::{GraphError, VertexId};
use std::fmt;

/// What went wrong, and so what state the failure left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request is invalid against the current state: an update the
    /// graph refuses ([`Error::graph_error`] says why), a move the shard
    /// map cannot record, a configuration naming no embodiment. Nothing
    /// changed; the engine stays usable.
    Invalid,
    /// The operation exists only on another embodiment. Nothing changed.
    Unsupported,
    /// Bytes or records fail validation: a checksum or structure, a record
    /// whose score terms are not finite ([`Error::source_vertex`] names
    /// it), an exact sum covering the wrong sources, scores that diverged
    /// from recomputation.
    Corrupt,
    /// A session directory's record files own a different source set than
    /// its manifest — a `Checkpoint::Manual` session killed after
    /// un-checkpointed growth. The directory is refused, not resumed.
    RecordsAhead {
        /// Ownership-map version the at-rest manifest recorded.
        manifest_map_version: u64,
        /// Ownership-map version the recovered shard files carry.
        store_version: u64,
        /// Sources in the manifest's graph snapshot (its `n`).
        manifest_sources: usize,
        /// Sources the recovered record files actually own.
        record_sources: usize,
    },
    /// History records `first ..= last` are gone: a deleted segment, or a
    /// replay below a `keep_history = false` truncation point.
    HistoryGap {
        /// First missing seq.
        first: u64,
        /// Last missing seq.
        last: u64,
    },
    /// A node refused a request carrying an older map version than the
    /// `have` it has seen.
    Fenced {
        /// The node's map version.
        have: u64,
    },
    /// A worker, node or shard is gone, or an earlier failure poisoned the
    /// engine: rebuild or reopen.
    Lost,
    /// The operating system refused an I/O operation.
    Io,
    /// The server is draining and refuses new work.
    ShuttingDown,
}

impl ErrorKind {
    /// The kind's wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::Invalid => "invalid",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::RecordsAhead { .. } => "records_ahead",
            ErrorKind::HistoryGap { .. } => "history_gap",
            ErrorKind::Fenced { .. } => "fenced",
            ErrorKind::Lost => "lost",
            ErrorKind::Io => "io",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }

    /// The kind's fields by wire name.
    pub fn fields(self) -> Vec<(&'static str, u64)> {
        match self {
            ErrorKind::RecordsAhead {
                manifest_map_version,
                store_version,
                manifest_sources,
                record_sources,
            } => vec![
                ("manifest_map_version", manifest_map_version),
                ("store_version", store_version),
                ("manifest_sources", manifest_sources as u64),
                ("record_sources", record_sources as u64),
            ],
            ErrorKind::HistoryGap { first, last } => vec![("first", first), ("last", last)],
            ErrorKind::Fenced { have } => vec![("have", have)],
            _ => Vec::new(),
        }
    }

    /// The kind [`ErrorKind::tag`] and [`ErrorKind::fields`] encoded, with
    /// `field` looking a field up by name; `None` for an unknown tag or a
    /// missing field.
    pub fn from_tag(tag: &str, field: impl Fn(&str) -> Option<u64>) -> Option<ErrorKind> {
        let count = |name| field(name).and_then(|x| usize::try_from(x).ok());
        Some(match tag {
            "invalid" => ErrorKind::Invalid,
            "unsupported" => ErrorKind::Unsupported,
            "corrupt" => ErrorKind::Corrupt,
            "records_ahead" => ErrorKind::RecordsAhead {
                manifest_map_version: field("manifest_map_version")?,
                store_version: field("store_version")?,
                manifest_sources: count("manifest_sources")?,
                record_sources: count("record_sources")?,
            },
            "history_gap" => ErrorKind::HistoryGap {
                first: field("first")?,
                last: field("last")?,
            },
            "fenced" => ErrorKind::Fenced {
                have: field("have")?,
            },
            "lost" => ErrorKind::Lost,
            "io" => ErrorKind::Io,
            "shutting_down" => ErrorKind::ShuttingDown,
            _ => return None,
        })
    }
}

/// A failure: its [`ErrorKind`] plus what the raising layer knew. Boxed,
/// so a `Result` carrying it costs one pointer on the per-source store
/// path (`peek_pair`, `update_batch`).
#[derive(Debug, Clone, PartialEq)]
pub struct Error(Box<Inner>);

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    kind: ErrorKind,
    context: String,
    source: Option<VertexId>,
    graph: Option<GraphError>,
}

impl Error {
    /// An error of `kind` described by `context`.
    pub fn new(kind: ErrorKind, context: impl Into<String>) -> Self {
        Error(Box::new(Inner {
            kind,
            context: context.into(),
            source: None,
            graph: None,
        }))
    }

    /// An [`ErrorKind::Invalid`] error.
    pub fn invalid(context: impl Into<String>) -> Self {
        Self::new(ErrorKind::Invalid, context)
    }

    /// An [`ErrorKind::Unsupported`] error.
    pub fn unsupported(context: impl Into<String>) -> Self {
        Self::new(ErrorKind::Unsupported, context)
    }

    /// An [`ErrorKind::Corrupt`] error.
    pub fn corrupt(context: impl Into<String>) -> Self {
        Self::new(ErrorKind::Corrupt, context)
    }

    /// An [`ErrorKind::Lost`] error.
    pub fn lost(context: impl Into<String>) -> Self {
        Self::new(ErrorKind::Lost, context)
    }

    /// Name the source vertex whose record or move this error is about.
    pub fn with_source(mut self, source: VertexId) -> Self {
        self.0.source = Some(source);
        self
    }

    /// Prefix the context with what the caller was doing; the kind stays.
    pub fn within(mut self, what: impl fmt::Display) -> Self {
        self.0.context = format!("{what}: {}", self.0.context);
        self
    }

    /// What went wrong.
    pub fn kind(&self) -> ErrorKind {
        self.0.kind
    }

    /// The raising layer's description.
    pub fn context(&self) -> &str {
        &self.0.context
    }

    /// The source vertex the error is about, when one is to blame.
    pub fn source_vertex(&self) -> Option<VertexId> {
        self.0.source
    }

    /// Why the graph refused an update, for an [`ErrorKind::Invalid`]
    /// raised by a graph mutation.
    pub fn graph_error(&self) -> Option<GraphError> {
        self.0.graph
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        let mut err = Error::invalid(e.to_string());
        err.0.graph = Some(e);
        err
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(ErrorKind::Io, e.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.0.kind.tag(), self.0.context)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_the_tag_table() {
        let kinds = [
            ErrorKind::Invalid,
            ErrorKind::Unsupported,
            ErrorKind::Corrupt,
            ErrorKind::RecordsAhead {
                manifest_map_version: 1,
                store_version: 2,
                manifest_sources: 3,
                record_sources: 4,
            },
            ErrorKind::HistoryGap { first: 5, last: 9 },
            ErrorKind::Fenced { have: 7 },
            ErrorKind::Lost,
            ErrorKind::Io,
            ErrorKind::ShuttingDown,
        ];
        for kind in kinds {
            let fields = kind.fields();
            let field = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
            assert_eq!(ErrorKind::from_tag(kind.tag(), field), Some(kind));
        }
        assert_eq!(ErrorKind::from_tag("engine", |_| None), None);
        assert_eq!(ErrorKind::from_tag("fenced", |_| None), None);
    }

    #[test]
    fn a_graph_error_is_invalid_with_its_detail() {
        let e = Error::from(GraphError::DuplicateEdge(0, 1)).within("apply");
        assert_eq!(e.kind(), ErrorKind::Invalid);
        assert_eq!(e.graph_error(), Some(GraphError::DuplicateEdge(0, 1)));
        assert_eq!(e.to_string(), "invalid: apply: edge (0,1) already exists");
        assert_eq!(e.with_source(3).source_vertex(), Some(3));
    }
}
