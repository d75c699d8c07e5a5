//! # ebc-graph
//!
//! Dynamic undirected graph substrate used by the streaming betweenness
//! centrality framework (Kourtellis et al., ICDE 2016).
//!
//! The paper's reference implementation relies on the JUNG Java library for
//! "basic graph operations and maintenance" (§6). This crate is the Rust
//! equivalent, purpose-built for the access patterns of the framework:
//!
//! * vertex ids are dense `u32` indices, so per-source state can live in flat
//!   arrays (the paper's `BD[s]` columnar layout requires this);
//! * adjacency lists support O(deg) edge insertion/removal and cache-friendly
//!   in-order neighbour scans (the predecessor-free backtracking phase scans
//!   *all* neighbours of a vertex and filters by level, §3);
//! * edges have a canonical 64-bit key mapped to a stable edge slot, so edge
//!   betweenness scores can be kept in a flat vector;
//! * graph statistics needed to reproduce Table 2 (average degree, clustering
//!   coefficient, effective diameter, largest connected component) are
//!   implemented here, and [`io`] reads the plain `u v` edge lists the CLI
//!   takes;
//! * timestamped edge streams ([`stream::EdgeStream`]) model the paper's
//!   evolving-graph input (§5.3, Figure 8);
//! * checksummed structural [`snapshot`]s persist slot assignment, free-list
//!   order and adjacency order, so a durable session restart continues the
//!   exact graph state (not merely the edge set);
//! * [`seal`]/[`unseal`] and [`Cursor`] are how every durable artefact of
//!   the framework checksums and parses its bytes (DESIGN.md §7);
//! * [`Error`] and [`ErrorKind`] are the one error taxonomy every layer
//!   above reports failures in.

mod epoch;
mod error;
pub mod fxhash;
pub mod graph;
pub mod io;
mod seal;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod traversal;

pub use epoch::EpochGraph;
pub use error::{Error, ErrorKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use graph::{EdgeId, EdgeKey, Graph, GraphError, Half, VertexId};
pub use seal::{fnv1a64, seal, unseal, Cursor};
pub use stats::GraphStats;
pub use stream::{EdgeEvent, EdgeOp, EdgeStream};

/// Distance sentinel for unreachable vertices.
///
/// The framework stores distances in fixed-width unsigned integers; `u32::MAX`
/// marks "not reachable from this source" both in memory and on disk.
pub const UNREACHABLE: u32 = u32::MAX;
