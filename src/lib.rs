//! # streaming-bc
//!
//! Reference Rust implementation of **"Scalable Online Betweenness Centrality
//! in Evolving Graphs"** (Kourtellis, De Francisci Morales, Bonchi —
//! ICDE 2016, arXiv:1401.6981).
//!
//! The one entry point is the [`Session`] facade: a [`SessionBuilder`]
//! selects the embodiment — `BD[·]` records in memory or on disk, sources
//! on a single machine or partitioned over `p` workers — and yields one
//! object with one API (`apply`, `apply_stream`, `scores`, `reduce_exact`,
//! `top_k`, `verify`), whatever the backend. Durable sessions restart from
//! their directory via [`Session::open`] **without re-running the Brandes
//! bootstrap**. Every layer, from the graph to the wire, reports a failure
//! as one [`Error`] with one [`ErrorKind`] (DESIGN.md §11 "Errors").
//!
//! ## Quickstart
//!
//! ```
//! use streaming_bc::{Backend, Session, Update};
//! use streaming_bc::graph::Graph;
//!
//! // a square with one diagonal
//! let mut g = Graph::with_vertices(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
//!     g.add_edge(u, v).unwrap();
//! }
//!
//! // one-off Brandes bootstrap (step 1 of the framework) ...
//! let mut session = Session::builder()
//!     .backend(Backend::Memory)
//!     .build(&g)?;
//!
//! // ... then stream updates (step 2): centrality stays current.
//! session.apply(Update::add(1, 3))?;
//! session.apply(Update::remove(0, 2))?;
//!
//! let vbc = session.scores()?.scores.vbc;
//! assert_eq!(vbc.len(), 4);
//! assert!(session.edge_centrality(1, 3)?.unwrap() > 0.0);
//!
//! // the same stream on a 3-worker partitioned session: same API,
//! // bitwise-identical exact scores
//! let mut cluster = Session::builder()
//!     .backend(Backend::Memory)
//!     .workers(3)
//!     .build(&g)?;
//! cluster.apply_stream(&[Update::add(1, 3), Update::remove(0, 2)])?;
//! assert_eq!(session.top_k(2)?, cluster.top_k(2)?);
//! # Ok::<(), streaming_bc::Error>(())
//! ```
//!
//! ## Layer crates
//!
//! The facade re-exports the workspace's layer crates for direct access:
//!
//! * [`graph`] — dynamic undirected graph substrate, statistics, streams,
//!   structural snapshots;
//! * [`gen`] — synthetic graph & update-stream generators;
//! * [`core`] — static Brandes baselines, the incremental VBC/EBC
//!   framework (the paper's contribution) and the shard every embodiment
//!   runs;
//! * [`store`] — out-of-core columnar `BD[·]` storage and per-shard files;
//! * [`engine`] — the shared-nothing parallel / online execution engine
//!   every session drives;
//! * [`gn`] — Girvan–Newman community detection on incremental EBC;
//! * [`serve`] — the network frontend bridge: [`serve::ServedSession`]
//!   plugs a [`Session`] into the `ebc-serve` TCP/unix JSON-line server
//!   (`sbc serve` on the command line, README "Serving" for the wire
//!   protocol quickstart);
//! * [`cluster`] — multi-host shard replication: the node wire protocol,
//!   the coordinator with its versioned shard map, and leader failover
//!   (`sbc node` / `sbc coord` on the command line, DESIGN.md §12).

#![deny(missing_docs)]

pub use ebc_cluster as cluster;
pub use ebc_core as core;
pub use ebc_engine as engine;
pub use ebc_gen as gen;
pub use ebc_gn as gn;
pub use ebc_graph as graph;
pub use ebc_store as store;

pub mod serve;
mod session;

pub use ebc_core::api::{RebalanceOutcome, Reduced, ShardAssignment};
pub use ebc_core::ranking;
pub use ebc_core::state::Update;
pub use ebc_core::{Error, ErrorKind};
pub use ebc_store::HistoryStats;
pub use session::{Backend, Checkpoint, CompactionConfig, Replayed, Session, SessionBuilder};
