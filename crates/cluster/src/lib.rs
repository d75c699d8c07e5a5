//! # ebc-cluster
//!
//! Multi-host shard cluster for streaming betweenness centrality: a
//! shard-node wire protocol layered on the serve crate's line codec, a
//! coordinator that is the `ebc-engine` `ClusterEngine` over remote shards
//! (each a replication group behind one link holding leases, failover and
//! the fencing token), and per-shard op replication with leader failover —
//! DESIGN.md §12.
//!
//! The crate is transport-agnostic: nodes speak [`wire::NodeMsg`] frames
//! through the [`transport::Transport`] trait, whose in-process test
//! embodiment ([`transport::TestNet`]) supports deterministic, seed-driven
//! drop/duplicate/delay/partition injection, and whose TCP embodiment
//! powers `sbc node` / `sbc coord`.

#![deny(missing_docs)]

pub mod coord;
pub mod journal;
pub mod node;
pub mod remote;
pub mod sim;
pub mod transport;
pub mod wire;

pub use coord::{CoordEvent, Coordinator, CoordinatorConfig, ShardSpec};
pub use journal::{CoordJournal, CoordSnapshot, FleetState};
pub use node::{KillSpec, KillWindow, NodeConfig, ShardNode};
pub use remote::RemoteShard;
pub use sim::{HeadlessSim, SimBuilder, SimCluster};
pub use transport::{FaultSpec, Mailbox, TcpTransport, TestNet, Transport};
pub use wire::{NodeId, Role, COORD};
