//! # ebc-gen
//!
//! Synthetic graph and update-stream generators reproducing the workloads of
//! the paper's evaluation (§6):
//!
//! * [`models`] — classic random-graph models: Erdős–Rényi, Barabási–Albert,
//!   Watts–Strogatz, **Holme–Kim** powerlaw-cluster (our stand-in for the
//!   Sala et al. measurement-calibrated social-graph generator used for the
//!   paper's synthetic 1k…1000k graphs — it reproduces the three properties
//!   Table 2 reports: skewed degrees, tunable clustering, small diameter),
//!   and a clique-affiliation model for co-authorship-style graphs (dblp).
//! * [`standins`] — per-dataset synthetic stand-ins for the paper's six real
//!   KONECT graphs, at configurable scale (this environment has no network
//!   access; see `DESIGN.md` §4 for the substitution argument).
//! * [`streams`] — update-stream generators: the paper's "100 random
//!   unconnected pairs" addition stream, "100 random existing edges" removal
//!   stream, timestamped replay of a growing graph, and arrival-time
//!   processes for the online experiments (Figure 8 / Table 5).
//!
//! Everything is seeded explicitly (`SmallRng`), so every experiment in the
//! repository is reproducible bit for bit.

pub mod models;
pub mod standins;
pub mod streams;

pub use models::{barabasi_albert, clique_affiliation, erdos_renyi_gnm, holme_kim, watts_strogatz};
pub use standins::{standin, Standin, StandinKind};
pub use streams::{addition_stream, removal_stream, replay_growth};
