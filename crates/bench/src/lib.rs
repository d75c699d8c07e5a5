//! # ebc-bench
//!
//! The harness behind the paper's evaluation (§6): one `paper` binary runs a
//! fixed list of rows (Tables 2-5, Figures 5-9, the rank index and the
//! handoff protocol), writes them to `BENCH_paper.json` and gates their
//! exact counters. `DESIGN.md` §5 is the row index.
//!
//! ```text
//! cargo run --release -p ebc-bench --bin paper -- --smoke   # the CI gate
//! ```
//!
//! [`harness`] measures; [`gate`] compares a measured section with the
//! committed one.

pub mod gate;
pub mod harness;

pub use harness::*;
