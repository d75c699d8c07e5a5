//! `sbc_bench`: the repository's end-to-end benchmark. Five seeded
//! workloads time the public API from outside; a traced pass attributes
//! the time to layers by stack differencing. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root.

pub mod inputs;
pub mod ladder;
pub mod report;
pub mod run;
pub mod stats;
pub mod targets;
pub mod trace;
pub mod workloads;
