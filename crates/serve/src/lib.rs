//! # ebc-serve
//!
//! The network frontend that turns the streaming-betweenness engine from a
//! library into a system: a server speaking a newline-delimited JSON
//! command protocol over **TCP and unix sockets**, with
//!
//! * a single writer task owning the update path behind a **bounded**
//!   job queue (backpressure reaches the client through the transport),
//! * **snapshot-consistent reads** that never block writers (`scores`,
//!   `top_k`, `stats` answer from an immutable published snapshot on the
//!   connection thread),
//! * streaming **`subscribe top_k`** delta events after every applied
//!   batch, and
//! * graceful drain on SIGTERM / SIGINT / the `shutdown` command.
//!
//! Layering: [`proto`] frames lines, [`command::parser`] gives them
//! meaning, [`command::handlers`] routes them, [`frontend`] owns sockets,
//! [`server`] owns the writer task. The crate is deliberately independent
//! of the `streaming-bc` facade: the server drives anything implementing
//! [`engine::ServeEngine`] (the facade implements it for `Session`, and a
//! future shard-node wire reuses the codec and transport unchanged).
//! DESIGN.md §11 specifies the wire protocol; the README's "Serving"
//! section has an end-to-end `sbc serve` + `nc` transcript.
//!
//! A request that never reaches the engine fails with a [`WireError`]
//! (`parse`, `protocol`, `unsupported_backend`); an engine failure is the
//! engine's own [`Error`], sent whole by [`encode_error`] — the same object
//! the cluster's node replies carry, so a kind reads the same on both
//! wires (DESIGN.md §11 "Errors").

#![deny(missing_docs)]

pub mod command;
pub mod engine;
pub mod frontend;
pub mod json;
pub mod proto;
pub mod server;
#[cfg(unix)]
pub mod signal;

pub use command::parser::{encode_update, parse_request};
pub use command::{decode_error, encode_error, Command, Request, WireError};
pub use ebc_core::{Error, ErrorKind};
pub use engine::{EngineInfo, ServeEngine};
pub use server::{Server, ServerConfig, ServerHandle, Snapshot};
