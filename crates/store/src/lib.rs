//! # ebc-store
//!
//! Out-of-core storage for the framework's per-source betweenness data —
//! the paper's *DO* (disk, no predecessor lists) configuration (§5.1):
//!
//! > "We encode `BD[·]` in binary format on disk. For each source `s`, we
//! > store the data for each other vertex in a columnar fashion, i.e., we
//! > store on disk all the distances, then all the numbers of shortest
//! > paths, and finally the dependency values. [...] We avoid storing the
//! > vertex IDs [...] by storing the data structures sequentially on disk,
//! > and inferring the ID from the order."
//!
//! [`DiskBdStore`] implements this layout behind the same [`BdStore`] trait
//! the in-memory store uses, hardened as **format v2** (DESIGN.md §7):
//!
//! * fixed-width per-vertex encodings ([`CodecKind::Paper`]: 1-byte `d`,
//!   2-byte `σ`, 8-byte `δ` = the paper's 11 B/vertex; [`CodecKind::Wide`]:
//!   lossless 4+8+8 B/vertex, the default);
//! * the `dd == 0` fast path: [`BdStore::peek_pair`] reads just two entries
//!   of the distance column at a constant offset, so unaffected sources are
//!   skipped without touching `σ`/`δ` (§5.1);
//! * **capacity slabs**: records carry headroom for future vertices, so
//!   [`BdStore::grow_vertex`] is a single 8-byte header update until the
//!   headroom is exhausted (amortized O(1) instead of an O(S·n) rewrite);
//! * **batched I/O**: [`BdStore::update_batch`] coalesces one update's
//!   record traffic into run-sorted reads/writes — at most one seek per
//!   contiguous slot run;
//! * **a redo log behind `flush`**: records are updated in place and
//!   un-synced; [`DiskBdStore::flush`] syncs `<path>.redo`, a checksummed
//!   log of the cells each update changed, [`DiskBdStore::fold`] syncs the
//!   data file and empties it, and [`DiskBdStore::open`] replays it;
//! * **crash recovery**: multi-file mutations are guarded by a write-ahead
//!   intent record, and [`DiskBdStore::open`] rolls a torn
//!   `add_source`/re-slab/`remove_source` forward or back (see [`recovery`]);
//! * **one way to seal bytes**: every file the crate writes is a sealed
//!   record ([`write_sealed`]/[`read_sealed`], with a [`Durability`]) or a
//!   frame of an append-only log ([`OpLog`], the redo log); DESIGN.md §7
//!   "Durable artefacts" tabulates them;
//! * v2 is the only record format: `open()` refuses a retired (or unknown)
//!   generation with a typed [`BdError::Corrupt`] that names it;
//! * **per-shard files with source handoff**: a [`ShardSet`] keeps one
//!   store file per shard (`shard-<k>.ebc`, each with its own sidecar and
//!   WAL) plus a versioned map manifest, and moves a source between shards
//!   through a journaled export/import protocol whose `open()` always
//!   converges to exactly-once ownership (see [`shard`]).
//!
//! ## Quickstart
//!
//! ```
//! use ebc_store::{BdStore, CodecKind, DiskBdStore};
//!
//! let dir = std::env::temp_dir().join("ebc_store_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join(format!("quickstart_{}.bd", std::process::id()));
//!
//! // A store for records of 4 vertices; register source 0.
//! let mut store = DiskBdStore::create(&path, 4, CodecKind::Wide)?;
//! store.add_source(0, vec![0, 1, 2, 2], vec![1, 1, 1, 2], vec![0.0; 4])?;
//!
//! // The dd == 0 skip check reads only two distance entries.
//! assert_eq!(store.peek_pair(0, 1, 3)?, (1, 2));
//!
//! // Kernel-style in-place update; the record persists because the
//! // callback reports it dirty.
//! store.update_with(0, &mut |view| {
//!     view.delta[3] = 1.5;
//!     true
//! })?;
//!
//! // A new vertex arriving is O(1) I/O while slab headroom remains.
//! store.grow_vertex()?;
//! assert_eq!(store.n(), 5);
//!
//! store.flush()?;
//! drop(store);
//!
//! // Reopening validates the header, sidecar, and exact file length —
//! // and repairs any mutation a crash tore in half.
//! let store = DiskBdStore::open(&path)?;
//! assert_eq!(store.sources(), vec![0]);
//! assert_eq!(store.last_recovery(), None);
//! # Ok::<(), ebc_store::BdError>(())
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod disk;
pub mod history;
pub mod oplog;
pub mod recovery;
mod redo;
mod seal;
pub mod shard;

pub use codec::CodecKind;
pub use disk::{DiskBdStore, ExportJournal};
pub use history::{HistoryError, HistoryLog, HistoryRecord, HistoryStats};
pub use oplog::OpLog;
pub use recovery::{IntentOp, RecoveryAction};
pub use seal::{read_sealed, write_sealed, Durability};
pub use shard::{HandoffRecovery, ShardSet};

// re-export the trait so downstream users need only this crate
pub use ebc_core::bd::{BatchStats, BdError, BdResult, BdStore, ExportedRecord, SourceViewMut};
