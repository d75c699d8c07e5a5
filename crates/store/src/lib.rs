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
//! the in-memory store uses, hardened as **format v3** (DESIGN.md §7). The
//! one departure from the quote: each record carries its source id in an
//! 8-byte prefix, so a store is one data file (plus its redo log) and no
//! separate id table can disagree with it.
//!
//!
//! * **one width ladder**: a store starts at the width it is created with
//!   ([`CodecKind::Paper`]: 1-byte `d`, 2-byte `σ`, 8-byte `δ` = the
//!   paper's 11 B/vertex) and re-slabs its file [`CodecKind::Wide`]
//!   (4+8+8 B/vertex, every value) once, the first time a cell does not
//!   fit — the memory store's re-stride, on disk;
//! * **one record writer**: [`BdStore::update_batch`] walks the sources in
//!   slot order; for each it reads the endpoint span of the distance column
//!   at a constant offset, so a `dd == 0` source is skipped without
//!   touching `σ`/`δ` (§5.1), and otherwise reads the record, runs the
//!   kernel and writes it back, one read and one write per source;
//! * **capacity slabs**: records carry headroom for future vertices, so
//!   [`BdStore::grow_vertex`] is a single 8-byte header update until the
//!   headroom is exhausted (amortized O(1) instead of an O(S·n) rewrite);
//! * **a redo log behind `flush`**: records are updated in place and
//!   un-synced; [`DiskBdStore::flush`] syncs `<path>.redo`, a checksummed
//!   log of the cells each update changed, [`DiskBdStore::fold`] syncs the
//!   data file and empties it, and [`DiskBdStore::open`] replays it;
//! * **crash recovery without a journal**: the header's in-place `count`
//!   write commits every `add_source` and `remove_source`, a re-slab is a
//!   staged file renamed over the data file, and [`DiskBdStore::open`]
//!   drops a torn tail or finishes a cut-short swap-remove
//!   ([`RecoveryAction`]);
//! * **one way to seal bytes**: every file the crate writes is a sealed
//!   record ([`write_sealed`]/[`read_sealed`], with a [`Durability`]) or a
//!   frame of an append-only log ([`OpLog`], the redo log); DESIGN.md §7
//!   "Durable artefacts" tabulates them;
//! * v3 is the only record format: `open()` refuses a retired (or unknown)
//!   generation with a typed `Corrupt` [`Error`] that names it;
//! * **per-shard files with handoff recovery**: a [`ShardSet`] keeps one
//!   store file per shard (`shard-<k>.ebc` and its `.redo`, the session
//!   stamp in its header) and no manifest; the engine
//!   moves a source through each store's journaled export and the
//!   recipient's import, and `ShardSet::open` always converges a torn move
//!   to exactly-once ownership (see [`shard`]).
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
//! // A kernel-style update of edge {1, 3}: source 0 has d[1] != d[3], so
//! // it is not skipped, and the cell its callback lists persists.
//! let skipped = store.update_batch(1, 3, &mut |_, view| {
//!     view.delta[3] = 1.5;
//!     view.wrote.unwrap().push(3);
//!     Ok(())
//! })?;
//! assert_eq!(skipped, 0);
//!
//! // Every other caller reads.
//! store.read(0, &mut |_, _, delta| assert_eq!(delta[3], 1.5))?;
//!
//! // A new vertex arriving is O(1) I/O while slab headroom remains.
//! store.grow_vertex()?;
//! assert_eq!(store.n(), 5);
//!
//! store.flush()?;
//! drop(store);
//!
//! // Reopening validates the header, the file length and the record ids —
//! // and repairs any add or remove a crash tore in half.
//! let store = DiskBdStore::open(&path)?;
//! assert_eq!(store.sources(), vec![0]);
//! assert_eq!(store.last_recovery(), None);
//! # Ok::<(), ebc_store::Error>(())
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod disk;
pub mod history;
pub mod oplog;
mod redo;
mod seal;
pub mod shard;

pub use codec::CodecKind;
pub use disk::{DiskBdStore, RecoveryAction};
pub use history::{HistoryLog, HistoryRecord, HistoryStats};
pub use oplog::OpLog;
pub use seal::{read_sealed, write_sealed, Durability};
pub use shard::{HandoffRecovery, ShardSet};

// re-export the trait so downstream users need only this crate
pub use ebc_core::bd::{BdResult, BdStore, ExportedRecord, SourceViewMut};
pub use ebc_core::{Error, ErrorKind};
