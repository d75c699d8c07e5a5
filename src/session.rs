//! The unified `Session` facade: one builder, one engine, one
//! durable-restart story for every embodiment of the framework.
//!
//! The paper presents a single algorithm with interchangeable embodiments —
//! `BD[·]` in memory or on disk, sources on one machine or partitioned over
//! `p` workers. A [`SessionBuilder`] picks where the records live
//! ([`Backend::Memory`] or [`Backend::Disk`]), the worker count and the
//! durability policy, and [`SessionBuilder::build`] yields one [`Session`]
//! driving a `p`-shard `ClusterEngine` — the single machine is its
//! one-shard case:
//!
//! ```
//! use streaming_bc::{Backend, Session, Update};
//! use streaming_bc::graph::Graph;
//!
//! let mut g = Graph::with_vertices(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
//!     g.add_edge(u, v).unwrap();
//! }
//! let mut session = Session::builder()
//!     .backend(Backend::Memory)
//!     .workers(3)
//!     .build(&g)?;
//! session.apply(Update::add(1, 3))?;
//! session.apply(Update::remove(0, 2))?;
//! assert_eq!(session.top_k(2)?.len(), 2);
//! # Ok::<(), streaming_bc::Error>(())
//! ```
//!
//! ## Durable sessions and re-bootstrap-free restart
//!
//! A [`Backend::Disk`] session lives in a **session directory** holding a
//! `ShardSet` of `BD[·]` store files — one per worker, each stamped with
//! the session id in its header — plus the directory's one manifest, a
//! checksummed `session.manifest` recording the worker count, the session
//! id, the ownership-map version and the seq ahead of a structural graph
//! snapshot (exact edge-slot assignment, free-list order and adjacency
//! order — see [`ebc_graph::snapshot`]).
//! [`Session::open`] rebuilds the whole session from that directory after a
//! crash or shutdown **without re-running the Brandes bootstrap**: the
//! store layer's recovery settles the records (`ShardSet::open`), the graph
//! is restored from the snapshot, and each shard rehydrates its partial
//! scores from its own recovered records (`ClusterEngine::resume`). The
//! resumed session's [`Session::reduce_exact`] is bitwise identical to the
//! pre-kill value.
//!
//! DESIGN.md §9 documents the directory layout, the manifest format and the
//! resume protocol in full.
//!
//! Every method fails with the one [`Error`] of the framework, whose
//! [`ErrorKind`] is the same whichever backend raised it: a refused update
//! or configuration is `Invalid`, an operation another backend offers is
//! `Unsupported`, and reopening a directory can add `Corrupt`,
//! `RecordsAhead` and `HistoryGap` (DESIGN.md §11 "Errors").

use ebc_core::api::{RebalanceOutcome, Reduced, ShardAssignment};
use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::shard::ShardState;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::{self, Divergence};
use ebc_core::{Error, ErrorKind};
use ebc_engine::{ClusterEngine, Folded};
use ebc_graph::{fnv1a64, Cursor, Graph, VertexId};
use ebc_store::history::{HistoryLog, HistoryStats};
use ebc_store::{read_sealed, write_sealed, CodecKind, Durability, ShardSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Name of the session manifest inside a durable session directory.
const MANIFEST_NAME: &str = "session.manifest";
/// Magic of the sealed session manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"EBCSESS5";
/// Sealed copy of the bootstrap graph snapshot — the replay engine's
/// genesis state (see [`Session::replay_to`]).
const GENESIS_NAME: &str = "genesis.snap";
/// Magic of the sealed genesis file.
const GENESIS_MAGIC: &[u8; 8] = b"EBCGNSS1";

/// Where a session keeps its `BD[·]` records — the paper's MO vs. DO axis.
/// Either runs at any worker count ([`SessionBuilder::workers`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// Everything resident (the paper's MO configuration). Not durable:
    /// [`Session::open`] cannot restore a memory session.
    Memory,
    /// Out-of-core records (DO) in the given session directory, one store
    /// file per worker laid out as a [`ShardSet`] (`shard-<k>.ebc`);
    /// durable and restartable.
    Disk(PathBuf),
}

/// When a durable session rewrites its manifest (graph snapshot + map
/// version) and flushes its stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Checkpoint {
    /// After every [`Session::apply`] and at the end of every
    /// [`Session::apply_stream`] batch — a kill between calls always
    /// reopens cleanly. The default for durable backends.
    #[default]
    EveryApply,
    /// Only on explicit [`Session::checkpoint`] (and at build time). Fastest
    /// streaming; the directory reopens only at a checkpoint. Updates
    /// applied after the last one are journaled and written to the
    /// records, so a session dropped or killed with such a tail leaves a
    /// directory [`Session::open`] refuses as `RecordsAhead`.
    Manual,
}

/// Retention policy of a durable session's update history (DESIGN.md §14).
///
/// Every applied update is journaled into the session directory's history
/// WAL. At checkpoint time, once the live WAL outgrows
/// `max_live_wal_bytes`, the checkpointed prefix is **compacted**: sealed
/// into an immutable checksummed segment when `keep_history` is `true`
/// (enabling [`Session::replay_to`] back to seq 1), or discarded outright
/// when it is `false` (bounded disk, no time travel). Either way the live
/// WAL stays bounded by roughly `max_live_wal_bytes` plus one
/// checkpoint interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Seal compacted prefixes into replayable history segments (`true`,
    /// the default) instead of discarding them (`false`).
    pub keep_history: bool,
    /// Compact at the first checkpoint after the live history WAL exceeds
    /// this many bytes. `0` compacts at every checkpoint.
    pub max_live_wal_bytes: u64,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            keep_history: true,
            max_live_wal_bytes: 1 << 20,
        }
    }
}

/// Configures and builds a [`Session`] — the one constructor for every
/// embodiment (see the module docs).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    backend: Backend,
    workers: usize,
    checkpoint: Checkpoint,
    compaction: CompactionConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            backend: Backend::Memory,
            workers: 1,
            checkpoint: Checkpoint::default(),
            compaction: CompactionConfig::default(),
        }
    }
}

impl SessionBuilder {
    /// A builder with the defaults: in-memory backend, one worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the storage backend (see [`Backend`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Number of map-phase workers `p`: the engine's shards, each owning a
    /// source partition. `p == 1` is the single machine (its one shard runs
    /// on the calling thread); `p > 1` runs shards `1..p` on scoped threads
    /// per call and enables handoffs and rebalancing.
    pub fn workers(mut self, p: usize) -> Self {
        self.workers = p;
        self
    }

    /// Durability policy for disk-backed backends (see [`Checkpoint`]).
    pub fn checkpoint(mut self, policy: Checkpoint) -> Self {
        self.checkpoint = policy;
        self
    }

    /// History retention and compaction policy for disk-backed backends
    /// (see [`CompactionConfig`]; ignored by [`Backend::Memory`], which
    /// keeps no history).
    pub fn compaction(mut self, cfg: CompactionConfig) -> Self {
        self.compaction = cfg;
        self
    }

    /// Bootstrap a session over `graph`: one Brandes pass over every source
    /// (step 1 of the framework), records landing in the configured
    /// backend. For durable backends the session directory is created and
    /// the initial manifest checkpointed, so the session is
    /// [`Session::open`]-able from that moment on.
    pub fn build(self, graph: &Graph) -> Result<Session, Error> {
        let SessionBuilder {
            backend,
            workers,
            checkpoint,
            compaction,
        } = self;
        if workers == 0 {
            return Err(Error::invalid(
                "workers(0): a session needs at least one worker",
            ));
        }
        let dir = match backend {
            Backend::Memory => {
                let engine = ClusterEngine::new_with(graph, workers, |_shard, n| {
                    Ok(Box::new(MemoryBdStore::new(n)) as Box<dyn BdStore>)
                })?;
                return Ok(Session::over(engine, None, 0));
            }
            Backend::Disk(dir) => dir,
        };
        std::fs::create_dir_all(&dir)?;
        let snapshot = graph.snapshot_bytes();
        let session_id = fnv1a64(&snapshot);
        // one store file per worker, bound to this session before the
        // engine takes them over; each starts at the paper's narrow cells
        // and widens itself the first time one does not fit
        let mut set = ShardSet::create(&dir, graph.n(), workers, CodecKind::Paper)?;
        set.set_graph_stamp(session_id)?;
        let mut stores = set.into_stores().into_iter();
        let engine = ClusterEngine::new_with(graph, workers, |_shard, _n| {
            let store = stores
                .next()
                .ok_or_else(|| Error::corrupt("shard/worker count mismatch"))?;
            Ok(Box::new(store) as Box<dyn BdStore>)
        })?;
        // seal the genesis snapshot and start the update history: replay
        // reconstructs scores-at-seq from exactly these two
        write_sealed(
            &dir.join(GENESIS_NAME),
            GENESIS_MAGIC,
            &snapshot,
            Durability::PowerLoss,
        )?;
        let history = HistoryLog::create(&dir, compaction.keep_history)?;
        let durable = Durable {
            dir,
            checkpoint,
            compaction,
            session_id,
            history,
        };
        let mut session = Session::over(engine, Some(durable), 0);
        session.checkpoint()?;
        Ok(session)
    }
}

/// Durability bookkeeping of a disk-backed session.
struct Durable {
    dir: PathBuf,
    checkpoint: Checkpoint,
    compaction: CompactionConfig,
    /// Checksum of the *bootstrap* graph snapshot — the session's identity,
    /// also stamped into every store header so a foreign manifest cannot be
    /// combined with this directory's stores.
    session_id: u64,
    /// The update history journal: every session directory has one.
    history: HistoryLog,
}

/// Parsed `session.manifest` contents.
struct Manifest {
    workers: u64,
    session_id: u64,
    map_version: u64,
    /// Updates applied when the manifest was written.
    seq: u64,
    snapshot: Vec<u8>,
}

/// Atomically rewrite `d`'s sealed manifest for `engine` at `seq`: four
/// `u64`s (workers, session id, map version, seq), then the graph snapshot.
fn write_manifest(d: &Durable, engine: &Engine, seq: u64) -> Result<(), Error> {
    let (workers, map_version) = (engine.num_workers() as u64, engine.shard_map().version());
    let mut buf = Vec::new();
    for x in [workers, d.session_id, map_version, seq] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.extend_from_slice(&engine.graph().snapshot_bytes());
    let path = d.dir.join(MANIFEST_NAME);
    write_sealed(&path, MANIFEST_MAGIC, &buf, Durability::ProcessKill)?;
    Ok(())
}

/// Read and parse `dir`'s sealed manifest.
fn read_manifest(dir: &Path) -> Result<Manifest, Error> {
    let body =
        read_sealed(&dir.join(MANIFEST_NAME), MANIFEST_MAGIC).map_err(|e| match e.kind() {
            ErrorKind::Io => Error::corrupt(format!(
                "no session manifest in {}: {}",
                dir.display(),
                e.context()
            )),
            _ => e,
        })?;
    let mut cur = Cursor::new(&body);
    let manifest = Manifest {
        workers: cur.u64()?,
        session_id: cur.u64()?,
        map_version: cur.u64()?,
        seq: cur.u64()?,
        snapshot: cur.rest().to_vec(),
    };
    if manifest.workers == 0 {
        return Err(Error::corrupt("session manifest names 0 workers"));
    }
    Ok(manifest)
}

/// The engine every session drives: `p` local shards over type-erased stores
/// (the `Box` forwards every store method, so a disk store's export
/// journal and durable flush survive the erasure).
type Engine = ClusterEngine<ShardState<Box<dyn BdStore>>>;

/// One online-betweenness session over an evolving graph — the facade's
/// single entry point for every embodiment (see the module docs).
pub struct Session {
    engine: Engine,
    durable: Option<Durable>,
    /// Incrementally maintained score order, refreshed lazily from the
    /// engine's score deltas on ranked reads (`top_k`, `rank_of`,
    /// `percentile`) — so the write path never pays a reduce for it.
    rank: RankIndex,
    /// Updates applied over this session's lifetime (sealed + live).
    seq: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("workers", &self.engine.num_workers())
            .field("n", &self.engine.graph().n())
            .field("m", &self.engine.graph().m())
            .field("dir", &self.durable.as_ref().map(|d| d.dir.display()))
            .finish()
    }
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    fn over(engine: Engine, durable: Option<Durable>, seq: u64) -> Session {
        Session {
            engine,
            durable,
            rank: RankIndex::new(),
            seq,
        }
    }

    /// Reopen a durable session directory — the re-bootstrap-free restart.
    ///
    /// Reads the checksummed manifest, restores the graph from its embedded
    /// structural snapshot, lets the store layer recover the `BD[·]` files
    /// (rolling forward/back any mutation a kill tore in half), and
    /// rehydrates the engine from the recovered records: no Brandes
    /// iteration runs ([`Session::brandes_runs`] reports `Some(0)`), and
    /// [`Session::reduce_exact`] is bitwise identical to the pre-kill
    /// scores. The path: the stores' session stamp and their count
    /// against the session manifest, the `RecordsAhead` census (the
    /// record files' source set and the history's last seq against the
    /// manifest's), then the engine.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Session, Error> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir)?;
        let graph = Graph::from_snapshot_bytes(&manifest.snapshot)?;
        // Recover the update history first: a gap (deleted segment) is a
        // typed refusal before any store is touched, and an interrupted
        // seal/truncate is finished here.
        let history = HistoryLog::open(&dir)?;
        let compaction = CompactionConfig {
            keep_history: history.keep_history(),
            ..CompactionConfig::default()
        };
        let set = ShardSet::open(&dir)
            .map_err(|e| e.within(format!("shard files in {}", dir.display())))?;
        if set.graph_stamp() != manifest.session_id {
            return Err(Error::corrupt(format!(
                "shard files belong to session {:016x}, manifest names {:016x}",
                set.graph_stamp(),
                manifest.session_id
            )));
        }
        if set.num_shards() as u64 != manifest.workers {
            return Err(Error::corrupt(format!(
                "{} shard files for a {}-worker session",
                set.num_shards(),
                manifest.workers
            )));
        }
        // A session killed after un-checkpointed updates leaves a
        // write-ahead history past the manifest's seq, and its record files
        // hold those updates too — after growth they own sources the
        // manifest's graph snapshot has never heard of (or vice versa when
        // a manifest is grafted in). Pairing them would run new records
        // against a stale graph: detect and report, never silently resume.
        // Version-only skew (same source set, the map merely ahead of the
        // at-rest manifest after live handoffs) stays resumable below.
        let record_sources: usize = set.assignment().iter().map(Vec::len).sum();
        let history_seq = history.last_seq();
        if record_sources != graph.n() || history_seq > manifest.seq {
            let manifest_map_version = manifest.map_version;
            let census = ErrorKind::RecordsAhead {
                manifest_map_version,
                manifest_sources: graph.n(),
                record_sources,
            };
            return Err(Error::new(
                census,
                format!(
                    "records are ahead of the manifest: stores own {record_sources} sources \
                     and the history runs to seq {history_seq}, \
                     manifest snapshot has {} (map v{manifest_map_version}) at seq {} — a \
                     Checkpoint::Manual session died after un-checkpointed updates",
                    graph.n(),
                    manifest.seq
                ),
            ));
        }
        // Live handoffs commit their map version to the session manifest at
        // checkpoint; a handoff the kill cut short and `ShardSet::open`
        // rolled forward adds its own commit.
        let rolled_forward = set.rolled_forward();
        let version = manifest.map_version + rolled_forward;
        let stores = set
            .into_stores()
            .into_iter()
            .map(|store| Box::new(store) as Box<dyn BdStore>)
            .collect();
        let engine = ClusterEngine::resume(&graph, stores, version)?;
        let durable = Durable {
            dir,
            checkpoint: Checkpoint::EveryApply,
            compaction,
            session_id: manifest.session_id,
            history,
        };
        if rolled_forward > 0 {
            // the recovered journals are gone: record their commits now, or
            // a second open would resume at the pre-move version
            write_manifest(&durable, &engine, manifest.seq)?;
        }
        Ok(Session::over(engine, Some(durable), manifest.seq))
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// Number of map-phase workers (1 for the single machine).
    pub fn workers(&self) -> usize {
        self.engine.num_workers()
    }

    /// The session directory of a durable session, `None` for
    /// [`Backend::Memory`].
    pub fn dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Apply one edge update; durable sessions journal it into the update
    /// history before any shard runs it (write-ahead) and, under
    /// [`Checkpoint::EveryApply`], checkpoint afterwards.
    pub fn apply(&mut self, update: Update) -> Result<(), Error> {
        let mut folded = self.engine.fold(&[update])?;
        if let Some(refused) = folded.refused.take() {
            return Err(refused);
        }
        self.journal_and_run(folded)?;
        self.auto_checkpoint()
    }

    /// Apply a batch of updates in order (every shard runs the accepted
    /// prefix in one round: `ClusterEngine::fold`, the history append,
    /// then `ClusterEngine::run`); durable sessions journal the accepted
    /// prefix into the update history and, under
    /// [`Checkpoint::EveryApply`], checkpoint once at the end of the batch.
    ///
    /// On a mid-batch validation error the accepted prefix still runs
    /// (and its record writes are durable), so exactly that prefix is
    /// journaled and the checkpoint runs *before* the error is returned —
    /// the manifest always covers what the stores hold. A shard failure
    /// poisons the engine; the checkpoint then fails too and the original
    /// error wins.
    pub fn apply_stream(&mut self, updates: &[Update]) -> Result<(), Error> {
        let (ran, refused) = match self.engine.fold(updates) {
            Ok(mut folded) => {
                let refused = folded.refused.take();
                (self.journal_and_run(folded), refused)
            }
            Err(e) => (Err(e), None),
        };
        let checkpointed = self.auto_checkpoint();
        ran?;
        refused.map_or(Ok(()), Err)?;
        checkpointed
    }

    /// Journal the folded updates into the history WAL, advancing the
    /// session seq, then run them on every shard. The journal is
    /// write-ahead — the order `Coordinator::apply` keeps too — so a kill
    /// between the two leaves a history past the manifest, which
    /// [`Session::open`] refuses. A failed append poisons the engine: its
    /// replica is already ahead of every shard.
    fn journal_and_run(&mut self, folded: Folded) -> Result<(), Error> {
        match &mut self.durable {
            None => self.seq += folded.steps.len() as u64,
            Some(durable) => {
                let map_version = self.engine.shard_map().version();
                for (update, _) in &folded.steps {
                    let seq = self.seq + 1;
                    let appended = durable.history.append(seq, map_version, &update.to_bytes());
                    appended.map_err(|e| self.engine.poison(e))?;
                    self.seq = seq;
                }
            }
        }
        self.engine.run(folded).map(drop)
    }

    /// The fast query path: the shards' incrementally maintained partials
    /// folded in ascending shard order — last-bit dependent on `p`.
    pub fn scores(&mut self) -> Result<Reduced, Error> {
        self.engine.reduce()
    }

    /// The partition-invariant exact reduction: bitwise identical across
    /// embodiments, worker counts and restarts for the same update history.
    pub fn reduce_exact(&mut self) -> Result<Reduced, Error> {
        self.engine.reduce_exact()
    }

    /// Edge betweenness of `{u, v}`, `None` if the edge is absent.
    pub fn edge_centrality(&mut self, u: VertexId, v: VertexId) -> Result<Option<f64>, Error> {
        let reduced = self.engine.reduce()?;
        Ok(reduced.scores.ebc_of(self.graph(), u, v))
    }

    /// The `k` currently most central vertices, ties toward smaller id.
    ///
    /// Served from the session's incrementally maintained
    /// [`RankIndex`] in `O(k + log n)` after an `O(changed)` refresh —
    /// bitwise the same list [`ebc_core::ranking::top_k`] would produce
    /// from a fresh [`Session::scores`] read, without the per-query
    /// re-sort.
    pub fn top_k(&mut self, k: usize) -> Result<Vec<VertexId>, Error> {
        self.refresh_rank()?;
        Ok(self.rank.top_k(k))
    }

    /// 1-based rank of `v` in the current centrality order (1 = most
    /// central, ties toward smaller id); `None` for an unknown vertex.
    /// `O(log n)` after the delta refresh.
    pub fn rank_of(&mut self, v: VertexId) -> Result<Option<usize>, Error> {
        self.refresh_rank()?;
        Ok(self.rank.rank_of(v))
    }

    /// Fraction of vertices ranked at or below `v` — `1.0` for the
    /// current leader, `1/n` for the last place; `None` for an unknown
    /// vertex. `O(log n)` after the delta refresh.
    pub fn percentile(&mut self, v: VertexId) -> Result<Option<f64>, Error> {
        self.refresh_rank()?;
        Ok(self.rank.percentile(v))
    }

    /// Drain the engine's score delta since the last drain, folding it
    /// into the session's own [`RankIndex`] before handing it to a caller
    /// that maintains an index of its own.
    pub fn take_score_delta(&mut self) -> Result<ScoreDelta, Error> {
        let delta = self.engine.take_score_delta()?;
        self.rank.apply(&delta);
        Ok(delta)
    }

    /// A read-only view of the session's rank index, refreshed to the
    /// engine's current scores. A clone of it is an `O(1)` immutable
    /// snapshot — what a served session publishes to its readers.
    pub fn rank_index(&mut self) -> Result<&RankIndex, Error> {
        self.refresh_rank()?;
        Ok(&self.rank)
    }

    fn refresh_rank(&mut self) -> Result<(), Error> {
        self.take_score_delta().map(drop)
    }

    /// Compare the session's exact scores against a fresh Brandes
    /// recomputation on the current graph; the scores are `Corrupt` beyond
    /// `tol`.
    pub fn verify(&mut self, tol: f64) -> Result<Divergence, Error> {
        let reduced = self.engine.reduce_exact()?;
        verify::check(self.graph(), &reduced.scores, tol)
    }

    /// Brandes single-source iterations this session's engine has run —
    /// `n` after a fresh bootstrap (plus one per arrived vertex), **0**
    /// right after [`Session::open`] (the witness that restart skipped the
    /// bootstrap). Every embodiment counts, so this is always `Some`.
    pub fn brandes_runs(&self) -> Option<u64> {
        Some(self.engine.brandes_runs())
    }

    /// The engine for ownership move `op`, or `Unsupported` on a
    /// one-worker session: a single machine has no second shard to move a
    /// source to.
    fn movable(&mut self, op: &str) -> Result<&mut Engine, Error> {
        match self.engine.num_workers() {
            1 => Err(Error::unsupported(format!(
                "{op} requires a sharded engine (workers > 1)"
            ))),
            _ => Ok(&mut self.engine),
        }
    }

    /// The current source→shard ownership of a partitioned session — which
    /// worker owns which sources, and the version of the map that says so.
    /// `None` for a one-worker session (one store, ownership never moves).
    ///
    /// ```
    /// use streaming_bc::{Backend, Session, Update};
    /// use streaming_bc::graph::Graph;
    ///
    /// let mut g = Graph::with_vertices(6);
    /// for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
    ///     g.add_edge(u, v).unwrap();
    /// }
    /// let mut session = Session::builder()
    ///     .backend(Backend::Memory)
    ///     .workers(3)
    ///     .build(&g)?;
    ///
    /// // 6 sources partitioned over 3 workers, evenly at bootstrap
    /// let map = session.shard_map().expect("partitioned session");
    /// assert_eq!(map.assignment.len(), 3);
    /// assert_eq!(map.total(), 6);
    ///
    /// // drain worker 0 onto worker 1, then let rebalance restore the skew
    /// for s in map.assignment[0].clone() {
    ///     session.handoff(s, 1)?;
    /// }
    /// let outcome = session.rebalance(1)?;
    /// assert!(!outcome.moves.is_empty());
    /// assert!(session.shard_map().unwrap().skew() <= 1);
    ///
    /// // ownership moves are score-neutral
    /// session.apply(Update::add(0, 3))?;
    /// session.verify(1e-9)?;
    /// # Ok::<(), streaming_bc::Error>(())
    /// ```
    pub fn shard_map(&self) -> Option<ShardAssignment> {
        let map = self.engine.shard_map();
        (map.num_shards() > 1).then(|| ShardAssignment {
            version: map.version(),
            assignment: (0..map.num_shards())
                .map(|k| map.sources_of(k).to_vec())
                .collect(),
        })
    }

    /// The version of [`Session::shard_map`] alone, without materializing
    /// the assignment. `None` for a one-worker session.
    pub fn shard_map_version(&self) -> Option<u64> {
        let map = self.engine.shard_map();
        (map.num_shards() > 1).then(|| map.version())
    }

    /// Hand ownership of `source` to worker `to` (an explicit, out-of-plan
    /// move — e.g. draining a worker before maintenance). Score-neutral;
    /// durable sessions under [`Checkpoint::EveryApply`] checkpoint the
    /// advanced map version afterwards. `Unsupported` on a one-worker
    /// session. See [`Session::shard_map`] for a worked example.
    pub fn handoff(&mut self, source: VertexId, to: usize) -> Result<RebalanceOutcome, Error> {
        let outcome = self.movable("handoff")?.handoff(source, to)?;
        self.auto_checkpoint()?;
        Ok(outcome)
    }

    /// Restore the owned-source skew invariant `max − min ≤ threshold`
    /// through the engine's journaled handoff path, returning the executed
    /// moves. Score-neutral; durable sessions under
    /// [`Checkpoint::EveryApply`] checkpoint afterwards so the manifest
    /// records the advanced map version. `Unsupported` on a one-worker
    /// session.
    pub fn rebalance(&mut self, threshold: usize) -> Result<RebalanceOutcome, Error> {
        let outcome = self.movable("rebalance")?.rebalance(threshold)?;
        self.auto_checkpoint()?;
        Ok(outcome)
    }

    /// Change the durability policy of a durable session (no effect on
    /// memory sessions); reopened sessions default to
    /// [`Checkpoint::EveryApply`].
    pub fn set_checkpoint(&mut self, policy: Checkpoint) {
        if let Some(d) = &mut self.durable {
            d.checkpoint = policy;
        }
    }

    /// Checkpoint a durable session now: flush every store, sync the
    /// history WAL, atomically rewrite the manifest with the current graph
    /// snapshot, ownership map version and seq — then, if the live history
    /// WAL has outgrown [`CompactionConfig::max_live_wal_bytes`], compact
    /// the freshly checkpointed prefix (seal it into a history segment, or
    /// discard it under `keep_history = false`) and truncate the live WAL.
    /// No-op for memory sessions.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        let Some(durable) = &mut self.durable else {
            return Ok(());
        };
        self.engine.flush()?;
        durable.history.sync()?;
        write_manifest(durable, &self.engine, self.seq)?;
        // Compaction rides the checkpoint: everything ≤ self.seq is now
        // covered by the manifest, so the prefix is sealed exactly at the
        // checkpoint boundary — never past it.
        if durable.history.live_bytes() >= durable.compaction.max_live_wal_bytes {
            durable.history.seal_upto(self.seq)?;
        }
        Ok(())
    }

    fn auto_checkpoint(&mut self) -> Result<(), Error> {
        match &self.durable {
            Some(d) if d.checkpoint == Checkpoint::EveryApply => self.checkpoint(),
            _ => Ok(()),
        }
    }

    /// Updates applied over this session's lifetime — the seq the next
    /// update will extend. Survives restarts of durable sessions.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Byte accounting of the session's update history — live WAL bytes,
    /// sealed segment bytes, segment count, last compaction seq. `None`
    /// for memory sessions.
    pub fn history_stats(&self) -> Option<HistoryStats> {
        self.durable.as_ref().map(|d| d.history.stats())
    }

    /// Reconstruct the exact scores this session reported at history seq
    /// `seq` — the temporal-analytics read path.
    ///
    /// Replays records `1..=seq` (sealed segments + live WAL) through a
    /// fresh single-machine [`BetweennessState`] bootstrapped from the
    /// sealed genesis snapshot, then runs the partition-invariant exact
    /// reduction. Because `reduce_exact` is bitwise identical across
    /// embodiments, worker counts and restarts for the same update
    /// history, the returned scores are **bitwise equal** to what
    /// [`Session::reduce_exact`] returned live at that seq — regardless of
    /// backend, shard count, or how many compactions have run since.
    ///
    /// Errors with `HistoryGap` when the requested range reaches below a
    /// `keep_history = false` truncation point, and is `Unsupported` on
    /// memory sessions.
    pub fn replay_to(&self, seq: u64) -> Result<Reduced, Error> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| Error::unsupported("memory sessions keep no history to replay"))?;
        let records = durable.history.records_upto(seq)?;
        Ok(replay_records(&durable.dir, &records)?.1)
    }

    /// [`Session::replay_to`] against a session directory on disk, without
    /// opening (or locking) the stores — what `sbc replay` runs. `at =
    /// None` replays the full history. Returns the replayed seq alongside
    /// the reduction.
    pub fn replay_dir<P: AsRef<Path>>(dir: P, at: Option<u64>) -> Result<Replayed, Error> {
        let dir = dir.as_ref();
        // a sound manifest vouches that `dir` is a session directory; the
        // replay itself reads only the genesis snapshot and the history
        read_manifest(dir)?;
        let history = HistoryLog::open(dir)?;
        let seq = at.unwrap_or_else(|| history.last_seq());
        let records = history.records_upto(seq)?;
        let (graph, reduced) = replay_records(dir, &records)?;
        Ok(Replayed {
            seq,
            graph,
            reduced,
        })
    }
}

/// Outcome of [`Session::replay_dir`]: the seq the replay reached, the
/// reconstructed graph at that seq, and the exact reduction over it.
#[derive(Debug)]
pub struct Replayed {
    /// The history seq the replay stopped at.
    pub seq: u64,
    /// The graph as it stood at that seq.
    pub graph: Graph,
    /// The exact scores at that seq (bitwise equal to the live session's).
    pub reduced: Reduced,
}

/// Replay decoded history records over the sealed genesis snapshot and
/// reduce exactly (see [`Session::replay_to`] for the bitwise argument).
fn replay_records(
    dir: &Path,
    records: &[ebc_store::HistoryRecord],
) -> Result<(Graph, Reduced), Error> {
    let genesis = read_sealed(&dir.join(GENESIS_NAME), GENESIS_MAGIC)?;
    let graph = Graph::from_snapshot_bytes(&genesis)?;
    let mut state = BetweennessState::new(&graph);
    for rec in records {
        let mut cur = Cursor::new(&rec.payload);
        let update = Update::read_from(&mut cur)?;
        cur.finish()?;
        state.apply(update)?;
    }
    let t0 = std::time::Instant::now();
    let scores = state.exact_scores()?;
    let reduced = Reduced {
        scores,
        wall: t0.elapsed(),
    };
    Ok((state.graph().clone(), reduced))
}
