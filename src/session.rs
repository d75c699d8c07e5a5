//! The unified `Session` facade: one builder, one engine, one
//! durable-restart story for every embodiment of the framework.
//!
//! The paper presents a single algorithm with interchangeable embodiments —
//! `BD[·]` in memory or on disk, sources on one machine or partitioned over
//! `p` workers. A [`SessionBuilder`] picks where the records live
//! ([`Backend::Memory`] or [`Backend::Disk`]), the worker count, the kernel
//! configuration and the durability policy, and [`SessionBuilder::build`]
//! yields one [`Session`] driving a `p`-shard `ClusterEngine` — the single
//! machine is its one-shard case:
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
//! `ShardSet` of `BD[·]` store files — one per worker — plus a checksummed
//! `session.manifest` that embeds a structural graph snapshot (exact
//! edge-slot assignment, free-list order and adjacency order — see
//! [`ebc_graph::snapshot`]) and the ownership-map version.
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
use ebc_core::incremental::UpdateConfig;
use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::ranking;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::{self, Divergence};
use ebc_core::{Error, ErrorKind};
use ebc_engine::ClusterEngine;
use ebc_graph::{fnv1a64, Cursor, Graph, VertexId};
use ebc_store::history::{HistoryLog, HistoryStats};
use ebc_store::{read_sealed, write_sealed, CodecKind, Durability, ShardSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Name of the session manifest inside a durable session directory.
const MANIFEST_NAME: &str = "session.manifest";
/// Magic of the sealed session manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"EBCSESS3";
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
    /// file per worker laid out as a [`ShardSet`] (`shard-<k>.ebc` + shard
    /// manifest); durable and restartable.
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
    /// streaming; a kill loses updates since the last checkpoint.
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
    cfg: UpdateConfig,
    codec: CodecKind,
    checkpoint: Checkpoint,
    compaction: CompactionConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            backend: Backend::Memory,
            workers: 1,
            cfg: UpdateConfig::default(),
            codec: CodecKind::Wide,
            checkpoint: Checkpoint::default(),
            compaction: CompactionConfig::default(),
        }
    }
}

impl SessionBuilder {
    /// A builder with the defaults: in-memory backend, one worker, default
    /// kernel configuration.
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

    /// Kernel configuration (pruning and predecessor-maintenance knobs).
    pub fn config(mut self, cfg: UpdateConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Record codec for on-disk backends (ignored by [`Backend::Memory`]).
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
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
            cfg,
            codec,
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
                let engine = ClusterEngine::new_with(graph, workers, cfg, |_shard, n| {
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
        // engine takes them over
        let mut set = ShardSet::create(&dir, graph.n(), workers, codec)?;
        set.set_graph_stamp(session_id)?;
        let mut stores = set.into_stores().into_iter();
        let engine = ClusterEngine::new_with(graph, workers, cfg.clone(), |_shard, _n| {
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
            cfg,
            codec,
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
    cfg: UpdateConfig,
    codec: CodecKind,
    checkpoint: Checkpoint,
    compaction: CompactionConfig,
    /// Checksum of the *bootstrap* graph snapshot — the session's identity,
    /// also stamped into the shard manifest so a foreign manifest cannot be
    /// combined with this directory's stores.
    session_id: u64,
    /// The update history journal: every session directory has one.
    history: HistoryLog,
}

/// Parsed `session.manifest` contents.
struct Manifest {
    workers: usize,
    cfg: UpdateConfig,
    codec: CodecKind,
    session_id: u64,
    map_version: u64,
    /// Updates applied when the manifest was written.
    seq: u64,
    snapshot: Vec<u8>,
}

/// Atomically rewrite `d`'s sealed manifest for `engine` at `seq`: the
/// header lines, then the graph snapshot.
fn write_manifest(d: &Durable, engine: &Engine, seq: u64) -> Result<(), Error> {
    let codec = match d.codec {
        CodecKind::Wide => "wide",
        CodecKind::Paper => "paper",
    };
    let map_version = engine.shard_map().version();
    let mut buf = format!(
        "workers={}\ncodec={codec}\nprune={}\npreds={}\n\
         session={:016x}\nmap_version={map_version}\nseq={seq}\n",
        engine.num_workers(),
        u8::from(d.cfg.prune_unchanged),
        u8::from(d.cfg.maintain_predecessors),
        d.session_id,
    )
    .into_bytes();
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
    // Seven key=value header lines, then the embedded snapshot bytes.
    let parts: Vec<&[u8]> = body.splitn(8, |&b| b == b'\n').collect();
    if parts.len() != 8 {
        return Err(Error::corrupt("session manifest header truncated"));
    }
    let lines = parts[..7]
        .iter()
        .map(|line| std::str::from_utf8(line))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| Error::corrupt("session manifest header not utf-8"))?;
    let field = |idx: usize, key: &str| -> Result<&str, Error> {
        lines[idx]
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| Error::corrupt(format!("manifest line {idx} is not `{key}=...`")))
    };
    let workers: usize = field(0, "workers")?
        .parse()
        .map_err(|_| Error::corrupt("bad workers field"))?;
    let codec = match field(1, "codec")? {
        "wide" => CodecKind::Wide,
        "paper" => CodecKind::Paper,
        other => return Err(Error::corrupt(format!("unknown codec {other:?}"))),
    };
    let flag = |v: &str| matches!(v, "1");
    let cfg = UpdateConfig {
        prune_unchanged: flag(field(2, "prune")?),
        maintain_predecessors: flag(field(3, "preds")?),
    };
    let session_id = u64::from_str_radix(field(4, "session")?, 16)
        .map_err(|_| Error::corrupt("bad session id field"))?;
    let map_version: u64 = field(5, "map_version")?
        .parse()
        .map_err(|_| Error::corrupt("bad map_version field"))?;
    let seq: u64 = field(6, "seq")?
        .parse()
        .map_err(|_| Error::corrupt("bad seq field"))?;
    Ok(Manifest {
        workers,
        cfg,
        codec,
        session_id,
        map_version,
        seq,
        snapshot: parts[7].to_vec(),
    })
}

/// The engine every session drives: `p` shards over type-erased stores
/// (the `Box` forwards every store method, so a disk store's batched I/O,
/// export journal and durable flush survive the erasure).
type Engine = ClusterEngine<Box<dyn BdStore>>;

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
    /// scores. The path: the shard manifest's session stamp, its shard
    /// count against the session manifest, the `RecordsAhead` census, then
    /// the engine.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Session, Error> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir)?;
        let graph = Graph::from_snapshot_bytes(&manifest.snapshot)?;
        // Recover the update history first: a gap (deleted segment) is a
        // typed refusal before any store is touched, and an interrupted
        // seal/truncate is finished here.
        let history = HistoryLog::open(&dir)?;
        // Under Checkpoint::Manual a kill can land updates in the history
        // WAL after the last manifest rewrite; the history is the longer
        // (and durable) record, so the larger count wins.
        let seq = history.last_seq().max(manifest.seq);
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
        if set.num_shards() != manifest.workers {
            return Err(Error::corrupt(format!(
                "{} shard files for a {}-worker session",
                set.num_shards(),
                manifest.workers
            )));
        }
        // a Manual-checkpoint session killed after durable growth leaves
        // the record files owning sources the manifest's graph snapshot has
        // never heard of (or vice versa when a manifest is grafted in):
        // pairing them would replay new records against a stale graph.
        // Detect and report, never silently resume. Version-only skew (same
        // source set, the map merely ahead of the at-rest manifest after
        // live handoffs) stays resumable below.
        let record_sources: usize = set.assignment().iter().map(Vec::len).sum();
        if record_sources != graph.n() {
            let (manifest_map_version, store_version) = (manifest.map_version, set.version());
            let census = ErrorKind::RecordsAhead {
                manifest_map_version,
                store_version,
                manifest_sources: graph.n(),
                record_sources,
            };
            return Err(Error::new(
                census,
                format!(
                    "records are ahead of the manifest: stores own {record_sources} sources \
                     (map v{store_version}), manifest snapshot has {} (map \
                     v{manifest_map_version}) — a Checkpoint::Manual session died after \
                     un-checkpointed growth",
                    graph.n()
                ),
            ));
        }
        // Live handoffs commit their map version to the session manifest at
        // checkpoint, never to the shard manifest; a handoff the kill cut
        // short and `ShardSet::open` rolled forward adds its own commit.
        let rolled_forward = set.rolled_forward();
        let version = manifest.map_version + rolled_forward;
        let stores = set
            .into_stores()
            .into_iter()
            .map(|store| Box::new(store) as Box<dyn BdStore>)
            .collect();
        let engine = ClusterEngine::resume(&graph, manifest.cfg.clone(), stores, version)?;
        let durable = Durable {
            dir,
            cfg: manifest.cfg,
            codec: manifest.codec,
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
        Ok(Session::over(engine, Some(durable), seq))
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
    /// history and, under [`Checkpoint::EveryApply`], checkpoint
    /// afterwards.
    pub fn apply(&mut self, update: Update) -> Result<(), Error> {
        self.engine.apply(update)?;
        let recorded = self.record_applied(&[update]);
        let checkpointed = self.auto_checkpoint();
        recorded?;
        checkpointed
    }

    /// Apply a batch of updates in order (every shard runs it a chunk at a
    /// time, `ClusterEngine::apply_prefix`); durable sessions journal the
    /// applied prefix into the update history and, under
    /// [`Checkpoint::EveryApply`], checkpoint once at the end of the batch.
    ///
    /// On a mid-batch validation error the already-applied prefix still
    /// completed (and its record writes are durable), so exactly that
    /// prefix is journaled and the checkpoint runs *before* the error is
    /// returned — the manifest always covers what the stores hold. A
    /// shard failure poisons the engine; the checkpoint then fails too and
    /// the original error wins.
    pub fn apply_stream(&mut self, updates: &[Update]) -> Result<(), Error> {
        let (applied, result) = match self.engine.apply_prefix(updates) {
            Ok((reports, refused)) => (reports.len(), refused.map_or(Ok(()), Err)),
            // poisoned: the engine is unusable and the session must be
            // reopened, so nothing more is journaled
            Err(e) => (0, Err(e)),
        };
        let recorded = self.record_applied(&updates[..applied]);
        let checkpointed = self.auto_checkpoint();
        result?;
        recorded?;
        checkpointed
    }

    /// Journal `updates` (already applied by the engine) into the history
    /// WAL, advancing the session seq.
    fn record_applied(&mut self, updates: &[Update]) -> Result<(), Error> {
        let Some(durable) = &mut self.durable else {
            self.seq += updates.len() as u64;
            return Ok(());
        };
        let map_version = self.engine.shard_map().version();
        for update in updates {
            self.seq += 1;
            durable
                .history
                .append(self.seq, map_version, &update.to_bytes())?;
        }
        Ok(())
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

    /// Jaccard similarity between this session's current top-`k` vertex set
    /// and the top-`k` of a reference score vector
    /// ([`ebc_core::ranking::jaccard_top_k`]) — the ranking-quality metric
    /// the Bergamini et al. (arXiv:1409.6241) approximation comparison
    /// scores against the exact maintained ranking.
    pub fn jaccard_top_k(&mut self, reference: &[f64], k: usize) -> Result<f64, Error> {
        let reduced = self.engine.reduce()?;
        Ok(ranking::jaccard_top_k(&reduced.scores.vbc, reference, k))
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

    /// Adjust the compaction threshold of a durable session (the retention
    /// mode is fixed when the directory is created; only
    /// `max_live_wal_bytes` takes effect here).
    pub fn set_compaction(&mut self, cfg: CompactionConfig) {
        if let Some(d) = &mut self.durable {
            d.compaction.max_live_wal_bytes = cfg.max_live_wal_bytes;
        }
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
        Ok(replay_records(&durable.dir, durable.cfg.clone(), &records)?.1)
    }

    /// [`Session::replay_to`] against a session directory on disk, without
    /// opening (or locking) the stores — what `sbc replay` runs. `at =
    /// None` replays the full history. Returns the replayed seq alongside
    /// the reduction.
    pub fn replay_dir<P: AsRef<Path>>(dir: P, at: Option<u64>) -> Result<Replayed, Error> {
        let dir = dir.as_ref();
        let manifest = read_manifest(dir)?;
        let history = HistoryLog::open(dir)?;
        let seq = at.unwrap_or_else(|| history.last_seq());
        let records = history.records_upto(seq)?;
        let (graph, reduced) = replay_records(dir, manifest.cfg, &records)?;
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
    cfg: UpdateConfig,
    records: &[ebc_store::HistoryRecord],
) -> Result<(Graph, Reduced), Error> {
    let genesis = read_sealed(&dir.join(GENESIS_NAME), GENESIS_MAGIC)?;
    let graph = Graph::from_snapshot_bytes(&genesis)?;
    let mut state = BetweennessState::new_with(graph, cfg);
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
