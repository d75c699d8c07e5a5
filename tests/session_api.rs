//! Session facade surface: the builder matrix (backend × workers), the
//! no-trace matrix for rejected updates, the ranking query (`top_k`
//! against a hand-computed graph) and configuration validation.

use streaming_bc::cluster::{SimBuilder, SimCluster};
use streaming_bc::core::verify::divergence_from_scratch;
use streaming_bc::core::{BetweennessState, Scores, UpdateConfig};
use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::addition_stream;
use streaming_bc::graph::Graph;
use streaming_bc::store::{CodecKind, DiskBdStore, ShardSet};
use streaming_bc::{Backend, ErrorKind, Session, Update};

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (
        s.vbc.iter().map(|x| x.to_bits()).collect(),
        s.ebc.iter().map(|x| x.to_bits()).collect(),
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sbc_session_api")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every backend × worker combination answers the same stream with
/// bitwise-identical exact scores — the embodiment really is erased.
#[test]
fn builder_matrix_is_bitwise_consistent() {
    let g = holme_kim(30, 3, 0.4, 5);
    let updates = [
        Update::add(0, 17),
        Update::add(3, 30), // vertex 30 arrives
        Update::remove(0, 17),
        Update::add(30, 11),
    ];
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    let dir_base = tmpdir("matrix");
    let configs: Vec<(&str, Backend, usize)> = vec![
        ("mem-1", Backend::Memory, 1),
        ("mem-4", Backend::Memory, 4),
        ("disk-1", Backend::Disk(dir_base.join("disk")), 1),
        ("disk-3", Backend::Disk(dir_base.join("s3")), 3),
        ("disk-8", Backend::Disk(dir_base.join("s8")), 8),
    ];
    for (name, backend, p) in configs {
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .build(&g)
            .unwrap();
        assert_eq!(session.workers(), p, "{name}");
        session.apply_stream(&updates).unwrap();
        let exact = session.reduce_exact().unwrap().scores;
        match &reference {
            None => reference = Some(bits(&exact)),
            Some(r) => assert_eq!(r, &bits(&exact), "{name} diverged bitwise"),
        }
        session.verify(1e-6).unwrap();
    }
    std::fs::remove_dir_all(&dir_base).ok();
}

/// What a rejected update must leave exactly as it was: the graph's shape,
/// the update counter (a session's seq, a coordinator's map version) and
/// the exact scores, bit for bit.
#[derive(Debug, PartialEq)]
struct Footprint {
    n: usize,
    m: usize,
    counter: u64,
    exact: (Vec<u64>, Vec<u64>),
}

/// One embodiment under the no-trace matrix.
trait Embodiment {
    /// Apply `u`, which must be rejected as invalid.
    fn reject(&mut self, u: Update);
    /// Apply `u`, which must succeed.
    fn accept(&mut self, u: Update);
    fn footprint(&mut self) -> Footprint;
    /// Exact scores within 1e-6 of a fresh Brandes run.
    fn verify(&mut self);
}

impl Embodiment for Session {
    fn reject(&mut self, u: Update) {
        match self.apply(u) {
            Err(e) if e.graph_error().is_some() => {}
            other => panic!("{u:?}: expected a validation error, got {other:?}"),
        }
    }
    fn accept(&mut self, u: Update) {
        self.apply(u).unwrap();
    }
    fn footprint(&mut self) -> Footprint {
        Footprint {
            n: self.graph().n(),
            m: self.graph().m(),
            counter: self.seq(),
            exact: bits(&self.reduce_exact().unwrap().scores),
        }
    }
    fn verify(&mut self) {
        Session::verify(self, 1e-6).unwrap();
    }
}

impl Embodiment for SimCluster {
    fn reject(&mut self, u: Update) {
        match self.coord.apply(u) {
            Err(e) if e.graph_error().is_some() => {}
            other => panic!("{u:?}: expected a validation error, got {other:?}"),
        }
    }
    fn accept(&mut self, u: Update) {
        self.coord.apply(u).unwrap();
    }
    fn footprint(&mut self) -> Footprint {
        Footprint {
            n: self.coord.graph().n(),
            m: self.coord.graph().m(),
            counter: self.coord.version(),
            exact: bits(&self.coord.reduce_exact().unwrap()),
        }
    }
    fn verify(&mut self) {
        let exact = self.coord.reduce_exact().unwrap();
        let d = divergence_from_scratch(self.coord.graph(), &exact);
        assert!(d.within(1e-6), "{d:?}");
    }
}

/// Reject every update of `rejected` without a trace, then apply `valid`
/// and verify.
fn check_no_trace(name: &str, cell: &mut dyn Embodiment, rejected: &[Update], valid: &[Update]) {
    let before = cell.footprint();
    for &u in rejected {
        cell.reject(u);
        assert_eq!(cell.footprint(), before, "{name}: {u:?} left a trace");
    }
    for &u in valid {
        cell.accept(u);
    }
    cell.verify();
}

/// Rejected updates leave no trace, on every embodiment: a self-loop on
/// the vertex that would arrive, a self-loop on an existing vertex, a
/// sparse vertex id, a duplicate addition and a missing removal each leave
/// `n`, `m`, the update counter and the exact bits where they were, and a
/// valid stream that grows the graph afterwards still verifies.
#[test]
fn rejected_updates_leave_no_trace_on_every_embodiment() {
    let g = holme_kim(24, 2, 0.3, 17);
    let n = g.n() as u32;
    let (a, b) = g.edges().next().unwrap().0.endpoints();
    let absent = (1..n).find(|&v| !g.has_edge(0, v)).unwrap();
    let rejected = [
        Update::add(n, n),
        Update::add(3, 3),
        Update::add(0, n + 1),
        Update::add(a, b),
        Update::remove(0, absent),
    ];
    let valid = [
        Update::add(0, n), // vertex n arrives
        Update::add(n, 5),
        Update::remove(a, b),
        Update::add(0, absent),
    ];
    let dir = tmpdir("no_trace");
    for (name, backend, p) in [
        ("memory p=1", Backend::Memory, 1),
        ("memory p=3", Backend::Memory, 3),
        ("disk", Backend::Disk(dir.join("disk")), 1),
        ("sharded p=3", Backend::Disk(dir.join("sharded")), 3),
    ] {
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .build(&g)
            .unwrap();
        check_no_trace(name, &mut session, &rejected, &valid);
    }
    let mut sim = SimBuilder::new(3).unreplicated().launch(&g).unwrap();
    check_no_trace("sim cluster p=3", &mut sim, &rejected, &valid);
    sim.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `top_k` on a hand-computed path graph 0–1–2–3–4: the middle vertex
/// carries the most shortest paths (VBC 8 ordered pairs), its neighbours 6,
/// the leaves 0 — so top-3 is exactly [2, 1, 3] (tie 1 vs 3 broken toward
/// the smaller id).
#[test]
fn top_k_matches_hand_computed_path_graph() {
    let mut g = Graph::with_vertices(5);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
        g.add_edge(u, v).unwrap();
    }
    let mut session = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    let vbc = session.scores().unwrap().scores.vbc;
    // ordered-pair convention: v2 sits on (0,3),(0,4),(1,3),(1,4) and their
    // reverses = 8; v1 on (0,2),(0,3),(0,4) doubled = 6; symmetric for v3
    assert_eq!(vbc, vec![0.0, 6.0, 8.0, 6.0, 0.0]);
    assert_eq!(session.top_k(3).unwrap(), vec![2, 1, 3]);
    assert_eq!(session.top_k(1).unwrap(), vec![2]);
    // a removal reshapes the ranking online: cutting (2,3) strands {3,4}
    session.apply(Update::remove(2, 3)).unwrap();
    assert_eq!(session.top_k(1).unwrap(), vec![1]);
}

#[test]
fn invalid_configurations_rejected() {
    let g = holme_kim(10, 2, 0.3, 7);
    let invalid = |e: streaming_bc::Error| e.kind() == ErrorKind::Invalid;
    assert!(Session::builder().workers(0).build(&g).is_err_and(invalid));
    let dir = tmpdir("cfg");
    assert!(Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(0)
        .build(&g)
        .is_err_and(invalid));
    assert!(
        !dir.exists(),
        "a refused configuration created its directory"
    );
}

/// A one-worker memory session runs the single machine's arithmetic: after
/// the same stream its fast-path scores are bitwise `BetweennessState`'s,
/// growth and removals included.
#[test]
fn one_worker_scores_are_the_single_machine_bitwise() {
    let g = holme_kim(30, 3, 0.4, 23);
    let updates = [
        Update::add(0, 19),
        Update::add(6, 30), // vertex 30 arrives
        Update::remove(0, 19),
        Update::add(30, 2),
        Update::add(31, 4), // vertex 31 arrives
    ];
    let mut session = Session::builder().build(&g).unwrap();
    let mut single = BetweennessState::new(&g);
    for (i, &u) in updates.iter().enumerate() {
        if i % 2 == 0 {
            session.apply(u).unwrap();
        } else {
            session.apply_stream(&[u]).unwrap();
        }
        single.apply(u).unwrap();
        let scores = session.scores().unwrap().scores;
        assert_eq!(bits(&scores), bits(single.scores()), "after {u:?}");
    }
    assert_eq!(session.brandes_runs(), Some(single.brandes_runs()));
}

/// One batch many times longer than the engine's fold-and-run chunk, on a
/// one-worker session, ends bitwise where the single machine does.
#[test]
fn a_long_one_worker_batch_is_the_single_machine_bitwise() {
    let g = holme_kim(40, 3, 0.4, 29);
    let n = g.n() as u32;
    let added = addition_stream(&g, 48, 31);
    let mut updates: Vec<Update> = added.iter().map(|&(u, v)| Update::add(u, v)).collect();
    updates.extend([Update::add(3, n), Update::add(n, 7), Update::add(n + 1, n)]);
    updates.extend(added[..16].iter().map(|&(u, v)| Update::remove(u, v)));
    let mut session = Session::builder().build(&g).unwrap();
    session.apply_stream(&updates).unwrap();
    let mut single = BetweennessState::new(&g);
    for &u in &updates {
        single.apply(u).unwrap();
    }
    let scores = session.scores().unwrap().scores;
    assert_eq!(bits(&scores), bits(single.scores()));
    assert_eq!(session.brandes_runs(), Some(single.brandes_runs()));
}

/// A one-worker session — memory or disk — has no shard surface: no map to
/// show, and nowhere to move a source.
#[test]
fn single_machine_has_no_shard_surface() {
    let g = holme_kim(12, 2, 0.3, 5);
    let dir = tmpdir("one_worker");
    for backend in [Backend::Memory, Backend::Disk(dir.clone())] {
        let mut session = Session::builder().backend(backend).build(&g).unwrap();
        assert_eq!(session.shard_map(), None);
        assert_eq!(session.shard_map_version(), None);
        let kind = |e: streaming_bc::Error| e.kind();
        assert_eq!(
            session.handoff(0, 1).map_err(kind),
            Err(ErrorKind::Unsupported)
        );
        assert_eq!(
            session.rebalance(1).map_err(kind),
            Err(ErrorKind::Unsupported)
        );
        session.verify(1e-6).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validation_errors_leave_session_usable() {
    let g = holme_kim(12, 2, 0.3, 3);
    let mut session = Session::builder()
        .backend(Backend::Memory)
        .workers(2)
        .build(&g)
        .unwrap();
    assert!(session.apply(Update::add(0, 99)).is_err(), "sparse vertex");
    assert!(
        session.apply(Update::remove(0, 11)).is_err(),
        "missing edge"
    );
    session.apply(Update::add(0, 11)).unwrap();
    session.verify(1e-6).unwrap();
}

/// A chain of `k` diamonds c₀–{aᵢ, bᵢ}–cᵢ: c₀ reaches c_k along 2^k
/// shortest paths.
fn diamond_chain(k: u32) -> Graph {
    let mut g = Graph::with_vertices(1 + 3 * k as usize);
    for i in 0..k {
        let (c, a, b, next) = (3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3);
        for (x, y) in [(c, a), (c, b), (a, next), (b, next)] {
            g.add_edge(x, y).unwrap();
        }
    }
    g
}

/// The codec each shard file of the session directory `dir` holds, read
/// after its session was dropped.
fn shard_codecs(dir: &std::path::Path) -> Vec<CodecKind> {
    let set = ShardSet::open(dir).unwrap();
    (0..set.num_shards())
        .map(|k| set.shard(k).codec())
        .collect()
}

/// A disk session starts at the paper's cells, which hold σ up to 65 535,
/// and widens its store past that instead of refusing: 15 diamonds
/// (σ = 2^15) stay narrow, 16 and 17 widen, and all three sum to the exact
/// bits of a state over a store created `Wide`.
#[test]
fn paper_start_widens_for_path_counts_past_its_cells() {
    for k in [15, 16, 17] {
        let g = diamond_chain(k);
        let base = tmpdir(&format!("diamonds_{k}"));
        std::fs::create_dir_all(&base).unwrap();
        let wide = DiskBdStore::create(base.join("wide.ebc"), g.n(), CodecKind::Wide).unwrap();
        let mut reference =
            BetweennessState::new_into_store(g.clone(), wide, UpdateConfig::default()).unwrap();
        let want = bits(&reference.exact_scores().unwrap());
        drop(reference);
        let dir = base.join("session");
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .build(&g)
            .unwrap();
        assert_eq!(
            bits(&session.reduce_exact().unwrap().scores),
            want,
            "{k} diamonds"
        );
        drop(session);
        let width = if k > 15 {
            CodecKind::Wide
        } else {
            CodecKind::Paper
        };
        assert_eq!(shard_codecs(&dir), [width], "{k} diamonds");
        std::fs::remove_dir_all(&base).ok();
    }
}

/// A store an update widened stays wide across a restart: cutting a
/// 300-cycle puts distances past 254 in both shards' records, and the
/// reopened session verifies against a recomputation.
#[test]
fn disk_codec_flows_through() {
    let mut g = Graph::with_vertices(300);
    for v in 0..300 {
        g.add_edge(v, (v + 1) % 300).unwrap();
    }
    let dir = tmpdir("codec");
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(2)
        .build(&g)
        .unwrap();
    session.apply(Update::remove(299, 0)).unwrap();
    drop(session);
    assert_eq!(shard_codecs(&dir), [CodecKind::Wide; 2]);
    let mut resumed = Session::open(&dir).unwrap();
    assert_eq!(resumed.brandes_runs(), Some(0));
    resumed.verify(1e-6).unwrap();
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}
