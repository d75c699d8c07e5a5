//! Session facade surface: the builder matrix (backend × workers), the
//! ranking queries (`top_k` against a hand-computed graph,
//! `jaccard_top_k`) and configuration validation.

use streaming_bc::core::Scores;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::store::CodecKind;
use streaming_bc::{Backend, Session, SessionError, Update};

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
        ("shard-1", Backend::Sharded(dir_base.join("s1")), 1),
        ("shard-3", Backend::Sharded(dir_base.join("s3")), 3),
        ("shard-8", Backend::Sharded(dir_base.join("s8")), 8),
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

/// `jaccard_top_k` against reference score vectors — the accuracy metric
/// the Bergamini-style approximation comparison consumes.
#[test]
fn jaccard_top_k_against_references() {
    let mut g = Graph::with_vertices(5);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
        g.add_edge(u, v).unwrap();
    }
    let mut session = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    // session top-2 is {2, 1}
    let agree = [0.0, 9.0, 9.5, 0.0, 0.0]; // top-2 {2, 1}
    assert_eq!(session.jaccard_top_k(&agree, 2).unwrap(), 1.0);
    let disjoint = [0.0, 0.0, 0.0, 5.0, 4.0]; // top-2 {3, 4}
    assert_eq!(session.jaccard_top_k(&disjoint, 2).unwrap(), 0.0);
    let half = [0.0, 0.0, 9.0, 5.0, 0.0]; // top-2 {2, 3}: |∩|=1, |∪|=3
    let j = session.jaccard_top_k(&half, 2).unwrap();
    assert!((j - 1.0 / 3.0).abs() < 1e-12, "got {j}");
    // an exact session scored against its own ranking is perfect — the
    // fixed point the approximation comparison degrades from
    let own = session.scores().unwrap().scores.vbc;
    assert_eq!(session.jaccard_top_k(&own, 3).unwrap(), 1.0);
}

#[test]
fn invalid_configurations_rejected() {
    let g = holme_kim(10, 2, 0.3, 7);
    assert!(matches!(
        Session::builder().workers(0).build(&g),
        Err(SessionError::Config(_))
    ));
    assert!(matches!(
        Session::builder()
            .backend(Backend::Disk(tmpdir("cfg")))
            .workers(3)
            .build(&g),
        Err(SessionError::Config(_))
    ));
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

/// Disk sessions honour the codec knob end to end.
#[test]
fn disk_codec_flows_through() {
    let g = holme_kim(20, 2, 0.3, 11);
    let dir = tmpdir("codec");
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .codec(CodecKind::Paper)
        .build(&g)
        .unwrap();
    session.apply(Update::add(0, 9)).unwrap();
    drop(session);
    // reopen: the manifest remembers the codec; scores still verify
    let mut resumed = Session::open(&dir).unwrap();
    resumed.verify(1e-6).unwrap();
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}
