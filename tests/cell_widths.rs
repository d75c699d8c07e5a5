//! Cells as wide as the data, on every embodiment: stores hold their
//! records narrow (`d: u8`, `σ: u16`) and widen the first time a cell does
//! not fit — a memory store re-strides, a disk store re-slabs its file —
//! and a path count past `u64::MAX` is refused.
//!
//! * Across each width boundary — a distance past 254, a path count past
//!   65,535, at bootstrap and by an update — the exact scores of memory
//!   and disk sessions (one worker and three), a served session and the
//!   fleet are bitwise those of a state over a disk store created
//!   [`CodecKind::Wide`].
//! * A chain of 64 or more diamonds (2^64 shortest paths) is refused at
//!   build; the update completing the 64th diamond is refused by that
//!   update, and every later call is `Lost`: never a saturated score.

mod common;

use common::{apply_line, bits_field, error_kind, to_bits, Client};
use ebc_serve::{Server, ServerConfig};
use streaming_bc::cluster::SimBuilder;
use streaming_bc::core::{BetweennessState, Scores, UpdateConfig};
use streaming_bc::graph::Graph;
use streaming_bc::serve::ServedSession;
use streaming_bc::store::{CodecKind, DiskBdStore, ShardSet};
use streaming_bc::{Backend, ErrorKind, Session, Update};

fn graph_of(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
    let mut g = Graph::with_vertices(n);
    for (u, v) in edges {
        g.add_edge(u, v).unwrap();
    }
    g
}

/// A path through vertices `from..to`.
fn path_edges(from: u32, to: u32) -> impl Iterator<Item = (u32, u32)> {
    (from..to - 1).map(|i| (i, i + 1))
}

/// A chain of `k` diamonds c₀–{aᵢ, bᵢ}–cᵢ (cᵢ = 3i): c₀ reaches c_k along
/// 2^k shortest paths.
fn diamond_chain(k: u32) -> Graph {
    graph_of(
        1 + 3 * k as usize,
        (0..k).flat_map(|i| {
            let (c, a, b, next) = (3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3);
            [(c, a), (c, b), (a, next), (b, next)]
        }),
    )
}

/// `k` diamonds without the last one's `b–c` edge, and the update that
/// completes it, doubling c₀'s path count to c_k to 2^k.
fn open_diamond_chain(k: u32) -> (Graph, Update) {
    let mut g = diamond_chain(k);
    let (b, c) = (3 * k - 1, 3 * k);
    g.remove_edge(b, c).unwrap();
    (g, Update::add(b, c))
}

/// Each width boundary at bootstrap and by an update, with updates after
/// it: the graph and the update stream.
fn width_cases() -> Vec<(&'static str, Graph, Vec<Update>)> {
    let (open_16th, complete_16th) = open_diamond_chain(16);
    vec![
        (
            "two 200-vertex paths joined",
            graph_of(400, path_edges(0, 200).chain(path_edges(200, 400))),
            vec![Update::add(199, 200), Update::add(0, 10)],
        ),
        (
            "a 400-vertex path",
            graph_of(400, path_edges(0, 400)),
            vec![Update::remove(199, 200), Update::add(199, 200)],
        ),
        (
            "a 300-cycle cut",
            graph_of(300, path_edges(0, 300).chain([(299, 0)])),
            vec![Update::remove(299, 0), Update::add(5, 300)],
        ),
        (
            "the 16th diamond completed",
            open_16th,
            vec![complete_16th, Update::add(1, 2)],
        ),
        ("15 diamonds", diamond_chain(15), vec![Update::add(1, 2)]),
        ("16 diamonds", diamond_chain(16), vec![Update::add(1, 2)]),
        ("17 diamonds", diamond_chain(17), vec![Update::add(1, 2)]),
    ]
}

fn bits(s: &Scores) -> (Vec<u64>, Vec<u64>) {
    (to_bits(&s.vbc), to_bits(&s.ebc))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sbc_cell_widths")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact-score bits a session reaches over `updates`, after the
/// bootstrap and after each update.
fn session_bits(
    g: &Graph,
    updates: &[Update],
    backend: Backend,
    p: usize,
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut session = Session::builder()
        .backend(backend)
        .workers(p)
        .build(g)
        .unwrap();
    let mut out = vec![bits(&session.reduce_exact().unwrap().scores)];
    for &u in updates {
        session.apply(u).unwrap();
        out.push(bits(&session.reduce_exact().unwrap().scores));
    }
    out
}

/// [`session_bits`] of a single-machine state over a disk store created
/// [`CodecKind::Wide`], kept in the scratch directory `name`: the
/// reference no width change can reach.
fn wide_disk_bits(g: &Graph, updates: &[Update], name: &str) -> Vec<(Vec<u64>, Vec<u64>)> {
    let dir = tmpdir(name);
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskBdStore::create(dir.join("bd.ebc"), g.n(), CodecKind::Wide).unwrap();
    let mut state =
        BetweennessState::new_into_store(g.clone(), store, UpdateConfig::default()).unwrap();
    let mut out = vec![bits(&state.exact_scores().unwrap())];
    for &u in updates {
        state.apply(u).unwrap();
        out.push(bits(&state.exact_scores().unwrap()));
    }
    drop(state);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// [`session_bits`] through a server on a two-worker memory session.
fn served_bits(g: &Graph, updates: &[Update]) -> Vec<(Vec<u64>, Vec<u64>)> {
    let session = Session::builder().workers(2).build(g).unwrap();
    let handle = Server::spawn(ServedSession::new(session), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    let exact = |client: &mut Client| {
        let resp = client.request_ok(r#"{"cmd":"reduce_exact"}"#);
        (bits_field(&resp, "vbc"), bits_field(&resp, "ebc"))
    };
    let mut out = vec![exact(&mut client)];
    for (id, &u) in updates.iter().enumerate() {
        client.request_ok(&apply_line(id as u64, &[u]));
        out.push(exact(&mut client));
    }
    drop(client);
    handle.shutdown();
    handle.join();
    out
}

/// [`session_bits`] through a three-shard replicated fleet.
fn fleet_bits(g: &Graph, updates: &[Update]) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut sim = SimBuilder::new(3).launch(g).unwrap();
    let mut out = vec![bits(&sim.coord.reduce_exact().unwrap())];
    for &u in updates {
        sim.coord.apply(u).unwrap();
        out.push(bits(&sim.coord.reduce_exact().unwrap()));
    }
    sim.shutdown();
    out
}

#[test]
fn every_embodiment_is_bitwise_a_wide_disk_session_across_every_width_boundary() {
    for (label, g, updates) in width_cases() {
        let want = wide_disk_bits(&g, &updates, "boundaries_wide");
        let dir = tmpdir("boundaries");
        for (embodiment, got) in [
            (
                "disk p = 1",
                session_bits(&g, &updates, Backend::Disk(dir.join("p1")), 1),
            ),
            (
                "disk p = 3",
                session_bits(&g, &updates, Backend::Disk(dir.join("p3")), 3),
            ),
            (
                "memory p = 1",
                session_bits(&g, &updates, Backend::Memory, 1),
            ),
            (
                "memory p = 3",
                session_bits(&g, &updates, Backend::Memory, 3),
            ),
            ("serve", served_bits(&g, &updates)),
            ("fleet", fleet_bits(&g, &updates)),
        ] {
            for (step, (got, want)) in got.iter().zip(&want).enumerate() {
                assert!(
                    got == want,
                    "{label}, {embodiment}: exact bits after {step} update(s)"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A short-diameter component owned by shard 0 (narrow records) beside a
/// 300-vertex path owned by shard 1 (wide records): handing a path source
/// to shard 0 imports a record it must widen for — a memory store
/// re-strides, a disk store re-slabs its file — and the scores stay
/// bitwise those of a disk store created wide.
#[test]
fn a_handoff_of_a_wide_record_into_a_narrow_shard_keeps_every_bit() {
    let star = (1..300).map(|leaf| (0, leaf));
    let g = graph_of(600, star.chain(path_edges(300, 600)));
    let updates = [Update::add(1, 300), Update::remove(450, 451)];
    let want = wide_disk_bits(&g, &updates, "handoff_wide");
    let dir = tmpdir("handoff");
    for (name, backend) in [
        ("memory", Backend::Memory),
        ("disk", Backend::Disk(dir.clone())),
    ] {
        let mut session = Session::builder()
            .backend(backend)
            .workers(2)
            .build(&g)
            .unwrap();
        assert_eq!(
            session.handoff(599, 0).unwrap().moves,
            [(599, 1, 0)],
            "{name}"
        );
        let mut got = vec![bits(&session.reduce_exact().unwrap().scores)];
        for &u in &updates {
            session.apply(u).unwrap();
            got.push(bits(&session.reduce_exact().unwrap().scores));
        }
        assert!(got == want, "{name}: a handoff moved a bit");
        session.verify(1e-9).unwrap();
    }
    let set = ShardSet::open(&dir).unwrap();
    assert_eq!(set.shard(0).codec(), CodecKind::Wide, "the import widened");
    drop(set);
    std::fs::remove_dir_all(&dir).ok();
}

/// A refusal of a path count past `u64::MAX`: `Unsupported`, naming a
/// source.
fn assert_refused(e: &streaming_bc::Error, label: &str) {
    assert_eq!(e.kind(), ErrorKind::Unsupported, "{label}: {e}");
    assert!(e.source_vertex().is_some(), "{label}: {e}");
}

#[test]
fn path_counts_past_u64_are_refused_at_build_and_poison_at_the_update() {
    let dir = tmpdir("refused");
    let backends = |name: &str| {
        [
            ("memory p = 1", Backend::Memory, 1),
            ("memory p = 3", Backend::Memory, 3),
            ("disk", Backend::Disk(dir.join(name)), 1),
        ]
    };
    for k in [64, 65, 70] {
        let g = diamond_chain(k);
        for (name, backend, p) in backends(&format!("build_{k}")) {
            let built = Session::builder().backend(backend).workers(p).build(&g);
            match built {
                Err(e) => assert_refused(&e, &format!("{k} diamonds, {name}")),
                Ok(_) => panic!("{k} diamonds, {name}: built with 2^{k} paths"),
            }
        }
        match SimBuilder::new(3).launch(&g) {
            Err(e) => assert_refused(&e, &format!("{k} diamonds, fleet")),
            Ok(_) => panic!("{k} diamonds, fleet: launched with 2^{k} paths"),
        }
    }

    let (g, complete) = open_diamond_chain(64);
    let poisoned = |e: streaming_bc::Error| e.kind() == ErrorKind::Lost;
    for (name, backend, p) in backends("update") {
        let mut session = Session::builder()
            .backend(backend)
            .workers(p)
            .build(&g)
            .unwrap();
        assert_refused(&session.apply(complete).unwrap_err(), name);
        assert!(
            session.reduce_exact().map_err(poisoned).unwrap_err(),
            "{name}"
        );
        assert!(
            session
                .apply(Update::add(1, 2))
                .map_err(poisoned)
                .unwrap_err(),
            "{name}"
        );
    }

    let handle = Server::spawn(
        ServedSession::new(Session::builder().workers(2).build(&g).unwrap()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    let resp = client.request(&apply_line(1, &[complete]));
    assert_eq!(
        error_kind(&resp),
        "unsupported",
        "serve: {}",
        resp.to_json()
    );
    let resp = client.request(r#"{"cmd":"reduce_exact"}"#);
    assert_eq!(error_kind(&resp), "lost", "serve: {}", resp.to_json());
    drop(client);
    handle.shutdown();
    handle.join();

    let mut sim = SimBuilder::new(3).launch(&g).unwrap();
    assert_refused(&sim.coord.apply(complete).unwrap_err(), "fleet");
    let later = sim.coord.reduce_exact().unwrap_err();
    assert_eq!(later.kind(), ErrorKind::Lost, "fleet: {later}");
    sim.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
