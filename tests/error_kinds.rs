//! One error taxonomy, provoked through every surface: a memory session
//! (p = 1 and p = 2), a sharded session (p = 3), a `SimCluster` fleet
//! (p = 3) and the serve wire. Every kind a surface can raise is raised
//! there and reads the same — the serve wire's `error` object decodes to
//! the very `Error` the library returns — and the one record with `σ = 0`
//! is `corrupt` naming the same source on every surface that holds it.
//! [`MATRIX`] names, with the reason, each cell a surface cannot produce.

mod common;

use common::{apply_line, non_edge_adds, tmpdir, Client};
use ebc_cluster::wire::{self, NodeMsg, Reply, Request};
use ebc_cluster::{KillSpec, KillWindow, NodeId, SimBuilder, TestNet, Transport};
use ebc_serve::{decode_error, Server, ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Duration;
use streaming_bc::core::bd::{BdStore, ExportedRecord};
use streaming_bc::core::BetweennessState;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::serve::{ServedCluster, ServedSession};
use streaming_bc::{Backend, Checkpoint, CompactionConfig, Error, ErrorKind, Session, Update};

const SURFACES: [&str; 5] = [
    "memory p=1",
    "memory p=2",
    "sharded p=3",
    "fleet p=3",
    "serve",
];

/// A memory session keeps no directory, history or record bytes.
const DISK: Option<&str> = Some("no disk");
/// Memory stores cannot fail, so no worker is ever lost.
const WORKER: Option<&str> = Some("no failing worker");
/// Fencing is between a coordinator and its nodes; a served coordinator
/// dispatches at its own map version.
const FLEET: Option<&str> = Some("no stale map version");
/// Only a draining server refuses work.
const SERVER: Option<&str> = Some("no server");
/// Every operation exists on this embodiment.
const ALL_OPS: Option<&str> = Some("nothing unsupported");
/// The fleet keeps no session directory or history.
const DIR: Option<&str> = Some("no session directory");

/// Rows are kinds (by wire tag), columns are [`SURFACES`]: `None` where
/// the surface raises the kind and the test provokes it there, otherwise
/// why no call on that surface can.
#[rustfmt::skip]
const MATRIX: [(&str, [Option<&str>; 5]); 9] = [
    //                  memory p=1  memory p=2  sharded p=3  fleet p=3  serve
    ("invalid",       [None,       None,       None,        None,      None]),
    ("unsupported",   [None,       None,       ALL_OPS,     ALL_OPS,   None]),
    ("corrupt",       [DISK,       DISK,       None,        None,      None]),
    ("records_ahead", [DISK,       DISK,       None,        DIR,       None]),
    ("history_gap",   [DISK,       DISK,       None,        DIR,       None]),
    ("fenced",        [FLEET,      FLEET,      FLEET,       None,      FLEET]),
    ("lost",          [WORKER,     WORKER,     None,        None,      None]),
    ("io",            [DISK,       DISK,       None,        None,      None]),
    ("shutting_down", [SERVER,     SERVER,     SERVER,      SERVER,    None]),
];

/// The source whose record gets `σ = 0` at one of its neighbours.
const SOURCE: u32 = 5;

/// `seen` holds exactly the kinds [`MATRIX`] lets `surface` raise, and
/// every `corrupt` names [`SOURCE`].
fn check(surface: &str, seen: &[Error]) {
    let column = SURFACES.iter().position(|&s| s == surface).unwrap();
    let want: BTreeSet<&str> = MATRIX
        .iter()
        .filter(|(_, row)| row[column].is_none())
        .map(|&(kind, _)| kind)
        .collect();
    let got: BTreeSet<&str> = seen.iter().map(|e| e.kind().tag()).collect();
    assert_eq!(got, want, "{surface}: {seen:#?}");
    for e in seen.iter().filter(|e| e.kind() == ErrorKind::Corrupt) {
        assert_eq!(e.source_vertex(), Some(SOURCE), "{surface}: {e}");
    }
}

fn graph() -> Graph {
    holme_kim(24, 2, 0.3, 11)
}

/// An addition the graph refuses (the edge exists).
fn existing_edge(g: &Graph) -> Update {
    let (u, v) = g.edges().next().unwrap().0.endpoints();
    Update::add(u, v)
}

/// A neighbour of [`SOURCE`]: its only shortest path from the source is
/// the edge, so `σ = 0` there makes the edge's term infinite.
fn neighbour(g: &Graph) -> usize {
    g.neighbors(SOURCE)[0].to as usize
}

/// [`SOURCE`]'s record after bootstrapping `g` and applying `updates`.
fn record(g: &Graph, updates: &[Update]) -> ExportedRecord {
    let mut state = BetweennessState::new(g);
    for &u in updates {
        state.apply(u).unwrap();
    }
    state.store_mut().export_source(SOURCE, 0).unwrap()
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Zero `σ_SOURCE(neighbour)` in place in the record file of a live
/// session directory (default wide codec: `d` as `u32`, `σ` as `u64`,
/// little-endian): the record is found by its distance column, its σ
/// column is the next match of the σ bytes.
fn zero_sigma_on_disk(dir: &Path, g: &Graph) {
    let rec = record(g, &[]);
    let d: Vec<u8> = rec.d.iter().flat_map(|x| x.to_le_bytes()).collect();
    let sigma: Vec<u8> = rec.sigma.iter().flat_map(|x| x.to_le_bytes()).collect();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "ebc") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let Some(at) = find(&bytes, &d) else { continue };
        let column = at + find(&bytes[at..], &sigma).expect("σ column behind the d column");
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let cell = column + 8 * neighbour(g);
        file.write_all_at(&0u64.to_le_bytes(), cell as u64).unwrap();
        return;
    }
    panic!("no record file in {} holds source {SOURCE}", dir.display());
}

/// A path no directory can be created at: below a regular file.
fn uncreatable(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let file = dir.join("a-file");
    std::fs::write(&file, b"").unwrap();
    file.join("session")
}

fn sharded(g: &Graph, dir: &Path) -> Session {
    Session::builder()
        .backend(Backend::Disk(dir.to_path_buf()))
        .workers(3)
        .build(g)
        .unwrap()
}

/// A sharded directory whose un-checkpointed growth put its records ahead
/// of its manifest.
fn records_ahead_dir(g: &Graph, dir: PathBuf) -> PathBuf {
    let mut session = sharded(g, &dir);
    session.set_checkpoint(Checkpoint::Manual);
    let n = g.n() as u32;
    session.apply_stream(&[Update::add(0, n)]).unwrap();
    dir
}

/// A sharded directory missing one sealed history segment.
fn history_gap_dir(g: &Graph, dir: PathBuf) -> PathBuf {
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(3)
        .compaction(CompactionConfig {
            keep_history: true,
            max_live_wal_bytes: 0,
        })
        .build(g)
        .unwrap();
    for u in non_edge_adds(g, 3) {
        session.apply(u).unwrap();
    }
    drop(session);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .expect("a sealed segment");
    std::fs::remove_file(segment).unwrap();
    dir
}

#[test]
fn memory_sessions_raise_their_kinds() {
    let g = graph();
    let mut one = Session::builder().build(&g).unwrap();
    let seen = [
        one.apply(existing_edge(&g)).unwrap_err(),
        one.handoff(SOURCE, 1).unwrap_err(),
    ];
    check("memory p=1", &seen);

    let mut two = Session::builder().workers(2).build(&g).unwrap();
    let seen = [
        two.apply(existing_edge(&g)).unwrap_err(),
        two.handoff(SOURCE, 7).unwrap_err(),
        two.replay_to(0).unwrap_err(),
    ];
    check("memory p=2", &seen);
}

#[test]
fn a_sharded_session_raises_its_kinds() {
    let g = graph();
    let dir = tmpdir("kinds_sharded");
    let io = Session::builder()
        .backend(Backend::Disk(uncreatable(&dir)))
        .workers(3)
        .build(&g)
        .unwrap_err();
    let ahead = Session::open(records_ahead_dir(&g, dir.join("ahead"))).unwrap_err();
    let gap = Session::open(history_gap_dir(&g, dir.join("gap"))).unwrap_err();

    let live = dir.join("live");
    let mut session = sharded(&g, &live);
    let invalid = session.apply(existing_edge(&g)).unwrap_err();
    zero_sigma_on_disk(&live, &g);
    let corrupt = session.reduce_exact().unwrap_err();
    // the worker that summed the record is poisoned, and the engine with it
    let lost = session.apply(non_edge_adds(&g, 1)[0]).unwrap_err();
    check("sharded p=3", &[io, ahead, gap, invalid, corrupt, lost]);
    drop(session);
    std::fs::remove_dir_all(&dir).ok();
}

/// One request to `node` from a peer outside the coordinator (so its own
/// dedup stream), at map version `version`.
fn peer_rpc(net: &TestNet, node: NodeId, seq: u64, version: u64, req: Request) -> Reply {
    let peer = NodeId(99);
    let mailbox = net.add_node(peer);
    let frame = wire::encode(&NodeMsg::Request { seq, version, req });
    net.transport(peer).send(node, None, &frame).unwrap();
    loop {
        let env = mailbox
            .recv_timeout(Duration::from_secs(10))
            .expect("reply");
        if let Ok(NodeMsg::Reply { reply, .. }) = wire::decode(&env.frame) {
            return reply;
        }
    }
}

#[test]
fn a_fleet_raises_its_kinds() {
    let g = graph();
    let dir = tmpdir("kinds_fleet");
    let Err(io) = SimBuilder::new(3).persist_to(uncreatable(&dir)).launch(&g) else {
        panic!("a coordinator journal below a regular file was created");
    };

    // shard 1's only node dies applying its first update
    let kill = KillSpec {
        window: KillWindow::MidApply,
        at_index: 1,
    };
    let mut sim = SimBuilder::new(3)
        .unreplicated()
        .kill(NodeId(2), kill)
        .launch(&g)
        .unwrap();
    let lost = sim.coord.apply(non_edge_adds(&g, 1)[0]).unwrap_err();
    sim.shutdown();

    let mut sim = SimBuilder::new(3).launch(&g).unwrap();
    let invalid = sim.coord.apply(existing_edge(&g)).unwrap_err();
    // an arriving vertex is adopted, which advances the map version to 1
    let grow = [Update::add(0, g.n() as u32)];
    sim.coord.apply(grow[0]).unwrap();
    let Reply::Err(fenced) = peer_rpc(&sim.net, NodeId(1), 1, 0, Request::Partials) else {
        panic!("a request from map version 0 was served at version 1");
    };
    // shard 1 is handed a copy of shard 0's record of SOURCE with σ = 0
    let mut bad = record(&g, &grow);
    bad.sigma[neighbour(&g)] = 0;
    let imported = peer_rpc(&sim.net, NodeId(2), 2, 1, Request::Import { record: bad });
    assert!(matches!(imported, Reply::Ok(_)), "{imported:?}");
    let corrupt = sim.coord.reduce_exact().unwrap_err();
    sim.shutdown();
    check("fleet p=3", &[io, lost, invalid, fenced, corrupt]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The decoded `error` object of one request's response.
fn wire_error(client: &mut Client, line: &str) -> Error {
    let resp = client.request(line);
    let error = resp
        .get("error")
        .unwrap_or_else(|| panic!("{line}: {}", resp.to_json()));
    decode_error(error).unwrap_or_else(|| panic!("untyped error {}", error.to_json()))
}

fn serving(handle: ServerHandle, requests: &[String]) -> Vec<Error> {
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    let seen = requests
        .iter()
        .map(|r| wire_error(&mut client, r))
        .collect();
    drop(client);
    handle.shutdown();
    handle.join();
    seen
}

#[test]
fn the_serve_wire_raises_every_kind_it_carries() {
    let g = graph();
    let dir = tmpdir("kinds_serve");
    let cfg = ServerConfig::default;
    let apply = |u: Update| apply_line(1, None, &[u]);
    let mut seen = Vec::new();

    let memory = Session::builder().build(&g).unwrap();
    let handle = Server::spawn(ServedSession::new(memory), cfg()).unwrap();
    let handoff = format!(r#"{{"cmd":"handoff","source":{SOURCE},"to":1}}"#);
    seen.extend(serving(handle, &[apply(existing_edge(&g)), handoff]));

    let live = dir.join("live");
    let handle = Server::spawn(ServedSession::new(sharded(&g, &live)), cfg()).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    // with the directory moved away the checkpoint cannot write its manifest
    std::fs::rename(&live, dir.join("moved")).unwrap();
    seen.push(wire_error(&mut client, r#"{"cmd":"checkpoint"}"#));
    std::fs::rename(dir.join("moved"), &live).unwrap();
    zero_sigma_on_disk(&live, &g);
    seen.push(wire_error(&mut client, r#"{"cmd":"reduce_exact"}"#));
    seen.push(wire_error(&mut client, &apply(non_edge_adds(&g, 1)[0])));
    drop(client);
    handle.shutdown();
    handle.join();

    // `sbc serve --open` on a directory it cannot resume serves the reason
    for unresumable in [
        records_ahead_dir(&g, dir.join("ahead")),
        history_gap_dir(&g, dir.join("gap")),
    ] {
        let why = Session::open(unresumable).unwrap_err();
        let handle = Server::spawn_unavailable(why, cfg()).unwrap();
        seen.extend(serving(handle, &[r#"{"cmd":"scores"}"#.to_string()]));
    }

    // a served fleet whose coordinator was reclaimed refuses new work
    let sim = SimBuilder::new(1).unreplicated().launch(&g).unwrap();
    let served = ServedCluster::new(sim.coord);
    let keeper = served.clone();
    let handle = Server::spawn(served, cfg()).unwrap();
    let coord = keeper.take().unwrap();
    seen.extend(serving(handle, &[apply(non_edge_adds(&g, 1)[0])]));
    coord.shutdown();

    check("serve", &seen);
    std::fs::remove_dir_all(&dir).ok();
}
