//! The cluster over real sockets and real processes: `sbc node` children
//! speak the DESIGN.md §12 protocol through `TcpTransport`, a leader dies
//! by SIGKILL (no goodbye, no flush — the real failure mode), and the
//! coordinator's failover must keep the reduce bitwise equal to a serial
//! replay. The `sbc coord` batch driver gets the same treatment
//! end-to-end: its printed scores round-trip `f64` exactly.

mod common;

use common::{apply_line, bits_field, to_bits, write_edgelist, Client, SbcChild};
use ebc_cluster::{Coordinator, CoordinatorConfig, NodeId, ShardSpec, TcpTransport, COORD};
use std::time::Duration;
use streaming_bc::core::BetweennessState;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::io::load_graph;
use streaming_bc::graph::Graph;
use streaming_bc::Update;

fn spawn_node(id: u32) -> SbcChild {
    SbcChild::spawn_cmd("node", &["--id", &id.to_string()], &[])
}

fn update_stream(g: &Graph) -> Vec<Update> {
    let mut s = common::non_edge_adds(g, 3);
    let (u, v) = g.edges().next().expect("graph has an edge").0.endpoints();
    s.push(Update::remove(u, v));
    let n = g.n() as u32;
    s.push(Update::add(n, 1));
    s.push(Update::add(n, 6));
    s
}

fn oracle_bits(g: &Graph, stream: &[Update]) -> (Vec<u64>, Vec<u64>) {
    let mut st = BetweennessState::new(g);
    for &u in stream {
        st.apply(u).unwrap();
    }
    let s = st.exact_scores().unwrap();
    (to_bits(&s.vbc), to_bits(&s.ebc))
}

/// Drain a surviving node child and demand the clean protocol exit.
fn assert_drained(child: SbcChild, who: &str) {
    let (status, rest) = child.wait();
    assert!(status.success(), "{who} exited dirty");
    assert!(rest.contains("drained"), "{who} did not drain: {rest:?}");
}

/// Four real `sbc node` processes, an in-process coordinator dialing them
/// over TCP — and shard 0's leader SIGKILLed mid-stream. The socket just
/// goes dead; the lease expires; the follower process is promoted; the
/// scores never notice.
#[test]
fn sigkilled_tcp_leader_fails_over_bitwise() {
    let g = holme_kim(14, 2, 0.3, 3);
    let stream = update_stream(&g);
    let want = oracle_bits(&g, &stream);

    let nodes: Vec<SbcChild> = (1..=4).map(spawn_node).collect();
    let specs: Vec<ShardSpec> = (0..2)
        .map(|k| ShardSpec {
            leader: NodeId(1 + k),
            leader_hint: Some(nodes[k as usize].addr.to_string()),
            follower: Some(NodeId(3 + k)),
            follower_hint: Some(nodes[2 + k as usize].addr.to_string()),
        })
        .collect();

    let (tx, mb) = ebc_cluster::transport::mailbox();
    let transport = TcpTransport::new(COORD, tx);
    let cfg = CoordinatorConfig {
        rpc_timeout: Duration::from_millis(200),
        rpc_attempts: 5,
        ..CoordinatorConfig::default()
    };
    let mut coord = Coordinator::new(transport, mb, cfg);
    coord.bootstrap(&g, specs).expect("tcp bootstrap");

    for &u in &stream[..2] {
        coord.apply(u).expect("apply before the kill");
    }

    // SIGKILL shard 0's leader: no FIN handshake courtesy, just RST
    let mut nodes = nodes.into_iter();
    let mut victim = nodes.next().unwrap();
    victim.child.kill().expect("SIGKILL the leader");
    for &u in &stream[2..] {
        coord.apply(u).expect("apply across the failover");
    }
    assert_eq!(coord.failovers(), 1, "expected exactly one failover");
    assert_eq!(coord.groups()[0].leader, NodeId(3));

    let s = coord.reduce_exact().expect("reduce over tcp");
    assert_eq!(
        want,
        (to_bits(&s.vbc), to_bits(&s.ebc)),
        "SIGKILL failover changed the bits"
    );

    coord.shutdown();
    let (status, _) = victim.wait();
    assert!(!status.success(), "a SIGKILLed leader cannot exit cleanly");
    for (i, node) in nodes.enumerate() {
        assert_drained(node, &format!("node {}", i + 2));
    }
}

/// `sbc coord` end-to-end: real nodes, the batch CLI, and the printed
/// per-vertex/per-edge scores parsed back — `{}` on `f64` is
/// shortest-round-trip, so the comparison is still bitwise.
#[test]
fn coord_cli_drives_real_nodes_bitwise() {
    let dir = common::tmpdir("cluster_tcp_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("graph.edges");
    write_edgelist(&holme_kim(14, 2, 0.3, 3), &edges);
    let g = load_graph(&edges).unwrap();
    let stream = update_stream(&g);
    let (want_vbc, _) = oracle_bits(&g, &stream);

    let updates = dir.join("stream.updates");
    let mut text = String::new();
    for u in &stream {
        use std::fmt::Write as _;
        let sign = match u.op {
            streaming_bc::graph::EdgeOp::Add => '+',
            streaming_bc::graph::EdgeOp::Remove => '-',
        };
        writeln!(text, "{sign} {} {}", u.u, u.v).unwrap();
    }
    std::fs::write(&updates, text).unwrap();

    let nodes: Vec<SbcChild> = (1..=4).map(spawn_node).collect();
    let leaders = format!("1@{},2@{}", nodes[0].addr, nodes[1].addr);
    let followers = format!("3@{},4@{}", nodes[2].addr, nodes[3].addr);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sbc"))
        .args([
            "coord",
            "--edgelist",
            edges.to_str().unwrap(),
            "--updates",
            updates.to_str().unwrap(),
            "--leaders",
            &leaders,
            "--followers",
            &followers,
        ])
        .output()
        .expect("run sbc coord");
    assert!(
        out.status.success(),
        "sbc coord failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // parse the `v <id> <score>` lines back into bits
    let mut got_vbc = vec![0u64; want_vbc.len()];
    let mut seen = 0;
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some("v") {
            continue;
        }
        let v: usize = it.next().unwrap().parse().unwrap();
        let x: f64 = it.next().unwrap().parse().unwrap();
        got_vbc[v] = x.to_bits();
        seen += 1;
    }
    assert_eq!(seen, want_vbc.len(), "coord printed a wrong-sized vector");
    assert_eq!(want_vbc, got_vbc, "sbc coord scores not bitwise");
    assert!(
        stdout.contains("failovers=0"),
        "calm run reported failovers: {stdout:?}"
    );

    for (i, node) in nodes.into_iter().enumerate() {
        assert_drained(node, &format!("node {}", i + 1));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `sbc coord --serve`: four real node processes behind the JSON-line
/// frontend of DESIGN.md §11. A client speaking only the serve protocol
/// applies the stream and reduces — bitwise equal to the serial oracle —
/// without knowing a replicated fleet answers, and the `shutdown`
/// command drains the frontend, the coordinator, and every node.
#[test]
fn json_frontend_drives_cluster_bitwise() {
    let dir = common::tmpdir("cluster_tcp_serve");
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("graph.edges");
    write_edgelist(&holme_kim(14, 2, 0.3, 3), &edges);
    let g = load_graph(&edges).unwrap();
    let stream = update_stream(&g);
    let (want_vbc, want_ebc) = oracle_bits(&g, &stream);

    let nodes: Vec<SbcChild> = (1..=4).map(spawn_node).collect();
    let leaders = format!("1@{},2@{}", nodes[0].addr, nodes[1].addr);
    let followers = format!("3@{},4@{}", nodes[2].addr, nodes[3].addr);
    let coord = SbcChild::spawn_cmd(
        "coord",
        &[
            "--edgelist",
            edges.to_str().unwrap(),
            "--leaders",
            &leaders,
            "--followers",
            &followers,
            "--serve",
        ],
        &[],
    );

    let mut client = Client::connect(coord.addr);
    let stats = client.request_ok(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats
            .get("backend")
            .and_then(ebc_serve::json::Value::as_str),
        Some("cluster"),
        "the frontend must advertise the cluster engine"
    );
    assert_eq!(common::u64_field(&stats, "workers"), 2);

    for (i, chunk) in stream.chunks(2).enumerate() {
        client.request_ok(&apply_line(1 + i as u64, chunk));
    }
    let reduced = client.request_ok(r#"{"id":"r","cmd":"reduce_exact"}"#);
    assert_eq!(
        (want_vbc, want_ebc),
        (bits_field(&reduced, "vbc"), bits_field(&reduced, "ebc")),
        "frontend reduce over the cluster is not bitwise"
    );

    client.request_ok(r#"{"id":"bye","cmd":"shutdown"}"#);
    drop(client);
    let (status, rest) = coord.wait();
    assert!(status.success(), "coord --serve exited dirty");
    assert!(rest.contains("drained"), "coord did not drain: {rest:?}");
    for (i, node) in nodes.into_iter().enumerate() {
        assert_drained(node, &format!("node {}", i + 1));
    }
    std::fs::remove_dir_all(&dir).ok();
}
