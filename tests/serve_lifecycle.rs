//! Server lifecycle: graceful SIGTERM drain in a real child process, the
//! in-process `shutdown` command path, and the degraded server a
//! records-ahead session directory yields — every exit path must leave a
//! directory that reopens bootstrap-free, and every client-visible
//! failure must be a typed error, never a hang.

mod common;

use common::{
    apply_line, bits_field, error_kind, is_ok, non_edge_adds, tmpdir, to_bits, top_field,
    u64_field, write_edgelist, Client, ServeChild,
};
use ebc_serve::json::Value;
use ebc_serve::{Server, ServerConfig};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::io::load_graph;
use streaming_bc::serve::ServedSession;
use streaming_bc::{Backend, Checkpoint, ErrorKind, Session, Update};

/// SIGTERM against a live `sbc serve` child: in-flight work drains, the
/// session checkpoints, the process exits 0 — and the directory reopens
/// with zero Brandes runs, bitwise equal to the acked stream.
#[test]
fn sigterm_drains_checkpoints_and_reopens_bootstrap_free() {
    let dir = tmpdir("lifecycle_sigterm");
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    let edges = dir.with_extension("edges");
    write_edgelist(&holme_kim(24, 2, 0.3, 11), &edges);
    let g = load_graph(&edges).unwrap();
    let batch = non_edge_adds(&g, 3);

    let server = ServeChild::spawn(
        &[
            "--edgelist",
            edges.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
            "--workers",
            "3",
        ],
        &[],
    );
    let addr = server.addr;
    let mut client = Client::connect(addr);
    let ack = client.request_ok(&apply_line(1, &batch));
    assert_eq!(u64_field(&ack, "seq_last"), batch.len() as u64);

    server.signal("TERM");
    let (status, rest) = server.wait();
    assert!(status.success(), "SIGTERM drain must exit cleanly");
    assert!(
        rest.contains("drained"),
        "child did not report the drain: {rest:?}"
    );
    // the listener died with the process: fresh connections are refused
    assert!(
        TcpStream::connect(addr).is_err(),
        "a drained server must not accept connections"
    );

    let mut reopened = Session::open(&dir).unwrap();
    assert_eq!(
        reopened.brandes_runs(),
        Some(0),
        "the drain checkpoint must make reopen bootstrap-free"
    );
    let recovered = reopened.reduce_exact().unwrap().scores;
    let mut oracle = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    oracle.apply_stream(&batch).unwrap();
    let expect = oracle.reduce_exact().unwrap().scores;
    assert_eq!(to_bits(&recovered.vbc), to_bits(&expect.vbc));
    assert_eq!(to_bits(&recovered.ebc), to_bits(&expect.ebc));
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-process `shutdown` command: acked with `draining`, after which
/// the connection is closed promptly (work sent after the ack is refused
/// by the close, never half-applied) and the directory reopens
/// bootstrap-free with exactly the acked stream.
#[test]
fn shutdown_command_drains_and_refuses_new_work() {
    let dir = tmpdir("lifecycle_cmd");
    let g = holme_kim(24, 2, 0.3, 11);
    let batch = non_edge_adds(&g, 2);
    let session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .workers(3)
        .build(&g)
        .unwrap();
    // a unix socket of this test's own as well as the TCP port: a freed
    // ephemeral port can be handed to a sibling test's server at once, so
    // only the socket path can show the joined server refusing
    let socket = std::env::temp_dir().join(format!("sbc_lifecycle_{}.sock", std::process::id()));
    let config = ServerConfig {
        unix: Some(socket.clone()),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(ServedSession::new(session), config).unwrap();
    let addr = handle.tcp_addr().unwrap();
    assert!(UnixStream::connect(&socket).is_ok(), "the socket serves");

    let mut client = Client::connect(addr);
    client.request_ok(&apply_line(1, &batch));

    let resp = client.request_ok(r#"{"id":"bye","cmd":"shutdown"}"#);
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));
    assert!(handle.is_shutting_down());

    // the shutdown flag was set before the ack was enqueued, so a batch
    // sent after the ack is never even read: the draining server closes
    // the connection instead of half-applying late work
    client.send_lossy(&apply_line(1, &non_edge_adds(&g, 3)[2..]));
    assert_eq!(
        client.recv_line(),
        None,
        "a draining server must close, not apply, post-shutdown work"
    );

    drop(client);
    handle.join();
    assert!(
        UnixStream::connect(&socket).is_err(),
        "a joined server must not accept connections"
    );

    let mut reopened = Session::open(&dir).unwrap();
    assert_eq!(reopened.brandes_runs(), Some(0));
    let recovered = reopened.reduce_exact().unwrap().scores;
    let mut oracle = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    oracle.apply_stream(&batch).unwrap();
    assert_eq!(
        to_bits(&recovered.vbc),
        to_bits(&oracle.reduce_exact().unwrap().scores.vbc)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Ownership moves need shards to move between: on a memory, 1-worker
/// session `handoff` and `rebalance` answer the typed `unsupported` kind
/// (not a generic `engine` failure), and the server keeps serving.
#[test]
fn ownership_moves_are_unsupported_on_a_single_machine_session() {
    let g = holme_kim(24, 2, 0.3, 11);
    let session = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    let handle = Server::spawn(ServedSession::new(session), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    for cmd in [
        r#"{"cmd":"handoff","source":5,"to":0}"#,
        r#"{"cmd":"rebalance","threshold":1}"#,
    ] {
        let resp = client.request(cmd);
        assert!(!is_ok(&resp), "{cmd} must fail on one machine");
        assert_eq!(error_kind(&resp), "unsupported", "{cmd}");
    }
    client.request_ok(&apply_line(1, &non_edge_adds(&g, 1)));
    client.request_ok(r#"{"cmd":"shutdown"}"#);
    drop(client);
    handle.join();
}

/// Moves the shard map cannot record — onto a missing shard, onto the
/// current owner, of a source nobody owns — are `invalid`, naming the
/// source, on a memory and a sharded two-worker session, through the
/// library and through `sbc serve` over each. Nothing is poisoned: the
/// library sessions verify afterwards, and each server's exact scores
/// still equal a verified oracle's after one more update.
#[test]
fn refused_ownership_moves_are_invalid_on_every_sharded_session() {
    let dir = tmpdir("lifecycle_refused_moves");
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    let edges = dir.with_extension("edges");
    write_edgelist(&holme_kim(24, 2, 0.3, 11), &edges);
    let g = load_graph(&edges).unwrap();
    let moves = [(0u32, 7usize), (0, 0), (99, 1)];
    let update = non_edge_adds(&g, 1);

    for backend in [Backend::Memory, Backend::Disk(dir.join("library"))] {
        let mut session = Session::builder()
            .backend(backend.clone())
            .workers(2)
            .build(&g)
            .unwrap();
        for (source, to) in moves {
            let err = session.handoff(source, to).unwrap_err();
            assert_eq!(
                (err.kind(), err.source_vertex()),
                (ErrorKind::Invalid, Some(source)),
                "{backend:?}: handoff({source}, {to}): {err}"
            );
        }
        session.verify(1e-9).unwrap();
    }

    let mut oracle = Session::builder().build(&g).unwrap();
    oracle.apply_stream(&update).unwrap();
    oracle.verify(1e-9).unwrap();
    let want = oracle.reduce_exact().unwrap().scores;
    let wire_dir = dir.join("wire");
    let edges = edges.to_str().unwrap();
    for extra in [vec![], vec!["--dir", wire_dir.to_str().unwrap()]] {
        let mut args = vec!["--edgelist", edges, "--workers", "2"];
        args.extend(extra);
        let server = ServeChild::spawn(&args, &[]);
        let mut client = Client::connect(server.addr);
        for (source, to) in moves {
            let resp = client.request(&format!(
                r#"{{"cmd":"handoff","source":{source},"to":{to}}}"#
            ));
            assert_eq!(error_kind(&resp), "invalid", "{args:?}: {}", resp.to_json());
            let named = resp.get("error").and_then(|e| e.get("source"));
            assert_eq!(named.and_then(Value::as_u64), Some(u64::from(source)));
        }
        client.request_ok(&apply_line(1, &update));
        let exact = client.request_ok(r#"{"cmd":"reduce_exact"}"#);
        assert_eq!(bits_field(&exact, "vbc"), to_bits(&want.vbc), "{args:?}");
        assert_eq!(bits_field(&exact, "ebc"), to_bits(&want.ebc), "{args:?}");
        server.signal("TERM");
        assert!(server.wait().0.success());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(edges).ok();
}

/// A session directory whose records ran ahead of its manifest cannot be
/// resumed — `sbc serve --open` must still come up and answer every
/// command with the typed `records_ahead` census rather than crash-loop
/// or leave clients hanging.
#[test]
fn records_ahead_directory_serves_typed_errors() {
    let dir = tmpdir("lifecycle_degraded");
    let g = holme_kim(24, 2, 0.3, 11);
    {
        // manual checkpointing + a growth tail that is never checkpointed:
        // the records then own more sources than the manifest's graph
        let mut session = Session::builder()
            .backend(Backend::Disk(dir.clone()))
            .workers(3)
            .checkpoint(Checkpoint::Manual)
            .build(&g)
            .unwrap();
        session
            .apply_stream(&[Update::add(0, 24), Update::add(24, 25)])
            .unwrap();
        drop(session);
    }
    // precondition: the library refuses this directory with the census
    match Session::open(&dir) {
        Err(e) if matches!(e.kind(), ErrorKind::RecordsAhead { .. }) => {}
        other => panic!("expected RecordsAhead, got {other:?}"),
    }

    let server = ServeChild::spawn(&["--open", dir.to_str().unwrap()], &[]);
    let mut client = Client::connect(server.addr);

    // liveness is still observable
    let pong = client.request(r#"{"id":"p","cmd":"ping"}"#);
    assert!(is_ok(&pong), "ping must work on a degraded server");

    // everything else is the typed census, with all three fields
    for cmd in [
        r#"{"cmd":"scores"}"#,
        r#"{"cmd":"apply","update":["add",0,1]}"#,
        r#"{"cmd":"reduce_exact"}"#,
        r#"{"cmd":"checkpoint"}"#,
    ] {
        let resp = client.request(cmd);
        assert!(!is_ok(&resp), "{cmd} must fail on a degraded server");
        assert_eq!(error_kind(&resp), "records_ahead", "{cmd}");
        let err = resp.get("error").unwrap();
        let manifest = err
            .get("manifest_sources")
            .and_then(Value::as_u64)
            .expect("census field manifest_sources");
        let records = err
            .get("record_sources")
            .and_then(Value::as_u64)
            .expect("census field record_sources");
        assert!(records > manifest, "census must show the skew");
        assert!(
            err.get("manifest_map_version").is_some(),
            "census field manifest_map_version missing"
        );
        assert!(err.get("store_version").is_none(), "a fourth census field");
    }

    server.signal("TERM");
    let (status, _) = server.wait();
    assert!(status.success(), "degraded server must still drain cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// A session that answered a ranked read *before* being served publishes
/// that same index: the local read drains the engine's one-shot dense
/// baseline into the session's index, and the server publishes clones of
/// that index instead of building a second one from whatever the engine
/// has left to drain. Wire `top_k` / `scores` / `rank_of` equal the local
/// answers bit for bit, at generation 0 and after one `apply`.
#[test]
fn a_session_ranked_before_serving_publishes_its_index() {
    const K: usize = 5;
    let g = holme_kim(24, 2, 0.3, 11);
    let memory = || {
        Session::builder()
            .backend(Backend::Memory)
            .build(&g)
            .unwrap()
    };
    let mut session = memory();
    let local_top = session.top_k(K).unwrap();
    assert_eq!(local_top.len(), K);

    // the mirror never leaves this thread: the local answers to compare to
    let mut mirror = memory();
    let assert_wire_equals_local = |client: &mut Client, mirror: &mut Session, when: &str| {
        let vbc = mirror.scores().unwrap().scores.vbc;
        let want_top: Vec<(u32, u64)> = mirror
            .top_k(K)
            .unwrap()
            .iter()
            .map(|&v| (v, vbc[v as usize].to_bits()))
            .collect();
        let top = client.request_ok(&format!(r#"{{"cmd":"top_k","k":{K}}}"#));
        assert_eq!(top_field(&top), want_top, "{when}: wire top_k diverged");

        let scores = client.request_ok(r#"{"cmd":"scores"}"#);
        assert_eq!(
            bits_field(&scores, "vbc"),
            to_bits(&vbc),
            "{when}: wire scores diverged"
        );

        for v in 0..vbc.len() as u32 {
            let resp = client.request_ok(&format!(r#"{{"cmd":"rank_of","v":{v}}}"#));
            assert_eq!(
                Some(u64_field(&resp, "rank") as usize),
                mirror.rank_of(v).unwrap(),
                "{when}: wire rank_of({v}) diverged"
            );
        }
    };
    assert_eq!(mirror.top_k(K).unwrap(), local_top);

    let handle = Server::spawn(ServedSession::new(session), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.tcp_addr().unwrap());
    assert_wire_equals_local(&mut client, &mut mirror, "generation 0");

    let update = non_edge_adds(&g, 1);
    client.request_ok(&apply_line(1, &update));
    mirror.apply_stream(&update).unwrap();
    assert_wire_equals_local(&mut client, &mut mirror, "after one apply");

    drop(client);
    handle.shutdown();
    handle.join();
}
