//! Crash/restart under traffic: a real `sbc serve` child process is
//! aborted **mid-batch** (deterministically, via the
//! `SBC_SERVE_CRASH_AFTER` injection point: the writer task applies and
//! checkpoints exactly the prefix that fits under the limit, then dies
//! without acknowledging) while a reader connection is active. The
//! directory must reopen through `Session::open` without a Brandes
//! bootstrap, bitwise equal to a serial oracle that applied exactly the
//! durable prefix — across the disk backend at p ∈ {1, 3, 8}.

mod common;

use common::{
    apply_line, bits_field, non_edge_adds, tmpdir, to_bits, u64_field, write_edgelist, Client,
    ServeChild,
};
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::io::load_graph;
use streaming_bc::{Backend, Session};

/// Updates the server is allowed to apply before the injected abort.
const CRASH_AFTER: u64 = 4;

/// One matrix cell: serve, crash mid-batch, verify both clients observe a
/// clean close (never a hang), then recover the directory bitwise.
fn check_crash_cell(extra_args: &[&str], dir: &std::path::Path, ctx: &str) {
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    let edges = dir.with_extension("edges");
    write_edgelist(&holme_kim(24, 2, 0.3, 11), &edges);
    // the oracle parses the same file the server does, so adjacency
    // order — which the bitwise summation depends on — is identical
    let g = load_graph(&edges).unwrap();
    let updates = non_edge_adds(&g, 7);
    let (batch1, batch2) = updates.split_at(3);
    assert!(
        (batch1.len() as u64) < CRASH_AFTER && CRASH_AFTER < updates.len() as u64,
        "the crash point must land inside the second batch"
    );

    let mut args = vec![
        "--edgelist",
        edges.to_str().unwrap(),
        "--dir",
        dir.to_str().unwrap(),
    ];
    args.extend_from_slice(extra_args);
    let crash = CRASH_AFTER.to_string();
    let server = ServeChild::spawn(&args, &[("SBC_SERVE_CRASH_AFTER", &crash)]);

    let mut reader = Client::connect(server.addr);
    let scores = reader.request_ok(r#"{"cmd":"scores"}"#);
    assert_eq!(
        u64_field(&scores, "seq"),
        0,
        "{ctx}: fresh server not at seq 0"
    );

    let mut writer = Client::connect(server.addr);
    let ack = writer.request_ok(&apply_line(1, batch1));
    assert_eq!(u64_field(&ack, "seq_last"), batch1.len() as u64);

    // this batch straddles the crash point: the server applies one more
    // update, checkpoints, and aborts without acking
    writer.send_lossy(&apply_line(1, batch2));
    assert_eq!(
        writer.recv_line(),
        None,
        "{ctx}: the crashed server must close the writer connection, not ack"
    );
    // the concurrent reader sees the close too — no hang, no garbage
    reader.send_lossy(r#"{"cmd":"scores"}"#);
    assert_eq!(
        reader.recv_line(),
        None,
        "{ctx}: the crashed server must close the reader connection"
    );
    let (status, _) = server.wait();
    assert!(!status.success(), "{ctx}: an abort must not exit cleanly");

    // recovery: exactly the durable prefix, no re-bootstrap
    let mut reopened = Session::open(dir)
        .unwrap_or_else(|e| panic!("{ctx}: mid-batch crash left an unopenable dir: {e}"));
    assert_eq!(
        reopened.brandes_runs(),
        Some(0),
        "{ctx}: recovery re-ran the bootstrap"
    );
    let recovered = reopened.reduce_exact().unwrap().scores;

    let mut oracle = Session::builder()
        .backend(Backend::Memory)
        .build(&g)
        .unwrap();
    oracle
        .apply_stream(&updates[..CRASH_AFTER as usize])
        .unwrap();
    let expect = oracle.reduce_exact().unwrap().scores;
    assert_eq!(
        to_bits(&recovered.vbc),
        to_bits(&expect.vbc),
        "{ctx}: recovered VBC is not the durable prefix"
    );
    assert_eq!(
        to_bits(&recovered.ebc),
        to_bits(&expect.ebc),
        "{ctx}: recovered EBC is not the durable prefix"
    );

    // and the recovery is a true continuation: the lost suffix can simply
    // be replayed
    reopened
        .apply_stream(&updates[CRASH_AFTER as usize..])
        .unwrap();
    oracle
        .apply_stream(&updates[CRASH_AFTER as usize..])
        .unwrap();
    let a = reopened.reduce_exact().unwrap().scores;
    let b = oracle.reduce_exact().unwrap().scores;
    assert_eq!(
        to_bits(&a.vbc),
        to_bits(&b.vbc),
        "{ctx}: replaying the lost suffix diverged"
    );

    // sanity on the wire-shape of the recovered state
    assert_eq!(bits_field(&scores, "vbc").len(), g.n());
}

#[test]
fn disk_server_crashes_mid_batch_and_recovers_bitwise() {
    let dir = tmpdir("crash_disk");
    check_crash_cell(&[], &dir, "disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_servers_crash_mid_batch_and_recover_bitwise() {
    for p in ["3", "8"] {
        let dir = tmpdir(&format!("crash_sharded_{p}"));
        check_crash_cell(&["--workers", p], &dir, &format!("sharded p={p}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
