//! Online monitoring of an evolving social network (the paper's §5.3
//! scenario): bootstrap on the historical graph, then keep centrality
//! current as timestamped edges arrive, checking whether updates finish
//! before the next arrival.
//!
//! The replays use the `ebc-engine` experiment harness directly, measured
//! on a live cluster at one and two workers; the batch catch-up at the end
//! runs through the `Session` facade — one partitioned session and one single-machine
//! session answering the same backlog bitwise-identically.
//!
//! ```sh
//! cargo run --release --example online_monitoring
//! ```

use streaming_bc::engine::{simulate_online, ClusterEngine};
use streaming_bc::gen::models::holme_kim_with_order;
use streaming_bc::gen::streams::replay_growth;
use streaming_bc::{Backend, Session, Update};

fn main() {
    // Grow a 600-vertex social graph; the last 50 edges form the live
    // stream, arriving with bursty (log-normal) gaps of ~15ms on average.
    let (full, order) = holme_kim_with_order(600, 5, 0.6, 7);
    let (bootstrap, stream) = replay_growth(&order, full.n(), 50, 0.015, 1.2, 11);
    println!(
        "historical graph: n={} m={}; live stream: {} edges over {:.2}s",
        bootstrap.n(),
        bootstrap.m(),
        stream.len(),
        stream.events().last().unwrap().time
    );

    // A live cluster per worker count (engine-layer experiment API). Each
    // update's time is the map's critical path plus the reduce, measured.
    println!(
        "\n{:>8} {:>10} {:>12} {:>13}",
        "workers", "% missed", "mean upd (s)", "avg delay (s)"
    );
    for p in [1usize, 2] {
        let mut cluster = ClusterEngine::new(&bootstrap, p).expect("bootstrap cluster");
        let r = simulate_online(&mut cluster, &stream).expect("replay");
        println!(
            "{:>8} {:>9.1}% {:>12.5} {:>13.5}",
            p,
            r.pct_missed(),
            r.mean_update_time(),
            r.avg_delay
        );
    }

    // Batch catch-up through the Session facade: a monitor that fell behind
    // replays the backlog on a 2-worker session, then cross-checks the
    // partition-invariant exact reduce against a single-machine session —
    // bit for bit, same API for both.
    let backlog: Vec<Update> = stream
        .events()
        .iter()
        .map(|e| Update {
            op: e.op,
            u: e.u,
            v: e.v,
        })
        .collect();
    let mut parallel = Session::builder()
        .backend(Backend::Memory)
        .workers(2)
        .build(&bootstrap)
        .expect("bootstrap session");
    let t0 = std::time::Instant::now();
    parallel.apply_stream(&backlog).expect("replay backlog");
    let batch_wall = t0.elapsed();
    let mut single = Session::builder()
        .backend(Backend::Memory)
        .build(&bootstrap)
        .expect("bootstrap session");
    single.apply_stream(&backlog).expect("replay backlog");
    let a = parallel.reduce_exact().expect("exact reduce").scores;
    let b = single.reduce_exact().expect("exact reduce").scores;
    let bitwise_equal = a
        .vbc
        .iter()
        .zip(&b.vbc)
        .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.ebc
            .iter()
            .zip(&b.ebc)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    println!(
        "\nbatch catch-up: {} edges pipelined in {:.4}s ({:.5}s/edge); \
         exact reduce bitwise equal across embodiments: {}",
        backlog.len(),
        batch_wall.as_secs_f64(),
        batch_wall.as_secs_f64() / backlog.len() as f64,
        bitwise_equal
    );

    println!("\nAn update is online when its time stays below the inter-arrival gap;");
    println!("adding workers divides per-update work until merges dominate.");
}
