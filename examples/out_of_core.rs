//! Out-of-core operation (the paper's DO configuration, §5.1) through the
//! `Session` facade: the per-source betweenness data lives on disk in the
//! paper's 11-byte-per-vertex columnar codec and records are updated in
//! place as edges stream in. A store widens itself to 20 bytes per vertex
//! the first time a distance or path count does not fit; the example
//! prints the width its store ends at.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use streaming_bc::gen::models::holme_kim;
use streaming_bc::gen::streams::{addition_stream, removal_stream};
use streaming_bc::store::ShardSet;
use streaming_bc::{Backend, Checkpoint, Session, Update};

fn main() {
    let g = holme_kim(800, 5, 0.5, 3);
    let dir = std::env::temp_dir().join("streaming_bc_out_of_core");
    let _ = std::fs::remove_dir_all(&dir);

    // Records start at the paper's cells: d:u8, σ:u16, δ:f64 = 11 bytes
    // per vertex. Manual checkpointing keeps the stream itself free of
    // manifest rewrites.
    let mut session = Session::builder()
        .backend(Backend::Disk(dir.clone()))
        .checkpoint(Checkpoint::Manual)
        .build(&g)
        .expect("bootstrap");
    println!(
        "bootstrapped {} sources into {} (O(n²) total, §5.1)",
        g.n(),
        dir.display(),
    );

    let mut updates: Vec<Update> = addition_stream(&g, 10, 1)
        .into_iter()
        .map(|(u, v)| Update::add(u, v))
        .collect();
    updates.extend(
        removal_stream(&g, 10, 2)
            .into_iter()
            .map(|(u, v)| Update::remove(u, v)),
    );
    session.apply_stream(&updates).unwrap();
    session.checkpoint().expect("checkpoint");
    println!(
        "applied {} updates in place, then checkpointed",
        updates.len()
    );

    let top = session.top_k(3).unwrap();
    let reduced = session.scores().unwrap();
    println!(
        "top-3 central vertices now: {:?}",
        top.iter()
            .map(|&v| (v, reduced.scores.vbc[v as usize]))
            .collect::<Vec<_>>()
    );
    drop(session);

    // the store file as the session left it: its codec is the live width
    let set = ShardSet::open(&dir).expect("reopen the store");
    let store = set.shard(0);
    println!(
        "store codec {:?}: {} bytes/record at n = {}",
        store.codec(),
        store.codec().record_size(g.n()),
        g.n(),
    );
    drop(set);
    std::fs::remove_dir_all(&dir).ok();
}
