//! The out-of-core (DO) configuration must produce *identical* results to
//! the in-memory (MO) one — same kernel, different storage. This is the
//! correctness half of the paper's Figure 5 comparison.

use ebc_core::bd::BdStore;
use ebc_core::brandes::{single_source_update_with, BrandesScratch};
use ebc_core::scores::Scores;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::assert_matches_scratch;
use ebc_core::UpdateConfig;
use ebc_graph::Graph;
use ebc_store::disk::AddCrash;
use ebc_store::{CodecKind, DiskBdStore, RecoveryAction};

fn ring_with_chords(n: u32) -> Graph {
    let mut g = Graph::with_vertices(n as usize);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n).unwrap();
    }
    for i in (0..n).step_by(5) {
        let j = (i + n / 2) % n;
        if !g.has_edge(i, j) {
            g.add_edge(i, j).unwrap();
        }
    }
    g
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ebc_store_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn disk_backed_state_tracks_memory_state() {
    let g = ring_with_chords(24);
    let disk = DiskBdStore::create(tmp("do_eq_mo.dat"), g.n(), CodecKind::Wide).unwrap();
    let mut mo = BetweennessState::new(&g);
    let mut dob =
        BetweennessState::new_into_store(g.clone(), disk, UpdateConfig::default()).unwrap();

    let script = [
        Update::add(0, 7),
        Update::add(3, 18),
        Update::remove(0, 12),
        Update::remove(2, 3),
        Update::add(1, 13),
        Update::remove(0, 1),
    ];
    for (i, u) in script.into_iter().enumerate() {
        mo.apply(u).unwrap();
        dob.apply(u).unwrap();
        let ctx = format!("step {i}");
        assert_matches_scratch(dob.graph(), dob.scores(), 1e-6, &ctx);
        assert!(
            mo.scores().max_vbc_diff(dob.scores()) < 1e-12,
            "{ctx}: MO and DO diverged"
        );
        assert!(
            mo.scores().max_ebc_diff(dob.scores(), mo.graph()) < 1e-12,
            "{ctx}: EBC"
        );
    }
}

#[test]
fn disk_backed_state_handles_new_vertices() {
    let g = ring_with_chords(12);
    let disk = DiskBdStore::create(tmp("do_new_vertex.dat"), g.n(), CodecKind::Wide).unwrap();
    let mut st =
        BetweennessState::new_into_store(g.clone(), disk, UpdateConfig::default()).unwrap();
    st.apply(Update::add(3, 12)).unwrap(); // vertex 12 arrives, file is rewritten
    st.apply(Update::add(12, 7)).unwrap();
    assert_matches_scratch(st.graph(), st.scores(), 1e-6, "after growth");
}

/// Bootstrap `g` into a fresh disk store at `path`, tearing the very last
/// `add_source` at `crash` (simulated kill).
fn bootstrap_torn(g: &Graph, path: &std::path::Path, crash: AddCrash) {
    let mut store = DiskBdStore::create(path, g.n(), CodecKind::Wide).unwrap();
    let mut scores = Scores::zeros_for(g);
    let mut scratch = BrandesScratch::new(g.n());
    let last = (g.n() - 1) as u32;
    for s in 0..last {
        let r = single_source_update_with(g, s, &mut scores, &mut scratch).unwrap();
        store.add_source(s, r.d, r.sigma, r.delta).unwrap();
    }
    let r = single_source_update_with(g, last, &mut scores, &mut scratch).unwrap();
    store
        .add_source_crashing(last, r.d, r.sigma, r.delta, crash)
        .unwrap();
}

fn drive_and_compare(g: &Graph, mut dob: BetweennessState<DiskBdStore>) {
    let mut mo = BetweennessState::new(g);
    // resumed scores come from the exact reduction; MO's incremental ones
    // agree up to floating-point summation order
    assert!(mo.scores().max_vbc_diff(dob.scores()) < 1e-9);
    let script = [
        Update::add(0, 9),
        Update::remove(1, 2),
        Update::add(4, 15),
        Update::remove(0, 1),
    ];
    for (i, u) in script.into_iter().enumerate() {
        mo.apply(u).unwrap();
        dob.apply(u).unwrap();
        let ctx = format!("recovered step {i}");
        assert_matches_scratch(dob.graph(), dob.scores(), 1e-6, &ctx);
        assert!(
            mo.scores().max_vbc_diff(dob.scores()) < 1e-9,
            "{ctx}: MO and recovered DO diverged"
        );
        assert!(
            mo.scores().max_ebc_diff(dob.scores(), mo.graph()) < 1e-9,
            "{ctx}: EBC"
        );
    }
}

/// Bootstrap torn at `crash`, reopened: the last `add_source` never
/// committed its `count`, so it rolls back, is redone, and DO ≡ MO.
fn torn_bootstrap_rolls_back_and_matches_mo(name: &str, crash: AddCrash) {
    let g = ring_with_chords(20);
    let path = tmp(name);
    bootstrap_torn(&g, &path, crash);
    let mut store = DiskBdStore::open(&path).unwrap();
    assert_eq!(store.last_recovery(), Some(RecoveryAction::DroppedTail));
    assert_eq!(
        store.num_sources(),
        g.n() - 1,
        "the torn record was dropped"
    );
    // redo the lost bootstrap iteration, then everything must line up
    let mut scores = Scores::zeros_for(&g);
    let mut scratch = BrandesScratch::new(g.n());
    let last = (g.n() - 1) as u32;
    let r = single_source_update_with(&g, last, &mut scores, &mut scratch).unwrap();
    store.add_source(last, r.d, r.sigma, r.delta).unwrap();
    let dob = BetweennessState::resume(g.clone(), store, UpdateConfig::default()).unwrap();
    drive_and_compare(&g, dob);
}

/// A complete append whose `count` write never landed rolls back.
#[test]
fn store_torn_after_record_rolls_back_and_matches_mo() {
    torn_bootstrap_rolls_back_and_matches_mo("do_recover_rec.dat", AddCrash::AfterRecord);
}

#[test]
fn store_torn_mid_add_source_recovers_back_and_matches_mo() {
    torn_bootstrap_rolls_back_and_matches_mo("do_recover_back.dat", AddCrash::MidRecord);
}

#[test]
fn paper_codec_is_exact_on_small_graphs() {
    // Every cell of this graph fits the paper's 11-byte codec (d ≤ 254,
    // σ ≤ 65,535), so the store never widens, and DO at the paper codec
    // must match recomputation too.
    let g = ring_with_chords(16);
    let disk = DiskBdStore::create(tmp("do_paper.dat"), g.n(), CodecKind::Paper).unwrap();
    let mut st =
        BetweennessState::new_into_store(g.clone(), disk, UpdateConfig::default()).unwrap();
    st.apply(Update::add(1, 9)).unwrap();
    st.apply(Update::remove(0, 8)).unwrap();
    assert_matches_scratch(st.graph(), st.scores(), 1e-6, "paper codec");
    assert_eq!(st.store().codec(), CodecKind::Paper);
}
