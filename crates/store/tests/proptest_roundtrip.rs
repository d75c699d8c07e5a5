//! Property tests for the on-disk store: arbitrary records must round-trip
//! bit-exactly from either start codec (a `Paper` store widens for them)
//! and survive reopen, and the update
//! path's endpoint peek must agree with the full record; random corruption
//! must be detected, never silently accepted as valid data.

use ebc_core::bd::BdStore;
use ebc_core::ErrorKind;
use ebc_graph::UNREACHABLE;
use ebc_store::{CodecKind, DiskBdStore};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("ebc_store_prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{case}_{}.bd", std::process::id()))
}

fn record_strategy(n: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u64>, Vec<f64>)> {
    (
        proptest::collection::vec(prop_oneof![3 => 0u32..1000, 1 => Just(UNREACHABLE)], n..=n),
        proptest::collection::vec(any::<u64>(), n..=n),
        proptest::collection::vec(-1e12f64..1e12, n..=n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn wide_codec_roundtrips_arbitrary_records(
        case in any::<u64>(),
        start in prop_oneof![Just(CodecKind::Paper), Just(CodecKind::Wide)],
        records in proptest::collection::vec(record_strategy(12), 1..6),
    ) {
        let path = tmp("roundtrip", case);
        let mut store = DiskBdStore::create(&path, 12, start).unwrap();
        for (i, (d, s, del)) in records.iter().enumerate() {
            store.add_source(i as u32, d.clone(), s.clone(), del.clone()).unwrap();
        }
        // reopen and verify every record bit-exactly, at the width the
        // data needed
        drop(store);
        let mut store = DiskBdStore::open(&path).unwrap();
        let fits = records.iter().all(|(d, s, _)| {
            d.iter().zip(s).all(|(&d, &s)| CodecKind::Paper.fits(d, s))
        });
        let width = if fits { start } else { CodecKind::Wide };
        prop_assert_eq!(store.codec(), width);
        for (i, (d, s, del)) in records.iter().enumerate() {
            store.read(i as u32, &mut |got_d, got_sigma, got_delta| {
                assert_eq!(got_d, &d[..]);
                assert_eq!(got_sigma, &s[..]);
                assert_eq!(got_delta, &del[..]);
            }).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peeks_agree_with_full_views(
        case in any::<u64>(),
        (d, s, del) in record_strategy(16),
        a in 0u32..16,
        b in 0u32..16,
    ) {
        let path = tmp("peek", case);
        let mut store = DiskBdStore::create(&path, 16, CodecKind::Wide).unwrap();
        store.add_source(7, d.clone(), s, del).unwrap();
        // the peek skips the source exactly when the record's endpoint
        // distances are equal, and otherwise hands over that record
        let mut seen = None;
        let skipped = store.update_batch(a, b, &mut |_, view| {
            seen = Some((view.d(a), view.d(b)));
            Ok(())
        }).unwrap();
        let (da, db) = (d[a as usize], d[b as usize]);
        prop_assert_eq!(skipped, (da == db) as u64);
        prop_assert_eq!(seen, (da != db).then_some((da, db)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_always_detected(
        case in any::<u64>(),
        (d, s, del) in record_strategy(8),
        cut in 1usize..64,
    ) {
        let path = tmp("trunc", case);
        {
            let mut store = DiskBdStore::create(&path, 8, CodecKind::Wide).unwrap();
            store.add_source(0, d, s, del).unwrap();
            store.flush().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        let cut = cut.min(raw.len() - 1);
        std::fs::write(&path, &raw[..raw.len() - cut]).unwrap();
        match DiskBdStore::open(&path) {
            Err(e) if e.kind() == ErrorKind::Corrupt => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "truncated store opened successfully"),
        }
        std::fs::remove_file(&path).ok();
    }
}
