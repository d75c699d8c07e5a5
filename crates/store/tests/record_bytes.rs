//! The on-disk record body, pinned byte for byte against columns built by
//! hand from `to_le_bytes` literals — independently of the code that
//! writes it, so a slip in column order, cell width or byte order fails
//! here even when every round trip through the store still agrees with
//! itself.

use ebc_graph::UNREACHABLE;
use ebc_store::{BdStore, CodecKind, DiskBdStore};
use std::path::PathBuf;

/// Bytes of the data-file header, then of a record's source-id prefix.
const HEADER_LEN: usize = 40;
const ID_LEN: usize = 8;
/// Live vertices and slab capacity: every column ends in `CAP - N` fresh
/// cells.
const N: usize = 3;
const CAP: usize = 5;
const SOURCE: u32 = 1;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ebc_record_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.bd", std::process::id()))
}

/// One column: its cells' little-endian bytes, back to back.
fn col<T, const B: usize>(cells: [T; CAP], le: fn(T) -> [u8; B]) -> Vec<u8> {
    cells.into_iter().flat_map(le).collect()
}

/// The one record's body as the data file holds it.
fn body_on_disk(path: &PathBuf, codec: CodecKind) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    let at = HEADER_LEN;
    assert_eq!(&bytes[at..at + ID_LEN], &(SOURCE as u64).to_le_bytes());
    let body = &bytes[at + ID_LEN..];
    assert_eq!(
        body.len(),
        codec.record_size(CAP),
        "one record, nothing after"
    );
    body.to_vec()
}

#[test]
fn record_bodies_are_d_then_sigma_then_delta_little_endian() {
    for codec in [CodecKind::Paper, CodecKind::Wide] {
        let path = tmp(&format!("codec{}", codec.id()));
        let mut st = DiskBdStore::create_with_capacity(&path, N, CAP, codec).unwrap();
        st.add_source(
            SOURCE,
            vec![254, 0, UNREACHABLE],
            vec![65_535, 1, 0],
            vec![-0.5, 0.0, 0.0],
        )
        .unwrap();
        st.fold().unwrap();
        let delta = col([-0.5f64, 0.0, 0.0, 0.0, 0.0], f64::to_le_bytes);
        let added = match codec {
            CodecKind::Paper => [
                col([254u8, 0, 255, 255, 255], u8::to_le_bytes),
                col([65_535u16, 1, 0, 0, 0], u16::to_le_bytes),
                delta,
            ],
            CodecKind::Wide => [
                col([254u32, 0, u32::MAX, u32::MAX, u32::MAX], u32::to_le_bytes),
                col([65_535u64, 1, 0, 0, 0], u64::to_le_bytes),
                delta,
            ],
        };
        assert_eq!(body_on_disk(&path, codec), added.concat(), "{codec:?} add");

        // one update rewrites cell 2's d and σ and two δ cells
        st.update_batch(0, 1, &mut |_, mut view| {
            view.set(2, 9, 65_535);
            view.delta[2] = -2.75;
            view.delta[0] = -0.125;
            view.wrote.as_mut().unwrap().extend([2, 0]);
            Ok(())
        })
        .unwrap();
        st.fold().unwrap();
        assert_eq!(st.codec(), codec, "the cells fit: no re-slab");
        let delta = col([-0.125f64, 0.0, -2.75, 0.0, 0.0], f64::to_le_bytes);
        let updated = match codec {
            CodecKind::Paper => [
                col([254u8, 0, 9, 255, 255], u8::to_le_bytes),
                col([65_535u16, 1, 65_535, 0, 0], u16::to_le_bytes),
                delta,
            ],
            CodecKind::Wide => [
                col([254u32, 0, 9, u32::MAX, u32::MAX], u32::to_le_bytes),
                col([65_535u64, 1, 65_535, 0, 0], u64::to_le_bytes),
                delta,
            ],
        };
        assert_eq!(
            body_on_disk(&path, codec),
            updated.concat(),
            "{codec:?} update"
        );
        drop(st);
        std::fs::remove_file(&path).ok();
    }
}
