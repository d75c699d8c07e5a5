//! Structural graph snapshots: byte-exact persistence of the *whole*
//! dynamic-graph state, not just the edge set.
//!
//! The plain edge-list format of [`crate::io`] loses three things a
//! restarted betweenness session cannot live without:
//!
//! * **edge-slot assignment** — edge scores live in flat arrays indexed by
//!   [`EdgeId`], and slots are recycled after removals, so the slot a live
//!   edge occupies depends on the full mutation history;
//! * **free-slot stack order** — the next added edge pops the most recently
//!   freed slot; restoring the stack in a different order would assign
//!   future edges different ids than the original process would have;
//! * **adjacency order** — BFS and the update kernel accumulate `f64`
//!   dependencies in neighbour-list order (swap-remove scrambled, not
//!   sorted), so two graphs with identical edge sets but different list
//!   orders produce last-bit-different scores.
//!
//! A snapshot serializes all three, checksummed, so a reloaded graph is a
//! *bitwise continuation* of the saved one: every future update applies to
//! the same slots, walks neighbours in the same order, and rounds the same
//! way. This is the graph half of a durable session manifest (the `BD[·]`
//! records are the store's half).
//!
//! Format: a sealed record ([`crate::seal()`], magic `EBCGSNP1`) whose
//! payload is, all integers little-endian, `n: u64`, `slot_count: u64`,
//! one `u64` per slot (the packed [`EdgeKey`], or `u64::MAX` for a free
//! slot), `free_len: u64` + one `u32` per free-stack entry (bottom to top),
//! then per vertex a `u32` degree + `(to: u32, eid: u32)` halves in list
//! order.

use crate::graph::{EdgeId, EdgeKey, Graph, Half};
use crate::seal::{corrupt, seal_in_place, unseal, Cursor};
use std::fmt;

const MAGIC: &[u8; 8] = b"EBCGSNP1";
/// Marker for a free slot in the serialized slot table.
const FREE_SLOT: u64 = u64::MAX;

/// Errors from decoding sealed bytes: a structural snapshot, or any other
/// artefact read through [`crate::unseal`] and [`crate::Cursor`].
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not what they claim to be (bad magic, truncation,
    /// checksum mismatch, or internally inconsistent structure).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl Graph {
    /// Serialize the full structural state (see the module docs) into bytes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 12 * self.slots.len() + 8 * self.n());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(self.n() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.slots.len() as u64).to_le_bytes());
        for slot in &self.slots {
            let packed = match slot {
                Some(key) => key.0,
                None => FREE_SLOT,
            };
            buf.extend_from_slice(&packed.to_le_bytes());
        }
        buf.extend_from_slice(&(self.free.len() as u64).to_le_bytes());
        for &eid in &self.free {
            buf.extend_from_slice(&eid.to_le_bytes());
        }
        for halves in &self.adj {
            buf.extend_from_slice(&(halves.len() as u32).to_le_bytes());
            for h in halves {
                buf.extend_from_slice(&h.to.to_le_bytes());
                buf.extend_from_slice(&h.eid.to_le_bytes());
            }
        }
        seal_in_place(buf)
    }

    /// Rebuild a graph from [`Graph::snapshot_bytes`] output, validating the
    /// checksum and full structural consistency (slot table, free stack and
    /// adjacency lists must agree). The result is a bitwise continuation of
    /// the snapshotted graph: identical future slot assignment and
    /// neighbour iteration order.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(unseal(MAGIC, bytes)?);
        // every vertex carries at least its 4-byte degree
        let n = cur.count_u64(4)?;
        let slot_count = cur.count_u64(8)?;
        let mut slots: Vec<Option<EdgeKey>> = Vec::with_capacity(slot_count);
        let mut index = crate::fxhash::FxHashMap::default();
        for eid in 0..slot_count {
            let packed = cur.u64()?;
            if packed == FREE_SLOT {
                slots.push(None);
                continue;
            }
            let key = EdgeKey(packed);
            let (u, v) = key.endpoints();
            if u == v || (v as usize) >= n {
                return Err(corrupt(format!("slot {eid} holds invalid edge {key}")));
            }
            if index.insert(key, eid as EdgeId).is_some() {
                return Err(corrupt(format!("edge {key} occupies two slots")));
            }
            slots.push(Some(key));
        }
        let free_len = cur.count_u64(4)?;
        let mut free = Vec::with_capacity(free_len);
        let mut freed = vec![false; slot_count];
        for _ in 0..free_len {
            let eid = cur.u32()?;
            let slot = slots
                .get(eid as usize)
                .ok_or_else(|| corrupt(format!("free stack names slot {eid} of {slot_count}")))?;
            if slot.is_some() || std::mem::replace(&mut freed[eid as usize], true) {
                return Err(corrupt(format!(
                    "free stack entry {eid} is not a free slot"
                )));
            }
            free.push(eid);
        }
        if free.len() != slot_count - index.len() {
            return Err(corrupt("free stack does not cover the free slots"));
        }
        let mut adj: Vec<Vec<Half>> = Vec::with_capacity(n);
        let mut half_counts = vec![0u32; slot_count];
        for u in 0..n as u32 {
            let deg = cur.count_u32(8)?;
            let mut halves = Vec::with_capacity(deg);
            for _ in 0..deg {
                let to = cur.u32()?;
                let eid = cur.u32()?;
                let expected =
                    slots.get(eid as usize).copied().flatten().ok_or_else(|| {
                        corrupt(format!("adjacency of {u} names dead slot {eid}"))
                    })?;
                if expected != EdgeKey::new(u, to) {
                    return Err(corrupt(format!(
                        "adjacency of {u} maps slot {eid} to {to}, slot holds {expected}"
                    )));
                }
                half_counts[eid as usize] += 1;
                halves.push(Half { to, eid });
            }
            adj.push(halves);
        }
        cur.finish()?;
        for (eid, slot) in slots.iter().enumerate() {
            let want = if slot.is_some() { 2 } else { 0 };
            if half_counts[eid] != want {
                return Err(corrupt(format!(
                    "slot {eid} appears in {} adjacency halves, expected {want}",
                    half_counts[eid]
                )));
            }
        }
        Ok(Graph {
            adj,
            index,
            slots,
            free,
        })
    }

    /// True when `other` is structurally identical: same adjacency lists in
    /// the same order, same slot table, same free stack — the equality a
    /// snapshot round-trip guarantees (stronger than equal edge sets).
    pub fn structural_eq(&self, other: &Graph) -> bool {
        self.adj == other.adj && self.slots == other.slots && self.free == other.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with non-trivial history: removals recycled slots and
    /// swap-remove scrambled adjacency order.
    fn scrambled() -> Graph {
        let mut g = Graph::with_vertices(6);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5)] {
            g.add_edge(u, v).unwrap();
        }
        g.remove_edge(0, 2).unwrap();
        g.remove_edge(3, 4).unwrap();
        g.add_edge(1, 5).unwrap(); // reuses a freed slot
        g
    }

    #[test]
    fn roundtrip_is_structural_identity() {
        let g = scrambled();
        let g2 = Graph::from_snapshot_bytes(&g.snapshot_bytes()).unwrap();
        assert!(g.structural_eq(&g2));
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        assert_eq!(g.edge_slots(), g2.edge_slots());
        for u in g.vertices() {
            assert_eq!(g.neighbors(u), g2.neighbors(u), "adjacency order of {u}");
        }
    }

    #[test]
    fn restored_graph_continues_slot_recycling_identically() {
        let mut a = scrambled();
        let mut b = Graph::from_snapshot_bytes(&a.snapshot_bytes()).unwrap();
        // identical futures: removals free the same slots, additions pop
        // the same recycled ids
        assert_eq!(a.remove_edge(0, 1).unwrap(), b.remove_edge(0, 1).unwrap());
        assert_eq!(a.add_edge(2, 5).unwrap(), b.add_edge(2, 5).unwrap());
        assert_eq!(a.add_edge(0, 4).unwrap(), b.add_edge(0, 4).unwrap());
        assert!(a.structural_eq(&b));
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [Graph::new(), Graph::with_vertices(5)] {
            let g2 = Graph::from_snapshot_bytes(&g.snapshot_bytes()).unwrap();
            assert!(g.structural_eq(&g2));
        }
    }

    #[test]
    fn corruption_detected() {
        let g = scrambled();
        let good = g.snapshot_bytes();
        // flipped byte anywhere fails the checksum
        let mut bad = good.clone();
        bad[MAGIC.len() + 3] ^= 0x40;
        assert!(matches!(
            Graph::from_snapshot_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // truncation
        assert!(Graph::from_snapshot_bytes(&good[..good.len() - 9]).is_err());
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Graph::from_snapshot_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn inconsistent_structures_rejected() {
        // a snapshot whose free stack omits a free slot: build by editing a
        // valid graph's internals through a crafted byte stream is fiddly;
        // instead corrupt a clone's fields directly and serialize
        let mut g = scrambled();
        g.free.clear(); // free slots exist but the stack says none
        let bytes = g.snapshot_bytes();
        assert!(matches!(
            Graph::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
