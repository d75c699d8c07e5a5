//! Node-protocol codec properties, mirroring the serve crate's
//! `proto_roundtrip` battery: every message in the catalog survives
//! encode → decode exactly (bitwise for `f64` payloads, exactly for `u64`s
//! beyond `2^53` and for every `i128` of an exact sum), frames reassemble
//! identically under arbitrary transport fragmentation and survive
//! reordering, and malformed input — garbage
//! bytes, truncations, valid JSON of the wrong shape — always yields a
//! typed [`WireError`], never a panic.

use ebc_cluster::wire::{
    self, decode, encode, u64_of, u64_value, ErrKind, NodeId, NodeMsg, Reply, ReplyBody, Request,
    Role, ShardOp, WireError,
};
use ebc_core::bd::ExportedRecord;
use ebc_core::exact::ExactSum;
use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_serve::proto::{Frame, LineReader};
use proptest::prelude::*;
use std::io::Read;

// ───────────────────────── helpers ──────────────────────────────────────

/// Fixed-size-fragment reader modelling arbitrary TCP segmentation.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn lines(data: &[u8], chunk: usize) -> Vec<String> {
    let mut reader = LineReader::new(Chunked {
        data: data.to_vec(),
        pos: 0,
        chunk: chunk.max(1),
    });
    let mut out = Vec::new();
    loop {
        match reader
            .read_frame()
            .expect("clean streams never error")
            .expect("chunked reader never blocks")
        {
            Frame::Eof => return out,
            Frame::Line(l) => out.push(l),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// Deterministic xorshift generator deriving arbitrarily-shaped messages
/// from one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn finite_f64(&mut self) -> f64 {
        loop {
            let x = f64::from_bits(self.next());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// u64s biased toward the 2^53 exactness cliff and the extremes.
    fn u64(&mut self) -> u64 {
        match self.next() % 5 {
            0 => self.next() % 100,
            1 => (1 << 53) - 1 + self.next() % 3,
            2 => u64::MAX - self.next() % 3,
            3 => self.next() >> (self.next() % 40),
            _ => self.next(),
        }
    }

    /// i128s biased toward zero, both extremes and the `2^53` cliff.
    fn i128(&mut self) -> i128 {
        let wide = (i128::from(self.next()) << 64) | i128::from(self.next());
        match self.next() % 6 {
            0 => 0,
            1 => i128::MIN + (self.next() % 3) as i128,
            2 => i128::MAX - (self.next() % 3) as i128,
            3 => (1 << 53) - 1 + (self.next() % 3) as i128,
            4 => -((1 << 53) - 1 + (self.next() % 3) as i128),
            _ => wide,
        }
    }

    fn exact_sum(&mut self) -> ExactSum {
        let n = self.vec_len();
        let m = self.vec_len();
        ExactSum {
            vbc: (0..n).map(|_| self.i128()).collect(),
            ebc: (0..m).map(|_| self.i128()).collect(),
            sources: self.u64(),
        }
    }

    fn vec_len(&mut self) -> usize {
        (self.next() % 6) as usize
    }

    fn record(&mut self) -> ExportedRecord {
        let n = self.vec_len() + 1;
        ExportedRecord {
            source: (self.next() % 1000) as u32,
            d: (0..n)
                .map(|_| (self.next() % u32::MAX as u64) as u32)
                .collect(),
            sigma: (0..n).map(|_| self.u64()).collect(),
            delta: (0..n).map(|_| self.finite_f64()).collect(),
        }
    }

    fn update(&mut self) -> Update {
        let (u, v) = ((self.next() % 512) as u32, (self.next() % 512) as u32);
        if self.next().is_multiple_of(2) {
            Update::add(u, v)
        } else {
            Update::remove(u, v)
        }
    }

    fn scores(&mut self) -> Scores {
        let n = self.vec_len();
        let m = self.vec_len();
        Scores {
            vbc: (0..n).map(|_| self.finite_f64()).collect(),
            ebc: (0..m).map(|_| self.finite_f64()).collect(),
        }
    }

    fn op(&mut self) -> ShardOp {
        match self.next() % 4 {
            0 => ShardOp::Init {
                shard: (self.next() % 64) as u32,
                snapshot: (0..self.vec_len() * 7)
                    .map(|_| (self.next() & 0xff) as u8)
                    .collect(),
                sources: (0..self.vec_len())
                    .map(|_| (self.next() % 4096) as u32)
                    .collect(),
            },
            1 => ShardOp::Apply {
                update: self.update(),
                adopt: (self.next().is_multiple_of(2)).then(|| (self.next() % 4096) as u32),
            },
            2 => ShardOp::Export {
                source: (self.next() % 4096) as u32,
            },
            _ => ShardOp::Import {
                record: self.record(),
            },
        }
    }

    fn request(&mut self) -> Request {
        match self.next() % 10 {
            0 => Request::Bootstrap {
                shard: (self.next() % 64) as u32,
                snapshot: (0..self.vec_len() * 5)
                    .map(|_| (self.next() & 0xff) as u8)
                    .collect(),
                sources: (0..self.vec_len())
                    .map(|_| (self.next() % 4096) as u32)
                    .collect(),
                follower: (self.next().is_multiple_of(2))
                    .then(|| NodeId((self.next() % 64) as u32)),
                follower_hint: (self.next().is_multiple_of(3))
                    .then(|| format!("127.0.0.1:{}", self.next() % 65536)),
            },
            1 => Request::Apply {
                index: self.u64(),
                update: self.update(),
                adopt: (self.next().is_multiple_of(2)).then(|| (self.next() % 4096) as u32),
            },
            2 => Request::Partials,
            3 => Request::ExactSum,
            4 => Request::Export {
                source: (self.next() % 4096) as u32,
            },
            5 => Request::Import {
                record: self.record(),
            },
            6 => Request::Promote,
            7 => Request::Demote,
            8 => Request::Status,
            _ => Request::Shutdown,
        }
    }

    fn reply(&mut self) -> Reply {
        match self.next() % 8 {
            0 => Reply::Ok(ReplyBody::Done {
                wal_len: self.u64(),
                deduped: self.next().is_multiple_of(2),
                degraded: self.next().is_multiple_of(2),
            }),
            1 => Reply::Ok(ReplyBody::Bootstrapped {
                wal_len: self.u64(),
                brandes: self.u64(),
            }),
            2 => Reply::Ok(ReplyBody::Partials {
                scores: self.scores(),
            }),
            3 => Reply::Ok(ReplyBody::ExactSum {
                sum: self.exact_sum(),
            }),
            4 => Reply::Ok(ReplyBody::Exported {
                record: self.record(),
                wal_len: self.u64(),
                degraded: self.next().is_multiple_of(2),
            }),
            5 => Reply::Ok(ReplyBody::Status {
                role: match self.next() % 3 {
                    0 => Role::Idle,
                    1 => Role::Leader,
                    _ => Role::Follower,
                },
                version: self.u64(),
                shard: (self.next().is_multiple_of(2)).then(|| (self.next() % 64) as u32),
                wal_len: self.u64(),
                sources: self.u64(),
                fenced: self.u64(),
            }),
            _ => Reply::Err {
                kind: match self.next() % 3 {
                    0 => ErrKind::Fenced,
                    1 => ErrKind::Protocol,
                    _ => ErrKind::State,
                },
                msg: format!("err-{}", self.next() % 100),
                have: self.u64(),
            },
        }
    }

    fn msg(&mut self) -> NodeMsg {
        match self.next() % 5 {
            0 => NodeMsg::Request {
                seq: self.u64(),
                version: self.u64(),
                req: self.request(),
            },
            1 => NodeMsg::Reply {
                seq: self.u64(),
                reply: self.reply(),
            },
            2 => NodeMsg::Replicate {
                index: self.u64(),
                op: self.op(),
            },
            3 => NodeMsg::RepAck {
                wal_len: self.u64(),
            },
            _ => NodeMsg::Hello {
                from: NodeId((self.next() % 256) as u32),
                assign: (self.next().is_multiple_of(2)).then(|| NodeId((self.next() % 256) as u32)),
            },
        }
    }
}

// ───────────────────────── properties ───────────────────────────────────

proptest! {
    /// Every message in the catalog survives encode → decode, and the
    /// encoding is a fixed point (canonical member order, shortest floats).
    #[test]
    fn node_msgs_round_trip(seed in any::<u64>()) {
        let msg = Gen(seed | 1).msg();
        let line = encode(&msg);
        let back = decode(&line)
            .unwrap_or_else(|e| panic!("rejected own output {line:?}: {e}"));
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(encode(&back), line);
    }

    /// `u64` payloads cross exactly on both sides of the `2^53` cliff —
    /// the property σ counts and WAL indexes rely on.
    #[test]
    fn u64s_cross_exactly(x in any::<u64>()) {
        prop_assert_eq!(u64_of(&u64_value(x)), Some(x));
    }

    /// δ floats in exported records cross the wire bitwise, so a record
    /// imported over the network is byte-identical to a local handoff.
    #[test]
    fn record_floats_cross_bitwise(bits in any::<u64>(), sigma in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let msg = NodeMsg::Replicate {
            index: 3,
            op: ShardOp::Import {
                record: ExportedRecord {
                    source: 0,
                    d: vec![0],
                    sigma: vec![sigma],
                    delta: vec![x],
                },
            },
        };
        let NodeMsg::Replicate { op: ShardOp::Import { record }, .. } =
            decode(&encode(&msg)).unwrap()
        else {
            panic!("shape changed in flight")
        };
        prop_assert_eq!(record.delta[0].to_bits(), x.to_bits());
        prop_assert_eq!(record.sigma[0], sigma);
    }

    /// An exact-sum reply crosses bitwise: every `i128`, including 0 and
    /// both extremes, decodes to the value that was sent.
    #[test]
    fn exact_sums_cross_bitwise(seed in any::<u64>()) {
        let mut sum = Gen(seed | 1).exact_sum();
        sum.vbc.extend([0, i128::MIN, i128::MAX, -1]);
        let msg = NodeMsg::Reply {
            seq: 4,
            reply: Reply::Ok(ReplyBody::ExactSum { sum: sum.clone() }),
        };
        let NodeMsg::Reply { reply: Reply::Ok(ReplyBody::ExactSum { sum: back }), .. } =
            decode(&encode(&msg)).unwrap()
        else {
            panic!("shape changed in flight")
        };
        prop_assert_eq!(back, sum);
    }

    /// However the transport fragments the byte stream, the exact same
    /// frames come out and decode to the original messages — and decoding
    /// is per-line, so delivery order doesn't affect any individual frame
    /// (the dedup layers above handle reordering semantics).
    #[test]
    fn fragmentation_and_reordering_are_harmless(
        seed in any::<u64>(),
        chunk in 1usize..48,
    ) {
        let mut gen = Gen(seed | 1);
        let msgs: Vec<NodeMsg> = (0..(gen.next() % 5 + 1)).map(|_| gen.msg()).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(encode(m).as_bytes());
            stream.push(b'\n');
        }
        let got = lines(&stream, chunk);
        prop_assert_eq!(got.len(), msgs.len(), "chunk={}", chunk);
        for (line, want) in got.iter().zip(&msgs) {
            prop_assert_eq!(&decode(line).unwrap(), want);
        }
        // reversed delivery: every frame still decodes to its own message
        for (line, want) in got.iter().rev().zip(msgs.iter().rev()) {
            prop_assert_eq!(&decode(line).unwrap(), want);
        }
    }

    /// Arbitrary garbage is a typed error, never a panic: raw bytes,
    /// truncated valid frames, and bit-flipped valid frames all map to
    /// `WireError::{Json, Schema}`.
    #[test]
    fn garbage_is_typed_never_a_panic(
        junk in proptest::collection::vec(0u8..=255, 0..64),
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let text = String::from_utf8_lossy(&junk);
        if let Err(e) = decode(&text) {
            prop_assert!(matches!(e, WireError::Json(_) | WireError::Schema(_)));
        }
        // truncating a valid frame must fail (or re-parse as valid JSON
        // of the wrong shape) — never panic, never half-decode
        let line = encode(&Gen(seed | 1).msg());
        let cut = cut % line.len().max(1);
        let truncated = &line[..line.floor_char_boundary(cut)];
        if let Err(e) = decode(truncated) {
            prop_assert!(matches!(e, WireError::Json(_) | WireError::Schema(_)));
        }
    }

    /// Valid JSON that isn't a protocol frame (or carries out-of-range
    /// ids) is a schema error with the offending field named.
    #[test]
    fn wrong_shapes_are_schema_errors(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        let shard = gen.next();
        let bads = [
            format!("{{\"t\":\"req\",\"seq\":1,\"v\":0,\"cmd\":\"mystery-{}\"}}", gen.next()),
            format!("{{\"t\":\"wal\",\"index\":0,\"op\":{{\"k\":\"init\",\"shard\":{},\"snapshot\":\"0g\",\"sources\":[]}}}}", shard % 64),
            format!("{{\"t\":\"req\",\"seq\":1,\"v\":0,\"cmd\":\"export\",\"source\":{}}}", u64::from(u32::MAX) + 1 + shard % 100),
            format!("{{\"t\":\"rep\",\"seq\":{},\"ok\":true,\"body\":\"nonsense\"}}", gen.next() % 100),
        ];
        for bad in &bads {
            match decode(bad) {
                Err(WireError::Schema(_)) => {}
                other => prop_assert!(false, "{bad} -> {other:?}"),
            }
        }
    }
}

/// An exact-sum value that is not an `i128` — a non-numeric or out-of-range
/// string, a fraction, a number past `2^53` — and every truncation of an
/// exact-sum frame is a typed error, never a panic or a saturated value.
#[test]
fn bad_exact_sum_values_are_typed_errors() {
    let frame = |vbc: &str| {
        format!(
            r#"{{"t":"rep","seq":1,"ok":true,"body":"exact_sum","sources":2,"vbc":[{vbc}],"ebc":[]}}"#
        )
    };
    assert!(decode(&frame(r#""-17",0"#)).is_ok());
    for bad in [
        r#""12a""#,
        r#""""#,
        r#""0x10""#,
        r#""170141183460469231731687303715884105728""#,
        r#""-170141183460469231731687303715884105729""#,
        "1.5",
        "1e300",
        "null",
    ] {
        match decode(&frame(bad)) {
            Err(WireError::Schema(_)) => {}
            other => panic!("{bad} -> {other:?}"),
        }
    }
    let line = encode(&NodeMsg::Reply {
        seq: 1,
        reply: Reply::Ok(ReplyBody::ExactSum {
            sum: ExactSum {
                vbc: vec![i128::MIN, 0, i128::MAX],
                ebc: vec![1 << 100],
                sources: 3,
            },
        }),
    });
    for cut in 0..line.len() {
        match decode(&line[..cut]) {
            Err(WireError::Json(_) | WireError::Schema(_)) => {}
            Ok(msg) => panic!("truncated frame {:?} decoded as {msg:?}", &line[..cut]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Big payloads (wide records, long source lists) still round trip —
    /// sized to stay under the serve codec's `MAX_LINE` cap, which the
    /// node protocol inherits.
    #[test]
    fn wide_records_round_trip(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        let n = 4096;
        let record = ExportedRecord {
            source: 7,
            d: (0..n).map(|_| (gen.next() % 64) as u32).collect(),
            sigma: (0..n).map(|_| gen.u64()).collect(),
            delta: (0..n).map(|_| gen.finite_f64()).collect(),
        };
        let msg = NodeMsg::Request {
            seq: 1,
            version: 0,
            req: Request::Import { record },
        };
        let line = encode(&msg);
        assert!(line.len() < ebc_serve::proto::MAX_LINE, "frame exceeds MAX_LINE");
        prop_assert_eq!(decode(&line).unwrap(), msg);
    }
}

/// `wire::decode_op` is public for WAL inspection: the journaled bytes of
/// a replicated entry decode to the same op the frame carried.
#[test]
fn wal_entry_bytes_decode_as_ops() {
    let mut gen = Gen(0xfeed_beef);
    for _ in 0..32 {
        let op = gen.op();
        let frame = encode(&NodeMsg::Replicate {
            index: 9,
            op: op.clone(),
        });
        let NodeMsg::Replicate { op: back, .. } = decode(&frame).unwrap() else {
            panic!("shape")
        };
        assert_eq!(back, op);
        let parsed = ebc_serve::json::parse(&frame).unwrap();
        let via_op = wire::decode_op(parsed.get("op").unwrap()).unwrap();
        assert_eq!(via_op, op);
    }
}
