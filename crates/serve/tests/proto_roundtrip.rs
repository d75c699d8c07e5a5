//! Protocol round-trip properties: random values and commands driven
//! through the line codec and the JSON layer under adversarial transport
//! conditions — oversized lines, split reads, trailing garbage, invalid
//! UTF-8. The invariant everywhere: malformed input yields a *structured*
//! protocol error (a typed `WireError` or a non-`Line` frame), never a
//! panic and never a frame boundary slipping so that work is half-applied.

use ebc_core::state::Update;
use ebc_serve::json::{self, Value, MAX_DEPTH};
use ebc_serve::proto::{Frame, LineReader, MAX_LINE};
use ebc_serve::{encode_update, parse_request, Command};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Read;

// ───────────────────────── helpers ──────────────────────────────────────

/// A reader that hands out its input in fixed-size fragments, modelling
/// arbitrary TCP segmentation.
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

fn frames(data: &[u8], chunk: usize) -> Vec<Frame> {
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
            f => out.push(f),
        }
    }
}

/// Tiny deterministic generator (xorshift64) so arbitrarily *nested* JSON
/// values can be derived from one proptest-drawn seed.
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

    /// Strings exercising escapes, control chars and multi-byte UTF-8.
    fn string(&mut self) -> String {
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{7}', 'é', 'ß', '漢', '𝄞',
            '\u{2028}',
        ];
        let len = (self.next() % 8) as usize;
        (0..len)
            .map(|_| ALPHABET[(self.next() as usize) % ALPHABET.len()])
            .collect()
    }

    fn value(&mut self, depth: usize) -> Value {
        let arms = if depth == 0 { 4 } else { 6 };
        match self.next() % arms {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::Num(self.finite_f64()),
            3 => Value::Str(self.string()),
            4 => {
                let len = (self.next() % 4) as usize;
                Value::Arr((0..len).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let len = (self.next() % 4) as usize;
                Value::Obj(
                    (0..len)
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect::<BTreeMap<_, _>>(),
                )
            }
        }
    }
}

proptest! {
    // ────────────────── JSON layer round trips ──────────────────────────

    /// Any value tree survives serialize → parse, and the serialized form
    /// is a fixed point (canonical).
    #[test]
    fn json_value_round_trips(seed in any::<u64>()) {
        let v = Gen(seed | 1).value(3);
        let line = v.to_json();
        let back = json::parse(&line)
            .unwrap_or_else(|e| panic!("rejected own output {line:?}: {e}"));
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json(), line);
    }

    /// Score floats cross the wire bitwise: the property the concurrency
    /// suite's `reduce_exact` oracle leans on.
    #[test]
    fn floats_round_trip_bitwise(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let line = Value::Num(x).to_json();
        let back = json::parse(&line).unwrap();
        prop_assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{}", line);
    }

    // ────────────────── line codec under fragmentation ──────────────────

    /// However the transport splits the byte stream, the exact same lines
    /// come out — including empty ones and multi-byte UTF-8 on chunk
    /// boundaries.
    #[test]
    fn any_fragmentation_reassembles_the_same_lines(
        seed in any::<u64>(),
        chunk in 1usize..48,
    ) {
        let mut gen = Gen(seed | 1);
        let lines: Vec<String> = (0..(gen.next() % 6 + 1))
            .map(|_| gen.string().replace(['\n', '\r'], "_"))
            .collect();
        let mut wire = Vec::new();
        for line in &lines {
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
        let got = frames(&wire, chunk);
        let want: Vec<Frame> = lines.iter().map(|l| Frame::Line(l.clone())).collect();
        prop_assert_eq!(got, want, "chunk={}", chunk);
    }

    /// Arbitrary garbage bytes before a valid request never panic the
    /// codec or the parser, and never swallow the valid frame that
    /// follows: every complete line yields *some* structured outcome and
    /// the trailing `ping` still parses.
    #[test]
    fn garbage_bytes_never_panic_and_never_eat_the_next_frame(
        junk in proptest::collection::vec(0u8..=255, 0..64),
        chunk in 1usize..16,
    ) {
        let mut wire = junk.clone();
        wire.push(b'\n');
        wire.extend_from_slice(b"{\"cmd\":\"ping\"}\n");
        let got = frames(&wire, chunk);
        prop_assert!(!got.is_empty());
        for frame in &got[..got.len() - 1] {
            match frame {
                // garbage may itself contain newlines: each piece must
                // come back as a typed error, never silently vanish
                Frame::Line(text) => {
                    if parse_request(text).is_err() {
                        let err = parse_request(text).unwrap_err();
                        prop_assert!(
                            matches!(err.kind, "parse" | "protocol"),
                            "untyped error kind {:?}",
                            err.kind
                        );
                    }
                }
                Frame::NotUtf8 => {}
                other => prop_assert!(false, "unexpected frame {:?}", other),
            }
        }
        let last = got.last().unwrap();
        match last {
            Frame::Line(text) => {
                prop_assert_eq!(parse_request(text).unwrap().cmd, Command::Ping);
            }
            other => prop_assert!(false, "ping frame lost: {:?}", other),
        }
    }

    // ────────────────── command layer round trips ───────────────────────

    /// Encoded apply batches parse back to the identical update sequence,
    /// with the correlation id echoed — for any vertex ids and op mix.
    #[test]
    fn apply_requests_round_trip(
        pairs in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..40),
        id in any::<u64>(),
    ) {
        let updates: Vec<Update> = pairs
            .iter()
            .map(|&(add, u, v)| if add { Update::add(u, v) } else { Update::remove(u, v) })
            .collect();
        let line = json::obj([
            ("id", Value::from(id.min(1 << 53))),
            ("cmd", Value::from("apply")),
            (
                "updates",
                Value::Arr(updates.iter().map(encode_update).collect()),
            ),
        ])
        .to_json();
        let req = parse_request(&line).unwrap();
        prop_assert_eq!(req.id, Value::from(id.min(1 << 53)));
        prop_assert_eq!(req.cmd, Command::Apply { updates });
    }

    /// A structurally valid JSON value that is not a request object is a
    /// typed error, never a panic — and appending garbage to a valid
    /// request makes it a `parse` error rather than a misread command.
    #[test]
    fn non_requests_and_trailing_garbage_are_typed(seed in any::<u64>()) {
        let v = Gen(seed | 1).value(2);
        let line = v.to_json();
        match parse_request(&line) {
            Ok(req) => prop_assert!(
                matches!(v, Value::Obj(_)),
                "non-object accepted: {:?}",
                req.cmd
            ),
            Err(err) => prop_assert!(
                matches!(err.kind, "parse" | "protocol"),
                "untyped error kind {:?} for {}",
                err.kind,
                line
            ),
        }
        let trailing = format!("{line}#trailing");
        prop_assert_eq!(parse_request(&trailing).unwrap_err().kind, "parse");
    }
}

proptest! {
    // expensive cases (multi-megabyte lines, deep nesting): a few draws
    // suffice — the boundary logic is size-driven, not value-driven
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A line over `MAX_LINE` is consumed and reported with its true
    /// length; the next frame parses as if the flood never happened.
    #[test]
    fn oversized_lines_are_skipped_with_exact_accounting(
        excess in 1usize..4096,
        chunk in 1usize..3,
    ) {
        let total = MAX_LINE + excess;
        let mut wire = vec![b'x'; total];
        wire.push(b'\n');
        wire.extend_from_slice(b"{\"cmd\":\"stats\"}\n");
        // huge chunks for the flood (speed), tiny ones near the boundary
        // are covered by the unit suite; chunk here varies the tail reads
        let got = frames(&wire, 1 << (16 + chunk));
        prop_assert_eq!(got.len(), 2);
        match &got[0] {
            Frame::Oversized(n) => prop_assert_eq!(*n, total),
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
        match &got[1] {
            Frame::Line(text) => {
                prop_assert_eq!(parse_request(text).unwrap().cmd, Command::Stats);
            }
            other => prop_assert!(false, "frame after flood lost: {:?}", other),
        }
    }

    /// Nesting beyond `MAX_DEPTH` is rejected by the depth guard (a typed
    /// parse error), not by blowing the stack.
    #[test]
    fn hostile_nesting_hits_the_depth_guard(extra in 1usize..2000) {
        let depth = MAX_DEPTH + extra;
        let mut line = "[".repeat(depth);
        line.push_str(&"]".repeat(depth));
        prop_assert!(json::parse(&line).is_err());
        prop_assert_eq!(parse_request(&line).unwrap_err().kind, "parse");
    }
}
