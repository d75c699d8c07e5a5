//! Wire → [`Command`]: one JSON object per line, strictly validated.
//!
//! The parser is a pure function of the line text so the round-trip
//! proptest can drive it with adversarial input without a socket in sight.
//! Every failure is a typed [`WireError`] — malformed input never panics
//! and never reaches the engine.

use super::{Command, Request, WireError};
use crate::json::{self, Value};
use ebc_core::state::Update;

/// Largest accepted batch in one `apply` request. A guard, not a protocol
/// limit: bigger streams are chunked by the client, and the bound keeps one
/// hostile request from ballooning the writer queue's memory.
pub const MAX_BATCH: usize = 100_000;

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = json::parse(line).map_err(|e| WireError::parse(format!("malformed JSON: {e}")))?;
    let Value::Obj(_) = &value else {
        return Err(WireError::protocol("request must be a JSON object"));
    };
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let cmd_name = value
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::protocol("missing string field `cmd`"))?;

    let cmd = match cmd_name {
        "ping" => Command::Ping,
        "apply" => Command::Apply {
            updates: parse_updates(&value)?,
        },
        "scores" => Command::Scores,
        "top_k" => Command::TopK {
            k: required_usize(&value, "k")?,
        },
        "rank_of" => Command::RankOf {
            v: required_u32(&value, "v")?,
        },
        "reduce_exact" => Command::ReduceExact,
        "checkpoint" => Command::Checkpoint,
        "handoff" => Command::Handoff {
            source: required_u32(&value, "source")?,
            to: required_usize(&value, "to")?,
        },
        "rebalance" => Command::Rebalance {
            threshold: required_usize(&value, "threshold")?,
        },
        "stats" => Command::Stats,
        "subscribe" => {
            match value.get("what").and_then(Value::as_str) {
                Some("top_k") => {}
                Some(other) => {
                    return Err(WireError::protocol(format!(
                        "unknown subscription {other:?} (only \"top_k\")"
                    )))
                }
                None => return Err(WireError::protocol("subscribe needs `what`: \"top_k\"")),
            }
            Command::Subscribe {
                k: required_usize(&value, "k")?,
            }
        }
        "shutdown" => Command::Shutdown,
        other => return Err(WireError::protocol(format!("unknown command {other:?}"))),
    };
    Ok(Request { id, cmd })
}

fn required_usize(v: &Value, key: &str) -> Result<usize, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::protocol(format!("missing field `{key}`")))?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| WireError::protocol(format!("`{key}` must be a non-negative integer")))
}

fn required_u32(v: &Value, key: &str) -> Result<u32, WireError> {
    let x = required_usize(v, key)?;
    u32::try_from(x).map_err(|_| WireError::protocol(format!("`{key}` exceeds u32")))
}

/// `apply` carries either one `update` triple or an `updates` array of
/// triples; a triple is `[op, u, v]` with `op` ∈ {"add", "+", "remove",
/// "-"}.
fn parse_updates(v: &Value) -> Result<Vec<Update>, WireError> {
    let items: Vec<&Value> = match (v.get("update"), v.get("updates")) {
        (Some(single), None) => vec![single],
        (None, Some(batch)) => {
            let arr = batch
                .as_arr()
                .ok_or_else(|| WireError::protocol("`updates` must be an array"))?;
            arr.iter().collect()
        }
        (Some(_), Some(_)) => {
            return Err(WireError::protocol(
                "give either `update` or `updates`, not both",
            ))
        }
        (None, None) => {
            return Err(WireError::protocol(
                "apply needs `update` [op,u,v] or `updates` [[op,u,v],...]",
            ))
        }
    };
    if items.is_empty() {
        return Err(WireError::protocol("`updates` must not be empty"));
    }
    if items.len() > MAX_BATCH {
        return Err(WireError::protocol(format!(
            "batch of {} exceeds the per-request limit of {MAX_BATCH}",
            items.len()
        )));
    }
    items.into_iter().map(parse_triple).collect()
}

fn parse_triple(item: &Value) -> Result<Update, WireError> {
    let triple = item
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| WireError::protocol("an update is a triple [op, u, v]"))?;
    let op = triple[0]
        .as_str()
        .ok_or_else(|| WireError::protocol("update op must be a string"))?;
    let coord = |v: &Value, name: &str| {
        v.as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| WireError::protocol(format!("update {name} must be a u32 vertex id")))
    };
    let u = coord(&triple[1], "u")?;
    let v2 = coord(&triple[2], "v")?;
    match op {
        "add" | "+" => Ok(Update::add(u, v2)),
        "remove" | "-" => Ok(Update::remove(u, v2)),
        other => Err(WireError::protocol(format!(
            "unknown update op {other:?} (use \"add\"/\"+\" or \"remove\"/\"-\")"
        ))),
    }
}

/// Encode an update for the wire — the inverse of the triple parser, used
/// by clients (the bench harness, the test battery) and by the round-trip
/// proptest.
pub fn encode_update(u: &Update) -> Value {
    let op = match u.op {
        ebc_graph::EdgeOp::Add => "add",
        ebc_graph::EdgeOp::Remove => "remove",
    };
    Value::Arr(vec![
        Value::from(op),
        Value::from(u.u as u64),
        Value::from(u.v as u64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn parses_the_full_command_set() {
        let cases = [
            (r#"{"cmd":"ping"}"#, Command::Ping),
            (
                r#"{"cmd":"apply","updates":[["add",1,2],["-",0,2]]}"#,
                Command::Apply {
                    updates: vec![Update::add(1, 2), Update::remove(0, 2)],
                },
            ),
            (
                r#"{"cmd":"apply","update":["+",3,4]}"#,
                Command::Apply {
                    updates: vec![Update::add(3, 4)],
                },
            ),
            (r#"{"cmd":"scores"}"#, Command::Scores),
            (r#"{"cmd":"top_k","k":7}"#, Command::TopK { k: 7 }),
            (r#"{"cmd":"rank_of","v":9}"#, Command::RankOf { v: 9 }),
            (r#"{"cmd":"reduce_exact"}"#, Command::ReduceExact),
            (r#"{"cmd":"checkpoint"}"#, Command::Checkpoint),
            (
                r#"{"cmd":"handoff","source":5,"to":2}"#,
                Command::Handoff { source: 5, to: 2 },
            ),
            (
                r#"{"cmd":"rebalance","threshold":1}"#,
                Command::Rebalance { threshold: 1 },
            ),
            (r#"{"cmd":"stats"}"#, Command::Stats),
            (
                r#"{"cmd":"subscribe","what":"top_k","k":3}"#,
                Command::Subscribe { k: 3 },
            ),
            (r#"{"cmd":"shutdown"}"#, Command::Shutdown),
        ];
        for (line, want) in cases {
            let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(req.cmd, want, "{line}");
            assert_eq!(req.id, Value::Null);
        }
    }

    #[test]
    fn echoes_the_id() {
        let req = parse_request(r#"{"id":42,"cmd":"ping"}"#).unwrap();
        assert_eq!(req.id, Value::Num(42.0));
        let req = parse_request(r#"{"id":"abc","cmd":"ping"}"#).unwrap();
        assert_eq!(req.id, Value::Str("abc".into()));
    }

    #[test]
    fn unknown_fields_are_ignored() {
        for line in [
            r#"{"cmd":"scores","backend":"approx"}"#,
            r#"{"cmd":"scores","backend":7}"#,
            r#"{"cmd":"scores","colour":"blue","nested":{"a":[1]}}"#,
        ] {
            let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(req.cmd, Command::Scores, "{line}");
        }
        let req = parse_request(r#"{"cmd":"top_k","k":3,"backend":"exact"}"#).unwrap();
        assert_eq!(req.cmd, Command::TopK { k: 3 });
    }

    #[test]
    fn malformed_input_is_typed_not_fatal() {
        for (line, kind) in [
            ("", "parse"),
            ("{", "parse"),
            ("[1,2]", "protocol"),
            (r#"{"cmd":"nope"}"#, "protocol"),
            (r#"{"cmd":7}"#, "protocol"),
            (r#"{"cmd":"top_k"}"#, "protocol"),
            (r#"{"cmd":"top_k","k":-1}"#, "protocol"),
            (r#"{"cmd":"top_k","k":1.5}"#, "protocol"),
            (r#"{"cmd":"rank_of"}"#, "protocol"),
            (r#"{"cmd":"rank_of","v":4294967296}"#, "protocol"),
            (r#"{"cmd":"apply"}"#, "protocol"),
            (r#"{"cmd":"apply","updates":[]}"#, "protocol"),
            (r#"{"cmd":"apply","updates":[["add",1]]}"#, "protocol"),
            (r#"{"cmd":"apply","updates":[["mul",1,2]]}"#, "protocol"),
            (
                r#"{"cmd":"apply","updates":[["add",1,4294967296]]}"#,
                "protocol",
            ),
            (r#"{"cmd":"subscribe","k":3}"#, "protocol"),
            (r#"{"cmd":"subscribe","what":"scores","k":3}"#, "protocol"),
            (r#"{"cmd":"ping"} trailing"#, "parse"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, kind, "{line:?}: {}", err.message);
        }
    }

    #[test]
    fn update_encoding_round_trips() {
        let updates = vec![Update::add(0, 9), Update::remove(7, 3)];
        let line = obj([
            ("cmd", Value::from("apply")),
            (
                "updates",
                Value::Arr(updates.iter().map(encode_update).collect()),
            ),
        ])
        .to_json();
        let req = parse_request(&line).unwrap();
        assert_eq!(req.cmd, Command::Apply { updates });
    }
}
