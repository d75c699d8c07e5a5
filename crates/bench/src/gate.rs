//! The exact-counter gate over `BENCH_paper.json`.
//!
//! Every row the `paper` harness records splits into fields that do not
//! depend on the host (graph shape, the kernel's work counters, store byte
//! counts, peel counts, ...) and fields read from a clock, which live under
//! a `"wall"` key. [`diff`] compares two sections field by field, skipping
//! every `"wall"` subtree, and names each field that differs.

use ebc_serve::json::Value;

/// Every difference between `committed` and `measured` outside `"wall"`
/// subtrees, one line each, named by path from `at`. Array elements that
/// carry an `"id"` are named by it, others by index.
pub fn diff(at: &str, committed: &Value, measured: &Value) -> Vec<String> {
    let mut out = Vec::new();
    walk(at, committed, measured, &mut out);
    out
}

fn walk(at: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    match (a, b) {
        (Value::Obj(x), Value::Obj(y)) => {
            for (k, va) in x.iter().filter(|(k, _)| *k != "wall") {
                match y.get(k) {
                    Some(vb) => walk(&format!("{at}.{k}"), va, vb, out),
                    None => out.push(format!("{at}.{k}: committed, not measured")),
                }
            }
            for k in y.keys().filter(|k| *k != "wall" && !x.contains_key(*k)) {
                out.push(format!("{at}.{k}: measured, not committed"));
            }
        }
        (Value::Arr(x), Value::Arr(y)) => {
            if x.len() != y.len() {
                out.push(format!(
                    "{at}: {} entries committed, {} measured",
                    x.len(),
                    y.len()
                ));
            }
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                let name = match va.get("id").and_then(Value::as_str) {
                    Some(id) => format!("{at}[{id}]"),
                    None => format!("{at}[{i}]"),
                };
                walk(&name, va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!(
            "{at}: committed {}, measured {}",
            a.to_json(),
            b.to_json()
        )),
    }
}

/// Serialize `doc` with the members of its top two object levels and the
/// items of arrays at the third level one per line, so a re-baseline of a
/// section diffs row by row.
pub fn render(doc: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let (open, close, items): (_, _, Vec<(Option<&String>, &Value)>) = match v {
            Value::Obj(m) if depth < 2 => ('{', '}', m.iter().map(|(k, x)| (Some(k), x)).collect()),
            Value::Arr(a) if depth == 2 => ('[', ']', a.iter().map(|x| (None, x)).collect()),
            _ => return out.push_str(&v.to_json()),
        };
        out.push(open);
        for (i, (key, item)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&pad);
            if let Some(k) = key {
                out.push_str(&Value::from(k.as_str()).to_json());
                out.push_str(": ");
            }
            go(item, depth + 1, out);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
    let mut out = String::new();
    go(doc, 0, &mut out);
    out + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_serve::json::{obj, parse};

    fn section(skipped: u64, wall: f64) -> Value {
        obj([(
            "rows",
            Value::from(vec![obj([
                ("id", "mo/synthetic-200/s1/add".into()),
                ("popped", Value::from(vec![Value::from(7u64), 9u64.into()])),
                (
                    "sources_skipped",
                    Value::from(vec![Value::from(150u64), skipped.into()]),
                ),
                ("wall", obj([("update_s", wall.into())])),
            ])]),
        )])
    }

    #[test]
    fn a_mutated_counter_is_named_and_clock_fields_are_not() {
        let committed = section(180, 0.5);
        assert!(diff("smoke", &committed, &section(180, 9.0)).is_empty());
        assert_eq!(
            diff("smoke", &committed, &section(0, 0.5)),
            vec![
                "smoke.rows[mo/synthetic-200/s1/add].sources_skipped[1]: committed 180, measured 0"
            ]
        );
    }

    #[test]
    fn missing_and_extra_fields_are_named() {
        let a = obj([("n", 200u64.into()), ("m", 1000u64.into())]);
        let b = obj([("n", 200u64.into()), ("ed", 3.5.into())]);
        assert_eq!(
            diff("g", &a, &b),
            vec![
                "g.m: committed, not measured",
                "g.ed: measured, not committed"
            ]
        );
    }

    #[test]
    fn render_round_trips() {
        let doc = obj([
            ("paper", obj([("note", "x".into())])),
            ("smoke", section(180, 0.25)),
        ]);
        let text = render(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(text.lines().count() > 4, "{text}");
    }
}
