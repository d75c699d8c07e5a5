//! Plain-text edge-list I/O.
//!
//! Formats supported, one edge per line, `#`-prefixed comments ignored:
//!
//! * `u v` — untimestamped edge
//! * `u v t` — edge with arrival timestamp (KONECT-style), producing an
//!   [`EdgeStream`] ordered by `t`
//!
//! All readers are buffered per the workspace I/O guidelines.

use crate::error::Error;
use crate::graph::{Graph, VertexId};
use crate::stream::{EdgeEvent, EdgeStream};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// A malformed line, with its 1-based line number: an `Invalid` error.
fn malformed(line: usize, content: &str) -> Error {
    Error::invalid(format!("malformed edge list at line {line}: {content:?}"))
}

/// Parse an untimestamped edge list into a graph. Duplicate edges and
/// self-loops are silently skipped (KONECT dumps contain both).
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, Error> {
    let mut g = Graph::new();
    let buf = BufReader::new(reader);
    let mut line_buf = String::new();
    let mut r = buf;
    let mut lineno = 0usize;
    loop {
        line_buf.clear();
        if r.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (
                parse_vertex(a, lineno, line)?,
                parse_vertex(b, lineno, line)?,
            ),
            _ => return Err(malformed(lineno, line)),
        };
        if u == v {
            continue;
        }
        g.ensure_vertex(u.max(v));
        let _ = g.add_edge(u, v); // ignore duplicates
    }
    Ok(g)
}

/// Parse a timestamped edge list (`u v t` per line) into an addition stream.
pub fn read_timestamped_edge_list<R: Read>(reader: R) -> Result<EdgeStream, Error> {
    let mut events = Vec::new();
    let mut r = BufReader::new(reader);
    let mut line_buf = String::new();
    let mut lineno = 0usize;
    loop {
        line_buf.clear();
        if r.read_line(&mut line_buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), Some(t)) => {
                let u = parse_vertex(a, lineno, line)?;
                let v = parse_vertex(b, lineno, line)?;
                // `f64::from_str` accepts `nan` and `inf`, which are no time
                let time = t
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite())
                    .ok_or_else(|| malformed(lineno, line))?;
                if u != v {
                    events.push(EdgeEvent::add(time, u, v));
                }
            }
            _ => return Err(malformed(lineno, line)),
        }
    }
    Ok(EdgeStream::from_events(events))
}

fn parse_vertex(tok: &str, line: usize, content: &str) -> Result<VertexId, Error> {
    tok.parse().map_err(|_| malformed(line, content))
}

/// Write a graph as a sorted `u v` edge list (deterministic output).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n={} m={}", g.n(), g.m())?;
    for (u, v) in g.sorted_edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Load a graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph, Error> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Save a graph to a file path.
pub fn save_graph<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_list() {
        let text = "# comment\n0 1\n1 2\n\n% other comment\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn parse_skips_duplicates_and_loops() {
        let text = "0 1\n1 0\n1 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.n(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
    }

    #[test]
    fn timestamped_roundtrip() {
        let text = "0 1 10.5\n1 2 3.25\n";
        let s = read_timestamped_edge_list(text.as_bytes()).unwrap();
        assert_eq!(s.len(), 2);
        // sorted by time
        assert_eq!(s.events()[0].time, 3.25);
        assert_eq!(s.events()[1].u, 0);
    }

    #[test]
    fn timestamped_nan_is_a_malformed_line() {
        let err = read_timestamped_edge_list("0 1 nan\n1 2 1.0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Invalid);
        assert!(err.context().contains("line 1"), "{err}");
    }

    #[test]
    fn timestamped_inf_is_a_malformed_line() {
        let err = read_timestamped_edge_list("0 1 1.0\n1 2 -inf\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Invalid);
        assert!(err.context().contains("line 2"), "{err}");
    }

    #[test]
    fn write_then_read() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 3).unwrap();
        g.add_edge(1, 2).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.sorted_edges(), g.sorted_edges());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ebc_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1).unwrap();
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.m(), 1);
        std::fs::remove_file(path).ok();
    }
}
