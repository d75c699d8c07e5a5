//! Plain-text edge-list input: one `u v` edge per line, `#`- and
//! `%`-prefixed comments ignored. The reader is buffered per the workspace
//! I/O guidelines.

use crate::error::Error;
use crate::graph::{Graph, VertexId};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// A malformed line, with its 1-based line number: an `Invalid` error.
fn malformed(line: usize, content: &str) -> Error {
    Error::invalid(format!("malformed edge list at line {line}: {content:?}"))
}

/// Parse an edge list into a graph. Duplicate edges and
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

fn parse_vertex(tok: &str, line: usize, content: &str) -> Result<VertexId, Error> {
    tok.parse().map_err(|_| malformed(line, content))
}

/// Load a graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph, Error> {
    read_edge_list(std::fs::File::open(path)?)
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
}
