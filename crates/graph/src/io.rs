//! Reading edge-list files.
//!
//! The paper's datasets (SNAP, WebGraph, DIMACS) are distributed as plain
//! edge lists; this module supports the common variants: whitespace-separated
//! `u v` pairs and optional `#`/`%` comment lines.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::graph::{Graph, VertexId};
use crate::{GraphBuilder, GraphError, Result};

/// Parses an edge-list from a reader.
///
/// Lines beginning with `#` or `%` are treated as comments. Each other line
/// must contain at least two whitespace-separated integers; extra columns
/// (e.g. weights or timestamps) are ignored.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph> {
    let mut builder = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u = it.next().and_then(|t| t.parse::<VertexId>().ok());
        let v = it.next().and_then(|t| t.parse::<VertexId>().ok());
        match (u, v) {
            (Some(u), Some(v)) => {
                builder.add_edge(u, v);
            }
            _ => {
                return Err(GraphError::Parse {
                    line: idx + 1,
                    content: line,
                })
            }
        }
    }
    builder.build()
}

/// Loads a graph from a whitespace-separated edge-list file.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let file = File::open(path)?;
    read_edge_list(BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_simple_edge_list() {
        let text = "# comment\n0 1\n1 2\n% another comment\n2 0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn extra_columns_ignored() {
        let text = "0 1 0.5\n1 2 0.25 extra\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_is_error() {
        let text = "0 1\nnot-an-edge\n";
        let err = read_edge_list(Cursor::new(text)).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn text_round_trip() {
        let g = Graph::from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let dir = std::env::temp_dir().join("huge_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        let text: String = g.edges().map(|(u, v)| format!("{u} {v}\n")).collect();
        std::fs::write(&path, text).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        let _ = std::fs::remove_file(path);
    }
}
