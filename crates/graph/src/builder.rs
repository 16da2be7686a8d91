//! Checked graph construction.

use crate::graph::{Graph, VertexId};

/// Incremental builder for [`Graph`].
///
/// The builder accumulates undirected edges, removes duplicates and self
/// loops, and produces a CSR [`Graph`] with sorted adjacency lists.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    max_vertex: Option<VertexId>,
    /// When set, the vertex count is fixed even if some vertices are isolated.
    declared_vertices: Option<usize>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that will produce exactly `n` vertices (isolated
    /// vertices included), regardless of the maximum id seen in edges.
    pub fn with_vertices(n: usize) -> Self {
        GraphBuilder {
            declared_vertices: Some(n),
            ..Self::default()
        }
    }

    /// Number of edges added so far (before deduplication).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge. Self loops are silently ignored (the vertex
    /// is still registered so the vertex count reflects it).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        let m = self.max_vertex.unwrap_or(0).max(u).max(v);
        self.max_vertex = Some(m);
        if u == v {
            return self;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        self
    }

    /// Finalizes the builder into a CSR graph.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = match self.declared_vertices {
            Some(n) => n,
            None => self.max_vertex.map(|m| m as usize + 1).unwrap_or(0),
        };
        let num_edges = self.edges.len() as u64;

        // Degree counting pass (each undirected edge contributes to both ends).
        let mut degrees = vec![0u64; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut neighbours = vec![0 as VertexId; acc as usize];
        for &(u, v) in &self.edges {
            neighbours[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbours[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency list (the per-vertex slices).
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbours[lo..hi].sort_unstable();
        }
        Graph::from_csr(offsets, neighbours, num_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_sorts() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 1)
            .add_edge(1, 3)
            .add_edge(0, 3)
            .add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbours(3), &[0, 1, 2]);
    }

    #[test]
    fn declared_vertices_keeps_isolated() {
        let mut b = GraphBuilder::with_vertices(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 5);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(5), 0);
    }
}
