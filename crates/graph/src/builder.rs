//! Checked graph construction.

use std::cmp::Reverse;

use crate::graph::{Graph, VertexId};
use crate::{GraphError, Result};

/// Incremental builder for [`Graph`], and the one way to make one.
///
/// The builder accumulates undirected edges, removes duplicates and self
/// loops, and produces a CSR [`Graph`] with sorted adjacency lists whose
/// vertices are numbered by descending degree, ties by input id. Every
/// generator and loader goes through [`GraphBuilder::build`], so every graph
/// the engine sees has hubs at the smallest ids.
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

    /// Finalizes the builder into a CSR graph in degree-rank order.
    ///
    /// The degrees counted for the offsets also renumber the vertices: a
    /// stable sort by descending degree gives each vertex its rank, and the
    /// CSR is filled with ranks directly, so the graph is written once. The
    /// rank → input id map is kept in the graph ([`Graph::input_id`]).
    ///
    /// # Errors
    /// [`GraphError::VertexOutOfRange`] if a builder made by
    /// [`GraphBuilder::with_vertices`] was given a vertex id at or past its
    /// declared count (the largest such id is reported).
    pub fn build(mut self) -> Result<Graph> {
        let n = match (self.declared_vertices, self.max_vertex) {
            (Some(n), Some(m)) if m as usize >= n => {
                let (vertex, max) = (u64::from(m), (n as u64).saturating_sub(1));
                return Err(GraphError::VertexOutOfRange { vertex, max });
            }
            (Some(n), _) => n,
            (None, m) => m.map_or(0, |m| m as usize + 1),
        };
        self.edges.sort_unstable();
        self.edges.dedup();
        let num_edges = self.edges.len() as u64;

        // Degree counting pass (each undirected edge contributes to both ends).
        let mut degrees = vec![0u64; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        // Renumber: rank `r` is the `r`-th vertex by descending degree, ties
        // by input id (the sort is stable).
        let mut input_ids: Vec<VertexId> = (0..n as VertexId).collect();
        input_ids.sort_by_key(|&v| Reverse(degrees[v as usize]));
        let mut rank = vec![0 as VertexId; n];
        for (r, &v) in input_ids.iter().enumerate() {
            rank[v as usize] = r as VertexId;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &v in &input_ids {
            acc += degrees[v as usize];
            offsets.push(acc);
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut neighbours = vec![0 as VertexId; acc as usize];
        for &(u, v) in &self.edges {
            let (u, v) = (rank[u as usize], rank[v as usize]);
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
        Ok(Graph::from_csr(offsets, neighbours, num_edges, input_ids))
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
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        // Input vertex 3 is the hub, so it is vertex 0; the leaves keep
        // their input order behind it.
        let input_ids: Vec<VertexId> = g.vertices().map(|v| g.input_id(v)).collect();
        assert_eq!(input_ids, [3, 0, 1, 2]);
        assert_eq!(g.neighbours(0), &[1, 2, 3]);
    }

    #[test]
    fn declared_vertices_keeps_isolated() {
        let mut b = GraphBuilder::with_vertices(10);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 5);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn an_edge_past_the_declared_vertices_is_a_typed_error() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 7).add_edge(1, 2);
        match b.build() {
            Err(GraphError::VertexOutOfRange { vertex, max }) => assert_eq!((vertex, max), (7, 3)),
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        // A self loop registers its vertex too; the last declared id is fine.
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(5, 5);
        assert!(matches!(
            b.build(),
            Err(GraphError::VertexOutOfRange { vertex: 5, max: 3 })
        ));
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 3);
        assert_eq!(b.build().unwrap().num_vertices(), 4);
    }
}
