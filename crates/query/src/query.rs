//! The query-graph representation.

/// Identifier of a query vertex (`v1`, `v2`, … in the paper, 0-based here).
///
/// Query graphs are tiny (the paper's largest has 6 vertices); we cap the
/// representation at 32 vertices so vertex sets fit in a `u32` bitmask and
/// edge sets in a `u64` bitmask.
pub type QueryVertex = u8;

/// Maximum number of vertices in a query graph.
pub const MAX_QUERY_VERTICES: usize = 32;

/// Maximum number of edges in a query graph.
pub const MAX_QUERY_EDGES: usize = 64;

/// A symmetry-breaking partial order over query vertices.
///
/// Each pair `(a, b)` requires `ID(f(a)) < ID(f(b))` for a match `f`,
/// eliminating duplicate enumeration caused by automorphisms (§2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialOrder {
    constraints: Vec<(QueryVertex, QueryVertex)>,
}

impl PartialOrder {
    /// An empty order (no constraints).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a partial order from explicit `(smaller, larger)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (QueryVertex, QueryVertex)>>(pairs: I) -> Self {
        PartialOrder {
            constraints: pairs.into_iter().collect(),
        }
    }

    /// The `(smaller, larger)` constraint pairs.
    pub fn constraints(&self) -> &[(QueryVertex, QueryVertex)] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` when there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Checks a complete assignment `f` (indexed by query vertex) against
    /// every constraint.
    pub fn check_full(&self, assignment: &[u32]) -> bool {
        self.constraints
            .iter()
            .all(|&(a, b)| assignment[a as usize] < assignment[b as usize])
    }

    /// Constraints that involve `v` and some vertex in `assigned`.
    pub fn constraints_on(
        &self,
        v: QueryVertex,
    ) -> impl Iterator<Item = (QueryVertex, QueryVertex)> + '_ {
        self.constraints
            .iter()
            .copied()
            .filter(move |&(a, b)| a == v || b == v)
    }
}

/// A small, connected, unlabelled, undirected query graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryGraph {
    num_vertices: usize,
    /// Edge list with `u < v` per edge, sorted.
    edges: Vec<(QueryVertex, QueryVertex)>,
    /// Adjacency bitmask per vertex: bit `j` of `adj[i]` set iff `(i, j)` is
    /// an edge.
    adj: Vec<u32>,
    /// Symmetry-breaking partial order (may be empty).
    order: PartialOrder,
    /// Human-readable name (for reports); empty if anonymous.
    name: String,
}

impl QueryGraph {
    /// Creates a query graph with `num_vertices` vertices and the given
    /// undirected edges. Duplicate edges and self loops are rejected.
    ///
    /// # Panics
    /// Panics if `num_vertices` exceeds [`MAX_QUERY_VERTICES`], an edge is a
    /// self loop, is duplicated, or references an out-of-range vertex.
    pub fn new<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (QueryVertex, QueryVertex)>,
    {
        assert!(
            num_vertices <= MAX_QUERY_VERTICES,
            "query graphs are limited to {MAX_QUERY_VERTICES} vertices"
        );
        let mut adj = vec![0u32; num_vertices];
        let mut list: Vec<(QueryVertex, QueryVertex)> = Vec::new();
        for (u, v) in edges {
            assert!(u != v, "self loop on query vertex {u}");
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "query edge ({u}, {v}) out of range"
            );
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            assert!(
                adj[a as usize] & (1 << b) == 0,
                "duplicate query edge ({a}, {b})"
            );
            adj[a as usize] |= 1 << b;
            adj[b as usize] |= 1 << a;
            list.push((a, b));
        }
        list.sort_unstable();
        assert!(list.len() <= MAX_QUERY_EDGES);
        QueryGraph {
            num_vertices,
            edges: list,
            adj,
            order: PartialOrder::empty(),
            name: String::new(),
        }
    }

    /// Attaches a symmetry-breaking partial order.
    pub fn with_order(mut self, order: PartialOrder) -> Self {
        self.order = order;
        self
    }

    /// Attaches a human-readable name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The query's name ("" if anonymous).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The symmetry-breaking partial order.
    pub fn order(&self) -> &PartialOrder {
        &self.order
    }

    /// Number of query vertices `|V_q|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of query edges `|E_q|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The sorted edge list (each edge once, `u < v`).
    #[inline]
    pub fn edges(&self) -> &[(QueryVertex, QueryVertex)] {
        &self.edges
    }

    /// Neighbours of `v` in ascending order.
    pub fn neighbours(&self, v: QueryVertex) -> impl Iterator<Item = QueryVertex> + '_ {
        let mask = self.adj[v as usize];
        (0..self.num_vertices as u8).filter(move |&u| mask & (1 << u) != 0)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: QueryVertex) -> usize {
        self.adj[v as usize].count_ones() as usize
    }

    /// Returns `true` if `(u, v)` is a query edge.
    #[inline]
    pub fn has_edge(&self, u: QueryVertex, v: QueryVertex) -> bool {
        u != v && self.adj[u as usize] & (1 << v) != 0
    }

    /// Iterates all query vertices.
    pub fn vertices(&self) -> impl Iterator<Item = QueryVertex> {
        0..self.num_vertices as QueryVertex
    }

    /// Returns `true` if the query graph is connected (the empty graph is
    /// considered connected).
    pub fn is_connected(&self) -> bool {
        if self.num_vertices == 0 {
            return true;
        }
        let mut visited = 1u32;
        let mut frontier = 1u32;
        while frontier != 0 {
            let mut next = 0u32;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.adj[v] & !visited;
            }
            visited |= next;
            frontier = next;
        }
        visited.count_ones() as usize == self.num_vertices
    }

    /// If this query is a star (a tree of depth 1, §2), returns the root and
    /// the leaves. A single edge is a star rooted at its lower-id endpoint.
    pub fn as_star(&self) -> Option<(QueryVertex, Vec<QueryVertex>)> {
        if self.num_vertices < 2 || self.num_edges() != self.num_vertices - 1 {
            return None;
        }
        // A star has one vertex of degree n - 1 and all others of degree 1.
        let root = self
            .vertices()
            .find(|&v| self.degree(v) == self.num_vertices - 1)?;
        if self.vertices().all(|v| v == root || self.degree(v) == 1) {
            let leaves = self.vertices().filter(|&v| v != root).collect();
            Some((root, leaves))
        } else {
            None
        }
    }

    /// Returns `true` if this query is a clique (complete graph).
    pub fn is_clique(&self) -> bool {
        let n = self.num_vertices;
        n >= 2 && self.num_edges() == n * (n - 1) / 2
    }

    /// Produces a vertex order in which every vertex (after the first) has at
    /// least one earlier neighbour, i.e. a connected matching order. Prefers
    /// higher-degree vertices first (a common heuristic).
    pub fn connected_order(&self) -> Vec<QueryVertex> {
        if self.num_vertices == 0 {
            return Vec::new();
        }
        let start = self
            .vertices()
            .max_by_key(|&v| self.degree(v))
            .expect("non-empty query");
        let mut order = vec![start];
        let mut in_order = 1u32 << start;
        while order.len() < self.num_vertices {
            // Next: most constrained vertex (most already-ordered neighbours),
            // then highest degree.
            let next = self
                .vertices()
                .filter(|&v| in_order & (1 << v) == 0)
                .max_by_key(|&v| {
                    (
                        (self.adj[v as usize] & in_order).count_ones(),
                        self.degree(v),
                    )
                })
                .expect("vertex remains");
            order.push(next);
            in_order |= 1 << next;
        }
        order
    }

    /// Checks whether `mapping` (a permutation of query vertices) is an
    /// automorphism of this query graph.
    pub fn is_automorphism(&self, mapping: &[QueryVertex]) -> bool {
        if mapping.len() != self.num_vertices {
            return false;
        }
        self.edges
            .iter()
            .all(|&(u, v)| self.has_edge(mapping[u as usize], mapping[v as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> QueryGraph {
        QueryGraph::new(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn basic_accessors() {
        let q = square();
        assert_eq!(q.num_vertices(), 4);
        assert_eq!(q.num_edges(), 4);
        assert!(q.has_edge(0, 1));
        assert!(!q.has_edge(0, 2));
        assert_eq!(q.degree(0), 2);
        assert_eq!(q.neighbours(0).collect::<Vec<_>>(), vec![1, 3]);
        assert!(q.is_connected());
        assert!(!q.is_clique());
        assert!(q.as_star().is_none());
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        QueryGraph::new(3, [(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_edge_rejected() {
        QueryGraph::new(3, [(0, 1), (1, 0)]);
    }

    #[test]
    fn star_detection() {
        let star = QueryGraph::new(4, [(0, 1), (0, 2), (0, 3)]);
        let (root, leaves) = star.as_star().unwrap();
        assert_eq!(root, 0);
        assert_eq!(leaves, vec![1, 2, 3]);
        let edge = QueryGraph::new(2, [(0, 1)]);
        assert!(edge.as_star().is_some());
        let path3 = QueryGraph::new(3, [(0, 1), (1, 2)]);
        let (root, _) = path3.as_star().unwrap();
        assert_eq!(root, 1);
        let path4 = QueryGraph::new(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(path4.as_star().is_none());
    }

    #[test]
    fn clique_detection() {
        let k4 = QueryGraph::new(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(k4.is_clique());
        assert!(!square().is_clique());
    }

    #[test]
    fn connectivity() {
        let disconnected = QueryGraph::new(4, [(0, 1), (2, 3)]);
        assert!(!disconnected.is_connected());
        assert!(square().is_connected());
    }

    #[test]
    fn connected_order_is_connected() {
        let q = QueryGraph::new(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let order = q.connected_order();
        assert_eq!(order.len(), 5);
        for (i, &v) in order.iter().enumerate().skip(1) {
            assert!(
                order[..i].iter().any(|&u| q.has_edge(u, v)),
                "vertex {v} not connected to prefix"
            );
        }
    }

    #[test]
    fn partial_order_checks() {
        let po = PartialOrder::from_pairs([(0, 1), (1, 2)]);
        assert!(po.check_full(&[1, 5, 9]));
        assert!(!po.check_full(&[5, 1, 9]));
        assert_eq!(po.constraints_on(1).count(), 2);
        assert!(PartialOrder::empty().is_empty());
    }

    #[test]
    fn automorphism_check() {
        let q = square();
        assert!(q.is_automorphism(&[1, 2, 3, 0]));
        assert!(q.is_automorphism(&[0, 3, 2, 1]));
        assert!(!q.is_automorphism(&[0, 2, 1, 3]));
    }
}
