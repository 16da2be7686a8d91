//! Sub-queries of a query graph.
//!
//! Within the join-based framework (§3.1), every intermediate result is the
//! match set `R(q')` of a *sub-query* `q' ⊆ q`. A sub-query is described by
//! the subset of query edges it contains (its vertices are the endpoints of
//! those edges). Because a query has at most 32 vertices and 64 edges, a
//! sub-query is a pair of bitmasks and all operations are O(1)-ish bit
//! twiddling.

use huge_query::{QueryGraph, QueryVertex};

/// A sub-query of a parent [`QueryGraph`]: a subset of its edges together
/// with the vertices those edges touch.
///
/// Sub-queries are always interpreted relative to a specific parent query;
/// mixing sub-queries of different parents is a logic error (not checked).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubQuery {
    /// Bitmask over the parent's vertices.
    verts: u32,
    /// Bitmask over the parent's edge list indices.
    edges: u64,
}

impl SubQuery {
    /// The empty sub-query.
    pub fn empty() -> Self {
        SubQuery { verts: 0, edges: 0 }
    }

    /// The sub-query containing every edge of `q`.
    pub fn full(q: &QueryGraph) -> Self {
        let edges = if q.num_edges() == 64 {
            u64::MAX
        } else {
            (1u64 << q.num_edges()) - 1
        };
        Self::from_edge_mask(q, edges)
    }

    /// Builds a sub-query from a bitmask over `q.edges()` indices.
    pub fn from_edge_mask(q: &QueryGraph, edges: u64) -> Self {
        let mut verts = 0u32;
        for (i, &(a, b)) in q.edges().iter().enumerate() {
            if edges & (1 << i) != 0 {
                verts |= 1 << a;
                verts |= 1 << b;
            }
        }
        SubQuery { verts, edges }
    }

    /// Builds a sub-query from a set of edge-list indices.
    pub fn from_edge_indices<I: IntoIterator<Item = usize>>(q: &QueryGraph, idx: I) -> Self {
        let mut mask = 0u64;
        for i in idx {
            assert!(i < q.num_edges());
            mask |= 1 << i;
        }
        Self::from_edge_mask(q, mask)
    }

    /// Builds the sub-query *induced* by a set of vertices: every parent edge
    /// with both endpoints in the set is included.
    pub fn induced_by_vertices<I: IntoIterator<Item = QueryVertex>>(q: &QueryGraph, vs: I) -> Self {
        let mut vmask = 0u32;
        for v in vs {
            vmask |= 1 << v;
        }
        let mut edges = 0u64;
        for (i, &(a, b)) in q.edges().iter().enumerate() {
            if vmask & (1 << a) != 0 && vmask & (1 << b) != 0 {
                edges |= 1 << i;
            }
        }
        // Note: vertices with no incident included edge are dropped, which is
        // what the join framework requires (a sub-query is determined by its
        // edges; isolated query vertices cannot be matched by joins).
        Self::from_edge_mask(q, edges)
    }

    /// Builds a star sub-query rooted at `root` with the given leaves, using
    /// the corresponding parent edges.
    ///
    /// # Panics
    /// Panics if some `(root, leaf)` pair is not an edge of `q`.
    pub fn star(q: &QueryGraph, root: QueryVertex, leaves: &[QueryVertex]) -> Self {
        let mut edges = 0u64;
        for &leaf in leaves {
            let idx = q
                .edges()
                .iter()
                .position(|&(a, b)| (a == root && b == leaf) || (a == leaf && b == root))
                .unwrap_or_else(|| panic!("({root}, {leaf}) is not an edge of the query"));
            edges |= 1 << idx;
        }
        Self::from_edge_mask(q, edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.verts.count_ones() as usize
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.count_ones() as usize
    }

    /// `true` if the sub-query has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Iterates the vertices of this sub-query in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = QueryVertex> + '_ {
        let mask = self.verts;
        (0..32u8).filter(move |&v| mask & (1 << v) != 0)
    }

    /// Iterates the edges of this sub-query as `(a, b)` pairs of the parent.
    pub fn edges_of<'q>(
        &self,
        q: &'q QueryGraph,
    ) -> impl Iterator<Item = (QueryVertex, QueryVertex)> + 'q {
        let mask = self.edges;
        q.edges()
            .iter()
            .enumerate()
            .filter(move |(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
    }

    /// `true` if `v` is a vertex of this sub-query.
    #[inline]
    pub fn contains_vertex(&self, v: QueryVertex) -> bool {
        self.verts & (1 << v) != 0
    }

    /// Union of two sub-queries (vertices and edges).
    #[inline]
    pub fn union(&self, other: &SubQuery) -> SubQuery {
        SubQuery {
            verts: self.verts | other.verts,
            edges: self.edges | other.edges,
        }
    }

    /// `true` if the two sub-queries share no edge (the paper's
    /// decomposition requirement `E_l ∩ E_r = ∅`).
    #[inline]
    pub fn edge_disjoint(&self, other: &SubQuery) -> bool {
        self.edges & other.edges == 0
    }

    /// Vertices shared with `other` — the join key of a two-way join.
    pub fn shared_vertices(&self, other: &SubQuery) -> Vec<QueryVertex> {
        let mask = self.verts & other.verts;
        (0..32u8).filter(|&v| mask & (1 << v) != 0).collect()
    }

    /// The vertex shared with `other` when it is the only one — a join
    /// key of one vertex.
    pub fn single_shared_vertex(&self, other: &SubQuery) -> Option<QueryVertex> {
        let mask = self.verts & other.verts;
        (mask.count_ones() == 1).then(|| mask.trailing_zeros() as QueryVertex)
    }

    /// `true` if the sub-query is connected (single vertices are connected;
    /// the empty sub-query is not).
    pub fn is_connected(&self, q: &QueryGraph) -> bool {
        if self.edges == 0 {
            return self.verts.count_ones() <= 1 && self.verts != 0;
        }
        let start = self.verts.trailing_zeros() as QueryVertex;
        let mut visited = 1u32 << start;
        loop {
            let mut next = visited;
            for (a, b) in self.edges_of(q) {
                if visited & (1 << a) != 0 {
                    next |= 1 << b;
                }
                if visited & (1 << b) != 0 {
                    next |= 1 << a;
                }
            }
            if next == visited {
                break;
            }
            visited = next;
        }
        visited == self.verts
    }

    /// If this sub-query is a star (tree of depth 1), returns `(root,
    /// leaves)`. A single edge is a star rooted at its lower-id endpoint.
    pub fn as_star(&self, q: &QueryGraph) -> Option<(QueryVertex, Vec<QueryVertex>)> {
        let ec = self.edge_count();
        if ec == 0 || self.vertex_count() != ec + 1 {
            return None;
        }
        if ec == 1 {
            let (a, b) = self.edges_of(q).next().expect("one edge");
            return Some((a, vec![b]));
        }
        // Find the vertex incident to every edge.
        let mut incident = vec![0usize; 32];
        for (a, b) in self.edges_of(q) {
            incident[a as usize] += 1;
            incident[b as usize] += 1;
        }
        let root = (0..32u8).find(|&v| incident[v as usize] == ec)?;
        let leaves: Vec<QueryVertex> = self.vertices().filter(|&v| v != root).collect();
        // All other vertices must be incident to exactly one edge.
        if leaves.iter().all(|&l| incident[l as usize] == 1) {
            Some((root, leaves))
        } else {
            None
        }
    }

    /// `true` if this sub-query is a *join unit* under HUGE's default
    /// setting (stars, §3.3: "we use stars as the join unit, as our system
    /// does not assume any index data").
    pub fn is_join_unit(&self, q: &QueryGraph) -> bool {
        self.as_star(q).is_some()
    }

    /// `true` if this sub-query covers all edges of `q`.
    pub fn is_full(&self, q: &QueryGraph) -> bool {
        self.edge_count() == q.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_query::Pattern;

    fn square() -> QueryGraph {
        Pattern::Square.query_graph()
    }

    /// `true` when `s` is the subgraph of `q` induced by its own vertices.
    fn is_induced(s: &SubQuery, q: &QueryGraph) -> bool {
        *s == SubQuery::induced_by_vertices(q, s.vertices())
    }

    #[test]
    fn full_subquery_covers_everything() {
        let q = square();
        let full = SubQuery::full(&q);
        assert_eq!(full.edge_count(), 4);
        assert_eq!(full.vertex_count(), 4);
        assert!(full.is_connected(&q));
        assert!(full.is_full(&q));
        assert!(is_induced(&full, &q));
        assert!(!full.is_join_unit(&q));
    }

    #[test]
    fn star_subquery_detection() {
        let q = Pattern::FourClique.query_graph();
        let star = SubQuery::star(&q, 0, &[1, 2, 3]);
        assert_eq!(star.edge_count(), 3);
        let (root, leaves) = star.as_star(&q).unwrap();
        assert_eq!(root, 0);
        assert_eq!(leaves, vec![1, 2, 3]);
        assert!(star.is_join_unit(&q));
        assert!(!is_induced(&star, &q));
    }

    #[test]
    fn single_edge_is_star_and_unit() {
        let q = square();
        let e = SubQuery::from_edge_indices(&q, [0]);
        assert!(e.is_join_unit(&q));
        let (_, leaves) = e.as_star(&q).unwrap();
        assert_eq!(leaves.len(), 1);
    }

    #[test]
    fn triangle_is_not_a_star() {
        let q = Pattern::FourClique.query_graph();
        // Edges (0,1), (0,2), (1,2) form a triangle.
        let idx: Vec<usize> = q
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a < 3 && b < 3)
            .map(|(i, _)| i)
            .collect();
        let tri = SubQuery::from_edge_indices(&q, idx);
        assert_eq!(tri.edge_count(), 3);
        assert!(tri.as_star(&q).is_none());
        assert!(!tri.is_join_unit(&q));
        assert!(tri.is_connected(&q));
    }

    #[test]
    fn union_and_disjointness() {
        let q = square();
        let a = SubQuery::from_edge_indices(&q, [0, 1]);
        let b = SubQuery::from_edge_indices(&q, [2, 3]);
        assert!(a.edge_disjoint(&b));
        let u = a.union(&b);
        assert!(u.is_full(&q));
        assert!(!a.edge_disjoint(&a));
    }

    #[test]
    fn shared_vertices_are_join_keys() {
        let q = square();
        // Edges of the square: (0,1), (0,3), (1,2), (2,3) after sorting.
        let a = SubQuery::from_edge_indices(&q, [0, 1]); // path 1-0-3
        let b = SubQuery::from_edge_indices(&q, [2, 3]); // path 1-2-3
        assert_eq!(a.shared_vertices(&b), vec![1, 3]);
        assert_eq!(a.single_shared_vertex(&b), None);
        let edge = SubQuery::from_edge_indices(&q, [2]);
        assert_eq!(a.single_shared_vertex(&edge), Some(1));
    }

    #[test]
    fn connectivity() {
        let q = Pattern::Prism.query_graph();
        let disconnected = SubQuery::from_edge_indices(&q, [0, 5]);
        // Edge 0 touches the first triangle, edge 5 the second; whether this
        // is connected depends on edge ordering, so check against definition.
        let connected_by_def = {
            let verts: Vec<_> = disconnected.vertices().collect();
            // BFS over the two edges only.
            verts.len() <= 3
        };
        assert_eq!(disconnected.is_connected(&q), connected_by_def);
        assert!(SubQuery::empty().vertices().next().is_none());
        assert!(!SubQuery::empty().is_connected(&q));
    }

    #[test]
    fn induced_by_vertices() {
        let q = Pattern::FourClique.query_graph();
        let tri = SubQuery::induced_by_vertices(&q, [0, 1, 2]);
        assert_eq!(tri.edge_count(), 3);
        assert!(is_induced(&tri, &q));
    }
}
