//! The benchmark query set.
//!
//! The paper evaluates on eight queries q1–q8 (Figure 4). The figure does
//! not survive text extraction exactly, so shapes are reconstructed from the
//! constraints listed under each query and from textual hints (q1 is the
//! square used in Table 1, q3 is a clique, q7 is best answered by joining a
//! 3-path with a 2-path, the Fig. 1d example plans a 5-path). See DESIGN.md
//! §6 for the full mapping. In addition this module provides parametric
//! building blocks (paths, cycles, stars, cliques) used by tests and by the
//! application examples (§6 of the paper).

use crate::query::{QueryGraph, QueryVertex};
use crate::symmetry::symmetry_breaking_order;

/// A named query pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// 3-clique.
    Triangle,
    /// 4-cycle — the paper's q1 (the "square" of Table 1).
    Square,
    /// 4-cycle plus one chord ("diamond") — q2.
    ChordalSquare,
    /// 4-clique — q3.
    FourClique,
    /// 4-cycle with a triangle on top (5 vertices) — q4.
    House,
    /// 5-cycle — q5.
    FiveCycle,
    /// Two triangles joined by a perfect matching (triangular prism) — q6.
    Prism,
    /// Simple path on `n` vertices (`n - 1` edges). `Path(6)` is q7.
    Path(usize),
    /// Cycle on `n` vertices.
    Cycle(usize),
    /// Star with `n` leaves (a tree of depth 1).
    Star(usize),
    /// Clique on `n` vertices.
    Clique(usize),
    /// 5-clique, listed separately because it is a common benchmark query.
    FiveClique,
    /// Triangle with three extra leaves attached to one of its vertices — q8.
    TailedTriangleStar,
}

impl Pattern {
    /// The paper's queries q1–q8 in order.
    pub const PAPER_QUERIES: [Pattern; 8] = [
        Pattern::Square,
        Pattern::ChordalSquare,
        Pattern::FourClique,
        Pattern::House,
        Pattern::FiveCycle,
        Pattern::Prism,
        Pattern::Path(6),
        Pattern::TailedTriangleStar,
    ];

    /// Returns the paper query `qi` for `i` in `1..=8`.
    pub fn paper(i: usize) -> Option<Pattern> {
        Pattern::PAPER_QUERIES.get(i.checked_sub(1)?).copied()
    }

    /// A short name used in reports ("q1".."q8" for paper queries).
    pub fn name(&self) -> String {
        match self {
            Pattern::Triangle => "triangle".to_string(),
            Pattern::Square => "q1-square".to_string(),
            Pattern::ChordalSquare => "q2-chordal-square".to_string(),
            Pattern::FourClique => "q3-4clique".to_string(),
            Pattern::House => "q4-house".to_string(),
            Pattern::FiveCycle => "q5-5cycle".to_string(),
            Pattern::Prism => "q6-prism".to_string(),
            Pattern::Path(n) => {
                if *n == 6 {
                    "q7-6path".to_string()
                } else {
                    format!("path-{n}")
                }
            }
            Pattern::Cycle(n) => format!("cycle-{n}"),
            Pattern::Star(n) => format!("star-{n}"),
            Pattern::Clique(n) => format!("clique-{n}"),
            Pattern::FiveClique => "5clique".to_string(),
            Pattern::TailedTriangleStar => "q8-tailed-triangle-star".to_string(),
        }
    }

    /// Builds the query graph *without* a symmetry-breaking order.
    pub fn query_graph_unordered(&self) -> QueryGraph {
        let (n, edges): (usize, Vec<(QueryVertex, QueryVertex)>) = match self {
            Pattern::Triangle => (3, vec![(0, 1), (1, 2), (0, 2)]),
            Pattern::Square => (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            Pattern::ChordalSquare => (4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            Pattern::FourClique => (4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            Pattern::House => (5, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
            Pattern::FiveCycle => (5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            Pattern::Prism => (
                6,
                vec![
                    (0, 1),
                    (1, 2),
                    (0, 2),
                    (3, 4),
                    (4, 5),
                    (3, 5),
                    (0, 3),
                    (1, 4),
                    (2, 5),
                ],
            ),
            Pattern::Path(n) => {
                assert!(*n >= 2, "a path needs at least 2 vertices");
                (
                    *n,
                    (0..*n - 1)
                        .map(|i| (i as QueryVertex, (i + 1) as QueryVertex))
                        .collect(),
                )
            }
            Pattern::Cycle(n) => {
                assert!(*n >= 3, "a cycle needs at least 3 vertices");
                (
                    *n,
                    (0..*n)
                        .map(|i| (i as QueryVertex, ((i + 1) % n) as QueryVertex))
                        .collect(),
                )
            }
            Pattern::Star(leaves) => {
                assert!(*leaves >= 1);
                (
                    leaves + 1,
                    (1..=*leaves)
                        .map(|i| (0 as QueryVertex, i as QueryVertex))
                        .collect(),
                )
            }
            Pattern::Clique(n) => {
                assert!(*n >= 2);
                let mut edges = Vec::new();
                for u in 0..*n {
                    for v in (u + 1)..*n {
                        edges.push((u as QueryVertex, v as QueryVertex));
                    }
                }
                (*n, edges)
            }
            Pattern::FiveClique => return Pattern::Clique(5).query_graph_unordered(),
            Pattern::TailedTriangleStar => {
                (6, vec![(0, 1), (1, 2), (0, 2), (1, 3), (1, 4), (1, 5)])
            }
        };
        QueryGraph::new(n, edges).with_name(self.name())
    }

    /// Builds the query graph with an automatically derived
    /// symmetry-breaking partial order attached.
    pub fn query_graph(&self) -> QueryGraph {
        let q = self.query_graph_unordered();
        let order = symmetry_breaking_order(&q);
        q.with_order(order)
    }
}

/// Convenience constructors mirroring the paper's naming.
impl QueryGraph {
    /// q1: the square (4-cycle).
    pub fn square() -> QueryGraph {
        Pattern::Square.query_graph()
    }

    /// The triangle, the smallest non-trivial query.
    pub fn triangle() -> QueryGraph {
        Pattern::Triangle.query_graph()
    }

    /// A custom query with an automatically derived symmetry-breaking order.
    pub fn with_auto_order(self) -> QueryGraph {
        let order = symmetry_breaking_order(&self);
        self.with_order(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::{automorphism_count, automorphisms};

    #[test]
    fn paper_queries_all_build() {
        for (i, pattern) in Pattern::PAPER_QUERIES.iter().enumerate() {
            let q = pattern.query_graph();
            assert!(q.is_connected(), "q{} disconnected", i + 1);
            assert!(!q.order().is_empty() || automorphism_count(&q) == 1);
        }
    }

    #[test]
    fn paper_lookup() {
        assert_eq!(Pattern::paper(1), Some(Pattern::Square));
        assert_eq!(Pattern::paper(3), Some(Pattern::FourClique));
        assert_eq!(Pattern::paper(7), Some(Pattern::Path(6)));
        assert_eq!(Pattern::paper(9), None);
        assert_eq!(Pattern::paper(0), None);
    }

    #[test]
    fn q3_is_a_clique() {
        assert!(Pattern::paper(3).unwrap().query_graph().is_clique());
    }

    #[test]
    fn parametric_patterns() {
        let p = Pattern::Path(5).query_graph();
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.num_edges(), 4);
        let c = Pattern::Cycle(6).query_graph();
        assert_eq!(c.num_edges(), 6);
        let s = Pattern::Star(4).query_graph();
        assert_eq!(s.as_star().unwrap().1.len(), 4);
        let k = Pattern::Clique(5).query_graph();
        assert!(k.is_clique());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Pattern::Square.name(), "q1-square");
        assert_eq!(Pattern::Path(6).name(), "q7-6path");
        assert_eq!(Pattern::Path(4).name(), "path-4");
    }

    #[test]
    fn paper_orders_available_for_all_eight() {
        // Of the automorphic images of one embedding, the order keeps one.
        for pattern in Pattern::PAPER_QUERIES {
            let q = pattern.query_graph();
            let images = automorphisms(&q).into_iter();
            let images = images.map(|f| f.into_iter().map(u32::from).collect::<Vec<_>>());
            let kept = images.filter(|f| q.order().check_full(f)).count();
            assert_eq!(kept, 1, "{pattern:?}");
        }
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(QueryGraph::square().num_edges(), 4);
        assert_eq!(QueryGraph::triangle().num_edges(), 3);
    }
}
