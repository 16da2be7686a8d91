//! A sequential reference enumerator.
//!
//! This is the Ullmann-style backtracking algorithm the paper attributes to
//! BENU's per-machine program (§3.1, \[82\]): match query vertices one at a
//! time along a connected order, maintaining the candidate set of the next
//! vertex as the intersection of the neighbourhoods of its already-matched
//! neighbours. It is intentionally simple and single-threaded; every other
//! engine in the workspace is validated against it.

use huge_graph::graph::intersect_many;
use huge_graph::{Graph, VertexId};

use crate::query::{PartialOrder, QueryGraph, QueryVertex};

/// Result-consumption mode for the reference enumerator.
pub enum NaiveSink<'a> {
    /// Only count matches.
    Count,
    /// Invoke a callback for every match (the slice is ordered by query
    /// vertex id).
    Collect(&'a mut dyn FnMut(&[VertexId])),
}

/// Enumerates all matches of `query` in `graph`, respecting the query's
/// symmetry-breaking partial order, and returns the number of matches.
pub fn enumerate(graph: &Graph, query: &QueryGraph) -> u64 {
    enumerate_with(graph, query, query.order().clone(), &mut NaiveSink::Count)
}

/// Enumerates all *embeddings* (no symmetry breaking): every automorphic
/// image is counted separately.
pub fn enumerate_embeddings(graph: &Graph, query: &QueryGraph) -> u64 {
    enumerate_with(graph, query, PartialOrder::empty(), &mut NaiveSink::Count)
}

/// Enumerates matches and passes each to `sink`.
pub fn enumerate_with(
    graph: &Graph,
    query: &QueryGraph,
    order: PartialOrder,
    sink: &mut NaiveSink<'_>,
) -> u64 {
    assert!(query.is_connected(), "query must be connected");
    if query.num_vertices() == 0 || graph.is_empty() {
        return 0;
    }
    let matching_order = query.connected_order();
    let mut ctx = Context {
        graph,
        query,
        order,
        matching_order,
        assignment: vec![u32::MAX; query.num_vertices()],
        count: 0,
    };
    // Position 0: iterate all vertices of the data graph.
    let first = ctx.matching_order[0];
    for v in graph.vertices() {
        ctx.assignment[first as usize] = v;
        ctx.extend(1, sink);
    }
    ctx.count
}

struct Context<'g, 'q> {
    graph: &'g Graph,
    query: &'q QueryGraph,
    order: PartialOrder,
    matching_order: Vec<QueryVertex>,
    /// assignment[query vertex] = data vertex (u32::MAX = unassigned).
    assignment: Vec<u32>,
    count: u64,
}

impl<'g, 'q> Context<'g, 'q> {
    fn extend(&mut self, depth: usize, sink: &mut NaiveSink<'_>) {
        if depth == self.matching_order.len() {
            if self.order.check_full(&self.assignment) {
                self.count += 1;
                if let NaiveSink::Collect(f) = sink {
                    f(&self.assignment);
                }
            }
            return;
        }
        let qv = self.matching_order[depth];
        // Candidate set: intersection of neighbourhoods of already matched
        // query neighbours (Equation 2 of the paper).
        let matched_neighbours: Vec<u32> = self
            .query
            .neighbours(qv)
            .filter_map(|u| {
                let m = self.assignment[u as usize];
                (m != u32::MAX).then_some(m)
            })
            .collect();
        debug_assert!(
            !matched_neighbours.is_empty(),
            "matching order must keep the query connected"
        );
        let lists: Vec<&[VertexId]> = matched_neighbours
            .iter()
            .map(|&u| self.graph.neighbours(u))
            .collect();
        let candidates = intersect_many(lists);
        for cand in candidates {
            // Injectivity.
            if self.assignment.contains(&cand) {
                continue;
            }
            self.assignment[qv as usize] = cand;
            // Early pruning of order constraints between assigned vertices.
            if self.partial_order_feasible(qv) {
                self.extend(depth + 1, sink);
            }
            self.assignment[qv as usize] = u32::MAX;
        }
    }

    /// Checks only the constraints involving `qv` whose other endpoint is
    /// already assigned.
    fn partial_order_feasible(&self, qv: QueryVertex) -> bool {
        for (a, b) in self.order.constraints_on(qv) {
            let fa = self.assignment[a as usize];
            let fb = self.assignment[b as usize];
            if fa != u32::MAX && fb != u32::MAX && fa >= fb {
                return false;
            }
        }
        true
    }
}

/// Counts matches of a pattern by brute force over all `n`-subsets when the
/// graph is tiny. Used only by tests as an independent cross-check of
/// [`enumerate`]; complexity is `O(|V|^|V_q|)`.
pub fn brute_force_count(graph: &Graph, query: &QueryGraph) -> u64 {
    let n = graph.num_vertices();
    let k = query.num_vertices();
    if n == 0 || k == 0 {
        return 0;
    }
    let mut count = 0u64;
    let mut selection = vec![0usize; k];
    loop {
        // Check injectivity.
        let mut ok = true;
        'outer: for i in 0..k {
            for j in (i + 1)..k {
                if selection[i] == selection[j] {
                    ok = false;
                    break 'outer;
                }
            }
        }
        if ok {
            let mapping: Vec<u32> = selection.iter().map(|&x| x as u32).collect();
            let edges_ok = query
                .edges()
                .iter()
                .all(|&(a, b)| graph.has_edge(mapping[a as usize], mapping[b as usize]));
            if edges_ok && query.order().check_full(&mapping) {
                count += 1;
            }
        }
        // Next tuple in lexicographic order.
        let mut pos = k;
        loop {
            if pos == 0 {
                return count;
            }
            pos -= 1;
            selection[pos] += 1;
            if selection[pos] < n {
                break;
            }
            selection[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;
    use huge_graph::gen;

    #[test]
    fn triangle_count_matches_graph_routine() {
        let g = gen::erdos_renyi(120, 900, 5);
        let q = Pattern::Triangle.query_graph();
        assert_eq!(enumerate(&g, &q), g.count_triangles());
    }

    #[test]
    fn embeddings_are_matches_times_automorphisms() {
        let g = gen::erdos_renyi(60, 300, 9);
        for pattern in [Pattern::Triangle, Pattern::Square, Pattern::FourClique] {
            let q = pattern.query_graph();
            let matches = enumerate(&g, &q);
            let embeddings = enumerate_embeddings(&g, &q);
            let autos = crate::symmetry::automorphism_count(&q);
            assert_eq!(embeddings, matches * autos, "{pattern:?}");
        }
    }

    #[test]
    fn complete_graph_counts() {
        // K6: number of 4-cliques = C(6,4) = 15; squares = 3 * C(6,4) = 45
        // (each 4-subset of a clique contains 3 distinct 4-cycles).
        let g = gen::complete(6);
        assert_eq!(enumerate(&g, &Pattern::FourClique.query_graph()), 15);
        assert_eq!(enumerate(&g, &Pattern::Square.query_graph()), 45);
        // Triangles: C(6,3) = 20.
        assert_eq!(enumerate(&g, &Pattern::Triangle.query_graph()), 20);
    }

    #[test]
    fn cycle_graph_counts() {
        // A 6-cycle contains exactly one 6-cycle match and no squares.
        let g = gen::cycle(6);
        assert_eq!(enumerate(&g, &Pattern::Cycle(6).query_graph()), 1);
        assert_eq!(enumerate(&g, &Pattern::Square.query_graph()), 0);
        // Paths of 4 vertices in a 6-cycle: 6 (one starting at each vertex,
        // counted once due to symmetry breaking).
        assert_eq!(enumerate(&g, &Pattern::Path(4).query_graph()), 6);
    }

    #[test]
    fn matches_brute_force_on_small_random_graphs() {
        for seed in 0..4 {
            let g = gen::erdos_renyi(12, 28, seed);
            for pattern in [
                Pattern::Triangle,
                Pattern::Square,
                Pattern::ChordalSquare,
                Pattern::FourClique,
                Pattern::Star(3),
            ] {
                let q = pattern.query_graph();
                assert_eq!(
                    enumerate(&g, &q),
                    brute_force_count(&g, &q),
                    "seed {seed} pattern {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn collect_sink_receives_every_match() {
        let g = gen::complete(5);
        let q = Pattern::Triangle.query_graph();
        let mut collected = Vec::new();
        let mut cb = |m: &[VertexId]| collected.push(m.to_vec());
        let count = enumerate_with(&g, &q, q.order().clone(), &mut NaiveSink::Collect(&mut cb));
        assert_eq!(count, 10);
        assert_eq!(collected.len(), 10);
        // All collected matches are distinct vertex sets.
        let mut sets: Vec<Vec<u32>> = collected
            .iter()
            .map(|m| {
                let mut s = m.clone();
                s.sort_unstable();
                s
            })
            .collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn empty_graph_has_no_matches() {
        let g = Graph::default();
        assert_eq!(enumerate(&g, &Pattern::Triangle.query_graph()), 0);
    }

    #[test]
    fn star_counts_on_star_graph() {
        // A star data graph with 5 leaves: number of 3-star matches rooted at
        // the hub = C(5,3) = 10.
        let g = Graph::from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(enumerate(&g, &Pattern::Star(3).query_graph()), 10);
    }
}
