//! Cardinality estimation and the cost model of Algorithm 1.
//!
//! Algorithm 1 needs `|R(q')|` estimates for every connected sub-query. The
//! paper delegates this to existing estimators ([46, 51, 58]); we provide a
//! degree-moment based estimator that is exact for stars (the default join
//! unit) and falls back to an Erdős–Rényi style chain estimate for general
//! sub-queries.

use huge_graph::Graph;
use huge_query::QueryGraph;

use crate::physical::PhysicalSetting;
use crate::subquery::SubQuery;

/// Degree-moment estimator of the number of matches `|R(q')|` of a
/// sub-query.
///
/// * For a star with `ℓ` leaves the number of labelled matches is exactly
///   `Σ_v d(v) (d(v)-1) … (d(v)-ℓ+1)`, the ℓ-th falling-factorial moment of
///   the degree sequence, which we precompute up to ℓ = 8.
/// * For other sub-queries, vertices are added along a connected order; a
///   vertex with `b` already-bound neighbours contributes a factor equal to
///   the expected size of a `b`-way neighbourhood intersection,
///   `d̄^b / n^{b-1}` (the Erdős–Rényi independence assumption), except for
///   the very first extension which uses the exact first/second moments.
#[derive(Clone, Debug)]
pub struct HybridEstimator {
    num_vertices: f64,
    num_edges: f64,
    avg_degree: f64,
    /// `moments[k]` = Σ_v d(v) (d(v)-1) … (d(v)-k+1), for k in 1..=8;
    /// index 0 holds `n`.
    falling_moments: [f64; 9],
}

impl HybridEstimator {
    /// Builds an estimator from exact degree moments of the graph.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices() as f64;
        let mut moments = [0.0f64; 9];
        moments[0] = n;
        for v in graph.vertices() {
            let d = graph.degree(v) as f64;
            let mut ff = 1.0;
            for (k, moment) in moments.iter_mut().enumerate().skip(1) {
                ff *= (d - (k as f64 - 1.0)).max(0.0);
                *moment += ff;
            }
        }
        HybridEstimator {
            num_vertices: n,
            num_edges: graph.num_edges() as f64,
            avg_degree: graph.avg_degree(),
            falling_moments: moments,
        }
    }

    /// The falling-factorial degree moment of order `k` (clamped to the
    /// precomputed range).
    pub fn degree_moment(&self, k: usize) -> f64 {
        self.falling_moments[k.min(8)]
    }

    /// Estimated number of (labelled) matches of `sub` in the data graph.
    pub fn estimate(&self, q: &QueryGraph, sub: &SubQuery) -> f64 {
        if sub.is_empty() {
            return 0.0;
        }
        if let Some((_root, leaves)) = sub.as_star(q) {
            return self.degree_moment(leaves.len()).max(1.0);
        }
        self.chain_estimate(q, sub)
    }

    /// Number of data vertices.
    pub fn num_vertices(&self) -> f64 {
        self.num_vertices
    }

    /// Number of data edges.
    pub fn num_edges(&self) -> f64 {
        self.num_edges
    }

    fn chain_estimate(&self, q: &QueryGraph, sub: &SubQuery) -> f64 {
        // Connected order over the sub-query's vertices, most-constrained
        // first, mirroring `QueryGraph::connected_order` but restricted to
        // the sub-query's edges.
        let verts: Vec<u8> = sub.vertices().collect();
        if verts.is_empty() {
            return 0.0;
        }
        let deg_in_sub =
            |v: u8| -> usize { sub.edges_of(q).filter(|&(a, b)| a == v || b == v).count() };
        let start = *verts
            .iter()
            .max_by_key(|&&v| deg_in_sub(v))
            .expect("non-empty");
        let mut bound = vec![start];
        let mut est = self.num_vertices;
        while bound.len() < verts.len() {
            // Pick the unbound vertex with the most bound neighbours.
            let next = *verts
                .iter()
                .filter(|v| !bound.contains(v))
                .max_by_key(|&&v| {
                    sub.edges_of(q)
                        .filter(|&(a, b)| {
                            (a == v && bound.contains(&b)) || (b == v && bound.contains(&a))
                        })
                        .count()
                })
                .expect("vertex remains");
            let b = sub
                .edges_of(q)
                .filter(|&(x, y)| {
                    (x == next && bound.contains(&y)) || (y == next && bound.contains(&x))
                })
                .count();
            est *= self.extension_factor(b);
            bound.push(next);
        }
        est.max(1.0)
    }

    /// Expected number of candidates when extending by a vertex with `b`
    /// already-bound neighbours.
    fn extension_factor(&self, b: usize) -> f64 {
        match b {
            0 => self.num_vertices, // disconnected extension (should not happen)
            1 => {
                // Expected degree of the endpoint of a uniformly random
                // *edge* is the second moment over the first; this captures
                // the skew of power-law graphs better than d̄.
                let m1 = self.falling_moments[1].max(1.0);
                ((self.falling_moments[2] + m1) / m1).max(self.avg_degree)
            }
            b => {
                // Expected size of a b-way neighbourhood intersection under
                // edge independence: n · p^b with p = d̄ / n.
                let p = (self.avg_degree / self.num_vertices).min(1.0);
                (self.num_vertices * p.powi(b as i32)).max(1e-3)
            }
        }
    }
}

/// The cost model of Algorithm 1 (lines 6–9).
///
/// Two refinements over the paper's literal formulation make the model
/// meaningful at laptop scale (documented in DESIGN.md):
///
/// * the pulling communication cost is `min(k |E_G|, |R(q'_l)| · |L| · d̄)` —
///   the paper's `k |E_G|` is an upper bound (every machine pulls at most
///   the whole graph thanks to the cache); without the cache at most `|L|`
///   adjacency lists of average size `d̄` are pulled per left-hand partial
///   result, whichever is smaller;
/// * a join-unit star consumed by a pulling join is never materialised (its
///   matches are enumerated implicitly by `PULL-EXTEND`), so its
///   `M_cost[q'_r] = |R(star)|` term is skipped (see
///   [`Optimizer`](crate::optimizer::Optimizer)).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Number of machines `k` in the cluster.
    pub num_machines: usize,
    /// Number of data-graph edges `|E_G|`.
    pub graph_edges: f64,
    /// Average degree `d̄` of the data graph, used by the tightened pulling
    /// bound. `f64::INFINITY` disables the tightened bound (paper-literal
    /// `k |E_G|`).
    pub avg_degree: f64,
    /// When `true`, communication cost is ignored entirely — this reproduces
    /// the *computation-only* hybrid plans of EmptyHeaded / GraphFlow that
    /// Exp-9 compares against.
    pub computation_only: bool,
}

impl CostModel {
    /// A cost model for a `k`-machine cluster over a graph with `m` edges.
    /// The tightened pulling bound is disabled until
    /// [`CostModel::with_avg_degree`] is called.
    pub fn new(num_machines: usize, graph_edges: u64) -> Self {
        CostModel {
            num_machines,
            graph_edges: graph_edges as f64,
            avg_degree: f64::INFINITY,
            computation_only: false,
        }
    }

    /// Enables the tightened pulling bound using the graph's average degree.
    pub fn with_avg_degree(mut self, avg_degree: f64) -> Self {
        self.avg_degree = avg_degree;
        self
    }

    /// Disables the communication term (EmptyHeaded / GraphFlow style).
    pub fn computation_only(mut self) -> Self {
        self.computation_only = true;
        self
    }

    /// Communication cost of one join under `physical` (Algorithm 1 lines
    /// 7–9): pulling costs `min(k |E_G|, |R(q'_l)| · |L| · d̄)`, pushing costs
    /// `|R(q'_l)| + |R(q'_r)|`. `right_star_leaves` is the number of leaves
    /// of `q'_r` when it is a star (0 otherwise).
    pub fn communication_cost(
        &self,
        physical: PhysicalSetting,
        left_card: f64,
        right_card: f64,
        right_star_leaves: usize,
    ) -> f64 {
        if self.computation_only {
            return 0.0;
        }
        if physical.is_pulling() {
            let cap = self.num_machines as f64 * self.graph_edges;
            if self.avg_degree.is_finite() && right_star_leaves > 0 {
                cap.min(left_card * right_star_leaves as f64 * self.avg_degree)
            } else {
                cap
            }
        } else {
            left_card + right_card
        }
    }

    /// Total cost of a join given the costs of producing its operands, their
    /// cardinalities, the output cardinality and the physical setting.
    #[allow(clippy::too_many_arguments)]
    pub fn join_cost(
        &self,
        left_cost: f64,
        right_cost: f64,
        left_card: f64,
        right_card: f64,
        output_card: f64,
        physical: PhysicalSetting,
        right_star_leaves: usize,
    ) -> f64 {
        left_cost
            + right_cost
            + output_card
            + self.communication_cost(physical, left_card, right_card, right_star_leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::{gen, GraphStats};
    use huge_query::Pattern;

    #[test]
    fn star_estimates_are_exact_labelled_counts() {
        let g = gen::barabasi_albert(500, 4, 3);
        let est = HybridEstimator::from_graph(&g);
        let q = Pattern::Star(2).query_graph();
        let sub = SubQuery::full(&q);
        // Exact labelled 2-star count: Σ d(v)(d(v)-1).
        let exact: f64 = g
            .vertices()
            .map(|v| {
                let d = g.degree(v) as f64;
                d * (d - 1.0)
            })
            .sum();
        assert!((est.estimate(&q, &sub) - exact).abs() < 1e-6);
    }

    #[test]
    fn estimates_grow_with_subquery_size() {
        let g = gen::erdos_renyi(1000, 8000, 1);
        let est = HybridEstimator::from_graph(&g);
        let q = Pattern::Path(5).query_graph();
        let e1 = SubQuery::from_edge_indices(&q, [0]);
        let p3 = SubQuery::from_edge_indices(&q, [0, 1]);
        let p4 = SubQuery::from_edge_indices(&q, [0, 1, 2]);
        let c1 = est.estimate(&q, &e1);
        let c2 = est.estimate(&q, &p3);
        let c3 = est.estimate(&q, &p4);
        assert!(c1 > 0.0);
        assert!(c2 > c1, "{c2} vs {c1}");
        assert!(c3 > c2, "{c3} vs {c2}");
    }

    #[test]
    fn clique_estimates_below_path_estimates() {
        // Adding edges to the same vertex set can only reduce matches.
        let g = gen::erdos_renyi(500, 3000, 2);
        let est = HybridEstimator::from_graph(&g);
        let clique = Pattern::FourClique.query_graph();
        let square = Pattern::Square.query_graph();
        let c = est.estimate(&clique, &SubQuery::full(&clique));
        let s = est.estimate(&square, &SubQuery::full(&square));
        assert!(c < s, "clique {c} should be rarer than square {s}");
    }

    #[test]
    fn stats_estimator_is_consistent() {
        let g = gen::erdos_renyi(300, 1200, 7);
        let est = HybridEstimator::from_graph(&g);
        let stats = GraphStats::of(&g);
        assert_eq!(est.num_vertices(), stats.num_vertices as f64);
        assert_eq!(est.num_edges(), stats.num_edges as f64);
        // The first falling moment is the degree sum, 2|E|.
        assert_eq!(est.degree_moment(1), 2.0 * stats.num_edges as f64);
        // ER graphs have little skew, so the triangle estimate should be
        // within an order of magnitude of the exact labelled count (each
        // triangle has 6 automorphisms).
        let q = Pattern::Triangle.query_graph();
        let a = est.estimate(&q, &SubQuery::full(&q));
        let b = 6.0 * stats.triangles as f64;
        assert!(a / b < 10.0 && b / a < 10.0, "a={a} b={b}");
    }

    #[test]
    fn cost_model_pulling_vs_pushing() {
        let model = CostModel::new(10, 1_000);
        let pull = model.communication_cost(PhysicalSetting::WCO_PULLING, 1e9, 1e9, 2);
        let push = model.communication_cost(PhysicalSetting::HASH_PUSHING, 1e9, 1e9, 2);
        assert!(pull < push);
        assert_eq!(pull, 10_000.0);
        let comp_only = CostModel::new(10, 1_000).computation_only();
        assert_eq!(
            comp_only.communication_cost(PhysicalSetting::HASH_PUSHING, 1e9, 1e9, 2),
            0.0
        );
    }

    #[test]
    fn tightened_pulling_bound_applies_when_cheaper() {
        let model = CostModel::new(10, 1_000).with_avg_degree(5.0);
        // Small left side: pulls far less than the whole graph.
        let pull = model.communication_cost(PhysicalSetting::WCO_PULLING, 100.0, 1e9, 2);
        assert_eq!(pull, 100.0 * 2.0 * 5.0);
        // Huge left side: capped at k |E|.
        let capped = model.communication_cost(PhysicalSetting::WCO_PULLING, 1e9, 1e9, 2);
        assert_eq!(capped, 10_000.0);
    }

    #[test]
    fn join_cost_is_additive() {
        let model = CostModel::new(4, 100);
        let c = model.join_cost(10.0, 20.0, 5.0, 6.0, 30.0, PhysicalSetting::HASH_PUSHING, 0);
        assert_eq!(c, 10.0 + 20.0 + 30.0 + 11.0);
    }
}
