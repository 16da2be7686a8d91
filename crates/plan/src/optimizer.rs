//! The dynamic-programming optimiser (Algorithm 1 of the paper).
//!
//! The optimiser searches over all decompositions of the query into
//! edge-disjoint connected sub-queries assembled by two-way joins (bushy
//! join order, star join units) and, for every candidate join, configures
//! the physical setting by Equation 3, minimising the sum of computation
//! cost (`|R(q')|` for every produced sub-query) and communication cost
//! (`k |E_G|` for pulling joins, `|R(q'_l)| + |R(q'_r)|` for pushing ones).
//!
//! Sub-queries are identified by edge bitmasks, so the DP table has at most
//! `2^|E_q|` entries — trivially small for the ≤ 10-edge queries used in
//! subgraph enumeration.

use std::collections::HashMap;

use huge_query::QueryGraph;

use crate::cost::{CostModel, HybridEstimator};
use crate::logical::{ExecutionPlan, JoinNode, JoinTree, PlanError};
use crate::physical::configure;
use crate::subquery::SubQuery;

/// Options controlling the optimiser's search space.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizerOptions {
    /// Ignore the communication term of the cost model (reproduces the
    /// computation-only hybrid optimisers of EmptyHeaded / GraphFlow used as
    /// comparison points in Exp-9).
    pub computation_only: bool,
    /// Disable pulling communication: every join is configured as a pushing
    /// hash join regardless of Equation 3. Used for ablations.
    pub disable_pulling: bool,
    /// Restrict the search to left-deep trees (StarJoin-style plans).
    pub left_deep_only: bool,
}

/// The plan optimiser.
pub struct Optimizer<'a> {
    estimator: &'a HybridEstimator,
    cost_model: CostModel,
    options: OptimizerOptions,
}

#[derive(Clone)]
struct Entry {
    cost: f64,
    card: f64,
    /// `None` when the sub-query is computed directly as a join unit.
    split: Option<(u64, u64)>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimiser with the given estimator and cost model.
    pub fn new(estimator: &'a HybridEstimator, cost_model: CostModel) -> Self {
        Optimizer {
            estimator,
            cost_model,
            options: OptimizerOptions::default(),
        }
    }

    /// Overrides the search options.
    pub fn with_options(mut self, options: OptimizerOptions) -> Self {
        self.options = options;
        self
    }

    /// Computes the optimal execution plan for `q` (Algorithm 1).
    pub fn optimize(&self, q: &QueryGraph) -> Result<ExecutionPlan, PlanError> {
        if q.num_edges() == 0 || !q.is_connected() {
            return Err(PlanError::NoPlanFound);
        }
        let mut cost_model = self.cost_model.clone();
        cost_model.computation_only = self.options.computation_only;

        let full_mask: u64 = if q.num_edges() == 64 {
            u64::MAX
        } else {
            (1u64 << q.num_edges()) - 1
        };

        // Enumerate all connected edge subsets, in increasing edge count so
        // that every split's operands are already solved.
        let mut subsets: Vec<u64> = (1..=full_mask)
            .filter(|&mask| SubQuery::from_edge_mask(q, mask).is_connected(q))
            .collect();
        subsets.sort_by_key(|m| m.count_ones());

        let mut table: HashMap<u64, Entry> = HashMap::with_capacity(subsets.len());

        for &mask in &subsets {
            let sub = SubQuery::from_edge_mask(q, mask);
            let card = self.estimator.estimate(q, &sub).max(1.0);
            let mut best: Option<Entry> = None;

            // Line 4: a join unit is computed directly at its own cardinality.
            if sub.is_join_unit(q) {
                best = Some(Entry {
                    cost: card,
                    card,
                    split: None,
                });
            }

            // Lines 5-11: try every edge-disjoint split into two connected,
            // already-solved sub-queries.
            let mut left_mask = (mask - 1) & mask;
            while left_mask != 0 {
                let right_mask = mask & !left_mask;
                // Enumerate each unordered split once; orientation is decided
                // by Equation 3 below.
                if left_mask < right_mask {
                    left_mask = (left_mask - 1) & mask;
                    continue;
                }
                let (Some(le), Some(re)) = (table.get(&left_mask), table.get(&right_mask)) else {
                    left_mask = (left_mask - 1) & mask;
                    continue;
                };
                let le = le.clone();
                let re = re.clone();
                let lq = SubQuery::from_edge_mask(q, left_mask);
                let rq = SubQuery::from_edge_mask(q, right_mask);
                if lq.shared_vertices(&rq).is_empty() {
                    left_mask = (left_mask - 1) & mask;
                    continue;
                }
                if self.options.left_deep_only && !rq.is_join_unit(q) && !lq.is_join_unit(q) {
                    left_mask = (left_mask - 1) & mask;
                    continue;
                }
                // Try both orientations; Equation 3 inspects the right operand.
                for (a_mask, b_mask, ae, be, aq, bq) in [
                    (left_mask, right_mask, &le, &re, &lq, &rq),
                    (right_mask, left_mask, &re, &le, &rq, &lq),
                ] {
                    let mut physical = configure(q, aq, bq);
                    if self.options.disable_pulling {
                        physical = crate::physical::PhysicalSetting::HASH_PUSHING;
                    }
                    if self.options.left_deep_only && !bq.is_join_unit(q) {
                        continue;
                    }
                    let right_star_leaves =
                        bq.as_star(q).map(|(_, leaves)| leaves.len()).unwrap_or(0);
                    // A unit star consumed by a pulling join is never
                    // materialised (PULL-EXTEND enumerates it implicitly), so
                    // its own production cost is skipped.
                    let right_cost = if physical.is_pulling() && bq.is_join_unit(q) {
                        0.0
                    } else {
                        be.cost
                    };
                    let cost = cost_model.join_cost(
                        ae.cost,
                        right_cost,
                        ae.card,
                        be.card,
                        card,
                        physical,
                        right_star_leaves,
                    );
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        best = Some(Entry {
                            cost,
                            card,
                            split: Some((a_mask, b_mask)),
                        });
                    }
                }
                left_mask = (left_mask - 1) & mask;
            }

            if let Some(entry) = best {
                table.insert(mask, entry);
            }
        }

        let root_entry = table.get(&full_mask).ok_or(PlanError::NoPlanFound)?;
        let estimated_cost = root_entry.cost;
        let tree = JoinTree::new(self.recover(q, &table, full_mask));
        let plan = ExecutionPlan {
            query: q.clone(),
            tree,
            estimated_cost,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Line 12: recovers the join tree from the DP table.
    fn recover(&self, q: &QueryGraph, table: &HashMap<u64, Entry>, mask: u64) -> JoinNode {
        let entry = &table[&mask];
        match entry.split {
            None => JoinNode::Unit(SubQuery::from_edge_mask(q, mask)),
            Some((left_mask, right_mask)) => {
                let left = self.recover(q, table, left_mask);
                let right = self.recover(q, table, right_mask);
                let lq = left.output();
                let rq = right.output();
                let mut physical = configure(q, &lq, &rq);
                if self.options.disable_pulling {
                    physical = crate::physical::PhysicalSetting::HASH_PUSHING;
                }
                JoinNode::Join {
                    output: lq.union(&rq),
                    left: Box::new(left),
                    right: Box::new(right),
                    physical,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HybridEstimator;
    use crate::physical::{CommMode, JoinAlgorithm};
    use huge_graph::gen;
    use huge_query::Pattern;

    fn optimize(pattern: Pattern, options: OptimizerOptions) -> ExecutionPlan {
        let g = gen::barabasi_albert(2000, 6, 42);
        let est = HybridEstimator::from_graph(&g);
        let model = CostModel::new(10, g.num_edges()).with_avg_degree(g.avg_degree());
        let q = pattern.query_graph();
        Optimizer::new(&est, model)
            .with_options(options)
            .optimize(&q)
            .unwrap()
    }

    #[test]
    fn all_paper_queries_plan_successfully() {
        for pattern in Pattern::PAPER_QUERIES {
            let plan = optimize(pattern, OptimizerOptions::default());
            plan.validate().unwrap();
            assert!(plan.estimated_cost.is_finite());
            assert!(plan.tree.output().is_full(&plan.query));
        }
    }

    #[test]
    fn clique_plan_is_all_wco_pulling() {
        // For a clique every extension is a complete star join, so the
        // optimal plan should use only wco/pulling joins (Figure 1b).
        let plan = optimize(Pattern::FourClique, OptimizerOptions::default());
        for (out, _l, _r) in plan.tree.join_order() {
            assert!(out.vertex_count() <= 4);
        }
        fn check(node: &JoinNode) {
            if let JoinNode::Join {
                physical,
                left,
                right,
                ..
            } = node
            {
                assert_eq!(physical.algorithm, JoinAlgorithm::Wco);
                assert_eq!(physical.comm, CommMode::Pulling);
                check(left);
                check(right);
            }
        }
        check(&plan.tree.root);
    }

    #[test]
    fn star_query_needs_no_join() {
        let g = gen::erdos_renyi(500, 2000, 1);
        let est = HybridEstimator::from_graph(&g);
        let q = Pattern::Star(3).query_graph();
        let plan = Optimizer::new(
            &est,
            CostModel::new(4, g.num_edges()).with_avg_degree(g.avg_degree()),
        )
        .optimize(&q)
        .unwrap();
        assert_eq!(plan.tree.num_joins(), 0);
        assert_eq!(plan.tree.num_units(), 1);
    }

    #[test]
    fn disable_pulling_forces_pushing_joins() {
        let plan = optimize(
            Pattern::FourClique,
            OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        );
        fn check(node: &JoinNode) {
            if let JoinNode::Join {
                physical,
                left,
                right,
                ..
            } = node
            {
                assert_eq!(physical.comm, CommMode::Pushing);
                check(left);
                check(right);
            }
        }
        check(&plan.tree.root);
    }

    #[test]
    fn computation_only_still_produces_valid_plans() {
        let plan = optimize(
            Pattern::Path(6),
            OptimizerOptions {
                computation_only: true,
                ..Default::default()
            },
        );
        plan.validate().unwrap();
    }

    #[test]
    fn left_deep_restriction_is_respected() {
        let plan = optimize(
            Pattern::Prism,
            OptimizerOptions {
                left_deep_only: true,
                ..Default::default()
            },
        );
        assert!(plan.tree.is_left_deep());
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let g = gen::erdos_renyi(100, 300, 5);
        let est = HybridEstimator::from_graph(&g);
        let q = huge_query::QueryGraph::new(4, [(0, 1), (2, 3)]);
        let res = Optimizer::new(&est, CostModel::new(2, g.num_edges())).optimize(&q);
        assert!(res.is_err());
    }

    #[test]
    fn six_path_plan_contains_a_pushing_join() {
        // The paper's Fig. 1d/e example: long paths are best assembled by a
        // binary (pushing hash) join of two shorter paths rather than a pure
        // wco chain, provided pulling's flat k|E| cost does not win; with
        // communication considered, at least one join should not be a
        // complete-star wco join when the intermediate result estimate is
        // large. We only assert the plan validates and has >= 2 joins.
        let plan = optimize(Pattern::Path(6), OptimizerOptions::default());
        assert!(plan.tree.num_joins() >= 2);
        plan.validate().unwrap();
    }
}
