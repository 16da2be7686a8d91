//! Logical plans of prior systems expressed in the join-based framework
//! (Table 2 of the paper).
//!
//! The paper's Remark 3.2: existing works can be plugged into HUGE via their
//! *logical* plans; HUGE then configures the physical settings (Equation 3)
//! and executes the plan on its own engine, yielding the "HUGE-X" variants
//! of Exp-1. This module builds those logical plans:
//!
//! | system    | join unit       | join order | native physical setting    |
//! |-----------|-----------------|------------|----------------------------|
//! | StarJoin  | star            | left-deep  | hash join, pushing         |
//! | SEED      | star (+clique)  | bushy      | hash join, pushing         |
//! | BiGJoin   | star (limited)  | left-deep  | wco join, pushing          |
//! | BENU      | star (limited)  | left-deep  | wco join, pulling          |
//! | RADS      | star            | left-deep  | hash join, pulling         |
//!
//! plus the computation-only hybrid plans of EmptyHeaded / GraphFlow used in
//! Exp-9.

use huge_query::{QueryGraph, QueryVertex};

use crate::cost::{CostModel, HybridEstimator};
use crate::logical::{ExecutionPlan, JoinNode, JoinTree, PlanError};
use crate::optimizer::{Optimizer, OptimizerOptions};
use crate::physical::PhysicalSetting;
use crate::subquery::SubQuery;

/// Which baseline system's plan to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineSystem {
    /// StarJoin: left-deep star joins, pushing hash join.
    StarJoin,
    /// SEED: bushy star joins, pushing hash join.
    Seed,
    /// BiGJoin: left-deep worst-case-optimal extensions, pushing.
    BigJoin,
    /// BENU: the same wco plan, executed by pulling from an external store.
    Benu,
    /// RADS: left-deep star-expand-and-verify, pulling hash join.
    Rads,
}

/// Builds the *native* plan of a baseline system: its logical plan with its
/// own physical settings. Use [`plug_into_huge`] to re-configure the same
/// logical plan with HUGE's Equation 3 (the "HUGE-X" variants).
pub fn native_plan(system: BaselineSystem, q: &QueryGraph) -> Result<ExecutionPlan, PlanError> {
    let tree = match system {
        BaselineSystem::BigJoin => wco_left_deep_tree(q, PhysicalSetting::WCO_PUSHING)?,
        BaselineSystem::Benu => wco_left_deep_tree(q, PhysicalSetting::WCO_PULLING)?,
        BaselineSystem::StarJoin => star_left_deep_tree(q, PhysicalSetting::HASH_PUSHING)?,
        BaselineSystem::Seed => star_bushy_tree(q, PhysicalSetting::HASH_PUSHING)?,
        BaselineSystem::Rads => rads_tree(q)?,
    };
    let plan = ExecutionPlan {
        query: q.clone(),
        tree,
        estimated_cost: f64::NAN,
    };
    plan.validate()?;
    Ok(plan)
}

/// Takes a baseline's logical plan and re-configures every join's physical
/// setting by Equation 3 — the paper's "plugging existing works into HUGE"
/// (Remark 3.2, Exp-1).
pub fn plug_into_huge(system: BaselineSystem, q: &QueryGraph) -> Result<ExecutionPlan, PlanError> {
    let mut plan = native_plan(system, q)?;
    plan.tree.configure_physical(q);
    plan.validate()?;
    Ok(plan)
}

/// A computation-only hybrid plan in the style of EmptyHeaded / GraphFlow:
/// the same DP as HUGE's optimiser, but the cost model ignores communication
/// (those systems target a single machine). Used by Exp-9.
pub fn hybrid_computation_only_plan(
    q: &QueryGraph,
    estimator: &HybridEstimator,
    cost_model: CostModel,
) -> Result<ExecutionPlan, PlanError> {
    Optimizer::new(estimator, cost_model)
        .with_options(OptimizerOptions {
            computation_only: true,
            ..Default::default()
        })
        .optimize(q)
}

/// A pure worst-case-optimal plan (BiGJoin's logical plan) with physical
/// settings configured by Equation 3 — the paper's HUGE-WCO.
pub fn huge_wco_plan(q: &QueryGraph) -> Result<ExecutionPlan, PlanError> {
    plug_into_huge(BaselineSystem::BigJoin, q)
}

// ---------------------------------------------------------------------------
// Plan constructors
// ---------------------------------------------------------------------------

/// BiGJoin / BENU: match one vertex at a time along a connected order; the
/// i-th step is a complete star join of the induced prefix with the star
/// `(v_i; backward neighbours)` (Example 3.1).
fn wco_left_deep_tree(q: &QueryGraph, physical: PhysicalSetting) -> Result<JoinTree, PlanError> {
    let order = q.connected_order();
    if order.len() < 2 {
        return Err(PlanError::NoPlanFound);
    }
    // The first two vertices must be adjacent (connected order guarantees
    // the second has an earlier neighbour, which can only be the first).
    let mut node = JoinNode::unit(q, SubQuery::star(q, order[0], &[order[1]]));
    for i in 2..order.len() {
        let v = order[i];
        let backward: Vec<QueryVertex> = order[..i]
            .iter()
            .copied()
            .filter(|&u| q.has_edge(u, v))
            .collect();
        debug_assert!(!backward.is_empty(), "connected order violated");
        let star = SubQuery::star(q, v, &backward);
        node = JoinNode::join_with(node, JoinNode::unit(q, star), physical);
    }
    Ok(JoinTree::new(node))
}

/// Greedy star decomposition: repeatedly root a star at the vertex with the
/// most uncovered incident edges until every edge is covered.
fn star_decomposition(q: &QueryGraph) -> Vec<SubQuery> {
    let mut covered = vec![false; q.num_edges()];
    let mut stars = Vec::new();
    while covered.iter().any(|&c| !c) {
        // Vertex with the most uncovered incident edges.
        let root = q
            .vertices()
            .max_by_key(|&v| {
                q.edges()
                    .iter()
                    .enumerate()
                    .filter(|(i, &(a, b))| !covered[*i] && (a == v || b == v))
                    .count()
            })
            .expect("non-empty query");
        let picked: Vec<(usize, QueryVertex)> = q
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, &(a, b))| !covered[*i] && (a == root || b == root))
            .map(|(i, &(a, b))| (i, if a == root { b } else { a }))
            .collect();
        let leaves: Vec<QueryVertex> = picked
            .iter()
            .map(|&(i, leaf)| {
                covered[i] = true;
                leaf
            })
            .collect();
        debug_assert!(!leaves.is_empty());
        stars.push(SubQuery::star(q, root, &leaves));
    }
    stars
}

/// Orders the stars of a decomposition so that each one (after the first)
/// shares a vertex with the union of its predecessors, keeping every
/// intermediate join connected.
fn order_stars_connected(mut stars: Vec<SubQuery>) -> Vec<SubQuery> {
    let mut ordered: Vec<SubQuery> = Vec::with_capacity(stars.len());
    while !stars.is_empty() {
        let idx = if ordered.is_empty() {
            0
        } else {
            let acc = ordered
                .iter()
                .fold(SubQuery::empty(), |acc, s| acc.union(s));
            stars
                .iter()
                .position(|s| !acc.shared_vertices(s).is_empty())
                .unwrap_or(0)
        };
        ordered.push(stars.remove(idx));
    }
    ordered
}

/// StarJoin: left-deep hash joins over the greedy star decomposition.
fn star_left_deep_tree(q: &QueryGraph, physical: PhysicalSetting) -> Result<JoinTree, PlanError> {
    let stars = order_stars_connected(star_decomposition(q));
    let mut node = JoinNode::unit(q, stars[0]);
    for star in &stars[1..] {
        node = JoinNode::join_with(node, JoinNode::unit(q, *star), physical);
    }
    Ok(JoinTree::new(node))
}

/// SEED: bushy joins over the star decomposition. We build a balanced tree
/// over the connected star order, falling back to left-deep when a balanced
/// split would create a Cartesian (disconnected) join.
fn star_bushy_tree(q: &QueryGraph, physical: PhysicalSetting) -> Result<JoinTree, PlanError> {
    let stars = order_stars_connected(star_decomposition(q));
    Ok(JoinTree::new(build_bushy(q, &stars, physical)))
}

fn build_bushy(q: &QueryGraph, stars: &[SubQuery], physical: PhysicalSetting) -> JoinNode {
    if stars.len() == 1 {
        return JoinNode::unit(q, stars[0]);
    }
    // Try a balanced split; if the halves do not share a vertex, fall back to
    // splitting off the last star (left-deep step).
    let mid = stars.len() / 2;
    let (l, r) = stars.split_at(mid);
    let l_union = l.iter().fold(SubQuery::empty(), |acc, s| acc.union(s));
    let r_union = r.iter().fold(SubQuery::empty(), |acc, s| acc.union(s));
    let (l, r) = if !l.is_empty() && !r.is_empty() && !l_union.shared_vertices(&r_union).is_empty()
    {
        (l, r)
    } else {
        stars.split_at(stars.len() - 1)
    };
    let left = build_bushy(q, l, physical);
    let right = build_bushy(q, r, physical);
    JoinNode::join_with(left, right, physical)
}

/// RADS: star-expand-and-verify. Starting from the star rooted at the
/// highest-degree query vertex, each round joins a star rooted at an
/// *already matched* vertex (so the star can be enumerated locally after
/// pulling that vertex's adjacency list); remaining edges between matched
/// vertices are verified by joining single-edge "1-stars".
fn rads_tree(q: &QueryGraph) -> Result<JoinTree, PlanError> {
    let mut covered = vec![false; q.num_edges()];
    // Initial star: rooted at the max-degree vertex, covering all its edges.
    let root0 = q
        .vertices()
        .max_by_key(|&v| q.degree(v))
        .ok_or(PlanError::NoPlanFound)?;
    let leaves0: Vec<QueryVertex> = q
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, &(a, b))| a == root0 || b == root0)
        .map(|(i, &(a, b))| {
            covered[i] = true;
            if a == root0 {
                b
            } else {
                a
            }
        })
        .collect();
    let first = SubQuery::star(q, root0, &leaves0);
    let mut node = JoinNode::unit(q, first);
    let mut matched = first;

    // Expansion rounds: cover edges from a matched vertex to unmatched
    // vertices first (growing the match), then verification rounds for edges
    // between two matched vertices.
    loop {
        // Prefer a star that grows at least one new vertex.
        let candidate = q
            .vertices()
            .filter(|&v| matched.contains_vertex(v))
            .filter_map(|v| {
                let grow: Vec<(usize, QueryVertex)> = q
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(i, &(a, b))| {
                        !covered[*i]
                            && (a == v || b == v)
                            && !matched.contains_vertex(if a == v { b } else { a })
                    })
                    .map(|(i, &(a, b))| (i, if a == v { b } else { a }))
                    .collect();
                (!grow.is_empty()).then_some((v, grow))
            })
            .max_by_key(|(_, grow)| grow.len());
        if let Some((root, grow)) = candidate {
            let leaves: Vec<QueryVertex> = grow.iter().map(|&(_, l)| l).collect();
            for &(i, _) in &grow {
                covered[i] = true;
            }
            let star = SubQuery::star(q, root, &leaves);
            node =
                JoinNode::join_with(node, JoinNode::unit(q, star), PhysicalSetting::HASH_PULLING);
            matched = matched.union(&star);
            continue;
        }
        // Verification: any uncovered edge now has both endpoints matched.
        let next_uncovered = covered.iter().position(|&c| !c);
        match next_uncovered {
            None => break,
            Some(i) => {
                covered[i] = true;
                let (a, b) = q.edges()[i];
                let star = SubQuery::star(q, a, &[b]);
                node = JoinNode::join_with(
                    node,
                    JoinNode::unit(q, star),
                    PhysicalSetting::HASH_PULLING,
                );
                matched = matched.union(&star);
            }
        }
    }
    Ok(JoinTree::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{CommMode, JoinAlgorithm};
    use crate::translate::translate;
    use huge_query::Pattern;

    const ALL_SYSTEMS: [BaselineSystem; 5] = [
        BaselineSystem::StarJoin,
        BaselineSystem::Seed,
        BaselineSystem::BigJoin,
        BaselineSystem::Benu,
        BaselineSystem::Rads,
    ];

    #[test]
    fn every_baseline_plans_every_paper_query() {
        for system in ALL_SYSTEMS {
            for pattern in Pattern::PAPER_QUERIES {
                let q = pattern.query_graph();
                let plan = native_plan(system, &q)
                    .unwrap_or_else(|e| panic!("{system:?} {pattern:?}: {e}"));
                plan.validate().unwrap();
            }
        }
    }

    #[test]
    fn bigjoin_plan_is_left_deep_wco_pushing() {
        let q = Pattern::FourClique.query_graph();
        let plan = native_plan(BaselineSystem::BigJoin, &q).unwrap();
        assert!(plan.tree.is_left_deep());
        for node in [&plan.tree.root] {
            if let JoinNode::Join { physical, .. } = node {
                assert_eq!(physical.algorithm, JoinAlgorithm::Wco);
                assert_eq!(physical.comm, CommMode::Pushing);
            }
        }
    }

    #[test]
    fn benu_uses_pulling() {
        let q = Pattern::Square.query_graph();
        let plan = native_plan(BaselineSystem::Benu, &q).unwrap();
        if let JoinNode::Join { physical, .. } = &plan.tree.root {
            assert_eq!(physical.comm, CommMode::Pulling);
        } else {
            panic!("expected a join at the root");
        }
    }

    #[test]
    fn seed_plan_can_be_bushy() {
        // The 6-path decomposes into 3+ stars; SEED's tree should not be
        // forced left-deep when a connected balanced split exists.
        let q = Pattern::Path(6).query_graph();
        let plan = native_plan(BaselineSystem::Seed, &q).unwrap();
        plan.validate().unwrap();
        assert!(plan.tree.num_units() >= 2);
    }

    #[test]
    fn rads_plan_pulls_everywhere() {
        let q = Pattern::ChordalSquare.query_graph();
        let plan = native_plan(BaselineSystem::Rads, &q).unwrap();
        fn check(node: &JoinNode) {
            if let JoinNode::Join {
                physical,
                left,
                right,
                ..
            } = node
            {
                assert_eq!(physical.comm, CommMode::Pulling);
                assert_eq!(physical.algorithm, JoinAlgorithm::Hash);
                check(left);
                check(right);
            }
        }
        check(&plan.tree.root);
    }

    #[test]
    fn plugged_plans_translate_to_dataflows() {
        for system in ALL_SYSTEMS {
            for pattern in [Pattern::Square, Pattern::ChordalSquare, Pattern::FourClique] {
                let q = pattern.query_graph();
                let plan = plug_into_huge(system, &q).unwrap();
                let df = translate(&plan).unwrap();
                df.validate().unwrap();
            }
        }
    }

    #[test]
    fn plugging_into_huge_upgrades_bigjoin_to_pulling() {
        let q = Pattern::FourClique.query_graph();
        let plan = plug_into_huge(BaselineSystem::BigJoin, &q).unwrap();
        fn check(node: &JoinNode) {
            if let JoinNode::Join {
                physical,
                left,
                right,
                ..
            } = node
            {
                assert_eq!(*physical, PhysicalSetting::WCO_PULLING);
                check(left);
                check(right);
            }
        }
        check(&plan.tree.root);
    }

    #[test]
    fn star_decomposition_covers_all_edges() {
        for pattern in Pattern::PAPER_QUERIES {
            let q = pattern.query_graph();
            let stars = star_decomposition(&q);
            let union = stars.iter().fold(SubQuery::empty(), |acc, s| acc.union(s));
            assert!(union.is_full(&q), "{pattern:?}");
            // All pieces are stars and pairwise edge-disjoint.
            for (i, s) in stars.iter().enumerate() {
                assert!(s.is_join_unit(&q));
                for t in &stars[i + 1..] {
                    assert!(s.edge_disjoint(t));
                }
            }
        }
    }
}
