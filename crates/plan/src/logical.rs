//! Logical join trees.
//!
//! A logical plan in the paper's framework (§3.1) is a sequence of two-way
//! joins over join units; because every intermediate result is used exactly
//! once, the sequence forms a binary tree whose leaves are join units and
//! whose internal nodes are joins. [`JoinTree`] is that tree, each join
//! annotated with its physical setting (join algorithm + communication
//! mode).

use huge_query::{QueryGraph, QueryVertex};

use crate::physical::{configure, PhysicalSetting};
use crate::subquery::SubQuery;

/// A node of a [`JoinTree`].
#[derive(Clone, Debug, PartialEq)]
pub enum JoinNode {
    /// A join unit (a star under HUGE's default setting), computed by a
    /// `SCAN` (possibly rewritten into scan + extends, §5.2) whose rows start
    /// on the machine that owns `start`'s match: the star's centre, or a
    /// leaf, scanned leaf → centre with the other leaves pulled from the
    /// centre.
    Unit {
        /// The star.
        star: SubQuery,
        /// The star vertex the scan starts from.
        start: QueryVertex,
    },
    /// A two-way join `(output, left, right)` with its physical setting.
    Join {
        /// The sub-query produced by this join (`left ∪ right`).
        output: SubQuery,
        /// Left operand.
        left: Box<JoinNode>,
        /// Right operand (`q'_r` in the paper; Equation 3 inspects this
        /// side, so orientation matters).
        right: Box<JoinNode>,
        /// Join algorithm and communication mode.
        physical: PhysicalSetting,
    },
}

impl JoinNode {
    /// A unit scanned from its star's centre (the root
    /// [`SubQuery::as_star`] names), as every prior system scans a star.
    ///
    /// # Panics
    /// Panics if `star` is not a star of `q`.
    pub fn unit(q: &QueryGraph, star: SubQuery) -> JoinNode {
        let (start, _) = star.as_star(q).expect("a join unit is a star");
        JoinNode::Unit { star, start }
    }

    /// The sub-query this node produces.
    pub fn output(&self) -> SubQuery {
        match self {
            JoinNode::Unit { star, .. } => *star,
            JoinNode::Join { output, .. } => *output,
        }
    }

    /// Creates a join node with an explicit physical setting.
    pub fn join_with(left: JoinNode, right: JoinNode, physical: PhysicalSetting) -> JoinNode {
        let output = left.output().union(&right.output());
        JoinNode::Join {
            output,
            left: Box::new(left),
            right: Box::new(right),
            physical,
        }
    }

    /// Number of join (internal) nodes below and including this node.
    pub fn num_joins(&self) -> usize {
        match self {
            JoinNode::Unit { .. } => 0,
            JoinNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Number of unit (leaf) nodes.
    pub fn num_units(&self) -> usize {
        match self {
            JoinNode::Unit { .. } => 1,
            JoinNode::Join { left, right, .. } => left.num_units() + right.num_units(),
        }
    }

    /// `true` if the tree is left-deep: every right child is a unit.
    pub fn is_left_deep(&self) -> bool {
        match self {
            JoinNode::Unit { .. } => true,
            JoinNode::Join { left, right, .. } => {
                matches!(**right, JoinNode::Unit { .. }) && left.is_left_deep()
            }
        }
    }

    fn visit_joins<'a>(&'a self, out: &mut Vec<(&'a JoinNode, SubQuery, SubQuery, SubQuery)>) {
        if let JoinNode::Join {
            output,
            left,
            right,
            ..
        } = self
        {
            left.visit_joins(out);
            right.visit_joins(out);
            out.push((self, *output, left.output(), right.output()));
        }
    }

    fn validate_node(&self, q: &QueryGraph) -> Result<(), PlanError> {
        match self {
            JoinNode::Unit { star, start } => {
                if !star.is_join_unit(q) {
                    return Err(PlanError::UnitNotAStar(*star));
                }
                if !star.contains_vertex(*start) {
                    return Err(PlanError::StartOutsideUnit(*star, *start));
                }
                Ok(())
            }
            JoinNode::Join {
                output,
                left,
                right,
                ..
            } => {
                left.validate_node(q)?;
                right.validate_node(q)?;
                let l = left.output();
                let r = right.output();
                if !l.edge_disjoint(&r) {
                    return Err(PlanError::OverlappingEdges(l, r));
                }
                if l.union(&r) != *output {
                    return Err(PlanError::BadJoinOutput(*output));
                }
                if l.shared_vertices(&r).is_empty() {
                    return Err(PlanError::CartesianJoin(l, r));
                }
                if !output.is_connected(q) {
                    return Err(PlanError::DisconnectedSubQuery(*output));
                }
                Ok(())
            }
        }
    }

    /// Reconfigures every join's physical setting by Equation 3, swapping
    /// the operands when the swapped orientation yields a strictly better
    /// setting (wco/pulling ≻ hash/pulling ≻ hash/pushing). This is how an
    /// existing system's *logical* plan is plugged into HUGE (Remark 3.2).
    pub fn configure_physical(&mut self, q: &QueryGraph) {
        if let JoinNode::Join {
            left,
            right,
            physical,
            ..
        } = self
        {
            left.configure_physical(q);
            right.configure_physical(q);
            let l = left.output();
            let r = right.output();
            let as_is = configure(q, &l, &r);
            let swapped = configure(q, &r, &l);
            if rank(swapped) > rank(as_is) {
                std::mem::swap(left, right);
                *physical = swapped;
            } else {
                *physical = as_is;
            }
        }
    }
}

/// Preference order for physical settings when plugging logical plans in.
fn rank(p: PhysicalSetting) -> u8 {
    use crate::physical::{CommMode, JoinAlgorithm};
    match (p.algorithm, p.comm) {
        (JoinAlgorithm::Wco, CommMode::Pulling) => 3,
        (JoinAlgorithm::Hash, CommMode::Pulling) => 2,
        (JoinAlgorithm::Wco, CommMode::Pushing) => 1,
        (JoinAlgorithm::Hash, CommMode::Pushing) => 0,
    }
}

/// A complete logical plan: a join tree covering every edge of the query.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinTree {
    /// The root join node (its output must equal the full query).
    pub root: JoinNode,
}

impl JoinTree {
    /// Wraps a root node into a tree.
    pub fn new(root: JoinNode) -> Self {
        JoinTree { root }
    }

    /// The sub-query produced by the whole tree.
    pub fn output(&self) -> SubQuery {
        self.root.output()
    }

    /// Validates the structural invariants of the tree against `q`:
    /// units are stars, joins are edge-disjoint and connected, and the root
    /// covers the entire query.
    pub fn validate(&self, q: &QueryGraph) -> Result<(), PlanError> {
        self.root.validate_node(q)?;
        if !self.root.output().is_full(q) {
            return Err(PlanError::IncompletePlan(self.root.output()));
        }
        Ok(())
    }

    /// The flattened join order `O` of the paper: the joins in post-order,
    /// each as `(q', q'_l, q'_r)`.
    pub fn join_order(&self) -> Vec<(SubQuery, SubQuery, SubQuery)> {
        let mut nodes = Vec::new();
        self.root.visit_joins(&mut nodes);
        nodes.into_iter().map(|(_, o, l, r)| (o, l, r)).collect()
    }

    /// Applies Equation 3 to every join (see [`JoinNode::configure_physical`]).
    pub fn configure_physical(&mut self, q: &QueryGraph) {
        self.root.configure_physical(q);
    }

    /// Number of two-way joins in the plan.
    pub fn num_joins(&self) -> usize {
        self.root.num_joins()
    }

    /// Number of join units (leaves).
    pub fn num_units(&self) -> usize {
        self.root.num_units()
    }

    /// `true` if the plan is left-deep.
    pub fn is_left_deep(&self) -> bool {
        self.root.is_left_deep()
    }
}

/// A full execution plan: the query, the join tree with physical settings,
/// and the optimiser's cost estimate.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// The query graph being planned.
    pub query: QueryGraph,
    /// The join tree (logical plan + per-join physical settings).
    pub tree: JoinTree,
    /// The optimiser's estimated total cost (Algorithm 1's `M_cost[q]`).
    pub estimated_cost: f64,
}

impl ExecutionPlan {
    /// Validates the plan against its own query.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.tree.validate(&self.query)
    }

    /// A compact human-readable rendering of the plan (one join per line),
    /// used by the `plan_explain` example and the experiment harness.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan for {} ({} vertices, {} edges): {} unit(s), {} join(s), est. cost {:.3e}\n",
            if self.query.name().is_empty() {
                "<anonymous>"
            } else {
                self.query.name()
            },
            self.query.num_vertices(),
            self.query.num_edges(),
            self.tree.num_units(),
            self.tree.num_joins(),
            self.estimated_cost
        ));
        explain_node(&self.tree.root, &self.query, 0, &mut out);
        out
    }
}

#[allow(clippy::only_used_in_recursion)]
fn explain_node(node: &JoinNode, q: &QueryGraph, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match node {
        JoinNode::Unit { star, start } => {
            let verts: Vec<String> = star.vertices().map(|v| format!("v{v}")).collect();
            out.push_str(&format!(
                "{indent}SCAN star {{{}}} from v{start}\n",
                verts.join(", ")
            ));
        }
        JoinNode::Join {
            left,
            right,
            physical,
            output,
        } => {
            let verts: Vec<String> = output.vertices().map(|v| format!("v{v}")).collect();
            out.push_str(&format!(
                "{indent}JOIN [{:?} join, {:?}] -> {{{}}}\n",
                physical.algorithm,
                physical.comm,
                verts.join(", ")
            ));
            explain_node(left, q, depth + 1, out);
            explain_node(right, q, depth + 1, out);
        }
    }
}

/// Errors detected while validating a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// A leaf of the join tree is not a star.
    UnitNotAStar(SubQuery),
    /// A unit's scan starts at a vertex outside its star.
    StartOutsideUnit(SubQuery, QueryVertex),
    /// The two operands of a join share an edge.
    OverlappingEdges(SubQuery, SubQuery),
    /// A join's recorded output is not the union of its operands.
    BadJoinOutput(SubQuery),
    /// A join's operands share no vertex (Cartesian product).
    CartesianJoin(SubQuery, SubQuery),
    /// A join produces a disconnected sub-query.
    DisconnectedSubQuery(SubQuery),
    /// The root of the plan does not cover every query edge.
    IncompletePlan(SubQuery),
    /// The optimiser could not produce a plan (e.g. disconnected query).
    NoPlanFound,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnitNotAStar(s) => write!(f, "join unit {s:?} is not a star"),
            PlanError::StartOutsideUnit(s, v) => {
                write!(
                    f,
                    "join unit {s:?} cannot start at v{v}, not one of its vertices"
                )
            }
            PlanError::OverlappingEdges(l, r) => {
                write!(f, "join operands {l:?} and {r:?} share edges")
            }
            PlanError::BadJoinOutput(o) => write!(f, "join output {o:?} is not the operand union"),
            PlanError::CartesianJoin(l, r) => {
                write!(f, "join of {l:?} and {r:?} has an empty join key")
            }
            PlanError::DisconnectedSubQuery(s) => write!(f, "sub-query {s:?} is disconnected"),
            PlanError::IncompletePlan(s) => {
                write!(f, "plan covers only {s:?}, not the whole query")
            }
            PlanError::NoPlanFound => write!(f, "no execution plan could be derived"),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_query::Pattern;

    /// A join node over two children, set up by Equation 3.
    fn join_auto(q: &QueryGraph, left: JoinNode, right: JoinNode) -> JoinNode {
        let physical = configure(q, &left.output(), &right.output());
        JoinNode::join_with(left, right, physical)
    }

    /// Builds the Example 3.1 plan: the 4-clique assembled by two complete
    /// star joins from an initial edge.
    fn clique_wco_tree(q: &QueryGraph) -> JoinTree {
        let e01 = SubQuery::star(q, 0, &[1]);
        let star2 = SubQuery::star(q, 2, &[0, 1]);
        let star3 = SubQuery::star(q, 3, &[0, 1, 2]);
        let j1 = join_auto(q, JoinNode::unit(q, e01), JoinNode::unit(q, star2));
        let j2 = join_auto(q, j1, JoinNode::unit(q, star3));
        JoinTree::new(j2)
    }

    #[test]
    fn clique_plan_validates_and_uses_wco_pulling() {
        let q = Pattern::FourClique.query_graph();
        let tree = clique_wco_tree(&q);
        tree.validate(&q).unwrap();
        assert_eq!(tree.num_joins(), 2);
        assert_eq!(tree.num_units(), 3);
        assert!(tree.is_left_deep());
        for (_, _l, _r) in tree.join_order() {}
        // Both joins are complete star joins.
        fn all_wco(node: &JoinNode) -> bool {
            match node {
                JoinNode::Unit { .. } => true,
                JoinNode::Join {
                    left,
                    right,
                    physical,
                    ..
                } => *physical == PhysicalSetting::WCO_PULLING && all_wco(left) && all_wco(right),
            }
        }
        assert!(all_wco(&tree.root));
    }

    #[test]
    fn validation_catches_incomplete_plans() {
        let q = Pattern::FourClique.query_graph();
        let e01 = SubQuery::star(&q, 0, &[1]);
        let tree = JoinTree::new(JoinNode::unit(&q, e01));
        assert!(matches!(
            tree.validate(&q),
            Err(PlanError::IncompletePlan(_))
        ));
    }

    #[test]
    fn validation_catches_overlapping_edges() {
        let q = Pattern::Square.query_graph();
        let a = SubQuery::star(&q, 0, &[1, 3]);
        let b = SubQuery::star(&q, 0, &[1]); // overlaps edge (0,1)
        let node = join_auto(&q, JoinNode::unit(&q, a), JoinNode::unit(&q, b));
        let tree = JoinTree::new(node);
        assert!(matches!(
            tree.validate(&q),
            Err(PlanError::OverlappingEdges(_, _))
        ));
    }

    #[test]
    fn validation_catches_non_star_units() {
        let q = Pattern::FourClique.query_graph();
        let tri = SubQuery::induced_by_vertices(&q, [0, 1, 2]);
        let rest = SubQuery::star(&q, 3, &[0, 1, 2]);
        let tri = JoinNode::Unit {
            star: tri,
            start: 0,
        };
        let node = join_auto(&q, tri, JoinNode::unit(&q, rest));
        let tree = JoinTree::new(node);
        assert!(matches!(tree.validate(&q), Err(PlanError::UnitNotAStar(_))));
    }

    #[test]
    fn validation_catches_a_start_outside_its_unit() {
        let q = Pattern::Path(3).query_graph();
        let path = SubQuery::star(&q, 1, &[0, 2]);
        let tree = JoinTree::new(JoinNode::Unit {
            star: path,
            start: 3,
        });
        assert_eq!(tree.validate(&q), Err(PlanError::StartOutsideUnit(path, 3)));
        for start in [0, 1, 2] {
            let tree = JoinTree::new(JoinNode::Unit { star: path, start });
            tree.validate(&q).unwrap();
        }
    }

    #[test]
    fn configure_physical_prefers_pulling_orientation() {
        let q = Pattern::FourClique.query_graph();
        // Build the join in the "wrong" orientation: the star that should be
        // q'_r placed on the left.
        let e01 = SubQuery::star(&q, 0, &[1]);
        let star2 = SubQuery::star(&q, 2, &[0, 1]);
        let mut node = JoinNode::join_with(
            JoinNode::unit(&q, star2),
            JoinNode::unit(&q, e01),
            PhysicalSetting::HASH_PUSHING,
        );
        node.configure_physical(&q);
        match &node {
            JoinNode::Join { physical, .. } => {
                assert_eq!(*physical, PhysicalSetting::WCO_PULLING)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn join_order_is_post_order() {
        let q = Pattern::FourClique.query_graph();
        let tree = clique_wco_tree(&q);
        let order = tree.join_order();
        assert_eq!(order.len(), 2);
        // The last element must produce the full query (as the paper
        // requires of the join order's final element).
        assert!(order.last().unwrap().0.is_full(&q));
    }

    #[test]
    fn explain_is_nonempty() {
        let q = Pattern::FourClique.query_graph();
        let plan = ExecutionPlan {
            query: q.clone(),
            tree: clique_wco_tree(&q),
            estimated_cost: 123.0,
        };
        let text = plan.explain();
        assert!(text.contains("JOIN"));
        assert!(text.contains("SCAN"));
        plan.validate().unwrap();
    }
}
