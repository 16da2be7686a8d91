//! Translation of execution plans into dataflows (Algorithm 2).
//!
//! A dataflow is a DAG of operators (`SCAN`, `PULL-EXTEND`, `PUSH-JOIN`,
//! `SINK`, §4.2). Because `PUSH-JOIN` is the only operator with two inputs,
//! the dataflow decomposes into *segments*: maximal chains that start at a
//! `SCAN` or a `PUSH-JOIN` and are followed by zero or more `PULL-EXTEND`s.
//! The engine schedules one segment at a time (and `PUSH-JOIN` introduces a
//! synchronisation barrier between its input segments and its own segment,
//! §5.4).
//!
//! The translation also applies the §5.2 rewrites that make every memory-
//! hungry construct a chain of `PULL-EXTEND`s:
//!
//! * `SCAN` of a star `(v; L)` becomes a scan of one star edge followed by
//!   `|L| - 1` extends rooted at `v`;
//! * a pulling-based hash join `(q', q'_l, (v; L))` with `v ∈ V(q'_l)`
//!   becomes a *verify* extend over `L ∩ V(q'_l)` (checking adjacency of the
//!   already-bound root) followed by one extend per leaf in `L \ V(q'_l)`.
//!
//! One ordering rule follows for every `PUSH-JOIN` input that a scan starts:
//! its newest column binds a vertex that is not a join key whenever a step
//! binding one can go last (no other step reads it). A match-mode extend
//! emits runs whose prefix holds every other column, so the key is then
//! fixed per run and the shuffle ships each run whole, to one machine,
//! prefix once. The extends commute, so the rows are the same. The 6-path's
//! input `SCAN(v1 - v0) → v2 ∈ N(v1)`, keyed on `v2`, becomes
//! `SCAN(v1 - v2) → v0 ∈ N(v1)`: moving the scan's `dst` promotes the next
//! step, which can then read only the scan root, to `dst`.

use huge_query::{QueryGraph, QueryVertex};

use crate::logical::{ExecutionPlan, JoinNode, PlanError};
use crate::physical::{CommMode, JoinAlgorithm};
use crate::subquery::SubQuery;

/// One step of a scan segment after its root: the query vertex it binds and
/// the bound vertices whose neighbourhoods it intersects.
type Step = (QueryVertex, Vec<QueryVertex>);

/// A symmetry-breaking filter over row positions: requires
/// `row[smaller] < row[larger]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderFilter {
    /// Position holding the smaller data-vertex id.
    pub smaller: usize,
    /// Position holding the larger data-vertex id.
    pub larger: usize,
}

/// The `SCAN` operator: emits one row `[f(src), f(dst)]` per directed
/// adjacency entry of the local partition.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanOp {
    /// Query vertex bound by the first column.
    pub src: QueryVertex,
    /// Query vertex bound by the second column.
    pub dst: QueryVertex,
    /// Symmetry filters applicable to the two columns.
    pub filters: Vec<OrderFilter>,
}

/// The `PULL-EXTEND` operator (Algorithm 4): extends each input row by the
/// intersection of the neighbourhoods of the data vertices at
/// `ext_positions`, or — in *verify* mode — checks that an already-bound
/// vertex lies in that intersection.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtendOp {
    /// The query vertex being matched (or verified).
    pub target: QueryVertex,
    /// Input-row positions whose neighbourhoods are intersected
    /// (the extend index `Ext` of the paper).
    pub ext_positions: Vec<usize>,
    /// When `Some(p)`, the operator verifies that `row[p]` is a member of
    /// the intersection instead of appending a new column (the "hint" of the
    /// pulling-based hash join rewrite, §5.2).
    pub verify_position: Option<usize>,
    /// Symmetry filters applied to the output row (positions refer to the
    /// output schema, i.e. including the appended column if any).
    pub filters: Vec<OrderFilter>,
}

/// The `PUSH-JOIN` operator: a buffered distributed hash join of two
/// completed segments.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinOp {
    /// Segment id of the left input.
    pub left: usize,
    /// Segment id of the right input.
    pub right: usize,
    /// Positions of the join-key columns in the left input schema.
    pub key_left: Vec<usize>,
    /// Positions of the join-key columns in the right input schema.
    pub key_right: Vec<usize>,
    /// Positions of the right-input columns appended to the output (the
    /// non-key right columns).
    pub right_payload: Vec<usize>,
    /// Symmetry filters applied to the output row.
    pub filters: Vec<OrderFilter>,
}

/// The source of a segment: either a scan of data edges or a hash join of
/// two earlier segments.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentSource {
    /// Scan of a single query edge.
    Scan(ScanOp),
    /// Buffered hash join of two previously-computed segments.
    Join(JoinOp),
}

/// A maximal `SCAN|JOIN → PULL-EXTEND*` chain of the dataflow.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Dense id of the segment; also its index in [`Dataflow::segments`].
    pub id: usize,
    /// The producing operator.
    pub source: SegmentSource,
    /// The chain of extends applied after the source.
    pub extends: Vec<ExtendOp>,
    /// Query vertices bound by each column of the segment's output rows.
    pub schema: Vec<QueryVertex>,
}

impl Segment {
    /// Segments this one depends on (empty for scan segments).
    pub fn dependencies(&self) -> Vec<usize> {
        match &self.source {
            SegmentSource::Scan(_) => Vec::new(),
            SegmentSource::Join(j) => vec![j.left, j.right],
        }
    }
}

/// A complete dataflow: segments in topological order, the last one feeding
/// the implicit `SINK`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataflow {
    /// The query this dataflow answers.
    pub query: QueryGraph,
    /// Segments in topological (execution) order.
    pub segments: Vec<Segment>,
}

impl Dataflow {
    /// The segment whose output feeds the sink.
    pub fn root(&self) -> &Segment {
        self.segments.last().expect("dataflow has segments")
    }

    /// Total number of `PUSH-JOIN` operators in the dataflow.
    pub fn num_joins(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s.source, SegmentSource::Join(_)))
            .count()
    }

    /// The query vertex on whose owner the rows of segment `id` start: a
    /// scan's root, or a join's key when that is one vertex (the shuffle
    /// places a one-vertex key on its owner); extends keep it. `None` for a
    /// join on a wider key, whose rows land wherever the key hashes. A
    /// pushing join's input that starts at the join's one-vertex key ships
    /// only the rows of scan chunks another machine stole.
    pub fn start(&self, id: usize) -> Option<QueryVertex> {
        let seg = &self.segments[id];
        match &seg.source {
            SegmentSource::Scan(scan) => Some(scan.src),
            SegmentSource::Join(j) => match j.key_left[..] {
                [c] => Some(seg.schema[c]),
                _ => None,
            },
        }
    }

    /// Validates internal consistency: schemas line up with operators, the
    /// root binds every query vertex, and dependencies precede dependents.
    pub fn validate(&self) -> Result<(), PlanError> {
        for seg in &self.segments {
            for dep in seg.dependencies() {
                if dep >= seg.id {
                    return Err(PlanError::NoPlanFound);
                }
            }
        }
        let root = self.root();
        if root.schema.len() != self.query.num_vertices() {
            return Err(PlanError::IncompletePlan(SubQuery::empty()));
        }
        Ok(())
    }

    /// A human-readable rendering of the dataflow (one operator per line).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for seg in &self.segments {
            match &seg.source {
                SegmentSource::Scan(s) => {
                    out.push_str(&format!(
                        "segment {}: SCAN(v{} - v{})\n",
                        seg.id, s.src, s.dst
                    ));
                }
                SegmentSource::Join(j) => {
                    let key: Vec<QueryVertex> = j.key_left.iter().map(|&c| seg.schema[c]).collect();
                    let input = |id: usize| match self.start(id) {
                        Some(v) if key == [v] => format!("segment {id} [co-located]"),
                        _ => format!("segment {id}"),
                    };
                    let key: Vec<String> = key.iter().map(|v| format!("v{v}")).collect();
                    out.push_str(&format!(
                        "segment {}: PUSH-JOIN({}, {}) on {}\n",
                        seg.id,
                        input(j.left),
                        input(j.right),
                        key.join(", ")
                    ));
                }
            }
            for e in &seg.extends {
                if let Some(p) = e.verify_position {
                    out.push_str(&format!(
                        "  PULL-EXTEND(verify v{} at column {} against {:?})\n",
                        e.target, p, e.ext_positions
                    ));
                } else {
                    out.push_str(&format!(
                        "  PULL-EXTEND(match v{} from ∩ of columns {:?})\n",
                        e.target, e.ext_positions
                    ));
                }
            }
        }
        out.push_str("SINK\n");
        out
    }
}

/// Translates an execution plan into a dataflow (Algorithm 2 + §5.2
/// rewrites).
pub fn translate(plan: &ExecutionPlan) -> Result<Dataflow, PlanError> {
    plan.validate()?;
    let mut ctx = Translator {
        query: &plan.query,
        segments: Vec::new(),
    };
    let root = ctx.translate_node(&plan.tree.root)?;
    debug_assert_eq!(root, ctx.segments.len() - 1);
    let df = Dataflow {
        query: plan.query.clone(),
        segments: ctx.segments,
    };
    df.validate()?;
    Ok(df)
}

struct Translator<'q> {
    query: &'q QueryGraph,
    segments: Vec<Segment>,
}

impl<'q> Translator<'q> {
    /// Translates a join node, returning the id of the segment holding its
    /// results.
    fn translate_node(&mut self, node: &JoinNode) -> Result<usize, PlanError> {
        match node {
            JoinNode::Unit { star, start } => self.translate_unit(star, *start),
            JoinNode::Join {
                left,
                right,
                physical,
                ..
            } => {
                match (physical.algorithm, physical.comm) {
                    (JoinAlgorithm::Wco, _) => {
                        // Complete star join: extend the left by the star's
                        // root via multiway intersection. (Pushing wco joins
                        // share the same dataflow shape; only the engine's
                        // communication strategy differs.)
                        let left_id = self.translate_node(left)?;
                        self.append_star_extends(left_id, right, true)
                    }
                    (JoinAlgorithm::Hash, CommMode::Pulling) => {
                        // §5.2: rewrite into verify + extend chain.
                        let left_id = self.translate_node(left)?;
                        self.append_star_extends(left_id, right, false)
                    }
                    (JoinAlgorithm::Hash, CommMode::Pushing) => {
                        let left_id = self.translate_node(left)?;
                        let right_id = self.translate_node(right)?;
                        self.append_push_join(left_id, right_id)
                    }
                }
            }
        }
    }

    /// Translates a star join unit into `SCAN` + `(|L| - 1)` extends
    /// (the §5.2 SCAN rewrite), scanned from `start`: from the centre, the
    /// scan binds a leaf and each extend another; from a leaf, the scan
    /// binds the centre and each extend another leaf.
    fn translate_unit(&mut self, sub: &SubQuery, start: QueryVertex) -> Result<usize, PlanError> {
        let (centre, leaves) = sub
            .as_star(self.query)
            .ok_or(PlanError::UnitNotAStar(*sub))?;
        let id = self.segments.len();
        let steps = if start == centre {
            leaves.iter().map(|&leaf| (leaf, vec![centre])).collect()
        } else {
            let others = leaves.iter().filter(|&&leaf| leaf != start);
            std::iter::once((centre, vec![start]))
                .chain(others.map(|&leaf| (leaf, vec![centre])))
                .collect()
        };
        let segment = self.scan_segment(id, start, steps);
        self.segments.push(segment);
        Ok(id)
    }

    /// The scan segment that binds `root`, then each step's vertex from the
    /// neighbourhoods of the vertices the step reads: the first step (which
    /// reads only `root`) is the scan's `dst`, every later one an extend.
    fn scan_segment(&self, id: usize, root: QueryVertex, steps: Vec<Step>) -> Segment {
        let dst = steps[0].0;
        debug_assert_eq!(steps[0].1, [root], "the scan's dst reads only its root");
        let mut schema = vec![root, dst];
        let filters = self.filters_for_new_vertex(&schema, dst, &[root]);
        let mut extends = Vec::new();
        for (target, reads) in steps.into_iter().skip(1) {
            let position = |v: &QueryVertex| schema.iter().position(|x| x == v).expect("bound");
            let ext_positions = reads.iter().map(position).collect();
            let mut new_schema = schema.clone();
            new_schema.push(target);
            let filters = self.filters_for_new_vertex(&new_schema, target, &schema);
            extends.push(ExtendOp {
                target,
                ext_positions,
                verify_position: None,
                filters,
            });
            schema = new_schema;
        }
        let scan = ScanOp {
            src: root,
            dst,
            filters,
        };
        Segment {
            id,
            source: SegmentSource::Scan(scan),
            extends,
            schema,
        }
    }

    /// Appends extend operators for a star right operand onto the segment
    /// holding the left operand's results.
    ///
    /// `complete` selects between the complete-star-join translation (match
    /// the star root by intersecting all leaves, which must all be bound)
    /// and the pulling-hash-join translation (verify the bound root against
    /// the bound leaves, then grow the unbound leaves).
    fn append_star_extends(
        &mut self,
        left_id: usize,
        right: &JoinNode,
        complete: bool,
    ) -> Result<usize, PlanError> {
        let right_sub = right.output();
        let (root, leaves) = right_sub
            .as_star(self.query)
            .ok_or(PlanError::UnitNotAStar(right_sub))?;
        let seg = &self.segments[left_id];
        let mut schema = seg.schema.clone();
        let mut new_extends: Vec<ExtendOp> = Vec::new();

        let position_of = |schema: &[QueryVertex], v: QueryVertex| -> Option<usize> {
            schema.iter().position(|&x| x == v)
        };

        if complete {
            // All leaves are bound in the left schema; the root is matched by
            // the intersection of their neighbourhoods (Equation 2). If the
            // root happens to be bound too (edge-verification join), use
            // verify mode.
            let ext_positions: Vec<usize> = leaves
                .iter()
                .map(|&l| position_of(&schema, l).ok_or(PlanError::BadJoinOutput(right_sub)))
                .collect::<Result<_, _>>()?;
            match position_of(&schema, root) {
                Some(p) => {
                    new_extends.push(ExtendOp {
                        target: root,
                        ext_positions,
                        verify_position: Some(p),
                        filters: Vec::new(),
                    });
                }
                None => {
                    let mut new_schema = schema.clone();
                    new_schema.push(root);
                    let filters = self.filters_for_new_vertex(&new_schema, root, &schema);
                    new_extends.push(ExtendOp {
                        target: root,
                        ext_positions,
                        verify_position: None,
                        filters,
                    });
                    schema = new_schema;
                }
            }
        } else {
            // Pulling-based hash join (§5.2): the star root is bound on the
            // left; V1 = bound leaves are verified, V2 = unbound leaves are
            // grown one extend at a time.
            let root_pos = position_of(&schema, root).ok_or(PlanError::BadJoinOutput(right_sub))?;
            let bound: Vec<QueryVertex> = leaves
                .iter()
                .copied()
                .filter(|&l| position_of(&schema, l).is_some())
                .collect();
            let unbound: Vec<QueryVertex> = leaves
                .iter()
                .copied()
                .filter(|&l| position_of(&schema, l).is_none())
                .collect();
            if !bound.is_empty() {
                let ext_positions: Vec<usize> = bound
                    .iter()
                    .map(|&l| position_of(&schema, l).expect("bound leaf"))
                    .collect();
                new_extends.push(ExtendOp {
                    target: root,
                    ext_positions,
                    verify_position: Some(root_pos),
                    filters: Vec::new(),
                });
            }
            for leaf in unbound {
                let mut new_schema = schema.clone();
                new_schema.push(leaf);
                let filters = self.filters_for_new_vertex(&new_schema, leaf, &schema);
                new_extends.push(ExtendOp {
                    target: leaf,
                    ext_positions: vec![root_pos],
                    verify_position: None,
                    filters,
                });
                schema = new_schema;
            }
        }

        // Extends are appended to the existing segment (no barrier needed).
        let seg = &mut self.segments[left_id];
        seg.extends.extend(new_extends);
        seg.schema = schema;
        Ok(left_id)
    }

    /// Creates a new segment joining two completed segments.
    fn append_push_join(&mut self, left_id: usize, right_id: usize) -> Result<usize, PlanError> {
        let left = &self.segments[left_id].schema;
        let right = &self.segments[right_id].schema;
        let key: Vec<QueryVertex> = left.iter().copied().filter(|v| right.contains(v)).collect();
        if key.is_empty() {
            return Err(PlanError::CartesianJoin(
                SubQuery::empty(),
                SubQuery::empty(),
            ));
        }
        self.bind_key_before_last(left_id, &key);
        self.bind_key_before_last(right_id, &key);
        let left_schema = self.segments[left_id].schema.clone();
        let right_schema = self.segments[right_id].schema.clone();
        let key_left: Vec<usize> = key
            .iter()
            .map(|v| {
                left_schema
                    .iter()
                    .position(|x| x == v)
                    .expect("key in left")
            })
            .collect();
        let key_right: Vec<usize> = key
            .iter()
            .map(|v| {
                right_schema
                    .iter()
                    .position(|x| x == v)
                    .expect("key in right")
            })
            .collect();
        let right_payload: Vec<usize> = right_schema
            .iter()
            .enumerate()
            .filter(|(_, v)| !key.contains(v))
            .map(|(i, _)| i)
            .collect();
        let mut schema = left_schema.clone();
        for &i in &right_payload {
            schema.push(right_schema[i]);
        }
        // Cross-side symmetry filters: constraints whose endpoints were not
        // both present on either side individually.
        let mut filters = Vec::new();
        for &(a, b) in self.query.order().constraints() {
            let both_left = left_schema.contains(&a) && left_schema.contains(&b);
            let both_right = right_schema.contains(&a) && right_schema.contains(&b);
            let both_now = schema.contains(&a) && schema.contains(&b);
            if both_now && !both_left && !both_right {
                filters.push(OrderFilter {
                    smaller: schema.iter().position(|&x| x == a).expect("a in schema"),
                    larger: schema.iter().position(|&x| x == b).expect("b in schema"),
                });
            }
        }
        let join = JoinOp {
            left: left_id,
            right: right_id,
            key_left,
            key_right,
            right_payload,
            filters,
        };
        Ok(self.push_segment(SegmentSource::Join(join), Vec::new(), schema))
    }

    /// Re-binds a scan-sourced join input whose newest column is a key
    /// vertex so that a non-key vertex is bound last: the latest non-key
    /// step no other step reads moves to the end, and positions and order
    /// filters are derived again ([`Translator::scan_segment`]). A segment
    /// with a verify extend, or without such a step, is left as it is.
    fn bind_key_before_last(&mut self, id: usize, key: &[QueryVertex]) {
        let seg = &self.segments[id];
        let SegmentSource::Scan(scan) = &seg.source else {
            return;
        };
        let verifies = seg.extends.iter().any(|e| e.verify_position.is_some());
        if verifies || seg.schema.last().is_none_or(|v| !key.contains(v)) {
            return;
        }
        let root = scan.src;
        let reads = |e: &ExtendOp| e.ext_positions.iter().map(|&p| seg.schema[p]).collect();
        let mut steps: Vec<Step> = std::iter::once((scan.dst, vec![root]))
            .chain(seg.extends.iter().map(|e| (e.target, reads(e))))
            .collect();
        let movable = |&i: &usize| {
            let v = steps[i].0;
            (i > 0 || steps.len() > 1)
                && !key.contains(&v)
                && steps.iter().all(|(_, reads)| !reads.contains(&v))
        };
        let Some(i) = (0..steps.len()).rev().find(movable) else {
            return;
        };
        // When the step nothing reads is the scan's `dst`, the next step can
        // read only the root, and becomes `dst`.
        let last = steps.remove(i);
        steps.push(last);
        self.segments[id] = self.scan_segment(id, root, steps);
    }

    fn push_segment(
        &mut self,
        source: SegmentSource,
        extends: Vec<ExtendOp>,
        schema: Vec<QueryVertex>,
    ) -> usize {
        let id = self.segments.len();
        self.segments.push(Segment {
            id,
            source,
            extends,
            schema,
        });
        id
    }

    /// Symmetry filters that become checkable once `new_vertex` joins the
    /// schema: every constraint between `new_vertex` and an already-bound
    /// vertex.
    fn filters_for_new_vertex(
        &self,
        schema_after: &[QueryVertex],
        new_vertex: QueryVertex,
        bound_before: &[QueryVertex],
    ) -> Vec<OrderFilter> {
        let mut filters = Vec::new();
        for &(a, b) in self.query.order().constraints() {
            let involves_new = a == new_vertex || b == new_vertex;
            let other = if a == new_vertex { b } else { a };
            if involves_new && bound_before.contains(&other) {
                filters.push(OrderFilter {
                    smaller: schema_after.iter().position(|&x| x == a).expect("bound"),
                    larger: schema_after.iter().position(|&x| x == b).expect("bound"),
                });
            }
        }
        filters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{native_plan, BaselineSystem};
    use crate::cost::{CostModel, HybridEstimator};
    use crate::optimizer::Optimizer;
    use huge_graph::gen;
    use huge_query::Pattern;

    fn plan_for(pattern: Pattern) -> ExecutionPlan {
        let g = gen::barabasi_albert(1000, 5, 7);
        let est = HybridEstimator::from_graph(&g);
        Optimizer::new(
            &est,
            CostModel::new(4, g.num_edges()).with_avg_degree(g.avg_degree()),
        )
        .optimize(&pattern.query_graph())
        .unwrap()
    }

    #[test]
    fn clique_dataflow_is_a_single_extend_chain() {
        // Figure 1c: SCAN(edge) -> PULL-EXTEND* -> SINK, a single segment
        // with no PUSH-JOIN (every join of a clique plan is a complete star
        // join). Depending on estimates the optimiser may split an extension
        // into a match extend plus a verify extend, so we assert the shape,
        // not the exact operator count.
        let df = translate(&plan_for(Pattern::FourClique)).unwrap();
        assert_eq!(df.segments.len(), 1);
        let extends = df.segments[0].extends.len();
        assert!((2..=4).contains(&extends));
        assert_eq!(df.num_joins(), 0);
        assert_eq!(df.root().schema.len(), 4);
        df.validate().unwrap();
    }

    #[test]
    fn all_paper_queries_translate() {
        for pattern in Pattern::PAPER_QUERIES {
            let df = translate(&plan_for(pattern)).unwrap();
            df.validate().unwrap();
            // The root schema must bind every query vertex exactly once.
            let mut schema = df.root().schema.clone();
            schema.sort_unstable();
            schema.dedup();
            assert_eq!(schema.len(), pattern.query_graph().num_vertices());
        }
    }

    #[test]
    fn symmetry_filters_are_installed() {
        let df = translate(&plan_for(Pattern::FourClique)).unwrap();
        let total_filters: usize = df
            .segments
            .iter()
            .flat_map(|s| {
                s.extends
                    .iter()
                    .map(|e| e.filters.len())
                    .chain(std::iter::once(match &s.source {
                        SegmentSource::Scan(sc) => sc.filters.len(),
                        SegmentSource::Join(j) => j.filters.len(),
                    }))
            })
            .sum();
        // The clique's symmetry order has 3 constraints; all must appear.
        assert!(total_filters >= 3, "filters: {total_filters}");
    }

    #[test]
    fn pushing_join_creates_segments() {
        // Force a pushing plan so a PUSH-JOIN segment appears.
        let g = gen::barabasi_albert(1000, 5, 7);
        let est = HybridEstimator::from_graph(&g);
        let plan = Optimizer::new(
            &est,
            CostModel::new(4, g.num_edges()).with_avg_degree(g.avg_degree()),
        )
        .with_options(crate::optimizer::OptimizerOptions {
            disable_pulling: true,
            ..Default::default()
        })
        .optimize(&Pattern::Path(6).query_graph())
        .unwrap();
        let df = translate(&plan).unwrap();
        assert!(df.num_joins() >= 1);
        // Dependencies must precede dependents.
        df.validate().unwrap();
        assert!(df.explain().contains("PUSH-JOIN"));
    }

    /// The two children of every pushing hash join, in the order the
    /// translation creates the join segments.
    fn push_join_children<'a>(node: &'a JoinNode, out: &mut Vec<[&'a JoinNode; 2]>) {
        if let JoinNode::Join {
            left,
            right,
            physical,
            ..
        } = node
        {
            push_join_children(left, out);
            push_join_children(right, out);
            if (physical.algorithm, physical.comm) == (JoinAlgorithm::Hash, CommMode::Pushing) {
                out.push([left, right]);
            }
        }
    }

    #[test]
    fn a_push_join_input_binds_a_non_key_vertex_last() {
        let g = gen::barabasi_albert(1000, 5, 7);
        let est = HybridEstimator::from_graph(&g);
        let model = CostModel::new(4, g.num_edges()).with_avg_degree(g.avg_degree());
        let options = crate::optimizer::OptimizerOptions {
            disable_pulling: true,
            ..Default::default()
        };
        // The optimiser starts an edge unit at its key where it can; the
        // native plans scan every star from its centre.
        let (mut moved, mut kept) = (0, 0);
        let plans = [Pattern::Path(5), Pattern::Path(6)]
            .into_iter()
            .flat_map(|pattern| {
                let q = pattern.query_graph();
                let optimised = Optimizer::new(&est, model.clone())
                    .with_options(options)
                    .optimize(&q)
                    .unwrap();
                let native = [BaselineSystem::StarJoin, BaselineSystem::Seed]
                    .map(|system| native_plan(system, &q).unwrap());
                std::iter::once(optimised).chain(native)
            });
        for plan in plans {
            let df = translate(&plan).unwrap();
            let mut children = Vec::new();
            push_join_children(&plan.tree.root, &mut children);
            let joins = df.segments.iter().filter_map(|s| match &s.source {
                SegmentSource::Join(j) => Some(j),
                SegmentSource::Scan(_) => None,
            });
            let joins: Vec<&JoinOp> = joins.collect();
            assert_eq!(joins.len(), children.len());
            for (join, children) in joins.into_iter().zip(children) {
                let [left, right] = [join.left, join.right].map(|id| &df.segments[id]);
                let key: Vec<QueryVertex> = left
                    .schema
                    .iter()
                    .copied()
                    .filter(|v| right.schema.contains(v))
                    .collect();
                for (seg, child) in [left, right].into_iter().zip(children) {
                    // The same vertices as the plan's operand, in any order.
                    let mut bound = seg.schema.clone();
                    bound.sort_unstable();
                    assert_eq!(bound, child.output().vertices().collect::<Vec<_>>());
                    // What the translation makes of the operand on its own.
                    let JoinNode::Unit { star, start } = child else {
                        assert!(matches!(seg.source, SegmentSource::Join(_)));
                        continue;
                    };
                    let mut alone = Translator {
                        query: &plan.query,
                        segments: Vec::new(),
                    };
                    let id = alone.translate_unit(star, *start).unwrap();
                    let before = &alone.segments[id];
                    let same = (&seg.source, &seg.extends, &seg.schema)
                        == (&before.source, &before.extends, &before.schema);
                    if key.contains(seg.schema.last().unwrap()) {
                        // Only a segment no step of which can move keeps its
                        // key newest: here a bare scan of a key and its root.
                        assert!(same && seg.extends.is_empty(), "{}", df.explain());
                        kept += 1;
                    } else if !same {
                        moved += 1;
                    }
                }
            }
        }
        assert!(moved >= 2 && kept >= 1, "moved {moved}, kept {kept}");
    }

    #[test]
    fn explain_mentions_every_operator_kind() {
        let df = translate(&plan_for(Pattern::FourClique)).unwrap();
        let text = df.explain();
        assert!(text.contains("SCAN"));
        assert!(text.contains("PULL-EXTEND"));
        assert!(text.contains("SINK"));
    }
}
