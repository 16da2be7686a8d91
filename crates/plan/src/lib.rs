//! Execution planning for the HUGE subgraph-enumeration system (§3 of the
//! paper).
//!
//! The paper separates an execution plan into a *logical* part — the join
//! unit and join order of a uniform join-based framework into which all
//! prior systems fit — and a *physical* part — the join algorithm (hash vs.
//! worst-case-optimal) and the communication mode (pushing vs. pulling)
//! chosen per two-way join. This crate implements:
//!
//! * [`subquery`] — sub-queries as (vertex set, edge set) bitmask pairs over
//!   a parent query graph, with star/connectivity tests.
//! * [`logical`] — binary join trees ([`JoinTree`]) expressing a logical
//!   plan, and the flattened join order of the paper's notation.
//! * [`physical`] — join algorithm and communication mode, plus Equation 3
//!   which configures them for a given join.
//! * [`cost`] — cardinality estimation and the cost model of Algorithm 1.
//! * [`optimizer`] — the dynamic-programming optimiser (Algorithm 1).
//! * [`translate`](mod@translate) — translation of an execution plan into a
//!   dataflow of `SCAN` / `PULL-EXTEND` / `PUSH-JOIN` / `SINK` operators
//!   (Algorithm 2),
//!   including the §5.2 rewrites of star scans and pulling-based hash joins
//!   into chains of `PULL-EXTEND`s for bounded memory.
//! * [`baselines`] — the logical plans of StarJoin, SEED, BiGJoin, BENU and
//!   RADS expressed in the framework (Table 2), so they can be "plugged
//!   into HUGE" (Remark 3.2), plus computation-only hybrid plans in the
//!   style of EmptyHeaded / GraphFlow.

pub mod baselines;
pub mod cost;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod subquery;
pub mod translate;

pub use cost::{CardinalityEstimator, CostModel, HybridEstimator};
pub use logical::{ExecutionPlan, JoinNode, JoinTree};
pub use optimizer::{Optimizer, OptimizerOptions};
pub use physical::{CommMode, JoinAlgorithm, PhysicalSetting};
pub use subquery::SubQuery;
pub use translate::{
    translate, Dataflow, ExtendOp, JoinOp, OrderFilter, ScanOp, Segment, SegmentSource,
};
