//! The pushing, join-based baselines: StarJoin, SEED and BiGJoin.
//!
//! All three follow a BFS-style execution that materialises every
//! intermediate result and pushes data across the cluster: StarJoin and SEED
//! shuffle both operands of every hash join by the join key, BiGJoin routes
//! every partial result to the owners of the vertices whose neighbourhoods
//! it intersects. Their *logical* plans come from
//! [`huge_plan::baselines::native_plan`]; this module merely executes those
//! plans with the corresponding physical behaviour and accounts the traffic
//! and memory they generate.

use std::time::Instant;

use huge_core::report::RunReport;
use huge_core::{ClusterConfig, EngineError, Result};
use huge_graph::{Graph, Partitioner};
use huge_plan::baselines::{native_plan, BaselineSystem};
use huge_plan::logical::JoinNode;
use huge_plan::physical::JoinAlgorithm;
use huge_query::QueryGraph;

use crate::exec::{hash_join_pushing, scan_star, wco_extend_pushing, BaselineCtx, DistTable};

/// Runs a join-based baseline's native plan and produces a report.
fn run_join_based(
    system: BaselineSystem,
    name: &str,
    config: &ClusterConfig,
    graph: &Graph,
    query: &QueryGraph,
) -> Result<RunReport> {
    let plan = native_plan(system, query)?;
    let partitions =
        std::sync::Arc::new(Partitioner::new(config.machines)?.partition(graph.clone()));
    let mut ctx = BaselineCtx::new(partitions, query);
    let start = Instant::now();
    let result = eval_node(&mut ctx, query, &plan.tree.root)?;
    let matches = result.total_rows();
    // Machines execute concurrently on the context's machine pool, so the
    // measured wall clock includes the baselines' real synchronisation cost
    // (stragglers, shuffle backpressure, end-of-shuffle rendezvous).
    let compute_time = start.elapsed();
    let comm = ctx.stats.total();
    Ok(RunReport {
        query: format!("{name}:{}", query.name()),
        matches,
        compute_time,
        comm_time: config.network().time_for_snapshot(&comm),
        comm_bytes: comm.total_bytes(),
        comm,
        peak_memory_bytes: ctx.report_peak_memory(),
        ..Default::default()
    })
}

/// Recursively evaluates a join tree with the baseline's physical operators.
fn eval_node(ctx: &mut BaselineCtx, query: &QueryGraph, node: &JoinNode) -> Result<DistTable> {
    match node {
        JoinNode::Unit(sub) => {
            let (root, leaves) = sub
                .as_star(query)
                .ok_or(EngineError::Config("baseline unit is not a star".into()))?;
            scan_star(ctx, root, &leaves)
        }
        JoinNode::Join {
            left,
            right,
            physical,
            ..
        } => {
            let left_table = eval_node(ctx, query, left)?;
            match physical.algorithm {
                JoinAlgorithm::Wco => {
                    // The right operand is a star (v; backward neighbours)
                    // whose leaves are already bound on the left.
                    let (mut target, mut backward) = right
                        .output()
                        .as_star(query)
                        .ok_or(EngineError::Config("wco operand is not a star".into()))?;
                    // A single-edge star is rooted at its lower-id endpoint
                    // by convention; re-orient so the new vertex is extended
                    // from the already-bound one.
                    if backward.len() == 1
                        && !left_table.schema.contains(&backward[0])
                        && left_table.schema.contains(&target)
                    {
                        std::mem::swap(&mut target, &mut backward[0]);
                    }
                    wco_extend_pushing(ctx, left_table, target, &backward)
                }
                JoinAlgorithm::Hash => {
                    let right_table = eval_node(ctx, query, right)?;
                    hash_join_pushing(ctx, left_table, right_table)
                }
            }
        }
    }
}

macro_rules! join_based_engine {
    ($(#[$doc:meta])* $name:ident, $system:expr, $label:expr) => {
        $(#[$doc])*
        pub struct $name {
            config: ClusterConfig,
        }

        impl $name {
            /// Creates the engine with the given cluster configuration.
            pub fn new(config: ClusterConfig) -> Self {
                Self { config }
            }

            /// Enumerates `query` on `graph` and reports the usual metrics.
            pub fn run(&self, graph: &Graph, query: &QueryGraph) -> Result<RunReport> {
                run_join_based($system, $label, &self.config, graph, query)
            }
        }
    };
}

join_based_engine!(
    /// StarJoin [80]: left-deep star decomposition executed with pushing
    /// hash joins.
    StarJoin,
    BaselineSystem::StarJoin,
    "StarJoin"
);

join_based_engine!(
    /// SEED [46]: bushy star decomposition executed with pushing hash joins
    /// (without the clique/triangle index, as in the paper's index-free
    /// configuration).
    Seed,
    BaselineSystem::Seed,
    "SEED"
);

join_based_engine!(
    /// BiGJoin [5]: left-deep worst-case-optimal extensions executed with
    /// pushing communication and full materialisation between rounds.
    BigJoin,
    BaselineSystem::BigJoin,
    "BiGJoin"
);

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};

    #[test]
    fn bigjoin_counts_match_reference() {
        let g = gen::barabasi_albert(200, 5, 1);
        let q = Pattern::ChordalSquare.query_graph();
        let expected = naive::enumerate(&g, &q);
        let report = BigJoin::new(ClusterConfig::new(2)).run(&g, &q).unwrap();
        assert_eq!(report.matches, expected);
        assert!(report.comm_bytes > 0);
    }

    #[test]
    fn seed_materialises_more_than_it_pushes_nothing_locally() {
        let g = gen::erdos_renyi(150, 700, 5);
        let q = Pattern::Square.query_graph();
        let expected = naive::enumerate(&g, &q);
        let seed = Seed::new(ClusterConfig::new(4)).run(&g, &q).unwrap();
        let starjoin = StarJoin::new(ClusterConfig::new(4)).run(&g, &q).unwrap();
        assert_eq!(seed.matches, expected);
        assert_eq!(starjoin.matches, expected);
        assert!(seed.peak_memory_bytes > 0);
    }

    #[test]
    fn bigjoin_pushes_fewer_bytes_than_hash_join_baselines_on_cliques() {
        // For a clique query the wco extensions avoid materialising the huge
        // star relations that SEED must shuffle.
        let g = gen::barabasi_albert(300, 8, 7);
        let q = Pattern::FourClique.query_graph();
        let seed = Seed::new(ClusterConfig::new(3)).run(&g, &q).unwrap();
        let bigjoin = BigJoin::new(ClusterConfig::new(3)).run(&g, &q).unwrap();
        assert_eq!(seed.matches, bigjoin.matches);
        assert!(
            bigjoin.peak_memory_bytes <= seed.peak_memory_bytes,
            "bigjoin {} vs seed {}",
            bigjoin.peak_memory_bytes,
            seed.peak_memory_bytes
        );
    }
}
