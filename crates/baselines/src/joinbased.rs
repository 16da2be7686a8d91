//! BiGJoin \[5\]: left-deep worst-case-optimal extensions executed with
//! pushing communication and full materialisation between rounds.
//!
//! BiGJoin follows a BFS-style execution that materialises every
//! intermediate result and routes every partial result to the owners of the
//! vertices whose neighbourhoods it intersects. Its *logical* plan comes from
//! [`huge_plan::baselines::native_plan`]; this module executes that plan
//! with BiGJoin's physical behaviour and accounts the traffic and memory it
//! generates. (StarJoin and SEED, the other pushing join-based systems, run
//! on HUGE itself: see [`Baseline::run`](crate::Baseline::run).)

use huge_core::report::RunReport;
use huge_core::{ClusterConfig, Result};
use huge_graph::Graph;
use huge_query::QueryGraph;

use crate::exec::{run_left_deep, wco_extend_pushing};
use crate::Baseline;

/// Runs BiGJoin's native plan: a star scan of the first edge, then one
/// pushing wco extension per remaining query vertex.
pub(crate) fn run(graph: &Graph, query: &QueryGraph, config: &ClusterConfig) -> Result<RunReport> {
    run_left_deep(
        Baseline::BigJoin,
        graph,
        query,
        config,
        |ctx, table, mut target, mut backward| {
            // The operand is a star (v; backward neighbours) whose leaves
            // are already bound. A single-edge star is rooted at its
            // lower-id endpoint by convention; re-orient so the new vertex
            // is extended from the already-bound one.
            if backward.len() == 1
                && !table.schema.contains(&backward[0])
                && table.schema.contains(&target)
            {
                std::mem::swap(&mut target, &mut backward[0]);
            }
            wco_extend_pushing(ctx, table, target, &backward)
        },
    )
}

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
        let report = Baseline::BigJoin
            .run(&g, &q, &ClusterConfig::new(2))
            .unwrap();
        assert_eq!(report.matches, expected);
        assert!(report.comm_bytes > 0);
    }

    #[test]
    fn seed_materialises_more_than_it_pushes_nothing_locally() {
        let g = gen::erdos_renyi(150, 700, 5);
        let q = Pattern::Square.query_graph();
        let expected = naive::enumerate(&g, &q);
        let config = ClusterConfig::new(4);
        let seed = Baseline::Seed.run(&g, &q, &config).unwrap();
        let starjoin = Baseline::StarJoin.run(&g, &q, &config).unwrap();
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
        let config = ClusterConfig::new(3);
        let seed = Baseline::Seed.run(&g, &q, &config).unwrap();
        let bigjoin = Baseline::BigJoin.run(&g, &q, &config).unwrap();
        assert_eq!(seed.matches, bigjoin.matches);
        assert!(
            bigjoin.peak_memory_bytes <= seed.peak_memory_bytes,
            "bigjoin {} vs seed {}",
            bigjoin.peak_memory_bytes,
            seed.peak_memory_bytes
        );
    }
}
