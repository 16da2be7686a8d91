//! Cross-crate integration tests: the full pipeline (generate → partition →
//! plan → translate → execute) against the sequential reference enumerator,
//! for every paper query, several datasets and both the optimiser's plans
//! and the plugged baseline plans.

use huge_baselines::Baseline;
use huge_core::{ClusterConfig, HugeCluster, SinkMode};
use huge_graph::{gen, Dataset, DatasetKind, Graph};
use huge_plan::baselines::{plug_into_huge, BaselineSystem};
use huge_plan::translate::{translate, Segment};
use huge_query::{naive, Pattern};

fn reference(graph: &Graph, pattern: Pattern) -> u64 {
    naive::enumerate(graph, &pattern.query_graph())
}

#[test]
fn huge_matches_reference_on_every_paper_query() {
    // A graph small enough that even the 6-vertex queries finish quickly.
    let graph = gen::erdos_renyi(150, 650, 21);
    let cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(3).workers(2)).unwrap();
    for (i, pattern) in Pattern::PAPER_QUERIES.iter().enumerate() {
        let expected = reference(&graph, *pattern);
        let report = cluster
            .run(&pattern.query_graph(), SinkMode::Count)
            .unwrap();
        assert_eq!(report.matches, expected, "q{} mismatch", i + 1);
    }
}

#[test]
fn huge_matches_reference_on_synthetic_datasets() {
    for kind in [DatasetKind::Go, DatasetKind::Eu, DatasetKind::Uk] {
        let graph = Dataset::new(kind).scaled(0.01).generate();
        let expected = reference(&graph, Pattern::Triangle);
        let cluster = HugeCluster::build(graph, ClusterConfig::new(4).workers(2)).unwrap();
        let report = cluster
            .run(&Pattern::Triangle.query_graph(), SinkMode::Count)
            .unwrap();
        assert_eq!(report.matches, expected, "{}", kind.name());
    }
}

#[test]
fn plugged_baseline_plans_agree_with_the_optimiser() {
    // Every plugged plan under both sinks: counted, and collected (none
    // kept), so a verify-mode extend ahead of another one passes its rows
    // on in a counting nest and in a gathering one.
    let graph = gen::barabasi_albert(250, 6, 13);
    let cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(2)).unwrap();
    let mut verify_mid_chain = 0;
    for pattern in [Pattern::Square, Pattern::ChordalSquare, Pattern::FourClique] {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        for system in [
            BaselineSystem::StarJoin,
            BaselineSystem::Seed,
            BaselineSystem::BigJoin,
            BaselineSystem::Benu,
            BaselineSystem::Rads,
        ] {
            let plan = plug_into_huge(system, &query).unwrap();
            let dataflow = translate(&plan).unwrap();
            let mid_chain = |segment: &Segment| {
                let above = segment.extends.iter().rev().skip(1);
                above.filter(|op| op.verify_position.is_some()).count()
            };
            verify_mid_chain += dataflow.segments.iter().map(mid_chain).sum::<usize>();
            for sink in [SinkMode::Count, SinkMode::Collect(0)] {
                let report = cluster.run_with_plan(&plan, sink).unwrap();
                assert_eq!(
                    report.matches, expected,
                    "{system:?} plan on {pattern:?} under {sink:?} disagrees"
                );
            }
        }
    }
    assert!(verify_mid_chain > 0, "no plan verifies before it extends");
}

#[test]
fn baseline_engines_agree_with_huge() {
    let graph = gen::erdos_renyi(120, 550, 5);
    let config = ClusterConfig::new(2).workers(1);
    let cluster = HugeCluster::build(graph.clone(), config.clone()).unwrap();
    for pattern in [Pattern::Triangle, Pattern::Square] {
        let query = pattern.query_graph();
        let huge = cluster.run(&query, SinkMode::Count).unwrap().matches;
        for baseline in Baseline::ALL {
            let report = baseline.run(&graph, &query, &config).unwrap();
            assert_eq!(report.matches, huge, "{}", baseline.name());
        }
    }
}

#[test]
fn results_are_independent_of_cluster_shape() {
    let graph = gen::barabasi_albert(400, 5, 31);
    let query = Pattern::ChordalSquare.query_graph();
    let expected = naive::enumerate(&graph, &query);
    for machines in [1, 2, 5] {
        for workers in [1, 3] {
            let cluster =
                HugeCluster::build(graph.clone(), ClusterConfig::new(machines).workers(workers))
                    .unwrap();
            let report = cluster.run(&query, SinkMode::Count).unwrap();
            assert_eq!(
                report.matches, expected,
                "machines={machines} workers={workers}"
            );
        }
    }
}

#[test]
fn results_are_independent_of_batch_and_queue_sizes() {
    let graph = gen::erdos_renyi(200, 900, 77);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    for batch in [64, 1024, 1 << 20] {
        for queue in [128, 100_000] {
            let cluster = HugeCluster::build(
                graph.clone(),
                ClusterConfig::new(3)
                    .workers(2)
                    .batch_size(batch)
                    .output_queue_rows(queue),
            )
            .unwrap();
            let report = cluster.run(&query, SinkMode::Count).unwrap();
            assert_eq!(report.matches, expected, "batch={batch} queue={queue}");
        }
    }
}

#[test]
fn collected_samples_are_genuine_isomorphic_matches() {
    let graph = gen::caveman(8, 7, 3);
    let query = Pattern::FourClique.query_graph();
    let cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(2)).unwrap();
    let report = cluster.run(&query, SinkMode::Collect(25)).unwrap();
    assert!(!report.sample_matches.is_empty());
    // Samples come back in the input's ids; the engine's order is on ranks.
    let mut rank = vec![0; graph.num_vertices()];
    graph
        .vertices()
        .for_each(|v| rank[graph.input_id(v) as usize] = v);
    for m in &report.sample_matches {
        let m: Vec<u32> = m.iter().map(|&v| rank[v as usize]).collect();
        // All query edges must map to data edges and the mapping must be
        // injective and respect the symmetry-breaking order.
        for &(a, b) in query.edges() {
            assert!(graph.has_edge(m[a as usize], m[b as usize]));
        }
        let mut sorted = m.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), query.num_vertices());
        assert!(query.order().check_full(&m));
    }
}
