//! Tests of what the engines share — the operators called directly, the
//! joiner, the partitioners: the HUGE engine and the baseline engines must
//! produce identical counts and report non-zero, comparable communication
//! statistics, because both charge traffic through the same `huge-comm` code
//! paths.

use std::sync::Arc;

use huge_baselines::exec::{scan_star, wco_extend_pushing, BaselineCtx};
use huge_baselines::Baseline;
use huge_core::operators::{ExtendSpec, ScanCursor, ScanPool};
use huge_core::pool::WorkerPool;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, OpContext, SinkMode};
use huge_graph::{gen, Graph, Partitioner};
use huge_plan::physical::CommMode;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use huge_query::{naive, Pattern};

/// The same triangle query through the HUGE pipeline and every baseline
/// pipeline: identical match counts, and non-zero communication charged to
/// the same `ClusterStats` counters for each engine.
#[test]
fn triangle_counts_and_stats_agree_across_engines() {
    let graph = gen::erdos_renyi(300, 2400, 11);
    let query = Pattern::Triangle.query_graph();
    let expected = naive::enumerate(&graph, &query);
    assert!(expected > 0, "test graph must contain triangles");
    let config = ClusterConfig::new(3).workers(1);

    let cluster = HugeCluster::build(graph.clone(), config.clone()).unwrap();
    let huge = cluster.run(&query, SinkMode::Count).unwrap();
    assert_eq!(huge.matches, expected, "HUGE");
    assert!(
        huge.comm.total_bytes() > 0,
        "HUGE must report communication on a 3-machine cluster"
    );

    for baseline in Baseline::ALL {
        let report = baseline.run(&graph, &query, &config).unwrap();
        assert_eq!(report.matches, expected, "{}", baseline.name());
        assert!(
            report.comm.total_bytes() > 0,
            "{} must report communication on a 3-machine cluster",
            baseline.name()
        );
        // Same counters, same units: totals must be within two orders of
        // magnitude of the HUGE engine's (they measure the same cluster).
        let ratio = report.comm.total_bytes() as f64 / huge.comm.total_bytes() as f64;
        assert!(
            (0.01..100.0).contains(&ratio),
            "{} traffic not comparable: {} vs HUGE {}",
            baseline.name(),
            report.comm.total_bytes(),
            huge.comm.total_bytes()
        );
    }
}

/// Driving the shared operators directly (a scan feeding a pull-extend per
/// machine) counts exactly the triangles the sequential reference finds.
#[test]
fn exec_layer_pipeline_matches_reference() {
    let graph = gen::barabasi_albert(150, 4, 3);
    let expected = naive::enumerate(&graph, &Pattern::Triangle.query_graph());
    let k = 2;
    let parts = Partitioner::new(k).unwrap().partition(graph);
    let stats = huge_comm::ClusterStats::new(k);
    let rpc = huge_comm::RpcFabric::new(Arc::new(parts.clone()), stats.clone());
    let pool = WorkerPool::new(1, LoadBalance::WorkStealing);

    let mut total = 0u64;
    for (m, partition) in parts.iter().enumerate() {
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let ctx = OpContext {
            machine: m,
            partition,
            rpc: &rpc,
            cache: &cache,
            use_cache: true,
            pool: &pool,
            batch_size: 256,
        };
        let mut scan = ScanCursor::new(
            ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            },
            ScanPool::new(partition.local_vertices(), 16),
        );
        let extend = ExtendSpec::compile(
            &ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
                comm: CommMode::Pulling,
            },
            2,
        );
        while let Some(batch) = scan.next_runs(&ctx) {
            total += extend.run_cols(batch, &ctx).unwrap().batch.len() as u64;
        }
    }
    assert_eq!(total, expected);
    assert!(
        stats.total().bytes_pulled > 0,
        "cross-partition extends must pull adjacency lists"
    );
}

/// The baselines' table operators ride the same substrate: a star scan plus
/// a wco extension counts triangles and charges pushed bytes through the
/// shared router.
#[test]
fn baseline_table_ops_count_through_shared_substrate() {
    let graph = gen::erdos_renyi(200, 1600, 5);
    let query = Pattern::Triangle.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let parts = Arc::new(Partitioner::new(3).unwrap().partition(graph));
    let mut ctx = BaselineCtx::new(parts, &query);
    let edges = scan_star(&mut ctx, 0, &[1]).unwrap();
    let triangles = wco_extend_pushing(&mut ctx, edges, 2, &[0, 1]).unwrap();
    assert_eq!(triangles.total_rows(), expected);
    assert!(
        ctx.stats.total().bytes_pushed > 0,
        "routing partial results between machines must charge pushes"
    );
}

/// Empty and edge-less graphs run through every engine without panicking.
#[test]
fn engines_handle_empty_graphs() {
    let query = Pattern::Triangle.query_graph();
    let config = ClusterConfig::new(2).workers(1);
    for graph in [
        Graph::from_edges(Vec::<(u32, u32)>::new()),
        Graph::from_edges(vec![(0u32, 1u32)]),
    ] {
        let cluster = HugeCluster::build(graph.clone(), config.clone()).unwrap();
        let report = cluster.run(&query, SinkMode::Count).unwrap();
        assert_eq!(report.matches, 0);
        for baseline in Baseline::ALL {
            let report = baseline.run(&graph, &query, &config).unwrap();
            assert_eq!(report.matches, 0, "{}", baseline.name());
        }
    }
}
