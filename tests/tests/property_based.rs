//! Property-based integration tests: on arbitrary small graphs the whole
//! distributed pipeline must agree with the sequential reference, for
//! arbitrary cluster shapes and engine knobs.

use std::collections::HashSet;

use huge_cache::CacheKind;
use huge_comm::stats::ClusterStats;
use huge_comm::RpcFabric;
use huge_comm::{ColBatch, RowBatch};
use huge_core::exec::{partition_cols_by_key, partition_cols_by_owner};
use huge_core::join::key_hash;
use huge_core::{ClusterConfig, HugeCluster, SinkMode};
use huge_graph::{gen, Graph, GraphBuilder, Partitioner};
use huge_plan::baselines::{plug_into_huge, BaselineSystem};
use huge_query::{naive, symmetry, Pattern};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u32..60, 0u32..60), 10..250)
        .prop_map(Graph::from_edges)
        .prop_filter("need some edges", |g| g.num_edges() >= 5)
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Triangle),
        Just(Pattern::Square),
        Just(Pattern::ChordalSquare),
        Just(Pattern::FourClique),
        Just(Pattern::Clique(5)),
        Just(Pattern::House),
        Just(Pattern::Prism),
        Just(Pattern::Star(3)),
        Just(Pattern::Path(4)),
    ]
}

proptest! {
    // Few cases: every case runs a whole-cluster enumeration. CI further
    // caps this suite through the PROPTEST_CASES environment variable.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The HUGE engine agrees with the sequential reference on arbitrary
    /// graphs, queries and cluster shapes.
    #[test]
    fn engine_agrees_with_reference(
        graph in arb_graph(),
        pattern in arb_pattern(),
        machines in 1usize..5,
        workers in 1usize..3,
        batch in prop_oneof![Just(32usize), Just(512usize), Just(1usize << 16)],
    ) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let cluster = HugeCluster::build(
            graph,
            ClusterConfig::new(machines).workers(workers).batch_size(batch),
        ).unwrap();
        let report = cluster.run(&query, SinkMode::Count).unwrap();
        prop_assert_eq!(report.matches, expected);
    }

    /// Cut pulls agree with the reference: on 2 and 3 machines every remote
    /// list is pulled as the id interval its rows read (a point per row for
    /// a verify-mode extend, as in the cliques), and a cache too small to
    /// keep them, or of another design, widens and evicts those parts.
    #[test]
    fn engine_agrees_when_pulls_are_cut_to_intervals(
        graph in arb_graph(),
        pattern in prop_oneof![
            Just(Pattern::Triangle),
            Just(Pattern::Square),
            Just(Pattern::FourClique),
            Just(Pattern::Clique(5)),
            Just(Pattern::House),
        ],
        machines in 2usize..4,
        workers in 1usize..3,
        cache in prop_oneof![Just(0.01), Just(0.3), Just(4.0)],
        kind in prop_oneof![Just(CacheKind::Lrbu), Just(CacheKind::ConcurrentLru)],
    ) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let config = ClusterConfig::new(machines)
            .workers(workers)
            .batch_size(32)
            .cache_fraction(cache)
            .cache_kind(kind);
        let cluster = HugeCluster::build(graph, config).unwrap();
        prop_assert_eq!(cluster.run(&query, SinkMode::Count).unwrap().matches, expected);
    }

    /// The input's ids do not change the answer: an `arb_graph` relabelled by
    /// a random permutation counts what the reference counts on the
    /// original, and its collected rows, in the relabelled input's ids, are
    /// distinct embeddings of the query, one per match.
    #[test]
    fn engine_agrees_under_permuted_input_ids(
        graph in arb_graph(),
        pattern in arb_pattern(),
        keys in prop::collection::vec(0u32..u32::MAX, 60..61),
        machines in 1usize..4,
    ) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let n = graph.num_vertices();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&v| (keys[v as usize], v));
        let input: HashSet<(u32, u32)> = graph
            .edges()
            .flat_map(|(u, v)| {
                let (u, v) = (perm[u as usize], perm[v as usize]);
                [(u, v), (v, u)]
            })
            .collect();
        let mut builder = GraphBuilder::with_vertices(n);
        input.iter().for_each(|&(u, v)| { builder.add_edge(u, v); });
        let cluster = HugeCluster::build(builder.build().unwrap(), ClusterConfig::new(machines).workers(1)).unwrap();
        prop_assert_eq!(cluster.run(&query, SinkMode::Count).unwrap().matches, expected);
        let rows = cluster.run(&query, SinkMode::Collect(usize::MAX)).unwrap().sample_matches;
        prop_assert_eq!(rows.len() as u64, expected);
        for m in &rows {
            for &(a, b) in query.edges() {
                prop_assert!(input.contains(&(m[a as usize], m[b as usize])), "{:?}", m);
            }
            prop_assert_eq!(m.iter().collect::<HashSet<_>>().len(), query.num_vertices());
        }
        prop_assert_eq!(rows.iter().collect::<HashSet<_>>().len(), rows.len());
    }

    /// Plugged baseline logical plans compute exactly the same result set
    /// sizes as the optimiser's plan.
    #[test]
    fn plugged_plans_agree(
        graph in arb_graph(),
        pattern in prop_oneof![
            Just(Pattern::Square),
            Just(Pattern::ChordalSquare),
            Just(Pattern::FourClique),
        ],
        system in prop_oneof![
            Just(BaselineSystem::Seed),
            Just(BaselineSystem::BigJoin),
            Just(BaselineSystem::Rads),
            Just(BaselineSystem::StarJoin),
        ],
    ) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let cluster = HugeCluster::build(graph, ClusterConfig::new(2).workers(1)).unwrap();
        let plan = plug_into_huge(system, &query).unwrap();
        let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
        prop_assert_eq!(report.matches, expected);
    }

    /// The engine's symmetry-breaking order keeps exactly one embedding per
    /// match, wherever it checks a constraint (a run's shared intersection,
    /// a row's slice of it, a per-candidate filter): multiplying the
    /// engine's count by the automorphism count recovers the number of
    /// embeddings the unordered enumerator finds.
    #[test]
    fn symmetry_breaking_counts_are_consistent(
        graph in arb_graph(),
        pattern in arb_pattern(),
        machines in 1usize..4,
    ) {
        let query = pattern.query_graph();
        let embeddings = naive::enumerate_embeddings(&graph, &query);
        let cluster = HugeCluster::build(graph, ClusterConfig::new(machines).workers(1)).unwrap();
        let report = cluster.run(&query, SinkMode::Count).unwrap();
        prop_assert_eq!(report.matches * symmetry::automorphism_count(&query), embeddings);
    }

    /// Columnar ↔ row-major conversion is lossless for arbitrary dense
    /// batches, and a dense batch is charged one value per row and column.
    #[test]
    fn colbatch_rowbatch_round_trip(
        arity in 1usize..5,
        values in prop::collection::vec(0u32..1000, 0..120),
    ) {
        let n = values.len() / arity;
        let mut rows = RowBatch::new(arity);
        for i in 0..n {
            rows.push_row(&values[i * arity..(i + 1) * arity]);
        }
        let cols = ColBatch::from_rows(&rows);
        prop_assert_eq!(cols.len(), n);
        prop_assert_eq!(cols.byte_size(), (n * arity * 4) as u64);
        prop_assert_eq!(cols.to_rows().as_flat(), rows.as_flat());
    }

    /// The columnar shuffle sends every row where a row-at-a-time reference
    /// sends it (the high bits of the row's `key_hash` once its halves are
    /// folded together and one mixing multiply is applied): per destination
    /// exactly those rows, in input order, each row a run of one.
    #[test]
    fn columnar_shuffle_matches_the_row_at_a_time_reference(
        arity in 1usize..5,
        values in prop::collection::vec(0u32..40, 0..240),
        key in prop::collection::vec(0usize..4, 1..4),
        k in 1usize..6,
    ) {
        let key: Vec<usize> = key.iter().map(|p| p % arity).collect();
        let n = values.len() / arity;
        let row = |i: usize| &values[i * arity..(i + 1) * arity];
        let mut rows = RowBatch::new(arity);
        (0..n).for_each(|i| rows.push_row(row(i)));
        let cols = ColBatch::from_rows(&rows);

        let mut expected = vec![Vec::new(); k];
        for i in 0..n {
            let hash = key_hash(key.iter().map(|&c| row(i)[c]));
            let mixed = (hash ^ (hash >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let dest = ((u128::from(mixed) * k as u128) >> 64) as usize;
            expected[dest].extend_from_slice(row(i));
        }
        let parts = partition_cols_by_key(&cols, &key, k);
        prop_assert_eq!(parts.len(), k);
        for (part, expected) in parts.iter().zip(&expected) {
            prop_assert_eq!(part.arity(), arity);
            prop_assert_eq!(part.runs(), part.len());
            prop_assert_eq!(part.byte_size(), (part.len() * arity * 4) as u64);
            prop_assert_eq!(part.len() * arity, expected.len());
            prop_assert_eq!(part.to_rows().as_flat(), expected.as_slice());
        }
    }

    /// A run batch answers the shuffle and the transpose exactly like its
    /// row-per-run twin (the same rows, every one a run of its own) — runs
    /// of any length (empty ones included), keys on per-run columns, on the
    /// newest column or on both. A run whose key is constant over it ships
    /// whole: keyed on per-run columns only, every non-empty run reaches a
    /// part as one run; keyed on the newest column, every row is a run of
    /// its own in its part. The owner partitioner splits the same way.
    #[test]
    fn a_run_batch_shuffles_and_transposes_like_its_row_per_run_twin(
        prefix in 0usize..4,
        lens in prop::collection::vec(prop_oneof![Just(0u32), 1u32..5, 1u32..5, 20u32..40], 0..14),
        values in prop::collection::vec(0u32..40, 400..401),
        key in prop::collection::vec(0usize..4, 1..4),
        k in 1usize..6,
    ) {
        let arity = prefix + 1;
        let key: Vec<usize> = key.iter().map(|p| p % arity).collect();
        let ends: Vec<u32> = lens.iter().scan(0, |end, n| { *end += n; Some(*end) }).collect();
        let rows = ends.last().copied().unwrap_or(0) as usize;
        let mut next = values.iter().copied().cycle();
        let mut cols: Vec<Vec<u32>> = (0..prefix)
            .map(|_| next.by_ref().take(lens.len()).collect())
            .collect();
        cols.push(next.by_ref().take(rows).collect());
        let runs = ColBatch::from_runs(cols, ends);
        let twin = ColBatch::from_rows(&runs.to_rows());
        prop_assert_eq!((twin.len(), twin.runs()), (rows, rows));
        prop_assert_eq!(twin.column(0).len(), rows);

        let nonempty = lens.iter().filter(|&&l| l > 0).count();
        let whole_runs = |parts: &[ColBatch], whole: bool| match whole {
            true => parts.iter().map(ColBatch::runs).sum::<usize>() == nonempty,
            false => parts.iter().all(|p| p.runs() == p.len()),
        };
        let parts = partition_cols_by_key(&runs, &key, k);
        prop_assert!(whole_runs(&parts, key.iter().all(|&c| c < prefix)));
        prop_assert_eq!(parts.iter().map(ColBatch::len).sum::<usize>(), rows);
        let twin_parts = partition_cols_by_key(&twin, &key, k);
        for (part, twin) in parts.iter().zip(&twin_parts) {
            prop_assert_eq!((twin.runs(), part.to_rows()), (twin.len(), twin.to_rows()));
        }
        let partitions = Partitioner::new(k).unwrap().partition(gen::complete(4));
        let rpc = RpcFabric::new(std::sync::Arc::new(partitions), ClusterStats::new(k));
        for column in [0, arity - 1] {
            let parts = partition_cols_by_owner(&runs, column, &rpc, k);
            prop_assert!(whole_runs(&parts, column < prefix));
            let twin_parts = partition_cols_by_owner(&twin, column, &rpc, k);
            for (part, twin) in parts.iter().zip(&twin_parts) {
                prop_assert_eq!(part.to_rows(), twin.to_rows());
            }
        }
    }
}
