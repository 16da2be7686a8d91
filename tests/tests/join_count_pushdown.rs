//! The `PUSH-JOIN` count pushdown against its two references. When a root
//! join feeds a counting sink the engine counts surviving pairs instead of
//! materialising joined rows; that must change no answer:
//! `Count == Collect(∞).len() == naive::enumerate`, on every cluster shape
//! and under every runtime regime that touches the join's lifecycle —
//! spilled Grace partitions, governed budgets, stolen partitions, a lossy
//! transport — and a cancel landing mid-count must unwind as cleanly as one
//! landing mid-materialise. The collected rows themselves must be exactly
//! the reference's matches, whichever shuffle path the join's inputs took. Roots that end in an extend count with that
//! extend instead, held to the same two references.

use std::collections::HashMap;
use std::time::Duration;

use huge_core::{
    CancelToken, ClusterConfig, EngineError, Fault, HugeCluster, RunOutcome, SinkMode,
};
use huge_graph::{gen, Graph};
use huge_plan::optimizer::OptimizerOptions;
use huge_plan::translate::{translate, Dataflow, SegmentSource};
use huge_query::naive::{self, NaiveSink};
use huge_query::{Pattern, QueryGraph};

/// The dataflow for `query` with pulling disabled, so the optimiser has to
/// decompose it into `PUSH-JOIN` segments (the chaos suite's join plans).
fn join_dataflow(cluster: &HugeCluster, query: &QueryGraph) -> Dataflow {
    let plan = cluster
        .plan_with_options(
            query,
            OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )
        .unwrap();
    translate(&plan).unwrap()
}

/// `true` when the root segment is `Join → Sink` with nothing in between —
/// the shape whose count sink is pushed into the join.
fn root_is_bare_join(dataflow: &Dataflow) -> bool {
    let root = dataflow.segments.last().expect("plans have a root segment");
    matches!(root.source, SegmentSource::Join(_)) && root.extends.is_empty()
}

/// `true` when some join input starts at a scan and binds a non-key vertex
/// last: its runs are keyed on prefix columns, so the shuffle ships each one
/// whole and the join scatters it run by run.
fn ships_runs_whole(dataflow: &Dataflow) -> bool {
    let inputs = dataflow
        .segments
        .iter()
        .filter_map(|seg| match &seg.source {
            SegmentSource::Join(j) => Some([(j.left, &j.key_left), (j.right, &j.key_right)]),
            SegmentSource::Scan(_) => None,
        });
    inputs.flatten().any(|(input, key)| {
        let input = &dataflow.segments[input];
        matches!(input.source, SegmentSource::Scan(_)) && !key.contains(&(input.schema.len() - 1))
    })
}

/// Checks the rows a `Collect(usize::MAX)` run returned (in the input's
/// ids): each is injective and maps every query edge to a data edge, no row
/// repeats, and together they are exactly the matches `naive::enumerate`
/// counts.
fn assert_rows_are_the_matches(graph: &Graph, query: &QueryGraph, rows: &[Vec<u32>], case: &str) {
    let internal: HashMap<u32, u32> = graph.vertices().map(|v| (graph.input_id(v), v)).collect();
    for row in rows {
        let mut distinct = row.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            row.len(),
            "{row:?} is not injective: {case}"
        );
        for &(a, b) in query.edges() {
            let (u, v) = (internal[&row[a as usize]], internal[&row[b as usize]]);
            assert!(
                graph.has_edge(u, v),
                "{row:?} misses query edge {a}-{b}: {case}"
            );
        }
    }
    let mut expected: Vec<Vec<u32>> = Vec::new();
    let mut sink = |m: &[u32]| expected.push(m.iter().map(|&v| graph.input_id(v)).collect());
    let order = query.order().clone();
    naive::enumerate_with(graph, query, order, &mut NaiveSink::Collect(&mut sink));
    let mut got = rows.to_vec();
    got.sort_unstable();
    expected.sort_unstable();
    assert!(
        got.windows(2).all(|w| w[0] != w[1]),
        "a row repeats: {case}"
    );
    assert!(
        got == expected,
        "the rows are not the reference's matches: {case}"
    );
}

/// A sparse ring plus a `K_{2,64}` gadget on two fresh hubs: every gadget
/// square joins through the one Grace partition the hub pair hashes into,
/// which is thereby far more than 64× hotter than any other — sealed work
/// worth stealing while its owner stalls.
fn skewed_graph() -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..120u32 {
        edges.push((v, (v + 1) % 120));
        edges.push((v, (v + 7) % 120));
    }
    for leaf in 300..364u32 {
        edges.push((200, leaf));
        edges.push((201, leaf));
    }
    Graph::from_edges(edges)
}

/// One runtime regime of the matrix: the graph it runs on and, given the
/// machine count and the plan's segment count, the engine configuration.
type Regime = (
    &'static str,
    fn() -> Graph,
    fn(usize, usize) -> ClusterConfig,
);

fn base_graph() -> Graph {
    gen::erdos_renyi(90, 260, 23)
}

fn base_config(machines: usize) -> ClusterConfig {
    // Small batches: a counting poll yields every 64 pairs, so polls,
    // partition hand-overs and inbox absorption interleave many times.
    ClusterConfig::new(machines).workers(1).batch_size(64)
}

const REGIMES: [Regime; 5] = [
    ("default", base_graph, |k, _| base_config(k)),
    ("tiny join buffer", base_graph, |k, _| {
        base_config(k).join_buffer_bytes(1024)
    }),
    ("governed budget", base_graph, |k, _| {
        base_config(k).memory_budget(48 * 1024)
    }),
    (
        "skew with partition stealing",
        skewed_graph,
        |k, segments| {
            // The straggler only exists on a real cluster.
            let stall = Fault::Delay(Duration::from_millis(120));
            match k {
                1 => base_config(k),
                _ => base_config(k).inject_fault(1, segments - 1, stall),
            }
        },
    ),
    ("lossy transport", base_graph, |k, segments| {
        let mut config = base_config(k).fault_seed(0xBADC0DE);
        for segment in 0..segments {
            for machine in 0..k {
                config = config
                    .inject_fault(machine, segment, Fault::DropBatch { ppm: 250_000 })
                    .inject_fault(machine, segment, Fault::DuplicateBatch { ppm: 250_000 });
            }
        }
        config
    }),
];

#[test]
fn count_equals_collect_equals_reference_across_the_matrix() {
    for pattern in [Pattern::Path(5), Pattern::Path(6), Pattern::Square] {
        let query = pattern.query_graph();
        for machines in 1..=3 {
            for (name, graph, config) in REGIMES {
                let case = format!("{pattern:?}, {machines} machine(s), {name}");
                let graph = graph();
                // Fault plans name segments, and plans depend only on graph
                // statistics: plan on a fault-free twin to count them first.
                let probe = HugeCluster::build(graph.clone(), base_config(machines)).unwrap();
                let segments = join_dataflow(&probe, &query).segments.len();
                let config = config(machines, segments);
                let cluster = HugeCluster::build(graph.clone(), config).unwrap();
                let dataflow = join_dataflow(&cluster, &query);
                assert_eq!(dataflow.segments.len(), segments, "{case}");
                assert!(
                    root_is_bare_join(&dataflow),
                    "the case must exercise the pushed-down count sink: {case}"
                );
                // Both shuffle paths run: a path's inputs bind a non-key
                // vertex last and ship runs whole, the square's wedges are
                // keyed on their newest column too and ship rows.
                let run_wise = !matches!(pattern, Pattern::Square);
                assert_eq!(ships_runs_whole(&dataflow), run_wise, "{case}");
                let expected = naive::enumerate(&graph, &query);

                let counted = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
                let collected = cluster
                    .run_dataflow(&dataflow, SinkMode::Collect(usize::MAX))
                    .unwrap();
                assert_eq!(counted.matches, expected, "Count vs reference: {case}");
                assert_eq!(collected.matches, expected, "Collect vs reference: {case}");
                assert_eq!(
                    collected.sample_matches.len() as u64,
                    expected,
                    "Collect(∞) rows: {case}"
                );
                assert_rows_are_the_matches(&graph, &query, &collected.sample_matches, &case);
                for report in [&counted, &collected] {
                    assert_eq!(report.leaked_bytes, 0, "{case}");
                    assert_eq!(report.orphaned_spill_files, 0, "{case}");
                    assert_eq!(
                        report.join.partitions_shipped, report.join.partitions_stolen,
                        "every shipped partition is probed exactly once: {case}"
                    );
                }
                // Both sinks sit on the same pair generator: they test the
                // same candidates and keep the same ones.
                assert_eq!(
                    (counted.join.probe_pairs, counted.join.probe_matches),
                    (collected.join.probe_pairs, collected.join.probe_matches),
                    "{case}"
                );
                assert!(
                    counted.join.probe_pairs >= counted.join.probe_matches,
                    "{case}"
                );
                // The root join's survivors *are* the matches (plus whatever
                // inner joins produced on the way).
                assert!(counted.join.probe_matches >= expected, "{case}");
            }
        }
    }
}

/// Queries with a cut vertex, the only ones whose HUGE plans can start a
/// pushing join's inputs at its one-vertex key: paths, a star, q8 and two
/// triangles sharing a vertex.
fn cut_vertex_queries() -> Vec<(String, QueryGraph)> {
    let patterns = [4, 5, 6, 7].map(Pattern::Path).into_iter();
    let patterns = patterns.chain([Pattern::Star(3), Pattern::TailedTriangleStar]);
    let bowtie = QueryGraph::new(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 4)]);
    patterns
        .map(|p| (format!("{p:?}"), p.query_graph()))
        .chain([("two triangles sharing a vertex".to_string(), bowtie)])
        .collect()
}

/// How many inputs of the dataflow's pushing joins start at the join's
/// one-vertex key, and so ship only rows of stolen scan chunks.
fn co_located_inputs(dataflow: &Dataflow) -> usize {
    let joins = dataflow
        .segments
        .iter()
        .filter_map(|seg| match &seg.source {
            SegmentSource::Join(j) => Some((seg, j)),
            SegmentSource::Scan(_) => None,
        });
    joins
        .filter_map(|(seg, j)| match j.key_left[..] {
            [c] => Some((seg.schema[c], [j.left, j.right])),
            _ => None,
        })
        .map(|(key, inputs)| {
            let starts = inputs.map(|input| dataflow.start(input));
            starts.iter().filter(|&&s| s == Some(key)).count()
        })
        .sum()
}

#[test]
fn co_located_joins_equal_the_reference() {
    // HUGE's own plans: a pushing join on one query vertex lands each key
    // on the vertex's owner, and the optimiser scans its inputs from there.
    let graph = gen::erdos_renyi(60, 130, 23);
    let mut co_located = [0; 3];
    for (name, query) in cut_vertex_queries() {
        let expected = naive::enumerate(&graph, &query);
        assert!(expected > 0, "{name} must occur in the graph");
        for machines in 1..=3 {
            let case = format!("{name}, {machines} machine(s)");
            let cluster = HugeCluster::build(graph.clone(), base_config(machines)).unwrap();
            let dataflow = translate(&cluster.plan(&query).unwrap()).unwrap();
            co_located[machines - 1] += co_located_inputs(&dataflow);
            let counted = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
            let collected = cluster
                .run_dataflow(&dataflow, SinkMode::Collect(usize::MAX))
                .unwrap();
            assert_eq!(counted.matches, expected, "Count vs reference: {case}");
            assert_eq!(collected.matches, expected, "Collect vs reference: {case}");
            assert_rows_are_the_matches(&graph, &query, &collected.sample_matches, &case);
        }
    }
    assert!(co_located.iter().all(|&n| n >= 2), "{co_located:?}");

    // Under a budget that spills, with a straggler whose co-located
    // partitions an idle peer steals (segment by segment, so that the
    // whole join waits for its probe): the 6-path's join on a road-like
    // grid, both inputs started at its key.
    let graph = gen::grid(40, 40, 0, 1);
    let query = Pattern::Path(6).query_graph();
    let expected = naive::enumerate(&graph, &query);
    let probe = HugeCluster::build(graph.clone(), base_config(2)).unwrap();
    let dataflow = translate(&probe.plan(&query).unwrap()).unwrap();
    assert_eq!(co_located_inputs(&dataflow), 2, "{}", dataflow.explain());
    let join = dataflow.segments.len() - 1;
    let config = base_config(2)
        .memory_budget(256 * 1024)
        .pipeline_segments(false)
        .inject_fault(1, join, Fault::Delay(Duration::from_secs(1)));
    let cluster = HugeCluster::build(graph.clone(), config).unwrap();
    assert_eq!(translate(&cluster.plan(&query).unwrap()).unwrap(), dataflow);
    // A steal is a race with the straggler's stall: one of the two runs
    // must win it, and every run must be exact.
    let mut stolen = 0;
    for sink in [SinkMode::Count, SinkMode::Collect(usize::MAX)] {
        let report = cluster.run_dataflow(&dataflow, sink).unwrap();
        assert_eq!(report.matches, expected, "{sink:?}");
        let governor = report.governor.as_ref().expect("a governed run");
        assert!(governor.spilled_bytes > 0, "{sink:?}: {governor:?}");
        let join = &report.join;
        assert_eq!(join.partitions_shipped, join.partitions_stolen, "{join:?}");
        assert_eq!((report.leaked_bytes, report.orphaned_spill_files), (0, 0));
        stolen += join.partitions_stolen;
    }
    assert!(stolen > 0, "no co-located partition was shipped");
}

#[test]
fn count_equals_collect_for_extend_rooted_plans() {
    // The other half of the count pushdown: under HUGE's own plans these
    // roots end in an extend, and `Count` counts with that last extend
    // instead of materialising its column — fed piece by piece by the
    // extend before it, on each worker, when that one is match-mode.
    let graph = gen::erdos_renyi(60, 420, 7);
    let patterns = [
        Pattern::Triangle,
        Pattern::Square,
        Pattern::ChordalSquare,
        Pattern::FourClique,
    ];
    for pattern in patterns {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        assert!(expected > 0, "{pattern:?} must occur in the graph");
        for (machines, workers) in (1..=3).flat_map(|k| [(k, 1), (k, 2)]) {
            let case = format!("{pattern:?}, {machines} machine(s) × {workers} worker(s)");
            let config = base_config(machines).workers(workers);
            let cluster = HugeCluster::build(graph.clone(), config).unwrap();
            let dataflow = translate(&cluster.plan(&query).unwrap()).unwrap();
            let root = dataflow.segments.last().expect("plans have a root segment");
            assert!(
                !root.extends.is_empty(),
                "the root must end in an extend: {case}"
            );
            let counted = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
            let collected = cluster
                .run_dataflow(&dataflow, SinkMode::Collect(usize::MAX))
                .unwrap();
            assert_eq!(counted.matches, expected, "Count vs reference: {case}");
            assert_eq!(collected.matches, expected, "Collect vs reference: {case}");
            let rows = collected.sample_matches.len() as u64;
            assert_eq!(rows, expected, "Collect(∞) rows: {case}");
        }
    }
}

#[test]
fn stolen_partitions_are_counted_exactly_once() {
    // The skew regime above tolerates a steal not firing; this one insists
    // on it, so the count sink is known to run over adopted partitions.
    let graph = skewed_graph();
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let probe = HugeCluster::build(graph.clone(), base_config(2)).unwrap();
    let join_segment = join_dataflow(&probe, &query).segments.len() - 1;
    let config =
        base_config(2).inject_fault(1, join_segment, Fault::Delay(Duration::from_millis(300)));
    let cluster = HugeCluster::build(graph, config).unwrap();
    let dataflow = join_dataflow(&cluster, &query);
    assert!(root_is_bare_join(&dataflow));
    let report = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(report.join.partitions_stolen > 0, "{:?}", report.join);
    assert_eq!(report.join.probe_matches, expected);
}

#[test]
fn cancel_mid_count_unwinds_cleanly() {
    // K_{2,150}: the 5-path query joins the 2-paths ending at each leaf with
    // themselves — 13 M candidate pairs, counted in polls of 16, against
    // 45 k rows to scan, extend and shuffle. The run *is* the count, so a
    // cancel at half the measured run time lands in the middle of it. The
    // count sink polls the token per batch of pairs like the materialising
    // one: the run must stop early with a typed error, and the tiny join
    // buffer's spill files and charges must all be gone.
    let graph = Graph::from_edges((10..160u32).flat_map(|leaf| [(0, leaf), (1, leaf)]));
    let query = Pattern::Path(5).query_graph();
    let config = ClusterConfig::new(2)
        .workers(1)
        .batch_size(16)
        .join_buffer_bytes(1024);
    let cluster = HugeCluster::build(graph, config).unwrap();
    let dataflow = join_dataflow(&cluster, &query);
    assert!(root_is_bare_join(&dataflow));

    let full = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
    // leaf - hub - leaf - other hub - leaf, counted from one end.
    assert_eq!(full.matches, 150 * 149 * 148);
    assert!(full.join.probe_pairs > 10_000_000);

    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    let delay = full.compute_time / 2;
    let timer = std::thread::spawn(move || {
        std::thread::sleep(delay);
        canceller.cancel();
    });
    let result = cluster.run_dataflow_with_cancel(&dataflow, SinkMode::Count, cancel);
    timer.join().unwrap();
    let report = match result {
        Err(EngineError::Cancelled(Some(report))) => report,
        other => panic!("expected Cancelled with a partial report, got {other:?}"),
    };
    assert_eq!(report.outcome, RunOutcome::Cancelled);
    assert_eq!(
        report.machines.len(),
        2,
        "partial stats cover every machine"
    );
    // Spans exist for finished segments only: every producer ran to its
    // end and the join did not, so the cancel landed inside the join.
    for machine in &report.machines {
        let (join, producers) = machine.segment_spans.split_last().unwrap();
        assert!(producers.iter().all(Option::is_some), "{producers:?}");
        assert!(join.is_none(), "{join:?}");
    }
    assert!(report.matches < full.matches);
    assert_eq!(report.leaked_bytes, 0, "join charges must be released");
    assert_eq!(
        report.orphaned_spill_files, 0,
        "spill files must be deleted"
    );
}
