//! Integration tests of the BFS/DFS-adaptive scheduler, the memory bound and
//! the cache / communication behaviour.

use huge_cache::CacheKind;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, SinkMode};
use huge_graph::{gen, Graph};
use huge_plan::translate::SegmentSource;
use huge_query::{naive, Pattern};

#[test]
fn bounded_queues_bound_memory() {
    // A dense-ish graph where the square query has many matches; bounded
    // queues must keep the peak far below the unbounded (pure BFS) run. The
    // rows are collected (none kept), so the matches themselves are queued
    // for the sink: the bounded run holds scan batches in its head queue, at
    // most a queue's worth of gathered matches (plus one nest call's
    // overflow) in its terminal queue, and what a stopped nest left at its
    // second level; the unbounded one holds every scan batch and then every
    // match.
    let graph = gen::barabasi_albert(2_000, 12, 3);
    let query = Pattern::Square.query_graph();
    let bounded = HugeCluster::build(
        graph.clone(),
        ClusterConfig::new(2)
            .workers(2)
            .output_queue_rows(2_000)
            .batch_size(1_000),
    )
    .unwrap()
    .run(&query, SinkMode::Collect(0))
    .unwrap();
    let unbounded = HugeCluster::build(
        graph,
        ClusterConfig::new(2)
            .workers(2)
            .output_queue_rows(usize::MAX / 2),
    )
    .unwrap()
    .run(&query, SinkMode::Collect(0))
    .unwrap();
    assert_eq!(bounded.matches, unbounded.matches);
    assert!(
        bounded.peak_memory_bytes * 2 < unbounded.peak_memory_bytes,
        "bounded {} vs unbounded {}",
        bounded.peak_memory_bytes,
        unbounded.peak_memory_bytes
    );
}

#[test]
fn cache_reduces_pulled_traffic() {
    let graph = gen::barabasi_albert(3_000, 8, 9);
    let query = Pattern::Triangle.query_graph();
    // Small batches so the cache gets a chance to be reused *across* batches
    // (within a single batch both configurations deduplicate fetches).
    let with_cache = HugeCluster::build(
        graph.clone(),
        ClusterConfig::new(4)
            .workers(2)
            .batch_size(512)
            .cache_fraction(1.0),
    )
    .unwrap()
    .run(&query, SinkMode::Count)
    .unwrap();
    let without_cache = HugeCluster::build(
        graph,
        ClusterConfig::new(4).workers(2).batch_size(512).no_cache(),
    )
    .unwrap()
    .run(&query, SinkMode::Count)
    .unwrap();
    assert_eq!(with_cache.matches, without_cache.matches);
    assert!(
        with_cache.comm.bytes_pulled < without_cache.comm.bytes_pulled,
        "cache {} vs no cache {}",
        with_cache.comm.bytes_pulled,
        without_cache.comm.bytes_pulled
    );
    // Lookups are counted in the fetch stage, where they can miss: every
    // cached list was pulled once first.
    assert!(with_cache.cache.hits > 0);
    assert!(with_cache.cache.misses > 0);
    assert!(with_cache.cache.hit_rate() < 1.0);
}

#[test]
fn larger_caches_do_not_pull_more() {
    let graph = gen::barabasi_albert(2_000, 8, 11);
    let query = Pattern::Square.query_graph();
    let mut previous = u64::MAX;
    let mut counts = Vec::new();
    for fraction in [0.02, 0.3, 1.0] {
        let report = HugeCluster::build(
            graph.clone(),
            ClusterConfig::new(4).workers(2).cache_fraction(fraction),
        )
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
        counts.push(report.matches);
        assert!(
            report.comm.bytes_pulled <= previous,
            "pulled bytes should not grow with cache size"
        );
        previous = report.comm.bytes_pulled;
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn every_cache_design_is_correct() {
    let graph = gen::erdos_renyi(400, 2_500, 17);
    let query = Pattern::Triangle.query_graph();
    let expected = naive::enumerate(&graph, &query);
    for kind in CacheKind::ALL {
        let report = HugeCluster::build(
            graph.clone(),
            ClusterConfig::new(3)
                .workers(2)
                .cache_kind(kind)
                .cache_fraction(0.1),
        )
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
        assert_eq!(report.matches, expected, "{}", kind.name());
    }
}

#[test]
fn every_load_balance_strategy_is_correct() {
    let graph = gen::barabasi_albert(800, 7, 23);
    let query = Pattern::ChordalSquare.query_graph();
    let expected = naive::enumerate(&graph, &query);
    for lb in [
        LoadBalance::WorkStealing,
        LoadBalance::None,
        LoadBalance::RegionGroup,
    ] {
        let report = HugeCluster::build(
            graph.clone(),
            ClusterConfig::new(3).workers(3).load_balance(lb),
        )
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
        assert_eq!(report.matches, expected, "{lb:?}");
    }
}

#[test]
fn pushing_plans_spill_and_still_count_correctly() {
    // Force a plan with PUSH-JOIN (disable pulling) and a tiny join buffer so
    // the Grace partitions spill to disk.
    let graph = gen::erdos_renyi(300, 1_500, 41);
    let query = Pattern::Path(5).query_graph();
    let expected = naive::enumerate(&graph, &query);
    let cluster = HugeCluster::build(
        graph,
        ClusterConfig::new(2).workers(2).join_buffer_bytes(2_048),
    )
    .unwrap();
    let plan = cluster
        .plan_with_options(
            &query,
            huge_plan::optimizer::OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )
        .unwrap();
    let dataflow = huge_plan::translate::translate(&plan).unwrap();
    assert!(
        dataflow.num_joins() >= 1,
        "expected a PUSH-JOIN in the plan"
    );
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(report.comm.bytes_pushed > 0);
}

#[test]
fn a_streaming_join_never_buffers_its_probe_side() {
    // q7 (the 6-path) on a grid: its root PUSH-JOIN builds on 2-paths and
    // probes with 3-paths. The right producer is released long before the
    // left one, so the join seals its build side first and probes every
    // left row as it arrives: none waits for the left seal, and no machine
    // ever holds even half of the left side. The barriered run of the same
    // dataflow seals both sides at once, so every left row is probed
    // against a build made at the left seal and counts as deferred there —
    // which is how many rows the left producer made.
    // A small inbox is what paces the producers to the probe. Stealing is
    // off: a thief probes the waiting rows it takes after its own left seal,
    // which counts them as deferred.
    let graph = gen::grid(150, 150, 0, 7);
    let query = Pattern::paper(7).unwrap().query_graph();
    let run = |pipelined: bool| {
        let config = ClusterConfig::new(2)
            .workers(1)
            .load_balance(LoadBalance::None)
            .router_queue_rows(8 * 1024)
            .pipeline_segments(pipelined);
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let plan = cluster.plan(&query).unwrap();
        let dataflow = huge_plan::translate::translate(&plan).unwrap();
        let Some(SegmentSource::Join(op)) = dataflow.segments.last().map(|s| &s.source) else {
            panic!("q7's root is its PUSH-JOIN");
        };
        let left_arity = dataflow.segments[op.left].schema.len();
        let report = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
        (report, left_arity)
    };
    let (barriered, left_arity) = run(false);
    let left_rows = barriered.join.deferred_rows;
    assert!(left_rows > 0);
    assert_eq!(barriered.join.streamed_rows, 0);
    let (streaming, _) = run(true);
    assert_eq!(streaming.matches, barriered.matches);
    assert_eq!(streaming.join.probe_pairs, barriered.join.probe_pairs);
    assert_eq!(streaming.join.deferred_rows, 0, "{:?}", streaming.join);
    assert_eq!(streaming.join.streamed_rows, left_rows);
    let left_bytes = left_rows * left_arity as u64 * 4;
    assert!(
        streaming.peak_memory_bytes < left_bytes / 2,
        "peak {} bytes against {left_bytes} bytes of left rows",
        streaming.peak_memory_bytes
    );
    assert_eq!(streaming.leaked_bytes, 0);
}

#[test]
fn inter_machine_stealing_keeps_counts_and_moves_work() {
    // A very skewed graph: one hub machine owns most of the work.
    let graph = gen::barabasi_albert(4_000, 10, 1);
    let query = Pattern::Triangle.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let report = HugeCluster::build(graph, ClusterConfig::new(4).workers(1).batch_size(512))
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
    assert_eq!(report.matches, expected);
    // Stealing is opportunistic; at least the counters must be consistent.
    let stolen: u64 = report.machines.iter().map(|m| m.batches_stolen).sum();
    assert_eq!(stolen, report.comm.steals + stolen - report.comm.steals);
}

#[test]
fn fetch_time_is_a_small_fraction_of_total() {
    // The two-stage execution's synchronisation overhead (fetch stage) must
    // stay small relative to the total, as Table 5 reports.
    let graph = gen::barabasi_albert(3_000, 8, 29);
    let query = Pattern::FourClique.query_graph();
    let report = HugeCluster::build(graph, ClusterConfig::new(2).workers(2))
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
    assert!(report.fetch_time <= report.compute_time);
}

#[test]
fn scan_work_counts_as_worker_time() {
    // A one-edge star is a scan-only plan: all of its work is the scan's
    // expansion of vertices into edge rows, and Exp-8's worker-time figures
    // must see it at one worker and at two.
    let graph = gen::erdos_renyi(20_000, 200_000, 7);
    let query = Pattern::Star(1).query_graph();
    for workers in [1, 2] {
        let report = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(workers))
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(report.matches, 200_000);
        assert!(
            report.total_worker_time() > std::time::Duration::ZERO,
            "{workers} workers"
        );
    }
}

#[test]
fn a_collected_hub_expansion_stops_at_a_full_terminal_queue() {
    // Two hubs over 600 shared leaves: q1's first extend turns each
    // `(leaf, hub)` row into one row per leaf of the hub, and its last closes
    // most of them into a square — 179 700 matches. Collected (none kept),
    // the nest gathers them into the terminal queue and stops once it finds
    // that queue full. So (`scheduler.rs`) the head queue holds at most its
    // capacity and a scan batch, the second level's a piece and one row's
    // candidates at the first level (a hub's 600 leaves), and the terminal
    // queue its capacity, a piece and one row's candidates at the last
    // level (at most 2: the hubs). A row costs at most 12 bytes in the head
    // queue, 16 in the second level's and 20 gathered.
    let graph = Graph::from_edges((2..602).flat_map(|leaf| [(0, leaf), (1, leaf)]));
    let query = Pattern::Square.query_graph();
    let batch = 1_024u64;
    let config = ClusterConfig::new(1)
        .workers(1)
        .batch_size(batch as usize)
        .output_queue_rows(batch as usize);
    let report = HugeCluster::build(graph.clone(), config)
        .unwrap()
        .run(&query, SinkMode::Collect(0))
        .unwrap();
    assert_eq!(report.matches, naive::enumerate(&graph, &query));
    let bound = 12 * 2 * batch + 16 * (batch + 600) + 20 * (2 * batch + 2);
    let peak = report.peak_memory_bytes;
    assert!(peak <= bound, "peak {peak} over the bound {bound}");
    // Gathered whole, the matches' candidate column alone is over twice it.
    assert!(
        2 * bound < 4 * report.matches,
        "{bound} vs {} matches",
        report.matches
    );
    assert_eq!(report.leaked_bytes, 0);
}

#[test]
fn a_chain_without_extends_hands_a_full_terminal_queue_to_its_terminal() {
    // A single edge is a bare scan: its source feeds the terminal queue
    // directly. Once that queue fills, the terminal drains it before the
    // scan makes another batch, so the queue holds at most its capacity
    // and one scan batch — a row costs at most 12 bytes (its two values
    // and a run end) — however many edges the graph has.
    let graph = gen::erdos_renyi(2_000, 40_000, 5);
    let query = Pattern::Path(2).query_graph();
    let (batch, queue) = (256u64, 512u64);
    let config = ClusterConfig::new(1)
        .workers(1)
        .batch_size(batch as usize)
        .output_queue_rows(queue as usize);
    let report = HugeCluster::build(graph.clone(), config)
        .unwrap()
        .run(&query, SinkMode::Collect(0))
        .unwrap();
    assert_eq!(report.matches, naive::enumerate(&graph, &query));
    let bound = 12 * (queue + batch);
    let peak = report.peak_memory_bytes;
    assert!(peak <= bound, "peak {peak} over the bound {bound}");
    assert!(10 * bound < 8 * report.matches, "the bound must bite");
    assert_eq!(report.leaked_bytes, 0);
}

#[test]
fn a_counting_square_never_queues_a_hub_expansion() {
    // One hub over 1 100 leaves, a second vertex over ten of them: q1's
    // first extend turns each `(leaf, hub)` row into one row per leaf of the
    // hub. Counted or collected, the last extend takes that expansion piece
    // by piece as it is generated, so no queue ever holds it.
    let leaves = 1_100;
    let hub = (2..leaves + 2).map(|leaf| (0, leaf));
    let graph = Graph::from_edges(hub.chain((2..12).map(|leaf| (1, leaf))));
    let query = Pattern::Square.query_graph();
    for sink in [SinkMode::Count, SinkMode::Collect(0)] {
        let config = ClusterConfig::new(1).workers(2).batch_size(1_024);
        let report = HugeCluster::build(graph.clone(), config)
            .unwrap()
            .run(&query, sink)
            .unwrap();
        assert_eq!(report.matches, naive::enumerate(&graph, &query));
        // `extend_rows` = rows into extend 1 (the scan's) + the expansion.
        let expansion = report.comm.extend_rows - 2 * graph.num_edges();
        assert!(
            expansion >= 500 * leaves as u64,
            "{sink:?}: {expansion} rows"
        );
        let column = 4 * expansion;
        let peak = report.peak_memory_bytes;
        assert!(
            4 * peak < column,
            "{sink:?}: peak {peak} vs a {column}-byte column"
        );
        assert_eq!(report.leaked_bytes, 0);
    }
}

#[test]
fn prefix_reuse_is_structural_not_timed() {
    // One scan chunk per machine (≤ 1024 local vertices), so only whole
    // queued batches are ever stolen, and the scan cursor emits its rows in
    // vertex order with any number of workers: the batches, their runs and
    // so `rows − runs` are the same whichever machine extends them, whenever.
    // (Work items are cut per worker count, so the reuses are compared
    // within one.)
    let query = Pattern::FourClique.query_graph();
    let mut matches = Vec::new();
    for workers in [1, 2] {
        let cluster = HugeCluster::build(
            gen::barabasi_albert(1_500, 8, 5),
            ClusterConfig::new(2)
                .workers(workers)
                .batch_size(256)
                .output_queue_rows(1_024),
        )
        .unwrap();
        let runs: Vec<_> = (0..3)
            .map(|_| cluster.run(&query, SinkMode::Count).unwrap())
            .collect();
        let first = &runs[0].comm;
        assert!(0 < first.extend_prefix_reuses && first.extend_prefix_reuses < first.extend_rows);
        for report in &runs[1..] {
            assert_eq!(report.matches, runs[0].matches, "{workers} workers");
            assert_eq!(
                report.comm.extend_rows, first.extend_rows,
                "{workers} workers"
            );
            let reuses = report.comm.extend_prefix_reuses;
            assert_eq!(reuses, first.extend_prefix_reuses, "{workers} workers");
            let calls = report.comm.kernel_invocations();
            assert_eq!(calls, first.kernel_invocations(), "{workers} workers");
        }
        matches.push(runs[0].matches);
    }
    assert_eq!(matches[0], matches[1]);
}

#[test]
fn a_counting_chain_never_queues_a_middle_level_hub_expansion() {
    // q5 (the 5-cycle) as a chain of three extends: scan `(v3, v4)`, then
    // `v2 ∈ N(v3)`, `v1 ∈ N(v2)` and `v0 ∈ N(v1) ∩ N(v4)`. One hub over
    // 1 100 leaves: the first extend turns each `(hub, leaf)` row into one
    // row per leaf of the hub — the second extend's input. Counted or
    // collected, the nest hands that expansion to its second and third
    // levels piece by piece as it is generated, so no queue ever holds it.
    let leaves = 1_100;
    let hub = (2..leaves + 2).map(|leaf| (0, leaf));
    let rim = (2..12).flat_map(|leaf| [(1, leaf), (leaf, leaf + 1)]);
    let graph = Graph::from_edges(hub.chain(rim));
    let query = Pattern::FiveCycle.query_graph();
    let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
    for sink in [SinkMode::Count, SinkMode::Collect(0)] {
        let config = ClusterConfig::new(1).workers(2).batch_size(1_024);
        let report = HugeCluster::build(graph.clone(), config)
            .unwrap()
            .run_with_plan(&plan, sink)
            .unwrap();
        assert_eq!(report.matches, naive::enumerate(&graph, &query));
        // `extend_rows` = rows into extend 1 (at most the scan's) + the
        // expansion + the second extend's few rows of rim leaves.
        let expansion = report.comm.extend_rows - 2 * graph.num_edges();
        assert!(
            expansion >= 500 * leaves as u64,
            "{sink:?}: {expansion} rows"
        );
        let column = 4 * expansion;
        let peak = report.peak_memory_bytes;
        assert!(
            4 * peak < column,
            "{sink:?}: peak {peak} vs a {column}-byte column"
        );
        assert_eq!(report.leaked_bytes, 0);
    }
}

#[test]
fn a_collecting_chain_holds_two_queues_and_one_calls_overflow() {
    // Theorem 5.4 for a materialising chain: q5 (the 5-cycle) as three
    // extends — `v2 ∈ N(v3)`, `v1 ∈ N(v2)`, `v0 ∈ N(v1) ∩ N(v4)` — collected
    // (none kept), on a graph with a hub, 2 workers and small queues. The
    // bound is the one `scheduler.rs` states: the head queue at capacity
    // plus one scan batch; each deeper level's queue, per worker, a piece
    // and one row's candidates at the level above (at most the hub's
    // degree); the terminal queue at capacity plus, per worker, a piece and
    // one row's candidates at the last level.
    let mut edges: Vec<(u32, u32)> = {
        let g = gen::erdos_renyi(100, 700, 11);
        g.vertices()
            .flat_map(|u| g.neighbours(u).iter().map(move |&v| (u, v)))
            .collect()
    };
    edges.extend((0..100).step_by(2).map(|leaf| (100, leaf)));
    let graph = Graph::from_edges(edges);
    let query = Pattern::FiveCycle.query_graph();
    let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
    let (batch, queue, workers) = (8u64, 256u64, 2u64);
    let run = |queue_rows: usize| {
        let config = ClusterConfig::new(1)
            .workers(workers as usize)
            .batch_size(batch as usize)
            .output_queue_rows(queue_rows);
        HugeCluster::build(graph.clone(), config)
            .unwrap()
            .run_with_plan(&plan, SinkMode::Collect(0))
            .unwrap()
    };
    let (bounded, unbounded) = (run(queue as usize), run(usize::MAX / 2));
    let expected = naive::enumerate(&graph, &query);
    assert_eq!((bounded.matches, unbounded.matches), (expected, expected));
    // A row's candidates at the last level are at most `c`, the most
    // neighbours two vertices share. A row of arity a costs at most its a
    // values and a run end: 12 bytes a head row, 16 and 20 at the two
    // deeper levels, 24 a gathered one.
    let common = |u: u32, v: u32| {
        let nv = graph.neighbours(v);
        graph
            .neighbours(u)
            .iter()
            .filter(|w| nv.contains(w))
            .count() as u64
    };
    let vertices: Vec<u32> = graph.vertices().collect();
    let c = (vertices.iter())
        .flat_map(|&u| vertices.iter().map(move |&v| (u, v)))
        .filter(|(u, v)| u < v)
        .map(|(u, v)| common(u, v))
        .max()
        .unwrap();
    let degree = graph.vertices().map(|v| graph.degree(v)).max().unwrap() as u64;
    let levels = (16 + 20) * workers * (batch + degree);
    let bound = 12 * (queue + batch) + levels + 24 * (queue + workers * (batch + c));
    let peak = bounded.peak_memory_bytes;
    assert!(peak <= bound, "peak {peak} over the bound {bound}");
    assert!(
        2 * bound < unbounded.peak_memory_bytes,
        "the bound {bound} must bite: unbounded {}",
        unbounded.peak_memory_bytes
    );
    assert_eq!(bounded.leaked_bytes, 0);
}
