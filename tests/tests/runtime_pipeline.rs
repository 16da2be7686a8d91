//! Integration tests of the event-driven pipelined runtime: the per-machine
//! dataflow scheduler (cross-segment pipelining, the barrier gate, abort
//! propagation), the persistent worker pool, the bounded notifying
//! router, the count-only sink and the steal accounting hand-off.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_baselines::Baseline;
use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, Router};
use huge_core::memory::MemoryTracker;
use huge_core::pool::WorkerPool;
use huge_core::scheduler::SharedQueue;
use huge_core::{ClusterConfig, Fault, HugeCluster, LoadBalance, SinkMode};
use huge_graph::{gen, Graph};
use huge_plan::translate::SegmentSource;
use huge_query::{naive, Pattern, QueryGraph};

/// A multi-segment (PUSH-JOIN) plan for `query` on `cluster`: pulling is
/// disabled so the optimiser must decompose the query into join segments.
fn join_plan(
    cluster: &HugeCluster,
    query: &QueryGraph,
) -> (huge_plan::logical::ExecutionPlan, usize) {
    let plan = cluster
        .plan_with_options(
            query,
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
    (plan, dataflow.segments.len())
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

#[test]
fn pool_serves_concurrent_runs_from_many_threads() {
    // Hammer one pool with concurrent `run` calls from many threads (the
    // pool serves them one at a time); every item must be processed exactly
    // once per run, and the pool must never spawn more than its configured
    // worker threads.
    let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let pool = pool.clone();
            scope.spawn(move || {
                for _round in 0u64..30 {
                    let items: Vec<u64> = (0..256).collect();
                    let run = pool.run(items, |x, out| out.push(x * 2 + t));
                    let mut flat = run.into_flat();
                    flat.sort_unstable();
                    assert_eq!(flat.len(), 256);
                    assert_eq!(flat[0], t);
                    assert_eq!(flat[255], 510 + t);
                }
            });
        }
    });
    // Workers were created once and reused across all 240 runs.
    assert_eq!(pool.threads_spawned(), 4);
}

// ---------------------------------------------------------------------------
// Bounded, notifying router
// ---------------------------------------------------------------------------

#[test]
fn bounded_router_backpressure_terminates_with_parked_consumer() {
    // A tiny inbox (8 rows) and a producer shipping 200 batches of 4 rows:
    // the producer must block on backpressure, the parked consumer must be
    // woken by pushes, and the whole exchange must terminate.
    const BATCHES: usize = 200;
    let stats = ClusterStats::new(2);
    let router = Router::with_capacity(2, stats, 8);
    let producer = router.endpoint(0);
    let consumer = router.endpoint(1);
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let done_consumer = Arc::clone(&done);
        let consume = scope.spawn(move || {
            let mut rows = 0usize;
            loop {
                // The epoch is read before the checks, so the producer's
                // final nudge cannot slip in between them and the park.
                let seen = consumer.wake_epoch();
                if done_consumer.load(Ordering::SeqCst) && !consumer.has_data() {
                    return rows;
                }
                // Park on the notify handle instead of spinning.
                if consumer.wait_data(seen, Duration::from_millis(20)) {
                    while let Some(env) = consumer.try_recv() {
                        rows += env.batch.len();
                    }
                }
            }
        });
        for i in 0..BATCHES {
            // Blocking push: waits for space when the inbox is full.
            producer.push(1, 3, ColBatch::from_columns(vec![vec![i as u32; 4]]));
        }
        done.store(true, Ordering::SeqCst);
        producer.wake(1);
        assert_eq!(consume.join().unwrap(), BATCHES * 4);
    });
}

// ---------------------------------------------------------------------------
// Steal accounting
// ---------------------------------------------------------------------------

#[test]
fn steal_hand_off_conserves_cluster_wide_memory_accounting() {
    // Concurrent thieves move batches between queues while consumers pop:
    // at every quiescent point the sum of the trackers' `current()` must
    // equal the bytes actually enqueued, and it must never undercount while
    // steals are in flight (the thief registers before the victim releases).
    let trackers: Vec<Arc<MemoryTracker>> =
        (0..2).map(|_| Arc::new(MemoryTracker::new())).collect();
    let victim = SharedQueue::new(usize::MAX / 2, Some(Arc::clone(&trackers[0])));
    let thief = SharedQueue::new(usize::MAX / 2, Some(Arc::clone(&trackers[1])));
    let mut total_bytes = 0u64;
    for i in 0..256 {
        let batch = huge_comm::ColBatch::from_columns(vec![vec![i as u32; (i % 7) + 1]]);
        total_bytes += batch.byte_size();
        victim.push(batch);
    }
    std::thread::scope(|scope| {
        let stealing = scope.spawn(|| {
            for _ in 0..64 {
                victim.steal_into(&thief);
                thief.steal_into(&victim);
            }
        });
        // While steals are in flight, the cluster-wide sum may transiently
        // double-count the one batch mid-hand-off (at most 28 bytes here)
        // but must never undercount the bytes actually held.
        for _ in 0..1000 {
            let sum: u64 = trackers.iter().map(|t| t.current()).sum();
            assert!(sum >= total_bytes, "undercounted: {sum} < {total_bytes}");
            assert!(sum <= total_bytes + 32, "overcounted: {sum}");
        }
        stealing.join().unwrap();
    });
    // Quiescent: conservation must be exact.
    let sum: u64 = trackers.iter().map(|t| t.current()).sum();
    assert_eq!(sum, total_bytes);
    // Draining both queues returns every tracker to zero.
    while victim.pop().is_some() {}
    while thief.pop().is_some() {}
    assert_eq!(trackers[0].current() + trackers[1].current(), 0);
}

// ---------------------------------------------------------------------------
// Count-only sink
// ---------------------------------------------------------------------------

#[test]
fn count_only_sink_matches_collect_on_paths() {
    let graph = gen::erdos_renyi(400, 2_400, 77);
    let query = Pattern::Path(5).query_graph();
    let expected = naive::enumerate(&graph, &query);
    let cluster = HugeCluster::build(graph, ClusterConfig::new(2).workers(2)).unwrap();
    let counted = cluster.run(&query, SinkMode::Count).unwrap();
    let collected = cluster.run(&query, SinkMode::Collect(5)).unwrap();
    assert_eq!(counted.matches, expected);
    assert_eq!(collected.matches, expected);
    assert!(!collected.sample_matches.is_empty());
    // The count-only run never materialises the final extension column, so
    // its peak intermediate memory cannot exceed the collecting run's.
    assert!(counted.peak_memory_bytes <= collected.peak_memory_bytes);
}

// ---------------------------------------------------------------------------
// Cross-engine parity
// ---------------------------------------------------------------------------

#[test]
fn all_five_engines_agree_and_account_comparable_traffic() {
    let graph = gen::erdos_renyi(150, 800, 9);
    let config = ClusterConfig::new(3).workers(1);
    for pattern in [Pattern::Triangle, Pattern::Square] {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let huge = HugeCluster::build(graph.clone(), config.clone())
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(huge.matches, expected, "HUGE on {pattern:?}");
        // Parity must hold with cross-segment pipelining off, too.
        let barriered = HugeCluster::build(graph.clone(), config.clone().pipeline_segments(false))
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(barriered.matches, expected, "barriered HUGE on {pattern:?}");
        let mut pushed = Vec::new();
        for baseline in Baseline::ALL {
            let report = baseline.run(&graph, &query, &config).unwrap();
            assert_eq!(
                report.matches,
                expected,
                "{} on {:?}",
                baseline.name(),
                pattern
            );
            pushed.push((baseline, report.comm.bytes_pushed));
        }
        // The pushing engines (StarJoin, SEED, BiGJoin) must report traffic
        // through the shared accounted router; the pulling engines (BENU,
        // RADS) must push nothing.
        for (baseline, bytes) in pushed {
            match baseline {
                Baseline::StarJoin | Baseline::Seed | Baseline::BigJoin => {
                    assert!(bytes > 0, "{} pushed no bytes", baseline.name())
                }
                Baseline::Benu | Baseline::Rads => {
                    assert_eq!(bytes, 0, "{} should pull, not push", baseline.name())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The machine loop parks (no spinning) and still terminates
// ---------------------------------------------------------------------------

#[test]
fn push_join_plans_pipeline_through_the_bounded_router() {
    // Force PUSH-JOIN segments with a small router inbox: the producing
    // segments must stream their shuffles through backpressure into the
    // pre-built joins and still count correctly. A one-row inbox bounces
    // every cross-machine push, so each one blocks and is resumed by the
    // run driver — pipelined and barriered, counting and materialising.
    let graph = gen::erdos_renyi(250, 1_200, 31);
    let query = Pattern::Path(4).query_graph();
    let expected = naive::enumerate(&graph, &query);
    for inbox_rows in [1, 512] {
        for pipelined in [true, false] {
            let cluster = HugeCluster::build(
                graph.clone(),
                ClusterConfig::new(3)
                    .workers(2)
                    .batch_size(256)
                    .router_queue_rows(inbox_rows)
                    .pipeline_segments(pipelined)
                    .join_buffer_bytes(8 * 1024),
            )
            .unwrap();
            let (plan, _) = join_plan(&cluster, &query);
            for sink in [SinkMode::Count, SinkMode::Collect(usize::MAX)] {
                let case = format!("inbox {inbox_rows}, pipelined {pipelined}, {sink:?}");
                let report = cluster.run_with_plan(&plan, sink).unwrap();
                assert_eq!(report.matches, expected, "{case}");
                if sink != SinkMode::Count {
                    assert_eq!(report.sample_matches.len() as u64, expected, "{case}");
                }
                assert!(report.comm.bytes_pushed > 0, "{case}");
                assert_eq!(report.leaked_bytes, 0, "{case}");
                assert_eq!(report.orphaned_spill_files, 0, "{case}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-segment pipelining: the per-machine dataflow scheduler
// ---------------------------------------------------------------------------

#[test]
fn multi_segment_plan_counts_the_same_pipelined_and_barriered() {
    let graph = gen::erdos_renyi(200, 1_000, 17);
    let query = Pattern::Path(4).query_graph();
    let expected = naive::enumerate(&graph, &query);

    let cluster = HugeCluster::build(graph.clone(), ClusterConfig::new(3).workers(1)).unwrap();
    let (plan, segments) = join_plan(&cluster, &query);
    assert!(segments >= 3, "want a multi-segment plan, got {segments}");
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(report.pipelined);

    let barriered = HugeCluster::build(
        graph,
        ClusterConfig::new(3).workers(1).pipeline_segments(false),
    )
    .unwrap();
    let report = barriered.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(!report.pipelined);
}

#[test]
fn segments_overlap_across_machines_without_barriers() {
    // Make machine 1 a deterministic straggler on segment 0 (a producing
    // scan segment). Without barriers, machine 0 must move on to segment 1
    // while machine 1 is still inside segment 0 — the spans of the two
    // segments overlap. With barriers they cannot.
    let delay = Duration::from_millis(150);
    let graph = gen::erdos_renyi(120, 500, 23);
    let query = Pattern::Path(4).query_graph();
    let expected = naive::enumerate(&graph, &query);

    let overlap_of = |pipelined: bool| {
        let config = ClusterConfig::new(2)
            .workers(1)
            .pipeline_segments(pipelined)
            .inject_fault(1, 0, Fault::Delay(delay));
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let (plan, segments) = join_plan(&cluster, &query);
        assert!(segments >= 3);
        let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
        assert_eq!(report.matches, expected);
        let m0_seg1_start = report.machines[0].segment_spans[1]
            .expect("m0 ran segment 1")
            .0;
        let m1_seg0_end = report.machines[1].segment_spans[0]
            .expect("m1 ran segment 0")
            .1;
        (m0_seg1_start, m1_seg0_end)
    };

    // Pipelined: machine 0 starts segment 1 while machine 1 (sleeping
    // `delay` before its segment-0 work) has not finished segment 0.
    let (start1, end0) = overlap_of(true);
    assert!(
        start1 < end0,
        "expected overlap: m0 started segment 1 at {start1:?}, m1 finished segment 0 at {end0:?}"
    );
    // Barriered: no machine may start segment 1 before every machine
    // finished segment 0.
    let (start1, end0) = overlap_of(false);
    assert!(
        start1 >= end0,
        "barriered run must not overlap: m0 started segment 1 at {start1:?}, m1 finished segment 0 at {end0:?}"
    );
}

#[test]
fn panicking_machine_aborts_the_whole_pipelined_run() {
    // Machine 0 panics in segment 0 while its peers park waiting for the
    // join segment's producers (pipelined) or behind the barrier gate
    // (barriered): the abort must propagate and unblock them instead of
    // deadlocking the run.
    let graph = gen::erdos_renyi(150, 700, 29);
    let query = Pattern::Path(4).query_graph();
    for pipelined in [true, false] {
        let cluster = HugeCluster::build(
            graph.clone(),
            ClusterConfig::new(3)
                .workers(1)
                .router_queue_rows(256)
                .pipeline_segments(pipelined)
                .inject_fault(0, 0, Fault::Panic),
        )
        .unwrap();
        let (plan, segments) = join_plan(&cluster, &query);
        assert!(segments >= 3);
        let start = Instant::now();
        let result = cluster.run_with_plan(&plan, SinkMode::Count);
        let err = result.expect_err("an injected panic must fail the run");
        assert!(
            matches!(err, huge_core::EngineError::WorkerPanic(_)),
            "unexpected error (pipelined = {pipelined}): {err}"
        );
        // Peers parked in later segments were woken, not left hanging.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "abort propagation took {:?} (pipelined = {pipelined})",
            start.elapsed()
        );
    }
}

// ---------------------------------------------------------------------------
// Skew-proof joins: Grace partition stealing; end-of-stream ordering
// ---------------------------------------------------------------------------

/// A sparse ring base with a K_{2,m} gadget implanted on two fresh hub
/// vertices: the `m` gadget squares all join through the single Grace
/// partition the (hub, hub) key pair hashes into, so one machine's join
/// build is massively hotter than the other's.
fn hot_partition_graph(m: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..120u32 {
        edges.push((v, (v + 1) % 120));
        edges.push((v, (v + 7) % 120));
    }
    let (u, w) = (200u32, 201u32);
    for i in 0..m {
        edges.push((u, 300 + i));
        edges.push((w, 300 + i));
    }
    Graph::from_edges(edges)
}

#[test]
fn delayed_join_segment_ships_partitions_to_the_finished_machine() {
    // Machine 1 sleeps before probing its join partitions; machine 0
    // finishes its own probe, drains, and must pull sealed-but-unprobed
    // partitions out of the sleeping victim through the router's control
    // plane. Every shipped partition must be adopted exactly once.
    let graph = hot_partition_graph(48);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);

    // The root join is the deepest (= last) segment of the plan.
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;

    let config = ClusterConfig::new(2).workers(1).inject_fault(
        1,
        join_segment,
        Fault::Delay(Duration::from_millis(300)),
    );
    let cluster = HugeCluster::build(graph.clone(), config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(
        report.join.partitions_stolen > 0,
        "the drained machine never stole a partition: {:?}",
        report.join
    );
    assert_eq!(
        report.join.partitions_shipped, report.join.partitions_stolen,
        "every shipped partition must be adopted exactly once"
    );
    assert!(report.join.shipped_bytes > 0);

    // The same straggler with stealing disabled: parity must survive, but
    // no partition may move.
    let config = ClusterConfig::new(2)
        .workers(1)
        .load_balance(LoadBalance::None)
        .inject_fault(1, join_segment, Fault::Delay(Duration::from_millis(300)));
    let cluster = HugeCluster::build(graph, config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert_eq!(report.join.partitions_stolen, 0);
    assert_eq!(report.join.partitions_shipped, 0);
}

#[test]
fn all_engines_agree_on_the_hot_partition_graph_with_stealing_forced_on() {
    let graph = hot_partition_graph(64);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let config = ClusterConfig::new(2).workers(1);
    let cluster = HugeCluster::build(graph.clone(), config.clone()).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let huge = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(huge.matches, expected, "HUGE on the hot-partition graph");
    for baseline in Baseline::ALL {
        let report = baseline.run(&graph, &query, &config).unwrap();
        assert_eq!(
            report.matches,
            expected,
            "{} disagrees on the hot-partition graph",
            baseline.name()
        );
    }
}

#[test]
fn a_delayed_producer_never_lets_a_consumer_seal_early() {
    // Delay a straggler's left producer, then its right one. The release
    // counters are the one end-of-stream signal: on every machine the join
    // may start — seal its right side — only once every machine, the
    // straggler included, has finished the right producer, and it may seal
    // its left side only once every machine finished the left one, so it
    // cannot finish before that. (A row arriving after its side sealed
    // would fail the run.)
    let graph = gen::erdos_renyi(120, 500, 23);
    let query = Pattern::Path(4).query_graph();
    let expected = naive::enumerate(&graph, &query);
    for delayed in 0..2 {
        let config = ClusterConfig::new(2).workers(1).inject_fault(
            1,
            delayed,
            Fault::Delay(Duration::from_millis(100)),
        );
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let (plan, segments) = join_plan(&cluster, &query);
        assert_eq!(segments, 3, "two producing scans into one join");
        let dataflow = huge_plan::translate::translate(&plan).unwrap();
        let SegmentSource::Join(op) = &dataflow.segments[2].source else {
            panic!("segment 2 is the join");
        };
        let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
        assert_eq!(report.matches, expected);
        let span = |machine: usize, segment: usize| {
            report.machines[machine].segment_spans[segment]
                .unwrap_or_else(|| panic!("machine {machine} never ran segment {segment}"))
        };
        for consumer in 0..2 {
            let (join_start, join_end) = span(consumer, 2);
            for producer in 0..2 {
                let right_end = span(producer, op.right).1;
                assert!(
                    join_start >= right_end,
                    "delayed segment {delayed}: machine {consumer} started the join at \
                     {join_start:?}, before machine {producer} finished the right producer \
                     at {right_end:?}"
                );
                let left_end = span(producer, op.left).1;
                assert!(
                    join_end >= left_end,
                    "delayed segment {delayed}: machine {consumer} finished the join at \
                     {join_end:?}, before machine {producer} finished the left producer \
                     at {left_end:?}"
                );
            }
        }
    }
}

#[test]
fn a_drained_producer_is_released_before_the_next_one_is_half_done() {
    // q7 on a grid: the right producer (2-paths) is a fraction of the left
    // one (3-paths). A machine that drained the right producer early goes
    // idle on it and starts the left one; once its peer finishes the right
    // producer too, the machine must release it at its next clean point —
    // not when its own left chain returns — so the join's build side seals
    // while the left producer is still young. Counted in rows, not time:
    // left rows that land before the right seal wait unprobed and unpaced,
    // so a late release makes a machine hold most of its left rows at once,
    // where a prompt one holds about an inbox's worth. (Stealing stays on:
    // without it a drained segment completes at once, never `Draining`.)
    let graph = gen::grid(120, 120, 0, 7);
    let config = ClusterConfig::new(2)
        .workers(1)
        .batch_size(256)
        .output_queue_rows(1024)
        .router_queue_rows(4096);
    let cluster = HugeCluster::build(graph, config).unwrap();
    let query = Pattern::paper(7).unwrap().query_graph();
    let dataflow = huge_plan::translate::translate(&cluster.plan(&query).unwrap()).unwrap();
    let SegmentSource::Join(op) = &dataflow.segments.last().unwrap().source else {
        panic!("q7's root is its PUSH-JOIN");
    };
    let left_arity = dataflow.segments[op.left].schema.len() as u64;
    let report = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
    let barriered = HugeCluster::build(
        gen::grid(120, 120, 0, 7),
        ClusterConfig::new(2).workers(1).pipeline_segments(false),
    )
    .unwrap();
    let reference = barriered.run_dataflow(&dataflow, SinkMode::Count).unwrap();
    assert_eq!(report.matches, reference.matches);
    for m in &report.machines {
        let left_bytes = (m.join.streamed_rows + m.join.deferred_rows) * left_arity * 4;
        assert!(
            m.peak_memory_bytes < left_bytes / 2,
            "machine {} peaked at {} bytes against {left_bytes} bytes of left rows",
            m.machine,
            m.peak_memory_bytes
        );
    }
}

#[test]
fn a_join_plan_at_65_machines_with_stealing_on_agrees_with_naive() {
    // Partition stealing has no cluster-size limit (a thief's tried-peers
    // marks are one flag per machine, not a 64-bit mask).
    let graph = gen::erdos_renyi(200, 1_100, 17);
    let query = Pattern::Path(5).query_graph();
    let expected = naive::enumerate(&graph, &query);
    let cluster = HugeCluster::build(graph, ClusterConfig::new(65).workers(1)).unwrap();
    let dataflow = huge_plan::translate::translate(&cluster.plan(&query).unwrap()).unwrap();
    assert_eq!((dataflow.segments.len(), dataflow.num_joins()), (3, 1));
    let report = cluster.run_dataflow(&dataflow, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert_eq!(report.leaked_bytes, 0);
    assert_eq!(report.orphaned_spill_files, 0);
}

#[test]
fn ship_hand_off_conserves_cluster_wide_memory_accounting() {
    // The PartitionShip protocol keeps the victim charged for a shipped
    // partition until the thief's ShipAck arrives, and the thief allocates
    // before acking: cluster-wide accounting may transiently double-count
    // the one partition in flight but must never undercount, and must be
    // exact once the hand-offs quiesce. Each side moves its counter under
    // `hand_off`, and the checker reads both under it: one instant, not two
    // reads that any number of hand-offs could land between.
    const PARTITIONS: u64 = 64;
    const BYTES: u64 = 1_024;
    let victim = Arc::new(MemoryTracker::new());
    let thief = Arc::new(MemoryTracker::new());
    victim.allocate(PARTITIONS * BYTES);
    let hand_off = std::sync::Mutex::new(());
    let (ship_tx, ship_rx) = std::sync::mpsc::channel::<u64>();
    let (ack_tx, ack_rx) = std::sync::mpsc::channel::<u64>();
    std::thread::scope(|scope| {
        let (thief_side, hand_off) = (Arc::clone(&thief), &hand_off);
        scope.spawn(move || {
            // Thief: allocate on receipt, then ack — never the other order.
            for bytes in ship_rx {
                {
                    let _moving = hand_off.lock().unwrap();
                    thief_side.allocate(bytes);
                }
                ack_tx.send(bytes).unwrap();
            }
        });
        let victim_side = Arc::clone(&victim);
        scope.spawn(move || {
            // Victim: ship, keep the charge until the ack comes back.
            for _ in 0..PARTITIONS {
                ship_tx.send(BYTES).unwrap();
                let acked = ack_rx.recv().unwrap();
                let _moving = hand_off.lock().unwrap();
                victim_side.release(acked);
            }
        });
        for _ in 0..10_000 {
            let sum = {
                let _reading = hand_off.lock().unwrap();
                victim.current() + thief.current()
            };
            assert!(sum >= PARTITIONS * BYTES, "undercounted: {sum}");
            assert!(sum <= (PARTITIONS + 1) * BYTES, "overcounted: {sum}");
        }
    });
    assert_eq!(victim.current(), 0);
    assert_eq!(thief.current(), PARTITIONS * BYTES);
}

#[test]
fn skewed_partitions_finish_via_stealing_and_pipelining() {
    // A graph whose edges concentrate on the vertices machine 1 owns
    // (odd ids under the modulo partitioner): the pipelined run with
    // stealing must still match the reference count.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for a in (1..81u32).step_by(2) {
        for b in ((a + 2)..81).step_by(2) {
            edges.push((a, b));
        }
    }
    edges.extend([(0, 2), (2, 4), (4, 6), (0, 1), (2, 3)]);
    let graph = Graph::from_edges(edges);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let cluster = HugeCluster::build(graph, ClusterConfig::new(2).workers(2)).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    assert!(report.pipelined);
}
