//! The deterministic chaos harness: seeded fault plans (delays, panics at
//! named points, dropped/duplicated/reordered/slowed links), query deadlines
//! and external cancellation thrown at whole-cluster runs. Every run must
//! either match the fault-free result exactly or fail with a clean typed
//! error — no hangs, no leaked tracked bytes, no orphaned spill files.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use huge_core::{
    CancelToken, ClusterConfig, EngineError, Fault, FaultSpec, HugeCluster, PanicPoint, RunOutcome,
    SinkMode,
};
use huge_graph::{gen, Graph};
use huge_query::{naive, Pattern, QueryGraph};
use proptest::prelude::*;

/// Generous per-run watchdog: a healthy chaos run finishes in well under a
/// second; only a genuine hang (the bug class this harness exists to catch)
/// reaches it.
const HANG_TIMEOUT: Duration = Duration::from_secs(60);

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
    (plan, dataflow.segments.len())
}

/// A sparse ring base with a K_{2,m} gadget on two hub vertices: all gadget
/// squares join through one Grace partition, so one machine's join build is
/// much hotter than the other's and partition stealing reliably fires.
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

// ---------------------------------------------------------------------------
// Point panics
// ---------------------------------------------------------------------------

#[test]
fn panic_at_build_and_probe_surface_as_worker_panic() {
    let graph = gen::erdos_renyi(120, 700, 3);
    let query = Pattern::Square.query_graph();
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    for (segment, point) in [(0, PanicPoint::Build), (join_segment, PanicPoint::Probe)] {
        let config =
            ClusterConfig::new(2)
                .workers(1)
                .inject_fault(0, segment, Fault::PanicAt(point));
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let (plan, _) = join_plan(&cluster, &query);
        match cluster.run_with_plan(&plan, SinkMode::Count) {
            Err(EngineError::WorkerPanic(_)) => {}
            other => panic!("PanicAt({point:?}) must surface as WorkerPanic, got {other:?}"),
        }
    }
}

#[test]
fn panic_at_ship_surfaces_as_worker_panic() {
    // Machine 1 stalls on the join segment; machine 0 drains and requests a
    // partition steal, which machine 1 services mid-stall — and the armed
    // ship-point panic fires exactly there.
    let graph = hot_partition_graph(48);
    let query = Pattern::Square.query_graph();
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    let config = ClusterConfig::new(2)
        .workers(1)
        .inject_fault(1, join_segment, Fault::Delay(Duration::from_millis(300)))
        .inject_fault(1, join_segment, Fault::PanicAt(PanicPoint::Ship));
    let cluster = HugeCluster::build(graph, config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    match cluster.run_with_plan(&plan, SinkMode::Count) {
        Err(EngineError::WorkerPanic(_)) => {}
        other => panic!("PanicAt(Ship) must surface as WorkerPanic, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines
// ---------------------------------------------------------------------------

#[test]
fn mid_run_cancel_returns_partial_report_within_bound() {
    // Cancel a skewed join run stuck in an injected straggler stall. The
    // run must unwind cooperatively — a typed error carrying partial stats,
    // within a bounded wall-clock window of the cancel — and the teardown
    // sweep must leave no tracked bytes and no spill files behind. Pipelined
    // or barriered, the one scheduling loop serves the cancel.
    let graph = hot_partition_graph(48);
    let query = Pattern::Square.query_graph();
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    for pipelined in [true, false] {
        let config = ClusterConfig::new(2)
            .workers(1)
            .pipeline_segments(pipelined)
            .inject_fault(1, join_segment, Fault::Delay(Duration::from_secs(5)));
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let (plan, _) = join_plan(&cluster, &query);
        let dataflow = huge_plan::translate::translate(&plan).unwrap();

        let cancel = CancelToken::new();
        let canceller = cancel.clone();
        let cancelled_at = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            canceller.cancel();
            Instant::now()
        });
        let result = cluster.run_dataflow_with_cancel(&dataflow, SinkMode::Count, cancel);
        let returned_at = Instant::now();
        let cancelled_at = cancelled_at.join().unwrap();

        let report = match result {
            Err(EngineError::Cancelled(Some(report))) => report,
            other => panic!("expected Cancelled with a partial report, got {other:?}"),
        };
        let latency = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            latency < Duration::from_secs(3),
            "cancel took {latency:?} to observe (the injected stall was 5s — \
             the run must not wait it out; pipelined = {pipelined})"
        );
        assert_eq!(report.outcome, RunOutcome::Cancelled);
        assert_eq!(
            report.machines.len(),
            2,
            "partial stats cover every machine"
        );
        assert_eq!(
            report.leaked_bytes, 0,
            "ship/queue charges must be released"
        );
        assert_eq!(report.orphaned_spill_files, 0);
    }
}

#[test]
fn deadline_exceeded_carries_partial_report() {
    let graph = hot_partition_graph(32);
    let query = Pattern::Square.query_graph();
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    let config = ClusterConfig::new(2)
        .workers(1)
        .deadline(Duration::from_millis(50))
        .inject_fault(1, join_segment, Fault::Delay(Duration::from_secs(2)));
    let cluster = HugeCluster::build(graph, config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    match cluster.run_with_plan(&plan, SinkMode::Count) {
        Err(EngineError::DeadlineExceeded(Some(report))) => {
            assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
            assert_eq!(report.leaked_bytes, 0);
            assert_eq!(report.orphaned_spill_files, 0);
        }
        other => panic!("expected DeadlineExceeded with a partial report, got {other:?}"),
    }
}

#[test]
fn cancel_with_spilled_joins_leaves_no_spill_files_or_bytes() {
    // Regression for the abort-path leak: a tiny join buffer forces Grace
    // partitions onto disk during the build, then the run is cancelled
    // mid-stall. The teardown sweep must delete every spill file and
    // release every in-flight charge before the report is audited.
    let graph = hot_partition_graph(48);
    let query = Pattern::Square.query_graph();
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    let config = ClusterConfig::new(2)
        .workers(1)
        .join_buffer_bytes(2048)
        .inject_fault(1, join_segment, Fault::Delay(Duration::from_secs(5)));
    let cluster = HugeCluster::build(graph, config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let dataflow = huge_plan::translate::translate(&plan).unwrap();

    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        canceller.cancel();
    });
    match cluster.run_dataflow_with_cancel(&dataflow, SinkMode::Count, cancel) {
        Err(EngineError::Cancelled(Some(report))) => {
            assert_eq!(report.leaked_bytes, 0, "spilled/buffered join bytes leaked");
            assert_eq!(
                report.orphaned_spill_files, 0,
                "spill files survived teardown"
            );
        }
        other => panic!("expected Cancelled with a partial report, got {other:?}"),
    }
}

#[test]
fn cancel_lands_inside_a_deep_counting_nest() {
    // The 5-clique without symmetry breaking, counted on K128 as one chain
    // of three extends: every edge roots the same 1.95 million embeddings,
    // so each of the head's work items (a thousand edges) is about a minute
    // of work even in release. The nest polls the run's token between
    // pieces, so the cancel lands inside a work item.
    let n = 128u64;
    let query = Pattern::FiveClique.query_graph_unordered();
    let config = ClusterConfig::new(1).workers(2);
    let cluster = HugeCluster::build(gen::complete(n as usize), config).unwrap();
    let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
    let dataflow = huge_plan::translate::translate(&plan).unwrap();
    assert_eq!(dataflow.root().extends.len(), 3);

    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    let cancelled_at = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        canceller.cancel();
        Instant::now()
    });
    let result = cluster.run_dataflow_with_cancel(&dataflow, SinkMode::Count, cancel);
    let returned_at = Instant::now();
    let cancelled_at = cancelled_at.join().unwrap();

    let report = match result {
        Err(EngineError::Cancelled(Some(report))) => report,
        other => panic!("expected Cancelled with a partial report, got {other:?}"),
    };
    let latency = returned_at.saturating_duration_since(cancelled_at);
    assert!(latency < Duration::from_secs(1), "cancel took {latency:?}");
    let all = (0..5).map(|i| n - i).product::<u64>();
    assert!(report.matches < all, "the run finished before the cancel");
    assert_eq!(report.outcome, RunOutcome::Cancelled);
    assert_eq!(report.leaked_bytes, 0);
    assert_eq!(report.orphaned_spill_files, 0);
}

// ---------------------------------------------------------------------------
// Fault-plan validation
// ---------------------------------------------------------------------------

#[test]
fn out_of_range_fault_specs_are_rejected() {
    // A machine index beyond the cluster is caught at build time.
    let graph = gen::erdos_renyi(60, 240, 5);
    let config = ClusterConfig::new(2)
        .workers(1)
        .inject_fault(5, 0, Fault::Panic);
    match HugeCluster::build(graph.clone(), config) {
        Err(EngineError::Config(_)) => {}
        Err(other) => panic!("expected a Config error, got {other:?}"),
        Ok(_) => panic!("an out-of-range machine index must be rejected at build"),
    }
    // A segment index beyond the plan is caught when the run knows the
    // segment count — instead of silently never firing.
    let config = ClusterConfig::new(2).workers(1).inject_fault(
        0,
        99,
        Fault::Delay(Duration::from_millis(1)),
    );
    let cluster = HugeCluster::build(graph, config).unwrap();
    match cluster.run(&Pattern::Triangle.query_graph(), SinkMode::Count) {
        Err(EngineError::Config(msg)) => {
            assert!(msg.contains("segment"), "unexpected message: {msg}")
        }
        other => panic!("out-of-range segment index must be rejected, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Lossy transport
// ---------------------------------------------------------------------------

#[test]
fn drop_batch_on_ship_path_recovers_with_retry_ack() {
    // Partition stealing under a lossy link: the straggler's shuffle *and*
    // its partition ships ride a dropping transport, and the ships a
    // duplicating one too. The retry path must recover every envelope and
    // the thief's inbox must reject every duplicate — parity holds, every
    // shipped partition is adopted exactly once, and the retransmit counters
    // show the recovery actually happened.
    let graph = hot_partition_graph(48);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let join_segment = segments - 1;
    let mut config = ClusterConfig::new(2)
        .workers(1)
        .inject_fault(1, join_segment, Fault::Delay(Duration::from_millis(300)))
        // The ship path: machine 1's PartitionShip control envelopes.
        .inject_fault(1, join_segment, Fault::DropBatch { ppm: 400_000 })
        .inject_fault(1, join_segment, Fault::DuplicateBatch { ppm: 1_000_000 });
    // The data path: every producing segment's shuffle, from both senders.
    for segment in 0..join_segment {
        for machine in 0..2 {
            config = config.inject_fault(machine, segment, Fault::DropBatch { ppm: 300_000 });
        }
    }
    let cluster = HugeCluster::build(graph, config).unwrap();
    let (plan, _) = join_plan(&cluster, &query);
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected, "parity under a dropping link");
    assert!(
        report.join.partitions_stolen > 0,
        "the drained machine never stole a partition: {:?}",
        report.join
    );
    assert_eq!(
        report.join.partitions_shipped, report.join.partitions_stolen,
        "every shipped partition must be adopted exactly once (inbox dedup)"
    );
    assert!(report.comm.transport_dups > 0, "no ship was duplicated");
    assert_eq!(
        report.comm.dedup_drops, report.comm.transport_dups,
        "every duplicated ship must be rejected by the thief's inbox"
    );
    assert!(report.comm.transport_drops > 0, "the fault never fired");
    assert!(
        report.comm.retransmits > 0,
        "drops were never retransmitted"
    );
    assert_eq!(report.leaked_bytes, 0);
    assert_eq!(report.orphaned_spill_files, 0);
}

#[test]
fn lossy_transport_preserves_parity_with_retransmits() {
    // Each transport fault kind on its own, then all four at once, on every
    // sender of every producing segment: drops retransmit, duplicates dedup,
    // reorders and slow links deliver late — and the result is bit-identical,
    // with nothing leaked.
    let graph = gen::erdos_renyi(200, 1100, 17);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(3).workers(1)).unwrap();
    let (_, segments) = join_plan(&probe, &query);
    let drop = Fault::DropBatch { ppm: 200_000 };
    let duplicate = Fault::DuplicateBatch { ppm: 200_000 };
    let reorder = Fault::ReorderWindow { window: 4 };
    let slow = Fault::SlowLink {
        delay: Duration::from_millis(2),
    };
    let mixes: [&[Fault]; 5] = [
        &[drop],
        &[duplicate],
        &[reorder],
        &[slow],
        &[drop, duplicate, reorder, slow],
    ];
    for mix in mixes {
        let mut config = ClusterConfig::new(3).workers(1).fault_seed(0xC0FFEE);
        for segment in 0..segments {
            for machine in 0..3 {
                for &fault in mix {
                    config = config.inject_fault(machine, segment, fault);
                }
            }
        }
        let cluster = HugeCluster::build(graph.clone(), config).unwrap();
        let (plan, _) = join_plan(&cluster, &query);
        let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
        assert_eq!(report.matches, expected, "parity under {mix:?}");
        if mix.contains(&drop) {
            assert!(report.comm.transport_drops > 0, "{mix:?} never dropped");
            assert!(report.comm.retransmits > 0, "{mix:?} never retransmitted");
        }
        assert_eq!(
            report.comm.dedup_drops, report.comm.transport_dups,
            "every duplicated envelope must be deduplicated by its receiver ({mix:?})"
        );
        assert_eq!(report.leaked_bytes, 0, "{mix:?}");
        assert_eq!(report.orphaned_spill_files, 0, "{mix:?}");
    }
}

// ---------------------------------------------------------------------------
// The seeded chaos property
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a deterministic fault plan from a seed: a mix of stalls,
/// transport faults and (occasionally) panics, every index in range.
fn gen_fault_plan(seed: u64, machines: usize, segments: usize, n: usize) -> Vec<FaultSpec> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let machine = (splitmix(&mut s) % machines as u64) as usize;
            let segment = (splitmix(&mut s) % segments as u64) as usize;
            let fault = match splitmix(&mut s) % 10 {
                0 | 1 => Fault::Delay(Duration::from_millis(1 + splitmix(&mut s) % 20)),
                2 | 3 => Fault::DropBatch {
                    ppm: (splitmix(&mut s) % 400_000) as u32,
                },
                4 => Fault::DuplicateBatch {
                    ppm: (splitmix(&mut s) % 400_000) as u32,
                },
                5 => Fault::ReorderWindow {
                    window: 1 + (splitmix(&mut s) % 8) as usize,
                },
                6 => Fault::SlowLink {
                    delay: Duration::from_millis(1 + splitmix(&mut s) % 5),
                },
                7 => Fault::PanicAt(match splitmix(&mut s) % 3 {
                    0 => PanicPoint::Build,
                    1 => PanicPoint::Probe,
                    _ => PanicPoint::Ship,
                }),
                8 => Fault::Panic,
                _ => Fault::Delay(Duration::from_millis(splitmix(&mut s) % 10)),
            };
            FaultSpec {
                machine,
                segment,
                fault,
            }
        })
        .collect()
}

/// One chaos case: run the query under a seeded fault plan (optionally with
/// a tight deadline) on its own thread with a hang watchdog, then hold the
/// outcome to the contract — exact parity or a clean typed error, and a
/// leak-free teardown either way.
#[allow(clippy::too_many_arguments)]
fn chaos_case(
    graph: Graph,
    pattern: Pattern,
    machines: usize,
    seed: u64,
    nfaults: usize,
    force_joins: bool,
    with_deadline: bool,
) {
    let query = pattern.query_graph();
    let expected = naive::enumerate(&graph, &query);
    // Discover the segment count of the plan this case will execute, so the
    // generated fault plan always passes segment validation.
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(machines).workers(1)).unwrap();
    let segments = if force_joins {
        join_plan(&probe, &query).1
    } else {
        let plan = probe.plan(&query).unwrap();
        huge_plan::translate::translate(&plan)
            .unwrap()
            .segments
            .len()
    };
    let fault_plan = gen_fault_plan(seed, machines, segments, nfaults);
    let mut config = ClusterConfig::new(machines)
        .workers(1)
        .fault_seed(seed)
        .fault_plan(fault_plan);
    if with_deadline {
        config = config.deadline(Duration::from_millis(150));
    }

    // The run gets its own thread so a hang is detected (and failed) instead
    // of wedging the suite.
    let (tx, rx) = mpsc::channel();
    let thread_query = query.clone();
    std::thread::spawn(move || {
        let cluster = HugeCluster::build(graph, config).unwrap();
        let result = if force_joins {
            let (plan, _) = join_plan(&cluster, &thread_query);
            cluster.run_with_plan(&plan, SinkMode::Count)
        } else {
            cluster.run(&thread_query, SinkMode::Count)
        };
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(HANG_TIMEOUT)
        .expect("chaos run hung (no result within the watchdog window)");

    match result {
        Ok(report) => {
            assert_eq!(
                report.matches, expected,
                "a surviving run must match the fault-free result (seed {seed})"
            );
            assert_eq!(report.outcome, RunOutcome::Completed);
            assert_eq!(report.leaked_bytes, 0, "tracked bytes leaked (seed {seed})");
            assert_eq!(
                report.orphaned_spill_files, 0,
                "spill files leaked (seed {seed})"
            );
        }
        Err(EngineError::Cancelled(Some(report))) => {
            assert_eq!(report.outcome, RunOutcome::Cancelled);
            assert_eq!(report.leaked_bytes, 0, "tracked bytes leaked (seed {seed})");
            assert_eq!(report.orphaned_spill_files, 0);
        }
        Err(EngineError::DeadlineExceeded(Some(report))) => {
            assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
            assert_eq!(report.leaked_bytes, 0, "tracked bytes leaked (seed {seed})");
            assert_eq!(report.orphaned_spill_files, 0);
        }
        // Injected panics tear the run down through the abort protocol.
        Err(EngineError::WorkerPanic(_)) => {}
        // Total link loss may exhaust the bounded retries.
        Err(EngineError::Transport(_)) => {}
        Err(other) => panic!("chaos run failed with an unexpected error: {other:?} (seed {seed})"),
    }
}

proptest! {
    // Every case is a whole-cluster run; CI caps the count through
    // PROPTEST_CASES. Locally the suite performs 64 seeded fault-plan runs.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chaos contract: random plans × machine counts × seeded fault
    /// plans × deadlines either reproduce the fault-free result exactly or
    /// fail with a clean typed error — never a hang, never a leak.
    #[test]
    fn chaos_runs_are_parity_or_clean_typed_error(
        graph in prop::collection::vec((0u32..60, 0u32..60), 10..250)
            .prop_map(Graph::from_edges)
            .prop_filter("need some edges", |g| g.num_edges() >= 5),
        pattern in prop_oneof![
            Just(Pattern::Triangle),
            Just(Pattern::Square),
            Just(Pattern::ChordalSquare),
            Just(Pattern::Path(4)),
        ],
        machines in 1usize..4,
        seed in 0u64..u64::MAX,
        nfaults in 0usize..4,
        force_joins in 0u32..2,
        deadline_sel in 0u32..8,
    ) {
        chaos_case(
            graph,
            pattern,
            machines,
            seed,
            nfaults,
            force_joins == 1,
            deadline_sel == 0,
        );
    }
}
