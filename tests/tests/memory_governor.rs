//! Integration tests of the memory governor: the bounded-memory adaptive
//! scheduling subsystem (the paper's Exp-7 trade-off as an online
//! controller).
//!
//! The governed guarantee under test: with a byte budget set, a run
//! completes with *identical results* while its peak tracked memory stays
//! within the per-machine budget plus one output batch of slack (every
//! flow-control point may overflow by at most one batch, §5.2) plus the one
//! resident Grace partition a streaming join needs as working set.

use huge_baselines::Baseline;
use huge_core::{ClusterConfig, HugeCluster, PressureLevel, SinkMode};
use huge_graph::gen;
use huge_plan::optimizer::OptimizerOptions;
use huge_query::{naive, Pattern};
use proptest::prelude::*;

/// The skewed-join workload: a power-law graph whose square query compiles
/// (with pulling disabled) into a multi-segment `PUSH-JOIN` plan with a
/// large 2-path intermediate on the hub machine.
fn skewed_join_setup() -> (
    huge_graph::Graph,
    huge_plan::logical::ExecutionPlan,
    ClusterConfig,
) {
    let graph = gen::barabasi_albert(2_000, 12, 3);
    let config = ClusterConfig::new(2).workers(2).batch_size(1_000);
    let plan = HugeCluster::build(graph.clone(), config.clone())
        .unwrap()
        .plan_with_options(
            &Pattern::Square.query_graph(),
            OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )
        .unwrap();
    (graph, plan, config)
}

#[test]
fn governed_peak_respects_the_budget_on_a_skewed_join_plan() {
    let (graph, plan, config) = skewed_join_setup();
    let ungoverned = HugeCluster::build(graph.clone(), config.clone())
        .unwrap()
        .run_with_plan(&plan, SinkMode::Count)
        .unwrap();
    assert!(ungoverned.governor.is_none(), "no budget, no governor");
    let natural_peak = ungoverned.peak_memory_bytes;
    assert!(natural_peak > 0);

    // Budget: half the natural peak, per machine.
    let budget = natural_peak / 2;
    let batch_rows = config.batch_size as u64;
    let governed = HugeCluster::build(
        graph.clone(),
        config.clone().memory_budget_per_machine(budget),
    )
    .unwrap()
    .run_with_plan(&plan, SinkMode::Count)
    .unwrap();

    // Identical results — also further down the budget sweep, where only
    // the count is held fixed (peaks there are the ledger's
    // `governor.peak_over_budget`).
    assert_eq!(governed.matches, ungoverned.matches);
    for divisor in [4, 8] {
        let tighter = config
            .clone()
            .memory_budget_per_machine(natural_peak / divisor);
        let report = HugeCluster::build(graph.clone(), tighter)
            .unwrap()
            .run_with_plan(&plan, SinkMode::Count)
            .unwrap();
        assert_eq!(report.matches, ungoverned.matches, "budget 1/{divisor}");
    }

    // Bounded memory: budget + slack. The slack has two terms, mirroring
    // the runtime's actual bound: (a) one output batch per flow-control
    // point (configured-size batches of ≤4 u32 columns across the ≤16
    // overflow points that can each hold one batch when the ladder trips —
    // the paper's overflow-by-at-most-one-batch argument), and (b) the
    // single resident Grace partition a streaming join must hold to make
    // progress (the paper bounds join memory by the partition size; one of
    // 16 partitions of the materialised intermediates, conservatively
    // natural_peak / 16).
    let batch_slack: u64 = batch_rows * 4 * 4 * 16;
    let partition_slack = natural_peak / 16;
    let slack = batch_slack + partition_slack;
    assert!(
        governed.peak_memory_bytes <= budget + slack,
        "governed peak {} exceeds budget {budget} + slack {slack}",
        governed.peak_memory_bytes
    );
    assert!(
        governed.peak_memory_bytes * 10 <= natural_peak * 7,
        "governing at half budget should cut the peak well below the \
         natural one: {} vs {natural_peak}",
        governed.peak_memory_bytes
    );

    // The report records what the controller did.
    let gov = governed.governor.expect("budgeted run carries a report");
    assert_eq!(gov.machine_budget_bytes, budget);
    assert_eq!(gov.peak_bytes, governed.peak_memory_bytes);
    assert!(gov.transitions() > 0, "a tight budget must trip the ladder");
    assert!(
        gov.transitions_to_red > 0 && gov.spilled_bytes > 0,
        "half the natural peak must reach Red and spill joins \
         (red={}, spilled={})",
        gov.transitions_to_red,
        gov.spilled_bytes
    );
    assert!(gov.throttled_batches > 0);
}

#[test]
fn governed_runs_agree_with_every_engine() {
    // Result parity under a tight budget, against the ungoverned HUGE run
    // and all five baseline engines (which receive, and ignore, the budget).
    let graph = gen::erdos_renyi(150, 800, 9);
    let config = ClusterConfig::new(3).workers(1);
    for pattern in [Pattern::Triangle, Pattern::Square] {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let ungoverned = HugeCluster::build(graph.clone(), config.clone())
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(ungoverned.matches, expected, "HUGE on {pattern:?}");
        // A budget tight enough to keep the whole run under pressure.
        let governed_config = config.clone().memory_budget(64 * 1024);
        let governed = HugeCluster::build(graph.clone(), governed_config.clone())
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(governed.matches, expected, "governed HUGE on {pattern:?}");
        // Barriered execution is governed through the same hooks.
        let barriered = HugeCluster::build(
            graph.clone(),
            governed_config.clone().pipeline_segments(false),
        )
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
        assert_eq!(
            barriered.matches, expected,
            "governed barriered {pattern:?}"
        );
        for baseline in Baseline::ALL {
            let report = baseline.run(&graph, &query, &governed_config).unwrap();
            assert_eq!(
                report.matches,
                expected,
                "{} with a budgeted config on {:?}",
                baseline.name(),
                pattern
            );
        }
    }
}

#[test]
fn pressure_ladder_stays_green_under_a_loose_budget() {
    let (graph, plan, config) = skewed_join_setup();
    let ungoverned = HugeCluster::build(graph.clone(), config.clone())
        .unwrap()
        .run_with_plan(&plan, SinkMode::Count)
        .unwrap();
    // A budget far above the natural peak never leaves Green: the governor
    // observes but the run is identical to the ungoverned one.
    let governed = HugeCluster::build(
        graph,
        config.memory_budget_per_machine(ungoverned.peak_memory_bytes * 16),
    )
    .unwrap()
    .run_with_plan(&plan, SinkMode::Count)
    .unwrap();
    assert_eq!(governed.matches, ungoverned.matches);
    let gov = governed.governor.expect("report present");
    assert_eq!(gov.transitions(), 0);
    assert_eq!(gov.throttled_batches, 0);
    assert_eq!(gov.spilled_bytes, 0);
    assert!(!gov.over_budget());
}

#[test]
fn governed_columnar_run_stays_bounded_and_charges_column_bytes() {
    // The operator currency is columnar: the bytes a governed run tracks in
    // its operator queues are `ColBatch` bytes, and the traffic report
    // surfaces the intersection-kernel dispatch counts. A tight budget must still bound the peak and keep the
    // count identical.
    let graph = gen::barabasi_albert(1_500, 10, 5);
    let query = Pattern::Triangle.query_graph();
    let config = ClusterConfig::new(2).workers(2).batch_size(512);
    let ungoverned = HugeCluster::build(graph.clone(), config.clone())
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
    assert!(
        ungoverned.comm.kernel_invocations() > 0,
        "extends must record their kernel dispatches"
    );

    let budget = 48 * 1024u64;
    let governed = HugeCluster::build(graph, config.memory_budget_per_machine(budget))
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
    assert_eq!(governed.matches, ungoverned.matches);
    let gov = governed.governor.expect("budgeted run carries a report");
    assert_eq!(gov.peak_bytes, governed.peak_memory_bytes);
    // One 3-column batch of slack per flow-control point (≤16), same
    // overflow-by-at-most-one-batch bound the row-major runtime had.
    let slack = 512 * 3 * 4 * 16;
    assert!(
        governed.peak_memory_bytes <= budget + slack,
        "governed columnar peak {} exceeds budget {budget} + slack {slack}",
        governed.peak_memory_bytes
    );
}

#[test]
fn pressure_levels_order_green_yellow_red() {
    // The ladder is ordered (used by the strict-DFS comparisons).
    assert!(PressureLevel::Green < PressureLevel::Yellow);
    assert!(PressureLevel::Yellow < PressureLevel::Red);
}

proptest! {
    // Each case is a whole governed cluster run; keep the count small (CI
    // further caps it through PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (often absurdly tight) budgets over random graphs, plans and
    /// cluster shapes: a governed run must always terminate with the
    /// reference count — the actuators only tighten flow control, so no
    /// budget may deadlock or change results.
    #[test]
    fn governed_runs_never_deadlock_and_stay_correct(
        graph in prop::collection::vec((0u32..60, 0u32..60), 10..200)
            .prop_map(huge_graph::Graph::from_edges)
            .prop_filter("need some edges", |g| g.num_edges() >= 5),
        pattern in prop_oneof![
            Just(Pattern::Triangle),
            Just(Pattern::Square),
            Just(Pattern::ChordalSquare),
            Just(Pattern::Path(4)),
        ],
        machines in 1usize..4,
        budget in prop_oneof![
            Just(1u64),            // everything is Red from the first byte
            Just(4 * 1024),
            Just(256 * 1024),
            Just(u64::MAX / 4),    // never leaves Green
        ],
        batch in prop_oneof![Just(64usize), Just(1024usize)],
        pipelined in prop_oneof![Just(true), Just(false)],
    ) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let config = ClusterConfig::new(machines)
            .workers(1)
            .batch_size(batch)
            .memory_budget(budget)
            .pipeline_segments(pipelined);
        let report = HugeCluster::build(graph, config)
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        prop_assert_eq!(report.matches, expected);
        prop_assert!(report.governor.is_some());
    }
}
