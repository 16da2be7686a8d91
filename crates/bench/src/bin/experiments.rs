//! Regenerates every table and figure of the paper's evaluation (§7).
//!
//! ```text
//! cargo run -p huge-bench --release --bin experiments -- <exp> [--scale S] [--machines K]
//! ```
//!
//! where `<exp>` is one of `table1`, `exp1` … `exp10`, `barrier`, `memory`,
//! or `all`.
//! The default scale (0.08) keeps the whole suite in the minutes range on a
//! laptop; increase `--scale` to approach the paper's workloads.

use std::time::Duration;

use huge_baselines::Baseline;
use huge_bench::{load_dataset, mib, paper_query, secs, table1_row, TextTable, DEFAULT_SCALE};
use huge_cache::CacheKind;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, SinkMode};
use huge_graph::DatasetKind;
use huge_plan::baselines::{hybrid_computation_only_plan, plug_into_huge, BaselineSystem};
use huge_plan::cost::HybridEstimator;
use huge_plan::optimizer::OptimizerOptions;

struct Options {
    scale: f64,
    machines: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = String::from("all");
    let mut opts = Options {
        scale: DEFAULT_SCALE,
        machines: 4,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                opts.scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "--machines" => {
                opts.machines = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--machines needs an integer");
            }
            other if !other.starts_with("--") => exp = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }

    let experiments: Vec<&str> = if exp == "all" {
        vec![
            "table1", "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9",
            "exp10", "barrier", "memory",
        ]
    } else {
        vec![exp.as_str()]
    };
    for e in experiments {
        println!("\n================  {e}  ================");
        match e {
            "table1" => table1(&opts),
            "exp1" => exp1(&opts),
            "exp2" => exp2(&opts),
            "exp3" => exp3(&opts),
            "exp4" => exp4(&opts),
            "exp5" => exp5(&opts),
            "exp6" => exp6(&opts),
            "exp7" => exp7(&opts),
            "exp8" => exp8(&opts),
            "exp9" => exp9(&opts),
            "exp10" => exp10(&opts),
            "barrier" => barrier(&opts),
            "memory" => memory(&opts),
            other => eprintln!("unknown experiment {other}"),
        }
    }
}

fn default_config(machines: usize) -> ClusterConfig {
    ClusterConfig::new(machines).workers(2)
}

/// Estimated intermediate-result rows above which a baseline's native run is
/// reported as `OT` (over time), mirroring how the paper reports runs that
/// exceed its 3-hour budget.
const NATIVE_ROW_LIMIT: f64 = 3.0e7;

/// Runs a baseline's native engine unless its own plan is estimated to
/// materialise more than [`NATIVE_ROW_LIMIT`] intermediate rows — those runs
/// are reported as `OT`, exactly the situation the paper reports for SEED /
/// RADS on the larger workloads.
fn guarded_native(
    baseline: Baseline,
    graph: &huge_graph::Graph,
    query: &huge_query::QueryGraph,
    config: &ClusterConfig,
) -> Option<huge_core::report::RunReport> {
    if baseline == Baseline::Benu {
        return baseline.run(graph, query, config).ok();
    }
    let estimator = HybridEstimator::from_graph(graph);
    let plan = huge_plan::baselines::native_plan(baseline.system(), query).ok()?;
    let mut worst: f64 = 0.0;
    fn walk(
        node: &huge_plan::logical::JoinNode,
        q: &huge_query::QueryGraph,
        est: &HybridEstimator,
        worst: &mut f64,
    ) {
        use huge_plan::cost::CardinalityEstimator;
        match node {
            huge_plan::logical::JoinNode::Unit(sub) => {
                *worst = worst.max(est.estimate(q, sub));
            }
            huge_plan::logical::JoinNode::Join {
                output,
                left,
                right,
                ..
            } => {
                *worst = worst.max(est.estimate(q, output));
                walk(left, q, est, worst);
                walk(right, q, est, worst);
            }
        }
    }
    walk(&plan.tree.root, query, &estimator, &mut worst);
    if worst > NATIVE_ROW_LIMIT {
        return None;
    }
    baseline.run(graph, query, config).ok()
}

/// Table 1: the square query on LJ, all systems.
fn table1(opts: &Options) {
    let graph = load_dataset(DatasetKind::Lj, opts.scale);
    let query = paper_query(1);
    let config = default_config(opts.machines);
    let mut table = TextTable::new(vec![
        "system", "T(s)", "T_R(s)", "T_C(s)", "C(MiB)", "M(MiB)",
    ]);
    for baseline in [
        Baseline::Seed,
        Baseline::BigJoin,
        Baseline::Benu,
        Baseline::Rads,
    ] {
        let report = baseline
            .run(&graph, &query, &config)
            .expect("baseline run failed");
        let mut row = vec![baseline.name().to_string()];
        row.extend(table1_row(&report));
        table.add_row(row);
        println!("  ran {} -> {} matches", baseline.name(), report.matches);
    }
    let cluster = HugeCluster::build(graph, config).expect("cluster");
    let report = cluster.run(&query, SinkMode::Count).expect("HUGE run");
    let mut row = vec!["HUGE".to_string()];
    row.extend(table1_row(&report));
    table.add_row(row);
    println!("  ran HUGE -> {} matches", report.matches);
    println!("\n{}", table.render());
}

/// Exp-1 (Fig. 5): plugging baseline logical plans into HUGE.
fn exp1(opts: &Options) {
    let config = default_config(opts.machines);
    let mut table = TextTable::new(vec![
        "plan",
        "query",
        "native T(s)",
        "HUGE-X T(s)",
        "speed-up",
    ]);
    for system in [
        Baseline::Benu,
        Baseline::Rads,
        Baseline::Seed,
        Baseline::BigJoin,
    ] {
        // RADS is evaluated on LJ (its plan times out on UK in the paper).
        let dataset = if system == Baseline::Rads {
            DatasetKind::Lj
        } else {
            DatasetKind::Uk
        };
        let graph = load_dataset(dataset, opts.scale);
        let cluster = HugeCluster::build(graph.clone(), config.clone()).expect("cluster");
        for qi in [1usize, 2] {
            let query = paper_query(qi);
            let native = guarded_native(system, &graph, &query, &config);
            let plan = plug_into_huge(system.system(), &query).expect("plug");
            let plugged = cluster
                .run_with_plan(&plan, SinkMode::Count)
                .expect("HUGE-X run");
            let (native_t, speedup) = match &native {
                Some(report) => {
                    assert_eq!(report.matches, plugged.matches, "count mismatch");
                    (
                        secs(report.total_time()),
                        format!(
                            "{:.1}x",
                            report.total_time().as_secs_f64() / plugged.total_time().as_secs_f64()
                        ),
                    )
                }
                None => ("OT".to_string(), "INFx".to_string()),
            };
            table.add_row(vec![
                format!("HUGE-{}", system.name()),
                format!("q{qi}"),
                native_t,
                secs(plugged.total_time()),
                speedup,
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-2 (Fig. 6): all-round comparison, q1–q6 over five datasets.
fn exp2(opts: &Options) {
    let config = default_config(opts.machines);
    let datasets = [
        DatasetKind::Eu,
        DatasetKind::Lj,
        DatasetKind::Or,
        DatasetKind::Uk,
        DatasetKind::Fs,
    ];
    let mut table = TextTable::new(vec![
        "dataset",
        "query",
        "HUGE T(s)",
        "BiGJoin T(s)",
        "SEED T(s)",
        "HUGE C(MiB)",
        "HUGE M(MiB)",
    ]);
    for dataset in datasets {
        let graph = load_dataset(dataset, opts.scale);
        let cluster = HugeCluster::build(graph.clone(), config.clone()).expect("cluster");
        for qi in 1..=6usize {
            let query = paper_query(qi);
            let huge = cluster.run(&query, SinkMode::Count).expect("HUGE");
            let bigjoin = guarded_native(Baseline::BigJoin, &graph, &query, &config);
            let seed = guarded_native(Baseline::Seed, &graph, &query, &config);
            let fmt = |r: &Option<huge_core::report::RunReport>| match r {
                Some(report) => {
                    assert_eq!(report.matches, huge.matches, "count mismatch on q{qi}");
                    secs(report.total_time())
                }
                None => "OT".to_string(),
            };
            table.add_row(vec![
                dataset.name().to_string(),
                format!("q{qi}"),
                secs(huge.total_time()),
                fmt(&bigjoin),
                fmt(&seed),
                mib(huge.comm_bytes),
                mib(huge.peak_memory_bytes),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-3 (Table 4): web-scale graph throughput.
fn exp3(opts: &Options) {
    let graph = load_dataset(DatasetKind::Cw, opts.scale);
    let config = default_config(opts.machines);
    let cluster = HugeCluster::build(graph, config).expect("cluster");
    let mut table = TextTable::new(vec!["query", "matches", "T(s)", "throughput (matches/s)"]);
    for qi in 1..=3usize {
        let query = paper_query(qi);
        let report = cluster.run(&query, SinkMode::Count).expect("run");
        table.add_row(vec![
            format!("q{qi}"),
            report.matches.to_string(),
            secs(report.total_time()),
            format!("{:.0}", report.throughput()),
        ]);
    }
    println!("\n{}", table.render());
}

/// Exp-4 (Fig. 7): effect of the batch size (cache disabled).
fn exp4(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let mut table = TextTable::new(vec![
        "query", "batch", "T(s)", "T_C(s)", "C(MiB)", "net util",
    ]);
    for qi in [1usize, 3] {
        let query = paper_query(qi);
        for batch in [2_000usize, 8_000, 32_000, 128_000] {
            let config = default_config(opts.machines).batch_size(batch).no_cache();
            let network = config.network();
            let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
            let report = cluster.run(&query, SinkMode::Count).expect("run");
            let util = network.utilisation(report.comm_bytes, report.comm_time);
            table.add_row(vec![
                format!("q{qi}"),
                batch.to_string(),
                secs(report.total_time()),
                secs(report.comm_time),
                mib(report.comm_bytes),
                format!("{:.0}%", util * 100.0),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-5 (Fig. 8): effect of the cache capacity.
fn exp5(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let mut table = TextTable::new(vec!["query", "cache frac", "T_C(s)", "C(MiB)", "hit rate"]);
    for qi in [1usize, 3] {
        let query = paper_query(qi);
        for frac in [0.01, 0.05, 0.15, 0.3, 0.6, 1.0] {
            let config = default_config(opts.machines).cache_fraction(frac);
            let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
            let report = cluster.run(&query, SinkMode::Count).expect("run");
            table.add_row(vec![
                format!("q{qi}"),
                format!("{frac:.2}"),
                secs(report.comm_time),
                mib(report.comm_bytes),
                format!("{:.0}%", report.cache.hit_rate() * 100.0),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-6 (Table 5): cache designs.
fn exp6(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let mut table = TextTable::new(vec!["query", "cache", "T(s)", "fetch stage t_f(s)"]);
    for qi in 1..=3usize {
        let query = paper_query(qi);
        for kind in CacheKind::ALL {
            let config = default_config(opts.machines).cache_kind(kind);
            let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
            let report = cluster.run(&query, SinkMode::Count).expect("run");
            table.add_row(vec![
                format!("q{qi}"),
                kind.name().to_string(),
                secs(report.total_time()),
                secs(report.fetch_time),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-7 (Fig. 9): BFS/DFS-adaptive scheduling — output-queue size sweep.
fn exp7(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let query = paper_query(6);
    let mut table = TextTable::new(vec!["queue rows", "T(s)", "peak memory (MiB)"]);
    for rows in [1_000usize, 10_000, 100_000, 1_000_000, usize::MAX / 2] {
        let config = default_config(opts.machines).output_queue_rows(rows);
        let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
        let report = cluster.run(&query, SinkMode::Count).expect("run");
        let label = if rows > 1_000_000 {
            "BFS (unbounded)".to_string()
        } else {
            rows.to_string()
        };
        table.add_row(vec![
            label,
            secs(report.total_time()),
            mib(report.peak_memory_bytes),
        ]);
    }
    println!("\n{}", table.render());
}

/// Exp-8 (Fig. 10): load balancing strategies.
fn exp8(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let mut table = TextTable::new(vec![
        "query",
        "strategy",
        "T(s)",
        "worker time std-dev(s)",
        "total worker time(s)",
    ]);
    for qi in [1usize, 2, 3, 6] {
        let query = paper_query(qi);
        for (label, lb) in [
            ("HUGE", LoadBalance::WorkStealing),
            ("HUGE-NOSTL", LoadBalance::None),
            ("HUGE-RGP", LoadBalance::RegionGroup),
        ] {
            let config = default_config(opts.machines).load_balance(lb);
            let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
            let report = cluster.run(&query, SinkMode::Count).expect("run");
            table.add_row(vec![
                format!("q{qi}"),
                label.to_string(),
                secs(report.total_time()),
                format!("{:.4}", report.worker_time_stddev()),
                secs(report.total_worker_time()),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Exp-9 (Table 6): hybrid plan comparison.
fn exp9(opts: &Options) {
    let graph = load_dataset(DatasetKind::Go, opts.scale);
    let config = default_config(opts.machines);
    let estimator = HybridEstimator::from_graph(&graph);
    let cluster = HugeCluster::build(graph, config).expect("cluster");
    let mut table = TextTable::new(vec!["query", "plan", "T(s)", "matches"]);
    for qi in [7usize, 8] {
        let query = paper_query(qi);
        // HUGE-WCO: BiGJoin's logical plan plugged into HUGE.
        let wco_plan = plug_into_huge(BaselineSystem::BigJoin, &query).expect("wco plan");
        // EmptyHeaded / GraphFlow: computation-only hybrid plan.
        let hybrid_plan = hybrid_computation_only_plan(&query, &estimator, cluster.cost_model())
            .expect("hybrid plan");
        // HUGE's own plan.
        let huge_plan = cluster.plan(&query).expect("huge plan");
        for (name, plan) in [
            ("HUGE-WCO", &wco_plan),
            ("HUGE-EH/GF", &hybrid_plan),
            ("HUGE", &huge_plan),
        ] {
            let report = cluster
                .run_with_plan(plan, SinkMode::Count)
                .expect("plan run");
            table.add_row(vec![
                format!("q{qi}"),
                name.to_string(),
                secs(report.total_time()),
                report.matches.to_string(),
            ]);
        }
    }
    println!("\n{}", table.render());
}

/// Barrier teardown: the same multi-segment `PUSH-JOIN` plans with the
/// scheduler's barrier gate on (`pipeline_segments(false)`) and off, so the
/// per-segment synchronisation cost is quantifiable. "barrier bound" is the
/// wall clock a barriered execution of the measured per-machine work needs
/// at minimum; "overlap saved" is how much of it the pipelined run converted
/// into overlap.
fn barrier(opts: &Options) {
    let graph = load_dataset(DatasetKind::Lj, opts.scale);
    let mut table = TextTable::new(vec![
        "query",
        "mode",
        "T_R(s)",
        "barrier bound(s)",
        "overlap saved(s)",
    ]);
    for qi in [1usize, 2] {
        let query = paper_query(qi);
        let mut counts = Vec::new();
        for (label, pipelined) in [("pipelined", true), ("barriered", false)] {
            let config = default_config(opts.machines).pipeline_segments(pipelined);
            let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
            let plan = cluster
                .plan_with_options(
                    &query,
                    OptimizerOptions {
                        disable_pulling: true,
                        ..Default::default()
                    },
                )
                .expect("plan");
            let report = cluster
                .run_with_plan(&plan, SinkMode::Count)
                .expect("barrier run");
            counts.push(report.matches);
            table.add_row(vec![
                format!("q{qi}"),
                label.to_string(),
                secs(report.compute_time),
                secs(report.barrier_bound()),
                secs(report.overlap_saved()),
            ]);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "pipelined and barriered runs disagree on q{qi}"
        );
    }
    println!("\n{}", table.render());
}

/// Memory governor: Exp-7's time/memory trade-off as an online controller.
/// The static queue sweep of `exp7` is replaced by a *byte budget*: the
/// governor adapts queue/inbox capacities, scheduling and join spilling at
/// runtime, so one knob (bytes) drives the whole ladder.
fn memory(opts: &Options) {
    let graph = load_dataset(DatasetKind::Uk, opts.scale);
    let query = paper_query(6);
    let mut table = TextTable::new(vec![
        "budget/machine (MiB)",
        "T(s)",
        "peak (MiB)",
        "spilled (MiB)",
        "throttled",
        "yellow/red",
    ]);
    let base = default_config(opts.machines);
    let cluster = HugeCluster::build(graph.clone(), base.clone()).expect("cluster");
    let ungoverned = cluster.run(&query, SinkMode::Count).expect("run");
    table.add_row(vec![
        "unbounded".to_string(),
        secs(ungoverned.total_time()),
        mib(ungoverned.peak_memory_bytes),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    for divisor in [2u64, 4, 8, 16] {
        let budget = (ungoverned.peak_memory_bytes / divisor).max(1);
        let config = base.clone().memory_budget_per_machine(budget);
        let cluster = HugeCluster::build(graph.clone(), config).expect("cluster");
        let report = cluster.run(&query, SinkMode::Count).expect("governed run");
        assert_eq!(report.matches, ungoverned.matches, "governed parity");
        let gov = report.governor.clone().expect("governor report");
        table.add_row(vec![
            mib(budget),
            secs(report.total_time()),
            mib(report.peak_memory_bytes),
            mib(gov.spilled_bytes),
            gov.throttled_batches.to_string(),
            format!("{}/{}", gov.transitions_to_yellow, gov.transitions_to_red),
        ]);
    }
    println!("\n{}", table.render());
}

/// Exp-10 (Fig. 11): scalability with the number of machines.
fn exp10(opts: &Options) {
    let graph = load_dataset(DatasetKind::Fs, opts.scale);
    let mut table = TextTable::new(vec!["query", "machines", "HUGE T(s)", "BiGJoin T(s)"]);
    for qi in [2usize, 3] {
        let mut base: Option<(Duration, Duration)> = None;
        for machines in [1usize, 2, 4, 8] {
            let query = paper_query(qi);
            let config = default_config(machines);
            let cluster = HugeCluster::build(graph.clone(), config.clone()).expect("cluster");
            let huge = cluster.run(&query, SinkMode::Count).expect("HUGE");
            let bigjoin = guarded_native(Baseline::BigJoin, &graph, &query, &config)
                .unwrap_or_else(|| huge.clone());
            if base.is_none() {
                base = Some((huge.total_time(), bigjoin.total_time()));
            }
            let (h0, b0) = base.unwrap();
            table.add_row(vec![
                format!("q{qi}"),
                machines.to_string(),
                format!(
                    "{} ({:.1}x)",
                    secs(huge.total_time()),
                    h0.as_secs_f64() / huge.total_time().as_secs_f64().max(1e-9)
                ),
                format!(
                    "{} ({:.1}x)",
                    secs(bigjoin.total_time()),
                    b0.as_secs_f64() / bigjoin.total_time().as_secs_f64().max(1e-9)
                ),
            ]);
        }
    }
    println!("\n{}", table.render());
}
