//! The end-to-end protocol: a warm-up, a fixed number of timed repetitions
//! with timed set-ups in between, and the checks every repetition must pass.
//!
//! Load model: closed loop, one client, one query at a time, on a cluster of
//! [`MACHINES`](crate::workloads::MACHINES) machines with one worker each.
//! The repetition count is fixed, never time-boxed, so two commits do the
//! same work; the run's length is set by the dataset scales.

use std::time::Instant;

use huge_core::{HugeCluster, RunOutcome, RunReport, SinkMode};
use huge_graph::Graph;
use huge_plan::translate::{translate, Dataflow};
use huge_query::naive;

use crate::metrics::{Metrics, END_TO_END};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Workload, MACHINES, ORACLE_SCALE};

/// Cluster builds timed for `setup_s` in each group; one group precedes the
/// warm-up and one follows every repetition. Fifteen builds back to back at
/// process start all saw the same cold heap and moved 39 % from run to run;
/// spread over the run they sample the host the way the repetitions do.
pub const SETUP_GROUP: usize = 5;
/// Timed repetitions of an end-to-end run.
pub const TIMED_REPS: usize = 11;

const MIB: f64 = 1024.0 * 1024.0;

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Operations attempted and failed. Every repetition is one operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed, and any failed whole-run check.
    pub errors: Vec<String>,
}

impl Ops {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One successful repetition.
pub struct Rep {
    pub wall_s: f64,
    pub report: RunReport,
}

/// Runs the dataflow once and checks the result. A repetition fails if it
/// returns an error, counts a different number of matches than `expected`,
/// does not complete, leaks tracked bytes or leaves spill files behind. A
/// failed repetition contributes no timing.
pub fn run_rep(
    label: &'static str,
    cluster: &HugeCluster,
    dataflow: &Dataflow,
    expected: Option<u64>,
    ops: &mut Ops,
    spans: &Spans,
) -> Option<Rep> {
    ops.attempted += 1;
    let (result, took) = spans.scope(label, || cluster.run_dataflow(dataflow, SinkMode::Count));
    let verdict = match result {
        Err(e) => Err(format!("{label}: {e}")),
        Ok(r) if r.outcome != RunOutcome::Completed => {
            Err(format!("{label}: outcome {:?}", r.outcome))
        }
        Ok(r) if r.leaked_bytes != 0 => Err(format!("{label}: {} bytes leaked", r.leaked_bytes)),
        Ok(r) if r.orphaned_spill_files != 0 => Err(format!(
            "{label}: {} spill files orphaned",
            r.orphaned_spill_files
        )),
        Ok(r) => match expected {
            Some(m) if m != r.matches => {
                Err(format!("{label}: {} matches, expected {m}", r.matches))
            }
            _ => Ok(r),
        },
    };
    match verdict {
        Ok(report) => Some(Rep {
            wall_s: took.as_secs_f64(),
            report,
        }),
        Err(why) => {
            ops.failed += 1;
            ops.errors.push(why);
            None
        }
    }
}

/// The correctness gate against the sequential reference: the workload's
/// query on the same dataset and seed at [`ORACLE_SCALE`], through the same
/// engine configuration, must count what `naive::enumerate` counts.
pub fn oracle_check(w: &Workload, seed: u64, ops: &mut Ops, spans: &Spans) {
    spans.scope("oracle", || {
        let graph = w.graph(ORACLE_SCALE, seed);
        let query = w.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let got = HugeCluster::build(graph, w.config(MACHINES))
            .and_then(|cluster| cluster.run(&query, SinkMode::Count))
            .map(|r| r.matches);
        match got {
            Ok(m) if m == expected => {}
            Ok(m) => ops.errors.push(format!(
                "oracle: engine counts {m}, naive::enumerate counts {expected}"
            )),
            Err(e) => ops.errors.push(format!("oracle: {e}")),
        }
    });
}

/// A workload ready to run: its graph, a built cluster and its dataflow.
pub struct Prepared {
    pub graph: Graph,
    pub cluster: HugeCluster,
    pub dataflow: Dataflow,
}

/// One group of [`SETUP_GROUP`] timed set-ups: `build + plan + translate`,
/// with the graph clone a build consumes made outside the timer. Appends the
/// seconds each took to `setup_s` and returns the last cluster built.
pub fn setup_group(
    w: &Workload,
    graph: &Graph,
    setup_s: &mut Vec<f64>,
    spans: &Spans,
) -> Result<(HugeCluster, Dataflow), String> {
    let query = w.query_graph();
    let mut last = None;
    for _ in 0..SETUP_GROUP {
        let copy = graph.clone();
        let (built, took) = spans.scope("setup", || {
            let cluster = HugeCluster::build(copy, w.config(MACHINES))?;
            let plan = cluster.plan(&query)?;
            let dataflow = translate(&plan)?;
            Ok::<_, huge_core::EngineError>((cluster, dataflow))
        });
        setup_s.push(took.as_secs_f64());
        last = Some(built.map_err(|e| format!("setup: {e}"))?);
    }
    Ok(last.expect("SETUP_GROUP is positive"))
}

/// Generates the graph and sets the cluster up (the first set-up group).
pub fn prepare(
    w: &Workload,
    seed: u64,
    setup_s: &mut Vec<f64>,
    spans: &Spans,
) -> Result<Prepared, String> {
    let (graph, _) = spans.scope("generate", || w.graph(w.scale, seed));
    let (cluster, dataflow) = setup_group(w, &graph, setup_s, spans)?;
    Ok(Prepared {
        graph,
        cluster,
        dataflow,
    })
}

/// Warm-up plus `reps` timed repetitions on one cluster, with `between`
/// called before the first repetition and after each one. Returns the
/// successful repetitions; the warm-up's match count is the reference the
/// timed repetitions must reproduce.
pub fn timed_reps(
    p: &Prepared,
    reps: usize,
    ops: &mut Ops,
    spans: &Spans,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(u64, Vec<Rep>), String> {
    let warm = run_rep("warmup", &p.cluster, &p.dataflow, None, ops, spans)
        .ok_or_else(|| format!("warm-up failed: {}", ops.errors.join("; ")))?;
    let matches = warm.report.matches;
    let mut ok = Vec::with_capacity(reps);
    between()?;
    for _ in 0..reps {
        ok.extend(run_rep(
            "run_dataflow",
            &p.cluster,
            &p.dataflow,
            Some(matches),
            ops,
            spans,
        ));
        between()?;
    }
    if ok.is_empty() {
        return Err(format!(
            "no repetition succeeded: {}",
            ops.errors.join("; ")
        ));
    }
    Ok((matches, ok))
}

/// The size of the generated graph, as a line of information.
pub fn graph_info(graph: &Graph) -> String {
    format!(
        "graph {} vertices {} edges max_degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    )
}

/// What one run of one workload measured, in either mode.
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    /// Lines of information that are not gated metrics.
    pub info: Vec<String>,
}

/// One default-mode run: oracle check, warm-up, and [`TIMED_REPS`] timed
/// repetitions with tracing off, a set-up group before the warm-up and after
/// every repetition.
pub fn run(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let spans = Spans::new(false);
    let mut ops = Ops::default();
    let started = Instant::now();
    oracle_check(w, seed, &mut ops, &spans);
    let mut setup_s = Vec::new();
    let p = prepare(w, seed, &mut setup_s, &spans)?;
    let (matches, reps) = timed_reps(&p, TIMED_REPS, &mut ops, &spans, || {
        setup_group(w, &p.graph, &mut setup_s, &spans).map(drop)
    })?;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let comm: Vec<f64> = reps.iter().map(|r| mib(r.report.comm_bytes)).collect();
    let peak: Vec<f64> = reps
        .iter()
        .map(|r| mib(r.report.peak_memory_bytes))
        .collect();
    let run_s = stats::median(&walls);
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("run_s", run_s);
    // Traffic is an additive count that moves with scan stealing: mean.
    metrics.set("comm_mib", stats::mean(&comm));
    // Peak is a maximum, and the maximum is what repeats.
    metrics.set("peak_mem_mib", stats::max(&peak));
    metrics.set("setup_s", stats::median(&setup_s));

    let info = vec![
        graph_info(&p.graph),
        format!("matches {matches}"),
        format!(
            "run_s samples {} min {:.4} max {:.4}",
            walls.len(),
            stats::min(&walls),
            stats::max(&walls)
        ),
        format!(
            "run_s each {}",
            walls
                .iter()
                .map(|w| format!("{w:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("throughput {:.0} matches/s", matches as f64 / run_s),
        format!("setup_s samples {}", setup_s.len()),
        format!("wall {:.1} s", started.elapsed().as_secs_f64()),
    ];
    Ok(Outcome { metrics, ops, info })
}
