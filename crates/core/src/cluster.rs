//! The public entry point: [`HugeCluster`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use huge_comm::stats::ClusterStats;
use huge_comm::{LinkFault, Router, RpcFabric, TransportConfig};
use huge_graph::{Graph, GraphStats, Partitioner};
use huge_plan::cost::{CostModel, HybridEstimator};
use huge_plan::logical::ExecutionPlan;
use huge_plan::optimizer::{Optimizer, OptimizerOptions};
use huge_plan::translate::{translate, Dataflow, SegmentSource};
use huge_query::QueryGraph;
use huge_trace::{kv, Recorder, TraceMode};

use crate::cancel::{CancelCause, CancelToken};
use crate::config::{ClusterConfig, SinkMode};
use crate::governor::MemoryGovernor;
use crate::machine::{MachineState, SegmentPlan, Terminal};
use crate::memory::MemoryTracker;
use crate::operators::ScanPool;
use crate::report::{merge_cache_stats, JoinReport, RunOutcome, RunReport};
use crate::scheduler::{RunShared, SegmentQueues, SegmentShared};
use crate::{EngineError, Result};

/// Size (in vertices) of the stealable scan chunks.
const SCAN_CHUNK_VERTICES: usize = 1024;

/// A simulated HUGE cluster bound to one data graph.
///
/// Build it once per graph; every call to [`HugeCluster::run`] (or its
/// variants) executes one query and returns a [`RunReport`] with the
/// measurements the paper reports (T, T_R, T_C, C, M, cache statistics,
/// per-machine break-downs).
pub struct HugeCluster {
    config: ClusterConfig,
    partitions: Arc<Vec<huge_graph::GraphPartition>>,
    stats: GraphStats,
    estimator: HybridEstimator,
}

impl HugeCluster {
    /// Partitions `graph` over the configured number of machines and
    /// prepares the cluster.
    pub fn build(graph: Graph, config: ClusterConfig) -> Result<Self> {
        config.validate().map_err(EngineError::Config)?;
        let stats = GraphStats::of_cheap(&graph);
        let estimator = HybridEstimator::from_graph(&graph);
        let mut partitions = Partitioner::new(config.machines)?.partition(graph);
        // Hub bitmaps are built once per partition and shared by every run on
        // this cluster (the intersection kernels dispatch on them).
        for p in &mut partitions {
            p.build_hub_index(config.hub_degree_threshold);
        }
        Ok(HugeCluster {
            config,
            partitions: Arc::new(partitions),
            stats,
            estimator,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Summary statistics of the data graph.
    pub fn graph_stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The cost model used by the optimiser for this cluster.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.config.machines, self.stats.num_edges)
            .with_avg_degree(self.stats.avg_degree)
    }

    /// Computes HUGE's optimal execution plan (Algorithm 1) for `query`.
    pub fn plan(&self, query: &QueryGraph) -> Result<ExecutionPlan> {
        Ok(Optimizer::new(&self.estimator, self.cost_model()).optimize(query)?)
    }

    /// Computes a plan with custom optimiser options (used by ablations).
    pub fn plan_with_options(
        &self,
        query: &QueryGraph,
        options: OptimizerOptions,
    ) -> Result<ExecutionPlan> {
        Ok(Optimizer::new(&self.estimator, self.cost_model())
            .with_options(options)
            .optimize(query)?)
    }

    /// Plans and runs `query`, counting (and optionally collecting) matches.
    pub fn run(&self, query: &QueryGraph, sink: SinkMode) -> Result<RunReport> {
        let plan = self.plan(query)?;
        self.run_with_plan(&plan, sink)
    }

    /// Plans and runs `query` under an externally-held [`CancelToken`]:
    /// calling [`CancelToken::cancel`] from any thread makes the run unwind
    /// cooperatively and return [`EngineError::Cancelled`] carrying the
    /// partial-stats report. [`ClusterConfig::deadline`] arms the same token.
    pub fn run_with_cancel(
        &self,
        query: &QueryGraph,
        sink: SinkMode,
        cancel: CancelToken,
    ) -> Result<RunReport> {
        let plan = self.plan(query)?;
        let dataflow = translate(&plan)?;
        self.run_dataflow_with_cancel(&dataflow, sink, cancel)
    }

    /// Runs an already-computed execution plan.
    pub fn run_with_plan(&self, plan: &ExecutionPlan, sink: SinkMode) -> Result<RunReport> {
        let dataflow = translate(plan)?;
        self.run_dataflow(&dataflow, sink)
    }

    /// Executes a translated dataflow.
    pub fn run_dataflow(&self, dataflow: &Dataflow, sink: SinkMode) -> Result<RunReport> {
        self.run_dataflow_with_cancel(dataflow, sink, CancelToken::new())
    }

    /// Executes a translated dataflow under an externally-held cancel token.
    pub fn run_dataflow_with_cancel(
        &self,
        dataflow: &Dataflow,
        sink: SinkMode,
        cancel: CancelToken,
    ) -> Result<RunReport> {
        // A fault aimed at a segment the plan does not have would silently
        // never fire; reject it now that the segment count is known.
        self.config
            .validate_fault_segments(dataflow.segments.len())
            .map_err(EngineError::Config)?;
        if let Some(deadline) = self.config.deadline {
            cancel.arm_deadline(deadline);
        }
        let k = self.config.machines;
        // The run's flight recorder owns the shared clock (t=0 on every
        // track) and the span gate. It exists in every mode — per-segment
        // aggregates are always collected; span rings only record in
        // `TraceMode::Full`.
        let recorder = Recorder::new(self.config.tracing);
        let comm_stats = ClusterStats::new(k);
        // Bounded, event-driven router: producers see backpressure when a
        // destination inbox fills; consumers park on it instead of spinning.
        let mut router =
            Router::with_capacity(k, comm_stats.clone(), self.config.router_queue_rows.max(1));
        if self.config.unreliable_transport() {
            let faults = self
                .config
                .fault_plan
                .iter()
                .filter_map(|spec| {
                    Some(LinkFault {
                        machine: spec.machine,
                        segment: spec.segment,
                        kind: spec.fault.link_kind()?,
                    })
                })
                .collect();
            router.set_transport(TransportConfig {
                seed: self.config.fault_seed,
                faults,
                ..TransportConfig::default()
            });
        }
        let rpc = RpcFabric::new(Arc::clone(&self.partitions), comm_stats.clone());
        let cache_bytes = self.config.effective_cache_bytes(self.stats.csr_bytes);
        let spill_root = spill_dir();

        // Per-machine trackers and the run's memory governor: the governor
        // watches the trackers and adjusts effective queue/inbox capacities
        // through shared handles (a no-op unless a budget is configured).
        let trackers: Vec<Arc<MemoryTracker>> =
            (0..k).map(|_| Arc::new(MemoryTracker::new())).collect();
        let governor = MemoryGovernor::new(&self.config, &trackers, router.endpoint(0));

        // Per-machine state, persisted across segments.
        let mut machines: Vec<MachineState> = (0..k)
            .map(|m| {
                // Bytes queued in the machine's router inbox count towards
                // its intermediate-result memory (the paper's M).
                router.set_accounting(m, Arc::clone(&trackers[m]) as _);
                MachineState::new(
                    m,
                    self.partitions[m].clone(),
                    self.config.cache_kind.build(cache_bytes),
                    router.endpoint(m),
                    rpc.clone(),
                    Arc::clone(&trackers[m]),
                    Arc::clone(&governor),
                    self.config.clone(),
                    spill_root.join(format!("machine-{m}")),
                )
            })
            .collect();

        // Work out each segment's terminal and (for joins) producer arities,
        // then pre-instantiate every join segment's PUSH-JOIN on each machine
        // so shuffled inputs stream into the builds as they arrive.
        let segment_plans = build_segment_plans(dataflow);
        let op_slots: Vec<usize> = segment_plans.iter().map(SegmentPlan::op_slots).collect();
        for (m, state) in machines.iter_mut().enumerate() {
            // One flight-recorder track per machine thread, with a per-run
            // aggregate slot for every segment and each of its operators.
            // The single-writer ring moves into the machine; the recorder
            // keeps the read side.
            let trace = recorder.ring(m as u32, format!("machine-{m}"), &op_slots);
            state.prepare_run(&segment_plans, trace, cancel.clone());
        }

        // Pre-build every segment's cross-machine state (stealable scan
        // pools, head and terminal queues, end-of-stream counters) up front, so the
        // scheduler never synchronises to set a segment up.
        let shared_segments: Vec<SegmentShared> = segment_plans
            .iter()
            .map(|plan| {
                let scan_pools: Vec<ScanPool> = (0..k)
                    .map(|m| match &plan.segment.source {
                        SegmentSource::Scan(_) => {
                            ScanPool::new(self.partitions[m].local_vertices(), SCAN_CHUNK_VERTICES)
                        }
                        SegmentSource::Join(_) => ScanPool::new(&[], 1),
                    })
                    .collect();
                let queues: Vec<Arc<SegmentQueues>> = (0..k)
                    .map(|m| {
                        // Both queues of machine m read their *effective*
                        // capacity from the governor's per-machine handle
                        // (initialised to the configured capacity).
                        Arc::new(SegmentQueues::governed(
                            plan.segment.extends.len(),
                            governor.queue_capacity_handle(m),
                            Some(Arc::clone(&machines[m].memory)),
                        ))
                    })
                    .collect();
                SegmentShared {
                    scan_pools,
                    queues,
                    idle: (0..k).map(|_| AtomicBool::new(false)).collect(),
                    remaining: AtomicUsize::new(k),
                }
            })
            .collect();
        let run_shared = RunShared::new(shared_segments, cancel.clone());

        // One thread per machine for the whole run; each drives all segments
        // through the dataflow scheduler (barriered mode is a readiness gate
        // inside that loop, not a second spawn/join site).
        let start = Instant::now();
        let mut outcome: Vec<Result<()>> = Vec::with_capacity(k);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(k);
            for state in machines.iter_mut() {
                let run_shared = &run_shared;
                let segment_plans = &segment_plans;
                handles.push(scope.spawn(move || state.run_all(segment_plans, run_shared, sink)));
            }
            for handle in handles {
                outcome.push(match handle.join() {
                    Ok(res) => res,
                    Err(_) => Err(EngineError::WorkerPanic(
                        "machine thread panicked".to_string(),
                    )),
                });
            }
        });
        let run_result = collapse_outcomes(outcome);
        let compute_time = start.elapsed();

        // Teardown sweep — runs whatever the outcome. Finishing each machine
        // drains its inbox and drops unfinished joins (their `Drop` impls
        // release buffered bytes and delete spill files); the shared operator
        // queues are drained explicitly (popping releases the tracked
        // charge). Only then are the trackers and the spill root audited, so
        // a cancelled or failed run is held to the same no-leak standard as a
        // completed one.
        for state in machines.iter_mut() {
            state.finish_run();
        }
        for seg in &run_shared.segments {
            for queue in seg.queues.iter().flat_map(|queues| queues.all()) {
                while queue.pop().is_some() {}
            }
        }
        let leaked_bytes: u64 = trackers.iter().map(|t| t.current()).sum();
        let orphaned_spill_files = count_files_under(&spill_root);
        let _ = std::fs::remove_dir_all(&spill_root);

        // Hard failures (panics, config errors, transport exhaustion) keep
        // their error; cancellation and deadline expiry carry the partial
        // report out through the typed error below.
        let run_err = match run_result {
            Ok(()) => None,
            Err(e @ (EngineError::Cancelled(_) | EngineError::DeadlineExceeded(_))) => Some(e),
            Err(e) => return Err(e),
        };
        let outcome = match &run_err {
            None => RunOutcome::Completed,
            Some(EngineError::Cancelled(_)) => RunOutcome::Cancelled,
            Some(_) => RunOutcome::DeadlineExceeded,
        };
        // Place the cancellation/deadline on the timeline at the instant the
        // token's winning CAS actually fired, not at teardown time.
        if let Some(fired) = cancel.fired_at() {
            let name = match cancel.cause() {
                Some(CancelCause::DeadlineExceeded) => "deadline_exceeded",
                _ => "cancelled",
            };
            recorder.global_instant(name, recorder.micros_at(fired), kv("machines", k as u64));
        }

        // Aggregate the report.
        let comm_total = comm_stats.total();
        let comm_time = self.config.network().time_for_snapshot(&comm_total);
        let machine_reports: Vec<_> = machines.iter().map(|m| m.report()).collect();
        let matches = machine_reports.iter().map(|m| m.matches).sum();
        // Samples leave the engine in the input's ids, not degree ranks.
        let mut samples: Vec<Vec<u32>> = Vec::new();
        if let SinkMode::Collect(limit) = sink {
            let graph = &self.partitions[0];
            for m in &machines {
                for s in &m.samples {
                    if samples.len() >= limit {
                        break;
                    }
                    samples.push(s.iter().map(|&v| graph.input_id(v)).collect());
                }
            }
        }
        let cache = merge_cache_stats(machines.iter().map(|m| m.cache.stats()));
        let fetch_time = machines
            .iter()
            .map(|m| m.fetch_time)
            .max()
            .unwrap_or_default();
        let peak_memory_bytes = machines.iter().map(|m| m.memory.peak()).max().unwrap_or(0);
        let mut join = JoinReport::default();
        for m in &machine_reports {
            join.merge(&m.join);
        }
        let governor_report = governor.report(peak_memory_bytes);

        // Flight-recorder export. The rings were drained by their owning
        // machine threads, which have all joined above, so the snapshot is
        // safe.
        let trace = (recorder.mode() == TraceMode::Full).then(|| {
            let timeline = recorder.timeline();
            let mut summary = timeline.summary();
            summary.segments = recorder.segment_breakdown();
            summary.chrome_json = Some(timeline.chrome_json());
            summary
        });

        let report = RunReport {
            query: dataflow.query.name().to_string(),
            matches,
            sample_matches: samples,
            compute_time,
            comm_time,
            comm_bytes: comm_total.total_bytes(),
            comm: comm_total,
            peak_memory_bytes,
            cache,
            fetch_time,
            pipelined: self.config.pipeline_segments,
            governor: governor_report,
            join,
            machines: machine_reports,
            outcome,
            leaked_bytes,
            orphaned_spill_files,
            trace,
        };
        match run_err {
            None => Ok(report),
            Some(EngineError::Cancelled(_)) => Err(EngineError::Cancelled(Some(Box::new(report)))),
            Some(_) => Err(EngineError::DeadlineExceeded(Some(Box::new(report)))),
        }
    }
}

/// Counts regular files left under `root` (recursively) — spill files a
/// finished run failed to delete.
fn count_files_under(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, n: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, n);
            } else {
                *n += 1;
            }
        }
    }
    let mut n = 0;
    walk(root, &mut n);
    n
}

/// Collapses per-machine outcomes into one. Priority: a root-cause error
/// (panic, config, transport) beats the typed `Cancelled`/`DeadlineExceeded`
/// outcomes, which beat the `Aborted` errors peers report when bailing out
/// of a run someone else ended.
fn collapse_outcomes(outcome: Vec<Result<()>>) -> Result<()> {
    let mut aborted: Option<EngineError> = None;
    let mut cancelled: Option<EngineError> = None;
    for res in outcome {
        match res {
            Ok(()) => {}
            Err(e @ EngineError::Aborted(_)) => {
                if aborted.is_none() {
                    aborted = Some(e);
                }
            }
            Err(e @ (EngineError::Cancelled(_) | EngineError::DeadlineExceeded(_))) => {
                if cancelled.is_none() {
                    cancelled = Some(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    match (cancelled, aborted) {
        (Some(e), _) | (None, Some(e)) => Err(e),
        (None, None) => Ok(()),
    }
}

/// Derives every segment's terminal role and producer arities.
fn build_segment_plans(dataflow: &Dataflow) -> Vec<SegmentPlan> {
    let root_id = dataflow.root().id;
    dataflow
        .segments
        .iter()
        .map(|segment| {
            let terminal = if segment.id == root_id {
                Terminal::Sink
            } else {
                // Find the join that consumes this segment.
                let consumer = dataflow
                    .segments
                    .iter()
                    .find_map(|candidate| match &candidate.source {
                        SegmentSource::Join(j) if j.left == segment.id => {
                            Some((candidate.id, j.key_left.clone()))
                        }
                        SegmentSource::Join(j) if j.right == segment.id => {
                            Some((candidate.id, j.key_right.clone()))
                        }
                        _ => None,
                    })
                    .expect("non-root segments feed exactly one join");
                Terminal::FeedJoin {
                    consumer: consumer.0,
                    key_positions: consumer.1,
                }
            };
            let producer_arities = match &segment.source {
                SegmentSource::Scan(_) => None,
                SegmentSource::Join(j) => Some((
                    dataflow.segments[j.left].schema.len(),
                    dataflow.segments[j.right].schema.len(),
                )),
            };
            SegmentPlan {
                segment: segment.clone(),
                terminal,
                producer_arities,
            }
        })
        .collect()
}

/// A spill root no other run of this process shares: each run's teardown
/// audit counts and deletes everything under its root, so two concurrent
/// runs (the test harness runs cluster tests on parallel threads) must
/// never be handed the same one.
fn spill_dir() -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("huge-spill-{}-{run}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};

    fn check_against_naive(graph: Graph, pattern: Pattern, config: ClusterConfig) {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let cluster = HugeCluster::build(graph, config).unwrap();
        let report = cluster.run(&query, SinkMode::Count).unwrap();
        assert_eq!(report.matches, expected, "{pattern:?}");
    }

    #[test]
    fn triangle_count_matches_reference() {
        let g = gen::erdos_renyi(300, 1800, 7);
        check_against_naive(g, Pattern::Triangle, ClusterConfig::new(3).workers(2));
    }

    #[test]
    fn square_count_matches_reference() {
        let g = gen::erdos_renyi(200, 900, 11);
        check_against_naive(g, Pattern::Square, ClusterConfig::new(2).workers(2));
    }

    #[test]
    fn four_clique_count_matches_reference() {
        let g = gen::barabasi_albert(300, 8, 3);
        check_against_naive(g, Pattern::FourClique, ClusterConfig::new(4).workers(1));
    }

    #[test]
    fn single_machine_also_correct() {
        let g = gen::caveman(10, 6, 5);
        check_against_naive(g, Pattern::ChordalSquare, ClusterConfig::new(1).workers(1));
    }

    #[test]
    fn collect_mode_returns_valid_matches() {
        let g = gen::complete(7);
        let query = Pattern::Triangle.query_graph();
        let cluster = HugeCluster::build(g.clone(), ClusterConfig::new(2)).unwrap();
        let report = cluster.run(&query, SinkMode::Collect(10)).unwrap();
        assert_eq!(report.matches, 35);
        assert!(!report.sample_matches.is_empty());
        // Samples come back in the input's ids.
        let mut rank = vec![0; g.num_vertices()];
        g.vertices().for_each(|v| rank[g.input_id(v) as usize] = v);
        for m in &report.sample_matches {
            let m: Vec<u32> = m.iter().map(|&v| rank[v as usize]).collect();
            assert_eq!(m.len(), 3);
            // Every pair must be an edge of the data graph.
            assert!(g.has_edge(m[0], m[1]));
            assert!(g.has_edge(m[1], m[2]));
            assert!(g.has_edge(m[0], m[2]));
        }
    }

    #[test]
    fn concurrent_runs_get_pairwise_distinct_spill_roots() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 64;
        let gate = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    (0..PER_THREAD).map(|_| spill_dir()).collect::<Vec<_>>()
                })
            })
            .collect();
        let dirs: Vec<PathBuf> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let distinct: std::collections::HashSet<&PathBuf> = dirs.iter().collect();
        assert_eq!(distinct.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn report_contains_traffic_and_memory() {
        let g = gen::barabasi_albert(500, 6, 9);
        let cluster = HugeCluster::build(g, ClusterConfig::new(4).workers(2)).unwrap();
        let report = cluster
            .run(&Pattern::Square.query_graph(), SinkMode::Count)
            .unwrap();
        assert!(report.matches > 0);
        assert!(report.comm_bytes > 0, "pulling must be accounted");
        assert!(report.peak_memory_bytes > 0);
        assert!(report.total_time() >= report.compute_time);
        assert_eq!(report.machines.len(), 4);
    }
}
