//! The traced run: one figure per layer, measured from outside.
//!
//! After a short end-to-end phase (tracing off) that supplies the reference
//! `run_s` and the engine's own counters, the layer pass replays the
//! workload's dataflow stage by stage on one thread — each machine's share
//! of the scans and extends in turn, then machine 0's share of each join —
//! calling the same public layer functions the engine calls and wrapping
//! every call in a harness span. Each stage's input is capped at
//! [`STAGE_ROWS`] rows so a pass stays short; every figure is the median of
//! [`PASSES`] passes.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, Router, RouterEndpoint, RpcFabric};
use huge_core::exec::partition_cols_by_key;
use huge_core::join::{HashJoiner, JoinSide, MemoryTrackerHandle};
use huge_core::memory::MemoryTracker;
use huge_core::operators::{run_extend_cols, run_extend_count_cols, ScanCursor, ScanPool};
use huge_core::pool::WorkerPool;
use huge_core::scheduler::SharedQueue;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, OpContext, TraceConfig};
use huge_graph::kernels::{intersect_count_adaptive, intersect_count_merge};
use huge_graph::{Graph, GraphPartition, Partitioner, VertexId};
use huge_plan::translate::{translate, Dataflow, JoinOp, ScanOp, Segment, SegmentSource};

use crate::e2e::{self, mib, Ops, Outcome, Prepared, Rep};
use crate::metrics::{Metrics, PER_LAYER};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Workload, MACHINES, WORKERS};

/// Untraced end-to-end repetitions of a traced run (the reference for
/// `trace.overhead_ratio` and `cluster.k2_speedup`).
pub const UNTRACED_REPS: usize = 5;
/// Repetitions of the `machines = 1` serial baseline.
pub const K1_REPS: usize = 3;
/// Passes of the layer replay and of every micro-measurement.
pub const PASSES: usize = 5;
/// Row cap of each replayed stage's input, summed over the machines.
pub const STAGE_ROWS: usize = 1 << 19;
const MACHINE_STAGE_ROWS: usize = STAGE_ROWS / MACHINES;
/// Edge pairs timed through the intersection kernel.
const KERNEL_PAIRS: usize = 200_000;
/// Vertices per `GetNbrs` request and per cache seal/release bracket.
const FETCH_GROUP: usize = 4096;
/// Push/pop cycles per pass of the queue measurement.
const QUEUE_CYCLES: usize = 100_000;
/// Vertices per stealable scan chunk (the engine's own chunk size).
const SCAN_CHUNK: usize = 1024;
/// Length of the two arrays of the host-speed calibration loop.
const CALIB_LEN: u32 = 2_000_000;
const CALIB_ROUNDS: usize = 12;

/// A quantity accumulated over timed calls, read as a rate.
#[derive(Default, Clone, Copy)]
struct Rate {
    units: f64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, units: f64, took: Duration) {
        self.units += units;
        self.secs += took.as_secs_f64();
    }

    fn per_s(&self) -> f64 {
        self.units / self.secs
    }
}

/// The rates one replay pass measured. A rate whose layer the dataflow does
/// not use stays empty.
#[derive(Default)]
struct Replay {
    scan: Rate,
    extend: Rate,
    count: Rate,
    /// Seconds in `fetch_stage` over seconds in extend calls.
    fetch: Rate,
    shuffle: Rate,
    to_rows: Rate,
    router: Rate,
    build: Rate,
    probe: Rate,
    spill: Rate,
}

/// What the layer functions need from a machine, built once per run.
struct Env {
    cfg: ClusterConfig,
    partitions: Arc<Vec<GraphPartition>>,
    rpc: RpcFabric,
    pool: WorkerPool,
    cache_bytes: u64,
    scratch: PathBuf,
}

/// Where the run's spill files and trace files go: `bench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64: the harness's own seeded generator, so the sampled inputs
/// depend on `--seed` and nothing else.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A fixed single-threaded merge loop, timed around every repetition. It is
/// reported, never used to rescale: it tells a noisy host from a noisy
/// program.
struct HostCalibration {
    a: Vec<VertexId>,
    b: Vec<VertexId>,
    millis: Vec<f64>,
}

impl HostCalibration {
    fn new() -> Self {
        HostCalibration {
            a: (0..CALIB_LEN).map(|i| i * 2).collect(),
            b: (0..CALIB_LEN).map(|i| i * 3).collect(),
            millis: Vec::new(),
        }
    }

    fn sample(&mut self, spans: &Spans) {
        let (_, took) = spans.scope("host.calibration", || {
            for _ in 0..CALIB_ROUNDS {
                black_box(intersect_count_merge(
                    black_box(&self.a),
                    black_box(&self.b),
                ));
            }
        });
        self.millis.push(took.as_secs_f64() * 1e3);
    }
}

/// The traced run of one workload.
pub fn run(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let spans = Spans::new(true);
    let mut ops = Ops::default();
    let mut m = Metrics::new(PER_LAYER);
    let mut info = Vec::new();

    e2e::oracle_check(w, seed, &mut ops, &spans);
    let p = e2e::prepare(w, seed, &mut Vec::new(), &spans)?;

    // End-to-end phase, tracing off.
    let mut calib = HostCalibration::new();
    let (matches, reps) = e2e::timed_reps(&p, UNTRACED_REPS, &mut ops, &spans, || {
        calib.sample(&spans);
        Ok(())
    })?;
    let run_s = stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    engine_counters(w, &reps, &mut m);
    m.set("host.calib_ms", stats::median(&calib.millis));
    m.set(
        "host.calib_spread",
        (stats::max(&calib.millis) - stats::min(&calib.millis)) / stats::median(&calib.millis),
    );
    info.push(e2e::graph_info(&p.graph));
    info.push(format!("matches {matches}"));
    info.push(format!(
        "run_s {run_s:.4} (median of {} untraced)",
        reps.len()
    ));

    // One repetition with the engine's flight recorder in full-span mode.
    let traced_cluster = HugeCluster::build(
        p.graph.clone(),
        w.config(MACHINES).tracing(TraceConfig::full()),
    )
    .map_err(|e| format!("traced build: {e}"))?;
    if let Some(rep) = e2e::run_rep(
        "run_dataflow.traced",
        &traced_cluster,
        &p.dataflow,
        Some(matches),
        &mut ops,
        &spans,
    ) {
        traced_rep(w, &rep, run_s, &mut m)?;
    }

    // The serial baseline: the same query on one machine.
    let (k1_cluster, k1_dataflow) = HugeCluster::build(p.graph.clone(), w.config(1))
        .and_then(|c| {
            let dataflow = translate(&c.plan(&w.query_graph())?)?;
            Ok((c, dataflow))
        })
        .map_err(|e| format!("k1 build: {e}"))?;
    let k1_walls: Vec<f64> = (0..K1_REPS)
        .filter_map(|_| {
            e2e::run_rep(
                "run_dataflow.k1",
                &k1_cluster,
                &k1_dataflow,
                Some(matches),
                &mut ops,
                &spans,
            )
        })
        .map(|r| r.wall_s)
        .collect();
    if !k1_walls.is_empty() {
        let k1_run_s = stats::median(&k1_walls);
        m.set("cluster.k1_run_s", k1_run_s);
        m.set("cluster.k2_speedup", k1_run_s / run_s);
    }

    layer_pass(w, &p, seed, &spans, &mut m)?;

    for t in spans.layer_times() {
        info.push(format!(
            "span {} calls {} total_ms {:.3} self_ms {:.3}",
            t.name,
            t.calls,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3
        ));
    }
    let path = out_dir().join(format!("{}.harness-trace.json", w.name));
    std::fs::write(&path, spans.chrome_json(w.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    info.push(format!("harness trace {}", path.display()));
    Ok(Outcome {
        metrics: m,
        ops,
        info,
    })
}

/// Figures the engine counts itself, averaged over the untraced repetitions.
fn engine_counters(w: &Workload, reps: &[Rep], m: &mut Metrics) {
    let mean_of = |f: &dyn Fn(&Rep) -> f64| stats::mean(&reps.iter().map(f).collect::<Vec<_>>());

    let kernel_calls = mean_of(&|r| r.report.comm.kernel_invocations() as f64);
    if kernel_calls > 0.0 {
        m.set(
            "graph.kernels.merge_share",
            mean_of(&|r| r.report.comm.kernel_merge as f64) / kernel_calls,
        );
        m.set(
            "graph.kernels.gallop_share",
            mean_of(&|r| r.report.comm.kernel_gallop as f64) / kernel_calls,
        );
        m.set(
            "graph.kernels.bitmap_share",
            mean_of(&|r| r.report.comm.kernel_bitmap as f64) / kernel_calls,
        );
    }
    m.set("cache.hit_rate", mean_of(&|r| r.report.cache.hit_rate()));
    m.set(
        "cluster.steal_batches",
        mean_of(&|r| {
            r.report
                .machines
                .iter()
                .map(|m| m.batches_stolen)
                .sum::<u64>() as f64
        }),
    );
    m.set(
        "cluster.pulled_mib",
        mean_of(&|r| mib(r.report.comm.bytes_pulled)),
    );
    m.set(
        "cluster.pushed_mib",
        mean_of(&|r| mib(r.report.comm.bytes_pushed)),
    );
    m.set(
        "cluster.stolen_mib",
        mean_of(&|r| mib(r.report.comm.bytes_stolen)),
    );

    if w.budget_mib.is_some() {
        let gov = |f: &dyn Fn(&huge_core::GovernorReport) -> f64| {
            mean_of(&|r| r.report.governor.as_ref().map_or(0.0, f))
        };
        m.set("governor.transitions", gov(&|g| g.transitions() as f64));
        m.set("governor.spilled_mib", gov(&|g| mib(g.spilled_bytes)));
        m.set(
            "governor.throttled_batches",
            gov(&|g| g.throttled_batches as f64),
        );
        let over: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.report.governor.as_ref())
            .map(|g| g.peak_bytes as f64 / g.machine_budget_bytes as f64)
            .collect();
        if !over.is_empty() {
            m.set("governor.peak_over_budget", stats::max(&over));
        }
    }
}

/// Figures from the repetition with the flight recorder on; writes the
/// engine's own Chrome trace beside the harness trace.
fn traced_rep(w: &Workload, rep: &Rep, run_s: f64, m: &mut Metrics) -> Result<(), String> {
    let r = &rep.report;
    m.set("cluster.traced_run_s", rep.wall_s);
    m.set("trace.overhead_ratio", rep.wall_s / run_s);
    let wall = r.compute_time.as_secs_f64();
    m.set("cluster.fetch_share", r.fetch_time.as_secs_f64() / wall);
    let compute: Vec<f64> = r
        .machines
        .iter()
        .map(|m| m.compute_time.as_secs_f64())
        .collect();
    m.set(
        "cluster.machine_imbalance",
        stats::max(&compute) / stats::mean(&compute),
    );
    let trace = r
        .trace
        .as_ref()
        .ok_or("the traced repetition carries no trace summary")?;
    let total = MACHINES as f64 * wall;
    let busy: f64 = trace.segments.iter().map(|s| s.busy.as_secs_f64()).sum();
    let wait: f64 = trace.segments.iter().map(|s| s.wait.as_secs_f64()).sum();
    m.set("cluster.busy_share", busy / total);
    m.set("cluster.wait_share", wait / total);
    let json = trace
        .chrome_json
        .as_ref()
        .ok_or("the traced repetition carries no Chrome trace")?;
    let path = out_dir().join(format!("{}.engine-trace.json", w.name));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Median over the passes of one rate; `None` when no pass measured it.
fn median_rate(passes: &[Replay], pick: impl Fn(&Replay) -> Rate) -> Option<f64> {
    let rates: Vec<f64> = passes
        .iter()
        .map(&pick)
        .filter(|r| r.secs > 0.0)
        .map(|r| r.per_s())
        .collect();
    (!rates.is_empty()).then(|| stats::median(&rates))
}

fn layer_pass(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    spans: &Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let cfg = w.config(MACHINES);

    // graph: partitioning plus the hub index, the bulk of `setup_s`.
    let mut partition_ms = Vec::with_capacity(PASSES);
    let mut partitions = Vec::new();
    for _ in 0..PASSES {
        let copy = p.graph.clone();
        let (parts, took) = spans.scope("graph.partition", || {
            let mut parts = Partitioner::new(MACHINES)
                .expect("MACHINES is positive")
                .partition(copy);
            for part in &mut parts {
                part.build_hub_index(cfg.hub_degree_threshold);
            }
            parts
        });
        partition_ms.push(took.as_secs_f64() * 1e3);
        partitions = parts;
    }
    m.set("graph.partition_ms", stats::median(&partition_ms));

    // plan: optimiser plus translation.
    let query = w.query_graph();
    let mut optimize_us = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (res, took) = spans.scope("plan.optimize", || {
            p.cluster
                .plan(&query)
                .and_then(|plan| Ok(translate(&plan)?))
        });
        res.map_err(|e| format!("plan: {e}"))?;
        optimize_us.push(took.as_secs_f64() * 1e6);
    }
    m.set("plan.optimize_us", stats::median(&optimize_us));

    m.set(
        "graph.kernels.intersect_ns",
        kernel_ns(&p.graph, seed, spans),
    );

    let partitions = Arc::new(partitions);
    let scratch = out_dir()
        .join("tmp")
        .join(format!("layers-{}", std::process::id()));
    let env = Env {
        rpc: RpcFabric::new(Arc::clone(&partitions), ClusterStats::new(MACHINES)),
        pool: WorkerPool::new(WORKERS, LoadBalance::WorkStealing),
        cache_bytes: cfg.effective_cache_bytes(p.cluster.graph_stats().csr_bytes),
        partitions,
        cfg,
        scratch,
    };

    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (pass, _) = spans.scope("replay", || {
            replay(&p.dataflow, &env, w.budget_mib.is_some(), spans)
        });
        passes.push(pass?);
    }
    let _ = std::fs::remove_dir_all(&env.scratch);
    let mut set = |name: &str, pick: fn(&Replay) -> Rate| {
        if let Some(v) = median_rate(&passes, pick) {
            m.set(name, v);
        }
    };
    set("core.scan.rows_per_s", |r| r.scan);
    set("core.pull_extend.rows_per_s", |r| r.extend);
    set("core.pull_extend.count_rows_per_s", |r| r.count);
    set("core.pull_extend.fetch_share", |r| r.fetch);
    set("core.shuffle.partition_rows_per_s", |r| r.shuffle);
    set("comm.batch.to_rows_mib_per_s", |r| r.to_rows);
    set("comm.router.push_recv_mib_per_s", |r| r.router);
    set("core.join.build_rows_per_s", |r| r.build);
    set("core.join.probe_rows_per_s", |r| r.probe);
    set("core.join.spill_mib_per_s", |r| r.spill);

    fetch_layers(&env, spans, m);
    m.set("core.queue.push_pop_ns", queue_ns(&p.dataflow, &env, spans));
    Ok(())
}

/// Nanoseconds per `intersect_count_adaptive` over seeded edge pairs
/// `(N(u), N(v))` of the workload's graph.
fn kernel_ns(graph: &Graph, seed: u64, spans: &Spans) -> f64 {
    let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    if edges.is_empty() {
        return 0.0;
    }
    let mut rng = SplitMix64(seed);
    let pairs: Vec<(VertexId, VertexId)> = (0..KERNEL_PAIRS)
        .map(|_| edges[(rng.next() % edges.len() as u64) as usize])
        .collect();
    let per_call: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (_, took) = spans.scope("graph.kernels.intersect_count_adaptive", || {
                let mut total = 0u64;
                for &(u, v) in &pairs {
                    total += intersect_count_adaptive(graph.neighbours(u), graph.neighbours(v)).0;
                }
                black_box(total)
            });
            took.as_secs_f64() * 1e9 / pairs.len() as f64
        })
        .collect();
    stats::median(&per_call)
}

fn op_context<'a>(
    env: &'a Env,
    machine: usize,
    cache: &'a dyn huge_cache::PullCache,
) -> OpContext<'a> {
    OpContext {
        machine,
        partition: &env.partitions[machine],
        rpc: &env.rpc,
        cache,
        use_cache: !env.cfg.disable_cache,
        pool: &env.pool,
        batch_size: env.cfg.batch_size,
    }
}

fn scan_cursor(scan: &ScanOp, ctx: &OpContext<'_>) -> ScanCursor {
    ScanCursor::new(
        scan.clone(),
        ScanPool::new(ctx.partition.local_vertices(), SCAN_CHUNK),
    )
}

/// One pass over the dataflow, segment by segment. A scan segment is
/// replayed once per machine, over that machine's vertices (one machine's
/// share alone can starve a join: on a bipartite graph split by vertex
/// parity its two inputs share no key). A join segment is machine 0's. The
/// caches start cold, as they do in every engine run.
fn replay(dataflow: &Dataflow, env: &Env, spill: bool, spans: &Spans) -> Result<Replay, String> {
    let caches: Vec<_> = (0..MACHINES)
        .map(|_| env.cfg.cache_kind.build(env.cache_bytes))
        .collect();
    let ctxs: Vec<OpContext<'_>> = caches
        .iter()
        .enumerate()
        .map(|(m, cache)| op_context(env, m, cache.as_ref()))
        .collect();
    let mut acc = Replay::default();
    // Output batches per segment, per producing machine.
    let mut outputs: Vec<Vec<Vec<ColBatch>>> = Vec::with_capacity(dataflow.segments.len());
    for seg in &dataflow.segments {
        let is_root = seg.id + 1 == dataflow.segments.len();
        let per_machine = match &seg.source {
            SegmentSource::Scan(scan) => ctxs
                .iter()
                .map(|ctx| {
                    let source = replay_scan(scan, ctx, &mut acc, spans);
                    replay_extends(seg, is_root, source, ctx, &mut acc, spans)
                })
                .collect(),
            SegmentSource::Join(join) => {
                let joined = replay_join(
                    join,
                    seg.id,
                    &outputs[join.left],
                    &outputs[join.right],
                    env,
                    spill,
                    &mut acc,
                    spans,
                )?;
                let mut per_machine = vec![replay_extends(
                    seg, is_root, joined, &ctxs[0], &mut acc, spans,
                )];
                per_machine.resize_with(MACHINES, Vec::new);
                per_machine
            }
        };
        outputs.push(per_machine);
    }
    Ok(acc)
}

fn replay_scan(
    scan: &ScanOp,
    ctx: &OpContext<'_>,
    acc: &mut Replay,
    spans: &Spans,
) -> Vec<ColBatch> {
    let mut cursor = scan_cursor(scan, ctx);
    let mut out = Vec::new();
    let mut rows = 0;
    while rows < MACHINE_STAGE_ROWS {
        let (batch, took) = spans.scope("core.scan.next_batch", || cursor.next_batch(ctx));
        let Some(batch) = batch else { break };
        acc.scan.add(batch.len() as f64, took);
        rows += batch.len();
        out.push(ColBatch::from_rows(&batch));
    }
    out
}

/// Runs the segment's extend chain over `batches`. The root segment's last
/// extend only counts, as it does under `SinkMode::Count`.
fn replay_extends(
    seg: &Segment,
    is_root: bool,
    mut batches: Vec<ColBatch>,
    ctx: &OpContext<'_>,
    acc: &mut Replay,
    spans: &Spans,
) -> Vec<ColBatch> {
    for (i, op) in seg.extends.iter().enumerate() {
        if is_root && i + 1 == seg.extends.len() {
            for batch in &batches {
                let (out, took) = spans.scope("core.pull_extend.run_extend_count_cols", || {
                    run_extend_count_cols(op, batch, ctx)
                });
                black_box(out.count);
                acc.count.add(batch.len() as f64, took);
                acc.fetch.add(out.fetch_time.as_secs_f64(), took);
            }
            return Vec::new();
        }
        let mut next = Vec::new();
        let mut rows = 0;
        for batch in batches {
            if rows >= MACHINE_STAGE_ROWS {
                break;
            }
            let (out, took) = spans.scope("core.pull_extend.run_extend_cols", || {
                run_extend_cols(op, batch, ctx)
            });
            acc.extend.add(out.batch.len() as f64, took);
            acc.fetch.add(out.fetch_time.as_secs_f64(), took);
            rows += out.batch.len();
            // The engine re-chunks an extend's output before queueing it.
            next.extend(out.batch.split_into_chunks(ctx.batch_size));
        }
        batches = next;
    }
    batches
}

/// Replays one `PUSH-JOIN`: shuffle every machine's batches of the two
/// producing segments by key, move every partition through a bounded router
/// inbox, build machine 0's Grace join from what lands in its inbox, then
/// probe it.
#[allow(clippy::too_many_arguments)]
fn replay_join(
    op: &JoinOp,
    segment: usize,
    left: &[Vec<ColBatch>],
    right: &[Vec<ColBatch>],
    env: &Env,
    spill: bool,
    acc: &mut Replay,
    spans: &Spans,
) -> Result<Vec<ColBatch>, String> {
    let (Some(l), Some(r)) = (left.iter().flatten().next(), right.iter().flatten().next()) else {
        return Ok(Vec::new());
    };
    let router = Router::with_capacity(
        MACHINES,
        ClusterStats::new(MACHINES),
        env.cfg.router_queue_rows.max(1),
    );
    let endpoints: Vec<RouterEndpoint> = (0..MACHINES).map(|m| router.endpoint(m)).collect();
    let mut joiner = HashJoiner::new(
        op.clone(),
        l.arity(),
        r.arity(),
        env.cfg.join_buffer_bytes,
        env.scratch.join(format!("seg-{segment}")),
        MemoryTrackerHandle::Tracked(Arc::new(MemoryTracker::new())),
    );
    let sides = [
        (JoinSide::Left, left, &op.key_left),
        (JoinSide::Right, right, &op.key_right),
    ];
    for (side, producers, keys) in sides {
        let batches = producers
            .iter()
            .enumerate()
            .flat_map(|(m, batches)| batches.iter().map(move |b| (m, b)));
        for (producer, batch) in batches {
            let (parts, took) = spans.scope("core.shuffle.partition_cols_by_key", || {
                partition_cols_by_key(batch, keys, MACHINES)
            });
            acc.shuffle.add(batch.len() as f64, took);

            // The conversion every wire crossing pays, there and back.
            let (_, took) = spans.scope("comm.batch.to_rows+from_rows", || {
                black_box(ColBatch::from_rows(&batch.to_rows()))
            });
            let wire_bytes = (batch.len() * batch.arity() * std::mem::size_of::<VertexId>()) as u64;
            acc.to_rows.add(2.0 * mib(wire_bytes), took);

            for (dest, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let bytes = part.byte_size();
                let (envelope, took) = spans.scope("comm.router.try_push+try_recv_segment", || {
                    endpoints[producer]
                        .try_push(dest, segment, part)
                        .expect("the inbox is drained after every push");
                    endpoints[dest]
                        .try_recv_segment(segment)
                        .expect("the envelope just pushed")
                });
                acc.router.add(mib(bytes), took);
                if dest != 0 {
                    continue;
                }
                let rows = envelope.batch.len();
                let (added, took) =
                    spans.scope("core.join.add", || joiner.add(side, &envelope.batch));
                added.map_err(|e| format!("join build: {e}"))?;
                acc.build.add(rows as f64, took);
            }
        }
    }

    let mut spill_time = Duration::ZERO;
    let mut spilled = 0;
    if spill {
        let (bytes, took) = spans.scope("core.join.spill_to_disk", || joiner.spill_to_disk());
        spilled = bytes.map_err(|e| format!("join spill: {e}"))?;
        spill_time = took;
    }
    let mut stream = joiner.into_stream(env.cfg.batch_size);
    let mut out = Vec::new();
    let mut rows = 0;
    let mut probe_time = Duration::ZERO;
    while rows < STAGE_ROWS {
        let (batch, took) = spans.scope("core.join.next_batch", || stream.next_batch());
        probe_time += took;
        let Some(batch) = batch.map_err(|e| format!("join probe: {e}"))? else {
            break;
        };
        acc.probe.add(batch.len() as f64, took);
        rows += batch.len();
        out.push(batch);
    }
    if spilled > 0 {
        acc.spill.add(mib(spilled), spill_time + probe_time);
    }
    Ok(out)
}

/// `GetNbrs` and the LRBU cache over the vertices remote to machine 0, in the
/// groups a fetch stage would use.
fn fetch_layers(env: &Env, spans: &Spans, m: &mut Metrics) {
    let remote: Vec<VertexId> = env.partitions[1..]
        .iter()
        .flat_map(|p| p.local_vertices().iter().copied())
        .collect();
    if remote.is_empty() {
        return;
    }
    let mut rpc_rate = Vec::with_capacity(PASSES);
    let mut insert_ns = Vec::with_capacity(PASSES);
    let mut read_ns = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let cache = env.cfg.cache_kind.build(env.cache_bytes);
        let mut rpc = Rate::default();
        let mut insert = Rate::default();
        let mut read = Rate::default();
        for group in remote.chunks(FETCH_GROUP) {
            let (lists, took) = spans.scope("comm.rpc.get_nbrs", || env.rpc.get_nbrs(0, group));
            let bytes: usize = lists
                .iter()
                .map(|(_, l)| l.len() * std::mem::size_of::<VertexId>())
                .sum();
            rpc.add(mib(bytes as u64), took);

            let n = lists.len() as f64;
            let (_, took) = spans.scope("cache.lrbu.insert+seal", || {
                for (v, list) in lists {
                    cache.insert(v, list);
                    cache.seal(v);
                }
            });
            insert.add(n, took);
            let (_, took) = spans.scope("cache.lrbu.read", || {
                let mut total = 0usize;
                for &v in group {
                    cache.read(v, &mut |list| total += list.len());
                }
                black_box(total)
            });
            read.add(n, took);
            cache.release();
        }
        rpc_rate.push(rpc.per_s());
        insert_ns.push(1e9 / insert.per_s());
        read_ns.push(1e9 / read.per_s());
    }
    m.set("comm.rpc.get_nbrs_mib_per_s", stats::median(&rpc_rate));
    m.set("cache.lrbu.insert_seal_ns", stats::median(&insert_ns));
    m.set("cache.lrbu.read_ns", stats::median(&read_ns));
}

/// Nanoseconds per `SharedQueue::push` + `pop` of one scan batch, with a
/// memory tracker attached as in the engine.
fn queue_ns(dataflow: &Dataflow, env: &Env, spans: &Spans) -> f64 {
    let Some(scan) = dataflow.segments.iter().find_map(|s| match &s.source {
        SegmentSource::Scan(scan) => Some(scan),
        SegmentSource::Join(_) => None,
    }) else {
        return 0.0;
    };
    let cache = env.cfg.cache_kind.build(env.cache_bytes);
    let ctx = op_context(env, 0, cache.as_ref());
    let Some(rows) = scan_cursor(scan, &ctx).next_batch(&ctx) else {
        return 0.0;
    };
    let queue = SharedQueue::new(
        env.cfg.output_queue_rows,
        Some(Arc::new(MemoryTracker::new())),
    );
    let mut slot = Some(ColBatch::from_rows(&rows));
    let per_cycle: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (_, took) = spans.scope("core.queue.push+pop", || {
                for _ in 0..QUEUE_CYCLES {
                    queue.push(slot.take().expect("the batch popped last cycle"));
                    slot = queue.pop();
                }
            });
            took.as_secs_f64() * 1e9 / QUEUE_CYCLES as f64
        })
        .collect();
    stats::median(&per_cycle)
}
