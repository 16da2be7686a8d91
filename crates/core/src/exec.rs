//! The shared batch-operator substrate.
//!
//! Every engine in this workspace — the HUGE engine itself *and* the
//! baseline systems in `huge-baselines` — executes physical operators over
//! columnar [`ColBatch`]es through this module, and ships the same
//! [`ColBatch`]es on its shuffle paths:
//!
//! * [`OpContext`] bundles what any operator needs from the machine it runs
//!   on: the graph partition, the pulling fabric, the adjacency cache, the
//!   worker pool and the batch size.
//! * [`BatchOperator`] is the uniform operator interface: inputs are pushed
//!   in as batches, outputs are polled out as batches ([`OpPoll`]).
//! * [`ScanSource`], [`PullExtend`] and
//!   [`HashJoiner`](crate::join::HashJoiner) are the HUGE operators (`SCAN`,
//!   `PULL-EXTEND`, `PUSH-JOIN`) behind that interface; the join implements
//!   it in [`crate::join`]. The baselines add their own sources (e.g. star
//!   scans) in their crate but reuse the joiner and the routing utilities
//!   below.
//! * [`partition_cols_by_key`] (and [`partition_cols_by_owner`]) scatter a
//!   batch's columns into one dense batch per destination machine; callers
//!   move those through the accounted `huge-comm` fabric
//!   (`RouterEndpoint::push` / `RpcFabric::get_nbrs`), so every engine's
//!   traffic is charged to [`huge_comm::ClusterStats`] by the same code path
//!   and the reported `C`/`T_C` columns are comparable.
//! * [`run_pipeline`] is a simple breadth-first driver (poll a stage to
//!   exhaustion, feed the next) used by the BFS-style baselines and by
//!   tests; the HUGE engine drives the same operators with its own
//!   BFS/DFS-adaptive scheduler in [`crate::machine`].

use std::collections::VecDeque;
use std::time::Duration;

use huge_cache::PullCache;
use huge_comm::{ColBatch, MachineId, RpcFabric};
use huge_graph::GraphPartition;
use huge_plan::translate::{ExtendOp, ScanOp};

use crate::join::{row_key_hash, scatter_rows};
use crate::operators::{ExtendSpec, ScanCursor, ScanPool};
use crate::pool::WorkerPool;
use crate::{EngineError, Result};

/// Everything an operator needs from its machine.
pub struct OpContext<'a> {
    /// The machine executing the operator.
    pub machine: MachineId,
    /// The machine's graph partition.
    pub partition: &'a GraphPartition,
    /// The pulling fabric (accounted `GetNbrs`).
    pub rpc: &'a RpcFabric,
    /// The machine's adjacency cache.
    pub cache: &'a dyn PullCache,
    /// `false` disables the cache (every remote list is fetched per batch).
    pub use_cache: bool,
    /// The machine's worker pool.
    pub pool: &'a WorkerPool,
    /// Rows per output batch.
    pub batch_size: usize,
}

/// The result of polling a [`BatchOperator`] for output.
#[derive(Debug)]
pub enum OpPoll {
    /// A batch of output rows was produced.
    Ready(ColBatch),
    /// No output is available now, but more input may still arrive.
    Pending,
    /// The operator has produced everything it ever will.
    Exhausted,
}

/// The uniform physical-operator interface: push input batches in, poll
/// output batches out.
///
/// Sources ignore `push_input`; unary operators take input through it;
/// binary operators (joins) expose side-specific feeds as inherent methods
/// and use [`BatchOperator::finish_input`] to seal both sides.
pub trait BatchOperator {
    /// Operator name for diagnostics.
    fn name(&self) -> &'static str;

    /// Arity of the output rows.
    fn output_arity(&self) -> usize;

    /// Feeds one input batch. The default rejects input (source operators).
    fn push_input(&mut self, input: ColBatch, ctx: &OpContext<'_>) -> Result<()> {
        let _ = (input, ctx);
        Err(EngineError::Config(format!(
            "{} is a source operator and takes no input",
            self.name()
        )))
    }

    /// Signals that no further input will arrive.
    fn finish_input(&mut self, ctx: &OpContext<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }

    /// Polls for the next output batch.
    fn poll_next(&mut self, ctx: &OpContext<'_>) -> Result<OpPoll>;
}

// ---------------------------------------------------------------------------
// SCAN
// ---------------------------------------------------------------------------

/// The `SCAN` source behind the [`BatchOperator`] interface.
///
/// Wraps a [`ScanCursor`] over a (stealable) [`ScanPool`]; each poll yields
/// one batch of `[src, dst]` edge rows as a run batch: the cursor emits a
/// vertex's edges consecutively, so `src` is stored once per vertex and the
/// first extend reads its runs like any later one.
pub struct ScanSource {
    cursor: ScanCursor,
}

impl ScanSource {
    /// Creates a scan over a pool of vertices.
    pub fn new(op: ScanOp, pool: ScanPool) -> Self {
        ScanSource {
            cursor: ScanCursor::new(op, pool),
        }
    }

    /// `true` while the scan may still produce batches (own or stolen work).
    pub fn has_more(&self) -> bool {
        self.cursor.has_more()
    }
}

impl BatchOperator for ScanSource {
    fn name(&self) -> &'static str {
        "SCAN"
    }

    fn output_arity(&self) -> usize {
        2
    }

    fn poll_next(&mut self, ctx: &OpContext<'_>) -> Result<OpPoll> {
        match self.cursor.next_batch(ctx) {
            Some(batch) => {
                // The cursor assembles rows; regroup them once into the
                // columnar currency and charge the column bytes.
                let (mut src, mut ends) = (Vec::new(), Vec::new());
                let mut dst = Vec::with_capacity(batch.len());
                for row in batch.rows() {
                    if src.last() != Some(&row[0]) {
                        if !dst.is_empty() {
                            ends.push(dst.len() as u32);
                        }
                        src.push(row[0]);
                    }
                    dst.push(row[1]);
                }
                // `batch_size` rows at most, far below 32 bits.
                ends.push(dst.len() as u32);
                let cols = ColBatch::from_runs(vec![src, dst], ends);
                ctx.rpc
                    .stats()
                    .machine(ctx.machine)
                    .record_col_bytes(cols.byte_size());
                Ok(OpPoll::Ready(cols))
            }
            // The pool may be refilled by work stealing, so an empty pool is
            // only `Exhausted` from the caller's termination protocol.
            None => Ok(OpPoll::Exhausted),
        }
    }
}

// ---------------------------------------------------------------------------
// PULL-EXTEND
// ---------------------------------------------------------------------------

/// The `PULL-EXTEND` operator behind the [`BatchOperator`] interface.
///
/// Each queued input batch runs the two-stage fetch/intersect extension
/// (Algorithm 4); fetch time and per-worker busy time accumulate and can be
/// drained with [`PullExtend::take_timings`].
///
/// In *count-only* mode ([`PullExtend::set_count_only`]) the operator never
/// materialises its output rows: it counts the extensions each input batch
/// would produce (accumulated in [`PullExtend::take_count`]) and emits no
/// batches — the fast path for count sinks on chain/path queries, whose
/// final extension column dominates the materialised volume.
pub struct PullExtend {
    spec: ExtendSpec,
    inputs: VecDeque<ColBatch>,
    input_done: bool,
    count_only: bool,
    counted: u64,
    fetch_time: Duration,
    worker_busy: Vec<Duration>,
}

impl PullExtend {
    /// Creates the operator over input rows of `input_arity` columns,
    /// compiling `op` against them once ([`ExtendSpec::compile`]).
    pub fn new(op: &ExtendOp, input_arity: usize) -> Self {
        PullExtend {
            spec: ExtendSpec::compile(op, input_arity),
            inputs: VecDeque::new(),
            input_done: false,
            count_only: false,
            counted: 0,
            fetch_time: Duration::ZERO,
            worker_busy: Vec::new(),
        }
    }

    /// The translated operator this executes.
    pub fn op(&self) -> &ExtendOp {
        self.spec.op()
    }

    /// Switches the operator to count-only mode: inputs are counted, not
    /// materialised, and polling never yields output batches.
    pub fn set_count_only(&mut self, count_only: bool) {
        self.count_only = count_only;
    }

    /// Drains the extensions counted in count-only mode.
    pub fn take_count(&mut self) -> u64 {
        std::mem::take(&mut self.counted)
    }

    /// Drains the accumulated (fetch time, per-worker busy time) counters.
    pub fn take_timings(&mut self) -> (Duration, Vec<Duration>) {
        (
            std::mem::take(&mut self.fetch_time),
            std::mem::take(&mut self.worker_busy),
        )
    }

    fn absorb_timings(&mut self, fetch: Duration, busy: &[Duration]) {
        self.fetch_time += fetch;
        if self.worker_busy.len() < busy.len() {
            self.worker_busy.resize(busy.len(), Duration::ZERO);
        }
        for (w, d) in busy.iter().enumerate() {
            self.worker_busy[w] += *d;
        }
    }
}

impl BatchOperator for PullExtend {
    fn name(&self) -> &'static str {
        "PULL-EXTEND"
    }

    fn output_arity(&self) -> usize {
        self.spec.output_arity()
    }

    fn push_input(&mut self, input: ColBatch, _ctx: &OpContext<'_>) -> Result<()> {
        self.inputs.push_back(input);
        Ok(())
    }

    fn finish_input(&mut self, _ctx: &OpContext<'_>) -> Result<()> {
        self.input_done = true;
        Ok(())
    }

    fn poll_next(&mut self, ctx: &OpContext<'_>) -> Result<OpPoll> {
        let Some(input) = self.inputs.pop_front() else {
            return Ok(if self.input_done {
                OpPoll::Exhausted
            } else {
                OpPoll::Pending
            });
        };
        if self.count_only {
            let out = self.spec.run_count_cols(&input, ctx);
            self.counted += out.count;
            self.absorb_timings(out.fetch_time, &out.worker_busy);
            return Ok(if self.input_done && self.inputs.is_empty() {
                OpPoll::Exhausted
            } else {
                OpPoll::Pending
            });
        }
        let out = self.spec.run_cols(input, ctx)?;
        self.absorb_timings(out.fetch_time, &out.worker_busy);
        Ok(OpPoll::Ready(out.batch))
    }
}

// ---------------------------------------------------------------------------
// Routing utilities
// ---------------------------------------------------------------------------

/// Hash-partitions the logical rows of `batch` over `k` machines by the given
/// key columns: one pass over the key columns computes the destinations, then
/// every column of every destination is one gather through the selection
/// vector, so the per-destination batches come out dense (input order kept).
/// A run batch is flattened first — the shuffle is where an extend's output
/// becomes rows.
///
/// This is the single partitioning function behind every shuffle in the
/// workspace (the HUGE `PUSH-JOIN` feed and the baselines' distributed hash
/// joins); the caller moves the per-destination batches through
/// `RouterEndpoint::push`, which is where the traffic gets charged. The
/// destination is [`key_hash`](crate::join::key_hash)` % k`, the hash the
/// receiving join takes its Grace partition from.
pub fn partition_cols_by_key(batch: &ColBatch, key_positions: &[usize], k: usize) -> Vec<ColBatch> {
    let batch = &*batch.flattened();
    let hash = row_key_hash(batch, key_positions);
    scatter(batch, |row| (hash(row) % k as u64) as usize, k)
}

/// Partitions the logical rows of `batch` over `k` machines by the *owner* of
/// the vertex in `column` (used by pushing wco extensions, which route
/// partial results to the owners of the vertices being intersected).
pub fn partition_cols_by_owner(
    batch: &ColBatch,
    column: usize,
    rpc: &RpcFabric,
    k: usize,
) -> Vec<ColBatch> {
    let batch = &*batch.flattened();
    let vertices = batch.column(column);
    scatter(batch, |row| rpc.owner(vertices[row]), k)
}

/// One dense batch per destination machine.
fn scatter(batch: &ColBatch, dest_of: impl Fn(usize) -> usize, k: usize) -> Vec<ColBatch> {
    let mut parts = vec![vec![Vec::new(); batch.arity()]; k];
    scatter_rows(batch, dest_of, parts.iter_mut());
    parts.into_iter().map(ColBatch::from_columns).collect()
}

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

/// Drives a chain of operators breadth-first: stage `i` is polled to
/// exhaustion and its batches fed to stage `i + 1`; the final stage's
/// batches go to `sink`.
///
/// This is the materialise-everything execution model of the baseline
/// systems (and of tests). The HUGE engine schedules the same operators
/// adaptively with bounded queues instead (see [`crate::machine`]).
pub fn run_pipeline(
    ops: &mut [&mut dyn BatchOperator],
    ctx: &OpContext<'_>,
    sink: &mut dyn FnMut(ColBatch),
) -> Result<()> {
    let n = ops.len();
    for i in 0..n {
        if i > 0 {
            ops[i].finish_input(ctx)?;
        }
        while let OpPoll::Ready(batch) = ops[i].poll_next(ctx)? {
            if batch.is_empty() {
                continue;
            }
            if i + 1 < n {
                let (_, downstream) = ops.split_at_mut(i + 1);
                downstream[0].push_input(batch, ctx)?;
            } else {
                sink(batch);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{HashJoiner, JoinSide, MemoryTrackerHandle};
    use huge_cache::LrbuCache;
    use huge_comm::stats::ClusterStats;
    use huge_graph::{gen, Partitioner};
    use huge_plan::physical::CommMode;
    use huge_plan::translate::{JoinOp, OrderFilter};
    use std::sync::Arc;

    fn setup(k: usize) -> (Vec<GraphPartition>, RpcFabric) {
        let g = gen::complete(8);
        let parts = Partitioner::new(k).unwrap().partition(g);
        let stats = ClusterStats::new(k);
        let fabric = RpcFabric::new(Arc::new(parts.clone()), stats);
        (parts, fabric)
    }

    #[test]
    fn scan_extend_pipeline_counts_triangles_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let mut total = 0u64;
        for (m, partition) in parts.iter().enumerate() {
            let cache = LrbuCache::new(1 << 20);
            let ctx = OpContext {
                machine: m,
                partition,
                rpc: &rpc,
                cache: &cache,
                use_cache: true,
                pool: &pool,
                batch_size: 64,
            };
            let mut scan = ScanSource::new(
                ScanOp {
                    src: 0,
                    dst: 1,
                    filters: vec![OrderFilter {
                        smaller: 0,
                        larger: 1,
                    }],
                },
                ScanPool::new(partition.local_vertices(), 4),
            );
            let mut extend = PullExtend::new(
                &ExtendOp {
                    target: 2,
                    ext_positions: vec![0, 1],
                    verify_position: None,
                    filters: vec![OrderFilter {
                        smaller: 1,
                        larger: 2,
                    }],
                    comm: CommMode::Pulling,
                },
                2,
            );
            let mut ops: [&mut dyn BatchOperator; 2] = [&mut scan, &mut extend];
            run_pipeline(&mut ops, &ctx, &mut |b| total += b.len() as u64).unwrap();
        }
        // K8 has C(8,3) = 56 triangles.
        assert_eq!(total, 56);
    }

    #[test]
    fn scan_batches_do_not_depend_on_the_worker_count() {
        // A skewed graph, one chunk cut into several per-worker slices, and
        // batches small enough that hubs overflow them: the pool hands the
        // slices to its workers in any order, the batches must not show it.
        let g = gen::barabasi_albert(1_500, 8, 5);
        let parts = Partitioner::new(1).unwrap().partition(g);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = LrbuCache::new(1 << 20);
        let scan = |workers| {
            let pool = WorkerPool::new(workers, crate::config::LoadBalance::WorkStealing);
            let ctx = OpContext {
                machine: 0,
                partition: &parts[0],
                rpc: &rpc,
                cache: &cache,
                use_cache: true,
                pool: &pool,
                batch_size: 100,
            };
            let op = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![],
            };
            let mut scan = ScanSource::new(op, ScanPool::new(parts[0].local_vertices(), 1024));
            let mut batches = Vec::new();
            while let OpPoll::Ready(batch) = scan.poll_next(&ctx).unwrap() {
                batches.push(batch);
            }
            batches
        };
        let one = scan(1);
        assert!(one.len() > 100);
        for workers in [2, 3] {
            assert!(scan(workers) == one, "{workers} workers");
        }
    }

    #[test]
    fn push_join_trait_path_buffers_outputs() {
        let (parts, rpc) = setup(1);
        let cache = LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let ctx = OpContext {
            machine: 0,
            partition: &parts[0],
            rpc: &rpc,
            cache: &cache,
            use_cache: true,
            pool: &pool,
            // The seal takes it: four joined rows come out in two batches.
            batch_size: 3,
        };
        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0],
            key_right: vec![0],
            right_payload: vec![1],
            filters: vec![],
        };
        let dir = std::env::temp_dir().join(format!("huge-exec-test-{}", std::process::id()));
        let build = |count_only: bool| {
            let memory = MemoryTrackerHandle::Untracked;
            let mut join = HashJoiner::new(op.clone(), 2, 2, 1 << 20, dir.clone(), memory);
            join.set_count_only(count_only);
            let left = ColBatch::from_columns(vec![vec![1, 2, 1], vec![10, 20, 11]]);
            let right = ColBatch::from_columns(vec![vec![1, 1], vec![100, 101]]);
            join.add(JoinSide::Left, &left).unwrap();
            join.add(JoinSide::Right, &right).unwrap();
            // Adoption before the seal and input after it are refused.
            let adopted = join.adopt_partition(Vec::new(), Vec::new());
            assert!(matches!(adopted, Err(EngineError::Config(_))));
            join.finish_input(&ctx).unwrap();
            let late = join.add(JoinSide::Left, &left);
            assert!(matches!(late, Err(EngineError::Config(_))));
            join
        };
        let mut join = build(false);
        let mut rows = Vec::new();
        while let OpPoll::Ready(b) = join.poll_next(&ctx).unwrap() {
            assert!(b.len() <= 3);
            rows.extend(b.to_rows().rows().map(|r| r.to_vec()));
        }
        rows.sort();
        let expected = [[1, 10, 100], [1, 10, 101], [1, 11, 100], [1, 11, 101]];
        assert_eq!(rows, expected.map(Vec::from));
        assert_eq!((join.produced(), join.counted()), (4, 0));
        assert!(matches!(join.poll_next(&ctx).unwrap(), OpPoll::Exhausted));
        // Count-only: the same probe, nothing emitted, the same rows counted.
        let mut counting = build(true);
        while let OpPoll::Pending = counting.poll_next(&ctx).unwrap() {}
        assert_eq!(counting.counted(), rows.len() as u64);
    }

    #[test]
    fn partition_by_key_is_total_and_deterministic() {
        let mut batch = ColBatch::from_columns(vec![(0..40).collect(), (100..140).collect()]);
        batch.set_selection((0..40).filter(|i| i % 3 != 0).collect());
        let parts = partition_cols_by_key(&batch, &[0], 4);
        let total: usize = parts.iter().map(|b| b.len()).sum();
        assert_eq!(total, batch.len());
        for part in &parts {
            // Dense, the payload still beside its key, input order kept.
            assert_eq!(part.selection(), None);
            assert!(part.column(0).windows(2).all(|w| w[0] < w[1]));
            for (key, payload) in part.column(0).iter().zip(part.column(1)) {
                assert!(key % 3 != 0 && *payload == key + 100);
            }
        }
        assert_eq!(partition_cols_by_key(&batch, &[0], 4), parts);
    }

    #[test]
    fn partition_by_owner_routes_to_owners() {
        let (_parts, rpc) = setup(3);
        let batch = ColBatch::from_columns(vec![(0..8).collect()]);
        let routed = partition_cols_by_owner(&batch, 0, &rpc, 3);
        assert_eq!(routed.iter().map(|b| b.len()).sum::<usize>(), 8);
        for (m, b) in routed.iter().enumerate() {
            for &v in b.column(0) {
                assert_eq!(rpc.owner(v), m);
            }
        }
    }
}
