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
//! * [`ScanSource`], [`PullExtend`] and [`PushJoin`] are the HUGE operators
//!   (`SCAN`, `PULL-EXTEND`, `PUSH-JOIN`) behind that interface. The
//!   baselines add their own sources (e.g. star scans) in their crate but
//!   reuse [`PushJoin`] and the routing utilities below.
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
use std::path::PathBuf;
use std::time::Duration;

use huge_cache::PullCache;
use huge_comm::{ColBatch, MachineId, RpcFabric};
use huge_graph::GraphPartition;
use huge_plan::translate::{ExtendOp, JoinOp, ScanOp};

use crate::join::{
    row_key_hash, scatter_rows, HashJoiner, JoinSide, JoinStream, MemoryTrackerHandle,
};
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
// PUSH-JOIN
// ---------------------------------------------------------------------------

/// The `PUSH-JOIN` operator behind the [`BatchOperator`] interface.
///
/// A binary operator: feed each side with [`PushJoin::push_side`], then seal
/// with [`BatchOperator::finish_input`] and poll. Sealing converts the
/// buffered joiner into a lazily-driven [`JoinStream`], so *polling* drives
/// the Grace partitions one at a time — memory is bounded by one partition
/// plus one output batch on every consumption path.
///
/// In *count-only* mode ([`PushJoin::set_count_only`]) polling drives the
/// same probe but only counts the joined rows ([`PushJoin::take_count`]) and
/// emits no batches — the fast path for a join feeding a counting sink.
pub struct PushJoin {
    joiner: Option<HashJoiner>,
    stream: Option<JoinStream>,
    out_arity: usize,
    batch_rows: usize,
    count_only: bool,
    counted: u64,
    cancel: Option<crate::cancel::CancelToken>,
}

impl PushJoin {
    /// Creates the join over the given producer arities.
    pub fn new(
        op: JoinOp,
        left_arity: usize,
        right_arity: usize,
        spill_threshold_bytes: u64,
        spill_dir: PathBuf,
        memory: MemoryTrackerHandle,
        batch_rows: usize,
    ) -> Self {
        let joiner = HashJoiner::new(
            op,
            left_arity,
            right_arity,
            spill_threshold_bytes,
            spill_dir,
            memory,
        );
        let out_arity = joiner.output_arity();
        PushJoin {
            joiner: Some(joiner),
            stream: None,
            out_arity,
            batch_rows: batch_rows.max(1),
            count_only: false,
            counted: 0,
            cancel: None,
        }
    }

    /// Switches the operator to count-only mode: joined rows are counted,
    /// not materialised, and polling never yields output batches.
    pub fn set_count_only(&mut self, count_only: bool) {
        self.count_only = count_only;
    }

    /// Drains the joined rows counted in count-only mode.
    pub fn take_count(&mut self) -> u64 {
        std::mem::take(&mut self.counted)
    }

    /// `(candidate pairs tested, pairs that survived)` by the probe so far.
    pub fn probe_stats(&self) -> (u64, u64) {
        let stream = self.stream.as_ref();
        stream.map_or((0, 0), |s| (s.tested(), s.produced()))
    }

    /// Threads the run's cancellation token into the join so probing
    /// ([`JoinStream::next_batch`]) polls it at batch granularity.
    pub fn set_cancel(&mut self, cancel: crate::cancel::CancelToken) {
        if let Some(stream) = self.stream.as_mut() {
            stream.set_cancel(cancel.clone());
        }
        self.cancel = Some(cancel);
    }

    /// Feeds one input batch to one side of the join.
    pub fn push_side(&mut self, side: JoinSide, batch: &ColBatch) -> Result<()> {
        match self.joiner.as_mut() {
            Some(j) => j.add(side, batch),
            None => Err(EngineError::Config(
                "PUSH-JOIN received input after finishing".into(),
            )),
        }
    }

    /// Joined rows emitted or counted so far.
    pub fn produced(&self) -> u64 {
        self.probe_stats().1
    }

    /// `true` while the join may still produce output (inputs not sealed, or
    /// the sealed stream has partitions left).
    pub fn has_more(&self) -> bool {
        self.joiner.is_some() || self.stream.as_ref().is_some_and(|s| !s.is_exhausted())
    }

    /// Bytes currently buffered in memory (whichever phase the join is in).
    pub fn buffered_bytes(&self) -> u64 {
        match (&self.joiner, &self.stream) {
            (Some(j), _) => j.buffered_bytes(),
            (_, Some(s)) => s.buffered_bytes(),
            _ => 0,
        }
    }

    /// Flushes the join's in-memory Grace partitions to disk (the memory
    /// governor's spill actuator), whether the join is still building or
    /// already sealed into a stream. Returns the bytes released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        match (&mut self.joiner, &mut self.stream) {
            (Some(j), _) => j.spill_to_disk(),
            (_, Some(s)) => s.spill_to_disk(),
            _ => Ok(0),
        }
    }

    /// Extracts one sealed-but-unprobed Grace partition for shipping to a
    /// peer (partition stealing), whichever phase the join is in. Returns
    /// the partition index and both sides' columns, which keep their memory
    /// charge until the thief acks adoption. `None` when nothing is
    /// shippable. Only sound once no further input can arrive for this join.
    pub fn take_unprobed_partition(&mut self) -> Result<Option<crate::join::TakenPartition>> {
        match (&mut self.joiner, &mut self.stream) {
            (Some(j), _) => j.take_unprobed_partition(),
            (_, Some(s)) => s.take_unprobed_partition(),
            _ => Ok(None),
        }
    }

    /// Adopts a partition shipped from a peer into the sealed stream. The
    /// caller must have charged the columns' bytes to this machine's tracker
    /// already (on receipt); the stream releases them after the probe. An
    /// exhausted stream still adopts; a join not sealed yet cannot.
    pub fn adopt_partition(
        &mut self,
        left: Vec<Vec<huge_graph::VertexId>>,
        right: Vec<Vec<huge_graph::VertexId>>,
    ) -> Result<()> {
        let stream = self.stream.as_mut().ok_or_else(|| {
            EngineError::Config("PUSH-JOIN adopted a partition before sealing".into())
        })?;
        stream.adopt_partition(left, right);
        Ok(())
    }
}

impl BatchOperator for PushJoin {
    fn name(&self) -> &'static str {
        "PUSH-JOIN"
    }

    fn output_arity(&self) -> usize {
        self.out_arity
    }

    fn push_input(&mut self, _input: ColBatch, _ctx: &OpContext<'_>) -> Result<()> {
        Err(EngineError::Config(
            "PUSH-JOIN is a binary operator: feed it through push_side(JoinSide, ..)".into(),
        ))
    }

    fn finish_input(&mut self, _ctx: &OpContext<'_>) -> Result<()> {
        if let Some(joiner) = self.joiner.take() {
            // Sealing is cheap: partitions stay buffered/spilled until the
            // stream is polled.
            let mut stream = joiner.into_stream(self.batch_rows);
            if let Some(cancel) = &self.cancel {
                stream.set_cancel(cancel.clone());
            }
            self.stream = Some(stream);
        }
        Ok(())
    }

    fn poll_next(&mut self, ctx: &OpContext<'_>) -> Result<OpPoll> {
        if let Some(stream) = self.stream.as_mut() {
            if self.count_only {
                // Yield after every batch of pairs, like a materialising poll:
                // the scheduler absorbs the inbox and ticks the governor.
                return Ok(match stream.count_batch()? {
                    Some(counted) => {
                        self.counted += counted;
                        OpPoll::Pending
                    }
                    None => OpPoll::Exhausted,
                });
            }
            match stream.next_batch()? {
                Some(batch) => {
                    ctx.rpc
                        .stats()
                        .machine(ctx.machine)
                        .record_col_bytes(batch.byte_size());
                    return Ok(OpPoll::Ready(batch));
                }
                None => {
                    // Keep the exhausted stream alive: a partition adopted
                    // from a peer (partition stealing) revives it.
                    return Ok(OpPoll::Exhausted);
                }
            }
        }
        Ok(if self.joiner.is_some() {
            OpPoll::Pending
        } else {
            OpPoll::Exhausted
        })
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
    use huge_cache::LrbuCache;
    use huge_comm::stats::ClusterStats;
    use huge_graph::{gen, Partitioner};
    use huge_plan::physical::CommMode;
    use huge_plan::translate::OrderFilter;
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
            batch_size: 16,
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
        let mut join = PushJoin::new(op, 2, 2, 1 << 20, dir, MemoryTrackerHandle::Untracked, 16);
        let mut left = ColBatch::new(2);
        left.push_row(&[1, 10]);
        left.push_row(&[2, 20]);
        let mut right = ColBatch::new(2);
        right.push_row(&[1, 100]);
        join.push_side(JoinSide::Left, &left).unwrap();
        join.push_side(JoinSide::Right, &right).unwrap();
        join.finish_input(&ctx).unwrap();
        let mut rows = Vec::new();
        while let OpPoll::Ready(b) = join.poll_next(&ctx).unwrap() {
            let rb = b.to_rows();
            rows.extend(rb.rows().map(|r| r.to_vec()));
        }
        assert_eq!(rows, vec![vec![1, 10, 100]]);
        assert_eq!(join.produced(), 1);
        assert!(matches!(join.poll_next(&ctx).unwrap(), OpPoll::Exhausted));
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
