//! Shared infrastructure for the baseline engines, built on the
//! [`huge_core::exec`] batch-operator substrate.
//!
//! The baselines materialise their intermediate *results* in full (that is
//! the behaviour the paper criticises), so the common substrate is a
//! *distributed table*: one [`ColBatch`] buffer per machine plus the schema
//! of query vertices bound by its columns. The operations on tables mirror
//! the physical operators of the respective systems — star scans, pushing
//! hash joins, pushing wco extensions and pulling star expansions — and they
//! execute through the same primitives as the HUGE engine: star scans are
//! [`BatchOperator`] sources, distributed hash joins shuffle through the
//! accounted [`huge_comm::Router`] and join with the shared
//! [`huge_core::join::HashJoiner`], and pulls go through
//! [`huge_comm::RpcFabric::get_nbrs`]. Every cross-machine byte is therefore
//! charged to [`huge_comm::ClusterStats`] by exactly the code paths the HUGE
//! engine uses, so reports are directly comparable.
//!
//! The *shuffles* themselves stream: table rows are pushed chunk-wise
//! through the bounded router, and when a destination inbox fills the
//! evaluating machine cooperatively drains *its own* inbox straight into its
//! `PUSH-JOIN` build (the same deadlock-free protocol the HUGE engine's
//! machines follow). The shuffle therefore never double-buffers a whole
//! table — transient shuffle memory is bounded by the router capacity plus
//! the joiners' spill threshold, and it is charged to the context's
//! [`MemoryTracker`] so the bound is observable.
//!
//! Execution note: the simulated machines run *concurrently*, one persistent
//! worker per machine on the context's [`WorkerPool`]
//! ([`BaselineCtx::machine_pool`]). The measured wall time therefore
//! includes the baselines' real synchronisation cost — stragglers, shuffle
//! backpressure and the end-of-shuffle barrier — instead of the historic
//! sequential evaluation that divided wall time by the machine count and
//! charged no synchronisation at all.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use huge_comm::router::PushEnvelope;
use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, QueueAccounting, Router, RouterEndpoint, RpcFabric};
use huge_core::exec::{
    partition_cols_by_key, partition_cols_by_owner, run_pipeline, BatchOperator, OpContext, OpPoll,
};
use huge_core::join::{HashJoiner, JoinSide, MemoryTrackerHandle};
use huge_core::memory::MemoryTracker;
use huge_core::operators::passes_filters;
use huge_core::pool::WorkerPool;
use huge_core::{EngineError, LoadBalance, Result};
use huge_graph::{GraphPartition, VertexId};
use huge_plan::translate::{JoinOp, OrderFilter};
use huge_query::{PartialOrder, QueryGraph, QueryVertex};

/// Default rows per batch for baseline execution.
const DEFAULT_BATCH_SIZE: usize = 4096;

/// Default per-machine router inbox capacity (rows) for baseline shuffles.
const DEFAULT_QUEUE_ROWS: usize = 16 * DEFAULT_BATCH_SIZE;

/// Default in-memory bytes per `PUSH-JOIN` side before spilling to disk.
const DEFAULT_SPILL_BYTES: u64 = 64 * 1024 * 1024;

/// How long a baseline machine parks while cooperating on a shuffle.
const SHUFFLE_PARK: Duration = Duration::from_millis(1);

/// A fully materialised, hash-distributed intermediate result.
#[derive(Clone, Debug)]
pub struct DistTable {
    /// Query vertices bound by each column.
    pub schema: Vec<QueryVertex>,
    /// Row storage, one dense batch buffer per machine.
    pub rows: Vec<ColBatch>,
}

impl DistTable {
    /// An empty table over `k` machines.
    pub fn new(schema: Vec<QueryVertex>, k: usize) -> Self {
        assert!(
            !schema.is_empty(),
            "a distributed table must bind at least one query vertex"
        );
        let arity = schema.len();
        DistTable {
            schema,
            rows: (0..k).map(|_| ColBatch::new(arity)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Total number of rows across machines.
    pub fn total_rows(&self) -> u64 {
        self.rows.iter().map(|r| r.len() as u64).sum()
    }

    /// Total bytes across machines.
    pub fn total_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.byte_size()).sum()
    }

    /// Largest per-machine byte footprint (contributes to the peak-memory
    /// metric).
    pub fn max_machine_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.byte_size()).max().unwrap_or(0)
    }
}

/// Evaluation context shared by the baseline engines: the cluster's
/// partitions plus the same accounted communication fabric the HUGE engine
/// uses (router for pushes, RPC fabric for pulls).
pub struct BaselineCtx {
    partitions: Arc<Vec<GraphPartition>>,
    /// Traffic accounting (same counters the HUGE engine uses).
    pub stats: ClusterStats,
    rpc: RpcFabric,
    endpoints: Vec<RouterEndpoint>,
    cache: huge_cache::LrbuCache,
    pool: WorkerPool,
    /// Machine-level pool: one persistent worker per simulated machine, so
    /// the machines execute concurrently and wall time includes their real
    /// synchronisation cost (workers spawn once and are reused by every
    /// operator of the run).
    machine_pool: WorkerPool,
    spill_dir: PathBuf,
    batch_size: usize,
    join_spill_bytes: u64,
    /// Tracks transient shuffle/join memory (router inboxes, `PUSH-JOIN`
    /// buffers and loaded partitions) — the observable streaming bound.
    pub memory: Arc<MemoryTracker>,
    /// The query's symmetry-breaking order.
    pub order: PartialOrder,
    /// Peak per-machine intermediate-result bytes observed so far.
    pub peak_memory: u64,
}

impl BaselineCtx {
    /// Creates a context over the cluster's partitions.
    pub fn new(partitions: Arc<Vec<GraphPartition>>, query: &QueryGraph) -> Self {
        Self::with_streaming_limits(partitions, query, DEFAULT_QUEUE_ROWS, DEFAULT_SPILL_BYTES)
    }

    /// Creates a context with explicit streaming bounds: the per-machine
    /// router inbox capacity and the per-side `PUSH-JOIN` spill threshold.
    pub fn with_streaming_limits(
        partitions: Arc<Vec<GraphPartition>>,
        query: &QueryGraph,
        queue_capacity_rows: usize,
        join_spill_bytes: u64,
    ) -> Self {
        let k = partitions.len();
        let stats = ClusterStats::new(k);
        let rpc = RpcFabric::new(Arc::clone(&partitions), stats.clone());
        let memory = Arc::new(MemoryTracker::new());
        let router = Router::with_capacity(k, stats.clone(), queue_capacity_rows.max(1));
        for m in 0..k {
            router.set_accounting(m, Arc::clone(&memory) as Arc<dyn QueueAccounting>);
        }
        let endpoints = (0..k).map(|m| router.endpoint(m)).collect();
        BaselineCtx {
            partitions,
            stats,
            rpc,
            endpoints,
            cache: huge_cache::LrbuCache::new(0),
            pool: WorkerPool::new(1, LoadBalance::None),
            // `None` pins one job per worker: k machine jobs land on k
            // distinct workers, so jobs that rendezvous on a shuffle barrier
            // can never serialise onto one worker and deadlock.
            machine_pool: WorkerPool::new(k, LoadBalance::None),
            spill_dir: {
                static CTX_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let seq = CTX_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::env::temp_dir().join(format!("huge-baselines-{}-{seq}", std::process::id()))
            },
            batch_size: DEFAULT_BATCH_SIZE,
            join_spill_bytes,
            memory,
            order: query.order().clone(),
            peak_memory: 0,
        }
    }

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.partitions.len()
    }

    /// The machine-level worker pool (one persistent worker per machine).
    pub fn machine_pool(&self) -> &WorkerPool {
        &self.machine_pool
    }

    /// Peak intermediate-result bytes for the run report: the largest
    /// materialised table plus the tracked transient shuffle/join peak.
    pub fn report_peak_memory(&self) -> u64 {
        self.peak_memory.max(self.memory.peak())
    }

    /// The cluster's partitions.
    pub fn partitions(&self) -> &[GraphPartition] {
        &self.partitions
    }

    /// The pulling fabric (accounted `GetNbrs`).
    pub fn rpc(&self) -> &RpcFabric {
        &self.rpc
    }

    /// The execution context of machine `m` for [`BatchOperator`]s.
    pub fn op_context(&self, m: usize) -> OpContext<'_> {
        OpContext {
            machine: m,
            partition: &self.partitions[m],
            rpc: &self.rpc,
            cache: &self.cache,
            use_cache: false,
            pool: &self.pool,
            batch_size: self.batch_size,
        }
    }

    /// Records the footprint of a newly materialised table.
    pub fn note_table(&mut self, table: &DistTable) {
        self.peak_memory = self.peak_memory.max(table.max_machine_bytes());
    }

    /// The owner machine of a data vertex.
    pub fn owner(&self, v: VertexId) -> usize {
        self.rpc.owner(v)
    }

    /// Checks the symmetry constraints whose endpoints are both bound in
    /// `schema`.
    pub fn order_ok(&self, schema: &[QueryVertex], row: &[VertexId]) -> bool {
        passes_filters(row, &order_filters(&self.order, schema))
    }

    /// Non-blocking push of shuffle rows from machine `from` to `dest`
    /// through the accounted router (free when `dest == from`, charged
    /// otherwise — the same rule the HUGE engine's shuffles follow). On
    /// backpressure the batch is handed back; the caller must drain the
    /// destination inbox (machines share one thread here, so blocking would
    /// deadlock) and retry.
    fn try_push_shuffled(
        &self,
        from: usize,
        dest: usize,
        tag: usize,
        batch: ColBatch,
    ) -> std::result::Result<(), ColBatch> {
        self.endpoints[from].try_push(dest, tag, batch)
    }

    /// Drains machine `m`'s router inbox.
    fn drain_machine(&self, m: usize) -> Vec<PushEnvelope> {
        self.endpoints[m].drain()
    }

    /// `true` when machine `m`'s inbox is at or over capacity. Pushes to the
    /// own machine are *forced* past the bound (they must never wedge), so
    /// streaming loops poll this to know when to drain locally too.
    fn inbox_full(&self, m: usize) -> bool {
        self.endpoints[m].inbox_full(m)
    }

    /// Parks machine `m` briefly until data lands in its inbox.
    fn wait_data(&self, m: usize) {
        self.endpoints[m].wait_data(SHUFFLE_PARK);
    }

    /// Parks machine `m` briefly until `dest`'s inbox has room.
    fn wait_space(&self, m: usize, dest: usize) {
        self.endpoints[m].wait_space(dest, SHUFFLE_PARK);
    }
}

/// Translates the symmetry-breaking constraints whose endpoints are both
/// bound in `schema` into positional [`OrderFilter`]s.
pub fn order_filters(order: &PartialOrder, schema: &[QueryVertex]) -> Vec<OrderFilter> {
    order
        .constraints()
        .iter()
        .filter_map(|&(a, b)| {
            match (
                schema.iter().position(|&x| x == a),
                schema.iter().position(|&x| x == b),
            ) {
                (Some(pa), Some(pb)) => Some(OrderFilter {
                    smaller: pa,
                    larger: pb,
                }),
                _ => None,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Star scan: the baselines' source operator
// ---------------------------------------------------------------------------

/// A [`BatchOperator`] source enumerating the matches of a star
/// `(root; leaves)` over one machine's local vertices (ordered, injective
/// leaf assignments, symmetry filters applied).
pub struct StarScan {
    leaves: usize,
    filters: Vec<OrderFilter>,
    cursor: usize,
    done: bool,
}

impl StarScan {
    /// Creates the scan; `filters` are positional over `[root, leaves...]`.
    pub fn new(leaves: usize, filters: Vec<OrderFilter>) -> Self {
        StarScan {
            leaves,
            filters,
            cursor: 0,
            done: false,
        }
    }
}

impl BatchOperator for StarScan {
    fn name(&self) -> &'static str {
        "STAR-SCAN"
    }

    fn output_arity(&self) -> usize {
        self.leaves + 1
    }

    fn poll_next(&mut self, ctx: &OpContext<'_>) -> Result<OpPoll> {
        if self.done {
            return Ok(OpPoll::Exhausted);
        }
        let arity = self.output_arity();
        let locals = ctx.partition.local_vertices();
        let mut batch = ColBatch::new(arity);
        while self.cursor < locals.len() && batch.len() < ctx.batch_size {
            let u = locals[self.cursor];
            self.cursor += 1;
            let nbrs = ctx.partition.local_neighbours(u);
            let mut assignment: Vec<VertexId> = Vec::with_capacity(self.leaves);
            let mut row = Vec::with_capacity(arity);
            enumerate_leaf_tuples(u, nbrs, self.leaves, &mut assignment, &mut |leaf_vals| {
                row.clear();
                row.push(u);
                row.extend_from_slice(leaf_vals);
                if passes_filters(&row, &self.filters) {
                    batch.push_row(&row);
                }
            });
        }
        if self.cursor >= locals.len() {
            self.done = true;
        }
        if batch.is_empty() {
            Ok(if self.done {
                OpPoll::Exhausted
            } else {
                OpPoll::Pending
            })
        } else {
            ctx.rpc
                .stats()
                .machine(ctx.machine)
                .record_col_bytes(batch.byte_size());
            Ok(OpPoll::Ready(batch))
        }
    }
}

/// Enumerates the matches of a star `(root; leaves)` as a distributed table:
/// each machine materialises the stars rooted at its local vertices through
/// a [`StarScan`] operator. The machines run concurrently on the context's
/// machine pool.
pub fn scan_star(
    ctx: &mut BaselineCtx,
    root: QueryVertex,
    leaves: &[QueryVertex],
) -> Result<DistTable> {
    let mut schema = vec![root];
    schema.extend_from_slice(leaves);
    let filters = order_filters(&ctx.order, &schema);
    let arity = schema.len();
    let k = ctx.k();
    let mut table = DistTable::new(schema, k);
    let pool = ctx.machine_pool.clone();
    let shared: &BaselineCtx = ctx;
    let scanned = pool.run(
        (0..k).collect::<Vec<_>>(),
        |m, out: &mut Vec<(usize, Result<ColBatch>)>| {
            let op_ctx = shared.op_context(m);
            let mut scan = StarScan::new(leaves.len(), filters.clone());
            let mut rows = ColBatch::new(arity);
            let mut ops: [&mut dyn BatchOperator; 1] = [&mut scan];
            let res = run_pipeline(&mut ops, &op_ctx, &mut |mut batch| {
                rows.append(&mut batch);
            });
            out.push((m, res.map(|()| rows)));
        },
    );
    for (m, rows) in scanned.into_flat() {
        table.rows[m] = rows?;
    }
    ctx.note_table(&table);
    Ok(table)
}

/// Recursively enumerates ordered, injective leaf assignments from a
/// neighbour list.
fn enumerate_leaf_tuples(
    root: VertexId,
    nbrs: &[VertexId],
    remaining: usize,
    assignment: &mut Vec<VertexId>,
    emit: &mut impl FnMut(&[VertexId]),
) {
    if remaining == 0 {
        emit(assignment);
        return;
    }
    for &v in nbrs {
        if v == root || assignment.contains(&v) {
            continue;
        }
        assignment.push(v);
        enumerate_leaf_tuples(root, nbrs, remaining - 1, assignment, emit);
        assignment.pop();
    }
}

// ---------------------------------------------------------------------------
// Pushing hash join
// ---------------------------------------------------------------------------

/// Tag of the left input in a hash-join shuffle.
const LEFT_TAG: usize = 0;
/// Tag of the right input in a hash-join shuffle.
const RIGHT_TAG: usize = 1;

/// Moves every envelope queued in machine `m`'s inbox into its joiner build.
fn absorb_into_joiner(ctx: &BaselineCtx, m: usize, join: &mut HashJoiner) -> Result<()> {
    for env in ctx.drain_machine(m) {
        let side = if env.segment == LEFT_TAG {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        join.add(side, &env.batch)?;
    }
    Ok(())
}

/// Runs one machine job's fallible body, converting a panic into an error
/// and raising the shared failure flag either way, so peers parked in a
/// shuffle rendezvous bail out instead of waiting forever for a machine
/// that will never arrive.
fn guard_job<T>(failed: &AtomicBool, body: impl FnOnce() -> Result<T>) -> Result<T> {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|_| {
        Err(EngineError::WorkerPanic(
            "baseline machine job panicked".into(),
        ))
    });
    if res.is_err() {
        failed.store(true, Ordering::SeqCst);
    }
    res
}

/// The cooperative shuffle protocol of one machine `m`: push every chunk of
/// `batches` (each a `(tag, rows)` side; a chunk is a selection over the
/// side's columns, so nothing is copied before `route` scatters it) to the
/// destinations `route` chooses, draining the *own* inbox via `drain` under
/// backpressure (the deadlock-free discipline the HUGE machines follow), then
/// rendezvous — keep absorbing until every machine has decremented
/// `shuffling` — so no peer's final envelopes are stranded. Bails out with an
/// error as soon as `failed` is raised by any machine.
fn shuffle_rendezvous(
    shared: &BaselineCtx,
    m: usize,
    shuffling: &AtomicUsize,
    failed: &AtomicBool,
    batches: Vec<(usize, ColBatch)>,
    route: impl Fn(&ColBatch, usize) -> Vec<ColBatch>,
    mut drain: impl FnMut() -> Result<()>,
) -> Result<()> {
    let aborted = || EngineError::Aborted("baseline shuffle aborted by a failed machine".into());
    for (tag, mut rows) in batches {
        rows.compact();
        let total = u32::try_from(rows.len()).expect("selection vectors index rows in 32 bits");
        for start in (0..total).step_by(shared.batch_size) {
            let end = total.min(start.saturating_add(shared.batch_size as u32));
            rows.set_selection((start..end).collect());
            for (dest, part) in route(&rows, tag).into_iter().enumerate() {
                let mut pending = part;
                loop {
                    match shared.try_push_shuffled(m, dest, tag, pending) {
                        Ok(()) => break,
                        Err(back) => {
                            if failed.load(Ordering::SeqCst) {
                                return Err(aborted());
                            }
                            pending = back;
                            // Cooperate: absorb the own inbox so peers
                            // blocked on *us* progress, then park for space.
                            drain()?;
                            shared.wait_space(m, dest);
                        }
                    }
                }
            }
            // Pushes to the own machine are forced past the bound (they can
            // never block); drain them as soon as the inbox fills so the
            // local share of a table is never double-buffered either.
            if shared.inbox_full(m) {
                drain()?;
            }
        }
    }
    // Done shuffling: keep absorbing until every machine is too, so no
    // peer's final envelopes are stranded.
    shuffling.fetch_sub(1, Ordering::SeqCst);
    while shuffling.load(Ordering::SeqCst) > 0 {
        if failed.load(Ordering::SeqCst) {
            return Err(aborted());
        }
        drain()?;
        shared.wait_data(m);
    }
    drain()
}

/// A pushing distributed hash join: both sides are shuffled by the join key
/// through the accounted router, then joined per machine with the shared
/// [`HashJoiner`]. The tables are consumed: each machine's share
/// moves into its shuffle without being copied first.
///
/// The machines run concurrently (one persistent pool worker each) and the
/// shuffle *streams*: table rows are pushed chunk-wise, and a machine that
/// sees backpressure cooperatively drains *its own* inbox into its build
/// (which itself spills past its threshold) before retrying — the same
/// deadlock-free protocol the HUGE engine's machines follow. Once a machine
/// has shuffled everything it keeps absorbing until every machine is done
/// (that rendezvous is the real synchronisation cost of a BFS-style
/// distributed join), then seals and polls its join.
pub fn hash_join_pushing(
    ctx: &mut BaselineCtx,
    left: DistTable,
    right: DistTable,
) -> Result<DistTable> {
    let key: Vec<QueryVertex> = left
        .schema
        .iter()
        .copied()
        .filter(|v| right.schema.contains(v))
        .collect();
    let key_left: Vec<usize> = key
        .iter()
        .map(|v| left.schema.iter().position(|x| x == v).expect("key"))
        .collect();
    let key_right: Vec<usize> = key
        .iter()
        .map(|v| right.schema.iter().position(|x| x == v).expect("key"))
        .collect();
    let payload_right: Vec<usize> = right
        .schema
        .iter()
        .enumerate()
        .filter(|(_, v)| !key.contains(v))
        .map(|(i, _)| i)
        .collect();
    let mut out_schema = left.schema.clone();
    for &i in &payload_right {
        out_schema.push(right.schema[i]);
    }
    let filters = order_filters(&ctx.order, &out_schema);

    let k = ctx.k();
    let out_arity = out_schema.len();
    let op = JoinOp {
        left: LEFT_TAG,
        right: RIGHT_TAG,
        key_left,
        key_right,
        right_payload: payload_right,
        filters,
    };
    let joiners: Vec<HashJoiner> = (0..k)
        .map(|m| {
            HashJoiner::new(
                op.clone(),
                left.arity(),
                right.arity(),
                ctx.join_spill_bytes,
                ctx.spill_dir.join(format!("m{m}")),
                MemoryTrackerHandle::Tracked(Arc::clone(&ctx.memory)),
            )
        })
        .collect();

    // One job per machine: shuffle the local share of both sides (bytes
    // crossing machines are charged in the router, one message per batch of
    // at most `batch_size` rows — the granularity the HUGE engine ships, so
    // reported message counts stay comparable), then rendezvous and join.
    let shuffling = AtomicUsize::new(k);
    let failed = AtomicBool::new(false);
    let items: Vec<(usize, ColBatch, ColBatch, HashJoiner)> = joiners
        .into_iter()
        .zip(left.rows)
        .zip(right.rows)
        .enumerate()
        .map(|(m, ((join, l), r))| (m, l, r, join))
        .collect();
    let pool = ctx.machine_pool.clone();
    let shared: &BaselineCtx = ctx;
    let joined = pool.run(
        items,
        |(m, left_rows, right_rows, mut join), out: &mut Vec<(usize, Result<ColBatch>)>| {
            let res = guard_job(&failed, || {
                shuffle_rendezvous(
                    shared,
                    m,
                    &shuffling,
                    &failed,
                    vec![(LEFT_TAG, left_rows), (RIGHT_TAG, right_rows)],
                    |chunk, tag| {
                        let keys = if tag == LEFT_TAG {
                            &op.key_left
                        } else {
                            &op.key_right
                        };
                        partition_cols_by_key(chunk, keys, k)
                    },
                    || absorb_into_joiner(shared, m, &mut join),
                )?;
                let op_ctx = shared.op_context(m);
                join.finish_input(&op_ctx)?;
                let mut rows = ColBatch::new(out_arity);
                while let OpPoll::Ready(mut batch) = join.poll_next(&op_ctx)? {
                    rows.append(&mut batch);
                }
                Ok(rows)
            });
            out.push((m, res));
        },
    );

    let mut output = DistTable::new(out_schema, k);
    for (m, rows) in joined.into_flat() {
        output.rows[m] = rows?;
    }
    ctx.note_table(&output);
    Ok(output)
}

// ---------------------------------------------------------------------------
// Pushing wco extension
// ---------------------------------------------------------------------------

/// BiGJoin's pushing wco extension: every partial result is routed to the
/// owners of the vertices whose neighbourhoods are intersected (one hop per
/// backward neighbour, moved batch-wise through the accounted router), then
/// extended by the intersection at the last-visited machine. The machines of
/// each hop run concurrently on the context's machine pool, draining their
/// own inboxes under backpressure and rendezvousing at the end of the hop.
pub fn wco_extend_pushing(
    ctx: &mut BaselineCtx,
    input: DistTable,
    target: QueryVertex,
    backward: &[QueryVertex],
) -> Result<DistTable> {
    let positions: Vec<usize> = backward
        .iter()
        .map(|v| input.schema.iter().position(|x| x == v).expect("bound"))
        .collect();
    let mut out_schema = input.schema.clone();
    out_schema.push(target);
    let filters = order_filters(&ctx.order, &out_schema);
    let k = ctx.k();
    let arity = input.arity();
    let out_arity = out_schema.len();
    const WCO_TAG: usize = 0;
    let pool = ctx.machine_pool.clone();

    // Route the partial results hop by hop through the owners of the
    // vertices being intersected. Every row crossing machines is charged the
    // same bytes the original system's per-row walk would ship; messages are
    // counted per batch (not per row), matching the granularity the HUGE
    // engine's router reports so the two are comparable. A machine seeing a
    // full destination inbox drains its own inbox into the next hop's
    // buffer, so the bounded router never holds more than its capacity (and
    // the input table is consumed — its local shares move into the first
    // hop without being copied).
    let mut current: Vec<ColBatch> = input.rows;
    for &p in &positions {
        let shuffling = AtomicUsize::new(k);
        let failed = AtomicBool::new(false);
        let shared: &BaselineCtx = ctx;
        let routed = pool.run(
            current.into_iter().enumerate().collect::<Vec<_>>(),
            |(m, buffered), out: &mut Vec<(usize, Result<ColBatch>)>| {
                let res = guard_job(&failed, || {
                    let mut mine = ColBatch::new(arity);
                    shuffle_rendezvous(
                        shared,
                        m,
                        &shuffling,
                        &failed,
                        vec![(WCO_TAG, buffered)],
                        |chunk, _tag| partition_cols_by_owner(chunk, p, shared.rpc(), k),
                        || {
                            for mut env in shared.drain_machine(m) {
                                mine.append(&mut env.batch);
                            }
                            Ok(())
                        },
                    )?;
                    Ok(mine)
                });
                out.push((m, res));
            },
        );
        let mut next: Vec<ColBatch> = (0..k).map(|_| ColBatch::new(arity)).collect();
        for (m, rows) in routed.into_flat() {
            next[m] = rows?;
        }
        current = next;
    }

    // Extend at the final machine: intersect the neighbourhoods (each list
    // was owned by one of the visited machines). Read-only, so the machines
    // simply run concurrently.
    let shared: &BaselineCtx = ctx;
    let extended = pool.run(
        current.into_iter().enumerate().collect::<Vec<_>>(),
        |(m, buffered), out: &mut Vec<(usize, ColBatch)>| {
            let mut rows = ColBatch::new(out_arity);
            let mut candidates: Vec<VertexId> = Vec::new();
            let mut row = Vec::with_capacity(arity);
            for i in 0..buffered.len() {
                row.clear();
                buffered.read_row(i, &mut row);
                candidates.clear();
                for (i, &p) in positions.iter().enumerate() {
                    let nbrs = shared.partitions[0].any_neighbours(row[p]);
                    if i == 0 {
                        candidates.extend_from_slice(nbrs);
                    } else {
                        huge_graph::kernels::intersect_in_place(&mut candidates, nbrs);
                    }
                    if candidates.is_empty() {
                        break;
                    }
                }
                let mut joined = Vec::with_capacity(row.len() + 1);
                for &c in &candidates {
                    if row.contains(&c) {
                        continue;
                    }
                    joined.clear();
                    joined.extend_from_slice(&row);
                    joined.push(c);
                    if passes_filters(&joined, &filters) {
                        rows.push_row(&joined);
                    }
                }
            }
            out.push((m, rows));
        },
    );
    let mut output = DistTable::new(out_schema, k);
    for (m, rows) in extended.into_flat() {
        output.rows[m] = rows;
    }
    ctx.note_table(&output);
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::{gen, Partitioner};
    use huge_query::Pattern;

    fn parts(k: usize) -> Arc<Vec<GraphPartition>> {
        Arc::new(Partitioner::new(k).unwrap().partition(gen::complete(6)))
    }

    #[test]
    fn scan_star_counts_ordered_tuples() {
        let parts = parts(2);
        let q = Pattern::Star(2).query_graph_unordered();
        let mut ctx = BaselineCtx::new(parts, &q);
        let table = scan_star(&mut ctx, 0, &[1, 2]).unwrap();
        // K6: each root has 5 neighbours -> 5 * 4 ordered pairs, 6 roots.
        assert_eq!(table.total_rows(), 6 * 20);
        assert!(ctx.peak_memory > 0);
    }

    #[test]
    fn hash_join_assembles_squares() {
        // Square = path(1-0-3) ⋈ path(1-2-3), joined on {1, 3}.
        let parts = parts(2);
        let q = Pattern::Square.query_graph();
        let mut ctx = BaselineCtx::new(parts, &q);
        let left = scan_star(&mut ctx, 0, &[1, 3]).unwrap();
        let right = scan_star(&mut ctx, 2, &[1, 3]).unwrap();
        let joined = hash_join_pushing(&mut ctx, left, right).unwrap();
        let expected = huge_query::naive::enumerate(&gen::complete(6), &q);
        assert_eq!(joined.total_rows(), expected);
        assert!(ctx.stats.total().bytes_pushed > 0);
    }

    #[test]
    fn wco_extension_counts_triangles() {
        let parts = parts(3);
        let q = Pattern::Triangle.query_graph();
        let mut ctx = BaselineCtx::new(parts, &q);
        let edges = scan_star(&mut ctx, 0, &[1]).unwrap();
        let triangles = wco_extend_pushing(&mut ctx, edges, 2, &[0, 1]).unwrap();
        // K6 has C(6,3) = 20 triangles.
        assert_eq!(triangles.total_rows(), 20);
    }

    #[test]
    fn order_constraints_are_applied_when_bound() {
        let parts = parts(1);
        let q = Pattern::Star(2).query_graph(); // order breaks leaf symmetry
        let mut ctx = BaselineCtx::new(parts, &q);
        let table = scan_star(&mut ctx, 0, &[1, 2]).unwrap();
        // With symmetry breaking only half of the ordered pairs survive.
        assert_eq!(table.total_rows(), 6 * 10);
    }

    #[test]
    fn empty_graph_produces_empty_tables() {
        let g = huge_graph::Graph::from_edges(Vec::<(u32, u32)>::new());
        let parts = Arc::new(Partitioner::new(2).unwrap().partition(g));
        let q = Pattern::Triangle.query_graph();
        let mut ctx = BaselineCtx::new(parts, &q);
        let table = scan_star(&mut ctx, 0, &[1]).unwrap();
        assert_eq!(table.total_rows(), 0);
        let extended = wco_extend_pushing(&mut ctx, table.clone(), 2, &[0, 1]).unwrap();
        assert_eq!(extended.total_rows(), 0);
        let joined = hash_join_pushing(&mut ctx, table, extended).unwrap();
        assert_eq!(joined.total_rows(), 0);
        assert_eq!(ctx.stats.total().total_bytes(), 0);
    }
}
