//! Shared infrastructure for the natively executed baselines (BiGJoin,
//! RADS), built on what [`huge_core::exec`] shares between engines.
//!
//! These baselines materialise their intermediate *results* in full (that is
//! the behaviour the paper criticises), so the common substrate is a
//! *distributed table*: one [`ColBatch`] buffer per machine plus the schema
//! of query vertices bound by its columns. The operations on tables mirror
//! the physical operators of the respective systems — star scans, pushing
//! wco extensions and pulling star expansions — and they execute through the
//! same primitives as the HUGE engine: pushes shuffle through the accounted
//! [`huge_comm::Router`] (partitioned by
//! [`huge_core::exec::partition_cols_by_owner`]) and pulls go through
//! [`huge_comm::RpcFabric::get_nbrs`]. Every cross-machine byte is therefore
//! charged to [`huge_comm::ClusterStats`] by exactly the code paths the HUGE
//! engine uses, so reports are directly comparable.
//!
//! A shuffle *streams*: table rows are pushed chunk-wise through the bounded
//! router, and when a destination inbox fills the evaluating machine
//! cooperatively drains *its own* inbox (the same deadlock-free protocol the
//! HUGE engine's machines follow), then rendezvouses with its peers. Queued
//! bytes are charged to the context's [`MemoryTracker`].
//!
//! The simulated machines run *concurrently*, one persistent worker per
//! machine on the context's [`WorkerPool`] ([`BaselineCtx::machine_pool`]),
//! so the measured wall time includes the real synchronisation cost —
//! stragglers, shuffle backpressure and the end-of-shuffle barrier.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, QueueAccounting, Router, RouterEndpoint, RpcFabric};
use huge_core::exec::partition_cols_by_owner;
use huge_core::memory::MemoryTracker;
use huge_core::operators::passes_filters;
use huge_core::pool::WorkerPool;
use huge_core::report::RunReport;
use huge_core::{ClusterConfig, EngineError, LoadBalance, Result};
use huge_graph::{Graph, GraphPartition, Partitioner, VertexId};
use huge_plan::baselines::native_plan;
use huge_plan::logical::JoinNode;
use huge_plan::translate::OrderFilter;
use huge_query::{PartialOrder, QueryGraph, QueryVertex};

use crate::{native_report, Baseline};

/// Rows per batch for baseline execution.
const BATCH_SIZE: usize = 4096;

/// Per-machine router inbox capacity (rows) for baseline shuffles.
const QUEUE_ROWS: usize = 16 * BATCH_SIZE;

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
    /// Machine-level pool: one persistent worker per simulated machine, so
    /// the machines execute concurrently and wall time includes their real
    /// synchronisation cost (workers spawn once and are reused by every
    /// operator of the run).
    machine_pool: WorkerPool,
    /// Tracks transient shuffle memory (router inboxes) — the observable
    /// streaming bound.
    pub memory: Arc<MemoryTracker>,
    /// The query's symmetry-breaking order.
    pub order: PartialOrder,
    /// Peak per-machine intermediate-result bytes observed so far.
    pub peak_memory: u64,
}

impl BaselineCtx {
    /// Creates a context over the cluster's partitions.
    pub fn new(partitions: Arc<Vec<GraphPartition>>, query: &QueryGraph) -> Self {
        let k = partitions.len();
        let stats = ClusterStats::new(k);
        let rpc = RpcFabric::new(Arc::clone(&partitions), stats.clone());
        let memory = Arc::new(MemoryTracker::new());
        let router = Router::with_capacity(k, stats.clone(), QUEUE_ROWS);
        for m in 0..k {
            router.set_accounting(m, Arc::clone(&memory) as Arc<dyn QueueAccounting>);
        }
        let endpoints = (0..k).map(|m| router.endpoint(m)).collect();
        BaselineCtx {
            partitions,
            stats,
            rpc,
            endpoints,
            // `None` pins one job per worker: k machine jobs land on k
            // distinct workers, so jobs that rendezvous on a shuffle barrier
            // can never serialise onto one worker and deadlock.
            machine_pool: WorkerPool::new(k, LoadBalance::None),
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

    /// Peak intermediate-result bytes for the run report: the larger of the
    /// largest materialised table and the tracked transient shuffle peak.
    pub fn report_peak_memory(&self) -> u64 {
        self.peak_memory.max(self.memory.peak())
    }

    /// The pulling fabric (accounted `GetNbrs`).
    pub fn rpc(&self) -> &RpcFabric {
        &self.rpc
    }

    /// Records the footprint of a newly materialised table.
    pub fn note_table(&mut self, table: &DistTable) {
        self.peak_memory = self.peak_memory.max(table.max_machine_bytes());
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
        batch: ColBatch,
    ) -> std::result::Result<(), ColBatch> {
        self.endpoints[from].try_push(dest, 0, batch)
    }

    /// Drains machine `m`'s router inbox into `into`.
    fn drain_into(&self, m: usize, into: &mut ColBatch) {
        for mut env in self.endpoints[m].drain() {
            into.append(&mut env.batch);
        }
    }

    /// `true` when machine `m`'s inbox is at or over capacity. Pushes to the
    /// own machine are *forced* past the bound (they must never wedge), so
    /// streaming loops poll this to know when to drain locally too.
    fn inbox_full(&self, m: usize) -> bool {
        self.endpoints[m].inbox_full(m)
    }

    /// Parks machine `m` briefly until data lands in its inbox or a peer
    /// nudges it — at once if one did since `m` read wake epoch `seen`.
    fn wait_data(&self, m: usize, seen: u64) {
        self.endpoints[m].wait_data(seen, SHUFFLE_PARK);
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

/// The matches of a star `(root; leaves)` rooted at machine `m`'s local
/// vertices — ordered, injective leaf assignments that pass `filters`
/// (positional over `[root, leaves...]`) — with their column bytes charged
/// to the machine.
fn scan_local_stars(
    ctx: &BaselineCtx,
    m: usize,
    leaves: usize,
    filters: &[OrderFilter],
) -> ColBatch {
    let partition = &ctx.partitions[m];
    let mut batch = ColBatch::new(leaves + 1);
    let mut assignment: Vec<VertexId> = Vec::with_capacity(leaves);
    let mut row = Vec::with_capacity(leaves + 1);
    for &u in partition.local_vertices() {
        let nbrs = partition.local_neighbours(u);
        enumerate_injective(nbrs, &[u], leaves, &mut assignment, &mut |leaf_vals| {
            row.clear();
            row.push(u);
            row.extend_from_slice(leaf_vals);
            if passes_filters(&row, filters) {
                batch.push_row(&row);
            }
        });
    }
    ctx.stats.machine(m).record_col_bytes(batch.byte_size());
    batch
}

/// Enumerates the matches of a star `(root; leaves)` as a distributed table:
/// each machine materialises the stars rooted at its local vertices
/// (`scan_local_stars`). The machines run concurrently on the context's
/// machine pool.
pub fn scan_star(
    ctx: &mut BaselineCtx,
    root: QueryVertex,
    leaves: &[QueryVertex],
) -> Result<DistTable> {
    let mut schema = vec![root];
    schema.extend_from_slice(leaves);
    let filters = order_filters(&ctx.order, &schema);
    let k = ctx.k();
    let mut table = DistTable::new(schema, k);
    let pool = ctx.machine_pool.clone();
    let shared: &BaselineCtx = ctx;
    let scanned = pool.run((0..k).collect::<Vec<_>>(), |m, out: &mut Vec<_>| {
        out.push((m, scan_local_stars(shared, m, leaves.len(), &filters)));
    });
    for (m, rows) in scanned.into_flat() {
        table.rows[m] = rows;
    }
    ctx.note_table(&table);
    Ok(table)
}

/// Recursively enumerates ordered, injective assignments of `remaining`
/// values from a neighbour list, skipping the values in `avoid` (a star's
/// root, or the row being expanded).
pub(crate) fn enumerate_injective(
    nbrs: &[VertexId],
    avoid: &[VertexId],
    remaining: usize,
    assignment: &mut Vec<VertexId>,
    emit: &mut impl FnMut(&[VertexId]),
) {
    if remaining == 0 {
        emit(assignment);
        return;
    }
    for &v in nbrs {
        if avoid.contains(&v) || assignment.contains(&v) {
            continue;
        }
        assignment.push(v);
        enumerate_injective(nbrs, avoid, remaining - 1, assignment, emit);
        assignment.pop();
    }
}

/// The stars of a left-deep plan in evaluation order — the first unit, then
/// each join's right operand — as `(root, leaves)`.
fn left_deep_stars(
    query: &QueryGraph,
    mut node: &JoinNode,
) -> Result<Vec<(QueryVertex, Vec<QueryVertex>)>> {
    let mut operands = Vec::new();
    while let JoinNode::Join { left, right, .. } = node {
        operands.push(&**right);
        node = left;
    }
    operands.push(node);
    operands
        .iter()
        .rev()
        .map(|operand| {
            operand
                .output()
                .as_star(query)
                .ok_or(EngineError::Config("baseline operand is not a star".into()))
        })
        .collect()
}

/// Runs `system`'s left-deep star plan natively: scans the plan's first
/// star, then hands the table and each further star `(root, leaves)` to
/// `step`, and reports the run.
pub(crate) fn run_left_deep(
    system: Baseline,
    graph: &Graph,
    query: &QueryGraph,
    config: &ClusterConfig,
    mut step: impl FnMut(
        &mut BaselineCtx,
        DistTable,
        QueryVertex,
        Vec<QueryVertex>,
    ) -> Result<DistTable>,
) -> Result<RunReport> {
    let plan = native_plan(system.system(), query)?;
    let partitions = Arc::new(Partitioner::new(config.machines)?.partition(graph.clone()));
    let mut ctx = BaselineCtx::new(partitions, query);
    let start = Instant::now();
    let mut stars = left_deep_stars(query, &plan.tree.root)?.into_iter();
    let (root, leaves) = stars.next().expect("a plan has at least one unit");
    let mut table = scan_star(&mut ctx, root, &leaves)?;
    for (root, leaves) in stars {
        table = step(&mut ctx, table, root, leaves)?;
    }
    // The machines run concurrently on the context's machine pool, so the
    // wall clock includes their real synchronisation cost (stragglers,
    // shuffle backpressure, end-of-shuffle rendezvous).
    let compute_time = start.elapsed();
    Ok(native_report(
        system,
        query,
        config,
        table.total_rows(),
        compute_time,
        ctx.stats.total(),
        ctx.report_peak_memory(),
    ))
}

// ---------------------------------------------------------------------------
// The cooperative shuffle
// ---------------------------------------------------------------------------

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
/// `rows` (a chunk is a selection over its columns, so nothing is copied
/// before `route` scatters it) to the destinations `route` chooses, draining
/// the *own* inbox into `received` under backpressure (the deadlock-free
/// discipline the HUGE machines follow), then rendezvous — keep absorbing
/// until every machine has decremented `shuffling` — so no peer's final
/// envelopes are stranded. Bails out with an error as soon as `failed` is
/// raised by any machine.
fn shuffle_rendezvous(
    shared: &BaselineCtx,
    m: usize,
    shuffling: &AtomicUsize,
    failed: &AtomicBool,
    mut rows: ColBatch,
    route: impl Fn(&ColBatch) -> Vec<ColBatch>,
    received: &mut ColBatch,
) -> Result<()> {
    let aborted = || EngineError::Aborted("baseline shuffle aborted by a failed machine".into());
    rows.compact();
    let total = u32::try_from(rows.len()).expect("selection vectors index rows in 32 bits");
    for start in (0..total).step_by(BATCH_SIZE) {
        let end = total.min(start.saturating_add(BATCH_SIZE as u32));
        rows.set_selection((start..end).collect());
        for (dest, part) in route(&rows).into_iter().enumerate() {
            let mut pending = part;
            loop {
                match shared.try_push_shuffled(m, dest, pending) {
                    Ok(()) => break,
                    Err(back) => {
                        if failed.load(Ordering::SeqCst) {
                            return Err(aborted());
                        }
                        pending = back;
                        // Cooperate: absorb the own inbox so peers blocked
                        // on *us* progress, then park for space.
                        shared.drain_into(m, received);
                        shared.wait_space(m, dest);
                    }
                }
            }
        }
        // Pushes to the own machine are forced past the bound (they can
        // never block); drain them as soon as the inbox fills.
        if shared.inbox_full(m) {
            shared.drain_into(m, received);
        }
    }
    // Done shuffling: keep absorbing until every machine is too, so no
    // peer's final envelopes are stranded. Each machine nudges its parked
    // peers once done, and reads its wake epoch before checking the count.
    shuffling.fetch_sub(1, Ordering::SeqCst);
    for peer in 0..shared.k() {
        shared.endpoints[m].wake(peer);
    }
    loop {
        let seen = shared.endpoints[m].wake_epoch();
        if shuffling.load(Ordering::SeqCst) == 0 {
            shared.drain_into(m, received);
            return Ok(());
        }
        if failed.load(Ordering::SeqCst) {
            return Err(aborted());
        }
        shared.drain_into(m, received);
        shared.wait_data(m, seen);
    }
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
                        buffered,
                        |chunk| partition_cols_by_owner(chunk, p, shared.rpc(), k),
                        &mut mine,
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
        let extended = wco_extend_pushing(&mut ctx, table, 2, &[0, 1]).unwrap();
        assert_eq!(extended.total_rows(), 0);
        assert_eq!(ctx.stats.total().total_bytes(), 0);
    }
}
