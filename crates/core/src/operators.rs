//! Operator implementations: `SCAN` and `PULL-EXTEND`.
//!
//! (`PUSH-JOIN` lives in [`crate::join`]; the `SINK` is part of the segment
//! terminal in [`crate::machine`].)

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_comm::{ColBatch, RowBatch};
use huge_graph::kernels::{self, KernelKind, KernelTally};
use huge_graph::VertexId;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use parking_lot::Mutex;

pub use crate::exec::OpContext;

/// Applies the symmetry-breaking filters of an operator to a row.
#[inline]
pub fn passes_filters(row: &[VertexId], filters: &[OrderFilter]) -> bool {
    filters.iter().all(|f| row[f.smaller] < row[f.larger])
}

// ---------------------------------------------------------------------------
// SCAN
// ---------------------------------------------------------------------------

/// The stealable pool of unscanned vertices of one machine.
///
/// The machine's own scan cursor pops chunks from the front; idle machines
/// steal chunks from the back (the inter-machine half of work stealing).
#[derive(Clone)]
pub struct ScanPool {
    chunks: Arc<Mutex<std::collections::VecDeque<Vec<VertexId>>>>,
}

impl ScanPool {
    /// Splits a vertex list into chunks of `chunk_size` and builds the pool.
    pub fn new(vertices: &[VertexId], chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        let chunks = vertices
            .chunks(chunk_size)
            .map(|c| c.to_vec())
            .collect::<std::collections::VecDeque<_>>();
        ScanPool {
            chunks: Arc::new(Mutex::new(chunks)),
        }
    }

    /// An empty pool (used for non-scan segments).
    pub fn empty() -> Self {
        ScanPool {
            chunks: Arc::new(Mutex::new(std::collections::VecDeque::new())),
        }
    }

    /// Pops the next chunk for the owning machine.
    pub fn pop(&self) -> Option<Vec<VertexId>> {
        self.chunks.lock().pop_front()
    }

    /// Steals up to half of the remaining chunks (taken from the back).
    pub fn steal_half(&self) -> Vec<Vec<VertexId>> {
        let mut guard = self.chunks.lock();
        let take = guard.len() / 2;
        let mut stolen = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(chunk) = guard.pop_back() {
                stolen.push(chunk);
            }
        }
        stolen
    }

    /// Adds chunks (stolen from elsewhere) to this pool.
    pub fn add_chunks(&self, chunks: Vec<Vec<VertexId>>) {
        let mut guard = self.chunks.lock();
        for c in chunks {
            guard.push_back(c);
        }
    }

    /// `true` when no chunks remain.
    pub fn is_empty(&self) -> bool {
        self.chunks.lock().is_empty()
    }

    /// Number of vertices remaining (diagnostic).
    pub fn remaining_vertices(&self) -> usize {
        self.chunks.lock().iter().map(|c| c.len()).sum()
    }
}

/// The `SCAN` cursor: produces batches of `[f(src), f(dst)]` rows from the
/// machine's (possibly stolen) vertex chunks.
pub struct ScanCursor {
    op: ScanOp,
    pool: ScanPool,
    /// Pending rows carried over when a vertex's edges overflow a batch.
    pending: Vec<VertexId>,
}

impl ScanCursor {
    /// Creates a cursor over a scan pool.
    pub fn new(op: ScanOp, pool: ScanPool) -> Self {
        ScanCursor {
            op,
            pool,
            pending: Vec::new(),
        }
    }

    /// The underlying stealable pool.
    pub fn pool(&self) -> &ScanPool {
        &self.pool
    }

    /// `true` if more batches may be produced.
    pub fn has_more(&self) -> bool {
        !self.pending.is_empty() || !self.pool.is_empty()
    }

    /// Produces the next batch of at most `ctx.batch_size` rows, or `None`
    /// when the scan is exhausted.
    ///
    /// The expansion of a chunk's vertices into edge rows runs on the
    /// machine's persistent worker pool (split into per-worker ranges), so
    /// the scan path exercises the same `submit`/`join_epoch` substrate as
    /// `PULL-EXTEND`.
    pub fn next_batch(&mut self, ctx: &OpContext<'_>) -> Option<RowBatch> {
        let target_rows = ctx.batch_size;
        let mut batch = RowBatch::with_capacity(2, target_rows.min(64 * 1024));
        // First drain carried-over rows.
        while batch.len() < target_rows && self.pending.len() >= 2 {
            let v = self.pending.pop().expect("pair");
            let u = self.pending.pop().expect("pair");
            batch.push_row(&[u, v]);
        }
        while batch.len() < target_rows {
            let Some(chunk) = self.pool.pop() else { break };
            // Fetch adjacency lists: local vertices read the partition
            // directly; stolen remote vertices are pulled (and accounted).
            let remote: Vec<VertexId> = chunk
                .iter()
                .copied()
                .filter(|&v| !ctx.partition.is_local(v))
                .collect();
            let remote_lists: HashMap<VertexId, Vec<VertexId>> = if remote.is_empty() {
                HashMap::new()
            } else {
                ctx.rpc.get_nbrs(ctx.machine, &remote).into_iter().collect()
            };
            let per = (chunk.len() / (ctx.pool.workers() * 2).max(1)).max(64);
            let slices: Vec<&[VertexId]> = chunk.chunks(per).collect();
            let filters = &self.op.filters;
            let remote_lists = &remote_lists;
            let run = ctx.pool.run(slices, |vertices, out: &mut Vec<VertexId>| {
                for &u in vertices {
                    let neighbours: &[VertexId] = if ctx.partition.is_local(u) {
                        ctx.partition.local_neighbours(u)
                    } else {
                        remote_lists.get(&u).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    for &v in neighbours {
                        if passes_filters(&[u, v], filters) {
                            out.push(u);
                            out.push(v);
                        }
                    }
                }
            });
            for flat in run.outputs {
                for pair in flat.chunks_exact(2) {
                    if batch.len() < target_rows {
                        batch.push_row(pair);
                    } else {
                        self.pending.push(pair[0]);
                        self.pending.push(pair[1]);
                    }
                }
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

// ---------------------------------------------------------------------------
// PULL-EXTEND
// ---------------------------------------------------------------------------

/// The result of running a `PULL-EXTEND` over one input batch.
pub struct ExtendOutput {
    /// The extended (or verified) rows.
    pub batch: RowBatch,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// The result of counting a `PULL-EXTEND` over one input batch without
/// materialising the extended rows.
pub struct ExtendCountOutput {
    /// Number of rows the extension would have produced.
    pub count: u64,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// Resolves a collected list of remote vertices: seals them in the cache
/// (fetching misses) or builds the per-batch side table used when the cache
/// is disabled. Shared tail of both fetch-stage layouts.
fn resolve_remote(
    mut remote: Vec<VertexId>,
    ctx: &OpContext<'_>,
) -> HashMap<VertexId, Vec<VertexId>> {
    remote.sort_unstable();
    remote.dedup();
    let mut batch_table: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    if ctx.use_cache {
        let mut to_fetch: Vec<VertexId> = Vec::new();
        for &v in &remote {
            if ctx.cache.contains(v) {
                ctx.cache.seal(v);
            } else {
                to_fetch.push(v);
            }
        }
        // This is where a lookup hits or misses: once sealed, the intersect
        // stage's reads cannot miss.
        let misses = to_fetch.len() as u64;
        ctx.cache
            .record_lookups(remote.len() as u64 - misses, misses);
        if !to_fetch.is_empty() {
            for (v, nbrs) in ctx.rpc.get_nbrs(ctx.machine, &to_fetch) {
                ctx.cache.insert(v, nbrs);
                ctx.cache.seal(v);
            }
        }
    } else if !remote.is_empty() {
        batch_table = ctx.rpc.get_nbrs(ctx.machine, &remote).into_iter().collect();
    }
    batch_table
}

/// The fetch stage of Algorithm 4: pulls (or seals in the cache) every
/// remote adjacency list the batch's extend positions reference. Returns the
/// per-batch side table (used when the cache is disabled) and the stage
/// duration.
fn fetch_stage(
    op: &ExtendOp,
    input: &RowBatch,
    ctx: &OpContext<'_>,
) -> (HashMap<VertexId, Vec<VertexId>>, Duration) {
    let fetch_start = Instant::now();
    let mut remote: Vec<VertexId> = Vec::new();
    for row in input.rows() {
        for &pos in &op.ext_positions {
            let v = row[pos];
            if !ctx.partition.is_local(v) {
                remote.push(v);
            }
        }
    }
    let batch_table = resolve_remote(remote, ctx);
    (batch_table, fetch_start.elapsed())
}

/// Columnar fetch stage: identical to [`fetch_stage`] but reads the extend
/// positions column-at-a-time (one dense column scan per position instead
/// of a strided walk over rows).
fn fetch_stage_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> (HashMap<VertexId, Vec<VertexId>>, Duration) {
    let fetch_start = Instant::now();
    let mut remote: Vec<VertexId> = Vec::new();
    for &pos in &op.ext_positions {
        match input.selection() {
            None => {
                remote.extend(
                    input
                        .column(pos)
                        .iter()
                        .copied()
                        .filter(|&v| !ctx.partition.is_local(v)),
                );
            }
            Some(sel) => {
                let col = input.column(pos);
                remote.extend(
                    sel.iter()
                        .map(|&i| col[i as usize])
                        .filter(|&v| !ctx.partition.is_local(v)),
                );
            }
        }
    }
    let batch_table = resolve_remote(remote, ctx);
    (batch_table, fetch_start.elapsed())
}

/// Splits `rows` into row-range work items for the worker pool.
fn intersect_ranges(rows: usize, ctx: &OpContext<'_>) -> Vec<(usize, usize)> {
    let chunk_rows = (rows / (ctx.pool.workers() * 4).max(1)).max(256);
    (0..rows)
        .step_by(chunk_rows)
        .map(|start| (start, (start + chunk_rows).min(rows)))
        .collect()
}

/// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one input batch.
pub fn run_extend(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendOutput {
    let out_arity = if op.verify_position.is_some() {
        input.arity()
    } else {
        input.arity() + 1
    };
    let (batch_table, fetch_time) = fetch_stage(op, input, ctx);

    // ---------------- intersect stage ----------------
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let run = ctx
        .pool
        .run(ranges, |(start, end), out: &mut Vec<VertexId>| {
            let mut exts: Vec<VertexId> = Vec::new();
            let mut scratch: Vec<VertexId> = Vec::new();
            let mut tally = KernelTally::default();
            for i in start..end {
                let row = input.row(i);
                extend_one_row(
                    op,
                    row,
                    ctx,
                    batch_table,
                    &mut exts,
                    &mut scratch,
                    &mut tally,
                    &mut ExtendSink::Materialise(out),
                );
            }
            flush_tally(ctx, &tally);
        });

    let mut batch = RowBatch::new(out_arity);
    let worker_busy = run.busy.clone();
    for flat in run.outputs {
        let mut piece = RowBatch::from_flat(out_arity, flat);
        batch.append(&mut piece);
    }

    if ctx.use_cache {
        ctx.cache.release();
    }

    ExtendOutput {
        batch,
        worker_busy,
        fetch_time,
    }
}

/// Runs the two-stage `PULL-EXTEND` over one input batch, *counting* the
/// extensions instead of materialising them — the count-only sink fast path:
/// the final output column (and the batch allocation behind it) is skipped
/// entirely.
pub fn run_extend_count(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendCountOutput {
    let (batch_table, fetch_time) = fetch_stage(op, input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u64>| {
        let mut exts: Vec<VertexId> = Vec::new();
        let mut scratch: Vec<VertexId> = Vec::new();
        let mut tally = KernelTally::default();
        let mut count = 0u64;
        for i in start..end {
            let row = input.row(i);
            extend_one_row(
                op,
                row,
                ctx,
                batch_table,
                &mut exts,
                &mut scratch,
                &mut tally,
                &mut ExtendSink::Count(&mut count),
            );
        }
        flush_tally(ctx, &tally);
        out.push(count);
    });
    if ctx.use_cache {
        ctx.cache.release();
    }
    ExtendCountOutput {
        count: run.outputs.iter().flatten().sum(),
        worker_busy: run.busy,
        fetch_time,
    }
}

/// Where an extension's results go: materialised flat rows, or a counter.
enum ExtendSink<'a> {
    Materialise(&'a mut Vec<VertexId>),
    Count(&'a mut u64),
}

impl ExtendSink<'_> {
    #[inline]
    fn emit_verified(&mut self, row: &[VertexId]) {
        match self {
            ExtendSink::Materialise(out) => out.extend_from_slice(row),
            ExtendSink::Count(count) => **count += 1,
        }
    }

    #[inline]
    fn emit_extended(&mut self, row: &[VertexId], candidate: VertexId) {
        match self {
            ExtendSink::Materialise(out) => {
                out.extend_from_slice(row);
                out.push(candidate);
            }
            ExtendSink::Count(count) => **count += 1,
        }
    }
}

/// Flushes a work item's kernel tally to the machine's shared counters
/// (one set of atomic adds per work item, not per intersection).
#[inline]
fn flush_tally(ctx: &OpContext<'_>, tally: &KernelTally) {
    if tally.total() > 0 {
        ctx.rpc.stats().machine(ctx.machine).record_kernels(
            tally.merge,
            tally.gallop,
            tally.bitmap,
        );
    }
}

/// How the non-hub half of the kernel dispatch is resolved.
///
/// The hub class needs no choice — an indexed hub always dispatches to the
/// bitmap kernel. The list class either re-runs [`kernels::select_kernel`]
/// per intersection call (the row-major paths) or uses one kernel picked up
/// front for the whole batch (the columnar paths, via
/// [`plan_batch_kernel`]), hoisting the dispatch out of the per-candidate
/// loop.
#[derive(Clone, Copy)]
enum ListKernel {
    /// Cardinality comparison per intersection call.
    Adaptive,
    /// One pre-selected kernel for every non-hub step of the batch.
    Fixed(KernelKind),
}

/// Picks the list kernel once per batch for the columnar paths.
///
/// Samples the degree spread of the extend columns (smallest vs. largest
/// degree per row — the shape every intersection step of that row sees) and
/// runs the per-call selection rule on the sampled means. Hub vertices are
/// excluded: they dispatch to the bitmap kernel regardless of what is
/// chosen here. Any outcome is correct on any row; the pick only decides
/// which kernel the batch's non-hub steps run without re-deriving it per
/// candidate.
fn plan_batch_kernel(op: &ExtendOp, input: &ColBatch, ctx: &OpContext<'_>) -> KernelKind {
    const SAMPLE: usize = 128;
    let rows = input.len();
    if rows == 0 || op.ext_positions.len() < 2 {
        // Single-list extensions never intersect; nothing to pick.
        return KernelKind::Merge;
    }
    let step = rows.div_ceil(SAMPLE).max(1);
    let (mut small_sum, mut large_sum, mut sampled) = (0usize, 0usize, 0usize);
    for i in (0..rows).step_by(step) {
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &pos in &op.ext_positions {
            let v = input.value(pos, i);
            if ctx.partition.hub_bitmap(v).is_some() {
                continue;
            }
            let d = ctx.partition.degree(v);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if lo != usize::MAX {
            small_sum += lo;
            large_sum += hi;
            sampled += 1;
        }
    }
    if sampled == 0 {
        // Every sampled vertex is an indexed hub; the list kernel is moot.
        return KernelKind::Merge;
    }
    kernels::select_kernel(small_sum / sampled, large_sum / sampled, false)
}

/// Intersects the adjacency lists of `exts` (already sorted smallest-degree
/// first) into `scratch`, dispatching every step through the adaptive
/// kernel family: hub bitmaps for indexed high-degree vertices, galloping
/// under cardinality skew, branch-light merge otherwise. A missing list
/// (an evicted steal) clears the accumulator — no candidates.
fn intersect_ext_lists(
    exts: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
    list: ListKernel,
) {
    scratch.clear();
    let mut first = true;
    for &v in exts {
        if first {
            if with_neighbours(ctx, batch_table, v, |nbrs| scratch.extend_from_slice(nbrs))
                .is_none()
            {
                scratch.clear();
            }
            first = false;
            continue;
        }
        if scratch.is_empty() {
            break;
        }
        if let Some(bm) = ctx.partition.hub_bitmap(v) {
            kernels::intersect_bitmap_in_place(scratch, bm);
            tally.bump(KernelKind::Bitmap);
            continue;
        }
        let used = match list {
            ListKernel::Adaptive => with_neighbours(ctx, batch_table, v, |nbrs| {
                kernels::intersect_in_place(scratch, nbrs)
            }),
            ListKernel::Fixed(kind) => with_neighbours(ctx, batch_table, v, |nbrs| {
                kernels::intersect_in_place_with(scratch, nbrs, kind);
                kind
            }),
        };
        match used {
            Some(kind) => tally.bump(kind),
            None => scratch.clear(),
        }
    }
}

/// Computes the raw multiway candidate set of one row (Equation 2) into
/// `scratch` (before injectivity and order filters). The extend lists are
/// ordered smallest-degree first — degree is metadata every machine reads
/// for free — so the accumulator starts minimal and skew is maximal, which
/// is what lets the galloping and bitmap branches win.
#[allow(clippy::too_many_arguments)]
fn gather_candidates(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    exts: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
    list: ListKernel,
) {
    exts.clear();
    exts.extend(op.ext_positions.iter().map(|&p| row[p]));
    exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
    intersect_ext_lists(exts, ctx, batch_table, scratch, tally, list);
}

/// Injectivity plus order filters for one candidate against the *output*
/// row layout (`row ++ candidate`).
#[inline]
fn candidate_passes(op: &ExtendOp, row: &[VertexId], candidate: VertexId) -> bool {
    // Injectivity: the new vertex must differ from every bound vertex.
    if row.contains(&candidate) {
        return false;
    }
    op.filters.iter().all(|f| {
        let smaller = if f.smaller == row.len() {
            candidate
        } else {
            row[f.smaller]
        };
        let larger = if f.larger == row.len() {
            candidate
        } else {
            row[f.larger]
        };
        smaller < larger
    })
}

/// Verify mode for one row: the already-bound vertex must be adjacent to
/// every extend position (no intersection needs materialising).
#[inline]
fn verify_one_row(
    op: &ExtendOp,
    vpos: usize,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
) -> bool {
    let target = row[vpos];
    op.ext_positions.iter().all(|&pos| {
        let v = row[pos];
        with_neighbours(ctx, batch_table, v, |nbrs| {
            nbrs.binary_search(&target).is_ok()
        })
        .unwrap_or(false)
    }) && passes_filters(row, &op.filters)
}

/// Extends (or verifies) a single row, feeding the results to `sink`.
#[allow(clippy::too_many_arguments)]
fn extend_one_row(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    exts: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
    sink: &mut ExtendSink<'_>,
) {
    if let Some(vpos) = op.verify_position {
        if verify_one_row(op, vpos, row, ctx, batch_table) {
            sink.emit_verified(row);
        }
        return;
    }

    // Match mode: multiway intersection of the neighbourhoods (Equation 2).
    gather_candidates(
        op,
        row,
        ctx,
        batch_table,
        exts,
        scratch,
        tally,
        ListKernel::Adaptive,
    );
    for &candidate in scratch.iter() {
        if candidate_passes(op, row, candidate) {
            sink.emit_extended(row, candidate);
        }
    }
}

/// Looks up the adjacency list of `v` (local partition, cache, or the
/// per-batch table) and applies `f` to it. Returns `None` when the list is
/// unavailable.
fn with_neighbours<R>(
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    v: VertexId,
    mut f: impl FnMut(&[VertexId]) -> R,
) -> Option<R> {
    if ctx.partition.is_local(v) {
        return Some(f(ctx.partition.local_neighbours(v)));
    }
    if ctx.use_cache {
        let mut result = None;
        let found = ctx.cache.read(v, &mut |nbrs| result = Some(f(nbrs)));
        if found {
            return result;
        }
        // Cache designs without seal/release (the Exp-6 LRU variants) may
        // have evicted the entry between the fetch and intersect stages;
        // correctness requires falling back to an extra (accounted) pull.
        ctx.cache.record_lookups(0, 1);
        let fetched = ctx.rpc.get_nbrs(ctx.machine, &[v]);
        return fetched.first().map(|(_, nbrs)| f(nbrs));
    }
    batch_table.get(&v).map(|nbrs| f(nbrs))
}

// ---------------------------------------------------------------------------
// Columnar PULL-EXTEND
// ---------------------------------------------------------------------------

/// The result of running a columnar `PULL-EXTEND` over one input batch.
pub struct ExtendColsOutput {
    /// The extended (or selection-narrowed) columnar batch.
    pub batch: ColBatch,
    /// Busy time of each intra-machine worker during the intersect stage.
    pub worker_busy: Vec<Duration>,
    /// Time spent in the fetch stage (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
}

/// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one columnar batch.
///
/// *Verify* mode never moves data: the surviving rows become a narrowed
/// selection vector over the input's columns. *Match* mode gathers the
/// prefix columns once per output column (dense sequential writes) and
/// appends exactly one new candidate column — no `arity + 1`-wide row
/// rewrites.
pub fn run_extend_cols(op: &ExtendOp, input: ColBatch, ctx: &OpContext<'_>) -> ExtendColsOutput {
    let (batch_table, fetch_time) = fetch_stage_cols(op, &input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let input_ref = &input;

    if let Some(vpos) = op.verify_position {
        // Survivors as physical indices; the pool returns work items in
        // arbitrary order, so sort before installing the selection.
        let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u32>| {
            let mut row: Vec<VertexId> = Vec::new();
            for i in start..end {
                row.clear();
                input_ref.read_row(i, &mut row);
                if verify_one_row(op, vpos, &row, ctx, batch_table) {
                    out.push(input_ref.physical_index(i) as u32);
                }
            }
        });
        let worker_busy = run.busy.clone();
        let mut sel: Vec<u32> = run.outputs.into_iter().flatten().collect();
        sel.sort_unstable();
        let mut batch = input;
        batch.set_selection(sel);
        if ctx.use_cache {
            ctx.cache.release();
        }
        ctx.rpc
            .stats()
            .machine(ctx.machine)
            .record_col_bytes(batch.byte_size());
        return ExtendColsOutput {
            batch,
            worker_busy,
            fetch_time,
        };
    }

    // Match mode: workers emit (logical row, candidate) pairs; the output
    // columns are then assembled column-at-a-time. The list kernel is
    // picked once for the whole batch — the per-candidate loop below runs
    // dispatch-free.
    let list = ListKernel::Fixed(plan_batch_kernel(op, input_ref, ctx));
    let run = ctx
        .pool
        .run(ranges, |(start, end), out: &mut Vec<VertexId>| {
            let mut row: Vec<VertexId> = Vec::new();
            let mut exts: Vec<VertexId> = Vec::new();
            let mut scratch: Vec<VertexId> = Vec::new();
            let mut tally = KernelTally::default();
            for i in start..end {
                row.clear();
                input_ref.read_row(i, &mut row);
                gather_candidates(
                    op,
                    &row,
                    ctx,
                    batch_table,
                    &mut exts,
                    &mut scratch,
                    &mut tally,
                    list,
                );
                for &candidate in scratch.iter() {
                    if candidate_passes(op, &row, candidate) {
                        out.push(i as u32);
                        out.push(candidate);
                    }
                }
            }
            flush_tally(ctx, &tally);
        });
    let worker_busy = run.busy.clone();
    let arity = input.arity();
    let total: usize = run.outputs.iter().map(|o| o.len() / 2).sum();
    let mut cols: Vec<Vec<VertexId>> = (0..=arity).map(|_| Vec::with_capacity(total)).collect();
    for flat in &run.outputs {
        for (c, col) in cols.iter_mut().enumerate().take(arity) {
            col.extend(flat.chunks_exact(2).map(|p| input.value(c, p[0] as usize)));
        }
        cols[arity].extend(flat.chunks_exact(2).map(|p| p[1]));
    }
    let batch = ColBatch::from_columns(cols);
    if ctx.use_cache {
        ctx.cache.release();
    }
    ctx.rpc
        .stats()
        .machine(ctx.machine)
        .record_col_bytes(batch.byte_size());
    ExtendColsOutput {
        batch,
        worker_busy,
        fetch_time,
    }
}

/// Counts the extensions of one columnar batch without materialising
/// anything the kernels can avoid.
///
/// The candidate-position order filters are turned into a `(lo, hi)` value
/// range and the *largest* extend list is never written: with one extend
/// list the count is two `partition_point`s; with several, all but the
/// largest are intersected into a scratch accumulator and the final step
/// runs an `intersect_count_*` twin (bitmap twin for indexed hubs).
/// Injectivity is restored by subtracting the bound row values that would
/// have been counted.
pub fn run_extend_count_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> ExtendCountOutput {
    let (batch_table, fetch_time) = fetch_stage_cols(op, input, ctx);
    let ranges = intersect_ranges(input.len(), ctx);
    let batch_table = &batch_table;
    let list = ListKernel::Fixed(plan_batch_kernel(op, input, ctx));
    let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u64>| {
        let mut row: Vec<VertexId> = Vec::new();
        let mut exts: Vec<VertexId> = Vec::new();
        let mut scratch: Vec<VertexId> = Vec::new();
        let mut tally = KernelTally::default();
        let mut count = 0u64;
        for i in start..end {
            row.clear();
            input.read_row(i, &mut row);
            count += count_one_row(
                op,
                &row,
                ctx,
                batch_table,
                &mut exts,
                &mut scratch,
                &mut tally,
                list,
            );
        }
        flush_tally(ctx, &tally);
        out.push(count);
    });
    if ctx.use_cache {
        ctx.cache.release();
    }
    ExtendCountOutput {
        count: run.outputs.iter().flatten().sum(),
        worker_busy: run.busy,
        fetch_time,
    }
}

/// Counts the extensions of one row via the kernel count twins.
#[allow(clippy::too_many_arguments)]
fn count_one_row(
    op: &ExtendOp,
    row: &[VertexId],
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    exts: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    tally: &mut KernelTally,
    list: ListKernel,
) -> u64 {
    if let Some(vpos) = op.verify_position {
        return verify_one_row(op, vpos, row, ctx, batch_table) as u64;
    }

    // Split the order filters: filters among bound positions gate the whole
    // row; filters against the candidate position become a value range.
    let n = row.len();
    let mut lo: Option<VertexId> = None;
    let mut hi: Option<VertexId> = None;
    for f in &op.filters {
        if f.larger == n {
            let b = row[f.smaller];
            lo = Some(lo.map_or(b, |x| x.max(b)));
        } else if f.smaller == n {
            let b = row[f.larger];
            hi = Some(hi.map_or(b, |x| x.min(b)));
        } else if row[f.smaller] >= row[f.larger] {
            return 0;
        }
    }
    let in_range = |x: VertexId| lo.is_none_or(|l| x > l) && hi.is_none_or(|h| x < h);
    fn range_slice(s: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> &[VertexId] {
        let a = match lo {
            Some(l) => s.partition_point(|&x| x <= l),
            None => 0,
        };
        let b = match hi {
            Some(h) => s.partition_point(|&x| x < h),
            None => s.len(),
        };
        &s[a..b.max(a)]
    }
    // Distinct bound values that an unconstrained count would wrongly
    // include (injectivity corrections).
    let distinct = |idx: usize| !row[..idx].contains(&row[idx]);

    exts.clear();
    exts.extend(op.ext_positions.iter().map(|&p| row[p]));
    exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
    let (&last, rest) = exts.split_last().expect("extend needs positions");

    // Materialise every list except the largest.
    intersect_ext_lists(rest, ctx, batch_table, scratch, tally, list);
    let single = rest.is_empty();
    if !single && scratch.is_empty() {
        return 0;
    }

    if !single {
        if let Some(bm) = ctx.partition.hub_bitmap(last) {
            let s = range_slice(scratch, lo, hi);
            let mut count = kernels::intersect_count_bitmap(s, bm);
            tally.bump(KernelKind::Bitmap);
            for (idx, &r) in row.iter().enumerate() {
                if distinct(idx) && in_range(r) && bm.contains(r) && s.binary_search(&r).is_ok() {
                    count -= 1;
                }
            }
            return count;
        }
    }

    with_neighbours(ctx, batch_table, last, |nbrs| {
        let nb = range_slice(nbrs, lo, hi);
        if single {
            let mut count = nb.len() as u64;
            for (idx, &r) in row.iter().enumerate() {
                if distinct(idx) && in_range(r) && nb.binary_search(&r).is_ok() {
                    count -= 1;
                }
            }
            count
        } else {
            let s = range_slice(scratch, lo, hi);
            let (mut count, kind) = match list {
                ListKernel::Adaptive => kernels::intersect_count_adaptive(s, nb),
                ListKernel::Fixed(kind) => (kernels::intersect_count_with(s, nb, kind), kind),
            };
            tally.bump(kind);
            for (idx, &r) in row.iter().enumerate() {
                if distinct(idx)
                    && in_range(r)
                    && nb.binary_search(&r).is_ok()
                    && s.binary_search(&r).is_ok()
                {
                    count -= 1;
                }
            }
            count
        }
    })
    .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use huge_cache::PullCache;
    use huge_comm::stats::ClusterStats;
    use huge_comm::RpcFabric;
    use huge_graph::{gen, GraphPartition, Partitioner};
    use huge_plan::physical::CommMode;

    fn setup(k: usize) -> (Vec<GraphPartition>, RpcFabric) {
        let g = gen::complete(8);
        let parts = Partitioner::new(k).unwrap().partition(g);
        let stats = ClusterStats::new(k);
        let fabric = RpcFabric::new(Arc::new(parts.clone()), stats);
        (parts, fabric)
    }

    fn ctx<'a>(
        machine: usize,
        parts: &'a [GraphPartition],
        rpc: &'a RpcFabric,
        cache: &'a dyn PullCache,
        pool: &'a WorkerPool,
    ) -> OpContext<'a> {
        OpContext {
            machine,
            partition: &parts[machine],
            rpc,
            cache,
            use_cache: true,
            pool,
            batch_size: 1024,
        }
    }

    #[test]
    fn scan_produces_all_directed_edges() {
        let (parts, rpc) = setup(2);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let mut total = 0;
        for m in 0..2 {
            let c = ctx(m, &parts, &rpc, &cache, &pool);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![],
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 4));
            while let Some(batch) = cursor.next_batch(&c) {
                total += batch.len();
            }
        }
        // K8 has 28 undirected edges -> 56 directed pairs across machines.
        assert_eq!(total, 56);
    }

    #[test]
    fn scan_respects_order_filters() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![OrderFilter {
                smaller: 0,
                larger: 1,
            }],
        };
        let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[0].local_vertices(), 4));
        let mut total = 0;
        while let Some(batch) = cursor.next_batch(&c) {
            for row in batch.rows() {
                assert!(row[0] < row[1]);
            }
            total += batch.len();
        }
        assert_eq!(total, 28);
    }

    #[test]
    fn extend_counts_triangles_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let mut total = 0;
        for m in 0..2 {
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let c = ctx(m, &parts, &rpc, &cache, &pool);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            };
            let ext = ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
                comm: CommMode::Pulling,
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 2));
            while let Some(batch) = cursor.next_batch(&c) {
                let out = run_extend(&ext, &batch, &c);
                total += out.batch.len();
            }
        }
        // K8 has C(8,3) = 56 triangles.
        assert_eq!(total, 56);
    }

    #[test]
    fn verify_extend_checks_membership() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        // Rows over K8 vertices: verify that column 0 is adjacent to column 1.
        let mut input = RowBatch::new(2);
        input.push_row(&[0, 1]);
        input.push_row(&[2, 2]); // self pair: 2 is not its own neighbour
        let op = ExtendOp {
            target: 0,
            ext_positions: vec![1],
            verify_position: Some(0),
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend(&op, &input, &c);
        assert_eq!(out.batch.len(), 1);
        assert_eq!(out.batch.row(0), &[0, 1]);
    }

    #[test]
    fn extend_without_cache_uses_batch_table() {
        let (parts, rpc) = setup(2);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let mut c = ctx(0, &parts, &rpc, &cache, &pool);
        c.use_cache = false;
        let mut input = RowBatch::new(2);
        input.push_row(&[0, 1]);
        let op = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend(&op, &input, &c);
        // All other 6 vertices of K8 complete the triangle.
        assert_eq!(out.batch.len(), 6);
        assert_eq!(cache.len(), 0, "cache must stay untouched when disabled");
    }

    #[test]
    fn scan_pool_stealing() {
        let pool = ScanPool::new(&(0..100u32).collect::<Vec<_>>(), 10);
        let stolen = pool.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(pool.remaining_vertices(), 50);
        let other = ScanPool::empty();
        other.add_chunks(stolen);
        assert_eq!(other.remaining_vertices(), 50);
        assert!(!other.is_empty());
    }

    #[test]
    fn columnar_extend_matches_row_major_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let mut row_total = 0;
        let mut col_total = 0;
        let mut count_total = 0;
        for m in 0..2 {
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let c = ctx(m, &parts, &rpc, &cache, &pool);
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            };
            let ext = ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
                comm: CommMode::Pulling,
            };
            let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[m].local_vertices(), 2));
            while let Some(batch) = cursor.next_batch(&c) {
                row_total += run_extend(&ext, &batch, &c).batch.len();
                let cols = ColBatch::from_rows(&batch);
                count_total += run_extend_count_cols(&ext, &cols, &c).count;
                let out = run_extend_cols(&ext, cols, &c);
                assert_eq!(out.batch.arity(), 3);
                col_total += out.batch.len();
            }
        }
        // K8 has C(8,3) = 56 triangles; all three paths must agree.
        assert_eq!(row_total, 56);
        assert_eq!(col_total, 56);
        assert_eq!(count_total, 56);
        // The columnar paths dispatched kernels and charged column bytes.
        let total = rpc.stats().total();
        assert!(total.kernel_invocations() > 0);
        assert!(total.col_bytes > 0);
    }

    #[test]
    fn columnar_verify_narrows_selection_without_copying() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let mut input = ColBatch::new(2);
        input.push_row(&[0, 1]);
        input.push_row(&[2, 2]); // self pair: 2 is not its own neighbour
        input.push_row(&[3, 5]);
        let op = ExtendOp {
            target: 0,
            ext_positions: vec![1],
            verify_position: Some(0),
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let out = run_extend_cols(&op, input, &c);
        assert_eq!(out.batch.len(), 2);
        assert_eq!(out.batch.physical_rows(), 3, "verify must not compact");
        assert_eq!(out.batch.selection(), Some(&[0, 2][..]));
        assert_eq!(out.batch.value(0, 1), 3);
        assert_eq!(out.batch.to_rows().row(0), &[0, 1]);
    }

    #[test]
    fn batch_kernel_plan_reflects_degree_spread() {
        let ext = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![],
            comm: CommMode::Pulling,
        };

        // Balanced degrees (K8: every vertex has degree 7) → merge.
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let mut balanced = ColBatch::new(2);
        balanced.push_row(&[0, 1]);
        assert_eq!(plan_batch_kernel(&ext, &balanced, &c), KernelKind::Merge);

        // Empty batches and single-list extensions have nothing to pick.
        let empty = ColBatch::new(2);
        assert_eq!(plan_batch_kernel(&ext, &empty, &c), KernelKind::Merge);

        // ≥ GALLOP_RATIO× degree spread between the extend columns → gallop.
        let mut edges: Vec<(VertexId, VertexId)> = (1..=512u32).map(|v| (0, v)).collect();
        edges.push((1, 2));
        edges.push((1, 3));
        let g = huge_graph::Graph::from_edges(edges);
        let parts = Partitioner::new(1).unwrap().partition(g);
        let stats = ClusterStats::new(1);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), stats);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let mut skewed = ColBatch::new(2);
        skewed.push_row(&[1, 0]); // degree 3 vs. degree 512
        assert_eq!(plan_batch_kernel(&ext, &skewed, &c), KernelKind::Gallop);
    }

    #[test]
    fn columnar_count_uses_hub_bitmaps() {
        let g = gen::barabasi_albert(400, 6, 3);
        let mut parts = Partitioner::new(1).unwrap().partition(g);
        parts[0].build_hub_index(8); // low threshold: plenty of hubs
        let stats = ClusterStats::new(1);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), stats);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![OrderFilter {
                smaller: 0,
                larger: 1,
            }],
        };
        let ext = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![OrderFilter {
                smaller: 1,
                larger: 2,
            }],
            comm: CommMode::Pulling,
        };
        let mut row_total = 0u64;
        let mut count_total = 0u64;
        let mut cursor = ScanCursor::new(scan, ScanPool::new(parts[0].local_vertices(), 64));
        while let Some(batch) = cursor.next_batch(&c) {
            row_total += run_extend(&ext, &batch, &c).batch.len() as u64;
            let cols = ColBatch::from_rows(&batch);
            count_total += run_extend_count_cols(&ext, &cols, &c).count;
        }
        assert_eq!(count_total, row_total);
        let snap = rpc.stats().total();
        assert!(
            snap.kernel_bitmap > 0,
            "hub bitmaps must be dispatched on a BA graph: {snap:?}"
        );
    }
}
