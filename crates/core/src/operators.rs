//! Operator implementations: `SCAN` ([`ScanCursor`]) and `PULL-EXTEND`
//! ([`ExtendSpec`]).
//!
//! (`PUSH-JOIN` lives in [`crate::join`]; the `SINK` is part of the segment
//! terminal in [`crate::machine`], whose chain calls these operators
//! directly — [`ScanCursor::next_runs`], then [`ExtendSpec::run_cols`], or
//! [`ExtendSpec::run_count_cols`] for the last extend of a counting root
//! segment.)
//!
//! Match-mode `PULL-EXTEND` is **one candidate generator with two sinks**
//! (`for_each_candidate_set`), and the generator is two things:
//!
//! * an [`ExtendSpec`] — what the plan decides, compiled once per operator:
//!   which extend position is the newest column (`last`) and which are the
//!   shared `prefix`, which order filters gate a whole run and which one row,
//!   which bound the candidate from below or above, and the few positions
//!   (`collide`, often none) whose value a candidate could equal at all —
//!   each split by whether it reads a per-run column or the newest one;
//! * **a loop over `(run, rows of the run)`**. A match-mode extend emits a
//!   run batch ([`ColBatch::from_runs`]): every input column once per
//!   extended input row, the candidates in the newest column, the `(row, n)`
//!   list it kept anyway as the run ends. The next extend reads those runs
//!   instead of rediscovering them row by row; a batch without runs (a join's
//!   output, a test's) is the same loop with every row a run of one.
//!
//! What is decided **per run**: the gates between per-run columns, the part
//! of the candidates' value range those columns fix, the run's `collide`
//! values, and the prefix key — the intersection of the prefix positions'
//! lists is recomputed only when the key's vertex ids differ from the
//! previous run's, and the slice of it inside the value range stays *set in a
//! [`ProbeFilter`]*. What is done **per row**: gates and bounds that read the
//! newest column, and the last step — a scan of the row's own newest list
//! against the filter; the shared side is not merged again for every row. The
//! filter is set when a key's first slice is computed, once more with the
//! whole shared list if a later row's range reaches outside that slice (so
//! bounds that move with every row do not rebuild it once a row), and cleared
//! — by re-hashing what it holds — before the list is replaced. It is refused
//! for a set over [`kernels::PROBE_MAX_SET`] and bypassed for a list over
//! [`kernels::PROBE_MAX_SKEW`] × the slice; those rows, and indexed hubs,
//! take the merge / gallop / bitmap dispatch. Work items are cut on run
//! boundaries, so within a batch nothing a run computed is computed twice;
//! only a chunk edge (`split_into_chunks` cuts rows, and a straddling run in
//! two) makes one run two.
//!
//! The key comparison reads vertex ids, nothing else, so it cannot be wrong
//! for any order of runs — shuffled, selected, split or stolen batches only
//! recompute more. [`ExtendSpec::run_count_cols`] counts each row's last
//! step with the kernel count twins; [`ExtendSpec::run_cols`] lets the
//! kernels write it straight into the new column. Verify mode is a per-row
//! membership test over the same `(run, rows)` walk and shares the fetch
//! stage. A row-major `run_extend` / `run_extend_count` that intersects
//! every list for every row and filters per candidate lives in the test-only
//! `row_major` module: the reference the tests hold the generator to.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_comm::{ColBatch, RowBatch};
use huge_graph::kernels::{self, KernelKind, KernelTally, ProbeFilter};
use huge_graph::VertexId;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use parking_lot::Mutex;

pub use crate::exec::OpContext;
use crate::{EngineError, Result};

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
            let slices: Vec<(usize, &[VertexId])> = chunk.chunks(per).enumerate().collect();
            let filters = &self.op.filters;
            let remote_lists = &remote_lists;
            let run = ctx.pool.run(slices, |(i, vertices), out: &mut Vec<_>| {
                let mut flat = Vec::new();
                for &u in vertices {
                    let neighbours: &[VertexId] = if ctx.partition.is_local(u) {
                        ctx.partition.local_neighbours(u)
                    } else {
                        remote_lists.get(&u).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    for &v in neighbours {
                        if passes_filters(&[u, v], filters) {
                            flat.push(u);
                            flat.push(v);
                        }
                    }
                }
                out.push((i, flat));
            });
            // The pool returns work items in arbitrary order: put the slices
            // back in vertex order, so batches (and their runs) do not depend
            // on which worker took which slice.
            let mut slices: Vec<(usize, Vec<VertexId>)> =
                run.outputs.into_iter().flatten().collect();
            slices.sort_unstable_by_key(|&(i, _)| i);
            for (_, flat) in slices {
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

    /// [`ScanCursor::next_batch`] as a chain consumes it: one run batch of
    /// `[src, dst]` columns with its column bytes charged to the machine. The
    /// cursor emits a vertex's edges consecutively, so `src` is stored once
    /// per vertex and the first extend reads its runs like any later one.
    /// `None` while the pool is empty (stealing may refill it).
    pub fn next_runs(&mut self, ctx: &OpContext<'_>) -> Option<ColBatch> {
        let batch = self.next_batch(ctx)?;
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
        Some(cols)
    }
}

// ---------------------------------------------------------------------------
// PULL-EXTEND
// ---------------------------------------------------------------------------

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
/// remote adjacency list the batch's extend positions reference, and returns
/// the per-batch side table (used when the cache is disabled) and the stage
/// duration. Reads each extend position once per run — once per row only
/// for the newest column, or when every row is its own run — and skips
/// consecutive duplicates: a value repeated over adjacent runs would push the
/// same vertex again only for [`resolve_remote`]'s sort + dedup to throw it
/// away. Empty runs (a verify-mode extend leaves them behind) reference
/// nothing.
fn fetch_stage_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> (HashMap<VertexId, Vec<VertexId>>, Duration) {
    let fetch_start = Instant::now();
    let newest = input.arity() - 1;
    let mut remote: Vec<VertexId> = Vec::new();
    for &pos in &op.ext_positions {
        let col = input.column(pos);
        let mut prev = None;
        for r in 0..input.runs() {
            let rows = input.run_rows(r);
            // A per-run column is read once for the run, if it has rows.
            let reads = match pos == newest {
                true => rows,
                false => r..r + rows.len().min(1),
            };
            for v in reads.map(|at| col[input.physical_index(at)]) {
                if prev != Some(v) {
                    prev = Some(v);
                    if !ctx.partition.is_local(v) {
                        remote.push(v);
                    }
                }
            }
        }
    }
    let batch_table = resolve_remote(remote, ctx);
    (batch_table, fetch_start.elapsed())
}

/// Splits the runs of `input` into work items `(first run, one past the
/// last)` of about the same number of rows. Items are cut on run boundaries
/// only, so a run's shared intersection and its filter are never computed
/// twice within a batch; for a batch without runs that is every row.
fn intersect_ranges(input: &ColBatch, ctx: &OpContext<'_>) -> Vec<(usize, usize)> {
    let target = (input.len() / (ctx.pool.workers() * 4).max(1)).max(256);
    let runs = input.runs();
    let Some(ends) = input.run_ends() else {
        let cuts = (0..runs).step_by(target);
        return cuts
            .map(|first| (first, (first + target).min(runs)))
            .collect();
    };
    let mut items = Vec::new();
    let mut first = 0;
    while first < runs {
        let full = input.run_rows(first).start + target;
        // Through the run that brings the item to `target` rows.
        let end = (ends.partition_point(|&e| (e as usize) < full) + 1).min(runs);
        items.push((first, end));
        first = end;
    }
    items
}

/// Flushes a work item's kernel tally to the machine's shared counters
/// (one set of atomic adds per work item, not per intersection).
#[inline]
fn flush_tally(ctx: &OpContext<'_>, tally: &KernelTally) {
    if tally.total() > 0 {
        ctx.rpc.stats().machine(ctx.machine).record_kernels(tally);
    }
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
        match with_neighbours(ctx, batch_table, v, |nbrs| {
            kernels::intersect_in_place(scratch, nbrs)
        }) {
            Some(kind) => tally.bump(kind),
            None => scratch.clear(),
        }
    }
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

/// The positions one part of an extend reads, split by what a read costs in a
/// run batch: the `run` columns hold one value per run, the newest column
/// one per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Reads {
    /// Positions below the newest column.
    run: Vec<usize>,
    /// Whether the newest column is read too.
    newest: bool,
}

impl Reads {
    fn of(positions: impl IntoIterator<Item = usize>, newest: usize) -> Reads {
        let (row, run): (Vec<usize>, Vec<usize>) =
            positions.into_iter().partition(|&p| p == newest);
        Reads {
            run,
            newest: !row.is_empty(),
        }
    }

    /// Every position read.
    #[cfg(test)]
    fn all(&self, newest: usize) -> Vec<usize> {
        let row = self.newest.then_some(newest);
        self.run.iter().copied().chain(row).collect()
    }
}

/// A `PULL-EXTEND` compiled against the arity of its input, once per
/// operator: everything about a row's extension that the plan decides and
/// the rows do not — and, for each part, whether it can be decided once per
/// run or needs the newest column. The fields below describe match mode;
/// verify mode keeps reading `op`.
#[derive(Clone, Debug)]
pub struct ExtendSpec {
    op: ExtendOp,
    arity: usize,
    /// The extend position whose list is borrowed per row: the newest input
    /// column if it is an extend position, or the only one of a one-list
    /// extend.
    last: Option<usize>,
    /// The other extend positions, never the newest column: a run of rows
    /// shares their vertices, and so the intersection of their lists.
    prefix: Vec<usize>,
    /// Order filters between two positions below the newest column,
    /// `(smaller, larger)`: they pass or fail a whole run.
    run_gates: Vec<(usize, usize)>,
    /// Order filters between the newest column and another bound position:
    /// they pass or fail one row.
    row_gates: Vec<(usize, usize)>,
    /// Positions whose value the candidate must exceed.
    lo_from: Reads,
    /// Positions whose value the candidate must stay under.
    hi_from: Reads,
    /// The only positions whose value a candidate can equal, so the only
    /// ones injectivity has to look at: not an extend position (the graph is
    /// simple, `v ∉ N(v)`) and not strictly ordered against the candidate.
    collide: Reads,
}

impl ExtendSpec {
    /// Compiles `op` for input rows of `arity` columns (the candidate is
    /// output position `arity`).
    pub fn compile(op: &ExtendOp, arity: usize) -> ExtendSpec {
        let exts = &op.ext_positions;
        let newest = arity - 1;
        let last = match exts[..] {
            [only] => Some(only),
            _ => exts.contains(&newest).then_some(newest),
        };
        let prefix = exts.iter().copied().filter(|&p| Some(p) != last).collect();
        let (mut gates, mut lo_from, mut hi_from) = (Vec::new(), Vec::new(), Vec::new());
        for f in &op.filters {
            if f.larger == arity {
                lo_from.push(f.smaller);
            } else if f.smaller == arity {
                hi_from.push(f.larger);
            } else {
                gates.push((f.smaller, f.larger));
            }
        }
        let (row_gates, run_gates) = gates
            .into_iter()
            .partition(|&(smaller, larger)| smaller == newest || larger == newest);
        let collide = (0..arity)
            .filter(|p| !exts.contains(p) && !lo_from.contains(p) && !hi_from.contains(p));
        ExtendSpec {
            op: op.clone(),
            arity,
            last,
            prefix,
            run_gates,
            row_gates,
            collide: Reads::of(collide, newest),
            lo_from: Reads::of(lo_from, newest),
            hi_from: Reads::of(hi_from, newest),
        }
    }

    /// Arity of the output rows: verify mode adds no column.
    pub fn output_arity(&self) -> usize {
        self.arity + self.op.verify_position.is_none() as usize
    }
}

/// The last step of one row's extension, as the generator hands it to a
/// sink: the sorted operands whose intersection is the row's candidate set,
/// already narrowed to the value range the order filters allow.
enum Candidates<'a> {
    /// The set itself: a one-list extend, or no extend position in the
    /// newest column.
    Slice(&'a [VertexId]),
    /// Shared prefix intersection ∩ the newest column's list.
    Lists(&'a [VertexId], &'a [VertexId]),
    /// The same, through the run's filter over the shared side.
    Probe(&'a ProbeFilter, &'a [VertexId], &'a [VertexId]),
    /// Shared prefix intersection ∩ the newest column's hub bitmap.
    Hub(&'a [VertexId], &'a kernels::HubBitmap),
}

impl Candidates<'_> {
    /// The counting sink: `|candidates|` via the kernel count twins, minus
    /// the `bound` row values among them (injectivity).
    fn count(self, bound: &[VertexId], tally: &mut KernelTally) -> u64 {
        let has = |s: &[VertexId], r: &VertexId| s.binary_search(r).is_ok();
        let (n, dups) = match self {
            Candidates::Slice(s) => (s.len() as u64, bound.iter().filter(|r| has(s, r)).count()),
            Candidates::Lists(s, nb) => {
                let (n, kind) = kernels::intersect_count_adaptive(s, nb);
                tally.bump(kind);
                let dups = bound.iter().filter(|r| has(nb, r) && has(s, r));
                (n, dups.count())
            }
            Candidates::Probe(filter, s, nb) => {
                tally.bump(KernelKind::Probe);
                let dups = bound.iter().filter(|r| has(nb, r) && has(s, r));
                (kernels::intersect_count_probe(filter, s, nb), dups.count())
            }
            Candidates::Hub(s, bm) => {
                tally.bump(KernelKind::Bitmap);
                let dups = bound.iter().filter(|r| bm.contains(**r) && has(s, r));
                (kernels::intersect_count_bitmap(s, bm), dups.count())
            }
        };
        n - dups as u64
    }

    /// The materialising sink: appends the candidates, minus the `bound`
    /// row values among them, to `out`. Returns how many it appended.
    fn append_to(
        self,
        bound: &[VertexId],
        out: &mut Vec<VertexId>,
        tally: &mut KernelTally,
    ) -> usize {
        let from = out.len();
        match self {
            Candidates::Slice(s) => out.extend_from_slice(s),
            Candidates::Lists(s, nb) => tally.bump(kernels::intersect_into(s, nb, out)),
            Candidates::Probe(filter, s, nb) => {
                kernels::intersect_probe_into(filter, s, nb, out);
                tally.bump(KernelKind::Probe);
            }
            Candidates::Hub(s, bm) => {
                kernels::intersect_bitmap_into(s, bm, out);
                tally.bump(KernelKind::Bitmap);
            }
        }
        for r in bound {
            if let Ok(k) = out[from..].binary_search(r) {
                out.remove(from + k);
            }
        }
        out.len() - from
    }
}

/// The index range of sorted `s` strictly between `lo` and `hi`.
fn range_of(s: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> Range<usize> {
    let a = lo.map_or(0, |l| s.partition_point(|&x| x <= l));
    let b = hi.map_or(s.len(), |h| s.partition_point(|&x| x < h));
    a..b.max(a)
}

/// The candidate generator of match mode (Equation 2): **one loop over
/// `(run, rows of the run)`** for the runs `first..end` of `input`. It hands
/// `sink` each row's [`Candidates`], where the row's values live in `input`'s
/// columns — `(index in the per-run columns, index in the newest column)` —
/// and the row's values at the spec's `collide` positions (what injectivity
/// must remove). A batch without run structure goes through the same loop
/// with every row a run of one; nothing below asks which shape it has.
///
/// **Once per run**, from the columns that hold one value per run: the
/// `run_gates` pass or fail the whole run; the part of the candidates' value
/// range the run fixes; the run's `collide` values; and the prefix key. The
/// prefix lists' intersection `shared` (smallest-degree first, hub bitmaps
/// where indexed) is recomputed only when the key — the prefix vertices,
/// compared by id — differs from the previous run's: consecutive runs often
/// share it (q1's `(a, b₁)`, `(a, b₂)` both intersect `N(a)`), and equal
/// vertices have equal adjacency lists, so any order of runs is correct; a
/// run under a new key just misses. Work items are cut on run boundaries
/// ([`intersect_ranges`]), so within a batch a run computes `shared` and arms
/// its filter once.
///
/// **Once per row**, from the newest column: the `row_gates`, the rest of
/// the range `(lo, hi)`, and the last step. The slice of `shared` inside the
/// range is recomputed only when the key or the range changed (an empty
/// slice ends the row without touching the newest list). That slice is not
/// merged with each row's newest list: its elements are set in a
/// [`ProbeFilter`] and each row only scans its own list against the filter
/// ([`Candidates::Probe`]). A key sets the filter with its first slice and,
/// if a later row's range reaches outside that, once more with the whole
/// shared list; what the filter holds clears itself before it is replaced.
/// The filter is refused for a set over [`kernels::PROBE_MAX_SET`] and
/// bypassed for a newest list over [`kernels::PROBE_MAX_SKEW`] × the slice;
/// those rows, and hubs' bitmaps, take the merge / gallop / bitmap dispatch.
/// The newest column's list is borrowed, not copied — as is the only list of
/// a one-list extend, which has no prefix and never builds a filter. A list
/// that is unavailable (evicted and not re-pullable) yields no candidates.
///
/// Input rows are injective — scan, extend and join outputs are by
/// construction — so the values at `collide` are distinct and each removes
/// at most one candidate.
fn for_each_candidate_set(
    spec: &ExtendSpec,
    input: &ColBatch,
    (first, end): (usize, usize),
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    mut sink: impl FnMut((usize, usize), Candidates<'_>, &[VertexId], &mut KernelTally),
) {
    let cols: Vec<&[VertexId]> = (0..input.arity()).map(|c| input.column(c)).collect();
    let newest = cols[spec.arity - 1];
    let has_prefix = !spec.prefix.is_empty();

    // `shared` is the intersection of the lists of `key`'s vertices,
    // `shared[span]` its part inside the range `cut`; `filter` holds exactly
    // `shared[armed]`, which is empty or covers `span`.
    let (mut key, mut shared): (Vec<VertexId>, Vec<VertexId>) = (Vec::new(), Vec::new());
    let mut by_degree: Vec<VertexId> = Vec::new();
    let mut filter = ProbeFilter::default();
    let (mut armed, mut sets_left) = (0..0, 0u8);
    let (mut cut, mut span) = (None, 0..0);
    let mut bound: Vec<VertexId> = Vec::new();
    let mut tally = KernelTally::default();
    let (mut total, mut started) = (0u64, 0u64);
    for r in first..end {
        let rows = input.run_rows(r);
        if rows.is_empty() {
            continue;
        }
        total += rows.len() as u64;
        started += 1;
        // Where the run's values sit in the per-run columns (for a batch
        // without runs, the row's own physical index).
        let p = input.physical_index(r);
        if spec
            .run_gates
            .iter()
            .any(|&(s, l)| cols[s][p] >= cols[l][p])
        {
            continue;
        }
        let run_lo = spec.lo_from.run.iter().map(|&c| cols[c][p]).max();
        let run_hi = spec.hi_from.run.iter().map(|&c| cols[c][p]).min();
        bound.clear();
        bound.extend(spec.collide.run.iter().map(|&c| cols[c][p]));
        let run_bound = bound.len();
        if has_prefix
            && !spec
                .prefix
                .iter()
                .map(|&c| cols[c][p])
                .eq(key.iter().copied())
        {
            filter.clear_all(&shared[armed.clone()]);
            (armed, sets_left) = (0..0, 2u8);
            key.clear();
            key.extend(spec.prefix.iter().map(|&c| cols[c][p]));
            by_degree.clone_from(&key);
            by_degree.sort_unstable_by_key(|&v| ctx.partition.degree(v));
            intersect_ext_lists(&by_degree, ctx, batch_table, &mut shared, &mut tally);
            cut = None;
        }
        'rows: for i in rows {
            let q = input.physical_index(i);
            let x = newest[q];
            let at = |c: usize| if c + 1 == spec.arity { x } else { cols[c][p] };
            for &(smaller, larger) in &spec.row_gates {
                if at(smaller) >= at(larger) {
                    continue 'rows;
                }
            }
            let lo = run_lo.max(spec.lo_from.newest.then_some(x));
            let hi = match spec.hi_from.newest {
                true => Some(run_hi.map_or(x, |h| h.min(x))),
                false => run_hi,
            };
            if has_prefix {
                if cut != Some((lo, hi)) {
                    cut = Some((lo, hi));
                    span = range_of(&shared, lo, hi);
                    let covered = armed.start <= span.start && span.end <= armed.end;
                    if !covered && !span.is_empty() {
                        // A key sets the filter at most twice: its first
                        // slice, then — if a later row's range reaches
                        // outside that — the whole list, which covers every
                        // range. Bounds that move with each row must not
                        // rebuild it once a row.
                        filter.clear_all(&shared[armed.clone()]);
                        armed = match sets_left {
                            2 => span.clone(),
                            1 => 0..shared.len(),
                            _ => 0..0,
                        };
                        sets_left = sets_left.saturating_sub(1);
                        if armed.len() > kernels::PROBE_MAX_SET {
                            armed = 0..0;
                        }
                        filter.set_all(&shared[armed.clone()]);
                    }
                }
                if span.is_empty() {
                    continue;
                }
            }
            let s = &shared[span.clone()];
            bound.truncate(run_bound);
            if spec.collide.newest {
                bound.push(x);
            }
            debug_assert!(
                (1..bound.len()).all(|k| !bound[..k].contains(&bound[k])),
                "input rows must be injective"
            );
            let Some(last) = spec.last else {
                sink((p, q), Candidates::Slice(s), &bound, &mut tally);
                continue;
            };
            let v = at(last);
            if !has_prefix {
                with_neighbours(ctx, batch_table, v, |nbrs| {
                    let only = Candidates::Slice(&nbrs[range_of(nbrs, lo, hi)]);
                    sink((p, q), only, &bound, &mut tally);
                });
            } else if let Some(bm) = ctx.partition.hub_bitmap(v) {
                sink((p, q), Candidates::Hub(s, bm), &bound, &mut tally);
            } else {
                with_neighbours(ctx, batch_table, v, |nbrs| {
                    let nb = &nbrs[range_of(nbrs, lo, hi)];
                    let both = if !armed.is_empty() && nb.len() <= kernels::PROBE_MAX_SKEW * s.len()
                    {
                        Candidates::Probe(&filter, s, nb)
                    } else {
                        Candidates::Lists(s, nb)
                    };
                    sink((p, q), both, &bound, &mut tally);
                });
            }
        }
    }
    if cfg!(debug_assertions) {
        filter.clear_all(&shared[armed]);
        assert!(filter.is_clear(), "a replaced slice left its bits behind");
    }
    flush_tally(ctx, &tally);
    // Structural, not observed: every row after the first of its run reuses
    // what the run computed. A one-list extend shares nothing.
    let reuses = if has_prefix { total - started } else { 0 };
    let stats = ctx.rpc.stats().machine(ctx.machine);
    stats.record_extend(total, reuses);
}

/// Verify mode over the runs `first..end` of `input`: calls `keep` with the
/// logical index of every row that passes [`verify_one_row`]. The row's
/// prefix is read once per run, its newest value once per row.
fn for_each_verified_row(
    op: &ExtendOp,
    vpos: usize,
    input: &ColBatch,
    (first, end): (usize, usize),
    ctx: &OpContext<'_>,
    batch_table: &HashMap<VertexId, Vec<VertexId>>,
    mut keep: impl FnMut(usize),
) {
    let newest = input.arity() - 1;
    let mut row: Vec<VertexId> = Vec::new();
    for r in first..end {
        let rows = input.run_rows(r);
        if rows.is_empty() {
            continue;
        }
        let p = input.physical_index(r);
        row.clear();
        row.extend((0..newest).map(|c| input.column(c)[p]));
        row.push(0);
        for i in rows {
            row[newest] = input.column(newest)[input.physical_index(i)];
            if verify_one_row(op, vpos, &row, ctx, batch_table) {
                keep(i);
            }
        }
    }
}

/// The cumulative run ends of consecutive runs of the given lengths: the run
/// table of a match-mode extend's output. A batch indexes its rows in 32
/// bits, so one input batch expanding past `u32::MAX` rows is an error, not
/// a wrapped index.
fn run_ends_of(lens: impl IntoIterator<Item = usize>) -> Result<Vec<u32>> {
    let lens = lens.into_iter();
    let mut ends = Vec::with_capacity(lens.size_hint().0);
    let mut rows = 0u64;
    for n in lens {
        rows += n as u64;
        ends.push(u32::try_from(rows).map_err(|_| EngineError::BatchTooLarge(rows))?);
    }
    Ok(ends)
}

impl ExtendSpec {
    /// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one columnar batch.
    ///
    /// *Verify* mode never moves prefix data: the surviving rows become a
    /// narrowed selection vector over a dense input's columns, or a shorter
    /// newest column and recounted run ends of a run batch
    /// ([`ColBatch::retain_rows`]). *Match* mode is the materialising sink of
    /// `for_each_candidate_set` and always emits a **run batch**: the
    /// kernels write each row's candidates straight into a piece of the new
    /// column, the `(input row, candidates)` list the sink keeps is the run
    /// table, and every input column is gathered once per *extended input
    /// row* — never once per output row; that gather exists only in
    /// [`ColBatch::flatten`]. Output rows keep the input's order.
    ///
    /// Fails with [`EngineError::BatchTooLarge`] if the batch has, or expands
    /// to, more rows than a batch can index.
    pub fn run_cols(&self, input: ColBatch, ctx: &OpContext<'_>) -> Result<ExtendColsOutput> {
        debug_assert_eq!(input.arity(), self.arity);
        // Row indices below are 32-bit: check once, then cast.
        run_ends_of([input.physical_rows()])?;
        let op = &self.op;
        let (batch_table, fetch_time) = fetch_stage_cols(op, &input, ctx);
        let ranges = intersect_ranges(&input, ctx);
        let batch_table = &batch_table;
        let input_ref = &input;

        let (batch, worker_busy) = if let Some(vpos) = op.verify_position {
            let run = ctx.pool.run(ranges, |range, out: &mut Vec<u32>| {
                for_each_verified_row(op, vpos, input_ref, range, ctx, batch_table, |i| {
                    out.push(i as u32)
                });
            });
            // The pool returns work items in arbitrary order.
            let mut keep: Vec<u32> = run.outputs.into_iter().flatten().collect();
            keep.sort_unstable();
            let mut batch = input;
            batch.retain_rows(keep);
            (Ok(batch), run.busy)
        } else {
            // Each work item emits its piece of the candidate column and,
            // per extended row, where the row sits in the input's per-run
            // columns and in its newest column, and how many candidates it
            // got.
            type Piece = (usize, Vec<(u32, u32, usize)>, Vec<VertexId>);
            let run = ctx.pool.run(ranges, |range, out: &mut Vec<Piece>| {
                let (mut rows, mut cands) = (Vec::new(), Vec::new());
                for_each_candidate_set(
                    self,
                    input_ref,
                    range,
                    ctx,
                    batch_table,
                    |(p, q), c, bound, tally| {
                        let n = c.append_to(bound, &mut cands, tally);
                        if n > 0 {
                            rows.push((p as u32, q as u32, n));
                        }
                    },
                );
                out.push((range.0, rows, cands));
            });
            let mut pieces: Vec<Piece> = run.outputs.into_iter().flatten().collect();
            pieces.sort_unstable_by_key(|piece| piece.0);
            let extended = || pieces.iter().map(|(_, rows, _)| rows.as_slice());
            let lens = extended().flatten().map(|&(_, _, n)| n);
            let batch = run_ends_of(lens).map(|run_ends| {
                let newest = self.arity - 1;
                let mut cols: Vec<Vec<VertexId>> = (0..self.arity)
                    .map(|c| {
                        let source = input.column(c);
                        let at = |&(p, q, _): &(u32, u32, usize)| if c == newest { q } else { p };
                        let mut col = Vec::with_capacity(run_ends.len());
                        for rows in extended() {
                            col.extend(rows.iter().map(|row| source[at(row) as usize]));
                        }
                        col
                    })
                    .collect();
                let total = run_ends.last().map_or(0, |&end| end as usize);
                let mut candidates = Vec::with_capacity(total);
                for (_, _, cands) in &pieces {
                    candidates.extend_from_slice(cands);
                }
                cols.push(candidates);
                ColBatch::from_runs(cols, run_ends)
            });
            (batch, run.busy)
        };
        // Unseal what the fetch stage sealed before any error leaves.
        if ctx.use_cache {
            ctx.cache.release();
        }
        let batch = batch?;
        ctx.rpc
            .stats()
            .machine(ctx.machine)
            .record_col_bytes(batch.byte_size());
        Ok(ExtendColsOutput {
            batch,
            worker_busy,
            fetch_time,
        })
    }

    /// Counts the extensions of one columnar batch without materialising
    /// anything the kernels can avoid: the counting sink of
    /// `for_each_candidate_set`. The newest column's list is never written —
    /// with one extend list the count is two `partition_point`s; with several,
    /// the final step runs an `intersect_count_*` twin (probe twin against the
    /// run's filter, bitmap twin for indexed hubs) against the shared prefix
    /// intersection.
    pub fn run_count_cols(&self, input: &ColBatch, ctx: &OpContext<'_>) -> ExtendCountOutput {
        debug_assert_eq!(input.arity(), self.arity);
        let op = &self.op;
        let (batch_table, fetch_time) = fetch_stage_cols(op, input, ctx);
        let ranges = intersect_ranges(input, ctx);
        let batch_table = &batch_table;
        let run = ctx.pool.run(ranges, |range, out: &mut Vec<u64>| {
            let mut count = 0u64;
            if let Some(vpos) = op.verify_position {
                for_each_verified_row(op, vpos, input, range, ctx, batch_table, |_| count += 1);
            } else {
                for_each_candidate_set(
                    self,
                    input,
                    range,
                    ctx,
                    batch_table,
                    |_, c, bound, tally| count += c.count(bound, tally),
                );
            }
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
}

/// [`ExtendSpec::run_cols`] for a caller that holds no operator (the perf
/// ledger's stage replay, tests): compiles `op` for this one batch.
///
/// # Panics
/// Panics where [`ExtendSpec::run_cols`] returns an error.
pub fn run_extend_cols(op: &ExtendOp, input: ColBatch, ctx: &OpContext<'_>) -> ExtendColsOutput {
    let spec = ExtendSpec::compile(op, input.arity());
    spec.run_cols(input, ctx)
        .expect("one batch's expansion is indexed in 32 bits")
}

/// [`ExtendSpec::run_count_cols`] for a caller that holds no operator.
pub fn run_extend_count_cols(
    op: &ExtendOp,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> ExtendCountOutput {
    ExtendSpec::compile(op, input.arity()).run_count_cols(input, ctx)
}

/// The row-major `PULL-EXTEND`: every list intersected for every row, every
/// candidate filtered on its own. Not part of the library — it is the
/// independent reference `tests::properties` holds the run-aware generator
/// to.
#[cfg(test)]
mod row_major {
    use super::*;

    /// Row-range work items for the worker pool.
    fn row_ranges(rows: usize) -> Vec<(usize, usize)> {
        let cuts = (0..rows).step_by(256);
        cuts.map(|start| (start, (start + 256).min(rows))).collect()
    }

    /// The result of running a `PULL-EXTEND` over one input batch.
    pub(super) struct ExtendOutput {
        /// The extended (or verified) rows.
        pub(super) batch: RowBatch,
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

    /// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one input batch.
    pub(super) fn run_extend(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendOutput {
        let out_arity = if op.verify_position.is_some() {
            input.arity()
        } else {
            input.arity() + 1
        };
        let (batch_table, _) = fetch_stage(op, input, ctx);

        // ---------------- intersect stage ----------------
        let ranges = row_ranges(input.len());
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
        for flat in run.outputs {
            let mut piece = RowBatch::from_flat(out_arity, flat);
            batch.append(&mut piece);
        }

        if ctx.use_cache {
            ctx.cache.release();
        }

        ExtendOutput { batch }
    }

    /// Runs the two-stage `PULL-EXTEND` over one input batch, *counting* the
    /// extensions instead of materialising them — the count-only sink fast path:
    /// the final output column (and the batch allocation behind it) is skipped
    /// entirely.
    pub(super) fn run_extend_count(
        op: &ExtendOp,
        input: &RowBatch,
        ctx: &OpContext<'_>,
    ) -> ExtendCountOutput {
        let (batch_table, fetch_time) = fetch_stage(op, input, ctx);
        let ranges = row_ranges(input.len());
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

        // Match mode: multiway intersection of the neighbourhoods (Equation 2),
        // smallest-degree list first so the accumulator starts minimal.
        exts.clear();
        exts.extend(op.ext_positions.iter().map(|&p| row[p]));
        exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
        intersect_ext_lists(exts, ctx, batch_table, scratch, tally);
        for &candidate in scratch.iter() {
            if candidate_passes(op, row, candidate) {
                sink.emit_extended(row, candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::row_major::{run_extend, run_extend_count};
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
    /// Embeddings of the 4-clique, no order filters: scan `(a, b)`, then
    /// `c ∈ N(a) ∩ N(b)`, then `d ∈ N(a) ∩ N(b) ∩ N(c)`.
    fn clique_steps() -> [ExtendOp; 2] {
        let step = |k: usize| ExtendOp {
            target: k as u8,
            ext_positions: (0..k).collect(),
            verify_position: None,
            filters: vec![],
            comm: CommMode::Pulling,
        };
        [step(2), step(3)]
    }

    /// Every directed edge of machine 0's partition as one columnar batch.
    fn all_edges(c: &OpContext<'_>) -> ColBatch {
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![],
        };
        let pool = ScanPool::new(c.partition.local_vertices(), 4);
        let mut cursor = ScanCursor::new(scan, pool);
        let mut all = ColBatch::new(2);
        while let Some(batch) = cursor.next_batch(c) {
            all.append(&mut ColBatch::from_rows(&batch));
        }
        all
    }

    /// The match-mode extends of every segment of `dataflow`, compiled.
    fn compiled(dataflow: &huge_plan::translate::Dataflow) -> Vec<Vec<ExtendSpec>> {
        let chain = |segment: &huge_plan::translate::Segment| {
            // Every chain here starts from a scan's two columns.
            let mut arity = 2;
            let specs = segment.extends.iter().map(|op| {
                let spec = ExtendSpec::compile(op, arity);
                arity = spec.output_arity();
                spec
            });
            let matching = specs.filter(|spec| spec.op.verify_position.is_none());
            matching.collect()
        };
        dataflow.segments.iter().map(chain).collect()
    }

    #[test]
    fn compile_keeps_only_positions_that_can_collide() {
        use huge_plan::cost::{CostModel, HybridEstimator};
        use huge_plan::optimizer::Optimizer;
        use huge_plan::translate::translate;
        use huge_query::Pattern;

        let wco = |pattern: Pattern| {
            let plan = huge_plan::baselines::huge_wco_plan(&pattern.query_graph()).unwrap();
            compiled(&translate(&plan).unwrap())
        };
        let graph = gen::barabasi_albert(5_000, 10, 7);
        let estimator = HybridEstimator::from_graph(&graph);
        let model = CostModel::new(10, graph.num_edges()).with_avg_degree(graph.avg_degree());
        let six_path = Pattern::paper(7).unwrap().query_graph();
        let plan = Optimizer::new(&estimator, model)
            .optimize(&six_path)
            .unwrap();
        let q7 = compiled(&translate(&plan).unwrap());

        let collide = |spec: &ExtendSpec| spec.collide.all(spec.arity - 1);
        let square = wco(Pattern::Square);
        assert_eq!(collide(square[0].last().unwrap()), []);
        let clique: Vec<_> = wco(Pattern::FourClique)[0].iter().map(collide).collect();
        assert_eq!(clique, [vec![], vec![]]);
        // (v4, v3, v5) extended by v2 ∈ N(v3): v2 may be v4 or v5.
        assert_eq!(q7.len(), 3, "two scan segments into a join");
        assert_eq!(collide(&q7[0][1]), [0, 2]);

        let mut chains = q7;
        for pattern in [
            Pattern::Triangle,
            Pattern::Square,
            Pattern::ChordalSquare,
            Pattern::FourClique,
            Pattern::House,
        ] {
            chains.extend(wco(pattern));
        }
        for spec in chains.iter().flatten() {
            let newest = spec.arity - 1;
            let mut ruled_out = spec.op.ext_positions.clone();
            ruled_out.extend(spec.lo_from.all(newest));
            ruled_out.extend(spec.hi_from.all(newest));
            for p in 0..spec.arity {
                assert_eq!(
                    spec.collide.all(newest).contains(&p),
                    !ruled_out.contains(&p),
                    "{spec:?} position {p}"
                );
            }
            // A gate is decided per run unless it reads the newest column.
            assert!(spec
                .run_gates
                .iter()
                .all(|&(s, l)| s != newest && l != newest));
            assert!(spec
                .row_gates
                .iter()
                .all(|&(s, l)| s == newest || l == newest));
        }
    }

    #[test]
    fn a_run_intersects_its_prefix_once() {
        // K6 on one machine: 120 rows (a, b, c) in 30 runs of equal (a, b).
        let g = gen::complete(6);
        let parts = Partitioner::new(1).unwrap().partition(g);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let [third, fourth] = clique_steps();
        let rows = run_extend_cols(&third, all_edges(&c), &c).batch;
        assert_eq!((rows.len(), rows.runs()), (120, 30));
        // Each (a, b) held once, each c once, 30 run ends.
        assert_eq!(rows.byte_size(), (2 * 30 + 120 + 30) * 4);
        let executed = |f: &dyn Fn() -> u64| {
            let before = rpc.stats().total();
            let count = f();
            let after = rpc.stats().total();
            (
                count,
                after.kernel_invocations() - before.kernel_invocations(),
                after.extend_rows - before.extend_rows,
                after.extend_prefix_reuses - before.extend_prefix_reuses,
                after.kernel_probe - before.kernel_probe,
            )
        };

        // Both sinks: N(a) ∩ N(b) once per run, the last step once per row
        // (a probe of N(c) against the run's filter) — not two
        // intersections per row.
        let counted = executed(&|| run_extend_count_cols(&fourth, &rows, &c).count);
        assert_eq!(counted, (360, 30 + 120, 120, 90, 120));
        let gathered = executed(&|| run_extend_cols(&fourth, rows.clone(), &c).batch.len() as u64);
        assert_eq!(gathered, counted);

        // Runs of length one (every row's prefix differs from the previous
        // row's) execute what a per-row intersection would, and no more.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| (rows.value(2, i), i));
        let mut scattered = ColBatch::new(3);
        let row_major = rows.to_rows();
        order
            .iter()
            .for_each(|&i| scattered.push_row(row_major.row(i)));
        let missed = executed(&|| run_extend_count_cols(&fourth, &scattered, &c).count);
        assert_eq!(missed, (360, 2 * 120, 120, 0, 120));

        // A filter among bound positions gates the whole row, a filter on
        // the new position narrows its candidates; the row-major reference
        // checks both per candidate.
        let filtered = ExtendOp {
            filters: vec![
                OrderFilter {
                    smaller: 2,
                    larger: 0,
                },
                OrderFilter {
                    smaller: 3,
                    larger: 1,
                },
            ],
            ..fourth.clone()
        };
        let reference = run_extend_count(&filtered, &rows.to_rows(), &c).count;
        assert!(reference > 0 && reference < 360);
        assert_eq!(run_extend_count_cols(&filtered, &rows, &c).count, reference);
        let gathered = run_extend_cols(&filtered, rows.clone(), &c).batch;
        assert_eq!(gathered.len() as u64, reference);
        assert!(gathered
            .to_rows()
            .rows()
            .all(|r| r[2] < r[0] && r[3] < r[1]));

        // A one-list extend has no prefix: no intersection, nothing reused.
        let path = ExtendOp {
            target: 3,
            ext_positions: vec![1],
            verify_position: None,
            filters: vec![],
            comm: CommMode::Pulling,
        };
        let one_list = executed(&|| run_extend_count_cols(&path, &rows, &c).count);
        assert_eq!(one_list, (360, 0, 120, 0, 0));
    }

    #[test]
    fn an_expansion_past_32_bit_rows_is_a_typed_error() {
        let max = u32::MAX as usize;
        assert_eq!(run_ends_of([3, 0, max - 3]).unwrap(), [3, 3, u32::MAX]);
        match run_ends_of([max, 1]) {
            Err(EngineError::BatchTooLarge(rows)) => assert_eq!(rows, 1 << 32),
            other => panic!("expected BatchTooLarge, got {other:?}"),
        }
        // Never a wrapped index: 2³² + 4 truncates to a plausible 4.
        assert!(run_ends_of([max, max, 6]).is_err());
        assert!(run_ends_of([max + 1]).is_err());
    }

    /// `graph` plus `leaves` new vertices under two hubs: vertex 0
    /// reaches every leaf, so its list straddles
    /// [`kernels::PROBE_MAX_SET`] (4080 or 4100 leaves, plus its own few
    /// neighbours) and a filter over it is built or refused; the highest
    /// id reaches every 16th leaf, a list past
    /// [`kernels::PROBE_MAX_SKEW`] × a leaf's two or three neighbours.
    fn with_hubs(graph: huge_graph::Graph, leaves: usize) -> huge_graph::Graph {
        if leaves == 0 {
            return graph;
        }
        let n = graph.num_vertices() as VertexId;
        let top = n + leaves as VertexId;
        let mut edges: Vec<(VertexId, VertexId)> = graph
            .vertices()
            .flat_map(|u| graph.neighbours(u).iter().map(move |&v| (u, v)))
            .collect();
        edges.extend((n..top).map(|leaf| (0, leaf)));
        edges.extend((n..top).step_by(16).map(|leaf| (top, leaf)));
        huge_graph::Graph::from_edges(edges)
    }

    #[test]
    fn moving_bounds_set_the_filter_at_most_twice_a_run() {
        // One run — every edge (0, v) of hub 0, v ascending — extended by
        // `w ∈ N(0) ∩ N(v), w < v`: the range's upper end moves with every
        // row, so each row's slice of N(0) reaches outside the one before.
        let op = ExtendOp {
            target: 2,
            ext_positions: vec![0, 1],
            verify_position: None,
            filters: vec![OrderFilter {
                smaller: 2,
                larger: 1,
            }],
            comm: CommMode::Pulling,
        };
        for (leaves, fits) in [(4080, true), (4100, false)] {
            let g = with_hubs(gen::erdos_renyi(12, 30, 7), leaves);
            let parts = Partitioner::new(1).unwrap().partition(g);
            let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
            let mut c = ctx(0, &parts, &rpc, &cache, &pool);
            c.batch_size = 8192;
            let hub = parts[0].local_neighbours(0);
            assert_eq!(hub.len() <= kernels::PROBE_MAX_SET, fits);
            let rows = ColBatch::from_columns(vec![vec![0; hub.len()], hub.to_vec()]);

            let reference = run_extend_count(&op, &rows.to_rows(), &c).count;
            assert!(reference > 0);
            let before = rpc.stats().total();
            assert_eq!(run_extend_count_cols(&op, &rows, &c).count, reference);
            let ran = rpc.stats().total();
            let probes = ran.kernel_probe - before.kernel_probe;
            let calls = ran.kernel_invocations() - before.kernel_invocations();
            // Each work item starts the run over: its first slice is set,
            // its next row widens the filter to all of N(0) — which either
            // fits, and serves every later row, or is refused, and the rest
            // of the run goes unfiltered.
            let items = intersect_ranges(&rows, &c).len() as u64;
            assert!(items > 1 && calls > 2 * items);
            if fits {
                assert_eq!(probes, calls);
            } else {
                assert!((1..=items).contains(&probes), "{probes} of {calls}");
            }
            assert_eq!(run_extend_cols(&op, rows, &c).batch.len() as u64, reference);
        }
    }

    mod properties {
        use super::*;
        use huge_cache::CacheKind;
        use huge_plan::translate::{translate, SegmentSource};
        use huge_query::{naive, Pattern};
        use proptest::prelude::*;

        /// How the dense chain's input batches are rearranged before the
        /// extend sees them; none of it may change the answer.
        #[derive(Clone, Copy, Debug)]
        enum Shape {
            /// The rows as produced, flattened: runs only the key comparison
            /// can find, one work item per 256 rows.
            Plain,
            /// Every row followed by a junk row the selection vector skips.
            Selected,
            /// Runs split across batches of this many rows.
            Chunked(usize),
            /// Seeded shuffle: (almost) every row starts a new run.
            Shuffled(u64),
        }

        /// Dense batches holding the rows of `batch`, rearranged.
        fn reshape(batch: &ColBatch, shape: Shape) -> Vec<ColBatch> {
            let arity = batch.arity();
            let rows = batch.to_rows();
            match shape {
                Shape::Plain => vec![ColBatch::from_rows(&rows)],
                Shape::Chunked(n) => ColBatch::from_rows(&rows).split_into_chunks(n),
                Shape::Selected => {
                    let mut padded = ColBatch::new(arity);
                    for row in rows.rows() {
                        padded.push_row(row);
                        padded.push_row(&vec![row[0]; arity]);
                    }
                    padded.set_selection((0..rows.len() as u32).map(|i| 2 * i).collect());
                    vec![padded]
                }
                Shape::Shuffled(seed) => {
                    let mut order: Vec<usize> = (0..rows.len()).collect();
                    let mut state = seed | 1;
                    for i in (1..order.len()).rev() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        order.swap(i, (state % (i as u64 + 1)) as usize);
                    }
                    let mut shuffled = ColBatch::new(arity);
                    order.iter().for_each(|&i| shuffled.push_row(rows.row(i)));
                    vec![shuffled]
                }
            }
        }

        fn arb_shape() -> impl Strategy<Value = Shape> {
            prop_oneof![
                Just(Shape::Plain),
                Just(Shape::Selected),
                (1usize..9).prop_map(Shape::Chunked),
                (0u64..1 << 32).prop_map(Shape::Shuffled),
            ]
        }

        /// The run chain hands an extend's run batches on whole (`None`) or
        /// re-chunked the way the machine re-chunks them: at one row (every
        /// run cut to pieces), at seven, and at the batch size.
        fn arb_rechunk() -> impl Strategy<Value = Option<usize>> {
            prop_oneof![Just(None), Just(Some(1)), Just(Some(7)), Just(Some(1024))]
        }

        fn rechunk(batch: ColBatch, rows: Option<usize>) -> Vec<ColBatch> {
            match rows {
                None => vec![batch],
                Some(n) => batch.split_into_chunks(n),
            }
        }

        /// The rows of `batches`, sorted.
        fn sorted_rows<'a>(batches: impl IntoIterator<Item = &'a RowBatch>) -> Vec<Vec<VertexId>> {
            let rows = batches.into_iter().flat_map(|b| b.rows());
            let mut rows: Vec<Vec<VertexId>> = rows.map(<[VertexId]>::to_vec).collect();
            rows.sort_unstable();
            rows
        }

        /// `None` runs without a cache (per-batch table); the LRU variants
        /// get a capacity of one entry per shard, so sealed-looking entries
        /// are gone by the intersect stage and the fallback pull runs.
        fn arb_lists() -> impl Strategy<Value = Option<(CacheKind, u64)>> {
            prop_oneof![
                Just(Some((CacheKind::Lrbu, 1 << 20))),
                Just(None),
                Just(Some((CacheKind::ConcurrentLru, 8))),
                Just(Some((CacheKind::LruInfinite, 0))),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Three implementations agree with the sequential enumerator on
            /// every pure-extend chain, wherever the lists come from: the
            /// row-major reference; the generator over dense batches, however
            /// the rows reach it; and the run chain — scan runs into extend
            /// 1, extend *i*'s run output whole or re-chunked into extend
            /// *i + 1*, both sinks. Along the run chain every stage's output
            /// also goes through a verify-mode extend (which leaves empty
            /// runs behind), and what survives through the last extend.
            #[test]
            fn both_sinks_match_the_row_major_reference_and_naive(
                n in 8usize..36,
                density in 2usize..7,
                seed in 0u64..1 << 32,
                pattern in prop_oneof![
                    Just(Pattern::Triangle),
                    Just(Pattern::Square),
                    Just(Pattern::ChordalSquare),
                    Just(Pattern::FourClique),
                    Just(Pattern::FiveClique),
                    Just(Pattern::House),
                ],
                k in 1usize..4,
                hub_threshold in prop_oneof![Just(0usize), Just(4usize), Just(9usize)],
                shape in arb_shape(),
                cut in arb_rechunk(),
                lists in arb_lists(),
                leaves in prop_oneof![Just(0usize), Just(0usize), Just(4080usize), Just(4100usize)],
            ) {
                // Square-like patterns would enumerate leaf² paths through a hub.
                let clique_like = !matches!(pattern, Pattern::Square | Pattern::House);
                let graph = with_hubs(gen::erdos_renyi(n, n * density, seed), leaves * clique_like as usize);
                let query = pattern.query_graph();
                let expected = naive::enumerate(&graph, &query);
                let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
                let dataflow = translate(&plan).unwrap();
                prop_assert_eq!(dataflow.segments.len(), 1);
                let segment = dataflow.root();
                let SegmentSource::Scan(scan) = &segment.source else {
                    panic!("a worst-case-optimal plan starts from a scan");
                };
                let last = segment.extends.last().unwrap();
                // Keeps the rows whose first vertex is adjacent to, and
                // smaller than, the newest.
                let verify = |arity: usize| ExtendOp {
                    target: 0,
                    ext_positions: vec![arity - 1],
                    verify_position: Some(0),
                    filters: vec![OrderFilter { smaller: 0, larger: arity - 1 }],
                    comm: CommMode::Pulling,
                };

                let mut parts = Partitioner::new(k).unwrap().partition(graph);
                parts.iter_mut().for_each(|p| p.build_hub_index(hub_threshold));
                let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(k));
                let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
                let (mut counted, mut gathered, mut reference) = ([0, 0], [0, 0], 0);
                let (mut verified, mut verified_reference) = ([0, 0], 0);
                for m in 0..k {
                    let (kind, bytes) = lists.unwrap_or((CacheKind::Lrbu, 0));
                    let cache = kind.build(bytes);
                    let mut c = ctx(m, &parts, &rpc, cache.as_ref(), &pool);
                    c.use_cache = lists.is_some();
                    let vertices = || ScanPool::new(parts[m].local_vertices(), 8);
                    let mut cursor = ScanCursor::new(scan.clone(), vertices());
                    let mut rows: Vec<RowBatch> = Vec::new();
                    while let Some(batch) = cursor.next_batch(&c) {
                        rows.push(batch);
                    }
                    let mut dense: Vec<ColBatch> = rows.iter().map(ColBatch::from_rows).collect();
                    let mut source = ScanCursor::new(scan.clone(), vertices());
                    let mut runs: Vec<ColBatch> = Vec::new();
                    while let Some(batch) = source.next_runs(&c) {
                        prop_assert!(batch.run_ends().is_some());
                        runs.push(batch);
                    }
                    prop_assert_eq!(sorted_rows(&rows), sorted_rows(&runs.iter().map(ColBatch::to_rows).collect::<Vec<_>>()));

                    let mut arity = 2;
                    for (stage, op) in segment.extends.iter().enumerate() {
                        // What the verify-mode extend keeps of this stage's
                        // input, by shape of the input: rows and count.
                        let keep = verify(arity);
                        let kept_reference: Vec<RowBatch> =
                            rows.iter().map(|b| run_extend(&keep, b, &c).batch).collect();
                        let mut kept_runs = Vec::new();
                        let mut kept_count = 0;
                        for batch in runs.iter().flat_map(|b| rechunk(b.clone(), cut)) {
                            let had_runs = batch.run_ends().map(<[u32]>::len);
                            kept_count += run_extend_count_cols(&keep, &batch, &c).count;
                            let kept = run_extend_cols(&keep, batch, &c).batch;
                            // Runs in, runs out: only the newest column and
                            // the ends were rewritten.
                            prop_assert_eq!(kept.run_ends().map(<[u32]>::len), had_runs);
                            prop_assert_eq!(kept.selection(), None);
                            kept_runs.push(kept);
                        }
                        let kept_rows: Vec<RowBatch> = kept_runs.iter().map(ColBatch::to_rows).collect();
                        prop_assert_eq!(sorted_rows(&kept_rows), sorted_rows(&kept_reference));
                        prop_assert_eq!(kept_count as usize, kept_rows.iter().map(RowBatch::len).sum::<usize>());

                        if stage + 1 < segment.extends.len() {
                            let inputs = dense.iter().flat_map(|b| reshape(b, shape));
                            dense = inputs.map(|b| run_extend_cols(op, b, &c).batch).collect();
                            let inputs = runs.into_iter().flat_map(|b| rechunk(b, cut));
                            runs = inputs.map(|b| run_extend_cols(op, b, &c).batch).collect();
                            prop_assert!(runs.iter().all(|b| b.run_ends().is_some()));
                            rows = rows.iter().map(|b| run_extend(op, b, &c).batch).collect();
                            arity += 1;
                            continue;
                        }
                        let chains = [
                            dense.iter().flat_map(|b| reshape(b, shape)).collect::<Vec<_>>(),
                            runs.iter().flat_map(|b| rechunk(b.clone(), cut)).collect(),
                        ];
                        for (chain, batches) in chains.into_iter().enumerate() {
                            for batch in batches {
                                counted[chain] += run_extend_count_cols(last, &batch, &c).count;
                                gathered[chain] += run_extend_cols(last, batch, &c).batch.len() as u64;
                            }
                        }
                        for batch in &rows {
                            reference += run_extend_count(last, batch, &c).count;
                        }
                        // The verified runs — some now empty — through the
                        // last extend's both sinks.
                        for batch in kept_runs {
                            verified[0] += run_extend_count_cols(last, &batch, &c).count;
                            verified[1] += run_extend_cols(last, batch, &c).batch.len() as u64;
                        }
                        for batch in &kept_reference {
                            verified_reference += run_extend_count(last, batch, &c).count;
                        }
                    }
                }
                prop_assert_eq!(counted, [expected; 2]);
                prop_assert_eq!(gathered, [expected; 2]);
                prop_assert_eq!(reference, expected);
                prop_assert_eq!(verified, [verified_reference; 2]);
            }
        }
    }
}
