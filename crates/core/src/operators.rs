//! Operator implementations: `SCAN` ([`ScanCursor`]) and `PULL-EXTEND`
//! ([`ExtendSpec`]). `PUSH-JOIN` lives in [`crate::join`]; the `SINK` is the
//! segment terminal in [`crate::machine`], whose chain calls these operators
//! directly: [`ScanCursor::next_runs`] and [`nest`], the one extend engine.
//! A chain's extends, match or verify mode in any order, are the levels of
//! one *nest*: it runs its head over a queued batch and every level below
//! depth-first, a worker-local piece of at most `batch_size` rows at a time
//! (a verify level passes each surviving row on unchanged), and its last
//! level counts or gathers full pieces into the terminal queue as run
//! batches: at most depth × `batch_size` rows per worker, none of them
//! queued. Once it finds the terminal queue full a gathering nest stops,
//! and each level leaves what it has not taken in its own queue.
//!
//! The **fetch stage** of Algorithm 4 makes one cache call per distinct
//! remote vertex of a batch and returns the batch's *list view* (vertex →
//! shared list handle); a small filter of the ids it has just collected
//! keeps most repeats of a vertex out of its sort + dedup. It asks for each
//! list only the interval of ids the batch's rows can read — the union of
//! their order bounds, as the generator derives them — so a pull, and a
//! cache entry, holds that part alone. The **intersect stage** reads the
//! local partition or the view, never the cache: no lock, and no release or
//! eviction anywhere can take a list from under it.
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
//! A run's shared intersection is computed once per run (and reused while
//! the next run's prefix vertices are the same), cut to the order bounds
//! those vertices fix, and held in a [`ProbeFilter`]; each row slices it to
//! its range and only scans its own newest list against it. The
//! key comparison reads vertex ids, nothing else, so it cannot be wrong for
//! any order of runs — shuffled, split or stolen batches only recompute
//! more. Both sinks run the same kernel walk per row
//! (`Candidates::each`): the counting one counts its hits, the materialising
//! one appends them straight into the new column. Verify mode is a per-row
//! membership test of its own and shares the fetch stage. A row-major
//! `run_extend` / `run_extend_count` that intersects every
//! list for every row and filters per candidate lives in the test-only
//! `row_major` module: the reference the tests hold the generator to.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use huge_cache::ListHandle;
use huge_comm::{ColBatch, RowBatch};
use huge_graph::kernels::{self, KernelKind, KernelTally, ProbeFilter};
use huge_graph::{Interval, VertexId, VertexMap};
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use parking_lot::Mutex;

use crate::cancel::CancelToken;
pub use crate::exec::OpContext;
use crate::scheduler::SharedQueue;

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
    chunks: Arc<Mutex<VecDeque<Vec<VertexId>>>>,
}

impl ScanPool {
    /// Splits a vertex list into chunks of `chunk_size` and builds the pool.
    pub fn new(vertices: &[VertexId], chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        let chunks = vertices
            .chunks(chunk_size)
            .map(|c| c.to_vec())
            .collect::<VecDeque<_>>();
        ScanPool {
            chunks: Arc::new(Mutex::new(chunks)),
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
}

/// The `SCAN` cursor: produces batches of `[f(src), f(dst)]` rows from the
/// machine's (possibly stolen) vertex chunks.
pub struct ScanCursor {
    op: ScanOp,
    pool: ScanPool,
    /// Rows carried over when a vertex's edges overflow a batch, oldest
    /// first.
    pending: VecDeque<[VertexId; 2]>,
}

impl ScanCursor {
    /// Creates a cursor over a scan pool.
    pub fn new(op: ScanOp, pool: ScanPool) -> Self {
        ScanCursor {
            op,
            pool,
            pending: VecDeque::new(),
        }
    }

    /// `true` if more batches may be produced.
    pub fn has_more(&self) -> bool {
        !self.pending.is_empty() || !self.pool.is_empty()
    }

    /// Produces the next batch of at most `ctx.batch_size` rows, or `None`
    /// when the scan is exhausted.
    ///
    /// The expansion of a chunk's vertices into edge rows runs on the
    /// machine's persistent worker pool (split into per-worker ranges), like
    /// `PULL-EXTEND`'s intersect stage; the pool charges its busy time to
    /// the workers that ran it.
    pub fn next_batch(&mut self, ctx: &OpContext<'_>) -> Option<RowBatch> {
        let target_rows = ctx.batch_size;
        let mut batch = RowBatch::with_capacity(2, target_rows.min(64 * 1024));
        // First drain carried-over rows, in the order they were cut off.
        let carried = self.pending.len().min(target_rows);
        (self.pending.drain(..carried)).for_each(|row| batch.push_row(&row));
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
                        self.pending.push_back([pair[0], pair[1]]);
                    }
                }
            }
        }
        (!batch.is_empty()).then_some(batch)
    }

    /// [`ScanCursor::next_batch`] as a chain consumes it: one run batch of
    /// `[src, dst]` columns with its column bytes charged to the machine. The
    /// cursor emits a vertex's edges consecutively, so `src` is stored once
    /// per vertex and the first extend reads its runs like any later one.
    /// `None` while the pool is empty (stealing may refill it).
    pub fn next_runs(&mut self, ctx: &OpContext<'_>) -> Option<ColBatch> {
        let batch = self.next_batch(ctx)?;
        let (edges, _) = batch.as_flat().as_chunks::<2>();
        let (mut src, mut ends) = (Vec::new(), Vec::new());
        for vertex in edges.chunk_by(|a, b| a[0] == b[0]) {
            src.push(vertex[0][0]);
            // `batch_size` rows at most, far below 32 bits.
            ends.push(ends.last().copied().unwrap_or(0) + vertex.len() as u32);
        }
        let dst = edges.iter().map(|edge| edge[1]).collect();
        Some(ColBatch::from_runs(vec![src, dst], ends))
    }
}

// ---------------------------------------------------------------------------
// PULL-EXTEND
// ---------------------------------------------------------------------------

/// What one [`nest`] call did.
pub struct ExtendOutput {
    /// The gathered rows as one run batch ([`run_extend_cols`]); empty for
    /// a nest that counts or gathers into queues.
    pub batch: ColBatch,
    /// Rows the last level counted or gathered.
    pub count: u64,
    /// Time spent in the fetch stages (RPCs + cache writes + sealing).
    pub fetch_time: Duration,
    /// Busy time of each level of the nest, summed over its workers; the
    /// head's includes its fetch stage.
    pub busy: Vec<Duration>,
}

/// Where a gathering [`nest`] puts rows: `.1` takes the gathered rows, and
/// `.0[l]` what level `l` of the call leaves of its input once `.1` is full.
pub type Gather<'q> = (&'q [SharedQueue], &'q SharedQueue);

/// A batch's list view: for every remote list its extend positions
/// reference, the handle the fetch stage resolved — it holds at least the
/// interval the batch asked for — and that interval.
type ListView = VertexMap<(ListHandle, Interval)>;

/// A remote list a fetch stage found missing or too narrow in the cache:
/// the vertex, the interval the batch reads of its list, and the entry's
/// handle and interval if it has one.
type Miss = (VertexId, Interval, Option<(ListHandle, Interval)>);

/// Resolves a collected list of remote reads — a vertex and the interval of
/// its list that rows read, a vertex's repeats merged here — into the
/// batch's view. One cache call per distinct vertex seals it and takes its
/// handle; an entry that does not hold the interval is a miss, as is an
/// absent one. A miss pulls the ids its entry lacks — the interval, or what
/// lies between it and the held one and outside the latter — and the list
/// is inserted or widened sealed (straight into the view with the cache
/// off). Shared tail of both fetch-stage layouts.
fn resolve_remote(mut remote: Vec<(VertexId, Interval)>, ctx: &OpContext<'_>) -> ListView {
    remote.sort_unstable_by_key(|&(v, _)| v);
    remote.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.hull(next.1);
        }
        same
    });
    let mut view = ListView::with_capacity_and_hasher(remote.len(), Default::default());
    let mut misses: Vec<Miss> = Vec::new();
    if ctx.use_cache {
        for (v, asked) in remote {
            match ctx.cache.acquire(v) {
                Some((list, held)) if held.contains(asked) => {
                    view.insert(v, (list, asked));
                }
                held => misses.push((v, asked, held)),
            }
        }
        // This is where a lookup hits or misses: the intersect stage reads
        // the view and cannot miss.
        (ctx.cache).record_lookups(view.len() as u64, misses.len() as u64);
    } else {
        misses.extend(remote.into_iter().map(|(v, asked)| (v, asked, None)));
    }
    // The parts a miss pulls: below and above what its entry holds.
    let lacks = |&(_, asked, ref held): &Miss| match held {
        Some((_, held)) => asked.hull(*held).outside(*held),
        None => [asked, Interval::EMPTY],
    };
    let requests: Vec<(VertexId, Interval)> = (misses.iter())
        .flat_map(|miss| lacks(miss).map(|part| (miss.0, part)))
        .filter(|(_, part)| !part.is_empty())
        .collect();
    let mut pulled = ctx.rpc.get_shared_nbrs(ctx.machine, &requests).into_iter();
    for miss in misses {
        let [below, above] = lacks(&miss).map(|part| match part.is_empty() {
            true => None,
            false => pulled.next(),
        });
        let (v, asked, held) = miss;
        let (list, holds) = match held {
            Some((held, holds)) => {
                let (below, above) = (
                    below.as_deref().unwrap_or(&[]),
                    above.as_deref().unwrap_or(&[]),
                );
                let list: ListHandle = below
                    .iter()
                    .chain(&held[..])
                    .chain(above)
                    .copied()
                    .collect();
                (list, asked.hull(holds))
            }
            None => (below.expect("a pulled list"), asked),
        };
        let list = match ctx.use_cache {
            true => ctx.cache.insert_sealed(v, holds, list),
            false => list,
        };
        view.insert(v, (list, asked));
    }
    view
}

/// Whether `view` holds `interval` of the list of every remote vertex of
/// `vs`: what the fetch stage must have asked for a row that reads
/// `interval` of their lists.
fn fetched(
    ctx: &OpContext<'_>,
    view: &ListView,
    mut vs: impl Iterator<Item = VertexId>,
    interval: Interval,
) -> bool {
    let holds = |v| {
        view.get(&v)
            .is_some_and(|&(_, asked)| asked.contains(interval))
    };
    interval.is_empty() || vs.all(|v| ctx.partition.is_local(v) || holds(v))
}

/// log₂ of the number of slots in a [`Seen`] filter.
const SEEN_BITS: u32 = 10;

/// A direct-mapped filter of the remote reads a fetch stage collected last:
/// a slot holds one vertex and the hull of the intervals its list was read
/// at since it took the slot. A repeat widens the slot; a vertex that takes
/// a slot pushes what the slot held. 16 KiB on the stack at any graph
/// scale. A slot starts at `u64::MAX`, which no id widens to, so no id
/// (`VertexId::MAX` included) is taken for an empty slot.
struct Seen([(u64, Interval); 1 << SEEN_BITS]);

impl Seen {
    fn new() -> Seen {
        Seen([(u64::MAX, Interval::EMPTY); 1 << SEEN_BITS])
    }

    /// The slot of `v`: the top bits of a multiplicative hash.
    fn slot(v: VertexId) -> usize {
        (v.wrapping_mul(0x9E37_79B1) >> (32 - SEEN_BITS)) as usize
    }

    /// Notes that a row reads `interval` of `v`'s list: widens `v`'s slot
    /// if it holds `v`, else pushes the slot's vertex and interval to
    /// `remote` and gives the slot to `v`.
    #[inline]
    fn note(&mut self, v: VertexId, interval: Interval, remote: &mut Vec<(VertexId, Interval)>) {
        let slot = &mut self.0[Self::slot(v)];
        if slot.0 == u64::from(v) {
            slot.1 = slot.1.hull(interval);
            return;
        }
        if slot.0 != u64::MAX {
            // Only ids are ever stored.
            remote.push((slot.0 as VertexId, slot.1));
        }
        *slot = (u64::from(v), interval);
    }

    /// Pushes every vertex the filter holds, with its interval, to `remote`.
    fn drain(&self, remote: &mut Vec<(VertexId, Interval)>) {
        let held = self.0.iter().filter(|&&(v, _)| v != u64::MAX);
        remote.extend(held.map(|&(v, interval)| (v as VertexId, interval)));
    }
}

/// The fetch stage of Algorithm 4: pulls (or seals in the cache) the part of
/// every remote adjacency list the batch's extend positions reference that
/// its rows can read, and returns the batch's list view and the stage
/// duration.
///
/// A row reads the ids its order bounds allow — in match mode the
/// candidate's range, derived as the generator derives it (the same
/// [`ExtendSpec::run_bounds`] and [`ExtendSpec::row_bounds`]); in verify
/// mode its target alone. A run asks each list it references for the hull of
/// what its rows read: a run gate that fails it asks nothing, and where what
/// a row reads does not move with the newest column (every extend with no
/// order bound on its candidate reads whole lists) the run derives it once;
/// otherwise from its least and greatest newest values. Each extend
/// position is read once per run — once per row only for the newest column,
/// or when every row is its own run. Reads pass through a [`Seen`] filter,
/// so few of a batch's repeats of a vertex reach [`resolve_remote`]'s sort +
/// dedup. The filter may forget an id, never invent one: every list is still
/// looked up once.
fn fetch_stage_cols(
    spec: &ExtendSpec,
    input: &ColBatch,
    ctx: &OpContext<'_>,
) -> (ListView, Duration) {
    let fetch_start = Instant::now();
    let newest = input.arity() - 1;
    let exts = &spec.op.ext_positions;
    let (by_row, by_run) = (
        exts.contains(&newest),
        exts.iter().filter(|&&p| p != newest),
    );
    let (moves, newest_col) = (spec.reads_move(), input.column(newest));
    let (mut remote, mut seen) = (Vec::new(), Seen::new());
    for r in 0..input.runs() {
        let rows = &newest_col[input.run_rows(r)];
        let run = |c: usize| input.column(c)[r];
        let Some(bounds) = spec.run_bounds(run).filter(|_| !rows.is_empty()) else {
            continue;
        };
        let reads = |x: VertexId| {
            let at = |c: usize| if c == newest { x } else { run(c) };
            spec.reads(spec.row_bounds(bounds, x), at)
        };
        // What a row reads lies above its newest value, below it, or is it,
        // so the rows with the least and the greatest span every row's.
        let hull = match moves {
            true => {
                let (least, most) = (rows.iter()).fold((VertexId::MAX, 0), |(least, most), &x| {
                    (least.min(x), most.max(x))
                });
                reads(least).hull(reads(most))
            }
            false => reads(rows[0]),
        };
        if hull.is_empty() {
            continue;
        }
        let mut note = |v| {
            if !ctx.partition.is_local(v) {
                seen.note(v, hull, &mut remote);
            }
        };
        by_run.clone().for_each(|&p| note(run(p)));
        if by_row {
            rows.iter().for_each(|&x| note(x));
        }
    }
    seen.drain(&mut remote);
    let view = resolve_remote(remote, ctx);
    (view, fetch_start.elapsed())
}

/// Unseals what a fetch stage sealed (Algorithm 3's end of a batch); the
/// view keeps its handles, so this is safe while any batch is mid-intersect.
fn release(ctx: &OpContext<'_>) {
    if ctx.use_cache {
        ctx.cache.release();
    }
}

/// Splits the runs of `input` into work items `(first run, one past the
/// last)` of about the same number of rows. Items are cut on run boundaries
/// only, so a run's shared intersection and its filter are never computed
/// twice within a batch.
fn intersect_ranges(input: &ColBatch, ctx: &OpContext<'_>) -> Vec<(usize, usize)> {
    let target = (input.len() / (ctx.pool.workers() * 4).max(1)).max(256);
    let (runs, mut items, mut first) = (input.runs(), Vec::new(), 0);
    for run in 0..runs {
        // Through the run that brings the item to `target` rows, or the last.
        let rows = input.run_rows(run).end - input.run_rows(first).start;
        if rows >= target || run + 1 == runs {
            items.push((first, run + 1));
            first = run + 1;
        }
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
/// first) into `acc`, keeping only the ids strictly between `lo` and `hi`:
/// each list is cut to that range before it is copied or intersected, so no
/// step reads ids the caller would slice away. Every step writes `acc ∩
/// list` into `spare` — the caller's, one per work item — and swaps the two;
/// it walks through the adaptive kernel family: hub bitmaps for indexed
/// high-degree vertices (the accumulator is already cut), galloping under
/// cardinality skew, branch-light merge otherwise. A missing list (a vertex
/// its owner does not know) clears the accumulator — no candidates.
fn intersect_ext_lists(
    exts: &[VertexId],
    (lo, hi): (Option<VertexId>, Option<VertexId>),
    ctx: &OpContext<'_>,
    view: &ListView,
    (acc, spare): (&mut Vec<VertexId>, &mut Vec<VertexId>),
    tally: &mut KernelTally,
) {
    acc.clear();
    let Some((&first, rest)) = exts.split_first() else {
        return;
    };
    let nbrs = neighbours(ctx, view, first).unwrap_or_default();
    acc.extend_from_slice(&nbrs[range_of(nbrs, lo, hi)]);
    for &v in rest {
        if acc.is_empty() {
            break;
        }
        spare.clear();
        let hit = |x| spare.push(x);
        let kind = if let Some(bm) = ctx.partition.hub_bitmap(v) {
            kernels::bitmap(acc, bm, hit);
            KernelKind::Bitmap
        } else if let Some(nbrs) = neighbours(ctx, view, v) {
            kernels::intersect(acc, &nbrs[range_of(nbrs, lo, hi)], hit)
        } else {
            acc.clear();
            break;
        };
        tally.bump(kind);
        std::mem::swap(acc, spare);
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
    view: &ListView,
) -> bool {
    let target = row[vpos];
    if !passes_filters(row, &op.filters) {
        return false;
    }
    let exts = || op.ext_positions.iter().map(|&pos| row[pos]);
    debug_assert!(
        fetched(ctx, view, exts(), Interval::point(target)),
        "a verified row's target lies outside the interval fetched for it"
    );
    exts().all(|v| neighbours(ctx, view, v).is_some_and(|nbrs| nbrs.binary_search(&target).is_ok()))
}

/// The adjacency list of `v`: the local partition's slice, else the batch
/// view's. `None` only for a remote vertex the fetch stage did not resolve.
#[inline]
fn neighbours<'v>(ctx: &OpContext<'v>, view: &'v ListView, v: VertexId) -> Option<&'v [VertexId]> {
    let partition = ctx.partition;
    match partition.is_local(v) {
        true => Some(partition.local_neighbours(v)),
        false => view.get(&v).map(|(list, _)| &list[..]),
    }
}

// ---------------------------------------------------------------------------
// Columnar PULL-EXTEND
// ---------------------------------------------------------------------------

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
}

/// The bounds on a candidate, each strict; `None` leaves a side unbounded.
type Bounds = (Option<VertexId>, Option<VertexId>);

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
    /// The bounds the prefix vertices set the candidate themselves, as
    /// indices into `prefix`: above every `key_lo` one, under every `key_hi`.
    key_lo: Vec<usize>,
    key_hi: Vec<usize>,
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
        let prefix: Vec<usize> = exts.iter().copied().filter(|&p| Some(p) != last).collect();
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
        let at = |p: &usize| prefix.iter().position(|q| q == p);
        let in_prefix = |from: &[usize]| from.iter().filter_map(at).collect();
        ExtendSpec {
            op: op.clone(),
            arity,
            last,
            key_lo: in_prefix(&lo_from),
            key_hi: in_prefix(&hi_from),
            prefix,
            run_gates,
            row_gates,
            collide: Reads::of(collide, newest),
            lo_from: Reads::of(lo_from, newest),
            hi_from: Reads::of(hi_from, newest),
        }
    }

    /// The range `key` (the prefix vertices) fixes alone, as it fixes `shared`.
    fn key_bounds(&self, key: &[VertexId]) -> Bounds {
        let lo = self.key_lo.iter().map(|&i| key[i]).max();
        (lo, self.key_hi.iter().map(|&i| key[i]).min())
    }

    /// What a run fixes for every row of it, from its per-run columns
    /// (`run(c)`): `None` when a run gate fails it, else the bounds those
    /// columns set the candidate.
    #[inline]
    fn run_bounds(&self, run: impl Fn(usize) -> VertexId) -> Option<Bounds> {
        if self.run_gates.iter().any(|&(s, l)| run(s) >= run(l)) {
            return None;
        }
        let lo = self.lo_from.run.iter().map(|&c| run(c)).max();
        Some((lo, self.hi_from.run.iter().map(|&c| run(c)).min()))
    }

    /// Whether the row whose values are `at(c)` passes the row gates.
    #[inline]
    fn row_passes(&self, at: impl Fn(usize) -> VertexId) -> bool {
        self.row_gates.iter().all(|&(s, l)| at(s) < at(l))
    }

    /// A row's bounds on the candidate, from its run's `bounds` and its
    /// newest value `x`.
    #[inline]
    fn row_bounds(&self, (lo, hi): Bounds, x: VertexId) -> Bounds {
        let lo = lo.max(self.lo_from.newest.then_some(x));
        let hi = match self.hi_from.newest {
            true => Some(hi.map_or(x, |h| h.min(x))),
            false => hi,
        };
        (lo, hi)
    }

    /// The ids of its extend positions' lists a row with these `bounds` and
    /// values (`at(c)`) reads: the candidate's range in match mode, the
    /// target alone in verify mode.
    #[inline]
    fn reads(&self, (lo, hi): Bounds, at: impl Fn(usize) -> VertexId) -> Interval {
        match self.op.verify_position {
            Some(vpos) => Interval::point(at(vpos)),
            None => Interval::between(lo, hi),
        }
    }

    /// Whether what a row reads moves with its newest value; if not, every
    /// row of a run reads the same ids.
    fn reads_move(&self) -> bool {
        let newest = self.arity - 1;
        self.lo_from.newest || self.hi_from.newest || self.op.verify_position == Some(newest)
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
    /// The one walk both sinks share: calls `hit` with every candidate,
    /// ascending, through the kernel the variant names, and tallies it.
    #[inline]
    fn each(self, tally: &mut KernelTally, hit: impl FnMut(VertexId)) {
        let kind = match self {
            Candidates::Slice(s) => return s.iter().copied().for_each(hit),
            Candidates::Lists(s, nb) => kernels::intersect(s, nb, hit),
            Candidates::Probe(filter, s, nb) => {
                kernels::probe(filter, s, nb, hit);
                KernelKind::Probe
            }
            Candidates::Hub(s, bm) => {
                kernels::bitmap(s, bm, hit);
                KernelKind::Bitmap
            }
        };
        tally.bump(kind);
    }

    /// Whether `x` is a candidate, by search rather than a walk.
    fn contains(&self, x: VertexId) -> bool {
        let has = |s: &[VertexId]| s.binary_search(&x).is_ok();
        match *self {
            Candidates::Slice(s) => has(s),
            Candidates::Lists(s, nb) | Candidates::Probe(_, s, nb) => has(nb) && has(s),
            Candidates::Hub(s, bm) => bm.contains(x) && has(s),
        }
    }

    /// The counting sink: `|candidates|` by the walk, minus the `bound` row
    /// values among them (injectivity) — searched once per row, never
    /// tested per hit.
    fn count(self, bound: &[VertexId], tally: &mut KernelTally) -> u64 {
        let dups = bound.iter().filter(|&&r| self.contains(r)).count() as u64;
        let mut n = 0u64;
        self.each(tally, |_| n += 1);
        n - dups
    }

    /// The materialising sink: appends the candidates (a slice in bulk, the
    /// rest by the walk's append sink), minus the `bound` row values among
    /// them, to `out`. Returns how many it appended.
    fn append_to(
        self,
        bound: &[VertexId],
        out: &mut Vec<VertexId>,
        tally: &mut KernelTally,
    ) -> usize {
        let from = out.len();
        match self {
            Candidates::Slice(s) => out.extend_from_slice(s),
            _ => self.each(tally, |x| out.push(x)),
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
/// `sink` each row's `(run, row)` — its index in the per-run columns and in
/// the newest column — its [`Candidates`], and its values at the spec's
/// `collide` positions (what injectivity must remove). A batch without run
/// structure goes through the same loop with every row a run of one;
/// nothing below asks which shape it has. A sink that returns `false` stops
/// the loop at its row: the result is that row's `(run, row)`, and the rows
/// from it on are not counted as extended.
///
/// **Once per run**, from the columns that hold one value per run: the
/// `run_gates` pass or fail the whole run; the part of the candidates' value
/// range the run fixes; the run's `collide` values; and the prefix key. The
/// prefix lists' intersection `shared` (smallest-degree first, hub bitmaps
/// where indexed, every list first cut to the bounds the key's own vertices
/// set — q3's `d < a` with `a` in the prefix — so only ids a row can use are
/// intersected) is recomputed only when the key — the prefix vertices,
/// compared by id — differs from the previous run's: consecutive runs often
/// share it (q1's `(a, b₁)`, `(a, b₂)` both intersect `N(a)`), and equal
/// vertices have equal adjacency lists and equal key bounds, so any order of
/// runs is correct; a run under a new key just misses. Work items are cut on
/// run boundaries ([`intersect_ranges`]), so within a batch a run computes
/// `shared` and arms its filter once.
///
/// **Once per row**, from the newest column: the `row_gates`, the rest of
/// the range `(lo, hi)`, and the last step. The slice of `shared` inside the
/// range is recomputed only when the key or the range changed (an empty
/// slice ends the row without touching the newest list). That slice is not
/// merged with each row's newest list: its elements are set in a
/// [`ProbeFilter`] and each row only scans its own list against the filter
/// ([`Candidates::Probe`]). A key sets the filter with its first slice and,
/// if a later row's range reaches outside that, once more with the whole
/// (key-bounded) shared list; what the filter holds clears itself before it
/// is replaced. The filter is refused for a set over
/// [`kernels::PROBE_MAX_SET`] and bypassed for a newest list over
/// [`kernels::PROBE_MAX_SKEW`] × the slice; those rows, and hubs' bitmaps,
/// take the merge / gallop / bitmap dispatch.
/// The newest column's list is borrowed, not copied — as is the only list of
/// a one-list extend, which has no prefix and never builds a filter. Every
/// list comes from the local partition or the batch's `view`; a vertex the
/// fetch stage could not resolve yields no candidates.
///
/// Input rows are injective — scan, extend and join outputs are by
/// construction — so the values at `collide` are distinct and each removes
/// at most one candidate.
fn for_each_candidate_set(
    spec: &ExtendSpec,
    input: &ColBatch,
    (first, end): (usize, usize),
    ctx: &OpContext<'_>,
    view: &ListView,
    mut sink: impl FnMut((usize, usize), Candidates<'_>, &[VertexId], &mut KernelTally) -> bool,
) -> Option<(usize, usize)> {
    let newest = input.column(spec.arity - 1);
    let has_prefix = !spec.prefix.is_empty();

    // `shared` is the intersection of the lists of `key`'s vertices,
    // `shared[span]` its part inside the range `cut`; `filter` holds exactly
    // `shared[armed]`, which is empty or covers `span`.
    let (mut key, mut shared): (Vec<VertexId>, Vec<VertexId>) = (Vec::new(), Vec::new());
    let mut spare = Vec::new();
    let mut by_degree: Vec<VertexId> = Vec::new();
    let mut filter = ProbeFilter::default();
    let (mut armed, mut sets_left) = (0..0, 0u8);
    let (mut cut, mut span) = (None, 0..0);
    let mut bound: Vec<VertexId> = Vec::new();
    let mut tally = KernelTally::default();
    let (mut total, mut started) = (0u64, 0u64);
    let mut halted = None;
    'runs: for r in first..end {
        let rows = input.run_rows(r);
        if rows.is_empty() {
            continue;
        }
        total += rows.len() as u64;
        started += 1;
        let run = |c: usize| input.column(c)[r];
        let Some(run_bounds) = spec.run_bounds(run) else {
            continue;
        };
        bound.clear();
        bound.extend(spec.collide.run.iter().map(|&c| run(c)));
        let run_bound = bound.len();
        if has_prefix && !spec.prefix.iter().map(|&c| run(c)).eq(key.iter().copied()) {
            filter.clear_all(&shared[armed.clone()]);
            (armed, sets_left) = (0..0, 2u8);
            key.clear();
            key.extend(spec.prefix.iter().map(|&c| run(c)));
            by_degree.clone_from(&key);
            by_degree.sort_unstable_by_key(|&v| ctx.partition.degree(v));
            let cut_by_key = spec.key_bounds(&key);
            let bufs = (&mut shared, &mut spare);
            intersect_ext_lists(&by_degree, cut_by_key, ctx, view, bufs, &mut tally);
            cut = None;
        }
        'rows: for i in rows.clone() {
            let x = newest[i];
            let at = |c: usize| if c + 1 == spec.arity { x } else { run(c) };
            if !spec.row_passes(at) {
                continue;
            }
            let (lo, hi) = spec.row_bounds(run_bounds, x);
            debug_assert!(
                fetched(
                    ctx,
                    view,
                    key.iter().copied().chain(spec.last.map(at)),
                    Interval::between(lo, hi)
                ),
                "a row reads ids outside the interval fetched for its lists"
            );
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
            let candidates = 'last: {
                let Some(last) = spec.last else {
                    break 'last Candidates::Slice(s);
                };
                let v = at(last);
                if let Some(bm) = has_prefix.then(|| ctx.partition.hub_bitmap(v)).flatten() {
                    break 'last Candidates::Hub(s, bm);
                }
                let Some(nbrs) = neighbours(ctx, view, v) else {
                    continue 'rows;
                };
                let probes = |nb: &[VertexId]| {
                    !armed.is_empty() && nb.len() <= kernels::PROBE_MAX_SKEW * s.len()
                };
                // The probe stops past `s`, which lies below `hi`: a row with
                // no lower bound probes its whole list, if that passes, uncut.
                let nb = match has_prefix && lo.is_none() && probes(nbrs) {
                    true => nbrs,
                    false => &nbrs[range_of(nbrs, lo, hi)],
                };
                if !has_prefix {
                    Candidates::Slice(nb)
                } else if probes(nb) {
                    Candidates::Probe(&filter, s, nb)
                } else {
                    Candidates::Lists(s, nb)
                }
            };
            if !sink((r, i), candidates, &bound, &mut tally) {
                // The rows from `i` on are not extended here.
                total -= (rows.end - i) as u64;
                started -= u64::from(i == rows.start);
                halted = Some((r, i));
                break 'runs;
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
    halted
}

/// Verify mode over the runs `first..end` of `input`: calls `keep` with the
/// `(run, row)` of every row that passes [`verify_one_row`], and stops where
/// `keep` returns `false` (see [`for_each_candidate_set`]). The row's prefix
/// is read once per run, its newest value once per row.
fn for_each_verified_row(
    op: &ExtendOp,
    vpos: usize,
    input: &ColBatch,
    (first, end): (usize, usize),
    ctx: &OpContext<'_>,
    view: &ListView,
    mut keep: impl FnMut((usize, usize)) -> bool,
) -> Option<(usize, usize)> {
    let newest = input.arity() - 1;
    let mut row: Vec<VertexId> = Vec::new();
    for r in first..end {
        let rows = input.run_rows(r);
        if rows.is_empty() {
            continue;
        }
        row.clear();
        row.extend((0..newest).map(|c| input.column(c)[r]));
        row.push(0);
        for i in rows {
            row[newest] = input.column(newest)[i];
            if verify_one_row(op, vpos, &row, ctx, view) && !keep((r, i)) {
                return Some((r, i));
            }
        }
    }
    None
}

/// Runs a chain's extends as one depth-first *nest* over `input`:
/// `specs[0]` over `input`, every later extend over what the one above it
/// makes, and the last level counts, or gathers into `gather`'s terminal
/// queue ([`Gather`]). The head runs its fetch stage and the worker pool
/// over `input`; a work item hands its rows to a worker-local piece of at
/// most `ctx.batch_size` rows for the next level — a match level each row's
/// candidates, a verify level each row that passes, unchanged — and a full
/// piece runs that level's fetch stage, generator and release in the same
/// worker: the pool is not re-entrant, and no intersect stage reads the
/// cache, so a piece's fetch and release disturb no other. A gathering last
/// level pushes its full pieces, each a run batch (prefix once per run), to
/// the terminal queue. So a nest of depth d holds at most d × `batch_size`
/// rows per worker, none queued or tracked until gathered. A work item that
/// finds the terminal queue full — at its start or after a push of its own
/// — takes no further row at any level: each level leaves the rest of its
/// input, and each piece it holds whole, in its level's queue, so one
/// worker's gathered rows overrun the full queue by at most a piece and one
/// row's candidates. `cancel` is polled before each piece; once it fires the
/// nest drops what it holds and returns a partial count.
pub fn nest(
    specs: &[ExtendSpec],
    input: &ColBatch,
    ctx: &OpContext<'_>,
    cancel: Option<&CancelToken>,
    gather: Option<Gather<'_>>,
) -> ExtendOutput {
    debug_assert_eq!(input.arity(), specs[0].arity);
    let done = specs[specs.len() - 1].output_arity();
    // One piece per level below the head, and the gathered rows' own.
    let arities = specs[1..].iter().map(|s| s.arity);
    let arities: Vec<usize> = arities.chain(gather.map(|_| done)).collect();
    let (view, fetch_time) = fetch_stage_cols(&specs[0], input, ctx);
    let run = ctx.pool.run(intersect_ranges(input, ctx), |range, out| {
        let mut item = Nest {
            specs,
            ctx,
            cancel,
            gather,
            room: !gather.is_some_and(|(_, terminal)| terminal.is_full()),
            stopped: cancel.is_some_and(CancelToken::is_cancelled),
            pieces: (arities.iter())
                .map(|&arity| (vec![Vec::new(); arity], Vec::new()))
                .collect(),
            count: 0,
            fetch_time: Duration::ZERO,
            busy: vec![Duration::ZERO; specs.len()],
            clock: (0, Instant::now()),
        };
        let halted = item.run(0, input, range, &view);
        // Top down: what a level's last piece makes lands in the next.
        (0..arities.len()).for_each(|level| item.flush(level));
        item.switch(0);
        let left = halted.map(|(run, row)| (run, row, range.1));
        out.push((item.count, item.fetch_time, item.busy, left));
    });
    release(ctx);
    let mut busy = vec![Duration::ZERO; specs.len()];
    busy[0] = fetch_time;
    let mut total = ExtendOutput {
        batch: ColBatch::new(done),
        count: 0,
        fetch_time,
        busy,
    };
    let mut left = Vec::new();
    for (count, fetch_time, busy, halted) in run.outputs.into_iter().flatten() {
        left.extend(halted);
        total.count += count;
        total.fetch_time += fetch_time;
        for (sum, level) in total.busy.iter_mut().zip(busy) {
            *sum += level;
        }
    }
    if let (Some((levels, _)), false) = (gather, left.is_empty()) {
        left.sort_unstable();
        levels[0].push(rows_left(input, &left));
    }
    total
}

/// The rows of `input` from row `from` on in the runs `first..end`, for
/// each `(first, from, end)` of `left`, in order, as one run batch: each
/// run's prefix once, its newest values copied as one slice.
fn rows_left(input: &ColBatch, left: &[(usize, usize, usize)]) -> ColBatch {
    let mut out = ColBatch::new(input.arity());
    for &(first, from, end) in left {
        for r in first..end {
            let rows = input.run_rows(r);
            if rows.end > from.max(rows.start) {
                out.push_run(input, r, from.max(rows.start)..rows.end);
            }
        }
    }
    out
}

/// One work item of a nest.
struct Nest<'a> {
    specs: &'a [ExtendSpec],
    ctx: &'a OpContext<'a>,
    cancel: Option<&'a CancelToken>,
    gather: Option<Gather<'a>>,
    /// The terminal queue had room when this item last pushed to it.
    room: bool,
    stopped: bool,
    /// `pieces[i]` is a run batch of the rows level `i` made: the input of
    /// `specs[i + 1]`, or — past the last extend — the gathered rows.
    pieces: Vec<(Vec<Vec<VertexId>>, Vec<u32>)>,
    count: u64,
    fetch_time: Duration,
    /// Busy time per level.
    busy: Vec<Duration>,
    /// The level running, and since when.
    clock: (usize, Instant),
}

impl Nest<'_> {
    /// Runs `level` over the runs `range` of `input`, whose lists are in
    /// `view`: a counting last level counts — the candidates of match mode
    /// (nothing is written), the rows that pass in verify mode — and any
    /// other feeds its piece. Returns `(run, row)` where a gathering level
    /// stopped.
    fn run(
        &mut self,
        level: usize,
        input: &ColBatch,
        range: (usize, usize),
        view: &ListView,
    ) -> Option<(usize, usize)> {
        let (spec, ctx) = (&self.specs[level], self.ctx);
        let counts = level == self.pieces.len();
        let newest = input.arity() - 1;
        match spec.op.verify_position {
            Some(vpos) => for_each_verified_row(&spec.op, vpos, input, range, ctx, view, |at| {
                let go = self.room;
                if counts {
                    self.count += 1;
                } else if go && !self.stopped {
                    let x = input.column(newest)[at.1];
                    self.push(level, input, at, newest, &[x]);
                }
                go
            }),
            None => for_each_candidate_set(spec, input, range, ctx, view, |at, c, bound, tally| {
                let go = self.room;
                if counts {
                    self.count += c.count(bound, tally);
                } else if go && !self.stopped {
                    self.extend_row(level, input, at, c, bound, tally);
                }
                go
            }),
        }
    }

    /// Appends to the piece of `level` the row at `(p, q)` of `input`
    /// (per-run and newest-column index) extended by its candidates `c`,
    /// minus the `bound` values: one run, the candidates written straight
    /// into the newest column. A piece that fills is flushed, and candidates
    /// past its end start the next one.
    fn extend_row(
        &mut self,
        level: usize,
        input: &ColBatch,
        (p, q): (usize, usize),
        c: Candidates<'_>,
        bound: &[VertexId],
        tally: &mut KernelTally,
    ) {
        let rows = self.ctx.batch_size.clamp(1, u32::MAX as usize);
        let (cols, ends) = &mut self.pieces[level];
        let (run_cols, new_col) = cols.split_at_mut(input.arity());
        let new_col = &mut new_col[0];
        if c.append_to(bound, new_col, tally) == 0 {
            return;
        }
        let newest = input.arity() - 1;
        for (c, col) in run_cols.iter_mut().enumerate() {
            col.push(input.column(c)[if c == newest { q } else { p }]);
        }
        // At most `rows`, which fits in 32 bits.
        if new_col.len() < rows {
            return ends.push(new_col.len() as u32);
        }
        let rest = new_col.split_off(rows);
        ends.push(rows as u32);
        self.flush(level);
        self.push(level, input, (p, q), input.arity(), &rest);
    }

    /// Appends to the piece of `level` one row per value of `newest`, whose
    /// per-run columns hold the first `width` values of the row at `(p, q)`
    /// of `input` (per-run and newest-column index): a new run, or more of
    /// the piece's last one if that holds the same values. A piece that
    /// fills is flushed.
    fn push(
        &mut self,
        level: usize,
        input: &ColBatch,
        (p, q): (usize, usize),
        width: usize,
        mut newest: &[VertexId],
    ) {
        let rows = self.ctx.batch_size.clamp(1, u32::MAX as usize);
        let value = |c: usize| input.column(c)[if c + 1 == input.arity() { q } else { p }];
        while !newest.is_empty() {
            let (cols, ends) = &mut self.pieces[level];
            let (run_cols, new_col) = cols.split_at_mut(width);
            let held = new_col[0].len();
            let (now, rest) = newest.split_at(newest.len().min(rows - held));
            // Only a verify level's rows (no candidate column) can continue
            // a run.
            let mut held_cols = run_cols.iter().enumerate();
            let same = width < input.arity()
                && !ends.is_empty()
                && held_cols.all(|(c, col)| col.last() == Some(&value(c)));
            if !same {
                for (c, col) in run_cols.iter_mut().enumerate() {
                    col.push(value(c));
                }
                ends.push(0);
            }
            new_col[0].extend_from_slice(now);
            // At most `rows`, which fits in 32 bits.
            *ends.last_mut().expect("a run is open") = (held + now.len()) as u32;
            if held + now.len() == rows {
                self.flush(level);
            }
            newest = rest;
        }
    }

    /// Empties the piece of `level`, unless `cancel` fired: pushes gathered
    /// rows to the terminal queue, and leaves the next level's input in its
    /// queue while the terminal queue is full; else runs the next level over
    /// it — fetch stage, level, release — and leaves what that did not take.
    fn flush(&mut self, level: usize) {
        let (cols, ends) = &mut self.pieces[level];
        let cols = cols.iter_mut().map(std::mem::take).collect();
        let piece = ColBatch::from_runs(cols, std::mem::take(ends));
        self.stopped |= self.cancel.is_some_and(CancelToken::is_cancelled);
        if piece.runs() == 0 || self.stopped {
            return;
        }
        let next = level + 1;
        if let Some((levels, terminal)) = self.gather {
            if next == self.specs.len() {
                self.count += piece.len() as u64;
                terminal.push(piece);
                self.room = !terminal.is_full();
                return;
            }
            if !self.room {
                return levels[next].push(piece);
            }
        }
        let above = self.switch(next);
        let (view, fetch_time) = fetch_stage_cols(&self.specs[next], &piece, self.ctx);
        self.fetch_time += fetch_time;
        if let Some((run, row)) = self.run(next, &piece, (0, piece.runs()), &view) {
            let (levels, _) = self.gather.expect("only a gathering level stops");
            levels[next].push(rows_left(&piece, &[(run, row, piece.runs())]));
        }
        release(self.ctx);
        self.switch(above);
    }

    /// Charges the time since the last switch to the level running, and makes
    /// `level` the running one. Returns the one it replaces.
    fn switch(&mut self, level: usize) -> usize {
        let (running, since) = std::mem::replace(&mut self.clock, (level, Instant::now()));
        self.busy[running] += self.clock.1 - since;
        running
    }
}

/// A one-level gathering [`nest`] for a caller that holds no operator (the
/// perf ledger's stage replay, tests): compiles `op` for this one batch and
/// returns what it gathers as one run batch, its pieces in the order the
/// workers pushed them.
///
/// # Panics
/// Panics if that batch would hold more rows than 32 bits index.
pub fn run_extend_cols(op: &ExtendOp, input: ColBatch, ctx: &OpContext<'_>) -> ExtendOutput {
    let spec = ExtendSpec::compile(op, input.arity());
    // A queue that never fills: the nest never stops, so it leaves nothing.
    let gathered = SharedQueue::new(usize::MAX, None);
    let gather = Some((&[][..], &gathered));
    let mut out = nest(std::slice::from_ref(&spec), &input, ctx, None, gather);
    out.batch = ColBatch::new(spec.output_arity());
    while let Some(mut piece) = gathered.pop() {
        out.batch.append(&mut piece);
    }
    out
}

/// A one-level counting [`nest`] for a caller that holds no operator.
pub fn run_extend_count_cols(op: &ExtendOp, input: &ColBatch, ctx: &OpContext<'_>) -> ExtendOutput {
    let spec = ExtendSpec::compile(op, input.arity());
    nest(&[spec], input, ctx, None, None)
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

    /// The result of counting a `PULL-EXTEND` over one input batch.
    pub(super) struct CountOutput {
        /// Number of rows the extension would have produced.
        pub(super) count: u64,
    }

    /// The fetch stage of Algorithm 4: pulls (or seals in the cache) every
    /// remote adjacency list the batch's extend positions reference. Returns the
    /// batch's list view and the stage duration.
    fn fetch_stage(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> (ListView, Duration) {
        let fetch_start = Instant::now();
        let mut remote = Vec::new();
        for row in input.rows() {
            for &pos in &op.ext_positions {
                let v = row[pos];
                if !ctx.partition.is_local(v) {
                    remote.push((v, Interval::ALL));
                }
            }
        }
        let view = resolve_remote(remote, ctx);
        (view, fetch_start.elapsed())
    }

    /// Runs the two-stage `PULL-EXTEND` (Algorithm 4) over one input batch.
    pub(super) fn run_extend(op: &ExtendOp, input: &RowBatch, ctx: &OpContext<'_>) -> ExtendOutput {
        let out_arity = if op.verify_position.is_some() {
            input.arity()
        } else {
            input.arity() + 1
        };
        let (view, _) = fetch_stage(op, input, ctx);

        // ---------------- intersect stage ----------------
        let ranges = row_ranges(input.len());
        let view = &view;
        let run = ctx
            .pool
            .run(ranges, |(start, end), out: &mut Vec<VertexId>| {
                let mut exts: Vec<VertexId> = Vec::new();
                let mut scratch = (Vec::new(), Vec::new());
                let mut tally = KernelTally::default();
                for i in start..end {
                    let row = input.row(i);
                    extend_one_row(
                        op,
                        row,
                        ctx,
                        view,
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

        release(ctx);

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
    ) -> CountOutput {
        let (view, _) = fetch_stage(op, input, ctx);
        let ranges = row_ranges(input.len());
        let view = &view;
        let run = ctx.pool.run(ranges, |(start, end), out: &mut Vec<u64>| {
            let mut exts: Vec<VertexId> = Vec::new();
            let mut scratch = (Vec::new(), Vec::new());
            let mut tally = KernelTally::default();
            let mut count = 0u64;
            for i in start..end {
                let row = input.row(i);
                extend_one_row(
                    op,
                    row,
                    ctx,
                    view,
                    &mut exts,
                    &mut scratch,
                    &mut tally,
                    &mut ExtendSink::Count(&mut count),
                );
            }
            flush_tally(ctx, &tally);
            out.push(count);
        });
        release(ctx);
        CountOutput {
            count: run.outputs.iter().flatten().sum(),
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
        view: &ListView,
        exts: &mut Vec<VertexId>,
        scratch: &mut (Vec<VertexId>, Vec<VertexId>),
        tally: &mut KernelTally,
        sink: &mut ExtendSink<'_>,
    ) {
        if let Some(vpos) = op.verify_position {
            if verify_one_row(op, vpos, row, ctx, view) {
                sink.emit_verified(row);
            }
            return;
        }

        // Match mode: multiway intersection of the neighbourhoods (Equation 2),
        // smallest-degree list first so the accumulator starts minimal.
        exts.clear();
        exts.extend(op.ext_positions.iter().map(|&p| row[p]));
        exts.sort_unstable_by_key(|&v| ctx.partition.degree(v));
        let (acc, spare) = scratch;
        intersect_ext_lists(exts, (None, None), ctx, view, (acc, spare), tally);
        for &candidate in acc.iter() {
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
    use crate::scheduler::SegmentQueues;
    use huge_cache::PullCache;
    use huge_comm::stats::ClusterStats;
    use huge_comm::RpcFabric;
    use huge_graph::{gen, GraphPartition, Partitioner};

    impl Reads {
        /// Every position read.
        fn all(&self, newest: usize) -> Vec<usize> {
            let row = self.newest.then_some(newest);
            self.run.iter().copied().chain(row).collect()
        }
    }

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
        };
        let out = run_extend(&op, &input, &c);
        assert_eq!(out.batch.len(), 1);
        assert_eq!(out.batch.row(0), &[0, 1]);
    }

    #[test]
    fn extend_without_cache_pulls_into_the_view() {
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
        };
        let out = run_extend(&op, &input, &c);
        // All other 6 vertices of K8 complete the triangle.
        assert_eq!(out.batch.len(), 6);
        assert_eq!(cache.len(), 0, "cache must stay untouched when disabled");
    }

    #[test]
    fn scan_carries_overflowing_rows_over_in_order() {
        // A hub's edges overflow many 7-row batches; joined, the batches
        // are the one batch an unbounded scan emits, in vertex order.
        let g = with_hubs(gen::erdos_renyi(12, 30, 7), 40);
        let parts = Partitioner::new(1).unwrap().partition(g);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let scan = |batch_size: usize| {
            let mut c = ctx(0, &parts, &rpc, &cache, &pool);
            c.batch_size = batch_size;
            let op = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![],
            };
            let mut cursor = ScanCursor::new(op, ScanPool::new(parts[0].local_vertices(), 4));
            let (mut batches, mut rows) = (0, Vec::new());
            while let Some(batch) = cursor.next_batch(&c) {
                assert!(batch.len() <= batch_size);
                batches += 1;
                rows.extend(batch.rows().map(<[VertexId]>::to_vec));
            }
            (batches, rows)
        };
        let (one, whole) = scan(1 << 20);
        let (many, split) = scan(7);
        assert_eq!(one, 1);
        assert!(many > 10, "{many} batches");
        assert!(whole.windows(2).all(|w| w[0] < w[1]), "vertex order");
        assert_eq!(split, whole);
    }

    #[test]
    fn scan_pool_stealing() {
        let pool = ScanPool::new(&(0..100u32).collect::<Vec<_>>(), 10);
        let remaining = |pool: &ScanPool| std::iter::from_fn(|| pool.pop()).flatten().count();
        let stolen = pool.steal_half();
        assert_eq!(stolen.len(), 5);
        let other = ScanPool::new(&[], 1);
        assert!(other.is_empty());
        other.add_chunks(stolen);
        assert!(!other.is_empty());
        assert_eq!((remaining(&pool), remaining(&other)), (50, 50));
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
        // The columnar paths dispatched kernels.
        assert!(rpc.stats().total().kernel_invocations() > 0);
    }

    #[test]
    fn columnar_verify_keeps_a_runs_survivors_as_one_run() {
        let (parts, rpc) = setup(1);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let op = ExtendOp {
            target: 0,
            ext_positions: vec![1],
            verify_position: Some(0),
            filters: vec![],
        };
        let mut input = ColBatch::new(2);
        input.push_row(&[0, 1]);
        input.push_row(&[2, 2]); // self pair: 2 is not its own neighbour
        input.push_row(&[3, 5]);
        let out = run_extend_cols(&op, input, &c).batch;
        assert_eq!(out.to_rows().as_flat(), &[0, 1, 3, 5]);
        assert_eq!((out.runs(), out.run_rows(1)), (2, 1..2));
        // Runs (0: 1, 2, 3) and (2: 2): the first run's rows all pass and
        // stay one run, prefix once; the second's fails.
        let runs = ColBatch::from_runs(vec![vec![0, 2], vec![1, 2, 3, 2]], vec![3, 4]);
        let out = run_extend_cols(&op, runs, &c).batch;
        assert_eq!((out.column(0), out.runs()), (&[0][..], 1));
        assert_eq!(out.run_rows(0), 0..3);
        assert_eq!(out.column(1), &[1, 2, 3]);
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
        // (v2, v3, v4) extended by v5 ∈ N(v4): v5 may be v2 or v3 (the scan
        // starts at the join key v2, so the key is bound first).
        assert_eq!(q7.len(), 3, "two scan segments into a join");
        assert_eq!(collide(&q7[0][1]), [0, 1]);

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
        let row_major = rows.to_rows();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| (row_major.row(i)[2], i));
        let mut scattered = ColBatch::new(3);
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
        };
        let one_list = executed(&|| run_extend_count_cols(&path, &rows, &c).count);
        assert_eq!(one_list, (360, 0, 120, 0, 0));
    }

    #[test]
    fn the_fetch_filter_reports_every_id_with_its_widest_read() {
        let twin = (1..).find(|&v| Seen::slot(v) == Seen::slot(0)).unwrap();
        let (mut seen, mut remote) = (Seen::new(), Vec::new());
        let at = |v| Interval::point(v);
        for v in [0, VertexId::MAX, twin] {
            seen.note(v, at(v), &mut remote);
        }
        // The twin evicted 0; `MAX` is still held, and a repeat widens it.
        assert_eq!(remote, [(0, at(0))]);
        seen.note(VertexId::MAX, at(7), &mut remote);
        seen.note(0, at(5), &mut remote);
        seen.note(0, at(0), &mut remote);
        assert_eq!(remote, [(0, at(0)), (twin, at(twin))]);
        seen.drain(&mut remote);
        remote[2..].sort_unstable_by_key(|&(v, _)| v);
        let wide = [
            (0, Interval::new(0, 5)),
            (VertexId::MAX, Interval::new(7, VertexId::MAX)),
        ];
        assert_eq!(remote[2..], wide);
    }

    #[test]
    fn a_fetch_looks_up_each_distinct_remote_list_once() {
        use huge_query::{naive, Pattern};

        let graph = gen::erdos_renyi(2500, 15_000, 19);
        let expected = naive::enumerate(&graph, &Pattern::Triangle.query_graph());
        let parts = Partitioner::new(2).unwrap().partition(graph);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(2));
        let pool = WorkerPool::new(2, crate::config::LoadBalance::WorkStealing);
        let less = |smaller, larger| OrderFilter { smaller, larger };
        let scan = ScanOp {
            src: 0,
            dst: 1,
            filters: vec![less(0, 1)],
        };
        let [mut triangle, _] = clique_steps();
        triangle.filters = vec![less(1, 2)];
        let (mut counted, mut gathered) = (0, 0);
        for m in 0..2 {
            let cache = huge_cache::LrbuCache::new(1 << 20);
            let mut c = ctx(m, &parts, &rpc, &cache, &pool);
            c.batch_size = 1 << 16;
            let mut cursor =
                ScanCursor::new(scan.clone(), ScanPool::new(parts[m].local_vertices(), 8));
            let runs = cursor.next_runs(&c).unwrap();
            assert!(cursor.next_runs(&c).is_none(), "one batch");
            // The newest column repeats remote ids under other runs, and two
            // of its distinct remote ids share a filter slot.
            let remote: Vec<VertexId> = runs
                .column(1)
                .iter()
                .copied()
                .filter(|&v| !parts[m].is_local(v))
                .collect();
            let mut distinct = remote.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() * 2 < remote.len());
            let mut slots: Vec<usize> = distinct.iter().map(|&v| Seen::slot(v)).collect();
            slots.sort_unstable();
            assert!(slots.windows(2).any(|w| w[0] == w[1]), "a slot collision");

            let reference = run_extend(&triangle, &runs.to_rows(), &c).batch;
            let lookups = || {
                let stats = cache.stats();
                stats.hits + stats.misses
            };
            let before = lookups();
            let count = run_extend_count_cols(&triangle, &runs, &c).count;
            assert_eq!(lookups() - before, distinct.len() as u64);
            let out = run_extend_cols(&triangle, runs, &c).batch.to_rows();
            assert_eq!(lookups() - before, 2 * distinct.len() as u64);
            let sorted = |rows: &RowBatch| {
                let mut rows: Vec<Vec<VertexId>> = rows.rows().map(<[VertexId]>::to_vec).collect();
                rows.sort_unstable();
                rows
            };
            assert_eq!(sorted(&out), sorted(&reference));
            assert_eq!(count, reference.len() as u64);
            (counted, gathered) = (counted + count, gathered + out.len() as u64);
        }
        assert!(expected > 0);
        assert_eq!((counted, gathered), (expected, expected));
    }

    #[test]
    fn a_cached_interval_too_narrow_is_a_miss_that_pulls_what_it_lacks() {
        let parts = Partitioner::new(2).unwrap().partition(gen::complete(40));
        let stats = ClusterStats::new(2);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), stats.clone());
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        // The top remote vertex; its list is every other vertex.
        let v = (0..40).rev().find(|&v| !parts[0].is_local(v)).unwrap();
        assert!(v >= 20);
        let part = |interval: Interval| interval.cut(parts[0].any_neighbours(v)).to_vec();
        // One row `(9, v)`: the candidate is a neighbour of `v` above 9.
        let input = ColBatch::from_runs(vec![vec![9], vec![v]], vec![1]);
        let above_9 = ExtendOp {
            target: 2,
            ext_positions: vec![1],
            verify_position: None,
            filters: vec![OrderFilter {
                smaller: 0,
                larger: 2,
            }],
        };
        let lookups = || (cache.stats().hits, cache.stats().misses);
        let pulled = || stats.total().bytes_pulled;
        let held = || {
            let mut held = None;
            cache.read_interval(v, &mut |interval, ids| {
                held = Some((interval, ids.to_vec()))
            });
            held.expect("cached")
        };
        // The entry holds the list from 20 up: too narrow, so a miss that
        // pulls the ten ids 10..=19 alone and widens the entry.
        let from_20 = Interval::new(20, VertexId::MAX);
        cache.insert_interval(v, from_20, part(from_20));
        let needed = Interval::between(Some(9), None);
        let count = run_extend_count_cols(&above_9, &input, &c).count;
        assert_eq!(count, part(needed).len() as u64);
        assert_eq!((lookups(), pulled()), ((0, 1), 4 * 10 + 12));
        assert_eq!(held(), (needed, part(needed)));
        assert_eq!((cache.len(), cache.stats().inserts), (1, 1));
        // It holds what the row reads now: a hit, nothing pulled.
        let rows = run_extend_cols(&above_9, input.clone(), &c).batch;
        assert_eq!(rows.len() as u64, count);
        assert_eq!((lookups(), pulled()), ((1, 1), 4 * 10 + 12));
        // A row without a bound reads the whole list: the ids below 10 are
        // what the entry lacks.
        let unbounded = ExtendOp {
            filters: vec![],
            ..above_9
        };
        assert_eq!(run_extend_count_cols(&unbounded, &input, &c).count, 38);
        assert_eq!((lookups(), pulled()), ((1, 2), 2 * (4 * 10 + 12)));
        assert_eq!(held(), (Interval::ALL, part(Interval::ALL)));
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

    #[test]
    fn a_bounded_intersection_is_the_unbounded_one_filtered() {
        let g = gen::barabasi_albert(400, 6, 3);
        let mut parts = Partitioner::new(1).unwrap().partition(g);
        parts[0].build_hub_index(8);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let view = ListView::default();
        let bounds = [
            (None, None),
            (Some(40), None),
            (None, Some(250)),
            (Some(30), Some(300)),
            (Some(100), Some(101)), // no id strictly between
            (Some(120), Some(120)),
            (Some(300), Some(30)), // lo ≥ hi
        ];
        let (mut whole, mut cut, mut spare) = (Vec::new(), Vec::new(), Vec::new());
        let mut tally = KernelTally::default();
        // Pairs and triples whose later operands include hubs (ids are
        // degree ranks: vertex 0 and the low ids are the highest-degree
        // vertices) and non-hubs (the high ids).
        for u in (10..400).step_by(7) {
            for mut exts in [vec![u, 0], vec![u, 399 - u / 2, 1], vec![u, 2, 0]] {
                exts.sort_unstable_by_key(|&v| c.partition.degree(v));
                let bufs = (&mut whole, &mut spare);
                intersect_ext_lists(&exts, (None, None), &c, &view, bufs, &mut tally);
                for (lo, hi) in bounds {
                    let bufs = (&mut cut, &mut spare);
                    intersect_ext_lists(&exts, (lo, hi), &c, &view, bufs, &mut tally);
                    let inside =
                        |&&x: &&VertexId| lo.is_none_or(|l| x > l) && hi.is_none_or(|h| x < h);
                    let expected: Vec<VertexId> = whole.iter().filter(inside).copied().collect();
                    assert_eq!(cut, expected, "{exts:?} in ({lo:?}, {hi:?})");
                }
            }
        }
        assert!(
            tally.bitmap > 0 && tally.merge + tally.gallop > 0,
            "{tally:?}"
        );
    }

    #[test]
    fn a_bound_outside_the_prefix_stays_per_row() {
        use huge_plan::translate::{translate, SegmentSource};
        use huge_query::{naive, Pattern};

        // The square's worst-case-optimal plan: scan (a, b), then c ∈ N(a)
        // under b, then d ∈ N(b) ∩ N(c) under a, b and c.
        let query = Pattern::Square.query_graph();
        let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
        let dataflow = translate(&plan).unwrap();
        let specs = &compiled(&dataflow)[0];
        let last = &specs[1];
        // Only the prefix's own vertex cuts `shared`; column 0 and the newest
        // column bound each row's slice of it.
        assert_eq!((&last.prefix[..], last.last), (&[1][..], Some(2)));
        assert_eq!((&last.key_lo[..], &last.key_hi[..]), (&[][..], &[0][..]));
        assert_eq!(last.hi_from.all(2), [0, 1, 2]);
        assert_eq!(last.key_bounds(&[17]), (None, Some(17)));

        let graph = gen::erdos_renyi(30, 120, 5);
        let expected = naive::enumerate(&graph, &query);
        assert!(expected > 0);
        let mut parts = Partitioner::new(1).unwrap().partition(graph);
        parts[0].build_hub_index(6);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let c = ctx(0, &parts, &rpc, &cache, &pool);
        let SegmentSource::Scan(scan) = &dataflow.root().source else {
            panic!("a worst-case-optimal plan starts from a scan");
        };
        let mut cursor = ScanCursor::new(scan.clone(), ScanPool::new(parts[0].local_vertices(), 8));
        let [first, second] = &dataflow.root().extends[..] else {
            panic!("two extends");
        };
        let (mut counted, mut gathered, mut reference) = (0, 0, 0);
        while let Some(batch) = cursor.next_runs(&c) {
            let rows = run_extend_cols(first, batch, &c).batch;
            reference += run_extend_count(second, &rows.to_rows(), &c).count;
            counted += run_extend_count_cols(second, &rows, &c).count;
            gathered += run_extend_cols(second, rows, &c).batch.len() as u64;
        }
        assert_eq!(
            (counted, gathered, reference),
            (expected, expected, expected)
        );
    }

    #[test]
    fn a_stopped_nest_leaves_each_queue_within_its_term() {
        use huge_plan::translate::{translate, SegmentSource};
        use huge_query::{naive, Pattern};

        // q5 (the 5-cycle) as three extends, collected, on a graph with a
        // hub whose fan-out is several times the batch size, driven the way a
        // machine drives a chain: the scan fills the head queue once every
        // level queue is empty, the nest runs the deepest queued batch until
        // the terminal queue is full, the terminal empties it. After every
        // call each queue holds at most what `scheduler.rs` states: the head
        // queue `Q + B`, a deeper level's `W·(B + F)` and the terminal
        // `Q + W·(B + F)`, with `F` at most the largest degree. One worker:
        // inputs this small are one work item a call anyway. A nest whose
        // deeper levels keep taking rows into a full terminal queue leaves
        // several times the level term.
        let mut edges: Vec<(VertexId, VertexId)> = {
            let g = gen::erdos_renyi(120, 600, 3);
            let edges = g
                .vertices()
                .flat_map(|u| g.neighbours(u).iter().map(move |&v| (u, v)));
            edges.collect()
        };
        edges.extend((0..120).step_by(2).map(|leaf| (120, leaf)));
        let graph = huge_graph::Graph::from_edges(edges);
        let fan_out = graph.vertices().map(|v| graph.degree(v)).max().unwrap();
        let query = Pattern::FiveCycle.query_graph();
        let expected = naive::enumerate(&graph, &query);
        let plan = huge_plan::baselines::huge_wco_plan(&query).unwrap();
        let dataflow = translate(&plan).unwrap();
        let specs = &compiled(&dataflow)[0];
        assert_eq!(specs.len(), 3);
        let SegmentSource::Scan(scan) = &dataflow.root().source else {
            panic!("a worst-case-optimal plan starts from a scan");
        };
        let (batch, queue, workers) = (16, 16, 1);
        let parts = Partitioner::new(1).unwrap().partition(graph);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = huge_cache::LrbuCache::new(1 << 20);
        let pool = WorkerPool::new(workers, crate::config::LoadBalance::WorkStealing);
        let c = OpContext {
            batch_size: batch,
            ..ctx(0, &parts, &rpc, &cache, &pool)
        };
        let mut cursor = ScanCursor::new(scan.clone(), ScanPool::new(parts[0].local_vertices(), 8));
        let queues = SegmentQueues::new(specs.len(), queue, None);
        let level_term = workers * (batch + fan_out);
        let (mut gathered, mut deepest) = (0, 0);
        loop {
            if queues.levels.iter().all(SharedQueue::is_empty) {
                while !queues.levels[0].is_full() {
                    let Some(rows) = cursor.next_runs(&c) else {
                        break;
                    };
                    queues.levels[0].push(rows);
                }
            }
            let mut called = false;
            while let Some((level, input)) = queues.pop_deepest() {
                called = true;
                nest(
                    &specs[level..],
                    &input,
                    &c,
                    None,
                    Some(queues.gather(level)),
                );
                let rows: Vec<usize> = queues.all().map(SharedQueue::rows).collect();
                assert!(rows[0] <= queue + batch, "head queue {rows:?}");
                for &held in &rows[1..specs.len()] {
                    assert!(held <= level_term, "level queues {rows:?}");
                    deepest = deepest.max(held);
                }
                assert!(rows[specs.len()] <= queue + level_term, "terminal {rows:?}");
                if queues.terminal.is_full() {
                    break;
                }
            }
            gathered += std::iter::from_fn(|| queues.terminal.pop())
                .map(|b| b.len())
                .sum::<usize>();
            if !called {
                break;
            }
        }
        assert_eq!(gathered as u64, expected);
        // A hub row's candidates, not two pieces a worker, set a level's term.
        assert!(
            deepest > 2 * workers * batch,
            "deepest level queue {deepest}"
        );
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

        /// `None` runs without a cache (every list pulled into the view);
        /// the LRU variants get a capacity of one entry per shard, and the
        /// small LRBU a few entries, so cached lists are evicted while a
        /// batch's view still reads them.
        fn arb_lists() -> impl Strategy<Value = Option<(CacheKind, u64)>> {
            prop_oneof![
                Just(Some((CacheKind::Lrbu, 1 << 20))),
                Just(Some((CacheKind::Lrbu, 256))),
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
            /// *i + 1*, both sinks. From every stage *i* of the run chain,
            /// four nests — stage *i* then a verify-mode extend; stages *i*
            /// to the last; those then a verify; and a verify then stages
            /// *i* to the last, so a verify passes rows on to further
            /// extends — each level feeding the next in pieces of `piece`
            /// rows, count and gather what the row-major reference makes
            /// chained level by level — gathered into a queue that fills at
            /// one piece, so every level stops and leaves its rest — and
            /// every gathered piece is a run batch of at most `piece` rows.
            /// Along the run chain every stage's output also goes through a
            /// verify-mode extend, directly, and what survives through the
            /// last extend.
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
                piece in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
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
                };
                let mut specs: Vec<ExtendSpec> = Vec::new();
                for op in &segment.extends {
                    let arity = specs.last().map_or(2, ExtendSpec::output_arity);
                    specs.push(ExtendSpec::compile(op, arity));
                }
                let done = specs.last().unwrap().output_arity();
                let mut then_verify = specs.clone();
                then_verify.push(ExtendSpec::compile(&verify(done), done));

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
                            kept_count += run_extend_count_cols(&keep, &batch, &c).count;
                            kept_runs.push(run_extend_cols(&keep, batch, &c).batch);
                        }
                        let kept_rows: Vec<RowBatch> = kept_runs.iter().map(ColBatch::to_rows).collect();
                        prop_assert_eq!(sorted_rows(&kept_rows), sorted_rows(&kept_reference));
                        prop_assert_eq!(kept_count as usize, kept_rows.iter().map(RowBatch::len).sum::<usize>());

                        // The nests from this extend, and what the row-major
                        // reference makes of the same levels.
                        let keep_next = verify(arity + 1);
                        let tail = &segment.extends[stage..];
                        let chained = |rows: &[RowBatch], ops: &[ExtendOp]| {
                            let mut rows = rows.to_vec();
                            for op in ops {
                                rows = rows.iter().map(|b| run_extend(op, b, &c).batch).collect();
                            }
                            rows
                        };
                        let whole = chained(&rows, tail);
                        let references = [
                            chained(&rows, &[op.clone(), keep_next.clone()]),
                            chained(&kept_reference, tail),
                            chained(&whole, &[verify(done)]),
                            whole,
                        ];
                        let mut kept_then = vec![ExtendSpec::compile(&keep, arity)];
                        kept_then.extend_from_slice(&specs[stage..]);
                        let nests = [
                            vec![specs[stage].clone(), ExtendSpec::compile(&keep_next, arity + 1)],
                            kept_then,
                            then_verify[stage..].to_vec(),
                            specs[stage..].to_vec(),
                        ];
                        let pc = OpContext { batch_size: piece, ..ctx(m, &parts, &rpc, cache.as_ref(), &pool) };
                        let pc = OpContext { use_cache: lists.is_some(), ..pc };
                        for (nest, reference) in nests.iter().zip(&references) {
                            let (mut count, mut pieces) = (0, Vec::new());
                            // Gathered into a queue of one piece, emptied after
                            // each call the way the terminal empties it: the
                            // nest stops once it is full, and what it leaves
                            // is run deepest first, as the machine runs it.
                            let queues = SegmentQueues::new(nest.len(), piece, None);
                            for batch in runs.iter().flat_map(|b| rechunk(b.clone(), cut)) {
                                count += super::nest(nest, &batch, &pc, None, None).count;
                                queues.levels[0].push(batch);
                            }
                            while let Some((level, batch)) = queues.pop_deepest() {
                                let gather = Some(queues.gather(level));
                                let made = super::nest(&nest[level..], &batch, &pc, None, gather).count;
                                let before = pieces.len();
                                pieces.extend(std::iter::from_fn(|| queues.terminal.pop()));
                                let rows = pieces[before..].iter().map(ColBatch::len);
                                prop_assert_eq!(rows.sum::<usize>() as u64, made);
                            }
                            for gathered in &pieces {
                                prop_assert!(gathered.len() <= piece);
                            }
                            let rows: Vec<RowBatch> = pieces.iter().map(ColBatch::to_rows).collect();
                            prop_assert_eq!(count as usize, reference.iter().map(RowBatch::len).sum::<usize>());
                            prop_assert_eq!(sorted_rows(&rows), sorted_rows(reference));
                        }

                        if stage + 1 < segment.extends.len() {
                            let inputs = dense.iter().flat_map(|b| reshape(b, shape));
                            dense = inputs.map(|b| run_extend_cols(op, b, &c).batch).collect();
                            let inputs = runs.into_iter().flat_map(|b| rechunk(b, cut));
                            runs = inputs.map(|b| run_extend_cols(op, b, &c).batch).collect();
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
                        // The verified runs through the last extend's both
                        // sinks.
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
