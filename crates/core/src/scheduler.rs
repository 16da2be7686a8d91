//! Scheduling primitives: the bounded queues of the BFS/DFS-adaptive
//! scheduler (§5.2), the cross-machine per-segment state, and the readiness
//! policy of the per-machine dataflow scheduler.
//!
//! A segment's chain has three operators — source, the nest of its extends,
//! terminal — and two scheduled queues of one capacity (`output_queue_rows`,
//! as the governor sets it): the head queue from the source to the nest and
//! the terminal queue from the nest to the terminal ([`SegmentQueues`]). The
//! adaptive scheduler (Algorithm 5, implemented in [`crate::machine`]) keeps
//! feeding an operator as long as its output queue has room, yields to the
//! successor when the queue fills (BFS-like behaviour under low memory
//! pressure degrades gracefully to DFS-like behaviour under high pressure;
//! `usize::MAX` rows is BFS, one row DFS), and backtracks when inputs drain.
//! Because queues are shared, idle machines can also steal whole batches from
//! a remote machine's queues — the inter-machine half of work stealing.
//!
//! # The memory bound (Theorem 5.4)
//!
//! A gathering nest's work item that finds the terminal queue full — at its
//! start or after a push of its own — takes no further row at any level and
//! leaves the rest of each level's input in that level's queue; the
//! scheduler runs those first, deepest first. These *level queues* are the
//! per-extend queues of Algorithm 5 under another name, but only a stopped
//! nest fills them. A row's candidates are written whole, so the rest of
//! the row whose candidates filled a piece lands in the next level's queue
//! too. With capacity `Q`, batch size `B`, `W` workers and `F` the most
//! rows one row makes at the level above a queue (its candidates, at most
//! the largest degree; one at a verify level), one machine's chain holds
//! tracked at most
//!
//! * `Q + B` rows in the head queue (a queue overflows by one batch);
//! * `W·(B + F)` rows in each deeper level's queue: per worker, the rest of
//!   the piece it was running there and the rest of that one row; and
//! * `Q + W·(B + F)` rows in the terminal queue: per worker, the piece
//!   whose push found it full and the rest of that one row.
//!
//! Untracked, each worker holds at most depth × `B` rows in its pieces. A
//! counting nest queues nothing but the head's input.
//! `operators::tests::a_stopped_nest_leaves_each_queue_within_its_term`
//! checks each term after every call.
//!
//! # Cross-segment readiness
//!
//! Each machine thread drives *all* segments of the dataflow through a small
//! state machine (not started → draining → done, in [`crate::machine`]) and
//! picks what to run next by readiness:
//!
//! * a **scan** segment is always runnable;
//! * a **join** segment becomes runnable once its *right* (build) producer
//!   has been finished by *every* machine — tracked by the per-segment
//!   [`SegmentShared::remaining`] counter, which doubles as the end-of-stream
//!   signal for the shuffle envelopes demultiplexed by the router. It probes
//!   left rows as they arrive; its source is exhausted only once the *left*
//!   producer is released too, and the left side sealed.
//!
//! There is no barrier between segments unless `pipeline_segments` is off,
//! and then the barrier is a stricter readiness rule in the same loop, not a
//! second driver: a segment is runnable only once *every earlier* segment is
//! released by every machine ([`RunShared::barrier_open`]).
//!
//! Among the runnable segments the scheduler prefers the *deepest* one
//! (highest id, closest to the sink): draining consumers first bounds the
//! intermediate memory exactly like the intra-segment DFS bias of Algorithm 5
//! (the paper's Exp-7 argument), per batch: a producer's chain hands the
//! thread back whenever a deeper join's intake of left rows is full. A
//! producer blocked on shuffle backpressure never deadlocks: it absorbs its
//! own inbox in full and runs the segments deeper than it while it waits,
//! so the machines it is pushing to always eventually drain it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use huge_comm::ColBatch;
use parking_lot::Mutex;

use crate::memory::MemoryTracker;
use crate::operators::{Gather, ScanPool};

/// A shared, capacity-aware queue of columnar batches.
///
/// The capacity is *soft*: the producing operator checks [`SharedQueue::is_full`]
/// after each batch (the paper lets a queue overflow by at most the results
/// of one batch, which is what makes the memory bound `O(|V_q| · D_G)` per
/// operator rather than zero-overflow-but-deadlock-prone).
pub struct SharedQueue {
    batches: Mutex<VecDeque<ColBatch>>,
    rows: AtomicUsize,
    /// The *effective* row capacity. Queues created through
    /// [`SharedQueue::governed`] share one handle per machine, so the memory
    /// governor can shrink/grow every queue of a machine with a single
    /// store; [`SharedQueue::new`] wraps a private handle for the static
    /// case.
    capacity_rows: Arc<AtomicUsize>,
    memory: Option<Arc<MemoryTracker>>,
}

impl SharedQueue {
    /// Creates a queue with a fixed row capacity.
    pub fn new(capacity_rows: usize, memory: Option<Arc<MemoryTracker>>) -> Self {
        SharedQueue::governed(Arc::new(AtomicUsize::new(capacity_rows)), memory)
    }

    /// Creates a queue whose effective capacity is read from a shared,
    /// runtime-adjustable handle (the memory governor's actuator for
    /// operator output queues).
    pub fn governed(capacity_rows: Arc<AtomicUsize>, memory: Option<Arc<MemoryTracker>>) -> Self {
        SharedQueue {
            batches: Mutex::new(VecDeque::new()),
            rows: AtomicUsize::new(0),
            capacity_rows,
            memory,
        }
    }

    /// The current effective row capacity.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows.load(Ordering::Relaxed)
    }

    /// Number of rows currently queued.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Number of batches currently queued.
    pub fn len(&self) -> usize {
        self.batches.lock().len()
    }

    /// `true` when no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// `true` when the queue has reached (or overflowed) its capacity.
    pub fn is_full(&self) -> bool {
        self.rows() >= self.capacity_rows()
    }

    /// Enqueues a batch (always succeeds; capacity is checked by the caller
    /// after the fact, per the paper's "overflow by at most one batch").
    pub fn push(&self, batch: ColBatch) {
        if batch.is_empty() {
            return;
        }
        if let Some(m) = &self.memory {
            m.allocate(batch.byte_size());
        }
        self.rows.fetch_add(batch.len(), Ordering::Relaxed);
        self.batches.lock().push_back(batch);
    }

    /// Dequeues the oldest batch.
    pub fn pop(&self) -> Option<ColBatch> {
        let batch = self.batches.lock().pop_front();
        if let Some(b) = &batch {
            self.rows.fetch_sub(b.len(), Ordering::Relaxed);
            if let Some(m) = &self.memory {
                m.release(b.byte_size());
            }
        }
        batch
    }

    /// Steals up to half of the queued batches (from the back) directly into
    /// `dest`, transferring the memory accounting with them: each batch is
    /// registered against the destination's tracker *before* it is released
    /// from this queue's, so the cluster-wide sum of `current()` never
    /// undercounts the data actually held mid-steal. Returns the number of
    /// batches and bytes moved.
    pub fn steal_into(&self, dest: &SharedQueue) -> (u64, u64) {
        let stolen = {
            let mut guard = self.batches.lock();
            let take = guard.len() / 2;
            let mut stolen = Vec::with_capacity(take);
            for _ in 0..take {
                if let Some(b) = guard.pop_back() {
                    self.rows.fetch_sub(b.len(), Ordering::Relaxed);
                    stolen.push(b);
                }
            }
            stolen
        };
        let mut batches = 0u64;
        let mut bytes = 0u64;
        for b in stolen {
            let size = b.byte_size();
            batches += 1;
            bytes += size;
            // `push` allocates against the destination's tracker; only then
            // release the hand-off from ours.
            dest.push(b);
            if let Some(m) = &self.memory {
                m.release(size);
            }
        }
        (batches, bytes)
    }
}

/// The queues of one machine for one segment: the input of each level of
/// the chain's nest, and the terminal's. The first level's is the *head
/// queue*, what the source made; a deeper level's holds only what a nest
/// call left of that level's input when the terminal queue filled. A chain
/// without extends has no levels: its source feeds the terminal queue.
pub struct SegmentQueues {
    /// The input queue of each level of the nest, the head queue first.
    pub levels: Vec<SharedQueue>,
    /// What the nest gathered, or what the source made without a nest.
    pub terminal: SharedQueue,
}

impl SegmentQueues {
    /// Creates the queues of a nest of `levels` levels with the given
    /// (fixed) row capacity.
    pub fn new(levels: usize, capacity_rows: usize, memory: Option<Arc<MemoryTracker>>) -> Self {
        SegmentQueues::governed(levels, Arc::new(AtomicUsize::new(capacity_rows)), memory)
    }

    /// Creates the queues of a nest of `levels` levels sharing one
    /// runtime-adjustable capacity handle (see [`SharedQueue::governed`]).
    pub fn governed(
        levels: usize,
        capacity_rows: Arc<AtomicUsize>,
        memory: Option<Arc<MemoryTracker>>,
    ) -> Self {
        let queue = || SharedQueue::governed(Arc::clone(&capacity_rows), memory.clone());
        SegmentQueues {
            levels: (0..levels).map(|_| queue()).collect(),
            terminal: queue(),
        }
    }

    /// The queue the source feeds: the head queue, or the terminal queue of
    /// a chain without extends.
    pub fn fed_by_source(&self) -> &SharedQueue {
        self.levels.first().unwrap_or(&self.terminal)
    }

    /// The nest's next input batch and the level it enters at: what a nest
    /// call left, deepest level first, before the head queue's next batch.
    pub fn pop_deepest(&self) -> Option<(usize, ColBatch)> {
        let mut deepest = self.levels.iter().enumerate().rev();
        deepest.find_map(|(level, queue)| Some((level, queue.pop()?)))
    }

    /// Where a nest call that starts at level `from` gathers.
    pub fn gather(&self, from: usize) -> Gather<'_> {
        (&self.levels[from..], &self.terminal)
    }

    /// Every queue, the head queue first.
    pub fn all(&self) -> impl Iterator<Item = &SharedQueue> {
        self.levels.iter().chain([&self.terminal])
    }
}

/// Cross-machine shared state of one segment: every machine's stealable scan
/// pool and two queues, plus the counters of the termination protocol.
/// Pre-built for *all* segments before any machine thread starts, so the
/// scheduler never synchronises to set up a segment.
pub struct SegmentShared {
    /// One scan pool per machine (empty for join segments).
    pub scan_pools: Vec<ScanPool>,
    /// The two queues of each machine.
    pub queues: Vec<Arc<SegmentQueues>>,
    /// Idle flags of the work-stealing termination protocol: a machine sets
    /// its flag once its own work is drained and nothing is stealable, and
    /// finishes the segment when every flag is set — then no chain can run
    /// and no envelope can still be produced (work for a segment only comes
    /// from stealing existing work). Scan segments steal scan chunks and
    /// queued batches; join segments steal sealed Grace partitions over the
    /// router's control plane, and never advertise idleness while a
    /// `PartitionShip` they solicited could be in flight. No-stealing
    /// configurations never set the flags and rely on `remaining` alone.
    pub idle: Vec<AtomicBool>,
    /// Machines that have not yet finished this segment. Reaching zero is the
    /// segment's end-of-stream signal: every machine has executed (and
    /// flushed the shuffle output of) the segment, so a consuming join may
    /// absorb the last envelopes and seal the side the segment feeds.
    pub remaining: AtomicUsize,
}

impl SegmentShared {
    /// `true` once every machine has settled its `remaining` slot — the
    /// segment's end-of-stream. It never consults the idle flags, which only
    /// end the stealing among machines that are still inside the segment.
    pub fn released(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }
}

/// Cross-machine shared state of one whole run: the per-segment state plus
/// the run-wide abort flag.
pub struct RunShared {
    /// Per-segment shared state, indexed by segment id.
    pub segments: Vec<SegmentShared>,
    /// Set when any machine fails (or panics) anywhere in the run: peers
    /// blocked on backpressure, stealing or readiness waits bail out instead
    /// of waiting for a machine that will never make progress. An abort
    /// fails the *whole run*, not one segment.
    pub aborted: AtomicBool,
    /// The run's cooperative cancellation token (explicit cancel and the
    /// configured deadline). Machines poll it at batch granularity alongside
    /// the abort flag; unlike an abort, a fired token makes each machine
    /// unwind with a typed `Cancelled`/`DeadlineExceeded` error.
    pub cancel: crate::cancel::CancelToken,
}

impl RunShared {
    /// Builds the run state for `segments` segment slots (the per-segment
    /// contents are supplied by the cluster, which knows pools and queues).
    pub fn new(segments: Vec<SegmentShared>, cancel: crate::cancel::CancelToken) -> Self {
        RunShared {
            segments,
            aborted: AtomicBool::new(false),
            cancel,
        }
    }

    /// Polls the cancellation token, surfacing the typed error once it
    /// fires. The single check every cooperative loop runs per batch.
    pub fn check_cancel(&self) -> crate::Result<()> {
        self.cancel.check()
    }

    /// Flags the run as failed.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// `true` when some machine failed.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// The readiness policy: a segment may start once every segment in
    /// `dependencies` is released — every machine settled its slot, which it
    /// does the moment it finishes the segment. The machine passes a join's
    /// right producer (scan segments wait for nothing and are always ready).
    pub fn ready(&self, dependencies: &[usize]) -> bool {
        dependencies.iter().all(|&d| self.segments[d].released())
    }

    /// The barriered readiness policy (`pipeline_segments(false)`): segment
    /// `idx` may start only once *every earlier* segment is released by every
    /// machine, dependency or not. Segments are numbered producers-first, so
    /// an open barrier implies [`RunShared::ready`].
    pub fn barrier_open(&self, idx: usize) -> bool {
        self.segments[..idx].iter().all(SegmentShared::released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> ColBatch {
        ColBatch::from_columns(vec![(0..n as u32).collect()])
    }

    #[test]
    fn push_pop_fifo() {
        let q = SharedQueue::new(100, None);
        q.push(batch(3));
        q.push(batch(5));
        assert_eq!(q.rows(), 8);
        assert_eq!(q.len(), 2);
        let first = q.pop().unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(q.rows(), 5);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_detection() {
        let q = SharedQueue::new(10, None);
        assert!(!q.is_full());
        q.push(batch(6));
        assert!(!q.is_full());
        q.push(batch(6));
        assert!(q.is_full());
        assert_eq!(q.capacity_rows(), 10);
    }

    #[test]
    fn governed_capacity_is_shared_and_adjustable() {
        let handle = Arc::new(AtomicUsize::new(100));
        let queues = SegmentQueues::governed(1, Arc::clone(&handle), None);
        queues.levels[0].push(batch(10));
        assert!(!queues.levels[0].is_full());
        // One store shrinks every queue behind the handle.
        handle.store(5, Ordering::Relaxed);
        assert!(queues.levels[0].is_full());
        assert!(!queues.terminal.is_full());
        assert_eq!(queues.terminal.capacity_rows(), 5);
        // Growing re-opens the queue without draining it.
        handle.store(50, Ordering::Relaxed);
        assert!(!queues.levels[0].is_full());
    }

    #[test]
    fn empty_batches_are_ignored() {
        let q = SharedQueue::new(10, None);
        q.push(ColBatch::new(2));
        assert!(q.is_empty());
    }

    #[test]
    fn memory_is_tracked() {
        let tracker = Arc::new(MemoryTracker::new());
        let q = SharedQueue::new(100, Some(Arc::clone(&tracker)));
        q.push(batch(10));
        assert_eq!(tracker.current(), 40);
        q.pop();
        assert_eq!(tracker.current(), 0);
        assert_eq!(tracker.peak(), 40);
    }

    #[test]
    fn steal_into_takes_from_the_back() {
        let q = SharedQueue::new(1000, None);
        for i in 1..=4 {
            q.push(batch(i));
        }
        let dest = SharedQueue::new(1000, None);
        let (batches, bytes) = q.steal_into(&dest);
        assert_eq!(batches, 2);
        assert_eq!(bytes, (4 + 3) * 4);
        // The back batches (largest in this construction) are stolen.
        assert_eq!(dest.pop().unwrap().len(), 4);
        assert_eq!(dest.pop().unwrap().len(), 3);
        assert_eq!(q.rows(), 1 + 2);
    }

    #[test]
    fn steal_into_conserves_memory_accounting() {
        let victim_tracker = Arc::new(MemoryTracker::new());
        let thief_tracker = Arc::new(MemoryTracker::new());
        let victim = SharedQueue::new(1000, Some(Arc::clone(&victim_tracker)));
        let thief = SharedQueue::new(1000, Some(Arc::clone(&thief_tracker)));
        for i in 1..=8 {
            victim.push(batch(i));
        }
        let before = victim_tracker.current() + thief_tracker.current();
        victim.steal_into(&thief);
        // Every stolen byte moved from the victim's tracker to the thief's.
        assert_eq!(victim_tracker.current() + thief_tracker.current(), before);
        assert!(thief_tracker.current() > 0);
        while thief.pop().is_some() {}
        while victim.pop().is_some() {}
        assert_eq!(victim_tracker.current() + thief_tracker.current(), 0);
    }

    #[test]
    fn stolen_run_batches_move_the_bytes_they_hold() {
        // Runs of 1..=8 rows under a two-column prefix: 12 bytes a run plus
        // 4 a row, far from the 12 a row of the flattened rows.
        let runs = |n: u32| {
            let prefix = vec![7; n as usize];
            let newest = (0..n * (n + 1) / 2).collect();
            let ends = (1..=n).map(|r| r * (r + 1) / 2).collect();
            ColBatch::from_runs(vec![prefix.clone(), prefix, newest], ends)
        };
        let victim_tracker = Arc::new(MemoryTracker::new());
        let thief_tracker = Arc::new(MemoryTracker::new());
        let victim = SharedQueue::new(1000, Some(Arc::clone(&victim_tracker)));
        let thief = SharedQueue::new(1000, Some(Arc::clone(&thief_tracker)));
        let mut held = 0;
        for n in 1..=8 {
            held += runs(n).byte_size();
            victim.push(runs(n));
        }
        assert_eq!(
            victim.rows(),
            (1..=8).map(|n| n * (n + 1) / 2).sum::<usize>()
        );
        assert_eq!(victim_tracker.current(), held);
        assert!(held < victim.rows() as u64 * 12);
        let (batches, bytes) = victim.steal_into(&thief);
        assert_eq!((batches, bytes), (4, thief_tracker.current()));
        assert_eq!(victim_tracker.current() + thief_tracker.current(), held);
        assert_eq!(victim.rows() + thief.rows(), 120);
        // Stolen batches keep their runs; popping returns every byte.
        while let Some(batch) = thief.pop() {
            assert!(batch.runs() < batch.len());
        }
        while victim.pop().is_some() {}
        assert_eq!(victim_tracker.current() + thief_tracker.current(), 0);
        assert_eq!(victim.rows() + thief.rows(), 0);
    }

    #[test]
    fn readiness_follows_remaining_counters() {
        let seg = |remaining: usize| SegmentShared {
            scan_pools: vec![ScanPool::new(&[], 1)],
            queues: vec![Arc::new(SegmentQueues::new(1, 10, None))],
            idle: vec![AtomicBool::new(false), AtomicBool::new(false)],
            remaining: AtomicUsize::new(remaining),
        };
        let run = RunShared::new(
            vec![seg(0), seg(2), seg(2)],
            crate::cancel::CancelToken::new(),
        );
        // Scan segments (no dependencies) are always ready.
        assert!(run.ready(&[]));
        // A join is ready only once every producer is globally done.
        assert!(run.ready(&[0]));
        assert!(!run.ready(&[0, 1]));
        // Idle flags end the drain dance, never the counter gate.
        run.segments[1].idle[0].store(true, Ordering::SeqCst);
        run.segments[1].idle[1].store(true, Ordering::SeqCst);
        assert!(!run.ready(&[0, 1]));
        assert!(!run.segments[1].released());
        // The barrier gate looks at every earlier segment, not only the
        // dependencies: segment 2 with the single dependency 0 is ready but
        // stays behind the barrier until segment 1 is released too.
        assert!(run.ready(&[0]) && !run.barrier_open(2));
        assert!(run.barrier_open(0) && run.barrier_open(1));
        run.segments[1].remaining.store(0, Ordering::SeqCst);
        assert!(run.ready(&[0, 1]));
        assert!(run.segments[1].released());
        assert!(run.barrier_open(2));
        assert!(!run.is_aborted());
        run.abort();
        assert!(run.is_aborted());
    }

    #[test]
    fn segment_queues() {
        let sq = SegmentQueues::new(2, 10, None);
        let rows = |sq: &SegmentQueues| sq.all().map(SharedQueue::rows).collect::<Vec<_>>();
        assert_eq!(rows(&sq), [0, 0, 0]);
        sq.terminal.push(batch(4));
        assert_eq!(rows(&sq), [0, 0, 4]);
        assert_eq!(sq.gather(1).0.len(), 1);
        assert!(std::ptr::eq(sq.fed_by_source(), &sq.levels[0]));
    }
}
