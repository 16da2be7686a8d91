//! The intra-machine worker pool.
//!
//! Each HUGE machine runs a pool of workers (§4.1). Workers are *persistent*:
//! they are spawned once per pool (lazily, on the first parallel workload)
//! and then reused across every operator invocation and segment of a run —
//! no per-batch thread spawning on the hot path. Idle workers park on a
//! condvar and are woken by submissions.
//!
//! Work distribution follows the configured [`LoadBalance`] strategy: every
//! worker owns a lock-free Chase–Lev deque fed from a small per-worker inbox,
//! and with [`LoadBalance::WorkStealing`] (HUGE's default) idle workers steal
//! from their siblings' deques and inboxes — the intra-machine half of the
//! paper's two-layer work stealing (§5.3). `None` pins items round-robin with
//! no stealing (load follows the pivot vertex, as in BENU) and `RegionGroup`
//! pins contiguous ranges (RADS' region groups), reproducing the Exp-8
//! comparison points.
//!
//! The low-level interface is epoch-based: [`WorkerPool::begin_epoch`] /
//! [`WorkerPool::submit`] / [`WorkerPool::join_epoch`]. Epochs from multiple
//! threads may overlap freely; each tracks only its own jobs. The high-level
//! [`WorkerPool::run`] used by the operators is built on top of it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::deque::{Steal, Stealer, Worker};

use crate::config::LoadBalance;

/// A unit of work: receives the id of the worker executing it.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// Output of a pool run: the items produced by each worker and how long each
/// worker stayed busy.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Items produced, grouped by the worker that executed them.
    pub outputs: Vec<Vec<T>>,
    /// Busy time of each worker.
    pub busy: Vec<Duration>,
}

impl<T> PoolRun<T> {
    /// Flattens the per-worker outputs into one vector.
    pub fn into_flat(self) -> Vec<T> {
        self.outputs.into_iter().flatten().collect()
    }
}

/// Tracks one batch of submitted jobs so the submitter can wait for exactly
/// its own work (epochs from different threads may overlap on one pool).
pub struct Epoch {
    inner: Arc<EpochInner>,
}

struct EpochInner {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
    busy_nanos: Vec<AtomicU64>,
}

impl Epoch {
    fn new(workers: usize) -> Self {
        Epoch {
            inner: Arc::new(EpochInner {
                remaining: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
                busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// Busy time accumulated per worker while executing this epoch's jobs.
    pub fn busy(&self) -> Vec<Duration> {
        self.inner
            .busy_nanos
            .iter()
            .map(|n| Duration::from_nanos(n.load(Ordering::Relaxed)))
            .collect()
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    /// Targeted submissions, drained by each worker into its own deque.
    inboxes: Vec<Mutex<VecDeque<Job>>>,
    /// Stealers over every worker's Chase–Lev deque.
    stealers: Vec<Stealer<Job>>,
    /// Whether idle workers may steal from siblings.
    allow_steal: bool,
    /// Submission generation; bumped under the lock so sleepers never miss a
    /// wake-up (a worker only waits while the generation is unchanged since
    /// it last found no work).
    generation: Mutex<u64>,
    work_available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn bump_and_notify(&self) {
        {
            let mut generation = self.generation.lock().unwrap();
            *generation = generation.wrapping_add(1);
        }
        self.work_available.notify_all();
    }

    /// One steal attempt over the siblings of `wid` (deques first, then the
    /// back of their inboxes).
    fn try_steal(&self, wid: usize) -> Option<Job> {
        let n = self.stealers.len();
        for offset in 1..n {
            let victim = (wid + offset) % n;
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            if let Some(job) = self.inboxes[victim].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(wid: usize, local: Worker<Job>, shared: Arc<PoolShared>) {
    loop {
        // 1. Own deque (LIFO: best cache locality for freshly split work).
        if let Some(job) = local.pop() {
            job(wid);
            continue;
        }
        // 2. Refill the deque from the inbox of targeted submissions.
        let refilled = {
            let mut inbox = shared.inboxes[wid].lock().unwrap();
            let had = !inbox.is_empty();
            for job in inbox.drain(..) {
                local.push(job);
            }
            had
        };
        if refilled {
            continue;
        }
        // 3. Steal from siblings (work-stealing strategy only).
        if shared.allow_steal {
            if let Some(job) = shared.try_steal(wid) {
                job(wid);
                continue;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // 4. Park until the next submission. Reading the generation *before*
        // the (failed) work checks above would race; instead re-check: any
        // submission completed before we read `generation` here is visible
        // in the queues, and any later one changes the generation.
        let seen = *shared.generation.lock().unwrap();
        let has_work = !shared.inboxes[wid].lock().unwrap().is_empty()
            || (shared.allow_steal && shared.stealers.iter().any(|s| !s.is_empty()));
        if has_work {
            continue;
        }
        let mut generation = shared.generation.lock().unwrap();
        while *generation == seen && !shared.shutdown.load(Ordering::Acquire) {
            generation = shared.work_available.wait(generation).unwrap();
        }
    }
}

struct PoolCore {
    shared: Arc<PoolShared>,
    /// Worker-owned deques, handed to the threads on first start.
    seeds: Mutex<Vec<Worker<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicBool,
    threads_spawned: AtomicUsize,
    workers: usize,
    strategy: LoadBalance,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bump_and_notify();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A pool of `workers` persistent intra-machine workers. Cloning shares the
/// same workers; the threads shut down when the last handle is dropped.
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.core.workers)
            .field("strategy", &self.core.strategy)
            .field("started", &self.core.started.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool. Threads are spawned lazily on the first parallel
    /// workload and live until the last pool handle is dropped.
    pub fn new(workers: usize, strategy: LoadBalance) -> Self {
        let workers = workers.max(1);
        let seeds: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = seeds.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(PoolShared {
            inboxes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            stealers,
            allow_steal: strategy == LoadBalance::WorkStealing,
            generation: Mutex::new(0),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        WorkerPool {
            core: Arc::new(PoolCore {
                shared,
                seeds: Mutex::new(seeds),
                handles: Mutex::new(Vec::new()),
                started: AtomicBool::new(false),
                threads_spawned: AtomicUsize::new(0),
                workers,
                strategy,
            }),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Total worker threads spawned over the pool's lifetime. Stays equal to
    /// [`WorkerPool::workers`] no matter how many batches run — the
    /// regression handle for "workers are created once and reused".
    pub fn threads_spawned(&self) -> usize {
        self.core.threads_spawned.load(Ordering::SeqCst)
    }

    /// Spawns the worker threads if they are not running yet.
    fn ensure_started(&self) {
        if self.core.started.load(Ordering::Acquire) {
            return;
        }
        let mut seeds = self.core.seeds.lock().unwrap();
        if self.core.started.load(Ordering::Acquire) {
            return;
        }
        let mut handles = self.core.handles.lock().unwrap();
        for (wid, local) in seeds.drain(..).enumerate() {
            let shared = Arc::clone(&self.core.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("huge-worker-{wid}"))
                    .spawn(move || worker_loop(wid, local, shared))
                    .expect("spawn pool worker"),
            );
            self.core.threads_spawned.fetch_add(1, Ordering::SeqCst);
        }
        self.core.started.store(true, Ordering::Release);
    }

    /// Starts a new epoch. Epochs from different threads may overlap.
    pub fn begin_epoch(&self) -> Epoch {
        Epoch::new(self.core.workers)
    }

    /// Submits a job to the worker `target % workers` (any idle worker may
    /// steal it under [`LoadBalance::WorkStealing`]). The job runs on a pool
    /// thread; [`WorkerPool::join_epoch`] waits for it.
    pub fn submit(&self, epoch: &Epoch, target: usize, job: impl FnOnce(usize) + Send + 'static) {
        self.ensure_started();
        // SAFETY: the job is already `'static`.
        unsafe { self.submit_erased(epoch, target, Box::new(job)) };
        self.core.shared.bump_and_notify();
    }

    /// Submits a job whose borrows the caller promises outlive the epoch.
    ///
    /// # Safety
    /// The caller must call [`WorkerPool::join_epoch`] on `epoch` before any
    /// data borrowed by `job` goes out of scope (including on panic paths).
    unsafe fn submit_erased(
        &self,
        epoch: &Epoch,
        target: usize,
        job: Box<dyn FnOnce(usize) + Send + '_>,
    ) {
        let job: Job = std::mem::transmute::<Box<dyn FnOnce(usize) + Send + '_>, Job>(job);
        {
            let mut remaining = epoch.inner.remaining.lock().unwrap();
            *remaining += 1;
        }
        let tracker = Arc::clone(&epoch.inner);
        let wrapped: Job = Box::new(move |wid| {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| job(wid)));
            tracker.busy_nanos[wid].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if outcome.is_err() {
                tracker.panicked.store(true, Ordering::SeqCst);
            }
            let mut remaining = tracker.remaining.lock().unwrap();
            *remaining -= 1;
            if *remaining == 0 {
                tracker.done.notify_all();
            }
        });
        let wid = target % self.core.workers;
        self.core.shared.inboxes[wid]
            .lock()
            .unwrap()
            .push_back(wrapped);
    }

    /// Blocks until every job submitted under `epoch` has finished, then
    /// returns the per-worker busy times. Panics (propagating) if any job
    /// panicked.
    pub fn join_epoch(&self, epoch: Epoch) -> Vec<Duration> {
        {
            let mut remaining = epoch.inner.remaining.lock().unwrap();
            while *remaining > 0 {
                remaining = epoch.inner.done.wait(remaining).unwrap();
            }
        }
        if epoch.inner.panicked.load(Ordering::SeqCst) {
            panic!("worker panicked");
        }
        epoch.busy()
    }

    /// Processes `items` in parallel on the persistent workers; `f(item,
    /// out)` appends its results to `out`. Returns per-worker outputs and
    /// busy times.
    ///
    /// Falls back to inline execution when there is a single worker or a
    /// single item (no cross-thread hand-off for tiny batches).
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> PoolRun<T>
    where
        I: Send,
        T: Send,
        F: Fn(I, &mut Vec<T>) + Sync,
    {
        let workers = self.core.workers;
        if workers == 1 || items.len() <= 1 {
            let start = Instant::now();
            let mut out = Vec::new();
            for item in items {
                f(item, &mut out);
            }
            let mut busy = vec![Duration::ZERO; workers];
            busy[0] = start.elapsed();
            let mut outputs: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
            outputs[0] = out;
            return PoolRun { outputs, busy };
        }

        self.ensure_started();
        let epoch = self.begin_epoch();
        let outputs: Vec<Mutex<Vec<T>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let n = items.len();
        {
            let f = &f;
            let outputs = &outputs;
            for (idx, item) in items.into_iter().enumerate() {
                let target = match self.core.strategy {
                    // Round-robin: even static split.
                    LoadBalance::WorkStealing | LoadBalance::None => idx % workers,
                    // Contiguous region groups.
                    LoadBalance::RegionGroup => (idx * workers / n).min(workers - 1),
                };
                // Each worker executes one job at a time, so the lock on its
                // own output slot is uncontended.
                let job = move |wid: usize| {
                    let mut slot = outputs[wid].lock().unwrap();
                    f(item, &mut slot);
                };
                // SAFETY: `join_epoch` below returns only after every job
                // ran, so the borrows of `f` and `outputs` stay valid; a
                // worker panic is recorded and re-raised by `join_epoch`
                // after the epoch fully drains.
                unsafe { self.submit_erased(&epoch, target, Box::new(job)) };
            }
        }
        self.core.shared.bump_and_notify();
        let busy = self.join_epoch(epoch);
        let outputs = outputs
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_default())
            .collect();
        PoolRun { outputs, busy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_items_processed_once() {
        let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
        let items: Vec<u32> = (0..1000).collect();
        let run = pool.run(items, |x, out| out.push(x * 2));
        let mut flat = run.into_flat();
        flat.sort_unstable();
        assert_eq!(flat.len(), 1000);
        assert_eq!(flat[0], 0);
        assert_eq!(flat[999], 1998);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1, LoadBalance::WorkStealing);
        let run = pool.run(vec![1, 2, 3], |x, out| out.push(x + 1));
        assert_eq!(run.outputs.len(), 1);
        assert_eq!(run.outputs[0], vec![2, 3, 4]);
        assert_eq!(run.busy.len(), 1);
        // The inline fast path never needs threads.
        assert_eq!(pool.threads_spawned(), 0);
    }

    #[test]
    fn stealing_balances_skewed_items() {
        // One very expensive item plus many cheap ones: with stealing the
        // cheap items migrate to the idle workers.
        let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
        let mut items: Vec<u64> = vec![2_000_000];
        items.extend(std::iter::repeat_n(20_000, 63));
        let run = pool.run(items, |iters, out: &mut Vec<u64>| {
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_add(i ^ (acc << 1));
            }
            out.push(acc);
        });
        let produced: usize = run.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(produced, 64);
        // Every worker should have produced something (the cheap items are
        // spread out even though worker 0 holds the expensive one).
        assert!(run.outputs.iter().filter(|o| !o.is_empty()).count() >= 2);
    }

    #[test]
    fn no_steal_mode_keeps_assignment() {
        let pool = WorkerPool::new(2, LoadBalance::None);
        let items: Vec<u32> = (0..10).collect();
        let run = pool.run(items, |x, out| out.push(x));
        // Round-robin assignment: worker 0 gets evens, worker 1 gets odds;
        // without stealing each output holds exactly its own share.
        assert_eq!(run.outputs[0].len(), 5);
        assert_eq!(run.outputs[1].len(), 5);
        assert!(run.outputs[0].iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn region_group_mode_assigns_contiguously() {
        let pool = WorkerPool::new(2, LoadBalance::RegionGroup);
        let items: Vec<u32> = (0..10).collect();
        let run = pool.run(items, |x, out| out.push(x));
        assert_eq!(run.outputs[0].len() + run.outputs[1].len(), 10);
        // Worker 0's items are all smaller than worker 1's.
        let max0 = run.outputs[0].iter().max().copied().unwrap_or(0);
        let min1 = run.outputs[1].iter().min().copied().unwrap_or(u32::MAX);
        assert!(max0 < min1);
    }

    #[test]
    fn busy_times_reported_for_every_worker() {
        let pool = WorkerPool::new(3, LoadBalance::WorkStealing);
        let run = pool.run((0..30).collect::<Vec<u32>>(), |x, out| out.push(x));
        assert_eq!(run.busy.len(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
        let run = pool.run(Vec::<u32>::new(), |x, out| out.push(x));
        assert_eq!(run.into_flat().len(), 0);
    }

    #[test]
    fn workers_are_reused_across_runs() {
        let pool = WorkerPool::new(3, LoadBalance::WorkStealing);
        for round in 0..50 {
            let items: Vec<u32> = (0..64).collect();
            let run = pool.run(items, |x, out| out.push(x + round));
            assert_eq!(run.into_flat().len(), 64);
        }
        assert_eq!(pool.threads_spawned(), 3);
    }

    #[test]
    fn explicit_epochs_track_only_their_jobs() {
        let pool = WorkerPool::new(2, LoadBalance::WorkStealing);
        let counter = Arc::new(AtomicUsize::new(0));
        let first = pool.begin_epoch();
        for i in 0..10 {
            let counter = Arc::clone(&counter);
            pool.submit(&first, i, move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let second = pool.begin_epoch();
        for i in 0..5 {
            let counter = Arc::clone(&counter);
            pool.submit(&second, i, move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join_epoch(first);
        pool.join_epoch(second);
        assert_eq!(counter.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn worker_panic_propagates_at_join() {
        let pool = WorkerPool::new(2, LoadBalance::WorkStealing);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![1u32, 2, 3, 4], |x, _out: &mut Vec<u32>| {
                if x == 3 {
                    panic!("boom");
                }
            })
        }));
        assert!(outcome.is_err());
        // The pool stays usable after a panicked epoch.
        let run = pool.run(vec![1u32, 2, 3, 4], |x, out| out.push(x));
        assert_eq!(run.into_flat().len(), 4);
    }
}
