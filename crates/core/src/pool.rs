//! The intra-machine worker pool.
//!
//! Each HUGE machine runs a pool of workers (§4.1), spawned once per pool
//! (lazily, on the first parallel workload) and reused by every operator
//! call and segment of a run — no per-batch thread spawning on the hot path.
//!
//! The pool's one operation is the fork-join [`WorkerPool::run`] over a fixed
//! list of work items. A run publishes one borrowed task under the pool's
//! lock and every worker runs it once, taking items as the configured
//! [`LoadBalance`] says: [`LoadBalance::WorkStealing`] (HUGE's default) claims
//! the next item from a shared cursor, so idle workers pick up what is left
//! of the call — the intra-machine half of the paper's two-layer work
//! stealing (§5.3); `None` pins items round-robin (load follows the pivot
//! vertex, as in BENU) and `RegionGroup` in contiguous ranges (RADS' region
//! groups), the Exp-8 comparison points. A run ends when its items are done
//! and no worker is inside its task; it then unpublishes the task, so a
//! worker that wakes late skips it. Concurrent runs are served one at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, LockResult, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::LoadBalance;

/// Item panics are caught while their worker holds its slot; nothing else panics under a lock.
const UNPOISONED: &str = "no pool lock is held across a panic";

/// A run's task, called once by each worker that joins the run with its id.
type Task = &'static (dyn Fn(usize) + Sync);

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

/// What the pool's lock guards.
#[derive(Default)]
struct State {
    /// The task of the run in progress, if any.
    task: Option<Task>,
    /// Number of tasks published so far: a worker runs each one at most once.
    published: u64,
    /// Workers currently inside `task`.
    inside: usize,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes workers: a task was published, or the pool shuts down.
    work: Condvar,
    /// Wakes callers: the last worker left a task, or a run ended.
    idle: Condvar,
}

/// The state lock's guard, poisoned or not: every update of `State` is one
/// field write, valid at every step, and `serve` must not unwind while its
/// task is published.
fn unpoisoned<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Publishes `task`, waits until `finished` reaches `items` with no
    /// worker inside it, and unpublishes it.
    fn serve(&self, task: &(dyn Fn(usize) + Sync), finished: &AtomicUsize, items: usize) {
        // SAFETY: a worker calls the task only between raising and lowering
        // `inside`, both under the lock and only while `state.task` holds it.
        // This function clears `state.task` under the lock once `inside` is
        // zero, so no call outlives the borrow. Nothing in between can
        // unwind: the lock and its waits recover from poisoning.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        let mut state = unpoisoned(self.state.lock());
        while state.task.is_some() {
            state = unpoisoned(self.idle.wait(state));
        }
        state.task = Some(task);
        state.published += 1;
        // Wake the workers with the lock released: they would queue on it.
        drop(state);
        self.work.notify_all();
        let mut state = unpoisoned(self.state.lock());
        // `finished` is raised before its worker lowers `inside` under the
        // lock, so the outputs of every item are visible once this exits.
        while state.inside > 0 || finished.load(Ordering::Acquire) < items {
            state = unpoisoned(self.idle.wait(state));
        }
        state.task = None;
        self.idle.notify_all();
    }
}

fn worker_loop(wid: usize, shared: &Shared, ready: &Barrier) {
    ready.wait();
    let mut seen = 0;
    let mut state = unpoisoned(shared.state.lock());
    while !state.shutdown {
        match state.task {
            Some(task) if state.published != seen => {
                seen = state.published;
                state.inside += 1;
                drop(state);
                task(wid);
                state = unpoisoned(shared.state.lock());
                state.inside -= 1;
                if state.inside == 0 {
                    shared.idle.notify_all();
                }
            }
            _ => state = unpoisoned(shared.work.wait(state)),
        }
    }
}

struct PoolCore {
    shared: Arc<Shared>,
    handles: OnceLock<Vec<JoinHandle<()>>>,
    /// Busy time of each worker, summed over every run.
    busy: Mutex<Vec<Duration>>,
    workers: usize,
    strategy: LoadBalance,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        unpoisoned(self.shared.state.lock()).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.take().into_iter().flatten() {
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
            .field("started", &self.core.handles.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool. Threads are spawned lazily on the first parallel
    /// workload and live until the last pool handle is dropped.
    pub fn new(workers: usize, strategy: LoadBalance) -> Self {
        let workers = workers.max(1);
        WorkerPool {
            core: Arc::new(PoolCore {
                shared: Arc::default(),
                handles: OnceLock::new(),
                busy: Mutex::new(vec![Duration::ZERO; workers]),
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
        self.core.handles.get().map_or(0, Vec::len)
    }

    /// Busy time of each worker, summed over every run of this pool (inline
    /// runs included).
    pub fn busy(&self) -> Vec<Duration> {
        self.core.busy.lock().expect(UNPOISONED).clone()
    }

    /// Spawns the worker threads if they are not running yet.
    fn ensure_started(&self) {
        self.core.handles.get_or_init(|| {
            let ready = Arc::new(Barrier::new(self.core.workers + 1));
            let handles = (0..self.core.workers)
                .map(|wid| {
                    let (shared, ready) = (Arc::clone(&self.core.shared), Arc::clone(&ready));
                    std::thread::Builder::new()
                        .name(format!("huge-worker-{wid}"))
                        .spawn(move || worker_loop(wid, &shared, &ready))
                        .expect("spawn pool worker")
                })
                .collect();
            // Return once every worker runs, so the first run's items are not
            // left to whichever threads happened to start first.
            ready.wait();
            handles
        });
    }

    /// Processes `items` in parallel on the persistent workers; `f(item,
    /// out)` appends its results to `out`. Returns per-worker outputs and
    /// busy times. If any item panics, the panic is re-raised once every
    /// item has run; the pool stays usable.
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
        let n = items.len();
        let mut outputs: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        let mut busy = vec![Duration::ZERO; workers];
        let panicked = if workers == 1 || n <= 1 {
            let start = Instant::now();
            for item in items {
                f(item, &mut outputs[0]);
            }
            busy[0] = start.elapsed();
            false
        } else {
            self.ensure_started();
            let items: Vec<_> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
            let slots: Vec<Mutex<(Vec<T>, Duration)>> =
                (0..workers).map(|_| Mutex::default()).collect();
            let cursor = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            let task = |wid: usize| {
                let start = Instant::now();
                let mut slot = slots[wid].lock().expect(UNPOISONED);
                let mut take = |i: usize| {
                    let item = items[i].lock().expect(UNPOISONED).take();
                    let item = item.expect("each item is claimed once");
                    if catch_unwind(AssertUnwindSafe(|| f(item, &mut slot.0))).is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    finished.fetch_add(1, Ordering::Release);
                };
                match self.core.strategy {
                    LoadBalance::WorkStealing => loop {
                        // The cursor only hands out indices; each item is
                        // published by its own mutex.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        take(i);
                    },
                    LoadBalance::None => (wid..n).step_by(workers).for_each(take),
                    LoadBalance::RegionGroup => {
                        let region_start = |w: usize| (w * n).div_ceil(workers);
                        (region_start(wid)..region_start(wid + 1)).for_each(take)
                    }
                }
                slot.1 += start.elapsed();
            };
            self.core.shared.serve(&task, &finished, n);
            for (wid, slot) in slots.into_iter().enumerate() {
                (outputs[wid], busy[wid]) = slot.into_inner().expect(UNPOISONED);
            }
            failed.into_inner()
        };
        let mut totals = self.core.busy.lock().expect(UNPOISONED);
        for (total, d) in totals.iter_mut().zip(&busy) {
            *total += *d;
        }
        drop(totals);
        if panicked {
            panic!("worker panicked");
        }
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
        // One expensive item plus many cheap ones: with stealing the cheap
        // items migrate to the idle workers. The expensive item holds its
        // worker until a cheap one has run on another thread — under a 30 s
        // watchdog — so the interleaving is forced, not timed.
        let pool = WorkerPool::new(4, LoadBalance::WorkStealing);
        let cheap_threads = Mutex::new(Vec::new());
        let mut items = vec![0u64];
        items.extend(std::iter::repeat_n(1, 63));
        let run = pool.run(items, |item, out: &mut Vec<u64>| {
            let me = std::thread::current().id();
            if item == 1 {
                cheap_threads.lock().unwrap().push(me);
            } else {
                let watchdog = Instant::now() + Duration::from_secs(30);
                while !cheap_threads.lock().unwrap().iter().any(|&t| t != me) {
                    assert!(
                        Instant::now() < watchdog,
                        "no cheap item ran elsewhere in 30 s"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            out.push(item);
        });
        let produced: usize = run.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(produced, 64);
        // Every worker should have produced something (the cheap items are
        // spread out even though one worker holds the expensive one).
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
    fn pool_busy_sums_every_run_inline_runs_included() {
        let pool = WorkerPool::new(2, LoadBalance::WorkStealing);
        let nap = |_: u32, _: &mut Vec<()>| std::thread::sleep(Duration::from_millis(5));
        let runs = [pool.run(vec![0], nap), pool.run(vec![0, 1, 2, 3], nap)];
        let per_run: Duration = runs.iter().flat_map(|r| r.busy.iter()).sum();
        let total: Duration = pool.busy().iter().sum();
        assert_eq!(total, per_run);
        assert!(total >= Duration::from_millis(25));
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
    fn pinned_items_run_on_distinct_workers_at_once() {
        // The baselines rely on this: under `LoadBalance::None`, k items on a
        // k-worker pool meet at a rendezvous, which deadlocks if two of them
        // share a worker.
        let k = 4;
        let pool = WorkerPool::new(k, LoadBalance::None);
        let (done, watchdog) = std::sync::mpsc::channel();
        let runner = pool.clone();
        let caller = std::thread::spawn(move || {
            let barrier = Barrier::new(k);
            let run = runner.run((0..k).collect(), |i, out| {
                barrier.wait();
                out.push(i);
            });
            let _ = done.send(run.outputs);
        });
        let outputs = watchdog
            .recv_timeout(Duration::from_secs(30))
            .expect("pinned items deadlocked at the barrier");
        caller.join().unwrap();
        // Each item ran on the worker it is pinned to.
        for (wid, out) in outputs.iter().enumerate() {
            assert_eq!(out, &vec![wid]);
        }
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
