//! Memory accounting for intermediate results.
//!
//! The paper's Theorem 5.4 bounds the memory a HUGE machine needs for
//! intermediate results to `O(|V_q|² · D_G)`. To make that bound observable
//! (Exp-7 reports memory versus output-queue size), every structure that
//! holds partial results — operator output queues, the pending-input pools,
//! `PUSH-JOIN` buffers — registers its allocations with a per-machine
//! [`MemoryTracker`]; the run report exposes the peak across machines, which
//! is the paper's `M` column.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Tracks current and peak bytes of intermediate results on one machine.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    current: AtomicI64,
    peak: AtomicU64,
    allocations: AtomicU64,
}

impl MemoryTracker {
    /// Creates a tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes`.
    pub fn allocate(&self, bytes: u64) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let now = self.current.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        let now = now.max(0) as u64;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records a release of `bytes`, saturating at zero.
    ///
    /// Releasing more than is currently held is an accounting bug in the
    /// caller: it used to silently drive `current` negative, which distorted
    /// every later peak (allocations had to climb back through the deficit
    /// before the high-water mark moved). Now the deficit is corrected at
    /// release time and flagged with a `debug_assert!`.
    pub fn release(&self, bytes: u64) {
        // A CAS loop (rather than fetch_sub + compensating fetch_add) keeps
        // the saturation atomic: two racing over-releases must not both
        // "correct" the same deficit and leave `current` inflated.
        let mut prev = self.current.load(Ordering::Relaxed);
        loop {
            let after = prev - bytes as i64;
            debug_assert!(
                after >= 0,
                "MemoryTracker::release({bytes}) underflows current ({prev}): over-release"
            );
            match self.current.compare_exchange_weak(
                prev,
                after.max(0),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => prev = observed,
            }
        }
    }

    /// Current bytes held.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed).max(0) as u64
    }

    /// Peak bytes held since creation.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Calls to [`MemoryTracker::allocate`] since creation: what the
    /// accounting itself costs its callers, one contended read-modify-write
    /// pair each.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

/// Router inboxes charge their queued bytes to the owning machine's tracker,
/// so shuffle data in flight counts towards the paper's `M` column.
impl huge_comm::QueueAccounting for MemoryTracker {
    fn allocate(&self, bytes: u64) {
        MemoryTracker::allocate(self, bytes);
    }
    fn release(&self, bytes: u64) {
        MemoryTracker::release(self, bytes);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let t = MemoryTracker::new();
        t.allocate(100);
        t.allocate(200);
        t.release(250);
        t.allocate(10);
        assert_eq!(t.current(), 60);
        assert_eq!(t.peak(), 300);
    }

    #[test]
    fn join_build_charges_the_tracker_once_per_batch() {
        use crate::join::{HashJoiner, JoinSide, MemoryTrackerHandle};
        use huge_plan::translate::JoinOp;

        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0],
            key_right: vec![0],
            right_payload: vec![1],
            filters: vec![],
        };
        let t = Arc::new(MemoryTracker::new());
        let dir = std::env::temp_dir().join(format!("huge-memory-test-{}", std::process::id()));
        // A 1 KiB spill threshold: the second batch trips the spill loop.
        let mut joiner = HashJoiner::new(
            op,
            2,
            2,
            1024,
            dir,
            MemoryTrackerHandle::Tracked(Arc::clone(&t)),
        );
        let keys: Vec<u32> = (0..100).map(|i| 2 * i).collect();
        let payload = |offset: u32| keys.iter().map(|k| k + offset).collect();
        let batch = huge_comm::ColBatch::from_columns(vec![keys.clone(), payload(1)]);
        let bytes = batch.byte_size();
        joiner.add(JoinSide::Left, &batch).unwrap();
        assert_eq!((t.allocations(), t.current(), t.peak()), (1, bytes, bytes));
        // Spilling runs after the whole batch is charged, so the peak is
        // what a row-by-row charge would have reached.
        joiner.add(JoinSide::Left, &batch).unwrap();
        assert_eq!((t.allocations(), t.peak()), (2, 2 * bytes));
        assert!(joiner.spilled() && t.current() <= 1024);
        // The build side (no payload equals a left value): one more batch,
        // one more allocate.
        let right = huge_comm::ColBatch::from_columns(vec![keys.clone(), payload(1_001)]);
        joiner.add(JoinSide::Right, &right).unwrap();
        assert_eq!(t.allocations(), 3);

        // Sealed, with a partition adopted from a peer — 64 × 64 pairs under
        // one key, charged on receipt as the machine does — and a cancel
        // that lands while it is being probed.
        let mut stream = joiner.into_stream(16);
        let cancel = crate::cancel::CancelToken::new();
        stream.set_cancel(cancel.clone());
        let rows = |payload: u32| {
            huge_comm::ColBatch::from_columns(vec![vec![7; 64], (payload..payload + 64).collect()])
        };
        let (left_bytes, shipped_bytes) = (64 * 2 * 4, 2 * 64 * 2 * 4);
        t.allocate(shipped_bytes);
        stream.adopt_partition(rows(1_000), rows(2_000)).unwrap();
        // The spilled local partitions come back, join to 200 rows (every
        // left row arrived twice) and retire one by one.
        let mut counted = 0;
        while counted < 200 {
            counted += stream.count_batch().unwrap().expect("local partitions");
        }
        assert_eq!(stream.count_batch().unwrap(), Some(16));
        // Resident now: the adopted left rows and one payload column (plus
        // its padding) — the build side's key column went with the rows.
        let resident = t.current();
        assert!(
            (left_bytes + 64 * 4..shipped_bytes).contains(&resident),
            "{resident} bytes resident"
        );
        cancel.cancel();
        assert!(matches!(
            stream.count_batch(),
            Err(crate::EngineError::Cancelled(None))
        ));
        assert_eq!(t.current(), resident);
        drop(stream);
        assert_eq!(t.current(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_below_zero_saturates_and_keeps_peaks_honest() {
        let t = MemoryTracker::new();
        t.allocate(10);
        t.release(100);
        assert_eq!(t.current(), 0);
        // An over-release must not distort later peaks: the next allocation
        // starts from zero, not from a hidden negative baseline.
        t.allocate(20);
        assert_eq!(t.current(), 20);
        assert_eq!(t.peak(), 20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-release")]
    fn over_release_is_detected_in_debug() {
        let t = MemoryTracker::new();
        t.allocate(10);
        t.release(100);
    }

    #[test]
    fn concurrent_updates_do_not_lose_peak() {
        let t = Arc::new(MemoryTracker::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.allocate(10);
                        t.release(10);
                    }
                });
            }
        });
        assert!(t.peak() >= 10);
        assert_eq!(t.current(), 0);
    }
}
