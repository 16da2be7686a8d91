//! The least-recent-batch-used (LRBU) cache (Algorithm 3).
//!
//! LRBU tracks three structures: `M_cache` (vertex → adjacency list),
//! `Ŝ_free` (an ordered set of evictable vertices; the smallest order is the
//! eviction victim) and `S_sealed` (vertices pinned by the batch currently
//! being processed). `Seal` moves a vertex from free to sealed, `Release`
//! returns every sealed vertex to the free set with an order *larger* than
//! all existing ones — so eviction always picks a vertex from the least
//! recent batch, never one used by the current batch.
//!
//! # Concurrency & the zero-copy / lock-free claim
//!
//! The paper obtains lock-free, zero-copy reads by pairing LRBU with the
//! two-stage execution of `PULL-EXTEND`: all writes (inserts, seals) happen
//! in the fetch stage through a single writer, and the intersect stage only
//! reads. This Rust implementation keeps the structure behind a
//! `parking_lot::RwLock`, which is the idiomatic safe equivalent: during
//! the intersect stage every access is an uncontended read lock (a single
//! atomic op — no blocking, no copying, the closure borrows the cached
//! slice in place), while the fetch stage's single writer takes the write
//! lock. The Exp-6 comparison points ([`CopyLrbuCache`](crate::CopyLrbuCache),
//! [`LockLrbuCache`](crate::LockLrbuCache),
//! [`ConcurrentLruCache`](crate::ConcurrentLruCache)) add back the copies
//! and exclusive locks that LRBU avoids, so the ablation measures the same
//! effects the paper reports.

use std::collections::{BTreeMap, HashMap};

use huge_graph::VertexId;
use parking_lot::RwLock;

use crate::traits::{AtomicCacheStats, CacheStats, PullCache};

/// Per-entry bookkeeping: the adjacency list plus its position in the free
/// ordering (`None` while sealed).
struct Entry {
    neighbours: Vec<VertexId>,
    /// The order key in `free` when evictable; `None` while sealed.
    free_order: Option<u64>,
}

struct Inner {
    map: HashMap<VertexId, Entry>,
    /// Ŝ_free: order → vertex. The smallest order is evicted first.
    free: BTreeMap<u64, VertexId>,
    /// S_sealed.
    sealed: Vec<VertexId>,
    /// Monotonic order counter (larger = more recent batch).
    next_order: u64,
    /// Current payload bytes.
    bytes: u64,
}

/// The least-recent-batch-used cache.
pub struct LrbuCache {
    inner: RwLock<Inner>,
    capacity_bytes: u64,
    stats: AtomicCacheStats,
}

impl LrbuCache {
    /// Creates an LRBU cache bounded to roughly `capacity_bytes` of
    /// adjacency data.
    pub fn new(capacity_bytes: u64) -> Self {
        LrbuCache {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                free: BTreeMap::new(),
                sealed: Vec::new(),
                next_order: 0,
                bytes: 0,
            }),
            capacity_bytes: capacity_bytes.max(1),
            stats: AtomicCacheStats::default(),
        }
    }

    /// Number of sealed entries (diagnostic; used by tests).
    pub fn sealed_count(&self) -> usize {
        self.inner.read().sealed.len()
    }

    fn entry_bytes(neighbours: &[VertexId]) -> u64 {
        (std::mem::size_of_val(neighbours) + 16) as u64
    }
}

impl PullCache for LrbuCache {
    fn contains(&self, v: VertexId) -> bool {
        self.inner.read().map.contains_key(&v)
    }

    fn read(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> bool {
        let guard = self.inner.read();
        match guard.map.get(&v) {
            Some(entry) => {
                // Zero-copy: the closure borrows the cached slice directly.
                f(&entry.neighbours);
                true
            }
            None => false,
        }
    }

    fn insert(&self, v: VertexId, neighbours: Vec<VertexId>) {
        let mut inner = self.inner.write();
        if inner.map.contains_key(&v) {
            return;
        }
        let new_bytes = Self::entry_bytes(&neighbours);
        // Evict least-recent-batch entries while full and something is free.
        let mut evictions = 0u64;
        while inner.bytes + new_bytes > self.capacity_bytes && !inner.free.is_empty() {
            let (&order, &victim) = inner.free.iter().next().expect("free not empty");
            inner.free.remove(&order);
            if let Some(entry) = inner.map.remove(&victim) {
                inner.bytes -= Self::entry_bytes(&entry.neighbours);
                evictions += 1;
            }
        }
        if evictions > 0 {
            self.stats
                .evictions
                .fetch_add(evictions, std::sync::atomic::Ordering::Relaxed);
        }
        if inner.bytes + new_bytes > self.capacity_bytes {
            // Ŝ_free is empty: the insert proceeds anyway (Algorithm 3 line
            // 6-8) and may overflow the capacity by at most one batch's worth
            // of vertices.
            self.stats
                .overflow_inserts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let order = inner.next_order;
        inner.next_order += 1;
        inner.free.insert(order, v);
        inner.bytes += new_bytes;
        inner.map.insert(
            v,
            Entry {
                neighbours,
                free_order: Some(order),
            },
        );
        self.stats
            .inserts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn seal(&self, v: VertexId) {
        let mut inner = self.inner.write();
        if let Some(entry) = inner.map.get_mut(&v) {
            if let Some(order) = entry.free_order.take() {
                inner.free.remove(&order);
                inner.sealed.push(v);
            }
        }
    }

    fn release(&self) {
        let mut inner = self.inner.write();
        let sealed = std::mem::take(&mut inner.sealed);
        for v in sealed {
            let order = inner.next_order;
            inner.next_order += 1;
            if let Some(entry) = inner.map.get_mut(&v) {
                entry.free_order = Some(order);
                inner.free.insert(order, v);
            }
        }
    }

    fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.read().bytes
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn record_lookups(&self, hits: u64, misses: u64) {
        self.stats.record_lookups(hits, misses);
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn clear(&self) {
        let mut inner = self.inner.write();
        inner.map.clear();
        inner.free.clear();
        inner.sealed.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nbrs(n: usize, seed: u32) -> Vec<VertexId> {
        (0..n as u32).map(|i| i + seed * 1000).collect()
    }

    #[test]
    fn insert_and_read_back() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(1, nbrs(5, 1));
        assert!(cache.contains(1));
        let mut out = Vec::new();
        assert!(cache.read(1, &mut |n| out.extend_from_slice(n)));
        assert_eq!(out.len(), 5);
        assert_eq!(cache.len(), 1);
        assert!(cache.size_bytes() > 0);
    }

    #[test]
    fn eviction_removes_least_recent_batch_first() {
        // Capacity fits roughly two entries of 10 neighbours (56 bytes each).
        let cache = LrbuCache::new(120);
        cache.insert(1, nbrs(10, 1));
        cache.insert(2, nbrs(10, 2));
        // Vertex 1 is older; inserting 3 must evict 1 (not 2).
        cache.insert(3, nbrs(10, 3));
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        assert!(cache.contains(3));
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn sealed_entries_survive_eviction_pressure() {
        let cache = LrbuCache::new(120);
        cache.insert(1, nbrs(10, 1));
        cache.insert(2, nbrs(10, 2));
        cache.seal(1);
        // Vertex 1 is sealed: despite being the oldest, it must not be
        // evicted; vertex 2 goes instead.
        cache.insert(3, nbrs(10, 3));
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert_eq!(cache.sealed_count(), 1);
        // After release, vertex 1 becomes the *most* recent batch.
        cache.release();
        assert_eq!(cache.sealed_count(), 0);
        cache.insert(4, nbrs(10, 4));
        // Now the oldest free entry is 3, so 3 is evicted, not 1.
        assert!(cache.contains(1));
        assert!(!cache.contains(3));
    }

    #[test]
    fn overflow_when_everything_is_sealed() {
        let cache = LrbuCache::new(100);
        cache.insert(1, nbrs(10, 1));
        cache.insert(2, nbrs(10, 2));
        cache.seal(1);
        cache.seal(2);
        // Nothing is evictable, but the insert still happens (bounded
        // overflow per Algorithm 3).
        cache.insert(3, nbrs(10, 3));
        assert!(cache.contains(3));
        assert!(cache.stats().overflow_inserts >= 1);
        assert!(cache.size_bytes() > cache.capacity_bytes());
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(5, nbrs(3, 1));
        cache.insert(5, nbrs(30, 2));
        let mut len = 0;
        cache.read(5, &mut |n| len = n.len());
        assert_eq!(len, 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn release_assigns_fresh_orders() {
        let cache = LrbuCache::new(1 << 20);
        for v in 0..10 {
            cache.insert(v, nbrs(2, v));
        }
        for v in 0..5 {
            cache.seal(v);
        }
        cache.release();
        // Sealing + releasing 0..5 makes 5..10 the oldest entries.
        let tiny = LrbuCache::new(1); // irrelevant, separate assertion below
        drop(tiny);
        // Force evictions by shrinking: rebuild a bounded cache mirroring the
        // state is overkill; instead check the recency ordering indirectly:
        // the free set's first victim must now be vertex 5.
        let inner = cache.inner.read();
        let (_, &victim) = inner.free.iter().next().unwrap();
        assert_eq!(victim, 5);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(1, nbrs(4, 1));
        cache.seal(1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.size_bytes(), 0);
        assert!(!cache.contains(1));
        assert!(cache.is_empty());
    }

    #[test]
    fn only_recorded_lookups_are_counted() {
        let cache = LrbuCache::new(1024);
        cache.insert(1, nbrs(2, 1));
        assert!(cache.read(1, &mut |_| {}));
        assert!(!cache.read(42, &mut |_| panic!("must not be called")));
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        cache.record_lookups(3, 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (3, 1));
    }

    #[test]
    fn concurrent_reads_during_no_writes_are_safe() {
        let cache = std::sync::Arc::new(LrbuCache::new(1 << 20));
        for v in 0..100 {
            cache.insert(v, nbrs(8, v));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for v in 0..100u32 {
                        let mut sum = 0u64;
                        assert!(c.read(v, &mut |n| sum = n.iter().map(|&x| x as u64).sum()));
                        assert!(sum > 0);
                        c.record_lookups(1, 0);
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 400);
    }
}
