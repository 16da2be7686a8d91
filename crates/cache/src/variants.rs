//! The Exp-6 comparison variants of LRBU: LRBU-Copy, LRBU-Lock and LRU-Inf.
//! Each hands the fetch stage a copy of the list through the default
//! [`PullCache::acquire`] / [`PullCache::insert_sealed`].

use std::collections::HashMap;

use huge_graph::{Interval, VertexId};
use parking_lot::Mutex;

use crate::lrbu::LrbuCache;
use crate::traits::{AtomicCacheStats, CacheStats, PullCache};

/// LRBU with memory copies enforced on every read (the paper's LRBU-Copy).
///
/// The replacement policy and sealing behaviour are identical to
/// [`LrbuCache`]; the only difference is that a read materialises the
/// adjacency list into a fresh `Vec` before handing it to the caller,
/// modelling the copy a traditional cache must make to avoid dangling
/// references.
pub struct CopyLrbuCache {
    inner: LrbuCache,
}

impl CopyLrbuCache {
    /// Creates the cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        CopyLrbuCache {
            inner: LrbuCache::new(capacity_bytes),
        }
    }
}

impl PullCache for CopyLrbuCache {
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool {
        let mut copied = None;
        let found =
            (self.inner).read_interval(v, &mut |held, ids| copied = Some((held, ids.to_vec())));
        if let Some((held, ids)) = copied {
            f(held, &ids);
        }
        found
    }

    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>) {
        self.inner.insert_interval(v, interval, ids);
    }

    fn seal(&self, v: VertexId) {
        self.inner.seal(v);
    }

    fn release(&self) {
        self.inner.release();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn record_lookups(&self, hits: u64, misses: u64) {
        self.inner.record_lookups(hits, misses);
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn clear(&self) {
        self.inner.clear();
    }
}

/// LRBU behind a single global mutex with copies (the paper's LRBU-Lock):
/// every access — including reads — takes an exclusive lock, so concurrent
/// readers serialise.
pub struct LockLrbuCache {
    inner: Mutex<LrbuCache>,
}

impl LockLrbuCache {
    /// Creates the cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        LockLrbuCache {
            inner: Mutex::new(LrbuCache::new(capacity_bytes)),
        }
    }
}

impl PullCache for LockLrbuCache {
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool {
        let guard = self.inner.lock();
        let mut copied = None;
        let found = guard.read_interval(v, &mut |held, ids| copied = Some((held, ids.to_vec())));
        drop(guard);
        if let Some((held, ids)) = copied {
            f(held, &ids);
        }
        found
    }

    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>) {
        self.inner.lock().insert_interval(v, interval, ids);
    }

    fn seal(&self, v: VertexId) {
        self.inner.lock().seal(v);
    }

    fn release(&self) {
        self.inner.lock().release();
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.lock().size_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.lock().capacity_bytes()
    }

    fn record_lookups(&self, hits: u64, misses: u64) {
        self.inner.lock().record_lookups(hits, misses);
    }

    fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    fn clear(&self) {
        self.inner.lock().clear();
    }
}

/// An LRU cache with unbounded capacity (the paper's LRU-Inf): never evicts,
/// updates recency on every access (so reads take an exclusive lock), and
/// copies on read. Corresponds to wrapping a stock LRU map with its capacity
/// set to the maximum integer, as footnote 6 of the paper describes.
pub struct InfiniteLruCache {
    inner: Mutex<LruState>,
    stats: AtomicCacheStats,
}

struct LruState {
    /// Vertex → (the part of its list held, its interval, last use).
    map: HashMap<VertexId, (Vec<VertexId>, Interval, u64)>,
    clock: u64,
    bytes: u64,
}

impl InfiniteLruCache {
    /// Creates the unbounded cache.
    pub fn new() -> Self {
        InfiniteLruCache {
            inner: Mutex::new(LruState {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            stats: AtomicCacheStats::default(),
        }
    }
}

impl Default for InfiniteLruCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PullCache for InfiniteLruCache {
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool {
        let mut guard = self.inner.lock();
        guard.clock += 1;
        let clock = guard.clock;
        match guard.map.get_mut(&v) {
            Some((nbrs, held, stamp)) => {
                *stamp = clock;
                let (copy, held) = (nbrs.clone(), *held);
                drop(guard);
                f(held, &copy);
                true
            }
            None => false,
        }
    }

    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>) {
        let bytes = |ids: &[VertexId]| (std::mem::size_of_val(ids) + 16) as u64;
        let mut guard = self.inner.lock();
        guard.clock += 1;
        let clock = guard.clock;
        if let Some((_, held, stamp)) = guard.map.get_mut(&v) {
            if held.contains(interval) {
                *stamp = clock;
                return;
            }
        }
        guard.bytes += bytes(&ids);
        match guard.map.insert(v, (ids, interval, clock)) {
            Some((old, _, _)) => guard.bytes -= bytes(&old),
            None => {
                self.stats
                    .inserts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    fn seal(&self, _v: VertexId) {}

    fn release(&self) {}

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    fn capacity_bytes(&self) -> u64 {
        u64::MAX
    }

    fn record_lookups(&self, hits: u64, misses: u64) {
        self.stats.record_lookups(hits, misses);
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn clear(&self) {
        let mut guard = self.inner.lock();
        guard.map.clear();
        guard.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached(cache: &dyn PullCache, v: VertexId) -> bool {
        cache.read(v, &mut |_| {})
    }

    fn exercise(cache: &dyn PullCache) {
        cache.insert(1, vec![10, 20, 30]);
        cache.insert(2, vec![40]);
        assert!(cached(cache, 1));
        let mut out = Vec::new();
        assert!(cache.read(1, &mut |n| out.extend_from_slice(n)));
        assert_eq!(out, vec![10, 20, 30]);
        assert!(!cache.read(99, &mut |_| {}));
        cache.seal(1);
        cache.release();
        assert_eq!(cache.len(), 2);
        assert!(cache.size_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn copy_variant_behaves_like_lrbu() {
        exercise(&CopyLrbuCache::new(1 << 20));
    }

    #[test]
    fn lock_variant_behaves_like_lrbu() {
        exercise(&LockLrbuCache::new(1 << 20));
    }

    #[test]
    fn infinite_lru_never_evicts() {
        let cache = InfiniteLruCache::new();
        for v in 0..10_000u32 {
            cache.insert(v, vec![v; 4]);
        }
        assert_eq!(cache.len(), 10_000);
        assert_eq!(cache.capacity_bytes(), u64::MAX);
        assert_eq!(cache.stats().evictions, 0);
        exercise(&InfiniteLruCache::new());
    }

    #[test]
    fn copy_variant_eviction_mirrors_lrbu() {
        let cache = CopyLrbuCache::new(120);
        cache.insert(1, vec![0; 10]);
        cache.insert(2, vec![0; 10]);
        cache.insert(3, vec![0; 10]);
        assert!(!cached(&cache, 1));
        assert!(cached(&cache, 3));
    }

    #[test]
    fn lock_variant_is_threadsafe() {
        let cache = std::sync::Arc::new(LockLrbuCache::new(1 << 20));
        for v in 0..50 {
            cache.insert(v, vec![v; 8]);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for v in 0..50u32 {
                        c.read(v, &mut |_| {});
                        c.record_lookups(1, 0);
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 200);
    }
}
