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
//! two-stage execution of `PULL-EXTEND`: all writes happen in the fetch
//! stage, and the intersect stage only reads. Here an entry is an
//! `Arc<[VertexId]>`: the fetch stage's one locked call per distinct remote
//! vertex ([`PullCache::acquire`], or [`PullCache::insert_sealed`] after a
//! pull) seals it and returns its [`ListHandle`], and the intersect stage
//! reads those handles — no lock, no copy, no probe of this map. A handle
//! outlives its entry, so no later seal, release or insert, on any worker,
//! takes a list from a reader. An entry holds the part of a list inside an
//! [`Interval`] of ids, and is charged for that part: the fetch stage asks
//! for the interval its batch reads, and an entry too narrow for a later
//! batch is widened in place by the ids outside it. The Exp-6 comparison points
//! ([`CopyLrbuCache`](crate::CopyLrbuCache),
//! [`LockLrbuCache`](crate::LockLrbuCache),
//! [`ConcurrentLruCache`](crate::ConcurrentLruCache)) copy each list out at
//! fetch time instead, so the ablation measures the copies LRBU avoids.

use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use huge_graph::{Interval, VertexId, VertexMap};
use parking_lot::RwLock;

use crate::traits::{AtomicCacheStats, CacheStats, ListHandle, PullCache};

/// Per-entry bookkeeping: the part of the adjacency list held, its interval,
/// and its position in the free ordering (`None` while sealed).
struct Entry {
    neighbours: ListHandle,
    interval: Interval,
    /// The order key in `free` when evictable; `None` while sealed.
    free_order: Option<u64>,
}

struct Inner {
    map: VertexMap<Entry>,
    /// Ŝ_free as `(order, vertex)` in ascending order: the front is evicted
    /// first. Sealing does not search it — a slot whose order is no longer
    /// its vertex's `free_order` is stale and skipped when it reaches the
    /// front (lazy deletion); [`Inner::make_free`] compacts it.
    free: VecDeque<(u64, VertexId)>,
    /// S_sealed.
    sealed: Vec<VertexId>,
    /// Monotonic order counter (larger = more recent batch).
    next_order: u64,
    /// Current payload bytes.
    bytes: u64,
}

impl Inner {
    /// The handle of `v`'s entry and the interval it holds, sealing it
    /// first when `seal` is set.
    fn handle(&mut self, v: VertexId, seal: bool) -> Option<(ListHandle, Interval)> {
        let entry = self.map.get_mut(&v)?;
        if seal && entry.free_order.take().is_some() {
            self.sealed.push(v);
        }
        Some((Arc::clone(&entry.neighbours), entry.interval))
    }

    /// Gives `v`'s entry the next order: it becomes the most recent free
    /// entry. Drops the stale slots once they outnumber the entries.
    fn make_free(&mut self, v: VertexId) {
        let Some(entry) = self.map.get_mut(&v) else {
            return;
        };
        entry.free_order = Some(self.next_order);
        self.free.push_back((self.next_order, v));
        self.next_order += 1;
        if self.free.len() > 2 * self.map.len() + 64 {
            let map = &self.map;
            self.free
                .retain(|&(order, v)| map.get(&v).is_some_and(|e| e.free_order == Some(order)));
        }
    }
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
                map: VertexMap::default(),
                free: VecDeque::new(),
                sealed: Vec::new(),
                next_order: 0,
                bytes: 0,
            }),
            capacity_bytes: capacity_bytes.max(1),
            stats: AtomicCacheStats::default(),
        }
    }

    fn entry_bytes(neighbours: &[VertexId]) -> u64 {
        (std::mem::size_of_val(neighbours) + 16) as u64
    }

    /// Inserts the part of `v`'s list inside `interval`, unless `v`'s
    /// entry holds that interval already (then it keeps its list), and
    /// returns the entry's handle. An entry that does not is widened in
    /// place: it takes the new list, and keeps its seal — a free one becomes
    /// the most recent.
    fn put(
        &self,
        v: VertexId,
        interval: Interval,
        neighbours: ListHandle,
        seal: bool,
    ) -> ListHandle {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let held = inner.handle(v, seal);
        if let Some((handle, _)) = held.filter(|&(_, held)| held.contains(interval)) {
            return handle;
        }
        // Out of the map while room is made, so a widened entry is never its
        // own victim.
        let old = inner.map.remove(&v);
        if let Some(old) = &old {
            inner.bytes -= Self::entry_bytes(&old.neighbours);
        }
        let new_bytes = Self::entry_bytes(&neighbours);
        // Evict least-recent-batch entries while full and something is free.
        let mut evictions = 0u64;
        while inner.bytes + new_bytes > self.capacity_bytes {
            let Some((order, victim)) = inner.free.pop_front() else {
                // Ŝ_free is empty: the insert proceeds anyway (Algorithm 3
                // line 6-8) and may overflow the capacity by at most one
                // batch's worth of vertices.
                self.stats.overflow_inserts.fetch_add(1, Relaxed);
                break;
            };
            let live = |e: &Entry| e.free_order == Some(order);
            if inner.map.get(&victim).is_some_and(live) {
                let entry = inner.map.remove(&victim).expect("live");
                inner.bytes -= Self::entry_bytes(&entry.neighbours);
                evictions += 1;
            }
        }
        self.stats.evictions.fetch_add(evictions, Relaxed);
        inner.bytes += new_bytes;
        let entry = Entry {
            neighbours: Arc::clone(&neighbours),
            interval,
            free_order: None,
        };
        inner.map.insert(v, entry);
        match &old {
            Some(old) if old.free_order.is_none() => {} // still in `sealed`
            _ if seal => inner.sealed.push(v),
            _ => inner.make_free(v),
        }
        if old.is_none() {
            self.stats.inserts.fetch_add(1, Relaxed);
        }
        neighbours
    }
}

impl PullCache for LrbuCache {
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool {
        // Zero-copy: the closure borrows the cached list through a handle,
        // after the guard is gone.
        let held = self
            .inner
            .read()
            .map
            .get(&v)
            .map(|e| (Arc::clone(&e.neighbours), e.interval));
        held.map(|(nbrs, interval)| f(interval, &nbrs)).is_some()
    }

    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>) {
        self.put(v, interval, ListHandle::from(ids), false);
    }

    fn seal(&self, v: VertexId) {
        self.inner.write().handle(v, true);
    }

    fn acquire(&self, v: VertexId) -> Option<(ListHandle, Interval)> {
        self.inner.write().handle(v, true)
    }

    /// Zero-copy: the entry shares the pulled list with the batch.
    fn insert_sealed(&self, v: VertexId, interval: Interval, ids: ListHandle) -> ListHandle {
        self.put(v, interval, ids, true)
    }

    fn release(&self) {
        let mut inner = self.inner.write();
        for v in std::mem::take(&mut inner.sealed) {
            inner.make_free(v);
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

    fn cached(cache: &LrbuCache, v: VertexId) -> bool {
        cache.inner.read().map.contains_key(&v)
    }

    fn sealed(cache: &LrbuCache) -> usize {
        cache.inner.read().sealed.len()
    }

    #[test]
    fn insert_and_read_back() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(1, nbrs(5, 1));
        assert!(cached(&cache, 1));
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
        assert!(!cached(&cache, 1));
        assert!(cached(&cache, 2));
        assert!(cached(&cache, 3));
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
        assert!(cached(&cache, 1));
        assert!(!cached(&cache, 2));
        assert_eq!(sealed(&cache), 1);
        // After release, vertex 1 becomes the *most* recent batch.
        cache.release();
        assert_eq!(sealed(&cache), 0);
        cache.insert(4, nbrs(10, 4));
        // Now the oldest free entry is 3, so 3 is evicted, not 1.
        assert!(cached(&cache, 1));
        assert!(!cached(&cache, 3));
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
        assert!(cached(&cache, 3));
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
        // Room for ten entries of two neighbours.
        let cache = LrbuCache::new(240);
        for v in 0..10 {
            cache.insert(v, nbrs(2, v));
        }
        for v in 0..5 {
            cache.seal(v);
        }
        cache.release();
        // Sealing + releasing 0..5 makes 5..10 the oldest entries: an
        // eleventh entry evicts vertex 5.
        cache.insert(10, nbrs(2, 10));
        assert!(!cached(&cache, 5));
        assert!((0..5).chain(6..11).all(|v| cached(&cache, v)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stale_free_slots_are_compacted() {
        let cache = LrbuCache::new(1 << 20);
        for v in 0..10 {
            cache.insert(v, nbrs(2, v));
        }
        // Every round leaves ten stale slots behind and evicts nothing.
        for _ in 0..1000 {
            (0..10).for_each(|v| cache.seal(v));
            cache.release();
        }
        assert!(cache.inner.read().free.len() <= 2 * 10 + 64);
        // Slot order survives the compaction: 0..5 were released last.
        (0..5).for_each(|v| cache.seal(v));
        cache.release();
        let inner = cache.inner.read();
        let live = |&&(order, v): &&(u64, VertexId)| inner.map[&v].free_order == Some(order);
        assert_eq!(inner.free.iter().find(live).map(|&(_, v)| v), Some(5));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(1, nbrs(4, 1));
        cache.seal(1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.size_bytes(), 0);
        assert!(!cached(&cache, 1));
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

    #[test]
    fn a_fetch_stage_handle_outlives_release_and_eviction() {
        // Room for two entries of ten neighbours.
        let cache = LrbuCache::new(120);
        cache.insert(1, nbrs(10, 1));
        let (hit, _) = cache.acquire(1).expect("cached");
        let pulled = cache.insert_sealed(2, Interval::ALL, nbrs(10, 2).into());
        assert_eq!(sealed(&cache), 2);
        assert!(cache.acquire(9).is_none());
        cache.release();
        // Both entries are evictable now, and two inserts evict them.
        cache.insert(3, nbrs(10, 3));
        cache.insert(4, nbrs(10, 4));
        assert!(!cached(&cache, 1) && !cached(&cache, 2));
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(&hit[..], &nbrs(10, 1)[..]);
        assert_eq!(&pulled[..], &nbrs(10, 2)[..]);
    }

    #[test]
    fn acquire_seals_and_shares_the_cached_list() {
        let cache = LrbuCache::new(120);
        cache.insert(1, nbrs(10, 1));
        cache.insert(2, nbrs(10, 2));
        let (handle, _) = cache.acquire(1).unwrap();
        // Sealed: the older entry survives the next insert, the other goes.
        cache.insert(3, nbrs(10, 3));
        assert!(cached(&cache, 1) && !cached(&cache, 2));
        // A duplicate sealed insert keeps the cached list.
        let again = cache.insert_sealed(1, Interval::ALL, nbrs(3, 7).into());
        assert!(Arc::ptr_eq(&again, &handle));
    }

    #[test]
    fn a_widened_entry_is_charged_what_it_holds_and_keeps_its_place() {
        // Room for two whole entries of ten neighbours (56 bytes each).
        let cache = LrbuCache::new(120);
        let list = nbrs(10, 1);
        cache.insert_sealed(1, Interval::new(1000, 1001), list[..2].into());
        assert_eq!(cache.size_bytes(), 2 * 4 + 16);
        cache.release();
        cache.insert(2, nbrs(10, 2));
        // Widening the older entry keeps it cached, now the most recent.
        let (held, interval) = cache.acquire(1).expect("cached");
        assert_eq!(
            (&held[..], interval),
            (&list[..2], Interval::new(1000, 1001))
        );
        let wide = cache.insert_sealed(1, Interval::new(1000, 1009), list.clone().into());
        assert_eq!(&wide[..], &list[..]);
        assert_eq!(cache.size_bytes(), 2 * 56);
        assert_eq!(
            (cache.len(), cache.stats().inserts, sealed(&cache)),
            (2, 2, 1)
        );
        cache.release();
        cache.insert(3, nbrs(10, 3));
        assert!(cached(&cache, 1) && !cached(&cache, 2));
        // A part inside the held interval keeps the cached list.
        let narrow = cache.insert_sealed(1, Interval::new(1003, 1004), list[3..5].into());
        assert!(Arc::ptr_eq(&narrow, &wide));
        // A widening overflows like an insert once nothing else is free.
        cache.insert_sealed(3, Interval::ALL, nbrs(10, 3).into());
        cache.insert_sealed(1, Interval::ALL, nbrs(20, 1).into());
        assert_eq!(cache.size_bytes(), 56 + 96);
        assert_eq!(cache.stats().overflow_inserts, 1);
    }

    #[test]
    fn a_read_closure_may_write_to_the_same_cache() {
        let cache = LrbuCache::new(1 << 20);
        cache.insert(1, nbrs(4, 1));
        let found = cache.read(1, &mut |list| {
            // Would self-deadlock if `read` still held its guard.
            cache.insert(2, list.to_vec());
            cache.seal(2);
            cache.insert_sealed(3, Interval::ALL, list.into());
        });
        assert!(found);
        assert_eq!(sealed(&cache), 2);
        assert!(cache.read(2, &mut |list| assert_eq!(list, &nbrs(4, 1)[..])));
    }
}
