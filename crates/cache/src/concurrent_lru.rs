//! A locking concurrent LRU cache (the paper's Cncr-LRU comparison point).
//!
//! This is the "straightforward approach" the paper argues against (§4.4):
//! a bounded LRU shared by all workers, consulted on every lookup, with the
//! recency list updated under a lock on each access and the value copied
//! out. It is sharded (as production concurrent caches are) to reduce — but
//! not eliminate — lock contention, and it has no notion of seal/release or
//! batch-level pinning.

use std::collections::HashMap;

use huge_graph::{Interval, VertexId};
use parking_lot::Mutex;

use crate::traits::{AtomicCacheStats, CacheStats, PullCache};

const SHARDS: usize = 8;

struct Shard {
    /// Vertex → (the part of its list held, its interval, last use).
    map: HashMap<VertexId, (Vec<VertexId>, Interval, u64)>,
    clock: u64,
    bytes: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            clock: 0,
            bytes: 0,
        }
    }

    fn evict_one(&mut self) -> bool {
        if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, _, stamp))| *stamp) {
            if let Some((nbrs, _, _)) = self.map.remove(&victim) {
                self.bytes -= entry_bytes(&nbrs);
                return true;
            }
        }
        false
    }
}

fn entry_bytes(nbrs: &[VertexId]) -> u64 {
    (std::mem::size_of_val(nbrs) + 16) as u64
}

/// A sharded, locking, copy-on-read LRU cache without batch pinning.
pub struct ConcurrentLruCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: u64,
    stats: AtomicCacheStats,
}

impl ConcurrentLruCache {
    /// Creates the cache with a total byte capacity split across shards.
    pub fn new(capacity_bytes: u64) -> Self {
        ConcurrentLruCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: (capacity_bytes / SHARDS as u64).max(1),
            stats: AtomicCacheStats::default(),
        }
    }

    fn shard(&self, v: VertexId) -> &Mutex<Shard> {
        &self.shards[(v as usize) % SHARDS]
    }
}

impl PullCache for ConcurrentLruCache {
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool {
        let mut shard = self.shard(v).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&v) {
            Some((nbrs, held, stamp)) => {
                *stamp = clock;
                // Copy out while holding the lock (the value could otherwise
                // be evicted by a concurrent insert).
                let (copy, held) = (nbrs.clone(), *held);
                drop(shard);
                f(held, &copy);
                true
            }
            None => false,
        }
    }

    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>) {
        let bytes = entry_bytes(&ids);
        let mut shard = self.shard(v).lock();
        if shard
            .map
            .get(&v)
            .is_some_and(|(_, held, _)| held.contains(interval))
        {
            return;
        }
        // A widened entry leaves while room is made, and is no new insert.
        let widened = shard.map.remove(&v);
        if let Some((old, _, _)) = &widened {
            shard.bytes -= entry_bytes(old);
        }
        let mut evictions = 0;
        while shard.bytes + bytes > self.capacity_per_shard && shard.evict_one() {
            evictions += 1;
        }
        shard.clock += 1;
        let clock = shard.clock;
        shard.bytes += bytes;
        shard.map.insert(v, (ids, interval, clock));
        drop(shard);
        self.stats.inserts.fetch_add(
            u64::from(widened.is_none()),
            std::sync::atomic::Ordering::Relaxed,
        );
        if evictions > 0 {
            self.stats
                .evictions
                .fetch_add(evictions, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn seal(&self, _v: VertexId) {}

    fn release(&self) {}

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    fn size_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_per_shard * SHARDS as u64
    }

    fn record_lookups(&self, hits: u64, misses: u64) {
        self.stats.record_lookups(hits, misses);
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            s.map.clear();
            s.bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached(cache: &ConcurrentLruCache, v: VertexId) -> bool {
        cache.shard(v).lock().map.contains_key(&v)
    }

    #[test]
    fn basic_round_trip() {
        let cache = ConcurrentLruCache::new(1 << 20);
        cache.insert(1, vec![5, 6, 7]);
        let mut out = Vec::new();
        assert!(cache.read(1, &mut |n| out.extend_from_slice(n)));
        assert_eq!(out, vec![5, 6, 7]);
        assert!(!cache.read(2, &mut |_| {}));
        cache.record_lookups(1, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn respects_capacity() {
        let cache = ConcurrentLruCache::new(SHARDS as u64 * 120);
        for v in 0..1000u32 {
            cache.insert(v, vec![0; 10]);
        }
        // Each shard holds ~2 entries of 56 bytes, so the total stays small.
        assert!(cache.len() <= 3 * SHARDS);
        assert!(cache.stats().evictions > 0);
        assert!(cache.size_bytes() <= cache.capacity_bytes() + SHARDS as u64 * 60);
    }

    #[test]
    fn lru_recency_is_respected_within_a_shard() {
        // Pick two vertices in the same shard.
        let a = 0u32;
        let b = a + SHARDS as u32;
        let c = b + SHARDS as u32;
        let cache = ConcurrentLruCache::new(SHARDS as u64 * 120);
        cache.insert(a, vec![0; 10]);
        cache.insert(b, vec![0; 10]);
        // Touch `a` so `b` becomes the LRU victim.
        cache.read(a, &mut |_| {});
        cache.insert(c, vec![0; 10]);
        assert!(cached(&cache, a));
        assert!(!cached(&cache, b));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ConcurrentLruCache::new(1 << 16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let v = i * 4 + t;
                        c.insert(v, vec![v; 4]);
                        c.read(v, &mut |_| {});
                    }
                });
            }
        });
        assert!(cache.stats().inserts >= 2000 - 100);
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache = ConcurrentLruCache::new(1 << 20);
        for v in 0..100 {
            cache.insert(v, vec![1, 2]);
        }
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.size_bytes(), 0);
    }
}
