//! The cache interface shared by every design.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use huge_graph::{Interval, VertexId};

/// Counters reported by every cache implementation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the vertex cached (no pull needed).
    pub hits: u64,
    /// Lookups that missed, so ids had to be pulled: the vertex was not
    /// cached, or its cached interval was too narrow for the lookup (the
    /// entry is then widened by the ids outside it).
    pub misses: u64,
    /// Entries inserted (widening an entry inserts none).
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts performed while the cache was full and nothing was
    /// replaceable (the bounded overflow the LRBU analysis allows).
    pub overflow_inserts: u64,
}

impl CacheStats {
    /// Hit rate over all lookups recorded with
    /// [`PullCache::record_lookups`] (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Internal atomic counters (shared by the implementations in this crate).
#[derive(Debug, Default)]
pub(crate) struct AtomicCacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub inserts: AtomicU64,
    pub evictions: AtomicU64,
    pub overflow_inserts: AtomicU64,
}

impl AtomicCacheStats {
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            overflow_inserts: self.overflow_inserts.load(Ordering::Relaxed),
        }
    }

    pub fn record_lookups(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// A shared handle to one adjacency list; it outlives the cache entry it
/// came from, so eviction never takes a list from a reader.
pub type ListHandle = Arc<[VertexId]>;

/// The interface the `PULL-EXTEND` operator programs against.
///
/// The method set mirrors Algorithm 3: `Get` is the read side (expressed
/// here as [`PullCache::read`] with a callback), `Insert` adds a fetched
/// adjacency list, and `Seal`/`Release` bracket the vertices used by the
/// batch currently being processed so they are not evicted mid-batch.
/// Designs that have no seal concept (plain LRUs) implement them as no-ops.
/// The fetch stage is the only caller: one [`PullCache::acquire`] or
/// [`PullCache::insert_sealed`] per distinct remote vertex of a batch, whose
/// handles the intersect stage reads instead of the cache.
///
/// An entry holds the part of a list inside an [`Interval`] of ids — the
/// whole list for [`PullCache::insert`] — and its bytes are what it holds.
/// Inserting a part an entry already holds keeps the cached list; any other
/// replaces the entry's list and interval in place.
pub trait PullCache: Send + Sync {
    /// Reads the cached part of `v`'s adjacency list, invoking `f` with the
    /// interval the entry holds and its ids. Returns `false` (without
    /// invoking `f`) when `v` is not cached. No lock is held while `f` runs,
    /// so `f` may call back into the cache.
    fn read_interval(&self, v: VertexId, f: &mut dyn FnMut(Interval, &[VertexId])) -> bool;

    /// [`PullCache::read_interval`] without the interval: the whole list,
    /// for an entry made by [`PullCache::insert`].
    fn read(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> bool {
        self.read_interval(v, &mut |_, ids| f(ids))
    }

    /// Inserts `ids`, the part of `v`'s adjacency list inside `interval`
    /// (fetched from its owner).
    fn insert_interval(&self, v: VertexId, interval: Interval, ids: Vec<VertexId>);

    /// Inserts the whole adjacency list of `v`.
    fn insert(&self, v: VertexId, neighbours: Vec<VertexId>) {
        self.insert_interval(v, Interval::ALL, neighbours);
    }

    /// Protects `v` from eviction until the next [`PullCache::release`].
    fn seal(&self, v: VertexId);

    /// Seals `v` and returns a handle to its cached list with the interval
    /// the entry holds (`None` when not cached); the caller decides whether
    /// that interval is wide enough. The default copies the list out, as a
    /// design without shared entries must.
    fn acquire(&self, v: VertexId) -> Option<(ListHandle, Interval)> {
        let mut held = None;
        self.read_interval(v, &mut |interval, ids| {
            held = Some((ListHandle::from(ids), interval));
        });
        held.inspect(|_| self.seal(v))
    }

    /// Inserts `ids`, the part of `v`'s list inside `interval`, sealed and
    /// returns the handle to read it through: one that holds at least
    /// `interval`. The default copies it into [`PullCache::insert_interval`].
    fn insert_sealed(&self, v: VertexId, interval: Interval, ids: ListHandle) -> ListHandle {
        self.insert_interval(v, interval, ids.to_vec());
        self.seal(v);
        ids
    }

    /// Makes every sealed vertex evictable again, marking them as the most
    /// recently used batch.
    fn release(&self);

    /// Current number of cached entries.
    fn len(&self) -> usize;

    /// `true` when no entries are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of cached adjacency data.
    fn size_bytes(&self) -> u64;

    /// Capacity in bytes (`u64::MAX` for unbounded designs).
    fn capacity_bytes(&self) -> u64;

    /// Records the outcome of cache lookups: `hits` vertices were found
    /// cached with an interval that holds the lookup's, `misses` had to be
    /// pulled, wholly or for the ids their entry lacked. The caller counts, not
    /// [`PullCache::read`], because a lookup is decided where the operator
    /// chooses between the cache and the network (the fetch stage) — by the
    /// time sealed entries are read they cannot miss, and counting those
    /// reads would pin the hit rate at 1.
    fn record_lookups(&self, hits: u64, misses: u64);

    /// A snapshot of the cache's counts.
    fn stats(&self) -> CacheStats;

    /// Removes every entry (used between experiment runs).
    fn clear(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn atomic_stats_snapshot() {
        let s = AtomicCacheStats::default();
        s.record_lookups(2, 1);
        let snap = s.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
    }
}
