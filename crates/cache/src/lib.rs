//! Caches for pulled adjacency lists.
//!
//! The `PULL-EXTEND` operator caches remote adjacency lists so repeated
//! extensions of the same high-degree vertices do not re-fetch them over the
//! network. The paper contributes the **LRBU** (least-recent-batch-used)
//! cache (§4.4, Algorithm 3) whose `Seal`/`Release` protocol, combined with
//! the two-stage (fetch / intersect) execution of `PULL-EXTEND`, makes all
//! cache reads during the intersect stage lock-free and zero-copy.
//!
//! This crate provides LRBU plus every comparison point of Exp-6 (Table 5):
//!
//! | name                   | paper variant | what the fetch stage's handle costs              |
//! |------------------------|---------------|--------------------------------------------------|
//! | [`LrbuCache`]          | LRBU          | a shared `Arc` of the entry: no copy             |
//! | [`CopyLrbuCache`]      | LRBU-Copy     | LRBU's policy, the list copied out               |
//! | [`LockLrbuCache`]      | LRBU-Lock     | LRBU behind a mutex, the list copied out         |
//! | [`InfiniteLruCache`]   | LRU-Inf       | unbounded LRU (never evicts), copied out         |
//! | [`ConcurrentLruCache`] | Cncr-LRU      | locking LRU without seal/release, copied out     |
//!
//! All variants implement [`PullCache`] so the engine can swap them without
//! code changes; the experiment harness measures the difference.

pub mod concurrent_lru;
pub mod lrbu;
pub mod traits;
pub mod variants;

pub use concurrent_lru::ConcurrentLruCache;
pub use lrbu::LrbuCache;
pub use traits::{CacheStats, ListHandle, PullCache};
pub use variants::{CopyLrbuCache, InfiniteLruCache, LockLrbuCache};

/// Which cache design to instantiate (used by configuration and the Exp-6
/// harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// The paper's least-recent-batch-used cache.
    Lrbu,
    /// LRBU with memory copies enforced on reads.
    LrbuCopy,
    /// LRBU behind a global lock (copies + lock per access).
    LrbuLock,
    /// An LRU cache with unbounded capacity.
    LruInfinite,
    /// A locking concurrent LRU without the two-stage protocol.
    ConcurrentLru,
}

impl CacheKind {
    /// Every kind, in the order Table 5 lists them.
    pub const ALL: [CacheKind; 5] = [
        CacheKind::Lrbu,
        CacheKind::LrbuCopy,
        CacheKind::LrbuLock,
        CacheKind::LruInfinite,
        CacheKind::ConcurrentLru,
    ];

    /// The label used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CacheKind::Lrbu => "LRBU",
            CacheKind::LrbuCopy => "LRBU-Copy",
            CacheKind::LrbuLock => "LRBU-Lock",
            CacheKind::LruInfinite => "LRU-Inf",
            CacheKind::ConcurrentLru => "Cncr-LRU",
        }
    }

    /// Instantiates the cache with the given capacity in bytes.
    pub fn build(&self, capacity_bytes: u64) -> Box<dyn PullCache> {
        match self {
            CacheKind::Lrbu => Box::new(LrbuCache::new(capacity_bytes)),
            CacheKind::LrbuCopy => Box::new(CopyLrbuCache::new(capacity_bytes)),
            CacheKind::LrbuLock => Box::new(LockLrbuCache::new(capacity_bytes)),
            CacheKind::LruInfinite => Box::new(InfiniteLruCache::new()),
            CacheKind::ConcurrentLru => Box::new(ConcurrentLruCache::new(capacity_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::Interval;

    #[test]
    fn every_kind_builds_and_round_trips() {
        for kind in CacheKind::ALL {
            let cache = kind.build(1 << 20);
            cache.insert(7, vec![1, 2, 3]);
            assert!(cache.read(7, &mut |_| {}), "{}", kind.name());
            let mut seen = Vec::new();
            let found = cache.read(7, &mut |nbrs| seen.extend_from_slice(nbrs));
            assert!(found);
            assert_eq!(seen, vec![1, 2, 3]);
            assert!(!cache.read(8, &mut |_| {}));
            // The fetch stage's handles hold their lists past a clear.
            let part = Interval::new(4, 9);
            let pulled = cache.insert_sealed(9, part, vec![4, 5].into());
            let (hit, held) = cache.acquire(7).expect("cached");
            assert_eq!(held, Interval::ALL, "{}", kind.name());
            // A part is held as a part; a wider one replaces it in place.
            assert_eq!(cache.acquire(9).map(|(_, held)| held), Some(part));
            cache.insert_sealed(9, Interval::ALL, vec![2, 4, 5, 11].into());
            let (wide, held) = cache.acquire(9).expect("cached");
            assert_eq!((&wide[..], held), (&[2, 4, 5, 11][..], Interval::ALL));
            cache.release();
            cache.clear();
            assert_eq!((&pulled[..], &hit[..]), (&[4, 5][..], &[1, 2, 3][..]));
            assert!(cache.acquire(7).is_none(), "{}", kind.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = CacheKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
