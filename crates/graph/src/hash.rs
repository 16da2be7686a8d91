//! The hasher for the engine's own id keys: vertex ids (and the join's
//! packed keys of them) are data the engine produced, not outside input, so
//! the hot maps keyed by them — the fetch stage's list view, the LRBU cache,
//! the hub index, the join's partition tables — skip SipHash's
//! collision-flooding protection for one folded multiply per key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::graph::VertexId;

/// A folded-multiply hasher for integer id keys: one 64×64-bit multiply
/// whose 128-bit product is folded to 64 bits, so both the bucket bits (low)
/// and the tag bits (high) depend on every key bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// The [`BuildHasherDefault`] of [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A map keyed by vertex id, hashed with [`IdHasher`].
pub type VertexMap<V> = HashMap<VertexId, V, IdBuildHasher>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.write_u128(u128::from(key));
    }

    #[inline]
    fn write_u128(&mut self, key: u128) {
        let lo = (key as u64 ^ self.0) ^ 0x9e37_79b9_7f4a_7c15;
        let hi = (key >> 64) as u64 ^ 0xc2b2_ae3d_27d4_eb4f;
        let product = u128::from(lo) * u128::from(hi);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn nearby_ids_spread_over_buckets_and_tags() {
        let build = IdBuildHasher::default();
        let hashes: Vec<u64> = (0..4096u32).map(|v| build.hash_one(v)).collect();
        // Low bits pick the bucket, the top seven the control tag: both must
        // vary over consecutive ids.
        let mut buckets: Vec<u64> = hashes.iter().map(|h| h & 4095).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 2048, "{} distinct buckets", buckets.len());
        let mut tags: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn a_vertex_map_round_trips() {
        let mut map = VertexMap::default();
        for v in 0..1000u32 {
            map.insert(v * 7, v);
        }
        assert!((0..1000u32).all(|v| map[&(v * 7)] == v));
        assert!(!map.contains_key(&1));
    }
}
