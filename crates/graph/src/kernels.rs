//! Cardinality-adaptive intersection kernels for the enumeration hot loop.
//!
//! `PULL-EXTEND` (HUGE §4.2, Eq. 2) spends nearly all of its compute time
//! intersecting sorted adjacency lists. One scalar two-pointer merge is the
//! wrong shape for most real calls: adjacency cardinalities in power-law
//! graphs differ by orders of magnitude, and hub vertices are intersected
//! against thousands of partial results per run. This module provides a
//! small kernel *family* and a per-call dispatcher:
//!
//! * [`intersect_merge_into`] — branch-light sorted merge for balanced
//!   lists. The loop advances both cursors with arithmetic on comparison
//!   results instead of a three-way `match`, which keeps the hot loop free
//!   of unpredictable branches and lets the compiler vectorise the common
//!   all-misses stretches.
//! * [`intersect_gallop_into`] — galloping (exponential search) when the
//!   cardinalities differ by at least [`GALLOP_RATIO`]×: iterate the small
//!   list, bound each probe into the large list by doubling steps, finish
//!   with a binary search on the bracketed window. `O(s · log(l/s))` versus
//!   the merge's `O(s + l)`.
//! * [`intersect_bitmap_into`] — block-skipping bitmap membership for hub
//!   vertices. A [`HubBitmap`] stores only the non-zero 64-bit blocks of the
//!   hub's adjacency set (sorted block ids + one word each); the query list
//!   is walked once with a monotone block cursor, so runs of the query that
//!   fall into absent blocks cost one comparison per element and no binary
//!   search.
//!
//! Every kernel has an `intersect_count_*` twin that skips output writes
//! entirely — the count-only sinks of the runtime never materialise
//! candidates. [`select_kernel`] picks the branch per call from
//! `(|smallest|, |largest|, hub-ness)` — the operands of a call are what is
//! left of the lists after earlier steps and range filters, which no
//! up-front look at vertex degrees describes — and callers record the choice
//! in a [`KernelTally`] so the kernel mix is observable in `ClusterStats`.
//! The tally counts intersections *executed*: `PULL-EXTEND` reuses a run's
//! prefix intersection instead of repeating it per row, so the mix is that
//! of the work done, not of the extend steps the plan nominally has.

use std::collections::HashMap;
use std::sync::Arc;

use crate::graph::VertexId;

/// Cardinality ratio at which galloping overtakes the sorted merge.
///
/// With `|large| ≥ 8 · |small|` the expected `log₂(l/s)` probe cost per
/// small element is well under the `l/s` elements the merge would scan.
pub const GALLOP_RATIO: usize = 8;

/// Which kernel an intersection call dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Branch-light sorted merge (balanced cardinalities).
    Merge,
    /// Galloping / exponential search (≥ [`GALLOP_RATIO`]× skew).
    Gallop,
    /// Block-skipping bitmap membership (hub vertices).
    Bitmap,
}

/// Per-kernel invocation counters, accumulated locally by a work item and
/// flushed to `ClusterStats` in one shot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// Sorted-merge invocations.
    pub merge: u64,
    /// Galloping invocations.
    pub gallop: u64,
    /// Bitmap invocations.
    pub bitmap: u64,
}

impl KernelTally {
    /// Records one invocation of `kind`.
    #[inline]
    pub fn bump(&mut self, kind: KernelKind) {
        match kind {
            KernelKind::Merge => self.merge += 1,
            KernelKind::Gallop => self.gallop += 1,
            KernelKind::Bitmap => self.bitmap += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: KernelTally) {
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.bitmap += other.bitmap;
    }

    /// Total invocations across all kernels.
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.bitmap
    }
}

/// Picks the kernel for one intersection call.
///
/// `small`/`large` are the two list cardinalities (order-insensitive);
/// `hub` says whether a cached [`HubBitmap`] is available for the larger
/// side. Bitmap wins whenever available (O(1) membership, no search),
/// galloping wins at ≥ [`GALLOP_RATIO`]× skew, the merge handles the rest.
#[inline]
pub fn select_kernel(small: usize, large: usize, hub: bool) -> KernelKind {
    let (small, large) = if small <= large {
        (small, large)
    } else {
        (large, small)
    };
    if hub {
        KernelKind::Bitmap
    } else if large >= small.saturating_mul(GALLOP_RATIO) {
        KernelKind::Gallop
    } else {
        KernelKind::Merge
    }
}

// ---------------------------------------------------------------------------
// Merge kernel
// ---------------------------------------------------------------------------

/// Branch-light sorted merge: appends `a ∩ b` to `out`.
pub fn intersect_merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
        }
        // Cursor advancement as arithmetic on the comparison outcome keeps
        // the loop body branchless apart from the rare `push`.
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

/// Count twin of [`intersect_merge_into`]: `|a ∩ b|` with no output writes.
pub fn intersect_count_merge(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut n = 0u64;
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += (x == y) as u64;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    n
}

// ---------------------------------------------------------------------------
// Galloping kernel
// ---------------------------------------------------------------------------

/// Index of the first element of `hay` that is `>= needle`, found by
/// exponential search: double the probe offset until the needle is
/// bracketed, then binary-search the bracket. `O(log d)` where `d` is the
/// returned index, which is what makes galloping cheap when consecutive
/// needles land close together.
#[inline]
fn lower_bound_gallop(hay: &[VertexId], needle: VertexId) -> usize {
    let mut hi = 1usize;
    while hi <= hay.len() && hay[hi - 1] < needle {
        hi <<= 1;
    }
    // Invariant: hay[hi/2 - 1] < needle (or hi/2 == 0) and
    // hay[hi - 1] >= needle (or hi > len), so the answer is in [hi/2, hi).
    let lo = hi >> 1;
    let hi = hi.min(hay.len());
    lo + hay[lo..hi].partition_point(|&x| x < needle)
}

/// Galloping intersection: iterates `small`, exponential-searches `large`.
///
/// Appends `small ∩ large` to `out`. The search restarts from the previous
/// match position, so the large list is consumed monotonically.
pub fn intersect_gallop_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut base = 0usize;
    for &x in small {
        base += lower_bound_gallop(&large[base..], x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            out.push(x);
            base += 1;
        }
    }
}

/// Count twin of [`intersect_gallop_into`].
pub fn intersect_count_gallop(small: &[VertexId], large: &[VertexId]) -> u64 {
    let mut base = 0usize;
    let mut n = 0u64;
    for &x in small {
        base += lower_bound_gallop(&large[base..], x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            n += 1;
            base += 1;
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Hub bitmap kernel
// ---------------------------------------------------------------------------

/// Sparse bitmap over a hub vertex's adjacency set.
///
/// Only non-zero 64-bit blocks are stored: `blocks[i]` is the block id
/// (`vertex >> 6`) and `words[i]` the membership word for that block.
/// Blocks are sorted, so intersecting with a sorted query list is a single
/// monotone walk that skips absent blocks without searching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubBitmap {
    blocks: Vec<u32>,
    words: Vec<u64>,
}

impl HubBitmap {
    /// Builds the bitmap from a sorted, deduplicated adjacency list.
    pub fn build(sorted: &[VertexId]) -> HubBitmap {
        let mut blocks: Vec<u32> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        for &v in sorted {
            let blk = v >> 6;
            if blocks.last() != Some(&blk) {
                blocks.push(blk);
                words.push(0);
            }
            *words.last_mut().expect("block pushed") |= 1u64 << (v & 63);
        }
        HubBitmap { blocks, words }
    }

    /// Membership test for a single vertex.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match self.blocks.binary_search(&(v >> 6)) {
            Ok(i) => (self.words[i] >> (v & 63)) & 1 == 1,
            Err(_) => false,
        }
    }

    /// Number of set bits (the hub's degree).
    pub fn cardinality(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Heap bytes held by the bitmap (for memory accounting).
    pub fn byte_size(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u32>()
            + self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Bitmap intersection: appends `query ∩ hub` to `out`.
///
/// Walks the sorted `query` once with a monotone cursor over the bitmap's
/// non-zero blocks; query elements in absent blocks cost one comparison.
pub fn intersect_bitmap_into(query: &[VertexId], hub: &HubBitmap, out: &mut Vec<VertexId>) {
    let mut bi = 0usize;
    for &v in query {
        let blk = v >> 6;
        while bi < hub.blocks.len() && hub.blocks[bi] < blk {
            bi += 1;
        }
        if bi == hub.blocks.len() {
            break;
        }
        if hub.blocks[bi] == blk && (hub.words[bi] >> (v & 63)) & 1 == 1 {
            out.push(v);
        }
    }
}

/// In-place variant of [`intersect_bitmap_into`]: compacts `acc` to
/// `acc ∩ hub` using the same monotone block cursor.
pub fn intersect_bitmap_in_place(acc: &mut Vec<VertexId>, hub: &HubBitmap) {
    let mut w = 0usize;
    let mut bi = 0usize;
    for r in 0..acc.len() {
        let v = acc[r];
        let blk = v >> 6;
        while bi < hub.blocks.len() && hub.blocks[bi] < blk {
            bi += 1;
        }
        if bi == hub.blocks.len() {
            break;
        }
        if hub.blocks[bi] == blk && (hub.words[bi] >> (v & 63)) & 1 == 1 {
            acc[w] = v;
            w += 1;
        }
    }
    acc.truncate(w);
}

/// Count twin of [`intersect_bitmap_into`].
pub fn intersect_count_bitmap(query: &[VertexId], hub: &HubBitmap) -> u64 {
    let mut bi = 0usize;
    let mut n = 0u64;
    for &v in query {
        let blk = v >> 6;
        while bi < hub.blocks.len() && hub.blocks[bi] < blk {
            bi += 1;
        }
        if bi == hub.blocks.len() {
            break;
        }
        n += (hub.blocks[bi] == blk && (hub.words[bi] >> (v & 63)) & 1 == 1) as u64;
    }
    n
}

// ---------------------------------------------------------------------------
// Adaptive dispatch
// ---------------------------------------------------------------------------

/// Intersects `acc` with `other` in place (compacting `acc`), dispatching
/// on cardinality skew. Returns the kernel used so callers can tally it.
///
/// This is the one shared in-place compaction used by `intersect_many` and
/// the operator layer's multiway extension loop. Galloping searches
/// whichever side is larger: the accumulator shrinks as a multiway
/// intersection proceeds, so the galloped side can flip between steps.
pub fn intersect_in_place(acc: &mut Vec<VertexId>, other: &[VertexId]) -> KernelKind {
    let kind = select_kernel(acc.len(), other.len(), false);
    let mut w = 0usize;
    match kind {
        KernelKind::Merge | KernelKind::Bitmap => {
            let (mut i, mut j) = (0, 0);
            while i < acc.len() && j < other.len() {
                let (x, y) = (acc[i], other[j]);
                if x == y {
                    acc[w] = x;
                    w += 1;
                }
                i += (x <= y) as usize;
                j += (y <= x) as usize;
            }
        }
        KernelKind::Gallop if acc.len() <= other.len() => {
            // Small accumulator, large list: gallop the list.
            let mut base = 0usize;
            for i in 0..acc.len() {
                let x = acc[i];
                base += lower_bound_gallop(&other[base..], x);
                if base >= other.len() {
                    break;
                }
                if other[base] == x {
                    acc[w] = x;
                    w += 1;
                    base += 1;
                }
            }
        }
        KernelKind::Gallop => {
            // Large accumulator, small list: gallop the accumulator. The
            // write cursor trails the read cursor (w ≤ matches ≤ base), so
            // compaction in place is safe.
            let mut base = 0usize;
            for &x in other {
                base += lower_bound_gallop(&acc[base..], x);
                if base >= acc.len() {
                    break;
                }
                if acc[base] == x {
                    acc[w] = x;
                    w += 1;
                    base += 1;
                }
            }
        }
    }
    acc.truncate(w);
    kind
}

/// Appends `a ∩ b` (sorted) to `out`, dispatching between the merge and
/// galloping kernels on skew. Returns the kernel used. The out-of-place
/// sibling of [`intersect_in_place`], for callers whose operands are
/// borrowed slices.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> KernelKind {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kind = select_kernel(small.len(), large.len(), false);
    match kind {
        KernelKind::Gallop => intersect_gallop_into(small, large, out),
        _ => intersect_merge_into(small, large, out),
    }
    kind
}

/// Counts `|a ∩ b|`, dispatching between the merge and galloping count
/// twins on skew (use [`intersect_count_bitmap`] directly when a hub bitmap
/// is cached). Returns the count and the kernel used.
pub fn intersect_count_adaptive(a: &[VertexId], b: &[VertexId]) -> (u64, KernelKind) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kind = select_kernel(small.len(), large.len(), false);
    let n = match kind {
        KernelKind::Gallop => intersect_count_gallop(small, large),
        _ => intersect_count_merge(small, large),
    };
    (n, kind)
}

// ---------------------------------------------------------------------------
// Hub index
// ---------------------------------------------------------------------------

/// Per-partition cache of [`HubBitmap`]s for local high-degree vertices.
///
/// Built once at cluster start for every local vertex whose degree is at
/// least `threshold` (a `threshold` of 0 disables the index). The bitmap
/// kernel is used whenever an extension intersects against one of these
/// hubs; lower-degree vertices fall back to merge/gallop.
#[derive(Clone, Debug, Default)]
pub struct HubIndex {
    threshold: usize,
    map: HashMap<VertexId, HubBitmap>,
    bytes: u64,
}

impl HubIndex {
    /// Builds the index over `(vertex, adjacency)` pairs whose degree meets
    /// `threshold`. Callers supply only the vertices they own.
    pub fn build<'a, I>(threshold: usize, lists: I) -> Arc<HubIndex>
    where
        I: IntoIterator<Item = (VertexId, &'a [VertexId])>,
    {
        let mut map = HashMap::new();
        let mut bytes = 0u64;
        if threshold > 0 {
            for (v, nbrs) in lists {
                if nbrs.len() >= threshold {
                    let bm = HubBitmap::build(nbrs);
                    bytes += bm.byte_size() as u64;
                    map.insert(v, bm);
                }
            }
        }
        Arc::new(HubIndex {
            threshold,
            map,
            bytes,
        })
    }

    /// The degree threshold the index was built with.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The bitmap for `v`, if `v` is an indexed hub.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<&HubBitmap> {
        self.map.get(&v)
    }

    /// Number of indexed hubs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no vertex met the threshold.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total heap bytes held by the cached bitmaps.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::intersect_sorted;

    fn strided(len: usize, stride: u32, offset: u32) -> Vec<VertexId> {
        (0..len as u32).map(|i| i * stride + offset).collect()
    }

    #[test]
    fn merge_matches_scalar_reference() {
        let a = strided(100, 3, 0);
        let b = strided(400, 2, 1);
        let mut out = Vec::new();
        intersect_merge_into(&a, &b, &mut out);
        assert_eq!(out, intersect_sorted(&a, &b));
        assert_eq!(intersect_count_merge(&a, &b), out.len() as u64);
    }

    #[test]
    fn gallop_matches_scalar_reference() {
        let small = strided(16, 97, 5);
        let large = strided(4096, 3, 0);
        let mut out = Vec::new();
        intersect_gallop_into(&small, &large, &mut out);
        assert_eq!(out, intersect_sorted(&small, &large));
        assert_eq!(intersect_count_gallop(&small, &large), out.len() as u64);
    }

    #[test]
    fn gallop_handles_empty_and_disjoint() {
        let mut out = Vec::new();
        intersect_gallop_into(&[], &[1, 2, 3], &mut out);
        assert!(out.is_empty());
        intersect_gallop_into(&[10, 20], &[], &mut out);
        assert!(out.is_empty());
        intersect_gallop_into(&[100, 200], &[1, 2, 3], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn lower_bound_gallop_brackets_correctly() {
        let hay: Vec<VertexId> = vec![2, 4, 6, 8, 10, 12, 14];
        for needle in 0..16 {
            let want = hay.partition_point(|&x| x < needle);
            assert_eq!(lower_bound_gallop(&hay, needle), want, "needle {needle}");
        }
        assert_eq!(lower_bound_gallop(&[], 5), 0);
    }

    #[test]
    fn bitmap_matches_scalar_reference() {
        let hub = strided(500, 7, 3);
        let query = strided(300, 11, 0);
        let bm = HubBitmap::build(&hub);
        assert_eq!(bm.cardinality(), 500);
        let mut out = Vec::new();
        intersect_bitmap_into(&query, &bm, &mut out);
        assert_eq!(out, intersect_sorted(&query, &hub));
        assert_eq!(intersect_count_bitmap(&query, &bm), out.len() as u64);
        let mut acc = query.clone();
        intersect_bitmap_in_place(&mut acc, &bm);
        assert_eq!(acc, out);
    }

    #[test]
    fn bitmap_membership() {
        let bm = HubBitmap::build(&[0, 63, 64, 1000]);
        assert!(bm.contains(0));
        assert!(bm.contains(63));
        assert!(bm.contains(64));
        assert!(bm.contains(1000));
        assert!(!bm.contains(1));
        assert!(!bm.contains(65));
        assert!(!bm.contains(999));
        assert!(bm.byte_size() > 0);
    }

    #[test]
    fn in_place_dispatches_and_compacts() {
        // Balanced → merge.
        let mut acc = strided(64, 3, 0);
        let other = strided(64, 2, 0);
        let want = intersect_sorted(&acc, &other);
        assert_eq!(intersect_in_place(&mut acc, &other), KernelKind::Merge);
        assert_eq!(acc, want);

        // Small acc vs large list → gallop.
        let mut acc = strided(8, 50, 0);
        let other = strided(1024, 5, 0);
        let want = intersect_sorted(&acc, &other);
        assert_eq!(intersect_in_place(&mut acc, &other), KernelKind::Gallop);
        assert_eq!(acc, want);

        // Large acc vs small list → gallop (the other direction).
        let mut acc = strided(1024, 5, 0);
        let other = strided(8, 50, 0);
        let want = intersect_sorted(&acc, &other);
        assert_eq!(intersect_in_place(&mut acc, &other), KernelKind::Gallop);
        assert_eq!(acc, want);
    }

    #[test]
    fn adaptive_entry_points_agree_on_every_shape() {
        // In place, out of place and count-only must produce the same
        // set/count whichever kernel the operand sizes select.
        let shapes = [
            (strided(64, 3, 0), strided(64, 2, 0)),   // balanced
            (strided(8, 50, 0), strided(1024, 5, 0)), // small acc, large list
            (strided(1024, 5, 0), strided(8, 50, 0)), // large acc, small list
            (Vec::new(), strided(16, 2, 0)),          // empty acc
            (strided(16, 2, 0), Vec::new()),          // empty list
        ];
        for (acc0, other) in &shapes {
            let want = intersect_sorted(acc0, other);
            let mut acc = acc0.clone();
            let kind = intersect_in_place(&mut acc, other);
            assert_eq!(acc, want, "in-place {kind:?}");
            let mut out = vec![7];
            assert_eq!(intersect_into(acc0, other, &mut out), kind);
            assert_eq!(out[1..], want[..], "appends after what `out` held");
            assert_eq!(
                intersect_count_adaptive(acc0, other),
                (want.len() as u64, kind)
            );
        }
    }

    #[test]
    fn count_adaptive_matches_reference() {
        let a = strided(10, 100, 0);
        let b = strided(2000, 4, 0);
        let (n, kind) = intersect_count_adaptive(&a, &b);
        assert_eq!(n, intersect_sorted(&a, &b).len() as u64);
        assert_eq!(kind, KernelKind::Gallop);
        let (n2, kind2) = intersect_count_adaptive(&b, &a);
        assert_eq!(n2, n);
        assert_eq!(kind2, KernelKind::Gallop);
    }

    #[test]
    fn kernel_selection_rules() {
        assert_eq!(select_kernel(100, 100, false), KernelKind::Merge);
        assert_eq!(select_kernel(100, 799, false), KernelKind::Merge);
        assert_eq!(select_kernel(100, 800, false), KernelKind::Gallop);
        assert_eq!(select_kernel(800, 100, false), KernelKind::Gallop);
        assert_eq!(select_kernel(100, 100, true), KernelKind::Bitmap);
        assert_eq!(select_kernel(0, 10, false), KernelKind::Gallop);
    }

    #[test]
    fn tally_accumulates() {
        let mut t = KernelTally::default();
        t.bump(KernelKind::Merge);
        t.bump(KernelKind::Gallop);
        t.bump(KernelKind::Gallop);
        t.bump(KernelKind::Bitmap);
        assert_eq!(t.merge, 1);
        assert_eq!(t.gallop, 2);
        assert_eq!(t.bitmap, 1);
        assert_eq!(t.total(), 4);
        let mut u = KernelTally::default();
        u.absorb(t);
        u.absorb(t);
        assert_eq!(u.total(), 8);
    }

    #[test]
    fn hub_index_builds_only_hubs() {
        let big = strided(300, 2, 0);
        let small = strided(10, 2, 1);
        let idx = HubIndex::build(256, vec![(0u32, big.as_slice()), (1u32, small.as_slice())]);
        assert_eq!(idx.len(), 1);
        assert!(idx.get(0).is_some());
        assert!(idx.get(1).is_none());
        assert_eq!(idx.threshold(), 256);
        assert!(idx.byte_size() > 0);

        let off = HubIndex::build(0, vec![(0u32, big.as_slice())]);
        assert!(off.is_empty());
    }
}
