//! Cardinality-adaptive intersection kernels for the enumeration hot loop.
//!
//! `PULL-EXTEND` (HUGE §4.2, Eq. 2) spends nearly all of its compute time
//! intersecting sorted adjacency lists. One scalar two-pointer merge is the
//! wrong shape for most real calls: adjacency cardinalities in power-law
//! graphs differ by orders of magnitude, and hub vertices are intersected
//! against thousands of partial results per run. This module provides a
//! small kernel *family* and a per-call dispatcher. Each kernel is one
//! *walk* that hands every element of the intersection, ascending, to a
//! closure:
//!
//! * [`merge`] — branch-light sorted merge for balanced lists. The loop
//!   advances both cursors with arithmetic on comparison results instead of
//!   a three-way `match`, which keeps the hot loop free of unpredictable
//!   branches and lets the compiler vectorise the common all-misses
//!   stretches.
//! * [`gallop`] — galloping (exponential search) when the cardinalities
//!   differ by at least [`GALLOP_RATIO`]×: iterate the small list, bound
//!   each probe into the large list by doubling steps, finish with a binary
//!   search on the bracketed window. `O(s · log(l/s))` versus the merge's
//!   `O(s + l)`.
//! * [`bitmap`] — block-skipping bitmap membership for hub vertices. A
//!   [`HubBitmap`] stores only the non-zero 64-bit blocks of the hub's
//!   adjacency set (sorted block ids + one word each); the query list is
//!   walked once with a monotone block cursor, so runs of the query that
//!   fall into absent blocks cost one comparison per element and no binary
//!   search.
//! * [`probe`] — hashed membership against a [`ProbeFilter`] for one side
//!   that stays the same over many calls (`PULL-EXTEND`'s shared prefix
//!   over a run of rows). The caller sets the shared side's elements in the
//!   filter once ([`ProbeFilter::set_all`]), every call then scans only its
//!   *other* operand, up to the first element past the shared side's last —
//!   one independent 8 KiB-table load per element, a binary search of the
//!   shared side on a hit — and the caller clears the filter by re-hashing
//!   the same elements ([`ProbeFilter::clear_all`]) before the shared side
//!   changes. Hashed and verified rather than a |V|-bit bitmap: the same
//!   size at any graph scale, no allocation per worker ∝ |V|. The caller
//!   also decides when not to: a shared side over [`PROBE_MAX_SET`] would
//!   crowd the filter, and an operand over [`PROBE_MAX_SKEW`] × the shared
//!   side is cheaper to gallop through than to scan.
//!
//! What a caller does with the elements is the closure — its *sink*: `|_| n
//! += 1` counts (the count-only sinks of the runtime never materialise
//! candidates), `|x| out.push(x)` appends, and a multiway intersection
//! steps its accumulator by writing into a spare buffer it owns and
//! swapping the two ([`intersect_in_place`]). The closures inline, so a
//! sink costs what a hand-written loop would. [`intersect`] picks merge or
//! gallop per call from `(|smallest|, |largest|)` ([`select_kernel`]) — the
//! operands of a call are what is left of the lists after earlier steps and
//! range filters, which no up-front look at vertex degrees describes — and
//! callers record the choice in a [`KernelTally`] so the kernel mix is
//! observable in `ClusterStats`. The bitmap and probe kernels are not
//! `select_kernel`'s to pick: whether a hub bitmap or a filter over one
//! operand exists is the caller's state, not a property of the call. The
//! tally counts intersections *executed*: `PULL-EXTEND` reuses a run's
//! prefix intersection instead of repeating it per row, so the mix is that
//! of the work done, not of the extend steps the plan nominally has.

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
    /// Hashed membership probe against a run-scoped [`ProbeFilter`].
    Probe,
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
    /// Probe-filter invocations.
    pub probe: u64,
}

impl KernelTally {
    /// Records one invocation of `kind`.
    #[inline]
    pub fn bump(&mut self, kind: KernelKind) {
        match kind {
            KernelKind::Merge => self.merge += 1,
            KernelKind::Gallop => self.gallop += 1,
            KernelKind::Bitmap => self.bitmap += 1,
            KernelKind::Probe => self.probe += 1,
        }
    }

    /// Total invocations across all kernels.
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.bitmap + self.probe
    }
}

/// Picks merge or gallop for one intersection call of lists with `a` and
/// `b` elements (order-insensitive): galloping wins at ≥ [`GALLOP_RATIO`]×
/// skew, the merge handles the rest.
#[inline]
pub fn select_kernel(a: usize, b: usize) -> KernelKind {
    if a.max(b) >= a.min(b).saturating_mul(GALLOP_RATIO) {
        KernelKind::Gallop
    } else {
        KernelKind::Merge
    }
}

// ---------------------------------------------------------------------------
// Merge kernel
// ---------------------------------------------------------------------------

/// Branch-light sorted merge: calls `hit` with every element of `a ∩ b`,
/// ascending.
#[inline]
pub fn merge(a: &[VertexId], b: &[VertexId], mut hit: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            hit(x);
        }
        // Cursor advancement as arithmetic on the comparison outcome keeps
        // the loop body branchless apart from the hit.
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

/// `|a ∩ b|` by the [`merge`] walk.
pub fn intersect_count_merge(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut n = 0u64;
    merge(a, b, |_| n += 1);
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

/// Galloping intersection: iterates `small`, exponential-searches `large`,
/// and calls `hit` with every element of `small ∩ large`, ascending. The
/// search restarts from the previous match position, so the large list is
/// consumed monotonically. Correct in either orientation; fast when `small`
/// is the shorter list.
#[inline]
pub fn gallop(small: &[VertexId], large: &[VertexId], mut hit: impl FnMut(VertexId)) {
    let mut base = 0usize;
    for &x in small {
        base += lower_bound_gallop(&large[base..], x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            hit(x);
            base += 1;
        }
    }
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

/// Bitmap intersection: calls `hit` with every element of `query ∩ hub`,
/// ascending. Walks the sorted `query` once with a monotone cursor over the
/// bitmap's non-zero blocks; query elements in absent blocks cost one
/// comparison.
#[inline]
pub fn bitmap(query: &[VertexId], hub: &HubBitmap, mut hit: impl FnMut(VertexId)) {
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
            hit(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Probe kernel
// ---------------------------------------------------------------------------

/// log₂ of the number of bits in a [`ProbeFilter`].
const PROBE_FILTER_BITS: u32 = 16;
/// Its 64-bit words.
const PROBE_FILTER_WORDS: usize = 1 << (PROBE_FILTER_BITS - 6);

/// Largest set a [`ProbeFilter`] is worth holding: one element per 16 bits
/// keeps the false-positive rate of a probe at or under 1/16 ≈ 6 %. (Runs of
/// 15 equal-sized random operands, probe time / merge time including the
/// set and clear: 0.18 at 12 elements, 0.46 at 4096, 0.86 at 8192, and past
/// 1 at 8192 as soon as the probed list is the longer one.)
pub const PROBE_MAX_SET: usize = (1 << PROBE_FILTER_BITS) / 16;

/// A probed list may be at most this many times longer than the set it is
/// probed against; past it the probe's `O(|nb|)` scan loses to galloping's
/// `O(|s| · log(|nb| / |s|))`. (Same microbench, probe time / gallop time at
/// 32× and 64×: 0.84 and 1.30 for a set of 12, 0.78 and 1.25 for 64, 0.97
/// and 1.28 for 512.)
pub const PROBE_MAX_SKEW: usize = 32;

/// A fixed-size hashed bit set over one sorted vertex set `s`, built once and
/// probed many times: the run-scoped side of [`probe`].
///
/// 2¹⁶ bits (8 KiB) whatever the graph's size, so it stays L1-resident and
/// costs no memory ∝ |V|. A set bit means "maybe in `s`" — the kernel
/// confirms every hit by searching `s`, so the filter only has to be a
/// superset: stale or colliding bits cost a search, never a wrong answer.
pub struct ProbeFilter {
    words: [u64; PROBE_FILTER_WORDS],
}

impl Default for ProbeFilter {
    fn default() -> Self {
        ProbeFilter {
            words: [0; PROBE_FILTER_WORDS],
        }
    }
}

impl ProbeFilter {
    /// The word index and bit mask of `x`: the top bits of a multiplicative
    /// hash, so that id ranges sharing their high or low bits (neighbours of
    /// one vertex often do) still spread over the whole filter.
    #[inline]
    fn slot(x: VertexId) -> (usize, u64) {
        let h = x.wrapping_mul(0x9E37_79B1) >> (32 - PROBE_FILTER_BITS);
        ((h >> 6) as usize, 1u64 << (h & 63))
    }

    /// Sets the bit of every element of `s`.
    pub fn set_all(&mut self, s: &[VertexId]) {
        for &x in s {
            let (w, bit) = Self::slot(x);
            self.words[w] |= bit;
        }
    }

    /// Un-sets the bits [`ProbeFilter::set_all`] set for the same `s`, by
    /// re-hashing its elements: `O(|s|)`, not a wipe of every word. A filter
    /// that held only `s` is empty afterwards.
    pub fn clear_all(&mut self, s: &[VertexId]) {
        for &x in s {
            let (w, bit) = Self::slot(x);
            self.words[w] &= !bit;
        }
    }

    /// `false` when `x` is certainly not in the set the filter holds.
    #[inline]
    pub fn may_contain(&self, x: VertexId) -> bool {
        let (w, bit) = Self::slot(x);
        self.words[w] & bit != 0
    }

    /// `true` when no bit is set.
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Probe intersection: calls `hit` with every element of `s ∩ nb`,
/// ascending, where `filter` holds at least the elements of `s`
/// ([`ProbeFilter::set_all`]).
///
/// Scans `nb` once, up to the first element past `s`'s last: each element
/// costs one independent filter load, and only a filter hit is confirmed by a
/// binary search in what is left of `s` — so the result is exact whatever
/// else the filter holds. Nothing in the loop depends on the previous element
/// until a hit, unlike the merge's loop-carried cursor pair. Because the walk
/// stops itself, a caller may pass `nb` uncut above: `s ∩ nb` is the same.
#[inline]
pub fn probe(filter: &ProbeFilter, s: &[VertexId], nb: &[VertexId], mut hit: impl FnMut(VertexId)) {
    let (mut rest, last) = (s, s.last().copied().unwrap_or(0));
    for &x in nb.iter().take_while(|&&x| x <= last) {
        if filter.may_contain(x) {
            match rest.binary_search(&x) {
                Ok(k) => {
                    hit(x);
                    rest = &rest[k + 1..];
                }
                Err(k) => rest = &rest[k..],
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive dispatch
// ---------------------------------------------------------------------------

/// The adaptive walk: calls `hit` with every element of `a ∩ b`, ascending,
/// through [`merge`] or — at [`select_kernel`]'s skew — [`gallop`] over
/// the longer list. Returns the kernel used so callers can tally it.
#[inline]
pub fn intersect(a: &[VertexId], b: &[VertexId], hit: impl FnMut(VertexId)) -> KernelKind {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kind = select_kernel(small.len(), large.len());
    match kind {
        KernelKind::Gallop => gallop(small, large, hit),
        _ => merge(small, large, hit),
    }
    kind
}

/// Counts `|a ∩ b|` by the [`intersect`] walk. Returns the count and the
/// kernel used.
pub fn intersect_count_adaptive(a: &[VertexId], b: &[VertexId]) -> (u64, KernelKind) {
    let mut n = 0u64;
    let kind = intersect(a, b, |_| n += 1);
    (n, kind)
}

/// One step of a multiway intersection: `acc` becomes `acc ∩ other`. The
/// [`intersect`] walk writes into `spare`, a buffer the caller owns and
/// keeps across steps, and the two swap — no compaction loop of its own,
/// and no allocation once both buffers have grown. Returns the kernel used.
pub fn intersect_in_place(
    acc: &mut Vec<VertexId>,
    other: &[VertexId],
    spare: &mut Vec<VertexId>,
) -> KernelKind {
    spare.clear();
    let kind = intersect(acc, other, |x| spare.push(x));
    std::mem::swap(acc, spare);
    kind
}

// ---------------------------------------------------------------------------
// Hub index
// ---------------------------------------------------------------------------

/// Per-partition cache of [`HubBitmap`]s for local high-degree vertices.
///
/// Vertex ids are degree ranks, so the vertices whose degree meets the hub
/// threshold are exactly the ids `0..h`: the index is one slot per such id,
/// `None` for a hub another machine owns. Built once at cluster start
/// ([`crate::GraphPartition::build_hub_index`]); the bitmap kernel is used
/// whenever an extension intersects against one of these hubs, and
/// lower-degree vertices fall back to merge/gallop.
#[derive(Clone, Debug, Default)]
pub struct HubIndex {
    bitmaps: Vec<Option<HubBitmap>>,
}

impl HubIndex {
    /// Builds the index over the ids `0..h`: `lists` yields one entry per
    /// id, in order — the adjacency list of a hub the caller owns, or `None`.
    pub fn build<'a, I>(lists: I) -> Arc<HubIndex>
    where
        I: IntoIterator<Item = Option<&'a [VertexId]>>,
    {
        let bitmaps = lists.into_iter().map(|l| l.map(HubBitmap::build)).collect();
        Arc::new(HubIndex { bitmaps })
    }

    /// The bitmap for `v`, if `v` is an indexed hub. One compare answers
    /// every id at or past `h`.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<&HubBitmap> {
        self.bitmaps.get(v as usize)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::intersect_sorted;

    fn strided(len: usize, stride: u32, offset: u32) -> Vec<VertexId> {
        (0..len as u32).map(|i| i * stride + offset).collect()
    }

    /// What each sink makes of `walk`: the elements it appends after what a
    /// buffer held, and their count.
    fn sinks(walk: impl Fn(&mut dyn FnMut(VertexId))) -> (Vec<VertexId>, u64) {
        let mut out = vec![7];
        walk(&mut |x| out.push(x));
        assert_eq!(out[0], 7, "appends after what `out` held");
        let mut n = 0u64;
        walk(&mut |_| n += 1);
        (out.split_off(1), n)
    }

    #[test]
    fn merge_matches_scalar_reference() {
        let a = strided(100, 3, 0);
        let b = strided(400, 2, 1);
        let want = intersect_sorted(&a, &b);
        let (out, n) = sinks(|hit| merge(&a, &b, hit));
        assert_eq!(out, want);
        assert_eq!(n, want.len() as u64);
        assert_eq!(intersect_count_merge(&a, &b), n);
    }

    #[test]
    fn gallop_matches_scalar_reference() {
        let small = strided(16, 97, 5);
        let large = strided(4096, 3, 0);
        let want = intersect_sorted(&small, &large);
        let (out, n) = sinks(|hit| gallop(&small, &large, hit));
        assert_eq!(out, want);
        assert_eq!(n, want.len() as u64);
        assert_eq!(sinks(|hit| gallop(&large, &small, hit)), (want, n));
    }

    #[test]
    fn gallop_handles_empty_and_disjoint() {
        for (small, large) in [
            (&[][..], &[1, 2, 3][..]),
            (&[10, 20], &[]),
            (&[100, 200], &[1, 2, 3]),
        ] {
            assert_eq!(sinks(|hit| gallop(small, large, hit)), (Vec::new(), 0));
        }
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
        let want = intersect_sorted(&query, &hub);
        assert_eq!(
            sinks(|hit| bitmap(&query, &bm, hit)),
            (want.clone(), want.len() as u64)
        );
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
        // One spare across every step, as a multiway intersection keeps it.
        let mut spare = vec![9, 9, 9];
        let steps = [
            (strided(64, 3, 0), strided(64, 2, 0), KernelKind::Merge), // balanced
            (strided(8, 50, 0), strided(1024, 5, 0), KernelKind::Gallop), // small acc
            (strided(1024, 5, 0), strided(8, 50, 0), KernelKind::Gallop), // large acc
        ];
        for (mut acc, other, kind) in steps {
            let want = intersect_sorted(&acc, &other);
            assert_eq!(intersect_in_place(&mut acc, &other, &mut spare), kind);
            assert_eq!(acc, want);
        }
    }

    #[test]
    fn adaptive_entry_points_agree_on_every_shape() {
        // The accumulator step, append and count must produce the same
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
            let kind = intersect_in_place(&mut acc, other, &mut Vec::new());
            assert_eq!(acc, want, "in-place {kind:?}");
            assert_eq!(
                sinks(|hit| assert_eq!(intersect(acc0, other, hit), kind)).0,
                want
            );
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
        assert_eq!(select_kernel(100, 100), KernelKind::Merge);
        assert_eq!(select_kernel(100, 799), KernelKind::Merge);
        assert_eq!(select_kernel(100, 800), KernelKind::Gallop);
        assert_eq!(select_kernel(800, 100), KernelKind::Gallop);
        assert_eq!(select_kernel(0, 10), KernelKind::Gallop);
    }

    #[test]
    fn tally_accumulates() {
        let mut t = KernelTally::default();
        t.bump(KernelKind::Merge);
        t.bump(KernelKind::Gallop);
        t.bump(KernelKind::Gallop);
        t.bump(KernelKind::Bitmap);
        t.bump(KernelKind::Probe);
        assert_eq!(t.merge, 1);
        assert_eq!(t.gallop, 2);
        assert_eq!(t.bitmap, 1);
        assert_eq!(t.probe, 1);
        assert_eq!(t.total(), 5);
    }

    /// Another id in the filter slot of `x`, found by search over the hash.
    fn slot_twin(x: VertexId) -> VertexId {
        let twin =
            (0..=VertexId::MAX).find(|&y| y != x && ProbeFilter::slot(y) == ProbeFilter::slot(x));
        twin.expect("2³² ids share 2¹⁶ slots")
    }

    fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn a_cleared_filter_holds_no_bits() {
        let a = strided(300, 7, 1);
        let b = sorted(
            strided(200, 11, 5)
                .into_iter()
                .chain([0, VertexId::MAX])
                .collect(),
        );
        let mut filter = ProbeFilter::default();
        assert!(filter.is_clear());
        filter.set_all(&a);
        assert!(a.iter().all(|&x| filter.may_contain(x)));
        filter.clear_all(&a);
        assert!(
            filter.is_clear(),
            "clearing by the set that was set empties the filter"
        );
        filter.set_all(&b);
        let nb = sorted(a.iter().chain(&b).copied().collect());
        assert_eq!(
            sinks(|hit| probe(&filter, &b, &nb, hit)),
            (b.clone(), b.len() as u64)
        );
        filter.clear_all(&b);
        assert!(filter.is_clear());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The probe walk against the merge walk, element for element,
            /// through both sinks: set sizes on both sides of a
            /// [`ProbeFilter`]'s design load, every overlap shape, the
            /// extreme ids, and an id the filter cannot tell from a member.
            #[test]
            fn probe_agrees_with_merge_on_every_shape(
                s_len in prop_oneof![Just(0usize), Just(1usize), 2usize..200, Just(4095usize), Just(4096usize)],
                nb_len in prop_oneof![Just(0usize), 1usize..200, 200usize..6000],
                stride in 1u32..1000,
                overlap in 0usize..6,
                ends in 0usize..4,
            ) {
                let mut s = strided(s_len, 3 * stride, stride);
                let mut nb = match overlap {
                    0 => strided(nb_len, 2 * stride, stride), // interleaved
                    1 => strided(nb_len, 3 * stride, stride + 1), // disjoint
                    2 => s.clone(),                           // equal
                    3 => strided(nb_len, 1, 0),               // dense low ids
                    // `s` a band strictly inside `nb`'s range: elements of
                    // `nb` below it, among it, and past its last.
                    4 => {
                        let top = s.last().map_or(0, |&x| x + 1);
                        let mut nb = strided(nb_len, stride, 0);
                        nb.extend([top, top + stride, top + 2 * stride]);
                        nb
                    }
                    _ => sorted((0..nb_len as u32).map(|i| i.wrapping_mul(0x85EB_CA6B) ^ stride).collect()),
                };
                if ends & 1 != 0 {
                    s.extend([0, VertexId::MAX]);
                }
                if ends & 2 != 0 {
                    nb.extend([0, VertexId::MAX]);
                }
                // A false positive by construction: in a member's slot, not
                // a member.
                if let Some(twin) = s.first().map(|&x| slot_twin(x)).filter(|t| !s.contains(t)) {
                    nb.push(twin);
                }
                let (s, nb) = (sorted(s), sorted(nb));

                let mut filter = ProbeFilter::default();
                filter.set_all(&s);
                let want = sinks(|hit| merge(&s, &nb, hit));
                prop_assert_eq!(sinks(|hit| probe(&filter, &s, &nb, hit)), want);
                filter.clear_all(&s);
                prop_assert!(filter.is_clear());
            }
        }
    }

    #[test]
    fn hub_index_builds_only_hubs() {
        let big = strided(300, 2, 0);
        let small = strided(10, 2, 1);
        let idx = HubIndex::build([Some(big.as_slice()), None, Some(small.as_slice())]);
        assert_eq!(idx.get(0).map(HubBitmap::cardinality), Some(300));
        assert!(idx.get(1).is_none());
        assert_eq!(idx.get(2).map(HubBitmap::cardinality), Some(10));
        assert!(idx.get(3).is_none() && idx.get(u32::MAX).is_none());
        assert!(HubIndex::build([]).get(0).is_none());
    }
}
