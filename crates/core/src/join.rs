//! The `PUSH-JOIN` operator: a buffered, partitioned (Grace-style) hash join
//! with disk spill (§4.3).
//!
//! Each side of the join is hash-partitioned by join key into a fixed number
//! of partitions. A partition buffers rows in memory until the configured
//! threshold, after which further rows are appended to a temporary file on
//! disk. When both inputs are complete, the joiner converts into a
//! [`JoinStream`] that drives the partitions *lazily*: each poll loads at
//! most one partition, groups its right rows by join key behind a hash
//! table, and probes with the left rows until one batch of pairs survived.
//! Memory is therefore bounded by the largest single partition plus one
//! output batch — matching the paper's "memory consumption is bounded to the
//! buffer size" claim — on *every* consumption path, including incremental
//! `poll`-driven execution.
//!
//! The probe is **one pair generator with two sinks**. What a candidate pair
//! must pass — the wide-key re-check, cross-side injectivity, the order
//! filters — is compiled once when the join seals ([`ProbeSpec::compile`]):
//! every filter is classified by where its operands live (both on the left
//! row, one on each side, both in the right payload) and the right columns
//! the checks read are fixed. The resident partition keeps exactly those
//! columns of its build side, one dense vector each, grouped by join key;
//! the generator binds a left row's values once, then tests its key group a
//! block of right rows at a time, one branch-free pass per column into a
//! mask. [`JoinStream::count_batch`] sums the mask — the sink the engine
//! pushes down when the join feeds a counting `SINK` directly —
//! [`JoinStream::next_batch`] turns it into `(left row, right row)` index
//! pairs and gathers the output columns from them. Both share the partition
//! lifecycle, the tracker charges and the per-poll cancel check.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use huge_comm::{ColBatch, RowBatch};
use huge_graph::VertexId;
use huge_plan::translate::JoinOp;

use crate::memory::MemoryTracker;
use crate::Result;

/// Number of Grace partitions per side.
pub const NUM_PARTITIONS: usize = 16;

/// Lifecycle of one Grace partition inside a sealed join.
///
/// `Sealed` partitions are first-class work items: they can be probed
/// locally or shipped whole to an idle peer (partition stealing). The
/// transitions are `Sealed → Probing → Done` locally and `Sealed → Shipped`
/// when a steal request claims the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionState {
    /// Sealed but not yet probed — eligible for shipping to a peer.
    Sealed,
    /// Loaded and currently being probed on this machine.
    Probing,
    /// Handed to a thief machine; no longer this machine's work.
    Shipped,
    /// Probed to completion (or discarded as unmatchable).
    Done,
}

/// A sealed Grace partition claimed for shipping: `(partition index, left
/// rows, right rows)`, both sides flat.
pub type TakenPartition = (usize, Vec<VertexId>, Vec<VertexId>);

/// Which input of the join a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// The left input (its rows form the prefix of output rows).
    Left,
    /// The right input (only its non-key payload columns are appended).
    Right,
}

/// Encodes rows in the spill-file format: every value as a little-endian
/// `u32`, flat.
fn encode_rows(rows: &[VertexId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(rows));
    for v in rows {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a spill file's bytes back into rows.
fn decode_rows(bytes: &[u8]) -> Vec<VertexId> {
    bytes
        .chunks_exact(std::mem::size_of::<VertexId>())
        .map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Hashes the join-key columns of a row.
pub fn key_hash(row: &[VertexId], key_positions: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &pos in key_positions {
        h ^= row[pos] as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The Grace partition of a row whose join key hashes to `hash`. The shuffle
/// already routed the row by `hash % k`, so every row a machine receives
/// agrees on those low bits; taking the partition from them again would leave
/// all but `NUM_PARTITIONS / k` partitions empty. The multiply folds the
/// whole hash into the high half, which the shuffle never looked at.
fn grace_partition(hash: u64) -> usize {
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % NUM_PARTITIONS
}

/// Widest join key (in columns) that packs exactly into a `u128`.
const PACK_MAX_KEY: usize = 4;

/// Packs the join-key columns of a row into a single `u128` table key. Up to
/// [`PACK_MAX_KEY`] columns pack positionally (collision-free); wider keys
/// fall back to the FNV hash, and the probe re-checks column equality on
/// each candidate match.
fn pack_key(row: &[VertexId], key_positions: &[usize]) -> u128 {
    if key_positions.len() <= PACK_MAX_KEY {
        let mut k = 0u128;
        for &pos in key_positions {
            k = (k << 32) | row[pos] as u128;
        }
        k
    } else {
        key_hash(row, key_positions) as u128
    }
}

/// Hasher for the partition table's packed `u128` keys: one folded 64×64-bit
/// multiply instead of SipHash. The keys are vertex ids of rows this engine
/// produced, not adversarial input, so `HashMap`'s collision-flooding
/// protection buys nothing on the probe's hottest path.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn write_u128(&mut self, key: u128) {
        let lo = key as u64 ^ 0x9e37_79b9_7f4a_7c15;
        let hi = (key >> 64) as u64 ^ 0xc2b2_ae3d_27d4_eb4f;
        let product = u128::from(lo) * u128::from(hi);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Packed join key -> `(start, end)` row range of the grouped right rows.
type KeyTable = HashMap<u128, (u32, u32), BuildHasherDefault<KeyHasher>>;

struct SidePartition {
    rows_in_memory: Vec<VertexId>,
    memory_bytes: u64,
    spill_file: Option<PathBuf>,
    spilled_values: u64,
}

impl SidePartition {
    fn new() -> Self {
        SidePartition {
            rows_in_memory: Vec::new(),
            memory_bytes: 0,
            spill_file: None,
            spilled_values: 0,
        }
    }
}

impl Drop for SidePartition {
    fn drop(&mut self) {
        if let Some(path) = self.spill_file.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

struct SideBuffer {
    arity: usize,
    key_positions: Vec<usize>,
    partitions: Vec<SidePartition>,
    buffered_bytes: u64,
}

impl SideBuffer {
    fn new(arity: usize, key_positions: Vec<usize>) -> Self {
        SideBuffer {
            arity,
            key_positions,
            partitions: (0..NUM_PARTITIONS).map(|_| SidePartition::new()).collect(),
            buffered_bytes: 0,
        }
    }
}

/// The buffered hash join of one machine.
pub struct HashJoiner {
    op: JoinOp,
    left: SideBuffer,
    right: SideBuffer,
    spill_threshold_bytes: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    memory: MemoryTrackerHandle,
    /// Partitions already shipped to a thief before sealing.
    shipped: Vec<bool>,
}

/// A thin optional handle so the joiner can be used without a tracker in
/// unit tests.
#[derive(Clone)]
pub enum MemoryTrackerHandle {
    /// Track allocations against a machine's tracker.
    Tracked(std::sync::Arc<MemoryTracker>),
    /// Do not track.
    Untracked,
}

impl MemoryTrackerHandle {
    fn allocate(&self, bytes: u64) {
        if let MemoryTrackerHandle::Tracked(t) = self {
            t.allocate(bytes);
        }
    }
    fn release(&self, bytes: u64) {
        if let MemoryTrackerHandle::Tracked(t) = self {
            t.release(bytes);
        }
    }
}

impl HashJoiner {
    /// Creates a joiner for `op` whose inputs have the given arities.
    pub fn new(
        op: JoinOp,
        left_arity: usize,
        right_arity: usize,
        spill_threshold_bytes: u64,
        spill_dir: PathBuf,
        memory: MemoryTrackerHandle,
    ) -> Self {
        let left = SideBuffer::new(left_arity, op.key_left.clone());
        let right = SideBuffer::new(right_arity, op.key_right.clone());
        HashJoiner {
            op,
            left,
            right,
            spill_threshold_bytes: spill_threshold_bytes.max(1024),
            spill_dir,
            spill_counter: 0,
            memory,
            shipped: vec![false; NUM_PARTITIONS],
        }
    }

    /// Ships one not-yet-shipped partition out of a pending (unsealed)
    /// joiner, highest index first. Only sound once no further input can
    /// arrive for this join — the thief's steal request implies global
    /// end-of-stream for both producers. Partitions empty on either side are
    /// skipped (they produce nothing and are cheaper discarded locally).
    ///
    /// The returned rows *keep* their memory-tracker charge: in-memory bytes
    /// stay charged and spilled bytes are newly charged as they are read
    /// back, so the charge travels with the partition and is only released
    /// when the thief acknowledges adoption (allocate-before-release, as in
    /// `SharedQueue::steal_into`).
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        for p in (0..NUM_PARTITIONS).rev() {
            if self.shipped[p] || !side_has_rows(&self.left, p) || !side_has_rows(&self.right, p) {
                continue;
            }
            let left = take_side_rows(&mut self.left, p, &self.memory)?;
            let right = take_side_rows(&mut self.right, p, &self.memory)?;
            self.shipped[p] = true;
            return Ok(Some((p, left, right)));
        }
        Ok(None)
    }

    /// Arity of the joined output rows.
    pub fn output_arity(&self) -> usize {
        self.left.arity + self.op.right_payload.len()
    }

    /// Adds an input batch to one side.
    pub fn add(&mut self, side: JoinSide, batch: &RowBatch) -> Result<()> {
        let spill_dir = self.spill_dir.clone();
        let threshold = self.spill_threshold_bytes;
        let (buffer, tag) = match side {
            JoinSide::Left => (&mut self.left, "l"),
            JoinSide::Right => (&mut self.right, "r"),
        };
        debug_assert_eq!(batch.arity(), buffer.arity);
        for row in batch.rows() {
            let p = grace_partition(key_hash(row, &buffer.key_positions));
            let part = &mut buffer.partitions[p];
            part.rows_in_memory.extend_from_slice(row);
            part.memory_bytes += std::mem::size_of_val(row) as u64;
        }
        // One tracker charge per batch: the spill loop below only runs after
        // the whole batch is buffered, so the tracked peak is the same as
        // charging row by row.
        let bytes = batch.byte_size();
        buffer.buffered_bytes += bytes;
        self.memory.allocate(bytes);
        // Spill the largest partitions while the buffer exceeds the threshold.
        while buffer.buffered_bytes > threshold {
            let victim = buffer
                .partitions
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.memory_bytes)
                .map(|(i, _)| i)
                .expect("partitions exist");
            let part = &mut buffer.partitions[victim];
            if part.rows_in_memory.is_empty() {
                break;
            }
            let bytes = spill_partition(part, &spill_dir, tag, victim, &mut self.spill_counter)?;
            buffer.buffered_bytes -= bytes;
            self.memory.release(bytes);
        }
        Ok(())
    }

    /// Flushes every in-memory partition of both sides to disk — the memory
    /// governor's spill actuator. Rows are appended to the partitions' spill
    /// files and re-loaded lazily when the join is streamed, so results are
    /// unchanged; only the tracked resident bytes drop. Returns the bytes
    /// released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let dir = self.spill_dir.clone();
        let mut total = spill_side(&mut self.left, &dir, "l", &mut self.spill_counter)?;
        total += spill_side(&mut self.right, &dir, "r", &mut self.spill_counter)?;
        self.memory.release(total);
        Ok(total)
    }

    /// Total bytes currently buffered in memory (both sides).
    pub fn buffered_bytes(&self) -> u64 {
        self.left.buffered_bytes + self.right.buffered_bytes
    }

    /// `true` if any partition spilled to disk.
    pub fn spilled(&self) -> bool {
        self.left
            .partitions
            .iter()
            .chain(self.right.partitions.iter())
            .any(|p| p.spill_file.is_some())
    }

    /// Seals both inputs and converts the joiner into a lazily-driven
    /// [`JoinStream`]. Partitions are loaded one at a time as the stream is
    /// polled, so the consumer controls the pace (and the memory).
    pub fn into_stream(mut self, batch_rows: usize) -> JoinStream {
        let left = std::mem::replace(&mut self.left, SideBuffer::new(0, Vec::new()));
        let right = std::mem::replace(&mut self.right, SideBuffer::new(0, Vec::new()));
        let spec = ProbeSpec::compile(&self.op, left.arity, right.arity);
        let sealed_or_shipped = |&shipped: &bool| match shipped {
            true => PartitionState::Shipped,
            false => PartitionState::Sealed,
        };
        JoinStream {
            spec,
            left,
            right,
            memory: self.memory.clone(),
            batch_rows: batch_rows.max(1) as u64,
            partition: 0,
            current: None,
            produced: 0,
            tested: 0,
            spill_dir: self.spill_dir.clone(),
            spill_counter: self.spill_counter,
            states: self.shipped.iter().map(sealed_or_shipped).collect(),
            adopted: std::collections::VecDeque::new(),
            cancel: None,
        }
    }
}

impl Drop for HashJoiner {
    fn drop(&mut self) {
        // Balance the tracker if the joiner is dropped before streaming
        // (spill files are removed by the partitions' own `Drop`).
        self.memory
            .release(self.left.buffered_bytes + self.right.buffered_bytes);
        self.left.buffered_bytes = 0;
        self.right.buffered_bytes = 0;
    }
}

/// Right rows the pair test covers at a time: the width of the mask the two
/// sinks read.
const BLOCK: usize = 64;

/// Granularity of a block's column reads. A key group rarely ends on a
/// multiple of it, so the last read of a block runs up to `LANES - 1` rows
/// into whatever follows the group — the next group's rows, or the padding
/// every column carries after its last row — and the mask's lanes past the
/// group are never looked at. That keeps every pass a fixed-width loop with
/// no remainder.
const LANES: usize = 8;

/// Left-row values one injectivity pass compares a column against.
const BOUND_LANES: usize = 4;

/// The pair predicate of one join, compiled when the join seals: which right
/// columns the probe keeps and what each is tested against. Positions of the
/// (virtual) joined row below `left_arity` are left-row columns, the rest are
/// right payload columns in output order.
#[derive(Debug, PartialEq)]
struct ProbeSpec {
    key_left: Vec<usize>,
    key_right: Vec<usize>,
    left_arity: usize,
    right_arity: usize,
    /// Right-row positions of the kept columns: the payload columns in
    /// output order, then — only for keys wider than [`PACK_MAX_KEY`], which
    /// are FNV-hashed into the table key instead of packed exactly, so a
    /// group can hold colliding keys — the key columns, re-checked per pair.
    kept: Vec<usize>,
    /// How many of `kept` are payload columns. Those must differ from every
    /// left value (cross-side injectivity); a kept key column must equal its
    /// left counterpart.
    payload: usize,
    /// Left–left filters `(smaller, larger)`: they gate the left row.
    gates: Vec<(usize, usize)>,
    /// `(kept column, left position)`: the column must exceed the left value.
    above: Vec<(usize, usize)>,
    /// `(kept column, left position)`: the column must stay below it.
    below: Vec<(usize, usize)>,
    /// Payload–payload filters `(smaller, larger)` over kept columns.
    ordered: Vec<(usize, usize)>,
}

impl ProbeSpec {
    fn compile(op: &JoinOp, left_arity: usize, right_arity: usize) -> Self {
        let payload = op.right_payload.len();
        let mut spec = ProbeSpec {
            key_left: op.key_left.clone(),
            key_right: op.key_right.clone(),
            left_arity,
            right_arity,
            kept: op.right_payload.clone(),
            payload,
            gates: Vec::new(),
            above: Vec::new(),
            below: Vec::new(),
            ordered: Vec::new(),
        };
        if op.key_right.len() > PACK_MAX_KEY {
            spec.kept.extend_from_slice(&op.key_right);
        }
        for f in &op.filters {
            let column = |position: usize| position.checked_sub(left_arity);
            match (column(f.smaller), column(f.larger)) {
                (None, None) => spec.gates.push((f.smaller, f.larger)),
                (None, Some(larger)) => spec.above.push((larger, f.smaller)),
                (Some(smaller), None) => spec.below.push((smaller, f.larger)),
                (Some(smaller), Some(larger)) => spec.ordered.push((smaller, larger)),
            }
        }
        spec
    }

    /// Binds one left row: decides whether any right row can pair with it at
    /// all (left–left gates, a non-empty value range for every kept column)
    /// and, if so, leaves in `bound` what the column passes compare against.
    fn bind(&self, lrow: &[VertexId], bound: &mut BoundRow) -> bool {
        if !self.gates.iter().all(|&(s, l)| lrow[s] < lrow[l]) {
            return false;
        }
        let (payload, keys) = bound.range.split_at_mut(self.payload);
        payload.fill((0, i64::from(VertexId::MAX)));
        for &(column, left) in &self.above {
            payload[column].0 = payload[column].0.max(i64::from(lrow[left]) + 1);
        }
        for &(column, left) in &self.below {
            payload[column].1 = payload[column].1.min(i64::from(lrow[left]) - 1);
        }
        for (range, &k) in keys.iter_mut().zip(&self.key_left) {
            *range = (i64::from(lrow[k]), i64::from(lrow[k]));
        }
        if bound.range.iter().any(|&(lo, hi)| lo > hi) {
            return false;
        }
        // The tail repeats a real value: comparing against it twice is free
        // of false rejections, which no constant would be.
        let (row, tail) = bound.distinct.as_flattened_mut().split_at_mut(lrow.len());
        row.copy_from_slice(lrow);
        tail.fill(lrow.first().copied().unwrap_or_default());
        true
    }
}

/// What the column passes compare against for the left row being probed.
struct BoundRow {
    /// The left row, padded to whole [`BOUND_LANES`]-wide pieces.
    distinct: Vec<[VertexId; BOUND_LANES]>,
    /// Inclusive `(lo, hi)` per kept column, both within `VertexId`'s range
    /// once [`ProbeSpec::bind`] returned `true` (the wider type keeps
    /// `> u32::MAX` and `< 0` representable until its emptiness check).
    range: Vec<(i64, i64)>,
}

impl BoundRow {
    fn new(spec: &ProbeSpec) -> Self {
        BoundRow {
            distinct: vec![[0; BOUND_LANES]; spec.left_arity.div_ceil(BOUND_LANES)],
            range: vec![(0, 0); spec.kept.len()],
        }
    }
}

/// Probe state of the one partition currently loaded in memory.
///
/// The kept right columns are physically grouped by join key, so a left
/// row's candidates are one contiguous range of every column and the probe
/// loop allocates nothing per row — stolen partitions are probed
/// *concurrently* by several machine threads, and per-row allocation
/// serialises them on the global allocator.
struct PartitionProbe {
    left_rows: Vec<VertexId>,
    /// One dense vector per kept right column ([`ProbeSpec::kept`]), rows
    /// grouped by join key (input order kept within a group), [`LANES`]
    /// zeroes after the last row.
    columns: Vec<Vec<VertexId>>,
    table: KeyTable,
    /// Index of the left row being probed.
    probe: usize,
    /// Cursor into the current left row's range of right rows.
    match_pos: u32,
    /// End of the current left row's range of right rows.
    match_end: u32,
    bound: BoundRow,
    /// Bytes of the left rows and the kept columns, charged to the tracker
    /// while resident.
    loaded_bytes: u64,
    /// Local partition index (`None` for partitions adopted from a peer).
    index: Option<usize>,
}

impl PartitionProbe {
    /// Groups the right rows (the build side) by join key, indexes the
    /// groups, and keeps only the columns the probe reads, scattered into
    /// group order. One hash per right row: the counting pass remembers each
    /// row's group, so placement needs no second lookup.
    ///
    /// On entry the tracker holds both row buffers' bytes; on return it holds
    /// `loaded_bytes`. The columns are charged before they are filled and the
    /// row-major right side released after it is dropped, so the tracked
    /// peak covers the moment both exist.
    fn build(
        spec: &ProbeSpec,
        left_rows: Vec<VertexId>,
        right_rows: Vec<VertexId>,
        memory: &MemoryTrackerHandle,
        index: Option<usize>,
    ) -> Self {
        let arity = spec.right_arity.max(1);
        let n_rows = right_rows.len() / arity;
        let mut table = KeyTable::with_capacity_and_hasher(n_rows, Default::default());
        // Rows per group, then (after the scan) each group's first row.
        let mut starts: Vec<u32> = Vec::new();
        // Each row's group, then (after placement) its destination row.
        let mut dest: Vec<u32> = Vec::with_capacity(n_rows);
        for row in right_rows.chunks_exact(arity) {
            let next = starts.len() as u32;
            let group = table
                .entry(pack_key(row, &spec.key_right))
                .or_insert((next, 0))
                .0;
            if group == next {
                starts.push(0);
            }
            starts[group as usize] += 1;
            dest.push(group);
        }
        // Presizing by rows avoids every rehash when keys are unique; when
        // they repeat, give the slack back so lookups stay cache-resident.
        table.shrink_to_fit();
        starts.push(0);
        let mut offset = 0u32;
        for start in &mut starts {
            offset += std::mem::replace(start, offset);
        }
        for range in table.values_mut() {
            let group = range.0 as usize;
            *range = (starts[group], starts[group + 1]);
        }
        for d in &mut dest {
            let cursor = &mut starts[*d as usize];
            *d = *cursor;
            *cursor += 1;
        }
        let column_len = n_rows + LANES;
        let column_bytes = (spec.kept.len() * column_len * std::mem::size_of::<VertexId>()) as u64;
        memory.allocate(column_bytes);
        let mut columns = vec![vec![0; column_len]; spec.kept.len()];
        for (row, &d) in right_rows.chunks_exact(arity).zip(&dest) {
            for (column, &position) in columns.iter_mut().zip(&spec.kept) {
                column[d as usize] = row[position];
            }
        }
        let right_bytes = std::mem::size_of_val(&right_rows[..]) as u64;
        drop(right_rows);
        memory.release(right_bytes);
        PartitionProbe {
            loaded_bytes: std::mem::size_of_val(&left_rows[..]) as u64 + column_bytes,
            left_rows,
            columns,
            table,
            probe: 0,
            match_pos: 0,
            match_end: 0,
            bound: BoundRow::new(spec),
            index,
        }
    }

    /// The pair generator: resumes the probe, one left row's key group at a
    /// time, in blocks of at most [`BLOCK`] right rows and never more than
    /// the `budget` of surviving pairs still allows. Each tested block goes
    /// to `emit` as `(left row, first right row, mask)`, `mask[j] == 1` iff
    /// the pair with right row `first + j` survived. Returns the key-equal
    /// pairs covered, the pairs that survived, and whether the partition is
    /// exhausted.
    fn walk(
        &mut self,
        spec: &ProbeSpec,
        budget: u64,
        mut emit: impl FnMut(u32, u32, &[u32]),
    ) -> (u64, u64, bool) {
        let left_arity = spec.left_arity;
        let left_len = self.left_rows.len() / left_arity.max(1);
        let (mut tested, mut matched) = (0, 0);
        let mut mask = [0u32; BLOCK];
        while matched < budget {
            if self.match_pos == self.match_end {
                // Advance to the next left row with candidate matches.
                loop {
                    if self.probe >= left_len {
                        return (tested, matched, true);
                    }
                    let lrow = &self.left_rows[self.probe * left_arity..][..left_arity];
                    if let Some(&(start, end)) = self.table.get(&pack_key(lrow, &spec.key_left)) {
                        self.match_pos = start;
                        self.match_end = end;
                        break;
                    }
                    self.probe += 1;
                }
            }
            let lrow = &self.left_rows[self.probe * left_arity..][..left_arity];
            if !spec.bind(lrow, &mut self.bound) {
                // No right row can pair with this left row. Its group still
                // counts as candidates: `tested` means key-equal pairs.
                tested += u64::from(self.match_end - self.match_pos);
                self.match_pos = self.match_end;
                self.probe += 1;
                continue;
            }
            while self.match_pos < self.match_end && matched < budget {
                let rows = u64::from(self.match_end - self.match_pos)
                    .min(BLOCK as u64)
                    .min(budget - matched) as usize;
                let start = self.match_pos as usize;
                test_block(spec, &self.columns, &self.bound, start, rows, &mut mask);
                let mask = &mask[..rows];
                emit(self.probe as u32, self.match_pos, mask);
                tested += rows as u64;
                matched += u64::from(mask.iter().sum::<u32>());
                self.match_pos += rows as u32;
            }
            if self.match_pos == self.match_end {
                self.probe += 1;
            }
        }
        (tested, matched, false)
    }

    /// The materialising sink: gathers the joined rows of `pairs`, one
    /// output column at a time.
    fn gather(&self, spec: &ProbeSpec, pairs: &[(u32, u32)]) -> ColBatch {
        let (la, lrows) = (spec.left_arity, &self.left_rows);
        let left = (0..la).map(|c| pairs.iter().map(|p| lrows[p.0 as usize * la + c]).collect());
        let payload = self.columns[..spec.payload].iter();
        let right = payload.map(|column| pairs.iter().map(|p| column[p.1 as usize]).collect());
        ColBatch::from_columns(left.chain(right).collect())
    }
}

/// Tests right rows `start..start + rows` of a key group against the bound
/// left row: `mask[j]` ends as 1 iff row `start + j` passes every column's
/// checks. One branch-free pass per kept column — its value range and the
/// first [`BOUND_LANES`] left values it must differ from, fused — and one
/// more per further [`BOUND_LANES`] left values, all over whole
/// [`LANES`]-wide pieces: the lanes past `rows` hold neighbouring rows'
/// verdicts and mean nothing.
fn test_block(
    spec: &ProbeSpec,
    columns: &[Vec<VertexId>],
    bound: &BoundRow,
    start: usize,
    rows: usize,
    mask: &mut [u32; BLOCK],
) {
    let lanes = rows.next_multiple_of(LANES);
    let mask = &mut mask[..lanes];
    mask.fill(1);
    for (c, (column, &(lo, hi))) in columns.iter().zip(&bound.range).enumerate() {
        let values = &column[start..start + lanes];
        let (lo, hi) = (lo as VertexId, hi as VertexId);
        let in_range = |v: VertexId| (v >= lo) & (v <= hi);
        let differs = |v: VertexId, from: &[VertexId; BOUND_LANES]| {
            from.iter().fold(true, |ok, &bound| ok & (v != bound))
        };
        let distinct: &[_] = if c < spec.payload {
            &bound.distinct
        } else {
            &[]
        };
        let mut distinct = distinct.iter();
        match distinct.next() {
            Some(first) => pass(mask, values, |v| in_range(v) & differs(v, first)),
            None => pass(mask, values, in_range),
        }
        for more in distinct {
            pass(mask, values, |v| differs(v, more));
        }
    }
    for &(smaller, larger) in &spec.ordered {
        let smaller = &columns[smaller][start..start + lanes];
        let larger = &columns[larger][start..start + lanes];
        for ((keep, s), l) in mask.iter_mut().zip(smaller).zip(larger) {
            *keep &= u32::from(s < l);
        }
    }
}

/// One pass of [`test_block`]: clears the mask of every value `keep` rejects.
#[inline(always)]
fn pass(mask: &mut [u32], values: &[VertexId], keep: impl Fn(VertexId) -> bool) {
    let (mask, values) = (
        mask.as_chunks_mut::<LANES>().0,
        values.as_chunks::<LANES>().0,
    );
    for (mask, values) in mask.iter_mut().zip(values) {
        *mask = std::array::from_fn(|j| mask[j] & u32::from(keep(values[j])));
    }
}

/// A partition shipped from a peer, queued for probing. Its `bytes` were
/// charged to this machine's tracker on receipt; the stream releases them
/// when the probe completes (or on `Drop`).
struct AdoptedPartition {
    left_rows: Vec<VertexId>,
    right_rows: Vec<VertexId>,
    bytes: u64,
}

/// The sealed join, driven lazily one batch of pairs at a time.
///
/// At any moment at most one Grace partition is resident in memory; spill
/// files are deleted as their partitions are consumed (and by `Drop` if the
/// stream is abandoned early).
pub struct JoinStream {
    spec: ProbeSpec,
    left: SideBuffer,
    right: SideBuffer,
    memory: MemoryTrackerHandle,
    batch_rows: u64,
    partition: usize,
    current: Option<PartitionProbe>,
    produced: u64,
    /// Candidate pairs tested so far (`produced` of them survived).
    tested: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    /// Lifecycle of each local Grace partition.
    states: Vec<PartitionState>,
    /// Partitions adopted from peers, probed after the local ones.
    adopted: std::collections::VecDeque<AdoptedPartition>,
    /// The run's cancellation token, polled per batch of pairs so a cancel
    /// lands mid-probe instead of after the whole join drains.
    cancel: Option<crate::cancel::CancelToken>,
}

impl JoinStream {
    /// Joined rows emitted or counted so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Candidate pairs tested so far ([`JoinStream::produced`] survived).
    pub fn tested(&self) -> u64 {
        self.tested
    }

    /// `true` once every local partition and every adopted partition has
    /// been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.current.is_none() && self.partition >= NUM_PARTITIONS && self.adopted.is_empty()
    }

    /// Lifecycle states of the local Grace partitions.
    pub fn partition_states(&self) -> &[PartitionState] {
        &self.states
    }

    /// Ships one sealed-but-unprobed partition, highest index first (the
    /// probe cursor walks upward, so the highest sealed partition is the
    /// farthest from being reached — the same take-from-the-back policy as
    /// `SharedQueue::steal_into`). Partitions empty on either side are
    /// skipped. The rows keep their tracker charge; see
    /// [`HashJoiner::take_unprobed_partition`] for the hand-off discipline.
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        for p in (self.partition..NUM_PARTITIONS).rev() {
            if self.states[p] != PartitionState::Sealed
                || !side_has_rows(&self.left, p)
                || !side_has_rows(&self.right, p)
            {
                continue;
            }
            let left = take_side_rows(&mut self.left, p, &self.memory)?;
            let right = take_side_rows(&mut self.right, p, &self.memory)?;
            self.states[p] = PartitionState::Shipped;
            return Ok(Some((p, left, right)));
        }
        Ok(None)
    }

    /// Adopts a partition shipped from a peer. The caller has already
    /// charged the partition's bytes to this machine's tracker (on receipt,
    /// before the shipper releases its side — allocate-before-release); the
    /// stream releases the charge when the adopted probe completes.
    pub fn adopt_partition(&mut self, left_rows: Vec<VertexId>, right_rows: Vec<VertexId>) {
        let bytes = ((left_rows.len() + right_rows.len()) * std::mem::size_of::<VertexId>()) as u64;
        self.adopted.push_back(AdoptedPartition {
            left_rows,
            right_rows,
            bytes,
        });
    }

    /// Bytes of not-yet-loaded partitions still resident in memory.
    pub fn buffered_bytes(&self) -> u64 {
        self.left.buffered_bytes + self.right.buffered_bytes
    }

    /// Flushes every not-yet-loaded in-memory partition to disk — the memory
    /// governor's spill actuator on a *sealed* join. The partition currently
    /// being probed stays resident (it is the working set); the stream
    /// lazily re-loads spilled partitions exactly as it loads
    /// naturally-spilled ones. Returns the bytes released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let dir = self.spill_dir.clone();
        let mut total = spill_side(&mut self.left, &dir, "l", &mut self.spill_counter)?;
        total += spill_side(&mut self.right, &dir, "r", &mut self.spill_counter)?;
        self.memory.release(total);
        Ok(total)
    }

    /// Installs the run's cancellation token: every poll of the stream
    /// checks it first, so a cancel unwinds mid-probe (the stream's `Drop`
    /// balances charges and spill files).
    pub fn set_cancel(&mut self, cancel: crate::cancel::CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Produces the next output batch (at most `batch_rows` rows), or `None`
    /// when the join is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<ColBatch>> {
        // A block's pairs are all written before the rejected ones are cut.
        let mut pairs = Vec::with_capacity(self.batch_rows.min(64 * 1024) as usize + BLOCK);
        let polled = self.poll_pairs(|probe, spec, budget| {
            pairs.clear();
            let walked = probe.walk(spec, budget, |left, first, mask| {
                // Branch-free compaction: every pair is written, the cursor
                // only moves past the ones that survived.
                let mut len = pairs.len();
                pairs.resize(len + mask.len(), (0, 0));
                for (right, &keep) in (first..).zip(mask) {
                    pairs[len] = (left, right);
                    len += keep as usize;
                }
                pairs.truncate(len);
            });
            (walked, probe.gather(spec, &pairs))
        })?;
        Ok(polled.map(|(_, batch)| batch))
    }

    /// Counts the next batch of joined rows (at most `batch_rows`) without
    /// materialising them, or returns `None` when the join is exhausted.
    /// Every check [`JoinStream::next_batch`] applies is applied here too —
    /// it is the same pair generator with a sink that only counts.
    pub fn count_batch(&mut self) -> Result<Option<u64>> {
        let polled =
            self.poll_pairs(|probe, spec, budget| (probe.walk(spec, budget, |_, _, _| {}), ()))?;
        Ok(polled.map(|(matched, ())| matched))
    }

    /// One poll of the stream, shared by both sinks: checks for cancellation,
    /// then runs `sink` over the resident partition — loading the next one
    /// and retiring exhausted ones — until a walk yields surviving pairs.
    /// Returns the pairs matched and the sink's output, or `None` when every
    /// partition is consumed.
    fn poll_pairs<T>(
        &mut self,
        mut sink: impl FnMut(&mut PartitionProbe, &ProbeSpec, u64) -> ((u64, u64, bool), T),
    ) -> Result<Option<(u64, T)>> {
        if let Some(cancel) = &self.cancel {
            cancel.check()?;
        }
        loop {
            if self.current.is_none() && !self.load_next_partition()? {
                return Ok(None);
            }
            let probe = self.current.as_mut().expect("a partition is resident");
            let ((tested, matched, exhausted), out) = sink(probe, &self.spec, self.batch_rows);
            self.tested += tested;
            if exhausted {
                let probe = self.current.take().expect("a partition is resident");
                self.memory.release(probe.loaded_bytes);
                if let Some(p) = probe.index {
                    self.states[p] = PartitionState::Done;
                }
            }
            if matched > 0 {
                self.produced += matched;
                return Ok(Some((matched, out)));
            }
            // The partition produced nothing (no key overlap): move on.
        }
    }

    /// Makes the next partition with rows on both sides resident, local
    /// partitions first, then adopted (stolen) ones. Returns `false` when
    /// none is left.
    fn load_next_partition(&mut self) -> Result<bool> {
        let (left_rows, right_rows, index) = loop {
            if self.partition >= NUM_PARTITIONS {
                // Adopted partitions' bytes were charged on receipt, not here.
                let Some(a) = self.adopted.pop_front() else {
                    return Ok(false);
                };
                break (a.left_rows, a.right_rows, None);
            }
            let p = self.partition;
            self.partition += 1;
            if self.states[p] == PartitionState::Shipped {
                // A thief owns this partition now.
                continue;
            }
            let left_rows = load_partition(&mut self.left, p, &self.memory)?;
            if left_rows.is_empty() {
                // Nothing to probe with: unlink the right side's buffer and
                // spill file without reading it back.
                discard_partition(&mut self.right, p, &self.memory);
                self.states[p] = PartitionState::Done;
                continue;
            }
            let right_rows = load_partition(&mut self.right, p, &self.memory)?;
            if right_rows.is_empty() {
                self.states[p] = PartitionState::Done;
                continue;
            }
            // Both row buffers, as an adopted partition arrives charged; the
            // build below trades the right one for the kept columns.
            let row_bytes =
                std::mem::size_of_val(&left_rows[..]) + std::mem::size_of_val(&right_rows[..]);
            self.memory.allocate(row_bytes as u64);
            self.states[p] = PartitionState::Probing;
            break (left_rows, right_rows, Some(p));
        };
        let probe = PartitionProbe::build(&self.spec, left_rows, right_rows, &self.memory, index);
        self.current = Some(probe);
        Ok(true)
    }
}

impl Drop for JoinStream {
    fn drop(&mut self) {
        // Balance the tracker for anything still buffered or loaded (spill
        // files are removed by the partitions' own `Drop`).
        self.memory
            .release(self.left.buffered_bytes + self.right.buffered_bytes);
        self.left.buffered_bytes = 0;
        self.right.buffered_bytes = 0;
        if let Some(probe) = self.current.take() {
            self.memory.release(probe.loaded_bytes);
        }
        for adopted in self.adopted.drain(..) {
            self.memory.release(adopted.bytes);
        }
    }
}

/// Appends one partition's in-memory rows to its spill file (creating the
/// file on first spill). Returns the in-memory bytes flushed; the caller is
/// responsible for adjusting the side's `buffered_bytes` and the memory
/// tracker (so the helper composes with both the threshold spill in
/// [`HashJoiner::add`] and the governor-driven full spills).
fn spill_partition(
    part: &mut SidePartition,
    spill_dir: &Path,
    tag: &str,
    index: usize,
    counter: &mut usize,
) -> Result<u64> {
    if part.rows_in_memory.is_empty() {
        return Ok(0);
    }
    let path = match part.spill_file.clone() {
        Some(path) => path,
        None => {
            *counter += 1;
            let path = spill_dir.join(format!("join-{tag}-{index}-{counter}.spill"));
            part.spill_file = Some(path.clone());
            path
        }
    };
    std::fs::create_dir_all(spill_dir)?;
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&encode_rows(&part.rows_in_memory))?;
    w.flush()?;
    part.spilled_values += part.rows_in_memory.len() as u64;
    let bytes = part.memory_bytes;
    part.memory_bytes = 0;
    // Drop the allocation too (not just the length): a spill exists to make
    // the resident footprint actually shrink.
    part.rows_in_memory = Vec::new();
    Ok(bytes)
}

/// Spills every in-memory partition of one side, adjusting the side's
/// buffered-byte count. Returns the total bytes flushed (the caller releases
/// them from the memory tracker).
fn spill_side(
    side: &mut SideBuffer,
    spill_dir: &Path,
    tag: &str,
    counter: &mut usize,
) -> Result<u64> {
    let mut total = 0u64;
    for index in 0..side.partitions.len() {
        let bytes = spill_partition(&mut side.partitions[index], spill_dir, tag, index, counter)?;
        side.buffered_bytes -= bytes;
        total += bytes;
    }
    Ok(total)
}

/// Drops one partition of one side without reading it back: releases its
/// in-memory rows and unlinks its spill file (used when the opposite side's
/// partition is empty, so the join cannot produce anything from it).
fn discard_partition(side: &mut SideBuffer, p: usize, memory: &MemoryTrackerHandle) {
    let part = &mut side.partitions[p];
    part.rows_in_memory = Vec::new();
    side.buffered_bytes -= part.memory_bytes;
    memory.release(part.memory_bytes);
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        let _ = std::fs::remove_file(path);
    }
}

/// Loads one partition of one side back into memory (in-memory rows plus any
/// spilled rows); the spill file, if any, is deleted afterwards.
fn load_partition(
    side: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<Vec<VertexId>> {
    let part = &mut side.partitions[p];
    let mut rows = std::mem::take(&mut part.rows_in_memory);
    side.buffered_bytes -= part.memory_bytes;
    memory.release(part.memory_bytes);
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        rows.extend(decode_rows(&std::fs::read(&path)?));
        let _ = std::fs::remove_file(&path);
    }
    Ok(rows)
}

/// `true` when one partition of one side holds any rows (in memory or
/// spilled) — i.e. shipping it would move real work.
fn side_has_rows(side: &SideBuffer, p: usize) -> bool {
    let part = &side.partitions[p];
    !part.rows_in_memory.is_empty() || part.spill_file.is_some()
}

/// Extracts one partition of one side for shipping, *keeping* its memory
/// charge: in-memory rows stay charged to the tracker (ownership of the
/// charge moves to the shipper's `pending_ship_bytes`) and spilled rows are
/// newly charged as they come back from disk. Combined with the thief
/// charging on receipt before the shipper releases on ack, the cluster-wide
/// tracked sum can transiently over-count but never under-count during a
/// hand-off — the same discipline as `SharedQueue::steal_into`.
fn take_side_rows(
    side: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<Vec<VertexId>> {
    let part = &mut side.partitions[p];
    let mut rows = std::mem::take(&mut part.rows_in_memory);
    side.buffered_bytes -= part.memory_bytes;
    part.memory_bytes = 0;
    if let Some(path) = part.spill_file.take() {
        let from_disk = decode_rows(&std::fs::read(&path)?);
        memory.allocate((from_disk.len() * std::mem::size_of::<VertexId>()) as u64);
        rows.extend(from_disk);
        let _ = std::fs::remove_file(&path);
        part.spilled_values = 0;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_plan::translate::OrderFilter;

    /// A spill directory of this caller's own: spill file names repeat from
    /// joiner to joiner, and tests run on parallel threads.
    fn spill_dir() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("huge-join-test-{}-{n}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    fn simple_op() -> JoinOp {
        // Left schema: [a, b]; right schema: [a, c]; join on column 0 = a,
        // output [a, b, c].
        JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0],
            key_right: vec![0],
            right_payload: vec![1],
            filters: vec![],
        }
    }

    /// Drains a stream through the materialising sink: the joined rows in
    /// emission order.
    fn drain(mut stream: JoinStream) -> Vec<Vec<u32>> {
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            rows.extend(batch.to_rows().rows().map(|r| r.to_vec()));
        }
        assert_eq!(stream.produced(), rows.len() as u64);
        assert!(stream.is_exhausted());
        rows
    }

    fn batch2(rows: &[[u32; 2]]) -> RowBatch {
        let mut b = RowBatch::new(2);
        for r in rows {
            b.push_row(r);
        }
        b
    }

    #[test]
    fn joins_matching_keys() {
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Untracked,
        );
        joiner
            .add(JoinSide::Left, &batch2(&[[1, 10], [2, 20], [3, 30]]))
            .unwrap();
        joiner
            .add(
                JoinSide::Right,
                &batch2(&[[1, 100], [1, 101], [3, 300], [4, 400]]),
            )
            .unwrap();
        let mut rows = drain(joiner.into_stream(1024));
        rows.sort();
        assert_eq!(
            rows,
            vec![vec![1, 10, 100], vec![1, 10, 101], vec![3, 30, 300]]
        );
    }

    #[test]
    fn cross_side_injectivity_is_enforced() {
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Untracked,
        );
        // Right payload value 10 collides with the left's bound vertex 10.
        joiner.add(JoinSide::Left, &batch2(&[[1, 10]])).unwrap();
        joiner
            .add(JoinSide::Right, &batch2(&[[1, 10], [1, 11]]))
            .unwrap();
        assert_eq!(drain(joiner.into_stream(16)), vec![vec![1, 10, 11]]);
    }

    #[test]
    fn order_filters_apply_to_joined_rows() {
        let mut op = simple_op();
        // Require output[1] < output[2], i.e. b < c.
        op.filters = vec![OrderFilter {
            smaller: 1,
            larger: 2,
        }];
        let mut joiner = HashJoiner::new(
            op,
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Untracked,
        );
        joiner.add(JoinSide::Left, &batch2(&[[1, 50]])).unwrap();
        joiner
            .add(JoinSide::Right, &batch2(&[[1, 10], [1, 90]]))
            .unwrap();
        assert_eq!(drain(joiner.into_stream(16)), vec![vec![1, 50, 90]]);
    }

    #[test]
    fn spilling_preserves_results() {
        // A tiny threshold forces every partition to spill.
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1024,
            spill_dir(),
            MemoryTrackerHandle::Untracked,
        );
        let n = 2000u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        for chunk in left.chunks(100) {
            joiner.add(JoinSide::Left, &batch2(chunk)).unwrap();
        }
        for chunk in right.chunks(100) {
            joiner.add(JoinSide::Right, &batch2(chunk)).unwrap();
        }
        assert!(joiner.spilled());
        assert!(joiner.buffered_bytes() <= 4 * 1024);
        assert_eq!(drain(joiner.into_stream(256)).len(), n as usize);
    }

    #[test]
    fn multi_column_keys() {
        // Left schema [a, b, x]; right schema [a, b, y]; join on (a, b).
        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: vec![0, 1],
            key_right: vec![0, 1],
            right_payload: vec![2],
            filters: vec![],
        };
        let mut joiner = HashJoiner::new(
            op,
            3,
            3,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Untracked,
        );
        let mut l = RowBatch::new(3);
        l.push_row(&[1, 2, 7]);
        l.push_row(&[1, 3, 8]);
        let mut r = RowBatch::new(3);
        r.push_row(&[1, 2, 9]);
        r.push_row(&[2, 2, 9]);
        joiner.add(JoinSide::Left, &l).unwrap();
        joiner.add(JoinSide::Right, &r).unwrap();
        assert_eq!(drain(joiner.into_stream(16)), vec![vec![1, 2, 7, 9]]);
    }

    #[test]
    fn governor_spill_hook_preserves_results_and_releases_memory() {
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let n = 500u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        assert!(tracker.current() > 0);
        // Force everything to disk (the buffer is far below the threshold,
        // so nothing spilled naturally).
        let spilled = joiner.spill_to_disk().unwrap();
        assert_eq!(spilled, u64::from(n) * 2 * 2 * 4);
        assert_eq!(joiner.buffered_bytes(), 0);
        assert_eq!(tracker.current(), 0);
        assert!(joiner.spilled());
        // A second spill is a no-op.
        assert_eq!(joiner.spill_to_disk().unwrap(), 0);
        // The spilled rows are lazily re-loaded and joined as usual.
        assert_eq!(drain(joiner.into_stream(128)).len(), n as usize);
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn sealed_stream_spill_hook_preserves_results() {
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let n = 400u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        let mut stream = joiner.into_stream(64);
        // Consume one batch so one partition is resident, then spill the
        // sealed remainder mid-stream.
        let first = stream.next_batch().unwrap().unwrap();
        assert!(!first.is_empty());
        let before = stream.buffered_bytes();
        assert!(before > 0);
        let spilled = stream.spill_to_disk().unwrap();
        assert!(spilled > 0);
        assert_eq!(stream.buffered_bytes(), 0);
        let mut count = first.len() as u64;
        while let Some(batch) = stream.next_batch().unwrap() {
            count += batch.len() as u64;
        }
        assert_eq!(count, u64::from(n));
        drop(stream);
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn spill_ship_reload_round_trip_is_bit_for_bit() {
        // The same partition taken from a fully-spilled joiner and from an
        // all-in-memory joiner must hold identical rows: a ship carries the
        // same partition whether or not it went through a spill file.
        let n = 600u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        let build = |threshold: u64| {
            let mut joiner = HashJoiner::new(
                simple_op(),
                2,
                2,
                threshold,
                spill_dir(),
                MemoryTrackerHandle::Untracked,
            );
            joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
            joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
            joiner
        };
        let mut spilled = build(1024);
        spilled.spill_to_disk().unwrap();
        assert!(spilled.spilled());
        let mut resident = build(1 << 20);
        assert!(!resident.spilled());
        let (p_spilled, l_spilled, r_spilled) = spilled
            .take_unprobed_partition()
            .unwrap()
            .expect("spilled joiner has a shippable partition");
        let (p_resident, l_resident, r_resident) = resident
            .take_unprobed_partition()
            .unwrap()
            .expect("resident joiner has a shippable partition");
        assert_eq!(p_spilled, p_resident);
        assert_eq!(encode_rows(&l_spilled), encode_rows(&l_resident));
        assert_eq!(encode_rows(&r_spilled), encode_rows(&r_resident));
        // And the encoding round-trips exactly.
        assert_eq!(decode_rows(&encode_rows(&l_spilled)), l_spilled);
        assert_eq!(decode_rows(&encode_rows(&r_spilled)), r_spilled);
    }

    #[test]
    fn shipped_partitions_join_to_the_same_rows_elsewhere() {
        // Splitting a join between a shipper stream and an adopter stream
        // produces exactly the rows of the unsplit join, and the memory
        // charge that travels with the shipped partitions balances out.
        let n = 800u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let build = |tracked: bool| {
            let mut joiner = HashJoiner::new(
                simple_op(),
                2,
                2,
                1 << 20,
                spill_dir(),
                if tracked {
                    MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker))
                } else {
                    MemoryTrackerHandle::Untracked
                },
            );
            joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
            joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
            joiner
        };
        let mut reference_rows = drain(build(false).into_stream(128));

        let mut shipper = build(true).into_stream(128);
        // An "adopter" on the same tracker: an empty build of the same op.
        let adopter_joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        let mut adopter = adopter_joiner.into_stream(128);
        let mut shipped = 0;
        while let Some((p, l, r)) = shipper.take_unprobed_partition().unwrap() {
            assert_eq!(shipper.partition_states()[p], PartitionState::Shipped);
            adopter.adopt_partition(l, r);
            shipped += 1;
            if shipped == 2 {
                break;
            }
        }
        assert_eq!(shipped, 2);
        let mut split_rows: Vec<Vec<u32>> = Vec::new();
        for stream in [&mut shipper, &mut adopter] {
            while let Some(b) = stream.next_batch().unwrap() {
                split_rows.extend(b.to_rows().rows().map(|r| r.to_vec()));
            }
            assert!(stream.is_exhausted());
        }
        reference_rows.sort();
        split_rows.sort();
        assert_eq!(split_rows, reference_rows);
        drop(shipper);
        drop(adopter);
        // Charges transferred with the partitions and were released by the
        // adopter's probes: the shared tracker balances to zero.
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn memory_tracking_is_released_after_finish() {
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        joiner
            .add(JoinSide::Left, &batch2(&[[1, 2], [3, 4]]))
            .unwrap();
        joiner.add(JoinSide::Right, &batch2(&[[1, 5]])).unwrap();
        assert!(tracker.current() > 0);
        drain(joiner.into_stream(16));
        assert_eq!(tracker.current(), 0);
        assert!(tracker.peak() > 0);
    }
    #[test]
    fn a_cancel_stops_either_sink_at_its_next_poll_and_the_drop_cleans_up() {
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let dir = spill_dir();
        let mut joiner = HashJoiner::new(
            simple_op(),
            2,
            2,
            1024,
            dir.clone(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        );
        // One key on both sides: a single partition with 300 × 300 pairs,
        // most of the rows spilled by the 1 KiB threshold.
        let left: Vec<[u32; 2]> = (0..300).map(|i| [7, 1_000 + i]).collect();
        let right: Vec<[u32; 2]> = (0..300).map(|i| [7, 2_000 + i]).collect();
        joiner.add(JoinSide::Left, &batch2(&left)).unwrap();
        joiner.add(JoinSide::Right, &batch2(&right)).unwrap();
        assert!(joiner.spilled());
        let cancel = crate::cancel::CancelToken::new();
        let mut stream = joiner.into_stream(64);
        stream.set_cancel(cancel.clone());
        assert_eq!(stream.count_batch().unwrap(), Some(64));
        assert_eq!(stream.next_batch().unwrap().map(|b| b.len()), Some(64));
        cancel.cancel();
        // Mid-partition, with 89 872 pairs to go: both sinks refuse.
        assert!(matches!(
            stream.count_batch(),
            Err(crate::EngineError::Cancelled(None))
        ));
        assert!(matches!(
            stream.next_batch(),
            Err(crate::EngineError::Cancelled(None))
        ));
        assert_eq!(stream.produced(), 128);
        assert!(tracker.current() > 0, "the probed partition is resident");
        drop(stream);
        assert_eq!(tracker.current(), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    /// The reference probe: every left row against every right row, the
    /// joined row assembled before it is checked.
    fn nested_loop_join(op: &JoinOp, left: &[Vec<u32>], right: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                let keys_equal = op
                    .key_left
                    .iter()
                    .zip(&op.key_right)
                    .all(|(&lpos, &rpos)| l[lpos] == r[rpos]);
                let injective = op.right_payload.iter().all(|&pos| !l.contains(&r[pos]));
                if !keys_equal || !injective {
                    continue;
                }
                let mut joined = l.clone();
                joined.extend(op.right_payload.iter().map(|&pos| r[pos]));
                if op
                    .filters
                    .iter()
                    .all(|f| joined[f.smaller] < joined[f.larger])
                {
                    out.push(joined);
                }
            }
        }
        out
    }

    /// Two different 5-column keys with the same [`key_hash`], which is what
    /// [`pack_key`] makes of a key that wide: the hash's last step only mixes
    /// the final column into the low 32 bits, so two 4-column prefixes whose
    /// states agree on the high 32 bits collide once the final columns make
    /// up the difference (a birthday search over 32 bits).
    fn colliding_wide_keys() -> ([u32; 5], [u32; 5]) {
        const KEY: [usize; 4] = [0, 1, 2, 3];
        let mut seen: HashMap<u32, ([u32; 4], u64)> = HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        loop {
            let mut prefix = [0u32; 4];
            for v in &mut prefix {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = (x >> 33) as u32;
            }
            let state = key_hash(&prefix, &KEY);
            match seen.insert((state >> 32) as u32, (prefix, state)) {
                Some((other, other_state)) if other != prefix => {
                    let [a, b, c, d] = prefix;
                    let [e, f, g, h] = other;
                    let last = (state ^ other_state) as u32;
                    return ([a, b, c, d, last], [e, f, g, h, 0]);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn q7_compiles_to_one_upper_bound_on_its_second_payload_column() {
        // The 6-path's join: left [a, b, c, key], right [x, y, key], output
        // [a, b, c, key, x, y] with y < c.
        let op = JoinOp {
            left: 0,
            right: 1,
            key_left: vec![3],
            key_right: vec![2],
            right_payload: vec![0, 1],
            filters: vec![OrderFilter {
                smaller: 5,
                larger: 2,
            }],
        };
        let expected = ProbeSpec {
            key_left: vec![3],
            key_right: vec![2],
            left_arity: 4,
            right_arity: 3,
            kept: vec![0, 1],
            payload: 2,
            gates: vec![],
            above: vec![],
            below: vec![(1, 2)],
            ordered: vec![],
        };
        assert_eq!(ProbeSpec::compile(&op, 4, 3), expected);
    }

    #[test]
    fn shuffled_rows_fill_every_grace_partition() {
        // The shuffle routes by `key_hash % k`; what one machine receives
        // must still spread over all of its Grace partitions.
        let keys: Vec<u32> = (0..12_000).map(|i| i * 7 + 3).collect();
        let batch = ColBatch::from_columns(vec![keys.clone(), keys]);
        for k in [2, 4, 16] {
            let routed = crate::exec::partition_cols_by_key(&batch, &[0], k);
            for (machine, rows) in routed.iter().enumerate() {
                let mut joiner = HashJoiner::new(
                    simple_op(),
                    2,
                    2,
                    1 << 30,
                    spill_dir(),
                    MemoryTrackerHandle::Untracked,
                );
                joiner.add(JoinSide::Left, rows).unwrap();
                let empty: Vec<usize> = (0..NUM_PARTITIONS)
                    .filter(|&p| !side_has_rows(&joiner.left, p))
                    .collect();
                assert!(
                    empty.is_empty(),
                    "k = {k}, machine {machine}: {} rows left partitions {empty:?} empty",
                    rows.len()
                );
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Rows of the widest shape a case can ask for; each case reads a
        /// prefix. Values come from a handful of vertex ids so keys repeat
        /// and payloads collide with the other side's bindings.
        fn arb_rows(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<u32>>> {
            prop::collection::vec(prop::collection::vec(0u32..6, 7..8), len)
        }

        fn flag() -> impl Strategy<Value = bool> {
            prop_oneof![Just(false), Just(true)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Both sinks agree with the nested-loop reference — the count
            /// sink on how many, the gather sink on which and in what order —
            /// whether the partitions are resident or were spilled and
            /// re-loaded, and both report the reference's key-equal pairs as
            /// tested.
            #[test]
            fn both_sinks_match_the_nested_loop_reference(
                left in arb_rows(0..40),
                right in arb_rows(0..40),
                // 5 columns is past `PACK_MAX_KEY`: hash-packed, re-verified.
                key_width in prop_oneof![Just(1usize), Just(2usize), Just(5usize)],
                left_extra in 1usize..3,
                // No payload is a shape too: the join only multiplies rows.
                right_extra in 0usize..3,
                // Up to four filters, each `(smaller on the right side?,
                // larger on the right side?, smaller, larger)`: every operand
                // class as often as the others, several on one column.
                filters in prop::collection::vec((flag(), flag(), 0usize..8, 0usize..8), 0..5),
                batch_rows in prop_oneof![
                    Just(1usize), Just(3usize), Just(BLOCK - 1), Just(BLOCK + 1)
                ],
                spill in flag(),
                // One key group sized around the block width, sharing the
                // first left row's key.
                hot_group in prop_oneof![
                    Just(0usize), Just(BLOCK - 1), Just(BLOCK), Just(BLOCK + 1), Just(2 * BLOCK + 1)
                ],
                hot_rows in arb_rows(2 * BLOCK + 1..2 * BLOCK + 2),
                // Stretch the id range to both ends: 0 is also what pads the
                // columns, `u32::MAX` and 0 leave a bound no room.
                extreme in flag(),
            ) {
                // Left rows are [key.., extras..]; right rows [extras.., key..].
                let (left_arity, right_arity) = (key_width + left_extra, right_extra + key_width);
                // A joined-row position on the asked-for side (the left one
                // when there is no payload to pick from).
                let position = |on_right: bool, i: usize| match on_right && right_extra > 0 {
                    true => left_arity + i % right_extra,
                    false => i % left_arity,
                };
                let op = JoinOp {
                    left: 0,
                    right: 1,
                    key_left: (0..key_width).collect(),
                    key_right: (right_extra..right_arity).collect(),
                    right_payload: (0..right_extra).collect(),
                    filters: filters
                        .iter()
                        .map(|&(a_right, b_right, a, b)| (position(a_right, a), position(b_right, b)))
                        .filter(|(a, b)| a != b)
                        .map(|(smaller, larger)| OrderFilter { smaller, larger })
                        .collect(),
                };
                let id = |v: &u32| if extreme && *v == 5 { u32::MAX } else { *v };
                let shaped = |rows: &[Vec<u32>], arity: usize| -> Vec<Vec<u32>> {
                    rows.iter().map(|r| r[..arity].iter().map(id).collect()).collect()
                };
                let mut left = shaped(&left, left_arity);
                let mut right = shaped(&right, right_arity);
                let hot_key = left.first().map_or(vec![0; key_width], |l| l[..key_width].to_vec());
                for row in &shaped(&hot_rows, right_extra)[..hot_group] {
                    right.push(row.iter().chain(&hot_key).copied().collect());
                }
                if key_width > PACK_MAX_KEY {
                    // Rows under two keys that hash alike share a key group.
                    let (a, b) = colliding_wide_keys();
                    assert_ne!(a, b);
                    assert_eq!(pack_key(&a, &op.key_left), pack_key(&b, &op.key_left));
                    for (i, key) in [a, b, a].iter().enumerate() {
                        let extras = [i as u32, 4 - i as u32];
                        left.push(key.iter().chain(&extras[..left_extra]).copied().collect());
                        right.push(extras[..right_extra].iter().chain(key).copied().collect());
                    }
                }
                let sealed = || {
                    let mut joiner = HashJoiner::new(
                        op.clone(),
                        left_arity,
                        right_arity,
                        1 << 20,
                        spill_dir(),
                        MemoryTrackerHandle::Untracked,
                    );
                    for (side, rows, arity) in [
                        (JoinSide::Left, &left, left_arity),
                        (JoinSide::Right, &right, right_arity),
                    ] {
                        let mut batch = RowBatch::new(arity);
                        rows.iter().for_each(|r| batch.push_row(r));
                        joiner.add(side, &batch).unwrap();
                    }
                    if spill {
                        joiner.spill_to_disk().unwrap();
                    }
                    joiner.into_stream(batch_rows)
                };

                // The stream walks the Grace partitions in order and, inside
                // one, the reference's order: left rows as they arrived, each
                // against its key group as that arrived.
                let mut expected = nested_loop_join(&op, &left, &right);
                expected.sort_by_key(|row| grace_partition(key_hash(row, &op.key_left)));
                let candidates = left
                    .iter()
                    .flat_map(|l| right.iter().map(move |r| (l, r)))
                    .filter(|(l, r)| pack_key(l, &op.key_left) == pack_key(r, &op.key_right))
                    .count() as u64;

                let mut gathering = sealed();
                let mut rows = Vec::new();
                while let Some(batch) = gathering.next_batch().unwrap() {
                    prop_assert!(!batch.is_empty() && batch.len() <= batch_rows);
                    rows.extend(batch.to_rows().rows().map(|r| r.to_vec()));
                }
                prop_assert!(gathering.is_exhausted());
                prop_assert_eq!(&rows, &expected);
                prop_assert_eq!(gathering.produced(), expected.len() as u64);
                prop_assert_eq!(gathering.tested(), candidates);

                let mut counting = sealed();
                let mut counted = 0;
                while let Some(n) = counting.count_batch().unwrap() {
                    prop_assert!(n >= 1 && n <= batch_rows as u64);
                    counted += n;
                }
                prop_assert!(counting.is_exhausted());
                prop_assert_eq!(counted, expected.len() as u64);
                prop_assert_eq!(counting.tested(), candidates);
            }
        }
    }
}
