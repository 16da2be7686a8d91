//! The `PUSH-JOIN` operator: a buffered, partitioned (Grace-style) hash join
//! with disk spill (§4.3) — one [`HashJoiner`] from its first input row to
//! its last probed pair, called directly by whoever drives it: the machine's
//! segment chain, the baselines' pushing hash join, the perf ledger.
//!
//! Each side of the join is hash-partitioned by join key into a fixed number
//! of partitions, and a partition is columns from end to end: the shuffle's
//! dense [`ColBatch`]es are scattered into one vector per column
//! ([`HashJoiner::add`]), those vectors are what a spill file stores, what a
//! partition ship carries and what the probe is built from — no row is ever
//! assembled. A partition buffers rows in memory until the configured
//! threshold, after which they are appended to a temporary file on disk.
//! Every partition carries a [`PartitionState`] from the start, and the
//! joiner's one ship, spill, byte count and `Drop` read it whatever the
//! phase. Sealing ([`HashJoiner::seal`]) moves no buffer: it fixes the output
//! batch size and flips building partitions to sealed. The sealed joiner
//! then drives the partitions *lazily*: each poll loads at most one
//! partition, groups its right rows by join key behind a hash table, and
//! probes with the left rows until one batch of pairs survived. Memory is
//! therefore bounded by the largest single partition plus one output batch —
//! matching the paper's "memory consumption is bounded to the buffer size"
//! claim — on *every* consumption path, including the machine's chain,
//! which takes one batch per scheduling step.
//!
//! The probe is **one pair generator with two sinks**. What a candidate pair
//! must pass — the wide-key re-check, cross-side injectivity, the order
//! filters — is compiled once when the joiner is created
//! (`ProbeSpec::compile`): every filter is classified by where its
//! operands live (both on the left row, one on each side, both in the right
//! payload) and the right columns the checks read are fixed. The resident
//! partition keeps exactly those columns of its build side, one dense vector
//! each, grouped by join key; the generator binds a left row's values once,
//! then tests its key group a block of right rows at a time, one
//! branch-free pass per column into a mask. [`HashJoiner::count_batch`] sums
//! the mask — the sink the machine's chain calls when the join feeds a
//! counting `SINK` directly — [`HashJoiner::next_batch`] turns it into
//! `(left row, right row)` index pairs and gathers the output columns from
//! them. Both share the partition lifecycle, the tracker charges and the
//! per-poll cancel check.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use huge_comm::ColBatch;
use huge_graph::VertexId;
use huge_plan::translate::JoinOp;

use crate::cancel::CancelToken;
use crate::memory::MemoryTracker;
use crate::{EngineError, Result};

/// Number of Grace partitions per side.
pub const NUM_PARTITIONS: usize = 16;

/// Lifecycle of one Grace partition.
///
/// A partition is `Building` while [`HashJoiner::add`] fills it, and the
/// seal flips it to `Sealed`. Either way it is unprobed, and an unprobed
/// partition is a first-class work item: it is probed here (`Probing →
/// Done`, or straight to `Done` when a side is empty) or shipped whole to an
/// idle peer (`Shipped`, partition stealing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionState {
    /// Still taking input.
    Building,
    /// Sealed but not yet probed.
    Sealed,
    /// Loaded and currently being probed on this machine.
    Probing,
    /// Handed to a thief machine; no longer this machine's work.
    Shipped,
    /// Probed to completion (or discarded as unmatchable).
    Done,
}

/// One side of a partition, one vector per column.
type Columns = Vec<Vec<VertexId>>;

/// An unprobed Grace partition claimed for shipping: `(left columns, right
/// columns)`.
pub type TakenPartition = (Columns, Columns);

/// Which input of the join a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// The left input (its rows form the prefix of output rows).
    Left,
    /// The right input (only its non-key payload columns are appended).
    Right,
}

/// Rows held by a partition's columns.
fn column_rows(columns: &[Vec<VertexId>]) -> usize {
    columns.first().map_or(0, Vec::len)
}

/// Bytes held by a partition's columns — what the tracker is charged for
/// them and what a ship puts on the wire.
pub(crate) fn column_bytes(columns: &[Vec<VertexId>]) -> u64 {
    (columns.len() * column_rows(columns) * std::mem::size_of::<VertexId>()) as u64
}

/// Hashes a join key, given as its column values in key order. The shuffle's
/// destination machine, the Grace partition and `pack_key`'s wide-key
/// fallback are all taken from this one function of the key's values, which
/// is what lands equal keys of the two sides on the same machine, in the same
/// partition, under the same table key.
pub fn key_hash(key: impl IntoIterator<Item = VertexId>) -> u64 {
    key.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The [`key_hash`] of a physical row of `batch`, read off its key columns.
pub(crate) fn row_key_hash<'a>(
    batch: &'a ColBatch,
    key_positions: &[usize],
) -> impl Fn(usize) -> u64 + 'a {
    let keys: Vec<&[VertexId]> = key_positions.iter().map(|&c| batch.column(c)).collect();
    move |row| key_hash(keys.iter().map(|column| column[row]))
}

/// Appends every logical row of `batch` to the columns of the part (by
/// position in `parts`) `dest_of` names for its physical row. One pass computes the destinations and each
/// row's rank within its own, which fixes the batch's physical rows in
/// destination order (input order kept within a destination); every column of
/// every destination is then one gather through that order — so each
/// destination receives its rows dense, and the read through the selection
/// vector happens here, exactly once per surviving row: upstream verify
/// filters never force a compaction.
pub(crate) fn scatter_rows<'a>(
    batch: &ColBatch,
    dest_of: impl Fn(usize) -> usize,
    parts: impl ExactSizeIterator<Item = &'a mut Vec<Vec<VertexId>>>,
) {
    assert!(
        u32::try_from(batch.physical_rows()).is_ok(),
        "row indices are 32-bit"
    );
    let mut counts = vec![0u32; parts.len()];
    let ranked: Vec<(u32, u32)> = (0..batch.len())
        .map(|i| {
            let dest = dest_of(batch.physical_index(i));
            counts[dest] += 1;
            (dest as u32, counts[dest] - 1)
        })
        .collect();
    // Each destination's first slot in the order, and one past the last one's.
    let mut starts = vec![0u32; parts.len() + 1];
    for (d, count) in counts.iter().enumerate() {
        starts[d + 1] = starts[d] + count;
    }
    let mut order = vec![0u32; ranked.len()];
    for (i, &(dest, rank)) in ranked.iter().enumerate() {
        order[(starts[dest as usize] + rank) as usize] = batch.physical_index(i) as u32;
    }
    for (part, range) in parts.zip(starts.windows(2)) {
        let rows = &order[range[0] as usize..range[1] as usize];
        for (c, out) in part.iter_mut().enumerate() {
            let column = batch.column(c);
            out.extend(rows.iter().map(|&row| column[row as usize]));
        }
    }
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

/// Packs the join-key values of row `row` of `columns` into a single `u128`
/// table key. Up to [`PACK_MAX_KEY`] columns pack positionally
/// (collision-free); wider keys fall back to [`key_hash`], and the probe
/// re-checks column equality on each candidate match.
fn pack_key(columns: &[Vec<VertexId>], key_positions: &[usize], row: usize) -> u128 {
    let key = key_positions.iter().map(|&c| columns[c][row]);
    if key_positions.len() <= PACK_MAX_KEY {
        key.fold(0, |packed, v| (packed << 32) | u128::from(v))
    } else {
        u128::from(key_hash(key))
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
    /// The resident rows, one vector per column.
    columns: Vec<Vec<VertexId>>,
    spill_file: Option<PathBuf>,
    /// Rows appended to the spill file so far — what a reload must find.
    spilled_rows: u64,
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
    partitions: Vec<SidePartition>,
    buffered_bytes: u64,
}

impl SideBuffer {
    fn new(arity: usize) -> Self {
        SideBuffer {
            arity,
            partitions: (0..NUM_PARTITIONS)
                .map(|_| SidePartition {
                    columns: vec![Vec::new(); arity],
                    spill_file: None,
                    spilled_rows: 0,
                })
                .collect(),
            buffered_bytes: 0,
        }
    }
}

/// The buffered hash join of one machine, from its first
/// [`HashJoiner::add`] to its last probed pair.
///
/// While building, `add` scatters input into the Grace partitions.
/// [`HashJoiner::seal`] ends the input, and the sealed joiner is driven one
/// batch of pairs at a time ([`HashJoiner::next_batch`],
/// [`HashJoiner::count_batch`]). At most one Grace partition is resident for
/// probing at any moment. Spill files are deleted as their partitions are
/// consumed, and by `Drop` if the join is abandoned early. Unprobed
/// partitions ship to peers in either phase
/// ([`HashJoiner::take_unprobed_partition`]); a sealed joiner probes the
/// partitions peers ship to it after its own
/// ([`HashJoiner::adopt_partition`]).
pub struct HashJoiner {
    spec: ProbeSpec,
    left: SideBuffer,
    right: SideBuffer,
    spill_threshold_bytes: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    memory: MemoryTrackerHandle,
    /// Lifecycle of each local Grace partition.
    states: [PartitionState; NUM_PARTITIONS],
    /// Rows per output batch, set by the seal (`None` while building).
    batch_rows: Option<u64>,
    /// The next local partition the probe loads.
    partition: usize,
    /// The partition being probed.
    current: Option<PartitionProbe>,
    /// `(left, right)` columns of partitions adopted from peers, probed after
    /// the local ones. Their bytes were charged on receipt.
    adopted: VecDeque<(Columns, Columns)>,
    /// Joined rows emitted or counted so far.
    produced: u64,
    /// Candidate pairs tested so far (`produced` of them survived).
    tested: u64,
    /// The run's cancellation token, polled per batch of pairs so a cancel
    /// lands mid-probe instead of after the whole join drains.
    cancel: Option<CancelToken>,
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
        HashJoiner {
            spec: ProbeSpec::compile(&op, left_arity),
            left: SideBuffer::new(left_arity),
            right: SideBuffer::new(right_arity),
            spill_threshold_bytes: spill_threshold_bytes.max(1024),
            spill_dir,
            spill_counter: 0,
            memory,
            states: [PartitionState::Building; NUM_PARTITIONS],
            batch_rows: None,
            partition: 0,
            current: None,
            adopted: VecDeque::new(),
            produced: 0,
            tested: 0,
            cancel: None,
        }
    }

    /// Adds an input batch to one side: one pass over its key columns picks
    /// each row's Grace partition, then every partition's columns take their
    /// rows in one gather each (`scatter_rows`). Input after the seal is a
    /// [`EngineError::Config`] error.
    pub fn add(&mut self, side: JoinSide, batch: &ColBatch) -> Result<()> {
        if self.batch_rows.is_some() {
            let message = "PUSH-JOIN received input after sealing";
            return Err(EngineError::Config(message.into()));
        }
        let (buffer, key_positions, tag) = match side {
            JoinSide::Left => (&mut self.left, &self.spec.key_left, "l"),
            JoinSide::Right => (&mut self.right, &self.spec.key_right, "r"),
        };
        debug_assert_eq!(batch.arity(), buffer.arity);
        // Wire batches arrive dense; a local caller may hand over runs.
        let batch = &*batch.flattened();
        let hash = row_key_hash(batch, key_positions);
        let partition = |row| grace_partition(hash(row));
        let parts = buffer.partitions.iter_mut().map(|p| &mut p.columns);
        scatter_rows(batch, partition, parts);
        // One tracker charge per batch: the spill loop below only runs after
        // the whole batch is buffered, so the tracked peak is the same as
        // charging row by row.
        let bytes = (batch.len() * buffer.arity * std::mem::size_of::<VertexId>()) as u64;
        buffer.buffered_bytes += bytes;
        self.memory.allocate(bytes);
        // Spill the largest partitions while the buffer exceeds the threshold.
        while buffer.buffered_bytes > self.spill_threshold_bytes {
            let (victim, part) = buffer
                .partitions
                .iter_mut()
                .enumerate()
                .max_by_key(|(_, p)| column_rows(&p.columns))
                .expect("partitions exist");
            if column_rows(&part.columns) == 0 {
                break;
            }
            let bytes =
                spill_partition(part, &self.spill_dir, tag, victim, &mut self.spill_counter)?;
            buffer.buffered_bytes -= bytes;
            self.memory.release(bytes);
        }
        Ok(())
    }

    /// Seals both inputs: `add` is refused from now on, every building
    /// partition becomes sealed, and each probe poll yields at most
    /// `batch_rows` joined rows. No buffer moves — partitions stay resident
    /// or spilled until the probe loads them one at a time, so the consumer
    /// controls the pace (and the memory).
    pub fn seal(&mut self, batch_rows: usize) {
        self.batch_rows = Some(batch_rows.max(1) as u64);
        for state in &mut self.states {
            if *state == PartitionState::Building {
                *state = PartitionState::Sealed;
            }
        }
    }

    /// [`HashJoiner::seal`] by value: the sealed joiner, ready to be probed.
    pub fn into_stream(mut self, batch_rows: usize) -> Self {
        self.seal(batch_rows);
        self
    }

    /// Ships one unprobed partition, highest index first (the probe cursor
    /// walks upward, so the highest one is the farthest from being reached —
    /// the same take-from-the-back policy as `SharedQueue::steal_into`).
    /// Partitions empty on either side are skipped: they produce nothing and
    /// are cheaper discarded locally. Before the seal this is only sound once
    /// no further input can arrive — a thief's steal request implies global
    /// end-of-stream for both producers.
    ///
    /// The returned columns *keep* their memory-tracker charge: in-memory
    /// bytes stay charged and spilled bytes are newly charged as they are
    /// read back, so the charge travels with the partition and is only
    /// released when the thief acknowledges adoption
    /// (allocate-before-release, as in `SharedQueue::steal_into`).
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        let unprobed = |&p: &usize| {
            matches!(
                self.states[p],
                PartitionState::Building | PartitionState::Sealed
            ) && side_has_rows(&self.left, p)
                && side_has_rows(&self.right, p)
        };
        let Some(p) = (self.partition..NUM_PARTITIONS).rev().find(unprobed) else {
            return Ok(None);
        };
        let taken = take_partition(&mut self.left, &mut self.right, p, &self.memory)?;
        self.states[p] = PartitionState::Shipped;
        Ok(Some(taken))
    }

    /// Adopts a partition shipped from a peer; the sealed joiner probes it
    /// after its own, and an exhausted one is revived by it. The caller has
    /// already charged the columns' bytes to this machine's tracker (on
    /// receipt, before the shipper releases its side —
    /// allocate-before-release); the joiner releases them when the adopted
    /// probe completes. Adoption before the seal is a
    /// [`EngineError::Config`] error.
    pub fn adopt_partition(&mut self, left: Columns, right: Columns) -> Result<()> {
        if self.batch_rows.is_none() {
            let message = "PUSH-JOIN adopted a partition before sealing";
            return Err(EngineError::Config(message.into()));
        }
        self.adopted.push_back((left, right));
        Ok(())
    }

    /// Flushes every in-memory, not-yet-loaded partition of both sides to
    /// disk — the memory governor's spill actuator, in either phase. The
    /// partition being probed stays resident (it is the working set); spilled
    /// rows are re-loaded when the probe reaches their partition, so results
    /// are unchanged and only the tracked resident bytes drop. Returns the
    /// bytes released.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let dir = &self.spill_dir;
        let mut total = spill_side(&mut self.left, dir, "l", &mut self.spill_counter)?;
        total += spill_side(&mut self.right, dir, "r", &mut self.spill_counter)?;
        self.memory.release(total);
        Ok(total)
    }

    /// Bytes of not-yet-loaded partitions still resident in memory (both
    /// sides).
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

    /// Installs the run's cancellation token: every probe poll checks it
    /// first, so a cancel unwinds mid-probe (`Drop` balances charges and
    /// spill files).
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Joined rows emitted or counted so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Candidate pairs tested so far ([`HashJoiner::produced`] survived).
    pub fn tested(&self) -> u64 {
        self.tested
    }

    /// `true` once the joiner is sealed and every local and adopted partition
    /// has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.current.is_none() && self.partition >= NUM_PARTITIONS && self.adopted.is_empty()
    }

    /// Produces the next output batch (at most the sealed batch size), or
    /// `None` when the join is exhausted — for now: a partition adopted from
    /// a peer revives it. Probing before the seal is a
    /// [`EngineError::Config`] error, with either sink.
    pub fn next_batch(&mut self) -> Result<Option<ColBatch>> {
        // A block's pairs are all written before the rejected ones are cut.
        let capacity = self.batch_rows.unwrap_or(0).min(64 * 1024) as usize + BLOCK;
        let mut pairs = Vec::with_capacity(capacity);
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

    /// Counts the next batch of joined rows (at most the sealed batch size)
    /// without materialising them, or returns `None` when the join is
    /// exhausted. Every check [`HashJoiner::next_batch`] applies is applied
    /// here too — it is the same pair generator with a sink that only counts.
    pub fn count_batch(&mut self) -> Result<Option<u64>> {
        let polled =
            self.poll_pairs(|probe, spec, budget| (probe.walk(spec, budget, |_, _, _| {}), ()))?;
        Ok(polled.map(|(matched, ())| matched))
    }

    /// One probe poll, shared by both sinks: checks for cancellation, then
    /// runs `sink` over the resident partition — loading the next one and
    /// retiring exhausted ones — until a walk yields surviving pairs.
    /// Returns the pairs matched and the sink's output, or `None` when every
    /// partition is consumed.
    fn poll_pairs<T>(
        &mut self,
        mut sink: impl FnMut(&mut PartitionProbe, &ProbeSpec, u64) -> ((u64, u64, bool), T),
    ) -> Result<Option<(u64, T)>> {
        let Some(batch_rows) = self.batch_rows else {
            let message = "PUSH-JOIN probed before sealing";
            return Err(EngineError::Config(message.into()));
        };
        if let Some(cancel) = &self.cancel {
            cancel.check()?;
        }
        loop {
            if self.current.is_none() && !self.load_next_partition()? {
                return Ok(None);
            }
            let probe = self.current.as_mut().expect("a partition is resident");
            let ((tested, matched, exhausted), out) = sink(probe, &self.spec, batch_rows);
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
        let (left, right, index) = loop {
            if self.partition >= NUM_PARTITIONS {
                // Adopted partitions' bytes were charged on receipt, not here.
                let Some((left, right)) = self.adopted.pop_front() else {
                    return Ok(false);
                };
                break (left, right, None);
            }
            let p = self.partition;
            self.partition += 1;
            if self.states[p] == PartitionState::Shipped {
                // A thief owns this partition now.
                continue;
            }
            if !side_has_rows(&self.left, p) || !side_has_rows(&self.right, p) {
                // Nothing can pair: unlink both sides' buffers and spill
                // files without reading them back.
                discard_partition(&mut self.left, p, &self.memory);
                discard_partition(&mut self.right, p, &self.memory);
                self.states[p] = PartitionState::Done;
                continue;
            }
            // Both sides come out charged, as an adopted partition arrives;
            // the build below trades the right one for the kept columns.
            let (left, right) = take_partition(&mut self.left, &mut self.right, p, &self.memory)?;
            self.states[p] = PartitionState::Probing;
            break (left, right, Some(p));
        };
        let probe = PartitionProbe::build(&self.spec, left, right, &self.memory, index);
        self.current = Some(probe);
        Ok(true)
    }
}

impl Drop for HashJoiner {
    fn drop(&mut self) {
        // Balance the tracker for everything still buffered, loaded or
        // adopted (spill files are removed by the partitions' own `Drop`).
        let loaded = self.current.as_ref().map_or(0, |probe| probe.loaded_bytes);
        let adopted = self
            .adopted
            .iter()
            .map(|(l, r)| column_bytes(l) + column_bytes(r));
        self.memory
            .release(self.buffered_bytes() + loaded + adopted.sum::<u64>());
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

/// The pair predicate of one join, compiled with its joiner: which right
/// columns the probe keeps and what each is tested against. Positions of the
/// (virtual) joined row below `left_arity` are left-row columns, the rest are
/// right payload columns in output order.
#[derive(Debug, PartialEq)]
struct ProbeSpec {
    key_left: Vec<usize>,
    key_right: Vec<usize>,
    left_arity: usize,
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
    fn compile(op: &JoinOp, left_arity: usize) -> Self {
        let payload = op.right_payload.len();
        let mut spec = ProbeSpec {
            key_left: op.key_left.clone(),
            key_right: op.key_right.clone(),
            left_arity,
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

    /// Binds row `row` of the left columns: decides whether any right row can
    /// pair with it at all (left–left gates, a non-empty value range for
    /// every kept column) and, if so, leaves in `bound` what the column
    /// passes compare against.
    fn bind(&self, left: &[Vec<VertexId>], row: usize, bound: &mut BoundRow) -> bool {
        // The row's values, gathered once. The tail repeats a real value:
        // comparing against it twice is free of false rejections, which no
        // constant would be.
        let (values, tail) = bound.distinct.as_flattened_mut().split_at_mut(left.len());
        for (value, column) in values.iter_mut().zip(left) {
            *value = column[row];
        }
        tail.fill(values.first().copied().unwrap_or_default());
        if !self.gates.iter().all(|&(s, l)| values[s] < values[l]) {
            return false;
        }
        let (payload, keys) = bound.range.split_at_mut(self.payload);
        payload.fill((0, i64::from(VertexId::MAX)));
        for &(column, position) in &self.above {
            payload[column].0 = payload[column].0.max(i64::from(values[position]) + 1);
        }
        for &(column, position) in &self.below {
            payload[column].1 = payload[column].1.min(i64::from(values[position]) - 1);
        }
        for (range, &k) in keys.iter_mut().zip(&self.key_left) {
            *range = (i64::from(values[k]), i64::from(values[k]));
        }
        bound.range.iter().all(|&(lo, hi)| lo <= hi)
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
    /// The left side, one vector per column, as it was partitioned.
    left: Vec<Vec<VertexId>>,
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
    /// Bytes of the left columns and the kept columns, charged to the
    /// tracker while resident.
    loaded_bytes: u64,
    /// Local partition index (`None` for partitions adopted from a peer).
    index: Option<usize>,
}

impl PartitionProbe {
    /// Groups the right rows (the build side) by join key, indexes the
    /// groups from the key columns, and scatters the columns the probe reads
    /// into group order. One hash per right row: the counting pass remembers
    /// each row's group, so placement needs no second lookup.
    ///
    /// On entry the tracker holds both sides' bytes; on return it holds
    /// `loaded_bytes`. A right column the probe never reads is released as
    /// soon as the groups are known; a kept one is charged before it is
    /// filled and its source released right after, so the tracked peak covers
    /// the one moment both exist.
    fn build(
        spec: &ProbeSpec,
        left: Vec<Vec<VertexId>>,
        mut right: Vec<Vec<VertexId>>,
        memory: &MemoryTrackerHandle,
        index: Option<usize>,
    ) -> Self {
        let n_rows = column_rows(&right);
        let mut table = KeyTable::with_capacity_and_hasher(n_rows, Default::default());
        // Rows per group, then (after the scan) each group's first row.
        let mut starts: Vec<u32> = Vec::new();
        // Each row's group, then (after placement) its destination row.
        let mut dest: Vec<u32> = Vec::with_capacity(n_rows);
        for row in 0..n_rows {
            let next = starts.len() as u32;
            let group = table
                .entry(pack_key(&right, &spec.key_right, row))
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
        let release = |source: &mut Vec<VertexId>| {
            memory.release(std::mem::size_of_val(&source[..]) as u64);
            *source = Vec::new();
        };
        for (position, source) in right.iter_mut().enumerate() {
            if !spec.kept.contains(&position) {
                release(source);
            }
        }
        let column_len = n_rows + LANES;
        let column_bytes = (column_len * std::mem::size_of::<VertexId>()) as u64;
        let mut columns = Vec::with_capacity(spec.kept.len());
        for (k, &position) in spec.kept.iter().enumerate() {
            memory.allocate(column_bytes);
            let mut column = vec![0; column_len];
            for (&value, &d) in right[position].iter().zip(&dest) {
                column[d as usize] = value;
            }
            columns.push(column);
            if !spec.kept[k + 1..].contains(&position) {
                release(&mut right[position]);
            }
        }
        PartitionProbe {
            loaded_bytes: self::column_bytes(&left) + spec.kept.len() as u64 * column_bytes,
            left,
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
        let left_len = column_rows(&self.left);
        let (mut tested, mut matched) = (0, 0);
        let mut mask = [0u32; BLOCK];
        while matched < budget {
            if self.match_pos == self.match_end {
                // Advance to the next left row with candidate matches.
                loop {
                    if self.probe >= left_len {
                        return (tested, matched, true);
                    }
                    let key = pack_key(&self.left, &spec.key_left, self.probe);
                    if let Some(&(start, end)) = self.table.get(&key) {
                        self.match_pos = start;
                        self.match_end = end;
                        break;
                    }
                    self.probe += 1;
                }
            }
            if !spec.bind(&self.left, self.probe, &mut self.bound) {
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
        let left = self.left.iter();
        let left = left.map(|column| pairs.iter().map(|p| column[p.0 as usize]).collect());
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

/// Values a spill file moves at a time: the one fixed buffer (64 KiB) a spill
/// or a reload holds beside the columns themselves.
const SPILL_PIECE: usize = 16 * 1024;

/// Bytes of one value in a spill file.
const VALUE_BYTES: usize = std::mem::size_of::<VertexId>();

/// Appends one partition's in-memory rows to its spill file (creating the
/// file on first spill) as one block: the row count as a little-endian `u64`,
/// then the columns one after another, every value a little-endian `u32`.
/// Returns the in-memory bytes flushed; the caller is responsible for
/// adjusting the side's `buffered_bytes` and the memory tracker (so the
/// helper composes with both the threshold spill in [`HashJoiner::add`] and
/// the governor-driven full spills).
fn spill_partition(
    part: &mut SidePartition,
    spill_dir: &Path,
    tag: &str,
    index: usize,
    counter: &mut usize,
) -> Result<u64> {
    let bytes = column_bytes(&part.columns);
    if bytes == 0 {
        return Ok(0);
    }
    let path = part.spill_file.get_or_insert_with(|| {
        *counter += 1;
        spill_dir.join(format!("join-{tag}-{index}-{counter}.spill"))
    });
    std::fs::create_dir_all(spill_dir)?;
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut w = BufWriter::new(file);
    let block_rows = column_rows(&part.columns);
    w.write_all(&(block_rows as u64).to_le_bytes())?;
    let mut piece = vec![0u8; block_rows.min(SPILL_PIECE) * VALUE_BYTES];
    for values in part.columns.iter().flat_map(|c| c.chunks(SPILL_PIECE)) {
        let piece = &mut piece[..values.len() * VALUE_BYTES];
        for (bytes, value) in piece.chunks_exact_mut(VALUE_BYTES).zip(values) {
            bytes.copy_from_slice(&value.to_le_bytes());
        }
        w.write_all(piece)?;
    }
    w.flush()?;
    part.spilled_rows += block_rows as u64;
    // Drop the allocations too (not just the lengths): a spill exists to make
    // the resident footprint actually shrink.
    part.columns.fill(Vec::new());
    Ok(bytes)
}

/// Reads a spill file's blocks back onto the end of `columns`. Nothing in the
/// file is trusted: each block's row count is checked against what is left of
/// the file before anything is reserved for it, and the blocks' total against
/// the rows the partition spilled, so a truncated or overlong file is an
/// `InvalidData` error instead of a silently shifted column.
fn read_spill_file(
    path: &Path,
    spilled_rows: u64,
    columns: &mut [Vec<VertexId>],
) -> io::Result<()> {
    let invalid = |what: &str| {
        let message = format!("spill file {}: {what}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, message)
    };
    let file = File::open(path)?;
    let mut left = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let row_bytes = (columns.len() * VALUE_BYTES) as u64;
    let mut found_rows = 0u64;
    let mut piece = vec![0u8; left.min((SPILL_PIECE * VALUE_BYTES) as u64) as usize];
    while left > 0 {
        let mut header = [0u8; 8];
        left = left
            .checked_sub(header.len() as u64)
            .ok_or_else(|| invalid("ends inside a block header"))?;
        r.read_exact(&mut header)?;
        let block_rows = u64::from_le_bytes(header);
        left = block_rows
            .checked_mul(row_bytes)
            .and_then(|block| left.checked_sub(block))
            .ok_or_else(|| invalid("ends inside a block"))?;
        found_rows += block_rows;
        for column in columns.iter_mut() {
            column.reserve(block_rows as usize);
            let mut todo = block_rows as usize;
            while todo > 0 {
                let count = todo.min(SPILL_PIECE);
                let piece = &mut piece[..count * VALUE_BYTES];
                r.read_exact(piece)?;
                let values = piece.chunks_exact(VALUE_BYTES);
                column.extend(values.map(|b| VertexId::from_le_bytes([b[0], b[1], b[2], b[3]])));
                todo -= count;
            }
        }
    }
    if found_rows != spilled_rows {
        return Err(invalid(&format!(
            "holds {found_rows} rows, {spilled_rows} were spilled"
        )));
    }
    Ok(())
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
    for (index, part) in side.partitions.iter_mut().enumerate() {
        let bytes = spill_partition(part, spill_dir, tag, index, counter)?;
        side.buffered_bytes -= bytes;
        total += bytes;
    }
    Ok(total)
}

/// Drops one partition of one side without reading it back: releases its
/// in-memory rows and unlinks its spill file (used when either side's
/// partition is empty, so the join cannot produce anything from it).
fn discard_partition(side: &mut SideBuffer, p: usize, memory: &MemoryTrackerHandle) {
    let part = &mut side.partitions[p];
    let bytes = column_bytes(&std::mem::take(&mut part.columns));
    side.buffered_bytes -= bytes;
    memory.release(bytes);
    if let Some(path) = part.spill_file.take() {
        let _ = std::fs::remove_file(path);
    }
}

/// `true` when one partition of one side holds any rows (in memory or
/// spilled) — i.e. probing or shipping it would move real work.
fn side_has_rows(side: &SideBuffer, p: usize) -> bool {
    let part = &side.partitions[p];
    column_rows(&part.columns) > 0 || part.spill_file.is_some()
}

/// Takes one partition of one side out of its buffer — to be probed here or
/// shipped — with whatever it spilled read back behind its resident rows
/// (the file is deleted either way). The columns come out *charged*: resident
/// rows stay charged to the tracker (ownership of the charge moves to the
/// caller) and spilled rows are newly charged as they come back from disk.
/// Combined with a thief charging on receipt before the shipper releases on
/// ack, the cluster-wide tracked sum can transiently over-count but never
/// under-count during a hand-off — the same discipline as
/// `SharedQueue::steal_into`. A failed reload releases what it held.
fn take_side_columns(
    side: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<Vec<Vec<VertexId>>> {
    let part = &mut side.partitions[p];
    let mut columns = std::mem::take(&mut part.columns);
    let resident = column_bytes(&columns);
    side.buffered_bytes -= resident;
    if let Some(path) = part.spill_file.take() {
        let read = read_spill_file(&path, std::mem::take(&mut part.spilled_rows), &mut columns);
        let _ = std::fs::remove_file(&path);
        if let Err(e) = read {
            memory.release(resident);
            return Err(e.into());
        }
        memory.allocate(column_bytes(&columns) - resident);
    }
    Ok(columns)
}

/// [`take_side_columns`] of both sides of partition `p`.
fn take_partition(
    left: &mut SideBuffer,
    right: &mut SideBuffer,
    p: usize,
    memory: &MemoryTrackerHandle,
) -> Result<TakenPartition> {
    let left = take_side_columns(left, p, memory)?;
    let right =
        take_side_columns(right, p, memory).inspect_err(|_| memory.release(column_bytes(&left)))?;
    Ok((left, right))
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

    /// Drains a sealed joiner through the materialising sink: the joined rows
    /// in emission order.
    fn drain(mut joiner: HashJoiner) -> Vec<Vec<u32>> {
        let rows = drain_into(&mut joiner, Vec::new());
        assert_eq!(joiner.produced(), rows.len() as u64);
        rows
    }

    /// Appends the rows `joiner` has left to `rows`, leaving it exhausted.
    fn drain_into(joiner: &mut HashJoiner, mut rows: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        while let Some(batch) = joiner.next_batch().unwrap() {
            rows.extend(batch.to_rows().rows().map(|r| r.to_vec()));
        }
        assert!(joiner.is_exhausted());
        rows
    }

    fn batch2(rows: &[[u32; 2]]) -> ColBatch {
        let mut b = ColBatch::new(2);
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
        let mut l = ColBatch::new(3);
        l.push_row(&[1, 2, 7]);
        l.push_row(&[1, 3, 8]);
        let mut r = ColBatch::new(3);
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
        // all-in-memory joiner must hold identical columns: a ship carries
        // the same partition whether or not it went through a spill file —
        // here one of several blocks, a block per threshold spill.
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
            for (l, r) in left.chunks(50).zip(right.chunks(50)) {
                joiner.add(JoinSide::Left, &batch2(l)).unwrap();
                joiner.add(JoinSide::Right, &batch2(r)).unwrap();
            }
            joiner
        };
        let mut spilled = build(1024);
        assert!(spilled.spilled());
        spilled.spill_to_disk().unwrap();
        let blocks = spilled.left.partitions.iter().map(|p| p.spilled_rows);
        assert_eq!(blocks.sum::<u64>(), u64::from(n));
        let mut resident = build(1 << 20);
        assert!(!resident.spilled());
        let taken_spilled = spilled
            .take_unprobed_partition()
            .unwrap()
            .expect("spilled joiner has a shippable partition");
        let taken_resident = resident
            .take_unprobed_partition()
            .unwrap()
            .expect("resident joiner has a shippable partition");
        assert_eq!(taken_spilled, taken_resident);
        let (left_columns, right_columns) = taken_spilled;
        assert!(column_rows(&left_columns) > 0 && left_columns.len() == 2);
        assert_eq!(left_columns[0], right_columns[0]);
    }

    /// Every spill file under `dir` whose name starts with `prefix`.
    fn spill_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let mut files: Vec<PathBuf> = entries
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with(prefix))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_truncated_or_overlong_spill_file_is_invalid_data_on_reload_and_on_ship() {
        // Two blocks of 200 rows a side, every partition holding both sides.
        type Corrupt = fn(&std::fs::File, u64);
        let corruptions: [(&str, Corrupt); 4] = [
            ("cut mid-block", |f, len| f.set_len(len - 6).unwrap()),
            ("cut inside a header", |f, len| f.set_len(len + 5).unwrap()),
            ("a header promising more than is left", |mut f, _| {
                f.write_all(&[0xff; 12]).unwrap()
            }),
            // A whole block gone: every header fits, the row total does not.
            ("cut at a block boundary", |f, len| {
                let mut header = [0u8; 8];
                (&mut &*f).read_exact(&mut header).unwrap();
                let first = 8 + u64::from_le_bytes(header) * 2 * 4;
                assert!(first < len, "the partition spilled two blocks");
                f.set_len(first).unwrap()
            }),
        ];
        for (what, corrupt) in corruptions {
            for ship in [false, true] {
                let tracker = std::sync::Arc::new(MemoryTracker::new());
                let dir = spill_dir();
                let mut joiner = HashJoiner::new(
                    simple_op(),
                    2,
                    2,
                    1 << 20,
                    dir.clone(),
                    MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
                );
                for block in 0..2u32 {
                    let rows: Vec<[u32; 2]> = (0..200).map(|i| [i, 10_000 * block + i]).collect();
                    joiner.add(JoinSide::Left, &batch2(&rows)).unwrap();
                    joiner.add(JoinSide::Right, &batch2(&rows)).unwrap();
                    joiner.spill_to_disk().unwrap();
                }
                for path in spill_files(&dir, "join-r-") {
                    let file = OpenOptions::new()
                        .read(true)
                        .append(true)
                        .open(&path)
                        .unwrap();
                    corrupt(&file, file.metadata().unwrap().len());
                }
                let failed = if ship {
                    let failed = joiner.take_unprobed_partition().err();
                    drop(joiner);
                    failed
                } else {
                    joiner.into_stream(64).count_batch().err()
                };
                match failed {
                    Some(crate::EngineError::Io(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}")
                    }
                    other => panic!("{what}, ship {ship}: expected InvalidData, got {other:?}"),
                }
                // Nothing the failed load held stays charged, nothing stays
                // on disk once the joiner (or its stream) is gone.
                assert_eq!(tracker.current(), 0, "{what}, ship {ship}");
                assert!(spill_files(&dir, "join-").is_empty(), "{what}, ship {ship}");
            }
        }
    }

    #[test]
    fn shipped_partitions_join_to_the_same_rows_elsewhere() {
        // Splitting a join between a shipper and an adopter produces exactly
        // the rows of the unsplit join, whether a partition ships before the
        // seal or mid-probe, and the memory charge that travels with the
        // shipped partitions balances out.
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

        let mut shipper = build(true);
        let mut shipped = Vec::new();
        let mut ship = |joiner: &mut HashJoiner| {
            shipped.push(joiner.take_unprobed_partition().unwrap().expect("a ship"));
            let states = joiner.states.iter();
            let gone = states.filter(|&&s| s == PartitionState::Shipped);
            assert_eq!(gone.count(), shipped.len());
        };
        // Before the seal: the rest keep building, then all of it seals.
        ship(&mut shipper);
        let building = shipper
            .states
            .iter()
            .filter(|&&s| s == PartitionState::Building);
        assert_eq!(building.count(), NUM_PARTITIONS - 1);
        shipper.seal(16);
        assert!(!shipper.states.contains(&PartitionState::Building));
        // Mid-probe: one batch out of a partition, one more partition away.
        let first = shipper.next_batch().unwrap().expect("local rows");
        assert!(shipper.states.contains(&PartitionState::Probing));
        ship(&mut shipper);
        let mut split_rows = first.to_rows().rows().map(|r| r.to_vec()).collect();
        split_rows = drain_into(&mut shipper, split_rows);
        // Exhausted: nothing is left to ship.
        assert!(shipper.take_unprobed_partition().unwrap().is_none());

        // An adopter on the same tracker: an empty build of the same op,
        // sealed and exhausted before the ships land — they revive it.
        let mut adopter = HashJoiner::new(
            simple_op(),
            2,
            2,
            1 << 20,
            spill_dir(),
            MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker)),
        )
        .into_stream(128);
        assert!(adopter.next_batch().unwrap().is_none() && adopter.is_exhausted());
        for (l, r) in shipped {
            adopter.adopt_partition(l, r).unwrap();
        }
        assert!(!adopter.is_exhausted());
        split_rows = drain_into(&mut adopter, split_rows);
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
    fn the_seal_gates_both_phases_and_count_batch_sums_next_batch() {
        let build = || {
            let memory = MemoryTrackerHandle::Untracked;
            let mut join = HashJoiner::new(simple_op(), 2, 2, 1 << 20, spill_dir(), memory);
            let left = ColBatch::from_columns(vec![vec![1, 2, 1], vec![10, 20, 11]]);
            let right = ColBatch::from_columns(vec![vec![1, 1], vec![100, 101]]);
            join.add(JoinSide::Left, &left).unwrap();
            join.add(JoinSide::Right, &right).unwrap();
            // Before the seal: adoption and both sinks are refused.
            let refused = |e: EngineError| matches!(e, EngineError::Config(_));
            let adopted = join.adopt_partition(Vec::new(), Vec::new());
            assert!(adopted.is_err_and(refused));
            assert!(join.next_batch().is_err_and(refused));
            assert!(join.count_batch().is_err_and(refused));
            // The seal takes the batch size: four joined rows come out in
            // two batches. Input after it is refused.
            join.seal(3);
            assert!(join.add(JoinSide::Left, &left).is_err_and(refused));
            join
        };
        let mut join = build();
        let mut rows = Vec::new();
        while let Some(b) = join.next_batch().unwrap() {
            assert!(b.len() <= 3);
            rows.extend(b.to_rows().rows().map(|r| r.to_vec()));
        }
        rows.sort();
        let expected = [[1, 10, 100], [1, 10, 101], [1, 11, 100], [1, 11, 101]];
        assert_eq!(rows, expected.map(Vec::from));
        assert_eq!(join.produced(), 4);
        assert!(join.is_exhausted() && join.next_batch().unwrap().is_none());
        // The counting sink: the same probe, nothing emitted, the same rows.
        let mut counting = build();
        let mut counted = 0;
        while let Some(n) = counting.count_batch().unwrap() {
            counted += n;
        }
        assert_eq!(counted, rows.len() as u64);
        assert_eq!(counting.produced(), counted);
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
        let mut seen: HashMap<u32, ([u32; 4], u64)> = HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        loop {
            let mut prefix = [0u32; 4];
            for v in &mut prefix {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = (x >> 33) as u32;
            }
            let state = key_hash(prefix);
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
            kept: vec![0, 1],
            payload: 2,
            gates: vec![],
            above: vec![],
            below: vec![(1, 2)],
            ordered: vec![],
        };
        assert_eq!(ProbeSpec::compile(&op, 4), expected);
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

        /// [`pack_key`] of a row given as a slice.
        fn packed(row: &[u32], key_positions: &[usize]) -> u128 {
            let columns: Vec<Vec<u32>> = row.iter().map(|&v| vec![v]).collect();
            pack_key(&columns, key_positions, 0)
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
                    assert_eq!(packed(&a, &op.key_left), packed(&b, &op.key_left));
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
                        // Three batches a side, each one more block of every
                        // partition's spill file when spilling.
                        for rows in rows.chunks(rows.len().div_ceil(3).max(1)) {
                            let mut batch = ColBatch::new(arity);
                            rows.iter().for_each(|r| batch.push_row(r));
                            joiner.add(side, &batch).unwrap();
                            if spill {
                                joiner.spill_to_disk().unwrap();
                            }
                        }
                    }
                    joiner.into_stream(batch_rows)
                };

                // The stream walks the Grace partitions in order and, inside
                // one, the reference's order: left rows as they arrived, each
                // against its key group as that arrived.
                let mut expected = nested_loop_join(&op, &left, &right);
                expected.sort_by_key(|row| {
                    grace_partition(key_hash(op.key_left.iter().map(|&c| row[c])))
                });
                let candidates = left
                    .iter()
                    .flat_map(|l| right.iter().map(move |r| (l, r)))
                    .filter(|(l, r)| packed(l, &op.key_left) == packed(r, &op.key_right))
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

            /// Equal keys of the two sides meet: whatever the key's width
            /// (past `PACK_MAX_KEY` too) and wherever its columns sit in
            /// either schema, the shuffle sends both sides' rows of a key to
            /// one machine and `add` puts them into one Grace partition there.
            #[test]
            fn equal_keys_of_both_sides_share_a_machine_and_a_grace_partition(
                keys in prop::collection::vec(prop::collection::vec(0u32..4, 6..7), 1..40),
                key_width in 1usize..7,
                left_pad in 0usize..3,
                right_pad in 0usize..3,
                k in 1usize..5,
            ) {
                // Left rows are [pad.., key..]; right rows hold the key's
                // columns in reverse order, then their pad.
                let op = JoinOp {
                    left: 0,
                    right: 1,
                    key_left: (left_pad..left_pad + key_width).collect(),
                    key_right: (0..key_width).rev().collect(),
                    right_payload: (key_width..key_width + right_pad).collect(),
                    filters: vec![],
                };
                let (left_arity, right_arity) = (left_pad + key_width, key_width + right_pad);
                let mut left = ColBatch::new(left_arity);
                let mut right = ColBatch::new(right_arity);
                for (i, key) in keys.iter().enumerate() {
                    let (key, pad) = (&key[..key_width], [i as u32; 2]);
                    left.push_row(&[&pad[..left_pad], key].concat());
                    let reversed: Vec<u32> = key.iter().rev().copied().collect();
                    right.push_row(&[&reversed[..], &pad[..right_pad]].concat());
                }
                // Where each key's rows ended up: key -> (machine, partition).
                let mut homes: [HashMap<Vec<u32>, (usize, usize)>; 2] = Default::default();
                let shuffled_left = crate::exec::partition_cols_by_key(&left, &op.key_left, k);
                let shuffled_right = crate::exec::partition_cols_by_key(&right, &op.key_right, k);
                for (machine, (l, r)) in shuffled_left.iter().zip(&shuffled_right).enumerate() {
                    let mut joiner = HashJoiner::new(
                        op.clone(),
                        left_arity,
                        right_arity,
                        1 << 20,
                        spill_dir(),
                        MemoryTrackerHandle::Untracked,
                    );
                    joiner.add(JoinSide::Left, l).unwrap();
                    joiner.add(JoinSide::Right, r).unwrap();
                    let sides = [(&joiner.left, &op.key_left), (&joiner.right, &op.key_right)];
                    for (homes, (side, key_positions)) in homes.iter_mut().zip(sides) {
                        for (p, part) in side.partitions.iter().enumerate() {
                            for row in 0..column_rows(&part.columns) {
                                let key = key_positions.iter().map(|&c| part.columns[c][row]).collect();
                                let home = *homes.entry(key).or_insert((machine, p));
                                prop_assert_eq!(home, (machine, p), "one key, two homes");
                            }
                        }
                    }
                }
                prop_assert_eq!(&homes[0], &homes[1]);
                let distinct: std::collections::HashSet<&[u32]> =
                    keys.iter().map(|key| &key[..key_width]).collect();
                prop_assert_eq!(homes[0].len(), distinct.len());
            }
        }
    }
}
