//! The `PUSH-JOIN` operator: a partitioned (Grace-style) hybrid hash join
//! with disk spill (§4.3) — one [`HashJoiner`] from its first input row to
//! its last probed pair, called directly by whoever drives it: the machine's
//! segment chain, the perf ledger.
//!
//! Each side of the join is hash-partitioned by join key into a fixed number
//! of partitions, and a partition keeps the shuffle's runs from end to end:
//! each of its sides is one [`ColBatch`] — whole runs when the side's key
//! lies in the prefix (one hash per run, the prefix once per run), one run
//! per row otherwise ([`HashJoiner::add`]) — and that batch is what a spill
//! file stores, what a partition ship carries and what the probe is built
//! from. Rows are assembled in one place, the output gather, which emits one
//! run per left row and right run it pairs. A partition buffers
//! rows in memory until the configured threshold, after which they are
//! appended to a temporary file on disk.
//! The joiner keeps one table of partitions, each entry its state, both
//! sides' rows and its build, and the joiner's one ship, spill, byte count
//! and `Drop` read that table whatever the phase.
//!
//! Sealing the right (build) side ([`HashJoiner::seal_right`]) builds every
//! partition whose right rows are all in memory. Until the left seal
//! ([`HashJoiner::seal`]) such a partition *streams*: left rows that land in
//! it are probed by the next poll. After the left seal a cursor walks the
//! partitions in order, building the ones whose right side spilled, probing
//! what waits in each and retiring it. An idle peer can take a partition's
//! unprobed work: an unbuilt one whole, or a built one's waiting left rows
//! with a copy of its right rows. Memory is bounded by the resident builds,
//! plus the partition the cursor loads and one output batch, whoever
//! consumes the join.
//!
//! The probe is **one pair generator with two sinks**. What a candidate pair
//! must pass — the wide-key re-check, cross-side injectivity, the order
//! filters — is compiled once when the joiner is created
//! (`ProbeSpec::compile`): every filter is classified by where its
//! operands live (both on the left row, one on each side, both in the right
//! payload) and the right columns the checks read are fixed. The resident
//! partition keeps exactly those columns of its build side, grouped by join
//! key and in the side's runs: a prefix column once per run. The generator
//! looks up a left run's key group once, binds the run's prefix values once
//! and its newest value once per row, then tests the key group a block of
//! right rows at a time, one branch-free pass per column into a mask (the
//! build's per-run columns are expanded into scratch rows once per left
//! run). [`HashJoiner::count_batch`] sums the mask — the sink
//! the machine's chain calls when the join feeds a counting `SINK` directly
//! — [`HashJoiner::next_batch`] turns it into pairs of `(row, run)` indices
//! of each side and gathers the output columns from them, a prefix value
//! through its run and a newest value through its row. Both share the
//! partition lifecycle, the tracker charges and the per-poll cancel check.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use huge_comm::{ColBatch, Runs};
use huge_graph::{mix, IdBuildHasher, VertexId};
use huge_plan::translate::JoinOp;

use crate::cancel::CancelToken;
use crate::exec::scatter_by_key;
use crate::memory::MemoryTracker;
use crate::{EngineError, Result};

/// Number of Grace partitions per side.
pub const NUM_PARTITIONS: usize = 16;

/// Lifecycle of one Grace partition.
///
/// A partition is `Open` while it has no build: it takes input, and after
/// the right seal it waits for the cursor (its right side spilled, the spill
/// actuator demoted it, or a peer shipped it here). It is `Built` from the
/// moment its build is made — at the right seal if its right rows are all in
/// memory, else by the cursor — until the cursor retires it (`Done`). Open
/// or built, its unprobed rows may be shipped to an idle peer (`Shipped`,
/// partition stealing; a built one stays built while a probe holds it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PartitionState {
    Open,
    Built,
    Shipped,
    Done,
}

/// An unprobed Grace partition claimed for shipping: `(left side, right
/// side)`, each in the runs the partition held it in.
pub type TakenPartition = (ColBatch, ColBatch);

/// Which input of the join a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// The left input (its rows form the prefix of output rows).
    Left,
    /// The right input (only its non-key payload columns are appended).
    Right,
}

/// Hashes a join key, given as its column values in key order. The shuffle's
/// destination machine, the Grace partition and `pack_key`'s wide-key
/// fallback are all taken from this one function of the key's values, which
/// is what lands equal keys of the two sides on the same machine, in the same
/// partition, under the same table key.
///
/// A one-value key `v` hashes to `v` itself, so the shuffle places it on
/// [`machine_of`](huge_graph::machine_of)`(v)`, the machine that owns vertex
/// `v`: a join input whose rows started there ships none of them. A wider
/// key is FNV-hashed.
pub fn key_hash(key: impl IntoIterator<Item = VertexId>) -> u64 {
    let mut key = key.into_iter();
    let first = key.next().unwrap_or(0);
    let Some(second) = key.next() else {
        return u64::from(first);
    };
    [first, second]
        .into_iter()
        .chain(key)
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ u64::from(v)).wrapping_mul(0x1000_0000_01b3)
        })
}

/// The Grace partition of a row whose join key hashes to `hash`. The shuffle
/// already placed the row by the top bits of [`mix`]`(hash)`
/// ([`machine_of`](huge_graph::machine_of)), so every row a machine receives
/// agrees on those; taking the partition from them again would leave all but
/// `NUM_PARTITIONS / k` partitions empty. The partition reads bits 32–35 of
/// the same mixed value instead, far below the top `log₂ k` bits the
/// placement turns on — for a one-column key, other bits of the mixed vertex
/// id than the ones that pick its owner.
fn grace_partition(hash: u64) -> usize {
    (mix(hash) >> 32) as usize % NUM_PARTITIONS
}

/// Widest join key (in columns) that packs exactly into a `u128`.
const PACK_MAX_KEY: usize = 4;

/// Packs the join-key values of run `unit` of `batch` into a single `u128`
/// table key. A side's key is constant over each of its runs: its key
/// columns are prefix columns, or its newest column is one of them and every
/// run is one row (so run `unit` is row `unit`). Up to [`PACK_MAX_KEY`]
/// columns pack positionally (collision-free); wider keys fall back to
/// [`key_hash`], and the probe re-checks column equality on each candidate
/// match.
fn pack_key(batch: &ColBatch, key_positions: &[usize], unit: usize) -> u128 {
    let key = key_positions.iter().map(|&c| batch.column(c)[unit]);
    if key_positions.len() <= PACK_MAX_KEY {
        key.fold(0, |packed, v| (packed << 32) | u128::from(v))
    } else {
        u128::from(key_hash(key))
    }
}

/// Whether the key columns `key` are constant over every run of `batch`,
/// which [`pack_key`] reads them per run for: all of them prefix columns, or
/// every run one row (a side keyed on its newest column).
fn keyed_per_run(batch: &ColBatch, key: &[usize]) -> bool {
    let prefix = key.iter().all(|&c| c + 1 < batch.arity());
    prefix || (0..batch.runs()).all(|run| batch.run_rows(run).len() == 1)
}

/// Packed join key -> `(first, end)` runs of the grouped right side. The
/// keys are vertex ids of rows this engine produced, so the table hashes
/// them with [`IdHasher`](huge_graph::IdHasher), not SipHash.
type KeyTable = HashMap<u128, (u32, u32), IdBuildHasher>;

/// One side of a partition: its resident rows and its spill file.
struct Side {
    /// The resident rows, in the runs they arrived in.
    batch: ColBatch,
    spill_file: Option<PathBuf>,
    /// Rows appended to the spill file so far — what a reload must find.
    spilled_rows: u64,
}

impl Drop for Side {
    fn drop(&mut self) {
        if let Some(path) = self.spill_file.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One Grace partition of the joiner's table, local or adopted from a peer.
struct Partition {
    state: PartitionState,
    left: Side,
    right: Side,
    /// The build, once made, while no probe holds it.
    build: Option<Build>,
}

impl Partition {
    fn new(state: PartitionState, left: ColBatch, right: ColBatch) -> Self {
        let side = |batch| Side {
            batch,
            spill_file: None,
            spilled_rows: 0,
        };
        let (left, right) = (side(left), side(right));
        Partition {
            state,
            left,
            right,
            build: None,
        }
    }

    fn side(&mut self, side: JoinSide) -> &mut Side {
        match side {
            JoinSide::Left => &mut self.left,
            JoinSide::Right => &mut self.right,
        }
    }

    /// Bytes resident in memory that no probe holds: rows and build.
    fn bytes(&self) -> u64 {
        let build = self.build.as_ref().map_or(0, |b| b.bytes);
        self.left.batch.byte_size() + self.right.batch.byte_size() + build
    }
}

/// The hash join of one machine, from its first [`HashJoiner::add`] to its
/// last probed pair.
///
/// `add` scatters input into the Grace partitions. After
/// [`HashJoiner::seal_right`] the joiner is driven one batch of pairs at a
/// time ([`HashJoiner::next_batch`], [`HashJoiner::count_batch`]) over the
/// left rows that have arrived in built partitions, and after
/// [`HashJoiner::seal`] over every partition. Spill files are deleted as
/// their partitions are consumed, and by `Drop` if the join is abandoned
/// early. Unprobed partitions ship to peers in any phase
/// ([`HashJoiner::take_unprobed_partition`]); a sealed joiner appends the
/// partitions peers ship to it to its table and probes them after its own
/// ([`HashJoiner::adopt_partition`]).
pub struct HashJoiner {
    spec: ProbeSpec,
    /// The Grace partitions: the local ones, then those adopted from peers.
    partitions: Vec<Partition>,
    spill_threshold_bytes: u64,
    spill_dir: PathBuf,
    spill_counter: usize,
    memory: MemoryTrackerHandle,
    /// Rows per output batch, set by the right seal (`None` before it).
    batch_rows: Option<u64>,
    /// The left side is sealed too.
    left_sealed: bool,
    /// The next partition the probe visits after the left seal.
    cursor: usize,
    /// The partition being probed.
    current: Option<PartitionProbe>,
    /// Joined rows emitted or counted so far.
    produced: u64,
    /// Candidate pairs tested so far (`produced` of them survived).
    tested: u64,
    /// Left rows the probe took, `[streamed, deferred]`: indexed by
    /// whether the build they met was made after the left seal.
    left_rows: [u64; 2],
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
    ///
    /// # Panics
    /// Panics if the right side's newest column is a payload column but not
    /// the last, which the output's runs need (`translate` never does that).
    pub fn new(
        op: JoinOp,
        left_arity: usize,
        right_arity: usize,
        spill_threshold_bytes: u64,
        spill_dir: PathBuf,
        memory: MemoryTrackerHandle,
    ) -> Self {
        let (_, payload) = op.right_payload.split_last().unwrap_or((&0, &[]));
        assert!(
            payload.iter().all(|&c| c + 1 < right_arity),
            "the right side's newest column must be the last payload column"
        );
        let open = |_| {
            let (left, right) = (ColBatch::new(left_arity), ColBatch::new(right_arity));
            Partition::new(PartitionState::Open, left, right)
        };
        HashJoiner {
            spec: ProbeSpec::compile(&op, left_arity),
            partitions: (0..NUM_PARTITIONS).map(open).collect(),
            spill_threshold_bytes: spill_threshold_bytes.max(1024),
            spill_dir,
            spill_counter: 0,
            memory,
            batch_rows: None,
            left_sealed: false,
            cursor: 0,
            current: None,
            produced: 0,
            tested: 0,
            left_rows: [0; 2],
            cancel: None,
        }
    }

    /// Adds an input batch to one side with the shuffle's own scatter
    /// (`exec::scatter_by_key`, by Grace partition instead of machine): a
    /// run whose key is constant over it goes whole, one hash per run,
    /// straight onto its partition's side, any other run row by row. Left
    /// rows that land in a built partition wait there for the next probe
    /// poll. Input after its side's seal is a [`EngineError::Config`] error.
    pub fn add(&mut self, side: JoinSide, batch: &ColBatch) -> Result<()> {
        let (sealed, key_positions, tag) = match side {
            JoinSide::Left => (self.left_sealed, &self.spec.key_left, "l"),
            JoinSide::Right => (self.batch_rows.is_some(), &self.spec.key_right, "r"),
        };
        if sealed {
            let message = "PUSH-JOIN received input after sealing";
            return Err(EngineError::Config(message.into()));
        }
        debug_assert_eq!(batch.arity(), self.partitions[0].side(side).batch.arity());
        let mut sides: Vec<&mut ColBatch> = self.partitions[..NUM_PARTITIONS]
            .iter_mut()
            .map(|p| &mut p.side(side).batch)
            .collect();
        let before: u64 = sides.iter().map(|s| s.byte_size()).sum();
        scatter_by_key(batch, key_positions, grace_partition, &mut sides);
        let mut resident: u64 = sides.iter().map(|s| s.byte_size()).sum();
        // One tracker charge per batch: the spill loop below only runs after
        // the whole batch is buffered, so the tracked peak is the same as
        // charging row by row.
        self.memory.allocate(resident - before);
        // Spill the largest open partitions while the side's resident rows
        // exceed the threshold — never a built one: its left rows are probe
        // input, not buffer.
        while resident > self.spill_threshold_bytes {
            let open = self.partitions.iter_mut().enumerate();
            let open = open.filter(|(_, p)| p.state == PartitionState::Open);
            let sides = open.map(|(p, part)| (p, part.side(side)));
            let victim = sides.max_by_key(|(_, s)| s.batch.byte_size());
            let Some((p, victim)) = victim.filter(|(_, s)| s.batch.byte_size() > 0) else {
                break;
            };
            let bytes = victim.spill(&self.spill_dir, tag, p, &mut self.spill_counter)?;
            resident -= bytes;
            self.memory.release(bytes);
        }
        Ok(())
    }

    /// Seals the right (build) input: right rows are refused from now on,
    /// each probe poll yields at most `batch_rows` joined rows, and every
    /// open partition whose right rows are all in memory is built — before
    /// the left seal it streams: the next polls probe the left rows it holds
    /// and every one that lands in it later. A second call does nothing.
    pub fn seal_right(&mut self, batch_rows: usize) {
        if self.batch_rows.is_some() {
            return;
        }
        self.batch_rows = Some(batch_rows.max(1) as u64);
        for part in &mut self.partitions {
            if part.state != PartitionState::Open || part.right.spill_file.is_some() {
                continue;
            }
            let right = part.right.take_resident();
            let streams = !self.left_sealed;
            part.build = Some(Build::new(&self.spec, right, &self.memory, streams));
            part.state = PartitionState::Built;
        }
    }

    /// Seals the left input: [`HashJoiner::seal_right`] (whose `batch_rows`
    /// counts only if the right side is still open, and whose builds then do
    /// not stream) plus closing the left input. What is not built by then
    /// stays resident or spilled until the probe's cursor loads it, one
    /// partition at a time, so the consumer controls the pace.
    pub fn seal(&mut self, batch_rows: usize) {
        self.left_sealed = true;
        self.seal_right(batch_rows);
    }

    /// `true` once both sides are sealed.
    pub fn is_sealed(&self) -> bool {
        self.left_sealed
    }

    /// [`HashJoiner::seal`] by value: the sealed joiner, ready to be probed.
    pub fn into_stream(mut self, batch_rows: usize) -> Self {
        self.seal(batch_rows);
        self
    }

    /// Ships one local partition's unprobed work, highest index first (the
    /// probe cursor walks upward — the take-from-the-back policy of
    /// `SharedQueue::steal_into`): an open partition whole, a built one's
    /// waiting left rows with its build unbuilt (copied if the probe holds
    /// it). Partitions empty on either side are skipped, and so are those
    /// adopted from peers. Before the left seal this is only sound once no
    /// further input can arrive — a thief's steal request implies global
    /// end-of-stream for both sides.
    ///
    /// The returned batches *keep* their memory-tracker charge: in-memory
    /// bytes stay charged, spilled bytes are newly charged as they are read
    /// back and unbuilt right rows as they are made, so the charge travels
    /// with the partition and is only released when the thief acknowledges
    /// adoption (allocate-before-release, as in `SharedQueue::steal_into`).
    pub fn take_unprobed_partition(&mut self) -> Result<Option<TakenPartition>> {
        let unprobed = |&p: &usize| {
            let part = &self.partitions[p];
            part.left.rows() > 0
                && match part.state {
                    PartitionState::Open => part.right.rows() > 0,
                    // Its build is in the slot or held by the probe.
                    PartitionState::Built => part.build.as_ref().is_none_or(|b| b.rows > 0),
                    _ => false,
                }
        };
        let Some(p) = (self.cursor..NUM_PARTITIONS).rev().find(unprobed) else {
            return Ok(None);
        };
        let Some(probe) = self.current.as_ref().filter(|probe| probe.index == p) else {
            if self.partitions[p].state == PartitionState::Built {
                self.demote(p);
            }
            let part = &mut self.partitions[p];
            let left = part.left.take(&self.memory)?;
            let right = part.right.take(&self.memory);
            let right = right.inspect_err(|_| self.memory.release(left.byte_size()))?;
            part.state = PartitionState::Shipped;
            return Ok(Some((left, right)));
        };
        let part = &mut self.partitions[p];
        let right = probe.build.unbuild(&self.spec, part.right.batch.arity());
        self.memory.allocate(right.byte_size());
        let left = part.left.take(&self.memory);
        let left = left.inspect_err(|_| self.memory.release(right.byte_size()))?;
        Ok(Some((left, right)))
    }

    /// Adopts a partition shipped from a peer: it joins the table, and the
    /// sealed joiner's cursor probes it after its own — an exhausted joiner
    /// is revived by it. The caller has already charged the batches' bytes
    /// to this machine's tracker (on receipt, before the shipper releases
    /// its side — allocate-before-release); the joiner releases them as it
    /// would its own rows. Adoption before the (left) seal is a
    /// [`EngineError::Config`] error.
    pub fn adopt_partition(&mut self, left: ColBatch, right: ColBatch) -> Result<()> {
        if !self.left_sealed {
            let message = "PUSH-JOIN adopted a partition before sealing";
            return Err(EngineError::Config(message.into()));
        }
        self.partitions
            .push(Partition::new(PartitionState::Open, left, right));
        Ok(())
    }

    /// The memory governor's spill actuator, in any phase: demotes resident
    /// builds and flushes both sides of every open partition to disk. While
    /// left rows stream in, the largest free build is demoted, so lasting
    /// pressure takes them one per call; after the left seal a free build is
    /// only waiting for the cursor, and every one goes. What a probe holds
    /// stays, and so do left rows waiting for a build. Returns the bytes
    /// released; the tracked peak never rises.
    pub fn spill_to_disk(&mut self) -> Result<u64> {
        let before = self.buffered_bytes();
        let builds = self.partitions.iter().enumerate();
        let mut free: Vec<_> = builds
            .filter_map(|(p, part)| Some((part.build.as_ref()?.bytes, p)))
            .collect();
        free.sort_unstable();
        let demoted = if self.left_sealed { free.len() } else { 1 };
        for &(_, p) in free.iter().rev().take(demoted) {
            // The build's charge goes first and its rows go to disk uncharged
            // (a demotion for a ship charges them instead, see `demote`).
            let part = &mut self.partitions[p];
            let build = part.build.take().expect("a free build");
            self.memory.release(build.bytes);
            part.right.batch = build.unbuild(&self.spec, part.right.batch.arity());
            part.state = PartitionState::Open;
            let spilled = part
                .right
                .spill(&self.spill_dir, "r", p, &mut self.spill_counter);
            if let Err(e) = spilled {
                self.memory.allocate(part.right.batch.byte_size());
                return Err(e);
            }
        }
        let open = self.partitions.iter_mut().enumerate();
        for (p, part) in open.filter(|(_, part)| part.state == PartitionState::Open) {
            for (side, tag) in [(&mut part.left, "l"), (&mut part.right, "r")] {
                let bytes = side.spill(&self.spill_dir, tag, p, &mut self.spill_counter)?;
                self.memory.release(bytes);
            }
        }
        Ok(before - self.buffered_bytes())
    }

    /// Demotes built partition `p`, whose build is in its slot, to open: the
    /// build turns back into the right rows it was made from, in the runs
    /// they were held in, buffered like any others.
    fn demote(&mut self, p: usize) {
        let part = &mut self.partitions[p];
        let build = part.build.take().expect("a free build");
        part.right.batch = build.unbuild(&self.spec, part.right.batch.arity());
        self.memory.allocate(part.right.batch.byte_size());
        self.memory.release(build.bytes);
        part.state = PartitionState::Open;
    }

    /// Bytes resident in memory that no probe holds: rows and builds.
    pub fn buffered_bytes(&self) -> u64 {
        self.partitions.iter().map(Partition::bytes).sum()
    }

    /// `true` if any partition spilled to disk.
    pub fn spilled(&self) -> bool {
        let mut sides = self.partitions.iter().flat_map(|p| [&p.left, &p.right]);
        sides.any(|s| s.spill_file.is_some())
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

    /// Left rows `(streamed, deferred)`: probed against a build made before
    /// the left seal, and the rest (probed against a build made at or after
    /// it, or dropped with a partition that has no right rows).
    pub fn left_rows(&self) -> (u64, u64) {
        (self.left_rows[0], self.left_rows[1])
    }

    /// `true` once both sides are sealed and every local and adopted
    /// partition has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.left_sealed && self.current.is_none() && self.cursor >= self.partitions.len()
    }

    /// `true` when a probe poll can make progress now.
    pub fn has_work(&self) -> bool {
        self.current.is_some()
            || self.waiting_partition().is_some()
            || (self.left_sealed && !self.is_exhausted())
    }

    /// Left rows that wait in built partitions for a probe.
    pub fn waiting_rows(&self) -> u64 {
        let built = self
            .partitions
            .iter()
            .filter(|p| p.state == PartitionState::Built);
        built.map(|p| p.left.rows()).sum()
    }

    /// The partition with a free build and the most rows waiting.
    fn waiting_partition(&self) -> Option<usize> {
        let free = self
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.build.is_some());
        let (p, rows) = free
            .map(|(p, part)| (p, part.left.rows()))
            .max_by_key(|&(_, rows)| rows)?;
        (rows > 0).then_some(p)
    }

    /// Produces the next output batch (at most the sealed batch size), or
    /// `None` when nothing is left to probe — for now: arriving left rows or
    /// an adopted partition revive the join. Probing before the (right) seal
    /// is a [`EngineError::Config`] error, with either sink.
    pub fn next_batch(&mut self) -> Result<Option<ColBatch>> {
        // A block's pairs are all written before the rejected ones are cut.
        let capacity = self.batch_rows.unwrap_or(0).min(64 * 1024) as usize + BLOCK;
        let mut pairs = Vec::with_capacity(capacity);
        let polled = self.poll_pairs(|probe, spec, budget| {
            pairs.clear();
            let walked = probe.walk(spec, budget, |left, kept, mask| {
                // Branch-free compaction: every pair is written, the cursor
                // only moves past the ones that survived. A pair holds each
                // side's row and its run.
                let mut len = pairs.len();
                pairs.resize(len + mask.len(), [0; 4]);
                let (row, runs) = (kept.row as u32, kept.runs());
                for (j, &keep) in mask.iter().enumerate() {
                    let right = row + j as u32;
                    pairs[len] = [left.0, left.1, right, runs[j]];
                    len += keep as usize;
                }
                pairs.truncate(len);
            });
            (walked, probe.gather(spec, &pairs))
        })?;
        Ok(polled.map(|(_, batch)| batch))
    }

    /// Counts the next batch of joined rows (at most the sealed batch size)
    /// without materialising them, or returns `None` when nothing is left to
    /// probe. Every check [`HashJoiner::next_batch`] applies is applied
    /// here too — it is the same pair generator with a sink that only counts.
    pub fn count_batch(&mut self) -> Result<Option<u64>> {
        let polled =
            self.poll_pairs(|probe, spec, budget| (probe.walk(spec, budget, |_, _, _| {}), ()))?;
        Ok(polled.map(|(matched, ())| matched))
    }

    /// One probe poll, shared by both sinks: checks for cancellation, then
    /// runs `sink` over the loaded probe — loading the next one and retiring
    /// exhausted ones — until a walk yields surviving pairs. Returns the
    /// pairs matched and the sink's output, or `None` when nothing is left
    /// to probe.
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
                // The build goes back to its slot for more left rows — or,
                // with the left side sealed and none waiting, it is retired.
                let probe = self.current.take().expect("a partition is resident");
                self.memory.release(probe.left_bytes);
                let part = &mut self.partitions[probe.index];
                part.build = Some(probe.build);
                if self.left_sealed && part.left.rows() == 0 {
                    self.retire(probe.index);
                }
            }
            if matched > 0 {
                self.produced += matched;
                return Ok(Some((matched, out)));
            }
            // The partition produced nothing (no key overlap): move on.
        }
    }

    /// Loads the next probe of a built partition's waiting left rows: before
    /// the left seal, the one with the most rows waiting; after it, the
    /// cursor's, the cursor building each open partition it reaches and
    /// retiring each that cannot pair or has nothing waiting. Returns
    /// `false` when none is left.
    fn load_next_partition(&mut self) -> Result<bool> {
        let p = if self.left_sealed {
            loop {
                let Some(part) = self.partitions.get_mut(self.cursor) else {
                    return Ok(false);
                };
                let right_rows = part
                    .build
                    .as_ref()
                    .map_or(part.right.rows(), |b| b.rows as u64);
                match part.state {
                    // A thief owns this partition now, or it is probed already.
                    PartitionState::Shipped | PartitionState::Done => {}
                    _ if part.left.rows() == 0 || right_rows == 0 => self.retire(self.cursor),
                    PartitionState::Open => {
                        // Charged as an adopted partition arrives, then
                        // traded for its build.
                        let right = part.right.take(&self.memory)?;
                        part.build = Some(Build::new(&self.spec, right, &self.memory, false));
                        part.state = PartitionState::Built;
                        continue;
                    }
                    PartitionState::Built => break self.cursor,
                }
                self.cursor += 1;
            }
        } else {
            let Some(p) = self.waiting_partition() else {
                return Ok(false);
            };
            p
        };
        // Charged until the probe is done (reloaded ones newly so).
        let part = &mut self.partitions[p];
        let left = part.left.take(&self.memory)?;
        let build = part.build.take().expect("a free build");
        self.left_rows[usize::from(!build.streams)] += left.len() as u64;
        self.current = Some(PartitionProbe::new(&self.spec, build, left, p));
        Ok(true)
    }

    /// Retires partition `p`, whose rows can no longer pair: both sides'
    /// buffers and spill files go without being read back (its left rows
    /// count as taken), and so does its build.
    fn retire(&mut self, p: usize) {
        let arity = self.partitions[p].right.batch.arity();
        let (left, right) = (ColBatch::new(self.spec.left_arity), ColBatch::new(arity));
        let done = Partition::new(PartitionState::Done, left, right);
        let part = std::mem::replace(&mut self.partitions[p], done);
        let streams = part.build.as_ref().is_some_and(|b| b.streams);
        self.left_rows[usize::from(!streams)] += part.left.rows();
        self.memory.release(part.bytes());
    }
}

impl Drop for HashJoiner {
    fn drop(&mut self) {
        // Balance the tracker for everything still buffered, built or
        // loaded (spill files are removed by the sides' own `Drop`).
        let loaded = self
            .current
            .as_ref()
            .map_or(0, |probe| probe.left_bytes + probe.build.bytes);
        self.memory.release(self.buffered_bytes() + loaded);
    }
}

/// Right rows the pair test covers at a time: the width of the mask the two
/// sinks read.
const BLOCK: usize = 64;

/// Granularity of a block's column reads. A key group rarely ends on a
/// multiple of it, so the last read of a block runs up to `LANES - 1` rows
/// into whatever follows the group — the next group's rows, or the padding
/// every per-row column carries after its last row — and the mask's lanes
/// past the group are never looked at. That keeps every pass a fixed-width
/// loop with no remainder.
const LANES: usize = 8;

/// Left runs whose key groups the walk looks up ahead of the one it probes.
const LOOKAHEAD: usize = 64;

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

    /// Binds row `row` of the left side, whose run's prefix values
    /// [`BoundRow::bind_run`] bound: decides whether any right row can pair
    /// with it at all (left–left gates, a non-empty value range for every
    /// kept column) and, if so, leaves in `bound` what the column passes
    /// compare against.
    fn bind(&self, left: &ColBatch, row: usize, bound: &mut BoundRow) -> bool {
        // The row's values: the newest one read here. The tail repeats a real
        // value: comparing against it twice is free of false rejections,
        // which no constant would be.
        let newest = left.arity() - 1;
        let (values, tail) = bound.distinct.as_flattened_mut().split_at_mut(newest + 1);
        values[newest] = left.column(newest)[row];
        tail.fill(values[0]);
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

    /// Binds the prefix values of left run `run`: every row of the run
    /// shares them.
    fn bind_run(&mut self, left: &ColBatch, run: usize) {
        let prefix = &mut self.distinct.as_flattened_mut()[..left.arity() - 1];
        for (c, value) in prefix.iter_mut().enumerate() {
            *value = left.column(c)[run];
        }
    }
}

/// The build side of one partition, resident: the kept right columns
/// grouped by join key behind a hash table, a prefix column one value per
/// run and the newest one per row, made at the right seal or by the probe's
/// cursor and kept until the partition's last left row.
struct Build {
    /// One vector per kept right column ([`ProbeSpec::kept`]), runs grouped
    /// by join key (input order kept within a group): a prefix column one
    /// value per run, the newest column one value per row and [`LANES`]
    /// zeroes after the last (none if it has no row). When every run is one
    /// row, a prefix column is one value per row too, padded the same way.
    columns: Vec<Vec<VertexId>>,
    /// Whether each kept column holds one value per run of several rows:
    /// what the probe expands into scratch rows.
    per_run: Vec<bool>,
    /// The runs, in group order.
    runs: Runs,
    table: KeyTable,
    /// Right rows it holds.
    rows: usize,
    /// Bytes of the kept columns and run ends, charged to the tracker while
    /// resident.
    bytes: u64,
    /// Made before the left seal: left rows probed against it stream.
    streams: bool,
}

impl Build {
    /// Groups the right side's runs by join key (the key is constant over a
    /// run), indexes the groups from the key columns, and moves the columns
    /// the probe reads into group order: a prefix value once per run, a
    /// run's newest values as one slice. One hash per run: the counting pass
    /// remembers each run's group, so placement needs no second lookup.
    ///
    /// On entry the tracker holds the right side's bytes; on return it holds
    /// `bytes`. A right column the probe never reads is released as soon as
    /// the groups are known; a kept one is charged before it is filled and
    /// its source released right after, so the tracked peak covers the one
    /// moment both exist.
    fn new(spec: &ProbeSpec, right: ColBatch, memory: &MemoryTrackerHandle, streams: bool) -> Self {
        let (units, rows, newest) = (right.runs(), right.len(), right.arity() - 1);
        debug_assert!(keyed_per_run(&right, &spec.key_right));
        let mut table = KeyTable::with_capacity_and_hasher(units, Default::default());
        // Runs per group, then (after the scan) each group's first run.
        let mut starts: Vec<u32> = Vec::new();
        // Each run's group.
        let mut groups: Vec<u32> = Vec::with_capacity(units);
        for unit in 0..units {
            let next = starts.len() as u32;
            let group = table
                .entry(pack_key(&right, &spec.key_right, unit))
                .or_insert((next, 0))
                .0;
            if group == next {
                starts.push(0);
            }
            starts[group as usize] += 1;
            groups.push(group);
        }
        // Presizing by runs avoids every rehash when keys are unique; when
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
        // The source run at each place of the group order.
        let mut order = vec![0u32; units];
        for (unit, &group) in groups.iter().enumerate() {
            let cursor = &mut starts[group as usize];
            order[*cursor as usize] = unit as u32;
            *cursor += 1;
        }
        let (mut source, source_runs) = right.into_parts();
        let release = |values: &mut Vec<VertexId>| {
            memory.release(std::mem::size_of_val(&values[..]) as u64);
            *values = Vec::new();
        };
        for (position, values) in source.iter_mut().enumerate() {
            if !spec.kept.contains(&position) {
                release(values);
            }
        }
        let mut runs = Runs::default();
        for &unit in &order {
            runs.push(source_runs.rows(unit as usize).len());
        }
        let mut bytes = runs.byte_size();
        memory.allocate(bytes);
        let mut charge = |values: usize| {
            let charged = (values * VALUE_BYTES) as u64;
            memory.allocate(charged);
            bytes += charged;
        };
        let padded = if rows == 0 { 0 } else { rows + LANES };
        let per_run: Vec<bool> = spec.kept.iter().map(|&c| c != newest).collect();
        let mut columns = Vec::with_capacity(spec.kept.len());
        for (k, &position) in spec.kept.iter().enumerate() {
            let values = &source[position];
            let len = if per_run[k] { units } else { padded };
            charge(len);
            let mut column = Vec::with_capacity(len);
            if per_run[k] {
                column.extend(order.iter().map(|&unit| values[unit as usize]));
            } else {
                // A run's rows move as one slice.
                for &unit in &order {
                    column.extend_from_slice(&values[source_runs.rows(unit as usize)]);
                }
            }
            column.resize(len, 0);
            columns.push(column);
            if !spec.kept[k + 1..].contains(&position) {
                release(&mut source[position]);
            }
        }
        memory.release(source_runs.byte_size());
        Build {
            columns,
            per_run,
            runs,
            table,
            rows,
            bytes,
            streams,
        }
    }

    /// Writes the key group of `runs` into `scratch` one value per row,
    /// [`LANES`] zeroes after the last: each per-run kept column's value —
    /// what the probe's block reads take for those columns — and, in the
    /// last vector, the row's run — what the materialising sink gathers
    /// them by.
    fn expand(&self, (first, end): (u32, u32), scratch: &mut [Vec<VertexId>]) {
        scratch.iter_mut().for_each(Vec::clear);
        let (runs, kept) = scratch.split_last_mut().expect("a vector of runs");
        for run in first as usize..end as usize {
            let len = self.runs.rows(run).len();
            let columns = self.columns.iter().zip(&self.per_run).zip(kept.iter_mut());
            for ((column, _), rows) in columns.filter(|((_, &per_run), _)| per_run) {
                rows.extend(std::iter::repeat_n(column[run], len));
            }
            runs.extend(std::iter::repeat_n(run as u32, len));
        }
        scratch
            .iter_mut()
            .for_each(|rows| rows.resize(rows.len() + LANES, 0));
    }

    /// The right rows the build was made from, in group order and in their
    /// runs: kept columns as they are, narrow key columns unpacked from the
    /// table keys (a wide key's columns are kept).
    fn unbuild(&self, spec: &ProbeSpec, arity: usize) -> ColBatch {
        let units = self.runs.count();
        let column = |position| {
            if let Some(k) = spec.kept.iter().position(|&c| c == position) {
                let len = if self.per_run[k] { units } else { self.rows };
                return self.columns[k][..len].to_vec();
            }
            let key = spec.key_right.iter().position(|&c| c == position);
            let shift = 32 * (spec.key_right.len() - 1 - key.expect("a key column"));
            let mut column = vec![0; units];
            for (&key, &(first, end)) in &self.table {
                column[first as usize..end as usize].fill((key >> shift) as VertexId);
            }
            column
        };
        ColBatch::from_parts((0..arity).map(column).collect(), self.runs.clone())
    }
}

/// Probe state of the one partition being probed: left rows against a
/// build.
///
/// The kept right columns are physically grouped by join key, so a left
/// run's candidates are one contiguous range of every column and the probe
/// loop allocates nothing per row — stolen partitions are probed
/// *concurrently* by several machine threads, and per-row allocation
/// serialises them on the global allocator.
struct PartitionProbe {
    /// The left rows, in the runs they were partitioned in.
    left: ColBatch,
    /// Bytes of the left rows, charged to the tracker while loaded.
    left_bytes: u64,
    build: Build,
    /// The next left run the walk enters.
    next_run: usize,
    /// Key groups (as right runs) of the left runs below `looked`, by run mod
    /// [`LOOKAHEAD`].
    groups: [(u32, u32); LOOKAHEAD],
    looked: usize,
    /// The left row being probed, and the end of its run's rows.
    row: usize,
    row_end: usize,
    /// The current run's key group as right rows, and the right runs the
    /// scratch rows were last expanded from.
    group: (u32, u32),
    expanded: Option<(u32, u32)>,
    /// Cursor into the current left row's range of right rows.
    match_pos: u32,
    /// End of the current left row's range of right rows.
    match_end: u32,
    /// The current group's per-run kept columns and its rows' runs, one
    /// value per row ([`Build::expand`]); the other kept columns are read in
    /// place.
    scratch: Vec<Vec<VertexId>>,
    bound: BoundRow,
    /// The partition's index in the joiner's table.
    index: usize,
}

impl PartitionProbe {
    /// A probe of `left` against `build`, from its first row.
    fn new(spec: &ProbeSpec, build: Build, left: ColBatch, index: usize) -> Self {
        debug_assert!(keyed_per_run(&left, &spec.key_left));
        PartitionProbe {
            left_bytes: left.byte_size(),
            left,
            build,
            next_run: 0,
            groups: [(0, 0); LOOKAHEAD],
            looked: 0,
            row: 0,
            row_end: 0,
            group: (0, 0),
            expanded: None,
            match_pos: 0,
            match_end: 0,
            scratch: vec![Vec::new(); spec.kept.len() + 1],
            bound: BoundRow::new(spec),
            index,
        }
    }

    /// Moves the walk into the next left run that has rows and candidates:
    /// looks its key group up (with the next [`LOOKAHEAD`] runs' once it
    /// reaches them), binds the run's prefix values and expands the group's
    /// per-run columns unless they are expanded already. Returns `false`
    /// when no run is left.
    fn enter_next_run(&mut self, spec: &ProbeSpec) -> bool {
        let runs = self.left.runs();
        loop {
            let run = self.next_run;
            if run >= runs {
                return false;
            }
            if run == self.looked {
                // Independent lookups in one pass: their misses overlap.
                self.looked = (run + LOOKAHEAD).min(runs);
                for unit in run..self.looked {
                    let key = pack_key(&self.left, &spec.key_left, unit);
                    let group = self.build.table.get(&key).copied();
                    self.groups[unit % LOOKAHEAD] = group.unwrap_or_default();
                }
            }
            self.next_run += 1;
            let units = self.groups[run % LOOKAHEAD];
            let start = |run: u32| self.build.runs.start(run as usize) as u32;
            let group = (start(units.0), start(units.1));
            let rows = self.left.run_rows(run);
            if group.0 == group.1 || rows.is_empty() {
                continue;
            }
            if self.expanded != Some(units) {
                self.build.expand(units, &mut self.scratch);
                self.expanded = Some(units);
            }
            self.bound.bind_run(&self.left, run);
            (self.row, self.row_end, self.group) = (rows.start, rows.end, group);
            return true;
        }
    }

    /// The pair generator: resumes the probe, one left row's key group at a
    /// time, in blocks of at most [`BLOCK`] right rows and never more than
    /// the `budget` of surviving pairs still allows. Each tested block goes
    /// to `emit` as `((left row, its run), the block's kept columns, mask)`,
    /// `mask[j] == 1` iff the pair with the block's `j`-th right row
    /// survived. Returns the key-equal pairs covered, the pairs that
    /// survived, and whether the partition is exhausted.
    fn walk(
        &mut self,
        spec: &ProbeSpec,
        budget: u64,
        mut emit: impl FnMut((u32, u32), BlockColumns<'_>, &[u32]),
    ) -> (u64, u64, bool) {
        let (mut tested, mut matched) = (0, 0);
        let mut mask = [0u32; BLOCK];
        while matched < budget {
            if self.match_pos == self.match_end {
                // Advance to the next left row, in this run or the next one
                // with candidate matches.
                if self.row == self.row_end && !self.enter_next_run(spec) {
                    return (tested, matched, true);
                }
                (self.match_pos, self.match_end) = self.group;
            }
            if !spec.bind(&self.left, self.row, &mut self.bound) {
                // No right row can pair with this left row. Its group still
                // counts as candidates: `tested` means key-equal pairs.
                tested += u64::from(self.match_end - self.match_pos);
                self.match_pos = self.match_end;
                self.row += 1;
                continue;
            }
            while self.match_pos < self.match_end && matched < budget {
                let rows = u64::from(self.match_end - self.match_pos)
                    .min(BLOCK as u64)
                    .min(budget - matched) as usize;
                let row = self.match_pos as usize;
                let kept = BlockColumns {
                    build: &self.build,
                    scratch: &self.scratch,
                    row,
                    in_group: row - self.group.0 as usize,
                };
                test_block(spec, kept, &self.bound, rows, &mut mask);
                let mask = &mask[..rows];
                emit((self.row as u32, self.next_run as u32 - 1), kept, mask);
                tested += rows as u64;
                matched += u64::from(mask.iter().sum::<u32>());
                self.match_pos += rows as u32;
            }
            if self.match_pos == self.match_end {
                self.row += 1;
            }
        }
        (tested, matched, false)
    }

    /// The materialising sink: gathers the joined rows of `pairs` — `[left
    /// row, its run, right row, its run]` — one output column at a time, a
    /// prefix value through its run and a newest value through its row.
    /// Consecutive pairs of one left row and one right run are one output
    /// run: every output column but the last is constant over them, and the
    /// last is the right side's newest column when it is a payload column
    /// (else every right run is one row, and so is every output run).
    fn gather(&self, spec: &ProbeSpec, pairs: &[[u32; 4]]) -> ColBatch {
        // Each output run's first pair, and how many rows it has.
        let mut runs = Runs::default();
        let heads: Vec<[u32; 4]> = (pairs.chunk_by(|a, b| a[0] == b[0] && a[3] == b[3]))
            .map(|run| {
                runs.push(run.len());
                run[0]
            })
            .collect();
        let newest = self.left.arity() - 1;
        let left = (0..=newest).map(|c| (self.left.column(c), if c < newest { 1 } else { 0 }));
        let payload = self.build.columns[..spec.payload]
            .iter()
            .zip(&self.build.per_run);
        let right = payload.map(|(column, &per_run)| (&column[..], if per_run { 3 } else { 2 }));
        let sources: Vec<(&[VertexId], usize)> = left.chain(right).collect();
        let ((last, last_at), prefix) = sources.split_last().expect("a joined column");
        let pick = |pairs: &[[u32; 4]], (column, at): (&[VertexId], usize)| {
            pairs.iter().map(|p| column[p[at] as usize]).collect()
        };
        let mut columns: Vec<Vec<VertexId>> = prefix.iter().map(|&s| pick(&heads, s)).collect();
        columns.push(pick(pairs, (last, *last_at)));
        ColBatch::from_parts(columns, runs)
    }
}

/// The kept right columns of one tested block, each read from the block's
/// first right row on: the per-run columns from the scratch rows its key
/// group was expanded into, the newest column in place.
#[derive(Clone, Copy)]
struct BlockColumns<'a> {
    build: &'a Build,
    scratch: &'a [Vec<VertexId>],
    /// The block's first right row, in the build and counted from its key
    /// group's first.
    row: usize,
    in_group: usize,
}

impl<'a> BlockColumns<'a> {
    /// Kept column `k` from the block's first row on.
    fn column(self, k: usize) -> &'a [VertexId] {
        match self.build.per_run[k] {
            true => &self.scratch[k][self.in_group..],
            false => &self.build.columns[k][self.row..],
        }
    }

    /// The runs of the block's rows.
    fn runs(self) -> &'a [u32] {
        &self.scratch.last().expect("a vector of runs")[self.in_group..]
    }
}

/// Tests the first `rows` right rows of a block of a key group against the
/// bound left row: `mask[j]` ends as 1 iff row `j` passes every column's
/// checks. One branch-free pass per kept column — its value range and the
/// first [`BOUND_LANES`] left values it must differ from, fused — and one
/// more per further [`BOUND_LANES`] left values, all over whole
/// [`LANES`]-wide pieces: the lanes past `rows` hold neighbouring rows'
/// verdicts and mean nothing.
fn test_block(
    spec: &ProbeSpec,
    kept: BlockColumns<'_>,
    bound: &BoundRow,
    rows: usize,
    mask: &mut [u32; BLOCK],
) {
    let lanes = rows.next_multiple_of(LANES);
    let mask = &mut mask[..lanes];
    mask.fill(1);
    for (c, &(lo, hi)) in bound.range.iter().enumerate() {
        let values = &kept.column(c)[..lanes];
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
        let smaller = &kept.column(smaller)[..lanes];
        let larger = &kept.column(larger)[..lanes];
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

/// Bytes of one value in a build's columns.
const VALUE_BYTES: usize = std::mem::size_of::<VertexId>();

impl Side {
    /// Rows held, in memory and spilled.
    fn rows(&self) -> u64 {
        self.batch.len() as u64 + self.spilled_rows
    }

    /// The resident rows, leaving none: the side keeps its arity, as a
    /// built partition takes more rows later.
    fn take_resident(&mut self) -> ColBatch {
        let arity = self.batch.arity();
        std::mem::replace(&mut self.batch, ColBatch::new(arity))
    }

    /// Appends the resident rows to the spill file (creating the file on
    /// first spill) as one block ([`ColBatch::write_block`]: the rows in
    /// their runs). Returns the in-memory bytes flushed; the caller releases
    /// them from the memory tracker (so the helper composes with both the
    /// threshold spill in [`HashJoiner::add`] and the governor-driven full
    /// spills).
    fn spill(&mut self, dir: &Path, tag: &str, index: usize, counter: &mut usize) -> Result<u64> {
        let bytes = self.batch.byte_size();
        if bytes == 0 {
            return Ok(0);
        }
        let path = self.spill_file.get_or_insert_with(|| {
            *counter += 1;
            dir.join(format!("join-{tag}-{index}-{counter}.spill"))
        });
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut w = BufWriter::new(file);
        self.batch.write_block(&mut w)?;
        w.flush()?;
        self.spilled_rows += self.batch.len() as u64;
        // Drop the allocations too (not just the lengths): a spill exists to
        // make the resident footprint actually shrink.
        self.take_resident();
        Ok(bytes)
    }

    /// Takes the rows out — to be built, probed or shipped — with whatever
    /// spilled read back behind the resident rows (the file is deleted
    /// either way). The rows come out *charged*: resident rows stay charged
    /// to the tracker (ownership of the charge moves to the caller) and
    /// spilled rows are newly charged as they come back from disk.
    /// Combined with a thief charging on receipt before the shipper releases
    /// on ack, the cluster-wide tracked sum can transiently over-count but
    /// never under-count during a hand-off — the same discipline as
    /// `SharedQueue::steal_into`. A failed reload releases what it held.
    fn take(&mut self, memory: &MemoryTrackerHandle) -> Result<ColBatch> {
        let resident = self.batch.byte_size();
        if let Some(path) = self.spill_file.take() {
            let rows = std::mem::take(&mut self.spilled_rows);
            let read = read_spill_file(&path, rows, &mut self.batch);
            let _ = std::fs::remove_file(&path);
            if let Err(e) = read {
                self.take_resident();
                memory.release(resident);
                return Err(e.into());
            }
            memory.allocate(self.batch.byte_size() - resident);
        }
        Ok(self.take_resident())
    }
}

/// Reads a spill file's blocks back ([`ColBatch::read_block`]) and appends
/// each to `into` in the runs it was written in. Nothing in the file is
/// trusted: besides each block's own checks, the blocks' total must be the
/// rows the partition spilled, so a truncated, overlong or garbled file is
/// an `InvalidData` error instead of a silently shifted column.
fn read_spill_file(path: &Path, spilled_rows: u64, into: &mut ColBatch) -> io::Result<()> {
    let in_file = |kind, what: &dyn std::fmt::Display| {
        io::Error::new(kind, format!("spill file {}: {what}", path.display()))
    };
    let file = File::open(path)?;
    let mut left = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut found_rows = 0u64;
    while left > 0 {
        let read = ColBatch::read_block(&mut r, into.arity(), &mut left);
        let mut block = read.map_err(|e| in_file(e.kind(), &e))?;
        found_rows += block.len() as u64;
        into.append(&mut block);
    }
    if found_rows != spilled_rows {
        let what = format!("holds {found_rows} rows, {spilled_rows} were spilled");
        return Err(in_file(io::ErrorKind::InvalidData, &what));
    }
    Ok(())
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

    /// `rows` as a run batch: consecutive rows that agree on every column
    /// but the last are one run.
    fn run_batch<R: AsRef<[u32]>>(rows: &[R], arity: usize) -> ColBatch {
        let (mut columns, mut ends) = (vec![Vec::new(); arity], Vec::<u32>::new());
        for row in rows {
            let (prefix, newest) = row.as_ref()[..arity].split_at(arity - 1);
            let held = columns.iter().zip(prefix).all(|(c, v)| c.last() == Some(v));
            if ends.is_empty() || !held {
                for (column, &v) in columns.iter_mut().zip(prefix) {
                    column.push(v);
                }
                ends.push(ends.last().copied().unwrap_or(0));
            }
            columns[arity - 1].push(newest[0]);
            *ends.last_mut().expect("a run is open") += 1;
        }
        ColBatch::from_runs(columns, ends)
    }

    /// `rows` of `simple_op`'s arity in either layout.
    fn batch_of(rows: &[[u32; 2]], runs: bool) -> ColBatch {
        if runs {
            run_batch(rows, 2)
        } else {
            batch2(rows)
        }
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
        // all-in-memory joiner must hold identical batches: a ship carries
        // the same partition whether or not it went through a spill file —
        // here one of several blocks, a block per threshold spill — and a
        // run side comes back with the same runs and the same charge.
        let n = 600u32;
        // Keys repeat three times in a row, and a batch of 60 rows cuts no
        // key's rows: three-row runs.
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i / 3, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i / 3, i + 20_000]).collect();
        for runs in [false, true] {
            let build = |threshold: u64| {
                let mut joiner = HashJoiner::new(
                    simple_op(),
                    2,
                    2,
                    threshold,
                    spill_dir(),
                    MemoryTrackerHandle::Untracked,
                );
                for (l, r) in left.chunks(60).zip(right.chunks(60)) {
                    joiner.add(JoinSide::Left, &batch_of(l, runs)).unwrap();
                    joiner.add(JoinSide::Right, &batch_of(r, runs)).unwrap();
                }
                joiner
            };
            let mut spilled = build(1024);
            assert!(spilled.spilled());
            spilled.spill_to_disk().unwrap();
            let blocks = spilled.partitions.iter().map(|p| p.left.spilled_rows);
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
            for (reloaded, held) in [
                (&taken_spilled.0, &taken_resident.0),
                (&taken_spilled.1, &taken_resident.1),
            ] {
                assert_eq!(reloaded.runs() < reloaded.len(), runs, "runs {runs}");
                assert_eq!(reloaded.runs(), held.runs(), "runs {runs}");
                assert_eq!(reloaded.byte_size(), held.byte_size(), "runs {runs}");
            }
            assert_eq!(taken_spilled, taken_resident);
            let (left_side, right_side) = taken_spilled;
            assert!(!left_side.is_empty() && left_side.arity() == 2);
            assert_eq!(left_side.column(0), right_side.column(0));
            if runs {
                // Three rows a run, none cut: a third of the rows are runs.
                assert_eq!(left_side.runs() * 3, left_side.len());
            }
        }
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

    /// The `(rows, runs)` header of a spill file's first block and the
    /// block's length in bytes, for `simple_op`'s arity.
    fn first_block(file: &std::fs::File) -> (u64, u64, u64) {
        use std::os::unix::fs::FileExt;
        let mut header = [0u8; 16];
        file.read_exact_at(&mut header, 0).unwrap();
        let (rows, runs) = header.split_at(8);
        let [rows, runs] = [rows, runs].map(|b| u64::from_le_bytes(b.try_into().unwrap()));
        let values = if runs == 0 { 2 * rows } else { 2 * runs + rows };
        (rows, runs, 16 + 4 * values)
    }

    #[test]
    fn a_truncated_or_overlong_spill_file_is_invalid_data_on_reload_and_on_ship() {
        use std::os::unix::fs::FileExt;
        // Two blocks of 200 rows a side, every partition holding both sides,
        // dense or in runs of four rows.
        type Corrupt = fn(&std::fs::File, u64);
        let corruptions: [(&str, bool, Corrupt); 6] = [
            ("cut mid-block", false, |f, len| f.set_len(len - 6).unwrap()),
            ("cut inside a header", false, |f, len| {
                f.set_len(len + 5).unwrap()
            }),
            ("a header promising more than is left", false, |f, len| {
                f.write_all_at(&[0xff; 20], len).unwrap()
            }),
            // A whole block gone: every header fits, the row total does not.
            ("cut at a block boundary", false, |f, len| {
                let (_, _, first) = first_block(f);
                assert!(first < len, "the partition spilled two blocks");
                f.set_len(first).unwrap()
            }),
            ("a cut run-end list", true, |f, _| {
                let (_, runs, _) = first_block(f);
                f.set_len(16 + 4 * (runs / 2)).unwrap()
            }),
            // The file's length still adds up; the ends do not.
            ("run ends short of the block's rows", true, |f, _| {
                let (rows, runs, _) = first_block(f);
                let short = (rows as u32 - 1).to_le_bytes();
                f.write_all_at(&short, 16 + 4 * (runs - 1)).unwrap()
            }),
        ];
        for (what, runs_only, corrupt) in corruptions {
            for (runs, ship) in [(false, false), (false, true), (true, false), (true, true)] {
                if runs_only && !runs {
                    continue;
                }
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
                    let rows: Vec<[u32; 2]> =
                        (0..200).map(|i| [i / 4, 10_000 * block + i]).collect();
                    joiner.add(JoinSide::Left, &batch_of(&rows, runs)).unwrap();
                    joiner.add(JoinSide::Right, &batch_of(&rows, runs)).unwrap();
                    joiner.spill_to_disk().unwrap();
                }
                for path in spill_files(&dir, "join-r-") {
                    let file = OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(&path)
                        .unwrap();
                    assert_eq!(first_block(&file).1 > 0, runs, "{what}: a block of runs");
                    corrupt(&file, file.metadata().unwrap().len());
                }
                let failed = if ship {
                    let failed = joiner.take_unprobed_partition().err();
                    drop(joiner);
                    failed
                } else {
                    joiner.into_stream(64).count_batch().err()
                };
                let case = format!("{what}, runs {runs}, ship {ship}");
                match failed {
                    Some(crate::EngineError::Io(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{case}: {e}")
                    }
                    other => panic!("{case}: expected InvalidData, got {other:?}"),
                }
                // Nothing the failed load held stays charged, nothing stays
                // on disk once the joiner (or its stream) is gone.
                assert_eq!(tracker.current(), 0, "{case}");
                assert!(spill_files(&dir, "join-").is_empty(), "{case}");
            }
        }
    }

    /// Bytes a build holds, counted off its vectors.
    fn build_held(build: &Build) -> u64 {
        let values: usize = build.columns.iter().map(Vec::len).sum();
        (4 * values) as u64 + build.runs.byte_size()
    }

    /// Checks that `joiner`'s charges are what it holds: its buffered bytes
    /// are its sides' batches plus its builds, each build's charge is its
    /// vectors, and `tracker` holds those plus the probe's, plus `away` —
    /// shipped bytes charged until their ack.
    fn assert_charged(joiner: &HashJoiner, tracker: &MemoryTracker, away: u64, step: &str) {
        let mut held = 0;
        for part in &joiner.partitions {
            held += part.left.batch.byte_size() + part.right.batch.byte_size();
            if let Some(build) = &part.build {
                assert_eq!(build.bytes, build_held(build), "{step}: a build's charge");
                held += build.bytes;
            }
        }
        assert_eq!(joiner.buffered_bytes(), held, "{step}: buffered bytes");
        let probe = joiner.current.as_ref().map_or(0, |probe| {
            assert_eq!(probe.left_bytes, probe.left.byte_size(), "{step}");
            assert_eq!(probe.build.bytes, build_held(&probe.build), "{step}");
            probe.left_bytes + probe.build.bytes
        });
        assert_eq!(tracker.current(), held + probe + away, "{step}: tracked");
    }

    #[test]
    fn the_tracker_charge_is_what_is_held() {
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let tracked = || MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker));
        let mut joiner = HashJoiner::new(simple_op(), 2, 2, 1 << 20, spill_dir(), tracked());
        // Keys in runs of five on both sides, and a batch of one-row runs that
        // joins the run sides.
        let rows = |from: u32, payload: u32| -> Vec<[u32; 2]> {
            (from..from + 400).map(|i| [i / 5, payload + i]).collect()
        };
        joiner
            .add(JoinSide::Right, &run_batch(&rows(0, 20_000), 2))
            .unwrap();
        assert_charged(&joiner, &tracker, 0, "right runs");
        joiner
            .add(JoinSide::Left, &run_batch(&rows(0, 10_000), 2))
            .unwrap();
        assert_charged(&joiner, &tracker, 0, "left runs");
        joiner
            .add(JoinSide::Left, &batch2(&rows(400, 10_000)))
            .unwrap();
        assert_charged(&joiner, &tracker, 0, "one-row runs into run sides");
        let sides = joiner.partitions.iter().map(|p| &p.left.batch);
        assert_eq!(sides.clone().map(ColBatch::runs).sum::<usize>(), 80 + 400);
        assert_eq!(sides.map(ColBatch::len).sum::<usize>(), 800);
        joiner.seal_right(64);
        assert_charged(&joiner, &tracker, 0, "right seal");
        assert!(joiner.partitions.iter().all(|p| p.build.is_some()));
        // A probe holds one build and its left rows.
        assert_eq!(joiner.count_batch().unwrap(), Some(64));
        assert_charged(&joiner, &tracker, 0, "probe");
        let held = joiner.current.as_ref().map(|probe| probe.index);
        let free = (0..NUM_PARTITIONS).find(|&p| Some(p) != held).unwrap();
        joiner.demote(free);
        assert_charged(&joiner, &tracker, 0, "demote");
        let right = &joiner.partitions[free].right.batch;
        assert_eq!(right.runs() * 5, right.len());
        // More left rows put the tracker at its peak: a spill that charged
        // an unbuilt build before releasing it would raise the peak.
        joiner
            .add(JoinSide::Left, &run_batch(&rows(800, 10_000), 2))
            .unwrap();
        assert_charged(&joiner, &tracker, 0, "left runs into built partitions");
        let peak = tracker.peak();
        assert_eq!(tracker.current(), peak, "at the peak");
        let spill = |joiner: &mut HashJoiner, step: &str| {
            assert!(joiner.spill_to_disk().unwrap() > 0, "{step}");
            assert_eq!(tracker.peak(), peak, "{step}: the spill raised the peak");
            assert_charged(joiner, &tracker, 0, step);
        };
        spill(
            &mut joiner,
            "spill: the largest free build and the open sides",
        );
        // Ships keep their charge until the adopter's ack; the adopter, on
        // a tracker of its own, charges them on receipt.
        let adopted = std::sync::Arc::new(MemoryTracker::new());
        let memory = MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&adopted));
        let mut adopter = HashJoiner::new(simple_op(), 2, 2, 1 << 20, spill_dir(), memory);
        adopter.seal(64);
        assert_charged(&adopter, &adopted, 0, "an empty sealed adopter");
        assert_eq!(
            adopted.current(),
            0,
            "an empty sealed adopter holds nothing"
        );
        while let Some((left, right)) = joiner.take_unprobed_partition().unwrap() {
            let bytes = left.byte_size() + right.byte_size();
            assert_charged(&joiner, &tracker, bytes, "ship");
            assert!(left.runs() < left.len() && right.runs() * 5 == right.len());
            adopted.allocate(bytes);
            adopter.adopt_partition(left, right).unwrap();
            assert_charged(&adopter, &adopted, 0, "adopt");
            tracker.release(bytes);
        }
        assert!(
            adopter.partitions.len() > NUM_PARTITIONS,
            "partitions shipped"
        );
        joiner.seal(64);
        adopter.add(JoinSide::Left, &ColBatch::new(2)).unwrap_err();
        // After the left seal every free build goes.
        assert!(adopter.count_batch().unwrap().is_some());
        let peak = adopted.peak();
        assert!(adopter.spill_to_disk().unwrap() > 0);
        assert_eq!(
            adopted.peak(),
            peak,
            "a spill after the left seal raised the peak"
        );
        assert_charged(&adopter, &adopted, 0, "spill after the left seal");
        for join in [&mut joiner, &mut adopter] {
            while join.count_batch().unwrap().is_some() {}
        }
        // Each of the first 400 left rows meets the five right rows of its
        // key; the later keys have no right rows.
        assert_eq!(joiner.produced() + adopter.produced(), 5 * 400);
        drop((joiner, adopter));
        assert_eq!((tracker.current(), adopted.current()), (0, 0));
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
            let states = joiner.partitions.iter().map(|p| p.state);
            let gone = states.filter(|&s| s == PartitionState::Shipped);
            assert_eq!(gone.count(), shipped.len());
        };
        // Before the seal: the rest keep building, then all of it seals.
        ship(&mut shipper);
        let building = shipper
            .partitions
            .iter()
            .filter(|p| p.state == PartitionState::Open);
        assert_eq!(building.count(), NUM_PARTITIONS - 1);
        shipper.seal(16);
        assert!(shipper
            .partitions
            .iter()
            .all(|p| p.state != PartitionState::Open));
        // Mid-probe: one batch out of a partition, one more partition away.
        let first = shipper.next_batch().unwrap().expect("local rows");
        assert!(shipper.current.is_some());
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
    fn streaming_partitions_ship_their_waiting_rows_with_their_builds() {
        // After the right seal a partition streams; a thief takes the left
        // rows waiting in it with its right rows unbuilt from its build —
        // from the build's slot, or a copy while the probe holds it (the
        // probe keeps the rows it loaded). Shipper and adopter together
        // produce the rows of the unsplit join, and the charges balance.
        let n = 800u32;
        let left: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 10_000]).collect();
        let right: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 20_000]).collect();
        let tracker = std::sync::Arc::new(MemoryTracker::new());
        let joiner = |memory| HashJoiner::new(simple_op(), 2, 2, 1 << 20, spill_dir(), memory);
        let tracked = || MemoryTrackerHandle::Tracked(std::sync::Arc::clone(&tracker));
        let mut reference = joiner(MemoryTrackerHandle::Untracked);
        reference.add(JoinSide::Left, &batch2(&left)).unwrap();
        reference.add(JoinSide::Right, &batch2(&right)).unwrap();
        let mut reference_rows = drain(reference.into_stream(128));

        let mut shipper = joiner(tracked());
        shipper.add(JoinSide::Right, &batch2(&right)).unwrap();
        shipper.seal_right(16);
        assert!(shipper
            .partitions
            .iter()
            .all(|p| p.state == PartitionState::Built));
        let half = n as usize / 2;
        shipper.add(JoinSide::Left, &batch2(&left[..half])).unwrap();
        let first = shipper.next_batch().unwrap().expect("streamed rows");
        let held = shipper.current.as_ref().map(|probe| probe.index);
        let held = held.expect("the probe holds a build");
        shipper.add(JoinSide::Left, &batch2(&left[half..])).unwrap();
        let mut shipped = Vec::new();
        while let Some(taken) = shipper.take_unprobed_partition().unwrap() {
            shipped.push(taken);
        }
        assert_eq!(shipper.waiting_rows(), 0);
        assert_eq!(shipper.partitions[held].state, PartitionState::Built);
        let gone = shipper
            .partitions
            .iter()
            .filter(|p| p.state == PartitionState::Shipped);
        assert_eq!(
            gone.count(),
            shipped.len() - 1,
            "every free build went along"
        );
        shipper.seal(16);
        let split_rows = first.to_rows().rows().map(|r| r.to_vec()).collect();
        let mut split_rows = drain_into(&mut shipper, split_rows);

        let mut adopter = joiner(tracked()).into_stream(128);
        for (l, r) in shipped {
            adopter.adopt_partition(l, r).unwrap();
        }
        split_rows = drain_into(&mut adopter, split_rows);
        reference_rows.sort();
        split_rows.sort();
        assert_eq!(split_rows, reference_rows);
        let streamed = shipper.left_rows().0 + adopter.left_rows().0;
        assert_eq!(streamed + adopter.left_rows().1, n as u64);
        drop(shipper);
        drop(adopter);
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
            let adopted = join.adopt_partition(ColBatch::new(2), ColBatch::new(2));
            assert!(adopted.is_err_and(refused));
            assert!(join.next_batch().is_err_and(refused));
            assert!(join.count_batch().is_err_and(refused));
            // The seal takes the batch size: four joined rows come out in
            // two batches. Input after it is refused.
            join.seal(3);
            assert!(join.add(JoinSide::Left, &left).is_err_and(refused));
            // Nothing spilled, so the seal built every partition: all three
            // left rows wait for the probe.
            assert_eq!(join.waiting_rows(), 3);
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
        // The shuffle places by the top bits of the mixed key hash; what one
        // machine receives must still spread over all of its Grace
        // partitions.
        let keys: Vec<u32> = (0..12_000).map(|i| i * 7 + 3).collect();
        let batch = ColBatch::from_columns(vec![keys.clone(), keys]);
        for k in [2, 3, 4, 16] {
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
                    .filter(|&p| joiner.partitions[p].left.rows() == 0)
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
            let columns = row.iter().map(|&v| vec![v]).collect();
            pack_key(&ColBatch::from_columns(columns), key_positions, 0)
        }

        fn flag() -> impl Strategy<Value = bool> {
            prop_oneof![Just(false), Just(true)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Both sinks agree with the nested-loop reference — the count
            /// sink on how many, the gather sink on which (and, when both
            /// sides seal at once, in what order) — whether the partitions
            /// are resident or were spilled and re-loaded, demoted and
            /// rebuilt, whether the left rows are probed as they arrive or
            /// after the left seal, and whichever runs either side arrives
            /// in: one row each, runs keyed in the prefix (held as runs), or
            /// runs keyed on the newest column (held one row a run). Both report
            /// the reference's key-equal pairs as tested. Every left row is
            /// counted streamed or deferred, once, and every tracked byte
            /// comes back.
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
                // Spill after every batch; stretch the id range to both ends
                // (0 is also what pads the columns, `u32::MAX` and 0 leave a
                // bound no room).
                (spill, extreme) in (flag(), flag()),
                // Per side: the key last in the row (so a run batch is keyed
                // on its newest column) instead of first, and the batches
                // as runs of consecutive rows that share a prefix (the side's
                // rows sorted by it first) instead of dense.
                (left_key_last, right_key_last, left_runs, right_runs) in
                    (flag(), flag(), flag(), flag()),
                // One key group sized around the block width, sharing the
                // first left row's key.
                hot_group in prop_oneof![
                    Just(0usize), Just(BLOCK - 1), Just(BLOCK), Just(BLOCK + 1), Just(2 * BLOCK + 1)
                ],
                hot_rows in arb_rows(2 * BLOCK + 1..2 * BLOCK + 2),
                // Partitions spilled just before the first seal, then the
                // schedule. `None` seals both sides at once. `Some` seals the
                // right side first: `(left rows before the right seal, built
                // partitions demoted mid-stream, left rows before the
                // demotion)`, row counts in 48ths.
                (spilled, arrival) in (0u32..1 << 16, prop_oneof![
                    Just(None),
                    (0usize..49, 0u32..1 << 16, 0usize..49).prop_map(Some)
                ]),
            ) {
                // A row is [key.., extras..], or [extras.., key..] with its
                // side's key last.
                let (left_arity, right_arity) = (key_width + left_extra, right_extra + key_width);
                let key_at = |key_last: bool, extra: usize| match key_last {
                    true => (extra..extra + key_width).collect::<Vec<_>>(),
                    false => (0..key_width).collect(),
                };
                let extras_at = |key_last: bool, extra: usize| match key_last {
                    true => (0..extra).collect::<Vec<_>>(),
                    false => (key_width..key_width + extra).collect(),
                };
                let assemble = |key_last: bool, key: &[u32], extras: &[u32]| -> Vec<u32> {
                    match key_last {
                        true => extras.iter().chain(key).copied().collect(),
                        false => key.iter().chain(extras).copied().collect(),
                    }
                };
                // A joined-row position on the asked-for side (the left one
                // when there is no payload to pick from).
                let position = |on_right: bool, i: usize| match on_right && right_extra > 0 {
                    true => left_arity + i % right_extra,
                    false => i % left_arity,
                };
                let op = JoinOp {
                    left: 0,
                    right: 1,
                    key_left: key_at(left_key_last, left_extra),
                    key_right: key_at(right_key_last, right_extra),
                    right_payload: extras_at(right_key_last, right_extra),
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
                let hot_key = left.first().map_or(vec![0; key_width], |l| {
                    op.key_left.iter().map(|&c| l[c]).collect()
                });
                for extras in &shaped(&hot_rows, right_extra)[..hot_group] {
                    right.push(assemble(right_key_last, &hot_key, extras));
                }
                if key_width > PACK_MAX_KEY {
                    // Rows under two keys that hash alike share a key group.
                    let (a, b) = colliding_wide_keys();
                    assert_ne!(a, b);
                    let whole: Vec<usize> = (0..key_width).collect();
                    assert_eq!(packed(&a, &whole), packed(&b, &whole));
                    for (i, key) in [a, b, a].iter().enumerate() {
                        let extras = [i as u32, 4 - i as u32];
                        left.push(assemble(left_key_last, key, &extras[..left_extra]));
                        right.push(assemble(right_key_last, key, &extras[..right_extra]));
                    }
                }
                // Runs form where consecutive rows share their prefix.
                let sides = [(&mut left, left_arity, left_runs), (&mut right, right_arity, right_runs)];
                for (rows, arity, runs) in sides {
                    if runs {
                        rows.sort_by(|a, b| a[..arity - 1].cmp(&b[..arity - 1]));
                    }
                }
                let batches = |rows: &[Vec<u32>], arity: usize, runs: bool| -> Vec<ColBatch> {
                    // Three batches a side, each one more block of every
                    // partition's spill file when spilling.
                    let chunks = rows.chunks(rows.len().div_ceil(3).max(1));
                    chunks.map(|rows| match runs {
                        true => run_batch(rows, arity),
                        false => {
                            let mut batch = ColBatch::new(arity);
                            rows.iter().for_each(|r| batch.push_row(r));
                            batch
                        }
                    }).collect()
                };
                // Feeds the input on `arrival`'s schedule, polling `sink` once
                // after every left batch past the right seal and until it is
                // dry after each seal; returns the exhausted joiner.
                let drive = |tracker: &std::sync::Arc<MemoryTracker>,
                             sink: &mut dyn FnMut(&mut HashJoiner, bool) -> Result<()>|
                 -> Result<HashJoiner> {
                    let memory = MemoryTrackerHandle::Tracked(std::sync::Arc::clone(tracker));
                    let mut joiner =
                        HashJoiner::new(op.clone(), left_arity, right_arity, 1 << 20, spill_dir(), memory);
                    // Adds `rows` to one side; `poll` takes one sink call after
                    // every batch.
                    type Sink<'a> = dyn FnMut(&mut HashJoiner, bool) -> Result<()> + 'a;
                    let add = |joiner: &mut HashJoiner, side, rows: &[Vec<u32>], poll: Option<&mut Sink>| {
                        let (arity, runs, key_last) = match side {
                            JoinSide::Left => (left_arity, left_runs, left_key_last),
                            JoinSide::Right => (right_arity, right_runs, right_key_last),
                        };
                        // Held as runs: runs keyed in the prefix, which a row
                        // of key columns only has no room for.
                        let held_as_runs = runs && !key_last && arity > key_width;
                        let mut poll = poll;
                        for batch in batches(rows, arity, runs) {
                            joiner.add(side, &batch)?;
                            for part in &mut joiner.partitions {
                                let held = &part.side(side).batch;
                                // A side keyed on its newest column holds every
                                // row as a run of its own.
                                assert!(held_as_runs || held.runs() == held.len());
                            }
                            if spill {
                                joiner.spill_to_disk()?;
                            }
                            if let Some(sink) = poll.as_mut() {
                                sink(joiner, false)?;
                            }
                        }
                        Ok::<_, EngineError>(())
                    };
                    // Spills both sides of the `spilled` partitions: the
                    // seal leaves them open, for the cursor to build.
                    let spill_masked = |joiner: &mut HashJoiner| {
                        for p in (0..NUM_PARTITIONS).filter(|p| spilled >> p & 1 == 1) {
                            let part = &mut joiner.partitions[p];
                            for (side, tag) in [(&mut part.left, "l"), (&mut part.right, "r")] {
                                let counter = &mut joiner.spill_counter;
                                tracker.release(side.spill(&joiner.spill_dir, tag, p, counter)?);
                            }
                        }
                        Ok::<_, EngineError>(())
                    };
                    let Some((before, demoted, demote_at)) = arrival else {
                        add(&mut joiner, JoinSide::Left, &left, None)?;
                        add(&mut joiner, JoinSide::Right, &right, None)?;
                        spill_masked(&mut joiner)?;
                        joiner.seal(batch_rows);
                        sink(&mut joiner, true)?;
                        return Ok(joiner);
                    };
                    let at = |n: usize| n * left.len() / 48;
                    let (before, demote_at) = (at(before), at(demote_at).max(at(before)));
                    add(&mut joiner, JoinSide::Right, &right, None)?;
                    add(&mut joiner, JoinSide::Left, &left[..before], None)?;
                    spill_masked(&mut joiner)?;
                    joiner.seal_right(batch_rows);
                    sink(&mut joiner, true)?;
                    add(&mut joiner, JoinSide::Left, &left[before..demote_at], Some(&mut *sink))?;
                    // A build a probe holds stays: it is the working set.
                    for p in (0..NUM_PARTITIONS).filter(|p| demoted >> p & 1 == 1) {
                        if joiner.partitions[p].build.is_some() {
                            joiner.demote(p);
                        }
                    }
                    add(&mut joiner, JoinSide::Left, &left[demote_at..], Some(&mut *sink))?;
                    joiner.seal(batch_rows);
                    sink(&mut joiner, true)?;
                    Ok(joiner)
                };

                // When both sides seal at once, the stream walks the Grace
                // partitions in order and, inside one, the reference's
                // order: left rows as they arrived, each against its key
                // group as that arrived.
                let mut expected = nested_loop_join(&op, &left, &right);
                expected.sort_by_key(|row| {
                    grace_partition(key_hash(op.key_left.iter().map(|&c| row[c])))
                });
                let candidates = left
                    .iter()
                    .flat_map(|l| right.iter().map(move |r| (l, r)))
                    .filter(|(l, r)| packed(l, &op.key_left) == packed(r, &op.key_right))
                    .count() as u64;
                let left_rows = left.len() as u64;

                let tracker = std::sync::Arc::new(MemoryTracker::new());
                let mut rows = Vec::new();
                let mut batch_sizes = Vec::new();
                let gathering = drive(&tracker, &mut |joiner, dry| {
                    while let Some(batch) = joiner.next_batch()? {
                        batch_sizes.push(batch.len());
                        rows.extend(batch.to_rows().rows().map(|r| r.to_vec()));
                        if !dry {
                            break;
                        }
                    }
                    Ok(())
                }).unwrap();
                prop_assert!(batch_sizes.iter().all(|&n| n >= 1 && n <= batch_rows));
                prop_assert!(gathering.is_exhausted());
                prop_assert_eq!(gathering.produced(), expected.len() as u64);
                prop_assert_eq!(gathering.tested(), candidates);
                let (streamed, deferred) = gathering.left_rows();
                prop_assert_eq!(streamed + deferred, left_rows);
                if arrival.is_none() {
                    prop_assert_eq!(streamed, 0);
                    prop_assert_eq!(&rows, &expected);
                } else {
                    rows.sort();
                    expected.sort();
                    prop_assert_eq!(&rows, &expected);
                }
                drop(gathering);
                prop_assert_eq!(tracker.current(), 0);

                let mut counted = 0;
                let mut counts = Vec::new();
                let counting = drive(&tracker, &mut |joiner, dry| {
                    while let Some(n) = joiner.count_batch()? {
                        counts.push(n);
                        counted += n;
                        if !dry {
                            break;
                        }
                    }
                    Ok(())
                }).unwrap();
                prop_assert!(counts.iter().all(|&n| n >= 1 && n <= batch_rows as u64));
                prop_assert!(counting.is_exhausted());
                prop_assert_eq!(counted, expected.len() as u64);
                prop_assert_eq!(counting.tested(), candidates);
                let (streamed, deferred) = counting.left_rows();
                prop_assert_eq!(streamed + deferred, left_rows);
                drop(counting);
                prop_assert_eq!(tracker.current(), 0);
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
                    let sides = [(JoinSide::Left, &op.key_left), (JoinSide::Right, &op.key_right)];
                    for (homes, (side, key_positions)) in homes.iter_mut().zip(sides) {
                        for (p, part) in joiner.partitions.iter_mut().enumerate() {
                            let side = part.side(side);
                            for row in side.batch.to_rows().rows() {
                                let key = key_positions.iter().map(|&c| row[c]).collect();
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
