//! The per-machine runtime: segment execution under the BFS/DFS-adaptive
//! scheduler, the segment terminals (`SINK` and the `PUSH-JOIN` shuffle),
//! inter-machine work stealing, and the per-machine *dataflow scheduler*
//! that drives all segments of a run from one thread.
//!
//! Every segment's chain is source → head queue → [`nest`] of all its
//! extends → terminal queue → terminal (a chain without extends feeds the
//! terminal queue from its source). The chain calls its operators directly —
//! the scan cursor or the segment's joiner, then the nest — and is the one
//! place that decides count-or-materialise: in a root segment feeding a
//! counting sink, a bare join counts, and otherwise the nest's last level
//! does; every other nest gathers into the terminal queue. The levels below
//! the head are fed piece by piece inside the nest's call, and the call's
//! time is split over their busy slots; a level's own queue holds only what
//! a call left of its input when the terminal queue filled, and is drained,
//! deepest first, before the head queue's next batch.
//!
//! The runtime is *pipelined* at two levels. Inside a segment, join inputs
//! shuffled during a producing segment are absorbed into pre-instantiated
//! [`HashJoiner`]s as they arrive (`MachineState::absorb_inbox`), so
//! shuffle and build phases overlap and the bounded router inboxes never need
//! to hold a segment's whole output. Each join lives in one map for the whole
//! run — built there, sealed and probed there by its segment's chain, and
//! dropped when the segment completes. Across segments
//! ([`MachineState::run_all`]), each machine thread is spawned once per run
//! and picks the next segment by readiness (see
//! [`crate::scheduler::RunShared`]), so a fast machine moves on to the next
//! runnable segment while a straggler finishes — there is no per-segment
//! barrier unless `pipeline_segments(false)` asks for one, and then the
//! barrier is a readiness gate in the same loop (a segment starts only once
//! every earlier segment is released cluster-wide).
//!
//! A join segment is runnable once its right producer is released: its chain
//! probes the left rows as they arrive, pausing in between; a producer hands
//! the thread back between batches once a deeper join's intake is full, and
//! runs nothing while blocked on a push but the segments deeper than it.
//!
//! The machine is a state machine: `MachineState::step` advances it by one
//! scheduling decision and returns a `Step`. Nothing below it waits — a push
//! that bounces off a full inbox, a completion whose link still owes frames
//! and the end-of-run wait for ship acks are states `step` resumes, reported
//! as `Step::Blocked` with the `WakeOn` condition; a chain that handed the
//! thread back, a join waiting for left rows and an injected stall are
//! paused while the machine runs its other segments. The run driver (`MachineState::run_all_inner`) is the one place that parks:
//! each iteration checks cancellation, absorbs the inbox (answering thieves,
//! which keeps the cooperative protocol deadlock-free), ticks the governor,
//! steps, and parks on the router when blocked.
//!
//! Join skew is handled by **cross-machine Grace partition stealing** over
//! the router's control plane: a machine that drained its own join requests
//! unprobed work from busy peers — an open partition, or the left rows
//! waiting in a built one with a copy of its build (see
//! `MachineState::steal_join_once`). A victim answers each request the
//! moment its inbox yields it, from whichever join the request names and
//! whatever that join's phase (`MachineState::answer_steal_request`).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use huge_cache::PullCache;
use huge_comm::{ColBatch, ControlMsg, MachineId, RouterEndpoint, RpcFabric};
use huge_graph::GraphPartition;
use huge_plan::translate::{Segment, SegmentSource};
use huge_query::QueryVertex;
use huge_trace::{kv, kv2, SpanId, TraceBuf};
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::config::{ClusterConfig, Fault, PanicPoint, SinkMode};
use crate::exec::{partition_cols_by_key, OpContext};
use crate::governor::{MemoryGovernor, PressureLevel};
use crate::join::{HashJoiner, JoinSide, MemoryTrackerHandle};
use crate::memory::MemoryTracker;
use crate::operators::{nest, ExtendSpec, ScanCursor};
use crate::pool::WorkerPool;
use crate::report::{JoinReport, MachineReport};
use crate::scheduler::{RunShared, SegmentQueues, SegmentShared};
use crate::{EngineError, Result};

/// How long the run driver parks on the router before re-checking conditions
/// that change without data arriving (idle flags, segment completion,
/// aborts, cancellation, a stall's deadline) — and so how late a stall ends.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Join buffers below this resident size are not worth a governed spill
/// (each spill is a file append; flushing per-envelope trickles would turn
/// Red pressure into an IO storm).
const SPILL_WATERMARK_BYTES: u64 = 64 * 1024;

/// What happens to a segment's output rows.
#[derive(Clone, Debug)]
pub enum Terminal {
    /// Root segment: count (and optionally collect) complete matches.
    Sink,
    /// Shuffle the rows to the machines responsible for the join keys, as
    /// input to a later `PUSH-JOIN` segment.
    FeedJoin {
        /// The consuming join segment's id (used to tag router envelopes).
        consumer: usize,
        /// Positions of the join-key columns in this segment's schema.
        key_positions: Vec<usize>,
    },
}

/// The per-segment execution plan shared by all machines.
#[derive(Clone, Debug)]
pub struct SegmentPlan {
    /// The translated segment (source, extends, schema).
    pub segment: Segment,
    /// What to do with the segment's output.
    pub terminal: Terminal,
    /// For join segments: the schema lengths (arities) of the left and right
    /// producer segments. `None` for scan segments.
    pub producer_arities: Option<(usize, usize)>,
}

impl SegmentPlan {
    /// Number of the segment's operator slots, in the order of
    /// [`MachineReport::op_busy`]: the source (the scan, or the join's
    /// probe), each extend, the terminal (a shuffle's terminal includes its
    /// backpressure waits), and the inbox absorbed between scheduling steps
    /// (other segments' shuffle input landing in their builds).
    pub fn op_slots(&self) -> usize {
        self.segment.extends.len() + 3
    }
}

/// Sets the run's abort flag if the holder unwinds (a panicking machine must
/// not leave its peers parked forever; peers poll the flag on their park
/// timeout).
struct AbortOnPanic<'a>(&'a RunShared);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// The input feeding a segment's operator chain.
enum ChainSource {
    /// A join segment's `PUSH-JOIN` — the segment's entry in
    /// `MachineState::joins` — polled lazily partition by partition.
    Join,
    /// A scan segment's (stealable) cursor.
    Scan(ScanCursor),
}

/// One segment's instantiated operator chain on one machine. A chain
/// persists across scheduler visits (a draining segment is revisited to
/// steal from peers; a blocked one is resumed where it stopped) until the
/// segment finishes.
struct SegmentChain {
    source: ChainSource,
    /// The segment's extends, each compiled against its input arity: the
    /// levels of the chain's [`nest`].
    extends: Vec<ExtendSpec>,
    /// The chain is a root segment's feeding a counting sink: its nest, or a
    /// bare join, counts, and nothing reaches the terminal.
    counts: bool,
    /// Where the next visit resumes: the terminal of a blocked chain, the
    /// operator a paused one stopped before, else the source (see
    /// [`MachineState::run_chain`]).
    current: usize,
    /// The shuffle terminal's parts not yet accepted by their destination
    /// inboxes, in push order; the front one bounced.
    unsent: VecDeque<Part>,
    /// The front part was counted as a throttled batch.
    throttled: bool,
    /// The `chain` span a blocked visit left open for its resumption.
    span: SpanId,
    /// The front part's open `backpressure` span, once it bounced.
    backpressure: SpanId,
}

/// One destination's part of a shuffled batch.
type Part = (MachineId, ColBatch);

/// Where this machine stands with one segment under the dataflow scheduler.
/// `Running` and `Completing` are *active*: [`MachineState::step`] starts
/// or resumes no segment shallower than an active one.
enum SegmentState {
    /// Not yet started (may be waiting on producer segments).
    NotStarted,
    /// An injected [`Fault::Delay`] holds the built chain until `until`, while
    /// the machine runs its other segments and answers thieves.
    Stalled {
        until: Instant,
        span: SpanId,
        chain: SegmentChain,
    },
    /// The chain stopped on a push that bounced off a full inbox.
    Running(SegmentChain),
    /// The chain handed the thread back with nothing unsent, or is a join
    /// that probed every left row that has arrived before its left seal.
    Paused(SegmentChain),
    /// Own work done; the machine revisits the segment's chain to steal from
    /// peers until every machine is idle on it.
    Draining(SegmentChain),
    /// All work done; the link still owes frames for the segment.
    Completing,
    /// Finished on this machine (its `remaining` slot has been released).
    Done,
}

impl SegmentState {
    fn is_active(&self) -> bool {
        matches!(self, SegmentState::Running(_) | SegmentState::Completing)
    }
}

/// What one [`MachineState::step`] did: advanced some segment, found nothing
/// that can advance until a condition holds, or finished the run (every
/// segment done, every ship acked).
enum Step {
    Progressed,
    Blocked(WakeOn),
    Done,
}

/// What a blocked machine waits for.
#[derive(Clone, Copy)]
enum WakeOn {
    /// Inbox data, a control message or a peer's `wake` nudge.
    Data,
    /// Room in that machine's inbox.
    Space(MachineId),
}

/// A segment's next state, and what the step did — `None` when a draining
/// segment could not advance (peers still own its work).
type Advance = (SegmentState, Option<Step>);

/// One segment as the scheduler visits it.
#[derive(Clone, Copy)]
struct Visit<'a> {
    plan: &'a SegmentPlan,
    run: &'a RunShared,
    sink: SinkMode,
}

impl<'a> Visit<'a> {
    /// What every machine shares about the segment.
    fn seg(self) -> &'a SegmentShared {
        &self.run.segments[self.plan.segment.id]
    }

    /// `true` once a join's left producer is released (always for a scan).
    fn left_released(self) -> bool {
        match &self.plan.segment.source {
            SegmentSource::Join(op) => self.run.segments[op.left].released(),
            SegmentSource::Scan(_) => true,
        }
    }
}

/// The thief-side state of cross-machine Grace partition stealing for one
/// join segment. The invariants the all-idle termination gate relies on:
/// a machine never advertises idleness on a join segment while it has a
/// request outstanding (`outstanding`) or an adopted partition unprobed in
/// its join, and a victim answers *every* request with a ship or a nack, so
/// `outstanding` always resolves.
#[derive(Default)]
struct JoinSteal {
    /// A `StealRequest` is in flight and neither a ship nor a nack has
    /// arrived yet.
    outstanding: bool,
    /// Peers already asked (or observed idle) since the last successful
    /// adoption, indexed by machine. A nacking victim can never become
    /// shippable again (join input is globally complete before any request
    /// is sent), so the marks only reset when an adoption proves work still
    /// exists.
    tried: Vec<bool>,
}

/// The outcome of one stealing attempt on a draining segment.
enum StealOutcome {
    /// Work was stolen (or adopted); run the chain on it.
    Stole,
    /// Every machine is idle on the segment (or the run aborted): finish it.
    AllIdle,
    /// Nothing stealable right now, but peers are still busy — revisit.
    Pending,
}

/// The state a machine carries across segments of one run.
pub struct MachineState {
    /// This machine's id.
    pub machine: MachineId,
    /// Its graph partition.
    pub partition: GraphPartition,
    /// Its adjacency cache (persists across segments of a run).
    pub cache: Box<dyn PullCache>,
    /// Pushing endpoint.
    pub router: RouterEndpoint,
    /// Pulling fabric.
    pub rpc: RpcFabric,
    /// Intra-machine worker pool (persistent: workers are spawned once and
    /// reused across every operator invocation and segment).
    pub pool: WorkerPool,
    /// Memory tracker for intermediate results.
    pub memory: Arc<MemoryTracker>,
    /// The run's memory governor (a no-op unless a budget is configured).
    pub governor: Arc<MemoryGovernor>,
    /// Engine configuration.
    pub config: ClusterConfig,
    /// Directory for `PUSH-JOIN` spill files.
    pub spill_dir: PathBuf,
    /// Matches counted by this machine's sink.
    pub matches: u64,
    /// Collected sample matches (in query-vertex order).
    pub samples: Vec<Vec<u32>>,
    /// Total time spent in `PULL-EXTEND` fetch stages.
    pub fetch_time: Duration,
    /// Total active time this machine spent executing segments.
    pub compute_time: Duration,
    /// Batches obtained through inter-machine stealing.
    pub batches_stolen: u64,
    /// This machine's flight-recorder track: span/instant events when the
    /// run records in [`TraceMode::Full`](huge_trace::TraceMode), and the
    /// always-on per-segment busy/span aggregates the report is built from.
    /// All machines stamp against the recorder's shared epoch.
    trace: TraceBuf,
    /// The governor level last observed by [`MachineState::governor_tick`],
    /// so ladder transitions can be emitted as timeline instants from the
    /// machine thread that witnessed them (the governor itself is passive —
    /// it has no thread, hence no single-writer ring of its own).
    last_level: PressureLevel,
    /// The joiner of every `PUSH-JOIN` segment of the current run, keyed by
    /// the join segment's id, from its first shuffled input to its segment's
    /// completion: shuffled inputs stream into it as they arrive, the
    /// segment's chain seals and probes it in place, and steal requests are
    /// answered from it in any phase.
    joins: HashMap<usize, HashJoiner>,
    /// Routing table for inbound envelopes: producing segment id → (join
    /// segment id, side of the join it feeds).
    join_feeds: HashMap<usize, (usize, JoinSide)>,
    /// Thief-side partition-stealing state, per join segment.
    join_ctl: HashMap<usize, JoinSteal>,
    /// Bytes of shipped partitions this machine still holds charged while
    /// the thieves' acks are in flight (allocate-before-release: shipping
    /// may transiently double-count rows cluster-wide, never undercount).
    /// Every ship is adopted and acked exactly once — the thief's inbox
    /// deduplicates whatever a lossy link re-delivers.
    pending_ship_bytes: u64,
    /// Skew-handling counters surfaced in the run report.
    join_stats: JoinReport,
    /// The wake epoch the driver read before this step's readiness checks.
    seen: u64,
}

impl MachineState {
    /// Creates the state for one machine.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: MachineId,
        partition: GraphPartition,
        cache: Box<dyn PullCache>,
        router: RouterEndpoint,
        rpc: RpcFabric,
        memory: Arc<MemoryTracker>,
        governor: Arc<MemoryGovernor>,
        config: ClusterConfig,
        spill_dir: PathBuf,
    ) -> Self {
        let pool = WorkerPool::new(config.workers_per_machine, config.load_balance);
        MachineState {
            machine,
            partition,
            cache,
            router,
            rpc,
            pool,
            memory,
            governor,
            config,
            spill_dir,
            matches: 0,
            samples: Vec::new(),
            fetch_time: Duration::ZERO,
            compute_time: Duration::ZERO,
            batches_stolen: 0,
            trace: TraceBuf::disabled(),
            last_level: PressureLevel::Green,
            joins: HashMap::new(),
            join_feeds: HashMap::new(),
            join_ctl: HashMap::new(),
            pending_ship_bytes: 0,
            join_stats: JoinReport::default(),
            seen: 0,
        }
    }

    /// Prepares a run: instantiates one [`HashJoiner`] per join segment and
    /// the envelope routing table, so inbound shuffle data can be absorbed
    /// the moment it arrives — during the *producing* segment. `trace` is
    /// this machine's flight-recorder track, minted by the cluster's
    /// [`Recorder`](huge_trace::Recorder) with one aggregate slot per
    /// segment and per [`SegmentPlan::op_slots`] slot; its epoch is the
    /// shared instant all spans measure against.
    pub fn prepare_run(&mut self, plans: &[SegmentPlan], trace: TraceBuf, cancel: CancelToken) {
        self.trace = trace;
        for plan in plans {
            if let SegmentSource::Join(op) = &plan.segment.source {
                let (left_arity, right_arity) = plan
                    .producer_arities
                    .expect("join segments carry their producers' arities");
                self.join_feeds
                    .insert(op.left, (plan.segment.id, JoinSide::Left));
                self.join_feeds
                    .insert(op.right, (plan.segment.id, JoinSide::Right));
                let mut join = HashJoiner::new(
                    op.clone(),
                    left_arity,
                    right_arity,
                    self.config.join_buffer_bytes,
                    self.spill_dir.join(format!("seg-{}", plan.segment.id)),
                    MemoryTrackerHandle::Tracked(Arc::clone(&self.memory)),
                );
                // A cancelled probe must stop between batches, so the join
                // polls the run token too.
                join.set_cancel(cancel.clone());
                self.joins.insert(plan.segment.id, join);
            }
        }
    }

    /// Tears down this machine's per-run state after its thread has joined,
    /// whatever the run's outcome: drains the router inbox (releasing the
    /// byte charges queued envelopes hold), balances the skew-protocol
    /// charges, and drops any unfinished `PUSH-JOIN` — its `Drop` releases
    /// buffered, loaded and adopted bytes and deletes spill files. After this
    /// sweep a non-leaky run leaves the memory trackers at zero.
    pub fn finish_run(&mut self) {
        while self.router.try_recv().is_some() {}
        while self.router.try_recv_control().is_some() {}
        self.reclaim_skew_state();
        self.joins.clear();
    }

    /// Produces the per-machine report after a run.
    pub fn report(&self) -> MachineReport {
        MachineReport {
            machine: self.machine,
            matches: self.matches,
            compute_time: self.compute_time,
            worker_busy: self.pool.busy(),
            peak_memory_bytes: self.memory.peak(),
            comm: self.rpc.stats().machine(self.machine).snapshot(),
            batches_stolen: self.batches_stolen,
            segment_busy: self.trace.segment_busy(),
            op_busy: self.trace.op_busy(),
            segment_spans: self.trace.segment_spans(),
            join: self.join_stats.clone(),
        }
    }

    /// The batch size operators should use right now: the configured size,
    /// capped by the governor under Red pressure (the strict-DFS scan cap).
    fn effective_batch_size(&self) -> usize {
        self.governor
            .effective_batch_size(self.machine, self.config.batch_size)
    }

    /// Re-evaluates memory pressure and fires the actuators that need
    /// machine-local state: under Red pressure every `PUSH-JOIN` of the run,
    /// building or probing, flushes its unprobed Grace partitions to disk.
    /// Returns the current level so callers can tighten their own
    /// scheduling.
    fn governor_tick(&mut self) -> Result<PressureLevel> {
        let level = self.governor.tick(self.machine);
        if level != self.last_level {
            // Ladder transitions land on this machine's track. Peers may
            // move its level (they tick it before pushing to it), but only
            // its own thread fires the machine-local actuators below.
            self.trace.instant(match level {
                PressureLevel::Green => "governor: green",
                PressureLevel::Yellow => "governor: yellow",
                PressureLevel::Red => "governor: red",
            });
            self.last_level = level;
        }
        if level == PressureLevel::Red {
            let mut spilled = 0u64;
            for join in self.joins.values_mut() {
                if join.buffered_bytes() >= SPILL_WATERMARK_BYTES {
                    spilled += join.spill_to_disk()?;
                }
            }
            if spilled > 0 {
                self.governor.record_spill(self.machine, spilled);
            }
        }
        Ok(level)
    }

    /// Moves every queued inbound envelope into the joiner it feeds. This is
    /// the consumer half of the streaming shuffle: it runs on every driver
    /// iteration, blocked or not, and between a chain's scheduling steps.
    ///
    /// Every control envelope is handled only after a data drain that
    /// started once it had been popped: a `StealRequest` implies the sender
    /// observed the join's input globally complete, so every row of the
    /// requested partitions was in the inbox before the request was — and
    /// is in the local build before the request is answered. (Draining data
    /// only once, ahead of the control queue, would let a request that lands
    /// just after that drain ship a partition whose last rows are still
    /// queued; they would arrive at a shipped partition and be lost.)
    ///
    /// `paced` (not blocked on a push) caps what a streaming join takes at
    /// its intake: the rest stays in the bounded inbox, which slows their
    /// producers. A drain ahead of a control message takes everything.
    fn absorb_inbox(&mut self, paced: bool) -> Result<()> {
        // Service the fault-injection link first (a no-op unless a test
        // armed one): retransmit due drops and open due gates, so inbound
        // data below includes recovered envelopes. Exhausted retries surface
        // as a typed transport failure.
        self.router.pump_link().map_err(EngineError::Transport)?;
        loop {
            let ctl = self.router.try_recv_control();
            let cap = match paced && ctl.is_none() {
                true => self.intake(),
                false => u64::MAX,
            };
            for (&producer, &(join, side)) in &self.join_feeds {
                // A completed join's producers are done: nothing is queued.
                let Some(join) = self.joins.get_mut(&join) else {
                    continue;
                };
                while side == JoinSide::Right || join.waiting_rows() < cap {
                    let Some(env) = self.router.try_recv_segment(producer) else {
                        break;
                    };
                    join.add(side, &env.batch)?;
                }
            }
            match ctl {
                Some(ctl) => self.handle_control(ctl.from, ctl.msg)?,
                None => return Ok(()),
            }
        }
    }

    /// Routes one control envelope of the skew-handling protocol.
    fn handle_control(&mut self, from: MachineId, msg: ControlMsg) -> Result<()> {
        match msg {
            ControlMsg::StealRequest { segment } => self.answer_steal_request(from, segment)?,
            ControlMsg::PartitionShip {
                segment,
                bytes,
                left,
                right,
            } => {
                // A thief only asks while its join is sealed and draining,
                // and the segment cannot complete under an outstanding
                // request, so the join is there to adopt the partition; the
                // next steal attempt probes it. The charge lands *before*
                // the ack (the victim releases only on the ack), preserving
                // the steal-accounting parity.
                join_of(&mut self.joins, segment)?.adopt_partition(left, right)?;
                self.memory.allocate(bytes);
                // The adoption proves peers still had shippable work.
                let ctl = self.join_ctl.entry(segment).or_default();
                ctl.outstanding = false;
                ctl.tried.clear();
                self.join_stats.partitions_stolen += 1;
                self.trace.instant_kv(
                    "adopt_partition",
                    kv2("segment", segment as u64, "bytes", bytes),
                );
                self.router
                    .send_control(from, ControlMsg::ShipAck { segment, bytes });
            }
            ControlMsg::ShipNack { segment } => {
                self.join_ctl.entry(segment).or_default().outstanding = false;
            }
            ControlMsg::ShipAck { segment: _, bytes } => {
                // The thief owns the rows now; drop the charge we held.
                self.memory.release(bytes);
                self.pending_ship_bytes = self.pending_ship_bytes.saturating_sub(bytes);
                self.join_stats.partitions_shipped += 1;
                self.join_stats.shipped_bytes += bytes;
                self.governor.record_shipped(self.machine, bytes);
            }
        }
        Ok(())
    }

    /// Pushes the shuffle terminal's unsent parts in order, ticking each
    /// destination's governor first: its inbox shrinks the moment its
    /// pressure rises, not at its own next tick. Returns the destination
    /// whose full inbox bounced the front part, which stays queued with
    /// every part behind it for the chain's resumption.
    fn push_unsent(&mut self, chain: &mut SegmentChain, segment: usize) -> Option<MachineId> {
        while let Some((dest, part)) = chain.unsent.pop_front() {
            self.governor.tick(dest);
            if let Err(back) = self.router.try_push(dest, segment, part) {
                // A bounce is the governor's backpressure actuator at work
                // when the *destination* is under pressure (it is the dest's
                // inbox capacity the governor shrank): count the deferred
                // batch once, against the machine whose pressure caused it.
                if !chain.throttled && self.governor.is_throttling(dest) {
                    self.governor.record_throttled(dest);
                    chain.throttled = true;
                }
                // The span opens on the first bounce only; an error mid-wait
                // leaves it open and the timeline closes it at the track's end.
                if chain.backpressure.is_none() {
                    let args = kv("segment", segment as u64);
                    chain.backpressure = self.trace.enter_kv("backpressure", args);
                }
                chain.unsent.push_front((dest, back));
                return Some(dest);
            }
            let span = std::mem::replace(&mut chain.backpressure, SpanId::NONE);
            if !span.is_none() {
                self.trace.exit_kv(span, kv("dest", dest as u64));
            }
            chain.throttled = false;
        }
        None
    }

    /// The chaos plan's faults for this machine in `segment`.
    fn faults(&self, segment: usize) -> impl Iterator<Item = Fault> + '_ {
        let plan = self.config.fault_plan.iter();
        plan.filter(move |spec| spec.machine == self.machine && spec.segment == segment)
            .map(|spec| spec.fault)
    }

    /// Fires any [`Fault::PanicAt`] armed for this machine/segment/point.
    fn maybe_panic_at(&self, segment: usize, point: PanicPoint) {
        if self.faults(segment).any(|f| f == Fault::PanicAt(point)) {
            let me = self.machine;
            panic!("injected fault: machine {me} panics at {point:?} in segment {segment}");
        }
    }

    /// Accumulates active time spent on segment `idx`.
    fn record_segment_busy(&mut self, idx: usize, elapsed: Duration) {
        self.trace.seg_add_busy(idx, elapsed);
        self.compute_time += elapsed;
    }

    /// Instantiates a segment's operator chain: its source, its compiled
    /// extends, and where it starts counting. For join segments the
    /// right producer is globally done (the readiness policy guarantees it),
    /// so any final envelopes still queued are absorbed and the join sealed
    /// in place (its left side too if that producer is done) — at the
    /// configured batch size, not the governor-capped one the scan takes.
    fn build_chain(&mut self, v: Visit) -> Result<SegmentChain> {
        let plan = v.plan;
        self.maybe_panic_at(plan.segment.id, PanicPoint::Build);
        // A match-mode extend adds a column, so the chain's input arities
        // follow from the width of the segment's output.
        let ops = &plan.segment.extends;
        let added = ops.iter().filter(|op| op.verify_position.is_none());
        let mut arity = plan.segment.schema.len() - added.count();
        let extends = ops
            .iter()
            .map(|op| {
                let spec = ExtendSpec::compile(op, arity);
                arity = spec.output_arity();
                spec
            })
            .collect();
        // Count pushdown: when the root segment merely counts matches, its
        // bare join or its nest materialises nothing.
        let counts = matches!(plan.terminal, Terminal::Sink) && v.sink == SinkMode::Count;
        let source = match &plan.segment.source {
            SegmentSource::Scan(scan) => ChainSource::Scan(ScanCursor::new(
                scan.clone(),
                v.seg().scan_pools[self.machine].clone(),
            )),
            SegmentSource::Join(_) => {
                // Both sides at once if the left producer is done too.
                self.seal_left_if_released(v)?;
                self.absorb_inbox(false)?;
                join_of(&mut self.joins, plan.segment.id)?.seal_right(self.config.batch_size);
                ChainSource::Join
            }
        };
        Ok(SegmentChain {
            source,
            extends,
            counts,
            current: 0,
            unsent: VecDeque::new(),
            throttled: false,
            span: SpanId::NONE,
            backpressure: SpanId::NONE,
        })
    }

    /// Seals a join's left side (its right one too if still open) once the
    /// left producer is released — read before the absorb, so every row it
    /// shuffled is in the join.
    fn seal_left_if_released(&mut self, v: Visit) -> Result<()> {
        let id = v.plan.segment.id;
        if !v.left_released() || self.joins.get(&id).is_none_or(HashJoiner::is_sealed) {
            return Ok(());
        }
        self.absorb_inbox(false)?;
        join_of(&mut self.joins, id)?.seal(self.config.batch_size);
        Ok(())
    }

    /// A segment's epilogue on this machine, once its own and any stolen work
    /// is done. The segment is `Completing` until every frame this machine
    /// owes for it over the fault-injection link has landed, or a consumer
    /// would seal its build with rows still in flight. Then drop its joiner,
    /// harvesting the probe counters, settle this machine's slot on the
    /// segment's release counter — the one end-of-stream signal — and nudge
    /// every parked peer to re-check readiness.
    fn complete_segment(&mut self, v: Visit) -> Result<Advance> {
        let idx = v.plan.segment.id;
        self.router.flush_link().map_err(EngineError::Transport)?;
        if self.router.link_pending(Some(idx)) > 0 {
            // Retransmits respect their backoff due-times even under flush.
            let blocked = Step::Blocked(WakeOn::Data);
            return Ok((SegmentState::Completing, Some(blocked)));
        }
        if let Some(join) = self.joins.remove(&idx) {
            self.join_stats.probe_pairs += join.tested();
            self.join_stats.probe_matches += join.produced();
            let (streamed, deferred) = join.left_rows();
            self.join_stats.streamed_rows += streamed;
            self.join_stats.deferred_rows += deferred;
        }
        // Completion stamps over the start mark if the chain was built
        // without ever noting a start (the aggregate clamps end >= start).
        self.trace.seg_mark_start(idx);
        self.trace.seg_mark_end(idx);
        v.seg().remaining.fetch_sub(1, Ordering::SeqCst);
        for m in 0..self.router.num_machines() {
            self.router.wake(m);
        }
        Ok((SegmentState::Done, Some(Step::Progressed)))
    }

    // -----------------------------------------------------------------------
    // The per-machine dataflow scheduler
    // -----------------------------------------------------------------------

    /// Drives *all* segments of the run to completion from this machine's
    /// single thread — the one run driver, pipelined or barriered. Any
    /// failure (or panic) aborts the whole run and unparks every peer.
    pub fn run_all(
        &mut self,
        plans: &[SegmentPlan],
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<()> {
        let panic_guard = AbortOnPanic(run);
        let result = self.run_all_inner(plans, run, sink);
        if result.is_err() {
            run.abort();
        }
        // Balance the trackers if the run tore down with skew-protocol
        // bytes in flight (unacked ships, unattached adoptions).
        self.reclaim_skew_state();
        // Nudge parked peers so they re-check the abort flag and the
        // readiness counters promptly.
        for m in 0..self.router.num_machines() {
            self.router.wake(m);
        }
        drop(panic_guard);
        result
    }

    /// The run driver: steps the machine until it is done, and is the one
    /// place it waits.
    fn run_all_inner(
        &mut self,
        plans: &[SegmentPlan],
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<()> {
        let visits: Vec<Visit> = plans.iter().map(|plan| Visit { plan, run, sink }).collect();
        let mut states: Vec<_> = visits.iter().map(|_| SegmentState::NotStarted).collect();
        let mut mark = Instant::now();
        loop {
            // Read before any readiness check: a peer's nudge landing after
            // the checks cuts the park below short instead of being lost.
            self.seen = self.router.wake_epoch();
            run.check_cancel()?;
            if run.is_aborted() {
                return Err(EngineError::Aborted("a peer machine failed".into()));
            }
            // Keep the streaming shuffle flowing and thieves answered,
            // whatever the machine does next and while it is blocked: peers
            // blocked on *us* make progress, which keeps the cooperative
            // protocol deadlock-free.
            self.absorb_inbox(!states.iter().any(SegmentState::is_active))?;
            // Under Red pressure the DFS bias tightens into strict DFS.
            let strict = self.governor_tick()? == PressureLevel::Red;
            self.charge_wait(&states, &visits, &mut mark);
            let wake_on = match self.step(&mut states, &visits, strict, &mut mark)? {
                Step::Progressed => continue,
                Step::Blocked(wake_on) => wake_on,
                Step::Done => return Ok(()),
            };
            self.park(wake_on, !states.iter().any(SegmentState::is_active));
            self.charge_wait(&states, &visits, &mut mark);
        }
    }

    /// Charges the driver's time since `mark` to the active segment, if any,
    /// as busy time — as if the segment had waited inline — and a blocked
    /// push to its terminal slot too. Idle waits charge nothing.
    fn charge_wait(&mut self, states: &[SegmentState], visits: &[Visit], mark: &mut Instant) {
        let waited = lap(mark);
        let Some(idx) = states.iter().position(SegmentState::is_active) else {
            return;
        };
        self.record_segment_busy(idx, waited);
        if let SegmentState::Running(_) = states[idx] {
            let terminal = visits[idx].plan.segment.extends.len() + 1;
            self.trace.op_add_busy(idx, terminal, waited);
        }
    }

    /// Parks on the router until `wake_on` may hold, for at most
    /// [`PARK_TIMEOUT`]; `self.seen` is the wake epoch read before the checks
    /// that led here. An idle park is a `park` span; a blocked segment's
    /// waits sit inside its own spans.
    fn park(&self, wake_on: WakeOn, idle: bool) {
        let span = idle.then(|| self.trace.enter("park"));
        match wake_on {
            WakeOn::Space(dest) => self.router.wait_space(dest, PARK_TIMEOUT),
            WakeOn::Data => {
                self.router.wait_data(self.seen, PARK_TIMEOUT);
            }
        }
        if let Some(span) = span {
            self.trace.exit(span);
        }
    }

    /// Advances the machine by one scheduling decision: the deepest runnable
    /// segment goes (DFS bias — drain consumers before growing producers).
    /// An active segment (see [`SegmentState`]) holds back every shallower
    /// one, but not the deeper ones: a producer blocked on a push lets the
    /// join below it probe meanwhile. Under Red pressure (`strict`) the bias tightens
    /// into strict DFS: a draining segment whose peers still own work stops
    /// the search, so the machine drains partials towards the sink instead of
    /// starting shallower producers that generate new ones.
    fn step(
        &mut self,
        states: &mut [SegmentState],
        visits: &[Visit],
        strict: bool,
        mark: &mut Instant,
    ) -> Result<Step> {
        let lo = states.iter().position(SegmentState::is_active).unwrap_or(0);
        let hi = states.len();
        // Releasing a drained segment goes first: a busy deeper join must
        // not hold back the end-of-stream its peers wait for.
        let idle = |i: usize| {
            visits[i]
                .seg()
                .idle
                .iter()
                .all(|f| f.load(Ordering::SeqCst))
        };
        let drained = |&idx: &usize| matches!(states[idx], SegmentState::Draining(_)) && idle(idx);
        if let Some(idx) = (lo..hi).find(drained) {
            let (state, step) = self.complete_segment(visits[idx])?;
            states[idx] = state;
            self.record_segment_busy(idx, lap(mark));
            return Ok(step.unwrap_or(Step::Progressed));
        }
        for idx in (lo..hi).rev() {
            let v = visits[idx];
            // Barriered mode is this gate and nothing else; pipelined, a join
            // waits for its right producer only.
            let open = || match (self.config.pipeline_segments, &v.plan.segment.source) {
                (false, _) => v.run.barrier_open(idx),
                (true, SegmentSource::Join(op)) => v.run.ready(&[op.right]),
                (true, SegmentSource::Scan(_)) => true,
            };
            match &states[idx] {
                SegmentState::Done => continue,
                SegmentState::NotStarted if !open() => continue,
                SegmentState::Paused(chain) if !self.can_resume(chain, v) => continue,
                SegmentState::Stalled { until, .. } if Instant::now() < *until => continue,
                _ => {}
            }
            let state = std::mem::replace(&mut states[idx], SegmentState::Done);
            let (state, step) = self.advance(state, v)?;
            states[idx] = state;
            match step {
                Some(step) => {
                    self.record_segment_busy(idx, lap(mark));
                    return Ok(step);
                }
                // The segment resolves without us: peers drain it or go
                // idle, and the driver keeps absorbing the inbox.
                None if strict => break,
                None => continue,
            }
        }
        // Nothing runnable: wait for a peer to finish a segment or push data.
        // Once every segment is done, wait for thieves to ack in-flight
        // partition ships, so the charge held for them is released before
        // the run tears down (the ack was sent the moment the thief absorbed
        // the ship, so this drains fast).
        let finished = states.iter().all(|s| matches!(s, SegmentState::Done));
        Ok(if finished && self.pending_ship_bytes == 0 {
            Step::Done
        } else {
            Step::Blocked(WakeOn::Data)
        })
    }

    /// A paused scan resumes at once, a join once it has work or can seal.
    fn can_resume(&self, chain: &SegmentChain, v: Visit) -> bool {
        let more = self.source_has_more(&chain.source, v.plan.segment.id);
        matches!(chain.source, ChainSource::Scan(_)) || more || v.left_released()
    }

    /// Moves one segment on from `state`.
    fn advance(&mut self, state: SegmentState, v: Visit) -> Result<Advance> {
        let idx = v.plan.segment.id;
        match state {
            SegmentState::NotStarted => {
                self.trace.seg_mark_start(idx);
                if self.faults(idx).any(|fault| fault == Fault::Panic) {
                    let me = self.machine;
                    panic!("injected fault: machine {me} panics in segment {idx}");
                }
                let chain = self.build_chain(v)?;
                let delays = self.faults(idx).filter_map(|fault| match fault {
                    Fault::Delay(delay) => Some(delay),
                    _ => None,
                });
                let Some(stall) = delays.reduce(|a, b| a + b) else {
                    return self.advance(SegmentState::Paused(chain), v);
                };
                let args = kv2("segment", idx as u64, "ms", stall.as_millis() as u64);
                let span = self.trace.enter_kv("fault_delay", args);
                // The segment's own work waits the stall out: its busy time,
                // like a blocked push. The machine's goes to what it runs.
                self.trace.seg_add_busy(idx, stall);
                let until = Instant::now() + stall;
                let stalled = SegmentState::Stalled { until, span, chain };
                Ok((stalled, Some(Step::Progressed)))
            }
            SegmentState::Stalled { span, chain, .. } => {
                self.trace.exit(span);
                self.advance(SegmentState::Paused(chain), v)
            }
            SegmentState::Running(chain) => self.run_segment(chain, v),
            SegmentState::Paused(chain) => {
                self.seal_left_if_released(v)?;
                self.run_segment(chain, v)
            }
            SegmentState::Draining(chain) => {
                let outcome = match chain.source {
                    ChainSource::Scan(_) => self.steal_once(v),
                    ChainSource::Join => self.steal_join_once(v),
                };
                match outcome {
                    StealOutcome::Stole => self.run_segment(chain, v),
                    StealOutcome::AllIdle => self.complete_segment(v),
                    StealOutcome::Pending => Ok((SegmentState::Draining(chain), None)),
                }
            }
            SegmentState::Completing => self.complete_segment(v),
            SegmentState::Done => Ok((SegmentState::Done, None)),
        }
    }

    /// Runs (or resumes) a segment's chain, one `chain` span per run to a
    /// stop. A chain blocked on a push keeps the segment `Running`; one that
    /// yields, or drains a join before its left seal, pauses it; one that
    /// drains leaves it `Draining` when idle machines steal, else completes it.
    fn run_segment(&mut self, mut chain: SegmentChain, v: Visit) -> Result<Advance> {
        let segment = kv("segment", v.plan.segment.id as u64);
        let span = match std::mem::replace(&mut chain.span, SpanId::NONE) {
            span if span.is_none() => self.trace.enter_kv("chain", segment),
            span => span,
        };
        let stopped = self.run_chain(&mut chain, v);
        if let Ok(Some(blocked @ Step::Blocked(_))) = stopped {
            chain.span = span;
            return Ok((SegmentState::Running(chain), Some(blocked)));
        }
        self.trace.exit(span);
        let waiting = || {
            let id = v.plan.segment.id;
            matches!(chain.source, ChainSource::Join)
                && self.joins.get(&id).is_some_and(|j| !j.is_sealed())
        };
        if stopped?.is_some() || waiting() {
            return Ok((SegmentState::Paused(chain), Some(Step::Progressed)));
        }
        // Idle machines steal from peers: scan chunks and queued batches on
        // scan segments, sealed Grace partitions on join segments.
        if self.router.num_machines() > 1 && self.config.inter_machine_stealing() {
            return Ok((SegmentState::Draining(chain), Some(Step::Progressed)));
        }
        self.complete_segment(v)
    }

    // -----------------------------------------------------------------------
    // Shared chain execution and work stealing
    // -----------------------------------------------------------------------

    /// The BFS/DFS-adaptive scheduling loop (Algorithm 5) over this
    /// segment's chain of three operators — 0, the source (scan or join);
    /// 1, the nest of its extends; 2, the terminal — and its two scheduled
    /// queues: the head queue from the source to the nest and the terminal
    /// queue from the nest to the terminal (the source's own without
    /// extends). The nest's input is also what it left in its deeper levels'
    /// queues. An operator is fed until its output queue fills or its input
    /// drains.
    /// Resumes at `chain.current`. Returns `None` once the chain has drained,
    /// else how it stopped: blocked on a full inbox, or yielded at a clean
    /// point (`Progressed`).
    fn run_chain(&mut self, chain: &mut SegmentChain, v: Visit) -> Result<Option<Step>> {
        let segment = v.plan.segment.id;
        if matches!(chain.source, ChainSource::Join) {
            self.maybe_panic_at(segment, PanicPoint::Probe);
        }
        let queues = Arc::clone(&v.seg().queues[self.machine]);
        // Busy-time slots (`SegmentPlan::op_slots`): the source, one per
        // extend, the terminal, the absorb.
        let terminal_slot = chain.extends.len() + 1;
        let absorb_slot = terminal_slot + 1;
        let mut current = chain.current;
        // From before the step's checks: a release they missed still counts.
        let mut epoch = self.seen;
        loop {
            // The per-batch cancellation poll: one atomic load per
            // scheduling step bounds how long a cancel can go unobserved.
            v.run.check_cancel()?;
            // Keep the streaming shuffle flowing: route anything that peers
            // pushed at us into its joiner before scheduling, and answer
            // thieves without waiting for the chain to finish (a long probe
            // must not starve an idle peer).
            if self.router.has_data() {
                let start = Instant::now();
                self.absorb_inbox(true)?;
                self.trace
                    .op_add_busy(segment, absorb_slot, start.elapsed());
            }
            // Re-evaluate memory pressure every scheduling step.
            self.governor_tick()?;
            let has_input = [
                self.source_has_more(&chain.source, segment),
                queues.levels.iter().any(|queue| !queue.is_empty()),
                !chain.unsent.is_empty() || !queues.terminal.is_empty(),
            ];
            if !has_input[current] {
                // Backtrack to the nearest upstream operator with work, else
                // move towards the terminal; stop once the chain has drained.
                let mut next = (0..current).rev().chain(current + 1..3);
                match next.find(|&op| has_input[op]) {
                    Some(op) => current = op,
                    None => break,
                }
                continue;
            }
            if current == 2 {
                let start = Instant::now();
                let blocked = loop {
                    if let Some(dest) = self.push_unsent(chain, segment) {
                        break Some(dest);
                    }
                    let Some(batch) = queues.terminal.pop() else {
                        break None;
                    };
                    self.consume_terminal(v, batch, &mut chain.unsent);
                };
                self.trace
                    .op_add_busy(segment, terminal_slot, start.elapsed());
                if let Some(dest) = blocked {
                    chain.current = current;
                    return Ok(Some(Step::Blocked(WakeOn::Space(dest))));
                }
                continue;
            }
            // Schedule the operator: consume input until its output queue
            // fills or the input drains (Algorithm 5 lines 6-9).
            let output = match current {
                0 => queues.fed_by_source(),
                _ => &queues.terminal,
            };
            loop {
                let start = Instant::now();
                let Some((first, levels)) = self.run_op(chain, &queues, v, current)? else {
                    break;
                };
                let slots = split_wall(start.elapsed(), &levels);
                for (level, took) in slots.into_iter().enumerate() {
                    self.trace.op_add_busy(segment, first + level, took);
                }
                // Re-check pressure after every call: the feed loop is where
                // memory actually grows, so the governor must be able to
                // shrink the effective capacity *mid-feed* (otherwise a
                // generous Green capacity lets one operator materialise its
                // whole input before the next control step).
                self.governor_tick()?;
                // Between an operator's calls nothing is unsent: a clean point.
                if self.should_yield(segment, &mut epoch) {
                    chain.current = current;
                    return Ok(Some(Step::Progressed));
                }
                if output.is_full() {
                    // Under pressure the queue fills early because the
                    // governor shrank it — that deferral is the throttling
                    // the run report counts.
                    if self.governor.is_throttling(self.machine) {
                        self.governor.record_throttled(self.machine);
                    }
                    break;
                }
            }
            // Move to the operator the full queue feeds: the nest reads the
            // head queue, the terminal the terminal queue, which a source
            // without extends feeds too (the terminal backtracks on its own).
            let feeds_nest = current == 0 && !queues.levels.is_empty();
            current = if feeds_nest { 1 } else { 2 };
        }
        chain.current = 0;
        Ok(None)
    }

    /// Whether a chain with nothing unsent hands the thread back to `step`: a
    /// deeper join's intake is full or it is sealed with work left (the DFS
    /// bias, per batch — not per row, which would probe a cold build a few
    /// rows at a time), or a peer released a segment since `epoch`.
    fn should_yield(&self, segment: usize, epoch: &mut u64) -> bool {
        let now = self.router.wake_epoch();
        if std::mem::replace(epoch, now) != now {
            return true;
        }
        let full = |join: &HashJoiner| join.waiting_rows() >= self.intake();
        let sealed = |join: &HashJoiner| join.is_sealed() && join.has_work();
        (self.joins.iter()).any(|(&id, join)| id > segment && (full(join) || sealed(join)))
    }

    /// Left rows a streaming join takes in before they are probed: an inbox's
    /// worth, as the governor sizes it now.
    fn intake(&self) -> u64 {
        self.router.inbox_capacity(self.machine) as u64
    }

    /// `true` while the chain's source can produce now: the scan cursor has
    /// (own or stolen) work, or the segment's join has something to probe.
    fn source_has_more(&self, source: &ChainSource, segment: usize) -> bool {
        match source {
            ChainSource::Scan(scan) => scan.has_more(),
            ChainSource::Join => self.joins.get(&segment).is_some_and(HashJoiner::has_work),
        }
    }

    /// Runs operator `current` of the chain once: one batch from the source
    /// (the scan cursor, or the segment's joiner) into the queue it feeds,
    /// or one batch of the deepest nonempty level queue through the nest from
    /// that level, which counts into the sink's matches or gathers into the
    /// terminal queue (and leaves the rest of each level's input in its
    /// queue once that fills). A bare counting join counts a batch instead.
    /// Returns `None` when the operator had no input, else its first busy
    /// slot and the nest's busy time per level from there (empty for the
    /// source).
    fn run_op(
        &mut self,
        chain: &mut SegmentChain,
        queues: &SegmentQueues,
        v: Visit,
        current: usize,
    ) -> Result<Option<(usize, Vec<Duration>)>> {
        let segment = v.plan.segment.id;
        // Assembled field by field: the joiner called below is a field too.
        let ctx = OpContext {
            machine: self.machine,
            partition: &self.partition,
            rpc: &self.rpc,
            cache: self.cache.as_ref(),
            use_cache: !self.config.disable_cache,
            pool: &self.pool,
            batch_size: self.effective_batch_size(),
        };
        let batch = match (current, &mut chain.source) {
            (0, ChainSource::Scan(cursor)) => cursor.next_runs(&ctx),
            (0, ChainSource::Join) => {
                let join = join_of(&mut self.joins, segment)?;
                if chain.counts && chain.extends.is_empty() {
                    let counted = join.count_batch()?;
                    self.matches += counted.unwrap_or(0);
                    return Ok(counted.map(|_| (0, Vec::new())));
                }
                join.next_batch()?
            }
            _ => {
                let Some((level, input)) = queues.pop_deepest() else {
                    return Ok(None);
                };
                let gather = (!chain.counts).then(|| queues.gather(level));
                let nest_from = &chain.extends[level..];
                let out = nest(nest_from, &input, &ctx, Some(&v.run.cancel), gather);
                if chain.counts {
                    self.matches += out.count;
                }
                self.fetch_time += out.fetch_time;
                return Ok(Some((1 + level, out.busy)));
            }
        };
        let Some(batch) = batch else {
            return Ok(None);
        };
        queues.fed_by_source().push(batch);
        Ok(Some((0, Vec::new())))
    }

    /// Consumes one fully-extended batch at the terminal: the sink counts
    /// (and collects) it; a shuffle partitions it by join key into `unsent`,
    /// one part per destination, for [`MachineState::push_unsent`].
    fn consume_terminal(&mut self, v: Visit, batch: ColBatch, unsent: &mut VecDeque<Part>) {
        match &v.plan.terminal {
            Terminal::Sink => {
                // Count-only sinks touch nothing but the length.
                self.matches += batch.len() as u64;
                if let SinkMode::Collect(limit) = v.sink {
                    if self.samples.len() < limit {
                        // The collect sink reads rows: runs end here.
                        let schema = &v.plan.segment.schema;
                        batch.for_each_row(|row| {
                            if self.samples.len() < limit {
                                self.samples.push(reorder_row(row, schema));
                            }
                        });
                    }
                }
            }
            Terminal::FeedJoin { key_positions, .. } => {
                let k = self.router.num_machines();
                // Envelopes are tagged with the *producing* segment id so the
                // consuming join can tell its left input from its right. Runs
                // keyed on a prefix column go on the wire whole, prefix once;
                // the partitioner sends any other run row by row.
                let parts = partition_cols_by_key(&batch, key_positions, k);
                unsent.extend(parts.into_iter().enumerate());
            }
        }
    }

    /// One inter-machine stealing attempt on a draining scan segment
    /// (§5.3): steal scan chunks or queued batches from a peer for the chain
    /// to run, report that every machine is idle, or report that peers are
    /// still busy (so the dataflow scheduler can visit another segment
    /// instead of blocking).
    fn steal_once(&mut self, v: Visit) -> StealOutcome {
        let (seg, k) = (v.seg(), v.seg().queues.len());
        // Drop the idle flag *before* scanning for work: the instant every
        // flag is set is the segment's end-of-stream
        // ([`SegmentShared::idle`]), so a machine must never hold (or be
        // acquiring) work while it advertises idleness.
        seg.idle[self.machine].store(false, Ordering::SeqCst);
        // Prefer stealing unscanned vertices (most work remaining); else
        // buffered batches from the victim's queues, upstream-most first
        // (they carry the most remaining work). `steal_into` transfers the
        // memory accounting with the batches, so cluster-wide `current()`
        // stays conserved.
        let me = self.machine;
        let stolen = (1..k).map(|offset| (me + offset) % k).find_map(|victim| {
            let chunks = seg.scan_pools[victim].steal_half();
            if !chunks.is_empty() {
                let bytes: usize = chunks.iter().map(|c| std::mem::size_of_val(&c[..])).sum();
                let batches = chunks.len() as u64;
                seg.scan_pools[me].add_chunks(chunks);
                return Some((batches, bytes as u64));
            }
            let (theirs, mine) = (seg.queues[victim].all(), seg.queues[me].all());
            let mut taken = theirs.zip(mine).map(|(q, into)| q.steal_into(into));
            taken.find(|&(batches, _)| batches > 0)
        });
        if let Some((batches, bytes)) = stolen {
            self.rpc.record_steal(me, bytes);
            self.batches_stolen += batches;
            let segment = kv("segment", v.plan.segment.id as u64);
            self.trace.instant_kv("steal", segment);
            return StealOutcome::Stole;
        }
        self.go_idle(v)
    }

    /// Advertises this machine idle on a draining segment: the segment is
    /// finished once every machine is (or the run aborted), else revisited.
    fn go_idle(&self, v: Visit) -> StealOutcome {
        v.seg().idle[self.machine].store(true, Ordering::SeqCst);
        if v.seg().idle.iter().all(|f| f.load(Ordering::SeqCst)) || v.run.is_aborted() {
            return StealOutcome::AllIdle;
        }
        StealOutcome::Pending
    }

    // -----------------------------------------------------------------------
    // Cross-machine Grace partition stealing
    // -----------------------------------------------------------------------

    /// Answers `thief`'s steal request for join segment `segment` — the one
    /// place a request is answered, reached the moment the inbox yields it.
    /// It ships the unprobed work of the highest partition that has some
    /// ([`HashJoiner::take_unprobed_partition`]) from the join the request
    /// names, whatever that join's phase (building, probing or drained), and
    /// nacks when nothing is shippable or the segment completed and its join
    /// is gone. Shipping before the local seal is sound: a request is only
    /// sent once the join's input is globally complete, and
    /// [`MachineState::absorb_inbox`] drained every data envelope before it.
    ///
    /// A ship's tracker charge stays on this machine (recorded in
    /// `pending_ship_bytes`) until the thief's [`ControlMsg::ShipAck`]
    /// releases it — the same allocate-before-release hand-off as
    /// [`SharedQueue::steal_into`](crate::scheduler::SharedQueue::steal_into).
    fn answer_steal_request(&mut self, thief: MachineId, segment: usize) -> Result<()> {
        let taken = match self.joins.get_mut(&segment) {
            Some(join) => join.take_unprobed_partition()?,
            None => None,
        };
        let Some((left, right)) = taken else {
            let nack = ControlMsg::ShipNack { segment };
            self.router.send_control(thief, nack);
            return Ok(());
        };
        self.maybe_panic_at(segment, PanicPoint::Ship);
        let bytes = left.byte_size() + right.byte_size();
        self.pending_ship_bytes += bytes;
        self.trace.instant_kv(
            "ship_partition",
            kv2("segment", segment as u64, "bytes", bytes),
        );
        self.router.send_control(
            thief,
            ControlMsg::PartitionShip {
                segment,
                bytes,
                left,
                right,
            },
        );
        Ok(())
    }

    /// One partition-stealing attempt on a *draining join segment*: hand
    /// partitions adopted into the join to the chain, keep waiting on an
    /// outstanding request, ask the next untried peer, or conclude that every
    /// machine is idle. Mirrors [`MachineState::steal_once`], with
    /// `PartitionShip` envelopes instead of shared-queue batches.
    fn steal_join_once(&mut self, v: Visit) -> StealOutcome {
        let (seg, k, segment) = (v.seg(), v.seg().queues.len(), v.plan.segment.id);
        if self.source_has_more(&ChainSource::Join, segment) {
            // Adopted work in hand: stay visibly non-idle and probe the
            // partitions through the chain like locally-built ones.
            seg.idle[self.machine].store(false, Ordering::SeqCst);
            return StealOutcome::Stole;
        }
        if self
            .join_ctl
            .get(&segment)
            .is_some_and(|ctl| ctl.outstanding)
        {
            // A victim owes us a ship or a nack; the idle flag stays down
            // while the answer is in flight so the all-idle gate cannot
            // fire under a ship.
            return StealOutcome::Pending;
        }
        // Ask the next peer not tried yet. A drained peer has nothing left to
        // ship, so it is marked without the round-trip. (Nacks are permanent
        // for the same reason: sealed partitions only ever get probed or
        // shipped.)
        let me = self.machine;
        let ctl = self.join_ctl.entry(segment).or_default();
        ctl.tried.resize(k, false);
        let target = (1..k).map(|offset| (me + offset) % k).find(|&victim| {
            !std::mem::replace(&mut ctl.tried[victim], true)
                && !seg.idle[victim].load(Ordering::SeqCst)
        });
        if let Some(victim) = target {
            // Drop the idle flag *before* the request leaves: a thief with
            // an outstanding request must never look idle, or the segment
            // could complete with a partition ship in flight.
            seg.idle[me].store(false, Ordering::SeqCst);
            ctl.outstanding = true;
            self.router
                .send_control(victim, ControlMsg::StealRequest { segment });
            return StealOutcome::Pending;
        }
        self.go_idle(v)
    }

    /// Releases the charge of ships still unacked when a run tears down
    /// (aborted with ships in flight) so the trackers balance. Adopted
    /// partitions need nothing here: they sit in their joins, whose `Drop`
    /// releases them.
    fn reclaim_skew_state(&mut self) {
        self.memory
            .release(std::mem::take(&mut self.pending_ship_bytes));
    }
}

/// The time since `mark`, moving `mark` to now: consecutive laps cover a
/// timeline without gaps.
fn lap(mark: &mut Instant) -> Duration {
    let now = Instant::now();
    now - std::mem::replace(mark, now)
}

/// Splits `wall`, the time of one operator call, over the busy slots of the
/// levels it ran by each level's share of `busy` — a nest's busy time per
/// level; empty for any other operator, whose slot takes it all. The head's
/// slot takes what rounding leaves, so the slots sum to `wall`.
fn split_wall(wall: Duration, busy: &[Duration]) -> Vec<Duration> {
    let total = busy.iter().sum::<Duration>().as_secs_f64();
    let mut slots = vec![wall];
    for level in busy.iter().skip(1) {
        let share = match total > 0.0 {
            true => wall.mul_f64(level.as_secs_f64() / total).min(slots[0]),
            false => Duration::ZERO,
        };
        slots[0] -= share;
        slots.push(share);
    }
    slots
}

/// The joiner of join segment `segment` — a typed error once the segment
/// completed (or if it was never prepared).
fn join_of(joins: &mut HashMap<usize, HashJoiner>, segment: usize) -> Result<&mut HashJoiner> {
    let gone = || EngineError::Config(format!("join segment {segment} is not running"));
    joins.get_mut(&segment).ok_or_else(gone)
}

/// Reorders a row (laid out by segment schema) into query-vertex order.
pub fn reorder_row(row: &[u32], schema: &[QueryVertex]) -> Vec<u32> {
    let n = schema.len();
    let mut out = vec![0u32; n];
    for (pos, &qv) in schema.iter().enumerate() {
        out[qv as usize] = row[pos];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nest_call_is_split_over_its_levels_without_a_gap() {
        let ms = Duration::from_millis;
        assert_eq!(split_wall(ms(7), &[]), [ms(7)]);
        assert_eq!(
            split_wall(ms(7), &[Duration::ZERO; 3]),
            [ms(7), ms(0), ms(0)]
        );
        assert_eq!(
            split_wall(ms(8), &[ms(1), ms(2), ms(1)]),
            [ms(2), ms(4), ms(2)]
        );
        let wall = Duration::from_nanos(1_000_000_007);
        let slots = split_wall(wall, &[ms(3), ms(5), ms(7), ms(11)]);
        assert_eq!(slots.iter().sum::<Duration>(), wall);
        assert!(slots.windows(2).skip(1).all(|w| w[0] < w[1]), "{slots:?}");
    }

    #[test]
    fn reorder_row_maps_schema_to_vertex_order() {
        // Schema [v2, v0, v1] with row [20, 0, 10] -> [0, 10, 20].
        let row = [20u32, 0, 10];
        let schema = [2u8, 0, 1];
        assert_eq!(reorder_row(&row, &schema), vec![0, 10, 20]);
    }
}
