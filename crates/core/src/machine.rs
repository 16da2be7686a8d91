//! The per-machine runtime: segment execution under the BFS/DFS-adaptive
//! scheduler, the segment terminals (`SINK` and the `PUSH-JOIN` shuffle),
//! inter-machine work stealing, and the per-machine *dataflow scheduler*
//! that drives all segments of a run from one thread.
//!
//! The runtime is *pipelined* at two levels. Inside a segment, join inputs
//! shuffled during a producing segment are absorbed into pre-instantiated
//! [`HashJoiner`]s as they arrive ([`MachineState::absorb_inbox`]), so
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
//! every earlier segment is released cluster-wide). When a machine has
//! nothing to compute it *parks* on the router's notify handle instead of
//! spinning.
//!
//! Join skew is handled by **cross-machine Grace partition stealing** over
//! the router's control plane: a machine that drained its own build requests
//! unprobed partitions from busy peers (see
//! [`MachineState::steal_join_once`]). A victim answers each request the
//! moment its inbox yields it, from whichever join the request names and
//! whatever that join's phase ([`MachineState::answer_steal_request`]).

use std::collections::HashMap;
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
use crate::exec::{
    partition_cols_by_key, BatchOperator, OpContext, OpPoll, PullExtend, ScanSource,
};
use crate::governor::{MemoryGovernor, PressureLevel};
use crate::join::{column_bytes, HashJoiner, JoinSide, MemoryTrackerHandle};
use crate::memory::MemoryTracker;
use crate::pool::WorkerPool;
use crate::report::{JoinReport, MachineReport};
use crate::scheduler::{RunShared, SegmentQueues, SegmentShared};
use crate::{EngineError, Result};

/// How long a machine parks on the router before re-checking conditions that
/// change without data arriving (idle flags, segment completion, aborts).
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
    /// Names of the segment's operator slots, in the order of
    /// [`MachineReport::op_busy`]: the source (`scan` or `join`, the probe),
    /// each extend, the terminal (a shuffle's terminal includes its
    /// backpressure waits), and the inbox absorbed between scheduling steps
    /// (other segments' shuffle input landing in their builds).
    pub fn op_names(&self) -> Vec<String> {
        let source = match self.segment.source {
            SegmentSource::Scan(_) => "scan",
            SegmentSource::Join(_) => "join",
        };
        let extends = (1..=self.segment.extends.len()).map(|i| format!("extend{i}"));
        std::iter::once(source.to_string())
            .chain(extends)
            .chain(["terminal".to_string(), "absorb".to_string()])
            .collect()
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
    Scan(ScanSource),
}

/// One segment's instantiated operator chain on one machine. A chain
/// persists across scheduler visits (a draining segment is revisited to
/// steal from peers) until the segment finishes.
struct SegmentChain {
    source: ChainSource,
    extends: Vec<PullExtend>,
}

/// Where this machine stands with one segment under the dataflow scheduler.
enum SegmentState {
    /// Not yet started (may be waiting on producer segments).
    NotStarted,
    /// Own work done; the machine revisits the segment's chain to steal from
    /// peers until every machine is idle on it.
    Draining(SegmentChain),
    /// Finished on this machine (its `remaining` slot has been released).
    Done,
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
    /// Work was stolen and executed; try again.
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
    /// Busy time per intra-machine worker.
    pub worker_busy: Vec<Duration>,
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
    /// The run's cancellation token (deadline-armed by the cluster); every
    /// cooperative loop polls it at batch granularity.
    cancel: CancelToken,
    /// Skew-handling counters surfaced in the run report.
    join_stats: JoinReport,
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
        let workers = config.workers_per_machine;
        let pool = WorkerPool::new(workers, config.load_balance);
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
            worker_busy: vec![Duration::ZERO; workers],
            fetch_time: Duration::ZERO,
            compute_time: Duration::ZERO,
            batches_stolen: 0,
            trace: TraceBuf::disabled(),
            last_level: PressureLevel::Green,
            joins: HashMap::new(),
            join_feeds: HashMap::new(),
            join_ctl: HashMap::new(),
            pending_ship_bytes: 0,
            cancel: CancelToken::new(),
            join_stats: JoinReport::default(),
        }
    }

    /// Prepares a run: instantiates one [`HashJoiner`] per join segment and
    /// the envelope routing table, so inbound shuffle data can be absorbed
    /// the moment it arrives — during the *producing* segment. `trace` is
    /// this machine's flight-recorder track, minted by the cluster's
    /// [`Recorder`](huge_trace::Recorder) with one aggregate slot per
    /// segment and per [`SegmentPlan::op_names`] entry; its epoch is the
    /// shared instant all spans measure against.
    pub fn prepare_run(&mut self, plans: &[SegmentPlan], trace: TraceBuf, cancel: CancelToken) {
        self.trace = trace;
        self.cancel = cancel;
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
                join.set_cancel(self.cancel.clone());
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
            worker_busy: self.worker_busy.clone(),
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
            // Ladder transitions land on this machine's track: the governor
            // is ticked from machine threads, so the machine that observed
            // the change is the one that acts on it.
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
    /// the consumer half of the streaming shuffle: it runs opportunistically
    /// during chain execution, while waiting for space on a full destination
    /// inbox, and whenever the dataflow scheduler has nothing runnable.
    ///
    /// Every control envelope is handled only after a data drain that
    /// started once it had been popped: a `StealRequest` implies the sender
    /// observed the join's input globally complete, so every row of the
    /// requested partitions was in the inbox before the request was — and
    /// is in the local build before the request is answered. (Draining data
    /// only once, ahead of the control queue, would let a request that lands
    /// just after that drain ship a partition whose last rows are still
    /// queued; they would arrive at a shipped partition and be lost.)
    fn absorb_inbox(&mut self) -> Result<()> {
        // Service the fault-injection link first (a no-op unless a test
        // armed one): retransmit due drops and open due gates, so inbound
        // data below includes recovered envelopes. Exhausted retries surface
        // as a typed transport failure.
        self.router.pump_link().map_err(EngineError::Transport)?;
        loop {
            let ctl = self.router.try_recv_control();
            while let Some(env) = self.router.try_recv() {
                let &(join_id, side) = self.join_feeds.get(&env.segment).ok_or_else(|| {
                    EngineError::Config(format!(
                        "machine {} received an envelope for unknown segment {}",
                        self.machine, env.segment
                    ))
                })?;
                join_of(&mut self.joins, join_id)?.add(side, &env.batch)?;
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
                partition: _,
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

    /// Pushes one shuffle batch with backpressure: while the destination
    /// inbox is full, absorb the own inbox (so peers blocked on *us* make
    /// progress — this is what keeps the cooperative protocol deadlock-free)
    /// and park briefly for space. Bails out when a peer aborted the run
    /// (a failed machine will never drain its inbox).
    fn push_with_backpressure(
        &mut self,
        dest: MachineId,
        segment: usize,
        batch: ColBatch,
        run: &RunShared,
    ) -> Result<()> {
        let mut pending = batch;
        let mut throttle_counted = false;
        // The span opens on the first bounce only, so an uncontended push
        // records nothing; an error mid-wait leaves it open and the timeline
        // closes it at the track's end (the wait really did last that long).
        let mut bp_span = SpanId::NONE;
        loop {
            match self.router.try_push(dest, segment, pending) {
                Ok(()) => {
                    if !bp_span.is_none() {
                        self.trace.exit_kv(bp_span, kv("dest", dest as u64));
                    }
                    return Ok(());
                }
                Err(back) => {
                    run.check_cancel()?;
                    if run.is_aborted() {
                        return Err(EngineError::Aborted(
                            "shuffle target lost to a failed peer machine".into(),
                        ));
                    }
                    // A bounce is the governor's backpressure actuator at
                    // work when the *destination* is under pressure (it is
                    // the dest's inbox capacity the governor shrank): count
                    // the deferred batch once, against the machine whose
                    // pressure caused it.
                    if !throttle_counted && self.governor.is_throttling(dest) {
                        self.governor.record_throttled(dest);
                        throttle_counted = true;
                    }
                    if bp_span.is_none() {
                        bp_span = self
                            .trace
                            .enter_kv("backpressure", kv("segment", segment as u64));
                    }
                    pending = back;
                    self.absorb_inbox()?;
                    self.router.wait_space(dest, PARK_TIMEOUT);
                }
            }
        }
    }

    /// Fires the configured chaos fault if it targets this machine/segment.
    ///
    /// An injected `Delay` stalls this machine's *chain*, not its control
    /// plane: the sleep is taken in short slices with the inbox absorbed —
    /// steal requests answered with it — in between, the way a real
    /// straggler's runtime keeps servicing network traffic while its compute
    /// lags. That responsiveness is what lets idle peers steal a stalled
    /// machine's sealed Grace partitions *during* the stall instead of
    /// queueing behind it.
    fn maybe_inject_fault(&mut self, segment: usize) -> Result<()> {
        let faults: Vec<Fault> = self
            .config
            .fault_plan
            .iter()
            .filter(|spec| spec.machine == self.machine && spec.segment == segment)
            .map(|spec| spec.fault)
            .collect();
        for fault in faults {
            match fault {
                Fault::Delay(total) => {
                    let span = self.trace.enter_kv(
                        "fault_delay",
                        kv2("segment", segment as u64, "ms", total.as_millis() as u64),
                    );
                    let deadline = Instant::now() + total;
                    loop {
                        // A stalled machine still honours cancellation: the
                        // slices poll the token, so a cancel or deadline cuts
                        // the stall short instead of waiting it out.
                        self.cancel.check()?;
                        self.absorb_inbox()?;
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2).min(deadline - now));
                    }
                    self.trace.exit(span);
                }
                Fault::Panic => panic!(
                    "injected fault: machine {} panics in segment {segment}",
                    self.machine
                ),
                // Point panics fire from `maybe_panic_at` at their named
                // sites; transport faults live in the router's link.
                Fault::PanicAt(_)
                | Fault::DropBatch { .. }
                | Fault::DuplicateBatch { .. }
                | Fault::ReorderWindow { .. }
                | Fault::SlowLink { .. } => {}
            }
        }
        Ok(())
    }

    /// Fires any [`Fault::PanicAt`] armed for this machine/segment/point.
    fn maybe_panic_at(&self, segment: usize, point: PanicPoint) {
        for spec in &self.config.fault_plan {
            if spec.machine == self.machine
                && spec.segment == segment
                && spec.fault == Fault::PanicAt(point)
            {
                panic!(
                    "injected fault: machine {} panics at {point:?} in segment {segment}",
                    self.machine
                );
            }
        }
    }

    /// Records the first time this machine touches segment `idx`.
    fn note_segment_start(&mut self, idx: usize) {
        self.trace.seg_mark_start(idx);
    }

    /// Accumulates active time spent on segment `idx`.
    fn record_segment_busy(&mut self, idx: usize, elapsed: Duration) {
        self.trace.seg_add_busy(idx, elapsed);
        self.compute_time += elapsed;
    }

    /// Instantiates a segment's operator chain from the shared execution
    /// substrate. For join segments the producers are globally done (the
    /// readiness policy guarantees it), so any final envelopes still queued
    /// are absorbed and the join sealed in place — at the configured batch
    /// size, not the governor-capped one the scan takes.
    fn build_chain(
        &mut self,
        plan: &SegmentPlan,
        seg: &SegmentShared,
        sink: SinkMode,
    ) -> Result<SegmentChain> {
        self.maybe_panic_at(plan.segment.id, PanicPoint::Build);
        // A match-mode extend adds a column, so the chain's input arities
        // follow from the width of the segment's output.
        let ops = &plan.segment.extends;
        let added = ops.iter().filter(|op| op.verify_position.is_none());
        let mut arity = plan.segment.schema.len() - added.count();
        let mut extends: Vec<PullExtend> = ops
            .iter()
            .map(|op| {
                let extend = PullExtend::new(op, arity);
                arity = extend.output_arity();
                extend
            })
            .collect();
        // Count-only fast path: when the root segment merely counts matches,
        // its last operator (final extend, or the bare join) materialises nothing.
        let count_only = matches!(plan.terminal, Terminal::Sink) && sink == SinkMode::Count;
        if let Some(last) = extends.last_mut() {
            last.set_count_only(count_only);
        }
        let source = match &plan.segment.source {
            SegmentSource::Scan(scan) => ChainSource::Scan(ScanSource::new(
                scan.clone(),
                seg.scan_pools[self.machine].clone(),
            )),
            SegmentSource::Join(_) => {
                self.absorb_inbox()?;
                let join = join_of(&mut self.joins, plan.segment.id)?;
                join.set_count_only(count_only && extends.is_empty());
                join.seal(self.config.batch_size);
                ChainSource::Join
            }
        };
        Ok(SegmentChain { source, extends })
    }

    /// Harvests a finished chain's timings and counters — dropping a join
    /// segment's joiner, which is done — and stamps the segment's completion
    /// time.
    fn finish_chain(&mut self, idx: usize, chain: &mut SegmentChain) {
        for ext in &mut chain.extends {
            let (fetch, busy) = ext.take_timings();
            self.fetch_time += fetch;
            for (w, d) in busy.iter().enumerate() {
                if w < self.worker_busy.len() {
                    self.worker_busy[w] += *d;
                }
            }
            self.matches += ext.take_count();
        }
        // Only a join segment has a joiner (segment ids are plan indices).
        if let Some(join) = self.joins.remove(&idx) {
            self.matches += join.counted();
            self.join_stats.probe_pairs += join.tested();
            self.join_stats.probe_matches += join.produced();
        }
        // Completion stamps over the start mark if the chain was built
        // without ever noting a start (the aggregate clamps end >= start).
        self.trace.seg_mark_start(idx);
        self.trace.seg_mark_end(idx);
    }

    /// The delivery barrier a segment runs before it releases its counter:
    /// every frame this machine still owes for the segment over the
    /// fault-injection link (parked behind a reorder/slow gate or awaiting
    /// retransmit) must actually land first, or a consumer would seal its
    /// build with rows still in flight. Returns at once on a reliable router.
    fn flush_segment_link(&mut self, segment: usize, run: &RunShared) -> Result<()> {
        loop {
            self.router.flush_link().map_err(EngineError::Transport)?;
            if self.router.link_pending(Some(segment)) == 0 {
                return Ok(());
            }
            run.check_cancel()?;
            if run.is_aborted() {
                return Err(EngineError::Aborted(
                    "transport flush interrupted by a failed peer machine".into(),
                ));
            }
            // Retransmits respect their backoff due-times even under flush;
            // absorb our own inbox (peers may be blocked on us) and park
            // until the next retry comes due.
            self.absorb_inbox()?;
            self.router.wait_data(PARK_TIMEOUT);
        }
    }

    /// A segment's epilogue on this machine, once its own and any stolen work
    /// is done: deliver what the link still owes, harvest the chain, then
    /// settle this machine's slot on the segment's release counter — the one
    /// end-of-stream signal — and nudge every parked peer to re-check
    /// readiness.
    fn complete_segment(
        &mut self,
        idx: usize,
        chain: &mut SegmentChain,
        run: &RunShared,
    ) -> Result<()> {
        self.flush_segment_link(idx, run)?;
        self.finish_chain(idx, chain);
        run.segments[idx].remaining.fetch_sub(1, Ordering::SeqCst);
        for m in 0..self.router.num_machines() {
            self.router.wake(m);
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // The per-machine dataflow scheduler
    // -----------------------------------------------------------------------

    /// Drives *all* segments of the run to completion from this machine's
    /// single thread — the one run driver, pipelined or barriered. Segments
    /// advance through `SegmentState`; the next segment is picked
    /// deepest-first among the runnable ones (DFS bias — drain consumers
    /// before growing producers), and `pipeline_segments(false)` only narrows
    /// "runnable" to [`RunShared::barrier_open`]. Any failure (or panic)
    /// aborts the whole run and unparks every peer.
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

    fn run_all_inner(
        &mut self,
        plans: &[SegmentPlan],
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<()> {
        let n = plans.len();
        // Idle machines steal from peers: scan chunks and queued batches on
        // scan segments, sealed Grace partitions on join segments.
        let drains = self.router.num_machines() > 1 && self.config.inter_machine_stealing();
        let mut states: Vec<SegmentState> = (0..n).map(|_| SegmentState::NotStarted).collect();
        let mut done = 0usize;
        while done < n {
            run.check_cancel()?;
            if run.is_aborted() {
                return Err(EngineError::Aborted("a peer machine failed".into()));
            }
            // Keep the streaming shuffle flowing (and thieves answered)
            // whatever segment runs next.
            self.absorb_inbox()?;
            // Under Red pressure the DFS bias tightens into strict DFS:
            // *only* the deepest non-done segment may run, so the machine
            // drains partials towards the sink instead of starting shallower
            // producers that generate new ones.
            let strict = self.governor_tick()? == PressureLevel::Red;
            let mut progressed = false;
            for idx in (0..n).rev() {
                let plan = &plans[idx];
                let seg = &run.segments[idx];
                let start = Instant::now();
                match &mut states[idx] {
                    SegmentState::Done => continue,
                    SegmentState::NotStarted => {
                        // Barriered mode is this gate and nothing else.
                        let open = if self.config.pipeline_segments {
                            run.ready(&plan.segment.dependencies())
                        } else {
                            run.barrier_open(idx)
                        };
                        if !open {
                            continue;
                        }
                        self.note_segment_start(idx);
                        self.maybe_inject_fault(idx)?;
                        let mut chain = self.build_chain(plan, seg, sink)?;
                        self.run_chain(&mut chain, plan, seg, run, sink)?;
                        states[idx] = if drains {
                            SegmentState::Draining(chain)
                        } else {
                            self.complete_segment(idx, &mut chain, run)?;
                            done += 1;
                            SegmentState::Done
                        };
                    }
                    SegmentState::Draining(chain) => {
                        let outcome = match chain.source {
                            ChainSource::Scan(_) => self.steal_once(chain, plan, seg, run, sink)?,
                            ChainSource::Join => {
                                self.steal_join_once(chain, plan, seg, run, sink)?
                            }
                        };
                        match outcome {
                            StealOutcome::Stole => {}
                            StealOutcome::AllIdle => {
                                self.complete_segment(idx, chain, run)?;
                                states[idx] = SegmentState::Done;
                                done += 1;
                            }
                            StealOutcome::Pending => {
                                // Peers still own the segment's remaining
                                // work; fall through to shallower segments —
                                // unless strict DFS forbids generating new
                                // work while a deeper segment is unfinished
                                // (the segment resolves without us: peers
                                // drain it or go idle, and we keep absorbing
                                // the inbox from the park below).
                                if strict {
                                    break;
                                }
                                continue;
                            }
                        }
                    }
                }
                self.record_segment_busy(idx, start.elapsed());
                progressed = true;
                break;
            }
            if !progressed && done < n {
                // Nothing runnable: park on the inbox (absorbing whatever
                // arrives) until a peer finishes a segment or pushes data.
                self.absorb_inbox()?;
                let span = self.trace.enter("park");
                self.router.wait_data(PARK_TIMEOUT);
                self.trace.exit(span);
            }
        }
        // Wait for thieves to ack in-flight partition ships so the charge
        // held for them is released before the run tears down (the ack was
        // sent the moment the thief absorbed the ship, so this drains fast).
        while self.pending_ship_bytes > 0 && !run.is_aborted() {
            run.check_cancel()?;
            self.absorb_inbox()?;
            if self.pending_ship_bytes == 0 {
                break;
            }
            self.router.wait_data(PARK_TIMEOUT);
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Shared chain execution and work stealing
    // -----------------------------------------------------------------------

    /// The BFS/DFS-adaptive scheduling loop (Algorithm 5) over this
    /// segment's operator chain: source (scan or join), extends, terminal.
    /// Each invocation is one `chain` span on the machine's track (a
    /// draining segment re-enters here per stolen batch or adoption).
    fn run_chain(
        &mut self,
        chain: &mut SegmentChain,
        plan: &SegmentPlan,
        seg: &SegmentShared,
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<()> {
        let span = self
            .trace
            .enter_kv("chain", kv("segment", plan.segment.id as u64));
        let result = self.run_chain_inner(chain, plan, seg, run, sink);
        self.trace.exit(span);
        result
    }

    fn run_chain_inner(
        &mut self,
        chain: &mut SegmentChain,
        plan: &SegmentPlan,
        seg: &SegmentShared,
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<()> {
        if matches!(chain.source, ChainSource::Join) {
            self.maybe_panic_at(plan.segment.id, PanicPoint::Probe);
        }
        let queues = Arc::clone(&seg.queues[self.machine]);
        let num_extends = chain.extends.len();
        // Operator indices: 0 = source, 1..=num_extends = extends,
        // num_extends + 1 = terminal. They double as the operators' busy-time
        // slots (`SegmentPlan::op_names`), followed by the absorb slot.
        let terminal_idx = num_extends + 1;
        let absorb_slot = terminal_idx + 1;
        let segment = plan.segment.id;
        let mut current = 0usize;
        loop {
            // The per-batch cancellation poll: one atomic load per
            // scheduling step bounds how long a cancel can go unobserved.
            run.check_cancel()?;
            // Keep the streaming shuffle flowing: route anything that peers
            // pushed at us into its joiner before scheduling, and answer
            // thieves without waiting for the chain to finish (a long probe
            // must not starve an idle peer).
            if self.router.has_data() {
                let start = Instant::now();
                self.absorb_inbox()?;
                self.trace
                    .op_add_busy(segment, absorb_slot, start.elapsed());
            }
            // Re-evaluate memory pressure every scheduling step.
            self.governor_tick()?;
            let has_input = match current {
                0 => self.source_has_more(&chain.source, segment),
                i if i == terminal_idx => !queues.queue(num_extends).is_empty(),
                i => !queues.queue(i - 1).is_empty(),
            };
            if !has_input {
                if current == 0 {
                    // Source exhausted: finish when nothing remains anywhere.
                    if queues.all_empty() {
                        break;
                    }
                    current += 1;
                    continue;
                }
                // Backtrack only while some upstream operator still has work;
                // otherwise keep moving towards the terminal (and stop at the
                // terminal once the whole chain has drained).
                let upstream_has_work = self.source_has_more(&chain.source, segment)
                    || (0..current.saturating_sub(1)).any(|i| !queues.queue(i).is_empty());
                if upstream_has_work {
                    current -= 1;
                } else if current == terminal_idx {
                    break;
                } else {
                    current += 1;
                }
                continue;
            }
            if current == terminal_idx {
                let start = Instant::now();
                while let Some(batch) = queues.queue(num_extends).pop() {
                    self.consume_terminal(plan, batch, sink, run)?;
                }
                self.trace.op_add_busy(segment, current, start.elapsed());
                current -= 1;
                continue;
            }
            // Schedule the operator: consume input until its output queue
            // fills or the input drains (Algorithm 5 lines 6-9).
            loop {
                let start = Instant::now();
                let produced = self.step(chain, &queues, segment, current)?;
                self.trace.op_add_busy(segment, current, start.elapsed());
                let Some(produced) = produced else { break };
                for chunk in produced.split_into_chunks(self.effective_batch_size()) {
                    queues.queue(current).push(chunk);
                }
                // Re-check pressure after every batch landed in a queue: the
                // feed loop is where memory actually grows, so the governor
                // must be able to shrink the effective capacity *mid-feed*
                // (otherwise a generous Green capacity lets one operator
                // materialise its whole input before the next control step).
                self.governor_tick()?;
                if queues.queue(current).is_full() {
                    // Under pressure the queue fills early because the
                    // governor shrank it — that deferral is the throttling
                    // the run report counts.
                    if self.governor.is_throttling(self.machine) {
                        self.governor.record_throttled(self.machine);
                    }
                    break;
                }
            }
            // Move to the successor (the terminal backtracks on its own).
            current += 1;
        }
        Ok(())
    }

    /// `true` while the chain's source may still produce: the scan cursor
    /// has (own or stolen) work, or the segment's join has partitions left.
    fn source_has_more(&self, source: &ChainSource, segment: usize) -> bool {
        match source {
            ChainSource::Scan(scan) => scan.has_more(),
            ChainSource::Join => self.joins.get(&segment).is_some_and(|j| !j.is_exhausted()),
        }
    }

    /// Runs operator `current` of the chain once: polls the source (the scan
    /// cursor, or the segment's joiner) or feeds an extend one queued batch.
    /// Returns the batch it produced, if any.
    fn step(
        &mut self,
        chain: &mut SegmentChain,
        queues: &SegmentQueues,
        segment: usize,
        current: usize,
    ) -> Result<Option<ColBatch>> {
        // Assembled field by field: the joiner polled below is a field too.
        let ctx = OpContext {
            machine: self.machine,
            partition: &self.partition,
            rpc: &self.rpc,
            cache: self.cache.as_ref(),
            use_cache: !self.config.disable_cache,
            pool: &self.pool,
            batch_size: self.effective_batch_size(),
        };
        let poll = match (current, &mut chain.source) {
            (0, ChainSource::Scan(scan)) => scan.poll_next(&ctx)?,
            (0, ChainSource::Join) => join_of(&mut self.joins, segment)?.poll_next(&ctx)?,
            (i, _) => {
                let Some(input) = queues.queue(i - 1).pop() else {
                    return Ok(None);
                };
                let op = &mut chain.extends[i - 1];
                op.push_input(input, &ctx)?;
                op.poll_next(&ctx)?
            }
        };
        Ok(match poll {
            OpPoll::Ready(batch) => Some(batch),
            OpPoll::Pending | OpPoll::Exhausted => None,
        })
    }

    /// Consumes one fully-extended batch at the terminal.
    fn consume_terminal(
        &mut self,
        plan: &SegmentPlan,
        mut batch: ColBatch,
        sink: SinkMode,
        run: &RunShared,
    ) -> Result<()> {
        match &plan.terminal {
            Terminal::Sink => {
                // Count-only sinks touch nothing but the logical length: a
                // verify-mode final batch is never compacted.
                self.matches += batch.len() as u64;
                if let SinkMode::Collect(limit) = sink {
                    let wanted = limit.saturating_sub(self.samples.len());
                    if wanted > 0 {
                        // The collect sink reads rows: runs end here.
                        batch.flatten();
                        let schema = &plan.segment.schema;
                        let mut row = Vec::with_capacity(batch.arity());
                        for i in 0..batch.len().min(wanted) {
                            row.clear();
                            batch.read_row(i, &mut row);
                            self.samples.push(reorder_row(&row, schema));
                        }
                    }
                }
            }
            Terminal::FeedJoin {
                consumer: _,
                key_positions,
            } => {
                let k = self.router.num_machines();
                // The shuffle needs rows: runs end here, in place (the
                // partitioner would flatten a copy of a borrowed batch).
                batch.flatten();
                // Envelopes are tagged with the *producing* segment id so the
                // consuming join can tell its left input from its right. The
                // selection gather happens inside the partitioner, so the
                // wire batches are dense and carry only surviving rows.
                for (dest, out) in partition_cols_by_key(&batch, key_positions, k)
                    .into_iter()
                    .enumerate()
                {
                    self.push_with_backpressure(dest, plan.segment.id, out, run)?;
                }
            }
        }
        Ok(())
    }

    /// One inter-machine stealing attempt on a draining scan segment
    /// (§5.3): steal scan chunks or queued batches from a peer and run the
    /// chain on them, report that every machine is idle, or report that
    /// peers are still busy (so the dataflow scheduler can visit another
    /// segment instead of blocking).
    fn steal_once(
        &mut self,
        chain: &mut SegmentChain,
        plan: &SegmentPlan,
        seg: &SegmentShared,
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<StealOutcome> {
        let k = seg.queues.len();
        if k <= 1 {
            return Ok(StealOutcome::AllIdle);
        }
        // Drop the idle flag *before* scanning for work: the instant every
        // flag is set is the segment's end-of-stream
        // ([`SegmentShared::idle`]), so a machine must never hold (or be
        // acquiring) work while it advertises idleness.
        seg.idle[self.machine].store(false, Ordering::SeqCst);
        let mut stolen_any = false;
        for offset in 1..k {
            let victim = (self.machine + offset) % k;
            // Prefer stealing unscanned vertices (most work remaining).
            let chunks = seg.scan_pools[victim].steal_half();
            if !chunks.is_empty() {
                let bytes: u64 = chunks
                    .iter()
                    .map(|c| (c.len() * std::mem::size_of::<u32>()) as u64)
                    .sum();
                self.rpc.record_steal(self.machine, bytes);
                self.batches_stolen += chunks.len() as u64;
                seg.scan_pools[self.machine].add_chunks(chunks);
                stolen_any = true;
                break;
            }
            // Otherwise steal buffered batches from the victim's queues,
            // upstream-most first (they carry the most remaining work).
            // `steal_into` transfers the memory accounting with the
            // batches, so cluster-wide `current()` stays conserved.
            for op in 0..seg.queues[victim].len() {
                let (batches, bytes) = seg.queues[victim]
                    .queue(op)
                    .steal_into(seg.queues[self.machine].queue(op));
                if batches == 0 {
                    continue;
                }
                self.rpc.record_steal(self.machine, bytes);
                self.batches_stolen += batches;
                stolen_any = true;
                break;
            }
            if stolen_any {
                break;
            }
        }
        if stolen_any {
            self.trace
                .instant_kv("steal", kv("segment", plan.segment.id as u64));
            self.run_chain(chain, plan, seg, run, sink)?;
            return Ok(StealOutcome::Stole);
        }
        seg.idle[self.machine].store(true, Ordering::SeqCst);
        if seg.idle.iter().all(|f| f.load(Ordering::SeqCst)) || run.is_aborted() {
            return Ok(StealOutcome::AllIdle);
        }
        Ok(StealOutcome::Pending)
    }

    // -----------------------------------------------------------------------
    // Cross-machine Grace partition stealing
    // -----------------------------------------------------------------------

    /// Answers `thief`'s steal request for join segment `segment` — the one
    /// place a request is answered, reached the moment the inbox yields it.
    /// It ships the highest unprobed partition of the join the request
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
        let Some((partition, left, right)) = taken else {
            let nack = ControlMsg::ShipNack { segment };
            self.router.send_control(thief, nack);
            return Ok(());
        };
        self.maybe_panic_at(segment, PanicPoint::Ship);
        let bytes = column_bytes(&left) + column_bytes(&right);
        self.pending_ship_bytes += bytes;
        self.trace.instant_kv(
            "ship_partition",
            kv2("segment", segment as u64, "bytes", bytes),
        );
        self.router.send_control(
            thief,
            ControlMsg::PartitionShip {
                segment,
                partition,
                bytes,
                left,
                right,
            },
        );
        Ok(())
    }

    /// One partition-stealing attempt on a *draining join segment*: probe
    /// partitions adopted into the join, keep waiting on an outstanding
    /// request, ask the next untried peer, or conclude that every machine is
    /// idle. Mirrors [`MachineState::steal_once`], with `PartitionShip`
    /// envelopes instead of shared-queue batches.
    fn steal_join_once(
        &mut self,
        chain: &mut SegmentChain,
        plan: &SegmentPlan,
        seg: &SegmentShared,
        run: &RunShared,
        sink: SinkMode,
    ) -> Result<StealOutcome> {
        let k = seg.queues.len();
        if k <= 1 {
            return Ok(StealOutcome::AllIdle);
        }
        let segment = plan.segment.id;
        if self.source_has_more(&chain.source, segment) {
            // Adopted work in hand: stay visibly non-idle and probe the
            // partitions through the chain like locally-built ones.
            seg.idle[self.machine].store(false, Ordering::SeqCst);
            self.run_chain(chain, plan, seg, run, sink)?;
            return Ok(StealOutcome::Stole);
        }
        if self
            .join_ctl
            .get(&segment)
            .is_some_and(|ctl| ctl.outstanding)
        {
            // A victim owes us a ship or a nack; the idle flag stays down
            // while the answer is in flight so the all-idle gate cannot
            // fire under a ship.
            return Ok(StealOutcome::Pending);
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
            return Ok(StealOutcome::Pending);
        }
        seg.idle[self.machine].store(true, Ordering::SeqCst);
        if seg.idle.iter().all(|f| f.load(Ordering::SeqCst)) || run.is_aborted() {
            return Ok(StealOutcome::AllIdle);
        }
        Ok(StealOutcome::Pending)
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
    fn reorder_row_maps_schema_to_vertex_order() {
        // Schema [v2, v0, v1] with row [20, 0, 10] -> [0, 10, 20].
        let row = [20u32, 0, 10];
        let schema = [2u8, 0, 1];
        assert_eq!(reorder_row(&row, &schema), vec![0, 10, 20]);
    }
}
