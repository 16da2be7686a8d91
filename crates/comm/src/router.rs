//! The router: pushing communication between machines.
//!
//! The paper's router "pushes data to other machines. It manages TCP streams
//! connected to remote machines, with a queue for each connection" (§4.1).
//! Here every machine owns a *bounded, event-driven inbox*: producers
//! [`RouterEndpoint::try_push`] batches tagged with the destination segment
//! and observe backpressure when the inbox is full; consumers demultiplex by
//! segment ([`RouterEndpoint::try_recv_segment`]) and *park* on the inbox's
//! notify handle ([`RouterEndpoint::wait_data`]) instead of spin-draining.
//! The byte volume of every pushed batch is recorded against the sending
//! machine, and the bytes queued in an inbox can be charged to the owning
//! machine's memory accounting through [`QueueAccounting`].
//!
//! This module is the reliable core: inboxes, demultiplexing, notification.
//! A router armed with [`Router::set_transport`] hands its cross-machine
//! data envelopes and partition ships to the fault-injection
//! [`link`](crate::link) instead of delivering them directly; all that shows
//! of it here is that hand-off and the inbox's sequence-number dedup.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::batch::ColBatch;
use crate::link::{Link, SeenSet, TransportConfig};
use crate::stats::ClusterStats;
use crate::MachineId;
use huge_graph::VertexId;
use huge_trace::{Counter, Registry};

/// Router-level flight-recorder counters, shared by every endpoint of one
/// run. Registered once against the run's metrics registry and incremented
/// with relaxed atomic adds next to the existing [`ClusterStats`] sites, so
/// they are live in every trace mode.
#[derive(Clone)]
pub struct RouterTrace {
    /// Cross-machine data batches accepted by a destination inbox.
    pub batches_pushed: Arc<Counter>,
    /// Bytes carried by those batches.
    pub bytes_pushed: Arc<Counter>,
    /// Producer waits caused by a full destination inbox.
    pub backpressure_waits: Arc<Counter>,
    /// Successful retransmits on the lossy transport (data + control).
    pub retransmits: Arc<Counter>,
    /// Cross-machine control messages sent.
    pub control_messages: Arc<Counter>,
}

impl RouterTrace {
    /// Registers the router's metric family on `registry`.
    pub fn register(registry: &Registry) -> RouterTrace {
        RouterTrace {
            batches_pushed: registry.counter(
                "huge_router_batches_pushed_total",
                "Cross-machine data batches accepted by a destination inbox",
            ),
            bytes_pushed: registry.counter(
                "huge_router_bytes_pushed_total",
                "Bytes carried by cross-machine data batches",
            ),
            backpressure_waits: registry.counter(
                "huge_router_backpressure_waits_total",
                "Producer waits on a full destination inbox",
            ),
            retransmits: registry.counter(
                "huge_router_retransmits_total",
                "Successful retransmits on the lossy transport",
            ),
            control_messages: registry.counter(
                "huge_router_control_messages_total",
                "Cross-machine control-plane messages sent",
            ),
        }
    }
}

/// A pushed message: a batch of partial results destined for a segment's
/// inbound channel on some machine.
#[derive(Clone, Debug)]
pub struct PushEnvelope {
    /// Sending machine.
    pub from: MachineId,
    /// Dataflow segment (operator) the batch belongs to.
    pub segment: usize,
    /// The rows, dense (no selection vector crosses the wire).
    pub batch: ColBatch,
}

/// A control-plane message. Control traffic rides the same per-machine
/// inboxes as data but in a separate, unbounded queue: it must never be
/// rejected by backpressure (a full inbox would otherwise deadlock the
/// steal/ack protocol) and never be confused with row-carrying envelopes.
#[derive(Clone, Debug)]
pub enum ControlMsg {
    /// The sender has drained its own Grace build for join `segment` and
    /// asks the receiver for a sealed-but-unprobed partition.
    StealRequest {
        /// The join segment being drained.
        segment: usize,
    },
    /// One sealed Grace partition, each side one vector per column.
    PartitionShip {
        /// The join segment the partition belongs to.
        segment: usize,
        /// Row bytes the shipper still holds charged until the ack arrives.
        bytes: u64,
        /// The left side's columns.
        left: Vec<Vec<VertexId>>,
        /// The right side's columns.
        right: Vec<Vec<VertexId>>,
    },
    /// Negative reply to a [`ControlMsg::StealRequest`]: nothing shippable.
    ShipNack {
        /// The join segment of the declined request.
        segment: usize,
    },
    /// The thief adopted a shipped partition; the shipper may release the
    /// `bytes` it kept charged (allocate-before-release hand-off).
    ShipAck {
        /// The join segment the partition belonged to.
        segment: usize,
        /// The byte charge transferred with the partition.
        bytes: u64,
    },
}

impl ControlMsg {
    /// Modelled wire size: a fixed header plus any shipped partition payload.
    pub fn byte_size(&self) -> u64 {
        match self {
            ControlMsg::PartitionShip { left, right, .. } => {
                let values: usize = left.iter().chain(right).map(Vec::len).sum();
                16 + (values * std::mem::size_of::<VertexId>()) as u64
            }
            _ => 16,
        }
    }

    /// The join segment the message is about.
    pub(crate) fn segment(&self) -> usize {
        match *self {
            ControlMsg::StealRequest { segment }
            | ControlMsg::PartitionShip { segment, .. }
            | ControlMsg::ShipNack { segment }
            | ControlMsg::ShipAck { segment, .. } => segment,
        }
    }
}

/// A delivered control message with its sender.
#[derive(Clone, Debug)]
pub struct ControlEnvelope {
    /// Sending machine.
    pub from: MachineId,
    /// The message.
    pub msg: ControlMsg,
}

/// Byte accounting hook for inbox contents, implemented by the engine's
/// memory tracker so queued shuffle data counts towards the paper's `M`.
pub trait QueueAccounting: Send + Sync {
    /// Records `bytes` entering the queue.
    fn allocate(&self, bytes: u64);
    /// Records `bytes` leaving the queue.
    fn release(&self, bytes: u64);
}

/// What an inbox accepts: a data envelope for its bounded per-segment
/// queues or a control envelope for its unbounded control queue.
#[derive(Clone)]
pub(crate) enum Frame {
    Data(PushEnvelope),
    Control(ControlEnvelope),
}

impl Frame {
    fn from(&self) -> MachineId {
        match self {
            Frame::Data(env) => env.from,
            Frame::Control(env) => env.from,
        }
    }

    pub(crate) fn segment(&self) -> usize {
        match self {
            Frame::Data(env) => env.segment,
            Frame::Control(env) => env.msg.segment(),
        }
    }

    fn byte_size(&self) -> u64 {
        match self {
            Frame::Data(env) => env.batch.byte_size(),
            Frame::Control(env) => env.msg.byte_size(),
        }
    }
}

/// Outcome of offering a frame to an inbox.
pub(crate) enum Accept {
    /// Enqueued (and its sequence number, if any, recorded).
    Ok,
    /// At capacity; the frame is handed back for retry.
    Full(Frame),
    /// Sequence number already accepted once — a duplicate; dropped.
    Stale,
}

struct InboxState {
    /// Per-segment demultiplexed queues (replaces consumer-side stashing).
    by_segment: BTreeMap<usize, VecDeque<PushEnvelope>>,
    /// Control-plane queue: unbounded, drained separately from data so the
    /// steal/ship/ack protocol can always make progress.
    control: VecDeque<ControlEnvelope>,
    /// Per-sender sequence dedup (only consulted for frames carrying a
    /// sequence number, i.e. those that crossed the link).
    seen: HashMap<MachineId, SeenSet>,
    accounting: Option<Arc<dyn QueueAccounting>>,
    /// [`RouterEndpoint::wake`] nudges received so far: the epoch a parked
    /// owner compares against what it read before its readiness checks.
    wakes: u64,
}

/// One machine's bounded inbox.
struct Inbox {
    state: Mutex<InboxState>,
    /// Queued rows, readable without the lock for fast emptiness/fullness
    /// checks (writes happen under the lock).
    rows: AtomicUsize,
    /// Queued control messages (same lock-free readability as `rows`).
    control_msgs: AtomicUsize,
    /// The *effective* capacity: initialised from the configuration and
    /// adjustable at runtime (the memory governor shrinks it under pressure
    /// and restores it when pressure clears).
    capacity_rows: AtomicUsize,
    /// Signalled when data arrives (or the owner is nudged via `wake`).
    data: Condvar,
    /// Signalled when space is freed.
    space: Condvar,
}

impl Inbox {
    fn new(capacity_rows: usize) -> Self {
        Inbox {
            state: Mutex::new(InboxState {
                by_segment: BTreeMap::new(),
                control: VecDeque::new(),
                seen: HashMap::new(),
                accounting: None,
                wakes: 0,
            }),
            rows: AtomicUsize::new(0),
            control_msgs: AtomicUsize::new(0),
            capacity_rows: AtomicUsize::new(capacity_rows.max(1)),
            data: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Enqueues a frame. A data envelope bounces off an inbox at capacity
    /// unless `force`d (a machine's pushes to itself must never block); a
    /// control envelope is never bounded, or the steal/ack protocol could
    /// wedge behind a full inbox. A frame whose sequence number was accepted
    /// once already is [`Accept::Stale`] regardless of capacity. Queued bytes
    /// — shipped partition payloads included — are charged to the owner's
    /// accounting, so in-flight data counts towards `M`.
    fn push(&self, frame: Frame, seq: Option<u64>, force: bool) -> Accept {
        {
            let mut state = self.state.lock().unwrap();
            if let Some(seq) = seq {
                let seen = state.seen.get(&frame.from());
                if seen.is_some_and(|seen| seen.contains(seq)) {
                    return Accept::Stale;
                }
            }
            // "Overflow by at most one batch": accept whenever the inbox is
            // below capacity so a single oversized batch cannot wedge.
            if matches!(frame, Frame::Data(_))
                && !force
                && self.rows.load(Ordering::Relaxed) >= self.capacity_rows.load(Ordering::Relaxed)
            {
                return Accept::Full(frame);
            }
            if let Some(seq) = seq {
                state.seen.entry(frame.from()).or_default().insert(seq);
            }
            if let Some(acct) = &state.accounting {
                acct.allocate(frame.byte_size());
            }
            match frame {
                Frame::Data(env) => {
                    self.rows.fetch_add(env.batch.len(), Ordering::Relaxed);
                    state
                        .by_segment
                        .entry(env.segment)
                        .or_default()
                        .push_back(env);
                }
                Frame::Control(env) => {
                    state.control.push_back(env);
                    self.control_msgs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.data.notify_all();
        Accept::Ok
    }

    /// Dequeues the next envelope — of `segment` if given, else of the
    /// lowest-numbered segment with data.
    fn pop(&self, segment: Option<usize>) -> Option<PushEnvelope> {
        let env = {
            let mut state = self.state.lock().unwrap();
            let key = match segment {
                Some(s) => {
                    if state.by_segment.get(&s).is_some_and(|q| !q.is_empty()) {
                        s
                    } else {
                        return None;
                    }
                }
                None => *state
                    .by_segment
                    .iter()
                    .find(|(_, q)| !q.is_empty())
                    .map(|(k, _)| k)?,
            };
            let queue = state.by_segment.get_mut(&key).expect("key just found");
            let env = queue.pop_front().expect("queue non-empty");
            if queue.is_empty() {
                state.by_segment.remove(&key);
            }
            self.rows.fetch_sub(env.batch.len(), Ordering::Relaxed);
            if let Some(acct) = &state.accounting {
                acct.release(env.batch.byte_size());
            }
            env
        };
        self.space.notify_all();
        Some(env)
    }

    /// Dequeues the next control message, if any.
    fn pop_control(&self) -> Option<ControlEnvelope> {
        let mut state = self.state.lock().unwrap();
        let env = state.control.pop_front()?;
        self.control_msgs.fetch_sub(1, Ordering::Relaxed);
        if let Some(acct) = &state.accounting {
            acct.release(env.msg.byte_size());
        }
        Some(env)
    }

    fn has_any(&self) -> bool {
        self.rows.load(Ordering::Relaxed) > 0 || self.control_msgs.load(Ordering::Relaxed) > 0
    }

    /// Parks until data (or a control message) is queued, a `wake` nudge
    /// arrives, or the timeout elapses — at once if a nudge arrived since the
    /// owner read wake epoch `seen`. Returns `true` when something is
    /// available.
    fn wait_data(&self, seen: u64, timeout: Duration) -> bool {
        let state = self.state.lock().unwrap();
        if !self.has_any() && state.wakes == seen {
            let _unused = self.data.wait_timeout(state, timeout).unwrap();
        }
        self.has_any()
    }

    /// Parks until space frees up or the timeout elapses.
    fn wait_space(&self, timeout: Duration) {
        let state = self.state.lock().unwrap();
        if self.rows.load(Ordering::Relaxed) < self.capacity_rows.load(Ordering::Relaxed) {
            return;
        }
        let _unused = self.space.wait_timeout(state, timeout).unwrap();
    }
}

/// The cluster-wide router: one bounded inbox per machine.
pub struct Router {
    inboxes: Vec<Arc<Inbox>>,
    stats: ClusterStats,
    link: Option<Arc<Link>>,
    trace: Option<RouterTrace>,
}

impl Router {
    /// Creates a router for `k` machines with effectively unbounded inboxes.
    pub fn new(k: usize, stats: ClusterStats) -> Self {
        Router::with_capacity(k, stats, usize::MAX / 2)
    }

    /// Creates a router whose per-machine inboxes hold at most
    /// `capacity_rows` rows before producers see backpressure.
    pub fn with_capacity(k: usize, stats: ClusterStats, capacity_rows: usize) -> Self {
        Router {
            inboxes: (0..k)
                .map(|_| Arc::new(Inbox::new(capacity_rows)))
                .collect(),
            stats,
            link: None,
            trace: None,
        }
    }

    /// Attaches the flight-recorder counter family. Call before handing out
    /// endpoints; endpoints minted earlier keep recording nothing.
    pub fn set_trace(&mut self, trace: RouterTrace) {
        self.trace = Some(trace);
    }

    /// Arms the fault-injection [`link`](crate::link): cross-machine data
    /// envelopes and `PartitionShip`s get sequence numbers, meet the
    /// configured faults, and are retransmitted until the receiving inbox
    /// has accepted each exactly once. Call before handing out endpoints.
    pub fn set_transport(&mut self, cfg: TransportConfig) {
        self.link = Some(Arc::new(Link::new(self.inboxes.len(), cfg)));
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.inboxes.len()
    }

    /// Charges the bytes queued in machine `m`'s inbox to `accounting`.
    pub fn set_accounting(&self, m: MachineId, accounting: Arc<dyn QueueAccounting>) {
        self.inboxes[m].state.lock().unwrap().accounting = Some(accounting);
    }

    /// Creates the endpoint owned by machine `m`.
    pub fn endpoint(&self, m: MachineId) -> RouterEndpoint {
        RouterEndpoint {
            machine: m,
            inboxes: self.inboxes.clone(),
            stats: self.stats.clone(),
            link: self.link.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// One machine's view of the router: it can push batches to any machine and
/// drain (or park on) its own inbox.
#[derive(Clone)]
pub struct RouterEndpoint {
    pub(crate) machine: MachineId,
    inboxes: Vec<Arc<Inbox>>,
    pub(crate) stats: ClusterStats,
    pub(crate) link: Option<Arc<Link>>,
    pub(crate) trace: Option<RouterTrace>,
}

impl RouterEndpoint {
    /// The machine owning this endpoint.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of machines reachable through the router.
    pub fn num_machines(&self) -> usize {
        self.inboxes.len()
    }

    /// Pushes a batch to `to`, charging its bytes to this machine. Blocks
    /// while the destination inbox is full (backpressure); pushes to the own
    /// machine never block. Use [`RouterEndpoint::try_push`] on paths that
    /// must make progress while full (e.g. absorbing their own inbox).
    pub fn push(&self, to: MachineId, segment: usize, batch: ColBatch) {
        let mut pending = batch;
        while let Err(back) = self.try_push(to, segment, pending) {
            pending = back;
            if let Some(trace) = &self.trace {
                trace.backpressure_waits.inc();
            }
            self.inboxes[to].wait_space(Duration::from_millis(1));
        }
    }

    /// Non-blocking push: on backpressure the batch is handed back so the
    /// caller can drain its own inbox (or otherwise make progress) and retry.
    /// The traffic is charged only once the push is accepted. On a router
    /// with a [`link`](crate::link) armed an accepted cross-machine push may
    /// still be in flight — [`RouterEndpoint::flush_link`] is the delivery
    /// barrier.
    pub fn try_push(&self, to: MachineId, segment: usize, batch: ColBatch) -> Result<(), ColBatch> {
        if batch.is_empty() {
            return Ok(());
        }
        let frame = Frame::Data(PushEnvelope {
            from: self.machine,
            segment,
            batch,
        });
        let accept = match &self.link {
            Some(link) if to != self.machine => link.offer(self, to, frame),
            _ => self.deliver(to, frame, None),
        };
        match accept {
            Accept::Full(Frame::Data(env)) => Err(env.batch),
            _ => Ok(()),
        }
    }

    /// Sends a control message to `to`. Control sends never observe
    /// backpressure (the queue is unbounded) and wake a parked receiver.
    /// Shipped partition payloads are charged as pushed bytes like data, and
    /// like data a cross-machine `PartitionShip` rides the
    /// [`link`](crate::link) when one is armed; every other control message
    /// is always delivered directly.
    pub fn send_control(&self, to: MachineId, msg: ControlMsg) {
        let ship = matches!(msg, ControlMsg::PartitionShip { .. });
        let frame = Frame::Control(ControlEnvelope {
            from: self.machine,
            msg,
        });
        match &self.link {
            Some(link) if ship && to != self.machine => link.offer(self, to, frame),
            _ => self.deliver(to, frame, None),
        };
    }

    /// Hands one frame to `to`'s inbox — `seq` is its sequence number if it
    /// crossed the link — and charges it as traffic once accepted (rejected
    /// attempts move no data; a machine's frames to itself are free).
    pub(crate) fn deliver(&self, to: MachineId, frame: Frame, seq: Option<u64>) -> Accept {
        let remote = to != self.machine;
        let (bytes, data) = (frame.byte_size(), matches!(frame, Frame::Data(_)));
        let accept = self.inboxes[to].push(frame, seq, !remote);
        if remote && matches!(accept, Accept::Ok) {
            self.stats.machine(self.machine).record_push(bytes);
            if let Some(trace) = &self.trace {
                if data {
                    trace.batches_pushed.inc();
                    trace.bytes_pushed.add(bytes);
                } else {
                    trace.control_messages.inc();
                }
            }
        }
        accept
    }

    /// Non-blocking receive of the next control message, if any.
    pub fn try_recv_control(&self) -> Option<ControlEnvelope> {
        self.inboxes[self.machine].pop_control()
    }

    /// Non-blocking receive of the next pushed batch, if any.
    pub fn try_recv(&self) -> Option<PushEnvelope> {
        self.inboxes[self.machine].pop(None)
    }

    /// Non-blocking receive restricted to one segment's queue.
    pub fn try_recv_segment(&self, segment: usize) -> Option<PushEnvelope> {
        self.inboxes[self.machine].pop(Some(segment))
    }

    /// Drains every batch currently queued in the inbox.
    pub fn drain(&self) -> Vec<PushEnvelope> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv() {
            out.push(env);
        }
        out
    }

    /// Drains every queued batch belonging to `segment`.
    pub fn drain_segment(&self, segment: usize) -> Vec<PushEnvelope> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv_segment(segment) {
            out.push(env);
        }
        out
    }

    /// `true` when machine `to`'s inbox is at or over capacity (lock-free).
    /// Forced local pushes can overfill an inbox past its bound; callers
    /// that force (see [`RouterEndpoint::push`]) should poll this and drain.
    pub fn inbox_full(&self, to: MachineId) -> bool {
        self.inboxes[to].rows.load(Ordering::Relaxed)
            >= self.inboxes[to].capacity_rows.load(Ordering::Relaxed)
    }

    /// The effective row capacity of machine `to`'s inbox.
    pub fn inbox_capacity(&self, to: MachineId) -> usize {
        self.inboxes[to].capacity_rows.load(Ordering::Relaxed)
    }

    /// Adjusts the effective row capacity of machine `to`'s inbox at runtime
    /// (floored at 1). Shrinking makes producers observe backpressure
    /// earlier through the existing [`RouterEndpoint::try_push`] /
    /// [`RouterEndpoint::wait_space`] path; growing wakes producers parked
    /// on a previously-full inbox. This is the memory governor's actuator
    /// for in-flight shuffle data.
    pub fn set_inbox_capacity(&self, to: MachineId, rows: usize) {
        self.inboxes[to]
            .capacity_rows
            .store(rows.max(1), Ordering::Relaxed);
        self.inboxes[to].space.notify_all();
    }

    /// `true` when this machine's inbox holds data or control messages
    /// (lock-free check).
    pub fn has_data(&self) -> bool {
        self.inboxes[self.machine].has_any()
    }

    /// The count of [`RouterEndpoint::wake`] nudges this machine has
    /// received. Read it *before* checking whatever a park waits on and
    /// hand it to [`RouterEndpoint::wait_data`]: a nudge that lands between
    /// those checks and the park then cuts the park short instead of being
    /// lost.
    pub fn wake_epoch(&self) -> u64 {
        self.inboxes[self.machine].state.lock().unwrap().wakes
    }

    /// Parks the calling thread until data arrives in this machine's inbox,
    /// a [`RouterEndpoint::wake`] nudge lands, or `timeout` elapses; returns
    /// at once if a nudge landed since [`RouterEndpoint::wake_epoch`]
    /// returned `seen`. Returns `true` when data is available — the
    /// event-driven replacement for busy-draining `try_recv`.
    pub fn wait_data(&self, seen: u64, timeout: Duration) -> bool {
        self.inboxes[self.machine].wait_data(seen, timeout)
    }

    /// Parks until machine `to`'s inbox has room (or `timeout` elapses).
    pub fn wait_space(&self, to: MachineId, timeout: Duration) {
        if let Some(trace) = &self.trace {
            trace.backpressure_waits.inc();
        }
        self.inboxes[to].wait_space(timeout)
    }

    /// Wakes machine `to` if it is parked in [`RouterEndpoint::wait_data`]
    /// (used to re-check termination conditions without data arriving). The
    /// nudge is counted, so a machine that has not parked yet parks not at
    /// all.
    pub fn wake(&self, to: MachineId) {
        self.inboxes[to].state.lock().unwrap().wakes += 1;
        self.inboxes[to].data.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(vals: &[u32]) -> ColBatch {
        ColBatch::from_columns(vec![vals.to_vec()])
    }

    #[test]
    fn push_and_receive() {
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats.clone());
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        a.push(1, 7, batch(&[1, 2, 3]));
        let got = b.try_recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(got.segment, 7);
        assert_eq!(got.batch.len(), 3);
        assert_eq!(stats.machine(0).snapshot().bytes_pushed, 12);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn local_pushes_are_free() {
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats.clone());
        let a = router.endpoint(0);
        a.push(0, 1, batch(&[9]));
        assert_eq!(stats.total().bytes_pushed, 0);
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn empty_batches_are_dropped() {
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats.clone());
        let a = router.endpoint(0);
        a.push(1, 0, ColBatch::new(2));
        assert!(router.endpoint(1).try_recv().is_none());
    }

    #[test]
    fn drain_collects_everything() {
        let stats = ClusterStats::new(3);
        let router = Router::new(3, stats);
        let a = router.endpoint(0);
        let c = router.endpoint(2);
        for i in 0..5 {
            a.push(2, i, batch(&[i as u32]));
        }
        assert_eq!(c.drain().len(), 5);
        assert!(c.drain().is_empty());
    }

    #[test]
    fn concurrent_pushes_are_all_delivered() {
        let stats = ClusterStats::new(4);
        let router = Router::new(4, stats);
        let target = router.endpoint(3);
        std::thread::scope(|s| {
            for m in 0..3 {
                let ep = router.endpoint(m);
                s.spawn(move || {
                    for i in 0..100 {
                        ep.push(3, 0, batch(&[i]));
                    }
                });
            }
        });
        assert_eq!(target.drain().len(), 300);
    }

    #[test]
    fn segment_demux_pops_only_the_requested_segment() {
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats);
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        a.push(1, 5, batch(&[1]));
        a.push(1, 9, batch(&[2, 3]));
        a.push(1, 5, batch(&[4]));
        assert!(b.try_recv_segment(7).is_none());
        let first = b.try_recv_segment(9).unwrap();
        assert_eq!(first.batch.len(), 2);
        assert_eq!(b.drain_segment(5).len(), 2);
        assert!(b.try_recv_segment(5).is_none());
        assert!(!b.has_data());
    }

    #[test]
    fn try_push_observes_capacity() {
        let stats = ClusterStats::new(2);
        let router = Router::with_capacity(2, stats.clone(), 4);
        let a = router.endpoint(0);
        // Below capacity: accepted (and may overflow by one batch).
        assert!(a.try_push(1, 0, batch(&[1, 2, 3])).is_ok());
        assert!(a.try_push(1, 0, batch(&[4, 5])).is_ok());
        // At/over capacity: handed back.
        let rejected = a.try_push(1, 0, batch(&[6])).unwrap_err();
        assert_eq!(rejected.len(), 1);
        // Local pushes bypass the bound so a machine can never wedge itself.
        assert!(a.try_push(0, 0, batch(&[7; 10])).is_ok());
        // Popping frees space again.
        let b = router.endpoint(1);
        while b.try_recv().is_some() {}
        assert!(a.try_push(1, 0, batch(&[6])).is_ok());
    }

    #[test]
    fn inbox_capacity_is_adjustable_at_runtime() {
        let stats = ClusterStats::new(2);
        let router = Router::with_capacity(2, stats, 100);
        let a = router.endpoint(0);
        assert_eq!(a.inbox_capacity(1), 100);
        assert!(a.try_push(1, 0, batch(&[1, 2, 3])).is_ok());
        // Shrink below the queued volume: further pushes bounce.
        a.set_inbox_capacity(1, 2);
        assert_eq!(a.inbox_capacity(1), 2);
        assert!(a.try_push(1, 0, batch(&[4])).is_err());
        // Growing re-opens the inbox without draining.
        a.set_inbox_capacity(1, 100);
        assert!(a.try_push(1, 0, batch(&[4])).is_ok());
        // The floor keeps a shrunken inbox able to accept one batch at a
        // time once it drains.
        a.set_inbox_capacity(1, 0);
        assert_eq!(a.inbox_capacity(1), 1);
        let b = router.endpoint(1);
        while b.try_recv().is_some() {}
        assert!(a.try_push(1, 0, batch(&[9, 9])).is_ok());
    }

    #[test]
    fn queue_accounting_tracks_inbox_bytes() {
        struct Counter(AtomicUsize);
        impl QueueAccounting for Counter {
            fn allocate(&self, bytes: u64) {
                self.0.fetch_add(bytes as usize, Ordering::SeqCst);
            }
            fn release(&self, bytes: u64) {
                self.0.fetch_sub(bytes as usize, Ordering::SeqCst);
            }
        }
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats);
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        router.set_accounting(1, Arc::clone(&counter) as Arc<dyn QueueAccounting>);
        let a = router.endpoint(0);
        a.push(1, 0, batch(&[1, 2, 3]));
        assert_eq!(counter.0.load(Ordering::SeqCst), 12);
        router.endpoint(1).drain();
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn control_messages_bypass_capacity_and_wake_the_receiver() {
        let stats = ClusterStats::new(2);
        // Capacity 1: the data plane is wedged shut after one batch.
        let router = Router::with_capacity(2, stats.clone(), 1);
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        assert!(a.try_push(1, 0, batch(&[1, 2])).is_ok());
        assert!(a.try_push(1, 0, batch(&[3])).is_err());
        // Control traffic still flows and is visible to has_data/wait_data.
        a.send_control(1, ControlMsg::StealRequest { segment: 4 });
        a.send_control(
            1,
            ControlMsg::PartitionShip {
                segment: 9,
                bytes: 8,
                left: vec![vec![1]],
                right: vec![vec![2]],
            },
        );
        assert!(b.has_data());
        assert!(b.wait_data(b.wake_epoch(), Duration::from_millis(1)));
        let first = b.try_recv_control().unwrap();
        assert_eq!(first.from, 0);
        assert!(matches!(first.msg, ControlMsg::StealRequest { segment: 4 }));
        let ship = b.try_recv_control().unwrap();
        match ship.msg {
            ControlMsg::PartitionShip {
                segment,
                bytes,
                left,
                right,
            } => {
                assert_eq!((segment, bytes), (9, 8));
                assert_eq!((left, right), (vec![vec![1]], vec![vec![2]]));
            }
            other => panic!("expected a ship, got {other:?}"),
        }
        assert!(b.try_recv_control().is_none());
        // Control pushes are charged as traffic (header + payload).
        assert!(stats.machine(0).snapshot().bytes_pushed >= 16 + 24);
    }

    #[test]
    fn control_payloads_are_charged_to_inbox_accounting() {
        struct Counter(AtomicUsize);
        impl QueueAccounting for Counter {
            fn allocate(&self, bytes: u64) {
                self.0.fetch_add(bytes as usize, Ordering::SeqCst);
            }
            fn release(&self, bytes: u64) {
                self.0.fetch_sub(bytes as usize, Ordering::SeqCst);
            }
        }
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats);
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        router.set_accounting(1, Arc::clone(&counter) as Arc<dyn QueueAccounting>);
        let a = router.endpoint(0);
        a.send_control(
            1,
            ControlMsg::PartitionShip {
                segment: 0,
                bytes: 8,
                left: vec![vec![0]],
                right: vec![vec![0]],
            },
        );
        assert_eq!(counter.0.load(Ordering::SeqCst), 16 + 8);
        router.endpoint(1).try_recv_control().unwrap();
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parked_consumer_wakes_on_push() {
        let stats = ClusterStats::new(2);
        let router = Router::new(2, stats);
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        std::thread::scope(|s| {
            let handle = s.spawn(move || {
                let mut got = 0;
                while got < 3 {
                    if b.wait_data(b.wake_epoch(), Duration::from_millis(50)) {
                        while b.try_recv().is_some() {
                            got += 1;
                        }
                    }
                }
                got
            });
            for i in 0..3 {
                a.push(1, 0, batch(&[i]));
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(handle.join().unwrap(), 3);
        });
    }

    #[test]
    fn a_wake_before_the_park_is_not_lost() {
        let router = Router::new(2, ClusterStats::new(2));
        let (a, b) = (router.endpoint(0), router.endpoint(1));
        // `b` reads the epoch and checks its conditions; a peer's nudge lands
        // before `b` parks. The park must not sleep through it.
        let seen = b.wake_epoch();
        a.wake(1);
        let start = std::time::Instant::now();
        assert!(!b.wait_data(seen, Duration::from_secs(2)));
        assert!(start.elapsed() < Duration::from_millis(200));
    }
}
