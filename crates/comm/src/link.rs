//! The fault-injection link: an unreliable transport laid over the router.
//!
//! Arming a [`TransportConfig`] on a [`Router`](crate::Router) sends every
//! cross-machine data envelope and every `PartitionShip` through this module
//! instead of straight into the destination inbox. Each such frame gets a
//! per-sender sequence number and meets the faults armed on its (machine,
//! segment): it may be dropped (and retransmitted after a backoff),
//! delivered twice, parked in a reorder window, or held behind a slow gate.
//! The receiving inbox deduplicates on `(sender, sequence number)`, so
//! whatever the link does a frame is accepted exactly once — or the sender
//! runs out of attempts and the run fails with a transport error.
//!
//! A sender keeps one queue of frames it still owes (`InFlight`); one
//! function offers a frame (`Link::offer`) and one loop services the queue
//! (`Link::pump`). All fates derive from [`TransportConfig::seed`], so a
//! fault plan replays identically for a fixed per-sender send order.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::router::{Accept, Frame, RouterEndpoint};
use crate::MachineId;

/// What an armed [`LinkFault`] does to matching frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Lose the frame in transit with probability `ppm` / 1 000 000
    /// (re-drawn independently per delivery attempt).
    Drop {
        /// Loss probability in parts per million.
        ppm: u32,
    },
    /// Deliver the frame twice with probability `ppm` / 1 000 000; the
    /// receiver's sequence dedup rejects the copy.
    Duplicate {
        /// Duplication probability in parts per million.
        ppm: u32,
    },
    /// Park frames at the sender and release them in a seeded shuffle once
    /// `window` are waiting (out-of-order delivery).
    Reorder {
        /// Shuffle window in frames.
        window: usize,
    },
    /// Hold every frame back `delay` before offering it for delivery.
    Slow {
        /// Added one-way latency.
        delay: Duration,
    },
}

/// One armed fault on the frames machine `machine` sends for dataflow
/// segment `segment`. `Drop`/`Duplicate` hit data envelopes and partition
/// ships alike; `Reorder`/`Slow` gate data envelopes only — a ship answers a
/// thief that is waiting for it, and nothing would flush a gate for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// The sending machine whose link is faulty.
    pub machine: MachineId,
    /// The dataflow segment whose frames the fault matches.
    pub segment: usize,
    /// What happens to matching frames.
    pub kind: LinkFaultKind,
}

/// Configuration of the link: the armed faults, the seed behind their
/// fates, and the sender's bounded exponential retransmit backoff.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Seed behind every drop/duplicate fate and reorder shuffle.
    pub seed: u64,
    /// Armed link faults (empty = reliable but sequence-numbered).
    pub faults: Vec<LinkFault>,
    /// Delivery attempts per frame before the sender gives up and the run
    /// fails with a transport error.
    pub max_attempts: u32,
    /// Backoff before the first retransmit; doubles per further attempt.
    pub base_backoff: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            seed: 0,
            faults: Vec::new(),
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
        }
    }
}

const SALT_DROP: u64 = 0xD509;
const SALT_DUP: u64 = 0xD0B1;
const SALT_SHUFFLE: u64 = 0x5EED;

/// Exponential backoff before retransmit attempt `attempt` (capped so the
/// worst case stays well under a second with the default base).
fn backoff(base: Duration, attempt: u32) -> Duration {
    base * 2u32.saturating_pow(attempt.saturating_sub(1).min(7))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic draw for one (frame, attempt) pair: hashes the seed with
/// the frame identity so the same plan replays identically.
fn fate(seed: u64, from: MachineId, seq: u64, attempt: u32, salt: u64) -> u64 {
    splitmix64(
        seed ^ splitmix64(from as u64 ^ salt.rotate_left(17))
            ^ splitmix64(seq.wrapping_mul(0x9E37).wrapping_add(attempt as u64)),
    )
}

/// Receiver-side dedup state for one sender: a watermark below which every
/// sequence number has been accepted, plus the sparse set of accepted
/// numbers above it (out-of-order arrivals under `Reorder`).
#[derive(Default)]
pub(crate) struct SeenSet {
    watermark: u64,
    above: BTreeSet<u64>,
}

impl SeenSet {
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq < self.watermark || self.above.contains(&seq)
    }

    pub(crate) fn insert(&mut self, seq: u64) {
        if seq < self.watermark || !self.above.insert(seq) {
            return;
        }
        while self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
    }
}

/// A frame the sender still owes its receiver.
struct InFlight {
    to: MachineId,
    frame: Frame,
    seq: u64,
    /// Delivery attempts made so far (a bounce off a full inbox is not one).
    attempts: u32,
    /// When to offer it next: a slow gate's release, a retransmit's backoff,
    /// a bounce's retry. `None` parks the frame in a reorder window until
    /// the window fills or a flush opens it.
    due: Option<Instant>,
}

/// Per-sender link state (owned by the sending machine's thread; the mutex
/// only makes the shared endpoint `Sync`).
#[derive(Default)]
struct Sender {
    next_seq: u64,
    in_flight: Vec<InFlight>,
    shuffles: u64,
}

/// The strongest fault of each kind armed on one (sender, segment).
#[derive(Default)]
struct Armed {
    drop_ppm: u32,
    dup_ppm: u32,
    slow: Option<Duration>,
    window: Option<usize>,
}

/// Outcome of one delivery attempt.
enum Attempt {
    /// Accepted by the receiver (or found to be a stale copy).
    Done,
    /// Lost to a drop fate; due again after its backoff.
    Retry(InFlight),
    /// Receiver inbox at capacity; the attempt was not burnt.
    Full(InFlight),
}

/// The link state of one router: configuration plus one sender per machine.
pub(crate) struct Link {
    cfg: TransportConfig,
    senders: Vec<Mutex<Sender>>,
}

impl Link {
    pub(crate) fn new(k: usize, cfg: TransportConfig) -> Self {
        Link {
            cfg,
            senders: (0..k).map(|_| Mutex::new(Sender::default())).collect(),
        }
    }

    fn armed(&self, from: MachineId, frame: &Frame) -> Armed {
        let gated = matches!(frame, Frame::Data(_));
        let mut armed = Armed::default();
        for fault in &self.cfg.faults {
            if fault.machine != from || fault.segment != frame.segment() {
                continue;
            }
            match fault.kind {
                LinkFaultKind::Drop { ppm } => armed.drop_ppm = armed.drop_ppm.max(ppm),
                LinkFaultKind::Duplicate { ppm } => armed.dup_ppm = armed.dup_ppm.max(ppm),
                LinkFaultKind::Slow { delay } if gated => armed.slow = armed.slow.max(Some(delay)),
                LinkFaultKind::Reorder { window } if gated => {
                    armed.window = armed.window.max(Some(window))
                }
                LinkFaultKind::Slow { .. } | LinkFaultKind::Reorder { .. } => {}
            }
        }
        armed
    }

    fn sender(&self, machine: MachineId) -> MutexGuard<'_, Sender> {
        self.senders[machine]
            .lock()
            .expect("a machine thread panicked while holding its link sender state")
    }

    /// Takes one frame onto the link: behind a gate if one is armed,
    /// otherwise straight into its first delivery attempt. A frame the
    /// receiver's full inbox rejects on that *first* attempt is handed back
    /// unsent (plain backpressure, no sequence number consumed); once
    /// accepted here, delivery is guaranteed — or the sender's next
    /// [`RouterEndpoint::pump_link`] errors.
    pub(crate) fn offer(&self, ep: &RouterEndpoint, to: MachineId, frame: Frame) -> Accept {
        let mut s = self.sender(ep.machine);
        let armed = self.armed(ep.machine, &frame);
        let now = Instant::now();
        let f = InFlight {
            to,
            frame,
            seq: s.next_seq,
            attempts: 0,
            due: armed.slow.map(|delay| now + delay),
        };
        if armed.slow.is_some() || armed.window.is_some() {
            s.next_seq += 1;
            s.in_flight.push(f);
            if armed.window.is_some() {
                // Opens the window if this frame filled it.
                self.pump(ep, &mut s, false);
            }
            return Accept::Ok;
        }
        match self.attempt(ep, f, now) {
            Attempt::Full(f) => return Accept::Full(f.frame),
            Attempt::Retry(f) => s.in_flight.push(f),
            Attempt::Done => {}
        }
        s.next_seq += 1;
        Accept::Ok
    }

    /// One delivery attempt, with the link's drop/duplicate fates drawn for
    /// this (frame, attempt).
    fn attempt(&self, ep: &RouterEndpoint, mut f: InFlight, now: Instant) -> Attempt {
        let armed = self.armed(ep.machine, &f.frame);
        let sender = ep.stats.machine(ep.machine);
        f.attempts += 1;
        let draw = |salt| fate(self.cfg.seed, ep.machine, f.seq, f.attempts, salt) % 1_000_000;
        if draw(SALT_DROP) < armed.drop_ppm as u64 {
            sender.record_transport_drop();
            f.due = Some(now + backoff(self.cfg.base_backoff, f.attempts));
            return Attempt::Retry(f);
        }
        let copy = (draw(SALT_DUP) < armed.dup_ppm as u64).then(|| f.frame.clone());
        match ep.deliver(f.to, f.frame, Some(f.seq)) {
            Accept::Ok => {
                if f.attempts > 1 {
                    sender.record_retransmit();
                    if let Some(trace) = &ep.trace {
                        trace.retransmits.inc();
                    }
                }
                if let Some(copy) = copy {
                    // The injected duplicate: the receiver's dedup takes it.
                    sender.record_transport_dup();
                    if let Accept::Stale = ep.deliver(f.to, copy, Some(f.seq)) {
                        ep.stats.machine(f.to).record_dedup_drop();
                    }
                }
                Attempt::Done
            }
            Accept::Stale => {
                ep.stats.machine(f.to).record_dedup_drop();
                Attempt::Done
            }
            Accept::Full(frame) => {
                // Backpressure, not loss: retry soon, same attempt number.
                f.frame = frame;
                f.attempts -= 1;
                f.due = Some(now + Duration::from_millis(1));
                Attempt::Full(f)
            }
        }
    }

    /// Services the sender's queue: offers every frame that has come due (an
    /// expired backoff, an opened slow gate, a full reorder window) in a
    /// seeded shuffle. `flush` also opens every gate that has not — the
    /// delivery barrier — while retransmits keep their backoff. A frame out
    /// of attempts stays queued for [`RouterEndpoint::pump_link`] to report.
    fn pump(&self, ep: &RouterEndpoint, s: &mut Sender, flush: bool) {
        let now = Instant::now();
        let parked = s.in_flight.iter().filter(|f| f.due.is_none()).count();
        let (mut ready, waiting): (Vec<_>, Vec<_>) =
            std::mem::take(&mut s.in_flight).into_iter().partition(|f| {
                f.attempts < self.cfg.max_attempts
                    && match f.due {
                        Some(at) => at <= now || (flush && f.attempts == 0),
                        None => {
                            let window = self.armed(ep.machine, &f.frame).window;
                            flush || window.is_none_or(|w| parked >= w)
                        }
                    }
            });
        s.in_flight = waiting;
        if ready.len() > 1 {
            s.shuffles += 1;
        }
        for i in (1..ready.len()).rev() {
            let draw = fate(
                self.cfg.seed,
                ep.machine,
                s.shuffles,
                i as u32,
                SALT_SHUFFLE,
            );
            ready.swap(i, (draw % (i as u64 + 1)) as usize);
        }
        for f in ready {
            match self.attempt(ep, f, now) {
                Attempt::Done => {}
                Attempt::Retry(f) | Attempt::Full(f) => s.in_flight.push(f),
            }
        }
    }
}

/// The sender-side service surface of the link. All three are no-ops (and
/// one `Option` check) on a router with no transport armed.
impl RouterEndpoint {
    /// Drives this machine's in-flight frames: retransmits expired backoffs,
    /// opens due slow gates and full reorder windows. The machine loop calls
    /// it every time it absorbs its inbox. Errors once a frame has exhausted
    /// its delivery attempts.
    pub fn pump_link(&self) -> Result<(), String> {
        self.service_link(false)
    }

    /// [`RouterEndpoint::pump_link`] with every gate forced open: with
    /// [`RouterEndpoint::link_pending`] it is the delivery barrier a
    /// producer runs before declaring a segment's output complete.
    pub fn flush_link(&self) -> Result<(), String> {
        self.service_link(true)
    }

    fn service_link(&self, flush: bool) -> Result<(), String> {
        let Some(link) = &self.link else {
            return Ok(());
        };
        let mut s = link.sender(self.machine);
        link.pump(self, &mut s, flush);
        let max = link.cfg.max_attempts;
        match s.in_flight.iter().find(|f| f.attempts >= max) {
            Some(f) => Err(format!(
                "frame for segment {} to machine {} undelivered after {max} attempts",
                f.frame.segment(),
                f.to
            )),
            None => Ok(()),
        }
    }

    /// Frames this sender still owes receivers for `segment` (`None` counts
    /// every segment). Zero means every accepted push has been delivered.
    pub fn link_pending(&self, segment: Option<usize>) -> usize {
        let Some(link) = &self.link else {
            return 0;
        };
        let s = link.sender(self.machine);
        s.in_flight
            .iter()
            .filter(|f| segment.is_none_or(|want| want == f.frame.segment()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ClusterStats;
    use crate::{ColBatch, ControlMsg, Router};

    fn batch(vals: &[u32]) -> ColBatch {
        ColBatch::from_columns(vec![vals.to_vec()])
    }

    fn lossy_router(k: usize, stats: ClusterStats, faults: Vec<LinkFault>) -> Router {
        let mut router = Router::new(k, stats);
        router.set_transport(TransportConfig {
            seed: 7,
            faults,
            max_attempts: 10,
            base_backoff: Duration::from_micros(100),
        });
        router
    }

    /// Drains `b` until `want` rows arrived, pumping `a`'s transport so
    /// drops get retransmitted. Panics (instead of hanging) after ~2 s.
    fn drain_rows(a: &RouterEndpoint, b: &RouterEndpoint, want: usize) -> Vec<u32> {
        let mut rows = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rows.len() < want {
            assert!(
                std::time::Instant::now() < deadline,
                "transport failed to deliver: got {} of {want} rows",
                rows.len()
            );
            a.flush_link().unwrap();
            while let Some(env) = b.try_recv() {
                rows.extend_from_slice(env.batch.column(0));
            }
        }
        rows
    }

    #[test]
    fn dropped_envelopes_are_retransmitted_exactly_once_each() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats.clone(),
            vec![LinkFault {
                machine: 0,
                segment: 0,
                kind: LinkFaultKind::Drop { ppm: 400_000 },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        for i in 0..200u32 {
            a.push(1, 0, batch(&[i]));
        }
        let mut rows = drain_rows(&a, &b, 200);
        rows.sort_unstable();
        assert_eq!(rows, (0..200).collect::<Vec<_>>());
        assert_eq!(a.link_pending(None), 0);
        let s = stats.machine(0).snapshot();
        assert!(s.transport_drops > 0, "40% drop rate never fired");
        // One successful retransmit per envelope dropped at least once; a
        // retransmit re-dropped shows up as a further drop, never a double
        // delivery.
        assert!(s.retransmits > 0 && s.retransmits <= s.transport_drops);
    }

    #[test]
    fn duplicated_envelopes_are_deduplicated_by_the_receiver() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats.clone(),
            vec![LinkFault {
                machine: 0,
                segment: 0,
                kind: LinkFaultKind::Duplicate { ppm: 500_000 },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        for i in 0..200u32 {
            a.push(1, 0, batch(&[i]));
        }
        let mut rows = drain_rows(&a, &b, 200);
        rows.sort_unstable();
        // Every row exactly once despite the double deliveries.
        assert_eq!(rows, (0..200).collect::<Vec<_>>());
        let sent = stats.machine(0).snapshot();
        let recv = stats.machine(1).snapshot();
        assert!(sent.transport_dups > 0, "50% duplication never fired");
        assert_eq!(recv.dedup_drops, sent.transport_dups);
    }

    #[test]
    fn reordered_envelopes_all_arrive_despite_out_of_order_delivery() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats.clone(),
            vec![LinkFault {
                machine: 0,
                segment: 0,
                kind: LinkFaultKind::Reorder { window: 8 },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        for i in 0..64u32 {
            a.push(1, 0, batch(&[i]));
        }
        // Everything below a full window waits for the flush barrier.
        let arrival: Vec<u32> = drain_rows(&a, &b, 64);
        let mut sorted = arrival.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(
            arrival, sorted,
            "a window of 8 should have shuffled something"
        );
    }

    #[test]
    fn slow_link_delays_but_delivers() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats,
            vec![LinkFault {
                machine: 0,
                segment: 0,
                kind: LinkFaultKind::Slow {
                    delay: Duration::from_millis(5),
                },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        a.push(1, 0, batch(&[1, 2, 3]));
        // Held at the gate: pumping before the delay delivers nothing.
        a.pump_link().unwrap();
        assert!(b.try_recv().is_none());
        assert_eq!(a.link_pending(Some(0)), 1);
        std::thread::sleep(Duration::from_millis(6));
        a.pump_link().unwrap();
        assert_eq!(b.try_recv().unwrap().batch.len(), 3);
        assert_eq!(a.link_pending(None), 0);
    }

    #[test]
    fn total_loss_exhausts_attempts_with_a_typed_error() {
        let stats = ClusterStats::new(2);
        let mut router = Router::new(2, stats);
        router.set_transport(TransportConfig {
            seed: 3,
            faults: vec![LinkFault {
                machine: 0,
                segment: 0,
                kind: LinkFaultKind::Drop { ppm: 1_000_000 },
            }],
            max_attempts: 3,
            base_backoff: Duration::from_micros(10),
        });
        let a = router.endpoint(0);
        a.push(1, 0, batch(&[1]));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let err = loop {
            assert!(std::time::Instant::now() < deadline, "never exhausted");
            if let Err(e) = a.flush_link() {
                break e;
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        assert!(err.contains("after 3 attempts"), "unexpected error: {err}");
    }

    #[test]
    fn transport_faults_only_hit_their_armed_segment() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats.clone(),
            vec![LinkFault {
                machine: 0,
                segment: 5,
                kind: LinkFaultKind::Drop { ppm: 1_000_000 },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        // Segment 3 is clean: delivered first try, no pending state.
        a.push(1, 3, batch(&[7]));
        assert_eq!(b.try_recv_segment(3).unwrap().batch.len(), 1);
        assert_eq!(a.link_pending(None), 0);
        assert_eq!(stats.machine(0).snapshot().transport_drops, 0);
    }

    #[test]
    fn lossy_partition_ship_is_retransmitted() {
        let stats = ClusterStats::new(2);
        let router = lossy_router(
            2,
            stats.clone(),
            vec![LinkFault {
                machine: 0,
                segment: 2,
                kind: LinkFaultKind::Drop { ppm: 600_000 },
            }],
        );
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        let ship = ControlMsg::PartitionShip {
            segment: 2,
            bytes: 8,
            left: vec![vec![1]],
            right: vec![vec![2]],
        };
        a.send_control(1, ship);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let got = loop {
            assert!(std::time::Instant::now() < deadline, "ship never arrived");
            a.flush_link().unwrap();
            if let Some(env) = b.try_recv_control() {
                break env;
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        assert!(matches!(
            got.msg,
            ControlMsg::PartitionShip { segment: 2, .. }
        ));
        assert_eq!(a.link_pending(None), 0);
        // Non-ship control never rides the link, faults or not.
        a.send_control(1, ControlMsg::StealRequest { segment: 2 });
        assert!(matches!(
            b.try_recv_control().unwrap().msg,
            ControlMsg::StealRequest { segment: 2 }
        ));
    }

    #[test]
    fn all_four_faults_on_one_segment_leave_its_clean_neighbour_alone() {
        let fault = |kind| LinkFault {
            machine: 0,
            segment: 0,
            kind,
        };
        let faults = vec![
            fault(LinkFaultKind::Drop { ppm: 300_000 }),
            fault(LinkFaultKind::Duplicate { ppm: 300_000 }),
            fault(LinkFaultKind::Reorder { window: 8 }),
            fault(LinkFaultKind::Slow {
                delay: Duration::from_millis(2),
            }),
        ];
        let stats = ClusterStats::new(2);
        let router = lossy_router(2, stats.clone(), faults.clone());
        let a = router.endpoint(0);
        let b = router.endpoint(1);
        for i in 0..100u32 {
            a.push(1, 0, batch(&[i]));
            a.push(1, 1, batch(&[1000 + i]));
        }
        // The clean segment shares the link but none of its faults: nothing
        // of it is in flight while the faulty segment's frames still wait
        // behind their gates.
        assert_eq!(a.link_pending(Some(1)), 0);
        assert!(a.link_pending(Some(0)) > 0);
        assert_eq!(b.drain_segment(1).len(), 100);
        // The barrier: flush until the sender owes nothing.
        let mut rows = drain_rows(&a, &b, 100);
        rows.sort_unstable();
        assert_eq!(rows, (0..100).collect::<Vec<_>>());
        assert_eq!(a.link_pending(None), 0);
        assert!(b.try_recv().is_none(), "a row arrived twice");
        let (sent, recv) = (stats.machine(0).snapshot(), stats.machine(1).snapshot());
        assert!(sent.transport_drops > 0 && sent.transport_dups > 0);
        assert_eq!(recv.dedup_drops, sent.transport_dups);

        // The same mix with every frame lost still ends in the typed error.
        let mut faults = faults;
        faults.push(fault(LinkFaultKind::Drop { ppm: 1_000_000 }));
        let router = lossy_router(2, ClusterStats::new(2), faults);
        let a = router.endpoint(0);
        a.push(1, 0, batch(&[1]));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let err = loop {
            assert!(std::time::Instant::now() < deadline, "never exhausted");
            if let Err(e) = a.flush_link() {
                break e;
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        assert!(err.contains("after 10 attempts"), "unexpected error: {err}");
    }
}
