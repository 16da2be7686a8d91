//! `huge-trace`: a zero-dependency flight recorder for the HUGE runtime.
//!
//! The recorder answers the questions the paper's evaluation keeps asking —
//! *when* did a machine stall, *when* did a steal fire, *when* did the
//! governor flip Red — without perturbing the hot loops it observes:
//!
//! - **Span/event rings** ([`TraceBuf`]): each traced component (machine
//!   thread, governor thread) owns a bounded single-writer ring of fixed-size
//!   events. Recording is gated by one shared [`AtomicBool`]; the disabled
//!   path is a single relaxed load — no allocation, no lock, nothing to
//!   mispredict in a scheduling loop.
//! - **Timeline assembly** ([`timeline::Timeline`]): after the run, the
//!   rings are stitched into Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`) with one track per machine/worker.
//!
//! All stamps come from one run-relative monotonic clock owned by the
//! [`Recorder`], so cross-machine events line up on a single axis.
//!
//! # Single-writer protocol
//!
//! A ring is written by exactly one thread (the [`TraceBuf`] owner —
//! `TraceBuf` is `Send` but deliberately `!Sync` and not `Clone`) and read
//! only after that thread has finished, when [`Recorder::timeline`] snapshots
//! the rings. On overflow the ring overwrites the oldest slots and the
//! recorder reports exactly how many events were dropped.

pub mod timeline;

pub use timeline::{Timeline, TraceSegment, TraceSummary, Track};

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-track ring capacity, in events (~1.5 MiB per track).
pub const DEFAULT_RING_CAPACITY: usize = 32 * 1024;

/// What the recorder captures for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No spans. The always-on aggregates (per-segment busy/span stamps)
    /// still tick — reports depend on them — but nothing is exported.
    #[default]
    Off,
    /// Full span/instant recording and timeline export.
    Full,
}

/// Per-run recorder configuration, selected through
/// `ClusterConfig::tracing` in `huge-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capture level.
    pub mode: TraceMode,
    /// Events per ring; overflow overwrites the oldest events.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Full span recording and timeline export.
    pub fn full() -> Self {
        TraceConfig {
            mode: TraceMode::Full,
            ..TraceConfig::default()
        }
    }

    /// Overrides the per-track ring capacity (events).
    pub fn ring_capacity(mut self, events: usize) -> Self {
        self.ring_capacity = events.max(1);
        self
    }
}

/// Identifies an open span returned by [`TraceBuf::enter`]. Purely a
/// debugging aid — pairing is positional (stack discipline per track) — and
/// [`SpanId::NONE`] when recording is disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The id handed out while recording is disabled.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// `true` for the disabled-path sentinel.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// Discriminates ring events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed (pairs with the most recent unmatched [`EventKind::Enter`]
    /// on the same track).
    Exit,
    /// Point event.
    Instant,
}

/// Up to two `u64` key/value payloads; an empty key marks an unused slot.
pub type Args = [(&'static str, u64); 2];

/// No payload.
pub const NO_ARGS: Args = [("", 0), ("", 0)];

/// One-payload helper.
pub fn kv(key: &'static str, value: u64) -> Args {
    [(key, value), ("", 0)]
}

/// Two-payload helper.
pub fn kv2(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Args {
    [(k1, v1), (k2, v2)]
}

/// A fixed-size ring slot. Copyable so ring writes are single `memcpy`s.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Enter/exit/instant.
    pub kind: EventKind,
    /// Static label (span name for `Enter`, empty for `Exit`).
    pub name: &'static str,
    /// Stamp, microseconds since the recorder epoch.
    pub t_micros: u64,
    /// Owning span id (`u32::MAX` when not applicable).
    pub span: u32,
    /// Key/value payload.
    pub args: Args,
}

impl Event {
    fn empty() -> Event {
        Event {
            kind: EventKind::Instant,
            name: "",
            t_micros: 0,
            span: u32::MAX,
            args: NO_ARGS,
        }
    }
}

/// The shared half of one track: the bounded slot array plus the always-on
/// per-segment aggregates. Written by the single [`TraceBuf`] owner, read by
/// [`Recorder::timeline`] after the writer thread has finished.
struct RingShared {
    pid: u32,
    name: String,
    capacity: usize,
    /// Total events ever written; `head - capacity` of them were overwritten.
    head: AtomicU64,
    slots: Box<[UnsafeCell<Event>]>,
    /// Always-on per-segment busy time (nanos), independent of the span gate.
    seg_busy: Box<[AtomicU64]>,
    /// Always-on busy time (nanos) of each operator slot of each segment:
    /// where inside a segment its busy time went.
    op_busy: Box<[Box<[AtomicU64]>]>,
    /// First activation stamp per segment, micros + 1 (0 = never started).
    seg_first: Box<[AtomicU64]>,
    /// Last completion stamp per segment, micros + 1 (0 = never finished).
    seg_last: Box<[AtomicU64]>,
}

// SAFETY: slots are written only by the unique `TraceBuf` owner (enforced by
// `TraceBuf` being `!Sync` and not `Clone`) and snapshotted only after that
// writer is done; everything else is atomics.
unsafe impl Send for RingShared {}
unsafe impl Sync for RingShared {}

impl RingShared {
    fn new(pid: u32, name: String, capacity: usize, op_slots: &[usize]) -> RingShared {
        let segments = op_slots.len();
        let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        RingShared {
            pid,
            name,
            capacity,
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Event::empty()))
                .collect(),
            seg_busy: zeroed(segments),
            op_busy: op_slots.iter().map(|&slots| zeroed(slots)).collect(),
            seg_first: zeroed(segments),
            seg_last: zeroed(segments),
        }
    }

    /// The surviving events in write order, plus the exact overwrite count.
    fn snapshot(&self) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.capacity as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = self.slots[(i % cap) as usize].get();
            // SAFETY: the writer thread has finished (see struct docs).
            events.push(unsafe { *slot });
        }
        (events, start)
    }
}

/// The single-writer handle to one track. `Send` (a machine thread carries
/// its buffer) but `!Sync` and not `Clone`: exactly one writer per ring.
pub struct TraceBuf {
    ring: Arc<RingShared>,
    enabled: Arc<AtomicBool>,
    epoch: Instant,
    next_span: Cell<u32>,
    _single_writer: PhantomData<Cell<()>>,
}

impl std::fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuf")
            .field("track", &self.ring.name)
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl TraceBuf {
    fn new(ring: Arc<RingShared>, enabled: Arc<AtomicBool>, epoch: Instant) -> TraceBuf {
        TraceBuf {
            ring,
            enabled,
            epoch,
            next_span: Cell::new(0),
            _single_writer: PhantomData,
        }
    }

    /// A standalone buffer whose events go nowhere: recording disabled, ring
    /// capacity 1, no segments. Placeholder until a run attaches a real one.
    pub fn disabled() -> TraceBuf {
        TraceBuf::new(
            Arc::new(RingShared::new(0, String::new(), 1, &[])),
            Arc::new(AtomicBool::new(false)),
            Instant::now(),
        )
    }

    /// `true` while span recording is on. The disabled path of every
    /// recording call is exactly this relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the recorder epoch.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    #[inline]
    fn write(&self, ev: Event) {
        let head = self.ring.head.load(Ordering::Relaxed);
        let slot = self.ring.slots[(head % self.ring.capacity as u64) as usize].get();
        // SAFETY: single-writer protocol, see `RingShared`.
        unsafe { *slot = ev };
        self.ring.head.store(head + 1, Ordering::Release);
    }

    /// Opens a span.
    #[inline]
    pub fn enter(&self, name: &'static str) -> SpanId {
        self.enter_kv(name, NO_ARGS)
    }

    /// Opens a span with a payload.
    #[inline]
    pub fn enter_kv(&self, name: &'static str, args: Args) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let id = self.next_span.get();
        self.next_span.set(id.wrapping_add(1));
        self.write(Event {
            kind: EventKind::Enter,
            name,
            t_micros: self.now_micros(),
            span: id,
            args,
        });
        SpanId(id)
    }

    /// Closes the most recently opened span on this track.
    #[inline]
    pub fn exit(&self, id: SpanId) {
        self.exit_kv(id, NO_ARGS)
    }

    /// Closes a span, attaching a payload to the completed span.
    #[inline]
    pub fn exit_kv(&self, id: SpanId, args: Args) {
        if !self.enabled() {
            return;
        }
        self.write(Event {
            kind: EventKind::Exit,
            name: "",
            t_micros: self.now_micros(),
            span: id.0,
            args,
        });
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&self, name: &'static str) {
        self.instant_kv(name, NO_ARGS)
    }

    /// Records a point event with a payload.
    #[inline]
    pub fn instant_kv(&self, name: &'static str, args: Args) {
        if !self.enabled() {
            return;
        }
        self.write(Event {
            kind: EventKind::Instant,
            name,
            t_micros: self.now_micros(),
            span: u32::MAX,
            args,
        });
    }

    // --- always-on per-segment aggregates -------------------------------
    //
    // These back `MachineReport::segment_busy` / `segment_spans` in every
    // trace mode, replacing the hand-rolled side channels the machine used
    // to keep; they share the recorder clock with the span events above.

    /// Stamps a segment's first activation (idempotent). Out-of-range
    /// segments (a placeholder [`TraceBuf::disabled`] has none) are ignored.
    pub fn seg_mark_start(&self, segment: usize) {
        let Some(cell) = self.ring.seg_first.get(segment) else {
            return;
        };
        if cell.load(Ordering::Relaxed) == 0 {
            cell.store(self.now_micros() + 1, Ordering::Relaxed);
        }
    }

    /// Adds busy time to a segment.
    pub fn seg_add_busy(&self, segment: usize, busy: Duration) {
        if let Some(cell) = self.ring.seg_busy.get(segment) {
            cell.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Adds busy time to one operator slot of a segment. The caller times
    /// slots inside the intervals it reports through
    /// [`TraceBuf::seg_add_busy`], so a segment's slots never sum to more
    /// than its busy time; the difference is scheduling the slots do not
    /// cover.
    pub fn op_add_busy(&self, segment: usize, slot: usize, busy: Duration) {
        if let Some(cell) = self.ring.op_busy.get(segment).and_then(|s| s.get(slot)) {
            cell.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Stamps a segment's most recent completion.
    pub fn seg_mark_end(&self, segment: usize) {
        if let Some(cell) = self.ring.seg_last.get(segment) {
            cell.store(self.now_micros() + 1, Ordering::Relaxed);
        }
    }

    /// Per-segment busy time accumulated through [`TraceBuf::seg_add_busy`].
    pub fn segment_busy(&self) -> Vec<Duration> {
        self.ring
            .seg_busy
            .iter()
            .map(|b| Duration::from_nanos(b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Busy time per operator slot, per segment, accumulated through
    /// [`TraceBuf::op_add_busy`].
    pub fn op_busy(&self) -> Vec<Vec<Duration>> {
        let nanos = |b: &AtomicU64| Duration::from_nanos(b.load(Ordering::Relaxed));
        let segments = self.ring.op_busy.iter();
        segments.map(|s| s.iter().map(nanos).collect()).collect()
    }

    /// Per-segment `(first activation, last completion)` spans, run-relative.
    pub fn segment_spans(&self) -> Vec<Option<(Duration, Duration)>> {
        self.ring
            .seg_first
            .iter()
            .zip(self.ring.seg_last.iter())
            .map(|(f, l)| {
                let (f, l) = (f.load(Ordering::Relaxed), l.load(Ordering::Relaxed));
                if f == 0 || l == 0 {
                    None
                } else {
                    Some((
                        Duration::from_micros(f - 1),
                        Duration::from_micros((l - 1).max(f - 1)),
                    ))
                }
            })
            .collect()
    }
}

/// Per-run flight recorder: owns the clock, the span gate and the rings.
/// Created by the cluster at run start; after the machine threads join,
/// [`Recorder::timeline`] assembles the export.
pub struct Recorder {
    epoch: Instant,
    config: TraceConfig,
    spans_enabled: Arc<AtomicBool>,
    rings: Mutex<Vec<Arc<RingShared>>>,
    /// Cold cross-thread track for rare whole-run events (cancellation,
    /// deadline). Mutex-protected: these fire at most once per run.
    global: Mutex<Vec<Event>>,
}

impl Recorder {
    /// A recorder for one run; the epoch (t=0 on every track) is now.
    pub fn new(config: TraceConfig) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            config,
            spans_enabled: Arc::new(AtomicBool::new(config.mode == TraceMode::Full)),
            rings: Mutex::new(Vec::new()),
            global: Mutex::new(Vec::new()),
        }
    }

    /// The configured capture level.
    pub fn mode(&self) -> TraceMode {
        self.config.mode
    }

    /// Translates an absolute instant onto the run-relative axis.
    pub fn micros_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Mints the single-writer buffer for a new track. `pid` groups tracks
    /// into Perfetto processes (one per machine); `op_slots` sizes the
    /// always-on aggregate tables — one entry per segment, holding how many
    /// operator slots that segment has (empty for non-scheduler tracks).
    pub fn ring(&self, pid: u32, name: impl Into<String>, op_slots: &[usize]) -> TraceBuf {
        let ring = Arc::new(RingShared::new(
            pid,
            name.into(),
            self.config.ring_capacity.max(1),
            op_slots,
        ));
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        TraceBuf::new(ring, Arc::clone(&self.spans_enabled), self.epoch)
    }

    /// Records a rare whole-run instant (cancellation, deadline) onto the
    /// shared cold track, at an explicit run-relative stamp.
    pub fn global_instant(&self, name: &'static str, t_micros: u64, args: Args) {
        if !self.spans_enabled.load(Ordering::Relaxed) {
            return;
        }
        self.global.lock().unwrap().push(Event {
            kind: EventKind::Instant,
            name,
            t_micros,
            span: u32::MAX,
            args,
        });
    }

    /// Snapshots every track. Call only after the writer threads finished.
    pub fn timeline(&self) -> Timeline {
        let mut tracks = Vec::new();
        for ring in self.rings.lock().unwrap().iter() {
            let (events, dropped) = ring.snapshot();
            tracks.push(Track {
                pid: ring.pid,
                name: ring.name.clone(),
                events,
                dropped,
            });
        }
        let global = self.global.lock().unwrap();
        if !global.is_empty() {
            tracks.push(Track {
                pid: timeline::RUN_PID,
                name: "run".to_string(),
                events: global.clone(),
                dropped: 0,
            });
        }
        Timeline { tracks }
    }

    /// The cross-machine per-segment busy/span/wait breakdown assembled from
    /// the always-on aggregates (lives in `TraceSummary::segments`).
    pub fn segment_breakdown(&self) -> Vec<TraceSegment> {
        let rings = self.rings.lock().unwrap();
        let segments = rings.iter().map(|r| r.seg_busy.len()).max().unwrap_or(0);
        let mut out = Vec::with_capacity(segments);
        for s in 0..segments {
            let mut seg = TraceSegment {
                segment: s,
                ..TraceSegment::default()
            };
            for ring in rings.iter() {
                if s >= ring.seg_busy.len() {
                    continue;
                }
                let busy = Duration::from_nanos(ring.seg_busy[s].load(Ordering::Relaxed));
                seg.busy += busy;
                let first = ring.seg_first[s].load(Ordering::Relaxed);
                let last = ring.seg_last[s].load(Ordering::Relaxed);
                if first != 0 && last != 0 {
                    let extent = Duration::from_micros((last - 1).saturating_sub(first - 1));
                    seg.span = seg.span.max(extent);
                    seg.wait += extent.saturating_sub(busy);
                }
            }
            out.push(seg);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(mode: TraceMode, cap: usize) -> Recorder {
        Recorder::new(TraceConfig {
            mode,
            ring_capacity: cap,
        })
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let rec = recorder(TraceMode::Off, 64);
        let buf = rec.ring(0, "machine-0", &[0; 2]);
        for _ in 0..1000 {
            let id = buf.enter("chain");
            assert!(id.is_none());
            buf.instant("steal");
            buf.exit(id);
        }
        let tl = rec.timeline();
        assert_eq!(tl.tracks.len(), 1);
        assert!(tl.tracks[0].events.is_empty());
        assert_eq!(tl.tracks[0].dropped, 0);
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops_exactly() {
        let rec = recorder(TraceMode::Full, 8);
        let buf = rec.ring(0, "m", &[]);
        for i in 0..20u64 {
            buf.instant_kv("tick", kv("i", i));
        }
        let (track, dropped) = {
            let tl = rec.timeline();
            let t = tl.tracks.into_iter().next().unwrap();
            let d = t.dropped;
            (t, d)
        };
        assert_eq!(dropped, 12);
        assert_eq!(track.events.len(), 8);
        let kept: Vec<u64> = track.events.iter().map(|e| e.args[0].1).collect();
        assert_eq!(kept, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn exact_capacity_drops_nothing() {
        let rec = recorder(TraceMode::Full, 8);
        let buf = rec.ring(0, "m", &[]);
        for i in 0..8u64 {
            buf.instant_kv("tick", kv("i", i));
        }
        let tl = rec.timeline();
        assert_eq!(tl.tracks[0].dropped, 0);
        assert_eq!(tl.tracks[0].events.len(), 8);
    }

    #[test]
    fn segment_aggregates_work_in_every_mode() {
        for mode in [TraceMode::Off, TraceMode::Full] {
            let rec = recorder(mode, 16);
            let buf = rec.ring(0, "m", &[0, 2, 0]);
            buf.seg_mark_start(1);
            buf.seg_add_busy(1, Duration::from_millis(5));
            buf.seg_add_busy(1, Duration::from_millis(7));
            buf.seg_mark_end(1);
            buf.op_add_busy(1, 1, Duration::from_nanos(300));
            buf.op_add_busy(1, 1, Duration::from_nanos(900));
            // Out-of-range slots and segments are ignored, like segments.
            buf.op_add_busy(1, 2, Duration::from_secs(1));
            buf.op_add_busy(3, 0, Duration::from_secs(1));
            let nanos = Duration::from_nanos;
            assert_eq!(
                buf.op_busy(),
                [vec![], vec![nanos(0), nanos(1_200)], vec![]]
            );
            let busy = buf.segment_busy();
            assert_eq!(busy[0], Duration::ZERO);
            assert_eq!(busy[1], Duration::from_millis(12));
            let spans = buf.segment_spans();
            assert!(spans[0].is_none());
            let (start, end) = spans[1].expect("segment 1 stamped");
            assert!(end >= start);
            let breakdown = rec.segment_breakdown();
            assert_eq!(breakdown.len(), 3);
            assert_eq!(breakdown[1].busy, Duration::from_millis(12));
        }
    }

    #[test]
    fn first_activation_stamp_is_idempotent() {
        let rec = recorder(TraceMode::Off, 4);
        let buf = rec.ring(0, "m", &[0; 1]);
        buf.seg_mark_start(0);
        let first = buf.segment_spans_first_raw();
        std::thread::sleep(Duration::from_millis(2));
        buf.seg_mark_start(0);
        assert_eq!(buf.segment_spans_first_raw(), first);
    }

    impl TraceBuf {
        fn segment_spans_first_raw(&self) -> u64 {
            self.ring.seg_first[0].load(Ordering::Relaxed)
        }
    }

    #[test]
    fn global_instants_form_the_run_track() {
        let rec = recorder(TraceMode::Full, 4);
        let _buf = rec.ring(0, "m", &[]);
        rec.global_instant("cancelled", 123, NO_ARGS);
        let tl = rec.timeline();
        assert_eq!(tl.tracks.len(), 2);
        let run = tl.tracks.iter().find(|t| t.name == "run").unwrap();
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].t_micros, 123);
    }

    #[test]
    fn span_ids_are_per_track_monotonic() {
        let rec = recorder(TraceMode::Full, 16);
        let buf = rec.ring(0, "m", &[]);
        let a = buf.enter("a");
        let b = buf.enter("b");
        assert_ne!(a, b);
        buf.exit(b);
        buf.exit(a);
        let tl = rec.timeline();
        assert_eq!(tl.tracks[0].events.len(), 4);
    }

    #[test]
    fn buffers_move_across_threads() {
        let rec = recorder(TraceMode::Full, 16);
        let buf = rec.ring(0, "m", &[]);
        std::thread::spawn(move || {
            buf.instant("hello");
        })
        .join()
        .unwrap();
        assert_eq!(rec.timeline().tracks[0].events.len(), 1);
    }
}
