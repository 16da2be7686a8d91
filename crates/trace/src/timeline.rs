//! Post-run timeline assembly: stitches the per-track rings into Chrome
//! trace-event JSON, loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! Pairing is positional: each track's `Enter`/`Exit` events follow stack
//! discipline at the call sites, so the assembler pairs an `Exit` with the
//! most recent unmatched `Enter` and emits one Chrome *complete* (`"X"`)
//! event per pair. That construction is robust to ring overflow — an `Exit`
//! whose `Enter` was overwritten is dropped, a span still open at the end of
//! a track is closed at the track's last stamp — and is nesting-balanced by
//! construction.

use crate::{Event, EventKind};
use std::time::Duration;

/// The synthetic pid of the cold whole-run track (cancellation/deadline).
pub const RUN_PID: u32 = u32::MAX;

/// One ring's snapshot: the surviving events plus the exact overflow count.
#[derive(Clone, Debug)]
pub struct Track {
    /// Perfetto process id (machine id, or [`RUN_PID`]).
    pub pid: u32,
    /// Track label, shown as the Perfetto thread name.
    pub name: String,
    /// Surviving events in write order.
    pub events: Vec<Event>,
    /// Events overwritten by ring overflow.
    pub dropped: u64,
}

/// All tracks of one run, ready for export.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// One entry per ring, plus the cold run track when it is non-empty.
    pub tracks: Vec<Track>,
}

/// A paired span on one track.
#[derive(Clone, Debug)]
pub struct CompletedSpan {
    /// Span label.
    pub name: &'static str,
    /// Start stamp, microseconds since the recorder epoch.
    pub start_micros: u64,
    /// End stamp, microseconds since the recorder epoch.
    pub end_micros: u64,
    /// Payload merged from the enter and exit events (enter first).
    pub args: Vec<(&'static str, u64)>,
}

/// Cross-machine per-segment breakdown assembled from the always-on
/// aggregates; supersedes the hand-rolled `segment_busy` side channel.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSegment {
    /// Segment index in the dataflow.
    pub segment: usize,
    /// Busy time summed across machines.
    pub busy: Duration,
    /// Widest single-machine activation extent (first start → last end).
    pub span: Duration,
    /// Wait time summed across machines (extent minus busy, per machine).
    pub wait: Duration,
}

/// What `RunReport::trace` carries: headline counts plus the per-segment
/// breakdown and the exported Chrome JSON.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Completed spans assembled across all tracks.
    pub spans: u64,
    /// Instant events across all tracks.
    pub instants: u64,
    /// Events that survived in the rings.
    pub events_recorded: u64,
    /// Events lost to ring overflow (exact).
    pub events_dropped: u64,
    /// Number of tracks (rings plus the cold run track).
    pub tracks: usize,
    /// Per-segment busy/span/wait breakdown on the recorder clock.
    pub segments: Vec<TraceSegment>,
    /// Chrome trace-event JSON, present in full-span mode.
    pub chrome_json: Option<String>,
}

/// Pairs one track's events into completed spans plus pass-through instants.
/// Orphan exits (enter lost to overflow) are dropped; spans still open at
/// the end of the track are closed at the track's last stamp.
pub fn pair_track(events: &[Event]) -> (Vec<CompletedSpan>, Vec<Event>) {
    let mut stack: Vec<(&'static str, u64, crate::Args)> = Vec::new();
    let mut spans = Vec::new();
    let mut instants = Vec::new();
    let mut last_stamp = 0u64;
    for ev in events {
        last_stamp = last_stamp.max(ev.t_micros);
        match ev.kind {
            EventKind::Enter => stack.push((ev.name, ev.t_micros, ev.args)),
            EventKind::Exit => {
                if let Some((name, start, enter_args)) = stack.pop() {
                    spans.push(CompletedSpan {
                        name,
                        start_micros: start,
                        end_micros: ev.t_micros.max(start),
                        args: merge_args(enter_args, ev.args),
                    });
                }
            }
            EventKind::Instant => instants.push(*ev),
        }
    }
    while let Some((name, start, enter_args)) = stack.pop() {
        spans.push(CompletedSpan {
            name,
            start_micros: start,
            end_micros: last_stamp.max(start),
            args: merge_args(enter_args, crate::NO_ARGS),
        });
    }
    (spans, instants)
}

fn merge_args(enter: crate::Args, exit: crate::Args) -> Vec<(&'static str, u64)> {
    enter
        .into_iter()
        .chain(exit)
        .filter(|(k, _)| !k.is_empty())
        .collect()
}

impl Timeline {
    /// Headline counts (the per-segment breakdown and the JSON export are
    /// attached by the cluster, which owns the recorder).
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            tracks: self.tracks.len(),
            ..TraceSummary::default()
        };
        for track in &self.tracks {
            s.events_recorded += track.events.len() as u64;
            s.events_dropped += track.dropped;
            let (spans, instants) = pair_track(&track.events);
            s.spans += spans.len() as u64;
            s.instants += instants.len() as u64;
        }
        s
    }

    /// Renders the whole timeline as Chrome trace-event JSON: one Perfetto
    /// process per pid, one thread per track, `"X"` complete events for
    /// spans and `"i"` events for instants, stamps in microseconds.
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let emit = |piece: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&piece);
        };
        let mut named_pids: Vec<u32> = Vec::new();
        for (tid, track) in self.tracks.iter().enumerate() {
            if !named_pids.contains(&track.pid) {
                named_pids.push(track.pid);
                emit(
                    format!(
                        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                        track.pid,
                        tid,
                        escape(process_name(track)),
                    ),
                    &mut out,
                    &mut first,
                );
            }
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    track.pid,
                    tid,
                    escape(&track.name),
                ),
                &mut out,
                &mut first,
            );
            let (spans, instants) = pair_track(&track.events);
            for span in spans {
                let mut piece = format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
                    escape(span.name),
                    track.pid,
                    tid,
                    span.start_micros,
                    span.end_micros - span.start_micros,
                );
                piece.push_str(&args_json(&span.args));
                piece.push('}');
                emit(piece, &mut out, &mut first);
            }
            for ev in instants {
                let mut piece = format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                    escape(ev.name),
                    track.pid,
                    tid,
                    ev.t_micros,
                );
                let args: Vec<_> = ev.args.into_iter().filter(|(k, _)| !k.is_empty()).collect();
                piece.push_str(&args_json(&args));
                piece.push('}');
                emit(piece, &mut out, &mut first);
            }
        }
        let _ = write!(out, "]}}");
        out
    }
}

fn process_name(track: &Track) -> &str {
    if track.pid == RUN_PID {
        "run"
    } else {
        &track.name
    }
}

fn args_json(args: &[(&'static str, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if args.is_empty() {
        return out;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(k), v);
    }
    out.push('}');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kv, Recorder, TraceConfig, TraceMode};

    fn full_recorder() -> Recorder {
        Recorder::new(TraceConfig {
            mode: TraceMode::Full,
            ring_capacity: 64,
        })
    }

    #[test]
    fn pairing_follows_stack_discipline() {
        let rec = full_recorder();
        let buf = rec.ring(0, "m", &[]);
        let outer = buf.enter_kv("outer", kv("seg", 2));
        let inner = buf.enter("inner");
        buf.exit(inner);
        buf.exit_kv(outer, kv("rows", 10));
        let (spans, instants) = pair_track(&rec.timeline().tracks[0].events);
        assert!(instants.is_empty());
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert!(spans[1].start_micros <= spans[0].start_micros);
        assert!(spans[1].end_micros >= spans[0].end_micros);
        assert_eq!(spans[1].args, vec![("seg", 2), ("rows", 10)]);
    }

    #[test]
    fn orphan_exits_are_dropped_and_open_spans_closed() {
        let rec = full_recorder();
        let buf = rec.ring(0, "m", &[]);
        buf.exit(crate::SpanId(7)); // orphan: enter lost to "overflow"
        let open = buf.enter("open");
        buf.instant("tick");
        let _ = open; // never exited
        let (spans, instants) = pair_track(&rec.timeline().tracks[0].events);
        assert_eq!(instants.len(), 1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "open");
        assert!(spans[0].end_micros >= spans[0].start_micros);
    }

    #[test]
    fn chrome_json_has_metadata_and_events() {
        let rec = full_recorder();
        let buf = rec.ring(3, "machine-3", &[]);
        let s = buf.enter("chain");
        buf.instant_kv("steal", kv("partition", 5));
        buf.exit(s);
        let json = rec.timeline().chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("machine-3"));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"chain\""));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"name\":\"steal\""));
        assert!(json.contains("\"partition\":5"));
    }

    #[test]
    fn summary_counts_spans_instants_and_drops() {
        let rec = Recorder::new(TraceConfig {
            mode: TraceMode::Full,
            ring_capacity: 4,
        });
        let buf = rec.ring(0, "m", &[]);
        for _ in 0..3 {
            let s = buf.enter("a");
            buf.exit(s);
        }
        buf.instant("i");
        let s = rec.timeline().summary();
        // 7 events written into a 4-slot ring: 3 dropped, 4 survive.
        assert_eq!(s.events_dropped, 3);
        assert_eq!(s.events_recorded, 4);
        assert_eq!(s.instants, 1);
        assert_eq!(s.tracks, 1);
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
