//! Flight-recorder integration tests: ring overflow exactness, tracing as a
//! pure observer across the five-engine matrix, and Chrome trace-event JSON
//! well-formedness/nesting under proptest-generated span interleavings.

use std::collections::HashMap;

use huge_baselines::Baseline;
use huge_core::{ClusterConfig, HugeCluster, SinkMode, TraceConfig};
use huge_graph::gen;
use huge_query::{naive, Pattern};
use huge_trace::{kv, Recorder, SpanId, TraceBuf};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Ring overflow: newest events win, drops are counted exactly
// ---------------------------------------------------------------------------

#[test]
fn ring_overflow_keeps_newest_and_counts_drops_exactly() {
    let rec = Recorder::new(TraceConfig::full().ring_capacity(16));
    let buf = rec.ring(0, "machine-0", &[]);
    for i in 0..100u64 {
        buf.instant_kv("tick", kv("seq", i));
    }
    let tl = rec.timeline();
    let track = &tl.tracks[0];
    assert_eq!(track.events.len(), 16, "a full ring holds exactly capacity");
    assert_eq!(track.dropped, 100 - 16, "drops are counted exactly");
    let seqs: Vec<u64> = track.events.iter().map(|e| e.args[0].1).collect();
    assert_eq!(
        seqs,
        (84..100).collect::<Vec<u64>>(),
        "overflow overwrites oldest-first, keeping the newest window in order"
    );
    let summary = tl.summary();
    assert_eq!(summary.events_recorded, 16);
    assert_eq!(summary.events_dropped, 84);
    assert_eq!(summary.instants, 16);
}

#[test]
fn engine_run_with_tiny_rings_counts_drops_and_still_exports() {
    // A multi-segment PUSH-JOIN run floods 8-slot rings many times over; the
    // export must stay valid and account every displaced event.
    let graph = gen::erdos_renyi(250, 1_200, 31);
    let query = Pattern::Path(4).query_graph();
    let expected = naive::enumerate(&graph, &query);
    let cluster = HugeCluster::build(
        graph,
        ClusterConfig::new(3)
            .workers(1)
            .tracing(TraceConfig::full().ring_capacity(8)),
    )
    .unwrap();
    let plan = cluster
        .plan_with_options(
            &query,
            huge_plan::optimizer::OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )
        .unwrap();
    let report = cluster.run_with_plan(&plan, SinkMode::Count).unwrap();
    assert_eq!(report.matches, expected);
    let trace = report.trace.expect("full mode attaches a trace summary");
    assert!(
        trace.events_dropped > 0,
        "8-slot rings must have overflowed"
    );
    assert!(trace.events_recorded <= 8 * trace.tracks as u64);
    let json = trace.chrome_json.expect("full mode exports Chrome JSON");
    let parsed = parse_json(&json).expect("export must stay well-formed under overflow");
    check_chrome_shape(&parsed).unwrap();
}

// ---------------------------------------------------------------------------
// Tracing is an observer: five-engine matrix parity, disabled = zero events
// ---------------------------------------------------------------------------

#[test]
fn tracing_is_a_pure_observer_across_the_five_engine_matrix() {
    let graph = gen::erdos_renyi(150, 800, 9);
    let off = ClusterConfig::new(3).workers(1);
    let full = off.clone().tracing(TraceConfig::full());
    for pattern in [Pattern::Triangle, Pattern::Square] {
        let query = pattern.query_graph();
        let expected = naive::enumerate(&graph, &query);

        let huge_off = HugeCluster::build(graph.clone(), off.clone())
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(huge_off.matches, expected, "HUGE off on {pattern:?}");
        assert!(huge_off.trace.is_none(), "off mode attaches no trace");
        assert!(huge_off.metrics.is_none(), "off mode attaches no snapshot");

        let huge_metrics = HugeCluster::build(
            graph.clone(),
            off.clone().tracing(TraceConfig::metrics_only()),
        )
        .unwrap()
        .run(&query, SinkMode::Count)
        .unwrap();
        assert_eq!(
            huge_metrics.matches, expected,
            "HUGE metrics on {pattern:?}"
        );
        let mt = huge_metrics.trace.expect("metrics mode attaches a summary");
        assert_eq!(mt.events_recorded, 0, "span recording stays gated off");
        assert_eq!(mt.spans, 0);
        assert!(mt.chrome_json.is_none(), "no timeline without spans");
        let snapshot = huge_metrics
            .metrics
            .expect("metrics mode attaches a snapshot");
        assert!(snapshot.contains("huge_matches_total"));
        assert!(snapshot.contains("huge_router_batches_pushed_total"));
        // The extend counters of the snapshot are the report's.
        let comm = &huge_metrics.comm;
        assert!(comm.extend_rows > 0 && comm.extend_prefix_reuses <= comm.extend_rows);
        for (name, value) in [
            ("huge_extend_rows_total", comm.extend_rows),
            ("huge_extend_prefix_reuse_total", comm.extend_prefix_reuses),
        ] {
            let line = format!("\n{name} {value}\n");
            assert!(snapshot.contains(&line), "{name} on {pattern:?}");
        }

        let huge_full = HugeCluster::build(graph.clone(), full.clone())
            .unwrap()
            .run(&query, SinkMode::Count)
            .unwrap();
        assert_eq!(huge_full.matches, expected, "HUGE full on {pattern:?}");
        let ft = huge_full.trace.expect("full mode attaches a summary");
        assert!(ft.spans > 0, "full mode records spans");
        assert!(ft.chrome_json.is_some());
        // The recorder-backed per-segment aggregates must fill the report's
        // per-machine fields identically in every mode (one clock, one
        // collection path).
        for (a, b) in huge_off.machines.iter().zip(huge_full.machines.iter()) {
            assert_eq!(a.segment_busy.len(), b.segment_busy.len());
            assert_eq!(a.segment_spans.len(), b.segment_spans.len());
        }

        for baseline in Baseline::ALL {
            let b_off = baseline.run(&graph, &query, &off).unwrap();
            assert_eq!(
                b_off.matches,
                expected,
                "{} off on {pattern:?}",
                baseline.name()
            );
            assert!(b_off.trace.is_none());
            // Baselines ignore the caller's tracing config (StarJoin and SEED
            // run on a cluster configured by the baselines crate) — same
            // counts, no trace attached.
            let b_full = baseline.run(&graph, &query, &full).unwrap();
            assert_eq!(
                b_full.matches,
                expected,
                "{} under a traced config on {pattern:?}",
                baseline.name()
            );
            assert!(b_full.trace.is_none());
        }
    }

    // One more input: a stalled, governed join plan. Machine 1 sleeps at the
    // start of the root join of a hot-partition square while its peer drains
    // and adopts its sealed partitions, under half the natural peak as the
    // budget. Every mode counts the same, and the full-span timeline shows
    // the stall, the chains and the recovering adoption.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..120u32 {
        edges.push((v, (v + 1) % 120));
        edges.push((v, (v + 7) % 120));
    }
    for i in 0..48u32 {
        edges.push((200, 300 + i));
        edges.push((201, 300 + i));
    }
    let graph = huge_graph::Graph::from_edges(edges);
    let query = Pattern::Square.query_graph();
    let expected = naive::enumerate(&graph, &query);
    let probe = HugeCluster::build(graph.clone(), ClusterConfig::new(2).workers(1)).unwrap();
    let plan = probe
        .plan_with_options(
            &query,
            huge_plan::optimizer::OptimizerOptions {
                disable_pulling: true,
                ..Default::default()
            },
        )
        .unwrap();
    let join_segment = huge_plan::translate::translate(&plan)
        .unwrap()
        .segments
        .len()
        - 1;
    let natural_peak = probe
        .run_with_plan(&plan, SinkMode::Count)
        .unwrap()
        .peak_memory_bytes;
    let stalled = ClusterConfig::new(2)
        .workers(1)
        .memory_budget_per_machine((natural_peak / 2).max(1))
        .inject_fault(
            1,
            join_segment,
            huge_core::Fault::Delay(std::time::Duration::from_millis(300)),
        );
    for tracing in [
        TraceConfig::off(),
        TraceConfig::metrics_only(),
        TraceConfig::full(),
    ] {
        let report = HugeCluster::build(graph.clone(), stalled.clone().tracing(tracing))
            .unwrap()
            .run_with_plan(&plan, SinkMode::Count)
            .unwrap();
        assert_eq!(report.matches, expected, "stalled join under {tracing:?}");
        // Where the busy time went, in every mode: a segment's operator
        // slots are timed inside its busy intervals, and the root join's
        // probe is the first of its slots.
        for m in &report.machines {
            assert_eq!(m.op_busy.len(), m.segment_busy.len());
            for (segment, (slots, busy)) in m.op_busy.iter().zip(&m.segment_busy).enumerate() {
                let attributed: std::time::Duration = slots.iter().sum();
                assert!(
                    attributed <= *busy,
                    "machine {} segment {segment}: slots {slots:?} exceed busy {busy:?}",
                    m.machine
                );
            }
        }
        // The stall is charged to the stalled machine's join segment as busy
        // time, like any other wait the segment's own work is blocked on.
        let stalled_busy = report.machines[1].segment_busy[join_segment];
        assert!(
            stalled_busy >= std::time::Duration::from_millis(300),
            "machine 1's join segment was busy {stalled_busy:?} through a 300 ms stall"
        );
        let probe_busy: std::time::Duration = report
            .machines
            .iter()
            .map(|m| m.op_busy[join_segment][0])
            .sum();
        assert!(probe_busy > std::time::Duration::ZERO, "no probe time");
        if let Some(snapshot) = &report.metrics {
            let series = format!(
                "huge_operator_busy_seconds_total{{segment=\"{join_segment}\",op=\"join\"}} "
            );
            assert!(snapshot.contains(&series), "snapshot misses {series}");
        }
        let Some(trace) = report.trace else { continue };
        let busy: std::time::Duration = trace.segments.iter().map(|s| s.busy).sum();
        assert!(busy > std::time::Duration::ZERO, "no segment busy time");
        let Some(chrome) = trace.chrome_json else {
            continue;
        };
        assert_eq!(
            chrome
                .matches("\"name\":\"fault_delay\",\"pid\":1,")
                .count(),
            1,
            "machine 1's timeline holds exactly one stall"
        );
        assert!(chrome.contains("\"chain\""));
        assert!(
            chrome.contains("\"adopt_partition\"") || chrome.contains("\"steal\""),
            "timeline misses the recovering steal"
        );
    }
}

// ---------------------------------------------------------------------------
// Chrome JSON well-formedness under random span interleavings
// ---------------------------------------------------------------------------

/// The operations a generated interleaving is built from. Orphan exits forge
/// span ids whose enters never happened (or were overwritten), mirroring
/// what ring overflow does to a real track.
#[derive(Debug, Clone)]
enum Op {
    Enter(usize),
    ExitTop,
    ExitOrphan(u32),
    Instant(usize),
}

/// Span names deliberately include everything the JSON escaper must handle:
/// quotes, backslashes, newlines and raw control characters.
const NAMES: [&str; 4] = ["chain", "park", "back\"slash\\quote", "ctl\n\t\u{7}chars"];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(Op::Enter),
        Just(Op::ExitTop),
        (0u32..u32::MAX).prop_map(Op::ExitOrphan),
        (0usize..NAMES.len()).prop_map(Op::Instant),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever interleaving of enters/exits/instants the machines produce —
    /// including orphan exits and overflowing rings — the export must parse
    /// as JSON, carry the Chrome trace-event shape, and contain only
    /// properly nested spans on every track.
    #[test]
    fn chrome_json_is_well_formed_and_nesting_balanced(
        ops in prop::collection::vec(op_strategy(), 0..200),
        capacity in 4usize..64,
        tracks in 1usize..4,
    ) {
        let rec = Recorder::new(TraceConfig::full().ring_capacity(capacity));
        let bufs: Vec<TraceBuf> = (0..tracks)
            .map(|m| rec.ring(m as u32, format!("machine-{m}"), &[]))
            .collect();
        let mut stacks: Vec<Vec<SpanId>> = vec![Vec::new(); tracks];
        for (i, op) in ops.iter().enumerate() {
            let t = i % tracks;
            match op {
                Op::Enter(n) => stacks[t].push(bufs[t].enter_kv(NAMES[*n], kv("i", i as u64))),
                Op::ExitTop => {
                    if let Some(id) = stacks[t].pop() {
                        bufs[t].exit(id);
                    }
                }
                Op::ExitOrphan(raw) => bufs[t].exit(SpanId(raw % 1024)),
                Op::Instant(n) => bufs[t].instant(NAMES[*n]),
            }
        }
        rec.global_instant("cancelled", 42, kv("machines", tracks as u64));
        let json = rec.timeline().chrome_json();
        let parsed = parse_json(&json);
        prop_assert!(parsed.is_ok(), "unparseable export: {:?}", parsed.err());
        if let Err(msg) = check_chrome_shape(&parsed.unwrap()) {
            prop_assert!(false, "{msg}");
        }
    }
}

/// Validates the Chrome trace-event shape and per-track span nesting of a
/// parsed export. Returns a description of the first violation.
fn check_chrome_shape(doc: &Json) -> Result<(), String> {
    let top = doc.as_obj().ok_or("top level must be an object")?;
    let unit = lookup(top, "displayTimeUnit").ok_or("missing displayTimeUnit")?;
    if unit.as_str() != Some("ms") {
        return Err(format!("displayTimeUnit is {unit:?}"));
    }
    let events = lookup(top, "traceEvents")
        .and_then(Json::as_arr)
        .ok_or("traceEvents must be an array")?;
    let mut spans_by_track: HashMap<(i64, i64), Vec<(i64, i64)>> = HashMap::new();
    for ev in events {
        let obj = ev.as_obj().ok_or("every event must be an object")?;
        let ph = lookup(obj, "ph")
            .and_then(Json::as_str)
            .ok_or("every event carries ph")?;
        let pid = lookup(obj, "pid")
            .and_then(Json::as_i64)
            .ok_or("every event carries pid")?;
        let tid = lookup(obj, "tid")
            .and_then(Json::as_i64)
            .ok_or("every event carries tid")?;
        match ph {
            "M" => {}
            "i" => {
                if lookup(obj, "s").and_then(Json::as_str) != Some("t") {
                    return Err("instants must be thread-scoped (\"s\":\"t\")".into());
                }
                let ts = lookup(obj, "ts")
                    .and_then(Json::as_i64)
                    .ok_or("instant ts")?;
                if ts < 0 {
                    return Err(format!("negative instant ts {ts}"));
                }
            }
            "X" => {
                let ts = lookup(obj, "ts").and_then(Json::as_i64).ok_or("span ts")?;
                let dur = lookup(obj, "dur")
                    .and_then(Json::as_i64)
                    .ok_or("span dur")?;
                if ts < 0 || dur < 0 {
                    return Err(format!("span with ts {ts} dur {dur}"));
                }
                if lookup(obj, "name").and_then(Json::as_str).is_none() {
                    return Err("span without a name".into());
                }
                spans_by_track
                    .entry((pid, tid))
                    .or_default()
                    .push((ts, ts + dur));
            }
            other => return Err(format!("unexpected ph {other:?}")),
        }
    }
    // Nesting balance: on each track, sorted by (start asc, end desc) —
    // parents before children — every span must sit entirely inside the
    // innermost still-open ancestor.
    for ((pid, tid), mut spans) in spans_by_track {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<i64> = Vec::new();
        for (start, end) in spans {
            while open
                .last()
                .is_some_and(|&ancestor_end| ancestor_end <= start)
            {
                open.pop();
            }
            if let Some(&ancestor_end) = open.last() {
                if end > ancestor_end {
                    return Err(format!(
                        "track ({pid},{tid}): span [{start},{end}] crosses its \
                         ancestor ending at {ancestor_end}"
                    ));
                }
            }
            open.push(end);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// A minimal JSON parser (the workspace is offline — no serde), strict enough
// to reject trailing garbage, bad escapes and unbalanced structure.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }
}

fn lookup<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected {:?} at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} got {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {:?}", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("dangling escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                // Raw control characters are invalid inside JSON strings —
                // this is exactly what the exporter's escaper must prevent.
                0x00..=0x1f => return Err(format!("raw control byte {b:#x} in string")),
                _ => {
                    // Collect the full UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or("invalid UTF-8 lead byte")?;
                    let end = start + len;
                    let chunk = self.bytes.get(start..end).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn utf8_len(lead: u8) -> Option<usize> {
    match lead {
        0x20..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}
