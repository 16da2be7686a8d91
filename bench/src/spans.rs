//! Harness spans: one record per call into a layer function, kept in memory
//! and written out as Chrome trace JSON when the benchmark ends.
//!
//! The spans live in the harness, around the calls into the engine's public
//! API; spans inside the engine are `huge-trace`'s job. A disabled recorder
//! (end-to-end mode) still times the call but stores nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Accumulated time of one span name.
pub struct LayerTime {
    pub name: &'static str,
    pub calls: u64,
    pub total: Duration,
    /// `total` minus the part covered by child spans.
    pub self_time: Duration,
}

/// The span recorder of one workload run.
pub struct Spans {
    epoch: Instant,
    /// `None` when tracing is off.
    inner: Option<RefCell<Inner>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            inner: enabled.then(|| RefCell::new(Inner::default())),
        }
    }

    /// Runs `f` inside a span called `name`, whose parent is the innermost
    /// span open on this recorder, and returns `f`'s result with the time it
    /// took.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.inner.as_ref().map(|inner| {
            let mut inner = inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start: Duration::ZERO,
                end: Duration::ZERO,
                parent,
            });
            inner.open.push(id);
            id
        });
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if let (Some(inner), Some(id)) = (&self.inner, id) {
            let mut inner = inner.borrow_mut();
            let begin = start.duration_since(self.epoch);
            inner.spans[id].start = begin;
            inner.spans[id].end = begin + took;
            inner.open.pop();
        }
        (out, took)
    }

    /// Per-name totals and self times, in first-seen order of the names.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let inner = inner.borrow();
        let mut child_time = vec![Duration::ZERO; inner.spans.len()];
        for span in &inner.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (span, children) in inner.spans.iter().zip(child_time) {
            let total = span.end - span.start;
            let i = out
                .iter()
                .position(|t| t.name == span.name)
                .unwrap_or_else(|| {
                    out.push(LayerTime {
                        name: span.name,
                        calls: 0,
                        total: Duration::ZERO,
                        self_time: Duration::ZERO,
                    });
                    out.len() - 1
                });
            out[i].calls += 1;
            out[i].total += total;
            out[i].self_time += total.saturating_sub(children);
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// the span id, its parent's id and name, and the workload in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        if let Some(inner) = &self.inner {
            let inner = inner.borrow();
            for (id, span) in inner.spans.iter().enumerate() {
                if id > 0 {
                    out.push(',');
                }
                let (parent_id, parent_name) = match span.parent {
                    Some(p) => (p as i64, inner.spans[p].name),
                    None => (-1, ""),
                };
                // Span names are literals of this crate: no escaping needed.
                write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{id},\"parent\":{parent_id},\
                     \"parent_name\":\"{parent_name}\",\"workload\":\"{workload}\"}}}}",
                    span.name,
                    span.start.as_secs_f64() * 1e6,
                    (span.end - span.start).as_secs_f64() * 1e6,
                )
                .expect("writing to a String cannot fail");
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let spans = Spans::new(true);
        spans.scope("outer", || {
            spans.scope("inner", || std::thread::sleep(Duration::from_millis(5)));
            spans.scope("inner", || ());
        });
        let times = spans.layer_times();
        assert_eq!(times.len(), 2);
        assert_eq!((times[0].name, times[0].calls), ("outer", 1));
        assert_eq!((times[1].name, times[1].calls), ("inner", 2));
        assert!(times[0].self_time <= times[0].total - Duration::from_millis(5));
        let json = spans.chrome_json("w");
        assert!(json.contains("\"parent_name\":\"outer\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let spans = Spans::new(false);
        let (v, took) = spans.scope("x", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(took >= Duration::from_millis(2));
        assert!(spans.layer_times().is_empty());
        assert_eq!(
            spans.chrome_json("w"),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
