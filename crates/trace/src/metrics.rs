//! Typed metrics: counters, counter families and fixed-bucket histograms,
//! registered once per run and exported as a Prometheus-text snapshot.
//!
//! Metrics are deliberately *not* gated by the span switch: a counter
//! increment is one relaxed atomic add — the same cost as the comm byte
//! counters the runtime has always kept — and several `RunReport` fields
//! (governor transitions, join lifecycle counts) are sourced from them in
//! every trace mode. Only the *export* of the snapshot is mode-dependent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Name should end in `_total`.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-bucket histogram; bucket bounds are set at registration.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    /// Inclusive upper bounds; an implicit `+Inf` bucket follows.
    bounds: Box<[u64]>,
    /// One slot per bound plus the `+Inf` slot.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A labelled counter family, registered whole with its final values.
struct Family {
    name: &'static str,
    help: &'static str,
    /// `(label set, value)`, the label set as it appears between the braces.
    series: Vec<(String, f64)>,
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
    Family(Family),
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Histogram(h) => h.name,
            Metric::Family(f) => f.name,
        }
    }
}

/// The per-run metric registry. Handles are registered once (re-registering
/// a name returns the existing handle) and snapshotted with
/// [`Registry::prometheus_text`].
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or looks up) a counter.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(m) = metrics.iter().find(|m| m.name() == name) {
            match m {
                Metric::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {name} already registered with a different type"),
            }
        }
        let c = Arc::new(Counter {
            name,
            help,
            value: AtomicU64::new(0),
        });
        metrics.push(Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Registers (or looks up) a histogram with inclusive bucket bounds
    /// (ascending; an implicit `+Inf` bucket is appended).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(m) = metrics.iter().find(|m| m.name() == name) {
            match m {
                Metric::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name} already registered with a different type"),
            }
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let h = Arc::new(Histogram {
            name,
            help,
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        });
        metrics.push(Metric::Histogram(Arc::clone(&h)));
        h
    }

    /// Registers a labelled counter family with its final values: one series
    /// per `(label set, value)`, the label set written as it is exported
    /// (`segment="2",op="join"`). For totals whose series are only known once
    /// the run is over; there is no live handle.
    ///
    /// # Panics
    /// If `name` is already registered.
    pub fn counter_family(
        &self,
        name: &'static str,
        help: &'static str,
        series: Vec<(String, f64)>,
    ) {
        let mut metrics = self.metrics.lock().unwrap();
        assert!(
            metrics.iter().all(|m| m.name() != name),
            "metric {name} already registered"
        );
        metrics.push(Metric::Family(Family { name, help, series }));
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (histograms with cumulative `_bucket{le=..}` lines).
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.lock().unwrap();
        let mut out = String::new();
        for m in metrics.iter() {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# HELP {} {}", c.name, c.help);
                    let _ = writeln!(out, "# TYPE {} counter", c.name);
                    let _ = writeln!(out, "{} {}", c.name, c.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
                    let _ = writeln!(out, "# TYPE {} histogram", h.name);
                    let mut cumulative = 0u64;
                    for (i, bound) in h.bounds.iter().enumerate() {
                        cumulative += h.buckets[i].load(Ordering::Relaxed);
                        let _ =
                            writeln!(out, "{}_bucket{{le=\"{}\"}} {}", h.name, bound, cumulative);
                    }
                    cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, cumulative);
                    let _ = writeln!(out, "{}_sum {}", h.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", h.name, h.count());
                }
                Metric::Family(f) => {
                    let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
                    let _ = writeln!(out, "# TYPE {} counter", f.name);
                    for (labels, value) in &f.series {
                        let _ = writeln!(out, "{}{{{}}} {}", f.name, labels, value);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let r = Registry::new();
        let a = r.counter("huge_test_total", "a test counter");
        let b = r.counter("huge_test_total", "a test counter");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE huge_test_total counter"));
        assert!(text.contains("huge_test_total 5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_export() {
        let r = Registry::new();
        let h = r.histogram("huge_wait_micros", "waits", &[10, 100, 1000]);
        for v in [5, 7, 50, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5062);
        let text = r.prometheus_text();
        assert!(text.contains("huge_wait_micros_bucket{le=\"10\"} 2"));
        assert!(text.contains("huge_wait_micros_bucket{le=\"100\"} 3"));
        assert!(text.contains("huge_wait_micros_bucket{le=\"1000\"} 3"));
        assert!(text.contains("huge_wait_micros_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("huge_wait_micros_count 4"));
    }

    #[test]
    fn counter_families_export_one_line_per_label_set() {
        let r = Registry::new();
        let series = vec![
            ("segment=\"0\",op=\"scan\"".to_string(), 0.25),
            ("segment=\"2\",op=\"join\"".to_string(), 1.5),
        ];
        r.counter_family("huge_busy_seconds_total", "busy", series);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE huge_busy_seconds_total counter"));
        assert!(text.contains("huge_busy_seconds_total{segment=\"0\",op=\"scan\"} 0.25\n"));
        assert!(text.contains("huge_busy_seconds_total{segment=\"2\",op=\"join\"} 1.5\n"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("huge_x", "x");
        let _ = r.histogram("huge_x", "x", &[1]);
    }
}
