//! Run reports: the measurements every experiment consumes.

use std::time::Duration;

use huge_cache::CacheStats;
use huge_comm::stats::CommSnapshot;
use huge_trace::TraceSummary;

/// Per-machine measurements.
#[derive(Clone, Debug, Default)]
pub struct MachineReport {
    /// Machine id.
    pub machine: usize,
    /// Matches counted by this machine's sink.
    pub matches: u64,
    /// Wall-clock computation time of the machine thread.
    pub compute_time: Duration,
    /// Busy time of each worker on this machine over every pool run — scan
    /// expansion and extend calls alike (used for the Exp-8 load balance
    /// standard deviation).
    pub worker_busy: Vec<Duration>,
    /// Peak intermediate-result memory on this machine.
    pub peak_memory_bytes: u64,
    /// Traffic counters of this machine.
    pub comm: CommSnapshot,
    /// Number of batches this machine stole from other machines.
    pub batches_stolen: u64,
    /// Active execution time per segment on this machine (indexed by
    /// segment id).
    pub segment_busy: Vec<Duration>,
    /// Where each segment's busy time went on this machine: indexed by
    /// segment id, then by operator slot in the order of
    /// [`SegmentPlan::op_slots`](crate::machine::SegmentPlan::op_slots)
    /// (source, each extend, terminal, inbox absorb). A segment's slots sum
    /// to at most its `segment_busy`; the rest is scheduling between
    /// operators (queue checks, governor ticks, steal servicing, chain
    /// set-up and teardown).
    pub op_busy: Vec<Vec<Duration>>,
    /// First-activity and completion offsets of each segment relative to the
    /// run's start (`None` when the machine never reached the segment, e.g.
    /// on an aborted run). Under barriered execution no segment's start can
    /// precede another segment's end on any machine; under the pipelined
    /// scheduler the spans of different segments overlap.
    pub segment_spans: Vec<Option<(Duration, Duration)>>,
    /// What this machine's joins did: partition stealing and the probes.
    pub join: JoinReport,
}

/// What the join machinery did during a run: cross-machine Grace partition
/// stealing (ship/ack protocol over the router's control plane) and the
/// probes' pair counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinReport {
    /// Unprobed partitions this machine shipped to thieves.
    pub partitions_shipped: u64,
    /// Partitions this machine adopted from victims and probed locally.
    pub partitions_stolen: u64,
    /// Row payload bytes that crossed the wire in `PartitionShip` envelopes.
    pub shipped_bytes: u64,
    /// Candidate `(left row, right row)` pairs the probes tested (same join
    /// key within a partition).
    pub probe_pairs: u64,
    /// Tested pairs that survived injectivity, key re-check and order
    /// filters — the joined rows, whether counted or materialised.
    pub probe_matches: u64,
    /// Left rows probed against a build made before the left seal — as
    /// they arrive.
    pub streamed_rows: u64,
    /// The other left rows: probed against a build made at or after the
    /// left seal, or dropped unprobed with a partition that has no right
    /// rows.
    pub deferred_rows: u64,
}

impl JoinReport {
    /// Folds another machine's join counters into this one.
    pub fn merge(&mut self, other: &JoinReport) {
        self.partitions_shipped += other.partitions_shipped;
        self.partitions_stolen += other.partitions_stolen;
        self.shipped_bytes += other.shipped_bytes;
        self.probe_pairs += other.probe_pairs;
        self.probe_matches += other.probe_matches;
        self.streamed_rows += other.streamed_rows;
        self.deferred_rows += other.deferred_rows;
    }
}

/// What the memory governor did during a governed run (present only when
/// [`ClusterConfig::memory_budget`](crate::config::ClusterConfig) was set).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// The configured global budget in bytes.
    pub budget_bytes: u64,
    /// The per-machine share the governor enforced.
    pub machine_budget_bytes: u64,
    /// Transitions into Yellow pressure, summed over machines.
    pub transitions_to_yellow: u64,
    /// Transitions into Red pressure, summed over machines.
    pub transitions_to_red: u64,
    /// Batches deferred by governed backpressure (shrunken queue or inbox
    /// capacities observed while under pressure).
    pub throttled_batches: u64,
    /// `PUSH-JOIN` buffer bytes flushed to disk by the spill actuator.
    pub spilled_bytes: u64,
    /// Grace partition bytes shipped to thieves while governed (the
    /// victim's charge is held until the thief's ack, so shipping moves
    /// pressure rather than hiding it).
    pub shipped_bytes: u64,
    /// The run's peak tracked bytes (max over machines) — the number the
    /// budget is judged against.
    pub peak_bytes: u64,
}

impl GovernorReport {
    /// Total pressure transitions.
    pub fn transitions(&self) -> u64 {
        self.transitions_to_yellow + self.transitions_to_red
    }

    /// `true` when the observed peak exceeded the per-machine budget (the
    /// governor allows bounded overshoot: one batch per flow-control point,
    /// the paper's overflow-by-at-most-one-batch slack).
    pub fn over_budget(&self) -> bool {
        self.peak_bytes > self.machine_budget_bytes
    }
}

/// How a run ended. [`RunOutcome::Completed`] is the only outcome whose
/// `matches` is the query's answer; the early-exit outcomes ride inside the
/// matching [`EngineError`](crate::EngineError) variant and carry whatever
/// partial stats the machines had accumulated when they unwound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run finished normally.
    #[default]
    Completed,
    /// The run was cancelled through its
    /// [`CancelToken`](crate::cancel::CancelToken).
    Cancelled,
    /// The run outlived
    /// [`ClusterConfig::deadline`](crate::config::ClusterConfig).
    DeadlineExceeded,
}

/// The result of running one query on the cluster.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Name of the query (if any).
    pub query: String,
    /// Total number of matches (summed over machines).
    pub matches: u64,
    /// A sample of complete matches when the sink was configured to collect,
    /// in the input's vertex ids ([`huge_graph::Graph::input_id`]).
    pub sample_matches: Vec<Vec<u32>>,
    /// Wall-clock time of the parallel run (the paper's computation time
    /// `T_R`; the simulation transfers no real network bytes, so wall clock
    /// is computation).
    pub compute_time: Duration,
    /// Modelled communication time `T_C` derived from the recorded traffic
    /// and the configured network model.
    pub comm_time: Duration,
    /// Total bytes that crossed the simulated network (the paper's `C`).
    pub comm_bytes: u64,
    /// Aggregated traffic counters.
    pub comm: CommSnapshot,
    /// Peak intermediate-result memory over all machines (the paper's `M`).
    pub peak_memory_bytes: u64,
    /// Aggregated cache statistics over all machines.
    pub cache: CacheStats,
    /// Time spent in the fetch stage of `PULL-EXTEND` (the `t_f` reported in
    /// Table 5 to bound the two-stage synchronisation overhead): the slowest
    /// machine's, each machine's summed over its fetch stages — not a sum
    /// over machines.
    pub fetch_time: Duration,
    /// `true` when segments executed without barriers; `false` when the
    /// scheduler's barrier gate was on (`pipeline_segments(false)`: no
    /// segment starts before every machine released every earlier one).
    pub pipelined: bool,
    /// What the memory governor did (`None` for ungoverned runs).
    pub governor: Option<GovernorReport>,
    /// Aggregated join counters (sums over machines).
    pub join: JoinReport,
    /// Per-machine breakdowns.
    pub machines: Vec<MachineReport>,
    /// How the run ended ([`RunOutcome::Completed`] unless the report rides
    /// inside a `Cancelled`/`DeadlineExceeded` error).
    pub outcome: RunOutcome,
    /// Tracked intermediate-result bytes still allocated after the
    /// teardown sweep (queues drained, inboxes drained, joins dropped).
    /// Non-zero means an accounting leak — the chaos harness asserts zero.
    pub leaked_bytes: u64,
    /// Spill files left under the run's spill directory after teardown,
    /// counted just before the directory is removed. Non-zero means a
    /// `Drop` path missed a file — the chaos harness asserts zero.
    pub orphaned_spill_files: u64,
    /// Flight-recorder summary: span/instant counts, exact ring-overflow
    /// drops, the per-segment busy/wait breakdown and the Chrome
    /// trace-event JSON export. `None` unless the run was configured with
    /// [`TraceMode::Full`](huge_trace::TraceMode).
    pub trace: Option<TraceSummary>,
}

impl RunReport {
    /// The paper's total time `T = T_R + T_C`.
    pub fn total_time(&self) -> Duration {
        self.compute_time + self.comm_time
    }

    /// Standard deviation of per-worker busy time in seconds (Exp-8's load
    /// balance metric).
    pub fn worker_time_stddev(&self) -> f64 {
        let times: Vec<f64> = self
            .machines
            .iter()
            .flat_map(|m| m.worker_busy.iter().map(|d| d.as_secs_f64()))
            .collect();
        if times.len() < 2 {
            return 0.0;
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
        var.sqrt()
    }

    /// Aggregated CPU time across all workers (the paper's `T_total` used to
    /// bound work-stealing overhead in Exp-8).
    pub fn total_worker_time(&self) -> Duration {
        self.machines
            .iter()
            .flat_map(|m| m.worker_busy.iter())
            .sum()
    }

    /// A lower bound on the wall-clock a *barriered* execution of the same
    /// per-machine work would need: the sum over segments of the slowest
    /// machine's busy time on that segment (under barriers every machine
    /// must clear a segment before any machine may start the next).
    pub fn barrier_bound(&self) -> Duration {
        let segments = self
            .machines
            .iter()
            .map(|m| m.segment_busy.len())
            .max()
            .unwrap_or(0);
        (0..segments)
            .map(|s| {
                self.machines
                    .iter()
                    .map(|m| m.segment_busy.get(s).copied().unwrap_or_default())
                    .max()
                    .unwrap_or_default()
            })
            .sum()
    }

    /// Wall-clock the pipelined scheduler saved versus the barriered lower
    /// bound (zero for single-segment plans or barriered runs).
    pub fn overlap_saved(&self) -> Duration {
        self.barrier_bound().saturating_sub(self.compute_time)
    }

    /// Throughput in matches per second of total time (Exp-3, Table 4).
    pub fn throughput(&self) -> f64 {
        let t = self.total_time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.matches as f64 / t
        }
    }

    /// A one-line summary used by the experiment harness.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} matches={:<14} T={:>9.3}s  T_R={:>9.3}s  T_C={:>9.3}s  C={:>10} bytes  M={:>10} bytes  \
             streamed={} deferred={}",
            self.query,
            self.matches,
            self.total_time().as_secs_f64(),
            self.compute_time.as_secs_f64(),
            self.comm_time.as_secs_f64(),
            self.comm_bytes,
            self.peak_memory_bytes,
            self.join.streamed_rows,
            self.join.deferred_rows
        )
    }
}

/// Merges cache statistics from several machines.
pub(crate) fn merge_cache_stats(stats: impl IntoIterator<Item = CacheStats>) -> CacheStats {
    stats
        .into_iter()
        .fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            inserts: a.inserts + b.inserts,
            evictions: a.evictions + b.evictions,
            overflow_inserts: a.overflow_inserts + b.overflow_inserts,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_and_throughput() {
        let report = RunReport {
            matches: 1000,
            compute_time: Duration::from_secs(2),
            comm_time: Duration::from_secs(3),
            ..Default::default()
        };
        assert_eq!(report.total_time(), Duration::from_secs(5));
        assert!((report.throughput() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn stddev_of_balanced_workers_is_zero() {
        let report = RunReport {
            machines: vec![MachineReport {
                worker_busy: vec![Duration::from_secs(1); 4],
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(report.worker_time_stddev() < 1e-12);
    }

    #[test]
    fn stddev_detects_skew() {
        let report = RunReport {
            machines: vec![MachineReport {
                worker_busy: vec![
                    Duration::from_secs(0),
                    Duration::from_secs(0),
                    Duration::from_secs(0),
                    Duration::from_secs(8),
                ],
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(report.worker_time_stddev() > 3.0);
        assert_eq!(report.total_worker_time(), Duration::from_secs(8));
    }

    #[test]
    fn barrier_bound_sums_per_segment_maxima() {
        let report = RunReport {
            compute_time: Duration::from_secs(4),
            machines: vec![
                MachineReport {
                    segment_busy: vec![Duration::from_secs(3), Duration::from_secs(1)],
                    ..Default::default()
                },
                MachineReport {
                    segment_busy: vec![Duration::from_secs(1), Duration::from_secs(2)],
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        // Barriered: max(3, 1) + max(1, 2) = 5s; the 4s pipelined wall clock
        // saved 1s of barrier idle time.
        assert_eq!(report.barrier_bound(), Duration::from_secs(5));
        assert_eq!(report.overlap_saved(), Duration::from_secs(1));
    }

    #[test]
    fn governor_report_budget_accounting() {
        let report = GovernorReport {
            budget_bytes: 4_000,
            machine_budget_bytes: 1_000,
            transitions_to_yellow: 3,
            transitions_to_red: 2,
            throttled_batches: 10,
            spilled_bytes: 512,
            shipped_bytes: 256,
            peak_bytes: 900,
        };
        assert_eq!(report.transitions(), 5);
        assert!(!report.over_budget());
        let over = GovernorReport {
            peak_bytes: 1_200,
            ..report
        };
        assert!(over.over_budget());
    }

    #[test]
    fn join_report_merge_sums_counters() {
        let mut total = JoinReport {
            partitions_shipped: 1,
            partitions_stolen: 0,
            shipped_bytes: 100,
            probe_pairs: 10,
            probe_matches: 4,
            streamed_rows: 7,
            deferred_rows: 0,
        };
        total.merge(&JoinReport {
            partitions_shipped: 0,
            partitions_stolen: 2,
            shipped_bytes: 50,
            probe_pairs: 5,
            probe_matches: 5,
            streamed_rows: 1,
            deferred_rows: 3,
        });
        assert_eq!(total.partitions_shipped, 1);
        assert_eq!(total.partitions_stolen, 2);
        assert_eq!(total.shipped_bytes, 150);
        assert_eq!((total.probe_pairs, total.probe_matches), (15, 9));
        assert_eq!((total.streamed_rows, total.deferred_rows), (8, 3));
    }

    #[test]
    fn merge_cache_stats_adds_fields() {
        let merged = merge_cache_stats([
            CacheStats {
                hits: 1,
                misses: 2,
                inserts: 3,
                evictions: 4,
                overflow_inserts: 5,
            },
            CacheStats {
                hits: 10,
                misses: 20,
                inserts: 30,
                evictions: 40,
                overflow_inserts: 50,
            },
        ]);
        assert_eq!(merged.hits, 11);
        assert_eq!(merged.overflow_inserts, 55);
    }

    #[test]
    fn summary_contains_key_fields() {
        let report = RunReport {
            query: "q1".into(),
            matches: 7,
            join: JoinReport {
                streamed_rows: 5,
                deferred_rows: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = report.summary();
        assert!(s.contains("q1"));
        assert!(s.contains("matches=7"));
        assert!(s.contains("streamed=5 deferred=2"));
    }
}
