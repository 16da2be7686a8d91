//! Engine configuration.

use std::time::Duration;

use huge_cache::CacheKind;
use huge_comm::{LinkFaultKind, NetworkModel};
use huge_trace::TraceConfig;

/// How the results of a run are consumed by the `SINK` operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkMode {
    /// Count matches only (the default for benchmarks; mirrors the paper's
    /// "decompress by counting to verify the results").
    Count,
    /// Materialise every match, and keep up to the given number of them
    /// (for verification and the examples). Every match is gathered into
    /// its machine's terminal queue whatever the number, `Collect(0)`
    /// included: the join-based baselines and Exp-7 run `Collect(0)` to
    /// measure what materialising costs.
    Collect(usize),
}

/// Load-balancing strategy (Exp-8 compares all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadBalance {
    /// Two-layer (intra- and inter-machine) work stealing — HUGE's default.
    WorkStealing,
    /// No stealing: load is distributed statically by the first matched
    /// (pivot) vertex, as BENU does (the paper's HUGE-NOSTL).
    None,
    /// RADS' region-group heuristic: scan input is assigned to workers in
    /// contiguous region groups (the paper's HUGE-RGP).
    RegionGroup,
}

/// Where a [`Fault::PanicAt`] fires inside the faulted segment, instead of
/// at the segment's start like the plain [`Fault::Panic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicPoint {
    /// While building the segment's operator chain (before any input).
    Build,
    /// When the segment's `PUSH-JOIN` starts probing (after sealing).
    Probe,
    /// When the machine ships a stolen Grace partition to a peer.
    Ship,
}

/// What a [`FaultSpec`] injects.
///
/// `Panic`/`PanicAt`/`Delay` fire once, at (or inside) the named segment on
/// the named machine. The transport faults (`DropBatch`, `DuplicateBatch`,
/// `ReorderWindow`, `SlowLink`) instead *arm a lossy link* for every data
/// envelope the machine sends while executing that segment's shuffle (drops
/// and duplicates also hit the partitions it ships for the segment); a plan
/// holding any of them runs on the fault-injection link of `huge_comm::link`
/// ([`ClusterConfig::unreliable_transport`]) — without it the faults would
/// silently corrupt results. All probabilistic decisions derive from
/// [`ClusterConfig::fault_seed`], so a fault plan replays identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The machine thread panics (exercises abort propagation).
    Panic,
    /// The machine thread panics at a specific point inside the segment.
    PanicAt(PanicPoint),
    /// The machine holds the segment back for the given duration once it
    /// is runnable (makes one machine a deterministic straggler in it). The
    /// machine runs its other segments and answers peers meanwhile, and a
    /// cancel still lands within a park timeout.
    Delay(Duration),
    /// Each data envelope the machine sends is lost in transit with
    /// probability `ppm` / 1 000 000; the sender's retry path recovers it.
    DropBatch {
        /// Loss probability in parts per million (≤ 1 000 000).
        ppm: u32,
    },
    /// Each data envelope is delivered twice with probability `ppm`
    /// / 1 000 000; the receiver's dedup drops the copy.
    DuplicateBatch {
        /// Duplication probability in parts per million (≤ 1 000 000).
        ppm: u32,
    },
    /// Data envelopes are buffered and released in a seeded shuffle every
    /// `window` sends (out-of-order delivery; sequence numbers restore the
    /// per-link order guarantees the join feed relies on).
    ReorderWindow {
        /// Shuffle window in envelopes (≥ 1; 1 degenerates to in-order).
        window: usize,
    },
    /// Every data envelope from the machine is held back `delay` before the
    /// destination accepts it (a slow NIC / congested link).
    SlowLink {
        /// Added one-way latency.
        delay: Duration,
    },
}

impl Fault {
    /// The link fault a transport fault arms on the fault-injection link (a
    /// plan holding any arms [`ClusterConfig::unreliable_transport`]); `None`
    /// for the faults that fire on the machine itself.
    pub fn link_kind(&self) -> Option<LinkFaultKind> {
        Some(match *self {
            Fault::DropBatch { ppm } => LinkFaultKind::Drop { ppm },
            Fault::DuplicateBatch { ppm } => LinkFaultKind::Duplicate { ppm },
            Fault::ReorderWindow { window } => LinkFaultKind::Reorder { window },
            Fault::SlowLink { delay } => LinkFaultKind::Slow { delay },
            Fault::Panic | Fault::PanicAt(_) | Fault::Delay(_) => return None,
        })
    }
}

/// A chaos-testing hook: inject a fault on one machine, armed by one
/// segment. Used by the test suite and the chaos harness to make failure
/// paths deterministic; the plan is empty in production.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The machine the fault fires on.
    pub machine: usize,
    /// The segment whose start triggers (or arms) it.
    pub segment: usize,
    /// What happens.
    pub fault: Fault,
}

/// Configuration of a [`HugeCluster`](crate::HugeCluster).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of simulated machines `k`.
    pub machines: usize,
    /// Worker threads per machine (the paper uses 4 in the local cluster).
    pub workers_per_machine: usize,
    /// Rows per batch — the minimum data processing unit (§4.2). The paper's
    /// default is 512 K; the default here is smaller because the synthetic
    /// graphs are smaller.
    pub batch_size: usize,
    /// Capacity of each operator's output queue in rows (§5.2). `usize::MAX`
    /// degenerates to pure BFS scheduling, `1` to pure DFS scheduling (the
    /// builder floors the value at 1: a zero-capacity queue would wedge
    /// `SharedQueue`, since even one pushed batch could never drain space).
    pub output_queue_rows: usize,
    /// Capacity of each machine's router inbox in rows. Producers shuffling
    /// join inputs observe backpressure when a destination inbox is full and
    /// cooperate by absorbing their own inbox while they wait.
    pub router_queue_rows: usize,
    /// Cache capacity as a fraction of the data graph's CSR size (the paper
    /// defaults to 30%).
    pub cache_capacity_fraction: f64,
    /// Which cache design to use (Exp-6).
    pub cache_kind: CacheKind,
    /// Disable the cache entirely (Exp-4 runs with the cache off).
    pub disable_cache: bool,
    /// In-memory buffer per `PUSH-JOIN` side before spilling to disk, bytes.
    pub join_buffer_bytes: u64,
    /// Local vertices whose degree reaches this threshold get a cached
    /// bitmap in the partition's hub index, switching their intersections to
    /// the block-skipping bitmap kernel. `0` disables hub bitmaps.
    pub hub_degree_threshold: usize,
    /// Load-balancing strategy. [`LoadBalance::WorkStealing`] covers every
    /// inter-machine layer (the one Exp-8 knob): scan chunks and queued
    /// batches on scan segments, and on join segments cross-machine Grace
    /// *partition* stealing — a machine that has finished probing its own
    /// sealed build requests sealed-but-unprobed partitions from busy peers
    /// through the router's control plane, so one hot partition no longer
    /// serialises the join phase.
    pub load_balance: LoadBalance,
    /// Execute segments without barriers (default): each machine thread
    /// drives all segments by readiness, so a fast machine moves on while a
    /// straggler finishes. `false` adds a scheduling gate to the same loop —
    /// no machine starts a segment before every machine has released every
    /// earlier one — which is the barriered execution the `barrier`
    /// experiment quantifies.
    pub pipeline_segments: bool,
    /// Global byte budget for intermediate-result memory across the cluster.
    /// When set, the run instantiates a
    /// [`MemoryGovernor`](crate::governor::MemoryGovernor) that enforces the
    /// per-machine share (`memory_budget / machines`) by shrinking
    /// queue/inbox capacities, tightening the scheduler into strict DFS and
    /// spilling `PUSH-JOIN` buffers under pressure. `None` (the default)
    /// disables governance entirely.
    pub memory_budget: Option<u64>,
    /// Chaos-testing hooks; see [`FaultSpec`]. Empty in production. Faults
    /// are independent: several may target the same machine/segment.
    pub fault_plan: Vec<FaultSpec>,
    /// Seed for every probabilistic fault decision (drop/duplicate fates,
    /// reorder shuffles). The same plan + seed replays identically.
    pub fault_seed: u64,
    /// Wall-clock budget for a run. When set, the run's
    /// [`CancelToken`](crate::cancel::CancelToken) trips to
    /// `DeadlineExceeded` once the budget elapses and the cluster returns
    /// [`EngineError::DeadlineExceeded`](crate::EngineError) carrying the
    /// partial-stats report. `None` (the default) never expires.
    pub deadline: Option<Duration>,
    /// Flight-recorder configuration: off (default) or full span recording
    /// with timeline export. See
    /// [`RunReport::trace`](crate::report::RunReport) for the output.
    pub tracing: TraceConfig,
}

impl ClusterConfig {
    /// A configuration with `machines` machines and sensible defaults.
    pub fn new(machines: usize) -> Self {
        ClusterConfig {
            machines: machines.max(1),
            workers_per_machine: 2,
            batch_size: 8 * 1024,
            output_queue_rows: 128 * 1024,
            router_queue_rows: 256 * 1024,
            cache_capacity_fraction: 0.3,
            cache_kind: CacheKind::Lrbu,
            disable_cache: false,
            join_buffer_bytes: 64 * 1024 * 1024,
            hub_degree_threshold: 256,
            load_balance: LoadBalance::WorkStealing,
            pipeline_segments: true,
            memory_budget: None,
            fault_plan: Vec::new(),
            fault_seed: 0x9e37_79b9_7f4a_7c15,
            deadline: None,
            tracing: TraceConfig::default(),
        }
    }

    /// Sets the number of worker threads per machine.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers_per_machine = workers.max(1);
        self
    }

    /// Sets the batch size in rows.
    pub fn batch_size(mut self, rows: usize) -> Self {
        self.batch_size = rows.max(1);
        self
    }

    /// Sets the output queue capacity in rows (floored at 1, like
    /// [`ClusterConfig::router_queue_rows`]: a zero-capacity queue can never
    /// drain and wedges the scheduler; capacity 1 is the pure-DFS setting).
    pub fn output_queue_rows(mut self, rows: usize) -> Self {
        self.output_queue_rows = rows.max(1);
        self
    }

    /// Sets the router inbox capacity in rows.
    pub fn router_queue_rows(mut self, rows: usize) -> Self {
        self.router_queue_rows = rows.max(1);
        self
    }

    /// Sets the cache capacity as a fraction of the graph size.
    pub fn cache_fraction(mut self, fraction: f64) -> Self {
        self.cache_capacity_fraction = fraction.clamp(0.0, 10.0);
        self
    }

    /// Chooses the cache design.
    pub fn cache_kind(mut self, kind: CacheKind) -> Self {
        self.cache_kind = kind;
        self
    }

    /// Disables the pull cache entirely.
    pub fn no_cache(mut self) -> Self {
        self.disable_cache = true;
        self
    }

    /// Chooses the load-balancing strategy.
    pub fn load_balance(mut self, lb: LoadBalance) -> Self {
        self.load_balance = lb;
        self
    }

    /// Whether idle machines steal from their peers — scan chunks, queued
    /// batches and sealed Grace partitions: exactly under
    /// [`LoadBalance::WorkStealing`].
    pub fn inter_machine_stealing(&self) -> bool {
        self.load_balance == LoadBalance::WorkStealing
    }

    /// Enables or disables barrier-free cross-segment pipelining.
    pub fn pipeline_segments(mut self, pipelined: bool) -> Self {
        self.pipeline_segments = pipelined;
        self
    }

    /// Appends a chaos-testing fault to the plan (see [`FaultSpec`]).
    pub fn inject_fault(mut self, machine: usize, segment: usize, fault: Fault) -> Self {
        self.fault_plan.push(FaultSpec {
            machine,
            segment,
            fault,
        });
        self
    }

    /// Replaces the whole fault plan at once (the chaos harness's entry
    /// point).
    pub fn fault_plan(mut self, plan: Vec<FaultSpec>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Whether data envelopes and partition ships ride the fault-injection
    /// link (sequence-numbered, receiver-deduplicated, sender-retried with
    /// bounded backoff): exactly when the fault plan holds a transport
    /// fault, which would corrupt results without it.
    pub fn unreliable_transport(&self) -> bool {
        self.fault_plan
            .iter()
            .any(|s| s.fault.link_kind().is_some())
    }

    /// Sets the seed behind every probabilistic fault decision.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Selects the flight-recorder capture level for each run (off by
    /// default; see [`huge_trace::TraceMode`]).
    pub fn tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = tracing;
        self
    }

    /// Sets the wall-clock deadline for each run.
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    /// Sets the per-side `PUSH-JOIN` buffer threshold before disk spill.
    pub fn join_buffer_bytes(mut self, bytes: u64) -> Self {
        self.join_buffer_bytes = bytes.max(1024);
        self
    }

    /// Sets the global intermediate-result memory budget in bytes and
    /// enables the [`MemoryGovernor`](crate::governor::MemoryGovernor).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes.max(1));
        self
    }

    /// Sets the same budget from its per-machine share:
    /// `memory_budget = bytes × machines`.
    pub fn memory_budget_per_machine(self, bytes: u64) -> Self {
        let machines = self.machines as u64;
        self.memory_budget(bytes.max(1).saturating_mul(machines))
    }

    /// The per-machine byte budget the governor enforces, if any: an even
    /// share of the global budget.
    pub fn machine_memory_budget(&self) -> Option<u64> {
        self.memory_budget
            .map(|b| (b / self.machines.max(1) as u64).max(1))
    }

    /// The network model that converts recorded traffic into the reported
    /// communication time `T_C`: the paper's 10 Gbps cluster of
    /// [`ClusterConfig::machines`] machines.
    pub fn network(&self) -> NetworkModel {
        NetworkModel::ten_gbps(self.machines)
    }

    /// The effective cache capacity for a graph of `graph_bytes` CSR bytes.
    pub fn effective_cache_bytes(&self, graph_bytes: u64) -> u64 {
        (((graph_bytes as f64) * self.cache_capacity_fraction) as u64).max(1024)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("at least one machine is required".into());
        }
        if self.workers_per_machine == 0 {
            return Err("at least one worker per machine is required".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        for (i, spec) in self.fault_plan.iter().enumerate() {
            if spec.machine >= self.machines {
                return Err(format!(
                    "fault_plan[{i}] targets machine {} but the cluster has {} machines \
                     (the fault would silently never fire)",
                    spec.machine, self.machines
                ));
            }
            match spec.fault {
                Fault::DropBatch { ppm } | Fault::DuplicateBatch { ppm } if ppm > 1_000_000 => {
                    return Err(format!(
                        "fault_plan[{i}]: probability {ppm} ppm exceeds 1_000_000"
                    ));
                }
                Fault::ReorderWindow { window: 0 } => {
                    return Err(format!(
                        "fault_plan[{i}]: reorder window must be at least 1"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validates the fault plan against the translated dataflow's segment
    /// count (only known at run time, so this complements
    /// [`ClusterConfig::validate`]). A spec naming a segment that does not
    /// exist would silently never fire — reject it instead.
    pub fn validate_fault_segments(&self, num_segments: usize) -> Result<(), String> {
        for (i, spec) in self.fault_plan.iter().enumerate() {
            if spec.segment >= num_segments {
                return Err(format!(
                    "fault_plan[{i}] targets segment {} but the plan has {num_segments} \
                     segments (the fault would silently never fire)",
                    spec.segment
                ));
            }
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(ClusterConfig::new(10).validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let cfg = ClusterConfig::new(3)
            .workers(5)
            .batch_size(100)
            .output_queue_rows(1000)
            .cache_fraction(0.5)
            .cache_kind(CacheKind::ConcurrentLru)
            .load_balance(LoadBalance::None)
            .join_buffer_bytes(2048);
        assert_eq!(cfg.machines, 3);
        assert_eq!(cfg.workers_per_machine, 5);
        assert_eq!(cfg.batch_size, 100);
        assert_eq!(cfg.output_queue_rows, 1000);
        assert!(!cfg.inter_machine_stealing());
        assert_eq!(cfg.join_buffer_bytes, 2048);
    }

    #[test]
    fn cache_capacity_resolution() {
        let cfg = ClusterConfig::new(2).cache_fraction(0.5);
        assert_eq!(cfg.effective_cache_bytes(10_000), 5_000);
        // Tiny fractions are clamped to a sane minimum.
        let cfg = ClusterConfig::new(2).cache_fraction(0.0);
        assert_eq!(cfg.effective_cache_bytes(1000), 1024);
    }

    #[test]
    fn pipelining_defaults_on_and_toggles() {
        let cfg = ClusterConfig::new(2);
        assert!(cfg.pipeline_segments);
        assert!(cfg.fault_plan.is_empty());
        // `inject_fault` appends to the plan (each call adds one spec).
        let cfg = cfg
            .pipeline_segments(false)
            .inject_fault(1, 0, Fault::Delay(Duration::from_millis(5)))
            .inject_fault(0, 1, Fault::Panic);
        assert!(!cfg.pipeline_segments);
        assert_eq!(
            cfg.fault_plan,
            vec![
                FaultSpec {
                    machine: 1,
                    segment: 0,
                    fault: Fault::Delay(Duration::from_millis(5)),
                },
                FaultSpec {
                    machine: 0,
                    segment: 1,
                    fault: Fault::Panic,
                },
            ]
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fault_plan_validation_rejects_out_of_range_and_degenerate_specs() {
        // Machine index beyond the cluster: the fault would never fire.
        let cfg = ClusterConfig::new(2).inject_fault(2, 0, Fault::Panic);
        assert!(cfg.validate().is_err());
        // Probabilities are parts-per-million, capped at 1.0.
        let cfg = ClusterConfig::new(2).inject_fault(0, 0, Fault::DropBatch { ppm: 1_000_001 });
        assert!(cfg.validate().is_err());
        // A zero reorder window is meaningless.
        let cfg = ClusterConfig::new(2).inject_fault(0, 0, Fault::ReorderWindow { window: 0 });
        assert!(cfg.validate().is_err());
        // Segment bounds are checked against the translated plan.
        let cfg = ClusterConfig::new(2).inject_fault(0, 3, Fault::Panic);
        assert!(cfg.validate().is_ok());
        assert!(cfg.validate_fault_segments(4).is_ok());
        assert!(cfg.validate_fault_segments(3).is_err());
    }

    #[test]
    fn a_transport_fault_alone_arms_the_lossy_transport() {
        let cfg = ClusterConfig::new(2);
        assert!(!cfg.unreliable_transport());
        let cfg = cfg.inject_fault(0, 0, Fault::DropBatch { ppm: 1000 });
        assert!(cfg.unreliable_transport());
        assert!(cfg.validate().is_ok());
        // Same through the whole-plan setter, and through the public field.
        let spec = FaultSpec {
            machine: 1,
            segment: 0,
            fault: Fault::ReorderWindow { window: 4 },
        };
        let cfg = ClusterConfig::new(2).fault_plan(vec![spec]);
        assert!(cfg.unreliable_transport());
        let mut cfg = ClusterConfig::new(2);
        cfg.fault_plan.push(spec);
        assert!(cfg.unreliable_transport());
        assert!(cfg.validate().is_ok());
        // Replacing the plan disarms it again; non-transport faults never arm it.
        assert!(!cfg.fault_plan(Vec::new()).unreliable_transport());
        let cfg = ClusterConfig::new(2).inject_fault(0, 0, Fault::PanicAt(PanicPoint::Probe));
        assert!(!cfg.unreliable_transport());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn deadline_and_seed_builders_apply() {
        let cfg = ClusterConfig::new(2);
        assert!(cfg.deadline.is_none());
        let cfg = cfg.deadline(Duration::from_millis(250)).fault_seed(42);
        assert_eq!(cfg.deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.fault_seed, 42);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_machines_is_clamped() {
        let cfg = ClusterConfig::new(0);
        assert_eq!(cfg.machines, 1);
    }

    #[test]
    fn zero_output_queue_rows_is_floored_like_router_queue_rows() {
        // Regression: `output_queue_rows(0)` used to be accepted verbatim
        // and wedged `SharedQueue` (a zero-capacity queue is always full).
        let cfg = ClusterConfig::new(2)
            .output_queue_rows(0)
            .router_queue_rows(0);
        assert_eq!(cfg.output_queue_rows, 1);
        assert_eq!(cfg.router_queue_rows, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn skew_knobs_default_on_and_follow_load_balance() {
        // Inter-machine stealing — scan and join layers alike — is on by
        // default and follows the load-balancing strategy.
        assert!(ClusterConfig::new(4).inter_machine_stealing());
        for lb in [LoadBalance::None, LoadBalance::RegionGroup] {
            assert!(!ClusterConfig::new(4)
                .load_balance(lb)
                .inter_machine_stealing());
        }
    }

    #[test]
    fn memory_budget_knobs_and_per_machine_share() {
        let cfg = ClusterConfig::new(4);
        assert_eq!(cfg.memory_budget, None);
        assert_eq!(cfg.machine_memory_budget(), None);
        let cfg = cfg.memory_budget(4096);
        assert_eq!(cfg.memory_budget, Some(4096));
        assert_eq!(cfg.machine_memory_budget(), Some(1024));
        // The per-machine spelling sets the same budget from its share.
        let cfg = cfg.memory_budget_per_machine(9999);
        assert_eq!(cfg.memory_budget, Some(4 * 9999));
        assert_eq!(cfg.machine_memory_budget(), Some(9999));
        // The budget never collapses to zero, even for huge clusters.
        let cfg = ClusterConfig::new(8).memory_budget(3);
        assert_eq!(cfg.machine_memory_budget(), Some(1));
    }
}
