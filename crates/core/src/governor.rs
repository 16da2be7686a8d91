//! The memory governor: a bounded-memory adaptive scheduling subsystem.
//!
//! The paper's Exp-7 measures the time/memory trade-off *offline* by
//! sweeping the static output-queue capacity. This module turns that
//! experiment into an *online controller*: every run with
//! [`ClusterConfig::memory_budget`](crate::config::ClusterConfig) set gets a
//! per-run [`MemoryGovernor`] that watches each machine's
//! [`MemoryTracker`] (which already accounts operator queues, router
//! inboxes and `PUSH-JOIN` buffers) and enforces the per-machine byte
//! budget through a **pressure ladder** with hysteresis:
//!
//! * **Green** — below the budget with headroom: the configured capacities
//!   apply untouched.
//! * **Yellow** — approaching the budget: the effective capacities of the
//!   operator output queues ([`SharedQueue`](crate::scheduler::SharedQueue))
//!   and the router's per-destination inboxes shrink to an eighth of their
//!   configured values (floored at one full batch, so Yellow is a no-op for
//!   capacities already below 8× the batch size — Red is the rung that
//!   collapses those), so producers observe backpressure early and the
//!   BFS/DFS-adaptive scheduler (Algorithm 5) leans towards DFS.
//! * **Red** — at the budget: queue capacities collapse to a single row
//!   (strict DFS: every operator drains downstream after each batch), the
//!   scan batch size is capped, inboxes hold one batch, and every
//!   `PUSH-JOIN` of the machine, building or probing, flushes its unprobed
//!   Grace partitions to disk
//!   ([`HashJoiner::spill_to_disk`](crate::join::HashJoiner::spill_to_disk)).
//!
//! Hysteresis (separate enter/exit thresholds — the `ENTER_*`/`EXIT_*`
//! constants below, fixed fractions of the per-machine budget) keeps the
//! ladder from flapping around a threshold. The governor is **passive**:
//! machines call [`MemoryGovernor::tick`] from their scheduling loops, so
//! control decisions are deterministic per machine and need no extra thread.
//! All actuators only *tighten or relax existing flow-control paths*
//! (`is_full`, `try_push`/`wait_space`, the spill threshold), so a governed
//! run can throttle but never deadlock — the same overflow-by-one-batch and
//! cooperative-drain arguments as the ungoverned runtime apply.
//!
//! Everything the governor did is surfaced in
//! [`RunReport::governor`](crate::report::RunReport): pressure transitions,
//! throttled batches, spilled bytes, and peak-versus-budget.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use huge_comm::RouterEndpoint;

use crate::config::ClusterConfig;
use crate::memory::MemoryTracker;
use crate::report::GovernorReport;

/// Budget fraction at which a machine enters Yellow.
const ENTER_YELLOW: f64 = 0.60;
/// Budget fraction below which Yellow clears. The gap to [`ENTER_YELLOW`] is
/// the hysteresis band: without it the ladder flaps around the threshold.
const EXIT_YELLOW: f64 = 0.45;
/// Budget fraction at which a machine enters Red (above [`ENTER_YELLOW`]).
const ENTER_RED: f64 = 0.85;
/// Budget fraction below which Red drops back to Yellow (hysteresis band
/// below [`ENTER_RED`], and not below [`EXIT_YELLOW`]).
const EXIT_RED: f64 = 0.70;
/// Capacity divisor applied under Yellow pressure.
const YELLOW_SHRINK: usize = 8;
/// Scan-batch divisor applied under Red pressure.
const RED_BATCH_SHRINK: usize = 8;
/// Floor for the Red scan-batch cap (rows).
const RED_BATCH_FLOOR: usize = 64;

/// Where a machine stands on the pressure ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Comfortably below the budget; configured capacities apply.
    Green,
    /// Approaching the budget; capacities shrink, scheduling leans DFS.
    Yellow,
    /// At the budget; strict DFS, minimal capacities, joins spill to disk.
    Red,
}

impl PressureLevel {
    fn from_u8(v: u8) -> Self {
        match v {
            2 => PressureLevel::Red,
            1 => PressureLevel::Yellow,
            _ => PressureLevel::Green,
        }
    }
}

/// The ladder's next level from `old` for a machine holding `current` bytes
/// of `budget`, with the hysteresis bands between the enter and exit
/// thresholds.
fn next_level(old: PressureLevel, current: u64, budget: u64) -> PressureLevel {
    let (current, budget) = (current as f64, budget as f64);
    match old {
        PressureLevel::Green => {
            if current >= budget * ENTER_RED {
                PressureLevel::Red
            } else if current >= budget * ENTER_YELLOW {
                PressureLevel::Yellow
            } else {
                PressureLevel::Green
            }
        }
        PressureLevel::Yellow => {
            if current >= budget * ENTER_RED {
                PressureLevel::Red
            } else if current < budget * EXIT_YELLOW {
                PressureLevel::Green
            } else {
                PressureLevel::Yellow
            }
        }
        PressureLevel::Red => {
            if current < budget * EXIT_YELLOW {
                PressureLevel::Green
            } else if current < budget * EXIT_RED {
                PressureLevel::Yellow
            } else {
                PressureLevel::Red
            }
        }
    }
}

/// Per-machine controller state.
struct MachineControl {
    tracker: Arc<MemoryTracker>,
    level: AtomicU8,
    /// Held across a level change and the capacities it applies: peers tick
    /// a machine too, and the capacities last applied must be the stored
    /// level's.
    transition: Mutex<()>,
    /// Effective row capacity shared by every `SharedQueue` of this machine.
    queue_capacity: Arc<AtomicUsize>,
    /// Ladder transitions of this machine into Yellow and into Red.
    transitions_yellow: AtomicU64,
    transitions_red: AtomicU64,
    throttled_batches: AtomicU64,
    spilled_bytes: AtomicU64,
    shipped_bytes: AtomicU64,
}

/// The per-run bounded-memory controller. One instance is shared by every
/// machine of a run; see the [module docs](self) for the control loop.
pub struct MemoryGovernor {
    machines: Vec<MachineControl>,
    /// The enforced per-machine budget (`None` disables the governor).
    machine_budget: Option<u64>,
    /// The configured global budget (reporting only).
    global_budget: Option<u64>,
    output_queue_rows: usize,
    router_queue_rows: usize,
    batch_size: usize,
    router: RouterEndpoint,
}

impl MemoryGovernor {
    /// Builds the governor for one run over the machines' trackers. The
    /// router endpoint (any machine's) is the handle through which inbox
    /// capacities are adjusted.
    pub fn new(
        config: &ClusterConfig,
        trackers: &[Arc<MemoryTracker>],
        router: RouterEndpoint,
    ) -> Arc<Self> {
        let output_queue_rows = config.output_queue_rows.max(1);
        let machines = trackers
            .iter()
            .map(|tracker| MachineControl {
                tracker: Arc::clone(tracker),
                level: AtomicU8::new(0),
                transition: Mutex::new(()),
                queue_capacity: Arc::new(AtomicUsize::new(output_queue_rows)),
                transitions_yellow: AtomicU64::new(0),
                transitions_red: AtomicU64::new(0),
                throttled_batches: AtomicU64::new(0),
                spilled_bytes: AtomicU64::new(0),
                shipped_bytes: AtomicU64::new(0),
            })
            .collect();
        Arc::new(MemoryGovernor {
            machines,
            machine_budget: config.machine_memory_budget(),
            global_budget: config.memory_budget,
            output_queue_rows,
            router_queue_rows: config.router_queue_rows.max(1),
            batch_size: config.batch_size.max(1),
            router,
        })
    }

    /// `true` when a budget is configured (otherwise every hook is a no-op
    /// and the level is pinned to Green).
    pub fn enabled(&self) -> bool {
        self.machine_budget.is_some()
    }

    /// The enforced per-machine budget, if any.
    pub fn machine_budget(&self) -> Option<u64> {
        self.machine_budget
    }

    /// The capacity handle every `SharedQueue` of machine `m` should read
    /// its effective capacity from.
    pub fn queue_capacity_handle(&self, m: usize) -> Arc<AtomicUsize> {
        Arc::clone(&self.machines[m].queue_capacity)
    }

    /// Machine `m`'s current pressure level.
    pub fn level(&self, m: usize) -> PressureLevel {
        PressureLevel::from_u8(self.machines[m].level.load(Ordering::Relaxed))
    }

    /// `true` while machine `m` is under (any) pressure — the gate for the
    /// throttled-batch accounting.
    pub fn is_throttling(&self, m: usize) -> bool {
        self.level(m) != PressureLevel::Green
    }

    /// Re-evaluates machine `m`'s pressure from its tracker and applies the
    /// capacity actuators on a transition. Called by machine `m`'s own
    /// thread from its scheduling loops, and by peers before they push to
    /// it, so its inbox shrinks the moment its pressure rises (cheap: one
    /// atomic read and a comparison on the non-transition path). Returns the
    /// current level so the caller can fire the machine-local actuators
    /// (join spills, strict segment choice).
    pub fn tick(&self, m: usize) -> PressureLevel {
        let Some(budget) = self.machine_budget else {
            return PressureLevel::Green;
        };
        let ctl = &self.machines[m];
        let old = self.level(m);
        if next_level(old, ctl.tracker.current(), budget) == old {
            return old;
        }
        let _transition = ctl
            .transition
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let old = self.level(m);
        let new = next_level(old, ctl.tracker.current(), budget);
        if new != old {
            ctl.level.store(new as u8, Ordering::Relaxed);
            let transitions = match new {
                PressureLevel::Yellow => Some(&ctl.transitions_yellow),
                PressureLevel::Red => Some(&ctl.transitions_red),
                PressureLevel::Green => None,
            };
            if let Some(count) = transitions {
                count.fetch_add(1, Ordering::Relaxed);
            }
            self.apply_capacities(m, new);
        }
        new
    }

    /// Sets the effective queue and inbox capacities of machine `m` for a
    /// pressure level.
    fn apply_capacities(&self, m: usize, level: PressureLevel) {
        let (queue_rows, inbox_rows) = match level {
            PressureLevel::Green => (self.output_queue_rows, self.router_queue_rows),
            PressureLevel::Yellow => (
                shrink(self.output_queue_rows, YELLOW_SHRINK, self.batch_size),
                shrink(self.router_queue_rows, YELLOW_SHRINK, self.batch_size),
            ),
            // Strict DFS: a one-row queue is "full" after any push, so every
            // operator hands each batch straight downstream; the inbox holds
            // one batch in flight.
            PressureLevel::Red => (1, self.batch_size.min(self.router_queue_rows)),
        };
        self.machines[m]
            .queue_capacity
            .store(queue_rows.max(1), Ordering::Relaxed);
        self.router.set_inbox_capacity(m, inbox_rows.max(1));
    }

    /// The scan batch size machine `m` should use: the configured size,
    /// capped under Red pressure so a single source poll cannot blow the
    /// budget.
    pub fn effective_batch_size(&self, m: usize, configured: usize) -> usize {
        if self.level(m) == PressureLevel::Red {
            (configured / RED_BATCH_SHRINK)
                .max(RED_BATCH_FLOOR)
                .min(configured.max(1))
        } else {
            configured
        }
    }

    /// Records one batch deferred by governed backpressure on machine `m`.
    pub fn record_throttled(&self, m: usize) {
        self.machines[m]
            .throttled_batches
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of join buffers machine `m` spilled under pressure.
    pub fn record_spill(&self, m: usize, bytes: u64) {
        self.machines[m]
            .spilled_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` of sealed Grace partitions machine `m` shipped to a
    /// thief (partition stealing); the victim's accounting keeps the charge
    /// until the thief's `ShipAck` arrives, at which point this counter is
    /// bumped and the bytes are released.
    pub fn record_shipped(&self, m: usize, bytes: u64) {
        self.machines[m]
            .shipped_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Summarises the run for [`RunReport`](crate::report::RunReport):
    /// `None` when no budget was configured. `peak_bytes` is the run's
    /// observed peak (max over machines), compared against the per-machine
    /// budget.
    pub fn report(&self, peak_bytes: u64) -> Option<GovernorReport> {
        let machine_budget = self.machine_budget?;
        let budget_bytes = self.global_budget?;
        let sum = |f: fn(&MachineControl) -> &AtomicU64| -> u64 {
            self.machines
                .iter()
                .map(|c| f(c).load(Ordering::Relaxed))
                .sum()
        };
        Some(GovernorReport {
            budget_bytes,
            machine_budget_bytes: machine_budget,
            transitions_to_yellow: sum(|c| &c.transitions_yellow),
            transitions_to_red: sum(|c| &c.transitions_red),
            throttled_batches: sum(|c| &c.throttled_batches),
            spilled_bytes: sum(|c| &c.spilled_bytes),
            shipped_bytes: sum(|c| &c.shipped_bytes),
            peak_bytes,
        })
    }
}

/// `configured / divisor`, floored at one batch and capped at the
/// configured value.
fn shrink(configured: usize, divisor: usize, batch: usize) -> usize {
    (configured / divisor).max(batch).min(configured).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_comm::stats::ClusterStats;
    use huge_comm::Router;

    fn setup(config: &ClusterConfig) -> (Arc<MemoryGovernor>, Vec<Arc<MemoryTracker>>, Router) {
        let k = config.machines;
        let stats = ClusterStats::new(k);
        let router = Router::with_capacity(k, stats, config.router_queue_rows);
        let trackers: Vec<Arc<MemoryTracker>> =
            (0..k).map(|_| Arc::new(MemoryTracker::new())).collect();
        let governor = MemoryGovernor::new(config, &trackers, router.endpoint(0));
        (governor, trackers, router)
    }

    #[test]
    fn disabled_governor_is_a_no_op() {
        let config = ClusterConfig::new(2)
            .output_queue_rows(1000)
            .router_queue_rows(1000);
        let (gov, trackers, router) = setup(&config);
        assert!(!gov.enabled());
        trackers[0].allocate(1 << 40);
        assert_eq!(gov.tick(0), PressureLevel::Green);
        assert_eq!(gov.level(0), PressureLevel::Green);
        assert_eq!(gov.queue_capacity_handle(0).load(Ordering::Relaxed), 1000);
        assert_eq!(router.endpoint(0).inbox_capacity(0), 1000);
        assert_eq!(gov.effective_batch_size(0, 512), 512);
        assert!(gov.report(123).is_none());
        trackers[0].release(1 << 40);
    }

    #[test]
    fn ladder_climbs_and_descends_with_hysteresis() {
        let config = ClusterConfig::new(1)
            .batch_size(16)
            .output_queue_rows(8_000)
            .router_queue_rows(8_000)
            .memory_budget(1_000);
        let (gov, trackers, router) = setup(&config);
        assert!(gov.enabled());
        assert_eq!(gov.machine_budget(), Some(1_000));
        let t = &trackers[0];
        let ep = router.endpoint(0);

        // Green until 60% of the budget.
        t.allocate(590);
        assert_eq!(gov.tick(0), PressureLevel::Green);
        // Yellow at 60%: capacities shrink to an eighth.
        t.allocate(20);
        assert_eq!(gov.tick(0), PressureLevel::Yellow);
        assert_eq!(gov.queue_capacity_handle(0).load(Ordering::Relaxed), 1_000);
        assert_eq!(ep.inbox_capacity(0), 1_000);
        // Hysteresis: dipping just below the enter threshold stays Yellow.
        t.release(100);
        assert_eq!(gov.tick(0), PressureLevel::Yellow);
        // Red at 85%: strict DFS (one-row queues, one-batch inbox).
        t.allocate(400);
        assert_eq!(gov.tick(0), PressureLevel::Red);
        assert_eq!(gov.queue_capacity_handle(0).load(Ordering::Relaxed), 1);
        assert_eq!(ep.inbox_capacity(0), 16);
        assert_eq!(gov.effective_batch_size(0, 1024), 128);
        assert_eq!(gov.effective_batch_size(0, 100), 64);
        // Leaving Red needs < 70%.
        t.release(150);
        assert_eq!(gov.tick(0), PressureLevel::Red);
        t.release(110);
        assert_eq!(gov.tick(0), PressureLevel::Yellow);
        // Leaving Yellow needs < 45%; then everything is restored.
        t.release(210);
        assert_eq!(gov.tick(0), PressureLevel::Green);
        assert_eq!(gov.queue_capacity_handle(0).load(Ordering::Relaxed), 8_000);
        assert_eq!(ep.inbox_capacity(0), 8_000);

        let report = gov.report(900).unwrap();
        assert_eq!(report.budget_bytes, 1_000);
        assert_eq!(report.machine_budget_bytes, 1_000);
        assert_eq!(report.transitions_to_yellow, 2);
        assert_eq!(report.transitions_to_red, 1);
        assert!(!report.over_budget());
    }

    #[test]
    fn counters_aggregate_across_machines() {
        let config = ClusterConfig::new(2).memory_budget(1_000);
        let (gov, _trackers, _router) = setup(&config);
        gov.record_throttled(0);
        gov.record_throttled(1);
        gov.record_throttled(1);
        gov.record_spill(0, 100);
        gov.record_spill(1, 11);
        gov.record_shipped(0, 40);
        gov.record_shipped(1, 2);
        let report = gov.report(2_000).unwrap();
        assert_eq!(report.machine_budget_bytes, 500);
        assert_eq!(report.throttled_batches, 3);
        assert_eq!(report.spilled_bytes, 111);
        assert_eq!(report.shipped_bytes, 42);
        assert!(report.over_budget());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn ladder_constants_are_ordered_with_hysteresis_bands() {
        // Every level enters above where it exits (the band that keeps the
        // ladder from flapping), Red sits above Yellow on both edges, and
        // every threshold is a positive, finite fraction of the budget.
        // `ladder_climbs_and_descends_with_hysteresis` walks the bands.
        assert!(ENTER_YELLOW > EXIT_YELLOW && ENTER_RED > EXIT_RED);
        assert!(ENTER_RED > ENTER_YELLOW && EXIT_RED >= EXIT_YELLOW);
        assert!(EXIT_YELLOW > 0.0 && ENTER_RED <= 1.0);
    }
}
