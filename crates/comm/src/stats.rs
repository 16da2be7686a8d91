//! Per-machine and cluster-wide traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use huge_graph::KernelTally;

/// Traffic counters of one machine. All counters are monotonically
/// increasing and safe to update from any worker thread.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Bytes of intermediate results pushed to other machines.
    pub bytes_pushed: AtomicU64,
    /// Bytes of adjacency lists pulled from other machines.
    pub bytes_pulled: AtomicU64,
    /// Number of pushed batches.
    pub push_messages: AtomicU64,
    /// Number of `GetNbrs` RPC round trips issued by this machine.
    pub rpc_requests: AtomicU64,
    /// Number of remote vertices whose adjacency lists were fetched.
    pub vertices_fetched: AtomicU64,
    /// Bytes of partial results moved by inter-machine work stealing.
    pub bytes_stolen: AtomicU64,
    /// Number of successful inter-machine steal operations.
    pub steals: AtomicU64,
    /// Sorted-merge intersection kernel invocations.
    pub kernel_merge: AtomicU64,
    /// Galloping intersection kernel invocations.
    pub kernel_gallop: AtomicU64,
    /// Hub-bitmap intersection kernel invocations.
    pub kernel_bitmap: AtomicU64,
    /// Probe-filter intersection kernel invocations.
    pub kernel_probe: AtomicU64,
    /// Rows fed to match-mode `PULL-EXTEND`s.
    pub extend_rows: AtomicU64,
    /// Of those, rows whose shared prefix intersection was the previous
    /// row's (same prefix vertices), so it was not recomputed.
    pub extend_prefix_reuses: AtomicU64,
    /// Data envelopes this machine retransmitted over the unreliable
    /// transport (each costs a second `record_push`-equivalent send).
    pub retransmits: AtomicU64,
    /// Envelopes from this machine the fault injector dropped in transit.
    pub transport_drops: AtomicU64,
    /// Envelopes from this machine the fault injector delivered twice.
    pub transport_dups: AtomicU64,
    /// Stale copies this machine's inbox rejected via sequence-number dedup
    /// (duplicates from the injector or from spurious retransmits).
    pub dedup_drops: AtomicU64,
}

impl CommStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pushed batch of `bytes` bytes.
    pub fn record_push(&self, bytes: u64) {
        self.bytes_pushed.fetch_add(bytes, Ordering::Relaxed);
        self.push_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `GetNbrs` round trip that fetched `vertices` adjacency
    /// lists totalling `bytes` bytes.
    pub fn record_pull(&self, vertices: u64, bytes: u64) {
        self.bytes_pulled.fetch_add(bytes, Ordering::Relaxed);
        self.rpc_requests.fetch_add(1, Ordering::Relaxed);
        self.vertices_fetched.fetch_add(vertices, Ordering::Relaxed);
    }

    /// Records an inter-machine steal of `bytes` bytes.
    pub fn record_steal(&self, bytes: u64) {
        self.bytes_stolen.fetch_add(bytes, Ordering::Relaxed);
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a work item's intersection-kernel invocations (one flush per
    /// work item keeps the hot loop free of shared-counter traffic).
    pub fn record_kernels(&self, tally: &KernelTally) {
        let counters = [
            (&self.kernel_merge, tally.merge),
            (&self.kernel_gallop, tally.gallop),
            (&self.kernel_bitmap, tally.bitmap),
            (&self.kernel_probe, tally.probe),
        ];
        for (counter, n) in counters {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Records `rows` match-mode extend rows, `reuses` of which were served
    /// the previous row's prefix intersection (one flush per work item).
    pub fn record_extend(&self, rows: u64, reuses: u64) {
        self.extend_rows.fetch_add(rows, Ordering::Relaxed);
        if reuses > 0 {
            self.extend_prefix_reuses
                .fetch_add(reuses, Ordering::Relaxed);
        }
    }

    /// Records one retransmitted data envelope.
    pub fn record_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one envelope lost to an injected transport drop.
    pub fn record_transport_drop(&self) {
        self.transport_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one envelope duplicated by the fault injector.
    pub fn record_transport_dup(&self) {
        self.transport_dups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stale copy rejected by receiver-side dedup.
    pub fn record_dedup_drop(&self) {
        self.dedup_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_pushed: self.bytes_pushed.load(Ordering::Relaxed),
            bytes_pulled: self.bytes_pulled.load(Ordering::Relaxed),
            push_messages: self.push_messages.load(Ordering::Relaxed),
            rpc_requests: self.rpc_requests.load(Ordering::Relaxed),
            vertices_fetched: self.vertices_fetched.load(Ordering::Relaxed),
            bytes_stolen: self.bytes_stolen.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            kernel_merge: self.kernel_merge.load(Ordering::Relaxed),
            kernel_gallop: self.kernel_gallop.load(Ordering::Relaxed),
            kernel_bitmap: self.kernel_bitmap.load(Ordering::Relaxed),
            kernel_probe: self.kernel_probe.load(Ordering::Relaxed),
            extend_rows: self.extend_rows.load(Ordering::Relaxed),
            extend_prefix_reuses: self.extend_prefix_reuses.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            transport_drops: self.transport_drops.load(Ordering::Relaxed),
            transport_dups: self.transport_dups.load(Ordering::Relaxed),
            dedup_drops: self.dedup_drops.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`CommStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommSnapshot {
    /// Bytes of intermediate results pushed to other machines.
    pub bytes_pushed: u64,
    /// Bytes of adjacency lists pulled from other machines.
    pub bytes_pulled: u64,
    /// Number of pushed batches.
    pub push_messages: u64,
    /// Number of `GetNbrs` round trips.
    pub rpc_requests: u64,
    /// Number of remote adjacency lists fetched.
    pub vertices_fetched: u64,
    /// Bytes moved by inter-machine work stealing.
    pub bytes_stolen: u64,
    /// Number of steals.
    pub steals: u64,
    /// Sorted-merge intersection kernel invocations.
    pub kernel_merge: u64,
    /// Galloping intersection kernel invocations.
    pub kernel_gallop: u64,
    /// Hub-bitmap intersection kernel invocations.
    pub kernel_bitmap: u64,
    /// Probe-filter intersection kernel invocations.
    pub kernel_probe: u64,
    /// Rows fed to match-mode `PULL-EXTEND`s.
    pub extend_rows: u64,
    /// Of those, rows served the previous row's prefix intersection.
    pub extend_prefix_reuses: u64,
    /// Data envelopes retransmitted over the unreliable transport.
    pub retransmits: u64,
    /// Envelopes lost to injected transport drops.
    pub transport_drops: u64,
    /// Envelopes duplicated by the fault injector.
    pub transport_dups: u64,
    /// Stale copies rejected by receiver-side dedup.
    pub dedup_drops: u64,
}

impl CommSnapshot {
    /// Total bytes that crossed the (simulated) network.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_pushed + self.bytes_pulled + self.bytes_stolen
    }

    /// Total number of messages (pushes + RPC round trips + steals).
    pub fn total_messages(&self) -> u64 {
        self.push_messages + self.rpc_requests + self.steals
    }

    /// Total intersection-kernel invocations across the whole family.
    pub fn kernel_invocations(&self) -> u64 {
        self.kernel_merge + self.kernel_gallop + self.kernel_bitmap + self.kernel_probe
    }

    /// Element-wise sum of two snapshots.
    pub fn merge(&self, other: &CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            bytes_pushed: self.bytes_pushed + other.bytes_pushed,
            bytes_pulled: self.bytes_pulled + other.bytes_pulled,
            push_messages: self.push_messages + other.push_messages,
            rpc_requests: self.rpc_requests + other.rpc_requests,
            vertices_fetched: self.vertices_fetched + other.vertices_fetched,
            bytes_stolen: self.bytes_stolen + other.bytes_stolen,
            steals: self.steals + other.steals,
            kernel_merge: self.kernel_merge + other.kernel_merge,
            kernel_gallop: self.kernel_gallop + other.kernel_gallop,
            kernel_bitmap: self.kernel_bitmap + other.kernel_bitmap,
            kernel_probe: self.kernel_probe + other.kernel_probe,
            extend_rows: self.extend_rows + other.extend_rows,
            extend_prefix_reuses: self.extend_prefix_reuses + other.extend_prefix_reuses,
            retransmits: self.retransmits + other.retransmits,
            transport_drops: self.transport_drops + other.transport_drops,
            transport_dups: self.transport_dups + other.transport_dups,
            dedup_drops: self.dedup_drops + other.dedup_drops,
        }
    }
}

/// Shared per-machine counters for a whole cluster.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    machines: Arc<Vec<CommStats>>,
}

impl ClusterStats {
    /// Creates counters for `k` machines.
    pub fn new(k: usize) -> Self {
        ClusterStats {
            machines: Arc::new((0..k).map(|_| CommStats::new()).collect()),
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The counters of one machine.
    pub fn machine(&self, m: usize) -> &CommStats {
        &self.machines[m]
    }

    /// Per-machine snapshots.
    pub fn snapshots(&self) -> Vec<CommSnapshot> {
        self.machines.iter().map(|m| m.snapshot()).collect()
    }

    /// Cluster-wide aggregated snapshot.
    pub fn total(&self) -> CommSnapshot {
        self.snapshots()
            .iter()
            .fold(CommSnapshot::default(), |acc, s| acc.merge(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = CommStats::new();
        stats.record_push(100);
        stats.record_push(50);
        stats.record_pull(3, 300);
        stats.record_steal(10);
        stats.record_kernels(&KernelTally {
            merge: 5,
            gallop: 2,
            bitmap: 1,
            probe: 3,
        });
        stats.record_extend(9, 4);
        let s = stats.snapshot();
        assert_eq!(s.bytes_pushed, 150);
        assert_eq!(s.push_messages, 2);
        assert_eq!(s.bytes_pulled, 300);
        assert_eq!(s.vertices_fetched, 3);
        assert_eq!(s.rpc_requests, 1);
        assert_eq!(s.total_bytes(), 460);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.kernel_merge, 5);
        assert_eq!(s.kernel_gallop, 2);
        assert_eq!(s.kernel_bitmap, 1);
        assert_eq!(s.kernel_probe, 3);
        assert_eq!(s.kernel_invocations(), 11);
        assert_eq!(s.merge(&s).kernel_probe, 6);
        assert_eq!((s.extend_rows, s.extend_prefix_reuses), (9, 4));
        assert_eq!(s.merge(&s).extend_prefix_reuses, 8);
    }

    #[test]
    fn transport_counters_accumulate_and_merge() {
        let stats = CommStats::new();
        stats.record_retransmit();
        stats.record_retransmit();
        stats.record_transport_drop();
        stats.record_transport_dup();
        stats.record_dedup_drop();
        let s = stats.snapshot();
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.transport_drops, 1);
        assert_eq!(s.transport_dups, 1);
        assert_eq!(s.dedup_drops, 1);
        let merged = s.merge(&s);
        assert_eq!(merged.retransmits, 4);
        assert_eq!(merged.dedup_drops, 2);
    }

    #[test]
    fn cluster_totals_merge_machines() {
        let cluster = ClusterStats::new(3);
        cluster.machine(0).record_push(10);
        cluster.machine(1).record_pull(1, 20);
        cluster.machine(2).record_push(30);
        let total = cluster.total();
        assert_eq!(total.bytes_pushed, 40);
        assert_eq!(total.bytes_pulled, 20);
        assert_eq!(cluster.snapshots().len(), 3);
        assert_eq!(cluster.num_machines(), 3);
    }

    #[test]
    fn counters_are_thread_safe() {
        let cluster = ClusterStats::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = cluster.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.machine(0).record_push(1);
                    }
                });
            }
        });
        assert_eq!(cluster.total().bytes_pushed, 4000);
    }
}
