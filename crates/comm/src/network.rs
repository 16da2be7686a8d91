//! The network cost model.
//!
//! The simulation does not move bytes over a physical network, so
//! communication *time* is modelled: every byte and message recorded by the
//! fabric is charged against a configurable bandwidth and per-message
//! latency. The defaults correspond to the paper's test bed (10 Gbps
//! Ethernet). The experiment harness reports the modelled time as `T_C` and
//! the byte counts as `C`, exactly the quantities of Table 1.

use std::time::Duration;

use crate::stats::CommSnapshot;

/// Bandwidth/latency model used to convert traffic counts into time.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Usable network bandwidth in bytes per second (per machine NIC).
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed overhead charged per message (RPC round trip or pushed batch).
    pub latency_per_message: Duration,
    /// Number of machines sharing the work; traffic is assumed to be evenly
    /// spread, so modelled time divides by this (the cluster transfers in
    /// parallel).
    pub machines: usize,
}

impl NetworkModel {
    /// The paper's cluster: 10 Gbps Ethernet, ~50 µs per RPC/batch message.
    pub fn ten_gbps(machines: usize) -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 10.0e9 / 8.0,
            latency_per_message: Duration::from_micros(50),
            machines: machines.max(1),
        }
    }

    /// Modelled time to transfer `bytes` in `messages` messages.
    pub fn time_for(&self, bytes: u64, messages: u64) -> Duration {
        let transfer = bytes as f64 / self.bandwidth_bytes_per_sec / self.machines as f64;
        let latency =
            self.latency_per_message.as_secs_f64() * messages as f64 / self.machines as f64;
        Duration::from_secs_f64(transfer + latency)
    }

    /// Modelled communication time for a traffic snapshot.
    pub fn time_for_snapshot(&self, snap: &CommSnapshot) -> Duration {
        self.time_for(snap.total_bytes(), snap.total_messages())
    }

    /// Network utilisation achieved if `bytes` were transferred during
    /// `elapsed` of communication time: `(8 C / T_C) / bandwidth` as defined
    /// in Exp-4.
    pub fn utilisation(&self, bytes: u64, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let achieved = bytes as f64 / elapsed.as_secs_f64() / self.machines as f64;
        (achieved / self.bandwidth_bytes_per_sec).min(1.0)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::ten_gbps(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_bytes_take_longer() {
        let m = NetworkModel::ten_gbps(1);
        assert!(m.time_for(1_000_000_000, 1) > m.time_for(1_000_000, 1));
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetworkModel::ten_gbps(1);
        let many_small = m.time_for(1_000, 10_000);
        let one_large = m.time_for(1_000, 1);
        assert!(many_small > one_large * 100);
    }

    #[test]
    fn parallel_machines_reduce_modelled_time() {
        let single = NetworkModel::ten_gbps(1);
        let ten = NetworkModel::ten_gbps(10);
        assert!(ten.time_for(1 << 30, 100) < single.time_for(1 << 30, 100));
    }

    #[test]
    fn utilisation_is_bounded() {
        let m = NetworkModel::ten_gbps(1);
        let t = m.time_for(1 << 30, 10);
        let u = m.utilisation(1 << 30, t);
        assert!(u > 0.5 && u <= 1.0, "utilisation {u}");
        assert_eq!(m.utilisation(100, Duration::ZERO), 0.0);
    }

    #[test]
    fn snapshot_time_matches_manual_computation() {
        let m = NetworkModel::ten_gbps(2);
        let snap = CommSnapshot {
            bytes_pushed: 1000,
            bytes_pulled: 500,
            push_messages: 2,
            rpc_requests: 1,
            vertices_fetched: 10,
            ..Default::default()
        };
        assert_eq!(m.time_for_snapshot(&snap), m.time_for(1500, 3));
    }
}
