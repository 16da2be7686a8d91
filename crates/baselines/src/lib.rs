//! Reference implementations of the systems HUGE is compared against.
//!
//! The paper (Table 1, Exp-1/2/3/10) compares HUGE with four distributed
//! subgraph-enumeration systems plus StarJoin. Re-implementing each system
//! in full is out of scope; what matters for the comparison is how each one
//! *behaves* along the three axes the paper analyses — computation,
//! communication and memory. [`Baseline::run`] is the one entry point:
//!
//! * StarJoin / SEED — hash joins over star decompositions (left-deep /
//!   bushy), BFS scheduling, **pushing**: both join inputs are fully
//!   materialised and shuffled by join key. That is HUGE itself running the
//!   system's native plan barriered, with unbounded queues and neither
//!   cache nor stealing (the paper's Remark 3.2: their plans plug into
//!   HUGE), so they share its router, joiner and accounting.
//! * BiGJoin — worst-case-optimal join, BFS scheduling, **pushing**: partial
//!   results are shuffled to the owners of the vertices being intersected;
//!   all intermediate results are materialised.
//! * BENU — per-machine DFS backtracking that **pulls** adjacency lists
//!   from an external key-value store (simulated by
//!   [`huge_comm::ExternalKvStore`] with a per-request overhead), caching
//!   them in a local table.
//! * RADS — star-expand-and-verify with **pulling**, executing RADS'
//!   left-deep star plan and materialising every expanded star.
//!
//! BiGJoin, RADS and BENU run one thread per simulated machine over the
//! same hash partitioning as the HUGE engine. Every system counts exactly
//! the same matches (all are validated against the sequential reference)
//! and reports the same [`RunReport`] metrics, so the experiment harness
//! can print the paper's tables directly.

mod benu;
pub mod exec;
mod joinbased;
mod rads;

use std::time::Duration;

use huge_comm::stats::CommSnapshot;
use huge_core::report::RunReport;
use huge_core::{ClusterConfig, HugeCluster, LoadBalance, Result, SinkMode};
use huge_graph::Graph;
use huge_plan::baselines::{native_plan, BaselineSystem};
use huge_query::QueryGraph;

/// The baseline systems, in the order the paper lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// StarJoin \[80\].
    StarJoin,
    /// SEED \[46\] (without the clique/triangle index, as in the paper's
    /// index-free configuration).
    Seed,
    /// BiGJoin \[5\].
    BigJoin,
    /// BENU \[84\].
    Benu,
    /// RADS \[66\].
    Rads,
}

impl Baseline {
    /// All baselines.
    pub const ALL: [Baseline; 5] = [
        Baseline::StarJoin,
        Baseline::Seed,
        Baseline::BigJoin,
        Baseline::Benu,
        Baseline::Rads,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::StarJoin => "StarJoin",
            Baseline::Seed => "SEED",
            Baseline::BigJoin => "BiGJoin",
            Baseline::Benu => "BENU",
            Baseline::Rads => "RADS",
        }
    }

    /// The system whose logical plan [`native_plan`] builds.
    pub fn system(&self) -> BaselineSystem {
        match self {
            Baseline::StarJoin => BaselineSystem::StarJoin,
            Baseline::Seed => BaselineSystem::Seed,
            Baseline::BigJoin => BaselineSystem::BigJoin,
            Baseline::Benu => BaselineSystem::Benu,
            Baseline::Rads => BaselineSystem::Rads,
        }
    }

    /// Runs the baseline on `graph` with `config.machines` simulated
    /// machines and returns the usual run report.
    pub fn run(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        config: &ClusterConfig,
    ) -> Result<RunReport> {
        match self {
            Baseline::StarJoin | Baseline::Seed => {
                let plan = native_plan(self.system(), query)?;
                let cluster = HugeCluster::build(graph.clone(), join_based_config(config))?;
                // `Collect(0)` keeps the root join materialising its rows.
                let mut report = cluster.run_with_plan(&plan, SinkMode::Collect(0))?;
                report.query = format!("{}:{}", self.name(), query.name());
                Ok(report)
            }
            Baseline::BigJoin => joinbased::run(graph, query, config),
            Baseline::Benu => benu::run(graph, query, config, Default::default()),
            Baseline::Rads => rads::run(graph, query, config),
        }
    }
}

/// The HUGE configuration StarJoin and SEED run under: the caller's
/// machines, workers and batch size, executed BFS and barriered — every
/// intermediate result is materialised before the next segment starts — with
/// nothing cached and nothing stolen.
fn join_based_config(config: &ClusterConfig) -> ClusterConfig {
    ClusterConfig::new(config.machines)
        .workers(config.workers_per_machine)
        .batch_size(config.batch_size)
        .no_cache()
        .pipeline_segments(false)
        .output_queue_rows(usize::MAX)
        .load_balance(LoadBalance::None)
}

/// The report of a natively executed baseline run.
fn native_report(
    system: Baseline,
    query: &QueryGraph,
    config: &ClusterConfig,
    matches: u64,
    compute_time: Duration,
    comm: CommSnapshot,
    peak_memory_bytes: u64,
) -> RunReport {
    RunReport {
        query: format!("{}:{}", system.name(), query.name()),
        matches,
        compute_time,
        comm_time: config.network().time_for_snapshot(&comm),
        comm_bytes: comm.total_bytes(),
        comm,
        peak_memory_bytes,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};

    #[test]
    fn every_baseline_counts_correctly_on_a_small_graph() {
        // Six 6-cliques joined in a ring: every paper query — the prism and
        // the 6-path included — has matches, and SEED's bushy multi-key
        // trees (q4–q8) run end to end.
        let graph = gen::caveman(6, 6, 3);
        for machines in [1, 3] {
            let config = ClusterConfig::new(machines).workers(1);
            for pattern in Pattern::PAPER_QUERIES {
                let query = pattern.query_graph();
                let expected = naive::enumerate(&graph, &query);
                assert!(expected > 0, "{pattern:?} has no match to check");
                for baseline in Baseline::ALL {
                    let case = format!("{} on {pattern:?}, k = {machines}", baseline.name());
                    let report = baseline.run(&graph, &query, &config).unwrap();
                    assert_eq!(report.matches, expected, "{case}");
                    assert_eq!(report.leaked_bytes, 0, "{case}");
                    assert_eq!(report.orphaned_spill_files, 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Baseline::ALL.iter().map(|b| b.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
