//! Reference implementations of the systems HUGE is compared against.
//!
//! The paper (Table 1, Exp-1/2/3/10) compares HUGE with four distributed
//! subgraph-enumeration systems plus StarJoin. Re-implementing each system
//! in full is out of scope; what matters for the comparison is how each one
//! *behaves* along the three axes the paper analyses — computation,
//! communication and memory:
//!
//! * [`BigJoin`] — worst-case-optimal join, BFS scheduling, **pushing**:
//!   partial results are shuffled to the owners of the vertices being
//!   intersected; all intermediate results are materialised.
//! * [`Seed`] / [`StarJoin`] — hash joins over star decompositions
//!   (bushy / left-deep), BFS scheduling, **pushing**: both join inputs are
//!   fully materialised and shuffled by join key.
//! * [`Benu`] — per-machine DFS backtracking that **pulls** adjacency lists
//!   from an external key-value store (simulated by
//!   [`huge_comm::ExternalKvStore`] with a per-request overhead), caching
//!   them in a local table.
//! * [`Rads`] — star-expand-and-verify with **pulling**, executing RADS'
//!   left-deep star plan and materialising every expanded star.
//!
//! Every engine runs one thread per simulated machine over the same hash
//! partitioning as the HUGE engine, counts exactly the same matches (they
//! are all validated against the sequential reference), and reports the
//! same [`RunReport`] metrics so the experiment harness can print the
//! paper's tables directly.

pub mod benu;
pub mod exec;
pub mod joinbased;
pub mod rads;

pub use benu::Benu;
pub use joinbased::{BigJoin, Seed, StarJoin};
pub use rads::Rads;

use huge_core::report::RunReport;
use huge_core::{ClusterConfig, Result};
use huge_graph::Graph;
use huge_query::QueryGraph;

/// The baseline systems, in the order the paper lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// StarJoin \[80\].
    StarJoin,
    /// SEED \[46\].
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

    /// Runs the baseline on `graph` with `config.machines` simulated
    /// machines and returns the usual run report.
    pub fn run(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        config: &ClusterConfig,
    ) -> Result<RunReport> {
        match self {
            Baseline::StarJoin => StarJoin::new(config.clone()).run(graph, query),
            Baseline::Seed => Seed::new(config.clone()).run(graph, query),
            Baseline::BigJoin => BigJoin::new(config.clone()).run(graph, query),
            Baseline::Benu => Benu::new(config.clone()).run(graph, query),
            Baseline::Rads => Rads::new(config.clone()).run(graph, query),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};

    #[test]
    fn every_baseline_counts_correctly_on_a_small_graph() {
        let graph = gen::erdos_renyi(120, 600, 3);
        let config = ClusterConfig::new(3).workers(1);
        for pattern in [Pattern::Triangle, Pattern::Square, Pattern::FourClique] {
            let query = pattern.query_graph();
            let expected = naive::enumerate(&graph, &query);
            for baseline in Baseline::ALL {
                let report = baseline.run(&graph, &query, &config).unwrap();
                assert_eq!(
                    report.matches,
                    expected,
                    "{} on {:?}",
                    baseline.name(),
                    pattern
                );
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
