//! The benchmark's workloads: one paper query on one synthetic dataset each.

use huge_core::ClusterConfig;
use huge_graph::gen::{self, RmatParams};
use huge_graph::{Dataset, DatasetKind, Graph};
use huge_query::{Pattern, QueryGraph};

/// Machines of the simulated cluster. With [`WORKERS`] this gives two
/// compute threads, the container's `nproc`.
pub const MACHINES: usize = 2;
/// Workers per machine. One worker runs the pool inline: no hidden threads.
pub const WORKERS: usize = 1;
/// Dataset scale of the small graph each workload is checked on against the
/// sequential reference enumerator.
pub const ORACLE_SCALE: f64 = 0.02;

/// One workload: a query, a dataset and (optionally) a memory budget.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Builds the data graph from a scale multiplier and a seed.
    pub generate: fn(f64, u64) -> Graph,
    pub scale: f64,
    /// Index of the paper query (`q1`..`q8`).
    pub query: usize,
    /// Cluster-wide memory budget in MiB (`None` = ungoverned).
    pub budget_mib: Option<u64>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "square_social",
        why: "q1 (4-cycle) on a mildly skewed social R-MAT: scan + two PULL-EXTENDs, merge-kernel bound, all traffic pulled, no join, no governor",
        generate: social,
        scale: 1.0,
        query: 1,
        budget_mib: None,
    },
    Workload {
        name: "clique_skew",
        why: "q3 (4-clique) on skewed UK-S: the same PULL-EXTEND over hub lists, where gallop and hub-bitmap kernels take over from merge",
        generate: |scale, seed| dataset(DatasetKind::Uk, scale, seed),
        scale: 0.38,
        query: 3,
        budget_mib: None,
    },
    Workload {
        name: "path_road",
        why: "q7 (6-path) on EU-S: two scan+extend segments into one PUSH-JOIN; no intersection calls, so shuffle, router and hash join do the work",
        generate: |scale, seed| dataset(DatasetKind::Eu, scale, seed),
        scale: 2.2,
        query: 7,
        budget_mib: None,
    },
    Workload {
        name: "path_road_governed",
        why: "path_road under a 24 MiB budget: same answer through spilled partitions, shrunken queues and strict-DFS scheduling",
        generate: |scale, seed| dataset(DatasetKind::Eu, scale, seed),
        scale: 2.2,
        query: 7,
        budget_mib: Some(24),
    },
];

/// One of the repository's named stand-in datasets. Always the generator,
/// never `Dataset::load`, so `HUGE_DATASET_DIR` cannot swap the input.
fn dataset(kind: DatasetKind, scale: f64, seed: u64) -> Graph {
    Dataset::new(kind).scaled(scale).with_seed(seed).generate()
}

/// A social-network stand-in: R-MAT with mild skew, average degree 6 over
/// the generated vertices. The repository's own social stand-in (`LJ-S`,
/// preferential attachment) was tried first and dropped: the degrees of its
/// few largest hubs, which set this query's peak memory and match count,
/// depend on the first random draws, so its peak memory moved 10 % and its
/// match count 5 % from seed to seed. R-MAT's hub degrees are sums over all
/// edges and repeat within 1 %.
fn social(scale: f64, seed: u64) -> Graph {
    let nodes = ((50_000.0 * scale) as usize).max(64);
    let log2_vertices = usize::BITS - nodes.leading_zeros();
    let params = RmatParams {
        a: 0.45,
        b: 0.22,
        c: 0.22,
        noise: 0.05,
    };
    gen::rmat(log2_vertices, nodes * 6, params, seed)
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine configuration every run of this workload uses.
    pub fn config(&self, machines: usize) -> ClusterConfig {
        let cfg = ClusterConfig::new(machines).workers(WORKERS);
        match self.budget_mib {
            Some(mib) => cfg.memory_budget(mib << 20),
            None => cfg,
        }
    }

    /// Generates the data graph at `scale` (the workload's own, or
    /// [`ORACLE_SCALE`]).
    pub fn graph(&self, scale: f64, seed: u64) -> Graph {
        (self.generate)(scale, seed)
    }

    pub fn query_graph(&self) -> QueryGraph {
        Pattern::paper(self.query)
            .expect("workloads name paper queries")
            .query_graph()
    }
}
