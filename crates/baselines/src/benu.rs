//! BENU \[84\]: DFS backtracking over an external key-value store.
//!
//! BENU stores the data graph in a distributed key-value store (Cassandra)
//! and runs an embarrassingly parallel depth-first backtracking program on
//! each machine, pulling (and locally caching) adjacency lists on demand.
//! Communication volume is low, but every lookup pays the store's overhead —
//! the effect the paper identifies as BENU's bottleneck. The store is
//! simulated by [`huge_comm::ExternalKvStore`]; its accumulated overhead is
//! added to the reported computation time exactly as it would surface in a
//! real deployment.

use std::collections::HashMap;
use std::time::Instant;

use huge_comm::stats::CommSnapshot;
use huge_comm::ExternalKvStore;
use huge_core::pool::WorkerPool;
use huge_core::report::RunReport;
use huge_core::{ClusterConfig, LoadBalance, Result};
use huge_graph::{Graph, Partitioner, VertexId};
use huge_query::{QueryGraph, QueryVertex};

use crate::{native_report, Baseline};

/// Runs BENU's backtracking program on every machine against `store`, a
/// simulated store over `graph` that charges per lookup.
pub(crate) fn run(
    graph: &Graph,
    query: &QueryGraph,
    config: &ClusterConfig,
    store: &ExternalKvStore,
) -> Result<RunReport> {
    let k = config.machines;
    let partitions = Partitioner::new(k)?.partition(graph.clone());
    let order = query.connected_order();
    let start = Instant::now();
    // Each machine runs its backtracking program on its own persistent
    // pool worker (BENU's execution is embarrassingly parallel), caching
    // every adjacency list it pulls from the store. The wall clock is
    // the real parallel time, stragglers included.
    let pool = WorkerPool::new(k.max(1), LoadBalance::None);
    let per_machine = pool.run(
        partitions.iter().collect::<Vec<_>>(),
        |partition, out: &mut Vec<(u64, u64)>| {
            let mut cache: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
            let mut assignment = vec![u32::MAX; query.num_vertices()];
            let mut local = 0u64;
            for &pivot in partition.local_vertices() {
                assignment[order[0] as usize] = pivot;
                local += dfs(query, &order, 1, &mut assignment, store, &mut cache);
                assignment[order[0] as usize] = u32::MAX;
            }
            let cache_bytes: u64 = cache
                .values()
                .map(|v| (v.len() * std::mem::size_of::<VertexId>() + 16) as u64)
                .sum();
            out.push((local, cache_bytes));
        },
    );
    let mut matches = 0u64;
    let mut peak_cache_bytes = 0u64;
    for (local, cache_bytes) in per_machine.into_flat() {
        matches += local;
        peak_cache_bytes = peak_cache_bytes.max(cache_bytes);
    }
    let wall = start.elapsed();
    // The store's simulated overhead accrues on a virtual clock shared by
    // all machines; their lookups overlap, so each machine pays 1/k of it.
    let overhead = store.overhead() / k.max(1) as u32;
    let comm = CommSnapshot {
        bytes_pulled: store.bytes_served(),
        rpc_requests: store.requests(),
        vertices_fetched: store.requests(),
        ..Default::default()
    };
    Ok(native_report(
        Baseline::Benu,
        query,
        config,
        matches,
        wall + overhead,
        comm,
        peak_cache_bytes,
    ))
}

/// One step of the backtracking program: match `order[depth]` against the
/// intersection of the neighbourhoods of its already-matched neighbours,
/// pulling adjacency lists through the store-backed cache.
fn dfs(
    query: &QueryGraph,
    order: &[QueryVertex],
    depth: usize,
    assignment: &mut Vec<u32>,
    store: &ExternalKvStore,
    cache: &mut HashMap<VertexId, Vec<VertexId>>,
) -> u64 {
    if depth == order.len() {
        return if query.order().check_full(assignment) {
            1
        } else {
            0
        };
    }
    let qv = order[depth];
    let bound: Vec<VertexId> = query
        .neighbours(qv)
        .filter_map(|u| {
            let m = assignment[u as usize];
            (m != u32::MAX).then_some(m)
        })
        .collect();
    // Intersect the cached neighbour lists (adaptive merge/gallop kernel).
    let (mut candidates, mut spare) = (Vec::new(), Vec::new());
    for (i, &b) in bound.iter().enumerate() {
        let nbrs = &*cache.entry(b).or_insert_with(|| store.get(b));
        if i == 0 {
            candidates.extend_from_slice(nbrs);
        } else {
            huge_graph::kernels::intersect_in_place(&mut candidates, nbrs, &mut spare);
        }
        if candidates.is_empty() {
            break;
        }
    }
    let mut count = 0;
    for c in candidates {
        if assignment.contains(&c) {
            continue;
        }
        assignment[qv as usize] = c;
        // Prune with the partial order early where possible.
        let feasible = query.order().constraints_on(qv).all(|(a, b)| {
            let fa = assignment[a as usize];
            let fb = assignment[b as usize];
            fa == u32::MAX || fb == u32::MAX || fa < fb
        });
        if feasible {
            count += dfs(query, order, depth + 1, assignment, store, cache);
        }
        assignment[qv as usize] = u32::MAX;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_comm::kv::KvStoreCost;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn benu_counts_match_reference() {
        let g = gen::erdos_renyi(150, 700, 9);
        for pattern in [Pattern::Triangle, Pattern::Square] {
            let q = pattern.query_graph();
            let expected = naive::enumerate(&g, &q);
            let report = Baseline::Benu.run(&g, &q, &ClusterConfig::new(2)).unwrap();
            assert_eq!(report.matches, expected, "{pattern:?}");
        }
    }

    #[test]
    fn store_overhead_dominates_runtime() {
        // Asserted on the overhead each store charged, not on wall time: the
        // same lookups cost a millisecond each at the slow store, a
        // nanosecond at the fast one.
        let g = gen::barabasi_albert(300, 6, 2);
        let q = Pattern::Square.query_graph();
        let store = |per_request| {
            let cost = KvStoreCost {
                per_request,
                per_byte: Duration::ZERO,
            };
            ExternalKvStore::new(Arc::new(g.clone()), cost)
        };
        let (slow_store, fast_store) = (
            store(Duration::from_millis(1)),
            store(Duration::from_nanos(1)),
        );
        let config = ClusterConfig::new(2);
        let slow = run(&g, &q, &config, &slow_store).unwrap();
        let fast = run(&g, &q, &config, &fast_store).unwrap();
        assert_eq!(slow.matches, fast.matches);
        assert_eq!(slow_store.requests(), fast_store.requests());
        assert!(slow_store.overhead() > fast_store.overhead() * 2);
        // The run's time includes its machine's share of the overhead.
        assert!(slow.compute_time >= slow_store.overhead() / 2);
    }

    #[test]
    fn communication_volume_is_bounded_by_graph_size_per_machine() {
        let g = gen::erdos_renyi(200, 1000, 4);
        let q = Pattern::Triangle.query_graph();
        let report = Baseline::Benu.run(&g, &q, &ClusterConfig::new(2)).unwrap();
        // Each machine pulls each vertex at most once thanks to its local
        // cache, so the pulled volume is at most k * |E| * 2 * 4 bytes.
        let bound = 2 * 2 * 2 * 4 * g.num_edges();
        assert!(
            report.comm_bytes <= bound,
            "{} > {bound}",
            report.comm_bytes
        );
    }
}
