//! What every engine in this workspace shares to run physical operators over
//! columnar [`ColBatch`]es and to ship those batches on its shuffle paths —
//! the HUGE engine itself *and* the baseline systems in `huge-baselines`:
//!
//! * [`OpContext`] bundles what any operator needs from the machine it runs
//!   on: the graph partition, the pulling fabric, the adjacency cache, the
//!   worker pool and the batch size.
//! * [`partition_cols_by_key`] (and [`partition_cols_by_owner`]) scatter a
//!   batch's columns into one dense batch per destination machine; callers
//!   move those through the accounted `huge-comm` fabric
//!   (`RouterEndpoint::push` / `RpcFabric::get_nbrs`), so every engine's
//!   traffic is charged to [`huge_comm::ClusterStats`] by the same code path
//!   and the reported `C`/`T_C` columns are comparable.
//!
//! The operators are called directly, with no interface in between: `SCAN`
//! is [`ScanCursor`](crate::operators::ScanCursor), `PULL-EXTEND` an
//! [`ExtendSpec`](crate::operators::ExtendSpec) and `PUSH-JOIN` a
//! [`HashJoiner`](crate::join::HashJoiner). The HUGE engine chains them
//! under its BFS/DFS-adaptive scheduler in [`crate::machine`]; the baselines
//! add their own star scan and reuse the joiner and the partitioners.

use huge_cache::PullCache;
use huge_comm::{ColBatch, MachineId, RpcFabric};
use huge_graph::GraphPartition;

use crate::join::{row_key_hash, scatter_rows};
use crate::pool::WorkerPool;

/// Everything an operator needs from its machine.
pub struct OpContext<'a> {
    /// The machine executing the operator.
    pub machine: MachineId,
    /// The machine's graph partition.
    pub partition: &'a GraphPartition,
    /// The pulling fabric (accounted `GetNbrs`).
    pub rpc: &'a RpcFabric,
    /// The machine's adjacency cache.
    pub cache: &'a dyn PullCache,
    /// `false` disables the cache (every remote list is fetched per batch).
    pub use_cache: bool,
    /// The machine's worker pool.
    pub pool: &'a WorkerPool,
    /// Rows per output batch.
    pub batch_size: usize,
}

// ---------------------------------------------------------------------------
// Routing utilities
// ---------------------------------------------------------------------------

/// Hash-partitions the logical rows of `batch` over `k` machines by the given
/// key columns: one pass over the key columns computes the destinations, then
/// every column of every destination is one gather through the selection
/// vector, so the per-destination batches come out dense (input order kept).
/// A run batch is flattened first — the shuffle is where an extend's output
/// becomes rows.
///
/// This is the single partitioning function behind every shuffle in the
/// workspace (the HUGE `PUSH-JOIN` feed and the baselines' distributed hash
/// joins); the caller moves the per-destination batches through
/// `RouterEndpoint::push`, which is where the traffic gets charged. The
/// destination is [`key_hash`](crate::join::key_hash)` % k`, the hash the
/// receiving join takes its Grace partition from.
pub fn partition_cols_by_key(batch: &ColBatch, key_positions: &[usize], k: usize) -> Vec<ColBatch> {
    let batch = &*batch.flattened();
    let hash = row_key_hash(batch, key_positions);
    scatter(batch, |row| (hash(row) % k as u64) as usize, k)
}

/// Partitions the logical rows of `batch` over `k` machines by the *owner* of
/// the vertex in `column` (used by pushing wco extensions, which route
/// partial results to the owners of the vertices being intersected).
pub fn partition_cols_by_owner(
    batch: &ColBatch,
    column: usize,
    rpc: &RpcFabric,
    k: usize,
) -> Vec<ColBatch> {
    let batch = &*batch.flattened();
    let vertices = batch.column(column);
    scatter(batch, |row| rpc.owner(vertices[row]), k)
}

/// One dense batch per destination machine.
fn scatter(batch: &ColBatch, dest_of: impl Fn(usize) -> usize, k: usize) -> Vec<ColBatch> {
    let mut parts = vec![vec![Vec::new(); batch.arity()]; k];
    scatter_rows(batch, dest_of, parts.iter_mut());
    parts.into_iter().map(ColBatch::from_columns).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{ExtendSpec, ScanCursor, ScanPool};
    use huge_cache::LrbuCache;
    use huge_comm::stats::ClusterStats;
    use huge_graph::{gen, Partitioner};
    use huge_plan::physical::CommMode;
    use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
    use std::sync::Arc;

    fn setup(k: usize) -> (Vec<GraphPartition>, RpcFabric) {
        let g = gen::complete(8);
        let parts = Partitioner::new(k).unwrap().partition(g);
        let stats = ClusterStats::new(k);
        let fabric = RpcFabric::new(Arc::new(parts.clone()), stats);
        (parts, fabric)
    }

    #[test]
    fn scan_extend_pipeline_counts_triangles_on_k8() {
        let (parts, rpc) = setup(2);
        let pool = WorkerPool::new(1, crate::config::LoadBalance::WorkStealing);
        let mut total = 0u64;
        for (m, partition) in parts.iter().enumerate() {
            let cache = LrbuCache::new(1 << 20);
            let ctx = OpContext {
                machine: m,
                partition,
                rpc: &rpc,
                cache: &cache,
                use_cache: true,
                pool: &pool,
                batch_size: 64,
            };
            let mut scan = ScanCursor::new(
                ScanOp {
                    src: 0,
                    dst: 1,
                    filters: vec![OrderFilter {
                        smaller: 0,
                        larger: 1,
                    }],
                },
                ScanPool::new(partition.local_vertices(), 4),
            );
            let extend = ExtendSpec::compile(
                &ExtendOp {
                    target: 2,
                    ext_positions: vec![0, 1],
                    verify_position: None,
                    filters: vec![OrderFilter {
                        smaller: 1,
                        larger: 2,
                    }],
                    comm: CommMode::Pulling,
                },
                2,
            );
            while let Some(batch) = scan.next_runs(&ctx) {
                total += extend.run_cols(batch, &ctx).unwrap().batch.len() as u64;
            }
        }
        // K8 has C(8,3) = 56 triangles.
        assert_eq!(total, 56);
    }

    #[test]
    fn scan_batches_do_not_depend_on_the_worker_count() {
        // A skewed graph, one chunk cut into several per-worker slices, and
        // batches small enough that hubs overflow them: the pool hands the
        // slices to its workers in any order, the batches must not show it.
        let g = gen::barabasi_albert(1_500, 8, 5);
        let parts = Partitioner::new(1).unwrap().partition(g);
        let rpc = RpcFabric::new(Arc::new(parts.clone()), ClusterStats::new(1));
        let cache = LrbuCache::new(1 << 20);
        let scan = |workers| {
            let pool = WorkerPool::new(workers, crate::config::LoadBalance::WorkStealing);
            let ctx = OpContext {
                machine: 0,
                partition: &parts[0],
                rpc: &rpc,
                cache: &cache,
                use_cache: true,
                pool: &pool,
                batch_size: 100,
            };
            let op = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![],
            };
            let mut scan = ScanCursor::new(op, ScanPool::new(parts[0].local_vertices(), 1024));
            let mut batches = Vec::new();
            while let Some(batch) = scan.next_runs(&ctx) {
                batches.push(batch);
            }
            batches
        };
        let one = scan(1);
        assert!(one.len() > 100);
        for workers in [2, 3] {
            assert!(scan(workers) == one, "{workers} workers");
        }
    }

    #[test]
    fn partition_by_key_is_total_and_deterministic() {
        let mut batch = ColBatch::from_columns(vec![(0..40).collect(), (100..140).collect()]);
        batch.set_selection((0..40).filter(|i| i % 3 != 0).collect());
        let parts = partition_cols_by_key(&batch, &[0], 4);
        let total: usize = parts.iter().map(|b| b.len()).sum();
        assert_eq!(total, batch.len());
        for part in &parts {
            // Dense, the payload still beside its key, input order kept.
            assert_eq!(part.selection(), None);
            assert!(part.column(0).windows(2).all(|w| w[0] < w[1]));
            for (key, payload) in part.column(0).iter().zip(part.column(1)) {
                assert!(key % 3 != 0 && *payload == key + 100);
            }
        }
        assert_eq!(partition_cols_by_key(&batch, &[0], 4), parts);
    }

    #[test]
    fn partition_by_owner_routes_to_owners() {
        let (_parts, rpc) = setup(3);
        let batch = ColBatch::from_columns(vec![(0..8).collect()]);
        let routed = partition_cols_by_owner(&batch, 0, &rpc, 3);
        assert_eq!(routed.iter().map(|b| b.len()).sum::<usize>(), 8);
        for (m, b) in routed.iter().enumerate() {
            for &v in b.column(0) {
                assert_eq!(rpc.owner(v), m);
            }
        }
    }
}
