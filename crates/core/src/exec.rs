//! What every engine in this workspace shares to run physical operators over
//! columnar [`ColBatch`]es and to ship those batches on its shuffle paths —
//! the HUGE engine itself *and* the baseline systems in `huge-baselines`:
//!
//! * [`OpContext`] bundles what any operator needs from the machine it runs
//!   on: the graph partition, the pulling fabric, the adjacency cache, the
//!   worker pool and the batch size.
//! * [`partition_cols_by_key`] (and [`partition_cols_by_owner`]) scatter a
//!   batch's columns into one batch per destination machine — whole runs
//!   when every key column is a prefix column, dense rows otherwise; callers
//!   move those through the accounted `huge-comm` fabric
//!   (`RouterEndpoint::try_push` / `RpcFabric::get_nbrs`), so every engine's
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
use huge_graph::{machine_of, GraphPartition};

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

/// Hash-partitions the rows of `batch` over `k` machines by the given
/// key columns, input order kept within a destination. A run batch whose key
/// columns are all prefix columns ships run-wise: one hash per run sends the
/// whole run to one destination, which receives a run batch — the prefix
/// once, the newest column's slice, the run's end; empty runs are dropped.
/// Any other batch (dense, or keyed on its newest column) is made rows here:
/// one pass over the key columns computes the destinations, then every
/// column of every destination is one gather, so those per-destination
/// batches come out dense.
///
/// This is the single partitioning function behind every shuffle in the
/// workspace (the HUGE `PUSH-JOIN` feed and the baselines' distributed hash
/// joins); the caller moves the per-destination batches through
/// `RouterEndpoint::try_push`, which is where the traffic gets charged. The
/// destination is [`machine_of`] the row's [`key_hash`](crate::join::key_hash)
/// — the high bits of the mixed hash, the same placement as a vertex's owner
/// — and the receiving join takes its Grace partition from other bits of it.
pub fn partition_cols_by_key(batch: &ColBatch, key_positions: &[usize], k: usize) -> Vec<ColBatch> {
    if prefix_keyed(batch, key_positions) {
        let hash = row_key_hash(batch, key_positions);
        return scatter_runs(batch, |run| machine_of(hash(run), k), k);
    }
    let batch = &*batch.flattened();
    let hash = row_key_hash(batch, key_positions);
    scatter(batch, |row| machine_of(hash(row), k), k)
}

/// Partitions the rows of `batch` over `k` machines by the *owner* of
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

/// `true` when `batch` is a run batch and every key column is a prefix
/// column, so all rows of a run share one key and the run ships whole.
fn prefix_keyed(batch: &ColBatch, key_positions: &[usize]) -> bool {
    let newest = batch.arity() - 1;
    batch.run_ends().is_some() && key_positions.iter().all(|&c| c < newest)
}

/// One run batch per destination machine; `dest_of` names a run's.
fn scatter_runs(batch: &ColBatch, dest_of: impl Fn(usize) -> usize, k: usize) -> Vec<ColBatch> {
    let newest = batch.arity() - 1;
    let mut parts = vec![(vec![Vec::new(); batch.arity()], Vec::new()); k];
    for run in 0..batch.runs() {
        let rows = batch.run_rows(run);
        if rows.is_empty() {
            continue;
        }
        let (cols, ends) = &mut parts[dest_of(run)];
        for (c, col) in cols[..newest].iter_mut().enumerate() {
            col.push(batch.column(c)[run]);
        }
        cols[newest].extend_from_slice(&batch.column(newest)[rows]);
        // A part holds at most the batch's rows, which fit in 32 bits.
        ends.push(cols[newest].len() as u32);
    }
    let part = |(cols, ends)| ColBatch::from_runs(cols, ends);
    parts.into_iter().map(part).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{run_extend_cols, ScanCursor, ScanPool};
    use huge_cache::LrbuCache;
    use huge_comm::stats::ClusterStats;
    use huge_graph::{gen, Partitioner};
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
            let op = ExtendOp {
                target: 2,
                ext_positions: vec![0, 1],
                verify_position: None,
                filters: vec![OrderFilter {
                    smaller: 1,
                    larger: 2,
                }],
            };
            while let Some(batch) = scan.next_runs(&ctx) {
                total += run_extend_cols(&op, batch, &ctx).batch.len() as u64;
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
        let batch = ColBatch::from_columns(vec![(0..40).collect(), (100..140).collect()]);
        let parts = partition_cols_by_key(&batch, &[0], 4);
        let total: usize = parts.iter().map(|b| b.len()).sum();
        assert_eq!(total, batch.len());
        for part in &parts {
            // Dense, the payload still beside its key, input order kept.
            assert_eq!(part.run_ends(), None);
            assert!(part.column(0).windows(2).all(|w| w[0] < w[1]));
            for (key, payload) in part.column(0).iter().zip(part.column(1)) {
                assert_eq!(*payload, key + 100);
            }
        }
        assert_eq!(partition_cols_by_key(&batch, &[0], 4), parts);
    }

    #[test]
    fn one_residue_class_of_keys_spreads_over_every_machine() {
        // A grid's checkerboard or an R-MAT's quadrant bits put structure in
        // an id's low bits; the shuffle must not follow it.
        for k in 2..=4usize {
            for residue in 0..4u32 {
                let keys: Vec<u32> = (0..10_000).map(|i| i * 4 + residue).collect();
                let parts = partition_cols_by_key(&ColBatch::from_columns(vec![keys]), &[0], k);
                let fair = 10_000.0 / k as f64;
                for (machine, part) in parts.iter().enumerate() {
                    assert!(
                        (part.len() as f64 - fair).abs() <= 0.1 * fair,
                        "k {k}, keys ≡ {residue} mod 4: machine {machine} gets {} of 10 000",
                        part.len()
                    );
                }
            }
        }
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
