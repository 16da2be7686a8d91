//! What every engine in this workspace shares to run physical operators over
//! columnar [`ColBatch`]es and to ship those batches on its shuffle paths —
//! the HUGE engine itself *and* the baseline systems in `huge-baselines`:
//!
//! * [`OpContext`] bundles what any operator needs from the machine it runs
//!   on: the graph partition, the pulling fabric, the adjacency cache, the
//!   worker pool and the batch size.
//! * [`partition_cols_by_key`] (and [`partition_cols_by_owner`]) scatter a
//!   batch into one batch per destination machine — a one-vertex key to the
//!   vertex's owner, a wider one by its hash; a run whole when its key
//!   is constant over it (a prefix key, or a run of one row), row by row
//!   otherwise, each row a run of one; callers
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

use std::borrow::BorrowMut;

use huge_cache::PullCache;
use huge_comm::{ColBatch, MachineId, RpcFabric};
use huge_graph::{machine_of, GraphPartition};

use crate::join::key_hash;
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
/// key columns, input order kept within a destination: a run whose key
/// columns are all prefix columns goes whole, one hash per run, and any
/// other run row by row, each row a run of one.
///
/// This is the single partitioning function behind every shuffle in the
/// workspace (the HUGE `PUSH-JOIN` feed and the baselines' distributed hash
/// joins); the caller moves the per-destination batches through
/// `RouterEndpoint::try_push`, which is where the traffic gets charged. The
/// destination is [`machine_of`] the row's [`key_hash`], the high bits of
/// the mixed hash. A one-column key `v` hashes to `v`, so it lands on
/// `machine_of(v)`, the machine that owns vertex `v`: rows scanned from `v`
/// stay where they are. A wider key lands on its mixed FNV hash. The
/// receiving join takes its Grace partition from other bits of the mixed
/// hash.
pub fn partition_cols_by_key(batch: &ColBatch, key_positions: &[usize], k: usize) -> Vec<ColBatch> {
    let mut parts = vec![ColBatch::new(batch.arity()); k];
    scatter_by_key(batch, key_positions, |hash| machine_of(hash, k), &mut parts);
    parts
}

/// Appends the rows of `batch` to `parts`, each to the part `place` names
/// for the [`key_hash`] of its key columns: the shuffle's machines and the
/// receiving join's Grace partitions.
pub(crate) fn scatter_by_key<P: BorrowMut<ColBatch>>(
    batch: &ColBatch,
    key_positions: &[usize],
    place: impl Fn(u64) -> usize,
    parts: &mut [P],
) {
    let dest = |run, row| {
        place(key_hash(
            key_positions.iter().map(|&c| batch.value(c, run, row)),
        ))
    };
    scatter(batch, key_positions, dest, parts);
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
    let mut parts = vec![ColBatch::new(batch.arity()); k];
    let owner = |run, row| rpc.owner(batch.value(column, run, row));
    scatter(batch, &[column], owner, &mut parts);
    parts
}

/// Appends every run of `batch` to the part `dest_of(run, row)` names, input
/// order kept within a part: whole (its prefix once,
/// [`ColBatch::push_runs`]) if the key `columns` are all prefix columns, and
/// row by row, each row a run of one ([`ColBatch::push_rows`]), otherwise.
/// Empty runs are dropped. Each part's runs or rows are listed first, so it
/// takes them in one call, a column at a time.
fn scatter<P: BorrowMut<ColBatch>>(
    batch: &ColBatch,
    columns: &[usize],
    dest_of: impl Fn(usize, usize) -> usize,
    parts: &mut [P],
) {
    // One list per part, with room for an even share of `len` items.
    fn lists<T>(len: usize, parts: usize) -> Vec<Vec<T>> {
        (0..parts)
            .map(|_| Vec::with_capacity(len.div_ceil(parts)))
            .collect()
    }
    if columns.iter().all(|&c| c + 1 < batch.arity()) {
        let mut runs = lists(batch.runs(), parts.len());
        for run in 0..batch.runs() {
            let rows = batch.run_rows(run);
            if !rows.is_empty() {
                runs[dest_of(run, rows.start)].push(run as u32);
            }
        }
        for (part, runs) in parts.iter_mut().zip(&runs) {
            part.borrow_mut().push_runs(batch, runs);
        }
    } else {
        let mut rows = lists(batch.len(), parts.len());
        for run in 0..batch.runs() {
            for row in batch.run_rows(run) {
                rows[dest_of(run, row)].push((run as u32, row as u32));
            }
        }
        for (part, rows) in parts.iter_mut().zip(&rows) {
            part.borrow_mut().push_rows(batch, rows);
        }
    }
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
            // Every row a run of one, the payload still beside its key,
            // input order kept.
            assert_eq!(part.runs(), part.len());
            assert_eq!(part.byte_size(), 2 * 4 * part.len() as u64);
            assert!(part.column(0).windows(2).all(|w| w[0] < w[1]));
            for (key, payload) in part.column(0).iter().zip(part.column(1)) {
                assert_eq!(*payload, key + 100);
            }
        }
        assert_eq!(partition_cols_by_key(&batch, &[0], 4), parts);
    }

    #[test]
    fn a_one_column_key_lands_on_its_vertex_owner_and_a_wider_key_is_fnv_hashed() {
        let fnv = |key: &[u32]| {
            key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                (h ^ u64::from(v)).wrapping_mul(0x1000_0000_01b3)
            })
        };
        let keys: Vec<u32> = (0..2_000).map(|i| i * 37 % 1_999).collect();
        let others: Vec<u32> = keys.iter().map(|v| v ^ 0x55).collect();
        let batch = ColBatch::from_columns(vec![keys, others]);
        for k in 1..=5 {
            let owners = huge_graph::PartitionMap::new(k).unwrap();
            let by_vertex = partition_cols_by_key(&batch, &[0], k);
            let by_pair = partition_cols_by_key(&batch, &[0, 1], k);
            for machine in 0..k {
                for &v in by_vertex[machine].column(0) {
                    assert_eq!(owners.owner(v), machine, "k {k}: key {v}");
                }
                let pair = &by_pair[machine];
                for (&a, &b) in pair.column(0).iter().zip(pair.column(1)) {
                    assert_eq!(
                        machine_of(fnv(&[a, b]), k),
                        machine,
                        "k {k}: key ({a}, {b})"
                    );
                }
            }
        }
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
