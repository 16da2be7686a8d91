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

use std::borrow::BorrowMut;

use huge_cache::PullCache;
use huge_comm::{ColBatch, MachineId, RpcFabric};
use huge_graph::{machine_of, GraphPartition, VertexId};

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
/// key columns, input order kept within a destination. A run batch whose
/// key columns are all prefix columns ships run-wise, each run whole to one
/// destination, and every destination receives a run batch; any other batch
/// is made rows, and its parts come out dense (`scatter_by_key`, which the
/// receiving join's Grace scatter shares).
///
/// This is the single partitioning function behind every shuffle in the
/// workspace (the HUGE `PUSH-JOIN` feed and the baselines' distributed hash
/// joins); the caller moves the per-destination batches through
/// `RouterEndpoint::try_push`, which is where the traffic gets charged. The
/// destination is [`machine_of`] the row's [`key_hash`]
/// — the high bits of the mixed hash, the same placement as a vertex's owner
/// — and the receiving join takes its Grace partition from other bits of it.
pub fn partition_cols_by_key(batch: &ColBatch, key_positions: &[usize], k: usize) -> Vec<ColBatch> {
    let mut parts = vec![ColBatch::new(batch.arity()); k];
    scatter_by_key(batch, key_positions, |hash| machine_of(hash, k), &mut parts);
    parts
}

/// Appends the rows of `batch` to `parts`, each to the part `place` names
/// for the [`key_hash`] of its key columns: the shuffle's machines and the
/// receiving join's Grace partitions. A run batch whose key columns are all
/// prefix columns goes run-wise: every part holds runs from then on, one
/// hash per run sends the whole run to one part ([`ColBatch::push_run`]:
/// the prefix once, the newest column's slice, the run's end), and empty
/// runs are dropped. Any other batch (dense, or keyed on its newest column)
/// is made rows here and appended by [`scatter_rows`]. Input order is kept
/// within a part.
pub(crate) fn scatter_by_key<P: BorrowMut<ColBatch>>(
    batch: &ColBatch,
    key_positions: &[usize],
    place: impl Fn(u64) -> usize,
    parts: &mut [P],
) {
    if prefix_keyed(batch, key_positions) {
        for part in parts.iter_mut() {
            let part = part.borrow_mut();
            *part = std::mem::take(part).into_runs();
        }
        let hash = unit_key_hash(batch, key_positions);
        for run in (0..batch.runs()).filter(|&run| !batch.run_rows(run).is_empty()) {
            parts[place(hash(run))].borrow_mut().push_run(batch, run);
        }
        return;
    }
    let batch = &*batch.flattened();
    let hash = unit_key_hash(batch, key_positions);
    scatter_rows(batch, |row| place(hash(row)), parts);
}

/// The [`key_hash`] of a run of `batch` (a row, for a dense batch), read off
/// its key columns — prefix columns, for a run batch.
fn unit_key_hash<'a>(batch: &'a ColBatch, key_positions: &[usize]) -> impl Fn(usize) -> u64 + 'a {
    let keys: Vec<&[VertexId]> = key_positions.iter().map(|&c| batch.column(c)).collect();
    move |unit| key_hash(keys.iter().map(|column| column[unit]))
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
    let mut parts = vec![ColBatch::new(batch.arity()); k];
    scatter_rows(batch, |row| rpc.owner(vertices[row]), &mut parts);
    parts
}

/// Appends every row of the dense `batch` to the part `dest_of` names for
/// it. One pass computes the destinations and each row's rank within its
/// own, which fixes the batch's rows in destination order (input order kept
/// within a destination); every column of every destination is then one
/// gather through that order. An empty part takes its rows as a dense batch;
/// a part with rows appends them in its layout, as runs of one row if it
/// holds runs ([`append_rows`]).
pub(crate) fn scatter_rows<P: BorrowMut<ColBatch>>(
    batch: &ColBatch,
    dest_of: impl Fn(usize) -> usize,
    parts: &mut [P],
) {
    assert!(u32::try_from(batch.len()).is_ok(), "row indices are 32-bit");
    let mut counts = vec![0u32; parts.len()];
    let ranked: Vec<(u32, u32)> = (0..batch.len())
        .map(|i| {
            let dest = dest_of(i);
            counts[dest] += 1;
            (dest as u32, counts[dest] - 1)
        })
        .collect();
    // Each destination's first slot in the order, and one past the last one's.
    let mut starts = vec![0u32; parts.len() + 1];
    for (d, count) in counts.iter().enumerate() {
        starts[d + 1] = starts[d] + count;
    }
    let mut order = vec![0u32; ranked.len()];
    for (i, &(dest, rank)) in ranked.iter().enumerate() {
        order[(starts[dest as usize] + rank) as usize] = i as u32;
    }
    for (part, range) in parts.iter_mut().zip(starts.windows(2)) {
        let rows = &order[range[0] as usize..range[1] as usize];
        let column = |c| {
            let source = batch.column(c);
            rows.iter().map(|&row| source[row as usize]).collect()
        };
        let rows = ColBatch::from_columns((0..batch.arity()).map(column).collect());
        append_rows(part.borrow_mut(), rows);
    }
}

/// Appends `rows` to `part` without flattening `part`: an empty part takes
/// `rows` as they are, a part that holds runs takes dense rows as runs of
/// one row ([`ColBatch::into_runs`]), and two run batches append as runs.
pub(crate) fn append_rows(part: &mut ColBatch, mut rows: ColBatch) {
    if part.runs() == 0 {
        *part = rows;
        return;
    }
    if part.run_ends().is_some() {
        rows = rows.into_runs();
    }
    part.append(&mut rows);
}

/// `true` when `batch` is a run batch and every key column is a prefix
/// column, so all rows of a run share one key and the run ships whole.
fn prefix_keyed(batch: &ColBatch, key_positions: &[usize]) -> bool {
    let newest = batch.arity() - 1;
    batch.run_ends().is_some() && key_positions.iter().all(|&c| c < newest)
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
