//! Operator micro-benchmarks: `SCAN` and `PULL-EXTEND` throughput on one
//! simulated machine.

use criterion::{criterion_group, criterion_main, Criterion};
use huge_cache::LrbuCache;
use huge_comm::stats::ClusterStats;
use huge_comm::{ColBatch, RpcFabric};
use huge_core::operators::{run_extend_cols, OpContext, ScanCursor, ScanPool};
use huge_core::pool::WorkerPool;
use huge_core::LoadBalance;
use huge_graph::{gen, Partitioner};
use huge_plan::physical::CommMode;
use huge_plan::translate::{ExtendOp, OrderFilter, ScanOp};
use std::sync::Arc;

fn bench_scan_and_extend(c: &mut Criterion) {
    let graph = gen::barabasi_albert(20_000, 8, 11);
    let partitions = Arc::new(Partitioner::new(2).unwrap().partition(graph));
    let stats = ClusterStats::new(2);
    let rpc = RpcFabric::new(Arc::clone(&partitions), stats);
    let cache = LrbuCache::new(32 << 20);
    let pool = WorkerPool::new(2, LoadBalance::WorkStealing);
    let ctx = OpContext {
        machine: 0,
        partition: &partitions[0],
        rpc: &rpc,
        cache: &cache,
        use_cache: true,
        pool: &pool,
        batch_size: 16 * 1024,
    };

    let mut group = c.benchmark_group("operators");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("scan_edges", |b| {
        b.iter(|| {
            let scan = ScanOp {
                src: 0,
                dst: 1,
                filters: vec![OrderFilter {
                    smaller: 0,
                    larger: 1,
                }],
            };
            let mut cursor =
                ScanCursor::new(scan, ScanPool::new(partitions[0].local_vertices(), 1024));
            let mut rows = 0usize;
            while let Some(batch) = cursor.next_batch(&ctx) {
                rows += batch.len();
            }
            rows
        })
    });

    // Pre-build one scan batch to feed the extend benchmark.
    let scan = ScanOp {
        src: 0,
        dst: 1,
        filters: vec![OrderFilter {
            smaller: 0,
            larger: 1,
        }],
    };
    let mut cursor = ScanCursor::new(scan, ScanPool::new(partitions[0].local_vertices(), 1024));
    let input = ColBatch::from_rows(&cursor.next_batch(&ctx).expect("scan batch"));
    let extend = ExtendOp {
        target: 2,
        ext_positions: vec![0, 1],
        verify_position: None,
        filters: vec![OrderFilter {
            smaller: 1,
            larger: 2,
        }],
        comm: CommMode::Pulling,
    };
    group.bench_function("pull_extend_triangle", |b| {
        b.iter(|| run_extend_cols(&extend, input.clone(), &ctx).batch.len())
    });
    group.finish();
}

criterion_group!(benches, bench_scan_and_extend);
criterion_main!(benches);
