//! RADS \[66\]: star-expand-and-verify with pulling communication.
//!
//! RADS avoids shuffling intermediate results: in each round it expands the
//! partial matches by a star rooted at an *already matched* vertex, pulling
//! that vertex's adjacency list from its owner when it is remote, and then
//! verifies any remaining edges between matched vertices. Its weakness — the
//! paper's diagnosis — is the StarJoin-like left-deep plan this forces: the
//! expanded stars are fully materialised, which explodes on queries such as
//! q2 where large stars appear early.

use std::collections::HashMap;

use huge_core::report::RunReport;
use huge_core::{ClusterConfig, Result};
use huge_graph::{Graph, VertexId};
use huge_query::{QueryGraph, QueryVertex};

use crate::exec::{enumerate_injective, run_left_deep, BaselineCtx, DistTable};
use crate::Baseline;

/// Runs RADS' native plan: the initial star scan, then one pulling
/// expansion (or verification) round per remaining star.
pub(crate) fn run(graph: &Graph, query: &QueryGraph, config: &ClusterConfig) -> Result<RunReport> {
    run_left_deep(
        Baseline::Rads,
        graph,
        query,
        config,
        |ctx, table, mut root, mut leaves| {
            // A single-edge star is rooted at its lower-id endpoint by
            // convention; RADS expands from whichever endpoint is already
            // matched, so re-orient if needed.
            if !table.schema.contains(&root)
                && leaves.len() == 1
                && table.schema.contains(&leaves[0])
            {
                std::mem::swap(&mut root, &mut leaves[0]);
            }
            Ok(expand_star_pulling(ctx, &table, root, &leaves))
        },
    )
}

/// Expands every partial match by a star rooted at the already-bound vertex
/// `root`, pulling the root's adjacency list when it is remote. Bound leaves
/// are verified; unbound leaves are enumerated injectively. The machines
/// expand concurrently on the context's machine pool.
fn expand_star_pulling(
    ctx: &mut BaselineCtx,
    input: &DistTable,
    root: QueryVertex,
    leaves: &[QueryVertex],
) -> DistTable {
    let root_pos = input
        .schema
        .iter()
        .position(|&v| v == root)
        .expect("RADS expands from a matched vertex");
    let bound: Vec<(usize, QueryVertex)> = leaves
        .iter()
        .filter_map(|&l| input.schema.iter().position(|&v| v == l).map(|p| (p, l)))
        .collect();
    let unbound: Vec<QueryVertex> = leaves
        .iter()
        .copied()
        .filter(|l| !input.schema.contains(l))
        .collect();
    let mut out_schema = input.schema.clone();
    out_schema.extend_from_slice(&unbound);

    let k = ctx.k();
    let out_arity = out_schema.len();
    let pool = ctx.machine_pool().clone();
    let shared: &BaselineCtx = ctx;
    let out_schema_ref = &out_schema;
    let expanded = pool.run(
        (0..k).collect::<Vec<_>>(),
        |m, out: &mut Vec<(usize, huge_comm::ColBatch)>| {
            // Per-machine cache of pulled adjacency lists (RADS caches within
            // a region group; we grant it a whole-machine cache, which is
            // generous). Fetches go through the shared RPC fabric, which
            // charges remote pulls exactly as the HUGE engine's `PULL-EXTEND`
            // is charged.
            let mut cache: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
            let mut rows = huge_comm::ColBatch::new(out_arity);
            input.rows[m].for_each_row(|row| {
                let anchor = row[root_pos];
                let nbrs = &*cache.entry(anchor).or_insert_with(|| {
                    shared
                        .rpc()
                        .get_nbrs(m, &[anchor])
                        .into_iter()
                        .next()
                        .map(|(_, nbrs)| nbrs)
                        .unwrap_or_default()
                });
                // Verification of already-bound leaves.
                let verified = bound
                    .iter()
                    .all(|&(pos, _)| nbrs.binary_search(&row[pos]).is_ok());
                if !verified {
                    return;
                }
                // Enumerate injective assignments for the unbound leaves.
                let mut assignment: Vec<VertexId> = Vec::with_capacity(unbound.len());
                enumerate_injective(nbrs, row, unbound.len(), &mut assignment, &mut |vals| {
                    let mut joined = Vec::with_capacity(out_arity);
                    joined.extend_from_slice(row);
                    joined.extend_from_slice(vals);
                    if shared.order_ok(out_schema_ref, &joined) {
                        rows.push_row(&joined);
                    }
                });
            });
            out.push((m, rows));
        },
    );
    let mut output = DistTable::new(out_schema.clone(), k);
    for (m, rows) in expanded.into_flat() {
        output.rows[m] = rows;
    }
    ctx.note_table(&output);
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;
    use huge_query::{naive, Pattern};

    #[test]
    fn rads_counts_match_reference() {
        let g = gen::erdos_renyi(150, 700, 13);
        for pattern in [Pattern::Triangle, Pattern::Square, Pattern::ChordalSquare] {
            let q = pattern.query_graph();
            let expected = naive::enumerate(&g, &q);
            let report = Baseline::Rads.run(&g, &q, &ClusterConfig::new(3)).unwrap();
            assert_eq!(report.matches, expected, "{pattern:?}");
        }
    }

    #[test]
    fn rads_pulls_rather_than_pushes() {
        let g = gen::barabasi_albert(250, 6, 21);
        let q = Pattern::Square.query_graph();
        let report = Baseline::Rads.run(&g, &q, &ClusterConfig::new(4)).unwrap();
        assert_eq!(report.comm.bytes_pushed, 0);
        assert!(report.comm.bytes_pulled > 0);
    }

    #[test]
    fn rads_materialises_large_intermediates() {
        // The star-expand plan materialises whole stars, so its peak memory
        // should exceed the final result size for a sparse query.
        let g = gen::barabasi_albert(300, 8, 5);
        let q = Pattern::Square.query_graph();
        let report = Baseline::Rads.run(&g, &q, &ClusterConfig::new(2)).unwrap();
        assert!(report.peak_memory_bytes > 0);
    }
}
