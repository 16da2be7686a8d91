//! RADS [66]: star-expand-and-verify with pulling communication.
//!
//! RADS avoids shuffling intermediate results: in each round it expands the
//! partial matches by a star rooted at an *already matched* vertex, pulling
//! that vertex's adjacency list from its owner when it is remote, and then
//! verifies any remaining edges between matched vertices. Its weakness — the
//! paper's diagnosis — is the StarJoin-like left-deep plan this forces: the
//! expanded stars are fully materialised, which explodes on queries such as
//! q2 where large stars appear early.

use std::collections::HashMap;
use std::time::Instant;

use huge_core::report::RunReport;
use huge_core::{ClusterConfig, EngineError, Result};
use huge_graph::{Graph, Partitioner, VertexId};
use huge_plan::baselines::{native_plan, BaselineSystem};
use huge_plan::logical::JoinNode;
use huge_query::{QueryGraph, QueryVertex};

use crate::exec::{scan_star, BaselineCtx, DistTable};

/// The RADS baseline engine.
pub struct Rads {
    config: ClusterConfig,
}

impl Rads {
    /// Creates the engine.
    pub fn new(config: ClusterConfig) -> Self {
        Rads { config }
    }

    /// Enumerates `query` on `graph`.
    pub fn run(&self, graph: &Graph, query: &QueryGraph) -> Result<RunReport> {
        let plan = native_plan(BaselineSystem::Rads, query)?;
        let partitions =
            std::sync::Arc::new(Partitioner::new(self.config.machines)?.partition(graph.clone()));
        let mut ctx = BaselineCtx::new(partitions, query);
        let start = Instant::now();

        // RADS' plan is left-deep: flatten it into the initial star plus the
        // sequence of expansion/verification stars.
        let mut steps: Vec<&JoinNode> = Vec::new();
        let mut node = &plan.tree.root;
        loop {
            match node {
                JoinNode::Unit(_) => {
                    steps.push(node);
                    break;
                }
                JoinNode::Join { left, right, .. } => {
                    steps.push(right);
                    node = left;
                }
            }
        }
        steps.reverse();

        // Initial star scan.
        let first = match steps[0] {
            JoinNode::Unit(sub) => sub,
            _ => unreachable!("left-deep plans start with a unit"),
        };
        let (root, leaves) = first
            .as_star(query)
            .ok_or(EngineError::Config("RADS unit is not a star".into()))?;
        let mut table = scan_star(&mut ctx, root, &leaves)?;

        // Expansion / verification rounds.
        for step in &steps[1..] {
            let sub = step.output();
            let (mut root, mut leaves) = sub
                .as_star(query)
                .ok_or(EngineError::Config("RADS expansion is not a star".into()))?;
            // A single-edge star is rooted at its lower-id endpoint by
            // convention; RADS expands from whichever endpoint is already
            // matched, so re-orient if needed.
            if !table.schema.contains(&root)
                && leaves.len() == 1
                && table.schema.contains(&leaves[0])
            {
                std::mem::swap(&mut root, &mut leaves[0]);
            }
            table = expand_star_pulling(&mut ctx, &table, root, &leaves);
        }

        let matches = table.total_rows();
        // Machines expand concurrently on the context's machine pool, so the
        // wall clock includes their real skew instead of assuming ideal
        // parallelism.
        let compute_time = start.elapsed();
        let comm = ctx.stats.total();
        Ok(RunReport {
            query: format!("RADS:{}", query.name()),
            matches,
            compute_time,
            comm_time: self.config.network().time_for_snapshot(&comm),
            comm_bytes: comm.total_bytes(),
            comm,
            peak_memory_bytes: ctx.report_peak_memory(),
            ..Default::default()
        })
    }
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
            let matched = &input.rows[m];
            let mut row = Vec::with_capacity(matched.arity());
            for i in 0..matched.len() {
                row.clear();
                matched.read_row(i, &mut row);
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
                    continue;
                }
                // Enumerate injective assignments for the unbound leaves.
                let mut assignment: Vec<VertexId> = Vec::with_capacity(unbound.len());
                enumerate_unbound(nbrs, &row, unbound.len(), &mut assignment, &mut |vals| {
                    let mut joined = Vec::with_capacity(out_arity);
                    joined.extend_from_slice(&row);
                    joined.extend_from_slice(vals);
                    if shared.order_ok(out_schema_ref, &joined) {
                        rows.push_row(&joined);
                    }
                });
            }
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

fn enumerate_unbound(
    nbrs: &[VertexId],
    row: &[VertexId],
    remaining: usize,
    assignment: &mut Vec<VertexId>,
    emit: &mut impl FnMut(&[VertexId]),
) {
    if remaining == 0 {
        emit(assignment);
        return;
    }
    for &v in nbrs {
        if row.contains(&v) || assignment.contains(&v) {
            continue;
        }
        assignment.push(v);
        enumerate_unbound(nbrs, row, remaining - 1, assignment, emit);
        assignment.pop();
    }
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
            let report = Rads::new(ClusterConfig::new(3)).run(&g, &q).unwrap();
            assert_eq!(report.matches, expected, "{pattern:?}");
        }
    }

    #[test]
    fn rads_pulls_rather_than_pushes() {
        let g = gen::barabasi_albert(250, 6, 21);
        let q = Pattern::Square.query_graph();
        let report = Rads::new(ClusterConfig::new(4)).run(&g, &q).unwrap();
        assert_eq!(report.comm.bytes_pushed, 0);
        assert!(report.comm.bytes_pulled > 0);
    }

    #[test]
    fn rads_materialises_large_intermediates() {
        // The star-expand plan materialises whole stars, so its peak memory
        // should exceed the final result size for a sparse query.
        let g = gen::barabasi_albert(300, 8, 5);
        let q = Pattern::Square.query_graph();
        let report = Rads::new(ClusterConfig::new(2)).run(&g, &q).unwrap();
        assert!(report.peak_memory_bytes > 0);
    }
}
