//! The RPC fabric: pulling communication.
//!
//! The paper's RPC server answers two calls (§4.1): `GetNbrs`, which returns
//! the adjacency lists of a batch of vertices owned by the callee, and
//! `StealWork`, which hands unprocessed tasks to an idle machine. In this
//! single-process simulation the "server" is simply the owning machine's
//! partition, reachable through a shared handle; what the fabric adds is the
//! *accounting* — every remote fetch is charged to the requesting machine
//! with the same payload sizes a real RPC would ship — and batching of
//! requests per owner, mirroring the paper's bulk `GetNbrs` calls.

use std::sync::Arc;

use huge_graph::{GraphPartition, VertexId};

use crate::stats::ClusterStats;
use crate::MachineId;

/// Overhead in bytes charged per vertex in a `GetNbrs` request (the request
/// carries the vertex id; the response carries the id and the list length).
const PER_VERTEX_OVERHEAD: u64 = 12;

/// The pulling fabric shared by all machines.
#[derive(Clone)]
pub struct RpcFabric {
    partitions: Arc<Vec<GraphPartition>>,
    stats: ClusterStats,
}

impl RpcFabric {
    /// Creates the fabric over the cluster's partitions.
    pub fn new(partitions: Arc<Vec<GraphPartition>>, stats: ClusterStats) -> Self {
        assert_eq!(partitions.len(), stats.num_machines());
        RpcFabric { partitions, stats }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.partitions.len()
    }

    /// The partition owned by `machine`.
    pub fn partition(&self, machine: MachineId) -> &GraphPartition {
        &self.partitions[machine]
    }

    /// The owner of a vertex.
    pub fn owner(&self, v: VertexId) -> MachineId {
        self.partitions[0].partition_map().owner(v)
    }

    /// Issues `GetNbrs` requests from `requester` for the given vertices.
    ///
    /// Vertices are grouped by owning machine; one RPC round trip is charged
    /// per distinct remote owner (the paper's batched/merged RPCs), and the
    /// response bytes are charged as pulled traffic. Local vertices are
    /// served for free. Returns `(vertex, adjacency list)` pairs in no
    /// particular order; duplicates in the input are fetched only once.
    pub fn get_nbrs(
        &self,
        requester: MachineId,
        vertices: &[VertexId],
    ) -> Vec<(VertexId, Vec<VertexId>)> {
        self.pull(requester, vertices, <[VertexId]>::to_vec)
    }

    /// [`RpcFabric::get_nbrs`] with every list received into a shared
    /// `Arc`, which a cache entry and a batch's readers can hold without
    /// copying it again.
    pub fn get_shared_nbrs(
        &self,
        requester: MachineId,
        vertices: &[VertexId],
    ) -> Vec<(VertexId, Arc<[VertexId]>)> {
        self.pull(requester, vertices, |list| Arc::from(list))
    }

    /// `GetNbrs`, each list received through `receive`.
    fn pull<L>(
        &self,
        requester: MachineId,
        vertices: &[VertexId],
        receive: impl Fn(&[VertexId]) -> L,
    ) -> Vec<(VertexId, L)> {
        let mut unique: Vec<VertexId> = vertices.to_vec();
        unique.sort_unstable();
        unique.dedup();

        let mut by_owner: Vec<Vec<VertexId>> = vec![Vec::new(); self.num_machines()];
        for v in unique {
            by_owner[self.owner(v)].push(v);
        }
        let mut out = Vec::new();
        for (owner, vs) in by_owner.into_iter().enumerate() {
            if vs.is_empty() {
                continue;
            }
            let owner_partition = &self.partitions[owner];
            let mut bytes = 0u64;
            for &v in &vs {
                let nbrs = owner_partition.any_neighbours(v);
                bytes += nbrs.len() as u64 * std::mem::size_of::<VertexId>() as u64
                    + PER_VERTEX_OVERHEAD;
                out.push((v, receive(nbrs)));
            }
            if owner != requester {
                self.stats
                    .machine(requester)
                    .record_pull(vs.len() as u64, bytes);
            }
        }
        out
    }

    /// Records the traffic of an inter-machine work steal of `bytes` bytes
    /// initiated by `thief` (the data itself moves through engine-level
    /// shared state; only the accounting lives here).
    pub fn record_steal(&self, thief: MachineId, bytes: u64) {
        self.stats.machine(thief).record_steal(bytes);
    }

    /// The shared statistics handle.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::{gen, Partitioner};

    fn fabric(k: usize) -> (RpcFabric, ClusterStats) {
        let g = gen::erdos_renyi(200, 800, 3);
        let parts = Partitioner::new(k).unwrap().partition(g);
        let stats = ClusterStats::new(k);
        (RpcFabric::new(Arc::new(parts), stats.clone()), stats)
    }

    #[test]
    fn fetches_adjacency_lists_correctly() {
        let (fabric, _) = fabric(4);
        let result = fabric.get_nbrs(0, &[1, 2, 3]);
        assert_eq!(result.len(), 3);
        for (v, nbrs) in result {
            assert_eq!(nbrs, fabric.partition(0).any_neighbours(v));
        }
    }

    #[test]
    fn local_fetches_are_free_remote_are_charged() {
        let (fabric, stats) = fabric(2);
        // Find one local and one remote vertex for machine 0.
        let local = (0..200u32).find(|&v| fabric.owner(v) == 0).unwrap();
        let remote = (0..200u32).find(|&v| fabric.owner(v) == 1).unwrap();
        fabric.get_nbrs(0, &[local]);
        assert_eq!(stats.total().bytes_pulled, 0);
        fabric.get_nbrs(0, &[remote]);
        let snap = stats.total();
        assert!(snap.bytes_pulled > 0);
        assert_eq!(snap.rpc_requests, 1);
        assert_eq!(snap.vertices_fetched, 1);
    }

    #[test]
    fn duplicates_fetched_once() {
        let (fabric, stats) = fabric(2);
        let remote = (0..200u32).find(|&v| fabric.owner(v) == 1).unwrap();
        fabric.get_nbrs(0, &[remote, remote, remote]);
        assert_eq!(stats.total().vertices_fetched, 1);
    }

    #[test]
    fn one_round_trip_per_remote_owner() {
        let (fabric, stats) = fabric(4);
        // Request vertices owned by every machine.
        let mut picks = Vec::new();
        for m in 0..4 {
            picks.push((0..200u32).find(|&v| fabric.owner(v) == m).unwrap());
        }
        fabric.get_nbrs(0, &picks);
        // 3 remote owners -> 3 round trips.
        assert_eq!(stats.total().rpc_requests, 3);
    }

    #[test]
    fn steal_accounting() {
        let (fabric, stats) = fabric(2);
        fabric.record_steal(1, 4096);
        assert_eq!(stats.machine(1).snapshot().bytes_stolen, 4096);
        assert_eq!(stats.total().steals, 1);
    }
}
