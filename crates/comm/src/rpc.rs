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

use huge_graph::{GraphPartition, Interval, VertexId};

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
    /// served for free. Returns each distinct vertex with its whole
    /// adjacency list, in ascending vertex order.
    pub fn get_nbrs(
        &self,
        requester: MachineId,
        vertices: &[VertexId],
    ) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut unique: Vec<VertexId> = vertices.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let whole: Vec<_> = unique.iter().map(|&v| (v, Interval::ALL)).collect();
        let lists = self.pull(requester, &whole, <[VertexId]>::to_vec);
        unique.into_iter().zip(lists).collect()
    }

    /// The fetch stage's ranged `GetNbrs`: the ids of `N(v)` inside
    /// `interval` for each `(v, interval)` of `requests`, in request order,
    /// each received into a shared `Arc` that a cache entry and a batch's
    /// readers hold without copying it again. Charged like
    /// [`RpcFabric::get_nbrs`], for the ids sent: a request repeated is
    /// answered, and charged, again.
    pub fn get_shared_nbrs(
        &self,
        requester: MachineId,
        requests: &[(VertexId, Interval)],
    ) -> Vec<Arc<[VertexId]>> {
        self.pull(requester, requests, |ids| Arc::from(ids))
    }

    /// `GetNbrs`, each part of a list received through `receive`: 4 bytes
    /// per id sent and [`PER_VERTEX_OVERHEAD`] per list, one round trip per
    /// remote owner.
    fn pull<L>(
        &self,
        requester: MachineId,
        requests: &[(VertexId, Interval)],
        receive: impl Fn(&[VertexId]) -> L,
    ) -> Vec<L> {
        let mut charged = vec![(0u64, 0u64); self.num_machines()];
        let lists = requests
            .iter()
            .map(|&(v, interval)| {
                let owner = self.owner(v);
                let ids = interval.cut(self.partitions[owner].any_neighbours(v));
                let (lists, bytes) = &mut charged[owner];
                *lists += 1;
                *bytes += std::mem::size_of_val(ids) as u64 + PER_VERTEX_OVERHEAD;
                receive(ids)
            })
            .collect();
        for (owner, &(lists, bytes)) in charged.iter().enumerate() {
            if owner != requester && lists > 0 {
                self.stats.machine(requester).record_pull(lists, bytes);
            }
        }
        lists
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
    fn a_ranged_pull_sends_and_charges_only_the_ids_inside() {
        let (fabric, stats) = fabric(2);
        let remote = |v: &VertexId| fabric.owner(*v) == 1;
        // A remote vertex with vertex 0 among its neighbours, and room
        // above and below the cut.
        let v = (0..200u32)
            .filter(remote)
            .find(|&v| {
                let nbrs = fabric.partition(0).any_neighbours(v);
                nbrs.len() >= 6 && nbrs[0] == 0
            })
            .expect("a remote neighbour of vertex 0 with six neighbours");
        let nbrs = fabric.partition(0).any_neighbours(v).to_vec();
        let (lo, hi) = (nbrs[1], nbrs[4]);
        let inside: Vec<VertexId> = nbrs.iter().copied().filter(|&x| lo < x && x < hi).collect();
        let asks = [
            (v, Interval::between(Some(lo), Some(hi))),
            (v, Interval::between(None, Some(hi))),
            (v, Interval::between(Some(lo), None)),
            (v, Interval::between(None, None)),
        ];
        let lists = fabric.get_shared_nbrs(0, &asks);
        assert_eq!(&lists[0][..], &inside[..]);
        // An unbounded side keeps vertex 0, and every id up to the top.
        assert_eq!(&lists[1][..], &nbrs[..4]);
        assert_eq!(&lists[2][..], &nbrs[2..]);
        assert_eq!(&lists[3][..], &nbrs[..]);
        let sent: usize = lists.iter().map(|list| list.len()).sum();
        let snap = stats.total();
        assert_eq!(snap.bytes_pulled, 4 * sent as u64 + 12 * 4);
        assert_eq!((snap.rpc_requests, snap.vertices_fetched), (1, 4));
        // Locally owned lists are free; an empty interval sends no id.
        let local = (0..200u32).find(|v| !remote(v)).unwrap();
        let more = fabric.get_shared_nbrs(0, &[(local, Interval::ALL), (v, Interval::EMPTY)]);
        assert!(more[1].is_empty());
        assert_eq!(stats.total().bytes_pulled, snap.bytes_pulled + 12);
    }

    #[test]
    fn steal_accounting() {
        let (fabric, stats) = fabric(2);
        fabric.record_steal(1, 4096);
        assert_eq!(stats.machine(1).snapshot().bytes_stolen, 4096);
        assert_eq!(stats.total().steals, 1);
    }
}
