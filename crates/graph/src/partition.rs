//! Hash partitioning of the data graph over `k` machines.
//!
//! Following §2 of the paper, the data graph is randomly partitioned: each
//! vertex is stored, together with its full adjacency list, on exactly one
//! machine. A vertex is *local* to the machine holding it and *remote*
//! elsewhere; remote adjacency lists must be obtained either by pushing
//! intermediate results to the owner or by pulling the list via RPC.

use std::sync::Arc;

use crate::graph::{Graph, VertexId};
use crate::kernels::{HubBitmap, HubIndex};
use crate::{GraphError, Result};

/// Identifier of a machine in the (simulated) cluster.
pub type MachineId = usize;

/// Maps vertices to owning machines.
///
/// A vertex is owned by [`machine_of`] its id: the high bits of the id after
/// one mixing multiply, which is the "random partitioning" of the paper —
/// neither an id nor its low bits carry any locality.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    num_machines: usize,
}

impl PartitionMap {
    /// Creates a partition map over `num_machines` machines.
    pub fn new(num_machines: usize) -> Result<Self> {
        if num_machines == 0 {
            return Err(GraphError::InvalidPartitionCount);
        }
        Ok(PartitionMap { num_machines })
    }

    /// Number of machines.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// The machine that owns vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> MachineId {
        machine_of(u64::from(v), self.num_machines)
    }

    /// Returns `true` if `v` is owned by `machine`.
    #[inline]
    pub fn is_local(&self, v: VertexId, machine: MachineId) -> bool {
        self.owner(v) == machine
    }
}

/// Mixes a 64-bit hash so that its high bits depend on all of it: the
/// halves are folded together (an identity on a 32-bit vertex id), then one
/// multiply by an odd constant carries every bit upwards. A one-column join
/// key hashes to the vertex id itself, so it is placed exactly as its
/// vertex. The fold is what makes a wider key's FNV hash safe to place:
/// FNV ends in a multiply, a second multiply on top would still be one, and
/// its high bits would follow the residue classes of what it multiplies
/// (one-column keys that are multiples of 4 went 42 % / 58 % over two
/// machines when they were FNV-hashed without the fold).
#[inline]
pub fn mix(h: u64) -> u64 {
    (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The machine, of `k`, that the 64-bit hash `h` is placed on: a
/// multiply-high scales [`mix`]`(h)` to `0..k`, so the placement reads the
/// *high* bits of the mixed value, and at a power-of-two `k` it does not
/// reduce to the low bits of `h`, as a remainder would. The vertex owner and
/// the join shuffle both place through here.
#[inline]
pub fn machine_of(h: u64, k: usize) -> MachineId {
    ((u128::from(mix(h)) * k as u128) >> 64) as MachineId
}

/// The slice of the data graph stored on one machine: the adjacency lists of
/// its local vertices, plus a shared handle to the global graph for
/// *accounted* remote access (see `huge-comm`).
#[derive(Clone, Debug)]
pub struct GraphPartition {
    machine: MachineId,
    map: PartitionMap,
    /// Local vertices in ascending id order.
    local_vertices: Vec<VertexId>,
    /// The full graph. Local reads go through this handle directly; remote
    /// reads must go through the communication fabric which charges bytes.
    graph: Arc<Graph>,
    /// Total bytes of the local adjacency lists (for memory accounting).
    local_bytes: u64,
    /// Cached hub bitmaps for local high-degree vertices (see
    /// [`GraphPartition::build_hub_index`]). `None` until built or when the
    /// threshold disables the index.
    hubs: Option<Arc<HubIndex>>,
}

impl GraphPartition {
    /// Number of local vertices.
    pub fn num_local_vertices(&self) -> usize {
        self.local_vertices.len()
    }

    /// The machine this partition belongs to.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The partition map shared by the whole cluster.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    /// Local vertices in ascending order.
    pub fn local_vertices(&self) -> &[VertexId] {
        &self.local_vertices
    }

    /// Returns `true` if `v` is stored on this machine.
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        self.map.is_local(v, self.machine)
    }

    /// Adjacency list of a *local* vertex.
    ///
    /// # Panics
    /// Panics (debug) if `v` is not local; the engine must pull remote
    /// vertices through the communication fabric so that traffic is
    /// accounted.
    #[inline]
    pub fn local_neighbours(&self, v: VertexId) -> &[VertexId] {
        debug_assert!(
            self.is_local(v),
            "vertex {v} is not local to machine {}",
            self.machine
        );
        self.graph.neighbours(v)
    }

    /// Adjacency list of any vertex, bypassing locality checks.
    ///
    /// Only the communication fabric (RPC server answering `GetNbrs`) and
    /// single-machine reference engines should use this.
    #[inline]
    pub fn any_neighbours(&self, v: VertexId) -> &[VertexId] {
        self.graph.neighbours(v)
    }

    /// Degree of any vertex (degree information is metadata that all
    /// machines may access without communication, as in the paper's
    /// cost-model discussion).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    /// The id the input gave vertex `v` ([`Graph::input_id`]).
    #[inline]
    pub fn input_id(&self, v: VertexId) -> VertexId {
        self.graph.input_id(v)
    }

    /// Checks edge existence against the underlying graph. Used only by
    /// verification paths and tests.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.graph.has_edge(u, v)
    }

    /// Bytes of adjacency data stored locally.
    pub fn local_bytes(&self) -> u64 {
        self.local_bytes
    }

    /// Builds (or disables, for `threshold == 0`) the hub-bitmap index over
    /// local vertices with degree at least `threshold`. Ids are degree ranks,
    /// so those are the local ids below `h`, the number of vertices at or
    /// above the threshold: only `0..h` is walked.
    ///
    /// The bitmaps are chunk-sparse (only non-zero 64-bit blocks are kept)
    /// and cached per partition so the intersection kernels can dispatch to
    /// the block-skipping bitmap branch for hub adjacency lists.
    pub fn build_hub_index(&mut self, threshold: usize) {
        if threshold == 0 {
            self.hubs = None;
            return;
        }
        let graph = &self.graph;
        let hubs = graph
            .vertices()
            .take_while(|&v| graph.degree(v) >= threshold);
        let lists = hubs.map(|v| self.is_local(v).then(|| graph.neighbours(v)));
        self.hubs = Some(HubIndex::build(lists));
    }

    /// The cached bitmap for a local hub vertex, if the index is built and
    /// `v` met the degree threshold. Hubs are the ids below `h`, so one
    /// compare answers for nearly every vertex, before any owner hash or
    /// degree read; a remote hub's slot is empty.
    #[inline]
    pub fn hub_bitmap(&self, v: VertexId) -> Option<&HubBitmap> {
        self.hubs.as_ref()?.get(v)
    }
}

/// Splits a graph into `k` partitions.
#[derive(Clone, Debug)]
pub struct Partitioner {
    map: PartitionMap,
}

impl Partitioner {
    /// Creates a partitioner for `num_machines` machines.
    pub fn new(num_machines: usize) -> Result<Self> {
        Ok(Partitioner {
            map: PartitionMap::new(num_machines)?,
        })
    }

    /// The partition map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Partitions `graph`, producing one [`GraphPartition`] per machine.
    pub fn partition(&self, graph: Graph) -> Vec<GraphPartition> {
        let graph = Arc::new(graph);
        let k = self.map.num_machines();
        let mut locals: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in graph.vertices() {
            locals[self.map.owner(v)].push(v);
        }
        locals
            .into_iter()
            .enumerate()
            .map(|(machine, local_vertices)| {
                let local_bytes: u64 = local_vertices
                    .iter()
                    .map(|&v| {
                        (graph.degree(v) * std::mem::size_of::<VertexId>()
                            + std::mem::size_of::<u64>()) as u64
                    })
                    .sum();
                GraphPartition {
                    machine,
                    map: self.map.clone(),
                    local_vertices,
                    graph: Arc::clone(&graph),
                    local_bytes,
                    hubs: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn every_vertex_owned_exactly_once() {
        let g = gen::erdos_renyi(500, 2000, 11);
        let parts = Partitioner::new(4).unwrap().partition(g);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.num_local_vertices()).sum();
        assert_eq!(total, 500);
        for p in &parts {
            for &v in p.local_vertices() {
                assert!(p.is_local(v));
                assert_eq!(p.partition_map().owner(v), p.machine());
            }
        }
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let g = gen::erdos_renyi(10_000, 30_000, 3);
        let parts = Partitioner::new(8).unwrap().partition(g);
        let sizes: Vec<usize> = parts.iter().map(|p| p.num_local_vertices()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 <= min as f64 * 1.3, "imbalanced: {sizes:?}");
    }

    #[test]
    fn zero_machines_rejected() {
        assert!(Partitioner::new(0).is_err());
        assert!(PartitionMap::new(0).is_err());
    }

    #[test]
    fn owner_is_the_high_bits_of_the_mixed_id() {
        let ids = (0..=10_000).chain([u32::MAX - 1, u32::MAX]);
        for v in ids {
            let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for k in (1..=9usize).chain([1000, 65_537]) {
                let map = PartitionMap::new(k).unwrap();
                let high = ((h as u128 * k as u128) >> 64) as usize;
                assert_eq!(map.owner(v), high, "v {v} k {k}");
            }
        }
    }

    #[test]
    fn one_residue_class_spreads_over_every_machine() {
        // A grid's checkerboard or an R-MAT's quadrant bits put structure in
        // an id's low bits; the owner must not follow it.
        for k in 2..=4usize {
            let map = PartitionMap::new(k).unwrap();
            for residue in 0..4u32 {
                let mut owned = vec![0usize; k];
                for i in 0..10_000u32 {
                    owned[map.owner(i * 4 + residue)] += 1;
                }
                let fair = 10_000.0 / k as f64;
                for (machine, &n) in owned.iter().enumerate() {
                    assert!(
                        (n as f64 - fair).abs() <= 0.1 * fair,
                        "k {k}, ids ≡ {residue} mod 4: machine {machine} owns {n} of 10 000"
                    );
                }
            }
        }
    }

    #[test]
    fn single_machine_owns_everything() {
        let g = gen::cycle(10);
        let parts = Partitioner::new(1).unwrap().partition(g);
        assert_eq!(parts[0].num_local_vertices(), 10);
        assert!(parts[0].is_local(7));
        // A cycle is regular, so ties keep the input order: ranks are ids.
        let p = &parts[0];
        let nbrs: Vec<VertexId> = p
            .local_neighbours(0)
            .iter()
            .map(|&v| p.input_id(v))
            .collect();
        assert_eq!(p.input_id(0), 0);
        assert_eq!(nbrs, [1, 9]);
    }

    #[test]
    fn hub_index_covers_exactly_local_hubs() {
        let g = gen::barabasi_albert(2000, 8, 7);
        let threshold = 64;
        let mut parts = Partitioner::new(3).unwrap().partition(g);
        let unindexed = |p: &GraphPartition| {
            p.local_vertices()
                .iter()
                .all(|&v| p.hub_bitmap(v).is_none())
        };
        for p in &mut parts {
            assert!(unindexed(p));
            p.build_hub_index(threshold);
        }
        let mut indexed = 0usize;
        for p in &parts {
            for &v in p.local_vertices() {
                let is_hub = p.degree(v) >= threshold;
                assert_eq!(p.hub_bitmap(v).is_some(), is_hub, "vertex {v}");
                if let Some(bm) = p.hub_bitmap(v) {
                    indexed += 1;
                    assert_eq!(bm.cardinality() as usize, p.degree(v));
                    for &n in p.any_neighbours(v) {
                        assert!(bm.contains(n));
                    }
                }
            }
        }
        assert!(indexed > 0, "BA graph with m=8 should have hubs above 64");
        // The hubs are the ids below `h`: indexed exactly where local.
        let h = (0..2000)
            .take_while(|&v| parts[0].degree(v) >= threshold)
            .count() as VertexId;
        assert!((h..2000).all(|v| parts[0].degree(v) < threshold));
        for p in &parts {
            let hubs: Vec<VertexId> = (0..2000).filter(|&v| p.hub_bitmap(v).is_some()).collect();
            let local_below_h: Vec<VertexId> = (0..h).filter(|&v| p.is_local(v)).collect();
            assert_eq!(hubs, local_below_h, "machine {}", p.machine());
        }
        // Another machine's hub has no bitmap here.
        let remote_hub = |&v: &VertexId| !parts[0].is_local(v) && parts[0].degree(v) >= threshold;
        let remote_hubs: Vec<VertexId> = (0..2000).filter(remote_hub).collect();
        assert!(!remote_hubs.is_empty());
        assert!(remote_hubs
            .iter()
            .all(|&v| parts[0].hub_bitmap(v).is_none()));
        // Threshold 0 disables the index.
        parts[0].build_hub_index(0);
        assert!(unindexed(&parts[0]));
    }

    #[test]
    fn local_bytes_sum_close_to_csr() {
        let g = gen::barabasi_albert(1000, 5, 2);
        let csr = g.csr_bytes();
        let parts = Partitioner::new(3).unwrap().partition(g);
        let sum: u64 = parts.iter().map(|p| p.local_bytes()).sum();
        // local_bytes uses per-vertex offset accounting so it will not match
        // exactly, but it should be within a factor of 2.
        assert!(sum > csr / 2 && sum < csr * 2);
    }
}
