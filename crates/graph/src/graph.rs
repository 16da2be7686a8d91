//! The CSR graph representation.

use crate::builder::GraphBuilder;
use crate::stats::GraphStats;

/// Identifier of a data-graph vertex.
///
/// The paper assigns each vertex a unique integer id in `0..|V|` (§2); we use
/// `u32` which is sufficient for the laptop-scale graphs this reproduction
/// targets while halving the memory footprint of adjacency lists compared to
/// `u64`. Inside a [`Graph`] an id is the vertex's *degree rank*: id 0 has the
/// largest degree, and equal degrees keep the input's id order.
/// [`Graph::input_id`] maps a rank back to the id the input used.
pub type VertexId = u32;

/// A closed interval `first..=last` of vertex ids: the part of an adjacency
/// list a pull asks for and a cache entry holds. Closed, so the whole id
/// space — 0 and `VertexId::MAX` included — is [`Interval::ALL`], and no
/// missing bound is spelt as an id a list could hold. Empty when `first >
/// last`; every empty interval is [`Interval::EMPTY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    first: VertexId,
    last: VertexId,
}

impl Interval {
    /// Every id.
    pub const ALL: Interval = Interval {
        first: 0,
        last: VertexId::MAX,
    };

    /// No id: what [`Interval::hull`] adds nothing to.
    pub const EMPTY: Interval = Interval {
        first: VertexId::MAX,
        last: 0,
    };

    /// `first..=last` (empty when `first > last`).
    #[inline]
    pub fn new(first: VertexId, last: VertexId) -> Interval {
        match first <= last {
            true => Interval { first, last },
            false => Interval::EMPTY,
        }
    }

    /// The ids strictly between `lo` and `hi`, the bounds an order filter
    /// sets; `None` leaves that side unbounded.
    #[inline]
    pub fn between(lo: Option<VertexId>, hi: Option<VertexId>) -> Interval {
        let first = lo.map_or(Some(0), |lo| lo.checked_add(1));
        let last = hi.map_or(Some(VertexId::MAX), |hi| hi.checked_sub(1));
        match (first, last) {
            (Some(first), Some(last)) => Interval::new(first, last),
            _ => Interval::EMPTY,
        }
    }

    /// Just `v`.
    #[inline]
    pub fn point(v: VertexId) -> Interval {
        Interval { first: v, last: v }
    }

    /// `true` when the interval holds no id.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.first > self.last
    }

    /// Whether every id of `other` lies in `self`.
    #[inline]
    pub fn contains(self, other: Interval) -> bool {
        other.is_empty() || (self.first <= other.first && other.last <= self.last)
    }

    /// The smallest interval holding both.
    #[inline]
    pub fn hull(self, other: Interval) -> Interval {
        // Every empty interval is `EMPTY`, whose bounds lose both contests.
        Interval {
            first: self.first.min(other.first),
            last: self.last.max(other.last),
        }
    }

    /// The ids of `self` below `held` and above it, in that order (either
    /// may be empty): what widening an entry that holds `held` to `self`
    /// must add.
    #[inline]
    pub fn outside(self, held: Interval) -> [Interval; 2] {
        if held.is_empty() {
            return [self, Interval::EMPTY];
        }
        let below = held
            .first
            .checked_sub(1)
            .map(|l| Interval::new(self.first, l.min(self.last)));
        let above = held
            .last
            .checked_add(1)
            .map(|f| Interval::new(f.max(self.first), self.last));
        [below, above].map(|part| part.unwrap_or(Interval::EMPTY))
    }

    /// The part of the ascending list `ids` inside the interval.
    #[inline]
    pub fn cut(self, ids: &[VertexId]) -> &[VertexId] {
        if self.is_empty() {
            return &[];
        }
        let from = match self.first {
            0 => 0,
            first => ids.partition_point(|&x| x < first),
        };
        let to = match self.last {
            VertexId::MAX => ids.len(),
            last => ids.partition_point(|&x| x <= last),
        };
        &ids[from..to.max(from)]
    }
}

/// An immutable, undirected graph in compressed sparse row (CSR) form.
///
/// Adjacency lists are sorted in ascending order which allows:
///
/// * binary-search edge existence checks ([`Graph::has_edge`]),
/// * linear-merge multi-way intersections (the kernel of `PULL-EXTEND`),
/// * cheap symmetry-breaking filters (`u < u'` comparisons on ids).
///
/// Vertices are numbered in descending-degree order, ties by input id (see
/// [`VertexId`]), so hubs hold the smallest ids: an order filter `u < u'`
/// then keeps a vertex's lower-degree side, and the vertices at or above any
/// degree are the ids below some `h`. [`GraphBuilder::build`] is the one
/// constructor; it keeps the rank → input id map ([`Graph::input_id`]).
///
/// The graph is undirected: every edge `(u, v)` appears in both `adj(u)` and
/// `adj(v)`. [`Graph::num_edges`] reports the number of undirected edges.
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR offsets; `offsets[v]..offsets[v + 1]` indexes into `neighbours`.
    offsets: Vec<u64>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbours: Vec<VertexId>,
    /// Number of undirected edges.
    num_edges: u64,
    /// `input_ids[v]` is the id the input gave vertex `v`.
    input_ids: Vec<VertexId>,
}

impl Default for Graph {
    /// The empty graph (no vertices, no edges).
    fn default() -> Self {
        Graph {
            offsets: vec![0],
            neighbours: Vec::new(),
            num_edges: 0,
            input_ids: Vec::new(),
        }
    }
}

impl Graph {
    /// Creates a graph directly from CSR arrays in degree-rank order.
    ///
    /// `offsets` must have length `n + 1`, be non-decreasing, start at 0 and
    /// end at `neighbours.len()`; degrees must be non-increasing; each
    /// adjacency slice must be sorted; `input_ids` must have length `n`.
    /// These invariants are checked with debug assertions only: the one
    /// caller is [`GraphBuilder::build`].
    pub(crate) fn from_csr(
        offsets: Vec<u64>,
        neighbours: Vec<VertexId>,
        num_edges: u64,
        input_ids: Vec<VertexId>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.first().unwrap(), 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbours.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets.windows(3).all(|w| w[1] - w[0] >= w[2] - w[1]));
        debug_assert_eq!(input_ids.len() + 1, offsets.len());
        Graph {
            offsets,
            neighbours,
            num_edges,
            input_ids,
        }
    }

    /// Builds a graph from an iterator of undirected edges.
    ///
    /// Duplicate edges and self loops are removed. The vertex count is
    /// `max id + 1`; vertices are renumbered by descending degree, and
    /// [`Graph::input_id`] gives back the ids of `edges`.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut b = GraphBuilder::new();
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build().expect("no declared vertex count to exceed")
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbours(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbours[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The id the input gave vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn input_id(&self, v: VertexId) -> VertexId {
        self.input_ids[v as usize]
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbours(a).binary_search(&b).is_ok()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates over all undirected edges, each reported once with `u < v`
    /// (except that isolated direction choices follow adjacency ordering).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbours(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree `D_G` over all vertices: vertex 0's.
    pub fn max_degree(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.degree(0)
        }
    }

    /// Average degree `d_G`.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Computes the full degree statistics of this graph.
    pub fn stats(&self) -> GraphStats {
        GraphStats::of(self)
    }

    /// An estimate of the in-memory size of the CSR representation in bytes.
    ///
    /// Used to model the "pull at most the whole graph data" communication
    /// bound (`k · |E_G|`, Remark 3.1) and to size caches as a fraction of
    /// the graph (the paper's "cache capacity: 30% of the data graph"). The
    /// input id map is not part of it.
    pub fn csr_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbours.len() * std::mem::size_of::<VertexId>()) as u64
    }

    /// Counts triangles (closed wedges) in the graph.
    ///
    /// This is a reference/diagnostic routine used by tests to cross-check
    /// the enumeration engine on the simplest non-trivial query.
    pub fn count_triangles(&self) -> u64 {
        let mut count = 0u64;
        for u in self.vertices() {
            let nu = self.neighbours(u);
            for &v in nu.iter().filter(|&&v| v > u) {
                let nv = self.neighbours(v);
                count += intersect_count_gt(nu, nv, v);
            }
        }
        count
    }
}

/// Counts common elements of two sorted slices strictly greater than `min`.
///
/// Lower bounds are handled by pre-slicing with `partition_point`, so the
/// counting kernel itself stays branch-light (see [`crate::kernels`]).
fn intersect_count_gt(a: &[VertexId], b: &[VertexId], min: VertexId) -> u64 {
    let i = a.partition_point(|&x| x <= min);
    let j = b.partition_point(|&x| x <= min);
    crate::kernels::intersect_count_merge(&a[i..], &b[j..])
}

/// Intersects two sorted adjacency slices into a new vector.
pub fn intersect_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Intersects many sorted slices, smallest first, into a new vector.
///
/// This is the multiway intersection of Equation 2 in the paper, used by the
/// `PULL-EXTEND` operator to compute the candidate set of the next query
/// vertex. The accumulator is seeded from the smallest list and stepped
/// against each remaining list by the adaptive kernel through one spare
/// buffer — two allocations total, instead of one fresh vector per list.
pub fn intersect_many(mut lists: Vec<&[VertexId]>) -> Vec<VertexId> {
    if lists.is_empty() {
        return Vec::new();
    }
    lists.sort_by_key(|l| l.len());
    let (mut acc, mut spare) = (lists[0].to_vec(), Vec::new());
    for l in &lists[1..] {
        if acc.is_empty() {
            break;
        }
        crate::kernels::intersect_in_place(&mut acc, l, &mut spare);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Graph {
        Graph::from_edges((0..n - 1).map(|i| (i, i + 1)))
    }

    /// The vertex the input called `input`.
    fn id(g: &Graph, input: VertexId) -> VertexId {
        g.vertices().find(|&v| g.input_id(v) == input).unwrap()
    }

    #[test]
    fn an_interval_keeps_both_ends_of_the_id_space() {
        let ids = [0, 3, 7, VertexId::MAX];
        assert_eq!(Interval::ALL.cut(&ids), &ids);
        assert_eq!(Interval::between(None, None), Interval::ALL);
        // Strict bounds at either end of the id space leave nothing beyond.
        assert_eq!(Interval::between(None, Some(3)).cut(&ids), &[0]);
        assert_eq!(
            Interval::between(Some(3), None).cut(&ids),
            &[7, VertexId::MAX]
        );
        assert!(Interval::between(None, Some(0)).is_empty());
        assert!(Interval::between(Some(VertexId::MAX), None).is_empty());
        assert!(Interval::between(Some(3), Some(4)).is_empty());
        assert_eq!(Interval::between(Some(3), Some(5)), Interval::point(4));
        assert_eq!(Interval::new(5, 4), Interval::EMPTY);
    }

    #[test]
    fn widening_an_interval_adds_only_what_lies_outside() {
        let held = Interval::new(10, 20);
        assert!(held.contains(Interval::new(12, 20)) && held.contains(Interval::EMPTY));
        assert!(!held.contains(Interval::new(9, 12)) && !Interval::EMPTY.contains(held));
        let wide = held.hull(Interval::point(30));
        assert_eq!(wide, Interval::new(10, 30));
        assert_eq!(wide.outside(held), [Interval::EMPTY, Interval::new(21, 30)]);
        let both = held.hull(Interval::new(0, 40));
        assert_eq!(
            both.outside(held),
            [Interval::new(0, 9), Interval::new(21, 40)]
        );
        assert_eq!(held.outside(held), [Interval::EMPTY; 2]);
        assert_eq!(held.outside(Interval::EMPTY), [held, Interval::EMPTY]);
        // A held interval at an end of the id space has nothing past it.
        let top = Interval::new(5, VertexId::MAX);
        let bottom = Interval::new(0, 5);
        assert_eq!(
            Interval::ALL.outside(top),
            [Interval::new(0, 4), Interval::EMPTY]
        );
        assert_eq!(
            Interval::ALL.outside(bottom),
            [Interval::EMPTY, Interval::new(6, VertexId::MAX)]
        );
        assert_eq!(Interval::EMPTY.hull(held), held);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::default();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges([(0, 1), (1, 2), (0, 2)]);
        let [a, b, c] = [0, 1, 2].map(|x| id(&g, x));
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(a), 2);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.has_edge(a, 3));
        assert_eq!(g.count_triangles(), 1);
        let mut nbrs: Vec<VertexId> = g.neighbours(b).iter().map(|&v| g.input_id(v)).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, [0, 2]);
        assert_eq!(g.neighbours(b), &[a.min(c), a.max(c)]);
    }

    #[test]
    fn duplicate_and_self_loops_removed() {
        let g = Graph::from_edges([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(id(&g, 2)), 1);
        assert_eq!(g.degree(id(&g, 1)), 2);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = path_graph(10);
        assert_eq!(g.count_triangles(), 0);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn intersect_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[3, 4, 5, 8]), vec![3, 5]);
        assert_eq!(
            intersect_many(vec![&[1, 2, 3, 4], &[2, 3, 4], &[0, 2, 4, 6]]),
            vec![2, 4]
        );
        assert!(intersect_many(vec![]).is_empty());
        assert!(intersect_sorted(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn k4_triangle_count() {
        let g = Graph::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(g.count_triangles(), 4);
    }

    #[test]
    fn csr_bytes_positive() {
        let g = path_graph(100);
        assert!(g.csr_bytes() > 0);
    }

    #[test]
    fn avg_degree() {
        let g = Graph::from_edges([(0, 1), (1, 2), (0, 2)]);
        assert!((g.avg_degree() - 2.0).abs() < 1e-9);
    }
}
