//! Degree statistics used by the optimiser's cost model and the benchmark
//! reports (mirroring Table 3 of the paper).

use crate::graph::Graph;

/// Summary statistics of a data graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of undirected edges `|E|`.
    pub num_edges: u64,
    /// Maximum degree `D_G`.
    pub max_degree: usize,
    /// Average degree `d_G`.
    pub avg_degree: f64,
    /// Number of triangles (wedge closures), used by the cost estimator for
    /// clique-like sub-queries.
    pub triangles: u64,
    /// In-memory CSR size in bytes.
    pub csr_bytes: u64,
}

impl GraphStats {
    /// Computes statistics for `graph`. Triangle counting is linear in the
    /// number of wedges which is fine at reproduction scale.
    pub fn of(graph: &Graph) -> Self {
        GraphStats {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            max_degree: graph.max_degree(),
            avg_degree: graph.avg_degree(),
            triangles: graph.count_triangles(),
            csr_bytes: graph.csr_bytes(),
        }
    }

    /// Computes statistics without the (comparatively expensive) triangle
    /// count; `triangles` is estimated from the degree distribution instead.
    pub fn of_cheap(graph: &Graph) -> Self {
        // Expected triangles in a configuration-model graph:
        //   (sum d(d-1)/2)^... we use a simpler proxy: wedges * closure prob.
        let wedges: f64 = graph
            .vertices()
            .map(|v| {
                let d = graph.degree(v) as f64;
                d * (d - 1.0) / 2.0
            })
            .sum();
        let p = if graph.num_vertices() > 1 {
            graph.avg_degree() / (graph.num_vertices() as f64 - 1.0)
        } else {
            0.0
        };
        GraphStats {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            max_degree: graph.max_degree(),
            avg_degree: graph.avg_degree(),
            triangles: (wedges * p) as u64,
            csr_bytes: graph.csr_bytes(),
        }
    }

    /// Edge density `2|E| / (|V| (|V|-1))`.
    pub fn density(&self) -> f64 {
        let n = self.num_vertices as f64;
        if n < 2.0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / (n * (n - 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_complete_graph() {
        let g = gen::complete(6);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 15);
        assert_eq!(s.max_degree, 5);
        assert_eq!(s.triangles, 20);
        assert!((s.density() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cheap_stats_reasonable() {
        let g = gen::erdos_renyi(200, 1000, 5);
        let exact = GraphStats::of(&g);
        let cheap = GraphStats::of_cheap(&g);
        assert_eq!(exact.num_edges, cheap.num_edges);
        // The cheap triangle estimate should be the right order of magnitude.
        assert!(cheap.triangles > 0);
        assert!(cheap.triangles < exact.triangles * 20 + 100);
    }
}
