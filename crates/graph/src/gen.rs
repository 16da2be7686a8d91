//! Synthetic graph generators.
//!
//! The paper evaluates on seven real-world graphs (Table 3). Those graphs
//! are not redistributable inside this repository and are far larger than a
//! laptop-scale reproduction can hold, so we generate synthetic graphs whose
//! *shape* matches the originals: power-law social/web graphs
//! (Barabási–Albert and RMAT with skew) and a near-constant-degree road
//! network (grid with perturbation). All generators are deterministic given
//! a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::graph::{Graph, VertexId};

/// The graph of a generator's builder, whose ids all lie below the vertex
/// count it declared.
fn built(builder: GraphBuilder) -> Graph {
    builder
        .build()
        .expect("generated ids are below the declared count")
}

/// Erdős–Rényi `G(n, m)` random graph: `m` distinct uniform random edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_vertices(n);
    let mut added = 0usize;
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut seen = std::collections::HashSet::with_capacity(target * 2);
    while added < target {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            builder.add_edge(u, v);
            added += 1;
        }
    }
    built(builder)
}

/// Barabási–Albert preferential-attachment graph.
///
/// Starts from a small clique of `m + 1` vertices; each new vertex attaches
/// to `m` existing vertices chosen proportionally to their degree. Produces
/// a power-law degree distribution similar to social networks (LJ, OR, FS).
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "attachment count must be at least 1");
    assert!(n > m, "need more vertices than the attachment count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_vertices(n);
    // `targets` is a repeated-node list: picking a uniform element samples
    // proportionally to degree.
    let mut targets: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    // Seed clique.
    for u in 0..=(m as VertexId) {
        for v in (u + 1)..=(m as VertexId) {
            builder.add_edge(u, v);
            targets.push(u);
            targets.push(v);
        }
    }
    for v in (m + 1)..n {
        let v = v as VertexId;
        let mut chosen = std::collections::HashSet::with_capacity(m * 2);
        while chosen.len() < m {
            let idx = rng.gen_range(0..targets.len());
            chosen.insert(targets[idx]);
        }
        // The hash set's iteration order is randomised per process; sort so
        // that a fixed seed reproduces the same graph across runs.
        let mut chosen: Vec<VertexId> = chosen.into_iter().collect();
        chosen.sort_unstable();
        for &u in &chosen {
            builder.add_edge(u, v);
            targets.push(u);
            targets.push(v);
        }
    }
    built(builder)
}

/// Parameters of the RMAT recursive-matrix generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
    /// Noise added to the quadrant probabilities at each level.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // The classic Graph500 parameters produce a heavily skewed degree
        // distribution, similar to web graphs (UK, CW).
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.05,
        }
    }
}

/// RMAT (recursive matrix) graph over `2^scale` vertices with `m` edges.
pub fn rmat(scale: u32, m: usize, params: RmatParams, seed: u64) -> Graph {
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_vertices(n);
    for _ in 0..m {
        let (mut lo_u, mut hi_u) = (0usize, n);
        let (mut lo_v, mut hi_v) = (0usize, n);
        let (mut a, mut b, mut c) = (params.a, params.b, params.c);
        while hi_u - lo_u > 1 {
            let r: f64 = rng.gen();
            let (right, down) = if r < a {
                (false, false)
            } else if r < a + b {
                (true, false)
            } else if r < a + b + c {
                (false, true)
            } else {
                (true, true)
            };
            let mid_u = (lo_u + hi_u) / 2;
            let mid_v = (lo_v + hi_v) / 2;
            if down {
                lo_u = mid_u;
            } else {
                hi_u = mid_u;
            }
            if right {
                lo_v = mid_v;
            } else {
                hi_v = mid_v;
            }
            // Perturb to avoid exact self-similarity.
            let perturb = |x: f64, rng: &mut StdRng| {
                (x * (1.0 - params.noise + 2.0 * params.noise * rng.gen::<f64>())).clamp(0.01, 0.97)
            };
            a = perturb(a, &mut rng);
            b = perturb(b, &mut rng);
            c = perturb(c, &mut rng);
        }
        let u = lo_u as VertexId;
        let v = lo_v as VertexId;
        if u != v {
            builder.add_edge(u, v);
        }
    }
    built(builder)
}

/// A 2-D grid graph with optional random "shortcut" edges.
///
/// Degree is nearly constant (≤ 4 plus shortcuts) which mimics road networks
/// such as the paper's EU dataset (average degree 3.9, max degree 20).
pub fn grid(rows: usize, cols: usize, shortcuts: usize, seed: u64) -> Graph {
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_vertices(n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                builder.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    for _ in 0..shortcuts {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v {
            builder.add_edge(u, v);
        }
    }
    built(builder)
}

/// A complete graph on `n` vertices; handy in tests since every query has a
/// predictable number of matches.
pub fn complete(n: usize) -> Graph {
    let mut builder = GraphBuilder::with_vertices(n);
    for u in 0..n {
        for v in (u + 1)..n {
            builder.add_edge(u as VertexId, v as VertexId);
        }
    }
    built(builder)
}

/// A cycle graph on `n` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    let mut builder = GraphBuilder::with_vertices(n);
    for u in 0..n {
        builder.add_edge(u as VertexId, ((u + 1) % n) as VertexId);
    }
    built(builder)
}

/// A "caveman"-style graph: `communities` cliques of size `size` connected in
/// a ring. Gives a graph with many cliques, useful to exercise dense queries.
pub fn caveman(communities: usize, size: usize, seed: u64) -> Graph {
    assert!(communities >= 1 && size >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = communities * size;
    let mut builder = GraphBuilder::with_vertices(n);
    for c in 0..communities {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                builder.add_edge((base + i) as VertexId, (base + j) as VertexId);
            }
        }
        // Connect to the next community via a random pair.
        let next = ((c + 1) % communities) * size;
        let u = base + rng.gen_range(0..size);
        let v = next + rng.gen_range(0..size);
        if u != v {
            builder.add_edge(u as VertexId, v as VertexId);
        }
    }
    built(builder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_requested_edges() {
        let g = erdos_renyi(100, 300, 7);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(50, 100, 42);
        let b = erdos_renyi(50, 100, 42);
        for v in a.vertices() {
            assert_eq!(a.neighbours(v), b.neighbours(v));
        }
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(500, 4, 1);
        assert_eq!(g.num_vertices(), 500);
        // Each of the n - m - 1 later vertices adds exactly m edges on top of
        // the seed clique.
        let expected = (4 * 5) / 2 + (500 - 5) * 4;
        assert_eq!(g.num_edges() as usize, expected);
        // Power-law-ish: the max degree should be well above the average.
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 8000, RmatParams::default(), 3);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 1000);
        assert!(g.max_degree() as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    fn grid_degrees_bounded() {
        let g = grid(20, 20, 0, 0);
        assert_eq!(g.num_vertices(), 400);
        assert!(g.max_degree() <= 4);
        assert_eq!(g.num_edges(), (19 * 20 + 19 * 20) as u64);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(10);
        assert_eq!(g.num_edges(), 45);
        assert_eq!(g.count_triangles(), 120);
    }

    #[test]
    fn cycle_graph() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.count_triangles(), 0);
    }

    #[test]
    fn caveman_has_many_triangles() {
        let g = caveman(5, 6, 9);
        assert_eq!(g.num_vertices(), 30);
        // Each 6-clique contributes C(6,3) = 20 triangles.
        assert!(g.count_triangles() >= 100);
    }
}
