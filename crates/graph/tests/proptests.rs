//! Property-based tests of the graph substrate.

use huge_graph::graph::{intersect_many, intersect_sorted};
use huge_graph::kernels::{self, bitmap, gallop, intersect, merge, HubBitmap, HubIndex};
use huge_graph::{gen, Graph, GraphBuilder, Partitioner};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

/// Two sorted deduplicated lists whose cardinalities differ by a random
/// ratio (1:1 up to ~1:1000), exercising every kernel's dispatch band.
fn arb_skewed_lists() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        prop::collection::vec(0u32..4096, 0..48),
        prop::collection::vec(0u32..4096, 0..512),
        1usize..4,
    )
        .prop_map(|(mut small, mut large, rep)| {
            // Repeat the large draw to push the ratio past the gallop cutoff
            // in some cases.
            let extra: Vec<u32> = large.iter().map(|&v| v.wrapping_mul(rep as u32)).collect();
            large.extend(extra);
            small.sort_unstable();
            small.dedup();
            large.sort_unstable();
            large.dedup();
            (small, large)
        })
}

/// What each sink makes of a walk whose first operand is `acc`: the
/// elements it appends after what a buffer held, their count, and the
/// accumulator step — `acc ∩ …` written into a spare buffer that still
/// holds an earlier step's elements, then swapped with `acc`.
fn sinks(acc: &[u32], walk: impl Fn(&[u32], &mut dyn FnMut(u32))) -> (Vec<u32>, u64, Vec<u32>) {
    let mut out = vec![u32::MAX];
    walk(acc, &mut |x| out.push(x));
    assert_eq!(out[0], u32::MAX, "appends after what `out` held");
    let mut n = 0u64;
    walk(acc, &mut |_| n += 1);
    let (mut acc, mut spare) = (acc.to_vec(), vec![u32::MAX; 3]);
    spare.clear();
    walk(&acc, &mut |x| spare.push(x));
    std::mem::swap(&mut acc, &mut spare);
    (out.split_off(1), n, acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction is symmetric: `v ∈ adj(u)` iff `u ∈ adj(v)`.
    #[test]
    fn adjacency_is_symmetric(edges in arb_edges(64, 200)) {
        let g = Graph::from_edges(edges);
        for u in g.vertices() {
            for &v in g.neighbours(u) {
                prop_assert!(g.neighbours(v).binary_search(&u).is_ok());
            }
        }
    }

    /// Adjacency lists are sorted and contain no duplicates or self loops.
    #[test]
    fn adjacency_sorted_unique(edges in arb_edges(64, 200)) {
        let g = Graph::from_edges(edges);
        for u in g.vertices() {
            let adj = g.neighbours(u);
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!adj.contains(&u));
        }
    }

    /// The number of undirected edges equals half the sum of degrees.
    #[test]
    fn handshake_lemma(edges in arb_edges(128, 400)) {
        let g = Graph::from_edges(edges);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum as u64, 2 * g.num_edges());
    }

    /// `has_edge` agrees with adjacency membership.
    #[test]
    fn has_edge_consistent(edges in arb_edges(48, 150), u in 0u32..48, v in 0u32..48) {
        let g = Graph::from_edges(edges);
        if (u as usize) < g.num_vertices() && (v as usize) < g.num_vertices() {
            let expect = g.neighbours(u).contains(&v);
            prop_assert_eq!(g.has_edge(u, v), expect);
            prop_assert_eq!(g.has_edge(v, u), expect);
        }
    }

    /// Sorted intersection equals the set intersection.
    #[test]
    fn intersection_correct(mut a in prop::collection::vec(0u32..200, 0..80),
                            mut b in prop::collection::vec(0u32..200, 0..80)) {
        a.sort_unstable(); a.dedup();
        b.sort_unstable(); b.dedup();
        let got = intersect_sorted(&a, &b);
        let sa: std::collections::BTreeSet<_> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<_> = b.iter().copied().collect();
        let want: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// Multi-way intersection is order independent and matches pairwise folding.
    #[test]
    fn multiway_intersection_correct(lists in prop::collection::vec(
        prop::collection::vec(0u32..100, 0..40), 1..4)) {
        let sorted: Vec<Vec<u32>> = lists.iter().map(|l| {
            let mut l = l.clone();
            l.sort_unstable();
            l.dedup();
            l
        }).collect();
        let refs: Vec<&[u32]> = sorted.iter().map(|l| l.as_slice()).collect();
        let got = intersect_many(refs);
        let mut want = sorted[0].clone();
        for l in &sorted[1..] {
            want = intersect_sorted(&want, l);
        }
        prop_assert_eq!(got, want);
    }

    /// Partitioning covers every vertex exactly once, regardless of k.
    #[test]
    fn partition_is_a_cover(edges in arb_edges(100, 300), k in 1usize..8) {
        let g = Graph::from_edges(edges);
        let n = g.num_vertices();
        let parts = Partitioner::new(k).unwrap().partition(g);
        let covered: usize = parts.iter().map(|p| p.num_local_vertices()).sum();
        prop_assert_eq!(covered, n);
    }

    /// Builder is idempotent under duplicated input edges.
    #[test]
    fn builder_dedup(edges in arb_edges(40, 120)) {
        let mut doubled = edges.clone();
        doubled.extend(edges.iter().copied());
        let g1 = Graph::from_edges(edges);
        let g2 = Graph::from_edges(doubled);
        prop_assert_eq!(g1.num_edges(), g2.num_edges());
    }

    /// Every walk of the intersection family — merge, gallop in both
    /// orientations, bitmap, probe and the adaptive dispatcher — agrees with
    /// the scalar reference through every sink, on random sorted lists of
    /// every cardinality ratio; so does the adaptive accumulator step, with
    /// the accumulator both shorter and longer than the other list.
    #[test]
    fn kernel_family_agrees_with_scalar_reference((small, large) in arb_skewed_lists()) {
        let want = intersect_sorted(&small, &large);
        let want = (want.clone(), want.len() as u64, want);

        prop_assert_eq!(sinks(&small, |acc, hit| merge(acc, &large, hit)), want.clone());
        prop_assert_eq!(sinks(&small, |acc, hit| gallop(acc, &large, hit)), want.clone());
        prop_assert_eq!(sinks(&large, |acc, hit| gallop(acc, &small, hit)), want.clone());

        // Bitmap over the larger side, walked by the smaller.
        let bm = HubBitmap::build(&large);
        prop_assert_eq!(bm.cardinality() as usize, large.len());
        prop_assert_eq!(sinks(&small, |acc, hit| bitmap(acc, &bm, hit)), want.clone());

        // Probe with the smaller side in the filter, scanning the larger.
        let mut filter = kernels::ProbeFilter::default();
        filter.set_all(&small);
        let probe = |acc: &[u32], hit: &mut dyn FnMut(u32)| kernels::probe(&filter, &small, acc, hit);
        prop_assert_eq!(sinks(&large, probe), want.clone());

        // The adaptive walk picks some kernel; the result must not depend
        // on which, nor on the order of the operands.
        prop_assert_eq!(sinks(&small, |acc, hit| { intersect(acc, &large, hit); }), want.clone());
        prop_assert_eq!(sinks(&large, |acc, hit| { intersect(acc, &small, hit); }), want.clone());
        let mut spare = vec![u32::MAX];
        for (acc0, other) in [(&small, &large), (&large, &small)] {
            let mut acc = acc0.clone();
            kernels::intersect_in_place(&mut acc, other, &mut spare);
            prop_assert_eq!(&acc, &want.0);
        }
        prop_assert_eq!(kernels::intersect_count_adaptive(&small, &large).0, want.1);
        prop_assert_eq!(kernels::intersect_count_merge(&small, &large), want.1);
    }

    /// A hub index over the ids `0..h` of the vertices at or above the
    /// threshold answers exactly those, and its bitmaps reproduce their
    /// lists.
    #[test]
    fn hub_index_covers_exactly_the_hubs(edges in arb_edges(96, 400),
                                         threshold in 1usize..16) {
        let g = Graph::from_edges(edges);
        let hubs = g.vertices().take_while(|&v| g.degree(v) >= threshold);
        let index = HubIndex::build(hubs.map(|v| Some(g.neighbours(v))));
        for v in g.vertices() {
            match index.get(v) {
                Some(bm) => {
                    prop_assert!(g.degree(v) >= threshold);
                    let mut from_bm = Vec::new();
                    bitmap(g.neighbours(v), bm, |x| from_bm.push(x));
                    prop_assert_eq!(from_bm.as_slice(), g.neighbours(v));
                }
                None => prop_assert!(g.degree(v) < threshold),
            }
        }
    }

    /// Relabelling the input by any permutation builds the same graph up to
    /// the input id map: degrees non-increasing in the id, ties in input id
    /// order, the same degree sequence as the unpermuted input, and
    /// `edges()` mapped through `input_id` is the permuted input's edge set.
    #[test]
    fn builder_renumbers_any_permutation_by_degree(edges in arb_edges(64, 300),
                                                   keys in prop::collection::vec(0u32..u32::MAX, 64..65)) {
        let mut perm: Vec<u32> = (0..64).collect();
        perm.sort_by_key(|&v| (keys[v as usize], v));
        let permuted: Vec<(u32, u32)> =
            edges.iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
        let build = |edges: &[(u32, u32)]| {
            let mut b = GraphBuilder::with_vertices(64);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().unwrap()
        };
        let (plain, relabelled) = (build(&edges), build(&permuted));
        let degrees = |g: &Graph| g.vertices().map(|v| g.degree(v)).collect::<Vec<_>>();
        prop_assert_eq!(degrees(&plain), degrees(&relabelled));
        for g in [&plain, &relabelled] {
            for v in 1..g.num_vertices() as u32 {
                let (d0, d1) = (g.degree(v - 1), g.degree(v));
                prop_assert!(d0 > d1 || (d0 == d1 && g.input_id(v - 1) < g.input_id(v)));
            }
        }
        let normalised = |edges: &mut dyn Iterator<Item = (u32, u32)>| {
            edges
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let back = normalised(
            &mut relabelled.edges().map(|(u, v)| (relabelled.input_id(u), relabelled.input_id(v))),
        );
        prop_assert_eq!(back, normalised(&mut permuted.iter().copied()));
    }
}

#[test]
fn generators_are_connected_enough() {
    // BA graphs are connected by construction.
    let g = gen::barabasi_albert(2000, 3, 77);
    let mut visited = vec![false; g.num_vertices()];
    let mut stack = vec![0u32];
    visited[0] = true;
    let mut seen = 1;
    while let Some(v) = stack.pop() {
        for &u in g.neighbours(v) {
            if !visited[u as usize] {
                visited[u as usize] = true;
                seen += 1;
                stack.push(u);
            }
        }
    }
    assert_eq!(seen, g.num_vertices());
}

#[test]
fn builder_with_vertices_allows_bigger_ids() {
    let mut b = GraphBuilder::with_vertices(4);
    b.add_edge(0, 3);
    let g = b.build().unwrap();
    assert_eq!(g.num_vertices(), 4);
}
