//! The bubble tree of an arbitrary maximal planar graph, read off how its
//! separating triangles nest. The PMFG's DBHT gets its tree here, the TMFG
//! builds its own during construction (Algorithm 2), and
//! [`direct_tmfg_bubble_tree`](crate::dbht::direction::direct_tmfg_bubble_tree)
//! directs both.
//!
//! 1. Each 3-clique gets one BFS over the graph minus its corners, from
//!    its smallest other vertex, on the pool. The triangle separates iff
//!    its BFS misses a vertex, and its *inside* is the side it missed.
//! 2. The separating triangles of a maximal planar graph are nested or
//!    side by side, so two insides could overlap without nesting only if
//!    each triangle's BFS source lay in the other's inside. Each source
//!    would then be a non-corner vertex of the other triangle, and so
//!    larger than that triangle's source, its smallest non-corner vertex:
//!    impossible both ways. Hence the insides are laminar: two are
//!    disjoint or nested, and distinct nested triangles have strictly
//!    nested insides.
//! 3. So a walk by ascending inside size, ties by index, finds each
//!    vertex's owner (the first triangle to reach it) and each triangle's
//!    parent (the next triangle to reach any vertex it reached).
//! 4. Bubble 0, the root, holds the vertices no triangle owns, vertex 0
//!    among them. Bubble i + 1 holds separating triangle i's corners and
//!    owned vertices, and hangs off triangle i below the bubble of
//!    triangle i's parent.
//!
//! After the BFS filter the work is Σ |inside| steps on the calling
//! thread, and the tree is a function of the graph alone. The tests hold
//! it to the original DBHT's split loop (Song et al.), which cuts the graph
//! along one separating triangle at a time.

use pfg_graph::{bfs_reachable_within, WeightedGraph};
use rayon::prelude::*;

use crate::bubble_tree::{Bubble, BubbleTree};
use crate::face::Triangle;

/// The bubble tree of a maximal planar graph, rooted at bubble 0. Bubble
/// i + 1 hangs off the i-th separating triangle in
/// [`WeightedGraph::triangles`] order.
///
/// The graph must be maximal planar: planar, with `3n − 6` edges and
/// `n ≥ 4`. TMFGs and PMFGs are by construction, and
/// [`dbht_for_planar_graph`](crate::dbht::dbht_for_planar_graph) checks it
/// before it calls this; debug builds check it here too.
pub fn decompose(graph: &WeightedGraph) -> BubbleTree {
    let n = graph.num_vertices();
    debug_assert!(
        graph.has_maximal_planar_edge_count() && pfg_graph::is_planar(graph),
        "decompose needs a maximal planar graph"
    );

    // Each test is a BFS over the whole graph, so they run on the pool;
    // the filter keeps the triangles' order.
    let (separating, insides): (Vec<Triangle>, Vec<Vec<u32>>) = graph
        .triangles()
        .into_par_iter()
        .filter_map(|(a, b, c)| {
            let t = Triangle::new(a, b, c);
            unreached_side(graph, t).map(|side| (t, side))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();

    // Owners and parents, smallest inside first.
    let mut order: Vec<usize> = (0..separating.len()).collect();
    order.sort_unstable_by_key(|&i| (insides[i].len(), i));
    let mut last: Vec<Option<usize>> = vec![None; n];
    let mut parent: Vec<Option<usize>> = vec![None; separating.len()];
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); separating.len()];
    for i in order {
        for &v in &insides[i] {
            let v = v as usize;
            match last[v] {
                None => owned[i].push(v),
                Some(s) => parent[s] = Some(i),
            }
            last[v] = Some(i);
        }
    }

    let bubble = |vertices: Vec<usize>, parent_triangle: Option<Triangle>| Bubble {
        vertices,
        parent: None,
        parent_triangle,
        children: Vec::new(),
    };
    let root = (0..n).filter(|&v| last[v].is_none()).collect();
    let mut bubbles = vec![bubble(root, None)];
    for (&t, mut vertices) in separating.iter().zip(owned) {
        vertices.extend(t.corners());
        vertices.sort_unstable();
        bubbles.push(bubble(vertices, Some(t)));
    }
    for (i, p) in parent.into_iter().enumerate() {
        let p = p.map_or(0, |p| p + 1);
        bubbles[i + 1].parent = Some(p);
        bubbles[p].children.push(i + 1);
    }
    BubbleTree::from_bubbles(bubbles, 0, n)
}

/// The non-corner vertices that a BFS from the smallest non-corner vertex
/// does not reach once `t`'s corners are removed, ascending; `None` if it
/// reaches them all, that is, if `t` is not separating.
fn unreached_side(graph: &WeightedGraph, t: Triangle) -> Option<Vec<u32>> {
    let mut allowed = vec![true; graph.num_vertices()];
    for c in t.corners() {
        allowed[c] = false;
    }
    let source = allowed.iter().position(|&a| a)?;
    let reached = bfs_reachable_within(graph, source, &allowed);
    let side: Vec<u32> = (0..allowed.len())
        .filter(|&v| allowed[v] && !reached[v])
        .map(|v| v as u32)
        .collect();
    (!side.is_empty()).then_some(side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::tests::oracles::{assert_matches_oracles, canonical, tree_as_decomposition};
    use crate::pmfg::pmfg;
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                rng.gen_range(0.01..1.0)
            }
        })
    }

    /// The `blocks-150` input of the digest suite: four interleaved blocks.
    fn four_blocks(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if i % 4 == j % 4 {
                0.75 + rng.gen_range(0.0..0.2)
            } else {
                0.1 + rng.gen_range(0.0..0.2)
            }
        })
    }

    /// The `ties-100` input of the digest suite: eight similarity levels.
    fn quantized_ties(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                rng.gen_range(0..8usize) as f64 * 0.125
            }
        })
    }

    fn complete(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, 1.0 + (u * n + v) as f64 / 64.0);
            }
        }
        g
    }

    #[test]
    fn k4_is_a_single_bubble() {
        let g = complete(4);
        let tree = decompose(&g);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.bubble(0).vertices, [0, 1, 2, 3]);
        assert_matches_oracles(&g, &tree, "K4");
    }

    #[test]
    fn k5_minus_edge_has_two_bubbles() {
        // Vertices 3 and 4 both adjacent to the triangle {0,1,2} but not to
        // each other: bubbles {0,1,2,3} and {0,1,2,4} sharing {0,1,2}. The
        // root holds 3, the smallest vertex on no separating triangle.
        let mut g = WeightedGraph::new(5);
        for u in 0..3 {
            for v in (u + 1)..3 {
                g.add_edge(u, v, 1.0);
            }
        }
        for apex in [3, 4] {
            for c in 0..3 {
                g.add_edge(apex, c, 0.5 * apex as f64);
            }
        }
        let tree = decompose(&g);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.bubble(0).vertices, [0, 1, 2, 3]);
        assert_eq!(tree.bubble(1).vertices, [0, 1, 2, 4]);
        assert_eq!(tree.bubble(1).parent, Some(0));
        assert_eq!(tree.bubble(1).parent_triangle, Some(Triangle::new(0, 1, 2)));
        assert_matches_oracles(&g, &tree, "K5 - e");
    }

    #[test]
    fn octahedron_has_no_separating_triangle() {
        // The octahedron (K2,2,2) is 4-connected and maximal planar: one bubble.
        let mut g = WeightedGraph::new(6);
        // Vertex pairs (0,5), (1,4), (2,3) are the non-adjacent poles.
        for u in 0..6 {
            for v in (u + 1)..6 {
                if u + v != 5 {
                    g.add_edge(u, v, 1.0);
                }
            }
        }
        assert_eq!(g.num_edges(), 12);
        assert!(pfg_graph::is_planar(&g));
        let tree = decompose(&g);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.bubble(0).vertices.len(), 6);
        assert_matches_oracles(&g, &tree, "octahedron");
    }

    #[test]
    fn tmfg_decomposition_matches_native_bubble_tree() {
        for seed in 0..6 {
            let n = 18 + 7 * seed as usize;
            let s = random_similarity(n, seed);
            let t = tmfg(&s, TmfgConfig::with_prefix(4)).expect("valid input");
            let tree = decompose(&t.graph);
            // Same bubbles as vertex sets, and the same tree edges with
            // their separating triangles.
            assert_eq!(
                canonical(&tree_as_decomposition(&tree)),
                canonical(&tree_as_decomposition(&t.bubble_tree)),
                "seed {seed}"
            );
            assert_matches_oracles(&t.graph, &tree, &format!("TMFG seed {seed}"));
        }
    }

    #[test]
    fn pmfg_decomposition_is_a_tree() {
        let s = random_similarity(15, 77);
        let p = pmfg(&s).expect("valid input");
        let tree = decompose(&p.graph);
        tree.check_invariants().expect("a rooted tree");
        assert_eq!(tree.root(), 0);
        assert!(tree.bubble(0).contains(0), "the root holds vertex 0");
        // Every vertex is covered by at least one bubble.
        let mut covered = [false; 15];
        for b in 0..tree.len() {
            for &v in &tree.bubble(b).vertices {
                covered[v] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn pmfg_trees_of_the_digest_inputs_match_the_oracles() {
        for (name, s) in [
            ("blocks-150", four_blocks(150, 20230310)),
            ("ties-100", quantized_ties(100, 20230311)),
        ] {
            let p = pmfg(&s).expect("valid input");
            let tree = decompose(&p.graph);
            assert_matches_oracles(&p.graph, &tree, name);
        }
    }

    #[test]
    fn pmfg_trees_with_large_bubbles_match_the_oracles() {
        let mut largest = 0;
        for n in [60, 120] {
            for seed in 0..3 {
                let p = pmfg(&random_similarity(n, seed)).expect("valid input");
                let tree = decompose(&p.graph);
                let ctx = format!("uniform n = {n}, seed {seed}");
                largest = largest.max(assert_matches_oracles(&p.graph, &tree, &ctx));
            }
        }
        assert!(largest >= 20, "largest bubble has {largest} vertices");
    }

    #[test]
    fn separating_test_helper() {
        // Path of two K4's glued on a triangle.
        let mut g = WeightedGraph::new(5);
        for (u, v, _) in complete(4).edges() {
            g.add_edge(u, v, 1.0);
        }
        g.add_edge(4, 1, 1.0);
        g.add_edge(4, 2, 1.0);
        g.add_edge(4, 3, 1.0);
        assert_eq!(unreached_side(&g, Triangle::new(1, 2, 3)), Some(vec![4]));
        assert_eq!(unreached_side(&g, Triangle::new(0, 1, 2)), None);
    }
}
