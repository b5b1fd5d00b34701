//! Bubble decomposition of an arbitrary maximal planar graph.
//!
//! This is the original (quadratic-work) bubble-tree construction of Song
//! et al.: find all 3-cliques, determine which are separating, and split
//! the graph along its separating triangles into *bubbles* — maximal planar
//! pieces whose 3-cliques are all non-separating. The PMFG+DBHT baseline
//! uses this path; it also serves as a reference implementation that the
//! on-the-fly TMFG bubble tree (Algorithm 2) is validated against.

use pfg_graph::{bfs_reachable_within, WeightedGraph};
use rayon::prelude::*;

use crate::face::Triangle;

/// Bubbles (vertex sets) plus undirected bubble-tree edges labelled with
/// their separating triangles.
#[derive(Debug, Clone)]
pub struct PlanarBubbleDecomposition {
    /// Vertex sets of the bubbles, each sorted.
    pub bubbles: Vec<Vec<usize>>,
    /// Undirected edges `(a, b, separating triangle)` between bubbles.
    pub edges: Vec<(usize, usize, Triangle)>,
}

/// Decomposes a maximal planar graph into its bubbles.
///
/// The graph must be connected and maximal planar (`3n − 6` edges); TMFGs
/// and PMFGs both satisfy this by construction.
pub fn decompose(graph: &WeightedGraph) -> PlanarBubbleDecomposition {
    let n = graph.num_vertices();
    debug_assert!(graph.has_maximal_planar_edge_count() || n < 4);

    // All 3-cliques of the graph; the separating ones define the splits.
    // Each check is a BFS over the whole graph, so they run on the pool;
    // the filter keeps the triangles' order.
    let triangles: Vec<Triangle> = graph
        .triangles()
        .into_iter()
        .map(|(a, b, c)| Triangle::new(a, b, c))
        .collect();
    let separating: Vec<Triangle> = triangles
        .par_iter()
        .copied()
        .filter(|&t| is_separating(graph, t))
        .collect();

    let mut bubbles: Vec<Vec<usize>> = Vec::new();
    let mut edges: Vec<(usize, usize, Triangle)> = Vec::new();

    // Recursive splitting along separating triangles, iteratively with an
    // explicit work list of vertex-set pieces.
    let mut pieces: Vec<Vec<usize>> = vec![(0..n).collect()];

    while let Some(piece) = pieces.pop() {
        let in_piece = membership_mask(n, &piece);
        // Find a separating triangle inside this piece that still separates
        // the induced subgraph.
        let split = separating
            .iter()
            .copied()
            .filter(|t| t.corners().iter().all(|&c| in_piece[c]))
            .find_map(|t| {
                let components = components_without_triangle(graph, &piece, t);
                (components.len() >= 2).then_some((t, components))
            });
        match split {
            None => {
                let mut bubble = piece;
                bubble.sort_unstable();
                bubbles.push(bubble);
            }
            Some((t, components)) => {
                for mut component in components {
                    component.extend(t.corners());
                    component.sort_unstable();
                    pieces.push(component);
                }
            }
        }
    }

    // Derive the bubble-tree edges: for every separating triangle, connect
    // the bubbles that contain it. A separating triangle of a maximal
    // planar graph is shared by exactly two bubbles; if the decomposition
    // ever yields more, connect them in a star so that the structure stays
    // a tree.
    for &t in &separating {
        let sharing = bubbles_containing(&bubbles, t);
        for &other in sharing.iter().skip(1) {
            edges.push((sharing[0], other, t));
        }
    }
    PlanarBubbleDecomposition { bubbles, edges }
}

/// The ids of the bubbles whose vertex set contains the whole triangle.
fn bubbles_containing(bubbles: &[Vec<usize>], t: Triangle) -> Vec<usize> {
    bubbles
        .iter()
        .enumerate()
        .filter(|(_, b)| t.corners().iter().all(|c| b.contains(c)))
        .map(|(i, _)| i)
        .collect()
}

/// Returns `true` if removing the corners of `t` disconnects the graph:
/// one BFS from a vertex off the triangle leaves another unreached.
fn is_separating(graph: &WeightedGraph, t: Triangle) -> bool {
    let mut allowed = vec![true; graph.num_vertices()];
    for c in t.corners() {
        allowed[c] = false;
    }
    let Some(source) = allowed.iter().position(|&a| a) else {
        return false;
    };
    let reached = bfs_reachable_within(graph, source, &allowed);
    allowed.iter().zip(&reached).any(|(&a, &r)| a && !r)
}

/// Connected components (as vertex lists) of the subgraph induced by
/// `piece` minus the corners of `t`.
fn components_without_triangle(
    graph: &WeightedGraph,
    piece: &[usize],
    t: Triangle,
) -> Vec<Vec<usize>> {
    let n = graph.num_vertices();
    let mut allowed = vec![false; n];
    for &v in piece {
        allowed[v] = true;
    }
    for c in t.corners() {
        allowed[c] = false;
    }
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for &v in piece {
        if !allowed[v] || assigned[v] {
            continue;
        }
        let reached = bfs_reachable_within(graph, v, &allowed);
        let component: Vec<usize> = (0..n).filter(|&u| reached[u] && allowed[u]).collect();
        for &u in &component {
            assigned[u] = true;
        }
        components.push(component);
    }
    components
}

/// Helper: boolean membership mask for a vertex list.
fn membership_mask(n: usize, vertices: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in vertices {
        mask[v] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn k4_is_a_single_bubble() {
        let mut g = WeightedGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        let d = decompose(&g);
        assert_eq!(d.bubbles, vec![vec![0, 1, 2, 3]]);
        assert!(d.edges.is_empty());
    }

    #[test]
    fn k5_minus_edge_has_two_bubbles() {
        // Vertices 3 and 4 both adjacent to the triangle {0,1,2} but not to
        // each other: bubbles {0,1,2,3} and {0,1,2,4} sharing {0,1,2}.
        let mut g = WeightedGraph::new(5);
        for u in 0..3 {
            for v in (u + 1)..3 {
                g.add_edge(u, v, 1.0);
            }
        }
        for apex in [3, 4] {
            for c in 0..3 {
                g.add_edge(apex, c, 1.0);
            }
        }
        let d = decompose(&g);
        let mut bubbles = d.bubbles.clone();
        bubbles.sort();
        assert_eq!(bubbles, vec![vec![0, 1, 2, 3], vec![0, 1, 2, 4]]);
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].2, Triangle::new(0, 1, 2));
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
        let d = decompose(&g);
        assert_eq!(d.bubbles.len(), 1);
        assert_eq!(d.bubbles[0].len(), 6);
        assert!(d.edges.is_empty());
    }

    #[test]
    fn tmfg_decomposition_matches_native_bubble_tree() {
        for seed in 0..4 {
            let n = 18;
            let s = random_similarity(n, seed);
            let t = tmfg(&s, TmfgConfig::with_prefix(4)).unwrap();
            let d = decompose(&t.graph);
            // Same bubbles as vertex sets.
            let mut native: Vec<Vec<usize>> = (0..t.bubble_tree.len())
                .map(|b| t.bubble_tree.bubble(b).vertices.to_vec())
                .collect();
            native.sort();
            let mut generic = d.bubbles.clone();
            generic.sort();
            assert_eq!(native, generic, "seed {seed}");
            // Same separating triangles on the tree edges.
            let mut native_triangles: Vec<Triangle> = (0..t.bubble_tree.len())
                .filter_map(|b| t.bubble_tree.bubble(b).parent_triangle)
                .collect();
            native_triangles.sort();
            let mut generic_triangles: Vec<Triangle> = d.edges.iter().map(|e| e.2).collect();
            generic_triangles.sort();
            assert_eq!(native_triangles, generic_triangles, "seed {seed}");
            // The edges form a tree over the bubbles.
            assert_eq!(d.edges.len(), d.bubbles.len() - 1);
        }
    }

    #[test]
    fn pmfg_decomposition_is_a_tree() {
        let s = random_similarity(15, 77);
        let p = crate::pmfg::pmfg(&s).unwrap();
        let d = decompose(&p.graph);
        assert!(!d.bubbles.is_empty());
        assert_eq!(d.edges.len(), d.bubbles.len() - 1);
        // Every vertex is covered by at least one bubble.
        let mut covered = [false; 15];
        for b in &d.bubbles {
            for &v in b {
                covered[v] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn separating_test_helper() {
        // Path of two K4's glued on a triangle.
        let mut g = WeightedGraph::new(5);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        g.add_edge(4, 1, 1.0);
        g.add_edge(4, 2, 1.0);
        g.add_edge(4, 3, 1.0);
        assert!(is_separating(&g, Triangle::new(1, 2, 3)));
        assert!(!is_separating(&g, Triangle::new(0, 1, 2)));
    }
}
