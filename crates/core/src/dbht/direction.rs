//! Directing the bubble-tree edges (§V-B, Algorithm 3).
//!
//! Every bubble-tree edge corresponds to a separating triangle; it is
//! directed towards the side (interior or exterior) to which the triangle
//! is more strongly connected by edge weight.
//!
//! [`direct_tmfg_bubble_tree`] is the paper's Θ(n)-work algorithm, and it
//! directs every bubble tree: the TMFG's, built during construction, and
//! the one [`decompose`](crate::dbht::planar_bubbles::decompose) reads off
//! any other maximal planar graph. Thanks to the invariant that all
//! descendants of a bubble-tree edge lie inside its separating triangle,
//! the interior weights (`IN_VAL`) accumulate bottom-up, one step per
//! bubble over its own vertices, and the exterior weights (`OUT_VAL`)
//! follow from the corners' weighted degrees. The tests hold it, edge for
//! edge, to the original method, which floods both sides of every
//! separating triangle with a BFS.

use pfg_graph::WeightedGraph;
use rayon::prelude::*;

use crate::bubble_tree::BubbleTree;
use crate::dbht::bubble_graph::{DirectedBubbleEdge, DirectedBubbleGraph};

/// Directs the edges of a bubble tree (Algorithm 3) and returns the
/// resulting directed bubble graph.
///
/// Work is Θ(n): each bubble reads the edges between its parent
/// triangle's corners and its other vertices, and every vertex is a
/// non-corner vertex of one bubble only. Bubbles are processed level by
/// level from the deepest to the root, the bubbles of each level in
/// parallel. Instead of the paper's `WRITE_ADD`s into the parent (whose
/// floating-point accumulation order depends on thread scheduling), every
/// bubble *pulls* its children's stored `r` vectors in child order — a
/// pure computation per bubble, so the direction of every edge is bitwise
/// reproducible at any thread count.
pub fn direct_tmfg_bubble_tree(tree: &BubbleTree, graph: &WeightedGraph) -> DirectedBubbleGraph {
    let nb = tree.len();
    let weight = |u: usize, v: usize| graph.edge_weight(u, v).unwrap_or(0.0);

    // Depth of every bubble (root = 0) and a bottom-up level ordering.
    let mut depth = vec![usize::MAX; nb];
    let mut order: Vec<usize> = Vec::with_capacity(nb);
    let mut queue = std::collections::VecDeque::new();
    depth[tree.root()] = 0;
    queue.push_back(tree.root());
    while let Some(b) = queue.pop_front() {
        order.push(b);
        for &c in &tree.bubble(b).children {
            depth[c] = depth[b] + 1;
            queue.push_back(c);
        }
    }
    let max_depth = order.iter().map(|&b| depth[b]).max().unwrap_or(0);
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_depth + 1];
    for &b in &order {
        levels[depth[b]].push(b);
    }

    // r[b][i] is the interior weight of b's subtree seen at corner i of
    // b's separating triangle (Algorithm 3, lines 5–11). A bubble reads
    // its children's r vectors — written during the previous (deeper)
    // level — in child order, so every sum has a fixed operand order.
    let mut r: Vec<[f64; 3]> = vec![[0.0; 3]; nb];

    // directed_to_child[b] = true iff the edge (parent(b), b) is directed
    // from the parent towards b (IN_VAL > OUT_VAL).
    let mut directed_to_child = vec![false; nb];

    for level in levels.iter().rev() {
        let computed: Vec<(usize, [f64; 3], bool)> = {
            let r = &r;
            level
                .par_iter()
                .filter_map(|&b| {
                    let bubble = tree.bubble(b);
                    // Root: nothing to direct (Algorithm 3, lines 19–22).
                    let triangle = bubble.parent_triangle?;
                    let corners = triangle.corners();
                    // Lines 5–6: initialise r with the edges from the corners
                    // to the bubble's other vertices, a K4's apex alone. The
                    // sum starts from its first term, not from 0.0, so a
                    // one-term sum keeps that term's bits (−0.0 included).
                    // Then pull the children's contributions (line 18, seen
                    // from the parent's side): a child corner that is also a
                    // corner of b's separating triangle carries its r entry
                    // upwards.
                    let mut rb = [0.0_f64; 3];
                    for (i, &corner) in corners.iter().enumerate() {
                        rb[i] = bubble
                            .vertices
                            .iter()
                            .filter(|&&x| !triangle.contains(x))
                            .filter_map(|&x| graph.edge_weight(x, corner))
                            .reduce(|acc, w| acc + w)
                            .unwrap_or(0.0);
                    }
                    for &c in &bubble.children {
                        let child_triangle =
                            tree.bubble(c).parent_triangle.expect("non-root child");
                        let child_corners = child_triangle.corners();
                        for (i, &child_corner) in child_corners.iter().enumerate() {
                            if let Some(j) = corners.iter().position(|&x| x == child_corner) {
                                rb[j] += r[c][i];
                            }
                        }
                    }
                    let in_val: f64 = rb.iter().sum();
                    // Line 13: OUT_VAL from the corners' weighted degrees.
                    let triangle_weight = weight(corners[0], corners[1])
                        + weight(corners[0], corners[2])
                        + weight(corners[1], corners[2]);
                    let degree_sum: f64 = corners.iter().map(|&c| graph.weighted_degree(c)).sum();
                    let out_val = degree_sum - in_val - 2.0 * triangle_weight;
                    Some((b, rb, in_val > out_val))
                })
                .collect()
        };
        for (b, rb, to_child) in computed {
            r[b] = rb;
            directed_to_child[b] = to_child;
        }
    }

    // Assemble the directed bubble graph with the same bubble ids.
    let bubbles: Vec<Vec<usize>> = (0..nb).map(|b| tree.bubble(b).vertices.clone()).collect();
    let mut edges = Vec::with_capacity(nb.saturating_sub(1));
    for (b, &to_child) in directed_to_child.iter().enumerate() {
        let bubble = tree.bubble(b);
        if let (Some(parent), Some(triangle)) = (bubble.parent, bubble.parent_triangle) {
            let (from, to) = if to_child { (parent, b) } else { (b, parent) };
            edges.push(DirectedBubbleEdge { from, to, triangle });
        }
    }
    DirectedBubbleGraph::new(bubbles, edges, tree.num_vertices())
}

/// The name of [`direct_tmfg_bubble_tree`] on the PMFG path, kept until
/// the benchmark's traced PMFG path calls that function by name.
pub fn direct_generic(tree: &BubbleTree, graph: &WeightedGraph) -> DirectedBubbleGraph {
    direct_tmfg_bubble_tree(tree, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::planar_bubbles::decompose;
    use crate::dbht::tests::oracles::{direct_by_bfs, tree_as_decomposition};
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A core–periphery similarity matrix in the spirit of Figure 2: four
    /// strongly inter-connected vertices {0,1,2,3} and three weakly attached
    /// peripheral vertices {4,5,6}. The strongly connected core must end up
    /// as the (unique) converging bubble, exactly as in the paper's example,
    /// because every separating triangle is far more strongly connected to
    /// the core side than to the peripheral side.
    fn core_periphery_matrix() -> SymmetricMatrix {
        SymmetricMatrix::from_fn(7, |i, j| {
            if i == j {
                1.0
            } else if i < 4 && j < 4 {
                0.9
            } else {
                0.1
            }
        })
    }

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
    fn strongly_connected_core_becomes_converging_bubble() {
        let s = core_periphery_matrix();
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let directed = direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
        directed.check_invariants().unwrap();
        let converging = directed.converging_bubbles();
        assert_eq!(converging.len(), 1);
        // The converging bubble is the strongly connected core {0,1,2,3}.
        assert_eq!(directed.bubble(converging[0]), &[0, 1, 2, 3]);
    }

    #[test]
    fn fast_direction_matches_quadratic_reference_on_random_tmfgs() {
        for seed in 0..5 {
            let n = 24;
            let s = random_similarity(n, seed);
            let t = tmfg(&s, TmfgConfig::with_prefix(3)).unwrap();
            let fast = direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
            // The BFS direction on the same bubble ids, so edge directions
            // can be compared one-to-one.
            let reference = direct_by_bfs(&tree_as_decomposition(&t.bubble_tree), &t.graph);
            let canon = |g: &DirectedBubbleGraph| {
                let mut e: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.from, e.to)).collect();
                e.sort_unstable();
                e
            };
            assert_eq!(canon(&fast), canon(&reference), "seed {seed}");
        }
    }

    #[test]
    fn direction_count_is_one_per_non_root_bubble() {
        let s = random_similarity(40, 9);
        let t = tmfg(&s, TmfgConfig::with_prefix(10)).unwrap();
        let directed = direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
        assert_eq!(directed.edges().len(), t.bubble_tree.len() - 1);
        assert!(!directed.converging_bubbles().is_empty());
    }

    #[test]
    fn pmfg_decomposition_directions_are_consistent() {
        let s = random_similarity(16, 2);
        let p = crate::pmfg::pmfg(&s).unwrap();
        let tree = decompose(&p.graph);
        let directed = direct_generic(&tree, &p.graph);
        directed.check_invariants().unwrap();
        assert_eq!(directed.edges().len(), tree.len() - 1);
    }
}
