// Test oracles for the bubble tree of a maximal planar graph: the
// original DBHT's split loop, which cuts the graph along one separating
// triangle at a time until no piece has one, and the original direction
// pass, which floods both sides of every separating triangle with a BFS.
//
// `pfg_core`'s unit tests (`dbht::tests::oracles`) and the workspace's
// `tests/bubble_oracles.rs` `include!` this file into a module of their
// own, whose parent brings the names of the `use super::` line below.

use super::{
    bfs_reachable_within, direct_tmfg_bubble_tree, BubbleTree, DirectedBubbleEdge,
    DirectedBubbleGraph, Triangle, WeightedGraph,
};
use rayon::prelude::*;

/// Bubbles (vertex sets) and undirected tree edges `(a, b, separating
/// triangle)`, as the split loop produces them.
pub type Decomposition = (Vec<Vec<usize>>, Vec<(usize, usize, Triangle)>);

/// The split loop: the graph's bubbles and their tree edges.
pub fn split_loop(graph: &WeightedGraph) -> Decomposition {
    let n = graph.num_vertices();

    // All 3-cliques of the graph; the separating ones define the splits.
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
    (bubbles, edges)
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

/// The BFS direction: for every separating triangle, a BFS over the graph
/// minus the triangle determines its two sides, and the side with the
/// larger total connection weight receives the edge.
pub fn direct_by_bfs(decomposition: &Decomposition, graph: &WeightedGraph) -> DirectedBubbleGraph {
    let (bubbles, tree_edges) = decomposition;
    let n = graph.num_vertices();
    let edges: Vec<DirectedBubbleEdge> = tree_edges
        .par_iter()
        .map(|&(a, b, triangle)| {
            let side_a = triangle_side_weight(graph, triangle, &bubbles[a], n);
            let side_b = triangle_side_weight(graph, triangle, &bubbles[b], n);
            // Directed towards the side with the stronger connection. On a
            // tie the edge points from `a` to `b`, matching the fast path's
            // `IN_VAL > OUT_VAL` strictness when `a` is the interior bubble.
            let (from, to) = if side_a > side_b { (b, a) } else { (a, b) };
            DirectedBubbleEdge { from, to, triangle }
        })
        .collect();
    DirectedBubbleGraph::new(bubbles.clone(), edges, n)
}

/// Total weight of edges from the corners of `triangle` to the side of the
/// graph (with the triangle removed) that contains `bubble`'s non-corner
/// vertices.
fn triangle_side_weight(
    graph: &WeightedGraph,
    triangle: Triangle,
    bubble: &[usize],
    n: usize,
) -> f64 {
    let corners = triangle.corners();
    let mut allowed = vec![true; n];
    for c in corners {
        allowed[c] = false;
    }
    // Seed vertices: the bubble's vertices that are not triangle corners.
    let seeds: Vec<usize> = bubble
        .iter()
        .copied()
        .filter(|v| !triangle.contains(*v))
        .collect();
    let mut side = vec![false; n];
    for &seed in &seeds {
        if !side[seed] {
            let reached = bfs_reachable_within(graph, seed, &allowed);
            for (v, r) in reached.into_iter().enumerate() {
                side[v] = side[v] || r;
            }
        }
    }
    corners
        .iter()
        .map(|&c| {
            graph
                .neighbors(c)
                .iter()
                .filter(|&&(u, _)| side[u])
                .map(|&(_, w)| w)
                .sum::<f64>()
        })
        .sum()
}

/// A tree's bubbles, and its edges as `(child, parent, triangle)`: the
/// split loop's shape, with the tree's bubble ids.
pub fn tree_as_decomposition(tree: &BubbleTree) -> Decomposition {
    let bubbles = (0..tree.len())
        .map(|b| tree.bubble(b).vertices.clone())
        .collect();
    let edges = (0..tree.len())
        .filter_map(|b| {
            let bubble = tree.bubble(b);
            Some((b, bubble.parent?, bubble.parent_triangle?))
        })
        .collect();
    (bubbles, edges)
}

/// Bubbles as sorted vertex sets, and edges as `{bubble, bubble, triangle}`
/// with each bubble named by its vertex set: a form that does not depend
/// on how either side numbers its bubbles.
#[allow(clippy::type_complexity)]
pub fn canonical(
    decomposition: &Decomposition,
) -> (Vec<Vec<usize>>, Vec<(Vec<usize>, Vec<usize>, Triangle)>) {
    let (bubbles, edges) = decomposition;
    let mut sets = bubbles.clone();
    sets.sort();
    let mut named: Vec<_> = edges
        .iter()
        .map(|&(a, b, t)| {
            let (a, b) = (bubbles[a].clone(), bubbles[b].clone());
            if a <= b {
                (a, b, t)
            } else {
                (b, a, t)
            }
        })
        .collect();
    named.sort();
    (sets, named)
}

/// Holds `tree`, the decomposition of `graph`, to both oracles: the split
/// loop's bubbles and tree edges, and the BFS direction of every edge.
/// Returns the largest bubble's size.
pub fn assert_matches_oracles(graph: &WeightedGraph, tree: &BubbleTree, ctx: &str) -> usize {
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let ours = tree_as_decomposition(tree);
    assert_eq!(
        canonical(&ours),
        canonical(&split_loop(graph)),
        "{ctx}: bubbles or tree edges differ from the split loop"
    );
    let directed = |g: &DirectedBubbleGraph| {
        let mut edges: Vec<_> = g
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.triangle))
            .collect();
        edges.sort();
        edges
    };
    assert_eq!(
        directed(&direct_tmfg_bubble_tree(tree, graph)),
        directed(&direct_by_bfs(&ours, graph)),
        "{ctx}: an edge direction differs from the BFS direction"
    );
    ours.0.iter().map(Vec::len).max().unwrap_or(0)
}
