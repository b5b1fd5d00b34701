//! Vertex assignment to converging bubbles and bubbles (Algorithm 4,
//! lines 2–23).
//!
//! The first level of clustering assigns every vertex to a *group*, i.e. a
//! converging bubble: vertices inside a converging bubble pick the one with
//! the strongest attachment χ, and the remaining vertices pick the reachable
//! converging bubble with the smallest mean shortest-path distance to the
//! vertices already assigned to it. The second level assigns every vertex
//! to a bubble via the normalised attachment χ′.
//!
//! The paper writes both argmaxes as priority concurrent writes
//! `WRITE_MAX(v.g, (χ, b))`, one per (bubble, vertex) pair, racing into a
//! shared cell per vertex. Here every vertex *pulls* instead: it folds the
//! scores of the bubbles that contain it (the converging ones for χ, all
//! of them for χ′) under the same priority rule — a larger score wins, an
//! equal score goes to the smaller bubble id, NaN never wins. Each vertex
//! is a pure computation over data nobody writes, so the pass needs no
//! shared cell, lock or atomic, and its result does not depend on thread
//! scheduling — the same move [`super::direction`] makes for the paper's
//! `WRITE_ADD`s.

use rayon::prelude::*;

use pfg_graph::{PairDistances, WeightedGraph};

use crate::dbht::bubble_graph::DirectedBubbleGraph;

/// Per-vertex group (converging bubble) and bubble assignments.
#[derive(Debug, Clone)]
pub struct VertexAssignment {
    /// `group[v]` is the converging bubble id vertex `v` belongs to.
    pub group: Vec<usize>,
    /// `bubble[v]` is the bubble id vertex `v` is attached to.
    pub bubble: Vec<usize>,
    /// Sorted list of the distinct group ids actually used.
    pub groups: Vec<usize>,
}

impl VertexAssignment {
    /// The number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Member lists for every group in `groups` order (each ascending),
    /// built in one `O(n)` pass.
    pub fn group_members(&self) -> Vec<Vec<usize>> {
        let index_of: std::collections::HashMap<usize, usize> = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.groups.len()];
        for (v, &g) in self.group.iter().enumerate() {
            members[index_of[&g]].push(v);
        }
        members
    }
}

/// Attachment of vertex `v` to bubble `b` (the χ score): the total weight
/// of the filtered-graph edges between `v` and the bubble's vertices,
/// normalised by the bubble's edge count `3(|b| − 2)`. For TMFG bubbles
/// (4-cliques) the denominator is always 6, matching the simplification in
/// §V-C.
fn chi(graph: &WeightedGraph, bubble: &[usize], v: usize) -> f64 {
    let attach: f64 = bubble
        .iter()
        .filter(|&&u| u != v)
        .map(|&u| graph.edge_weight(u, v).unwrap_or(0.0))
        .sum();
    let edges_in_bubble = 3.0 * (bubble.len() as f64 - 2.0);
    attach / edges_in_bubble
}

/// Normalised attachment χ′ of vertex `v` to bubble `b`: the attachment
/// weight divided by twice the bubble's internal edge weight (which equals
/// the χ_total normaliser of Algorithm 4, lines 19–23).
fn chi_prime(graph: &WeightedGraph, bubble: &[usize], v: usize) -> f64 {
    let attach: f64 = bubble
        .iter()
        .filter(|&&u| u != v)
        .map(|&u| graph.edge_weight(u, v).unwrap_or(0.0))
        .sum();
    let mut internal = 0.0;
    for (i, &a) in bubble.iter().enumerate() {
        for &b in &bubble[i + 1..] {
            internal += graph.edge_weight(a, b).unwrap_or(0.0);
        }
    }
    if internal <= 0.0 {
        // Degenerate bubble with zero internal weight: fall back to the raw
        // attachment so the argmax is still meaningful.
        attach
    } else {
        attach / (2.0 * internal)
    }
}

/// The `(score, bubble)` pair that wins the priority write
/// `WRITE_MAX((score, b))` over `bubbles`: starting from
/// `(−∞, usize::MAX)`, a larger score wins, an equal score goes to the
/// smaller bubble id, and a NaN score never wins. The winner does not
/// depend on the order of `bubbles`.
fn best_bubble(bubbles: impl Iterator<Item = usize>, score: impl Fn(usize) -> f64) -> (f64, usize) {
    bubbles.fold((f64::NEG_INFINITY, usize::MAX), |best, b| {
        let s = score(b);
        if s > best.0 || (s == best.0 && b < best.1) {
            (s, b)
        } else {
            best
        }
    })
}

/// Runs the vertex-assignment phase of the DBHT.
///
/// `shortest_paths` supplies shortest-path distances of the filtered graph
/// under the dissimilarity edge weights. Every read is anchored at a
/// vertex of a converging bubble, so the demand-driven
/// [`pfg_graph::SourceRows`] over the converging-bubble vertices suffices
/// — rows from every vertex (the full APSP) give the same assignment.
pub fn assign_vertices<D: PairDistances + Sync>(
    graph: &WeightedGraph,
    bubble_graph: &DirectedBubbleGraph,
    shortest_paths: &D,
) -> VertexAssignment {
    let n = graph.num_vertices();
    let converging = bubble_graph.converging_bubbles();
    let reachable = bubble_graph.reachable_converging_bubbles();
    let membership = bubble_graph.bubbles_of_vertices();

    // ---- First level: assign vertices inside converging bubbles by χ -----
    let mut is_converging = vec![false; bubble_graph.num_bubbles()];
    for &b in &converging {
        is_converging[b] = true;
    }
    let by_chi: Vec<(f64, usize)> = membership
        .par_iter()
        .enumerate()
        .map(|(v, bubbles)| {
            let candidates = bubbles.iter().copied().filter(|&b| is_converging[b]);
            best_bubble(candidates, |b| chi(graph, bubble_graph.bubble(b), v))
        })
        .collect();

    // V0_b: vertices already assigned to each converging bubble.
    let mut assigned_to: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    let mut group = vec![usize::MAX; n];
    for (v, &(score, b)) in by_chi.iter().enumerate() {
        if score > f64::NEG_INFINITY {
            group[v] = b;
            assigned_to.entry(b).or_default().push(v);
        }
    }

    // ---- First level: remaining vertices by mean shortest-path distance --
    let unassigned: Vec<usize> = (0..n).filter(|&v| group[v] == usize::MAX).collect();
    let assignments: Vec<(usize, usize)> = unassigned
        .par_iter()
        .map(|&v| {
            // Converging bubbles reachable from any bubble containing v.
            let mut candidates: Vec<usize> = membership[v]
                .iter()
                .flat_map(|&b| reachable[b].iter().copied())
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let mut best: Option<(f64, usize)> = None;
            for &b in &candidates {
                let basis: &[usize] = match assigned_to.get(&b) {
                    Some(v0) if !v0.is_empty() => v0,
                    // Fallback: no vertex claimed this converging bubble via
                    // χ (possible only in degenerate weightings); measure the
                    // distance to the bubble's own vertices instead.
                    _ => bubble_graph.bubble(b),
                };
                let mean: f64 = basis
                    .iter()
                    .map(|&u| shortest_paths.pair(u, v))
                    .sum::<f64>()
                    / basis.len() as f64;
                match best {
                    None => best = Some((mean, b)),
                    Some((bm, bb)) if mean < bm || (mean == bm && b < bb) => best = Some((mean, b)),
                    _ => {}
                }
            }
            let chosen = best
                .map(|(_, b)| b)
                .or_else(|| converging.first().copied())
                .expect("at least one converging bubble exists");
            (v, chosen)
        })
        .collect();
    for (v, b) in assignments {
        group[v] = b;
    }

    // ---- Second level: assign every vertex to a bubble by χ′ -------------
    let bubble: Vec<usize> = membership
        .par_iter()
        .enumerate()
        .map(|(v, bubbles)| {
            let (_, b) = best_bubble(bubbles.iter().copied(), |b| {
                chi_prime(graph, bubble_graph.bubble(b), v)
            });
            debug_assert_ne!(b, usize::MAX, "every vertex lies in at least one bubble");
            b
        })
        .collect();

    let mut groups: Vec<usize> = group.clone();
    groups.sort_unstable();
    groups.dedup();

    VertexAssignment {
        group,
        bubble,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::direction::direct_tmfg_bubble_tree;
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::{SourceRows, SymmetricMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_block_matrix(n: usize) -> SymmetricMatrix {
        // Two equally sized blocks with strong intra-block similarity.
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if (i < n / 2) == (j < n / 2) {
                0.85
            } else {
                0.1
            }
        })
    }

    fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
        s.map(|p| (2.0 * (1.0 - p)).sqrt())
    }

    fn run_assignment(
        s: &SymmetricMatrix,
        prefix: usize,
    ) -> (VertexAssignment, DirectedBubbleGraph) {
        let t = tmfg(s, TmfgConfig::with_prefix(prefix)).unwrap();
        let directed = direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
        let d = dissimilarity_of(s);
        let mut dgraph = WeightedGraph::new(s.n());
        for (u, v, _) in t.graph.edges() {
            dgraph.add_edge(u, v, d.get(u, v));
        }
        let all: Vec<usize> = (0..s.n()).collect();
        let spd = SourceRows::compute(&dgraph, &all);
        let assignment = assign_vertices(&t.graph, &directed, &spd);
        (assignment, directed)
    }

    #[test]
    fn chi_on_a_clique_bubble() {
        let mut g = WeightedGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 0.5);
            }
        }
        let bubble = vec![0, 1, 2, 3];
        // Each vertex touches three edges of weight 0.5; bubble has 6 edges.
        assert!((chi(&g, &bubble, 0) - 1.5 / 6.0).abs() < 1e-12);
        // χ' normalises by twice the internal weight (2 * 3.0 = 6.0).
        assert!((chi_prime(&g, &bubble, 0) - 1.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn chi_for_external_vertex_counts_only_existing_edges() {
        let mut g = WeightedGraph::new(5);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        g.add_edge(4, 0, 0.9);
        let bubble = vec![0, 1, 2, 3];
        assert!((chi(&g, &bubble, 4) - 0.9 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_go_to_the_smaller_bubble_and_nan_never_wins() {
        // The priority rule itself, on unsorted candidates.
        assert_eq!(best_bubble([5, 2, 9].into_iter(), |_| 1.0), (1.0, 2));
        assert_eq!(best_bubble([6, 8].into_iter(), |b| b as f64), (8.0, 8));
        let nan_at_1 = |b: usize| if b == 1 { f64::NAN } else { 0.5 };
        assert_eq!(best_bubble([4, 1].into_iter(), nan_at_1), (0.5, 4));
        assert_eq!(
            best_bubble([3].into_iter(), |_| f64::NAN),
            (f64::NEG_INFINITY, usize::MAX)
        );

        // A 7-vertex TMFG: the 4-clique {0, 1, 2, 3}, then 4 into face
        // {0, 1, 2}, 5 into {0, 1, 3} and 6 into {0, 1, 5}. Every weight is
        // 1 except the NaN on (3, 5), which makes χ′ NaN for every vertex
        // of bubble 0 and χ NaN for vertices 3 and 5 there. With no
        // directed edges every bubble converges.
        let bubbles = vec![
            vec![0, 1, 3, 5],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 4],
            vec![0, 1, 5, 6],
        ];
        let mut g = WeightedGraph::new(7);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v, 1.0);
        }
        for (v, face) in [(4, [0, 1, 2]), (5, [0, 1, 3]), (6, [0, 1, 5])] {
            for u in face {
                let w = if (u, v) == (3, 5) { f64::NAN } else { 1.0 };
                g.add_edge(u, v, w);
            }
        }
        let directed = DirectedBubbleGraph::new(bubbles, Vec::new(), 7);
        // Every vertex wins a finite χ, so no distance is read.
        let assignment = assign_vertices(&g, &directed, &SymmetricMatrix::zeros(7));
        // χ′ is 0.25 in every finite bubble. Vertices 0 and 1 tie across
        // bubbles 1–3 and vertex 2 across bubbles 1 and 2: all take
        // bubble 1. Vertices 3 and 5 take bubbles 1 and 3 over the NaN
        // bubble 0, although its id is smaller.
        assert_eq!(assignment.bubble, vec![1, 1, 1, 1, 2, 3, 3]);
        // χ is 0.5 wherever it is finite: vertices 0 and 1 take bubble 0
        // (finite for them), vertices 3 and 5 skip its NaN.
        assert_eq!(assignment.group, vec![0, 0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn every_vertex_gets_group_and_bubble() {
        let s = two_block_matrix(16);
        let (assignment, directed) = run_assignment(&s, 5);
        assert_eq!(assignment.group.len(), 16);
        assert_eq!(assignment.bubble.len(), 16);
        let converging = directed.converging_bubbles();
        for v in 0..16 {
            assert!(converging.contains(&assignment.group[v]), "vertex {v}");
            assert!(assignment.bubble[v] < directed.num_bubbles());
            // The assigned bubble must actually contain the vertex.
            assert!(directed.bubble(assignment.bubble[v]).contains(&v));
        }
        assert!(!assignment.groups.is_empty());
    }

    #[test]
    fn group_assignment_respects_reachability() {
        let n = 20;
        let s = two_block_matrix(n);
        let (assignment, directed) = run_assignment(&s, 1);
        let membership = directed.bubbles_of_vertices();
        let reachable = directed.reachable_converging_bubbles();
        for (v, bubbles) in membership.iter().enumerate() {
            // The group of v must be a converging bubble reachable from at
            // least one bubble containing v (Algorithm 4: v ⇀ b).
            let ok = bubbles
                .iter()
                .any(|&b| reachable[b].contains(&assignment.group[v]));
            assert!(
                ok,
                "vertex {v} assigned to unreachable group {}",
                assignment.group[v]
            );
        }
        // Every group is non-empty and the member lists partition 0..n.
        let members = assignment.group_members();
        assert!(members.iter().all(|m| !m.is_empty()));
        let mut all: Vec<usize> = members.concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn assignment_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(42);
        let s = SymmetricMatrix::from_fn(18, |i, j| {
            if i == j {
                1.0
            } else {
                rng.gen_range(0.01..1.0)
            }
        });
        let (a1, _) = run_assignment(&s, 4);
        let (a2, _) = run_assignment(&s, 4);
        assert_eq!(a1.group, a2.group);
        assert_eq!(a1.bubble, a2.bubble);
    }
}
