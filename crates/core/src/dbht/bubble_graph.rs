//! The directed bubble graph: bubbles (vertex sets) connected by directed
//! edges labelled with their separating triangles.
//!
//! This is the structure Algorithm 4 operates on. The Θ(n) direction pass
//! of Algorithm 3 produces it from a bubble tree: the TMFG's, or the one
//! [`decompose`](crate::dbht::planar_bubbles::decompose) builds for any
//! other maximal planar graph.

use rayon::prelude::*;

use crate::face::Triangle;

/// A directed edge of the bubble graph: `from → to`, labelled by the
/// separating triangle the two bubbles share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectedBubbleEdge {
    /// Source bubble id.
    pub from: usize,
    /// Destination bubble id.
    pub to: usize,
    /// The separating triangle shared by the two bubbles.
    pub triangle: Triangle,
}

/// Bubbles plus directed edges between them (a directed tree).
#[derive(Debug, Clone)]
pub struct DirectedBubbleGraph {
    bubbles: Vec<Vec<usize>>,
    edges: Vec<DirectedBubbleEdge>,
    out_adj: Vec<Vec<usize>>,
    num_vertices: usize,
}

impl DirectedBubbleGraph {
    /// Builds the graph from bubbles (vertex lists) and directed edges.
    ///
    /// # Panics
    /// Panics if an edge references an unknown bubble.
    pub fn new(
        mut bubbles: Vec<Vec<usize>>,
        edges: Vec<DirectedBubbleEdge>,
        num_vertices: usize,
    ) -> Self {
        for b in &mut bubbles {
            b.sort_unstable();
        }
        let nb = bubbles.len();
        let mut out_adj = vec![Vec::new(); nb];
        for e in &edges {
            assert!(e.from < nb && e.to < nb, "edge references unknown bubble");
            out_adj[e.from].push(e.to);
        }
        Self {
            bubbles,
            edges,
            out_adj,
            num_vertices,
        }
    }

    /// Number of bubbles.
    pub fn num_bubbles(&self) -> usize {
        self.bubbles.len()
    }

    /// Number of vertices of the underlying filtered graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The vertices of bubble `b`.
    pub fn bubble(&self, b: usize) -> &[usize] {
        &self.bubbles[b]
    }

    /// The directed edges.
    pub fn edges(&self) -> &[DirectedBubbleEdge] {
        &self.edges
    }

    /// The converging bubbles: bubbles with no outgoing edges (Algorithm 4,
    /// line 4). These act as the centres of the first-level clusters.
    pub fn converging_bubbles(&self) -> Vec<usize> {
        (0..self.num_bubbles())
            .filter(|&b| self.out_adj[b].is_empty())
            .collect()
    }

    /// For every vertex, the bubbles that contain it.
    pub fn bubbles_of_vertices(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_vertices];
        for (id, b) in self.bubbles.iter().enumerate() {
            for &v in b {
                out[v].push(id);
            }
        }
        out
    }

    /// For every bubble, the set of converging bubbles reachable from it by
    /// following directed edges (Algorithm 4, lines 5–6). Computed with one
    /// BFS per bubble, in parallel. The result is sorted per bubble.
    pub fn reachable_converging_bubbles(&self) -> Vec<Vec<usize>> {
        let nb = self.num_bubbles();
        (0..nb)
            .into_par_iter()
            .map(|start| {
                let mut seen = vec![false; nb];
                let mut queue = std::collections::VecDeque::new();
                let mut reachable = Vec::new();
                seen[start] = true;
                queue.push_back(start);
                while let Some(b) = queue.pop_front() {
                    if self.out_adj[b].is_empty() {
                        reachable.push(b);
                    }
                    for &next in &self.out_adj[b] {
                        if !seen[next] {
                            seen[next] = true;
                            queue.push_back(next);
                        }
                    }
                }
                reachable.sort_unstable();
                reachable
            })
            .collect()
    }

    /// Checks structural sanity: every vertex appears in at least one
    /// bubble, the edge endpoints share their separating triangle, and at
    /// least one converging bubble exists.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut covered = vec![false; self.num_vertices];
        for b in &self.bubbles {
            for &v in b {
                if v >= self.num_vertices {
                    return Err(format!("bubble vertex {v} out of range"));
                }
                covered[v] = true;
            }
        }
        if let Some(v) = covered.iter().position(|&c| !c) {
            return Err(format!("vertex {v} is not in any bubble"));
        }
        for e in &self.edges {
            for c in e.triangle.corners() {
                if !self.bubbles[e.from].contains(&c) || !self.bubbles[e.to].contains(&c) {
                    return Err(format!(
                        "separating triangle {} not shared by bubbles {} and {}",
                        e.triangle, e.from, e.to
                    ));
                }
            }
        }
        if self.num_bubbles() > 0 && self.converging_bubbles().is_empty() {
            return Err("directed bubble graph has no converging bubble".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directed bubble tree of Figure 2(c): b2 = {0,1,2,3} is the only
    /// converging bubble; b1, b3, b4 all point into it.
    fn figure2_graph() -> DirectedBubbleGraph {
        let bubbles = vec![
            vec![0, 1, 2, 4], // b1
            vec![0, 1, 2, 3], // b2
            vec![0, 1, 3, 6], // b3
            vec![1, 2, 3, 5], // b4
        ];
        let edges = vec![
            DirectedBubbleEdge {
                from: 0,
                to: 1,
                triangle: Triangle::new(0, 1, 2),
            },
            DirectedBubbleEdge {
                from: 2,
                to: 1,
                triangle: Triangle::new(0, 1, 3),
            },
            DirectedBubbleEdge {
                from: 3,
                to: 1,
                triangle: Triangle::new(1, 2, 3),
            },
        ];
        DirectedBubbleGraph::new(bubbles, edges, 7)
    }

    #[test]
    fn converging_bubbles_have_no_out_edges() {
        let g = figure2_graph();
        assert_eq!(g.converging_bubbles(), vec![1]);
        let out_degree = |b: usize| g.edges().iter().filter(|e| e.from == b).count();
        let in_degree = |b: usize| g.edges().iter().filter(|e| e.to == b).count();
        assert_eq!(out_degree(0), 1);
        assert_eq!(out_degree(1), 0);
        assert_eq!(in_degree(1), 3);
        assert_eq!(in_degree(0), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn reachability_follows_directions() {
        let g = figure2_graph();
        let reach = g.reachable_converging_bubbles();
        // Every bubble reaches the single converging bubble b2 (id 1).
        for r in &reach {
            assert_eq!(r, &vec![1]);
        }
    }

    #[test]
    fn vertex_membership() {
        let g = figure2_graph();
        let membership = g.bubbles_of_vertices();
        assert_eq!(membership[1], vec![0, 1, 2, 3]);
        assert_eq!(membership[6], vec![2]);
        assert_eq!(membership[4], vec![0]);
    }

    #[test]
    fn invariants_catch_uncovered_vertex() {
        let g = DirectedBubbleGraph::new(vec![vec![0, 1, 2, 3]], vec![], 6);
        assert!(g.check_invariants().is_err());
    }

    #[test]
    fn chain_reachability() {
        // b0 → b1 → b2: only b2 converges; b0 and b1 both reach it.
        let bubbles = vec![vec![0, 1, 2, 3], vec![1, 2, 3, 4], vec![2, 3, 4, 5]];
        let t = Triangle::new(1, 2, 3);
        let t2 = Triangle::new(2, 3, 4);
        let edges = vec![
            DirectedBubbleEdge {
                from: 0,
                to: 1,
                triangle: t,
            },
            DirectedBubbleEdge {
                from: 1,
                to: 2,
                triangle: t2,
            },
        ];
        let g = DirectedBubbleGraph::new(bubbles, edges, 6);
        assert_eq!(g.converging_bubbles(), vec![2]);
        let reach = g.reachable_converging_bubbles();
        assert_eq!(reach[0], vec![2]);
        assert_eq!(reach[1], vec![2]);
        assert_eq!(reach[2], vec![2]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn diverging_directions_give_multiple_converging_bubbles() {
        // b1 ← b0 → b2 … wait, edges carry direction: b0 → b1 and b0 → b2
        // means b1 and b2 both converge and b0 reaches both.
        let bubbles = vec![vec![0, 1, 2, 3], vec![0, 1, 2, 4], vec![1, 2, 3, 5]];
        let edges = vec![
            DirectedBubbleEdge {
                from: 0,
                to: 1,
                triangle: Triangle::new(0, 1, 2),
            },
            DirectedBubbleEdge {
                from: 0,
                to: 2,
                triangle: Triangle::new(1, 2, 3),
            },
        ];
        let g = DirectedBubbleGraph::new(bubbles, edges, 6);
        assert_eq!(g.converging_bubbles(), vec![1, 2]);
        let reach = g.reachable_converging_bubbles();
        assert_eq!(reach[0], vec![1, 2]);
        assert_eq!(reach[1], vec![1]);
        assert_eq!(reach[2], vec![2]);
    }
}
