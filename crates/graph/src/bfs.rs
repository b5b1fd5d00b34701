//! Breadth-first search over [`WeightedGraph`]s.
//!
//! The original DBHT algorithm uses BFS to split the graph into the interior
//! and exterior of each separating triangle. `pfg_core`'s planar bubble
//! decomposition still floods the graph minus each 3-clique once, to find
//! the separating ones and the side each one cuts off; its tests hold it
//! to the original split loop and BFS direction, which flood with this
//! function too. [`WeightedGraph::is_connected`] floods with every vertex
//! allowed.

use crate::weighted_graph::WeightedGraph;
use std::collections::VecDeque;

/// BFS restricted to the subgraph induced by `allowed` vertices, starting
/// from `source` (which must be allowed): the vertices it reaches.
pub fn bfs_reachable_within(graph: &WeightedGraph, source: usize, allowed: &[bool]) -> Vec<bool> {
    let n = graph.num_vertices();
    debug_assert_eq!(allowed.len(), n);
    debug_assert!(allowed[source]);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in graph.neighbors(u) {
            if allowed[v] && !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1.0);
        }
        g
    }

    #[test]
    fn restricted_bfs_respects_allowed_set() {
        let g = path_graph(5);
        let allowed = vec![true, true, false, true, true];
        let seen = bfs_reachable_within(&g, 0, &allowed);
        assert_eq!(seen, vec![true, true, false, false, false]);
        let seen2 = bfs_reachable_within(&g, 4, &allowed);
        assert_eq!(seen2, vec![false, false, false, true, true]);
    }
}
