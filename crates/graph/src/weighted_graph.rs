//! Undirected weighted graphs stored as adjacency lists.
//!
//! The filtered graphs produced by TMFG/PMFG are sparse (`3n − 8` edges for
//! a maximal planar graph), so an adjacency-list representation keeps the
//! DBHT's shortest-path computations linear in the number of edges.

/// An undirected weighted graph on vertices `0..n`.
///
/// Parallel edges are not allowed; [`WeightedGraph::add_edge`] panics if the
/// edge already exists (the filtered-graph algorithms never re-add edges).
#[derive(Debug, Clone, Default)]
pub struct WeightedGraph {
    adj: Vec<Vec<(usize, f64)>>,
    num_edges: usize,
}

impl WeightedGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the undirected edge `(u, v)` with weight `w`.
    ///
    /// **Contract:** the edge must not already exist. The filtered-graph
    /// algorithms never re-add a decided edge, and an `O(degree)` duplicate
    /// scan on every insertion would make dense builds superlinear, so
    /// duplicates are checked with `debug_assert!` only — a release-mode
    /// violation silently creates a parallel edge, which the planarity and
    /// shortest-path code does not support. Callers inserting edges from
    /// untrusted sources should guard with [`WeightedGraph::has_edge`].
    ///
    /// # Panics
    /// Panics on self loops or out-of-range endpoints (all builds), and on
    /// duplicate edges in debug builds.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u != v, "self loops are not allowed");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "vertex out of range"
        );
        debug_assert!(!self.has_edge(u, v), "duplicate edge ({u}, {v})");
        self.adj[u].push((v, w));
        self.adj[v].push((u, w));
        self.num_edges += 1;
    }

    /// Returns `true` if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].iter().any(|&(x, _)| x == v)
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj[u].iter().find(|&&(x, _)| x == v).map(|&(_, w)| w)
    }

    /// Neighbors of `u` with edge weights.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Unweighted degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree of `u` (sum of incident edge weights). This is the
    /// `deg(v)` used in Algorithm 3's `OUT_VAL` formula.
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum()
    }

    /// Sum of all edge weights (each undirected edge counted once). Used for
    /// the Figure 7 edge-sum-ratio experiment.
    pub fn total_edge_weight(&self) -> f64 {
        self.adj
            .iter()
            .enumerate()
            .map(|(u, nbrs)| {
                nbrs.iter()
                    .filter(|&&(v, _)| v > u)
                    .map(|&(_, w)| w)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Iterator over all undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&(v, _)| v > u)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Returns `true` if the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n <= 1 {
            return true;
        }
        crate::bfs::bfs_reachable_within(self, 0, &vec![true; n])
            .iter()
            .all(|&r| r)
    }

    /// Checks the defining edge-count property of a maximal planar graph on
    /// `n >= 3` vertices: exactly `3n − 6` edges (the TMFG has `3n − 6`
    /// edges counting the initial clique: 6 edges for n=4 plus 3 per later
    /// vertex gives `3n − 6`).
    pub fn has_maximal_planar_edge_count(&self) -> bool {
        let n = self.num_vertices();
        n >= 3 && self.num_edges == 3 * n - 6
    }

    /// Returns the set of triangles `(a, b, c)` with `a < b < c`. Each is
    /// listed at its edge `(a, b)`, in [`WeightedGraph::edges`] order, and
    /// by `c` within an edge. Each edge intersects its endpoints' sorted
    /// neighbour lists, so the work is the sum of `deg(u) + deg(v)` over
    /// the edges: `O(n · Δ)` on a planar graph of maximum degree `Δ`. The
    /// PMFG's bubble decomposition runs it once per DBHT.
    pub fn triangles(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        // Sorted adjacency + two-pointer intersection: deterministic order
        // (a hash-set intersection would enumerate in hash order).
        let sorted: Vec<Vec<usize>> = self
            .adj
            .iter()
            .map(|nbrs| {
                let mut ids: Vec<usize> = nbrs.iter().map(|&(v, _)| v).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        for (u, v, _) in self.edges() {
            let (a, b) = (&sorted[u], &sorted[v]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if a[i] > v {
                            out.push((u, v, a[i]));
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn basic_edge_queries() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 0), Some(3.0));
        assert_eq!(g.edge_weight(1, 1), None);
    }

    #[test]
    fn degrees_and_weights() {
        let g = triangle();
        assert_eq!(g.degree(1), 2);
        assert!((g.weighted_degree(0) - 4.0).abs() < 1e-12);
        assert!((g.total_edge_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut h = WeightedGraph::new(4);
        h.add_edge(0, 1, 1.0);
        assert!(!h.is_connected());
        assert!(WeightedGraph::new(1).is_connected());
        assert!(WeightedGraph::new(0).is_connected());
    }

    // `add_edge` checks duplicates with `debug_assert!` only (see its
    // contract), so this test exists only where that check is compiled in.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn duplicate_edge_panics() {
        let mut g = triangle();
        g.add_edge(0, 1, 5.0);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    fn triangles_of_k4() {
        let mut g = WeightedGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        let mut tris = g.triangles();
        tris.sort_unstable();
        assert_eq!(tris, vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]);
    }

    #[test]
    fn maximal_planar_edge_count() {
        let mut g = WeightedGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        assert!(g.has_maximal_planar_edge_count());
    }
}
