//! Dijkstra single-source shortest paths, parallel all-pairs shortest
//! paths, and demand-driven restricted shortest paths over the sparse
//! filtered graphs.
//!
//! APSP over the dissimilarity-weighted TMFG is the dominant cost of the
//! DBHT (§VI): the paper runs Dijkstra from every source in parallel, which
//! is exactly what [`all_pairs_shortest_paths`] does — every source's
//! distance row is written *directly into the result matrix's own row*
//! (`par_chunks_mut` hands each task a disjoint row), and the matrix is
//! then symmetrised in place, also in parallel. Peak memory is one `n²`
//! buffer plus per-source Dijkstra scratch; the previous implementation
//! materialised per-source row `Vec`s, copied them into an `n²` flat
//! buffer, and symmetrised into a third `n²` allocation (~3n² peak), which
//! was the memory high-water mark of the whole DBHT pipeline. Row tasks
//! are uneven on irregular graphs; the executor's work stealing keeps one
//! expensive source from gating the round.
//!
//! The DBHT, however, never reads most of those `n²` entries: the
//! hierarchy consumes distances *within* each first-level group plus a
//! handful of rows anchored at the converging bubbles. The demand-driven
//! pair — [`SourceRows::compute`] (full rows for a chosen source set) and
//! [`GroupBlocks::compute`] (per-group dense blocks via Dijkstras that
//! stop as soon as the whole group is settled) — computes
//! exactly those distances, cutting the output from `n²` to
//! `O(Σ group² + |sources|·n)` and the work from `n` full Dijkstras to
//! mostly-early-terminated ones.

use crate::matrix::SymmetricMatrix;
use crate::weighted_graph::WeightedGraph;
use pfg_primitives::{DisjointWriteAudit, SendPtr};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry: (distance, vertex).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the smallest
        // distance. total_cmp keeps this a strict total order even if a
        // NaN weight ever slips in (partial_cmp would report Equal for
        // NaN-vs-anything, breaking transitivity).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest-path distances from `source` using edge weights as
/// (non-negative) lengths. Unreachable vertices get `f64::INFINITY`.
///
/// # Panics
/// Debug-asserts that edge weights are non-negative.
pub fn dijkstra(graph: &WeightedGraph, source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; graph.num_vertices()];
    dijkstra_into(graph, source, &mut dist);
    dist
}

/// [`dijkstra`] writing into a caller-provided row of length
/// `num_vertices` (every entry is overwritten), so all-pairs callers can
/// fill one flat matrix without a per-source allocation.
fn dijkstra_into(graph: &WeightedGraph, source: usize, dist: &mut [f64]) {
    let n = graph.num_vertices();
    debug_assert_eq!(dist.len(), n);
    dist.fill(f64::INFINITY);
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { dist: d, vertex: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &(v, w) in graph.neighbors(u) {
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let candidate = d + w;
            if candidate < dist[v] {
                dist[v] = candidate;
                heap.push(HeapEntry {
                    dist: candidate,
                    vertex: v,
                });
            }
        }
    }
}

/// Read access to pairwise distances, implemented both by the dense
/// [`SymmetricMatrix`] APSP output and by the restricted (demand-driven)
/// stores, so distance consumers can run on either.
///
/// Implementations must be symmetric (`pair(u, v) == pair(v, u)`) and
/// return `0.0` on the diagonal, but may panic for pairs outside their
/// computed demand set — that panic is the contract check that a consumer
/// really only reads what it declared.
pub trait PairDistances {
    /// Shortest-path distance between `u` and `v`.
    fn pair(&self, u: usize, v: usize) -> f64;

    /// Number of vertices the distances are defined over (used for
    /// dimension checks at API boundaries).
    fn num_vertices(&self) -> usize;
}

impl PairDistances for SymmetricMatrix {
    #[inline]
    fn pair(&self, u: usize, v: usize) -> f64 {
        self.get(u, v)
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n()
    }
}

/// [`dijkstra_into`] that stops as soon as every flagged target has been
/// settled (popped with a final distance). Returns the number of vertices
/// settled before the stop — the honest work measure for the restricted
/// APSP counters. Distances of unsettled vertices are a valid lower bound
/// but are only *final* for settled ones; callers must read targets only.
fn dijkstra_targets_into(
    graph: &WeightedGraph,
    source: usize,
    is_target: &[bool],
    targets_total: usize,
    dist: &mut [f64],
) -> usize {
    let n = graph.num_vertices();
    debug_assert_eq!(dist.len(), n);
    debug_assert_eq!(is_target.len(), n);
    dist.fill(f64::INFINITY);
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    let mut settled = 0usize;
    let mut targets_left = targets_total;
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { dist: d, vertex: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        settled += 1;
        if is_target[u] {
            targets_left -= 1;
            if targets_left == 0 {
                break;
            }
        }
        for &(v, w) in graph.neighbors(u) {
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let candidate = d + w;
            if candidate < dist[v] {
                dist[v] = candidate;
                heap.push(HeapEntry {
                    dist: candidate,
                    vertex: v,
                });
            }
        }
    }
    settled
}

/// Full shortest-path rows for a chosen set of source vertices: the
/// demand-driven replacement for the `|sources| ≪ n` slice of the APSP
/// matrix (the DBHT needs full rows only for converging-bubble vertices).
///
/// Rows are computed by one [`dijkstra`] per source, in parallel, and
/// entries between two sources are averaged (exactly like
/// [`all_pairs_shortest_paths`] symmetrises) so [`SourceRows::pair`] is
/// symmetric wherever both directions were computed. For a source/non-
/// source pair only the source-anchored direction exists; it is returned
/// as-is, which can differ from the dense matrix in the last floating-
/// point bits (same path, opposite accumulation order).
#[derive(Debug, Clone)]
pub struct SourceRows {
    n: usize,
    /// Sorted, deduplicated source vertices.
    sources: Vec<usize>,
    /// `row_of[v]` is the index into `rows` for source `v`, `usize::MAX`
    /// otherwise.
    row_of: Vec<usize>,
    /// `sources.len() × n` row-major distances.
    rows: Vec<f64>,
}

impl SourceRows {
    /// Runs one Dijkstra per (deduplicated) source, in parallel.
    pub fn compute(graph: &WeightedGraph, sources: &[usize]) -> Self {
        let n = graph.num_vertices();
        let mut sources: Vec<usize> = sources.to_vec();
        sources.sort_unstable();
        sources.dedup();
        let mut row_of = vec![usize::MAX; n];
        for (i, &s) in sources.iter().enumerate() {
            assert!(s < n, "source {s} out of range");
            row_of[s] = i;
        }
        let mut rows = vec![0.0f64; sources.len() * n];
        {
            let sources = &sources;
            rows.par_chunks_mut(n)
                .with_max_len(1)
                .enumerate()
                .for_each(|(i, row)| dijkstra_into(graph, sources[i], row));
        }
        // Symmetrise the source×source entries the way the dense APSP
        // does, so downstream comparisons between restricted and full
        // distances agree bitwise on those pairs. Writer owns the smaller
        // source index; entries are disjoint.
        let mut out = Self {
            n,
            sources,
            row_of,
            rows,
        };
        let m = out.sources.len();
        for a in 0..m {
            for b in (a + 1)..m {
                let (u, v) = (out.sources[a], out.sources[b]);
                let forward = out.rows[a * n + v];
                let backward = out.rows[b * n + u];
                let avg = 0.5 * (forward + backward);
                out.rows[a * n + v] = avg;
                out.rows[b * n + u] = avg;
            }
        }
        out
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The sorted source set.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Whether `v` has a computed row.
    #[inline]
    pub fn is_source(&self, v: usize) -> bool {
        self.row_of[v] != usize::MAX
    }

    /// The full distance row of source `s`.
    ///
    /// # Panics
    /// Panics if `s` is not a source.
    pub fn row(&self, s: usize) -> &[f64] {
        let i = self.row_of[s];
        assert!(i != usize::MAX, "vertex {s} is not a computed source");
        &self.rows[i * self.n..(i + 1) * self.n]
    }

    /// Distance entries computed (`|sources| · n`).
    pub fn pairs_computed(&self) -> usize {
        self.rows.len()
    }
}

impl PairDistances for SourceRows {
    fn pair(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        // Prefer the smaller-id source's row; for source pairs both rows
        // hold the same averaged value anyway.
        let (a, b) = (u.min(v), u.max(v));
        if self.is_source(a) {
            self.row(a)[b]
        } else if self.is_source(b) {
            self.row(b)[a]
        } else {
            panic!("distance ({u}, {v}) is outside the computed source rows")
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        SourceRows::num_vertices(self)
    }
}

/// Dense intra-group distance blocks: for each group (disjoint vertex
/// set), the full pairwise shortest-path distances *through the whole
/// graph* between its members, computed by one early-terminating Dijkstra
/// per member (the run stops once the entire group is settled). Paths may
/// leave the group; only the *output* is restricted.
///
/// Each block is symmetrised exactly like [`all_pairs_shortest_paths`]
/// (both directions averaged), so block entries are bitwise equal to the
/// dense matrix's entries for the same pairs.
#[derive(Debug, Clone)]
pub struct GroupBlocks {
    /// Sorted member list per group.
    groups: Vec<Vec<usize>>,
    /// `group_of[v]` = group index containing `v`, `usize::MAX` if none.
    group_of: Vec<usize>,
    /// `local_of[v]` = index of `v` inside its group's member list.
    local_of: Vec<usize>,
    /// One `|G|²` row-major block per group.
    blocks: Vec<Vec<f64>>,
    /// Total vertices settled across all Dijkstra runs (work measure).
    settled: usize,
}

impl GroupBlocks {
    /// Computes the blocks for the given disjoint groups.
    ///
    /// # Panics
    /// Panics if a vertex appears in two groups or is out of range.
    pub fn compute(graph: &WeightedGraph, groups: &[Vec<usize>]) -> Self {
        let n = graph.num_vertices();
        let mut sorted_groups: Vec<Vec<usize>> = groups.to_vec();
        for g in &mut sorted_groups {
            g.sort_unstable();
            g.dedup();
        }
        let mut group_of = vec![usize::MAX; n];
        let mut local_of = vec![usize::MAX; n];
        for (gi, g) in sorted_groups.iter().enumerate() {
            for (li, &v) in g.iter().enumerate() {
                assert!(v < n, "group vertex {v} out of range");
                assert!(group_of[v] == usize::MAX, "vertex {v} in two groups");
                group_of[v] = gi;
                local_of[v] = li;
            }
        }
        let mut settled_total = 0usize;
        let mut blocks = Vec::with_capacity(sorted_groups.len());
        for g in &sorted_groups {
            let m = g.len();
            let mut is_target = vec![false; n];
            for &v in g {
                is_target[v] = true;
            }
            let mut block = vec![0.0f64; m * m];
            let is_target = &is_target;
            // One stealable task per member row; per-row settled counts
            // come back with the rows and are reduced in member order, so
            // the counter is identical at every thread count.
            let settled_rows: Vec<usize> = {
                let g_ref = g;
                block
                    .par_chunks_mut(m.max(1))
                    .with_max_len(1)
                    .enumerate()
                    .map(|(li, row)| {
                        let mut dist = vec![f64::INFINITY; n];
                        let settled =
                            dijkstra_targets_into(graph, g_ref[li], is_target, m, &mut dist);
                        for (lj, &t) in g_ref.iter().enumerate() {
                            row[lj] = dist[t];
                        }
                        settled
                    })
                    .collect()
            };
            settled_total += settled_rows.iter().sum::<usize>();
            // Symmetrise within the block (average both directions, the
            // dense-APSP rule).
            for a in 0..m {
                for b in (a + 1)..m {
                    let avg = 0.5 * (block[a * m + b] + block[b * m + a]);
                    block[a * m + b] = avg;
                    block[b * m + a] = avg;
                }
            }
            blocks.push(block);
        }
        Self {
            groups: sorted_groups,
            group_of,
            local_of,
            blocks,
            settled: settled_total,
        }
    }

    /// The group index containing `v`, if any.
    #[inline]
    pub fn group_of(&self, v: usize) -> Option<usize> {
        let g = self.group_of[v];
        (g != usize::MAX).then_some(g)
    }

    /// Whether `u` and `v` lie in the same group (and thus have a block
    /// entry).
    #[inline]
    pub fn same_group(&self, u: usize, v: usize) -> bool {
        self.group_of[u] != usize::MAX && self.group_of[u] == self.group_of[v]
    }

    /// Sorted member list of group `g`.
    pub fn group(&self, g: usize) -> &[usize] {
        &self.groups[g]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Distance entries stored across all blocks (`Σ |G|²`).
    pub fn pairs_computed(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Total vertices settled across all early-terminating Dijkstra runs:
    /// the work actually done, for the `vs n²` counters.
    pub fn vertices_settled(&self) -> usize {
        self.settled
    }
}

impl PairDistances for GroupBlocks {
    fn pair(&self, u: usize, v: usize) -> f64 {
        let g = self.group_of[u];
        assert!(
            g != usize::MAX && g == self.group_of[v],
            "distance ({u}, {v}) crosses group boundaries — not in any block"
        );
        self.blocks[g][self.local_of[u] * self.groups[g].len() + self.local_of[v]]
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.group_of.len()
    }
}

/// All-pairs shortest paths: runs [`dijkstra`] from every vertex in
/// parallel, writing each source's distances straight into the matching
/// row of one flat `n²` buffer, then symmetrises that buffer in place (in
/// parallel) and hands it to the matrix without copying.
pub fn all_pairs_shortest_paths(graph: &WeightedGraph) -> SymmetricMatrix {
    let n = graph.num_vertices();
    let mut data = vec![0.0f64; n * n];
    if n > 0 {
        // Each source row is a safe `par_chunks_mut` chunk, but the
        // row-per-source ownership claim is part of the workspace's
        // audited disjoint-write inventory, so it registers like the raw-
        // pointer paths (checked under `--cfg pfg_racecheck`, free
        // otherwise).
        let audit = DisjointWriteAudit::ranges("apsp rows");
        let audit = &audit;
        // `with_max_len(1)`: each item is a whole Dijkstra run, so
        // declare it heavy — without the hint the executor's cheap-item
        // heuristic would run sub-512-vertex graphs entirely inline.
        data.par_chunks_mut(n)
            .with_max_len(1)
            .enumerate()
            .for_each(|(source, row)| {
                let _claim = audit.claim_range(source * n, (source + 1) * n);
                dijkstra_into(graph, source, row);
            });
        // The graph is undirected so the matrix is symmetric up to
        // floating point associativity; symmetrise explicitly to make
        // downstream consumers (complete linkage) independent of
        // traversal order.
        symmetrize_in_place(&mut data, n);
    }
    SymmetricMatrix::from_symmetrized(n, data)
}

/// Averages `data[i][j]` and `data[j][i]` into both entries, in parallel.
///
/// Each task owns row index `i` and writes the pair `(i, j)`/`(j, i)` for
/// every `j > i`: element `(r, c)` is written only by the task for
/// `min(r, c)`, so all writes are disjoint even though they cross row
/// boundaries — which is why this goes through a raw pointer rather than
/// `par_chunks_mut` (no safe row partition covers a transpose-pair write
/// pattern). Upper rows carry more pairs than lower ones; the executor's
/// stealing balances that skew.
fn symmetrize_in_place(data: &mut [f64], n: usize) {
    debug_assert_eq!(data.len(), n * n);
    let mat = SendPtr::new(data.as_mut_ptr());
    // Off-diagonal cells are each written exactly once (owner = min
    // index); the registry pins that claim under `--cfg pfg_racecheck`.
    let audit = DisjointWriteAudit::cells("apsp symmetrize", n * n);
    let audit = &audit;
    // Row `i` carries `n - i - 1` pairs, so the work is heavily skewed;
    // small leaves (and stealing) keep the early heavy rows from gating
    // the round, and the hint keeps small `n` parallel at all.
    (0..n).into_par_iter().with_max_len(16).for_each(|i| {
        for j in (i + 1)..n {
            audit.write_once(i * n + j);
            audit.write_once(j * n + i);
            // SAFETY: `(i, j)` with `i < j` is visited by exactly this
            // task (owner = min index), the borrow of `data` outlives the
            // parallel round, and both indices are < n².
            unsafe {
                let upper = mat.get().add(i * n + j);
                let lower = mat.get().add(j * n + i);
                let v = 0.5 * (*upper + *lower);
                *upper = v;
                *lower = v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_square() -> WeightedGraph {
        // 0 -1- 1
        // |     |
        // 4     1
        // |     |
        // 3 -1- 2
        WeightedGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 4.0)])
    }

    #[test]
    fn dijkstra_prefers_longer_hop_path_with_smaller_weight() {
        let g = weighted_square();
        let d = dijkstra(&g, 0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 3.0); // via 1,2 not the direct weight-4 edge
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let d = dijkstra(&g, 0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn apsp_matches_per_source_dijkstra() {
        let g = weighted_square();
        let apsp = all_pairs_shortest_paths(&g);
        for s in 0..4 {
            let d = dijkstra(&g, s);
            for (t, &dt) in d.iter().enumerate() {
                assert!((apsp.get(s, t) - dt).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apsp_is_symmetric_with_zero_diagonal() {
        let g = weighted_square();
        let apsp = all_pairs_shortest_paths(&g);
        for i in 0..4 {
            assert_eq!(apsp.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(apsp.get(i, j), apsp.get(j, i));
            }
        }
    }

    #[test]
    fn apsp_satisfies_triangle_inequality() {
        let g = weighted_square();
        let apsp = all_pairs_shortest_paths(&g);
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    assert!(apsp.get(i, j) <= apsp.get(i, k) + apsp.get(k, j) + 1e-12);
                }
            }
        }
    }

    /// A path graph with uneven weights: 0 -1- 1 -2- 2 -1- 3 -5- 4.
    fn weighted_path() -> WeightedGraph {
        WeightedGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 5.0)])
    }

    #[test]
    fn source_rows_match_full_apsp_on_source_pairs_bitwise() {
        let g = weighted_path();
        let apsp = all_pairs_shortest_paths(&g);
        let rows = SourceRows::compute(&g, &[3, 0, 3]);
        assert_eq!(rows.sources(), &[0, 3]);
        assert_eq!(rows.pairs_computed(), 2 * 5);
        // Source pairs are averaged exactly like the dense APSP → bitwise.
        assert_eq!(rows.pair(0, 3).to_bits(), apsp.get(0, 3).to_bits());
        // Source × non-source pairs are one-directional but still the same
        // shortest-path value.
        for v in 0..5 {
            assert!((rows.pair(0, v) - apsp.get(0, v)).abs() < 1e-12);
            assert!((rows.pair(v, 3) - apsp.get(v, 3)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside the computed source rows")]
    fn source_rows_panic_on_uncomputed_pair() {
        let g = weighted_path();
        let rows = SourceRows::compute(&g, &[0]);
        rows.pair(1, 2);
    }

    #[test]
    fn group_blocks_match_full_apsp_bitwise() {
        let g = weighted_square();
        let apsp = all_pairs_shortest_paths(&g);
        let blocks = GroupBlocks::compute(&g, &[vec![0, 3], vec![1, 2]]);
        for (u, v) in [(0, 3), (3, 0), (1, 2), (2, 1), (0, 0), (2, 2)] {
            assert_eq!(blocks.pair(u, v).to_bits(), apsp.get(u, v).to_bits());
        }
        assert_eq!(blocks.pairs_computed(), 4 + 4);
        assert!(blocks.vertices_settled() > 0);
    }

    #[test]
    fn group_block_paths_may_leave_the_group() {
        // Group {0, 3}: the weight-4 direct edge loses to the 0-1-2-3 path
        // through the *other* group, so the block must route outside.
        let g = weighted_square();
        let blocks = GroupBlocks::compute(&g, &[vec![0, 3]]);
        assert!((blocks.pair(0, 3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn early_termination_settles_fewer_vertices_than_full_runs() {
        // Long path, tight group at the front: the group Dijkstras stop
        // well before the far end of the path.
        let n = 64;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = WeightedGraph::from_edges(n, &edges);
        let blocks = GroupBlocks::compute(&g, &[vec![0, 1, 2, 3]]);
        // Each of the 4 runs stops within distance 3 of its source, so it
        // settles at most 7 path vertices — nowhere near the full 64.
        assert!(blocks.vertices_settled() <= 4 * 7);
        assert!((blocks.pair(0, 3) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "crosses group boundaries")]
    fn group_blocks_panic_on_cross_group_pair() {
        let g = weighted_square();
        let blocks = GroupBlocks::compute(&g, &[vec![0, 3], vec![1, 2]]);
        blocks.pair(0, 1);
    }

    #[test]
    fn pair_distances_trait_agrees_across_backends() {
        let g = weighted_square();
        let apsp = all_pairs_shortest_paths(&g);
        let rows = SourceRows::compute(&g, &[0, 1, 2, 3]);
        // With every vertex a source, SourceRows covers all pairs and the
        // averaging rule matches the dense matrix exactly.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    PairDistances::pair(&apsp, i, j).to_bits(),
                    rows.pair(i, j).to_bits()
                );
            }
        }
    }
}
