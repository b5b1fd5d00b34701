//! Demand-driven shortest paths over the sparse filtered graphs.
//!
//! The DBHT needs shortest paths over the dissimilarity-weighted filtered
//! graph (Algorithm 4, line 7); the paper runs one Dijkstra per source in
//! parallel (§VI). The DBHT, however, never reads most of the `n²`
//! entries: the hierarchy consumes distances *within* each first-level
//! group plus a handful of rows anchored at the converging bubbles. Two
//! stores compute exactly those distances:
//!
//! * [`SourceRows::compute`] — full rows for a chosen source set, each
//!   Dijkstra writing straight into its own output row;
//! * [`GroupBlocks::compute`] — per-group dense blocks, each Dijkstra
//!   stopping as soon as its whole group is settled.
//!
//! That cuts the output from `n²` to `O(Σ group² + |sources|·n)` and the
//! work from `n` full Dijkstras to mostly early-terminated ones. With every
//! vertex a source, [`SourceRows`] *is* the dense all-pairs matrix.
//!
//! Both stores run the one private Dijkstra. A run settles vertices in the
//! same order whether or not it stops early, so a settled vertex's
//! distance is bitwise the same in a full row and in an early-terminated
//! block. Each source run is a pool job (`with_max_len(1)`); the
//! executor's work stealing keeps one expensive source from gating the
//! round.
//!
//! Both stores also average the two directed runs of a pair whose
//! endpoints were both sources, `0.5 * (forward + backward)`. The graph is
//! undirected, but the two runs add the same path's lengths in opposite
//! orders (or pick different paths of equal length), so they can differ in
//! the last bits. The average makes `pair(u, v) == pair(v, u)` bitwise,
//! which keeps complete linkage independent of argument order, and
//! because both stores apply the same rule, a pair served by both gets the
//! same bits from either.

use crate::matrix::SymmetricMatrix;
use crate::weighted_graph::WeightedGraph;
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

/// Dijkstra from `source` over the (non-negative) edge weights, writing
/// into `dist`, a row of length `num_vertices` that the caller hands in
/// with every entry `f64::INFINITY` (checked in debug builds only: the
/// caller fills the row, or allocates it that way, so a second fill here
/// would write it twice). Unreached vertices keep `f64::INFINITY`.
///
/// Without `targets` the run goes to exhaustion. With
/// `Some((is_target, count))` it stops as soon as all `count` flagged
/// vertices are settled; the other entries are then only tentative, so
/// callers read targets only. Returns the number of vertices settled, the
/// work measure behind [`GroupBlocks::vertices_settled`].
fn dijkstra(
    graph: &WeightedGraph,
    source: usize,
    targets: Option<(&[bool], usize)>,
    dist: &mut [f64],
) -> usize {
    let n = graph.num_vertices();
    debug_assert_eq!(dist.len(), n);
    debug_assert!(
        dist.iter().all(|&d| d == f64::INFINITY),
        "Dijkstra needs an all-infinite row"
    );
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    let mut settled = 0usize;
    let mut targets_left = targets.map_or(0, |(_, count)| count);
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
        if let Some((is_target, _)) = targets {
            if is_target[u] {
                targets_left -= 1;
                if targets_left == 0 {
                    break;
                }
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

/// The mirrored-pair rule both stores share: `rows` holds one run of
/// length `width` per source, and `col(i)` is source `i`'s column in
/// them. For every pair of sources `a < b`, the run from `a` to `b` and
/// the run from `b` to `a` are replaced by `0.5 * (forward + backward)`.
fn average_mirrored_pairs(rows: &mut [f64], width: usize, col: impl Fn(usize) -> usize) {
    let count = rows.len().checked_div(width).unwrap_or(0);
    for a in 0..count {
        for b in (a + 1)..count {
            let (forward, backward) = (a * width + col(b), b * width + col(a));
            let avg = 0.5 * (rows[forward] + rows[backward]);
            rows[forward] = avg;
            rows[backward] = avg;
        }
    }
}

/// Read access to pairwise distances, implemented by a dense
/// [`SymmetricMatrix`] and by the demand-driven stores, so distance
/// consumers can run on either.
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

/// Full shortest-path rows for a chosen set of source vertices: the
/// demand-driven replacement for the `|sources| ≪ n` slice of the APSP
/// matrix (the DBHT needs full rows only for converging-bubble vertices).
///
/// Rows come from one Dijkstra per source, in parallel, and entries
/// between two sources average both directed runs (see the module docs),
/// so [`SourceRows::pair`] is symmetric wherever both directions were
/// computed. For a source/non-source pair only the source-anchored
/// direction exists; it is returned as-is, which can differ in the last
/// bits from the averaged entry of a store where both endpoints are
/// sources. With every vertex a source, this is the dense all-pairs
/// matrix.
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
        // `with_max_len(1)`: each row is a whole Dijkstra run, so declare
        // it heavy — without the hint the executor's cheap-item heuristic
        // would run small source sets entirely inline. `n.max(1)` keeps
        // the chunk size valid on an empty graph. Each job fills its own
        // row with the +∞ that `dijkstra` requires, so the fill runs in
        // parallel and the zeroed allocation is not written twice.
        rows.par_chunks_mut(n.max(1))
            .with_max_len(1)
            .enumerate()
            .for_each(|(i, row)| {
                row.fill(f64::INFINITY);
                dijkstra(graph, sources[i], None, row);
            });
        average_mirrored_pairs(&mut rows, n, |i| sources[i]);
        Self {
            n,
            sources,
            row_of,
            rows,
        }
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
/// Each block averages both directed runs of every member pair, the rule
/// [`SourceRows`] applies to source pairs, so block entries are bitwise
/// equal to the entries of [`SourceRows`] over all vertices (the dense
/// matrix) for the same pairs.
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
                        let settled = dijkstra(graph, g_ref[li], Some((is_target, m)), &mut dist);
                        for (lj, &t) in g_ref.iter().enumerate() {
                            row[lj] = dist[t];
                        }
                        settled
                    })
                    .collect()
            };
            settled_total += settled_rows.iter().sum::<usize>();
            average_mirrored_pairs(&mut block, m, |i| i);
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

    /// Whether `u` and `v` lie in the same group (and thus have a block
    /// entry).
    #[inline]
    pub fn same_group(&self, u: usize, v: usize) -> bool {
        self.group_of[u] != usize::MAX && self.group_of[u] == self.group_of[v]
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

    /// Every vertex of `g`, as a source set or a single group.
    fn all_vertices(g: &WeightedGraph) -> Vec<usize> {
        (0..g.num_vertices()).collect()
    }

    #[test]
    fn dijkstra_prefers_longer_hop_path_with_smaller_weight() {
        let g = weighted_square();
        let rows = SourceRows::compute(&g, &[0]);
        let d = rows.row(0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 3.0); // via 1,2 not the direct weight-4 edge
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let rows = SourceRows::compute(&g, &[0]);
        assert!(rows.row(0)[2].is_infinite());
    }

    #[test]
    fn apsp_matches_per_source_dijkstra() {
        // Every vertex a source: each pair averages its two directed runs,
        // which must agree with the one-directional run from either end.
        let g = weighted_square();
        let apsp = SourceRows::compute(&g, &all_vertices(&g));
        for s in 0..4 {
            let single = SourceRows::compute(&g, &[s]);
            for (t, &dt) in single.row(s).iter().enumerate() {
                assert!((apsp.pair(s, t) - dt).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apsp_is_symmetric_with_zero_diagonal() {
        let g = weighted_square();
        let apsp = SourceRows::compute(&g, &all_vertices(&g));
        for i in 0..4 {
            assert_eq!(apsp.pair(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(apsp.pair(i, j), apsp.pair(j, i));
            }
        }
    }

    #[test]
    fn apsp_satisfies_triangle_inequality() {
        let g = weighted_square();
        let apsp = SourceRows::compute(&g, &all_vertices(&g));
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    assert!(apsp.pair(i, j) <= apsp.pair(i, k) + apsp.pair(k, j) + 1e-12);
                }
            }
        }
    }

    /// Floyd–Warshall over the adjacency lists: an all-pairs oracle that
    /// shares no code with the Dijkstra engine. Row-major `n × n`.
    fn floyd_warshall(g: &WeightedGraph) -> Vec<f64> {
        let n = g.num_vertices();
        let mut d = vec![f64::INFINITY; n * n];
        for u in 0..n {
            d[u * n + u] = 0.0;
            for &(v, w) in g.neighbors(u) {
                d[u * n + v] = d[u * n + v].min(w);
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                for j in 0..n {
                    let through = dik + d[k * n + j];
                    if through < d[i * n + j] {
                        d[i * n + j] = through;
                    }
                }
            }
        }
        d
    }

    /// A seeded sparse graph on `n` vertices in two connected pieces, the
    /// first `3n/4` vertices and the rest, with no edge between them. A
    /// quarter of the weights are 0, a quarter exactly 1 (many
    /// equal-length paths), the rest uniform in `[0, 2)`. Also returns
    /// the piece boundary.
    fn random_sparse_graph(n: usize, seed: u64) -> (WeightedGraph, usize) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> 11
        };
        let split = (3 * n / 4).max(1).min(n);
        let mut g = WeightedGraph::new(n);
        let mut pairs = Vec::new();
        // A random spanning tree on each piece, then extra edges.
        for (lo, hi) in [(0, split), (split, n)] {
            for v in (lo + 1)..hi {
                pairs.push((lo + next() as usize % (v - lo), v));
            }
            for _ in lo..hi {
                let (u, v) = (next() as usize % (hi - lo), next() as usize % (hi - lo));
                pairs.push((lo + u, lo + v));
            }
        }
        for (u, v) in pairs {
            if u != v && !g.has_edge(u, v) {
                let w = match next() % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => 2.0 * (next() as f64 / (1u64 << 53) as f64),
                };
                g.add_edge(u, v, w);
            }
        }
        (g, split)
    }

    /// `got` equals the oracle's `want` within 1e-12 relative; infinite
    /// exactly when `want` is.
    fn assert_close(got: f64, want: f64, what: &str) {
        if want.is_infinite() {
            assert!(got.is_infinite(), "{what}: {got} vs ∞");
        } else {
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{what}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn stores_match_floyd_warshall_on_random_sparse_graphs() {
        for n in [1usize, 2, 5, 17, 32, 40] {
            for seed in 1..=4u64 {
                let (g, split) = random_sparse_graph(n, seed);
                let oracle = floyd_warshall(&g);
                let all = all_vertices(&g);
                let rows = SourceRows::compute(&g, &all);
                for u in 0..n {
                    assert_eq!(rows.pair(u, u), 0.0);
                    for v in 0..n {
                        let want = oracle[u * n + v];
                        let what = format!("n={n} seed={seed} rows ({u}, {v})");
                        assert_eq!(want.is_infinite(), (u < split) != (v < split), "{what}");
                        let got = rows.row(u)[v];
                        assert_close(got, want, &what);
                        assert_eq!(got.to_bits(), rows.row(v)[u].to_bits(), "{what}");
                    }
                }
                // Runs of consecutive ids make compact groups whose runs stop
                // early; residues mod 3 straddle both pieces, so their runs
                // never settle every target and keep infinite entries.
                let by_range: Vec<Vec<usize>> = all.chunks(3).map(|c| c.to_vec()).collect();
                let by_residue: Vec<Vec<usize>> = (0..3)
                    .map(|r| all.iter().copied().filter(|v| v % 3 == r).collect())
                    .collect();
                for groups in [by_range, by_residue] {
                    let blocks = GroupBlocks::compute(&g, &groups);
                    for u in 0..n {
                        assert_eq!(blocks.pair(u, u), 0.0);
                        for v in (0..n).filter(|&v| blocks.same_group(u, v)) {
                            let what = format!("n={n} seed={seed} blocks ({u}, {v})");
                            let got = blocks.pair(u, v);
                            assert_close(got, oracle[u * n + v], &what);
                            assert_eq!(got.to_bits(), blocks.pair(v, u).to_bits(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stores_are_empty_on_an_empty_graph() {
        let g = WeightedGraph::new(0);
        let rows = SourceRows::compute(&g, &[]);
        assert_eq!(rows.num_vertices(), 0);
        assert!(rows.sources().is_empty());
        assert_eq!(rows.pairs_computed(), 0);
        let blocks = GroupBlocks::compute(&g, &[]);
        assert_eq!(blocks.num_vertices(), 0);
        assert_eq!(blocks.pairs_computed(), 0);
        assert_eq!(blocks.vertices_settled(), 0);
    }

    /// A path graph with uneven weights: 0 -1- 1 -2- 2 -1- 3 -5- 4.
    fn weighted_path() -> WeightedGraph {
        WeightedGraph::from_edges(5, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 5.0)])
    }

    #[test]
    fn source_rows_match_full_apsp_on_source_pairs_bitwise() {
        let g = weighted_path();
        let apsp = SourceRows::compute(&g, &all_vertices(&g));
        let rows = SourceRows::compute(&g, &[3, 0, 3]);
        assert_eq!(rows.sources(), &[0, 3]);
        assert_eq!(rows.pairs_computed(), 2 * 5);
        // Source pairs average the same two runs as the full matrix →
        // bitwise.
        assert_eq!(rows.pair(0, 3).to_bits(), apsp.pair(0, 3).to_bits());
        // Source × non-source pairs are one-directional but still the same
        // shortest-path value.
        for v in 0..5 {
            assert!((rows.pair(0, v) - apsp.pair(0, v)).abs() < 1e-12);
            assert!((rows.pair(v, 3) - apsp.pair(v, 3)).abs() < 1e-12);
        }
    }

    #[test]
    fn both_stores_average_the_two_directed_runs() {
        // The run from 0 adds this path's lengths in the opposite order to
        // the run from 4; the sums differ by two ulps, and their average
        // equals neither.
        let g =
            WeightedGraph::from_edges(5, &[(0, 1, 0.2), (1, 2, 0.1), (2, 3, 0.3), (3, 4, 0.05)]);
        let forward = SourceRows::compute(&g, &[0]).row(0)[4];
        let backward = SourceRows::compute(&g, &[4]).row(4)[0];
        let avg = 0.5 * (forward + backward);
        assert!(avg != forward && avg != backward && forward != backward);
        let rows = SourceRows::compute(&g, &[0, 4]);
        let blocks = GroupBlocks::compute(&g, &[vec![0, 4]]);
        assert_eq!(rows.row(0)[4].to_bits(), avg.to_bits());
        assert_eq!(rows.row(4)[0].to_bits(), avg.to_bits());
        assert_eq!(blocks.pair(0, 4).to_bits(), avg.to_bits());
        assert_eq!(blocks.pair(4, 0).to_bits(), avg.to_bits());
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
        let apsp = SourceRows::compute(&g, &all_vertices(&g));
        let blocks = GroupBlocks::compute(&g, &[vec![0, 3], vec![1, 2]]);
        for (u, v) in [(0, 3), (3, 0), (1, 2), (2, 1), (0, 0), (2, 2)] {
            assert_eq!(blocks.pair(u, v).to_bits(), apsp.pair(u, v).to_bits());
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
        fn read<D: PairDistances>(d: &D, i: usize, j: usize) -> u64 {
            d.pair(i, j).to_bits()
        }
        let g = weighted_square();
        let all = all_vertices(&g);
        let rows = SourceRows::compute(&g, &all);
        // One group of every vertex: each run settles the whole graph, so
        // the block is the full matrix too.
        let blocks = GroupBlocks::compute(&g, &[all]);
        let dense = SymmetricMatrix::from_fn(4, |i, j| rows.pair(i, j));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(read(&rows, i, j), read(&blocks, i, j));
                assert_eq!(read(&rows, i, j), read(&dense, i, j));
            }
        }
        assert_eq!(PairDistances::num_vertices(&dense), 4);
    }
}
