//! Triangulated Maximally Filtered Graph construction (§IV, Algorithm 1).
//!
//! The TMFG approximates the NP-hard Weighted Maximum Planar Graph problem
//! by starting from the 4-clique of the four vertices with the largest row
//! sums and repeatedly inserting a remaining vertex into a triangular face,
//! adding the three edges to the face corners that maximise the gain.
//!
//! The parallel algorithm of the paper inserts up to `PREFIX` vertices per
//! round. Selection is conflict-aware: candidate `(face, vertex, gain)`
//! pairs are drawn in decreasing gain order and a vertex claimed by several
//! faces goes to the maximum-gain pair, while every losing face re-enters
//! the draw with its next-best remaining vertex, so conflicts shrink
//! neither the batch nor the candidate pool — each round inserts exactly
//! `min(PREFIX, |remaining|, |active faces|)` vertices. The per-face
//! candidate lists are maintained lazily by the private gain table: newly
//! created faces are scanned every round, three per insertion off one
//! fused scan of the remaining pool, while a face whose truncated list ran
//! dry keeps its last gain as an upper bound and is rescanned only when
//! that bound reaches the top of the batch selector, a max-tree over
//! faces. Lazy maintenance changes no selection: with `prefix = 1` the
//! construction is identical to the sequential TMFG of Massara et al.
//!
//! The bubble tree (Algorithm 2) is maintained during construction at no
//! extra asymptotic cost and is returned alongside the graph.

mod builder;
mod gains;

pub use builder::{tmfg, BatchFreshness, Insertion, RoundStats, Tmfg, TmfgConfig};

/// Asserts the conflict-aware selector's defining invariant on the
/// insertion trace: each round inserted exactly
/// `min(prefix, |remaining|, |active faces|)` vertices, counted at the
/// round's start.
#[cfg(test)]
pub(crate) fn assert_every_round_fills(t: &Tmfg, prefix: usize) {
    let mut sizes = vec![0usize; t.rounds];
    for ins in &t.insertions {
        sizes[ins.round - 1] += 1;
    }
    let mut remaining = t.num_vertices() - 4;
    let mut active_faces = 4usize;
    for (i, &size) in sizes.iter().enumerate() {
        let expect = prefix.min(remaining).min(active_faces);
        assert_eq!(
            size,
            expect,
            "round {}: under-filled (prefix {prefix})",
            i + 1
        );
        remaining -= size;
        active_faces += 2 * size;
    }
    assert_eq!(remaining, 0);
}
