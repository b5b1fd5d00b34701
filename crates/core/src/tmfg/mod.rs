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
//! candidate lists are maintained lazily (see [`GainTable`]) and rebuilt in
//! parallel only for newly created faces and for faces whose cached
//! candidates ran dry. With `prefix = 1` the construction is identical to
//! the sequential TMFG of Massara et al.
//!
//! The bubble tree (Algorithm 2) is maintained during construction at no
//! extra asymptotic cost and is returned alongside the graph.

mod builder;
mod gains;

pub use builder::{tmfg, tmfg_sequential, BatchFreshness, Insertion, RoundStats, Tmfg, TmfgConfig};
pub use gains::{CandidateList, GainTable, NextBest, MAX_CACHE_DEPTH, MIN_CACHE_DEPTH};
