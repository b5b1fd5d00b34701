//! Graph substrate for the parallel filtered-graph clustering pipeline.
//!
//! The paper's algorithms consume a complete weighted graph given as an
//! `n × n` similarity matrix ([`SymmetricMatrix`]) and produce sparse planar
//! graphs ([`WeightedGraph`]) on which the DBHT algorithm runs breadth-first
//! searches and shortest paths, with the correlation [`dissimilarity`]
//! `d = sqrt(2 (1 − ρ))` as edge length. One Dijkstra engine serves two
//! demand-driven stores: [`SourceRows`] (full rows for chosen sources;
//! over every vertex, the dense all-pairs matrix) and [`GroupBlocks`]
//! (per-group blocks from early-terminating runs). The PMFG additionally
//! needs a planarity test: the scratch-reusing left–right core
//! ([`planarity::LrScratch`]) tests a borrowed graph plus one speculative
//! edge without cloning, mutating, or allocating, which is what the
//! round-based parallel PMFG hammers in its batch phase.
//!
//! Everything here is implemented from scratch on top of the standard
//! library plus rayon for parallel loops, in safe code only.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod matrix;
pub mod planarity;
pub mod shortest_paths;
pub mod similarity;
pub mod weighted_graph;

pub use bfs::bfs_reachable_within;
pub use matrix::{SymmetricMatrix, SymmetricMatrixF32};
pub use planarity::{is_planar, LrScratch};
pub use shortest_paths::{GroupBlocks, PairDistances, SourceRows};
pub use similarity::{dissimilarity, DissimilarityView, SimilaritySource};
pub use weighted_graph::WeightedGraph;
