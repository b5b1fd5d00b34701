//! Graph substrate for the parallel filtered-graph clustering pipeline.
//!
//! The paper's algorithms consume a complete weighted graph given as an
//! `n × n` similarity matrix ([`SymmetricMatrix`]) and produce sparse planar
//! graphs ([`WeightedGraph`]) on which the DBHT algorithm runs breadth-first
//! searches, Dijkstra single-source shortest paths, and all-pairs shortest
//! paths. The PMFG additionally needs a planarity test: the scratch-reusing
//! left–right core ([`planarity::LrScratch`]) tests a borrowed graph plus
//! one speculative edge without cloning, mutating, or allocating, which is
//! what the round-based parallel PMFG hammers in its batch phase.
//!
//! Everything here is implemented from scratch on top of the standard
//! library plus rayon for parallel loops.

pub mod bfs;
pub mod matrix;
pub mod planarity;
pub mod shortest_paths;
pub mod similarity;
pub mod union_find;
pub mod weighted_graph;

pub use bfs::{bfs_distances, bfs_reachable, bfs_reachable_within};
pub use matrix::{SymmetricMatrix, SymmetricMatrixF32};
pub use planarity::{is_planar, stays_planar_with_edge, LrScratch};
pub use shortest_paths::{
    all_pairs_shortest_paths, dijkstra, group_restricted_shortest_paths, shortest_path_rows,
    GroupBlocks, PairDistances, SourceRows,
};
pub use similarity::{DissimilarityView, SimilaritySource};
pub use union_find::UnionFind;
pub use weighted_graph::WeightedGraph;
