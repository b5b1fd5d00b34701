//! Parallel filtered graphs (TMFG / PMFG) and DBHT hierarchical clustering.
//!
//! This crate is the primary contribution of *Parallel Filtered Graphs for
//! Hierarchical Clustering* (Yu & Shun, ICDE 2023):
//!
//! * [`mod@tmfg`] — the parallel Triangulated Maximally Filtered Graph
//!   construction (Algorithm 1), including the prefix-batched variant that
//!   inserts multiple vertices per round, and the sequential TMFG as the
//!   `prefix = 1` special case;
//! * [`mod@pmfg`] — the Planar Maximally Filtered Graph as a round-based
//!   parallel construction (speculative batch tests with final monotone
//!   rejections), plus the sequential baseline it is differentially
//!   tested against;
//! * [`bubble_tree`] — the bubble tree built on the fly during TMFG
//!   construction (Algorithm 2);
//! * [`dbht`] — the parallel Directed Bubble Hierarchy Tree optimized for
//!   TMFG inputs: edge direction (Algorithm 3), vertex assignment and the
//!   three-level complete-linkage hierarchy (Algorithm 4);
//! * [`dendrogram`] — the dendrogram output type with height assignment and
//!   cluster-extraction utilities;
//! * [`pipeline`] — a one-call `similarity matrix → clusters` pipeline with
//!   per-stage timing (used by the runtime-breakdown experiments).
//!
//! # Quick example
//!
//! ```
//! use pfg_core::pipeline::ParTdbht;
//! use pfg_graph::SymmetricMatrix;
//!
//! // A tiny correlation matrix with two obvious groups {0,1,2} and {3,4,5}.
//! let n = 6;
//! let s = SymmetricMatrix::from_fn(n, |i, j| {
//!     if i == j { 1.0 } else if (i < 3) == (j < 3) { 0.8 } else { 0.1 }
//! });
//! let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
//! let result = ParTdbht::default().run(&s, &d).unwrap();
//! let labels = result.dendrogram.cut_to_clusters(2);
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[3], labels[4]);
//! assert_ne!(labels[0], labels[3]);
//! ```

pub mod bubble_tree;
pub mod dbht;
pub mod dendrogram;
pub mod error;
pub mod face;
pub mod pipeline;
pub mod pmfg;
pub mod schedule;
pub mod tmfg;

pub use bubble_tree::{Bubble, BubbleTree};
pub use dbht::{
    dbht_for_planar_graph, dbht_for_tmfg, Dbht, DbhtDistances, DbhtRunStats, VertexAssignment,
};
pub use dendrogram::Dendrogram;
pub use error::CoreError;
pub use face::Triangle;
pub use pipeline::{ParTdbht, ParTdbhtResult, StageTimings};
pub use pmfg::{pmfg, pmfg_sequential, pmfg_with_config, Pmfg, PmfgConfig};
pub use schedule::BatchSchedule;
pub use tmfg::{tmfg, Tmfg, TmfgConfig};
pub use tmfg::{BatchFreshness, RoundStats};
