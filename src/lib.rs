//! # par-filtered-graph-clustering
//!
//! A Rust implementation of *Parallel Filtered Graphs for Hierarchical
//! Clustering* (Yu & Shun, ICDE 2023): parallel construction of
//! Triangulated Maximally Filtered Graphs (TMFG), the Planar Maximally
//! Filtered Graph (PMFG) baseline, and a parallel Directed Bubble
//! Hierarchy Tree (DBHT) clustering algorithm optimised for TMFG inputs —
//! together with the baselines (hierarchical agglomerative clustering,
//! k-means, spectral embedding), synthetic data generators, and evaluation
//! metrics used by the paper's experiments.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! * [`core`] ([`pfg_core`]) — TMFG, PMFG, bubble trees, DBHT, dendrograms;
//! * [`graph`] ([`pfg_graph`]) — matrices, weighted graphs, shortest paths,
//!   planarity testing;
//! * [`primitives`] ([`pfg_primitives`]) — the parallel sort, the
//!   allow-file parser and the disjoint-write audit types;
//! * [`baselines`] ([`pfg_baselines`]) — COMP/AVG linkage, k-means,
//!   spectral embedding;
//! * [`data`] ([`pfg_data`]) — synthetic UCR-like time series and the stock
//!   market factor model;
//! * [`metrics`] ([`pfg_metrics`]) — ARI and AMI.
//!
//! # Quickstart
//!
//! ```
//! use par_filtered_graph_clustering::prelude::*;
//!
//! // Generate a small labeled time-series data set and cluster it.
//! let config = TimeSeriesConfig { num_series: 60, length: 96, num_classes: 3, noise: 0.3, seed: 1 };
//! let dataset = TimeSeriesDataset::generate("quickstart", &config);
//! let correlation = correlation_matrix(&dataset.series);
//! let dissimilarity = dissimilarity_from_correlation(&correlation);
//!
//! let result = ParTdbht::with_prefix(5).run(&correlation, &dissimilarity).unwrap();
//! let labels = result.clusters(dataset.num_classes());
//! let ari = adjusted_rand_index(&dataset.labels, &labels);
//! assert!(ari > 0.3);
//! ```

pub use pfg_baselines as baselines;
pub use pfg_core as core;
pub use pfg_data as data;
pub use pfg_graph as graph;
pub use pfg_metrics as metrics;
pub use pfg_primitives as primitives;

/// Commonly used items, importable with a single `use`.
pub mod prelude {
    pub use pfg_baselines::{
        hac, kmeans, spectral_embedding, KMeansConfig, Linkage, SpectralConfig,
    };
    pub use pfg_core::dbht::{
        build_hierarchy, converging_vertices, dbht_for_planar_graph, dbht_for_tmfg,
        dissimilarity_graph, restricted_distances,
    };
    pub use pfg_core::{
        pmfg, pmfg_sequential, tmfg, BatchFreshness, Dbht, DbhtDistances, DbhtRunStats, Dendrogram,
        ParTdbht, ParTdbhtResult, Pmfg, RoundStats, Tmfg, TmfgConfig, VertexAssignment,
    };
    pub use pfg_data::{
        correlation_and_dissimilarity, correlation_matrix, correlation_matrix_f32,
        dissimilarity_from_correlation, ucr_catalogue, StockMarket, StockMarketConfig, TileConfig,
        TimeSeriesConfig, TimeSeriesDataset, SECTORS,
    };
    pub use pfg_graph::{
        DissimilarityView, GroupBlocks, LrScratch, PairDistances, SimilaritySource, SourceRows,
        SymmetricMatrix, SymmetricMatrixF32, WeightedGraph,
    };
    pub use pfg_metrics::{adjusted_mutual_information, adjusted_rand_index};
}
