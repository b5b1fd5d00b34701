//! Baseline clustering methods the paper compares PAR-TDBHT against (§VII):
//!
//! * [`hac()`] — hierarchical agglomerative clustering with complete or
//!   average linkage (the COMP and AVG baselines), implemented with the
//!   nearest-neighbor-chain algorithm over a parallel-built distance
//!   matrix;
//! * [`kmeans()`] — k-means with scalable k-means|| seeding (the K-MEANS
//!   baseline);
//! * [`spectral`] — a k-nearest-neighbor spectral embedding used as the
//!   preprocessing step of the K-MEANS-S baseline (and of the stock
//!   experiment).
//!
//! All methods are deterministic given their seeds and parallelised with
//! rayon where the paper's baselines are parallel.

pub mod hac;
pub mod kmeans;
pub mod spectral;

pub use hac::{hac, Linkage};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use spectral::{spectral_embedding, SpectralConfig};
