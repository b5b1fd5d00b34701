//! Synthetic data generation for the filtered-graph clustering experiments.
//!
//! The paper evaluates on 18 data sets from the UCR Time Series
//! Classification Archive (Table II) and on daily closing prices of 1614 US
//! stocks with ICB industry labels. Neither source is available offline, so
//! this crate provides generators that reproduce the *structure* those
//! experiments rely on (README, "Reproducing the paper's figures and
//! tables", gives the substitution rationale):
//!
//! * [`time_series`] — labeled synthetic time series built from per-class
//!   archetype signals plus amplitude/phase jitter and noise, so that the
//!   Pearson-correlation matrix has the block structure the clustering
//!   algorithms exploit;
//! * [`ucr`] — a catalogue mirroring Table II (same `n`, length and class
//!   counts), with a scaling knob so the benchmark harnesses can run at
//!   laptop-friendly sizes;
//! * [`stocks`] — a sector factor model of a stock market (11 ICB-style
//!   sectors, market + sector + idiosyncratic returns, log-normal market
//!   caps) with the detrended log-return preprocessing of Musmeci et al.;
//! * [`correlation`] — Pearson correlation matrices of uniform-length
//!   series (ragged input is rejected) and the `d = sqrt(2 (1 − ρ))`
//!   dissimilarity transform.

pub mod correlation;
pub mod stocks;
pub mod time_series;
pub mod ucr;

pub use correlation::{
    correlation_and_dissimilarity, correlation_matrix, correlation_matrix_f32,
    correlation_matrix_with, dissimilarity_from_correlation, CorrelationKernelStats, TileConfig,
};
pub use stocks::{StockMarket, StockMarketConfig, SECTORS};
pub use time_series::{TimeSeriesConfig, TimeSeriesDataset};
pub use ucr::{ucr_catalogue, UcrDatasetSpec};
