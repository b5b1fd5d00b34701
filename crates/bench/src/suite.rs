//! The benchmark data-set suite: scaled synthetic stand-ins for the 18 UCR
//! data sets of Table II.

use pfg_data::{correlation_and_dissimilarity, ucr_catalogue, UcrDatasetSpec};
use pfg_graph::SymmetricMatrix;

/// Configuration of the suite used by a harness run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Fraction of each data set's Table II size to generate (1.0 = paper
    /// scale). The harnesses default to a small scale so they finish in
    /// minutes on a laptop; pass a scale argument to run larger.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Maximum number of data sets (in Table II order) to include.
    pub max_datasets: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 20230309,
            max_datasets: usize::MAX,
        }
    }
}

/// One prepared benchmark data set: the generated series plus the derived
/// correlation and dissimilarity matrices.
#[derive(Debug, Clone)]
pub struct BenchDataset {
    /// Table II id.
    pub id: usize,
    /// Data-set name.
    pub name: String,
    /// The raw series (input of the k-means baselines).
    pub series: Vec<Vec<f64>>,
    /// Ground-truth labels.
    pub labels: Vec<usize>,
    /// Number of ground-truth classes.
    pub num_classes: usize,
    /// Pearson correlation matrix (input of TMFG/PMFG).
    pub correlation: SymmetricMatrix,
    /// Dissimilarity matrix `sqrt(2(1 − ρ))`.
    pub dissimilarity: SymmetricMatrix,
}

impl BenchDataset {
    /// Prepares one spec at the given scale. Both derived matrices come
    /// from one fused pass of the tiled kernel — the correlation is never
    /// materialised twice and never re-mapped into the dissimilarity.
    /// Every catalogue spec generates series of one length, which the
    /// tiled kernel requires.
    pub fn prepare(spec: &UcrDatasetSpec, config: &SuiteConfig) -> Self {
        let dataset = spec.generate(config.scale, config.seed);
        let (correlation, dissimilarity, _) = correlation_and_dissimilarity(&dataset.series);
        Self {
            id: spec.id,
            name: dataset.name.clone(),
            num_classes: dataset.num_classes(),
            series: dataset.series,
            labels: dataset.labels,
            correlation,
            dissimilarity,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if the data set is empty (never the case for catalogue specs).
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Prepares the full suite (all Table II entries, truncated to
/// `max_datasets`) at the configured scale.
pub fn build_suite(config: &SuiteConfig) -> Vec<BenchDataset> {
    ucr_catalogue()
        .iter()
        .take(config.max_datasets)
        .map(|spec| BenchDataset::prepare(spec, config))
        .collect()
}

/// Parses harness command-line arguments of the form
/// `[scale] [max_datasets]`, falling back to the defaults.
pub fn parse_scale_from_args() -> SuiteConfig {
    let mut config = SuiteConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(scale) = args.first().and_then(|a| a.parse::<f64>().ok()) {
        config.scale = scale;
    }
    if let Some(max) = args.get(1).and_then(|a| a.parse::<usize>().ok()) {
        config.max_datasets = max;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let spec = ucr_catalogue()[10]; // CBF
        let config = SuiteConfig {
            scale: 0.05,
            ..SuiteConfig::default()
        };
        let ds = BenchDataset::prepare(&spec, &config);
        assert_eq!(ds.correlation.n(), ds.len());
        assert_eq!(ds.dissimilarity.n(), ds.len());
        assert_eq!(ds.labels.len(), ds.len());
        assert!(ds.num_classes >= 2);
        assert!(!ds.is_empty());
    }

    #[test]
    fn build_suite_respects_max_datasets() {
        let config = SuiteConfig {
            scale: 0.02,
            max_datasets: 3,
            ..SuiteConfig::default()
        };
        let suite = build_suite(&config);
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[0].id, 1);
    }
}
