//! A uniform interface over every clustering method the paper evaluates.

use std::time::{Duration, Instant};

use pfg_baselines::{hac, kmeans, spectral_embedding, KMeansConfig, Linkage, SpectralConfig};
use pfg_core::dbht::{dbht_for_planar_graph, dbht_for_tmfg};
use pfg_core::{pmfg, tmfg, ParTdbht, Pmfg, Tmfg, TmfgConfig};
use pfg_metrics::adjusted_rand_index;

use crate::suite::BenchDataset;

/// The clustering methods compared in §VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// PAR-TDBHT with the given TMFG prefix size.
    ParTdbht { prefix: usize },
    /// Sequential TMFG + DBHT (equivalent to `ParTdbht { prefix: 1 }` but
    /// reported separately, mirroring SEQ-TDBHT).
    SeqTdbht,
    /// PMFG construction + DBHT (the PMFG-DBHT baseline).
    PmfgDbht,
    /// Complete-linkage agglomerative clustering (COMP).
    CompleteLinkage,
    /// Average-linkage agglomerative clustering (AVG).
    AverageLinkage,
    /// Scalable k-means++ on the raw series (K-MEANS).
    KMeans,
    /// Spectral embedding followed by k-means (K-MEANS-S) with β neighbors.
    KMeansSpectral { neighbors: usize },
}

impl Method {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Method::ParTdbht { prefix } => format!("PAR-TDBHT-{prefix}"),
            Method::SeqTdbht => "SEQ-TDBHT".into(),
            Method::PmfgDbht => "PMFG-DBHT".into(),
            Method::CompleteLinkage => "COMP".into(),
            Method::AverageLinkage => "AVG".into(),
            Method::KMeans => "K-MEANS".into(),
            Method::KMeansSpectral { neighbors } => format!("K-MEANS-S(b={neighbors})"),
        }
    }
}

/// The outcome of running one method on one data set.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// Predicted cluster labels.
    pub labels: Vec<usize>,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// ARI against the data set's ground truth.
    pub ari: f64,
    /// The filtered graph and its construction counters, for the
    /// TMFG-based methods.
    pub tmfg: Option<Tmfg>,
    /// The filtered graph and its construction counters, for the
    /// PMFG-based method.
    pub pmfg: Option<Pmfg>,
}

/// Runs `method` on `dataset`, cutting dendrograms to the ground-truth
/// class count (the evaluation protocol of §VII).
pub fn run_method(method: Method, dataset: &BenchDataset) -> MethodOutput {
    let k = dataset.num_classes;
    let start = Instant::now();
    let (labels, tmfg, pmfg) = match method {
        Method::ParTdbht { prefix } => {
            let result = ParTdbht::with_prefix(prefix)
                .run(&dataset.correlation, &dataset.dissimilarity)
                .expect("valid benchmark matrices");
            (result.clusters(k), Some(result.tmfg), None)
        }
        Method::SeqTdbht => {
            let t = tmfg(&dataset.correlation, TmfgConfig::with_prefix(1))
                .expect("valid benchmark matrices");
            let dbht = dbht_for_tmfg(&t, &dataset.dissimilarity).expect("valid DBHT input");
            (dbht.dendrogram.cut_to_clusters(k), Some(t), None)
        }
        Method::PmfgDbht => {
            let p = pmfg(&dataset.correlation).expect("valid benchmark matrices");
            let dbht =
                dbht_for_planar_graph(&p.graph, &dataset.dissimilarity).expect("valid DBHT input");
            (dbht.dendrogram.cut_to_clusters(k), None, Some(p))
        }
        Method::CompleteLinkage => (
            hac(&dataset.dissimilarity, Linkage::Complete).cut_to_clusters(k),
            None,
            None,
        ),
        Method::AverageLinkage => (
            hac(&dataset.dissimilarity, Linkage::Average).cut_to_clusters(k),
            None,
            None,
        ),
        Method::KMeans => {
            let result = kmeans(
                &dataset.series,
                &KMeansConfig {
                    k,
                    seed: 1,
                    ..KMeansConfig::default()
                },
            );
            (result.labels, None, None)
        }
        Method::KMeansSpectral { neighbors } => {
            let embedded = spectral_embedding(
                &dataset.series,
                &SpectralConfig {
                    neighbors,
                    dimensions: k,
                    iterations: 120,
                    seed: 1,
                },
            );
            let result = kmeans(
                &embedded,
                &KMeansConfig {
                    k,
                    seed: 1,
                    ..KMeansConfig::default()
                },
            );
            (result.labels, None, None)
        }
    };
    let elapsed = start.elapsed();
    let ari = adjusted_rand_index(&dataset.labels, &labels);
    MethodOutput {
        labels,
        elapsed,
        ari,
        tmfg,
        pmfg,
    }
}

/// The counter line the figure tables print under a PMFG row, and the
/// suffix that carries the same counters in its `Record`'s `params`.
/// `spec_eff` is the share of rejections decided speculatively in
/// parallel, off the critical path (`1.0` when nothing was rejected).
pub fn pmfg_summary(p: &Pmfg) -> (String, String) {
    let spec_eff = if p.rejections == 0 {
        1.0
    } else {
        p.parallel_rejections as f64 / p.rejections as f64
    };
    let line = format!(
        "pmfg rounds={} examined={} par_rej={}/{} spec_eff={spec_eff:.3}",
        p.rounds, p.candidates_examined, p.parallel_rejections, p.rejections
    );
    let params = format!(
        ",rounds={},par_rej={},rej={}",
        p.rounds, p.parallel_rejections, p.rejections
    );
    (line, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{BenchDataset, SuiteConfig};
    use pfg_data::ucr_catalogue;

    #[test]
    fn every_method_runs_on_a_tiny_dataset() {
        let spec = ucr_catalogue()[14]; // SonyAIBORobotSurface2 (small, 2 classes)
        let config = SuiteConfig {
            scale: 0.03,
            ..SuiteConfig::default()
        };
        let dataset = BenchDataset::prepare(&spec, &config);
        let methods = [
            Method::ParTdbht { prefix: 10 },
            Method::SeqTdbht,
            Method::PmfgDbht,
            Method::CompleteLinkage,
            Method::AverageLinkage,
            Method::KMeans,
            Method::KMeansSpectral { neighbors: 8 },
        ];
        for method in methods {
            let output = run_method(method, &dataset);
            assert_eq!(output.labels.len(), dataset.len(), "{}", method.name());
            assert!(output.ari >= -1.0 && output.ari <= 1.0);
            assert!(output.elapsed.as_nanos() > 0);
            // Each graph-construction method carries its own filtered
            // graph and counters; the others carry none.
            if method == Method::PmfgDbht {
                let p = output.pmfg.as_ref().expect("PMFG carries its graph");
                assert!(p.rounds >= 1);
                assert!(p.parallel_rejections <= p.rejections);
                assert_eq!(p.graph.num_vertices(), dataset.len());
            } else {
                assert!(output.pmfg.is_none(), "{}", method.name());
            }
            let tmfg_based = matches!(method, Method::ParTdbht { .. } | Method::SeqTdbht);
            if tmfg_based {
                let t = output
                    .tmfg
                    .as_ref()
                    .expect("TMFG methods carry their graph");
                assert!(t.rounds >= 1, "{}", method.name());
                assert_eq!(t.num_vertices(), dataset.len(), "{}", method.name());
            } else {
                assert!(output.tmfg.is_none(), "{}", method.name());
            }
        }
    }

    #[test]
    fn method_names_match_paper_labels() {
        assert_eq!(Method::ParTdbht { prefix: 10 }.name(), "PAR-TDBHT-10");
        assert_eq!(Method::SeqTdbht.name(), "SEQ-TDBHT");
        assert_eq!(Method::PmfgDbht.name(), "PMFG-DBHT");
        assert_eq!(Method::CompleteLinkage.name(), "COMP");
        assert_eq!(
            Method::KMeansSpectral { neighbors: 5 }.name(),
            "K-MEANS-S(b=5)"
        );
    }
}
