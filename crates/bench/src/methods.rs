//! A uniform interface over every clustering method the paper evaluates.

use std::time::{Duration, Instant};

use pfg_baselines::kmeans::Seeding;
use pfg_baselines::{hac, kmeans, spectral_embedding, KMeansConfig, Linkage, SpectralConfig};
use pfg_core::dbht::{dbht_for_planar_graph, dbht_for_tmfg};
use pfg_core::{pmfg, tmfg, DbhtRunStats, ParTdbht, TmfgConfig};
use pfg_data::CorrelationKernelStats;
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

/// Construction statistics of a TMFG-based method: round counts plus the
/// fill-rate and staleness counters of the conflict-aware batch selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TmfgRunStats {
    /// Rounds of the outer construction loop (ρ).
    pub rounds: usize,
    /// Mean per-round fill rate (1.0 = every round hit its target).
    pub mean_fill_rate: f64,
    /// Vertex conflicts absorbed by next-best refills.
    pub conflicts: usize,
    /// Candidate-cache exhaustions that forced a full rescan.
    pub rescans: usize,
    /// Placements moved to a fresher face by intra-round placement.
    pub reassigned: usize,
}

impl TmfgRunStats {
    fn of(tmfg: &pfg_core::Tmfg) -> Self {
        Self {
            rounds: tmfg.rounds,
            mean_fill_rate: tmfg.mean_fill_rate(),
            conflicts: tmfg.total_conflicts(),
            rescans: tmfg.total_rescans(),
            reassigned: tmfg.total_reassigned(),
        }
    }
}

/// Construction statistics of the round-based parallel PMFG: how much of
/// the planarity-test work was decided speculatively (off the sequential
/// critical path) versus at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmfgRunStats {
    /// Rounds of the batched construction loop.
    pub rounds: usize,
    /// Candidate edges whose planarity was decided.
    pub candidates_examined: usize,
    /// Total rejected candidates (speculative + commit-time).
    pub rejections: usize,
    /// Rejections decided in a parallel phase — final by monotonicity.
    pub parallel_rejections: usize,
}

impl PmfgRunStats {
    fn of(p: &pfg_core::Pmfg) -> Self {
        Self {
            rounds: p.rounds,
            candidates_examined: p.candidates_examined,
            rejections: p.rejections,
            parallel_rejections: p.parallel_rejections,
        }
    }

    /// Fraction of all rejections decided speculatively in parallel
    /// (`1.0` = the entire rejection workload left the critical path).
    pub fn speculative_efficiency(&self) -> f64 {
        if self.rejections == 0 {
            1.0
        } else {
            self.parallel_rejections as f64 / self.rejections as f64
        }
    }

    /// Human-readable one-liner for the figure binaries' tables.
    pub fn summary_line(&self) -> String {
        format!(
            "pmfg rounds={} examined={} par_rej={}/{} spec_eff={:.3}",
            self.rounds,
            self.candidates_examined,
            self.parallel_rejections,
            self.rejections,
            self.speculative_efficiency()
        )
    }

    /// Suffix appended to a `Record`'s `params` field so the counters land
    /// in the machine-readable output too.
    pub fn params_suffix(&self) -> String {
        format!(
            ",rounds={},par_rej={},rej={}",
            self.rounds, self.parallel_rejections, self.rejections
        )
    }
}

/// Input-layer statistics of one method run: the tiled correlation
/// kernel's counters, shared by every method reading the data set's
/// matrices. Mirrors [`PmfgRunStats`] / [`DbhtRunStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationRunStats {
    /// Matrix dimension (number of series).
    pub n: usize,
    /// Upper-triangle tile pairs the kernel computed.
    pub tiles_computed: usize,
    /// Peak intermediate allocation of the kernel in bytes (the flat
    /// z-profile buffer; the old path peaked at ≥ 2 n² output + `Vec<Vec>`
    /// rows).
    pub peak_intermediate_bytes: usize,
    /// Bytes of matrix output the kernel wrote.
    pub output_bytes: usize,
}

impl CorrelationRunStats {
    /// The data set's kernel counters.
    pub fn of(kernel: &CorrelationKernelStats) -> Self {
        Self {
            n: kernel.n,
            tiles_computed: kernel.tiles_computed,
            peak_intermediate_bytes: kernel.peak_intermediate_bytes,
            output_bytes: kernel.output_bytes,
        }
    }

    /// Human-readable one-liner for the figure binaries' tables.
    pub fn summary_line(&self) -> String {
        format!(
            "corr n={} tiles={} peak_mb={:.1} out_mb={:.1}",
            self.n,
            self.tiles_computed,
            self.peak_intermediate_bytes as f64 / 1e6,
            self.output_bytes as f64 / 1e6
        )
    }

    /// Suffix appended to a `Record`'s `params` field so the counters land
    /// in the machine-readable output too.
    pub fn params_suffix(&self) -> String {
        format!(
            ",tiles={},peak_bytes={}",
            self.tiles_computed, self.peak_intermediate_bytes
        )
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
    /// Total filtered-graph edge weight, for graph-construction methods.
    pub edge_weight_sum: Option<f64>,
    /// Construction counters, for TMFG-based methods.
    pub tmfg_stats: Option<TmfgRunStats>,
    /// Construction counters, for the PMFG-based method.
    pub pmfg_stats: Option<PmfgRunStats>,
    /// DBHT back-half counters (HAC rounds, restricted-APSP output), for
    /// the DBHT-based methods.
    pub dbht_stats: Option<DbhtRunStats>,
    /// Input-layer counters (tiled kernel), for methods that consume the
    /// data set's derived matrices.
    pub correlation_stats: Option<CorrelationRunStats>,
}

/// Runs `method` on `dataset`, cutting dendrograms to the ground-truth
/// class count (the evaluation protocol of §VII).
pub fn run_method(method: Method, dataset: &BenchDataset) -> MethodOutput {
    let k = dataset.num_classes;
    let start = Instant::now();
    let (labels, edge_weight_sum, tmfg_stats, pmfg_stats, dbht_stats) = match method {
        Method::ParTdbht { prefix } => {
            let result = ParTdbht::with_prefix(prefix)
                .run(&dataset.correlation, &dataset.dissimilarity)
                .expect("valid benchmark matrices");
            (
                result.clusters(k),
                Some(result.tmfg.edge_weight_sum()),
                Some(TmfgRunStats::of(&result.tmfg)),
                None,
                Some(result.dbht_stats),
            )
        }
        Method::SeqTdbht => {
            let t = tmfg(&dataset.correlation, TmfgConfig::with_prefix(1))
                .expect("valid benchmark matrices");
            let weight = t.edge_weight_sum();
            let stats = TmfgRunStats::of(&t);
            let dbht = dbht_for_tmfg(&t, &dataset.dissimilarity).expect("valid DBHT input");
            (
                dbht.dendrogram.cut_to_clusters(k),
                Some(weight),
                Some(stats),
                None,
                Some(dbht.stats),
            )
        }
        Method::PmfgDbht => {
            let p = pmfg(&dataset.correlation).expect("valid benchmark matrices");
            let weight = p.edge_weight_sum();
            let stats = PmfgRunStats::of(&p);
            let dbht =
                dbht_for_planar_graph(&p.graph, &dataset.dissimilarity).expect("valid DBHT input");
            (
                dbht.dendrogram.cut_to_clusters(k),
                Some(weight),
                None,
                Some(stats),
                Some(dbht.stats),
            )
        }
        Method::CompleteLinkage => (
            hac(&dataset.dissimilarity, Linkage::Complete).cut_to_clusters(k),
            None,
            None,
            None,
            None,
        ),
        Method::AverageLinkage => (
            hac(&dataset.dissimilarity, Linkage::Average).cut_to_clusters(k),
            None,
            None,
            None,
            None,
        ),
        Method::KMeans => {
            let result = kmeans(
                &dataset.series,
                &KMeansConfig {
                    k,
                    seeding: Seeding::Scalable,
                    seed: 1,
                    ..KMeansConfig::default()
                },
            );
            (result.labels, None, None, None, None)
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
                    seeding: Seeding::Scalable,
                    seed: 1,
                    ..KMeansConfig::default()
                },
            );
            (result.labels, None, None, None, None)
        }
    };
    let elapsed = start.elapsed();
    let ari = adjusted_rand_index(&dataset.labels, &labels);
    // Every method but the raw-series baselines reads the data set's
    // derived matrices, whose input went through the tiled kernel.
    let matrix_based = !matches!(method, Method::KMeans | Method::KMeansSpectral { .. });
    let correlation_stats = dataset
        .kernel_stats
        .as_ref()
        .filter(|_| matrix_based)
        .map(CorrelationRunStats::of);
    MethodOutput {
        labels,
        elapsed,
        ari,
        edge_weight_sum,
        tmfg_stats,
        pmfg_stats,
        dbht_stats,
        correlation_stats,
    }
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
            if method == Method::PmfgDbht {
                let stats = output.pmfg_stats.expect("PMFG reports its counters");
                assert!(stats.rounds >= 1);
                assert!(stats.parallel_rejections <= stats.rejections);
                assert!((0.0..=1.0).contains(&stats.speculative_efficiency()));
            } else {
                assert!(output.pmfg_stats.is_none(), "{}", method.name());
            }
            let dbht_based = matches!(
                method,
                Method::ParTdbht { .. } | Method::SeqTdbht | Method::PmfgDbht
            );
            if dbht_based {
                let stats = output.dbht_stats.expect("DBHT methods report counters");
                assert!(stats.hac_merges >= 1, "{}", method.name());
                assert!(stats.hac_rounds >= 1, "{}", method.name());
                assert!(
                    (0.0..=1.0).contains(&stats.restricted_fraction()),
                    "{}: fraction {}",
                    method.name(),
                    stats.restricted_fraction()
                );
            } else {
                assert!(output.dbht_stats.is_none(), "{}", method.name());
            }
            // Every matrix-consuming method carries the input kernel's
            // counters; the raw-series baselines carry none.
            let matrix_based = !matches!(method, Method::KMeans | Method::KMeansSpectral { .. });
            if matrix_based {
                let stats = output
                    .correlation_stats
                    .expect("matrix methods report kernel counters");
                assert_eq!(stats.n, dataset.len(), "{}", method.name());
                assert!(stats.tiles_computed >= 1, "{}", method.name());
                assert!(stats.output_bytes > 0, "{}", method.name());
            } else {
                assert!(output.correlation_stats.is_none(), "{}", method.name());
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
