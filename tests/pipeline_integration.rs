//! Cross-crate integration tests: data generation → correlation →
//! filtered graphs → DBHT → evaluation, plus baseline comparisons.

use par_filtered_graph_clustering::prelude::*;
use pfg_baselines::kmeans::Seeding;

/// A small but realistic labeled data set shared by the tests.
fn small_dataset(seed: u64) -> (TimeSeriesDataset, SymmetricMatrix, SymmetricMatrix) {
    let config = TimeSeriesConfig {
        num_series: 120,
        length: 96,
        num_classes: 4,
        noise: 0.35,
        seed,
    };
    let dataset = TimeSeriesDataset::generate("integration", &config);
    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);
    (dataset, correlation, dissimilarity)
}

#[test]
fn full_pipeline_beats_random_clustering_comfortably() {
    let (dataset, correlation, dissimilarity) = small_dataset(3);
    let k = dataset.num_classes();
    for prefix in [1, 10] {
        let result = ParTdbht::with_prefix(prefix)
            .run(&correlation, &dissimilarity)
            .unwrap();
        let labels = result.clusters(k);
        let ari = adjusted_rand_index(&dataset.labels, &labels);
        // Measured ARI is 1.0 at both prefixes with the conflict-aware
        // selector and intra-round placement; the bar leaves headroom for
        // benign churn while staying far above chance.
        assert!(ari > 0.9, "prefix {prefix}: ARI {ari}");
    }
}

#[test]
fn tmfg_dbht_tracks_or_beats_linkage_baselines() {
    // The paper's headline quality claim (Figures 1 and 8): TMFG+DBHT
    // produces clusters at least comparable to complete/average linkage.
    // A single synthetic data set is noisy — especially at n = 120, where a
    // prefix-10 batch is a large fraction of a round — so the comparison is
    // averaged over several seeds. With the conflict-aware selector and
    // intra-round batch placement the measured means are DBHT 0.9415
    // against COMP 0.4605 and AVG 0.8161, so the bar requires DBHT to beat
    // the *better* baseline outright (it previously allowed DBHT to trail
    // the worse one by 0.1).
    let seeds = [1u64, 3, 5, 7];
    let mut dbht_total = 0.0;
    let mut comp_total = 0.0;
    let mut avg_total = 0.0;
    for &seed in &seeds {
        let (dataset, correlation, dissimilarity) = small_dataset(seed);
        let k = dataset.num_classes();
        let dbht_labels = ParTdbht::with_prefix(10)
            .run(&correlation, &dissimilarity)
            .unwrap()
            .clusters(k);
        dbht_total += adjusted_rand_index(&dataset.labels, &dbht_labels);
        comp_total += adjusted_rand_index(
            &dataset.labels,
            &hac(&dissimilarity, Linkage::Complete).cut_to_clusters(k),
        );
        avg_total += adjusted_rand_index(
            &dataset.labels,
            &hac(&dissimilarity, Linkage::Average).cut_to_clusters(k),
        );
    }
    let n = seeds.len() as f64;
    let (dbht_ari, comp_ari, avg_ari) = (dbht_total / n, comp_total / n, avg_total / n);
    assert!(
        dbht_ari > comp_ari.max(avg_ari),
        "mean over {} seeds: DBHT {dbht_ari} vs COMP {comp_ari} / AVG {avg_ari}",
        seeds.len()
    );
}

#[test]
fn pmfg_and_tmfg_agree_on_quality_and_weight() {
    // Figure 7: the TMFG keeps almost the same total edge weight as the
    // PMFG, and DBHT on either gives similar clusters.
    let config = TimeSeriesConfig {
        num_series: 60,
        length: 96,
        num_classes: 3,
        noise: 0.3,
        seed: 5,
    };
    let dataset = TimeSeriesDataset::generate("pmfg", &config);
    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);
    let k = dataset.num_classes();

    let tmfg_result = tmfg(&correlation, TmfgConfig::with_prefix(1)).unwrap();
    let pmfg_result = pmfg(&correlation).unwrap();
    let ratio = tmfg_result.edge_weight_sum() / pmfg_result.edge_weight_sum();
    assert!(ratio > 0.9 && ratio < 1.05, "edge-sum ratio {ratio}");

    let tmfg_labels = dbht_for_tmfg(&tmfg_result, &dissimilarity)
        .unwrap()
        .dendrogram
        .cut_to_clusters(k);
    let pmfg_labels = dbht_for_planar_graph(&pmfg_result.graph, &dissimilarity)
        .unwrap()
        .dendrogram
        .cut_to_clusters(k);
    let tmfg_ari = adjusted_rand_index(&dataset.labels, &tmfg_labels);
    let pmfg_ari = adjusted_rand_index(&dataset.labels, &pmfg_labels);
    assert!(tmfg_ari > 0.2, "TMFG+DBHT ARI {tmfg_ari}");
    assert!(pmfg_ari > 0.2, "PMFG+DBHT ARI {pmfg_ari}");
}

#[test]
fn kmeans_baseline_runs_on_raw_series() {
    let (dataset, _, _) = small_dataset(7);
    let k = dataset.num_classes();
    let result = kmeans(
        &dataset.series,
        &KMeansConfig {
            k,
            seeding: Seeding::Scalable,
            seed: 1,
            ..KMeansConfig::default()
        },
    );
    let ari = adjusted_rand_index(&dataset.labels, &result.labels);
    assert!(ari > 0.2, "k-means ARI {ari}");
}

#[test]
fn spectral_embedding_feeds_kmeans() {
    let (dataset, _, _) = small_dataset(9);
    let k = dataset.num_classes();
    let embedded = spectral_embedding(
        &dataset.series,
        &SpectralConfig {
            neighbors: 15,
            dimensions: k,
            iterations: 150,
            seed: 2,
        },
    );
    let result = kmeans(
        &embedded,
        &KMeansConfig {
            k,
            seed: 2,
            ..KMeansConfig::default()
        },
    );
    let ari = adjusted_rand_index(&dataset.labels, &result.labels);
    assert!(ari > 0.2, "k-means-s ARI {ari}");
}

#[test]
fn stock_market_clusters_align_with_sectors() {
    let market = StockMarket::generate(&StockMarketConfig {
        num_stocks: 220,
        num_days: 300,
        ..StockMarketConfig::default()
    });
    let correlation = correlation_matrix(&market.detrended_returns());
    let dissimilarity = dissimilarity_from_correlation(&correlation);
    let result = ParTdbht::with_prefix(30)
        .run(&correlation, &dissimilarity)
        .unwrap();
    let clusters = result.clusters(SECTORS.len());
    let ari = adjusted_rand_index(&market.sector, &clusters);
    // The paper reports ARI 0.36 on real stock data; the synthetic factor
    // model is cleaner, so we only require a clearly-positive alignment.
    assert!(ari > 0.25, "stock ARI {ari}");
}

#[test]
fn f32_storage_matches_f64_quality_on_ecg_style_data() {
    // ECG5000-style shape (length 140, 5 classes) at a test-friendly n.
    // The f32 storage mode rounds each correlation once at build time, so
    // clustering quality must stay within tolerance of the f64 pipeline —
    // the half-footprint matrix is a storage decision, not an algorithmic
    // one.
    let config = TimeSeriesConfig {
        num_series: 150,
        length: 140,
        num_classes: 5,
        noise: 0.4,
        seed: 11,
    };
    let dataset = TimeSeriesDataset::generate("ecg-style", &config);
    let k = dataset.num_classes();

    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);
    let f64_labels = ParTdbht::with_prefix(10)
        .run(&correlation, &dissimilarity)
        .unwrap()
        .clusters(k);
    let f64_ari = adjusted_rand_index(&dataset.labels, &f64_labels);

    let (correlation_f32, _stats) = correlation_matrix_f32(&dataset.series, TileConfig::default());
    let f32_labels = ParTdbht::with_prefix(10)
        .run_f32(&correlation_f32)
        .unwrap()
        .clusters(k);
    let f32_ari = adjusted_rand_index(&dataset.labels, &f32_labels);

    assert!(f64_ari > 0.5, "f64 ARI {f64_ari}");
    assert!(
        (f32_ari - f64_ari).abs() < 0.05,
        "f32 ARI {f32_ari} drifted from f64 ARI {f64_ari}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let (_, correlation, dissimilarity) = small_dataset(13);
    let a = ParTdbht::with_prefix(10)
        .run(&correlation, &dissimilarity)
        .unwrap();
    let b = ParTdbht::with_prefix(10)
        .run(&correlation, &dissimilarity)
        .unwrap();
    assert_eq!(a.clusters(4), b.clusters(4));
    assert_eq!(a.assignment.group, b.assignment.group);
    assert_eq!(
        a.tmfg.graph.edges().collect::<Vec<_>>(),
        b.tmfg.graph.edges().collect::<Vec<_>>()
    );
}
