//! Quickstart: build a TMFG from a correlation matrix and cluster it with
//! the DBHT.
//!
//! Run with: `cargo run --release --example quickstart`

use par_filtered_graph_clustering::prelude::*;

fn main() {
    // 1. Generate a small labeled time-series data set (3 classes).
    let config = TimeSeriesConfig {
        num_series: 150,
        length: 128,
        num_classes: 3,
        noise: 0.35,
        seed: 7,
    };
    let dataset = TimeSeriesDataset::generate("quickstart", &config);
    println!(
        "data set: {} series of length {} in {} classes",
        dataset.len(),
        dataset.series_length(),
        dataset.num_classes()
    );

    // 2. Pairwise Pearson correlations and the dissimilarity measure.
    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);

    // 3. Run the PAR-TDBHT pipeline (TMFG with prefix 10 + DBHT).
    let result = ParTdbht::with_prefix(10)
        .run(&correlation, &dissimilarity)
        .expect("valid input matrices");
    println!(
        "TMFG: {} edges, {} bubbles, {} rounds",
        result.tmfg.graph.num_edges(),
        result.tmfg.bubble_tree.len(),
        result.tmfg.rounds
    );
    let stats = result.dbht_stats;
    println!(
        "DBHT: {} groups (converging bubbles), dbht rounds={} merges={} apsp={}/{} ({:.3})",
        result.assignment.num_groups(),
        stats.hac_rounds,
        stats.hac_merges,
        stats.apsp_pairs_computed,
        stats.apsp_pairs_full,
        stats.restricted_fraction()
    );
    println!(
        "stage timings: tmfg {:?}, apsp {:?}, direction {:?}, assignment {:?}, hierarchy {:?}",
        result.timings.tmfg,
        result.timings.apsp,
        result.timings.direction,
        result.timings.assignment,
        result.timings.hierarchy
    );

    // 4. Cut the dendrogram to the number of ground-truth classes and score.
    let labels = result.clusters(dataset.num_classes());
    let ari = adjusted_rand_index(&dataset.labels, &labels);
    let ami = adjusted_mutual_information(&dataset.labels, &labels);
    println!("ARI = {ari:.3}, AMI = {ami:.3}");
}
