//! UCR-style time-series clustering: compare PAR-TDBHT against the
//! complete-linkage, average-linkage and k-means baselines on a synthetic
//! stand-in for one of the Table II data sets.
//!
//! Run with: `cargo run --release --example time_series_clustering`

use par_filtered_graph_clustering::prelude::*;

fn main() {
    // Use the CBF-like entry of the Table II catalogue at 30% scale.
    let spec = ucr_catalogue()
        .into_iter()
        .find(|d| d.name == "CBF")
        .expect("CBF is in the catalogue");
    let dataset = spec.generate(0.3, 42);
    let k = dataset.num_classes();
    println!(
        "data set {} (id {}): n = {}, L = {}, {} classes",
        dataset.name,
        spec.id,
        dataset.len(),
        dataset.series_length(),
        k
    );

    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);

    // PAR-TDBHT with the exact TMFG (prefix 1) and the batched variant.
    for prefix in [1, 10] {
        let start = std::time::Instant::now();
        let result = ParTdbht::with_prefix(prefix)
            .run(&correlation, &dissimilarity)
            .expect("valid matrices");
        let labels = result.clusters(k);
        println!(
            "PAR-TDBHT-{prefix:<3} ARI {:+.3}  AMI {:+.3}  ({:?})",
            adjusted_rand_index(&dataset.labels, &labels),
            adjusted_mutual_information(&dataset.labels, &labels),
            start.elapsed()
        );
    }

    // Complete-linkage and average-linkage HAC on the dissimilarity matrix.
    for (name, linkage) in [("COMP", Linkage::Complete), ("AVG", Linkage::Average)] {
        let start = std::time::Instant::now();
        let dend = hac(&dissimilarity, linkage);
        let labels = dend.cut_to_clusters(k);
        println!(
            "{name:<12} ARI {:+.3}  AMI {:+.3}  ({:?})",
            adjusted_rand_index(&dataset.labels, &labels),
            adjusted_mutual_information(&dataset.labels, &labels),
            start.elapsed()
        );
    }

    // k-means on the raw series.
    let start = std::time::Instant::now();
    let km = kmeans(
        &dataset.series,
        &KMeansConfig {
            k,
            seed: 3,
            ..KMeansConfig::default()
        },
    );
    println!(
        "K-MEANS      ARI {:+.3}  AMI {:+.3}  ({:?})",
        adjusted_rand_index(&dataset.labels, &km.labels),
        adjusted_mutual_information(&dataset.labels, &km.labels),
        start.elapsed()
    );
}
