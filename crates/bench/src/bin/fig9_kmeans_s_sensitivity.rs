//! Figure 9: sensitivity of K-MEANS-S to the number of nearest neighbors β
//! used by the spectral embedding.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig9_kmeans_s_sensitivity [scale] [max_datasets]`

use pfg_bench::{build_suite, parse_scale_from_args, run_method, Method, Record};

fn main() {
    let mut config = parse_scale_from_args();
    if config.max_datasets == usize::MAX {
        config.max_datasets = 8;
    }
    let suite = build_suite(&config);
    println!(
        "# Figure 9: K-MEANS-S ARI vs number of nearest neighbors β (scale = {})",
        config.scale
    );
    println!("{:<28} {:>6} {:>8}", "dataset", "beta", "ARI");
    for dataset in &suite {
        let n = dataset.len();
        // Sweep β from very local to nearly global, as in the paper.
        let betas: Vec<usize> = [
            n / 40,
            n / 20,
            n / 10,
            n / 5,
            n / 3,
            n / 2,
            (3 * n) / 4,
            n.saturating_sub(1),
        ]
        .iter()
        .map(|&b| b.clamp(2, n.saturating_sub(1)))
        .collect();
        let mut seen = std::collections::HashSet::new();
        for beta in betas {
            if !seen.insert(beta) {
                continue;
            }
            let output = run_method(Method::KMeansSpectral { neighbors: beta }, dataset);
            println!("{:<28} {:>6} {:>8.3}", dataset.name, beta, output.ari);
            Record {
                experiment: "fig9".into(),
                dataset: dataset.name.clone(),
                method: "K-MEANS-S".into(),
                params: format!("beta={beta}"),
                seconds: output.elapsed.as_secs_f64(),
                ari: Some(output.ari),
                value: Some(beta as f64),
            }
            .emit();
        }
    }
}
