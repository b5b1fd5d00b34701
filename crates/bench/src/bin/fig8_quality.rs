//! Figure 8: clustering quality (ARI) of PAR-TDBHT-1, PAR-TDBHT-10,
//! PMFG+DBHT, COMP, AVG, K-MEANS and K-MEANS-S on every data set.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig8_quality [scale] [max_datasets]`

use pfg_bench::{build_suite, parse_scale_from_args, run_method, Method, Record};

fn main() {
    let config = parse_scale_from_args();
    let suite = build_suite(&config);
    println!("# Figure 8: ARI of all methods (scale = {})", config.scale);
    println!(
        "{:<28} {:<16} {:>8} {:>10}",
        "dataset", "method", "ARI", "time(s)"
    );
    for dataset in &suite {
        // β for K-MEANS-S: a neighbourhood about 10% of the data set, which
        // is a reasonable default per Figure 9's sweep.
        let beta = (dataset.len() / 10).clamp(5, 200);
        let mut methods = vec![
            Method::ParTdbht { prefix: 1 },
            Method::ParTdbht { prefix: 10 },
            Method::CompleteLinkage,
            Method::AverageLinkage,
            Method::KMeans,
            Method::KMeansSpectral { neighbors: beta },
        ];
        // PMFG times out on the largest data sets in the paper; mirror that.
        if dataset.len() <= 600 {
            methods.insert(2, Method::PmfgDbht);
        }
        for method in methods {
            let output = run_method(method, dataset);
            println!(
                "{:<28} {:<16} {:>8.3} {:>10.3}",
                dataset.name,
                method.name(),
                output.ari,
                output.elapsed.as_secs_f64()
            );
            Record {
                experiment: "fig8".into(),
                dataset: dataset.name.clone(),
                method: method.name(),
                params: format!("n={}", dataset.len()),
                seconds: output.elapsed.as_secs_f64(),
                ari: Some(output.ari),
                value: None,
            }
            .emit();
        }
    }
}
