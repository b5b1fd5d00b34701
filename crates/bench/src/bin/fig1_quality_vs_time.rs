//! Figure 1: sequential runtime vs. clustering quality (ARI) for
//! PMFG+DBHT, TMFG+DBHT, average linkage and complete linkage.
//!
//! One point per (method, data set); the paper's claim is that the filtered
//! -graph methods sit up and to the right (slower but better clusters).
//!
//! Usage: `cargo run --release -p pfg-bench --bin fig1_quality_vs_time [scale] [max_datasets]`

use pfg_bench::{
    build_suite, parse_scale_from_args, pmfg_summary, run_method, secs, Method, Record,
};

fn main() {
    let mut config = parse_scale_from_args();
    if config.max_datasets == usize::MAX {
        // PMFG is quadratic-with-planarity-tests; keep the default run small.
        config.max_datasets = 6;
    }
    let suite = build_suite(&config);
    println!(
        "# Figure 1: runtime vs ARI (scale = {}, {} data sets)",
        config.scale,
        suite.len()
    );
    println!(
        "{:<28} {:<14} {:>10} {:>8}",
        "dataset", "method", "time(s)", "ARI"
    );
    let methods = [
        Method::PmfgDbht,
        Method::SeqTdbht,
        Method::AverageLinkage,
        Method::CompleteLinkage,
    ];
    for dataset in &suite {
        for method in methods {
            let output = run_method(method, dataset);
            println!(
                "{:<28} {:<14} {:>10} {:>8.3}",
                dataset.name,
                method.name(),
                secs(output.elapsed),
                output.ari
            );
            let mut params = format!("n={}", dataset.len());
            if let Some(p) = &output.pmfg {
                // Speculative-test efficiency of the round-based PMFG:
                // the share of rejections decided off the critical path.
                let (line, suffix) = pmfg_summary(p);
                println!("  └ {line}");
                params.push_str(&suffix);
            }
            Record {
                experiment: "fig1".into(),
                dataset: dataset.name.clone(),
                method: method.name(),
                params,
                seconds: output.elapsed.as_secs_f64(),
                ari: Some(output.ari),
                value: None,
            }
            .emit();
        }
    }
}
