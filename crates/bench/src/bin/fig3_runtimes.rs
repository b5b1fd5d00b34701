//! Figure 3: running time of every hierarchical method on every data set,
//! on a single thread (top plot) and on all cores (bottom plot).
//!
//! Usage: `cargo run --release -p pfg-bench --bin fig3_runtimes [scale] [max_datasets]`

use pfg_bench::{
    build_suite, parse_scale_from_args, pmfg_summary, run_method, secs, Method, Record,
};

fn run_suite(threads: usize, config: &pfg_bench::SuiteConfig) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let suite = build_suite(config);
    // PMFG and the sequential baselines are only run on the smaller data
    // sets, mirroring the paper's timeouts for data sets 8, 17 and 18.
    let slow_method_limit = 600;
    println!("## {} thread(s)", threads);
    println!(
        "{:<28} {:<14} {:>10} {:>8}",
        "dataset", "method", "time(s)", "ARI"
    );
    for dataset in &suite {
        let mut methods = vec![
            Method::CompleteLinkage,
            Method::AverageLinkage,
            Method::ParTdbht { prefix: 1 },
            Method::ParTdbht { prefix: 10 },
        ];
        if dataset.len() <= slow_method_limit {
            methods.push(Method::SeqTdbht);
            methods.push(Method::PmfgDbht);
        }
        for method in methods {
            let output = pool.install(|| run_method(method, dataset));
            println!(
                "{:<28} {:<14} {:>10} {:>8.3}",
                dataset.name,
                method.name(),
                secs(output.elapsed),
                output.ari
            );
            let mut params = format!("threads={threads},n={}", dataset.len());
            if let Some(p) = &output.pmfg {
                // The PMFG row is the figure's slow baseline; report how
                // much of its rejection work ran speculatively in parallel.
                let (line, suffix) = pmfg_summary(p);
                println!("  └ {line}");
                params.push_str(&suffix);
            }
            Record {
                experiment: "fig3".into(),
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

fn main() {
    let config = parse_scale_from_args();
    println!(
        "# Figure 3: runtimes per data set (scale = {})",
        config.scale
    );
    run_suite(1, &config);
    run_suite(num_cpus(), &config);
}

fn num_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
