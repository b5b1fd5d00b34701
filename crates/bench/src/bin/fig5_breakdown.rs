//! Figure 5: breakdown of PAR-TDBHT runtime across the tmfg / apsp /
//! direction / assignment / hierarchy stages, per prefix size, on one
//! thread and on all cores, on the ECG5000-like data set.
//!
//! Earlier revisions lumped direction + assignment into a single
//! "bubble-tree" stage; the per-stage split lets `bench_diff` attribute
//! regressions to the exact pass. Each row also reports the restricted
//! APSP's output fraction (computed pairs / n²) as a `Record` value.
//!
//! Usage: `cargo run --release -p pfg-bench --bin fig5_breakdown [scale]`

use pfg_bench::{parse_scale_from_args, BenchDataset, Record, SuiteConfig};
use pfg_core::ParTdbht;
use pfg_data::ucr_catalogue;

fn run(threads: usize, dataset: &BenchDataset) {
    println!("## {} thread(s)", threads);
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "prefix", "tmfg(s)", "apsp(s)", "dir(s)", "asgn(s)", "hier(s)", "total(s)", "apsp-frac"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    for prefix in [1usize, 2, 5, 10, 30, 50, 200] {
        let result = pool.install(|| {
            ParTdbht::with_prefix(prefix)
                .run(&dataset.correlation, &dataset.dissimilarity)
                .expect("valid matrices")
        });
        let t = result.timings;
        let stats = result.dbht_stats;
        let apsp_frac = stats.restricted_fraction();
        println!(
            "{:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3}",
            prefix,
            t.tmfg.as_secs_f64(),
            t.apsp.as_secs_f64(),
            t.direction.as_secs_f64(),
            t.assignment.as_secs_f64(),
            t.hierarchy.as_secs_f64(),
            t.total().as_secs_f64(),
            apsp_frac
        );
        for (stage, secs) in [
            ("tmfg", t.tmfg.as_secs_f64()),
            ("apsp", t.apsp.as_secs_f64()),
            ("direction", t.direction.as_secs_f64()),
            ("assignment", t.assignment.as_secs_f64()),
            ("hierarchy", t.hierarchy.as_secs_f64()),
        ] {
            Record {
                experiment: "fig5".into(),
                dataset: dataset.name.clone(),
                method: format!("PAR-TDBHT-{prefix}"),
                params: format!(
                    "threads={threads},stage={stage},hac_rounds={},apsp_frac={apsp_frac:.4}",
                    stats.hac_rounds
                ),
                seconds: secs,
                ari: None,
                value: Some(apsp_frac),
            }
            .emit();
        }
    }
}

fn main() {
    let config = parse_scale_from_args();
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "ECG5000")
        .expect("ECG5000 in catalogue");
    let dataset = BenchDataset::prepare(
        &spec,
        &SuiteConfig {
            scale: config.scale,
            ..config
        },
    );
    println!(
        "# Figure 5: runtime breakdown on {} (n = {}, scale = {})",
        dataset.name,
        dataset.len(),
        config.scale
    );
    run(1, &dataset);
    run(
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        &dataset,
    );
}
