//! Prints the speculative-test counters and single-run wall times of the
//! round-based parallel PMFG, next to the sequential baseline, on
//! ECG5000-style correlation matrices at three scales.
//!
//! Usage: `cargo run --release -p pfg_bench --example pmfg_counters`

use pfg_bench::{BenchDataset, SuiteConfig};
use pfg_core::{pmfg, pmfg_sequential};
use pfg_data::ucr_catalogue;
use std::time::Instant;

fn main() {
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "ECG5000")
        .unwrap();
    for scale in [0.02f64, 0.05, 0.1] {
        let cfg = SuiteConfig {
            scale,
            ..SuiteConfig::default()
        };
        let data = BenchDataset::prepare(&spec, &cfg);
        let t0 = Instant::now();
        let s = pmfg_sequential(&data.correlation).unwrap();
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut best = f64::INFINITY;
        let mut p = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            p = Some(pmfg(&data.correlation).unwrap());
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        let p = p.unwrap();
        println!(
            "n={} pairs={} seq: examined={} rej={} {:.1}ms | par: examined={} rounds={} par_rej={} commit_rej={} retests={} tests={} min {:.1}ms",
            data.len(),
            data.len() * (data.len() - 1) / 2,
            s.candidates_examined,
            s.rejections,
            seq_ms,
            p.candidates_examined,
            p.rounds,
            p.parallel_rejections,
            p.rejections - p.parallel_rejections,
            p.commit_retests,
            p.planarity_tests,
            best
        );
    }
}
