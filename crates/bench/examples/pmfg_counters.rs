//! Prints the speculative-test counters and single-run wall times of the
//! round-based parallel PMFG across batch schedules, next to the
//! sequential baseline — the tuning table behind `PmfgConfig::default()`.
//!
//! Usage: `cargo run --release -p pfg_bench --example pmfg_counters`

use pfg_bench::{BenchDataset, SuiteConfig};
use pfg_core::{pmfg_sequential, pmfg_with_config, BatchSchedule, PmfgConfig};
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
        println!(
            "n={} pairs={} seq: examined={} rej={} {:.1}ms",
            data.len(),
            data.len() * (data.len() - 1) / 2,
            s.candidates_examined,
            s.rejections,
            seq_ms
        );
        for (ib, mb) in [
            (16, 4096),
            (16, 512),
            (16, 256),
            (32, 256),
            (32, 128),
            (64, 128),
            (64, 256),
            (128, 512),
        ] {
            let config = PmfgConfig {
                batch: BatchSchedule {
                    initial: ib,
                    cap: mb,
                },
            };
            let mut best = f64::INFINITY;
            let mut p = None;
            for _ in 0..5 {
                let t0 = Instant::now();
                p = Some(pmfg_with_config(&data.correlation, config).unwrap());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let p = p.unwrap();
            println!(
                "  ({ib:>3},{mb:>5}): examined={} rounds={} par_rej={} commit_rej={} retests={} tests={} min {:.1}ms",
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
}
