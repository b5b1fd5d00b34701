//! Compares two directories of `BENCH_*.json` records (as written by the
//! criterion shim and uploaded by CI) and flags time regressions — the
//! consumer of the bench-record trajectory. A series compares medians
//! when both records carry one, else means.
//!
//! Usage:
//!   `cargo run -p pfg_bench --bin bench_diff -- <baseline_dir> [current_dir] [--threshold <pct>] [--allow <file>]`
//!
//! `current_dir` defaults to the standard record directory
//! (`$BENCH_RECORD_DIR` or `target/bench-records`); the threshold defaults
//! to 30 (percent). `--allow` names a per-series allowlist (the repo's
//! `bench.allow`, mirroring `lint.allow`): allowed series still print
//! their comparison but cannot fail the gate. Exits non-zero when any
//! non-allowed benchmark's time regressed by more than the threshold, so
//! CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use pfg_bench::records::{diff_directories, record_dir, BenchAllowlist};

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut threshold = 30.0_f64;
    let mut allow = BenchAllowlist::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threshold" {
            match args.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold requires a numeric percentage");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--allow" {
            let Some(path) = args.next() else {
                eprintln!("--allow requires a file path");
                return ExitCode::from(2);
            };
            match BenchAllowlist::load(PathBuf::from(&path).as_path()) {
                Ok(list) => allow = list,
                Err(err) => {
                    // A gate that silently loses its allowlist would fail
                    // on every known-noisy series; fail the invocation
                    // instead.
                    eprintln!("--allow {path}: {err}");
                    return ExitCode::from(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let Some(baseline) = positional.first().map(PathBuf::from) else {
        eprintln!(
            "usage: bench_diff <baseline_dir> [current_dir] [--threshold <pct>] [--allow <file>]"
        );
        return ExitCode::from(2);
    };
    let current = positional
        .get(1)
        .map(PathBuf::from)
        .unwrap_or_else(record_dir);

    let report = diff_directories(&baseline, &current);
    if report.comparisons.is_empty() {
        println!(
            "bench_diff: no overlapping records between {} and {} (nothing to compare)",
            baseline.display(),
            current.display()
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "benchmark", "baseline", "current", "change"
    );
    for c in &report.comparisons {
        println!(
            "{:<44} {:>10.0}ns {:>10.0}ns {:>+8.1}%{}",
            c.key,
            c.baseline_ns,
            c.current_ns,
            c.change_pct,
            match (c.is_regression(threshold), allow.is_allowed(&c.key)) {
                (true, false) => "  REGRESSION",
                (true, true) => "  REGRESSION (allowed)",
                _ => "",
            }
        );
    }
    for key in &report.only_current {
        println!("{key:<44} (new benchmark, no baseline)");
    }
    for key in &report.only_baseline {
        println!("{key:<44} (removed: present only in baseline)");
    }

    let gating = report.gating_regressions(threshold, &allow);
    let allowed = report.regressions(threshold).len() - gating.len();
    if gating.is_empty() {
        println!(
            "bench_diff: {} benchmarks compared, none regressed by more than {threshold}%{}",
            report.comparisons.len(),
            if allowed > 0 {
                format!(" ({allowed} allowed regressions ignored)")
            } else {
                String::new()
            }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_diff: {} of {} benchmarks regressed by more than {threshold}%{}",
            gating.len(),
            report.comparisons.len(),
            if allowed > 0 {
                format!(" ({allowed} more allowed)")
            } else {
                String::new()
            }
        );
        ExitCode::FAILURE
    }
}
