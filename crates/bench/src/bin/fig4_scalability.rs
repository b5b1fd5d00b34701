//! Figure 4: scalability of PAR-TDBHT.
//!
//! Two modes:
//!
//! * **Thread sweep** (default): self-relative speedup vs. thread count,
//!   for different prefix sizes, on the largest (Crop-like) data set.
//!   `cargo run --release -p pfg_bench --bin fig4_scalability [scale]`
//! * **n sweep** (`nsweep [--quick]`): end-to-end input-size scaling of
//!   the large-`n` configuration — `f32` tiled correlation kernel, dense
//!   TMFG candidate scans, and the on-the-fly dissimilarity view (no
//!   dense `f64` correlation and no dense dissimilarity matrix are ever
//!   materialised). The table's `tmfg(s)`, `apsp(s)` and `hac(s)`
//!   columns are the construction, shortest-path and hierarchy stages
//!   inside `cluster(s)` (`StageTimings`). Emits one `Record` per size plus
//!   mean-time entries in `BENCH_fig4_nsweep.json` so `bench_diff` tracks
//!   the trajectory. `--quick` swaps the full sizes (2 000 / 8 000 /
//!   30 000) for CI-sized ones (500 / 1 000).

use pfg_bench::records::{record_dir, write_json_array};
use pfg_bench::{parse_scale_from_args, BenchDataset, Record, SuiteConfig};
use pfg_core::ParTdbht;
use pfg_data::{correlation_matrix_f32, ucr_catalogue, TileConfig};
use pfg_metrics::adjusted_rand_index;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "nsweep") {
        nsweep(args.iter().any(|a| a == "--quick"));
    } else {
        thread_sweep();
    }
}

/// Synthetic labeled series (class archetypes plus noise), generated
/// directly so the sweep's input cost is only the pipeline's.
fn synthetic_series(
    n: usize,
    classes: usize,
    len: usize,
    noise: f64,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let archetypes: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            let freq = rng.gen_range(1.0..4.0);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            (0..len)
                .map(|t| (freq * t as f64 / len as f64 * std::f64::consts::TAU + phase).sin())
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    let series = labels
        .iter()
        .map(|&c| {
            archetypes[c]
                .iter()
                .map(|&x| x + rng.gen_range(-noise..noise))
                .collect()
        })
        .collect();
    (series, labels)
}

fn nsweep(quick: bool) {
    let sizes: &[usize] = if quick {
        &[500, 1000]
    } else {
        &[2000, 8000, 30000]
    };
    let (classes, len, noise) = (24usize, 46usize, 0.35);
    let prefix = 10usize;
    println!(
        "# Figure 4 (n sweep): f32 tiled kernel + PAR-TDBHT-{prefix} over the dissimilarity view"
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>12}",
        "n",
        "kernel(s)",
        "tmfg(s)",
        "apsp(s)",
        "hac(s)",
        "cluster(s)",
        "total(s)",
        "ari",
        "matrix(MB)"
    );
    let mut lines = Vec::new();
    for &n in sizes {
        let (series, labels) = synthetic_series(n, classes, len, noise, 20230309);
        let start = Instant::now();
        let (s32, kernel) = correlation_matrix_f32(&series, TileConfig::default());
        let kernel_time = start.elapsed();
        let start = Instant::now();
        let result = ParTdbht::with_prefix(prefix)
            .run_f32(&s32)
            .expect("valid matrices");
        let cluster_time = start.elapsed();
        let total = kernel_time + cluster_time;
        let ari = adjusted_rand_index(&labels, &result.clusters(classes));
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8.3} {:>12.1}",
            n,
            kernel_time.as_secs_f64(),
            result.timings.tmfg.as_secs_f64(),
            result.timings.apsp.as_secs_f64(),
            result.timings.hierarchy.as_secs_f64(),
            cluster_time.as_secs_f64(),
            total.as_secs_f64(),
            ari,
            kernel.output_bytes as f64 / 1e6
        );
        Record {
            experiment: "fig4_nsweep".into(),
            dataset: format!("synth-{n}"),
            method: format!("PAR-TDBHT-{prefix}(f32)"),
            params: format!(
                "n={n},len={len},classes={classes},tiles={},peak_bytes={}",
                kernel.tiles_computed, kernel.peak_intermediate_bytes
            ),
            seconds: total.as_secs_f64(),
            ari: Some(ari),
            value: Some(kernel_time.as_secs_f64()),
        }
        .emit();
        for (label, time) in [
            ("kernel", kernel_time),
            ("cluster", cluster_time),
            ("end_to_end", total),
        ] {
            lines.push(format!(
                "{{\"bench\":\"fig4_nsweep\",\"label\":\"{label}/{n}\",\"samples\":1,\"mean_ns\":{}}}",
                time.as_nanos()
            ));
        }
    }
    let path = record_dir().join("BENCH_fig4_nsweep.json");
    match write_json_array(&path, &lines) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
    }
}

fn thread_sweep() {
    let config = parse_scale_from_args();
    // The paper uses Crop (n = 19412); generate its scaled stand-in.
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "Crop")
        .expect("Crop in catalogue");
    let dataset = BenchDataset::prepare(
        &spec,
        &SuiteConfig {
            scale: config.scale,
            ..config
        },
    );
    println!(
        "# Figure 4: self-relative speedup on {} (n = {}, scale = {})",
        dataset.name,
        dataset.len(),
        config.scale
    );
    let max_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1, 2, 4, 8, 12, 24, 36, 48];
    thread_counts.retain(|&t| t <= max_threads);
    if !thread_counts.contains(&max_threads) {
        thread_counts.push(max_threads);
    }
    println!(
        "{:>8} {:>8} {:>12} {:>10}",
        "prefix", "threads", "time(s)", "speedup"
    );
    for prefix in [1usize, 2, 5, 10, 30, 50, 200] {
        let mut single_thread_time = None;
        for &threads in &thread_counts {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let start = Instant::now();
            let result = pool.install(|| {
                ParTdbht::with_prefix(prefix)
                    .run(&dataset.correlation, &dataset.dissimilarity)
                    .expect("valid matrices")
            });
            let elapsed = start.elapsed();
            drop(result);
            let baseline = *single_thread_time.get_or_insert(elapsed.as_secs_f64());
            let speedup = baseline / elapsed.as_secs_f64();
            println!(
                "{:>8} {:>8} {:>12.3} {:>10.2}",
                prefix,
                threads,
                elapsed.as_secs_f64(),
                speedup
            );
            Record {
                experiment: "fig4".into(),
                dataset: dataset.name.clone(),
                method: format!("PAR-TDBHT-{prefix}"),
                params: format!("threads={threads}"),
                seconds: elapsed.as_secs_f64(),
                ari: None,
                value: Some(speedup),
            }
            .emit();
        }
    }
}
