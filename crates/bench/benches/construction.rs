//! Filtered-graph construction benchmarks: sequential TMFG, prefix-batched
//! TMFG (the Figure 4/5 "tmfg" stage) on f64 and on f32 storage, and the
//! PMFG — both the sequential baseline and the round-based parallel
//! construction, whose ratio tracks the paper's headline TMFG-vs-PMFG
//! runtime gap (Figures 1/3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfg_bench::{BenchDataset, SuiteConfig};
use pfg_core::{pmfg, pmfg_sequential, tmfg, TmfgConfig};
use pfg_data::{correlation_matrix_f32, ucr_catalogue, TileConfig};
use std::hint::black_box;

fn dataset(scale: f64) -> BenchDataset {
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "ECG5000")
        .expect("catalogue entry");
    BenchDataset::prepare(
        &spec,
        &SuiteConfig {
            scale,
            ..SuiteConfig::default()
        },
    )
}

fn bench_tmfg(c: &mut Criterion) {
    let data = dataset(0.05);
    let mut group = c.benchmark_group("tmfg");
    group.sample_size(10);
    for prefix in [1usize, 10, 50, 200] {
        group.bench_with_input(BenchmarkId::new("prefix", prefix), &prefix, |b, &prefix| {
            b.iter(|| {
                black_box(tmfg(&data.correlation, TmfgConfig::with_prefix(prefix)).expect("valid"))
            })
        });
    }
    // The large-n configuration: f32 storage at prefix 10, on a
    // StarLightCurves stand-in (n ≈ 1,850) whose gain scans walk pools of
    // up to n entries. The matrix is built once, outside the timed loop.
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "StarLightCurves")
        .expect("catalogue entry");
    let series = spec.generate(0.2, SuiteConfig::default().seed).series;
    let (s32, _) = correlation_matrix_f32(&series, TileConfig::default());
    group.bench_function(BenchmarkId::new("f32_prefix10", s32.n()), |b| {
        b.iter(|| black_box(tmfg(&s32, TmfgConfig::with_prefix(10)).expect("valid")))
    });
    group.finish();
}

fn bench_pmfg(c: &mut Criterion) {
    // The sequential PMFG runs a planarity test per candidate edge; keep
    // the sizes moderate. "n" is the round-based parallel construction
    // (the label the seed used for the sequential one, so bench_diff
    // tracks the trajectory of the default `pmfg()` entry point across
    // PRs); "seq_n" is the one-candidate-at-a-time baseline on the same
    // scratch-reusing planarity core.
    let mut group = c.benchmark_group("pmfg");
    group.sample_size(10);
    for scale in [0.02, 0.05] {
        let data = dataset(scale);
        group.bench_function(BenchmarkId::new("n", data.len()), |b| {
            b.iter(|| black_box(pmfg(&data.correlation).expect("valid")))
        });
        group.bench_function(BenchmarkId::new("seq_n", data.len()), |b| {
            b.iter(|| black_box(pmfg_sequential(&data.correlation).expect("valid")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tmfg, bench_pmfg);
criterion_main!(benches);
