//! Input-layer benchmarks: the tiled z-normalize-once correlation kernel,
//! its `f32`-storage variant, and the fused correlation+dissimilarity
//! pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfg_data::{
    correlation_and_dissimilarity, correlation_matrix_f32, correlation_matrix_with, TileConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Synthetic uniform-length series: class archetypes plus noise, the same
/// shape the UCR stand-ins use, generated directly so the benchmark's
/// input cost is nothing but the kernel's.
fn series(n: usize, len: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(7);
    let classes = 24;
    let archetypes: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            let freq = rng.gen_range(1.0..4.0);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            (0..len)
                .map(|t| (freq * t as f64 / len as f64 * std::f64::consts::TAU + phase).sin())
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            archetypes[i % classes]
                .iter()
                .map(|&x| x + rng.gen_range(-0.35..0.35))
                .collect()
        })
        .collect()
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("correlation");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let data = series(n, 64);
        group.bench_with_input(BenchmarkId::new("tiled", n), &data, |b, data| {
            b.iter(|| black_box(correlation_matrix_with(data, TileConfig::default())))
        });
    }
    let data = series(2000, 64);
    group.bench_function(BenchmarkId::new("f32", 2000), |b| {
        b.iter(|| black_box(correlation_matrix_f32(&data, TileConfig::default())))
    });
    group.bench_function(BenchmarkId::new("fused_corr_diss", 2000), |b| {
        b.iter(|| black_box(correlation_and_dissimilarity(&data)))
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
