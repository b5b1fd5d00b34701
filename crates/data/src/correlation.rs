//! Pearson correlations and the correlation-based dissimilarity measure,
//! computed by a cache-blocked, allocation-lean kernel.
//!
//! # Kernel layout
//!
//! All series are z-normalised once (centred, unit norm) into a single
//! flat row-major buffer `Z` (a private `ZProfile`); every pairwise
//! correlation is then the dot product `ρ(i, j) = Z[i] · Z[j]`, i.e.
//! `C = Z · Zᵀ`. The kernel walks the upper triangle of `C` tile by
//! tile: the tile pairs `(I, J)` with `I ≤ J` of a `T × T` blocking are
//! distributed over threads, and each tile pair computes the entries
//! `{(i, j) : i ∈ I, j ∈ J, i ≤ j}` with a register-blocked microkernel —
//! for a fixed row `i`, four columns `j..j+4` share one pass over `k`,
//! each pair keeping its own accumulator. Both mirrored positions `(i, j)` and `(j, i)` of
//! the flat output buffer are written from the single computed value, so
//! there is no separate symmetrise pass and no `Vec<Vec<f64>>`
//! intermediate: peak intermediate allocation is the `n · L` profile
//! buffer (one tile band of rows when `L ≤ T`), down from the previous
//! kernel's ~3×n² (normalised rows + row-major products + matrix).
//!
//! # Determinism
//!
//! Each entry is computed *exactly once*, by whichever task owns its tile
//! pair, and each pair's dot product accumulates in ascending-`k` order
//! into a private accumulator. Neither the tile size nor the thread count
//! changes any pair's summation order, so the output is bitwise invariant
//! across tile sizes and `RAYON_NUM_THREADS` — and bitwise identical to
//! the reference kernel ([`correlation_matrix_reference`]), whose
//! `0.5 * (ρ_ij + ρ_ji)` symmetrisation averages two bitwise-equal values
//! (both sides accumulate the same products in the same order; IEEE-754
//! multiplication is commutative, and `0.5 * (x + x) == x` exactly).
//! Differential tests in this module assert the equality.

use pfg_graph::{dissimilarity, SymmetricMatrix, SymmetricMatrixF32};
use pfg_primitives::{DisjointWriteAudit, SendPtr};
use rayon::prelude::*;

/// Tiling parameters of the correlation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Edge length of the square tiles the output is blocked into.
    pub tile: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 128 rows of a typical UCR-length profile keep the two active
        // tile bands inside L2 while giving the scheduler n²/2T² units.
        Self { tile: 128 }
    }
}

/// Counters describing one run of the tiled kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationKernelStats {
    /// Number of series (matrix dimension).
    pub n: usize,
    /// Length of each (uniform-length) series.
    pub series_len: usize,
    /// Tile edge length used.
    pub tile: usize,
    /// Upper-triangle tile pairs computed: `t(t+1)/2` for `t = ⌈n/T⌉`.
    pub tiles_computed: usize,
    /// Peak intermediate allocation in bytes: the flat z-profile buffer
    /// (`8 · n · L`). Everything else the kernel touches is output.
    pub peak_intermediate_bytes: usize,
    /// Bytes of output matrices written by the call.
    pub output_bytes: usize,
}

/// The z-normalised profile of a uniform-length series collection: one
/// flat row-major buffer holding each series centred and scaled to unit
/// norm (all-zero row for constant series), so every pairwise correlation
/// is a plain dot product.
struct ZProfile {
    n: usize,
    len: usize,
    data: Vec<f64>,
}

impl ZProfile {
    /// Normalises `series` in parallel. Returns `None` when the series do
    /// not all have the same length (the tiled kernel requires a
    /// rectangular profile; ragged input falls back to the reference
    /// kernel).
    fn build(series: &[Vec<f64>]) -> Option<Self> {
        let n = series.len();
        let len = series.first().map_or(0, |s| s.len());
        if series.iter().any(|s| s.len() != len) {
            return None;
        }
        let mut data = vec![0.0f64; n * len];
        data.par_chunks_mut(len.max(1))
            .zip(series.par_iter())
            .for_each(|(row, s)| {
                z_normalize_into(s, &mut row[..s.len()]);
            });
        Some(Self { n, len, data })
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.len..(i + 1) * self.len]
    }

    /// Heap footprint of the profile buffer in bytes.
    fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

/// Centres `s` and scales it to unit norm, writing into `out`
/// (bitwise-identically to the reference kernel's per-row normalisation:
/// same sums, same order, same zero-variance fallback).
fn z_normalize_into(s: &[f64], out: &mut [f64]) {
    debug_assert_eq!(s.len(), out.len());
    let mean = s.iter().sum::<f64>() / s.len().max(1) as f64;
    for (o, &x) in out.iter_mut().zip(s.iter()) {
        *o = x - mean;
    }
    let norm = out.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm <= 0.0 {
        out.fill(0.0);
    } else {
        for o in out.iter_mut() {
            *o /= norm;
        }
    }
}

/// Stores `v` at the mirrored positions `(i, j)` and `(j, i)` of the flat
/// `n × n` buffer behind `ptr` — once only when `i == j` — and declares
/// each store to `audit`, whose exactly-once-per-cell check (active under
/// `--cfg pfg_racecheck`) is what pins down the tile decomposition's
/// disjoint-write claim.
///
/// # Safety
/// `ptr` must point at `n * n` valid writable elements and the caller must
/// be the unique writer of positions `(i, j)` and `(j, i)`: the tiled
/// kernel assigns each unordered pair to exactly one tile task.
#[inline]
unsafe fn write_sym<T: Copy + Send>(
    ptr: SendPtr<T>,
    audit: &DisjointWriteAudit,
    n: usize,
    i: usize,
    j: usize,
    v: T,
) {
    audit.write_once(i * n + j);
    *ptr.get().add(i * n + j) = v;
    if i != j {
        audit.write_once(j * n + i);
        *ptr.get().add(j * n + i) = v;
    }
}

/// Runs the tiled kernel, calling `emit(i, j, ρ)` exactly once per pair
/// `i <= j` of the upper triangle (diagonal included, as `1.0`). Returns
/// the number of tile pairs computed.
fn for_each_pair<E: Fn(usize, usize, f64) + Sync>(z: &ZProfile, tile: usize, emit: E) -> usize {
    let n = z.n;
    let tile = tile.max(1);
    if n == 0 {
        return 0;
    }
    let nt = n.div_ceil(tile);
    let mut tile_pairs = Vec::with_capacity(nt * (nt + 1) / 2);
    for ti in 0..nt {
        for tj in ti..nt {
            tile_pairs.push((ti, tj));
        }
    }
    let len = z.len;
    // `with_max_len(1)`: one tile pair is a cache-sized unit of work;
    // don't let the executor's cheap-item heuristic glue them together.
    tile_pairs.par_iter().with_max_len(1).for_each(|&(ti, tj)| {
        let (i0, i1) = (ti * tile, (ti * tile + tile).min(n));
        let (j0, j1) = (tj * tile, (tj * tile + tile).min(n));
        for i in i0..i1 {
            let zi = &z.row(i)[..len];
            let mut j = if ti == tj { i } else { j0 };
            if j == i {
                emit(i, i, 1.0);
                j += 1;
            }
            // Register-blocked microkernel: four columns share one pass
            // over k, each pair accumulating in ascending-k order into
            // its own register — the order the reference kernel uses.
            while j + 4 <= j1 {
                let r0 = &z.row(j)[..len];
                let r1 = &z.row(j + 1)[..len];
                let r2 = &z.row(j + 2)[..len];
                let r3 = &z.row(j + 3)[..len];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for k in 0..len {
                    let x = zi[k];
                    a0 += x * r0[k];
                    a1 += x * r1[k];
                    a2 += x * r2[k];
                    a3 += x * r3[k];
                }
                emit(i, j, a0.clamp(-1.0, 1.0));
                emit(i, j + 1, a1.clamp(-1.0, 1.0));
                emit(i, j + 2, a2.clamp(-1.0, 1.0));
                emit(i, j + 3, a3.clamp(-1.0, 1.0));
                j += 4;
            }
            while j < j1 {
                let rj = &z.row(j)[..len];
                let mut acc = 0.0f64;
                for k in 0..len {
                    acc += zi[k] * rj[k];
                }
                emit(i, j, acc.clamp(-1.0, 1.0));
                j += 1;
            }
        }
    });
    nt * (nt + 1) / 2
}

fn base_stats(z: &ZProfile, tile: usize, tiles: usize) -> CorrelationKernelStats {
    CorrelationKernelStats {
        n: z.n,
        series_len: z.len,
        tile: tile.max(1),
        tiles_computed: tiles,
        peak_intermediate_bytes: z.memory_bytes(),
        output_bytes: 0,
    }
}

/// The full Pearson correlation matrix of a collection of series,
/// computed by the tiled kernel (bitwise identical to
/// [`correlation_matrix_reference`] at any tile size and thread count).
/// The diagonal is 1. Ragged-length collections fall back to the
/// reference kernel.
pub fn correlation_matrix(series: &[Vec<f64>]) -> SymmetricMatrix {
    match ZProfile::build(series) {
        Some(z) => correlation_from_profile(&z, TileConfig::default()).0,
        None => correlation_matrix_reference(series),
    }
}

/// [`correlation_matrix`] with explicit tiling, also returning the kernel
/// counters.
///
/// # Panics
/// Panics if the series do not all have the same length.
pub fn correlation_matrix_with(
    series: &[Vec<f64>],
    config: TileConfig,
) -> (SymmetricMatrix, CorrelationKernelStats) {
    let z = ZProfile::build(series).expect("tiled kernel requires uniform-length series");
    correlation_from_profile(&z, config)
}

/// The tiled kernel over an existing profile.
fn correlation_from_profile(
    z: &ZProfile,
    config: TileConfig,
) -> (SymmetricMatrix, CorrelationKernelStats) {
    let n = z.n;
    let mut data = vec![0.0f64; n * n];
    let ptr = SendPtr::new(data.as_mut_ptr());
    let audit = DisjointWriteAudit::cells("correlation matrix", n * n);
    // SAFETY: `write_sym`'s contract — `data` has n·n elements and the
    // tiled kernel emits each unordered pair exactly once.
    let tiles = for_each_pair(z, config.tile, |i, j, rho| unsafe {
        write_sym(ptr, &audit, n, i, j, rho);
    });
    let mut stats = base_stats(z, config.tile, tiles);
    stats.output_bytes = n * n * std::mem::size_of::<f64>();
    (SymmetricMatrix::from_symmetrized(n, data), stats)
}

/// The correlation matrix in `f32` storage: computed in `f64` by the same
/// tiled kernel and rounded once on store, halving the `n²` footprint.
///
/// # Panics
/// Panics if the series do not all have the same length.
pub fn correlation_matrix_f32(
    series: &[Vec<f64>],
    config: TileConfig,
) -> (SymmetricMatrixF32, CorrelationKernelStats) {
    let z = ZProfile::build(series).expect("tiled kernel requires uniform-length series");
    let n = z.n;
    let mut data = vec![0.0f32; n * n];
    let ptr = SendPtr::new(data.as_mut_ptr());
    let audit = DisjointWriteAudit::cells("correlation matrix (f32)", n * n);
    // SAFETY: as in `correlation_from_profile` — n·n buffer, one emit per
    // unordered pair.
    let tiles = for_each_pair(&z, config.tile, |i, j, rho| unsafe {
        write_sym(ptr, &audit, n, i, j, rho as f32);
    });
    let mut stats = base_stats(&z, config.tile, tiles);
    stats.output_bytes = n * n * std::mem::size_of::<f32>();
    (SymmetricMatrixF32::from_symmetrized(n, data), stats)
}

/// The fused path for callers that need *both* matrices: one kernel pass
/// writes the correlation and its [`dissimilarity`] together, instead of
/// materialising the correlation and re-mapping it.
///
/// # Panics
/// Panics if the series do not all have the same length.
pub fn correlation_and_dissimilarity(
    series: &[Vec<f64>],
) -> (SymmetricMatrix, SymmetricMatrix, CorrelationKernelStats) {
    let z = ZProfile::build(series).expect("tiled kernel requires uniform-length series");
    let n = z.n;
    let mut corr = vec![0.0f64; n * n];
    let mut diss = vec![0.0f64; n * n];
    let cptr = SendPtr::new(corr.as_mut_ptr());
    let dptr = SendPtr::new(diss.as_mut_ptr());
    let caudit = DisjointWriteAudit::cells("fused correlation matrix", n * n);
    let daudit = DisjointWriteAudit::cells("fused dissimilarity matrix", n * n);
    // SAFETY: as in `correlation_from_profile`, independently per buffer.
    let tiles = for_each_pair(&z, TileConfig::default().tile, |i, j, rho| unsafe {
        write_sym(cptr, &caudit, n, i, j, rho);
        write_sym(dptr, &daudit, n, i, j, dissimilarity(rho));
    });
    let mut stats = base_stats(&z, TileConfig::default().tile, tiles);
    stats.output_bytes = 2 * n * n * std::mem::size_of::<f64>();
    (
        SymmetricMatrix::from_symmetrized(n, corr),
        SymmetricMatrix::from_symmetrized(n, diss),
        stats,
    )
}

/// The pre-tiling reference kernel: normalised `Vec<Vec<f64>>` rows, a
/// full `n × n` product pass, and an averaging symmetrise tail. Kept as
/// the differential-test oracle (the tiled kernel must match it bitwise)
/// and as the fallback for ragged-length collections.
pub fn correlation_matrix_reference(series: &[Vec<f64>]) -> SymmetricMatrix {
    let n = series.len();
    // Pre-compute centred, unit-norm series so each pair is a dot product.
    let normalized: Vec<Vec<f64>> = series
        .par_iter()
        .map(|s| {
            let mean = s.iter().sum::<f64>() / s.len().max(1) as f64;
            let centred: Vec<f64> = s.iter().map(|&x| x - mean).collect();
            let norm = centred.iter().map(|&x| x * x).sum::<f64>().sqrt();
            if norm <= 0.0 {
                vec![0.0; s.len()]
            } else {
                centred.iter().map(|&x| x / norm).collect()
            }
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        1.0
                    } else {
                        normalized[i]
                            .iter()
                            .zip(normalized[j].iter())
                            .map(|(&x, &y)| x * y)
                            .sum::<f64>()
                            .clamp(-1.0, 1.0)
                    }
                })
                .collect()
        })
        .collect();
    let mut m = SymmetricMatrix::zeros(n);
    // Indexing two different rows (`rows[i][j]` and `rows[j][i]`) per
    // iteration — the iterator rewrite clippy suggests does not apply.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in i..n {
            // Average the two symmetric entries to wash out rounding noise.
            let v = 0.5 * (rows[i][j] + rows[j][i]);
            m.set(i, j, v);
        }
    }
    m
}

/// The [`dissimilarity`] `d = sqrt(2 (1 − p))` of every entry, used by
/// the paper for the shortest-path computations. For z-normalised series
/// this equals the Euclidean distance between them (up to scale).
pub fn dissimilarity_from_correlation(correlation: &SymmetricMatrix) -> SymmetricMatrix {
    correlation.map(dissimilarity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let phase = (i % 7) as f64;
                (0..len)
                    .map(|t| (0.3 * t as f64 + phase).sin() + 0.5 * next())
                    .collect()
            })
            .collect()
    }

    /// The correlation of two series, read off the two-series matrix.
    fn correlation_of(a: &[f64], b: &[f64]) -> f64 {
        correlation_matrix(&[a.to_vec(), b.to_vec()]).get(0, 1)
    }

    /// The textbook Pearson coefficient `cov(a, b) / (σ_a σ_b)`, computed
    /// without the kernel's z-normalisation.
    fn textbook_pearson(a: &[f64], b: &[f64]) -> f64 {
        let len = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / len, b.iter().sum::<f64>() / len);
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va * vb).sqrt()
    }

    #[test]
    fn pearson_of_identical_series_is_one() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        assert!((correlation_of(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_negated_series_is_minus_one() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((correlation_of(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_is_shift_and_scale_invariant() {
        let a = vec![1.0, 5.0, 2.0, 8.0, 3.0];
        let b: Vec<f64> = a.iter().map(|x| 3.0 * x + 10.0).collect();
        assert!((correlation_of(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_correlation() {
        let a = vec![2.0; 5];
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(correlation_of(&a, &b), 0.0);
        assert_eq!(correlation_of(&b, &a), 0.0);
    }

    #[test]
    fn correlation_matrix_matches_pairwise_pearson() {
        let series = vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![2.0, 1.0, 4.0, 3.0, 6.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0],
        ];
        let m = correlation_matrix(&series);
        for i in 0..3 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..3 {
                let want = textbook_pearson(&series[i], &series[j]);
                assert!((m.get(i, j) - want).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_tile_sizes() {
        for (n, len) in [(1, 4), (37, 23), (64, 5), (101, 46)] {
            let series = synthetic_series(n, len, n as u64);
            let reference = correlation_matrix_reference(&series);
            for tile in [1, 8, 37, 64, 256] {
                let (tiled, stats) = correlation_matrix_with(&series, TileConfig { tile });
                assert_eq!(
                    tiled.as_slice().len(),
                    reference.as_slice().len(),
                    "n={n} tile={tile}"
                );
                for (idx, (a, b)) in tiled
                    .as_slice()
                    .iter()
                    .zip(reference.as_slice().iter())
                    .enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} tile={tile} idx={idx}");
                }
                let nt = n.div_ceil(tile);
                assert_eq!(stats.tiles_computed, nt * (nt + 1) / 2);
            }
        }
    }

    #[test]
    fn tiled_kernel_is_thread_count_invariant() {
        // Each tile pair writes a disjoint output range, so the result is
        // bitwise identical no matter how rayon schedules the tiles. Pin
        // explicit pools rather than relying on the ambient thread count so
        // the test exercises 1/4/8 threads regardless of RAYON_NUM_THREADS.
        let series = synthetic_series(97, 29, 41);
        let reference = correlation_matrix_reference(&series);
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let (tiled, _) =
                pool.install(|| correlation_matrix_with(&series, TileConfig { tile: 16 }));
            for (idx, (a, b)) in tiled
                .as_slice()
                .iter()
                .zip(reference.as_slice().iter())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} idx={idx}");
            }
        }
    }

    #[test]
    fn default_path_is_the_tiled_kernel_result() {
        let series = synthetic_series(50, 19, 99);
        let via_default = correlation_matrix(&series);
        let reference = correlation_matrix_reference(&series);
        for (a, b) in via_default
            .as_slice()
            .iter()
            .zip(reference.as_slice().iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ragged_series_fall_back_to_reference() {
        let series = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![4.0, 3.0, 2.0],
            vec![1.0, 3.0, 2.0, 4.0],
        ];
        assert!(ZProfile::build(&series).is_none());
        let m = correlation_matrix(&series);
        let reference = correlation_matrix_reference(&series);
        for (a, b) in m.as_slice().iter().zip(reference.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_dissimilarity_matches_mapped_path() {
        let series = synthetic_series(33, 17, 3);
        let (corr, diss, stats) = correlation_and_dissimilarity(&series);
        let reference = correlation_matrix_reference(&series);
        let mapped = dissimilarity_from_correlation(&reference);
        for (a, b) in corr.as_slice().iter().zip(reference.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in diss.as_slice().iter().zip(mapped.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(stats.output_bytes, 2 * 33 * 33 * 8);
    }

    #[test]
    fn f32_mode_is_the_rounded_f64_kernel() {
        let series = synthetic_series(29, 21, 7);
        let (corr, _) = correlation_matrix_with(&series, TileConfig::default());
        let (corr32, stats) = correlation_matrix_f32(&series, TileConfig::default());
        for i in 0..29 {
            for j in 0..29 {
                assert_eq!(
                    corr32.get(i, j),
                    (corr.get(i, j) as f32) as f64,
                    "({i},{j})"
                );
            }
        }
        assert_eq!(stats.output_bytes, 29 * 29 * 4);
        assert_eq!(stats.output_bytes * 2, 29 * 29 * 8);
    }

    #[test]
    fn kernel_stats_bound_peak_intermediates() {
        let n = 96;
        let len = 46;
        let series = synthetic_series(n, len, 11);
        let (_, stats) = correlation_matrix_with(&series, TileConfig::default());
        // The only intermediate is the flat z-profile: exactly 8·n·L
        // bytes, which for L ≤ n + T is within "1×n² plus one tile band"
        // — far below the old kernel's ~3×n² of Vec<Vec> intermediates.
        assert_eq!(stats.peak_intermediate_bytes, 8 * n * len);
        assert!(stats.peak_intermediate_bytes <= 8 * n * (n + stats.tile));
        assert_eq!(stats.n, n);
        assert_eq!(stats.series_len, len);
    }

    #[test]
    fn dissimilarity_transform_bounds() {
        let series = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![1.0, 3.0, 2.0, 4.0],
        ];
        let c = correlation_matrix(&series);
        let d = dissimilarity_from_correlation(&c);
        for i in 0..3 {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..3 {
                assert!(d.get(i, j) >= 0.0 && d.get(i, j) <= 2.0 + 1e-12);
            }
        }
        // Perfectly anti-correlated pair is at the maximum distance 2.
        assert!((d.get(0, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_yields_empty_matrix() {
        let series: Vec<Vec<f64>> = Vec::new();
        let m = correlation_matrix(&series);
        assert_eq!(m.n(), 0);
        let (m2, stats) = correlation_matrix_with(&series, TileConfig::default());
        assert_eq!(m2.n(), 0);
        assert_eq!(stats.tiles_computed, 0);
    }
}
