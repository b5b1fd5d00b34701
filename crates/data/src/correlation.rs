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
//! distributed over threads. Each column tile is first copied k-major
//! into panels of 8 columns (a private `Panels` buffer; a tile's last
//! panel is zero-padded). A tile pair then takes the rows of `I` four at
//! a time and runs them against each panel of `J` in one pass over `k`,
//! accumulating a 4 × 8 register block in which each pair keeps its own
//! lane. The block body is written once and compiled twice: for the
//! target's baseline ISA (SSE2 on x86_64, the only copy on other
//! targets) and, on x86_64, with AVX2 enabled. Each kernel call picks the
//! AVX2 copy when `is_x86_feature_detected!("avx2")` holds.
//!
//! A full block strictly above the diagonal is stored as four row runs of
//! 8 at `(i, j)` and, mirrored, eight column runs of 4 at `(j, i)`. A
//! partial block (at a tile's end) or one that crosses the diagonal is
//! stored pair by pair, skipping the pairs below the diagonal. There is
//! no separate symmetrise pass and no `Vec<Vec<f64>>` intermediate: the
//! only intermediates are the `n · L` profile and its panel copy (see
//! [`CorrelationKernelStats::peak_intermediate_bytes`]).
//!
//! # Determinism
//!
//! Each entry is computed *exactly once*, by whichever task owns its tile
//! pair, and each pair's dot product starts from +0.0 and accumulates in
//! ascending-`k` order, with a separate multiply and add, into its own
//! lane. No fused multiply-add is used: it rounds once where the
//! reference rounds twice, and would change the bits. Neither the tile
//! size, the thread count nor the compiled copy changes any pair's
//! summation order, so the output is bitwise invariant across all three
//! — and bitwise identical to the reference kernel
//! ([`correlation_matrix_reference`]), whose `0.5 * (ρ_ij + ρ_ji)`
//! symmetrisation averages two bitwise-equal values (both sides
//! accumulate the same products in the same order; IEEE-754
//! multiplication is commutative, and `0.5 * (x + x) == x` exactly).
//! Differential tests in this module assert the equality for both
//! compiled copies.

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
    /// Peak intermediate allocation in bytes, a function of `n`, `L` and
    /// the tile `T` only: the flat z-profile (`8 · n · L`) plus its panel
    /// copy (`8 · L` per panel column, where each column tile's columns
    /// are rounded up to a multiple of 8). Everything else the kernel
    /// touches is output.
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

/// Rows of a register block.
const MR: usize = 4;
/// Columns of a register block, and of a panel.
const NR: usize = 8;

/// The profile's rows copied k-major into panels of [`NR`] columns, one
/// run of panels per column tile: entry `k · NR + c` of panel `p` of tile
/// `t` is `Z[tT + pNR + c][k]`, and 0 past the tile's last column.
struct Panels {
    data: Vec<f64>,
    /// Length of one panel: `NR · L`.
    panel_len: usize,
    /// Offset between two column tiles: a full tile's panels.
    tile_stride: usize,
}

impl Panels {
    /// Packs every column tile of `z` in parallel. The buffer holds
    /// `⌈cols/NR⌉` panels per column tile, so its length depends on `n`,
    /// `L` and `tile` only.
    fn pack(z: &ZProfile, tile: usize) -> Self {
        let panel_len = NR * z.len;
        let tile_stride = tile.div_ceil(NR) * panel_len;
        let len = (0..z.n.div_ceil(tile))
            .map(|t| (z.n - t * tile).min(tile).div_ceil(NR) * panel_len)
            .sum();
        let mut data = vec![0.0f64; len];
        data.par_chunks_mut(tile_stride.max(1))
            .enumerate()
            .for_each(|(t, panels)| {
                let j0 = t * tile;
                for (c, j) in (j0..(j0 + tile).min(z.n)).enumerate() {
                    let panel = &mut panels[(c / NR) * panel_len..][..panel_len];
                    for (k, &x) in z.row(j).iter().enumerate() {
                        panel[k * NR + c % NR] = x;
                    }
                }
            });
        Self {
            data,
            panel_len,
            tile_stride,
        }
    }

    /// Panel `p` of column tile `t`.
    #[inline(always)]
    fn panel(&self, t: usize, p: usize) -> &[f64] {
        &self.data[t * self.tile_stride + p * self.panel_len..][..self.panel_len]
    }

    /// Heap footprint of the panel buffer in bytes.
    fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// One computed block: `rho[r][c]` is ρ(i + r, j + c), clamped to
/// `[-1, 1]` and 1 on the diagonal, for `r < rows` and `c < cols`. The
/// lanes past `rows` and `cols` are padding and are never stored.
struct Block {
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
    rho: [[f64; NR]; MR],
}

/// The block body: `acc[r][c] = Σ_k rows[r][k] · panel[k · NR + c]`, every
/// lane from +0.0 in ascending `k` with a separate multiply and add — the
/// reference kernel's per-pair order. Never use `mul_add` here: a fused
/// add rounds once and changes the bits.
#[inline(always)]
fn block_body(rows: [&[f64]; MR], panel: &[f64]) -> [[f64; NR]; MR] {
    let (panel, _) = panel.as_chunks::<NR>();
    let rows = rows.map(|row| &row[..panel.len()]);
    let mut acc = [[0.0f64; NR]; MR];
    for (k, b) in panel.iter().enumerate() {
        for (lanes, row) in acc.iter_mut().zip(&rows) {
            let x = row[k];
            for (a, &y) in lanes.iter_mut().zip(b) {
                *a += x * y;
            }
        }
    }
    acc
}

/// Every pair `i ∈ I, j ∈ J, i ≤ j` of the tile pair `(ti, tj)`: blocks of
/// [`MR`] rows of `I` against each panel of `J` that holds such a pair,
/// each handed to `emit` once. Inlined into both compiled copies.
#[inline(always)]
fn tile_pair<E: Fn(&Block)>(
    z: &ZProfile,
    panels: &Panels,
    tile: usize,
    (ti, tj): (usize, usize),
    emit: &E,
) {
    let n = z.n;
    let (i0, i1) = (ti * tile, (ti * tile + tile).min(n));
    let (j0, j1) = (tj * tile, (tj * tile + tile).min(n));
    for i in (i0..i1).step_by(MR) {
        let rows = (i1 - i).min(MR);
        // A short block repeats its last row in the unused lanes.
        let a = std::array::from_fn(|r| z.row(i + r.min(rows - 1)));
        // On a diagonal tile pair, start at the panel holding column i.
        let first = if ti == tj { (i - j0) / NR } else { 0 };
        for p in first..(j1 - j0).div_ceil(NR) {
            let j = j0 + p * NR;
            let mut rho = block_body(a, panels.panel(tj, p));
            for lanes in &mut rho {
                for x in lanes.iter_mut() {
                    *x = x.clamp(-1.0, 1.0);
                }
            }
            if ti == tj {
                // The diagonal is 1 by definition, whatever its z-row's norm.
                for (r, lanes) in rho.iter_mut().enumerate() {
                    for (c, x) in lanes.iter_mut().enumerate() {
                        if i + r == j + c {
                            *x = 1.0;
                        }
                    }
                }
            }
            let cols = (j1 - j).min(NR);
            emit(&Block {
                i,
                j,
                rows,
                cols,
                rho,
            });
        }
    }
}

/// [`tile_pair`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tile_pair_avx2<E: Fn(&Block)>(
    z: &ZProfile,
    panels: &Panels,
    tile: usize,
    ids: (usize, usize),
    emit: &E,
) {
    tile_pair(z, panels, tile, ids, emit);
}

/// The compiled copy of the block body a kernel call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The target's baseline ISA: SSE2 on x86_64, the only copy elsewhere.
    Baseline,
    /// The AVX2 copy.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest copy this CPU can run, checked at run time.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }
}

/// Runs the tiled kernel on the copy `isa`, calling `emit` exactly once
/// per block (see [`Block`]); together the blocks cover every pair
/// `i <= j` of the upper triangle once, the diagonal as `1.0`. Returns
/// the kernel counters, `output_bytes` left at 0 for the caller.
fn for_each_block<E: Fn(&Block) + Sync>(
    z: &ZProfile,
    tile: usize,
    isa: Isa,
    emit: E,
) -> CorrelationKernelStats {
    let tile = tile.max(1);
    let nt = z.n.div_ceil(tile);
    let panels = Panels::pack(z, tile);
    let mut tile_pairs = Vec::with_capacity(nt * (nt + 1) / 2);
    for ti in 0..nt {
        for tj in ti..nt {
            tile_pairs.push((ti, tj));
        }
    }
    // `with_max_len(1)`: one tile pair is a cache-sized unit of work;
    // don't let the executor's cheap-item heuristic glue them together.
    let tasks = tile_pairs.par_iter().with_max_len(1);
    match isa {
        Isa::Baseline => tasks.for_each(|&ids| tile_pair(z, &panels, tile, ids, &emit)),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "the AVX2 kernel needs a CPU with AVX2"
            );
            tasks.for_each(|&ids| {
                // SAFETY: `tile_pair_avx2` needs AVX2 and nothing else, and
                // the `is_x86_feature_detected!("avx2")` assert above has
                // checked at run time that this CPU has it.
                unsafe { tile_pair_avx2(z, &panels, tile, ids, &emit) }
            });
        }
    }
    CorrelationKernelStats {
        n: z.n,
        series_len: z.len,
        tile,
        tiles_computed: nt * (nt + 1) / 2,
        peak_intermediate_bytes: z.memory_bytes() + panels.memory_bytes(),
        output_bytes: 0,
    }
}

/// Stores block `b`, mapped through `f`, into the flat `n × n` buffer
/// behind `ptr`: each pair `(i, j)` of the block with `i <= j` at `(i, j)`
/// and at `(j, i)` — once only when `i == j`. A full block strictly above
/// the diagonal goes out as [`MR`] row runs of [`NR`] and [`NR`] column
/// runs of [`MR`]; any other block pair by pair. Each store is declared
/// to `audit`, whose exactly-once-per-cell check (active under
/// `--cfg pfg_racecheck`) is what pins down the tile decomposition's
/// disjoint-write claim.
///
/// # Safety
/// `ptr` must point at `n * n` valid writable elements and the caller must
/// be the unique writer of the cells `b` stores: the tiled kernel emits
/// each block of the upper triangle once, from one tile task.
#[inline(always)]
unsafe fn write_block<T: Copy + Default + Send>(
    ptr: SendPtr<T>,
    audit: &DisjointWriteAudit,
    n: usize,
    b: &Block,
    f: impl Fn(f64) -> T,
) {
    let mut v = [[T::default(); NR]; MR];
    for (lanes, rho) in v.iter_mut().zip(&b.rho) {
        for (x, &rho) in lanes.iter_mut().zip(rho) {
            *x = f(rho);
        }
    }
    let out = ptr.get();
    if b.rows == MR && b.cols == NR && b.i + MR <= b.j {
        for (r, lanes) in v.iter().enumerate() {
            let at = (b.i + r) * n + b.j;
            for (c, &x) in lanes.iter().enumerate() {
                audit.write_once(at + c);
                *out.add(at + c) = x;
            }
        }
        for c in 0..NR {
            let at = (b.j + c) * n + b.i;
            for (r, lanes) in v.iter().enumerate() {
                audit.write_once(at + r);
                *out.add(at + r) = lanes[c];
            }
        }
    } else {
        for (r, lanes) in v.iter().enumerate().take(b.rows) {
            for (c, &x) in lanes.iter().enumerate().take(b.cols) {
                let (i, j) = (b.i + r, b.j + c);
                if i <= j {
                    audit.write_once(i * n + j);
                    *out.add(i * n + j) = x;
                }
                if i < j {
                    audit.write_once(j * n + i);
                    *out.add(j * n + i) = x;
                }
            }
        }
    }
}

/// Runs the kernel on the copy `isa` into `K` fresh `n × n` buffers, one
/// per `labels` entry: buffer `k` holds `map(ρ)[k]` at `(i, j)` and
/// `(j, i)` for every pair. `output_bytes` counts all `K` buffers.
fn kernel_into<T: Copy + Default + Send, const K: usize>(
    z: &ZProfile,
    tile: usize,
    isa: Isa,
    labels: [&'static str; K],
    map: impl Fn(f64) -> [T; K] + Sync,
) -> ([Vec<T>; K], CorrelationKernelStats) {
    let n = z.n;
    let mut out: [Vec<T>; K] = std::array::from_fn(|_| vec![T::default(); n * n]);
    let ptrs = out.each_mut().map(|buf| SendPtr::new(buf.as_mut_ptr()));
    let audits = labels.map(|label| DisjointWriteAudit::cells(label, n * n));
    // SAFETY: `write_block`'s contract — every buffer has n·n elements and
    // the tiled kernel emits each block of the upper triangle exactly once.
    let mut stats = for_each_block(z, tile, isa, |b| unsafe {
        for (k, (&ptr, audit)) in ptrs.iter().zip(&audits).enumerate() {
            write_block(ptr, audit, n, b, |rho| map(rho)[k]);
        }
    });
    stats.output_bytes = K * n * n * std::mem::size_of::<T>();
    (out, stats)
}

/// The full Pearson correlation matrix of a collection of series,
/// computed by the tiled kernel (bitwise identical to
/// [`correlation_matrix_reference`] at any tile size and thread count).
/// The diagonal is 1. Ragged-length collections fall back to the
/// reference kernel.
pub fn correlation_matrix(series: &[Vec<f64>]) -> SymmetricMatrix {
    match ZProfile::build(series) {
        Some(z) => correlation_from_profile(&z, TileConfig::default(), Isa::detect()).0,
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
    correlation_from_profile(&z, config, Isa::detect())
}

/// The tiled kernel over an existing profile, on the copy `isa`.
fn correlation_from_profile(
    z: &ZProfile,
    config: TileConfig,
    isa: Isa,
) -> (SymmetricMatrix, CorrelationKernelStats) {
    let ([data], stats) = kernel_into(z, config.tile, isa, ["correlation matrix"], |rho| [rho]);
    (SymmetricMatrix::from_symmetrized(z.n, data), stats)
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
    correlation_f32_from_profile(&z, config, Isa::detect())
}

/// [`correlation_matrix_f32`] over an existing profile, on the copy `isa`.
fn correlation_f32_from_profile(
    z: &ZProfile,
    config: TileConfig,
    isa: Isa,
) -> (SymmetricMatrixF32, CorrelationKernelStats) {
    let label = "correlation matrix (f32)";
    let ([data], stats) = kernel_into(z, config.tile, isa, [label], |rho| [rho as f32]);
    (SymmetricMatrixF32::from_symmetrized(z.n, data), stats)
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
    fused_from_profile(&z, Isa::detect())
}

/// [`correlation_and_dissimilarity`] over an existing profile, on the
/// copy `isa`.
fn fused_from_profile(
    z: &ZProfile,
    isa: Isa,
) -> (SymmetricMatrix, SymmetricMatrix, CorrelationKernelStats) {
    let labels = ["fused correlation matrix", "fused dissimilarity matrix"];
    let ([corr, diss], stats) = kernel_into(z, TileConfig::default().tile, isa, labels, |rho| {
        [rho, dissimilarity(rho)]
    });
    (
        SymmetricMatrix::from_symmetrized(z.n, corr),
        SymmetricMatrix::from_symmetrized(z.n, diss),
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

    /// Every compiled copy of the block body this CPU can run.
    fn isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Baseline];
        if Isa::detect() != Isa::Baseline {
            isas.push(Isa::detect());
        }
        isas
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
        // n = 16..24 covers every remainder mod 8 inside one tile and, at
        // tiles 3, 8 and 12, across tiles; L = 1 and 2 give zero z-rows
        // (every length-1 series is constant); identical and negated
        // series clamp at ±1.
        let mut inputs: Vec<Vec<Vec<f64>>> = [(1, 4), (37, 23), (64, 5), (101, 46), (19, 1)]
            .into_iter()
            .chain((16..24).map(|n| (n, 9)))
            .map(|(n, len)| synthetic_series(n, len, n as u64))
            .collect();
        let mut short = synthetic_series(21, 2, 21);
        for s in short.iter_mut().step_by(3) {
            s.fill(1.5);
        }
        inputs.push(short);
        let base = synthetic_series(10, 13, 5);
        let negated = base.iter().map(|s| s.iter().map(|x| -x).collect());
        inputs.push(
            base.iter()
                .cloned()
                .chain(base.clone())
                .chain(negated)
                .collect(),
        );
        for series in &inputs {
            let n = series.len();
            let len = series[0].len();
            let reference = correlation_matrix_reference(series);
            let z = ZProfile::build(series).expect("uniform-length input");
            for isa in isas() {
                for tile in [1, 3, 8, 12, 37, 64, 256] {
                    let (tiled, stats) = correlation_from_profile(&z, TileConfig { tile }, isa);
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
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{isa:?} n={n} L={len} tile={tile} idx={idx}"
                        );
                    }
                    let nt = n.div_ceil(tile);
                    assert_eq!(stats.tiles_computed, nt * (nt + 1) / 2);
                }
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
        let z = ZProfile::build(&series).expect("uniform-length input");
        let reference = correlation_matrix_reference(&series);
        let mapped = dissimilarity_from_correlation(&reference);
        for isa in isas() {
            let (corr, diss, stats) = fused_from_profile(&z, isa);
            for (a, b) in corr.as_slice().iter().zip(reference.as_slice().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?}");
            }
            for (a, b) in diss.as_slice().iter().zip(mapped.as_slice().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{isa:?}");
            }
            assert_eq!(stats.output_bytes, 2 * 33 * 33 * 8);
        }
    }

    #[test]
    fn f32_mode_is_the_rounded_f64_kernel() {
        let series = synthetic_series(29, 21, 7);
        let z = ZProfile::build(&series).expect("uniform-length input");
        for isa in isas() {
            let (corr, _) = correlation_from_profile(&z, TileConfig::default(), isa);
            let (corr32, stats) = correlation_f32_from_profile(&z, TileConfig::default(), isa);
            for i in 0..29 {
                for j in 0..29 {
                    assert_eq!(
                        corr32.get(i, j),
                        (corr.get(i, j) as f32) as f64,
                        "{isa:?} ({i},{j})"
                    );
                }
            }
            assert_eq!(stats.output_bytes, 29 * 29 * 4);
            assert_eq!(stats.output_bytes * 2, 29 * 29 * 8);
        }
    }

    #[test]
    fn kernel_stats_bound_peak_intermediates() {
        let n = 96;
        let len = 46;
        let series = synthetic_series(n, len, 11);
        // The intermediates are the flat z-profile (8·n·L bytes) and its
        // panel copy (8·L bytes per panel column, each column tile rounded
        // up to a multiple of 8 columns): one 96-column tile at the
        // default 128, eight 12-column tiles of 16 panel columns at 12.
        for (tile, panel_cols) in [(128, 96), (12, 8 * 16)] {
            let (_, stats) = correlation_matrix_with(&series, TileConfig { tile });
            assert_eq!(
                stats.peak_intermediate_bytes,
                8 * n * len + 8 * len * panel_cols
            );
            assert!(stats.peak_intermediate_bytes <= 8 * n * (n + stats.tile));
            assert_eq!(stats.n, n);
            assert_eq!(stats.series_len, len);
        }
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
