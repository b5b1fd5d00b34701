//! Abstraction over similarity-matrix storage.
//!
//! Filtered-graph construction (TMFG, PMFG) only ever *reads* the
//! similarity matrix — single entries, row sums, and the best-row seed —
//! and only *compares* the weights it reads. [`SimilaritySource`] captures
//! exactly that surface, so the same construction code runs over the dense
//! `f64` matrix and the half-footprint `f32` matrix.
//! [`DissimilarityView`] derives the DBHT's edge lengths from any source
//! on the fly.

use rayon::prelude::*;

use crate::matrix::{SymmetricMatrix, SymmetricMatrixF32};
use crate::shortest_paths::PairDistances;

/// Read-only access to a symmetric similarity matrix.
///
/// Implementations must be symmetric (`get(i, j) == get(j, i)` bitwise)
/// with a meaningful diagonal (`get(i, i)` is included in row sums, as in
/// [`SymmetricMatrix::row_sum`]). All default methods accumulate in index
/// order so results are bitwise identical across implementations that
/// return bitwise-identical entries.
pub trait SimilaritySource: Sync {
    /// Number of rows (= columns = vertices).
    fn n(&self) -> usize;

    /// The similarity of `(i, j)` widened to `f64`.
    fn get(&self, i: usize, j: usize) -> f64;

    /// Sum of row `i` including the diagonal, accumulated in index order.
    fn row_sum(&self, i: usize) -> f64 {
        (0..self.n()).map(|j| self.get(i, j)).sum()
    }

    /// Row sums for every row, computed in parallel.
    fn row_sums(&self) -> Vec<f64> {
        (0..self.n())
            .into_par_iter()
            .map(|i| self.row_sum(i))
            .collect()
    }

    /// Indices of the `k` rows with the largest row sums, in decreasing
    /// order of row sum (ties broken by smaller index) — the TMFG seed
    /// order.
    fn top_rows_by_sum(&self, k: usize) -> Vec<usize> {
        let sums = self.row_sums();
        let mut idx: Vec<usize> = (0..self.n()).collect();
        idx.sort_by(|&a, &b| sums[b].total_cmp(&sums[a]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    /// First non-finite (NaN or ±∞) entry of the strict upper triangle in
    /// `(row, col)` lexicographic order, scanned in parallel.
    fn find_non_finite(&self) -> Option<(usize, usize)> {
        let n = self.n();
        (0..n)
            .into_par_iter()
            .filter_map(|row| {
                ((row + 1)..n)
                    .find(|&col| !self.get(row, col).is_finite())
                    .map(|col| (row, col))
            })
            .min()
    }
}

impl SimilaritySource for SymmetricMatrix {
    #[inline]
    fn n(&self) -> usize {
        SymmetricMatrix::n(self)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        SymmetricMatrix::get(self, i, j)
    }

    fn row_sum(&self, i: usize) -> f64 {
        SymmetricMatrix::row_sum(self, i)
    }
}

impl SimilaritySource for SymmetricMatrixF32 {
    #[inline]
    fn n(&self) -> usize {
        SymmetricMatrixF32::n(self)
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        SymmetricMatrixF32::get(self, i, j)
    }

    fn row_sum(&self, i: usize) -> f64 {
        SymmetricMatrixF32::row_sum(self, i)
    }
}

/// A [`PairDistances`] view deriving the dissimilarity
/// `d = sqrt(2 (1 − s))` from a similarity source on the fly — no dense
/// `n²` dissimilarity matrix is ever materialized.
///
/// The DBHT back half only reads dissimilarities at the `3n − 6` edges of
/// the filtered graph and through its restricted-APSP caches, so at large
/// `n` this view replaces an `8 n²`-byte allocation with zero bytes.
pub struct DissimilarityView<'a, S: SimilaritySource> {
    source: &'a S,
}

impl<'a, S: SimilaritySource> DissimilarityView<'a, S> {
    /// Wraps a similarity source.
    pub fn new(source: &'a S) -> Self {
        Self { source }
    }
}

impl<S: SimilaritySource> PairDistances for DissimilarityView<'_, S> {
    #[inline]
    fn pair(&self, u: usize, v: usize) -> f64 {
        (2.0 * (1.0 - self.source.get(u, v))).max(0.0).sqrt()
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.source.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(n: usize, seed: u64) -> SymmetricMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { 2.0 * next() - 1.0 })
    }

    fn f32_copy(m: &SymmetricMatrix) -> SymmetricMatrixF32 {
        let data: Vec<f32> = m.as_slice().iter().map(|&x| x as f32).collect();
        SymmetricMatrixF32::from_symmetrized(m.n(), data)
    }

    #[test]
    fn matrix_sources_agree_on_reads() {
        let m = random_matrix(12, 7);
        let n = SimilaritySource::n(&m);
        assert_eq!(n, 12);
        let m32 = f32_copy(&m);
        for i in 0..n {
            for j in 0..n {
                let wide = SimilaritySource::get(&m32, i, j);
                assert!((wide - m.get(i, j)).abs() < 1e-6);
                assert_eq!(wide, (m.get(i, j) as f32) as f64);
            }
        }
    }

    #[test]
    fn row_sums_are_bitwise_exact() {
        // The row sums pick the TMFG seed clique, so every source must
        // return the index-order sum of its own entries, bit for bit, and
        // seed with the rows of largest sum.
        fn check<S: SimilaritySource>(s: &S) {
            let n = s.n();
            let sums = s.row_sums();
            for (i, &sum) in sums.iter().enumerate() {
                let expected: f64 = (0..n).map(|j| s.get(i, j)).sum();
                assert_eq!(sum.to_bits(), expected.to_bits(), "row {i}");
            }
            let top = s.top_rows_by_sum(4);
            assert!(top.windows(2).all(|w| sums[w[0]] >= sums[w[1]]));
            let floor = sums[top[3]];
            assert!((0..n)
                .filter(|v| !top.contains(v))
                .all(|v| sums[v] <= floor));
        }
        let m = random_matrix(17, 11);
        check(&m);
        check(&f32_copy(&m));
    }

    #[test]
    fn nan_entry_matches_dense_scan() {
        // The parallel `find_non_finite` must report the first NaN or ±∞
        // of a sequential row-major scan of the strict upper triangle.
        let mut m = random_matrix(10, 21);
        assert_eq!(SimilaritySource::find_non_finite(&m), None);
        m.set(3, 7, f64::NAN);
        m.set(2, 9, f64::NAN);
        let scan = |m: &SymmetricMatrix| {
            (0..10)
                .flat_map(|i| ((i + 1)..10).map(move |j| (i, j)))
                .find(|&(i, j)| !m.get(i, j).is_finite())
        };
        assert_eq!(scan(&m), Some((2, 9)));
        assert_eq!(SimilaritySource::find_non_finite(&m), scan(&m));
        assert_eq!(f32_copy(&m).find_non_finite(), scan(&m));
        // Infinities count too, in either sign.
        m.set(1, 4, f64::NEG_INFINITY);
        assert_eq!(scan(&m), Some((1, 4)));
        assert_eq!(SimilaritySource::find_non_finite(&m), scan(&m));
        m.set(0, 8, f64::INFINITY);
        assert_eq!(SimilaritySource::find_non_finite(&m), Some((0, 8)));
        assert_eq!(f32_copy(&m).find_non_finite(), Some((0, 8)));
    }

    #[test]
    fn dissimilarity_view_matches_map() {
        let m = random_matrix(9, 17);
        let d = m.map(|p| (2.0 * (1.0 - p)).max(0.0).sqrt());
        let view = DissimilarityView::new(&m);
        assert_eq!(view.num_vertices(), 9);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(view.pair(i, j).to_bits(), d.get(i, j).to_bits());
            }
        }
    }
}
