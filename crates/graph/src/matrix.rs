//! Dense symmetric matrices used for similarity and dissimilarity inputs.
//!
//! The paper's input is an `n × n` similarity matrix `S` (e.g. Pearson
//! correlations) plus a dissimilarity matrix `D` (e.g. `sqrt(2(1 − p))`).
//! [`SymmetricMatrix`] stores the full dense matrix row-major; reads are
//! `O(1)` and the memory layout keeps row scans (the hot loop of the TMFG
//! gain computation) cache friendly.

use rayon::prelude::*;

/// A dense symmetric `n × n` matrix of `f64` values.
///
/// The full matrix is stored (both triangles) so row scans never branch.
/// Writes through [`SymmetricMatrix::set`] keep the matrix symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymmetricMatrix {
    /// Creates an `n × n` matrix filled with `fill`.
    pub fn filled(n: usize, fill: f64) -> Self {
        Self {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self::filled(n, 0.0)
    }

    /// Builds a matrix from a row-major slice of length `n * n`.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n` or if the data is not symmetric to
    /// within `1e-9`.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must have n*n entries");
        let m = Self { n, data };
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(
                    (m.get(i, j) - m.get(j, i)).abs() <= 1e-9,
                    "matrix must be symmetric: ({i},{j})"
                );
            }
        }
        m
    }

    /// Builds a matrix from row-major data that the producer has already
    /// made *exactly* symmetric (e.g. the symmetrised APSP buffer, or the
    /// tiled correlation kernel that writes both mirrored positions of each
    /// pair from a single computed value), skipping
    /// [`SymmetricMatrix::from_rows`]'s `O(n²)` tolerance sweep and taking
    /// ownership of the buffer without a copy.
    ///
    /// Debug builds still verify exact symmetry.
    pub fn from_symmetrized(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must have n*n entries");
        let m = Self { n, data };
        #[cfg(debug_assertions)]
        for i in 0..n {
            for j in (i + 1)..n {
                debug_assert!(
                    m.get(i, j).to_bits() == m.get(j, i).to_bits(),
                    "from_symmetrized requires exact symmetry: ({i},{j})"
                );
            }
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` for the upper triangle
    /// (including the diagonal) and mirroring it.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = f(i, j);
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of rows (= columns).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns the value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Sets `(i, j)` and `(j, i)` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
    }

    /// Returns row `i` as a slice of length `n`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Sum of row `i` (the "total sum across its row" used to pick the
    /// initial 4-clique of the TMFG).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).iter().sum()
    }

    /// Applies `f` to every entry, returning a new matrix. Used e.g. to turn
    /// a correlation matrix into the dissimilarity `sqrt(2(1 − p))`. The
    /// parallel map and the collect fuse into a single pass over the data.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Self {
        let data: Vec<f64> = self.data.par_iter().map(|&x| f(x)).collect();
        Self { n: self.n, data }
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// A dense symmetric `n × n` matrix stored as `f32`, halving the `n²`
/// memory footprint of [`SymmetricMatrix`].
///
/// Reads widen to `f64` at the [`SymmetricMatrixF32::get`] boundary, so
/// every consumer that only *compares* weights (TMFG gains, PMFG candidate
/// order, DBHT edge lookups — all `f64::total_cmp` based) works unchanged
/// on top of this storage. The values themselves carry ~7 significant
/// decimal digits, which is far below the noise floor of estimated
/// correlations; the end-to-end clustering quality impact is covered by a
/// differential ARI test in the bench crate.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricMatrixF32 {
    n: usize,
    data: Vec<f32>,
}

impl SymmetricMatrixF32 {
    /// Creates an `n × n` matrix filled with `fill`.
    pub fn filled(n: usize, fill: f32) -> Self {
        Self {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Builds a matrix from row-major data the producer has already made
    /// *exactly* symmetric (both mirrored positions written from one
    /// computed value). Debug builds verify exact bit symmetry.
    pub fn from_symmetrized(n: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must have n*n entries");
        let m = Self { n, data };
        #[cfg(debug_assertions)]
        for i in 0..n {
            for j in (i + 1)..n {
                debug_assert!(
                    m.data[i * n + j].to_bits() == m.data[j * n + i].to_bits(),
                    "from_symmetrized requires exact symmetry: ({i},{j})"
                );
            }
        }
        m
    }

    /// Number of rows (= columns).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns the value at `(i, j)`, widened to `f64`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] as f64
    }

    /// Sets `(i, j)` and `(j, i)` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
    }

    /// Sum of row `i`, accumulated in `f64` in index order.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.data[i * self.n..(i + 1) * self.n]
            .iter()
            .map(|&x| x as f64)
            .sum()
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilaritySource;

    #[test]
    fn set_keeps_symmetry() {
        let mut m = SymmetricMatrix::zeros(4);
        m.set(1, 3, 0.7);
        assert_eq!(m.get(3, 1), 0.7);
        assert_eq!(m.get(1, 3), 0.7);
    }

    #[test]
    fn row_sums_and_top_rows() {
        let m = SymmetricMatrix::from_fn(4, |i, j| if i == j { 1.0 } else { (i + j) as f64 });
        let sums = m.row_sums();
        assert_eq!(sums.len(), 4);
        assert!((sums[3] - (3.0 + 4.0 + 5.0 + 1.0)).abs() < 1e-12);
        let top = m.top_rows_by_sum(2);
        assert_eq!(top, vec![3, 2]);
    }

    #[test]
    fn from_rows_accepts_symmetric() {
        let m = SymmetricMatrix::from_rows(2, vec![1.0, 0.5, 0.5, 1.0]);
        assert_eq!(m.get(0, 1), 0.5);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_asymmetric() {
        SymmetricMatrix::from_rows(2, vec![1.0, 0.5, 0.4, 1.0]);
    }

    #[test]
    fn map_transforms_entries() {
        let m = SymmetricMatrix::from_rows(2, vec![1.0, 0.5, 0.5, 1.0]);
        let d = m.map(|p| (2.0 * (1.0 - p)).sqrt());
        assert!((d.get(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn top_rows_tie_breaks_by_index() {
        let m = SymmetricMatrix::filled(3, 1.0);
        assert_eq!(m.top_rows_by_sum(3), vec![0, 1, 2]);
    }
}
