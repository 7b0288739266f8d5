//! Dense row-major matrix type used throughout the workspace.
//!
//! Weights, activations and im2col buffers are all stored as [`Matrix`]
//! (single-precision). The spectral solvers in [`crate::eig`] and
//! [`crate::svd`] convert to `f64` internally and hand back `f32` factors.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{LinalgError, Result};

/// A dense, row-major, single-precision matrix.
///
/// The convention throughout this workspace follows the paper: a layer weight
/// matrix is `W ∈ R^{N×M}` with `N` rows = fan-in (crossbar inputs) and `M`
/// columns = fan-out (one column per filter / output neuron).
///
/// # Examples
///
/// ```
/// use scissor_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = scissor_linalg::Matrix::zeros(2, 3);
    /// assert_eq!(z.frobenius_norm(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates an identity matrix of size `n × n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scissor_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, 2.0], &[4.0, 0.5, 1.0]]);
    /// assert_eq!(m.matmul(&i), m);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                actual: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = scissor_linalg::Matrix::from_fn(2, 2, |i, j| (i + j) as f32);
    /// assert_eq!(m[(1, 1)], 2.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Fills a matrix with uniform random values in `[-scale, scale)`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..scale)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows (`N`, fan-in in the paper's weight convention).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`M`, fan-out in the paper's weight convention).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries ( `0 × n` or `n × 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column index {j} out of bounds for {} columns", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Element-wise sum of two matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, other);
        out
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, other);
        out
    }

    /// Frobenius norm `||A||_F`, accumulated in `f64` for accuracy.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm, accumulated in `f64`.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>()
    }

    /// Relative reconstruction error `||self - other||² / ||self||²`
    /// (the metric of the paper's Eq. (3)).
    ///
    /// Returns `0.0` when `self` is the zero matrix and the matrices match.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn relative_error(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "relative_error shape mismatch");
        let denom = self.frobenius_norm_sq();
        let num = self.sub(other).frobenius_norm_sq();
        if denom == 0.0 {
            if num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            num / denom
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &v| m.max(v.abs()))
    }

    /// Number of entries whose magnitude is at or below `threshold`.
    pub fn count_near_zero(&self, threshold: f32) -> usize {
        self.data.iter().filter(|v| v.abs() <= threshold).count()
    }

    /// Extracts the sub-matrix of `row_range` × `col_range`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds.
    pub fn submatrix(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> Matrix {
        assert!(
            row_range.end <= self.rows && col_range.end <= self.cols,
            "submatrix out of bounds"
        );
        let mut out = Matrix::zeros(row_range.len(), col_range.len());
        for (oi, i) in row_range.enumerate() {
            let src = &self.row(i)[col_range.clone()];
            out.row_mut(oi).copy_from_slice(src);
        }
        out
    }

    /// Copies `block` into `self` with its top-left corner at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_submatrix(&mut self, row: usize, col: usize, block: &Matrix) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..block.rows {
            let cols = self.cols;
            self.data[(row + i) * cols + col..(row + i) * cols + col + block.cols]
                .copy_from_slice(block.row(i));
        }
    }

    /// Keeps the first `k` columns, dropping the rest.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.cols()`.
    pub fn truncate_cols(&self, k: usize) -> Matrix {
        assert!(k <= self.cols, "cannot keep {k} of {} columns", self.cols);
        self.submatrix(0..self.rows, 0..k)
    }

    /// Reshapes the matrix in place to `rows × cols` with every entry set
    /// to zero, reusing the existing allocation whenever its capacity
    /// suffices.
    ///
    /// This is the buffer-recycling primitive behind the `*_into` matmul
    /// kernels and the inference scratch spaces: after a warm-up call at the
    /// largest shape, subsequent calls never touch the allocator.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols`, reusing the allocation, for a
    /// caller that will overwrite **every** entry: retained entries keep
    /// their stale values (growth is zero-filled), skipping the clearing
    /// pass [`Matrix::reset_zeroed`] pays.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` and fills from `data`, reusing the
    /// existing allocation whenever possible.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn assign_from(&mut self, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(data.len(), rows * cols, "assign_from length mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Converts to an `f64` row-major buffer (used by the spectral solvers).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|&v| v as f64).collect()
    }

    /// Builds a matrix from an `f64` row-major buffer, narrowing to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_f64_vec(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        assert_eq!(data.len(), rows * cols, "from_f64_vec length mismatch");
        Matrix { rows, cols, data: data.iter().map(|&v| v as f32).collect() }
    }
}

/// Writes the transpose of the row-major `rows × cols` buffer `src` into
/// `dst` (`cols × rows`, row-major), overwriting every element.
///
/// The loop is blocked so both source and destination stay
/// cache-resident. [`Matrix::transpose`] runs it, and so do the NCHW ↔
/// rows conversions of `scissor_nn`, one sample at a time.
///
/// # Panics
///
/// Panics if either buffer is not `rows · cols` long.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source/shape mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose destination/shape mismatch");
    const B: usize = 32;
    for ib in (0..rows).step_by(B) {
        for jb in (0..cols).step_by(B) {
            for i in ib..(ib + B).min(rows) {
                for j in jb..(jb + B).min(cols) {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 5).is_empty());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
        assert_eq!(m.col(2), vec![0.0, 7.5]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(5, 7, |i, j| (3 * i + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t[(6, 4)], m[(4, 6)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_blocked_matches_naive_on_large() {
        let m = Matrix::from_fn(70, 45, |i, j| (i * 100 + j) as f32);
        let t = m.transpose();
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn axpy_add_sub() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(a.add(&b)[(1, 1)], 44.0);
        assert_eq!(b.sub(&a)[(0, 0)], 9.0);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c[(0, 1)], 12.0);
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.frobenius_norm_sq() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * j) as f32);
        assert_eq!(m.relative_error(&m), 0.0);
    }

    #[test]
    fn relative_error_of_zeroed_matrix_is_one() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j + 1) as f32);
        let z = Matrix::zeros(4, 4);
        assert!((m.relative_error(&z) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relative_error_zero_denominator() {
        let z = Matrix::zeros(2, 2);
        assert_eq!(z.relative_error(&z), 0.0);
        assert_eq!(z.relative_error(&Matrix::filled(2, 2, 1.0)), f64::INFINITY);
    }

    #[test]
    fn submatrix_and_set_submatrix_round_trip() {
        let m = Matrix::from_fn(6, 6, |i, j| (10 * i + j) as f32);
        let b = m.submatrix(2..5, 1..4);
        assert_eq!(b.shape(), (3, 3));
        assert_eq!(b[(0, 0)], m[(2, 1)]);
        let mut z = Matrix::zeros(6, 6);
        z.set_submatrix(2, 1, &b);
        assert_eq!(z[(4, 3)], m[(4, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn truncate_cols_keeps_prefix() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        let t = m.truncate_cols(2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 11.0);
    }

    #[test]
    fn f64_round_trip() {
        let m = Matrix::from_fn(3, 3, |i, j| (i as f32) - (j as f32) * 0.5);
        let v = m.to_f64_vec();
        let back = Matrix::from_f64_vec(3, 3, &v);
        assert_eq!(m, back);
    }

    #[test]
    fn count_near_zero_counts_threshold_inclusive() {
        let m = Matrix::from_rows(&[&[0.0, 0.1], &[-0.05, 2.0]]);
        assert_eq!(m.count_near_zero(0.1), 3);
        assert_eq!(m.count_near_zero(0.0), 1);
    }

    #[test]
    fn debug_not_empty() {
        let dbg = format!("{:?}", Matrix::zeros(1, 1));
        assert!(dbg.contains("Matrix 1x1"));
    }
}
