//! Symmetric eigendecomposition by Householder tridiagonalization and
//! implicit-shift QL.
//!
//! PCA (the paper's Algorithm 1) needs the full spectrum of an `M × M`
//! covariance/Gram matrix where `M ≤ 1024` for every layer of LeNet and
//! ConvNet. The solver is EISPACK's `tred2`/`tql2` pair (as in JAMA):
//! `n − 2` Householder reflections reduce `A` to a tridiagonal `T` while
//! accumulating the orthogonal `Q` with `A = Q·T·Qᵀ`, then QL iterations
//! with implicit shifts diagonalize `T`, each iteration chasing one bulge
//! with plane rotations that are also applied to `Q`. The reduction is a
//! fixed `O(n³)` pass, and QL needs about two `O(n²)` iterations per
//! eigenvalue. All arithmetic is `f64`; the public API converts from/to
//! the workspace's `f32` [`Matrix`].
//!
//! # Layout
//!
//! The working buffer holds `Qᵀ` rather than `Q`: every column the
//! textbook algorithm walks becomes a contiguous row. The reduction's
//! matrix-vector products read rows of the upper triangle, the
//! accumulation's dot products and updates run along rows, and each QL
//! rotation mixes two whole adjacent rows — pure streams that vectorize.
//! This is an index relabelling of the textbook loops, not a reordering of
//! their arithmetic. The eigenvectors end up as rows and are transposed
//! into columns once, while sorting.

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// QL iterations allowed per eigenvalue before reporting non-convergence
/// (EISPACK's limit; PCA fits at layer shapes average about two).
const MAX_QL_ITERS: usize = 30;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors` holds the matching
/// eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, same order as `values`.
    pub vectors: Matrix,
}

impl SymEig {
    /// Reconstructs `V · diag(λ) · Vᵀ` (mainly useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.vectors.rows();
        let k = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..k {
            let lam = self.values[j] as f32;
            for i in 0..n {
                scaled[(i, j)] *= lam;
            }
        }
        scaled.matmul_nt(&self.vectors)
    }
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Symmetry is enforced by averaging `A` with `Aᵀ`; callers passing an
/// asymmetric matrix get the decomposition of `(A + Aᵀ)/2`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] for non-square input,
/// [`LinalgError::NonFinite`] if any entry is NaN or infinite, and
/// [`LinalgError::NoConvergence`] if some eigenvalue needs more than 30 QL
/// iterations (does not happen for finite symmetric input in practice).
///
/// # Examples
///
/// ```
/// use scissor_linalg::{sym_eig, Matrix};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eig(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-9);
/// assert!((eig.values[1] - 1.0).abs() < 1e-9);
/// # Ok::<(), scissor_linalg::LinalgError>(())
/// ```
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            actual: a.shape(),
            op: "sym_eig",
        });
    }
    let n = a.rows();
    let mut buf = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..n {
            buf[i * n + j] = 0.5 * (a[(i, j)] as f64 + a[(j, i)] as f64);
        }
    }
    let (values, vectors) = sym_eig_f64(&mut buf, n)?;
    Ok(SymEig { values, vectors: Matrix::from_f64_vec(n, n, &vectors) })
}

/// Eigendecomposition of a symmetric row-major `n × n` `f64` buffer, which
/// is used as workspace and destroyed. Returns `(eigenvalues descending,
/// eigenvectors as the columns of a row-major n×n matrix)`.
///
/// Non-finite entries are rejected up front: a NaN would spread through
/// every reflector and rotation, and an infinity makes the deflation test
/// meaningless, so neither could produce a usable answer.
pub(crate) fn sym_eig_f64(a: &mut [f64], n: usize) -> Result<(Vec<f64>, Vec<f64>)> {
    if !a.iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "sym_eig" });
    }
    let mut d = vec![0.0_f64; n];
    let mut e = vec![0.0_f64; n];
    if n > 0 {
        tred2(a, n, &mut d, &mut e);
        tql2(a, n, &mut d, &mut e)?;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = vec![0.0_f64; n * n];
    for (col, &src) in order.iter().enumerate() {
        for (row, &x) in a[src * n..src * n + n].iter().enumerate() {
            vectors[row * n + col] = x;
        }
    }
    Ok((values, vectors))
}

/// Householder reduction to tridiagonal form (EISPACK `tred2`).
///
/// On entry `z` holds the symmetric matrix; on exit it holds `Qᵀ` with
/// `A = Q·T·Qᵀ`, `d` the diagonal of `T` and `e[1..]` its subdiagonal
/// (`e[0] = 0`). Indices are those of the textbook `V[r][c]` read as
/// `z[c·n + r]`, so the reduction reads the upper triangle row by row and
/// stores reflector `i` in row `i`.
fn tred2(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = z[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0_f64;
        if scale == 0.0 {
            // Row `i` is already reduced: skip the reflector.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[j * n + i - 1];
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        } else {
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e ← A·u over the leading i×i block, read from its upper
            // triangle (row j, columns j..i).
            for j in 0..i {
                f = d[j];
                z[i * n + j] = f;
                let row = &z[j * n + j..j * n + i];
                g = e[j] + row[0] * f;
                for ((&zjk, &dk), ek) in row[1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += zjk * dk;
                    *ek += zjk * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-2 update A ← A − u·pᵀ − p·uᵀ of the upper triangle.
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut z[j * n + j..j * n + i];
                for ((zjk, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *zjk -= f * ek + g * dk;
                }
                d[j] = z[j * n + i - 1];
                z[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflectors into Qᵀ, smallest block first.
    for i in 0..n - 1 {
        z[i * n + n - 1] = z[i * n + i];
        z[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = z.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let g: f64 = u.iter().zip(row.iter()).map(|(&uk, &zk)| uk * zk).sum();
                for (zk, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *zk -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = z[j * n + n - 1];
        z[j * n + n - 1] = 0.0;
    }
    z[(n - 1) * n + n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tred2`] (EISPACK
/// `tql2`), applying every rotation to the rows of `z = Qᵀ`. On exit `d`
/// holds the eigenvalues (unsorted) and row `j` of `z` the eigenvector of
/// `d[j]`.
fn tql2(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let m = (l..n).find(|&m| e[m].abs() <= f64::EPSILON * tst1).unwrap_or(n - 1);
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(LinalgError::NoConvergence {
                        solver: "implicit QL eigensolver",
                        sweeps: MAX_QL_ITERS,
                    });
                }
                // Implicit shift from the leading 2×2 block.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;
                // Chase the bulge from m back up to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0_f64, 1.0_f64, 1.0_f64);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0_f64, 0.0_f64);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (head, tail) = z.split_at_mut((i + 1) * n);
                    let zi = &mut head[i * n..];
                    for (x, y) in zi.iter_mut().zip(&mut tail[..n]) {
                        let hy = *y;
                        *y = s * *x + c * hy;
                        *x = c * *x - s * hy;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// Asserts `VᵀV = I` entry by entry within `tol`.
    fn assert_orthonormal(v: &Matrix, tol: f32) {
        let vtv = v.matmul_tn(v);
        for i in 0..vtv.rows() {
            for j in 0..vtv.cols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < tol, "V'V[{i},{j}]={}", vtv[(i, j)]);
            }
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = mat(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 5.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-9);
        assert!((e.values[1] - 1.0).abs() < 1e-9);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((v0[0] - v0[1]).abs() < 1e-5);
    }

    #[test]
    fn two_by_two_equal_diagonal() {
        // Equal diagonal makes the first shift's p exactly zero.
        let a = mat(&[&[3.0, -2.0], &[-2.0, 3.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // λ=5 ↔ (1,−1)/√2, λ=1 ↔ (1,1)/√2, up to sign.
        let (v0, v1) = (e.vectors.col(0), e.vectors.col(1));
        assert!((v0[0] + v0[1]).abs() < 1e-6 && (v1[0] - v1[1]).abs() < 1e-6);
        assert!((v0[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert_orthonormal(&e.vectors, 1e-6);
    }

    #[test]
    fn identity_has_one_repeated_eigenvalue() {
        let n = 7;
        let e = sym_eig(&Matrix::identity(n)).unwrap();
        assert!(e.values.iter().all(|&v| (v - 1.0).abs() < 1e-15), "{:?}", e.values);
        assert_orthonormal(&e.vectors, 1e-7);
    }

    #[test]
    fn zero_trailing_block_skips_reflectors() {
        // The trailing rows are zero, so the reduction's first steps see a
        // zero scale and must skip the reflector, not divide by it.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| match (i, j) {
            (0, 0) => 4.0,
            (1, 1) => 2.0,
            (0, 1) | (1, 0) => 1.0,
            (2, 2) => -1.0,
            _ => 0.0,
        });
        let e = sym_eig(&a).unwrap();
        // [[4,1],[1,2]] has eigenvalues 3 ± √2; then −1 and three zeros.
        let root2 = 2.0_f64.sqrt();
        let expect = [3.0 + root2, 3.0 - root2, 0.0, 0.0, 0.0, -1.0];
        for (got, want) in e.values.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{:?} vs {expect:?}", e.values);
        }
        assert_orthonormal(&e.vectors, 1e-6);
        assert!(a.relative_error(&e.reconstruct()) < 1e-12);
    }

    #[test]
    fn tridiagonal_input_matches_closed_form_spectrum() {
        // tridiag(−1, 2, −1) of order n: λ_k = 2 − 2·cos(kπ/(n+1)).
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0,
            1 => -1.0,
            _ => 0.0,
        });
        let e = sym_eig(&a).unwrap();
        let h = std::f64::consts::PI / (n + 1) as f64;
        for (idx, &got) in e.values.iter().enumerate() {
            let k = (n - idx) as f64;
            let want = 2.0 - 2.0 * (k * h).cos();
            assert!((got - want).abs() < 1e-13, "λ_{k}: {got} vs {want}");
        }
        assert_orthonormal(&e.vectors, 1e-5);
    }

    #[test]
    fn entries_spanning_sixteen_decades() {
        // Three decoupled 2×2 blocks [[a, b], [b, a]] (eigenvalues a ± b) at
        // scales 1e8, 1 and 1e-8, interleaved so the reduction mixes them.
        let blocks = [(0, 5, 1.0e8_f32, 3.0e7_f32), (1, 4, 1.0, 0.5), (2, 3, 4.0e-8, 1.0e-8)];
        let mut a = Matrix::zeros(6, 6);
        let mut expect = Vec::new();
        for &(p, q, diag, off) in &blocks {
            a[(p, p)] = diag;
            a[(q, q)] = diag;
            a[(p, q)] = off;
            a[(q, p)] = off;
            expect.push(diag as f64 + off as f64);
            expect.push(diag as f64 - off as f64);
        }
        expect.sort_by(|x, y| y.total_cmp(x));
        let e = sym_eig(&a).unwrap();
        let norm = a.frobenius_norm_sq().sqrt();
        for (got, want) in e.values.iter().zip(&expect) {
            assert!((got - want).abs() <= 1e-14 * norm, "{:?} vs {expect:?}", e.values);
        }
        assert_orthonormal(&e.vectors, 1e-6);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = mat(&[
            &[4.0, 1.0, -2.0, 0.5],
            &[1.0, 3.0, 0.0, 1.5],
            &[-2.0, 0.0, 5.0, -1.0],
            &[0.5, 1.5, -1.0, 2.0],
        ]);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-9, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(12, 12, |i, j| {
            let x = ((i * 7 + j * 3) % 13) as f32 - 6.0;
            let y = ((j * 7 + i * 3) % 13) as f32 - 6.0;
            0.5 * (x + y)
        });
        let e = sym_eig(&a).unwrap();
        assert_orthonormal(&e.vectors, 1e-4);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(9, 9, |i, j| {
            let v = ((i * j + i + j) % 5) as f32;
            if i == j {
                v + 4.0
            } else {
                v * 0.5
            }
        });
        let sym = a.add(&a.transpose()).map(|v| v * 0.5);
        let e = sym_eig(&sym).unwrap();
        let trace: f64 = (0..9).map(|i| sym[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-6);
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let w = Matrix::from_fn(20, 8, |i, j| ((i * 5 + j * 11) % 17) as f32 * 0.1 - 0.8);
        let g = w.gram_f64();
        let gm = Matrix::from_f64_vec(8, 8, &g);
        let e = sym_eig(&gm).unwrap();
        for &v in &e.values {
            assert!(v > -1e-6, "negative eigenvalue {v} for a Gram matrix");
        }
        // descending
        for pair in e.values.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(sym_eig(&Matrix::zeros(2, 3)), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_matrix_and_tiny_sizes() {
        let e = sym_eig(&Matrix::zeros(4, 4)).unwrap();
        assert!(e.values.iter().all(|&v| v == 0.0));
        let e1 = sym_eig(&Matrix::filled(1, 1, 7.0)).unwrap();
        assert_eq!(e1.values, vec![7.0]);
        let e0 = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
    }

    /// A well-conditioned dense symmetric test matrix of order `n`.
    fn large_symmetric(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let x = ((i * 7 + j * 3) % 29) as f32 - 14.0;
            let y = ((j * 7 + i * 3) % 29) as f32 - 14.0;
            let diag = if i == j { n as f32 } else { 0.0 };
            0.25 * (x + y) + diag
        })
    }

    #[test]
    fn round_sweep_path_reconstructs_input() {
        let a = large_symmetric(80);
        let e = sym_eig(&a).unwrap();
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6, "relative error {}", a.relative_error(&r));
    }

    #[test]
    fn round_sweep_path_gives_orthonormal_eigenvectors() {
        let e = sym_eig(&large_symmetric(66)).unwrap();
        assert_orthonormal(&e.vectors, 1e-4);
    }

    #[test]
    fn round_sweep_path_handles_odd_order_with_bye() {
        let n = 67;
        let a = large_symmetric(n);
        let e = sym_eig(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)] as f64).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-5 * trace.abs().max(1.0));
        let r = e.reconstruct();
        assert!(a.relative_error(&r) < 1e-6);
    }

    #[test]
    fn round_sweep_matches_row_cyclic_spectrum_on_gram_matrix() {
        // Eigenvalues of WᵀW are the squared singular values: non-negative,
        // summing to ‖W‖²_F.
        let n = 128;
        let w = Matrix::from_fn(3 * n, n, |i, j| ((i * 5 + j * 11) % 23) as f32 * 0.1 - 1.1);
        let gm = Matrix::from_f64_vec(n, n, &w.gram_f64());
        let e = sym_eig(&gm).unwrap();
        let frob_sq = w.frobenius_norm_sq();
        for &lam in &e.values {
            assert!(lam > -1e-9 * frob_sq, "Gram matrix eigenvalue {lam} below zero");
        }
        let sum: f64 = e.values.iter().sum();
        assert!((sum - frob_sq).abs() <= 1e-8 * frob_sq, "Σλ = {sum} but ‖W‖²_F = {frob_sq}");
    }

    #[test]
    fn order_500_reconstructs_and_is_orthonormal() {
        // The order of LeNet fc1's Gram matrix, the largest PCA fit.
        let a = large_symmetric(500);
        let e = sym_eig(&a).unwrap();
        assert!(a.relative_error(&e.reconstruct()) < 1e-6);
        assert_orthonormal(&e.vectors, 1e-4);
        for pair in e.values.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn asymmetric_input_is_symmetrized() {
        let a = mat(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let e = sym_eig(&a).unwrap();
        // Spectrum of [[1,1],[1,1]] is {2, 0}.
        assert!((e.values[0] - 2.0).abs() < 1e-9);
        assert!(e.values[1].abs() < 1e-9);
    }
}
