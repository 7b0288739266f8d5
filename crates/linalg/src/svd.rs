//! Thin singular value decomposition via one-sided Jacobi.
//!
//! The paper evaluates SVD as an alternative low-rank backend to PCA for rank
//! clipping (finding it slightly inferior — crossbar area 32.97 % vs 13.62 %
//! on LeNet). One-sided Jacobi orthogonalizes the columns of `A` directly and
//! is both simple and accurate for the layer-sized matrices handled here.
//!
//! # Sweep ordering
//!
//! A sweep visits every unordered column pair once, as `m - 1` *tournament
//! rounds* (the circle-method round-robin schedule): each round rotates
//! `⌊m/2⌋` pairwise-disjoint column pairs. Each pair's Givens angle and both
//! rotated columns depend only on that pair's round-start values, and every
//! per-pair dot product is a single accumulator running in ascending index
//! order, so a factorization is a fixed sequence of float operations. The
//! rounds run serially on the calling thread: at the shapes rank clipping
//! fits (75×32 up to 800×64) fanning a round's pairs out to the pool was
//! never faster than running them inline, and up to 3× slower.

use crate::error::{LinalgError, Result};
use crate::Matrix;

const MAX_SWEEPS: usize = 64;

/// Thin SVD `A = U · diag(σ) · Vᵀ` with `U: n×r`, `V: m×r`, `r = min(n, m)`.
///
/// Singular values are sorted in descending order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns orthonormal), `n × r`.
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns orthonormal), `m × r`.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs the rank-`k` approximation `U_k · diag(σ_k) · V_kᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] if `k` exceeds the number of
    /// singular values.
    pub fn reconstruct(&self, k: usize) -> Result<Matrix> {
        if k > self.sigma.len() {
            return Err(LinalgError::InvalidRank { requested: k, max: self.sigma.len() });
        }
        let scale: Vec<f32> = self.sigma[..k].iter().map(|&s| s as f32).collect();
        Ok(scaled_truncate(&self.u, &scale).matmul_nt(&self.v.truncate_cols(k)))
    }

    /// Splits the rank-`k` approximation into crossbar-ready factors
    /// `(U·√σ, V·√σ)` so that `A ≈ factor_u · factor_vᵀ`.
    ///
    /// Balancing `σ` across the two factors keeps both matrices at comparable
    /// magnitude, which matters when each is programmed onto its own crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] if `k` exceeds the number of
    /// singular values.
    pub fn factors(&self, k: usize) -> Result<(Matrix, Matrix)> {
        if k > self.sigma.len() {
            return Err(LinalgError::InvalidRank { requested: k, max: self.sigma.len() });
        }
        let scale: Vec<f32> = self.sigma[..k].iter().map(|&s| (s.max(0.0).sqrt()) as f32).collect();
        Ok((scaled_truncate(&self.u, &scale), scaled_truncate(&self.v, &scale)))
    }

    /// Relative reconstruction error of the rank-`k` truncation, computed
    /// from the singular spectrum alone:
    /// `e_k = Σ_{i>k} σᵢ² / Σ_i σᵢ²` (the SVD analogue of the paper's Eq. 3).
    pub fn truncation_error(&self, k: usize) -> f64 {
        let total: f64 = self.sigma.iter().map(|s| s * s).sum();
        if total == 0.0 {
            return 0.0;
        }
        let tail: f64 = self.sigma.iter().skip(k).map(|s| s * s).sum();
        tail / total
    }

    /// Smallest rank whose truncation error is at most `eps`.
    pub fn min_rank_for_error(&self, eps: f64) -> usize {
        for k in 0..=self.sigma.len() {
            if self.truncation_error(k) <= eps {
                return k.max(1).min(self.sigma.len().max(1));
            }
        }
        self.sigma.len()
    }
}

/// Copies the first `scale.len()` columns of `src` with column `j` scaled by
/// `scale[j]`, fused into one row-major pass (no per-element `Index` calls,
/// no second rescale walk over the truncated copy).
fn scaled_truncate(src: &Matrix, scale: &[f32]) -> Matrix {
    let k = scale.len();
    let mut out = Matrix::zeros(src.rows(), k);
    for i in 0..src.rows() {
        let srow = &src.row(i)[..k];
        for ((dst, &x), &s) in out.row_mut(i).iter_mut().zip(srow).zip(scale) {
            *dst = x * s;
        }
    }
    out
}

/// Decides and (if above threshold) applies the Givens rotation that
/// orthogonalizes data columns `p`/`q` (rotating `V` columns `v_p`/`v_q`
/// alongside); returns whether it rotated. Three single-accumulator dot
/// products in ascending index order, then an in-place rotation of both
/// pairs — every float operation is fully determined by this pair's own
/// entries.
fn rotate_pair(
    col_p: &mut [f64],
    col_q: &mut [f64],
    v_p: &mut [f64],
    v_q: &mut [f64],
    tol: f64,
) -> bool {
    let mut alpha = 0.0_f64;
    let mut beta = 0.0_f64;
    let mut gamma = 0.0_f64;
    for (x, y) in col_p.iter().zip(col_q.iter()) {
        alpha += x * x;
        beta += y * y;
        gamma += x * y;
    }
    if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
        return false;
    }
    let zeta = (beta - alpha) / (2.0 * gamma);
    let t = if zeta >= 0.0 {
        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
    } else {
        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    for (x, y) in col_p.iter_mut().zip(col_q.iter_mut()) {
        let (xp, yq) = (*x, *y);
        *x = c * xp - s * yq;
        *y = s * xp + c * yq;
    }
    for (x, y) in v_p.iter_mut().zip(v_q.iter_mut()) {
        let (xp, yq) = (*x, *y);
        *x = c * xp - s * yq;
        *y = s * xp + c * yq;
    }
    true
}

/// Computes the thin SVD of `a` by one-sided Jacobi.
///
/// # Errors
///
/// Returns [`LinalgError::NonFinite`] if any entry is NaN or infinite, and
/// [`LinalgError::NoConvergence`] if column orthogonalization does not
/// converge within the sweep budget.
///
/// # Examples
///
/// ```
/// use scissor_linalg::{svd, Matrix};
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]);
/// let d = svd(&a)?;
/// assert!((d.sigma[0] - 3.0).abs() < 1e-6);
/// assert!((d.sigma[1] - 2.0).abs() < 1e-6);
/// # Ok::<(), scissor_linalg::LinalgError>(())
/// ```
pub fn svd(a: &Matrix) -> Result<Svd> {
    // One-sided Jacobi wants n >= m; otherwise decompose the transpose and swap.
    if a.rows() < a.cols() {
        let t = svd(&a.transpose())?;
        return Ok(Svd { u: t.v, sigma: t.sigma, v: t.u });
    }
    // Checked once, after the transpose: a non-finite column never
    // orthogonalizes and would reach the singular-value sort as NaN.
    if !a.as_slice().iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "svd" });
    }
    let (n, m) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd { u: Matrix::zeros(n, 0), sigma: vec![], v: Matrix::zeros(m, 0) });
    }

    // Work in f64 column-major: cols[j] is the j-th column of the evolving
    // A·V; vcols[j] the j-th column of V.
    let mut cols: Vec<Vec<f64>> =
        (0..m).map(|j| (0..n).map(|i| a[(i, j)] as f64).collect()).collect();
    let mut vcols: Vec<Vec<f64>> = (0..m)
        .map(|j| {
            let mut col = vec![0.0_f64; m];
            col[j] = 1.0;
            col
        })
        .collect();

    let frob_sq: f64 = cols.iter().flatten().map(|x| x * x).sum();
    if frob_sq == 0.0 {
        let mut u = Matrix::zeros(n, m);
        for j in 0..m.min(n) {
            u[(j, j)] = 1.0;
        }
        return Ok(Svd { u, sigma: vec![0.0; m], v: Matrix::identity(m) });
    }
    let tol = 1e-14 * frob_sq;

    // Tournament (circle-method) schedule over m columns, padded to even
    // with a bye; m-1 rounds cover every unordered pair exactly once.
    let np = m + (m & 1);
    let mut ring: Vec<usize> = (0..np).collect();

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        for (slot, idx) in ring.iter_mut().enumerate() {
            *idx = slot;
        }
        let mut rotated_any = false;
        for _round in 0..np - 1 {
            for i in 0..np / 2 {
                let (a, b) = (ring[i], ring[np - 1 - i]);
                if a >= m || b >= m {
                    continue; // bye slot on odd m
                }
                let (p, q) = if a < b { (a, b) } else { (b, a) };
                let (cols_lo, cols_hi) = cols.split_at_mut(q);
                let (v_lo, v_hi) = vcols.split_at_mut(q);
                rotated_any |=
                    rotate_pair(&mut cols_lo[p], &mut cols_hi[0], &mut v_lo[p], &mut v_hi[0], tol);
            }
            // Advance the schedule: hold ring[0], rotate the rest one step.
            let last = ring[np - 1];
            for idx in (2..np).rev() {
                ring[idx] = ring[idx - 1];
            }
            ring[1] = last;
        }
        if !rotated_any {
            converged = true;
            break;
        }
    }
    if !converged {
        // Check residual orthogonality at a looser tolerance before failing.
        let mut worst: f64 = 0.0;
        for p in 0..m {
            for q in (p + 1)..m {
                let dot: f64 = cols[p].iter().zip(&cols[q]).map(|(a, b)| a * b).sum();
                let np: f64 = cols[p].iter().map(|x| x * x).sum();
                let nq: f64 = cols[q].iter().map(|x| x * x).sum();
                if np > 0.0 && nq > 0.0 {
                    worst = worst.max(dot.abs() / (np * nq).sqrt());
                }
            }
        }
        if worst > 1e-7 {
            return Err(LinalgError::NoConvergence {
                solver: "one-sided jacobi svd",
                sweeps: MAX_SWEEPS,
            });
        }
    }

    // Column norms are the singular values.
    let mut order: Vec<usize> = (0..m).collect();
    let norms: Vec<f64> =
        cols.iter().map(|c| c.iter().map(|x| x * x).sum::<f64>().sqrt()).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("NaN singular value"));

    let mut u = Matrix::zeros(n, m);
    let mut vm = Matrix::zeros(m, m);
    let mut sigma = Vec::with_capacity(m);
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = norms[old_j];
        sigma.push(s);
        if s > 0.0 {
            for i in 0..n {
                u[(i, new_j)] = (cols[old_j][i] / s) as f32;
            }
        }
        for i in 0..m {
            vm[(i, new_j)] = vcols[old_j][i] as f32;
        }
    }
    Ok(Svd { u, sigma, v: vm })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_singular_values() {
        let a = Matrix::from_rows(&[&[4.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.5]]);
        let d = svd(&a).unwrap();
        assert!((d.sigma[0] - 4.0).abs() < 1e-9);
        assert!((d.sigma[1] - 2.5).abs() < 1e-9);
        assert!((d.sigma[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let a = Matrix::from_fn(9, 5, |i, j| ((i * 3 + j * 7) % 11) as f32 * 0.2 - 1.0);
        let d = svd(&a).unwrap();
        let r = d.reconstruct(5).unwrap();
        assert!(a.relative_error(&r) < 1e-9, "err = {}", a.relative_error(&r));
    }

    #[test]
    fn wide_matrix_via_transpose_path() {
        let a = Matrix::from_fn(4, 10, |i, j| {
            (i as f32 + 1.0) * ((j % 3) as f32 - 1.0) + j as f32 * 0.1
        });
        let d = svd(&a).unwrap();
        assert_eq!(d.u.shape(), (4, 4));
        assert_eq!(d.v.shape(), (10, 4));
        let r = d.reconstruct(4).unwrap();
        assert!(a.relative_error(&r) < 1e-9);
    }

    #[test]
    fn rank_one_matrix_detected() {
        // outer product => exactly one nonzero singular value.
        let a = Matrix::from_fn(8, 6, |i, j| (i as f32 + 1.0) * (j as f32 - 2.5) * 0.1);
        let d = svd(&a).unwrap();
        assert!(d.sigma[0] > 1e-3);
        for &s in &d.sigma[1..] {
            assert!(s < 1e-6 * d.sigma[0], "extra singular value {s}");
        }
        let r1 = d.reconstruct(1).unwrap();
        assert!(a.relative_error(&r1) < 1e-8);
    }

    #[test]
    fn singular_vectors_orthonormal() {
        let a = Matrix::from_fn(12, 7, |i, j| ((i * 5 + j * 3) % 13) as f32 * 0.15 - 0.9);
        let d = svd(&a).unwrap();
        let utu = d.u.matmul_tn(&d.u);
        let vtv = d.v.matmul_tn(&d.v);
        for i in 0..7 {
            for j in 0..7 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((utu[(i, j)] - e).abs() < 1e-4);
                assert!((vtv[(i, j)] - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn truncation_error_from_spectrum_matches_actual() {
        let a = Matrix::from_fn(10, 6, |i, j| {
            // Two strong directions plus noise.
            let u1 = (i as f32 * 0.7).sin();
            let u2 = (i as f32 * 1.3).cos();
            3.0 * u1 * (j as f32 * 0.5).cos()
                + 1.5 * u2 * (j as f32 * 0.9).sin()
                + 0.01 * (((i * 7 + j * 11) % 5) as f32 - 2.0)
        });
        let d = svd(&a).unwrap();
        for k in 1..=4 {
            let predicted = d.truncation_error(k);
            let actual = a.relative_error(&d.reconstruct(k).unwrap());
            assert!((predicted - actual).abs() < 1e-5, "k={k}: {predicted} vs {actual}");
        }
    }

    #[test]
    fn min_rank_for_error_monotone_in_eps() {
        let a = Matrix::from_fn(16, 9, |i, j| ((i as f32).sin() + 1.0) * ((j as f32) * 0.4).cos());
        let d = svd(&a).unwrap();
        let r_loose = d.min_rank_for_error(0.2);
        let r_tight = d.min_rank_for_error(0.001);
        assert!(r_loose <= r_tight);
        assert!(d.truncation_error(r_tight) <= 0.001 + 1e-12);
    }

    #[test]
    fn factors_compose_to_truncation() {
        let a = Matrix::from_fn(8, 8, |i, j| {
            ((i + 1) * (j + 2)) as f32 * 0.05 + ((i * j) % 3) as f32 * 0.2
        });
        let d = svd(&a).unwrap();
        let (u, v) = d.factors(3).unwrap();
        assert_eq!(u.shape(), (8, 3));
        assert_eq!(v.shape(), (8, 3));
        let composed = u.matmul_nt(&v);
        let truncated = d.reconstruct(3).unwrap();
        assert!(composed.relative_error(&truncated) < 1e-6);
    }

    #[test]
    fn invalid_rank_is_error() {
        let a = Matrix::identity(3);
        let d = svd(&a).unwrap();
        assert!(matches!(d.reconstruct(4), Err(LinalgError::InvalidRank { .. })));
        assert!(matches!(d.factors(9), Err(LinalgError::InvalidRank { .. })));
    }

    #[test]
    fn zero_and_empty_matrices() {
        let d = svd(&Matrix::zeros(4, 3)).unwrap();
        assert!(d.sigma.iter().all(|&s| s == 0.0));
        let e = svd(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.sigma.is_empty());
    }

    #[test]
    fn single_column_and_single_row() {
        let col = Matrix::from_fn(5, 1, |i, _| i as f32 - 2.0);
        let d = svd(&col).unwrap();
        assert_eq!(d.sigma.len(), 1);
        assert!(col.relative_error(&d.reconstruct(1).unwrap()) < 1e-9);
        let row = Matrix::from_fn(1, 5, |_, j| j as f32 + 0.5);
        let d = svd(&row).unwrap();
        assert!(row.relative_error(&d.reconstruct(1).unwrap()) < 1e-9);
    }
}
