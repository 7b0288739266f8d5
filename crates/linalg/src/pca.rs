//! Principal components analysis — the paper's Algorithm 1.
//!
//! Given a weight matrix `W ∈ R^{N×M}` (rows = fan-in samples in the PCA
//! sense), PCA finds the projection basis `V` whose leading `K` columns
//! minimize the reconstruction error of Eq. (3):
//!
//! ```text
//! e_K = ||W − W̃||² / ||W||² = Σ_{m=K+1..M} λ_m / Σ_m λ_m
//! ```
//!
//! where `λ` are the eigenvalues of the (Gram or covariance) matrix `WᵀW`.
//!
//! # Centering
//!
//! Algorithm 1 as printed centralizes the rows of `W` but then outputs
//! `W̃ = U·Vᵀ` *without* re-adding the mean — taken literally, even full-rank
//! PCA would not reconstruct `W`, which contradicts Algorithm 2's exact
//! full-rank initialization. We therefore default to **uncentered** PCA
//! (equivalent to truncated SVD energy), and expose centered PCA via
//! [`Pca::fit_centered`] for callers that fold the rank-1 mean term into a
//! bias path. See DESIGN.md §7.

use serde::{Deserialize, Serialize};

use crate::eig::sym_eig_f64;
use crate::error::{LinalgError, Result};
use crate::Matrix;

/// A fitted PCA model for one weight matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pca {
    eigenvalues: Vec<f64>,
    /// `M × M` eigenvector basis, one component per column, descending λ.
    basis: Matrix,
    /// Row mean, present only for centered fits.
    mean: Option<Vec<f32>>,
}

impl Pca {
    /// Fits uncentered PCA (the default used by rank clipping).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] if `w` holds a NaN or infinity,
    /// and propagates [`LinalgError::NoConvergence`] from the eigensolver
    /// (does not occur for finite inputs at these sizes).
    ///
    /// # Examples
    ///
    /// ```
    /// use scissor_linalg::{Matrix, Pca};
    /// let w = Matrix::from_fn(20, 6, |i, j| ((i + j) as f32 * 0.35).sin());
    /// let pca = Pca::fit(&w)?;
    /// // Full rank reconstructs exactly.
    /// assert!(pca.reconstruction_error(6) < 1e-9);
    /// # Ok::<(), scissor_linalg::LinalgError>(())
    /// ```
    pub fn fit(w: &Matrix) -> Result<Pca> {
        Self::fit_impl(w, false)
    }

    /// Fits centered PCA (Algorithm 1 line 1–2 taken literally).
    ///
    /// # Errors
    ///
    /// As [`Pca::fit`].
    pub fn fit_centered(w: &Matrix) -> Result<Pca> {
        Self::fit_impl(w, true)
    }

    fn fit_impl(w: &Matrix, centered: bool) -> Result<Pca> {
        let (n, m) = w.shape();
        let (work, mean) = if centered {
            let mut mean = vec![0.0_f32; m];
            for i in 0..n {
                for (mu, &x) in mean.iter_mut().zip(w.row(i)) {
                    *mu += x;
                }
            }
            let inv = if n > 0 { 1.0 / n as f32 } else { 0.0 };
            for mu in &mut mean {
                *mu *= inv;
            }
            let mut c = w.clone();
            for i in 0..n {
                for (x, &mu) in c.row_mut(i).iter_mut().zip(&mean) {
                    *x -= mu;
                }
            }
            (c, Some(mean))
        } else {
            (w.clone(), None)
        };

        // Gram matrix in f64, normalized like Algorithm 1 (divide by N-1).
        // The normalization cancels in Eq. (3)'s ratio but keeps the spectrum
        // at covariance scale for anyone inspecting `eigenvalues()`.
        let mut gram = work.gram_f64();
        let norm = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 1.0 };
        for g in &mut gram {
            *g *= norm;
        }
        let (mut values, vectors) = sym_eig_f64(&mut gram, m)?;
        // Clamp tiny negative eigenvalues caused by floating-point round-off:
        // the Gram matrix is positive semidefinite by construction.
        for v in &mut values {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Ok(Pca { eigenvalues: values, basis: Matrix::from_f64_vec(m, m, &vectors), mean })
    }

    /// Eigenvalues of the (co)variance matrix, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The full `M × M` component basis (one component per column).
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// Row mean subtracted during fitting, if the fit was centered.
    pub fn mean(&self) -> Option<&[f32]> {
        self.mean.as_deref()
    }

    /// Number of components (`M`).
    pub fn component_count(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Reconstruction error of Eq. (3) for a rank-`K` projection, computed
    /// from the eigenvalue tail.
    ///
    /// Returns `0.0` for `k >= M` and `1.0` for `k = 0` on a nonzero matrix.
    pub fn reconstruction_error(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let tail: f64 = self.eigenvalues.iter().skip(k).sum();
        tail / total
    }

    /// Smallest rank `K̂` whose reconstruction error satisfies `e_K̂ ≤ eps`
    /// (Algorithm 2, line 6). Always returns at least 1 for non-empty bases.
    pub fn min_rank_for_error(&self, eps: f64) -> usize {
        let m = self.eigenvalues.len();
        if m == 0 {
            return 0;
        }
        for k in 1..=m {
            if self.reconstruction_error(k) <= eps {
                return k;
            }
        }
        m
    }

    /// Leading `k` components as an `M × K` matrix (Algorithm 1, line 5's `V`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] if `k > M`.
    pub fn components(&self, k: usize) -> Result<Matrix> {
        if k > self.basis.cols() {
            return Err(LinalgError::InvalidRank { requested: k, max: self.basis.cols() });
        }
        Ok(self.basis.truncate_cols(k))
    }

    /// Projects `w` onto the leading `k` components: `U = W·V_K` (`N × K`).
    ///
    /// For centered fits the mean is subtracted before projecting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] if `k > M`, or
    /// [`LinalgError::ShapeMismatch`] if `w` has the wrong column count.
    pub fn project(&self, w: &Matrix, k: usize) -> Result<Matrix> {
        if w.cols() != self.basis.rows() {
            return Err(LinalgError::ShapeMismatch {
                expected: (w.rows(), self.basis.rows()),
                actual: w.shape(),
                op: "pca project",
            });
        }
        let v = self.components(k)?;
        match &self.mean {
            None => Ok(w.matmul(&v)),
            Some(mean) => {
                let mut c = w.clone();
                for i in 0..c.rows() {
                    for (x, &mu) in c.row_mut(i).iter_mut().zip(mean) {
                        *x -= mu;
                    }
                }
                Ok(c.matmul(&v))
            }
        }
    }

    /// Rank-`k` factor pair `(U, V)` with `W̃ = U·Vᵀ` (plus the stored mean
    /// for centered fits; see [`Pca::reconstruct`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::project`].
    pub fn factors(&self, w: &Matrix, k: usize) -> Result<(Matrix, Matrix)> {
        let u = self.project(w, k)?;
        let v = self.components(k)?;
        Ok((u, v))
    }

    /// Rank-`k` reconstruction `W̃ = U·Vᵀ (+ 1·µᵀ if centered)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::project`].
    pub fn reconstruct(&self, w: &Matrix, k: usize) -> Result<Matrix> {
        let (u, v) = self.factors(w, k)?;
        let mut r = u.matmul_nt(&v);
        if let Some(mean) = &self.mean {
            for i in 0..r.rows() {
                for (x, &mu) in r.row_mut(i).iter_mut().zip(mean) {
                    *x += mu;
                }
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_plus_noise(n: usize, m: usize, rank: usize, noise: f32) -> Matrix {
        // Deterministic pseudo-random low-rank matrix.
        let u = Matrix::from_fn(n, rank, |i, j| ((i * 37 + j * 101) % 19) as f32 * 0.1 - 0.9);
        let v = Matrix::from_fn(m, rank, |i, j| ((i * 53 + j * 29) % 23) as f32 * 0.08 - 0.88);
        let mut w = u.matmul_nt(&v);
        w.map_inplace(|x| x);
        let jitter = Matrix::from_fn(n, m, |i, j| (((i * 7 + j * 13) % 11) as f32 - 5.0) * noise);
        w.add(&jitter)
    }

    #[test]
    fn full_rank_reconstruction_exact_uncentered() {
        let w = low_rank_plus_noise(15, 8, 8, 0.05);
        let pca = Pca::fit(&w).unwrap();
        let r = pca.reconstruct(&w, 8).unwrap();
        assert!(w.relative_error(&r) < 1e-8, "err {}", w.relative_error(&r));
        assert!(pca.reconstruction_error(8) < 1e-10);
    }

    #[test]
    fn eq3_tail_formula_matches_actual_error() {
        let w = low_rank_plus_noise(24, 10, 4, 0.02);
        let pca = Pca::fit(&w).unwrap();
        for k in 1..10 {
            let predicted = pca.reconstruction_error(k);
            let actual = w.relative_error(&pca.reconstruct(&w, k).unwrap());
            assert!(
                (predicted - actual).abs() < 1e-5,
                "k={k}: predicted {predicted}, actual {actual}"
            );
        }
    }

    #[test]
    fn detects_true_rank_of_noiseless_matrix() {
        let w = low_rank_plus_noise(30, 12, 3, 0.0);
        let pca = Pca::fit(&w).unwrap();
        assert_eq!(pca.min_rank_for_error(1e-9), 3);
    }

    #[test]
    fn min_rank_monotone_in_eps() {
        let w = low_rank_plus_noise(20, 9, 5, 0.03);
        let pca = Pca::fit(&w).unwrap();
        let mut last = usize::MAX;
        for eps in [0.001, 0.01, 0.05, 0.2, 0.8] {
            let k = pca.min_rank_for_error(eps);
            assert!(k <= last, "rank must shrink as eps grows");
            last = k;
            assert!(pca.reconstruction_error(k) <= eps + 1e-12);
        }
    }

    #[test]
    fn reconstruction_error_boundaries() {
        let w = low_rank_plus_noise(10, 6, 6, 0.1);
        let pca = Pca::fit(&w).unwrap();
        assert!((pca.reconstruction_error(0) - 1.0).abs() < 1e-12);
        assert!(pca.reconstruction_error(6) < 1e-12);
        assert!(pca.reconstruction_error(100) == 0.0);
    }

    #[test]
    fn centered_fit_reconstructs_with_mean() {
        let mut w = low_rank_plus_noise(18, 7, 3, 0.01);
        // Add a large constant offset: centered PCA should absorb it in µ.
        w.map_inplace(|x| x + 10.0);
        let pca = Pca::fit_centered(&w).unwrap();
        assert!(pca.mean().is_some());
        let r = pca.reconstruct(&w, 7).unwrap();
        assert!(w.relative_error(&r) < 1e-8);
        // The offset direction is gone from the spectrum, so rank 3 suffices.
        let r3 = pca.reconstruct(&w, 3).unwrap();
        assert!(w.relative_error(&r3) < 1e-3);
    }

    #[test]
    fn uncentered_error_metric_matches_eq3_even_when_centered_would_differ() {
        let mut w = low_rank_plus_noise(18, 7, 3, 0.01);
        w.map_inplace(|x| x + 5.0);
        let pca = Pca::fit(&w).unwrap();
        let k = pca.min_rank_for_error(0.01);
        let actual = w.relative_error(&pca.reconstruct(&w, k).unwrap());
        assert!(actual <= 0.01 + 1e-6);
    }

    #[test]
    fn factors_compose_to_reconstruction() {
        let w = low_rank_plus_noise(16, 8, 4, 0.02);
        let pca = Pca::fit(&w).unwrap();
        let (u, v) = pca.factors(&w, 4).unwrap();
        assert_eq!(u.shape(), (16, 4));
        assert_eq!(v.shape(), (8, 4));
        let composed = u.matmul_nt(&v);
        let direct = pca.reconstruct(&w, 4).unwrap();
        assert!(composed.relative_error(&direct) < 1e-9);
    }

    #[test]
    fn project_checks_shapes_and_rank() {
        let w = low_rank_plus_noise(10, 5, 2, 0.0);
        let pca = Pca::fit(&w).unwrap();
        assert!(matches!(pca.project(&w, 6), Err(LinalgError::InvalidRank { .. })));
        let wrong = Matrix::zeros(4, 7);
        assert!(matches!(pca.project(&wrong, 2), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_matrix_has_zero_error_at_any_rank() {
        let w = Matrix::zeros(6, 4);
        let pca = Pca::fit(&w).unwrap();
        assert_eq!(pca.reconstruction_error(0), 0.0);
        assert_eq!(pca.min_rank_for_error(0.01), 1);
    }

    #[test]
    fn basis_is_orthonormal() {
        let w = low_rank_plus_noise(25, 9, 6, 0.05);
        let pca = Pca::fit(&w).unwrap();
        let b = pca.basis();
        let btb = b.matmul_tn(b);
        for i in 0..9 {
            for j in 0..9 {
                let e = if i == j { 1.0 } else { 0.0 };
                assert!((btb[(i, j)] - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nested_projection_composes_like_algorithm2_line8() {
        // Algorithm 2 line 8: after re-projecting U to Û·V̂ᵀ, the composed
        // basis is V̂ᵀ·Vᵀ, i.e. W ≈ Û·(V·V̂)ᵀ. Verify the identity.
        let w = low_rank_plus_noise(20, 10, 6, 0.01);
        let pca1 = Pca::fit(&w).unwrap();
        let k1 = 6;
        let (u1, v1) = pca1.factors(&w, k1).unwrap();
        let pca2 = Pca::fit(&u1).unwrap();
        let k2 = 3;
        let (u2, v2) = pca2.factors(&u1, k2).unwrap();
        let v_composed = v1.matmul(&v2); // M×K1 · K1×K2 = M×K2
        let w_approx = u2.matmul_nt(&v_composed);
        let direct = u1.matmul_nt(&v1);
        // Composition error should be within the second truncation's error.
        let e2 = pca2.reconstruction_error(k2);
        let err = direct.relative_error(&w_approx);
        assert!(err <= e2 * 1.5 + 1e-6, "composition err {err} vs spectrum bound {e2}");
    }
}
