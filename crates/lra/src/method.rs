//! Low-rank-approximation back-ends: PCA (the paper's default) and SVD
//! (evaluated as inferior in §3.1 — crossbar area 32.97 % vs 13.62 % on
//! LeNet).

use serde::{Deserialize, Serialize};

use scissor_linalg::{svd, LinalgError, Matrix, Pca, Svd};

/// Which LRA technique rank clipping uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LraMethod {
    /// Principal components analysis (Algorithm 1) — the paper's choice.
    #[default]
    Pca,
    /// Singular value decomposition with √σ-balanced factors.
    Svd,
}

/// One matrix fitted by an [`LraMethod`]: the rank search and the factor
/// split both read it, so a caller that needs both solves the spectrum once.
#[derive(Debug, Clone)]
pub enum LraFit {
    /// A PCA fit (Algorithm 1).
    Pca(Pca),
    /// A thin SVD.
    Svd(Svd),
}

impl LraFit {
    /// Smallest rank whose reconstruction error (Eq. 3) is at most `eps`.
    pub fn min_rank_for_error(&self, eps: f64) -> usize {
        match self {
            LraFit::Pca(pca) => pca.min_rank_for_error(eps),
            LraFit::Svd(d) => d.min_rank_for_error(eps),
        }
    }

    /// Rank-`k` factor pair `(U, V)` with `w ≈ U·Vᵀ`, where `w` is the
    /// matrix this was fitted on. An SVD clamps `k` to its singular value
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] when `k` exceeds a PCA fit's
    /// component count.
    pub fn factors(&self, w: &Matrix, k: usize) -> Result<(Matrix, Matrix), LinalgError> {
        match self {
            LraFit::Pca(pca) => pca.factors(w, k),
            LraFit::Svd(d) => d.factors(k.min(d.sigma.len())),
        }
    }
}

impl LraMethod {
    /// Fits `w` once (PCA or SVD).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] for a NaN or infinite entry, and
    /// propagates solver convergence failures (not observed for finite
    /// layer-sized inputs).
    pub fn fit(&self, w: &Matrix) -> Result<LraFit, LinalgError> {
        Ok(match self {
            LraMethod::Pca => LraFit::Pca(Pca::fit(w)?),
            LraMethod::Svd => LraFit::Svd(svd(w)?),
        })
    }

    /// Smallest rank whose reconstruction error (Eq. 3) is at most `eps`.
    ///
    /// # Errors
    ///
    /// As [`LraMethod::fit`].
    pub fn min_rank_for_error(&self, w: &Matrix, eps: f64) -> Result<usize, LinalgError> {
        Ok(self.fit(w)?.min_rank_for_error(eps))
    }

    /// Rank-`k` factor pair `(U, V)` with `w ≈ U·Vᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidRank`] when `k` exceeds the matrix's
    /// column count, or a failure from [`LraMethod::fit`].
    pub fn factorize(&self, w: &Matrix, k: usize) -> Result<(Matrix, Matrix), LinalgError> {
        self.fit(w)?.factors(w, k)
    }

    /// Both of the above from one fit: picks the minimum rank for `eps` and
    /// returns `(rank, U, V)`.
    ///
    /// # Errors
    ///
    /// As [`LraMethod::fit`].
    pub fn clip(&self, w: &Matrix, eps: f64) -> Result<(usize, Matrix, Matrix), LinalgError> {
        let fit = self.fit(w)?;
        let k = fit.min_rank_for_error(eps);
        let (u, v) = fit.factors(w, k)?;
        Ok((k, u, v))
    }
}

impl std::fmt::Display for LraMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LraMethod::Pca => write!(f, "PCA"),
            LraMethod::Svd => write!(f, "SVD"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_matrix(n: usize, m: usize, rank: usize) -> Matrix {
        let u = Matrix::from_fn(n, rank, |i, j| ((i * 13 + j * 7) % 11) as f32 * 0.2 - 1.0);
        let v = Matrix::from_fn(m, rank, |i, j| ((i * 17 + j * 5) % 13) as f32 * 0.15 - 0.9);
        u.matmul_nt(&v)
    }

    #[test]
    fn both_methods_find_true_rank() {
        let w = low_rank_matrix(30, 12, 4);
        assert_eq!(LraMethod::Pca.min_rank_for_error(&w, 1e-8).unwrap(), 4);
        assert_eq!(LraMethod::Svd.min_rank_for_error(&w, 1e-8).unwrap(), 4);
    }

    #[test]
    fn factorizations_reconstruct_within_eps() {
        let w = low_rank_matrix(20, 10, 6);
        for method in [LraMethod::Pca, LraMethod::Svd] {
            let (k, u, v) = method.clip(&w, 0.05).unwrap();
            assert!(k <= 6);
            let err = w.relative_error(&u.matmul_nt(&v));
            assert!(err <= 0.05 + 1e-6, "{method}: err {err}");
        }
    }

    #[test]
    fn one_fit_matches_the_two_call_path_bitwise() {
        // A rank-5 signal plus a small full-rank tail, so each eps picks a
        // different rank below full.
        let w = low_rank_matrix(48, 20, 5)
            .add(&Matrix::from_fn(48, 20, |i, j| ((i * 7 + j * 3) % 5) as f32 * 0.01));
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for method in [LraMethod::Pca, LraMethod::Svd] {
            for eps in [1e-4, 0.01, 0.1] {
                let fit = method.fit(&w).unwrap();
                let k = fit.min_rank_for_error(eps).max(1);
                let (u, v) = fit.factors(&w, k).unwrap();
                let k2 = method.min_rank_for_error(&w, eps).unwrap().max(1);
                let (u2, v2) = method.factorize(&w, k2).unwrap();
                assert_eq!(k, k2, "{method}, eps {eps}");
                assert!(k < 20, "{method}, eps {eps}: rank {k} is not a clip");
                assert_eq!(bits(&u), bits(&u2), "{method}, eps {eps}: U");
                assert_eq!(bits(&v), bits(&v2), "{method}, eps {eps}: V");
            }
        }
    }

    #[test]
    fn svd_factors_are_balanced() {
        let w = low_rank_matrix(16, 8, 3);
        let (u, v) = LraMethod::Svd.factorize(&w, 3).unwrap();
        // √σ balancing keeps both factor norms within a modest ratio.
        let ru = u.frobenius_norm();
        let rv = v.frobenius_norm();
        assert!(ru / rv < 10.0 && rv / ru < 10.0, "unbalanced factors {ru} vs {rv}");
    }

    #[test]
    fn invalid_rank_rejected() {
        let w = low_rank_matrix(6, 4, 2);
        assert!(LraMethod::Pca.factorize(&w, 9).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(LraMethod::Pca.to_string(), "PCA");
        assert_eq!(LraMethod::Svd.to_string(), "SVD");
        assert_eq!(LraMethod::default(), LraMethod::Pca);
    }
}
