//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use scissor_linalg::{max_beneficial_rank, svd, sym_eig, LinalgError, LowRank, Matrix, Pca};

/// Strategy: a matrix with bounded dimensions and entries in [-1, 1].
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.0f32..1.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

fn square_matrix_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f32..1.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized by construction"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix_strategy(12, 12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(8, 6),
        seed in 0u64..1000,
    ) {
        // Build B and C with A-compatible shapes from the seed.
        let k = a.cols();
        let b = Matrix::from_fn(k, 5, |i, j| (((i * 31 + j * 17 + seed as usize) % 13) as f32 - 6.0) * 0.1);
        let c = Matrix::from_fn(k, 5, |i, j| (((i * 7 + j * 29 + seed as usize) % 11) as f32 - 5.0) * 0.1);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.relative_error(&rhs) < 1e-8);
    }

    #[test]
    fn matmul_nt_tn_consistent_with_explicit_transpose(
        a in matrix_strategy(9, 7),
        seed in 0u64..1000,
    ) {
        let b = Matrix::from_fn(6, a.cols(), |i, j| (((i * 13 + j * 3 + seed as usize) % 17) as f32 - 8.0) * 0.1);
        let nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        prop_assert!(nt.sub(&explicit).max_abs() < 1e-4);

        let c = Matrix::from_fn(a.rows(), 4, |i, j| (((i * 5 + j * 19 + seed as usize) % 23) as f32 - 11.0) * 0.05);
        let tn = a.matmul_tn(&c);
        let explicit_tn = a.transpose().matmul(&c);
        prop_assert!(tn.sub(&explicit_tn).max_abs() < 1e-4);
    }

    #[test]
    fn frobenius_norm_triangle_inequality(
        a in matrix_strategy(10, 10),
        seed in 0u64..1000,
    ) {
        let b = Matrix::from_fn(a.rows(), a.cols(), |i, j| (((i * 3 + j * 7 + seed as usize) % 19) as f32 - 9.0) * 0.1);
        let sum_norm = a.add(&b).frobenius_norm();
        prop_assert!(sum_norm <= a.frobenius_norm() + b.frobenius_norm() + 1e-6);
    }

    #[test]
    fn sym_eig_reconstructs_and_is_orthonormal(m in square_matrix_strategy(10)) {
        let sym = m.add(&m.transpose()).map(|v| v * 0.5);
        let e = sym_eig(&sym).expect("QL converges on small symmetric matrices");
        // Reconstruction.
        let r = e.reconstruct();
        prop_assert!(sym.sub(&r).max_abs() < 1e-3);
        // Eigenvalues descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        // V'V = I.
        let vtv = e.vectors.matmul_tn(&e.vectors);
        for i in 0..vtv.rows() {
            for j in 0..vtv.cols() {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn svd_spectrum_nonnegative_sorted_and_reconstructs(m in matrix_strategy(10, 8)) {
        let d = svd(&m).expect("one-sided jacobi converges on small matrices");
        for w in d.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for &s in &d.sigma {
            prop_assert!(s >= 0.0);
        }
        let full = d.sigma.len();
        let r = d.reconstruct(full).expect("full rank is valid");
        prop_assert!(m.sub(&r).max_abs() < 1e-3);
        // Frobenius norm equals sqrt of sum of squared singular values.
        let from_sigma: f64 = d.sigma.iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((m.frobenius_norm() - from_sigma).abs() < 1e-3);
    }

    /// The eigensolver against an independent algorithm: PCA's spectrum,
    /// rescaled from covariance to Gram scale, is the squared singular
    /// values of the one-sided Jacobi SVD (zero-padded when rows < cols).
    #[test]
    fn pca_spectrum_matches_squared_singular_values(m in matrix_strategy(40, 24)) {
        let pca = Pca::fit(&m).expect("pca fit");
        let d = svd(&m).expect("svd");
        let scale = m.rows().saturating_sub(1).max(1) as f64;
        let tol = 1e-9 * m.frobenius_norm_sq();
        prop_assert_eq!(pca.eigenvalues().len(), m.cols());
        for (k, &lam) in pca.eigenvalues().iter().enumerate() {
            let sigma_sq = d.sigma.get(k).map_or(0.0, |s| s * s);
            prop_assert!(
                (lam * scale - sigma_sq).abs() <= tol,
                "k={}: λ·(N−1) = {} but σ² = {}", k, lam * scale, sigma_sq
            );
        }
    }

    #[test]
    fn pca_error_decreases_with_rank(m in matrix_strategy(12, 9)) {
        let pca = Pca::fit(&m).expect("pca fit");
        let mut prev = f64::INFINITY;
        for k in 0..=m.cols() {
            let e = pca.reconstruction_error(k);
            prop_assert!(e <= prev + 1e-12, "error must be non-increasing in rank");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn pca_truncation_error_matches_spectrum_prediction(m in matrix_strategy(12, 6)) {
        let pca = Pca::fit(&m).expect("pca fit");
        for k in 1..=m.cols() {
            let predicted = pca.reconstruction_error(k);
            let actual = m.relative_error(&pca.reconstruct(&m, k).expect("valid rank"));
            prop_assert!((predicted - actual).abs() < 1e-3, "k={}: {} vs {}", k, predicted, actual);
        }
    }

    #[test]
    fn eq2_boundary_consistency(n in 1usize..200, m in 1usize..200) {
        let kmax = max_beneficial_rank(n, m);
        if kmax > 0 {
            let lr = LowRank::new(Matrix::zeros(n, kmax), Matrix::zeros(m, kmax)).expect("rank pair");
            prop_assert!(lr.saves_area(), "kmax={} must save area for {}x{}", kmax, n, m);
        }
        let lr_over = LowRank::new(Matrix::zeros(n, kmax + 1), Matrix::zeros(m, kmax + 1)).expect("rank pair");
        prop_assert!(!lr_over.saves_area(), "kmax+1={} must not save area for {}x{}", kmax + 1, n, m);
    }

    #[test]
    fn submatrix_tiling_reassembles(m in matrix_strategy(16, 16), p in 1usize..6, q in 1usize..6) {
        // Cut into p×q-ish blocks and reassemble; must round-trip exactly.
        let mut rebuilt = Matrix::zeros(m.rows(), m.cols());
        let mut i = 0;
        while i < m.rows() {
            let ih = (i + p).min(m.rows());
            let mut j = 0;
            while j < m.cols() {
                let jh = (j + q).min(m.cols());
                let block = m.submatrix(i..ih, j..jh);
                rebuilt.set_submatrix(i, j, &block);
                j = jh;
            }
            i = ih;
        }
        prop_assert_eq!(rebuilt, m);
    }
}

/// One non-finite off-diagonal pair in an otherwise well-conditioned
/// symmetric matrix must be rejected with a typed error by every spectral
/// entry point — not panic, burn the whole iteration budget, or converge on
/// an infinite tolerance. Orders 20 and 100 bracket the layer shapes rank
/// clipping fits; the wide slice covers the SVD's transpose path.
#[test]
fn spectral_solvers_reject_non_finite_input() {
    for n in [20usize, 100] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = Matrix::from_fn(n, n, |i, j| {
                let off = ((i * 7 + j * 7) % 13) as f32 * 0.1 - 0.6;
                if i == j {
                    off + n as f32
                } else {
                    off
                }
            });
            a[(3, 7)] = bad;
            a[(7, 3)] = bad;
            let wide = a.submatrix(0..8, 0..n);
            let non_finite =
                |r: Result<(), LinalgError>| matches!(r, Err(LinalgError::NonFinite { .. }));
            let ctx = format!("n = {n}, entry = {bad}");
            assert!(non_finite(svd(&a).map(drop)), "svd, {ctx}");
            assert!(non_finite(svd(&wide).map(drop)), "svd (wide), {ctx}");
            assert!(non_finite(sym_eig(&a).map(drop)), "sym_eig, {ctx}");
            assert!(non_finite(Pca::fit(&a).map(drop)), "Pca::fit, {ctx}");
        }
    }
}
