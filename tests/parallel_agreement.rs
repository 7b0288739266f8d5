//! Property tests pinning the kernel-agreement contract of
//! `scissor_linalg::ops`: the rayon row-panel path, the single-threaded
//! blocked micro-kernels, and the scalar reference kernels all accumulate
//! every output element with a single accumulator in ascending reduction
//! order — so their results are **bitwise identical**, not merely close.
//!
//! The pool is forced to 4 workers so `matmul_parallel` really splits the
//! output into several row panels even on a single-core host.

use group_scissor_repro::linalg::Matrix;
use proptest::prelude::*;
use std::sync::Once;

/// Runs before any pool use (every test calls it first), so the lazily
/// initialized global picks up a deterministic multi-worker size.
fn init() {
    static FORCE_THREADS: Once = Once::new();
    FORCE_THREADS.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    });
}

fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.0f32..1.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

/// Exact bit equality, element by element.
fn assert_bitwise(a: &Matrix, b: &Matrix) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} != {} bitwise", x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_and_serial_matmul_agree_bitwise(
        a in matrix_strategy(40, 64),
        seed in 0u64..1000,
    ) {
        init();
        let k = a.cols();
        let b = Matrix::from_fn(k, 33, |i, j| {
            (((i * 31 + j * 17 + seed as usize) % 29) as f32 - 14.0) * 0.07
        });
        assert_bitwise(&a.matmul_serial(&b), &a.matmul_parallel(&b))?;
    }

    #[test]
    fn microkernel_and_scalar_matmul_agree_bitwise(
        a in matrix_strategy(21, 80),
        seed in 0u64..1000,
    ) {
        init();
        // Row counts around MR=4 and widths around NR=8 exercise every
        // remainder path of the register-tiled kernel.
        let k = a.cols();
        let b = Matrix::from_fn(k, 1 + (seed as usize % 21), |i, j| {
            (((i * 13 + j * 23 + seed as usize) % 31) as f32 - 15.0) * 0.053
        });
        assert_bitwise(&a.matmul_serial(&b), &a.matmul_scalar(&b))?;
    }

    #[test]
    fn microkernel_and_scalar_matmul_nt_agree_bitwise(
        a in matrix_strategy(21, 48),
        seed in 0u64..1000,
    ) {
        init();
        let k = a.cols();
        let b = Matrix::from_fn(1 + (seed as usize % 19), k, |i, j| {
            (((i * 7 + j * 11 + seed as usize) % 27) as f32 - 13.0) * 0.061
        });
        assert_bitwise(&a.matmul_nt(&b), &a.matmul_nt_scalar(&b))?;
    }

    #[test]
    fn microkernel_and_scalar_matmul_tn_agree_bitwise(
        a in matrix_strategy(70, 21),
        seed in 0u64..1000,
    ) {
        init();
        let k = a.rows();
        let b = Matrix::from_fn(k, 1 + (seed as usize % 21), |i, j| {
            (((i * 5 + j * 29 + seed as usize) % 33) as f32 - 16.0) * 0.047
        });
        assert_bitwise(&a.matmul_tn(&b), &a.matmul_tn_scalar(&b))?;
    }

    #[test]
    fn dispatching_matmul_agrees_with_serial_above_threshold(seed in 0u64..50) {
        init();
        // 64³ = 4·2¹⁶ flops crosses PARALLEL_FLOP_THRESHOLD, so `matmul`
        // takes the parallel dispatch path; it must still match the forced
        // serial kernel bitwise.
        let n = 64;
        assert!(n * n * n > group_scissor_repro::linalg::PARALLEL_FLOP_THRESHOLD);
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i * 13 + j * 7 + seed as usize) % 23) as f32 - 11.0) * 0.043
        });
        let b = Matrix::from_fn(n, n, |i, j| {
            (((i * 5 + j * 19 + seed as usize) % 17) as f32 - 8.0) * 0.057
        });
        assert_bitwise(&a.matmul(&b), &a.matmul_serial(&b))?;
    }
}
