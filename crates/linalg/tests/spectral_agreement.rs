//! Bitwise agreement between the default (pool-parallel) and serial SVD:
//! `svd` vs `svd_serial`. Disjoint tournament pairs plus single-accumulator
//! per-pair dots make the parallel schedule *exactly* reproduce the serial
//! arithmetic, so every assertion here is exact bit equality — the same
//! contract the matmul kernel variants keep.
//!
//! The pool is forced to 4 workers so the fan-out machinery really runs
//! even on a single-core host; the companion `spectral_agreement_serial`
//! suite pins the degenerate single-worker pool.

use proptest::prelude::*;
use scissor_linalg::{svd, svd_serial, Matrix};
use std::sync::Once;

/// Runs before any pool use (every test calls it first), so the lazily
/// initialized global picks up a deterministic multi-worker size.
fn init() {
    static FORCE_THREADS: Once = Once::new();
    FORCE_THREADS.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    });
}

/// Exact f32 bit equality, element by element (plain `==` would conflate
/// `0.0` with `-0.0` and reject equal `NaN`s — the contract is bitwise).
fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

fn assert_f64_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

/// A matrix with bounded dimensions and entries in [-1, 1].
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.0f32..1.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shapes straddling the fan-out threshold: some rounds dispatch to the
    /// pool, some stay inline — both must match the serial reference bit
    /// for bit (tall, wide/transpose-path, and odd widths all generated).
    #[test]
    fn svd_matches_serial_bitwise(m in matrix_strategy(96, 48)) {
        init();
        let par = svd(&m).expect("svd");
        let ser = svd_serial(&m).expect("svd_serial");
        assert_bits_eq(&par.u, &ser.u, "U");
        assert_bits_eq(&par.v, &ser.v, "V");
        assert_f64_bits_eq(&par.sigma, &ser.sigma, "sigma");
    }
}

/// Deterministic well-conditioned test matrix (shared with the benches'
/// spectral shapes).
fn dense(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 13 + j * 29) % 31) as f32 * 0.11 - 1.6 + ((i + 2 * j) as f32 * 0.25).sin()
    })
}

#[test]
fn svd_headline_shape_matches_serial_bitwise() {
    init();
    // The bench shape (200×64): every round clears the fan-out threshold,
    // so this run exercises real pool dispatch, not the inline fallback.
    let a = dense(200, 64);
    let par = svd(&a).expect("svd");
    let ser = svd_serial(&a).expect("svd_serial");
    assert_bits_eq(&par.u, &ser.u, "U");
    assert_bits_eq(&par.v, &ser.v, "V");
    assert_f64_bits_eq(&par.sigma, &ser.sigma, "sigma");
}

#[test]
fn svd_odd_width_bye_schedule_matches_serial_bitwise() {
    init();
    // Odd column count exercises the tournament's bye slot in every round.
    let a = dense(150, 33);
    let par = svd(&a).expect("svd");
    let ser = svd_serial(&a).expect("svd_serial");
    assert_bits_eq(&par.u, &ser.u, "U");
    assert_bits_eq(&par.v, &ser.v, "V");
    assert_f64_bits_eq(&par.sigma, &ser.sigma, "sigma");
}
