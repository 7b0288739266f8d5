//! The threads = 1 leg of the spectral agreement contract: with a
//! single-worker pool the fan-out gate collapses to the inline path, and
//! `svd` must still agree bitwise with its `svd_serial` reference entry
//! point. Pool size is fixed per process, which is why
//! this is a separate test binary from `spectral_agreement` (threads = 4).

use scissor_linalg::{svd, svd_serial, Matrix};
use std::sync::Once;

/// Runs before any pool use (every test calls it first), so the lazily
/// initialized global picks up the degenerate single-worker size.
fn init() {
    static FORCE_THREADS: Once = Once::new();
    FORCE_THREADS.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    });
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

#[test]
fn svd_single_thread_pool_matches_serial_bitwise() {
    init();
    for (rows, cols) in [(200, 64), (150, 33), (40, 96)] {
        let a = Matrix::from_fn(rows, cols, |i, j| {
            ((i * 13 + j * 29) % 31) as f32 * 0.11 - 1.6 + ((i + 2 * j) as f32 * 0.25).sin()
        });
        let par = svd(&a).expect("svd");
        let ser = svd_serial(&a).expect("svd_serial");
        assert_bits_eq(&par.u, &ser.u, "U");
        assert_bits_eq(&par.v, &ser.v, "V");
        assert!(par.sigma.iter().zip(&ser.sigma).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
