//! # scissor-linalg
//!
//! Dense linear algebra for the [Group Scissor (DAC 2017)] reproduction:
//! a row-major `f32` [`Matrix`] with cache-aware, thread-parallel matmul
//! kernels, a symmetric eigensolver (Householder tridiagonalization plus
//! implicit-shift QL), a one-sided-Jacobi thin [`svd()`], [`Pca`]
//! implementing the paper's Algorithm 1, and the
//! [`LowRank`] factor container with the crossbar-area admissibility test of
//! the paper's Eq. (2).
//!
//! Everything is implemented from scratch — no BLAS/LAPACK — because the
//! reproduction targets layer-sized matrices (≤ ~1024 per dimension) where
//! simple, well-tested kernels are fast enough and auditable.
//!
//! [Group Scissor (DAC 2017)]: https://arxiv.org/abs/1702.03443
//!
//! ## Quick tour
//!
//! ```
//! use scissor_linalg::{Matrix, Pca, LowRank, max_beneficial_rank};
//!
//! # fn main() -> Result<(), scissor_linalg::LinalgError> {
//! // A layer-shaped weight matrix: 25 fan-in rows × 20 filter columns.
//! let w = Matrix::from_fn(25, 20, |i, j| ((i * j) as f32 * 0.07).sin());
//!
//! // Fit PCA and pick the smallest rank within 3% reconstruction error.
//! let pca = Pca::fit(&w)?;
//! let k = pca.min_rank_for_error(0.03);
//! let (u, v) = pca.factors(&w, k)?;
//! let lr = LowRank::new(u, v)?;
//!
//! // Eq. (2): does the factorization reduce crossbar cells?
//! assert!(k <= max_beneficial_rank(25, 20) || !lr.saves_area());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod matrix;
mod ops;

pub mod eig;
pub mod lowrank;
pub mod pca;
pub mod quant;
pub mod svd;

pub use error::{LinalgError, Result};
pub use matrix::{transpose_into, Matrix};
pub use ops::{matmul_worker_threads, run_row_panels, threads_for, PARALLEL_FLOP_THRESHOLD};
pub use quant::{
    matmul_q8_into, matmul_q8_nt_into, matmul_q8_nt_scalar_into, matmul_q8_scalar_into,
    QuantActivations, QuantMatrix, ScaleAxis,
};

pub use eig::{sym_eig, SymEig};
pub use lowrank::{max_beneficial_rank, LowRank};
pub use pca::Pca;
pub use svd::{svd, Svd};
