//! Error type for the linear-algebra crate.

use std::error::Error;
use std::fmt;

/// Errors produced by `scissor-linalg` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// An operand's shape does not match what the operation requires.
    ShapeMismatch {
        /// Shape the operation expected.
        expected: (usize, usize),
        /// Shape that was provided.
        actual: (usize, usize),
        /// Name of the offending operation.
        op: &'static str,
    },
    /// An iterative solver failed to converge within its sweep budget.
    NoConvergence {
        /// Name of the solver.
        solver: &'static str,
        /// Number of sweeps performed before giving up.
        sweeps: usize,
    },
    /// A rank argument exceeds the maximum admissible rank.
    InvalidRank {
        /// Requested rank.
        requested: usize,
        /// Largest valid rank for the operand.
        max: usize,
    },
    /// An input held a NaN or an infinity, which the iterative solvers
    /// cannot converge on.
    NonFinite {
        /// Name of the offending operation.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, actual, op } => write!(
                f,
                "shape mismatch in {op}: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            LinalgError::NoConvergence { solver, sweeps } => {
                write!(f, "{solver} failed to converge after {sweeps} sweeps")
            }
            LinalgError::InvalidRank { requested, max } => {
                write!(f, "invalid rank {requested}, maximum admissible rank is {max}")
            }
            LinalgError::NonFinite { op } => write!(f, "non-finite input to {op}"),
        }
    }
}

impl Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = LinalgError::ShapeMismatch { expected: (2, 3), actual: (4, 5), op: "matmul" };
        assert_eq!(e.to_string(), "shape mismatch in matmul: expected 2x3, got 4x5");
        let e = LinalgError::NoConvergence { solver: "jacobi", sweeps: 30 };
        assert!(e.to_string().contains("failed to converge"));
        let e = LinalgError::InvalidRank { requested: 9, max: 4 };
        assert!(e.to_string().contains("invalid rank 9"));
        let e = LinalgError::NonFinite { op: "svd" };
        assert_eq!(e.to_string(), "non-finite input to svd");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
