//! # tcam-math
//!
//! Numerical substrate for the TCAM reproduction: a small dense linear
//! algebra toolkit (matrices, Cholesky factorization, triangular solves)
//! and probability distributions implemented from first principles on top
//! of the crate's own [`Pcg64`] RNG.
//!
//! The paper's baselines need more machinery than its headline model:
//! BPTF (Xiong et al., SDM 2010) is a fully Bayesian tensor factorization
//! whose Gibbs sampler draws from multivariate normal and Wishart
//! distributions, so this crate provides those samplers together with the
//! Cholesky-based solvers they require. Everything here is deliberately
//! dependency-light and validated by unit and property tests.

// Lint policy: `!(x > 0.0)` is used deliberately throughout to treat
// NaN as invalid (a plain `x <= 0.0` would accept NaN); indexed loops in
// the EM/Gibbs kernels address several parallel arrays at once, where
// iterator zips hurt readability more than they help.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod dist;
pub mod matrix;
pub mod rng;
pub mod special;
pub mod topk;
pub mod vecops;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use rng::Pcg64;

/// Crate-wide error type for numerical failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows observed.
        rows: usize,
        /// Number of columns observed.
        cols: usize,
    },
    /// Dimension mismatch between two operands.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Observed dimension.
        got: usize,
    },
    /// Cholesky factorization encountered a non-positive pivot.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// A distribution parameter was out of its admissible range.
    InvalidParameter {
        /// Distribution name.
        dist: &'static str,
        /// Which parameter failed.
        param: &'static str,
    },
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            MathError::DimensionMismatch { op, expected, got } => {
                write!(f, "dimension mismatch in {op}: expected {expected}, got {got}")
            }
            MathError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            MathError::InvalidParameter { dist, param } => {
                write!(f, "invalid parameter `{param}` for distribution {dist}")
            }
        }
    }
}

impl std::error::Error for MathError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, MathError>;
