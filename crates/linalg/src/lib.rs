//! Dense linear algebra substrate for the MMDR reproduction.
//!
//! Everything in this crate is implemented from scratch: a row-major
//! [`Matrix`] type, covariance estimation, a Cholesky factorization, a
//! cyclic-Jacobi symmetric eigendecomposition, Householder QR, and
//! Haar-distributed random rotations.
//!
//! Matrices are small (the paper works with covariance matrices of up to
//! 200×200), so the implementations favour clarity and numerical robustness
//! over blocking or SIMD; all are `O(d^3)` with small constants, which is
//! far below the `O(N d^2)` cost of the clustering passes they support.
//!
//! # Example
//!
//! ```
//! use mmdr_linalg::{Matrix, covariance, SymmetricEigen};
//!
//! // Three 2-d points.
//! let data = Matrix::from_rows(&[
//!     vec![1.0, 2.0],
//!     vec![2.0, 4.1],
//!     vec![3.0, 5.9],
//! ]).unwrap();
//! let cov = covariance(&data).unwrap();
//! let eig = SymmetricEigen::new(&cov).unwrap();
//! // Strongly correlated data: first eigenvalue dominates.
//! assert!(eig.eigenvalues[0] > 10.0 * eig.eigenvalues[1]);
//! ```

mod cholesky;
mod covariance;
mod eigen;
mod error;
mod matrix;
mod par;
mod qr;
mod rotation;
mod vector;

pub use cholesky::Cholesky;
pub use covariance::{
    covariance, covariance_about, covariance_about_par, mean_rows, mean_vector, mean_vector_par,
};
pub use eigen::SymmetricEigen;
pub use error::{Error, Result};
pub use matrix::Matrix;
pub use par::{map_ranges, map_ranges_with, ParConfig, PAR_CHUNK};
pub use qr::Qr;
pub use rotation::random_rotation;
pub use vector::{
    add, add_assign, axpy, dot, l2_dist, l2_dist_sq, l2_dist_sq_within, l2_norm, reduced_dist,
    scale, scale_assign, sub,
};
