//! Principal Component Analysis and multi-level projections (paper §3).
//!
//! Implements Definitions 3.3–3.5 of the MMDR paper:
//!
//! - **Multi-level projections** — `P'_{d_r} = (P − μ) · Φ_{d_r}` where
//!   `Φ_{d_r}` holds the first `d_r` principal components of the data's
//!   covariance matrix (Definition 3.3).
//! - **Projection distances** — `ProjDist_r(P)` is the distance from `P` to
//!   its projection on the *preserved* subspace (the information lost);
//!   `ProjDist_e(P)` is the distance to the projection on the *eliminated*
//!   subspace (the information retained) (Definition 3.4).
//! - **MPE** — the mean `ProjDist_r` over a dataset (Definition 3.5).
//! - **Ellipticity** — `(max ProjDist_e − max ProjDist_r) / max ProjDist_r`
//!   (Definition 3.4's multidimensional extension of Definition 3.1).
//!
//! # Example
//!
//! ```
//! use mmdr_linalg::{Matrix, ParConfig};
//! use mmdr_pca::Pca;
//!
//! // Points along the diagonal: 1 principal direction carries everything.
//! let data = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0],
//! ]).unwrap();
//! let pca = Pca::fit(&data).unwrap();
//! let mpe = pca.mpe_par(&data, 1, &ParConfig::serial()).unwrap();
//! assert!(mpe < 1e-9); // lossless at d_r = 1
//! ```

mod components;
mod error;
mod projection;
mod subspace;

pub use components::{residual, Pca};
pub use error::{Error, Result};
pub use projection::{ellipticity, proj_dist_profile, ProjectionStats};
pub use subspace::ReducedSubspace;
