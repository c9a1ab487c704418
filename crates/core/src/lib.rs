//! The MMDR algorithm (paper §4) and its comparators.
//!
//! This crate is the paper's primary contribution:
//!
//! - [`Mmdr`] — Multi-level Mahalanobis-based Dimensionality Reduction:
//!   the recursive **Generate Ellipsoid** step discovers elliptical clusters
//!   in progressively larger PCA subspaces (`s_dim → 2·s_dim → …`), then
//!   **Dimensionality Optimization** shrinks each ellipsoid's retained
//!   dimensionality while the mean projection error (MPE) stays flat and
//!   extracts β-outliers (Figure 4).
//! - [`ScalableMmdr`] — the §4.3 streaming variant for datasets larger than
//!   the buffer: per-stream clustering into an Ellipsoid Array, then a merge
//!   pass, then a single final scan for dimensionality optimization.
//! - [`Gdr`] — Global Dimensionality Reduction baseline: one PCA over the
//!   whole dataset (Chakrabarti & Mehrotra's first strategy).
//! - [`Ldr`] — Local Dimensionality Reduction baseline: Euclidean k-means
//!   clusters, per-cluster PCA with a reconstruction-distance bound
//!   (Chakrabarti & Mehrotra, VLDB 2000).
//!
//! All three produce the same [`ReductionResult`], so the downstream index
//! (`mmdr-idistance`) and the evaluation harness treat them uniformly.
//!
//! # Example
//!
//! ```
//! use mmdr_core::{Mmdr, MmdrParams};
//! use mmdr_linalg::Matrix;
//!
//! // A flat 3-d cloud: x spreads, y = 0.1·x, z is tiny noise.
//! let rows: Vec<Vec<f64>> = (0..200)
//!     .map(|i| {
//!         let t = i as f64 / 199.0;
//!         vec![t, 0.1 * t, 1e-4 * ((i % 7) as f64)]
//!     })
//!     .collect();
//! let data = Matrix::from_rows(&rows).unwrap();
//! let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
//! assert!(model.clusters.iter().all(|c| c.reduced_dim() <= 2));
//! ```

mod algorithm;
mod dim_opt;
mod error;
mod gdr;
mod generate_ellipsoid;
mod ldr;
mod merge;
mod model;
mod params;
mod scalable;

pub use algorithm::Mmdr;
pub use error::{Error, Result};
pub use gdr::Gdr;
pub use generate_ellipsoid::{generate_ellipsoid, SemiEllipsoid};
pub use ldr::{Ldr, LdrParams};
pub use mmdr_linalg::ParConfig;
pub use model::{EllipsoidCluster, PointAssignment, ReductionResult, ReductionStats};
pub use params::MmdrParams;
pub use scalable::ScalableMmdr;
