//! Clustering engines for the MMDR reproduction (paper §4).
//!
//! Two algorithms live here:
//!
//! - [`kmeans`] — standard Euclidean k-means with k-means++ seeding. This is
//!   both a baseline in its own right and the cluster-discovery substrate of
//!   the LDR comparator (Chakrabarti & Mehrotra, VLDB 2000), which the paper
//!   criticises for producing *spherical* clusters (Figure 1/5a).
//! - [`EllipticalKMeans`] — the Sung & Poggio nested-loop "elliptical
//!   k-means" using the **normalized Mahalanobis distance** of
//!   Definition 3.2. The inner loop reassigns points with covariances held
//!   fixed; the outer loop re-estimates each cluster's covariance; both stop
//!   when membership stabilises. This is `ellip_k_means` in the MMDR
//!   pseudo-code (Figure 4, line 2).
//!
//! The §4.2 cost optimizations — the per-point lookup table of the `k`
//! closest centroid IDs and the *Activity* counter that freezes points whose
//! membership has not changed for a number of iterations — are built into
//! [`EllipticalKMeans`] and can be switched off for the ablation benchmarks;
//! the engine counts distance computations so the effect is measurable.

mod assignment;
mod elliptical;
mod error;
mod kmeans;

pub use assignment::{Cluster, Clustering};
pub use elliptical::{EllipticalConfig, EllipticalKMeans, EllipticalResult};
pub use error::{Error, Result};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
