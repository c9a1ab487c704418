//! Output model of a dimensionality reduction run.

use crate::error::{Error, Result};
use mmdr_pca::ReducedSubspace;

/// One discovered elliptical cluster together with its reduced subspace.
#[derive(Debug, Clone)]
pub struct EllipsoidCluster {
    /// The affine reduced subspace (centroid + orthonormal basis).
    pub subspace: ReducedSubspace,
    /// Indices of member points in the original dataset.
    pub members: Vec<usize>,
    /// Mean projection error of the members at the final `d_r`.
    pub mpe: f64,
    /// `max ProjDist_r` over members — the paper's "Mahalanobis radius" `r`
    /// (Definition 3.4), i.e. the thickness of the ellipsoid across the
    /// eliminated subspace.
    pub radius_eliminated: f64,
    /// `max ProjDist_e` over members — the extent along the retained
    /// subspace; the *farthest radius* the extended iDistance stores.
    pub radius_retained: f64,
    /// `min` distance from a member's projection to the centroid — the
    /// *nearest radius* the extended iDistance stores.
    pub nearest_radius: f64,
    /// Multidimensional ellipticity at the final `d_r` (Definition 3.4).
    pub ellipticity: f64,
}

impl EllipsoidCluster {
    /// Retained dimensionality `d_r` of this cluster.
    pub fn reduced_dim(&self) -> usize {
        self.subspace.reduced_dim()
    }

    /// Number of member points.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Where a point landed after reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointAssignment {
    /// Member of cluster `i` (index into [`ReductionResult::clusters`]).
    Cluster(usize),
    /// In the outlier set, kept at original dimensionality.
    Outlier,
}

/// Counters describing the work a reduction performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Mahalanobis distance evaluations across all clustering passes.
    pub distance_computations: u64,
    /// Number of `Generate Ellipsoid` invocations (recursion included).
    pub ge_invocations: u64,
    /// Highest subspace dimensionality any `Generate Ellipsoid` level used.
    pub max_s_dim_reached: usize,
    /// Data streams processed (1 for the in-memory algorithm).
    pub streams: u64,
}

/// The result shared by MMDR, GDR and LDR: a set of reduced subspaces plus
/// an outlier set that stays at original dimensionality.
#[derive(Debug, Clone)]
pub struct ReductionResult {
    /// Original dimensionality `d`.
    pub dim: usize,
    /// Number of points in the dataset the model was fitted on.
    pub num_points: usize,
    /// The discovered clusters with their subspaces.
    pub clusters: Vec<EllipsoidCluster>,
    /// Indices of outlier points (original space).
    pub outliers: Vec<usize>,
    /// Work counters.
    pub stats: ReductionStats,
}

impl ReductionResult {
    /// Per-point assignment vector reconstructed from cluster membership.
    pub fn assignments(&self) -> Vec<PointAssignment> {
        let mut out = vec![PointAssignment::Outlier; self.num_points];
        for (ci, cluster) in self.clusters.iter().enumerate() {
            for &p in &cluster.members {
                out[p] = PointAssignment::Cluster(ci);
            }
        }
        out
    }

    /// Assigns a *new* point the way the fitted model would: the cluster
    /// whose subspace is nearest (smallest `ProjDist`), or `Outlier` when
    /// every cluster's `ProjDist` exceeds `beta`.
    pub fn assign_point(&self, point: &[f64], beta: f64) -> Result<PointAssignment> {
        if point.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: point.len(),
            });
        }
        let subspaces = self.clusters.iter().map(|c| &c.subspace);
        Ok(match ReducedSubspace::nearest(subspaces, point)? {
            Some((ci, _, d)) if d <= beta => PointAssignment::Cluster(ci),
            _ => PointAssignment::Outlier,
        })
    }

    /// Total number of points covered by clusters (excludes outliers).
    pub fn clustered_points(&self) -> usize {
        self.clusters.iter().map(|c| c.members.len()).sum()
    }

    /// Fraction of points in the outlier set.
    pub fn outlier_fraction(&self) -> f64 {
        if self.num_points == 0 {
            return 0.0;
        }
        self.outliers.len() as f64 / self.num_points as f64
    }

    /// Internal consistency: every point appears exactly once (in one
    /// cluster or in the outlier set). The ids are counted before a table
    /// is sized by `num_points`, so a count no list backs (a damaged model)
    /// costs no allocation; `num_points` ids, each in range and none twice,
    /// are then every point.
    pub fn is_partition(&self) -> bool {
        let ids = || {
            self.clusters
                .iter()
                .flat_map(|c| &c.members)
                .chain(&self.outliers)
        };
        if ids().count() != self.num_points {
            return false;
        }
        let mut seen = vec![false; self.num_points];
        ids().all(|&p| p < self.num_points && !std::mem::replace(&mut seen[p], true))
    }

    /// Average retained dimensionality weighted by cluster size; outliers
    /// count at original dimensionality (they are stored unreduced).
    pub fn mean_retained_dim(&self) -> f64 {
        if self.num_points == 0 {
            return 0.0;
        }
        let clustered: f64 = self
            .clusters
            .iter()
            .map(|c| (c.reduced_dim() * c.members.len()) as f64)
            .sum();
        let outliers = (self.outliers.len() * self.dim) as f64;
        (clustered + outliers) / self.num_points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_linalg::Matrix;

    fn toy_result() -> ReductionResult {
        let basis = Matrix::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        let subspace = ReducedSubspace::new(vec![0.0, 0.0], basis).unwrap();
        ReductionResult {
            dim: 2,
            num_points: 4,
            clusters: vec![EllipsoidCluster {
                subspace,
                members: vec![0, 2, 3],
                mpe: 0.01,
                radius_eliminated: 0.05,
                radius_retained: 3.0,
                nearest_radius: 0.5,
                ellipticity: 59.0,
            }],
            outliers: vec![1],
            stats: ReductionStats::default(),
        }
    }

    #[test]
    fn assignments_roundtrip() {
        let r = toy_result();
        let a = r.assignments();
        assert_eq!(a[0], PointAssignment::Cluster(0));
        assert_eq!(a[1], PointAssignment::Outlier);
        assert_eq!(a[2], PointAssignment::Cluster(0));
        assert_eq!(r.clustered_points(), 3);
        assert!((r.outlier_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn partition_check() {
        let mut r = toy_result();
        assert!(r.is_partition());
        // Duplicate membership breaks the partition.
        r.outliers.push(0);
        assert!(!r.is_partition());
        // Missing point breaks it too.
        let mut r2 = toy_result();
        r2.outliers.clear();
        assert!(!r2.is_partition());
        // Out-of-range index breaks it.
        let mut r3 = toy_result();
        r3.outliers = vec![9];
        assert!(!r3.is_partition());
    }

    #[test]
    fn assign_point_respects_beta() {
        let r = toy_result();
        // On the x-axis subspace: member.
        assert_eq!(
            r.assign_point(&[5.0, 0.01], 0.1).unwrap(),
            PointAssignment::Cluster(0)
        );
        // Far off the subspace: outlier.
        assert_eq!(
            r.assign_point(&[0.0, 4.0], 0.1).unwrap(),
            PointAssignment::Outlier
        );
        // Wrong dimensionality rejected.
        assert!(r.assign_point(&[1.0], 0.1).is_err());
    }

    #[test]
    fn mean_retained_dim_mixes_clusters_and_outliers() {
        let r = toy_result();
        // 3 points at d_r=1, 1 outlier at d=2 → (3 + 2)/4 = 1.25.
        assert!((r.mean_retained_dim() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn cluster_accessors() {
        let r = toy_result();
        let c = &r.clusters[0];
        assert_eq!(c.reduced_dim(), 1);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}
