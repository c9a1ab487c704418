//! Local Dimensionality Reduction baseline (Chakrabarti & Mehrotra,
//! VLDB 2000 — reference [5] of the paper).
//!
//! LDR partitions the data with *Euclidean* spherical clustering, then runs
//! a per-cluster PCA and picks the smallest retained dimensionality such
//! that most members reconstruct within a threshold; points that exceed the
//! threshold, and clusters that end up too small, become outliers.
//!
//! Faithful simplifications (documented in DESIGN.md): the original's
//! iterative cluster/re-PCA refinement loop is run once — the property the
//! MMDR paper exploits (spherical clusters can't capture crossing or
//! differently-elongated correlated clusters, Figure 5a) is a consequence
//! of the Euclidean partition, which is retained exactly.

use crate::error::{Error, Result};
use crate::model::{EllipsoidCluster, ReductionResult, ReductionStats};
use mmdr_cluster::{kmeans, KMeansConfig};
use mmdr_linalg::{l2_norm, Matrix, ParConfig};
use mmdr_pca::{Pca, ReducedSubspace};

/// Parameters of the LDR baseline.
#[derive(Debug, Clone)]
pub struct LdrParams {
    /// Number of Euclidean clusters to form.
    pub k: usize,
    /// Maximum reconstruction distance for a point to stay in a cluster
    /// (plays the role MMDR's `β` plays; same default 0.1).
    pub recon_threshold: f64,
    /// Fraction of members allowed to violate the threshold when choosing
    /// the retained dimensionality (the original's `FracOutliers`,
    /// default 0.1).
    pub frac_violations: f64,
    /// Cap on retained dimensionality (the paper's sweep sets this).
    pub max_dim: usize,
    /// When set, pins every cluster's retained dimensionality (Figure 8).
    pub fixed_dim: Option<usize>,
    /// Clusters smaller than this dissolve into the outlier set.
    pub min_cluster_size: usize,
    /// RNG seed for k-means.
    pub seed: u64,
    /// Worker threads for the clustering and PCA passes (bit-identical
    /// results for every count; see `mmdr_linalg::par`).
    pub par: ParConfig,
}

impl Default for LdrParams {
    fn default() -> Self {
        Self {
            k: 10,
            recon_threshold: 0.1,
            frac_violations: 0.1,
            max_dim: 20,
            fixed_dim: None,
            min_cluster_size: 16,
            seed: 0,
            par: ParConfig::serial(),
        }
    }
}

/// The LDR baseline.
#[derive(Debug, Clone)]
pub struct Ldr {
    params: LdrParams,
}

impl Ldr {
    /// Creates an LDR reducer.
    pub fn new(params: LdrParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &LdrParams {
        &self.params
    }

    /// Runs LDR on a dataset whose rows are points.
    pub fn fit(&self, data: &Matrix) -> Result<ReductionResult> {
        let p = &self.params;
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        if p.k == 0 {
            return Err(Error::InvalidParams("k must be > 0"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // !(x > 0) also rejects NaN
        if !(p.recon_threshold > 0.0) {
            return Err(Error::InvalidParams("recon_threshold must be > 0"));
        }
        if !(0.0..1.0).contains(&p.frac_violations) {
            return Err(Error::InvalidParams("frac_violations must be in [0, 1)"));
        }
        if p.max_dim == 0 || p.fixed_dim == Some(0) {
            return Err(Error::InvalidParams("max_dim/fixed_dim must be > 0"));
        }
        let d = data.cols();

        // Phase 1: Euclidean (spherical) clustering.
        let km = kmeans(
            data,
            &KMeansConfig {
                k: p.k.min(data.rows()),
                seed: p.seed,
                par: p.par,
                ..Default::default()
            },
        )?;

        let mut clusters = Vec::new();
        let mut outliers = Vec::new();
        for cluster in &km.clustering.clusters {
            if cluster.members.len() < p.min_cluster_size {
                outliers.extend_from_slice(&cluster.members);
                continue;
            }
            let member_rows = data.select_rows(&cluster.members);
            let pca = Pca::fit_par(&member_rows, &p.par)?;

            // Phase 2: smallest d_r with ≤ frac_violations reconstruction
            // failures (or the pinned dimensionality).
            let d_r = match p.fixed_dim {
                Some(fixed) => fixed.min(d),
                None => {
                    let cap = p.max_dim.min(d);
                    let allowed =
                        (p.frac_violations * cluster.members.len() as f64).floor() as usize;
                    let mut chosen = cap;
                    for trial in 1..=cap {
                        let violations = member_rows
                            .iter_rows()
                            .filter(|row| {
                                pca.proj_dist_r(row, trial).expect("dims match") > p.recon_threshold
                            })
                            .count();
                        if violations <= allowed {
                            chosen = trial;
                            break;
                        }
                    }
                    chosen
                }
            };

            let basis = pca.basis(d_r)?;
            let subspace = ReducedSubspace::new(pca.mean().to_vec(), basis)?;
            let mut members = Vec::with_capacity(cluster.members.len());
            let mut radius_eliminated: f64 = 0.0;
            let mut radius_retained: f64 = 0.0;
            let mut nearest_radius = f64::INFINITY;
            let mut mpe_sum = 0.0;
            let mut coords = Vec::with_capacity(d_r);
            for &idx in &cluster.members {
                coords.clear();
                let pd = subspace.project_into(data.row(idx), &mut coords)?;
                if pd <= p.recon_threshold {
                    let local = l2_norm(&coords);
                    radius_eliminated = radius_eliminated.max(pd);
                    radius_retained = radius_retained.max(local);
                    nearest_radius = nearest_radius.min(local);
                    mpe_sum += pd;
                    members.push(idx);
                } else {
                    outliers.push(idx);
                }
            }
            if members.is_empty() {
                continue;
            }
            let ellipticity = if radius_eliminated > 0.0 {
                (radius_retained - radius_eliminated) / radius_eliminated
            } else if radius_retained > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            let mpe = mpe_sum / members.len() as f64;
            clusters.push(EllipsoidCluster {
                subspace,
                mpe,
                radius_eliminated,
                radius_retained,
                nearest_radius: if nearest_radius.is_finite() {
                    nearest_radius
                } else {
                    0.0
                },
                ellipticity,
                members,
            });
        }
        outliers.sort_unstable();
        Ok(ReductionResult {
            dim: d,
            num_points: data.rows(),
            clusters,
            outliers,
            stats: ReductionStats {
                streams: 1,
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two separated clusters, each flat in a different dimension pair.
    fn two_local_clusters() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..100 {
            let t = i as f64 / 99.0;
            rows.push(vec![t, jit(i, 0.3), jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 + jit(i, 0.2),
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn reduces_separated_local_clusters() {
        let data = two_local_clusters();
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert!(model.is_partition());
        assert_eq!(model.clusters.len(), 2);
        for c in &model.clusters {
            assert_eq!(c.reduced_dim(), 1, "each cluster is intrinsically 1-d");
            assert!(c.mpe <= 0.1);
        }
    }

    #[test]
    fn fixed_dim_pins() {
        let data = two_local_clusters();
        let model = Ldr::new(LdrParams {
            k: 2,
            fixed_dim: Some(3),
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        for c in &model.clusters {
            assert_eq!(c.reduced_dim(), 3);
        }
    }

    #[test]
    fn small_clusters_dissolve_to_outliers() {
        let data = two_local_clusters();
        // k = 20 over 200 points with min size 16: some clusters dissolve.
        let model = Ldr::new(LdrParams {
            k: 20,
            min_cluster_size: 16,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert!(model.is_partition());
        // Not all points survive in clusters.
        assert!(model.clustered_points() < 200 || model.clusters.len() < 20);
    }

    #[test]
    fn threshold_expels_poorly_reconstructed_points() {
        let mut data = two_local_clusters();
        // Beyond the 0.1 reconstruction threshold without dominating PCA.
        data.row_mut(0)[1] = 0.5;
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert!(
            model.outliers.contains(&0) || model.clusters.iter().all(|c| !c.members.contains(&0))
        );
        assert!(model.is_partition());
    }

    #[test]
    fn validates_inputs() {
        let data = two_local_clusters();
        assert!(Ldr::new(LdrParams {
            k: 0,
            ..Default::default()
        })
        .fit(&data)
        .is_err());
        assert!(Ldr::new(LdrParams {
            recon_threshold: 0.0,
            ..Default::default()
        })
        .fit(&data)
        .is_err());
        assert!(Ldr::new(LdrParams {
            frac_violations: 1.0,
            ..Default::default()
        })
        .fit(&data)
        .is_err());
        assert!(Ldr::new(LdrParams {
            max_dim: 0,
            ..Default::default()
        })
        .fit(&data)
        .is_err());
        assert!(Ldr::new(LdrParams::default())
            .fit(&Matrix::zeros(0, 3))
            .is_err());
    }

    #[test]
    fn deterministic() {
        let data = two_local_clusters();
        let p = LdrParams {
            k: 3,
            seed: 9,
            ..Default::default()
        };
        let a = Ldr::new(p.clone()).fit(&data).unwrap();
        let b = Ldr::new(p).fit(&data).unwrap();
        assert_eq!(a.outliers, b.outliers);
        assert_eq!(a.clusters.len(), b.clusters.len());
    }
}
