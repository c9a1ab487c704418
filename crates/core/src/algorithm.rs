//! The complete MMDR algorithm: Generate Ellipsoid + Dimensionality
//! Optimization (Figure 4).

use crate::dim_opt::optimize_dimensionality;
use crate::error::{Error, Result};
use crate::generate_ellipsoid::{generate_ellipsoid, SemiEllipsoid};
use crate::model::{ReductionResult, ReductionStats};
use crate::params::MmdrParams;
use mmdr_linalg::Matrix;

/// Multi-level Mahalanobis-based Dimensionality Reduction.
///
/// ```
/// use mmdr_core::{Mmdr, MmdrParams};
/// use mmdr_linalg::Matrix;
///
/// let rows: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![i as f64 / 100.0, 0.0, 0.0])
///     .collect();
/// let data = Matrix::from_rows(&rows).unwrap();
/// let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
/// assert!(model.is_partition());
/// ```
#[derive(Debug, Clone)]
pub struct Mmdr {
    params: MmdrParams,
}

impl Mmdr {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: MmdrParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &MmdrParams {
        &self.params
    }

    /// Runs MMDR on a dataset whose rows are points.
    pub fn fit(&self, data: &Matrix) -> Result<ReductionResult> {
        self.params.validate().map_err(Error::InvalidParams)?;
        check_input(data)?;
        let mut stats = ReductionStats {
            streams: 1,
            ..Default::default()
        };
        let mut semis = Vec::new();
        let mut outliers = Vec::new();
        let indices: Vec<usize> = (0..data.rows()).collect();
        generate_ellipsoid(
            data,
            &indices,
            self.params.initial_s_dim,
            &self.params,
            &mut stats,
            &mut semis,
            &mut outliers,
        )?;
        finish(data, semis, outliers, stats, &self.params)
    }
}

/// Shared door of both fits: points, every value finite (a NaN would
/// otherwise surface late, as a PCA that does not converge).
pub(crate) fn check_input(data: &Matrix) -> Result<()> {
    if data.rows() == 0 {
        return Err(Error::EmptyDataset);
    }
    match data.as_slice().iter().position(|x| !x.is_finite()) {
        Some(at) => Err(Error::NonFinite {
            row: at / data.cols(),
            col: at % data.cols(),
        }),
        None => Ok(()),
    }
}

/// Shared tail of the in-memory and scalable algorithms: run dimensionality
/// optimization per semi-ellipsoid and assemble the result.
pub(crate) fn finish(
    data: &Matrix,
    semis: Vec<crate::generate_ellipsoid::SemiEllipsoid>,
    mut outliers: Vec<usize>,
    stats: ReductionStats,
    params: &MmdrParams,
) -> Result<ReductionResult> {
    let mut clusters = Vec::with_capacity(semis.len());
    for semi in &semis {
        let outcome = optimize_dimensionality(data, semi, params)?;
        outliers.extend(outcome.outliers);
        if let Some(cluster) = outcome.cluster {
            clusters.push(cluster);
        }
    }
    // Coalesce fragments of the same ellipsoid (see `merge`).
    let mut clusters = if params.merge_fragments {
        let (merged, expelled) = crate::merge::merge_compatible(data, clusters, params)?;
        outliers.extend(expelled);
        merged
    } else {
        clusters
    };
    // Adoption pass: the outlier candidates so far mix true β-outliers with
    // sub-`min_cluster_size` dust from the recursive clustering. The paper's
    // outlier criterion is the β test alone (lines 19–24), so every
    // candidate within β of some final subspace joins its nearest cluster;
    // only genuinely uncorrelated points stay at original dimensionality.
    if !clusters.is_empty() && !outliers.is_empty() {
        let mut adopted: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
        let mut remaining = Vec::with_capacity(outliers.len());
        for idx in outliers.drain(..) {
            let mut best = None;
            let mut best_d = f64::INFINITY;
            for (ci, cluster) in clusters.iter().enumerate() {
                let d = cluster.subspace.proj_dist(data.row(idx))?;
                if d < best_d {
                    best_d = d;
                    best = Some(ci);
                }
            }
            match best {
                Some(ci) if best_d <= params.beta => adopted[ci].push(idx),
                _ => remaining.push(idx),
            }
        }
        outliers = remaining;
        for (ci, extra) in adopted.into_iter().enumerate() {
            if extra.is_empty() {
                continue;
            }
            let mut members = std::mem::take(&mut clusters[ci].members);
            members.extend(extra);
            let s_dim = clusters[ci].reduced_dim();
            let outcome = optimize_dimensionality(
                data,
                &SemiEllipsoid {
                    members,
                    s_dim,
                    mpe: 0.0,
                    pca: None,
                },
                params,
            )?;
            outliers.extend(outcome.outliers);
            if let Some(cluster) = outcome.cluster {
                clusters[ci] = cluster;
            }
        }
        clusters.retain(|c| !c.is_empty());
    }
    outliers.sort_unstable();
    Ok(ReductionResult {
        dim: data.cols(),
        num_points: data.rows(),
        clusters,
        outliers,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PointAssignment;

    /// Three clusters, each flat in its own pair of dimensions of a 6-d
    /// space (the Appendix-A structure in miniature, unrotated).
    fn three_subspace_clusters() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..120 {
            let t = i as f64 / 119.0;
            // Cluster 0: spreads in dims 0–1 around 0.2.
            rows.push(vec![
                t,
                1.0 - t,
                0.2 + jit(i, 0.1),
                0.2 + jit(i, 0.2),
                0.2 + jit(i, 0.3),
                0.2 + jit(i, 0.4),
            ]);
            truth.push(0);
            // Cluster 1: spreads in dims 2–3 around 3.0.
            rows.push(vec![
                3.0 + jit(i, 0.5),
                3.0 + jit(i, 0.6),
                3.0 + t,
                4.0 - t,
                3.0 + jit(i, 0.7),
                3.0 + jit(i, 0.8),
            ]);
            truth.push(1);
            // Cluster 2: spreads in dims 4–5 around 6.0.
            rows.push(vec![
                6.0 + jit(i, 0.9),
                6.0 + jit(i, 1.0),
                6.0 + jit(i, 1.1),
                6.0 + jit(i, 1.2),
                6.0 + t,
                7.0 - t,
            ]);
            truth.push(2);
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    #[test]
    fn discovers_subspace_clusters_and_reduces() {
        let (data, truth) = three_subspace_clusters();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert!(model.is_partition());
        assert!(model.outlier_fraction() < 0.05, "too many outliers");
        // Every cluster reduced well below the original 6 dims.
        for c in &model.clusters {
            assert!(c.reduced_dim() <= 3, "d_r = {}", c.reduced_dim());
            assert!(c.mpe <= model.clusters[0].radius_eliminated.max(0.2));
        }
        // No discovered cluster mixes two true clusters.
        for c in &model.clusters {
            let labels: std::collections::HashSet<usize> =
                c.members.iter().map(|&i| truth[i]).collect();
            assert_eq!(labels.len(), 1, "cluster mixes true labels");
        }
    }

    #[test]
    fn reduction_is_deterministic() {
        let (data, _) = three_subspace_clusters();
        let a = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let b = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert_eq!(a.clusters.len(), b.clusters.len());
        assert_eq!(a.outliers, b.outliers);
        for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(ca.members, cb.members);
            assert_eq!(ca.reduced_dim(), cb.reduced_dim());
        }
    }

    #[test]
    fn rejects_invalid_params_and_empty_data() {
        let bad = Mmdr::new(MmdrParams {
            beta: -1.0,
            ..Default::default()
        });
        let data = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        assert!(matches!(bad.fit(&data), Err(Error::InvalidParams(_))));
        let good = Mmdr::new(MmdrParams::default());
        assert!(matches!(
            good.fit(&Matrix::zeros(0, 4)),
            Err(Error::EmptyDataset)
        ));
    }

    #[test]
    fn assign_point_matches_members() {
        let (data, _) = three_subspace_clusters();
        let params = MmdrParams::default();
        let model = Mmdr::new(params.clone()).fit(&data).unwrap();
        // A member point must be assigned to its own cluster's subspace.
        let assignments = model.assignments();
        for probe in [0usize, 1, 2, 100, 200] {
            if let PointAssignment::Cluster(ci) = assignments[probe] {
                match model.assign_point(data.row(probe), params.beta).unwrap() {
                    PointAssignment::Cluster(cj) => {
                        // Same cluster, or at least a subspace equally close.
                        let di = model.clusters[ci]
                            .subspace
                            .proj_dist(data.row(probe))
                            .unwrap();
                        let dj = model.clusters[cj]
                            .subspace
                            .proj_dist(data.row(probe))
                            .unwrap();
                        assert!(dj <= di + 1e-9);
                    }
                    PointAssignment::Outlier => panic!("member classified as outlier"),
                }
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let (data, _) = three_subspace_clusters();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert!(model.stats.ge_invocations >= 1);
        assert!(model.stats.distance_computations > 0);
        assert!(model.stats.max_s_dim_reached >= 1);
        assert_eq!(model.stats.streams, 1);
    }

    #[test]
    fn genuine_outliers_survive_adoption() {
        // The adoption pass folds clustering dust back into clusters, but a
        // point far from every subspace must stay in the outlier set.
        let (mut data, _) = three_subspace_clusters();
        let far = vec![-5.0, 9.0, -5.0, 9.0, -5.0, 9.0];
        data.push_row(&far).unwrap();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert!(model.is_partition());
        assert!(
            model.outliers.contains(&(data.rows() - 1)),
            "the implanted far point must remain an outlier"
        );
    }

    #[test]
    fn non_finite_input_is_refused_at_the_door_by_both_fits() {
        let rows: Vec<Vec<f64>> = (0..2_000)
            .map(|i| (0..16).map(|j| ((i * 16 + j) % 97) as f64 / 97.0).collect())
            .collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = Matrix::from_rows(&rows).unwrap();
            data.row_mut(5)[11] = bad;
            let want = Err(Error::NonFinite { row: 5, col: 11 });
            let plain = Mmdr::new(MmdrParams::default()).fit(&data);
            assert_eq!(plain.map(|_| ()), want, "Mmdr::fit, {bad}");
            let streamed = crate::ScalableMmdr::new(MmdrParams::default()).fit(&data);
            assert_eq!(streamed.map(|_| ()), want, "ScalableMmdr::fit, {bad}");
        }
    }

    #[test]
    fn fixed_dim_flows_through() {
        let (data, _) = three_subspace_clusters();
        let model = Mmdr::new(MmdrParams {
            fixed_dim: Some(4),
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        for c in &model.clusters {
            assert_eq!(c.reduced_dim(), 4);
        }
    }
}
