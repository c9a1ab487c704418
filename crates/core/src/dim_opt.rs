//! **Dimensionality Optimization** (Figure 4, lines 12–24).
//!
//! For each ellipsoid accepted by Generate Ellipsoid, the retained
//! dimensionality starts at `min(MaxDim, s_dim)` and is decremented while
//! the MPE barely changes; the members are then projected into the final
//! `d_r`-dimensional subspace and points whose projection distance exceeds
//! `β` are moved to the outlier (noise) set.

use crate::error::Result;
use crate::generate_ellipsoid::SemiEllipsoid;
use crate::model::EllipsoidCluster;
use crate::params::MmdrParams;
use mmdr_linalg::{dot, Matrix};
use mmdr_pca::{residual, Pca, ReducedSubspace};

/// Output of optimizing one semi-ellipsoid: the finished cluster (possibly
/// empty if every member failed the β test) plus the expelled outliers.
#[derive(Debug)]
pub(crate) struct DimOptOutcome {
    /// The finished cluster; `None` when no member survived the β test.
    pub cluster: Option<EllipsoidCluster>,
    /// Members that failed the β test (original dataset indices).
    pub outliers: Vec<usize>,
}

/// The retained dimensionality optimization starts from (Figure 4, line
/// 13): `min(fixed_dim, d)` when pinned, else `min(MaxDim, s_dim, d)`. No
/// component past it is read, so a [`SemiEllipsoid`] carries just these.
pub(crate) fn start_dim(params: &MmdrParams, d: usize, s_dim: usize) -> usize {
    match params.fixed_dim {
        Some(fixed) => fixed.min(d),
        None => params.max_dim.min(s_dim).min(d).max(1),
    }
}

/// Runs dimensionality optimization on one semi-ellipsoid.
pub(crate) fn optimize_dimensionality(
    data: &Matrix,
    semi: &SemiEllipsoid,
    params: &MmdrParams,
) -> Result<DimOptOutcome> {
    let start = start_dim(params, data.cols(), semi.s_dim);
    let fitted;
    let pca = match &semi.pca {
        Some(pca) => pca,
        None => {
            fitted = Pca::fit_par(&data.select_rows(&semi.members), &params.par)?;
            &fitted
        }
    };

    // One projection a member, to `start` dimensions: `‖P − μ‖²` and the
    // coefficients, which the level loop and the β test both read.
    let n = semi.members.len();
    let mut totals = Vec::with_capacity(n);
    let mut coeffs = vec![0.0; n * start];
    for (&idx, c) in semi.members.iter().zip(coeffs.chunks_exact_mut(start)) {
        totals.push(pca.project_into(data.row(idx), c)?);
    }
    let rows = || totals.iter().zip(coeffs.chunks_exact(start));

    // Line 13: starting dimensionality.
    let d_r = if params.fixed_dim.is_some() {
        start
    } else {
        // Lines 14–17: decrement while the MPE change stays small.
        // Computed incrementally: the residual at any smaller d_r is the
        // residual at `start` plus the dropped coefficients' energy, so the
        // MPE of every level costs O(N) instead of O(N·d·d_r) each.
        let residual_sq: Vec<f64> = rows()
            .map(|(&total, c)| {
                let r = residual(total, dot(c, c));
                r * r
            })
            .collect();
        let mpe_at = |level: usize| {
            let mut sum = 0.0;
            for (r2, c) in residual_sq.iter().zip(coeffs.chunks_exact(start)) {
                let dropped: f64 = c[level..].iter().map(|x| x * x).sum();
                sum += (r2 + dropped).sqrt();
            }
            sum / n as f64
        };
        let mut d_r = start;
        let mut mpe_prev = mpe_at(d_r);
        while d_r > 1 {
            let mpe_next = mpe_at(d_r - 1);
            if mpe_next - mpe_prev >= params.mpe_change_threshold {
                break;
            }
            d_r -= 1;
            mpe_prev = mpe_next;
        }
        d_r
    };

    // Lines 18–24: the β outlier test on the first d_r coefficients: the
    // distance to the flat, and the norm of the local coordinates.
    let basis = pca.basis(d_r)?;
    let subspace = ReducedSubspace::new(pca.mean().to_vec(), basis)?;
    let mut members = Vec::with_capacity(semi.members.len());
    let mut outliers = Vec::new();
    let mut radius_eliminated: f64 = 0.0;
    let mut radius_retained: f64 = 0.0;
    let mut nearest_radius = f64::INFINITY;
    let mut mpe_sum = 0.0;
    for (&idx, (&total, c)) in semi.members.iter().zip(rows()) {
        let retained = dot(&c[..d_r], &c[..d_r]);
        let proj_dist = residual(total, retained);
        if proj_dist <= params.beta {
            let local = retained.sqrt();
            radius_eliminated = radius_eliminated.max(proj_dist);
            radius_retained = radius_retained.max(local);
            nearest_radius = nearest_radius.min(local);
            mpe_sum += proj_dist;
            members.push(idx);
        } else {
            outliers.push(idx);
        }
    }

    if members.is_empty() {
        return Ok(DimOptOutcome {
            cluster: None,
            outliers,
        });
    }

    let ellipticity = if radius_eliminated > 0.0 {
        (radius_retained - radius_eliminated) / radius_eliminated
    } else if radius_retained > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let mpe = mpe_sum / members.len() as f64;
    Ok(DimOptOutcome {
        cluster: Some(EllipsoidCluster {
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
        }),
        outliers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6-d data flat except in dims 0 and 1 (dim 1 carries less variance).
    fn planar_data(n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                let u = ((i as f64 * 0.618_033_988).fract() - 0.5) * 0.2;
                vec![t, u, 0.0, 0.0, 0.0, 0.0]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn semi_of_all(data: &Matrix, s_dim: usize) -> SemiEllipsoid {
        SemiEllipsoid {
            members: (0..data.rows()).collect(),
            s_dim,
            mpe: 0.0,
            pca: None,
        }
    }

    #[test]
    fn shrinks_to_the_intrinsic_dimensionality() {
        let data = planar_data(100);
        // Accepted at s_dim = 4: optimization must shrink to 2 (dropping to
        // 1 would cost ~0.05 MPE from the u component).
        let params = MmdrParams {
            mpe_change_threshold: 0.01,
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 4), &params).unwrap();
        let cluster = out.cluster.unwrap();
        assert_eq!(cluster.reduced_dim(), 2);
        assert!(out.outliers.is_empty());
        assert!(cluster.mpe < 1e-9);
    }

    #[test]
    fn fixed_dim_pins_the_dimensionality() {
        let data = planar_data(60);
        let params = MmdrParams {
            fixed_dim: Some(3),
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 4), &params).unwrap();
        assert_eq!(out.cluster.unwrap().reduced_dim(), 3);
        // fixed_dim larger than d clamps.
        let params = MmdrParams {
            fixed_dim: Some(99),
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 4), &params).unwrap();
        assert_eq!(out.cluster.unwrap().reduced_dim(), 6);
    }

    #[test]
    fn beta_test_expels_off_subspace_points() {
        let mut data = planar_data(60);
        // Implant two outliers off the plane — far beyond β = 0.1 but small
        // enough not to hijack the local PCA's principal directions.
        data.row_mut(10)[3] = 0.3;
        data.row_mut(20)[4] = -0.35;
        let params = MmdrParams {
            fixed_dim: Some(2),
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 2), &params).unwrap();
        assert_eq!(out.outliers, vec![10, 20]);
        let cluster = out.cluster.unwrap();
        assert_eq!(cluster.len(), 58);
        assert!(cluster.radius_eliminated <= params.beta);
    }

    #[test]
    fn radii_are_consistent() {
        let data = planar_data(100);
        let params = MmdrParams {
            fixed_dim: Some(2),
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 2), &params).unwrap();
        let c = out.cluster.unwrap();
        assert!(c.nearest_radius <= c.radius_retained);
        assert!(c.radius_eliminated <= params.beta);
        assert!(c.mpe <= c.radius_eliminated + 1e-12);
        // Elongated plane: retained radius dominates eliminated radius.
        assert!(c.ellipticity > 1.0 || c.ellipticity.is_infinite());
    }

    #[test]
    fn all_outliers_yields_no_cluster() {
        // Points far from any 1-d fit: force β so tight everything fails.
        let data = planar_data(40);
        let params = MmdrParams {
            fixed_dim: Some(1),
            beta: 1e-12,
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 1), &params).unwrap();
        assert!(out.cluster.is_none());
        assert_eq!(out.outliers.len(), 40);
    }

    #[test]
    fn max_dim_caps_the_start() {
        let data = planar_data(60);
        // Accepted at s_dim 6 but MaxDim 2 caps the starting point; with a
        // zero change-threshold nothing shrinks further.
        let params = MmdrParams {
            max_dim: 2,
            mpe_change_threshold: 0.0,
            ..Default::default()
        };
        let out = optimize_dimensionality(&data, &semi_of_all(&data, 6), &params).unwrap();
        assert_eq!(out.cluster.unwrap().reduced_dim(), 2);
    }
}
