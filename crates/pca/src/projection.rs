//! Dataset-level projection statistics: ellipticity and MPE profiles.

use crate::components::Pca;
use crate::error::{Error, Result};
use mmdr_linalg::Matrix;

/// Aggregate projection distances of a dataset at a fixed `d_r`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionStats {
    /// Reduced dimensionality the statistics were computed at.
    pub d_r: usize,
    /// `max_i ProjDist_r(P_i)` — radius along the eliminated subspace.
    pub max_proj_dist_r: f64,
    /// `max_i ProjDist_e(P_i)` — radius along the preserved subspace.
    pub max_proj_dist_e: f64,
    /// Mean `ProjDist_r` (the MPE of Definition 3.5).
    pub mpe: f64,
}

/// Computes max/mean projection distances of `data` under `pca` at `d_r`.
pub fn proj_dist_profile(pca: &Pca, data: &Matrix, d_r: usize) -> Result<ProjectionStats> {
    if data.rows() == 0 {
        return Err(Error::EmptyDataset);
    }
    let mut max_r: f64 = 0.0;
    let mut max_e: f64 = 0.0;
    let mut sum_r = 0.0;
    for row in data.iter_rows() {
        let r = pca.proj_dist_r(row, d_r)?;
        let e = pca.proj_dist_e(row, d_r)?;
        max_r = max_r.max(r);
        max_e = max_e.max(e);
        sum_r += r;
    }
    Ok(ProjectionStats {
        d_r,
        max_proj_dist_r: max_r,
        max_proj_dist_e: max_e,
        mpe: sum_r / data.rows() as f64,
    })
}

/// Multidimensional ellipticity (Definition 3.4):
/// `e = (max ProjDist_e − max ProjDist_r) / max ProjDist_r`.
///
/// Returns `f64::INFINITY` when the eliminated radius is zero (a perfectly
/// flat cluster — the best possible case for dimensionality reduction) and
/// `0.0` for a point mass.
pub fn ellipticity(stats: &ProjectionStats) -> f64 {
    if stats.max_proj_dist_r == 0.0 {
        if stats.max_proj_dist_e == 0.0 {
            return 0.0;
        }
        return f64::INFINITY;
    }
    (stats.max_proj_dist_e - stats.max_proj_dist_r) / stats.max_proj_dist_r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An axis-aligned ellipse-like cloud: wide on x, narrow on y.
    fn ellipse_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let t = i as f64 / 19.0 * 2.0 - 1.0;
            rows.push(vec![10.0 * t, 0.5 * (if i % 2 == 0 { t } else { -t })]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn profile_basics() {
        let data = ellipse_data();
        let pca = Pca::fit(&data).unwrap();
        let s = proj_dist_profile(&pca, &data, 1).unwrap();
        assert!(s.max_proj_dist_e > s.max_proj_dist_r);
        assert!(s.mpe <= s.max_proj_dist_r);
        assert_eq!(s.d_r, 1);
    }

    #[test]
    fn ellipticity_grows_with_elongation() {
        let data = ellipse_data();
        let pca = Pca::fit(&data).unwrap();
        let e = ellipticity(&proj_dist_profile(&pca, &data, 1).unwrap());
        // Major/minor radius ratio is 20:1 ⇒ ellipticity ≈ 19.
        assert!(e > 10.0, "e = {e}");
    }

    #[test]
    fn ellipticity_of_flat_cluster_is_infinite() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let pca = Pca::fit(&data).unwrap();
        let s = proj_dist_profile(&pca, &data, 1).unwrap();
        assert!(ellipticity(&s).is_infinite());
    }

    #[test]
    fn ellipticity_of_point_mass_is_zero() {
        let s = ProjectionStats {
            d_r: 1,
            max_proj_dist_r: 0.0,
            max_proj_dist_e: 0.0,
            mpe: 0.0,
        };
        assert_eq!(ellipticity(&s), 0.0);
    }

    #[test]
    fn ellipticity_of_sphere_is_near_zero() {
        // 4 points on a circle: radii equal in every direction.
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ])
        .unwrap();
        let pca = Pca::fit(&data).unwrap();
        let e = ellipticity(&proj_dist_profile(&pca, &data, 1).unwrap());
        assert!(e.abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn empty_profile_is_error() {
        let pca = Pca::fit(&ellipse_data()).unwrap();
        assert!(proj_dist_profile(&pca, &Matrix::zeros(0, 2), 1).is_err());
    }
}
