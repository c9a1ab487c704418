//! The fitted PCA model.

use crate::error::{Error, Result};
use mmdr_linalg::{
    covariance, covariance_par, map_ranges, mean_vector, mean_vector_par, Matrix, ParConfig,
    SymmetricEigen,
};

/// A PCA model fitted on a dataset: the sample mean plus the full
/// eigendecomposition of the covariance matrix.
///
/// Projections are *centred*: `project` maps `P ↦ (P − μ) · Φ_{d_r}`. The
/// paper writes `P'_{d_r} = P · Φ_{d_r}` but applies it per cluster about
/// the cluster centroid; centring is what makes `ProjDist` a distance to the
/// affine subspace through the centroid, which is what the β-outlier test
/// (MMDR lines 19–24) requires.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    eigenvalues: Vec<f64>,
    /// `d × d`; column `j` is the `j`-th principal component.
    components: Matrix,
}

impl Pca {
    /// Fits a PCA model on a dataset whose rows are points.
    pub fn fit(data: &Matrix) -> Result<Self> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        let mean = mean_vector(data)?;
        let cov = covariance(data)?;
        let eig = SymmetricEigen::new(&cov)?;
        Ok(Self {
            mean,
            eigenvalues: eig.eigenvalues,
            components: eig.eigenvectors,
        })
    }

    /// [`Pca::fit`] with deterministic chunk-and-merge parallelism for the
    /// mean and covariance accumulation (the `O(N d²)` part of a fit; the
    /// `O(d³)` eigendecomposition stays serial). Results are bit-identical
    /// for every `num_threads` (see `mmdr_linalg::par`).
    pub fn fit_par(data: &Matrix, par: &ParConfig) -> Result<Self> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        let mean = mean_vector_par(data, par)?;
        let cov = covariance_par(data, par)?;
        let eig = SymmetricEigen::new(&cov)?;
        Ok(Self {
            mean,
            eigenvalues: eig.eigenvalues,
            components: eig.eigenvectors,
        })
    }

    /// Builds a model from precomputed parts (used by streaming MMDR, which
    /// estimates covariance from merged ellipsoid summaries).
    pub fn from_parts(mean: Vec<f64>, eigenvalues: Vec<f64>, components: Matrix) -> Result<Self> {
        let d = mean.len();
        if components.shape() != (d, d) || eigenvalues.len() != d {
            return Err(Error::DimensionMismatch {
                expected: d,
                actual: components.rows(),
            });
        }
        Ok(Self {
            mean,
            eigenvalues,
            components,
        })
    }

    /// Original dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The sample mean the model centres on.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Eigenvalues of the covariance matrix, descending. Eigenvalue `j` is
    /// the variance of the data along principal component `j`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// All principal components as columns of a `d × d` matrix.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// The projection basis `Φ_{d_r}` (first `d_r` components) as `d × d_r`.
    pub fn basis(&self, d_r: usize) -> Result<Matrix> {
        self.check_dr(d_r)?;
        Ok(self.components.columns(0, d_r).expect("checked"))
    }

    /// Centred projection of one point onto the first `d_r` components:
    /// the coefficient vector `c` with `c_j = (P − μ) · φ_j`.
    pub fn project(&self, point: &[f64], d_r: usize) -> Result<Vec<f64>> {
        self.check_point(point)?;
        self.check_dr(d_r)?;
        let centred = mmdr_linalg::sub(point, &self.mean);
        let mut out = vec![0.0; d_r];
        for (j, o) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &c) in centred.iter().enumerate() {
                s += c * self.components[(i, j)];
            }
            *o = s;
        }
        Ok(out)
    }

    /// Projects every row of a dataset (Definition 3.3's multi-level
    /// projection `getProj(data, s_dim)`).
    pub fn project_dataset(&self, data: &Matrix, d_r: usize) -> Result<Matrix> {
        self.check_dr(d_r)?;
        if data.cols() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: data.cols(),
            });
        }
        let mut out = Matrix::zeros(data.rows(), d_r);
        for (i, row) in data.iter_rows().enumerate() {
            let proj = self.project(row, d_r).expect("checked");
            out.row_mut(i).copy_from_slice(&proj);
        }
        Ok(out)
    }

    /// [`Pca::project_dataset`] with chunk-parallel rows. Each output row
    /// depends only on its input row, so the result is identical to the
    /// serial version for every `num_threads`.
    pub fn project_dataset_par(
        &self,
        data: &Matrix,
        d_r: usize,
        par: &ParConfig,
    ) -> Result<Matrix> {
        self.check_dr(d_r)?;
        if data.cols() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: data.cols(),
            });
        }
        let chunks = map_ranges(data.rows(), par, |range| {
            let mut rows = Vec::with_capacity(range.len());
            for i in range {
                rows.push(self.project(data.row(i), d_r).expect("checked"));
            }
            rows
        });
        let mut out = Matrix::zeros(data.rows(), d_r);
        let mut i = 0;
        for chunk in chunks {
            for proj in chunk {
                out.row_mut(i).copy_from_slice(&proj);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Reconstructs a full-dimensional point from its `d_r` coefficients:
    /// `P' = μ + Σ c_j φ_j` — the projection of the original point onto the
    /// preserved affine subspace.
    pub fn reconstruct(&self, coeffs: &[f64]) -> Result<Vec<f64>> {
        let d_r = coeffs.len();
        self.check_dr(d_r)?;
        let mut out = self.mean.clone();
        for (j, &c) in coeffs.iter().enumerate() {
            for (i, o) in out.iter_mut().enumerate() {
                *o += c * self.components[(i, j)];
            }
        }
        Ok(out)
    }

    /// `ProjDist_r(P)`: distance from `P` to its projection on the preserved
    /// `d_r`-dimensional subspace — the information *lost* by the reduction
    /// (Definition 3.4).
    ///
    /// Computed as `√(‖P−μ‖² − Σ_{j<d_r} c_j²)` using orthonormality of the
    /// basis, avoiding the `O(d·(d−d_r))` explicit eliminated projection.
    pub fn proj_dist_r(&self, point: &[f64], d_r: usize) -> Result<f64> {
        self.check_point(point)?;
        self.check_dr(d_r)?;
        let centred = mmdr_linalg::sub(point, &self.mean);
        let total = mmdr_linalg::dot(&centred, &centred);
        let retained = self.retained_energy(&centred, d_r);
        // Cancellation in `total − retained` leaves noise ~1e-16·total when
        // the point lies exactly on the subspace; clamp it to a true zero so
        // flat clusters report zero loss.
        let resid = total - retained;
        Ok(if resid <= 1e-12 * total {
            0.0
        } else {
            resid.sqrt()
        })
    }

    /// `ProjDist_e(P)`: distance from `P` to its projection on the eliminated
    /// subspace — the information *retained* (Definition 3.4). Equals the
    /// norm of the first `d_r` coefficients.
    pub fn proj_dist_e(&self, point: &[f64], d_r: usize) -> Result<f64> {
        self.check_point(point)?;
        self.check_dr(d_r)?;
        let centred = mmdr_linalg::sub(point, &self.mean);
        Ok(self.retained_energy(&centred, d_r).sqrt())
    }

    /// Mean `ProjDist_r` over a dataset — the `MPE` of Definition 3.5 and of
    /// `getMPE` in the MMDR pseudo-code.
    pub fn mpe(&self, data: &Matrix, d_r: usize) -> Result<f64> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        let mut sum = 0.0;
        for row in data.iter_rows() {
            sum += self.proj_dist_r(row, d_r)?;
        }
        Ok(sum / data.rows() as f64)
    }

    /// [`Pca::mpe`] with deterministic chunk-and-merge parallelism: per-chunk
    /// partial sums of `ProjDist_r` merge in chunk order, so the result is
    /// bit-identical for every `num_threads` (and exactly equal to the
    /// serial [`Pca::mpe`] whenever the dataset fits one chunk).
    pub fn mpe_par(&self, data: &Matrix, d_r: usize, par: &ParConfig) -> Result<f64> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        self.check_dr(d_r)?;
        if data.cols() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: data.cols(),
            });
        }
        let partials = map_ranges(data.rows(), par, |range| {
            let mut sum = 0.0;
            for i in range {
                sum += self.proj_dist_r(data.row(i), d_r).expect("checked");
            }
            sum
        });
        let sum = partials
            .into_iter()
            .reduce(|a, b| a + b)
            .expect("at least one chunk");
        Ok(sum / data.rows() as f64)
    }

    /// Σ of squared retained coefficients for a centred point.
    fn retained_energy(&self, centred: &[f64], d_r: usize) -> f64 {
        let mut retained = 0.0;
        for j in 0..d_r {
            let mut c = 0.0;
            for (i, &x) in centred.iter().enumerate() {
                c += x * self.components[(i, j)];
            }
            retained += c * c;
        }
        retained
    }

    fn check_dr(&self, d_r: usize) -> Result<()> {
        if d_r == 0 || d_r > self.dim() {
            return Err(Error::InvalidReducedDim {
                requested: d_r,
                original: self.dim(),
            });
        }
        Ok(())
    }

    fn check_point(&self, point: &[f64]) -> Result<()> {
        if point.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: point.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-d points exactly on the line y = x, plus symmetric noise on y = -x.
    fn diagonal_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn fit_rejects_empty() {
        assert_eq!(
            Pca::fit(&Matrix::zeros(0, 3)).err(),
            Some(Error::EmptyDataset)
        );
    }

    #[test]
    fn first_component_is_the_diagonal() {
        let pca = Pca::fit(&diagonal_data()).unwrap();
        let pc0 = pca.components().col(0);
        assert!((pc0[0].abs() - pc0[1].abs()).abs() < 1e-10);
        assert!(pca.eigenvalues()[0] > 1.0);
        assert!(pca.eigenvalues()[1].abs() < 1e-10);
    }

    #[test]
    fn projection_is_lossless_on_degenerate_data() {
        let data = diagonal_data();
        let pca = Pca::fit(&data).unwrap();
        for row in data.iter_rows() {
            assert!(pca.proj_dist_r(row, 1).unwrap() < 1e-9);
        }
        assert!(pca.mpe(&data, 1).unwrap() < 1e-9);
    }

    #[test]
    fn reconstruct_inverts_project_at_full_rank() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, -1.0, 0.5],
            vec![0.0, 2.5, -2.0],
            vec![3.0, 3.0, 3.0],
        ])
        .unwrap();
        let pca = Pca::fit(&data).unwrap();
        for row in data.iter_rows() {
            let coeffs = pca.project(row, 3).unwrap();
            let rec = pca.reconstruct(&coeffs).unwrap();
            for (r, x) in rec.iter().zip(row) {
                assert!((r - x).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pythagoras_between_proj_dists() {
        // ProjDist_r² + ProjDist_e² = ‖P − μ‖² (orthogonal decomposition).
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0, 1.0],
            vec![4.0, -1.0, 0.5, 0.0],
            vec![0.0, 2.5, -2.0, 2.0],
            vec![3.0, 3.0, 3.0, -1.0],
            vec![-2.0, 0.0, 1.0, 0.5],
        ])
        .unwrap();
        let pca = Pca::fit(&data).unwrap();
        for row in data.iter_rows() {
            let centred = mmdr_linalg::sub(row, pca.mean());
            let norm_sq = mmdr_linalg::dot(&centred, &centred);
            for d_r in 1..=4 {
                let r = pca.proj_dist_r(row, d_r).unwrap();
                let e = pca.proj_dist_e(row, d_r).unwrap();
                assert!((r * r + e * e - norm_sq).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn proj_dist_r_decreases_with_dr() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, -1.0, 0.5],
            vec![0.0, 2.5, -2.0],
            vec![3.0, 3.0, 3.0],
        ])
        .unwrap();
        let pca = Pca::fit(&data).unwrap();
        let p = data.row(0);
        let d1 = pca.proj_dist_r(p, 1).unwrap();
        let d2 = pca.proj_dist_r(p, 2).unwrap();
        let d3 = pca.proj_dist_r(p, 3).unwrap();
        assert!(d1 >= d2 - 1e-12 && d2 >= d3 - 1e-12);
        assert!(d3 < 1e-9); // full rank loses nothing
    }

    #[test]
    fn mpe_decreases_with_dr_and_matches_definition() {
        let data = Matrix::from_rows(&[
            vec![1.0, 0.1, 0.0],
            vec![2.0, -0.1, 0.05],
            vec![3.0, 0.12, -0.05],
            vec![4.0, -0.08, 0.02],
        ])
        .unwrap();
        let pca = Pca::fit(&data).unwrap();
        let m1 = pca.mpe(&data, 1).unwrap();
        let m2 = pca.mpe(&data, 2).unwrap();
        assert!(m1 >= m2);
        // Definition 3.5: mean of per-point ProjDist_r.
        let manual: f64 = data
            .iter_rows()
            .map(|r| pca.proj_dist_r(r, 1).unwrap())
            .sum::<f64>()
            / data.rows() as f64;
        assert!((m1 - manual).abs() < 1e-12);
    }

    #[test]
    fn project_dataset_matches_pointwise() {
        let data = diagonal_data();
        let pca = Pca::fit(&data).unwrap();
        let proj = pca.project_dataset(&data, 2).unwrap();
        assert_eq!(proj.shape(), (5, 2));
        for (i, row) in data.iter_rows().enumerate() {
            let p = pca.project(row, 2).unwrap();
            assert_eq!(proj.row(i), &p[..]);
        }
    }

    #[test]
    fn par_variants_match_serial_and_each_other() {
        let mut rows = Vec::new();
        let mut state = 0xD1B5_4A32u64;
        for _ in 0..2000 {
            let mut row = Vec::with_capacity(4);
            for _ in 0..4 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 11) as f64) / (1u64 << 53) as f64);
            }
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let base = Pca::fit_par(&data, &ParConfig::serial()).unwrap();
        let serial = Pca::fit(&data).unwrap();
        for (a, b) in base.mean().iter().zip(serial.mean()) {
            assert!((a - b).abs() < 1e-12);
        }
        let mpe1 = base.mpe_par(&data, 2, &ParConfig::serial()).unwrap();
        let proj1 = base
            .project_dataset_par(&data, 2, &ParConfig::serial())
            .unwrap();
        assert_eq!(proj1, base.project_dataset(&data, 2).unwrap());
        assert!((mpe1 - base.mpe(&data, 2).unwrap()).abs() < 1e-9);
        for threads in [2, 4, 8] {
            let par = ParConfig::threads(threads);
            let p = Pca::fit_par(&data, &par).unwrap();
            assert_eq!(p.mean(), base.mean());
            assert_eq!(p.eigenvalues(), base.eigenvalues());
            assert_eq!(p.mpe_par(&data, 2, &par).unwrap().to_bits(), mpe1.to_bits());
            assert_eq!(p.project_dataset_par(&data, 2, &par).unwrap(), proj1);
        }
    }

    #[test]
    fn point_mass_retains_everything() {
        let data = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let pca = Pca::fit(&data).unwrap();
        assert!(pca.proj_dist_r(&[1.0, 1.0], 1).unwrap() < 1e-12);
    }

    #[test]
    fn input_validation() {
        let pca = Pca::fit(&diagonal_data()).unwrap();
        assert!(matches!(
            pca.project(&[1.0], 1),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            pca.project(&[1.0, 2.0], 0),
            Err(Error::InvalidReducedDim { .. })
        ));
        assert!(matches!(
            pca.project(&[1.0, 2.0], 3),
            Err(Error::InvalidReducedDim { .. })
        ));
        assert!(pca.mpe(&Matrix::zeros(0, 2), 1).is_err());
        assert!(pca.project_dataset(&Matrix::zeros(1, 3), 1).is_err());
        assert!(pca.reconstruct(&[]).is_err());
    }

    #[test]
    fn from_parts_validates() {
        let ok = Pca::from_parts(vec![0.0; 2], vec![1.0, 0.5], Matrix::identity(2));
        assert!(ok.is_ok());
        let bad = Pca::from_parts(vec![0.0; 2], vec![1.0], Matrix::identity(2));
        assert!(bad.is_err());
    }
}
