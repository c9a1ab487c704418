//! The fitted PCA model.

use crate::error::{Error, Result};
use mmdr_linalg::{
    covariance, covariance_about_par, dot, l2_norm, map_ranges, mean_vector, mean_vector_par,
    Matrix, ParConfig, SymmetricEigen,
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
        let cov = covariance_about_par(data, &mean, par)?;
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

    /// The model with only its first `m` components (`m` clamped to
    /// `1..=d`), `d × m` instead of `d × d`: projections to `m` or fewer
    /// dimensions are unchanged.
    pub fn truncated(mut self, m: usize) -> Self {
        let m = m.clamp(1, self.components.cols());
        self.components = self.components.columns(0, m).expect("m within the columns");
        self
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

    /// The principal components as columns of a `d × m` matrix: all `d` of
    /// them unless the model was [`truncated`](Self::truncated).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// The projection basis `Φ_{d_r}` (first `d_r` components) as `d × d_r`.
    pub fn basis(&self, d_r: usize) -> Result<Matrix> {
        self.check_dr(d_r)?;
        Ok(self.components.columns(0, d_r).expect("checked"))
    }

    /// Writes the first `out.len()` centred coefficients of `point` into the
    /// caller's buffer (`c_j = (P − μ) · φ_j`) and returns `‖P − μ‖²`, from
    /// which [`residual`] gives `ProjDist_r`: one pass over the basis, no
    /// allocation. Row `i` of the basis is added into every coefficient at
    /// once, so each coefficient still sums its terms in dimension order.
    pub fn project_into(&self, point: &[f64], out: &mut [f64]) -> Result<f64> {
        self.check_point(point)?;
        self.check_dr(out.len())?;
        out.fill(0.0);
        let mut total = 0.0;
        for (i, (p, m)) in point.iter().zip(&self.mean).enumerate() {
            let x = p - m;
            total += x * x;
            for (o, b) in out.iter_mut().zip(self.components.row(i)) {
                *o += x * b;
            }
        }
        Ok(total)
    }

    /// Centred projection of one point onto the first `d_r` components:
    /// the coefficient vector `c` with `c_j = (P − μ) · φ_j`.
    pub fn project(&self, point: &[f64], d_r: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; d_r];
        self.project_into(point, &mut out)?;
        Ok(out)
    }

    /// Projects every row of a dataset (Definition 3.3's multi-level
    /// projection `getProj(data, s_dim)`), chunk-parallel: each output row
    /// depends only on its input row, so the result is the same for every
    /// `num_threads`.
    pub fn project_dataset_par(
        &self,
        data: &Matrix,
        d_r: usize,
        par: &ParConfig,
    ) -> Result<Matrix> {
        self.check_dr(d_r)?;
        self.check_cols(data)?;
        let chunks = map_ranges(data.rows(), par, |range| {
            let mut rows = vec![0.0; range.len() * d_r];
            for (i, out) in range.zip(rows.chunks_exact_mut(d_r)) {
                self.project_into(data.row(i), out).expect("checked");
            }
            rows
        });
        Ok(Matrix::from_vec(data.rows(), d_r, chunks.concat()).expect("rows × d_r"))
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
        let mut c = vec![0.0; d_r];
        let total = self.project_into(point, &mut c)?;
        Ok(residual(total, dot(&c, &c)))
    }

    /// `ProjDist_e(P)`: distance from `P` to its projection on the eliminated
    /// subspace — the information *retained* (Definition 3.4). Equals the
    /// norm of the first `d_r` coefficients.
    pub fn proj_dist_e(&self, point: &[f64], d_r: usize) -> Result<f64> {
        Ok(l2_norm(&self.project(point, d_r)?))
    }

    /// Mean `ProjDist_r` over a dataset — the `MPE` of Definition 3.5 and of
    /// `getMPE` in the MMDR pseudo-code — with deterministic chunk-and-merge
    /// parallelism: per-chunk partial sums merge in chunk order, so the
    /// result is bit-identical for every `num_threads`. The one-level case
    /// of [`Pca::mpe_levels`].
    pub fn mpe_par(&self, data: &Matrix, d_r: usize, par: &ParConfig) -> Result<f64> {
        Ok(self.mpe_levels(data, &[d_r], par)?[0])
    }

    /// The MPE at each of `levels` (ascending), from one projection of each
    /// row to the last level: `Σ_{j<d_r} c_j²` at a level is the running
    /// prefix of the squared coefficients, the very sum a pass at that level
    /// alone would compute. Each level's sum is kept per chunk and merged in
    /// chunk order.
    pub fn mpe_levels(&self, data: &Matrix, levels: &[usize], par: &ParConfig) -> Result<Vec<f64>> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        let top = levels.last().copied().unwrap_or(0);
        for &d_r in levels.iter().chain([&top]) {
            self.check_dr(d_r)?; // and refuse an empty `levels`
        }
        self.check_cols(data)?;
        assert!(levels.windows(2).all(|w| w[0] <= w[1]), "levels ascend");
        let partials = map_ranges(data.rows(), par, |range| {
            let mut sums = vec![0.0; levels.len()];
            let mut coeffs = vec![0.0; top];
            for i in range {
                let total = self
                    .project_into(data.row(i), &mut coeffs)
                    .expect("checked");
                let mut retained = 0.0;
                let mut j = 0;
                for (sum, &level) in sums.iter_mut().zip(levels) {
                    for c in &coeffs[j..level] {
                        retained += c * c;
                    }
                    j = level;
                    *sum += residual(total, retained);
                }
            }
            sums
        });
        let mut partials = partials.into_iter();
        let mut sums = partials.next().expect("at least one chunk");
        for part in partials {
            sums.iter_mut().zip(&part).for_each(|(a, p)| *a += p);
        }
        Ok(sums.iter().map(|s| s / data.rows() as f64).collect())
    }

    fn check_cols(&self, data: &Matrix) -> Result<()> {
        if data.cols() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: data.cols(),
            });
        }
        Ok(())
    }

    fn check_dr(&self, d_r: usize) -> Result<()> {
        if d_r == 0 || d_r > self.components.cols() {
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

/// `ProjDist_r` from `‖P − μ‖²` and the retained energy `Σ_{j<d_r} c_j²`.
/// Cancellation in `total − retained` leaves noise ~1e-16·total when the
/// point lies exactly on the subspace; it is clamped to a true zero so flat
/// clusters report zero loss.
pub fn residual(total: f64, retained: f64) -> f64 {
    let resid = total - retained;
    if resid <= 1e-12 * total {
        0.0
    } else {
        resid.sqrt()
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
        assert!(pca.mpe_par(&data, 1, &ParConfig::serial()).unwrap() < 1e-9);
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
        let serial = ParConfig::serial();
        let m1 = pca.mpe_par(&data, 1, &serial).unwrap();
        let m2 = pca.mpe_par(&data, 2, &serial).unwrap();
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
        let proj = pca
            .project_dataset_par(&data, 2, &ParConfig::threads(2))
            .unwrap();
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
        let by_row: f64 = data
            .iter_rows()
            .map(|r| base.proj_dist_r(r, 2).unwrap())
            .sum::<f64>();
        assert!((mpe1 - by_row / data.rows() as f64).abs() < 1e-9);
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
        let serial = ParConfig::serial();
        assert!(pca.mpe_par(&Matrix::zeros(0, 2), 1, &serial).is_err());
        assert!(pca.mpe_levels(&diagonal_data(), &[], &serial).is_err());
        assert!(pca
            .project_dataset_par(&Matrix::zeros(1, 3), 1, &serial)
            .is_err());
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
