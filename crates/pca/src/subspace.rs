//! The per-cluster reduced subspace produced by dimensionality reduction.
//!
//! MMDR's output is a set of these (plus an outlier set). Each subspace is an
//! affine `d_r`-dimensional flat through the cluster centroid, spanned by the
//! cluster's first `d_r` local principal components. The extended iDistance
//! index (paper §5) consumes them directly: it needs the centroid, the basis,
//! and the projection/lower-bound machinery defined here.

use crate::components::residual;
use crate::error::{Error, Result};
use mmdr_linalg::Matrix;

/// A reduced-dimensionality subspace in its own axis system.
#[derive(Debug, Clone)]
pub struct ReducedSubspace {
    /// Centroid `O_i` of the cluster in the original `d`-dimensional space.
    centroid: Vec<f64>,
    /// Local principal components as columns: `d × d_r`, orthonormal.
    basis: Matrix,
}

impl ReducedSubspace {
    /// Creates a subspace from a centroid and an orthonormal `d × d_r` basis.
    ///
    /// The basis must have orthonormal columns (checked to `1e-6`); MMDR
    /// always supplies eigenvector columns, so a violation indicates a bug.
    pub fn new(centroid: Vec<f64>, basis: Matrix) -> Result<Self> {
        if basis.rows() != centroid.len() {
            return Err(Error::DimensionMismatch {
                expected: centroid.len(),
                actual: basis.rows(),
            });
        }
        if basis.cols() == 0 || basis.cols() > basis.rows() {
            return Err(Error::InvalidReducedDim {
                requested: basis.cols(),
                original: basis.rows(),
            });
        }
        let gram = basis.transpose().matmul(&basis)?;
        let eye = Matrix::identity(basis.cols());
        if gram.sub(&eye)?.max_abs() > 1e-6 {
            return Err(Error::Linalg(mmdr_linalg::Error::DimensionMismatch {
                op: "ReducedSubspace::new (basis not orthonormal)",
                lhs: basis.shape(),
                rhs: basis.shape(),
            }));
        }
        Ok(Self { centroid, basis })
    }

    /// Original dimensionality `d`.
    pub fn original_dim(&self) -> usize {
        self.centroid.len()
    }

    /// Reduced dimensionality `d_r`.
    pub fn reduced_dim(&self) -> usize {
        self.basis.cols()
    }

    /// The cluster centroid in the original space.
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }

    /// The orthonormal basis (`d × d_r`, components as columns).
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// Projects a `d`-dimensional point into the subspace's local
    /// coordinates: `(P − O) · Φ`.
    pub fn project(&self, point: &[f64]) -> Result<Vec<f64>> {
        let mut local = Vec::with_capacity(self.reduced_dim());
        self.project_into(point, &mut local)?;
        Ok(local)
    }

    /// Appends `point`'s local coordinates to `out` and returns its
    /// distance to the flat — [`project`](Self::project) and
    /// [`proj_dist`](Self::proj_dist) in one pass over the basis, which is
    /// what a query pays per cluster. Row `i` of the basis is added into
    /// every coordinate at once, so each coordinate still sums its terms in
    /// dimension order: the bits are those of the coordinate-at-a-time sum.
    /// The distance *within* the subspace from the projected point to the
    /// centroid — the 1-d iDistance key ingredient `dist(P, O_i)` — is the
    /// norm of what was appended (`mmdr_linalg::l2_norm`).
    pub fn project_into(&self, point: &[f64], out: &mut Vec<f64>) -> Result<f64> {
        if point.len() != self.original_dim() {
            return Err(Error::DimensionMismatch {
                expected: self.original_dim(),
                actual: point.len(),
            });
        }
        let start = out.len();
        out.resize(start + self.reduced_dim(), 0.0);
        let local = &mut out[start..];
        let mut total = 0.0;
        for (i, (p, c)) in point.iter().zip(&self.centroid).enumerate() {
            let diff = p - c;
            total += diff * diff;
            for (o, b) in local.iter_mut().zip(self.basis.row(i)) {
                *o += diff * b;
            }
        }
        Ok(residual(total, mmdr_linalg::dot(local, local)))
    }

    /// Maps local coordinates back to the original space:
    /// `P' = O + Σ c_j φ_j`.
    pub fn restore(&self, local: &[f64]) -> Result<Vec<f64>> {
        if local.len() != self.reduced_dim() {
            return Err(Error::DimensionMismatch {
                expected: self.reduced_dim(),
                actual: local.len(),
            });
        }
        let mut out = self.centroid.clone();
        for (j, &c) in local.iter().enumerate() {
            for (i, o) in out.iter_mut().enumerate() {
                *o += c * self.basis[(i, j)];
            }
        }
        Ok(out)
    }

    /// Distance from a point to the affine subspace (`ProjDist_r` relative
    /// to this cluster). Points with `proj_dist(P) > β` are outliers per the
    /// MMDR β-test.
    pub fn proj_dist(&self, point: &[f64]) -> Result<f64> {
        self.project_into(point, &mut Vec::with_capacity(self.reduced_dim()))
    }

    /// The subspace of `subspaces` nearest to `point`, as `(position,
    /// subspace, ProjDist)`: the strict-`<` argmin in iteration order, so
    /// ties go to the earliest. `None` when `subspaces` is empty. This is
    /// the one routing rule — model assignment and every backend's ingest
    /// path call it, so a row lands in the same partition wherever it is
    /// routed.
    pub fn nearest<'a>(
        subspaces: impl IntoIterator<Item = &'a ReducedSubspace>,
        point: &[f64],
    ) -> Result<Option<(usize, &'a ReducedSubspace, f64)>> {
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, subspace) in subspaces.into_iter().enumerate() {
            let d = subspace.proj_dist(point)?;
            if d < best_d {
                best_d = d;
                best = Some((i, subspace));
            }
        }
        Ok(best.map(|(i, subspace)| (i, subspace, best_d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Subspace spanned by the x-axis through centroid (1, 2).
    fn x_axis_subspace() -> ReducedSubspace {
        let basis = Matrix::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        ReducedSubspace::new(vec![1.0, 2.0], basis).unwrap()
    }

    #[test]
    fn construction_validates() {
        // Basis rows must match centroid length.
        let b = Matrix::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        assert!(ReducedSubspace::new(vec![0.0; 3], b.clone()).is_err());
        // Non-orthonormal basis rejected.
        let bad = Matrix::from_vec(2, 1, vec![2.0, 0.0]).unwrap();
        assert!(ReducedSubspace::new(vec![0.0; 2], bad).is_err());
        // Zero-width or too-wide basis rejected.
        let wide = Matrix::identity(2).columns(0, 2).unwrap();
        assert!(ReducedSubspace::new(vec![0.0; 2], wide).is_ok());
        let too_wide = Matrix::zeros(2, 3);
        assert!(ReducedSubspace::new(vec![0.0; 2], too_wide).is_err());
    }

    #[test]
    fn project_and_restore_roundtrip_on_the_flat() {
        let s = x_axis_subspace();
        // A point on the subspace: (5, 2) = centroid + 4·x̂.
        let local = s.project(&[5.0, 2.0]).unwrap();
        assert_eq!(local, vec![4.0]);
        assert_eq!(s.restore(&local).unwrap(), vec![5.0, 2.0]);
    }

    #[test]
    fn proj_dist_is_perpendicular_distance() {
        let s = x_axis_subspace();
        // (3, 7) is 5 above the line y = 2.
        assert!((s.proj_dist(&[3.0, 7.0]).unwrap() - 5.0).abs() < 1e-12);
        // On the flat: zero.
        assert!(s.proj_dist(&[9.0, 2.0]).unwrap() < 1e-12);
    }

    #[test]
    fn local_dist_to_centroid_ignores_perpendicular_component() {
        let s = x_axis_subspace();
        // (4, 100): local coordinate is 3 regardless of the y offset, and
        // the flat is 98 away.
        let mut local = vec![7.0];
        let proj_dist = s.project_into(&[4.0, 100.0], &mut local).unwrap();
        assert_eq!(local, vec![7.0, 3.0], "appended after what was there");
        assert!((mmdr_linalg::l2_norm(&local[1..]) - 3.0).abs() < 1e-12);
        assert!((proj_dist - 98.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_property() {
        // ‖Q − P‖ ≥ ‖Q_j − P_j‖ in local coordinates (paper §5 pruning).
        let s = x_axis_subspace();
        let q = [0.0, 0.0];
        let p = [3.0, 5.0];
        let ql = s.project(&q).unwrap();
        let pl = s.project(&p).unwrap();
        let local = mmdr_linalg::l2_dist(&ql, &pl);
        let original = mmdr_linalg::l2_dist(&q, &p);
        assert!(local <= original + 1e-12);
    }

    #[test]
    fn dimension_checks() {
        let s = x_axis_subspace();
        assert!(s.project(&[1.0]).is_err());
        assert!(s.restore(&[1.0, 2.0]).is_err());
        assert!(s.proj_dist(&[1.0, 2.0, 3.0]).is_err());
        assert_eq!(s.original_dim(), 2);
        assert_eq!(s.reduced_dim(), 1);
        assert_eq!(s.centroid(), &[1.0, 2.0]);
        assert_eq!(s.basis().shape(), (2, 1));
    }

    #[test]
    fn oblique_subspace() {
        // Basis along (1,1)/√2 through the origin.
        let inv = 1.0 / 2.0f64.sqrt();
        let basis = Matrix::from_vec(2, 1, vec![inv, inv]).unwrap();
        let s = ReducedSubspace::new(vec![0.0, 0.0], basis).unwrap();
        let local = s.project(&[2.0, 2.0]).unwrap();
        assert!((local[0] - 8.0f64.sqrt()).abs() < 1e-12);
        assert!(s.proj_dist(&[2.0, 2.0]).unwrap() < 1e-12);
        assert!((s.proj_dist(&[1.0, -1.0]).unwrap() - 2.0f64.sqrt()).abs() < 1e-12);
    }
}
