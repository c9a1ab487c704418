//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Mahalanobis distances need `xᵀ C⁻¹ x` and `ln |C|`. Both come cheaply and
//! stably from the factorization `C = L Lᵀ`: the quadratic form is
//! `‖L⁻¹x‖²` (one triangular solve) and `ln |C| = 2 Σ ln L[i][i]`, which never
//! overflows the way a raw determinant of a 200×200 matrix would.

use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns [`Error::NotPositiveDefinite`] when a pivot is not strictly
    /// positive. Covariance matrices of degenerate clusters (fewer points
    /// than dimensions, or exactly coplanar points) hit this; callers should
    /// regularize with [`Cholesky::new_regularized`] instead of retrying.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(Error::NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(Self { l })
    }

    /// Factorizes `a + ridge·I`, retrying with a ridge that grows by 10× (up
    /// to 6 attempts) if the shifted matrix is still not positive definite.
    ///
    /// This is the constructor the clustering code uses: it always succeeds
    /// for symmetric matrices with bounded entries, trading a tiny isotropic
    /// inflation of the ellipsoid for robustness.
    pub fn new_regularized(a: &Matrix, ridge: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        // Scale the ridge to the matrix magnitude so tiny clusters (entries
        // ~1e-8) are regularized as effectively as large ones.
        let scale = a.max_abs().max(1.0);
        let mut shift = ridge * scale;
        let mut last = Error::NotPositiveDefinite { pivot: 0 };
        for _ in 0..6 {
            let mut shifted = a.clone();
            for i in 0..a.rows() {
                shifted[(i, i)] += shift;
            }
            match Self::new(&shifted) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            shift *= 10.0;
        }
        Err(last)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L y = b` by forward substitution, in place: `y` holds `b` on
    /// entry and the solution on return.
    pub fn solve_lower(&self, y: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if y.len() != n {
            return Err(Error::DimensionMismatch {
                op: "Cholesky::solve_lower",
                lhs: (n, n),
                rhs: (y.len(), 1),
            });
        }
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = y[i];
            for (lk, yk) in row[..i].iter().zip(&y[..i]) {
                s -= lk * yk;
            }
            y[i] = s / row[i];
        }
        Ok(())
    }

    /// Solves `A x = b` (i.e. `L Lᵀ x = b`) by forward then back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        let mut x = b.to_vec();
        self.solve_lower(&mut x)?;
        // Back substitution with Lᵀ.
        for i in (0..n).rev() {
            let mut s = x[i];
            #[allow(clippy::needless_range_loop)] // column access: strided, not sliceable
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// The quadratic form `xᵀ A⁻¹ x = ‖L⁻¹ x‖²` — the Mahalanobis distance
    /// core. Always non-negative. `y` holds `x` on entry and `L⁻¹ x` on
    /// return, so a caller evaluating many points allocates nothing.
    pub fn quadratic_form(&self, y: &mut [f64]) -> Result<f64> {
        self.solve_lower(y)?;
        Ok(y.iter().map(|v| v * v).sum())
    }

    /// `ln |A| = 2 Σ ln L[i][i]`, stable for any dimension.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B with full rank → SPD.
        Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 6.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn regularized_handles_singular() {
        let a = Matrix::zeros(3, 3); // rank 0
        let ch = Cholesky::new_regularized(&a, 1e-6).unwrap();
        // Factorized a + εI → quadratic form is x·x/ε, positive.
        assert!(ch.quadratic_form(&mut [1.0, 0.0, 0.0]).unwrap() > 0.0);
    }

    #[test]
    fn regularized_scales_with_magnitude() {
        // Rank-1 covariance with large entries must still factorize.
        let a = Matrix::from_rows(&[vec![1e9, 1e9], vec![1e9, 1e9]]).unwrap();
        assert!(Cholesky::new_regularized(&a, 1e-9).is_ok());
    }

    #[test]
    fn solve_matches_direct_multiplication() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_validates_length() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&mut [1.0]).is_err());
        assert!(ch.quadratic_form(&mut [1.0]).is_err());
    }

    #[test]
    fn quadratic_form_identity_is_norm_sq() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        let mut y = [1.0, 2.0, 3.0, 4.0];
        let q = ch.quadratic_form(&mut y).unwrap();
        assert!((q - 30.0).abs() < 1e-12);
        // L = I: the solve leaves the point where it was.
        assert_eq!(y, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn quadratic_form_weights_by_inverse_variance() {
        // C = diag(4, 0.25): displacement along the wide axis counts less.
        let c = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 0.25]]).unwrap();
        let ch = Cholesky::new(&c).unwrap();
        let along_major = ch.quadratic_form(&mut [1.0, 0.0]).unwrap(); // 1/4
        let along_minor = ch.quadratic_form(&mut [0.0, 1.0]).unwrap(); // 4
        assert!(along_major < along_minor);
        assert!((along_major - 0.25).abs() < 1e-12);
        assert!((along_minor - 4.0).abs() < 1e-12);
    }

    #[test]
    fn log_determinant_matches_known_value() {
        let c = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 8.0]]).unwrap();
        let ch = Cholesky::new(&c).unwrap();
        assert!((ch.log_determinant() - 16.0f64.ln()).abs() < 1e-12);
    }
}
