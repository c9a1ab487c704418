//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA (Definition 3.3) needs all eigenpairs of a covariance matrix, sorted
//! by descending eigenvalue. Jacobi rotation is the right tool here: it is
//! unconditionally stable for symmetric matrices, converges quadratically,
//! delivers orthonormal eigenvectors to machine precision, and its `O(d³)`
//! per-sweep cost is negligible next to the `O(N d²)` covariance estimation
//! for the dataset sizes in the paper (d ≤ 200).

use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// Maximum number of full Jacobi sweeps before declaring non-convergence.
/// Symmetric matrices essentially always converge in < 15 sweeps; 50 leaves
/// a wide margin.
const MAX_SWEEPS: usize = 50;

/// Eigendecomposition `A = V Λ Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as *columns*, in the same order as
    /// [`eigenvalues`](Self::eigenvalues). Column `j` is the `j`-th principal
    /// component when `A` is a covariance matrix.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// The input must be square and symmetric to `1e-8` relative tolerance;
    /// asymmetric inputs are rejected rather than silently symmetrized so
    /// that covariance-estimation bugs surface early.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        let tol = 1e-8 * a.max_abs().max(1.0);
        if !a.is_symmetric(tol) {
            return Err(Error::DimensionMismatch {
                op: "SymmetricEigen::new (matrix not symmetric)",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(Error::Empty);
        }
        let mut m = a.clone();
        // Vᵀ, so that a rotation updates two contiguous rows, not two
        // strided columns: the same products in the same order.
        let mut vt = Matrix::identity(n);

        for sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            // Converged when the off-diagonal mass vanishes relative to the
            // matrix scale.
            let scale = m.max_abs().max(f64::MIN_POSITIVE);
            if off.sqrt() <= 1e-14 * scale * n as f64 {
                return Ok(Self::collect(m, vt));
            }
            if sweep == MAX_SWEEPS - 1 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic stable rotation-angle computation.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    apply_rotation(&mut m, p, q, c, s);
                    rotate_rows(&mut vt, p, q, c, s);
                }
            }
        }
        Err(Error::NoConvergence {
            iterations: MAX_SWEEPS,
        })
    }

    /// Extracts sorted eigenpairs from the diagonalized matrix and the
    /// accumulated `Vᵀ`.
    fn collect(m: Matrix, vt: Matrix) -> Self {
        let n = m.rows();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            m[(b, b)]
                .partial_cmp(&m[(a, a)])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        for (new_j, &old_j) in order.iter().enumerate() {
            for (i, &x) in vt.row(old_j).iter().enumerate() {
                eigenvectors[(i, new_j)] = x;
            }
        }
        Self {
            eigenvalues,
            eigenvectors,
        }
    }
}

/// Applies the two-sided Jacobi rotation `Jᵀ M J` for the plane `(p, q)`.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let apq = m[(p, q)];
    for k in 0..n {
        if k == p || k == q {
            continue;
        }
        let akp = m[(k, p)];
        let akq = m[(k, q)];
        let new_kp = c * akp - s * akq;
        let new_kq = s * akp + c * akq;
        m[(k, p)] = new_kp;
        m[(p, k)] = new_kp;
        m[(k, q)] = new_kq;
        m[(q, k)] = new_kq;
    }
    m[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    m[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    m[(p, q)] = 0.0;
    m[(q, p)] = 0.0;
}

/// Right-multiplies `V` by the rotation, accumulating eigenvectors, on
/// `Vᵀ`: column `p` of `V` is row `p` of `Vᵀ`.
fn rotate_rows(vt: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for k in 0..vt.cols() {
        let (vkp, vkq) = (vt[(p, k)], vt[(q, k)]);
        vt[(p, k)] = c * vkp - s * vkq;
        vt[(q, k)] = s * vkp + c * vkq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_decomposition(a: &Matrix) {
        let eig = SymmetricEigen::new(a).unwrap();
        let n = a.rows();
        // Eigenvalues descending.
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // A v = λ v for every pair.
        for j in 0..n {
            let v: Vec<f64> = (0..n).map(|i| eig.eigenvectors[(i, j)]).collect();
            let av = a.matvec(&v).unwrap();
            for i in 0..n {
                assert!(
                    (av[i] - eig.eigenvalues[j] * v[i]).abs() < 1e-8 * a.max_abs().max(1.0),
                    "residual too large at ({i},{j})"
                );
            }
        }
        // Eigenvector matrix orthonormal: VᵀV = I.
        let vtv = eig
            .eigenvectors
            .transpose()
            .matmul(&eig.eigenvectors)
            .unwrap();
        assert!(vtv.sub(&Matrix::identity(n)).unwrap().max_abs() < 1e-10);
        // Trace preserved.
        let tr: f64 = eig.eigenvalues.iter().sum();
        assert!((tr - a.trace().unwrap()).abs() < 1e-8 * a.max_abs().max(1.0));
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 7.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![7.0, 3.0, 1.0]);
        check_decomposition(&a);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-12);
        check_decomposition(&a);
    }

    #[test]
    fn handles_negative_eigenvalues() {
        // [[1,2],[2,1]]: eigenvalues 3, -1.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues[1] + 1.0).abs() < 1e-12);
        check_decomposition(&a);
    }

    #[test]
    fn moderately_large_random_symmetric() {
        // Deterministic pseudo-random symmetric 40×40 matrix.
        let n = 40;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rand();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        check_decomposition(&a);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 3);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_vec(1, 1, vec![4.2]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![4.2]);
        assert_eq!(eig.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn rejects_asymmetric_and_non_square() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(SymmetricEigen::new(&a).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn principal_axis_of_elongated_cloud() {
        // Covariance of points stretched along (1,1)/√2.
        let a = Matrix::from_rows(&[vec![5.0, 4.5], vec![4.5, 5.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let v0: Vec<f64> = (0..2).map(|i| eig.eigenvectors[(i, 0)]).collect();
        // First PC parallel to (1,1): components equal in magnitude.
        assert!((v0[0].abs() - v0[1].abs()).abs() < 1e-10);
        assert!((v0[0] * v0[1]) > 0.0, "components must share a sign");
    }
}
