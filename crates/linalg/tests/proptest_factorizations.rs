//! Property tests for the factorizations on randomized matrices.

use mmdr_linalg::{covariance, Cholesky, Matrix, Qr, SymmetricEigen};
use proptest::prelude::*;

/// Random data matrix (n×d) with bounded entries.
fn data_strategy() -> impl Strategy<Value = Matrix> {
    (2usize..8, 10usize..40).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, d), n..n + 1)
            .prop_map(|rows| Matrix::from_rows(&rows).expect("equal rows"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Covariance matrices are symmetric PSD; their eigendecompositions
    /// reconstruct and have non-negative spectra.
    #[test]
    fn eigen_of_covariance_is_psd_and_reconstructs(data in data_strategy()) {
        let cov = covariance(&data).unwrap();
        prop_assert!(cov.is_symmetric(1e-9));
        let eig = SymmetricEigen::new(&cov).unwrap();
        for &v in &eig.eigenvalues {
            prop_assert!(v >= -1e-8, "negative eigenvalue {v}");
        }
        // V Λ Vᵀ = C.
        let d = cov.rows();
        let mut lambda = Matrix::zeros(d, d);
        for i in 0..d {
            lambda[(i, i)] = eig.eigenvalues[i];
        }
        let rec = eig
            .eigenvectors
            .matmul(&lambda)
            .unwrap()
            .matmul(&eig.eigenvectors.transpose())
            .unwrap();
        prop_assert!(rec.sub(&cov).unwrap().max_abs() < 1e-7 * cov.max_abs().max(1.0));
    }

    /// Regularized Cholesky always factorizes a covariance, and its solves
    /// invert the (regularized) matrix.
    #[test]
    fn cholesky_solve_roundtrip(data in data_strategy()) {
        let cov = covariance(&data).unwrap();
        let ch = Cholesky::new_regularized(&cov, 1e-9).unwrap();
        let d = cov.rows();
        let x: Vec<f64> = (0..d).map(|i| (i as f64) - 1.5).collect();
        // Quadratic form is non-negative everywhere, and it is x · A⁻¹x.
        let mut y = x.clone();
        let q = ch.quadratic_form(&mut y).unwrap();
        prop_assert!(q >= 0.0);
        let via_solve = mmdr_linalg::dot(&x, &ch.solve(&x).unwrap());
        prop_assert!((q - via_solve).abs() <= 1e-6 * q.max(1.0));
        // log|C| finite.
        prop_assert!(ch.log_determinant().is_finite());
    }

    /// QR of any tall matrix reconstructs with orthonormal Q.
    #[test]
    fn qr_reconstructs(data in data_strategy()) {
        let qr = Qr::new(&data).unwrap();
        let rec = qr.q().matmul(qr.r()).unwrap();
        prop_assert!(rec.sub(&data).unwrap().max_abs() < 1e-8 * data.max_abs().max(1.0));
        let n = data.cols();
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        prop_assert!(qtq.sub(&Matrix::identity(n)).unwrap().max_abs() < 1e-8);
    }

    /// Matrix multiplication is associative (A·B)·v = A·(B·v).
    #[test]
    fn matmul_matvec_associativity(data in data_strategy()) {
        let a = covariance(&data).unwrap(); // square d×d
        let d = a.rows();
        let b = Matrix::from_fn(d, d, |i, j| ((i * 3 + j * 7) % 5) as f64 - 2.0);
        let v: Vec<f64> = (0..d).map(|i| i as f64 * 0.5 - 1.0).collect();
        let ab_v = a.matmul(&b).unwrap().matvec(&v).unwrap();
        let a_bv = a.matvec(&b.matvec(&v).unwrap()).unwrap();
        for (x, y) in ab_v.iter().zip(&a_bv) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + x.abs()));
        }
    }
}
