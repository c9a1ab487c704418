//! Property tests for PCA invariants (Definitions 3.3–3.5).

use mmdr_linalg::{Matrix, ParConfig};
use mmdr_pca::{ellipticity, proj_dist_profile, Pca, ReducedSubspace};
use proptest::prelude::*;

fn data_strategy() -> impl Strategy<Value = Matrix> {
    (2usize..7, 8usize..40).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, d), n..n + 1)
            .prop_map(|rows| Matrix::from_rows(&rows).expect("equal rows"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ProjDist_r² + ProjDist_e² = ‖P − μ‖² at every level (orthogonal
    /// decomposition), and ProjDist_r is non-increasing in d_r.
    #[test]
    fn projection_distances_decompose(data in data_strategy(), probe in 0usize..8) {
        let pca = Pca::fit(&data).unwrap();
        let p = data.row(probe % data.rows());
        let centred = mmdr_linalg::sub(p, pca.mean());
        let norm_sq = mmdr_linalg::dot(&centred, &centred);
        let mut prev_r = f64::INFINITY;
        for d_r in 1..=data.cols() {
            let r = pca.proj_dist_r(p, d_r).unwrap();
            let e = pca.proj_dist_e(p, d_r).unwrap();
            prop_assert!((r * r + e * e - norm_sq).abs() < 1e-7 * (1.0 + norm_sq));
            prop_assert!(r <= prev_r + 1e-9, "ProjDist_r must shrink with d_r");
            prev_r = r;
        }
    }

    /// MPE is the mean of per-point ProjDist_r and decreases with d_r; the
    /// full-rank MPE is zero.
    #[test]
    fn mpe_definition_and_monotonicity(data in data_strategy()) {
        let pca = Pca::fit(&data).unwrap();
        let d = data.cols();
        let mut prev = f64::INFINITY;
        for d_r in 1..=d {
            let mpe = pca.mpe_par(&data, d_r, &ParConfig::serial()).unwrap();
            let manual: f64 = data
                .iter_rows()
                .map(|r| pca.proj_dist_r(r, d_r).unwrap())
                .sum::<f64>()
                / data.rows() as f64;
            prop_assert!((mpe - manual).abs() < 1e-9);
            prop_assert!(mpe <= prev + 1e-9);
            prev = mpe;
        }
        let mpe = pca.mpe_par(&data, d, &ParConfig::serial()).unwrap();
        prop_assert!(mpe < 1e-6 * (1.0 + data.max_abs()));
    }

    /// Reconstruction from full-rank coefficients is the identity; from
    /// fewer it lands on the subspace (ProjDist of the reconstruction = 0).
    #[test]
    fn reconstruction_lands_on_subspace(data in data_strategy(), probe in 0usize..8, d_r in 1usize..4) {
        let pca = Pca::fit(&data).unwrap();
        let d_r = d_r.min(data.cols());
        let p = data.row(probe % data.rows());
        let coeffs = pca.project(p, d_r).unwrap();
        let rec = pca.reconstruct(&coeffs).unwrap();
        prop_assert!(pca.proj_dist_r(&rec, d_r).unwrap() < 1e-6 * (1.0 + data.max_abs()));
    }

    /// The subspace built from a fitted PCA basis agrees with the PCA's own
    /// distances.
    #[test]
    fn reduced_subspace_agrees_with_pca(data in data_strategy(), probe in 0usize..8) {
        let pca = Pca::fit(&data).unwrap();
        let d_r = (data.cols() / 2).max(1);
        let subspace =
            ReducedSubspace::new(pca.mean().to_vec(), pca.basis(d_r).unwrap()).unwrap();
        let p = data.row(probe % data.rows());
        let a = pca.proj_dist_r(p, d_r).unwrap();
        let b = subspace.proj_dist(p).unwrap();
        prop_assert!((a - b).abs() < 1e-8 * (1.0 + a));
        // Local distance ≤ full centred distance.
        let local = mmdr_linalg::l2_norm(&subspace.project(p).unwrap());
        let full = mmdr_linalg::l2_dist(p, pca.mean());
        prop_assert!(local <= full + 1e-9);
    }

    /// Every MPE level taken from one projection is the one-level pass at
    /// that level to the bit, at any thread count, and a truncated model
    /// projects to the same bits as the whole one.
    #[test]
    fn mpe_levels_and_truncation_keep_the_bits(data in data_strategy(), probe in 0usize..8) {
        let pca = Pca::fit(&data).unwrap();
        let levels: Vec<usize> = (1..=data.cols()).collect();
        for threads in [1, 3] {
            let par = ParConfig::threads(threads);
            let all = pca.mpe_levels(&data, &levels, &par).unwrap();
            for (&d_r, mpe) in levels.iter().zip(&all) {
                let one = pca.mpe_par(&data, d_r, &par).unwrap();
                prop_assert_eq!(mpe.to_bits(), one.to_bits());
            }
        }
        let p = data.row(probe % data.rows());
        let d_r = (data.cols() / 2).max(1);
        let short = pca.clone().truncated(d_r);
        prop_assert_eq!(short.project(p, d_r).unwrap(), pca.project(p, d_r).unwrap());
        prop_assert_eq!(
            short.proj_dist_r(p, d_r).unwrap().to_bits(),
            pca.proj_dist_r(p, d_r).unwrap().to_bits()
        );
        prop_assert!(short.project(p, d_r + 1).is_err());
    }

    /// Ellipticity is non-negative (or infinite for flat clusters) and the
    /// profile radii bound the MPE.
    #[test]
    fn profile_invariants(data in data_strategy()) {
        let pca = Pca::fit(&data).unwrap();
        let stats = proj_dist_profile(&pca, &data, 1).unwrap();
        prop_assert!(stats.mpe <= stats.max_proj_dist_r + 1e-9);
        let e = ellipticity(&stats);
        prop_assert!(e >= -1.0 || e.is_infinite());
    }
}
