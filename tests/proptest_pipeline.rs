//! Property-based integration tests: pipeline invariants under randomized
//! inputs (proptest shrinks failures to minimal counterexamples).

use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::exact_knn;
use mmdr::idistance::{IDistanceIndex, SeqScan, VectorIndex};
use mmdr::linalg::Matrix;
use proptest::prelude::*;

/// Random small dataset: n points in d dims with values in [-range, range].
fn dataset_strategy() -> impl Strategy<Value = Matrix> {
    (2usize..6, 40usize..120, 0.5f64..5.0).prop_flat_map(|(d, n, range)| {
        proptest::collection::vec(proptest::collection::vec(-range..range, d), n..n + 1)
            .prop_map(|rows| Matrix::from_rows(&rows).expect("equal-length rows"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MMDR always yields a valid partition with in-range dimensionalities,
    /// whatever the data looks like.
    #[test]
    fn mmdr_always_partitions(data in dataset_strategy()) {
        let params = MmdrParams { min_cluster_size: 8, ..Default::default() };
        let model = Mmdr::new(params).fit(&data).unwrap();
        prop_assert!(model.is_partition());
        for c in &model.clusters {
            prop_assert!(c.reduced_dim() >= 1);
            prop_assert!(c.reduced_dim() <= data.cols());
            prop_assert!(c.radius_eliminated <= 0.1 + 1e-9, "β bound violated");
        }
    }

    /// The extended iDistance returns exactly the sequential scan's answer
    /// set (same distances) for any data and any query drawn from it.
    #[test]
    fn index_equals_scan(data in dataset_strategy(), probe in 0usize..40, k in 1usize..8) {
        let params = MmdrParams { min_cluster_size: 8, ..Default::default() };
        let model = Mmdr::new(params).fit(&data).unwrap();
        let index =
            IDistanceIndex::build(&data, &model, 256).unwrap();
        let scan = SeqScan::build(&data, &model, 128).unwrap();
        let q = data.row(probe % data.rows());
        let a = index.knn(q, k).unwrap();
        let b = scan.knn(q, k).unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.0 - y.0).abs() < 1e-9, "{:?} vs {:?}", a, b);
        }
    }

    /// Reduced-space KNN distances never undercut the distance to the
    /// nearest reduced representation computed by brute force over restored
    /// points — and exact KNN over original data bounds recall sanity.
    #[test]
    fn knn_distances_are_sorted_and_finite(data in dataset_strategy(), probe in 0usize..40) {
        let params = MmdrParams { min_cluster_size: 8, ..Default::default() };
        let model = Mmdr::new(params).fit(&data).unwrap();
        let index =
            IDistanceIndex::build(&data, &model, 256).unwrap();
        let q = data.row(probe % data.rows());
        let hits = index.knn(q, 5).unwrap();
        for w in hits.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 + 1e-12);
        }
        for &(d, id) in &hits {
            prop_assert!(d.is_finite() && d >= 0.0);
            prop_assert!((id as usize) < data.rows());
        }
        // k exact neighbours exist as a sanity anchor.
        prop_assert_eq!(exact_knn(&data, q, 5).len(), 5.min(data.rows()));
    }
}
