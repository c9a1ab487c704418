//! Property tests: both clustering engines produce consistent partitions
//! on arbitrary data.

use mmdr_cluster::{kmeans, EllipticalConfig, EllipticalKMeans, KMeansConfig};
use mmdr_linalg::Matrix;
use proptest::prelude::*;

fn data_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..5, 5usize..60).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(-20.0f64..20.0, d), n..n + 1)
            .prop_map(|rows| Matrix::from_rows(&rows).expect("equal rows"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_partitions_consistently(data in data_strategy(), k in 1usize..6, seed in 0u64..8) {
        let k = k.min(data.rows());
        let r = kmeans(&data, &KMeansConfig { k, seed, ..Default::default() }).unwrap();
        prop_assert!(r.clustering.is_consistent());
        prop_assert_eq!(r.clustering.assignments.len(), data.rows());
        let covered: usize = r.clustering.clusters.iter().map(|c| c.len()).sum();
        prop_assert_eq!(covered, data.rows());
    }

    #[test]
    fn elliptical_partitions_consistently(data in data_strategy(), k in 1usize..6, seed in 0u64..8) {
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: k.min(data.rows()),
            seed,
            ..Default::default()
        })
        .unwrap();
        let r = engine.fit(&data).unwrap();
        prop_assert!(r.clustering.is_consistent());
        for c in &r.clustering.clusters {
            prop_assert!(!c.is_empty(), "empty clusters must be pruned");
        }
    }

    #[test]
    fn optimized_engine_matches_unoptimized_partition_quality(
        data in data_strategy(), seed in 0u64..4
    ) {
        // The §4.2 optimizations change work, not the contract: both runs
        // produce consistent partitions covering every point.
        let base = EllipticalKMeans::new(EllipticalConfig {
            k: 3.min(data.rows()),
            seed,
            lookup_k: None,
            activity_threshold: None,
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        let opt = EllipticalKMeans::new(EllipticalConfig {
            k: 3.min(data.rows()),
            seed,
            lookup_k: Some(2),
            activity_threshold: Some(5),
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        prop_assert!(base.clustering.is_consistent());
        prop_assert!(opt.clustering.is_consistent());
        prop_assert!(opt.distance_computations <= base.distance_computations * 2);
    }
}
