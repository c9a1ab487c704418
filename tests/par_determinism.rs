//! Determinism harness for the parallel execution layer: every stage of the
//! pipeline must produce bit-identical output for `num_threads ∈ {1,2,4,8}`.
//!
//! The guarantee rests on the chunk-and-merge rule (see DESIGN.md): work is
//! split into fixed-size chunks whose partial results are merged in chunk
//! order, so thread count changes scheduling but never arithmetic.

use mmdr::cluster::{kmeans, EllipticalConfig, EllipticalKMeans, KMeansConfig};
use mmdr::core::{Mmdr, MmdrParams, ParConfig};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, VectorIndex};
use mmdr::linalg::Matrix;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Seeded Gaussian-mixture workload, big enough to span many chunks.
fn workload() -> Matrix {
    generate_correlated(&CorrelatedConfig::paper_style(3_000, 32, 5, 6, 30.0, 23)).data
}

#[test]
fn elliptical_clustering_is_thread_count_invariant() {
    let data = workload();
    let run = |threads: usize| {
        EllipticalKMeans::new(EllipticalConfig {
            k: 5,
            seed: 42,
            par: ParConfig::threads(threads),
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap()
    };
    let base = run(1);
    for &t in &THREADS[1..] {
        let r = run(t);
        assert_eq!(
            r.clustering.assignments, base.clustering.assignments,
            "threads={t}"
        );
        assert_eq!(
            r.distance_computations, base.distance_computations,
            "threads={t}"
        );
        for (a, b) in r.clustering.clusters.iter().zip(&base.clustering.clusters) {
            assert_eq!(a.centroid, b.centroid, "threads={t}");
        }
    }
}

#[test]
fn euclidean_clustering_is_thread_count_invariant() {
    let data = workload();
    let run = |threads: usize| {
        kmeans(
            &data,
            &KMeansConfig {
                k: 5,
                seed: 42,
                par: ParConfig::threads(threads),
                ..Default::default()
            },
        )
        .unwrap()
    };
    let base = run(1);
    for &t in &THREADS[1..] {
        let r = run(t);
        assert_eq!(
            r.clustering.assignments, base.clustering.assignments,
            "threads={t}"
        );
        assert_eq!(r.iterations, base.iterations, "threads={t}");
    }
}

#[test]
fn full_reduction_is_thread_count_invariant() {
    let data = workload();
    let fit = |threads: usize| {
        Mmdr::new(MmdrParams {
            par: ParConfig::threads(threads),
            ..Default::default()
        })
        .fit(&data)
        .unwrap()
    };
    let base = fit(1);
    for &t in &THREADS[1..] {
        let model = fit(t);
        assert_eq!(
            model.outliers, base.outliers,
            "threads={t}: outlier sets differ"
        );
        assert_eq!(model.clusters.len(), base.clusters.len(), "threads={t}");
        for (a, b) in model.clusters.iter().zip(&base.clusters) {
            assert_eq!(a.members, b.members, "threads={t}: memberships differ");
            assert_eq!(a.reduced_dim(), b.reduced_dim(), "threads={t}: d_r differs");
            // Reduced dimensions: the subspace bases must agree bit for bit,
            // which makes every projected coordinate agree bit for bit.
            assert_eq!(
                a.subspace.centroid(),
                b.subspace.centroid(),
                "threads={t}: centroids differ"
            );
            assert!(
                a.mpe.to_bits() == b.mpe.to_bits(),
                "threads={t}: MPE differs ({} vs {})",
                a.mpe,
                b.mpe
            );
            for row in data.iter_rows().take(32) {
                let pa = a.subspace.project(row).unwrap();
                let pb = b.subspace.project(row).unwrap();
                assert_eq!(pa, pb, "threads={t}: projections differ");
            }
        }
    }
}

#[test]
fn batch_knn_is_thread_count_invariant_and_matches_serial_loop() {
    let data = workload();
    let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
    let index = IDistanceIndex::build(&data, &model, 256).unwrap();
    let queries: Vec<Vec<f64>> = sample_queries(&data, 40, 7)
        .unwrap()
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    let k = 10;

    // Ground truth: one serial knn() call per query, in order.
    let serial: Vec<Vec<(f64, u64)>> = queries.iter().map(|q| index.knn(q, k).unwrap()).collect();

    for &t in &THREADS {
        let batch = index
            .batch_knn(&queries, k, &ParConfig::threads(t))
            .unwrap();
        assert_eq!(batch.len(), serial.len(), "threads={t}");
        for (qi, (b, s)) in batch.iter().zip(&serial).enumerate() {
            assert_eq!(b.len(), s.len(), "threads={t} query {qi}");
            for ((bd, bid), (sd, sid)) in b.iter().zip(s) {
                assert_eq!(bid, sid, "threads={t} query {qi}: ids differ");
                assert_eq!(
                    bd.to_bits(),
                    sd.to_bits(),
                    "threads={t} query {qi}: distances differ"
                );
            }
        }
    }
}
