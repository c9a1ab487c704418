//! Scalable (streaming) MMDR must match the in-memory algorithm closely
//! enough to serve the same queries.

use mmdr::core::{Mmdr, MmdrParams, ParConfig, ScalableMmdr};
use mmdr::datagen::{exact_knn, generate_correlated, precision, sample_queries, CorrelatedConfig};
use mmdr::idistance::{SeqScan, VectorIndex};

#[test]
fn streaming_matches_in_memory_quality() {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(8_000, 32, 6, 6, 30.0, 41));
    let params = MmdrParams::default();
    let plain = Mmdr::new(params.clone()).fit(&ds.data).unwrap();
    let streamed = ScalableMmdr::new(params)
        .with_epsilon(0.05)
        .fit(&ds.data)
        .unwrap();
    assert!(streamed.is_partition());
    assert!(
        streamed.stats.streams >= 10,
        "streams {}",
        streamed.stats.streams
    );

    let queries = sample_queries(&ds.data, 15, 2).unwrap();
    let eval = |model: &mmdr::core::ReductionResult| {
        let scan = SeqScan::build(&ds.data, model, 512).unwrap();
        let mut total = 0.0;
        for q in queries.iter_rows() {
            let exact: Vec<usize> = exact_knn(&ds.data, q, 10)
                .into_iter()
                .map(|(_, i)| i)
                .collect();
            let approx: Vec<usize> = scan
                .knn(q, 10)
                .unwrap()
                .into_iter()
                .map(|(_, id)| id as usize)
                .collect();
            total += precision(&exact, &approx);
        }
        total / queries.rows() as f64
    };
    let p_plain = eval(&plain);
    let p_streamed = eval(&streamed);
    assert!(
        p_streamed > p_plain - 0.1,
        "streamed {p_streamed:.3} vs plain {p_plain:.3}"
    );
}

#[test]
fn streaming_is_deterministic() {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(3_000, 16, 4, 4, 20.0, 5));
    let a = ScalableMmdr::new(MmdrParams::default())
        .with_epsilon(0.1)
        .fit(&ds.data)
        .unwrap();
    let b = ScalableMmdr::new(MmdrParams::default())
        .with_epsilon(0.1)
        .fit(&ds.data)
        .unwrap();
    assert_eq!(a.clusters.len(), b.clusters.len());
    assert_eq!(a.outliers, b.outliers);
    for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
        assert_eq!(ca.members, cb.members);
    }
}

/// The streaming pipeline runs its clustering through the parallel
/// execution layer; chunk-and-merge must make the fitted model — members,
/// subspaces and radii — bit-identical at every thread count.
#[test]
fn streaming_clustering_is_thread_count_invariant() {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(3_000, 16, 4, 4, 20.0, 5));
    let run = |threads: usize| {
        ScalableMmdr::new(MmdrParams {
            par: ParConfig::threads(threads),
            ..Default::default()
        })
        .with_epsilon(0.1)
        .fit(&ds.data)
        .unwrap()
    };
    let base = run(1);
    for threads in [2usize, 4, 8] {
        let r = run(threads);
        assert_eq!(r.outliers, base.outliers, "threads={threads}");
        assert_eq!(r.clusters.len(), base.clusters.len(), "threads={threads}");
        for (ci, (a, b)) in r.clusters.iter().zip(&base.clusters).enumerate() {
            assert_eq!(a.members, b.members, "threads={threads} cluster={ci}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(a.subspace.centroid()),
                bits(b.subspace.centroid()),
                "threads={threads} cluster={ci} centroid"
            );
            assert_eq!(
                bits(a.subspace.basis().as_slice()),
                bits(b.subspace.basis().as_slice()),
                "threads={threads} cluster={ci} basis"
            );
            assert_eq!(
                bits(&[
                    a.mpe,
                    a.radius_eliminated,
                    a.radius_retained,
                    a.nearest_radius
                ]),
                bits(&[
                    b.mpe,
                    b.radius_eliminated,
                    b.radius_retained,
                    b.nearest_radius
                ]),
                "threads={threads} cluster={ci} radii"
            );
        }
    }
}
