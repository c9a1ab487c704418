//! End-to-end pipeline: synthetic generation → MMDR → extended iDistance →
//! KNN, validated against exact linear-scan ground truth.

use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{exact_knn, generate_correlated, precision, sample_queries, CorrelatedConfig};
use mmdr::idistance::{BuiltIndex, IDistanceIndex, SeqScan, VectorIndex};

fn workload() -> mmdr::datagen::GeneratedDataset {
    generate_correlated(&CorrelatedConfig::paper_style(4_000, 32, 6, 6, 30.0, 17))
}

#[test]
fn pipeline_reaches_high_precision() {
    let ds = workload();
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    assert!(model.is_partition(), "reduction must partition the dataset");
    assert!(
        model.outlier_fraction() < 0.2,
        "outliers {:.3}",
        model.outlier_fraction()
    );
    assert!(
        model.mean_retained_dim() < 16.0,
        "mean d_r {:.1} should be well under the original 32",
        model.mean_retained_dim()
    );

    let index = IDistanceIndex::build(&ds.data, &model, 256).unwrap();
    let queries = sample_queries(&ds.data, 25, 3).unwrap();
    let mut total = 0.0;
    for q in queries.iter_rows() {
        let exact: Vec<usize> = exact_knn(&ds.data, q, 10)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        let approx: Vec<usize> = index
            .knn(q, 10)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id as usize)
            .collect();
        total += precision(&exact, &approx);
    }
    let mean = total / queries.rows() as f64;
    assert!(mean > 0.8, "mean precision {mean}");
}

#[test]
fn idistance_and_seqscan_agree_exactly() {
    // The two search schemes share distance semantics; the index is only a
    // faster route to the same answer set.
    let ds = workload();
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let index = IDistanceIndex::build(&ds.data, &model, 256).unwrap();
    let scan = SeqScan::build(&ds.data, &model, 512).unwrap();
    let queries = sample_queries(&ds.data, 15, 8).unwrap();
    for (qi, q) in queries.iter_rows().enumerate() {
        let a = index.knn(q, 10).unwrap();
        let b = scan.knn(q, 10).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x.0 - y.0).abs() < 1e-9, "query {qi}: {:?} vs {:?}", a, b);
        }
    }
}

#[test]
fn index_beats_scan_on_io() {
    let ds = workload();
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let index = IDistanceIndex::build(&ds.data, &model, 8).unwrap();
    let scan = SeqScan::build(&ds.data, &model, 4).unwrap();
    let queries = sample_queries(&ds.data, 10, 5).unwrap();
    let (index_before, scan_before) = (index.query_stats(), scan.query_stats());
    for q in queries.iter_rows() {
        index.knn(q, 10).unwrap();
        scan.knn(q, 10).unwrap();
    }
    let index_reads = index.query_stats().since(&index_before).page_reads;
    let scan_reads = scan.query_stats().since(&scan_before).page_reads;
    assert!(
        index_reads < scan_reads,
        "index {index_reads} reads vs scan {scan_reads}"
    );
}

#[test]
fn dynamic_inserts_are_immediately_visible() {
    let ds = workload();
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let index = IDistanceIndex::build(&ds.data, &model, 256).unwrap();
    let built = BuiltIndex::IDistance(Box::new(index));
    let base = ds.data.rows() as u64;
    // Insert points near an existing cluster member.
    for i in 0..20u64 {
        let mut p = ds.data.row(i as usize * 7).to_vec();
        p[0] += 1e-4;
        built.insert(&model, base + i, &p).unwrap();
    }
    let index = built.as_dyn();
    assert_eq!(index.len(), ds.data.rows() + 20);
    // The clone of row 0 must surface among its neighbours.
    let hits = index.knn(ds.data.row(0), 3).unwrap();
    assert!(
        hits.iter().any(|&(_, id)| id == base || id == 0),
        "{hits:?}"
    );
}
