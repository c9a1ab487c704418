//! Golden recall gate: the extended iDistance index must return *exactly*
//! the neighbours the sequential scan returns (100 % recall at k = 10 over
//! the reduced representations), serially and through the concurrent batch
//! path.

use mmdr::core::{Mmdr, MmdrParams, ParConfig};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, SeqScan, VectorIndex};

const K: usize = 10;

#[test]
fn index_has_full_recall_against_seqscan_serial_and_parallel() {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(2_500, 32, 5, 6, 30.0, 31));
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let index = IDistanceIndex::build(&ds.data, &model, 256).unwrap();
    let scan = SeqScan::build(&ds.data, &model, 512).unwrap();
    let queries: Vec<Vec<f64>> = sample_queries(&ds.data, 30, 11)
        .unwrap()
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();

    // Reference: the scan's k-NN id set per query (both schemes measure
    // distances to the same reduced representations, so the index must
    // recover every reference id — ties at the k-th distance excepted,
    // where any same-distance id is an equally correct answer).
    let reference: Vec<Vec<(f64, u64)>> = queries.iter().map(|q| scan.knn(q, K).unwrap()).collect();

    let check = |label: &str, results: &[Vec<(f64, u64)>]| {
        for (qi, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(got.len(), want.len(), "{label} query {qi}: result size");
            let kth = want.last().unwrap().0;
            let mut recalled = 0;
            for &(_, id) in want {
                let matched = got.iter().any(|&(gd, gid)| {
                    gid == id || (gd - kth).abs() < 1e-9 // tie at the boundary
                });
                if matched {
                    recalled += 1;
                }
            }
            assert_eq!(
                recalled,
                want.len(),
                "{label} query {qi}: recall {recalled}/{} (got {got:?}, want {want:?})",
                want.len()
            );
            // Distances must agree to within float noise, pairwise in rank
            // order — 100 % recall in the metric the paper plots.
            for ((gd, _), (wd, _)) in got.iter().zip(want) {
                assert!(
                    (gd - wd).abs() < 1e-9,
                    "{label} query {qi}: distance drift {gd} vs {wd}"
                );
            }
        }
    };

    // Serial path.
    let serial: Vec<Vec<(f64, u64)>> = queries.iter().map(|q| index.knn(q, K).unwrap()).collect();
    check("serial", &serial);

    // Concurrent batch path at four workers.
    let batch = index
        .batch_knn(&queries, K, &ParConfig::threads(4))
        .unwrap();
    check("batch(threads=4)", &batch);

    // And the two index paths are bit-identical to each other.
    for (qi, (s, b)) in serial.iter().zip(&batch).enumerate() {
        assert_eq!(s, b, "query {qi}: serial vs batch divergence");
    }
}
