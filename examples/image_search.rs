//! Image search over color histograms — the paper's motivating workload.
//!
//! Generates a Corel-like 64-d color-histogram collection (skewed dominant
//! colors, many zero bins, loose themes), reduces it with MMDR, and runs an
//! interactive-style "find similar images" loop, comparing answer quality
//! and I/O against a sequential scan of the reduced data.
//!
//! ```sh
//! cargo run --release --example image_search
//! ```

use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{exact_knn, generate_histograms, precision, HistogramConfig};
use mmdr::idistance::{BuiltIndex, IDistanceIndex, SeqScan, VectorIndex};

fn main() {
    // A scaled-down Corel stand-in: 10 000 "images", 64 color bins.
    let config = HistogramConfig {
        n: 10_000,
        seed: 11,
        ..Default::default()
    };
    let images = generate_histograms(&config).expect("histogram generation");
    println!(
        "collection: {} images × {} color bins",
        images.rows(),
        images.cols()
    );

    // Real histogram data is weakly correlated with many outliers (§6.1);
    // loosen β a little so the clusters keep their members.
    let model = Mmdr::new(MmdrParams {
        beta: 0.3,
        ..Default::default()
    })
    .fit(&images)
    .expect("reduction");
    println!(
        "MMDR: {} clusters, {:.1}% outliers, mean retained dim {:.1}",
        model.clusters.len(),
        100.0 * model.outlier_fraction(),
        model.mean_retained_dim()
    );

    let index = IDistanceIndex::build(&images, &model, 256).expect("index");
    let scan = SeqScan::build(&images, &model, 64).expect("scan");

    // "Find images similar to #123, #4567, #9000" — the interactive loop.
    for &query_id in &[123usize, 4_567, 9_000] {
        let q = images.row(query_id);
        let (index_before, scan_before) = (index.query_stats(), scan.query_stats());
        let hits = index.knn(q, 10).expect("knn");
        let _ = scan.knn(q, 10).expect("scan knn");
        let exact: Vec<usize> = exact_knn(&images, q, 10)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        let approx: Vec<usize> = hits.iter().map(|&(_, id)| id as usize).collect();
        println!(
            "image #{query_id}: top match #{} (dist {:.4}), precision {:.2}, \
             index reads {} vs scan reads {}",
            hits[0].1,
            hits[0].0,
            precision(&exact, &approx),
            index.query_stats().since(&index_before).page_reads,
            scan.query_stats().since(&scan_before).page_reads,
        );
    }

    // New images arrive: the model routes each one, and it is searchable
    // at once beside the bulk-loaded tree, until a rebuild folds it in.
    let new_images = generate_histograms(&HistogramConfig {
        n: 5,
        seed: 99,
        ..Default::default()
    })
    .expect("new images");
    let built = BuiltIndex::IDistance(Box::new(index));
    for (i, row) in new_images.iter_rows().enumerate() {
        built
            .insert(&model, (images.rows() + i) as u64, row)
            .expect("dynamic insert");
    }
    println!(
        "inserted {} new images; index now holds {}",
        new_images.rows(),
        built.as_dyn().len()
    );
}
