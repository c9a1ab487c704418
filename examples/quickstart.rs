//! Quickstart: reduce a locally-correlated dataset with MMDR, index the
//! result with the extended iDistance, and answer a 10-NN query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{exact_knn, precision, sample_queries};
use mmdr::datagen::{generate_correlated, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, VectorIndex};

fn main() {
    // 1. A synthetic workload: 5 000 points in 32-d, five clusters that are
    //    each correlated inside their own low-dimensional subspace.
    let config = CorrelatedConfig::paper_style(
        5_000, // points
        32,    // original dimensionality
        5,     // clusters
        6,     // retained dims per cluster
        25.0,  // ellipticity (variance ratio retained/eliminated)
        42,    // seed
    );
    let dataset = generate_correlated(&config);
    println!(
        "dataset: {} points × {} dims",
        dataset.data.rows(),
        dataset.data.cols()
    );

    // 2. Run MMDR with the paper's Table 1 defaults.
    let model = Mmdr::new(MmdrParams::default())
        .fit(&dataset.data)
        .expect("reduction");
    println!(
        "MMDR: {} elliptical clusters, {:.1}% outliers, mean retained dim {:.1} (of {})",
        model.clusters.len(),
        100.0 * model.outlier_fraction(),
        model.mean_retained_dim(),
        model.dim
    );
    for (i, c) in model.clusters.iter().enumerate() {
        println!(
            "  cluster {i}: {} points, d_r = {}, MPE = {:.4}, ellipticity = {:.1}",
            c.len(),
            c.reduced_dim(),
            c.mpe,
            c.ellipticity
        );
    }

    // 3. Index every reduced subspace in one B+-tree. A small buffer pool
    //    makes the logical I/O of the query phase visible.
    let index = IDistanceIndex::build(&dataset.data, &model, 32).expect("index build");
    println!(
        "extended iDistance: {} partitions, c = {:.3}, {} pages",
        index.partitions().len(),
        index.c(),
        index.total_pages()
    );

    // 4. Answer 10-NN queries and compare against an exact linear scan in
    //    the original space (the paper's precision metric).
    let queries = sample_queries(&dataset.data, 20, 7).expect("queries");
    let before = index.query_stats();
    let mut total_precision = 0.0;
    for q in queries.iter_rows() {
        let approx: Vec<usize> = index
            .knn(q, 10)
            .expect("knn")
            .into_iter()
            .map(|(_, id)| id as usize)
            .collect();
        let exact: Vec<usize> = exact_knn(&dataset.data, q, 10)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        total_precision += precision(&exact, &approx);
    }
    println!(
        "mean 10-NN precision over {} queries: {:.3}",
        queries.rows(),
        total_precision / queries.rows() as f64
    );
    println!(
        "logical page reads during the query phase: {}",
        index.query_stats().since(&before).page_reads
    );
}
