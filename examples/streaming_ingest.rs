//! Streaming ingestion with Scalable MMDR (§4.3) — reducing a dataset too
//! large for the buffer by processing ε-sized data streams, then serving
//! KNN queries over the merged model.
//!
//! ```sh
//! cargo run --release --example streaming_ingest
//! ```

use mmdr::core::{Mmdr, MmdrParams, ScalableMmdr};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, VectorIndex};
use std::time::Instant;

fn main() {
    // 60 000 × 50-d: big enough that the streaming path matters.
    let config = CorrelatedConfig::paper_style(60_000, 50, 8, 8, 30.0, 7);
    let dataset = generate_correlated(&config);
    println!("dataset: {} × {}", dataset.data.rows(), dataset.data.cols());

    let params = MmdrParams::default();

    // Plain in-memory MMDR (needs the whole dataset resident)…
    let start = Instant::now();
    let plain = Mmdr::new(params.clone())
        .fit(&dataset.data)
        .expect("plain fit");
    let t_plain = start.elapsed();

    // …vs. the streaming variant with the paper's ε = 0.005 (300-point
    // streams): only one stream plus the Ellipsoid Array is ever resident.
    let start = Instant::now();
    let streamed = ScalableMmdr::new(params)
        .fit(&dataset.data)
        .expect("streamed fit");
    let t_streamed = start.elapsed();

    println!(
        "plain MMDR:    {:>6.2?}  → {} clusters, {:.1}% outliers",
        t_plain,
        plain.clusters.len(),
        100.0 * plain.outlier_fraction()
    );
    println!(
        "scalable MMDR: {:>6.2?}  → {} clusters, {:.1}% outliers, {} streams",
        t_streamed,
        streamed.clusters.len(),
        100.0 * streamed.outlier_fraction(),
        streamed.stats.streams
    );

    // The streamed model serves queries exactly like the in-memory one.
    let index = IDistanceIndex::build(&dataset.data, &streamed, 256).expect("index");
    let queries = sample_queries(&dataset.data, 5, 3).expect("queries");
    for (qi, q) in queries.iter_rows().enumerate() {
        let hits = index.knn(q, 5).expect("knn");
        let ids: Vec<u64> = hits.iter().map(|&(_, id)| id).collect();
        println!("query {qi}: 5-NN ids {ids:?}");
    }
}
