//! Where an iDistance query's page fetches go: 10-NN over a correlated
//! dataset, each query's fetches split between the B⁺-tree's pool (leaves)
//! and the heap's (records), beside a sequential scan's reads.
//!
//!     cargo run --release -p mmdr-bench --example diag_io
use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, SeqScan, VectorIndex};
fn main() {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(4_000, 32, 6, 6, 30.0, 17));
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    println!(
        "clusters={} outliers={:.3} mean_dr={:.1}",
        model.clusters.len(),
        model.outlier_fraction(),
        model.mean_retained_dim()
    );
    let index = IDistanceIndex::build(&ds.data, &model, 8).unwrap();
    let scan = SeqScan::build(&ds.data, &model, 4).unwrap();
    println!(
        "index pages={} (tree {} + heap {}) scan pages={}",
        index.total_pages(),
        index.tree().num_pages(),
        index.heap().num_pages(),
        scan.num_pages()
    );
    let queries = sample_queries(&ds.data, 10, 5).unwrap();
    let (index_before, scan_before) = (index.query_stats(), scan.query_stats());
    let (tree_pool, heap_pool) = (index.tree().pool(), index.heap().pool());
    let (mut tree_fetches, mut heap_fetches) = (0, 0);
    for (i, q) in queries.iter_rows().enumerate() {
        let (tree_before, heap_before) = (tree_pool.snapshot(), heap_pool.snapshot());
        index.knn(q, 10).unwrap();
        let tree = tree_pool.snapshot().since(&tree_before).pages_touched();
        let heap = heap_pool.snapshot().since(&heap_before).pages_touched();
        println!("query {i}: tree fetches {tree} heap fetches {heap}");
        (tree_fetches, heap_fetches) = (tree_fetches + tree, heap_fetches + heap);
        scan.knn(q, 10).unwrap();
    }
    let n = queries.rows() as f64;
    println!(
        "index fetches a query: tree {:.2} + heap {:.2} = {:.2}",
        tree_fetches as f64 / n,
        heap_fetches as f64 / n,
        (tree_fetches + heap_fetches) as f64 / n
    );
    let ir = index.query_stats().since(&index_before).page_reads;
    let sr = scan.query_stats().since(&scan_before).page_reads;
    println!("index reads {ir} scan reads {sr}");
}
