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
        "index pages={} scan pages={}",
        index.total_pages(),
        scan.num_pages()
    );
    let queries = sample_queries(&ds.data, 10, 5).unwrap();
    let (index_before, scan_before) = (index.query_stats(), scan.query_stats());
    for q in queries.iter_rows() {
        index.knn(q, 10).unwrap();
        scan.knn(q, 10).unwrap();
    }
    let ir = index.query_stats().since(&index_before).page_reads;
    let sr = scan.query_stats().since(&scan_before).page_reads;
    println!("index reads {ir} scan reads {sr}");
}
