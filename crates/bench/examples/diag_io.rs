//! Where an iDistance query's page fetches go: 10-NN over a correlated
//! dataset, each query's fetches split between the B⁺-tree's pool (leaves)
//! and the heap's (records), beside a sequential scan's reads; and each
//! query's rows refined beside the floor of refinement in bound order — the
//! rows whose two bounds (ring and cell code) lie within the final 10th
//! distance, which no order of refinement can spare. A query on the floor
//! refines exactly those.
//!
//!     cargo run --release -p mmdr-bench --example diag_io
use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{IDistanceIndex, SeqScan, VectorIndex};

const K: usize = 10;

/// How many stored rows of `index` have both bounds within `radius` of
/// `q`: the ring bound of their leaf (its key range clamped to the
/// partition's annulus) and their cell code's, worked out as the search
/// works them out. Reads every leaf and record of `index`.
fn rows_within_both_bounds(index: &IDistanceIndex, q: &[f64], radius: f64) -> usize {
    // Per partition: the query's image in key space, its squared distance
    // to the subspace and its gap table.
    let geometry: Vec<(f64, f64, Vec<f64>)> = (index.partitions().iter().enumerate())
        .map(|(i, part)| {
            let (local, proj_sq) = match &part.subspace {
                Some(subspace) => {
                    let mut local = Vec::new();
                    let proj_dist = subspace.project_into(q, &mut local).unwrap();
                    (local, proj_dist * proj_dist)
                }
                None => (q.to_vec(), 0.0),
            };
            let dist_q = match &part.subspace {
                Some(_) => mmdr::linalg::l2_norm(&local),
                None => mmdr::linalg::l2_dist(q, &part.centroid),
            };
            let mut gaps = Vec::new();
            if let Some(book) = &part.codebook {
                book.gaps_into(&local, &mut gaps, &mut Vec::new());
            }
            (i as f64 * index.c() + dist_q, proj_sq, gaps)
        })
        .collect();
    let (tree, heap) = (index.tree(), index.heap());
    let mut cursor = tree.seek(0.0).unwrap();
    let mut within = 0;
    while let Some((lo, position)) = tree.cursor_next(&mut cursor).unwrap() {
        let (part, _, _) = heap.get(index.record_id(position).unwrap()).unwrap();
        let (image, proj_sq, gaps) = &geometry[part as usize];
        let info = &index.partitions()[part as usize];
        let slot = part as f64 * index.c();
        let (inner, outer) = (slot + info.min_radius, slot + info.max_radius);
        let ring = (lo.max(inner) - image)
            .max(image - cursor.key_hi().min(outer))
            .max(0.0);
        let code = info
            .codebook
            .as_ref()
            .map_or(0.0, |book| book.gap_sq(gaps, cursor.code()));
        if (proj_sq + ring * ring).sqrt() <= radius && (proj_sq + code).sqrt() <= radius {
            within += 1;
        }
    }
    within
}

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
    // The same layout again, for the floor: reading it whole must not
    // count against the index whose fetches are reported.
    let oracle = IDistanceIndex::build(&ds.data, &model, 256).unwrap();
    println!(
        "index pages={} (tree {} + heap {}) scan pages={}",
        index.total_pages(),
        index.tree().num_pages(),
        index.heap().num_pages(),
        scan.num_pages()
    );
    let queries = sample_queries(&ds.data, 10, 5).unwrap();
    let (tree_pool, heap_pool) = (index.tree().pool(), index.heap().pool());
    // Every partition's placement table, learned up front as the first
    // search to open it would: each query below counts its walk alone.
    let learning = tree_pool.snapshot();
    let mut first = 0;
    for part in index.partitions() {
        if part.count > 0 {
            index.record_id(first).unwrap();
        }
        first += part.count as u64;
    }
    let learned = tree_pool.snapshot().since(&learning).pages_touched();
    println!("placement tables learned from {learned} leaf fetches");
    let (index_before, scan_before) = (index.query_stats(), scan.query_stats());
    let (mut tree_fetches, mut heap_fetches, mut refined, mut floor) = (0, 0, 0, 0);
    for (i, q) in queries.iter_rows().enumerate() {
        let (tree_before, heap_before) = (tree_pool.snapshot(), heap_pool.snapshot());
        let before = index.query_stats();
        let hits = index.knn(q, K).unwrap();
        let tree = tree_pool.snapshot().since(&tree_before).pages_touched();
        let heap = heap_pool.snapshot().since(&heap_before).pages_touched();
        let rows = index.query_stats().since(&before).dist_computations;
        let d_k = hits.get(K - 1).map_or(f64::INFINITY, |&(d, _)| d);
        let within = rows_within_both_bounds(&oracle, q, d_k);
        println!(
            "query {i}: tree fetches {tree} heap fetches {heap} rows refined {rows} floor {within}"
        );
        (tree_fetches, heap_fetches) = (tree_fetches + tree, heap_fetches + heap);
        (refined, floor) = (refined + rows, floor + within as u64);
        scan.knn(q, K).unwrap();
    }
    let n = queries.rows() as f64;
    println!(
        "index fetches a query: tree {:.2} + heap {:.2} = {:.2}",
        tree_fetches as f64 / n,
        heap_fetches as f64 / n,
        (tree_fetches + heap_fetches) as f64 / n
    );
    println!(
        "rows refined a query {:.2}, floor {:.2}",
        refined as f64 / n,
        floor as f64 / n
    );
    let ir = index.query_stats().since(&index_before).page_reads;
    let sr = scan.query_stats().since(&scan_before).page_reads;
    println!("index reads {ir} scan reads {sr}");
}
