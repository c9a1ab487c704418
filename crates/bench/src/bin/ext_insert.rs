//! Extension experiment — dynamic insertion (paper §5 defines the
//! machinery but omits the experiment "due to page limit"; this supplies
//! it).
//!
//! Builds the index on half the dataset, inserts the other half point by
//! point through `BuiltIndex::insert` — the live write path: each point is
//! routed by the model and kept beside the static tree, in the delta every
//! search scans — and tracks insert throughput plus 10-NN precision drift
//! over base and delta: inserted points join existing subspaces via the β
//! test, so precision should stay near the bulk-built level while the
//! outlier partition absorbs the stragglers.

use mmdr_bench::{eval, workloads, Args, Method, Report};
use mmdr_core::PointAssignment;
use mmdr_datagen::{exact_knn, precision, sample_queries};
use mmdr_idistance::{BuiltIndex, IDistanceIndex};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let n = args.n.unwrap_or_else(|| args.pick(2_000, 20_000, 100_000));
    let queries = args.queries.unwrap_or_else(|| args.pick(10, 50, 100));
    let k = args.k.unwrap_or(10);
    let raw = workloads::synthetic(n, 64, 10, 30.0, args.seed);
    // The generator emits rows cluster by cluster; deal even rows to the
    // build half and odd rows to the insert half so both cover every
    // cluster (inserting entire unseen clusters would measure novelty
    // detection, not insertion).
    let mut dealt: Vec<usize> = (0..raw.data.rows()).step_by(2).collect();
    dealt.extend((1..raw.data.rows()).step_by(2));
    let ds = mmdr_datagen::GeneratedDataset {
        data: raw.data.select_rows(&dealt),
        labels: Vec::new(),
    };
    let half = n / 2;
    let first: Vec<usize> = (0..half).collect();
    let base_data = ds.data.select_rows(&first);

    let model = eval::reduce(Method::Mmdr, &base_data, None, 10, args.seed);
    let base = IDistanceIndex::build(&base_data, &model, 256).expect("index build");
    // Outliers among the stored rows: the base's outlier partition, then
    // every insert the model routes there.
    let mut outliers = base.partitions().last().map_or(0, |p| p.count);
    let built = BuiltIndex::IDistance(Box::new(base));
    let index = built.as_dyn();

    let mut report = Report::new(
        "ext_insert",
        "Dynamic insertion: precision and throughput vs inserted fraction",
        "inserted_fraction",
        &["precision", "inserts_per_sec", "outlier_pct"],
        format!(
            "n={n} dim=64 base={half} queries={queries} k={k} seed={}",
            args.seed
        ),
    );

    let qs = sample_queries(&ds.data, queries, args.seed ^ 0xC1).expect("queries");
    let checkpoints = [0.0, 0.25, 0.5, 0.75, 1.0];
    let batch = (half / 4).max(1);
    let mut inserted = 0usize;
    for (ci, &frac) in checkpoints.iter().enumerate() {
        if ci > 0 {
            let start = Instant::now();
            for j in 0..batch {
                let idx = half + inserted + j;
                if idx >= n {
                    break;
                }
                let routed = built
                    .insert(&model, idx as u64, ds.data.row(idx))
                    .expect("insert");
                outliers += usize::from(routed == PointAssignment::Outlier);
            }
            let elapsed = start.elapsed().as_secs_f64();
            inserted += batch;
            eprintln!(
                "batch {ci}: {batch} inserts in {elapsed:.2}s ({:.0}/s)",
                batch as f64 / elapsed
            );
            // Precision over the points present so far.
            let present = half + inserted.min(n - half);
            let present_rows: Vec<usize> = (0..present).collect();
            let present_data = ds.data.select_rows(&present_rows);
            let mut total = 0.0;
            for q in qs.iter_rows() {
                let exact: Vec<usize> = exact_knn(&present_data, q, k)
                    .into_iter()
                    .map(|(_, i)| i)
                    .collect();
                let approx: Vec<usize> = index
                    .knn(q, k)
                    .expect("knn")
                    .into_iter()
                    .map(|(_, id)| id as usize)
                    .collect();
                total += precision(&exact, &approx);
            }
            report.push(
                frac,
                vec![
                    total / qs.rows() as f64,
                    batch as f64 / elapsed,
                    100.0 * outliers as f64 / index.len() as f64,
                ],
            );
        } else {
            // Baseline precision on the bulk-built half.
            let mut total = 0.0;
            for q in qs.iter_rows() {
                let exact: Vec<usize> = exact_knn(&base_data, q, k)
                    .into_iter()
                    .map(|(_, i)| i)
                    .collect();
                let approx: Vec<usize> = index
                    .knn(q, k)
                    .expect("knn")
                    .into_iter()
                    .map(|(_, id)| id as usize)
                    .collect();
                total += precision(&exact, &approx);
            }
            report.push(
                frac,
                vec![
                    total / qs.rows() as f64,
                    f64::NAN,
                    100.0 * outliers as f64 / index.len() as f64,
                ],
            );
        }
    }
    report.emit();
}
