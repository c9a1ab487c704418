//! Figure 9 — I/O cost (page accesses per query) vs. subspace
//! dimensionality, for iMMDR, iLDR, gLDR and sequential scan.
//!
//! `--dataset synthetic` → Figure 9a, `--dataset histogram` → Figure 9b.
//! Paper shape: iMMDR < iLDR < gLDR, with gLDR crossing above the
//! sequential scan around 20 dimensions.

use mmdr_bench::{build_or_open_backend, eval, workloads, Args, Method, Report};
use mmdr_datagen::sample_queries;
use mmdr_idistance::{Backend, VectorIndex};
use mmdr_linalg::Matrix;

fn main() {
    let args = Args::from_env();
    let dataset = args
        .dataset
        .clone()
        .unwrap_or_else(|| "synthetic".to_string());
    let queries = args.queries.unwrap_or_else(|| args.pick(10, 50, 100));
    let k = args.k.unwrap_or(10);

    let (data, n, fig) = load(&args, &dataset);
    let qs = sample_queries(&data, queries, args.seed ^ 0x90).expect("queries");
    // A buffer big enough for the hot path (internal nodes) but far smaller
    // than the data, as on the paper's 256 MB machine.
    let buffer_pages = 64;

    let mut report = Report::new(
        fig,
        &format!("I/O cost vs dimensionality ({dataset})"),
        "retained_dims",
        &["iMMDR", "iLDR", "gLDR", "seq-scan"],
        format!(
            "n={n} queries={queries} k={k} buffer_pages={buffer_pages} seed={}",
            args.seed
        ),
    );

    for &d_r in &[10usize, 15, 20, 25, 30] {
        let mmdr_model = eval::reduce(Method::Mmdr, &data, Some(d_r), 10, args.seed);
        let ldr_model = eval::reduce(Method::Ldr, &data, Some(d_r), 10, args.seed);

        // Every series is a VectorIndex; the measurement loop below is
        // backend-agnostic. iMMDR/iLDR differ only in the reduction; the
        // scan uses the MMDR layout. With --index-dir each (method, d_r)
        // index is snapshotted and reopened on later runs.
        let dir = args.index_dir.as_deref();
        let key = |method: &str| {
            format!(
                "{fig}-{dataset}-{method}-n{n}-dr{d_r}-seed{}-bp{buffer_pages}",
                args.seed
            )
        };
        let series: Vec<Box<dyn VectorIndex>> = vec![
            build_or_open_backend(
                dir,
                &key("mmdr"),
                Backend::IDistance,
                &data,
                &mmdr_model,
                buffer_pages,
            ),
            build_or_open_backend(
                dir,
                &key("ldr"),
                Backend::IDistance,
                &data,
                &ldr_model,
                buffer_pages,
            ),
            build_or_open_backend(
                dir,
                &key("ldr"),
                Backend::Gldr,
                &data,
                &ldr_model,
                buffer_pages,
            ),
            build_or_open_backend(
                dir,
                &key("mmdr"),
                Backend::SeqScan,
                &data,
                &mmdr_model,
                buffer_pages,
            ),
        ];
        let ios: Vec<f64> = series.iter().map(|b| mean_io(&qs, k, b.as_ref())).collect();

        report.push(d_r as f64, ios);
        eprintln!("d_r {d_r} done");
    }
    report.emit();
}

fn load(args: &Args, dataset: &str) -> (Matrix, usize, &'static str) {
    match dataset {
        "synthetic" => {
            let n = args.n.unwrap_or_else(|| args.pick(2_000, 20_000, 100_000));
            (
                workloads::synthetic(n, 64, 10, 30.0, args.seed).data,
                n,
                "fig9a",
            )
        }
        "histogram" => {
            let n = args.n.unwrap_or_else(|| args.pick(2_000, 20_000, 70_000));
            (workloads::histogram(n, args.seed), n, "fig9b")
        }
        other => {
            eprintln!("unknown --dataset {other}; use synthetic or histogram");
            std::process::exit(2);
        }
    }
}

/// Mean page reads (buffer-pool misses) per query for any backend.
fn mean_io(queries: &Matrix, k: usize, index: &dyn VectorIndex) -> f64 {
    let before = index.query_stats();
    for q in queries.iter_rows() {
        index.knn(q, k).expect("knn");
    }
    index.query_stats().since(&before).page_reads as f64 / queries.rows() as f64
}
