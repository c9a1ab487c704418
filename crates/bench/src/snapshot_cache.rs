//! Snapshot-backed index construction for the figure harnesses.
//!
//! Building the indexes dominates harness wall-clock at paper scale; the
//! measurements themselves only need a *ready* index. With `--index-dir`
//! the harness keeps one snapshot per `(figure, parameters, backend)`
//! cache key and reopens it on subsequent runs — reopened indexes answer
//! bit-identically to built ones and count their fetches alike (see
//! `mmdr-persist`), so cached and uncached runs report the same numbers.

use mmdr_core::ReductionResult;
use mmdr_idistance::{build_index, Backend, VectorIndex};
use mmdr_linalg::Matrix;
use std::path::Path;

/// Builds the backend, or reopens it from a snapshot under `index_dir`
/// when one matches. `key` must encode every parameter the index depends
/// on (figure, dataset, n, d_r, seed, buffer pages); stale or damaged
/// snapshots are rebuilt and rewritten transparently.
pub fn build_or_open_backend(
    index_dir: Option<&str>,
    key: &str,
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    buffer_pages: usize,
) -> Box<dyn VectorIndex> {
    let fresh = || build_index(backend, data, model, buffer_pages).expect("index build");
    let Some(dir) = index_dir else {
        return fresh().into_boxed();
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create --index-dir {dir}: {e}; building fresh");
        return fresh().into_boxed();
    }
    let path = Path::new(dir).join(format!("{key}-{}.snapshot", backend.name()));
    let (index, reused) = mmdr_persist::open_or_build(&path, backend, data, model, buffer_pages)
        .expect("snapshot open/build");
    if reused {
        eprintln!("reused snapshot {}", path.display());
    }
    index.into_boxed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};

    #[test]
    fn cached_and_fresh_answers_agree() {
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                let t = i as f64 / 149.0;
                let j = ((i as f64 * 0.618_033_988).fract() - 0.5) * 0.02;
                vec![t, 0.4 * t + j, j, -j]
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams {
            max_ec: 3,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let dir = std::env::temp_dir().join(format!("mmdr-bench-cache-{}", std::process::id()));
        let dir_str = dir.to_str().unwrap().to_string();
        // First call populates the cache, second reuses it: each answers
        // as a fresh build does, and reads as many pages doing it.
        for _ in 0..2 {
            let fresh = build_or_open_backend(None, "t", Backend::IDistance, &data, &model, 32);
            let cached =
                build_or_open_backend(Some(&dir_str), "t", Backend::IDistance, &data, &model, 32);
            for row in [5, 77, 140] {
                let a = fresh.knn(data.row(row), 4).unwrap();
                let b = cached.knn(data.row(row), 4).unwrap();
                assert_eq!(a, b);
            }
            assert_eq!(
                fresh.query_stats().page_reads,
                cached.query_stats().page_reads
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
