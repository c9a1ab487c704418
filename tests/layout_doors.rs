//! The one-layout gate: every backend has one loader and one reader of its
//! stored form, and the three doors onto the loader — build, merge fold,
//! re-fit attach — only resolve rows. So, for all four backends, over a
//! model with outliers and one without:
//!
//! (a) folding no operations reproduces the base's snapshot byte for byte;
//! (b) attaching the exact rows keyed by id saves the same bytes as
//!     building over them as a matrix;
//! (c) the rows read back from a build are `restore(project(row))`,
//!     bitwise, for every id.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::{Backend, IDistanceConfig};
use mmdr_linalg::Matrix;
use mmdr_persist::{attach, build_index, fold, materialize_rows, save, BuiltIndex};
use std::collections::BTreeMap;

const PAGES: usize = 128;

/// Two elongated clusters, deterministic; every 17th step adds an
/// off-plane row no cluster absorbs when `with_outliers`.
fn dataset(with_outliers: bool) -> Matrix {
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
    for i in 0..150 {
        let t = i as f64 / 150.0;
        rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
        rows.push(vec![
            5.0 + jit(i, 0.1),
            5.0 + jit(i, 0.9),
            5.0 + t,
            5.0 - 0.5 * t,
        ]);
        if with_outliers && i % 17 == 0 {
            rows.push(vec![-3.0 - t, 8.0 + t, -5.0, 9.0 - t]);
        }
    }
    Matrix::from_rows(&rows).unwrap()
}

/// Both fixtures: `(data, model)` with at least one outlier, and with none.
fn fixtures() -> Vec<(Matrix, ReductionResult)> {
    [true, false]
        .into_iter()
        .map(|with_outliers| {
            let data = dataset(with_outliers);
            let model = Mmdr::new(MmdrParams {
                max_ec: 4,
                ..Default::default()
            })
            .fit(&data)
            .unwrap();
            assert_eq!(
                !model.outliers.is_empty(),
                with_outliers,
                "fixture must {} outliers",
                if with_outliers { "have" } else { "lack" }
            );
            assert!(!model.clusters.is_empty());
            (data, model)
        })
        .collect()
}

/// The bytes `save` writes for `index`.
fn snapshot_bytes(index: &BuiltIndex, model: &ReductionResult, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "mmdr-layout-doors-{}-{tag}.mmdr",
        std::process::id()
    ));
    save(&path, index, model).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn folding_nothing_reproduces_the_snapshot() {
    for (fi, (data, model)) in fixtures().iter().enumerate() {
        for backend in Backend::all() {
            let tag = format!("fold-{fi}-{}", backend.name());
            let base = build_index(backend, data, model, PAGES).unwrap();
            let folded = fold(&base, model, &[], PAGES).unwrap();
            assert!(
                snapshot_bytes(&base, model, &tag) == snapshot_bytes(&folded, model, &tag),
                "{tag}: a no-op fold must save the base's bytes"
            );
        }
    }
}

#[test]
fn attach_over_exact_rows_saves_what_build_saves() {
    for (fi, (data, model)) in fixtures().iter().enumerate() {
        let rows: BTreeMap<u64, Vec<f64>> = (0..data.rows())
            .map(|i| (i as u64, data.row(i).to_vec()))
            .collect();
        for backend in Backend::all() {
            let tag = format!("attach-{fi}-{}", backend.name());
            let built = build_index(backend, data, model, PAGES).unwrap();
            // The configuration `build_index` gives iDistance.
            let config = IDistanceConfig {
                buffer_pages: PAGES,
                ..Default::default()
            };
            let attached = attach(backend, model, &rows, PAGES, config).unwrap();
            assert!(
                snapshot_bytes(&built, model, &tag) == snapshot_bytes(&attached, model, &tag),
                "{tag}: attach over the build's rows must save the build's bytes"
            );
        }
    }
}

#[test]
fn rows_read_back_are_the_restored_projections() {
    for (fi, (data, model)) in fixtures().iter().enumerate() {
        let mut want: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for cluster in &model.clusters {
            for &pid in &cluster.members {
                let local = cluster.subspace.project(data.row(pid)).unwrap();
                want.insert(pid as u64, cluster.subspace.restore(&local).unwrap());
            }
        }
        for &pid in &model.outliers {
            want.insert(pid as u64, data.row(pid).to_vec());
        }
        assert_eq!(want.len(), data.rows());
        for backend in Backend::all() {
            let built = build_index(backend, data, model, PAGES).unwrap();
            let got = materialize_rows(&built, model).unwrap();
            assert_eq!(got.len(), want.len(), "fixture {fi}, {}", backend.name());
            for (id, row) in &want {
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    bits(&got[id]),
                    bits(row),
                    "fixture {fi}, {}: id {id}",
                    backend.name()
                );
            }
        }
    }
}
