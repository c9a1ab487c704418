//! The one-layout gate: every backend has one loader and one reader of its
//! stored form, and the three doors onto the loader — build, merge fold,
//! re-fit attach — only resolve rows. So, for all three backends, over a
//! model with outliers and one without:
//!
//! (a) folding no operations reproduces the base's snapshot byte for byte;
//! (b) attaching the exact rows keyed by id saves the same bytes as
//!     building over them as a matrix;
//! (c) the rows read back from a build are `restore(project(row))` of
//!     the projection as stored, each coordinate its nearest `f32`
//!     ([`stored_values`]), bitwise, for every id;
//!
//! and for iDistance, whose leaf entries name their records by position,
//! (d) entry `n` of the tree, walked from its first leaf, holds the row key
//!     order lays out there and resolves to its record, and each
//!     partition's records fill a page run of their own in Hilbert order of
//!     their codes — through every door, built and reopened, to the same
//!     record ids.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::{
    load_exact, restored_rows, stored_rows, stored_values, Backend, RecordIds, VectorHeap,
};
use mmdr_index::IngestOp;
use mmdr_linalg::Matrix;
use mmdr_persist::{
    build_index, extend_model, fold, open_with, refit_model, save, BuiltIndex, OpenOptions,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// The re-fit's door: `backend` loaded from `model` over id-keyed rows.
fn attach(backend: Backend, model: &ReductionResult, rows: &BTreeMap<u64, Vec<f64>>) -> BuiltIndex {
    load_exact(backend, model, PAGES, |id| rows.get(&id).map(Vec::as_slice)).unwrap()
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
            let attached = attach(backend, model, &rows);
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
                let mut local = cluster.subspace.project(data.row(pid)).unwrap();
                stored_values(&mut local).unwrap();
                want.insert(pid as u64, cluster.subspace.restore(&local).unwrap());
            }
        }
        for &pid in &model.outliers {
            let mut row = data.row(pid).to_vec();
            stored_values(&mut row).unwrap();
            want.insert(pid as u64, row);
        }
        assert_eq!(want.len(), data.rows());
        for backend in Backend::all() {
            let built = build_index(backend, data, model, PAGES).unwrap();
            let got = restored_rows(&built, model).unwrap();
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

/// The `(partition, id, key bits)` of every row `index` stores, in key
/// order worked out from `model` alone: partition after partition —
/// clusters in model order, then the outliers — each partition's members
/// in member order, stably sorted by key: the tree's entry `n` holds its
/// `n`-th row.
fn laid_out(index: &BuiltIndex, model: &ReductionResult) -> Vec<(usize, u64, u64)> {
    let BuiltIndex::IDistance(idx) = index else {
        panic!("an iDistance index");
    };
    let mut stored = stored_rows(index).unwrap();
    let reference = &idx.partitions().last().unwrap().centroid;
    let members = model.clusters.iter().map(|c| &c.members);
    let mut rows = Vec::new();
    for (part, members) in members.chain([&model.outliers]).enumerate() {
        let mut keyed: Vec<(f64, u64)> = members
            .iter()
            .filter_map(|&pid| {
                let coords = stored.remove(&(pid as u64))?;
                let dist = match part < model.clusters.len() {
                    true => mmdr_linalg::l2_norm(&coords),
                    false => mmdr_linalg::l2_dist(&coords, reference),
                };
                Some((dist, pid as u64))
            })
            .collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        rows.extend(
            keyed
                .into_iter()
                .map(|(dist, id)| (part, id, (part as f64 * idx.c() + dist).to_bits())),
        );
    }
    assert!(stored.is_empty(), "every stored row is a member");
    rows
}

/// Which partition shapes the position gate has met.
#[derive(Debug, Default)]
struct Shapes {
    empty: bool,
    one_row: bool,
    /// Full heap pages, then a partial one.
    partial_last_page: bool,
    /// Outliers stored at the model's full width.
    full_width_outliers: bool,
}

/// Walks `index`'s tree from its first leaf: entry `n` is at position `n`
/// and holds the row `want` lays out `n`-th — leaves in key order — with its
/// exact key in its leaf's range `[lo, hi]`; and its rid, resolved by
/// `record_id` and again through a [`RecordIds`], reads that row. Each
/// partition's records, in slot order, start a heap page of their own and
/// fill its run page after page, in ascending `(hilbert(code), position)`.
/// Returns every position's rid.
fn assert_positions_name_their_rows(
    index: &BuiltIndex,
    want: &[(usize, u64, u64)],
    tag: &str,
) -> Vec<u64> {
    let BuiltIndex::IDistance(idx) = index else {
        panic!("an iDistance index");
    };
    let tree = idx.tree();
    let mut cursor = tree.seek(f64::MIN).unwrap();
    let mut ids = RecordIds::default();
    let mut rids = Vec::with_capacity(want.len());
    // Per partition: (rid, Hilbert index, position) of each of its entries.
    let mut records = vec![Vec::new(); idx.partitions().len()];
    while let Some((lo, position)) = tree.cursor_next(&mut cursor).unwrap() {
        let n = rids.len();
        assert_eq!(position, n as u64, "{tag}");
        let rid = idx.record_id(position).unwrap();
        assert_eq!(rid, ids.get(idx, position), "{tag}: entry {n}");
        let (part, id, _) = idx.heap().get(rid).unwrap();
        let (want_part, want_id, key) = want[n];
        assert_eq!(
            (part as usize, id),
            (want_part, want_id),
            "{tag}: entry {n}"
        );
        let (key, hi) = (f64::from_bits(key), cursor.key_hi());
        assert!(
            lo <= key && key <= hi,
            "{tag}: entry {n}, {key} not in [{lo}, {hi}]"
        );
        let book = idx.partitions()[want_part].codebook.as_ref().unwrap();
        records[want_part].push((rid, book.hilbert(cursor.code()), position));
        rids.push(rid);
    }
    assert_eq!(rids.len(), want.len(), "{tag}");
    let mut pages_before = 0;
    for (part, mut records) in records.into_iter().enumerate() {
        let info = &idx.partitions()[part];
        let width = info
            .subspace
            .as_ref()
            .map_or(idx.dim(), |s| s.reduced_dim());
        let per_page = VectorHeap::page_capacity(width) as u64;
        records.sort_unstable();
        let start = records.first().map_or(pages_before, |r| r.0 >> 16);
        assert!(
            start >= pages_before,
            "{tag}: partition {part} shares a page"
        );
        for (k, pair) in (0u64..).zip(&records) {
            let slot = ((start + k / per_page) << 16) | (k % per_page);
            assert_eq!(pair.0, slot, "{tag}: partition {part}, record {k}");
        }
        for pair in records.windows(2) {
            assert!(
                (pair[0].1, pair[0].2) < (pair[1].1, pair[1].2),
                "{tag}: partition {part}, positions {} and {} out of Hilbert order",
                pair[0].2,
                pair[1].2
            );
        }
        pages_before = start + (records.len() as u64).div_ceil(per_page);
    }
    assert!(
        idx.record_id(rids.len() as u64).is_err(),
        "{tag}: no entry past the last"
    );
    rids
}

fn note_shapes(index: &BuiltIndex, model: &ReductionResult, shapes: &mut Shapes) {
    let BuiltIndex::IDistance(idx) = index else {
        panic!("an iDistance index");
    };
    for p in idx.partitions() {
        let width = p.subspace.as_ref().map_or(model.dim, |s| s.reduced_dim());
        let per_page = VectorHeap::page_capacity(width);
        shapes.empty |= p.count == 0;
        shapes.one_row |= p.count == 1;
        shapes.partial_last_page |= p.count > per_page && p.count % per_page != 0;
        shapes.full_width_outliers |= p.subspace.is_none() && p.count > 0;
    }
}

/// The operations the fold door folds: every outlier but the first
/// deleted (the one left is a one-row partition), 1 200 rows along the
/// first cluster's line (two heap pages, the second partial, where a page
/// holds 1 022 one-coordinate records: slots past 511 take a placement's
/// tenth bit), and one row off every plane (the only outlier of a fixture
/// that had none).
fn fold_ops(data: &Matrix, model: &ReductionResult) -> Vec<IngestOp> {
    let next = data.rows() as u64;
    let dead = model.outliers.iter().skip(1);
    let mut ops: Vec<IngestOp> = dead
        .map(|&pid| IngestOp::Delete { id: pid as u64 })
        .collect();
    for i in 0..1200u64 {
        let t = (i as f64 + 0.5) / 1200.0;
        let jit = ((i as f64 * 0.414_213_56).fract() - 0.5) * 0.01;
        ops.push(IngestOp::Insert {
            id: next + i,
            vector: vec![t, 0.3 * t, jit, -jit],
        });
    }
    if model.outliers.is_empty() {
        ops.push(IngestOp::Insert {
            id: next + 1200,
            vector: vec![-4.0, 9.0, -5.0, 8.0],
        });
    }
    ops
}

#[test]
fn every_leaf_position_resolves_to_the_row_laid_out_there() {
    let mut shapes = Shapes::default();
    for (fi, (data, model)) in fixtures().iter().enumerate() {
        let rows: BTreeMap<u64, Vec<f64>> = (0..data.rows())
            .map(|i| (i as u64, data.row(i).to_vec()))
            .collect();
        let built = build_index(Backend::IDistance, data, model, PAGES).unwrap();
        let attached = attach(Backend::IDistance, model, &rows);
        let ops = fold_ops(data, model);
        let mut extended = model.clone();
        extend_model(&mut extended, &ops).unwrap();
        let folded = fold(&built, &extended, &ops, PAGES).unwrap();
        let doors = [
            ("build", built, model),
            ("attach", attached, model),
            ("fold", folded, &extended),
        ];
        for (door, index, model) in &doors {
            let tag = format!("fixture {fi}, {door}");
            let want = laid_out(index, model);
            note_shapes(index, model, &mut shapes);
            let rids = assert_positions_name_their_rows(index, &want, &tag);
            let path = std::env::temp_dir().join(format!(
                "mmdr-layout-doors-{}-positions-{fi}-{door}.mmdr",
                std::process::id()
            ));
            save(&path, index, model).unwrap();
            let resident = OpenOptions {
                resident: true,
                ..OpenOptions::default()
            };
            let paged = OpenOptions {
                pool_pages: Some(2),
                readahead: 0,
                resident: false,
            };
            for (open, options) in [("resident", resident), ("2-frame paged", paged)] {
                let opened = open_with(&path, &options).unwrap();
                let tag = format!("{tag}, {open}");
                let got = assert_positions_name_their_rows(&opened.index, &want, &tag);
                assert_eq!(got, rids, "{tag}: every position names the build's record");
            }
            let _ = std::fs::remove_file(&path);
        }
    }
    assert!(
        shapes.empty && shapes.one_row && shapes.partial_last_page && shapes.full_width_outliers,
        "the fixtures must cover every partition shape: {shapes:?}"
    );
}

/// `index` saved under `model` and opened again, demand-paged.
fn reopened(index: &BuiltIndex, model: &ReductionResult, tag: &str) -> mmdr_persist::Opened {
    let path = std::env::temp_dir().join(format!(
        "mmdr-layout-doors-{}-{tag}.mmdr",
        std::process::id()
    ));
    save(&path, index, model).unwrap();
    let opened = open_with(&path, &OpenOptions::default()).unwrap();
    // The open kept the file; the pages it reads are its own.
    let resident = mmdr_persist::open_resident(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        stored_rows(&opened.index).unwrap(),
        stored_rows(&resident.index).unwrap(),
        "{tag}: a paged and a resident open read the same rows"
    );
    opened
}

/// The id column through every door that writes or reads it, for the two
/// backends with a heap: a build, its snapshot reopened, a fold of deletes
/// and inserts over the reopened index, the fold's snapshot reopened, and
/// a re-fit's attach over the rows that restores — each step's rows, id 0
/// among them, the last step's less the deleted and plus the inserted,
/// every kept row the same to the bit until the re-fit re-projects it. (An
/// id from 2³² up cannot reach a snapshot through MODEL, whose partition
/// check counts every id below the largest; the heap's column and the IDS
/// codec carry one, as their unit tests show.)
#[test]
fn ids_survive_save_open_fold_and_refit() {
    let bits = |rows: &HashMap<u64, Vec<f64>>| -> BTreeMap<u64, Vec<u64>> {
        let bits = |row: &Vec<f64>| row.iter().map(|x| x.to_bits()).collect();
        rows.iter().map(|(&id, row)| (id, bits(row))).collect()
    };
    for (fi, (data, model)) in fixtures().iter().enumerate() {
        for backend in [Backend::SeqScan, Backend::IDistance] {
            let tag = format!("ids-{fi}-{}", backend.name());
            let built = build_index(backend, data, model, PAGES).unwrap();
            let rows = bits(&stored_rows(&built).unwrap());
            assert_eq!(rows.len(), data.rows(), "{tag}");
            assert!(rows.contains_key(&0), "{tag}");
            let opened = reopened(&built, model, &tag);
            assert_eq!(bits(&stored_rows(&opened.index).unwrap()), rows, "{tag}");

            let ops = fold_ops(data, model);
            let mut extended = model.clone();
            extend_model(&mut extended, &ops).unwrap();
            let folded = fold(&opened.index, &extended, &ops, PAGES).unwrap();
            let folded_rows = bits(&stored_rows(&folded).unwrap());
            let mut want: BTreeSet<u64> = rows.keys().copied().collect();
            for op in &ops {
                match op {
                    IngestOp::Insert { id, .. } => assert!(want.insert(*id), "{tag}"),
                    IngestOp::Delete { id } => assert!(want.remove(id), "{tag}"),
                }
            }
            assert!(
                want.iter().copied().eq(folded_rows.keys().copied()),
                "{tag}"
            );
            for (id, row) in &folded_rows {
                assert!(
                    rows.get(id).is_none_or(|kept| kept == row),
                    "{tag}: id {id}"
                );
            }
            let opened = reopened(&folded, &extended, &format!("{tag}-fold"));
            assert_eq!(
                bits(&stored_rows(&opened.index).unwrap()),
                folded_rows,
                "{tag}"
            );

            let restored = restored_rows(&opened.index, &extended).unwrap();
            let params = MmdrParams {
                max_ec: 4,
                ..Default::default()
            };
            let refitted = refit_model(&restored, extended.num_points as u64, &params).unwrap();
            let attached = attach(backend, &refitted, &restored);
            let attached_rows = bits(&stored_rows(&attached).unwrap());
            assert!(
                want.iter().copied().eq(attached_rows.keys().copied()),
                "{tag}"
            );
            let opened = reopened(&attached, &refitted, &format!("{tag}-refit"));
            assert_eq!(
                bits(&stored_rows(&opened.index).unwrap()),
                attached_rows,
                "{tag}"
            );
        }
    }
}
