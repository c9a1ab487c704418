//! The filtered-search gate: for every backend, a filtered KNN answered
//! through the planner — whichever strategy it picks (post-filter,
//! pushdown, or prefilter-rank) — must equal the oracle: the same
//! backend's full unfiltered ranking, post-filtered by the predicate and
//! truncated to k. Id-exact and distance-bit-identical, serially and
//! under 1/2/4/8 concurrent query threads, at 0% / ~1% / ~25% / 100%
//! selectivity, on a static snapshot and on a mutated engine both before
//! and after its background merge. Every query is asked twice, and answers
//! the same both times: nothing a search reads stays behind to change the
//! next (a merge's new epoch starts from its own snapshot). A proptest
//! sweep drives random predicates and queries through the same oracle.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{LiveIndex, Query, Scratch, SearchFilter, Target};
use mmdr_linalg::Matrix;
use mmdr_persist::{IngestEngine, IngestOptions, SnapshotLive};
use mmdr_query::{AttrStore, AttrType, AttrValue, Predicate};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique directory per call, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mmdr-filtered-parity-{}-{tag}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Three clusters plus sparse outliers, deterministic.
fn dataset(n_per_cluster: usize) -> Matrix {
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.04;
    for i in 0..n_per_cluster {
        let t = i as f64 / n_per_cluster.max(2) as f64;
        rows.push(vec![t, 0.4 * t, jit(i, 0.3), jit(i, 0.9)]);
        rows.push(vec![4.0 + jit(i, 0.1), 4.0 - t, 4.0 + 0.5 * t, jit(i, 0.5)]);
        rows.push(vec![
            jit(i, 0.7),
            -3.0 - 0.2 * t,
            2.0 + t,
            -2.0 + jit(i, 0.2),
        ]);
        if i % 23 == 0 {
            rows.push(vec![-5.0 + t, 7.0 - t, -6.0, 8.0 + t]);
        }
    }
    Matrix::from_rows(&rows).unwrap()
}

fn fit(data: &Matrix) -> ReductionResult {
    Mmdr::new(MmdrParams {
        max_ec: 4,
        ..Default::default()
    })
    .fit(data)
    .unwrap()
}

/// Deterministic attribute rows: `label` cycles four tags, `score` walks
/// [0, 100), `views` walks [0, 1000), and every 13th row leaves `score`
/// NULL so NULL semantics are always in play.
fn attrs_for(n: usize) -> AttrStore {
    let mut store = AttrStore::new(&[
        ("label", AttrType::Tag),
        ("score", AttrType::F64),
        ("views", AttrType::I64),
    ])
    .unwrap();
    const LABELS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    for i in 0..n {
        let mut row = vec![
            (
                "label".to_string(),
                AttrValue::Tag(LABELS[i % 4].to_string()),
            ),
            (
                "views".to_string(),
                AttrValue::I64(((i as u64 * 379) % 1000) as i64),
            ),
        ];
        if i % 13 != 0 {
            let score = ((i as f64) * 0.618_033_988).fract() * 100.0;
            row.push(("score".to_string(), AttrValue::F64(score)));
        }
        store.set_row(i as u64, &row).unwrap();
    }
    store
}

/// Predicates spanning the planner's whole decision range (the comment
/// gives the approximate selectivity over [`attrs_for`]).
fn predicates() -> Vec<&'static str> {
    vec![
        "score > 1000",                  // 0%: nothing matches
        "views < 10",                    // ~1%
        "label = alpha AND views < 600", // ~15%
        "label != delta",                // ~75%
        "views >= 0",                    // 100%
    ]
}

fn queries(data: &Matrix) -> Vec<Vec<f64>> {
    [0usize, 7, 100, 301]
        .iter()
        .map(|&i| data.row(i % data.rows()).to_vec())
        .collect()
}

/// The oracle: the same serving handle's *unfiltered* full ranking,
/// post-filtered row by row against the live attribute store, truncated
/// to k. `live.pin()` and `passes` see exactly what `filtered_knn` saw.
fn oracle_knn(
    live: &dyn LiveIndex,
    store: &AttrStore,
    pred: &Predicate,
    query: &[f64],
    k: usize,
) -> Vec<(f64, u64)> {
    let pin = live.pin();
    let n = pin.index.len();
    if n == 0 {
        return Vec::new();
    }
    let full = pin.index.knn(query, n).unwrap();
    full.into_iter()
        .filter(|&(_, id)| pred.passes(store, id).unwrap())
        .take(k)
        .collect()
}

fn oracle_range(
    live: &dyn LiveIndex,
    store: &AttrStore,
    pred: &Predicate,
    query: &[f64],
    radius: f64,
) -> Vec<(f64, u64)> {
    let pin = live.pin();
    let full = pin.index.range_search(query, radius).unwrap();
    full.into_iter()
        .filter(|&(_, id)| pred.passes(store, id).unwrap())
        .collect()
}

fn assert_bit_eq(got: &[(f64, u64)], want: &[(f64, u64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: lengths differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.1, w.1, "{ctx}: id mismatch at rank {i}");
        assert_eq!(
            g.0.to_bits(),
            w.0.to_bits(),
            "{ctx}: distance bits differ at rank {i}"
        );
    }
}

/// Filtered answers on a static snapshot equal the post-filtered oracle
/// for every backend, predicate and query — serially and from 1/2/4/8
/// concurrent threads (concurrency must not perturb a single bit).
#[test]
fn snapshot_filtered_knn_matches_post_filtered_oracle() {
    let data = dataset(180);
    let model = fit(&data);
    let store = attrs_for(data.rows());
    let qs = queries(&data);
    for backend in Backend::all() {
        let dir = TempDir::new("static");
        let path = dir.file("index.mmdr");
        let built = mmdr_persist::build_index(backend, &data, &model, 256).unwrap();
        mmdr_persist::save_with_attrs(&path, &built, &model, 0, Some(&store)).unwrap();
        let opened = mmdr_persist::open(&path).unwrap();
        let attrs = opened.attrs.expect("snapshot must carry ATTRS");
        let index: Arc<dyn mmdr_index::VectorIndex> = Arc::from(opened.index.into_boxed());
        let live = Arc::new(SnapshotLive::new(index, &opened.model, Some(attrs.clone())).unwrap());
        for pred_text in predicates() {
            let pred = Predicate::parse(pred_text).unwrap();
            let mut serial = Vec::new();
            for (qi, q) in qs.iter().enumerate() {
                let want = oracle_knn(live.as_ref(), &attrs, &pred, q, 9);
                for asking in ["first", "second"] {
                    let got = live.filtered(q, Target::Knn(9), pred_text).unwrap();
                    assert_bit_eq(
                        &got,
                        &want,
                        &format!("{} `{pred_text}` q{qi}, {asking} asking", backend.name()),
                    );
                }
                serial.push(want);
            }
            for threads in [2usize, 4, 8] {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let live = Arc::clone(&live);
                            let qs = &qs;
                            scope.spawn(move || {
                                qs.iter()
                                    .map(|q| live.filtered(q, Target::Knn(9), pred_text).unwrap())
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        let per_thread = h.join().unwrap();
                        for (qi, got) in per_thread.iter().enumerate() {
                            assert_bit_eq(
                                got,
                                &serial[qi],
                                &format!(
                                    "{} `{pred_text}` q{qi} under {threads} threads",
                                    backend.name()
                                ),
                            );
                        }
                    }
                });
            }
        }
    }
}

/// Filtered range answers equal the post-filtered oracle (always pushed
/// down — range has no k to widen).
#[test]
fn snapshot_filtered_range_matches_post_filtered_oracle() {
    let data = dataset(150);
    let model = fit(&data);
    let store = attrs_for(data.rows());
    let qs = queries(&data);
    for backend in Backend::all() {
        let dir = TempDir::new("range");
        let path = dir.file("index.mmdr");
        let built = mmdr_persist::build_index(backend, &data, &model, 256).unwrap();
        mmdr_persist::save_with_attrs(&path, &built, &model, 0, Some(&store)).unwrap();
        let opened = mmdr_persist::open(&path).unwrap();
        let attrs = opened.attrs.expect("snapshot must carry ATTRS");
        let index: Arc<dyn mmdr_index::VectorIndex> = Arc::from(opened.index.into_boxed());
        let live = SnapshotLive::new(index, &opened.model, Some(attrs.clone())).unwrap();
        for pred_text in predicates() {
            let pred = Predicate::parse(pred_text).unwrap();
            for (qi, q) in qs.iter().enumerate() {
                for radius in [0.5, 3.0] {
                    let want = oracle_range(&live, &attrs, &pred, q, radius);
                    for asking in ["first", "second"] {
                        let got = live.filtered(q, Target::Range(radius), pred_text).unwrap();
                        assert_bit_eq(
                            &got,
                            &want,
                            &format!(
                                "{} `{pred_text}` q{qi} r{radius}, {asking} asking",
                                backend.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// A mutated engine — inserts with fresh attribute rows and deletes of
/// snapshot rows — answers filtered queries identically to the oracle
/// over its live state, both before and after the fold-and-swap merge.
#[test]
fn mutated_engine_filtered_knn_matches_oracle_pre_and_post_merge() {
    let data = dataset(120);
    let model = fit(&data);
    let store = attrs_for(data.rows());
    let qs = queries(&data);
    for backend in Backend::all() {
        let dir = TempDir::new("mutated");
        let path = dir.file("index.mmdr");
        let engine = IngestEngine::create_with_attrs(
            &path,
            backend,
            &data,
            &model,
            256,
            IngestOptions {
                merge_threshold: 0, // merge only on explicit flush
                ..Default::default()
            },
            Some(&store),
        )
        .unwrap();
        // Mutate: 40 inserts (half alpha / half delta, striding views)
        // and 25 deletes spread across the snapshot's rows.
        for i in 0..40usize {
            let t = i as f64 / 40.0;
            let v = vec![0.5 + t, 0.2 * t, 4.0 - t, 0.1];
            let label = if i % 2 == 0 { "alpha" } else { "delta" };
            let row = vec![
                ("label".to_string(), AttrValue::Tag(label.to_string())),
                ("views".to_string(), AttrValue::I64((i as i64 * 37) % 1000)),
                ("score".to_string(), AttrValue::F64(t * 100.0)),
            ];
            engine.insert_with_attrs(&v, &row).unwrap();
        }
        for i in 0..25u64 {
            engine.delete(i * 13).unwrap();
        }
        let check = |phase: &str| {
            for pred_text in predicates() {
                let pred = Predicate::parse(pred_text).unwrap();
                for (qi, q) in qs.iter().enumerate() {
                    let want = engine
                        .with_attrs(|live_store| oracle_knn(&engine, live_store, &pred, q, 7));
                    for asking in ["first", "second"] {
                        let got = engine.filtered(q, Target::Knn(7), pred_text).unwrap();
                        assert_bit_eq(
                            &got,
                            &want,
                            &format!(
                                "{} `{pred_text}` q{qi} {phase}, {asking} asking",
                                backend.name()
                            ),
                        );
                    }
                }
            }
        };
        check("pre-merge");
        engine.flush().unwrap();
        engine.quiesce();
        check("post-merge");
    }
}

/// A pushed-down search in the other two backends touches, query for
/// query, the pages recorded here, the second time it is asked as the
/// first: SeqScan reads its whole heap, 7 pages since a record is its
/// coordinates alone (13 while each carried its point id), and gLDR's
/// counts are the ones it always had.
#[test]
fn pushdown_in_the_other_backends_touches_the_pages_it_always_did() {
    let data = dataset(1000);
    let model = fit(&data);
    let store = attrs_for(data.rows());
    let qs = queries(&data);
    #[rustfmt::skip]
    let recorded: [(Backend, [u64; 24]); 2] = [
        (Backend::SeqScan, [7; 24]),
        (Backend::Gldr, [5, 5, 5, 5, 5, 5, 5, 5, 2, 2, 2, 2, 5, 5, 5, 5, 2, 2, 2, 2, 5, 5, 5, 5]),
    ];
    for (backend, want) in recorded {
        let built = mmdr_persist::build_index(backend, &data, &model, 256).unwrap();
        let index = built.as_dyn();
        let mut touched = Vec::new();
        for pred_text in [
            "views < 10",
            "label = alpha AND views < 600",
            "label != delta",
        ] {
            let rows = Predicate::parse(pred_text)
                .unwrap()
                .compile(&store)
                .unwrap();
            let filter = SearchFilter::from_rows(rows);
            for target in [Target::Knn(9), Target::Range(3.0)] {
                for q in &qs {
                    let query = Query {
                        vector: q,
                        target,
                        filter: Some(&filter),
                    };
                    let ask = || {
                        let before = index.query_stats();
                        index.search(&query, &mut Scratch::default()).unwrap();
                        index.query_stats().since(&before).pages_touched
                    };
                    let first = ask();
                    assert_eq!(ask(), first, "{} `{pred_text}`", backend.name());
                    touched.push(first);
                }
            }
        }
        assert_eq!(touched, want, "{}", backend.name());
    }
}

/// An attribute-less snapshot rejects filtered queries with the typed
/// error instead of guessing.
#[test]
fn filters_without_attrs_are_a_typed_error() {
    let data = dataset(40);
    let model = fit(&data);
    let dir = TempDir::new("noattrs");
    let path = dir.file("index.mmdr");
    let built = mmdr_persist::build_index(Backend::IDistance, &data, &model, 256).unwrap();
    mmdr_persist::save(&path, &built, &model).unwrap();
    let opened = mmdr_persist::open(&path).unwrap();
    assert!(opened.attrs.is_none());
    let index: Arc<dyn mmdr_index::VectorIndex> = Arc::from(opened.index.into_boxed());
    let live = SnapshotLive::new(index, &opened.model, opened.attrs).unwrap();
    let q = data.row(0).to_vec();
    match live.filtered(&q, Target::Knn(3), "views < 10") {
        Err(mmdr_index::Error::FiltersUnavailable) => {}
        other => panic!("expected FiltersUnavailable, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random thresholds, operators and query points: the planner's
    /// choice — whatever it is — must reproduce the post-filtered oracle
    /// bit-for-bit on every backend.
    #[test]
    fn random_filtered_knn_matches_oracle(
        views_cut in 0i64..1000,
        score_cut in 0.0f64..100.0,
        op_pick in 0usize..4,
        label_pick in 0usize..4,
        qx in -6.0f64..6.0,
        qy in -4.0f64..8.0,
        k in 1usize..12,
    ) {
        let data = dataset(60);
        let model = fit(&data);
        let store = attrs_for(data.rows());
        let ops = ["<", "<=", ">", ">="];
        let labels = ["alpha", "beta", "gamma", "delta"];
        let pred_text = format!(
            "views {} {views_cut} AND score {} {score_cut:?} AND label != {}",
            ops[op_pick], ops[3 - op_pick], labels[label_pick]
        );
        let pred = Predicate::parse(&pred_text).unwrap();
        let q = vec![qx, qy, qx * 0.5, qy * 0.25];
        for backend in [Backend::SeqScan, Backend::IDistance] {
            let built = mmdr_persist::build_index(backend, &data, &model, 256).unwrap();
            let index: Arc<dyn mmdr_index::VectorIndex> = Arc::from(built.into_boxed());
            let live = SnapshotLive::new(index, &model, Some(store.clone())).unwrap();
            let want = oracle_knn(&live, &store, &pred, &q, k);
            for asking in ["first", "second"] {
                let got = live.filtered(&q, Target::Knn(k), &pred_text).unwrap();
                assert_bit_eq(
                    &got,
                    &want,
                    &format!("{} `{pred_text}`, {asking} asking", backend.name()),
                );
            }
        }
    }
}
