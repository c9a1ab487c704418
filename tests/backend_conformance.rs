//! Backend conformance suite: every `VectorIndex` backend must answer the
//! same questions the same way.
//!
//! All three backends (sequential scan, extended iDistance, gLDR) measure
//! the reduced-representation distance `‖q − restore(Pᵢ)‖`, so on one
//! `(data, model)` pair they must agree on:
//!
//! 1. **KNN results** — same neighbour ids at every rank, distances within
//!    float noise of the sequential-scan reference, sorted ascending by
//!    `(distance, point_id)`.
//! 2. **Batch execution** — `batch_knn` is bit-identical to a serial `knn`
//!    loop at every thread count (the shared-executor guarantee).
//! 3. **Range search** — identical hit sets for a radius away from any
//!    distance boundary.
//! 4. **One door** — the same holds through `search` for {KNN, range} ×
//!    {unfiltered, filtered}, and no answer depends on the `Scratch` it was
//!    computed with: a fresh one per query and one reused across every
//!    query, across two indexes and across a delta insert, agree bit for
//!    bit.
//! 5. **One rule** — every index refuses a bad query with the same error,
//!    built, reopened demand-paged or serving a live epoch, and neither a
//!    refusal nor a `k = 0` query costs a fetch or a distance.

use mmdr::core::{Mmdr, MmdrParams, ParConfig};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{build_index, Backend};
use mmdr::index::{
    batch_queries, Error, LiveIndex, Query, QueryStats, RowFilter, Scratch, SearchFilter, Target,
    VectorIndex,
};
use mmdr::persist::{open_with, save, IngestEngine, IngestOptions, OpenOptions};
use std::path::PathBuf;
use std::sync::Arc;

const K: usize = 10;
const BUFFER_PAGES: usize = 128;

struct Fixture {
    data: mmdr::linalg::Matrix,
    model: mmdr::core::ReductionResult,
    queries: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(1_500, 32, 5, 6, 30.0, 31));
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let queries: Vec<Vec<f64>> = sample_queries(&ds.data, 20, 13)
        .unwrap()
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    Fixture {
        data: ds.data,
        model,
        queries,
    }
}

fn build_all(fx: &Fixture) -> Vec<Box<dyn VectorIndex>> {
    Backend::all()
        .into_iter()
        .map(|b| {
            build_index(b, &fx.data, &fx.model, BUFFER_PAGES)
                .expect("build backend")
                .into_boxed()
        })
        .collect()
}

/// A bitmap with no cluster hints that fails every third id.
fn two_thirds(capacity: usize) -> SearchFilter {
    SearchFilter::from_rows(RowFilter::from_fn(capacity as u64, |id| id % 3 != 0))
}

/// {KNN, range} × {unfiltered, filtered} around `vector`.
fn query_kinds<'a>(vector: &'a [f64], radius: f64, filter: &'a SearchFilter) -> [Query<'a>; 4] {
    let kind = |target, filter| Query {
        vector,
        target,
        filter,
    };
    [
        kind(Target::Knn(K), None),
        kind(Target::Knn(K), Some(filter)),
        kind(Target::Range(radius), None),
        kind(Target::Range(radius), Some(filter)),
    ]
}

/// A radius halfway between the K-th and (K+1)-th distance of `index`, so
/// no backend straddles a boundary within float noise. If the two
/// distances tie, nudging the midpoint changes nothing — every backend
/// keeps ties (`dist <= radius + eps`), so answers still agree.
fn radius_between_ranks(index: &dyn VectorIndex, q: &[f64]) -> f64 {
    let probe = index.knn(q, K + 1).unwrap();
    (probe[K - 1].0 + probe[K].0) / 2.0
}

fn bits(hits: Vec<(f64, u64)>) -> Vec<(u64, u64)> {
    hits.into_iter().map(|(d, id)| (d.to_bits(), id)).collect()
}

/// Asserts `results` is ascending by the full `(distance, point_id)` tuple.
fn assert_sorted(label: &str, qi: usize, results: &[(f64, u64)]) {
    for w in results.windows(2) {
        assert!(
            w[0] <= w[1],
            "{label} query {qi}: out of order {:?} before {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn all_backends_agree_with_seqscan_reference() {
    let fx = fixture();
    let backends = build_all(&fx);
    let reference: Vec<Vec<(f64, u64)>> = fx
        .queries
        .iter()
        .map(|q| backends[0].knn(q, K).unwrap())
        .collect();

    for index in &backends {
        for (qi, (q, want)) in fx.queries.iter().zip(&reference).enumerate() {
            let got = index.knn(q, K).unwrap();
            assert_sorted(index.name(), qi, &got);
            assert_eq!(
                got.len(),
                want.len(),
                "{} query {qi}: result size",
                index.name()
            );
            for (rank, ((gd, gid), (wd, wid))) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    gid,
                    wid,
                    "{} query {qi} rank {rank}: id mismatch (got {gd}, want {wd})",
                    index.name()
                );
                assert!(
                    (gd - wd).abs() < 1e-9,
                    "{} query {qi} rank {rank}: distance drift {gd} vs {wd}",
                    index.name()
                );
            }
        }
    }
}

#[test]
fn batch_knn_is_bit_identical_to_serial_at_every_thread_count() {
    let fx = fixture();
    for index in build_all(&fx) {
        let serial: Vec<Vec<(f64, u64)>> = fx
            .queries
            .iter()
            .map(|q| index.knn(q, K).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = index
                .batch_knn(&fx.queries, K, &ParConfig::threads(threads))
                .unwrap();
            assert_eq!(
                batch,
                serial,
                "{} at {threads} threads: batch diverges from serial",
                index.name()
            );
        }
    }
}

#[test]
fn the_executor_is_bit_identical_to_serial_search_for_every_query_kind() {
    let fx = fixture();
    let filter = two_thirds(fx.data.rows());
    for index in build_all(&fx) {
        let radius = radius_between_ranks(index.as_ref(), &fx.queries[0]);
        for kind in query_kinds(&[], radius, &filter) {
            let ask = |q: &[f64], scratch: &mut Scratch| {
                index.search(&Query { vector: q, ..kind }, scratch)
            };
            let serial: Vec<_> = fx
                .queries
                .iter()
                .map(|q| bits(ask(q, &mut Scratch::default()).unwrap()))
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let batch = batch_queries(&fx.queries, &ParConfig::threads(threads), ask).unwrap();
                assert_eq!(
                    batch.into_iter().map(bits).collect::<Vec<_>>(),
                    serial,
                    "{} {:?} filtered {} at {threads} threads: batch diverges from serial",
                    index.name(),
                    kind.target,
                    kind.filter.is_some()
                );
            }
        }
    }
}

/// Answers the four query kinds for every fixture query, alternating
/// between index `a` and an index `b` over other data, before and after
/// rows are inserted into `a`'s delta; with one `Scratch` for the whole
/// sequence, or a fresh one per query.
fn scratch_sequence(
    backend: Backend,
    fx: &Fixture,
    other: &Fixture,
    radii: &[f64],
    reuse: bool,
) -> Vec<Vec<(f64, u64)>> {
    let a = build_index(backend, &fx.data, &fx.model, BUFFER_PAGES).expect("build a");
    let b = build_index(backend, &other.data, &other.model, BUFFER_PAGES).expect("build b");
    let n = fx.data.rows();
    let inserted = 40;
    let filter = two_thirds(n + inserted);
    let mut shared = Scratch::default();
    let mut answers = Vec::new();
    let mut ask_all = || {
        for (q, &radius) in fx.queries.iter().zip(radii) {
            for query in query_kinds(q, radius, &filter) {
                for index in [a.as_dyn(), b.as_dyn()] {
                    let mut fresh = Scratch::default();
                    let scratch = if reuse { &mut shared } else { &mut fresh };
                    answers.push(index.search(&query, scratch).unwrap());
                }
            }
        }
    };
    ask_all();
    for i in 0..inserted {
        a.insert(&fx.model, (n + i) as u64, other.data.row(i))
            .expect("delta insert");
    }
    ask_all();
    answers
}

#[test]
fn search_parity_holds_whatever_scratch_a_query_is_given() {
    let fx = fixture();
    let ds = generate_correlated(&CorrelatedConfig::paper_style(900, 32, 4, 6, 30.0, 77));
    let other = Fixture {
        model: Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap(),
        data: ds.data,
        queries: Vec::new(),
    };
    let scan = build_index(Backend::all()[0], &fx.data, &fx.model, BUFFER_PAGES)
        .unwrap()
        .into_boxed();
    let radii: Vec<f64> = fx
        .queries
        .iter()
        .map(|q| radius_between_ranks(scan.as_ref(), q))
        .collect();

    let mut reference: Option<Vec<Vec<(f64, u64)>>> = None;
    for backend in Backend::all() {
        let fresh = scratch_sequence(backend, &fx, &other, &radii, false);
        let reused = scratch_sequence(backend, &fx, &other, &radii, true);
        assert_eq!(fresh.len(), 4 * 4 * fx.queries.len());
        for (i, (f, r)) in fresh.iter().zip(&reused).enumerate() {
            assert_eq!(
                bits(f.clone()),
                bits(r.clone()),
                "{} answer {i}: a reused Scratch changed the answer",
                backend.name()
            );
            assert_sorted(backend.name(), i, f);
        }
        // The same matrix, against the sequential scan's answers.
        let want = reference.get_or_insert_with(|| fresh.clone());
        for (i, (got, want)) in fresh.iter().zip(want.iter()).enumerate() {
            let ids = |hits: &[(f64, u64)]| hits.iter().map(|&(_, id)| id).collect::<Vec<_>>();
            assert_eq!(
                ids(got),
                ids(want),
                "{} answer {i}: ids differ from scan",
                backend.name()
            );
            for ((gd, _), (wd, _)) in got.iter().zip(want) {
                assert!(
                    (gd - wd).abs() < 1e-9,
                    "{} answer {i}: distance drift {gd} vs {wd}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn range_search_agrees_across_backends() {
    let fx = fixture();
    let backends = build_all(&fx);

    for (qi, q) in fx.queries.iter().take(5).enumerate() {
        let radius = radius_between_ranks(backends[0].as_ref(), q);

        let want = backends[0].range_search(q, radius).unwrap();
        assert!(!want.is_empty(), "query {qi}: degenerate radius {radius}");
        for index in &backends[1..] {
            let got = index.range_search(q, radius).unwrap();
            assert_sorted(index.name(), qi, &got);
            let got_ids: Vec<u64> = got.iter().map(|&(_, id)| id).collect();
            let want_ids: Vec<u64> = want.iter().map(|&(_, id)| id).collect();
            assert_eq!(
                got_ids,
                want_ids,
                "{} query {qi} radius {radius}: hit set differs from scan",
                index.name()
            );
            for (rank, ((gd, _), (wd, _))) in got.iter().zip(&want).enumerate() {
                assert!(
                    (gd - wd).abs() < 1e-9,
                    "{} query {qi} rank {rank}: range distance drift {gd} vs {wd}",
                    index.name()
                );
            }
        }
    }
}

/// The paper's sentence as a gate — a KNN query "examines increasingly
/// larger sphere in each iteration" (§5) — for every backend, filtered or
/// not, as built and with a live delta: a KNN answer is, bit for bit, the
/// first k rows of the range answer at its own k-th distance. Where k is
/// more than the live rows the filter passes — every row, or a filter that
/// passes none — the answer is every one of them, as the sequential scan
/// ranks them (the same ids, distances to float noise; iDistance's, which
/// sum as the scan's do, bit for bit): a search whose reach never turns
/// finite ends only by reading everything.
#[test]
fn a_knn_answer_is_the_prefix_of_the_range_answer_at_its_kth_distance() {
    let fx = fixture();
    let n = fx.data.rows();
    let inserted = 40;
    let two_thirds = two_thirds(n + inserted);
    let nothing = SearchFilter::from_rows(RowFilter::from_fn((n + inserted) as u64, |_| false));
    type Pass = fn(u64) -> bool;
    let filters: [(Option<&SearchFilter>, Pass); 3] = [
        (None, |_| true),
        (Some(&two_thirds), |id| id % 3 != 0),
        (Some(&nothing), |_| false),
    ];
    let beyond_every_row = n + inserted + 1;
    // The scan's answers where k exceeds the passing rows, in asking order.
    let mut scanned = Vec::new();
    let (mut pairs, mut whole) = (0, 0);
    for backend in Backend::all() {
        let mut asked = 0;
        let built = build_index(backend, &fx.data, &fx.model, BUFFER_PAGES).expect("build");
        for mutated in [false, true] {
            if mutated {
                // Rows next to stored ones, so they rank among the answers.
                for i in 0..inserted {
                    let near: Vec<f64> = fx.data.row(i * 7).iter().map(|x| x + 0.01).collect();
                    built
                        .insert(&fx.model, (n + i) as u64, &near)
                        .expect("delta insert");
                }
                for id in (0..(n + inserted) as u64).step_by(17) {
                    assert!(built.delete(id).expect("delta delete"));
                }
            }
            let live = |id: u64| match mutated {
                false => id < n as u64,
                true => id < (n + inserted) as u64 && !id.is_multiple_of(17),
            };
            for (filter, pass) in filters {
                let passing = (0..(n + inserted) as u64)
                    .filter(|&id| live(id) && pass(id))
                    .count();
                for k in [1, 10, 37, beyond_every_row] {
                    for (qi, q) in fx.queries.iter().enumerate() {
                        let ctx = format!(
                            "{} query {qi} k {k} filtered {} mutated {mutated}",
                            backend.name(),
                            filter.is_some()
                        );
                        let ask = |target| {
                            let query = Query {
                                vector: q,
                                target,
                                filter,
                            };
                            built
                                .as_dyn()
                                .search(&query, &mut Scratch::default())
                                .unwrap()
                        };
                        let knn = ask(Target::Knn(k));
                        assert_eq!(knn.len(), k.min(passing), "{ctx}");
                        if k > passing {
                            assert!(knn.iter().all(|&(_, id)| live(id) && pass(id)), "{ctx}");
                            if backend == Backend::SeqScan {
                                scanned.push(knn);
                            } else {
                                let want: &Vec<(f64, u64)> = &scanned[asked];
                                let ids = |hits: &[(f64, u64)]| {
                                    hits.iter().map(|&(_, id)| id).collect::<Vec<_>>()
                                };
                                assert_eq!(ids(&knn), ids(want), "{ctx}");
                                for ((gd, _), (wd, _)) in knn.iter().zip(want) {
                                    assert!((gd - wd).abs() < 1e-9, "{ctx}: {gd} vs {wd}");
                                }
                                if backend == Backend::IDistance {
                                    assert_eq!(bits(knn), bits(want.clone()), "{ctx}");
                                }
                            }
                            asked += 1;
                            whole += 1;
                            continue;
                        }
                        let mut range = ask(Target::Range(knn[k - 1].0));
                        assert!(range.len() >= k, "{ctx}");
                        range.truncate(k);
                        assert_eq!(bits(knn), bits(range), "{ctx}");
                        pairs += 1;
                    }
                }
            }
        }
    }
    let backends = Backend::all().len();
    assert_eq!(pairs, backends * 2 * 2 * 3 * fx.queries.len());
    // Per backend and delta state: the filter that passes nothing at every
    // k, the other two beyond every row.
    assert_eq!(whole, backends * 2 * (4 + 2) * fx.queries.len());
}

/// A scratch directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mmdr-conformance-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_index_refuses_bad_queries_alike() {
    let fx = fixture();
    let dim = fx.data.cols();
    let dir = TempDir::new("refusals");
    let paged = OpenOptions {
        pool_pages: Some(8),
        ..OpenOptions::default()
    };
    let no_merges = IngestOptions {
        merge_threshold: 0,
        ..IngestOptions::default()
    };
    let mut indexes: Vec<(String, Arc<dyn VectorIndex>)> = Vec::new();
    // Kept open while their epochs are asked.
    let mut engines = Vec::new();
    for backend in Backend::all() {
        let name = backend.name();
        let built = build_index(backend, &fx.data, &fx.model, BUFFER_PAGES).expect("build");
        let file = dir.0.join(format!("{name}.mmdr"));
        save(&file, &built, &fx.model).expect("save");
        let reopened = open_with(&file, &paged).expect("open demand-paged");
        indexes.push((format!("{name} built"), Arc::from(built.into_boxed())));
        indexes.push((
            format!("{name} paged"),
            Arc::from(reopened.index.into_boxed()),
        ));
        let live = dir.0.join(format!("{name}-live.mmdr"));
        let engine = IngestEngine::create(
            &live,
            backend,
            &fx.data,
            &fx.model,
            BUFFER_PAGES,
            no_merges.clone(),
        )
        .expect("engine");
        for i in 0..5 {
            engine.insert(fx.data.row(i * 11)).expect("insert");
        }
        let epoch = engine.pin().index;
        assert_eq!(epoch.len(), fx.data.rows() + 5, "{name}: a live delta");
        indexes.push((format!("{name} engine epoch"), epoch));
        engines.push(engine);
    }

    let good = &fx.queries[0];
    for (name, index) in &indexes {
        let before = index.query_stats();
        for width in [dim - 1, dim + 1] {
            let q = vec![0.5; width];
            for got in [
                index.knn(&q, K),
                index.knn(&q, 0),
                index.range_search(&q, 1.0),
            ] {
                let err = got.expect_err(name);
                assert!(
                    matches!(err, Error::DimensionMismatch { expected, actual }
                        if expected == dim && actual == width),
                    "{name}, width {width}: {err}"
                );
            }
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut q = good.clone();
            q[dim / 2] = bad;
            let batch = index
                .batch_knn(&[q.clone(), q.clone()], K, &ParConfig::threads(2))
                .map(|_| Vec::new());
            for got in [
                index.knn(&q, K),
                index.knn(&q, 0),
                index.range_search(&q, 1.0),
                batch,
            ] {
                let err = got.expect_err(name);
                assert!(
                    matches!(err, Error::InvalidQuery),
                    "{name}, a {bad} coordinate: {err}"
                );
            }
        }
        for radius in [-1.0, f64::NAN, f64::INFINITY] {
            let err = index.range_search(good, radius).expect_err(name);
            assert!(
                matches!(err, Error::InvalidRadius),
                "{name}, radius {radius}: {err}"
            );
        }
        assert_eq!(index.knn(good, 0).unwrap(), Vec::new(), "{name}");
        assert_eq!(
            index.query_stats().since(&before),
            QueryStats::default(),
            "{name}: a refused query or k = 0 cost something"
        );
    }
    assert_eq!(indexes.len(), 3 * Backend::all().len());
}

#[test]
fn query_stats_tick_for_every_backend() {
    let fx = fixture();
    for index in build_all(&fx) {
        let before = index.query_stats();
        index.knn(&fx.queries[0], K).unwrap();
        let stats = index.query_stats().since(&before);
        assert!(
            stats.dist_computations > 0,
            "{}: no distance computations recorded",
            index.name()
        );
        assert!(
            stats.pages_touched > 0,
            "{}: no page accesses recorded",
            index.name()
        );
    }
}

/// A finite coordinate past `f32::MAX` has no stored form: a build over a
/// row that has one, and an insert of one, are refused with the typed
/// error in every backend, and the refused insert leaves the index as it
/// was.
#[test]
fn a_coordinate_past_f32_max_is_refused_by_every_backend() {
    let fx = fixture();
    let n = fx.data.rows();
    let huge: Vec<f64> = (0..fx.data.cols())
        .map(|j| if j % 2 == 0 { 1e45 } else { -3e44 })
        .collect();
    let mut rows: Vec<Vec<f64>> = fx.data.iter_rows().map(<[f64]>::to_vec).collect();
    rows[7] = huge.clone();
    let damaged = mmdr::linalg::Matrix::from_rows(&rows).unwrap();
    let past = |x: f64| x.is_finite() && x.abs() > f64::from(f32::MAX);
    for backend in Backend::all() {
        let got = build_index(backend, &damaged, &fx.model, BUFFER_PAGES).err();
        assert!(
            matches!(got, Some(mmdr::idistance::Error::CoordinateOverflow(x)) if past(x)),
            "{}: {got:?}",
            backend.name()
        );
        let built = build_index(backend, &fx.data, &fx.model, BUFFER_PAGES).unwrap();
        let refused = built.insert(&fx.model, n as u64, &huge).unwrap_err();
        assert!(refused.to_string().contains("f32::MAX"), "{refused}");
        assert_eq!(built.delta_stats().rows, 0, "{}", backend.name());
        assert_eq!(built.as_dyn().len(), n, "{}", backend.name());
        built.insert(&fx.model, n as u64, fx.data.row(7)).unwrap();
        assert_eq!(built.as_dyn().len(), n + 1, "{}", backend.name());
    }
}
