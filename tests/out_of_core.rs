//! Out-of-core correctness gate: every backend, reopened demand-paged from
//! a snapshot with a *tiny* buffer pool (4/8/16 frames), must answer KNN
//! and range queries bit-identically to a fully-resident open — serially
//! and under 8 query threads — while the pool's clock eviction actually
//! cycles (nonzero misses AND evictions) and pages are physically fetched
//! from the file only on demand. Damaged page images surface as typed
//! errors at fault time, and the pool keeps serving after a failed fetch.

use mmdr_btree::LEAF_CAPACITY;
use mmdr_core::{Mmdr, MmdrParams, ParConfig, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{Query, QueryStats, RowFilter, Scratch, SearchFilter, Target};
use mmdr_linalg::Matrix;
use mmdr_persist::{build_index, open_resident, open_with, save, BuiltIndex, OpenOptions, Opened};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique snapshot path per call, removed by [`TempFile::drop`].
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "mmdr-oocore-test-{}-{tag}-{seq}.snapshot",
            std::process::id()
        ));
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Big enough that every backend's page groups — including each per-cluster
/// tree of the gLDR forest — exceed the largest pool capacity under test
/// (16 frames), so eviction must cycle: two elongated clusters plus
/// off-plane outliers, ~12300 points.
fn dataset() -> Matrix {
    let n_per_cluster = 12_000usize;
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
    for i in 0..n_per_cluster {
        let t = i as f64 / n_per_cluster as f64;
        rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
        rows.push(vec![
            5.0 + jit(i, 0.1),
            5.0 + jit(i, 0.9),
            5.0 + t,
            5.0 - 0.5 * t,
        ]);
        if i % 17 == 0 {
            rows.push(vec![-3.0 - t, 8.0 + t, -5.0, 9.0 - t]);
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

/// Bit-level equality of two answer lists: same ids AND the same distance
/// bit patterns, not merely approximately equal.
fn assert_answers_identical(fresh: &[(f64, u64)], reopened: &[(f64, u64)], what: &str) {
    assert_eq!(fresh.len(), reopened.len(), "{what}: answer lengths differ");
    for (i, (a, b)) in fresh.iter().zip(reopened).enumerate() {
        assert_eq!(a.1, b.1, "{what}: id differs at rank {i}");
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "{what}: distance not bit-identical at rank {i} ({} vs {})",
            a.0,
            b.0
        );
    }
}

fn lazy_opts(pool_pages: usize) -> OpenOptions {
    OpenOptions {
        pool_pages: Some(pool_pages),
        readahead: 4,
        resident: false,
    }
}

/// True when `needle` appears anywhere in the error's source chain.
fn chain_contains(err: &dyn std::error::Error, needle: &str) -> bool {
    let mut cur: Option<&dyn std::error::Error> = Some(err);
    while let Some(e) = cur {
        if e.to_string().contains(needle) {
            return true;
        }
        cur = e.source();
    }
    false
}

#[test]
fn tiny_pool_demand_paged_answers_are_bit_identical() {
    let data = dataset();
    let model = fit(&data);
    let step = (data.rows() / 9).max(1);
    let queries: Vec<Vec<f64>> = (0..9).map(|i| data.row(i * step).to_vec()).collect();
    let k = 6;
    let radius = 0.8;

    for backend in Backend::all() {
        let file = TempFile::new(backend.name());
        let built = build_index(backend, &data, &model, 64).unwrap();
        save(&file.0, &built, &model).unwrap();
        drop(built); // reference answers come from the resident *reopen*

        let resident = open_resident(&file.0).unwrap();
        let ref_knn: Vec<Vec<(f64, u64)>> = queries
            .iter()
            .map(|q| resident.index.as_dyn().knn(q, k).unwrap())
            .collect();
        let ref_range: Vec<Vec<(f64, u64)>> = queries
            .iter()
            .map(|q| resident.index.as_dyn().range_search(q, radius).unwrap())
            .collect();
        // The resident open never touches its source after restore.
        assert_eq!(
            resident.index.as_dyn().query_stats().physical_reads,
            0,
            "{}: resident open must not fetch pages",
            backend.name()
        );

        for pool_pages in [4usize, 8, 16] {
            let what = format!("{} pool={pool_pages}", backend.name());
            let opened: Opened = open_with(&file.0, &lazy_opts(pool_pages)).unwrap();
            let idx = opened.index.as_dyn();
            // A demand-paged open is ~O(superblock): no page payloads are
            // decoded or fetched until a query asks for them.
            assert_eq!(
                idx.query_stats(),
                QueryStats::default(),
                "{what}: open must not fetch any pages"
            );

            // Serial parity, KNN and range.
            for (qi, q) in queries.iter().enumerate() {
                assert_answers_identical(
                    &ref_knn[qi],
                    &idx.knn(q, k).unwrap(),
                    &format!("{what} knn query {qi}"),
                );
                assert_answers_identical(
                    &ref_range[qi],
                    &idx.range_search(q, radius).unwrap(),
                    &format!("{what} range query {qi}"),
                );
            }
            assert!(
                idx.query_stats().physical_reads > 0,
                "{what}: queries over a cold out-of-core index must fetch pages"
            );

            // 8-thread parity: batch KNN through the trait's parallel
            // path, plus raw threads hammering range_search concurrently.
            let batch = idx.batch_knn(&queries, k, &ParConfig::threads(8)).unwrap();
            for (qi, hits) in batch.iter().enumerate() {
                assert_answers_identical(
                    &ref_knn[qi],
                    hits,
                    &format!("{what} batch knn query {qi} at 8 threads"),
                );
            }
            std::thread::scope(|s| {
                for t in 0..8usize {
                    let queries = &queries;
                    let ref_range = &ref_range;
                    let what = &what;
                    s.spawn(move || {
                        let qi = t % queries.len();
                        let hits = idx.range_search(&queries[qi], radius).unwrap();
                        assert_answers_identical(
                            &ref_range[qi],
                            &hits,
                            &format!("{what} concurrent range query {qi} (thread {t})"),
                        );
                    });
                }
            });

            // The tiny pool must actually be paging: cold fetches are
            // misses, and a working set larger than the pool evicts.
            let (mut misses, mut evictions) = (0u64, 0u64);
            for pool in idx.pool_stats() {
                for shard in &pool.per_shard {
                    misses += shard.misses;
                    evictions += shard.evictions;
                }
            }
            assert!(misses > 0, "{what}: expected buffer-pool misses");
            assert!(
                evictions > 0,
                "{what}: expected clock evictions (working set exceeds the pool)"
            );
        }
    }
}

/// A resident open is done with its file: every page is in memory when it
/// returns, so it keeps no handle to the snapshot, the file can be emptied
/// and removed under it, and every backend still answers bit-identically to
/// a paged open — with nothing read physically, because nothing is
/// left to demand-read.
#[test]
fn a_resident_open_is_done_with_its_file() {
    let data = dataset();
    let model = fit(&data);
    let step = (data.rows() / 7).max(1);
    let queries: Vec<&[f64]> = (0..7).map(|i| data.row(i * step)).collect();
    let answers = |opened: &Opened| -> Vec<Vec<(f64, u64)>> {
        let idx = opened.index.as_dyn();
        let knn = queries.iter().map(|q| idx.knn(q, 6).unwrap());
        let range = queries.iter().map(|q| idx.range_search(q, 0.8).unwrap());
        knn.chain(range).collect()
    };

    for backend in Backend::all() {
        let file = TempFile::new("done-with-file");
        let built = build_index(backend, &data, &model, 64).unwrap();
        save(&file.0, &built, &model).unwrap();
        drop(built);
        let want = answers(&open_with(&file.0, &lazy_opts(8)).unwrap());

        let resident = open_resident(&file.0).unwrap();
        // No descriptor of this process still names the snapshot (where the
        // platform lists them)...
        if let Ok(fds) = std::fs::read_dir("/proc/self/fd") {
            let held = fds
                .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
                .any(|target| target == file.0);
            assert!(!held, "{}: a handle outlived the open", backend.name());
        }
        // ...and one that did would now read an empty file.
        std::fs::write(&file.0, b"").unwrap();
        std::fs::remove_file(&file.0).unwrap();

        let idx = resident.index.as_dyn();
        assert_eq!(
            idx.query_stats(),
            QueryStats::default(),
            "{}: open is free",
            backend.name()
        );
        for (i, (want, got)) in want.iter().zip(answers(&resident)).enumerate() {
            assert_answers_identical(want, &got, &format!("{} answer {i}", backend.name()));
        }
        let spent = idx.query_stats();
        assert!(
            spent.page_reads > 0,
            "{}: first touches miss",
            backend.name()
        );
        assert_eq!(
            (
                spent.physical_reads,
                spent.readahead_hits,
                spent.read_errors
            ),
            (0, 0, 0),
            "{}: nothing is demand-read after a resident open",
            backend.name()
        );
    }
}

/// `pages_touched` counts pool fetches, and the scan path makes one per
/// page it visits (a B⁺-tree leaf, a heap page), not one per entry: far
/// fewer than the candidates it evaluates, and the same number whether the
/// pool holds every page or four.
#[test]
fn idistance_fetches_once_per_page_visited_whatever_the_pool() {
    let data = dataset();
    let model = fit(&data);
    let file = TempFile::new("fetches");
    let built = build_index(Backend::IDistance, &data, &model, 64).unwrap();
    save(&file.0, &built, &model).unwrap();
    drop(built);

    let resident = open_resident(&file.0).unwrap();
    let paged = open_with(&file.0, &lazy_opts(4)).unwrap();
    // Every placement table learned first, by a k-NN over every row: each
    // count below is a walk's, not the leaves a table is learned from.
    for opened in [&resident, &paged] {
        opened.index.as_dyn().knn(data.row(0), data.rows()).unwrap();
    }
    let step = (data.rows() / 9).max(1);
    for qi in 0..9 {
        let q = data.row(qi * step);
        let cost = |opened: &Opened| {
            let idx = opened.index.as_dyn();
            let before = idx.query_stats();
            let hits = idx.knn(q, 50).unwrap();
            (hits, idx.query_stats().since(&before))
        };
        let (ref_hits, ref_cost) = cost(&resident);
        let (hits, paged_cost) = cost(&paged);
        assert_answers_identical(&ref_hits, &hits, &format!("query {qi}"));
        assert!(
            ref_cost.pages_touched * 4 < ref_cost.dist_computations,
            "query {qi}: {} fetches for {} candidates",
            ref_cost.pages_touched,
            ref_cost.dist_computations
        );
        assert_eq!(
            ref_cost.pages_touched, paged_cost.pages_touched,
            "query {qi}: fetch count depends on the pool"
        );
        assert_eq!(ref_cost.physical_reads, 0, "query {qi}: resident open");
        assert!(
            paged_cost.physical_reads > 0,
            "query {qi}: 4 frames held it all"
        );
    }
}

/// The leaves an iDistance index's partitions with rows lie on, each
/// counted once a partition (0 for another backend): what learning every
/// placement table reads.
fn partition_leaves(index: &BuiltIndex) -> u64 {
    let BuiltIndex::IDistance(idx) = index else {
        return 0;
    };
    let (mut first, mut leaves) = (0, 0);
    for count in idx.partitions().iter().map(|p| p.count).filter(|&c| c > 0) {
        leaves += (first + count - 1) / LEAF_CAPACITY - first / LEAF_CAPACITY + 1;
        first += count;
    }
    leaves as u64
}

/// A build keeps where its records lie; after an open, the first search
/// that opens an iDistance partition reads its leaves once, to learn it,
/// and a second asking of the query reads none of them again: a k-NN over
/// every row, asked twice, costs a fresh build the same both times, and a
/// resident reopen and a demand-paged reopen with 2 and with 64 frames a
/// pool each the same `[first, second]`, apart by every partition's
/// leaves. Then a pushed-down filter answers the same
/// the first time a query is asked and the second, for every backend and
/// on every open, touching the same pages each time: a search leaves
/// nothing behind that changes the next. And on a reopen, cold or not, an
/// iDistance filtered search pins no heap page that holds only failing
/// rows — the id column, read with the snapshot's small sections, puts a
/// row to the filter before its page — so its heap fetches are at most
/// the rows it evaluates.
#[test]
fn filtered_answers_hold_cold_and_warm_in_every_open_mode() {
    let data = dataset();
    let model = fit(&data);
    let n = data.rows() as u64;
    type Pass = fn(u64) -> bool;
    let passes: [Pass; 3] = [|id| id % 100 == 7, |id| id % 10 == 3, |id| id % 5 < 3];
    let step = (data.rows() / 5).max(1);
    let queries: Vec<&[f64]> = (0..5).map(|i| data.row(i * step)).collect();
    let targets = [Target::Knn(6), Target::Range(0.8)];

    for backend in Backend::all() {
        let file = TempFile::new("filtered");
        let built = build_index(backend, &data, &model, 64).unwrap();
        save(&file.0, &built, &model).unwrap();
        let resident = open_resident(&file.0).unwrap();
        let paged_2 = open_with(&file.0, &lazy_opts(2)).unwrap();
        let paged_64 = open_with(&file.0, &lazy_opts(64)).unwrap();
        let opens = [
            ("fresh build", &built),
            ("resident reopen", &resident.index),
            ("2-frame reopen", &paged_2.index),
            ("64-frame reopen", &paged_64.index),
        ];
        let everything = Query::new(queries[0], Target::Knn(n as usize));
        let mut learning = Vec::new();
        for (_, index) in opens {
            let idx = index.as_dyn();
            for _ in ["first", "second"] {
                let before = idx.query_stats();
                idx.search(&everything, &mut Scratch::default()).unwrap();
                learning.push(idx.query_stats().since(&before).pages_touched);
            }
        }
        let what = format!("{} learning: {learning:?}", backend.name());
        let second = learning[1];
        assert_eq!(learning[0], second, "{what}");
        for open in learning.chunks(2).skip(1) {
            assert_eq!(open, [second + partition_leaves(&built), second], "{what}");
        }
        for pass in passes {
            let filter = SearchFilter::from_rows(RowFilter::from_fn(n, pass));
            for target in targets {
                for (qi, q) in queries.iter().enumerate() {
                    // The oracle: the unfiltered answer over everything,
                    // then the filter, then the cut.
                    let everything = match target {
                        Target::Knn(_) => resident.index.as_dyn().knn(q, n as usize),
                        Target::Range(r) => resident.index.as_dyn().range_search(q, r),
                    };
                    let mut want: Vec<(f64, u64)> = everything
                        .unwrap()
                        .into_iter()
                        .filter(|&(_, id)| pass(id))
                        .collect();
                    if let Target::Knn(k) = target {
                        want.truncate(k);
                    }
                    let query = Query {
                        vector: q,
                        target,
                        filter: Some(&filter),
                    };
                    let mut touched = Vec::new();
                    for (open, index) in opens {
                        let idx = index.as_dyn();
                        let heap = |index: &BuiltIndex| match index {
                            BuiltIndex::IDistance(i) => i.heap().pool().snapshot().pages_touched(),
                            _ => 0,
                        };
                        for asking in ["first", "second"] {
                            let what = format!(
                                "{} {open} {target:?} query {qi}, {asking} asking",
                                backend.name()
                            );
                            let (before, heap_before) = (idx.query_stats(), heap(index));
                            let got = idx.search(&query, &mut Scratch::default()).unwrap();
                            let cost = idx.query_stats().since(&before);
                            touched.push(cost.pages_touched);
                            assert_answers_identical(&want, &got, &what);
                            let heap_fetches = heap(index) - heap_before;
                            assert!(heap_fetches <= cost.dist_computations, "{what}");
                        }
                    }
                    // [first, second] per open, the same: the pool changes
                    // neither, and the first asking leaves nothing behind.
                    let what = format!("{} {target:?} query {qi}", backend.name());
                    assert_eq!(touched[1], touched[0], "{what}: {touched:?}");
                    for open in touched.chunks(2).skip(1) {
                        assert_eq!(open, &touched[..2], "{what}: {touched:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn damaged_page_is_a_typed_error_and_pool_recovers() {
    let data = dataset();
    let model = fit(&data);
    let file = TempFile::new("fault");
    let built = build_index(Backend::IDistance, &data, &model, 64).unwrap();
    save(&file.0, &built, &model).unwrap();
    drop(built);
    let clean = std::fs::read(&file.0).unwrap();

    let resident = open_resident(&file.0).unwrap();
    let q = data.row(5);
    let reference = resident.index.as_dyn().range_search(q, 1e9).unwrap();

    // Corrupt a byte deep in the PAGES section (the file tail), then open
    // demand-paged: the open succeeds — it never reads that section — and
    // the full-range scan that eventually faults the damaged page in gets
    // a typed checksum error, not a panic and not a wrong answer. The
    // successful open is also the structural gate that a lazy open stays
    // ~O(superblock): the eager decoder checks every page's CRC up front,
    // so an `open_with` that reached it could not open this file.
    let mut broken = clean.clone();
    let pos = broken.len() - 10;
    broken[pos] ^= 0x01;
    std::fs::write(&file.0, &broken).unwrap();

    let opened = open_with(&file.0, &lazy_opts(4)).unwrap();
    let idx = opened.index.as_dyn();
    let err = idx.range_search(q, 1e9).unwrap_err();
    assert!(
        chain_contains(&err, "checksum"),
        "expected a checksum error from the faulting scan, got: {err}"
    );
    assert!(
        idx.query_stats().read_errors > 0,
        "failed fetches must tick the read-error counter"
    );

    // Heal the file in place (same inode — the opened index preads through
    // its original descriptor) and retry on the SAME index: the failed
    // fetch must not have wedged the pool or cached poisoned bytes.
    std::fs::write(&file.0, &clean).unwrap();
    let healed = idx.range_search(q, 1e9).unwrap();
    assert_answers_identical(&reference, &healed, "post-recovery full-range scan");

    // A file truncated *after* the open (the whole-file length check at
    // open time catches earlier truncation) short-reads at fault time —
    // equally fail-closed, equally recoverable.
    let opened = open_with(&file.0, &lazy_opts(4)).unwrap();
    let idx = opened.index.as_dyn();
    let handle = std::fs::OpenOptions::new()
        .write(true)
        .open(&file.0)
        .unwrap();
    handle.set_len(clean.len() as u64 - 100).unwrap();
    drop(handle);
    assert!(
        idx.range_search(q, 1e9).is_err(),
        "a scan over a truncated page payload must error"
    );
    std::fs::write(&file.0, &clean).unwrap();
    let healed = idx.range_search(q, 1e9).unwrap();
    assert_answers_identical(&reference, &healed, "post-truncation full-range scan");
}

#[test]
fn hybrid_range_walk_readahead_hits_rise() {
    let data = dataset();
    let model = fit(&data);
    let file = TempFile::new("range-readahead");
    let built = build_index(Backend::Gldr, &data, &model, 64).unwrap();
    save(&file.0, &built, &model).unwrap();
    drop(built);

    let resident = open_resident(&file.0).unwrap();
    let step = (data.rows() / 7).max(1);
    let queries: Vec<Vec<f64>> = (0..7).map(|i| data.row(i * step).to_vec()).collect();
    let radius = 0.8;
    let reference: Vec<Vec<(f64, u64)>> = queries
        .iter()
        .map(|q| resident.index.as_dyn().range_search(q, radius).unwrap())
        .collect();

    // Demand-paged with a sequential-readahead window: the range walk
    // visits qualifying leaves in sibling order and hints the next one, so
    // a meaningful share of its page misses must be absorbed by the
    // readahead buffer rather than hitting the file one page at a time.
    let opened = open_with(&file.0, &lazy_opts(8)).unwrap();
    let idx = opened.index.as_dyn();
    assert_eq!(
        idx.query_stats().readahead_hits,
        0,
        "no readahead before any query"
    );
    let mut hits_so_far = 0;
    for (qi, q) in queries.iter().enumerate() {
        assert_answers_identical(
            &reference[qi],
            &idx.range_search(q, radius).unwrap(),
            &format!("readahead range query {qi}"),
        );
        let now = idx.query_stats().readahead_hits;
        assert!(
            now >= hits_so_far,
            "readahead_hits is monotone ({now} < {hits_so_far})"
        );
        hits_so_far = now;
    }
    assert!(
        hits_so_far > 0,
        "sibling-order range walk produced no readahead hits"
    );

    // The same walks with readahead disabled: answers identical, zero hits
    // — the hint path is an optimization, never a semantic dependency.
    let opened_off = open_with(
        &file.0,
        &OpenOptions {
            pool_pages: Some(8),
            readahead: 0,
            resident: false,
        },
    )
    .unwrap();
    let idx_off = opened_off.index.as_dyn();
    for (qi, q) in queries.iter().enumerate() {
        assert_answers_identical(
            &reference[qi],
            &idx_off.range_search(q, radius).unwrap(),
            &format!("no-readahead range query {qi}"),
        );
    }
    assert_eq!(idx_off.query_stats().readahead_hits, 0);
}
