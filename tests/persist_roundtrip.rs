//! Snapshot round-trip guarantees, end to end: for every backend, an index
//! built, saved and reopened answers KNN queries with *bit-identical*
//! `(distance, id)` pairs — and every kind of file damage (truncation, bit
//! flips, wrong magic, future format version) surfaces as a typed
//! [`PersistError`], never a panic or a silently wrong index.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{LiveIndex, QueryStats, VectorIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{
    build_index, open, open_expecting, open_or_build, open_resident, open_with, save,
    save_with_attrs, scrub, wal_path, BuiltIndex, IngestEngine, IngestOptions, OpenOptions,
    PersistError,
};
use mmdr_query::{AttrStore, AttrType, AttrValue};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique snapshot path per call, removed by [`TempFile::drop`].
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "mmdr-persist-test-{}-{tag}-{seq}.snapshot",
            std::process::id()
        ));
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(wal_path(&self.0));
    }
}

/// Two elongated clusters plus a sprinkle of off-plane points (so both the
/// cluster and the outlier paths of every backend are exercised), jittered
/// deterministically from `shift`.
fn dataset(n_per_cluster: usize, shift: f64) -> Matrix {
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s + shift).fract() - 0.5) * 0.02;
    for i in 0..n_per_cluster {
        let t = i as f64 / n_per_cluster.max(2) as f64;
        rows.push(vec![t + shift, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
        rows.push(vec![
            5.0 + jit(i, 0.1),
            5.0 + jit(i, 0.9),
            5.0 + t,
            5.0 - 0.5 * t + shift,
        ]);
        if i % 17 == 0 {
            rows.push(vec![-3.0 - t, 8.0 + t, -5.0 + shift, 9.0 - t]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For every backend: build → save → open yields an index whose KNN
    /// answers are bit-for-bit the answers of the freshly built one.
    #[test]
    fn saved_and_reopened_indexes_answer_identically(
        n_per_cluster in 40usize..90,
        shift in 0.0f64..1.5,
        k in 1usize..8,
    ) {
        let data = dataset(n_per_cluster, shift);
        let model = fit(&data);
        let queries: Vec<&[f64]> = (0..5).map(|i| data.row(i * (data.rows() / 5))).collect();
        for backend in Backend::all() {
            let file = TempFile::new(backend.name());
            let built = build_index(backend, &data, &model, 64).unwrap();
            save(&file.0, &built, &model).unwrap();
            let opened = open(&file.0).unwrap();
            prop_assert_eq!(opened.backend, backend);
            prop_assert_eq!(opened.model.num_points, model.num_points);
            prop_assert_eq!(opened.index.as_dyn().len(), built.as_dyn().len());
            for (qi, q) in queries.iter().enumerate() {
                let fresh = built.as_dyn().knn(q, k).unwrap();
                let again = opened.index.as_dyn().knn(q, k).unwrap();
                assert_answers_identical(
                    &fresh,
                    &again,
                    &format!("{} query {qi} k={k}", backend.name()),
                );
            }
        }
    }
}

#[test]
fn reopened_index_streams_through_io_stats_like_a_built_one() {
    let data = dataset(60, 0.0);
    let model = fit(&data);
    for backend in Backend::all() {
        let file = TempFile::new("iostats");
        let built = build_index(backend, &data, &model, 16).unwrap();
        save(&file.0, &built, &model).unwrap();
        let opened = open(&file.0).unwrap();
        let index = opened.index.as_dyn();
        // Restoring pages costs no logical I/O, for every backend.
        assert_eq!(
            index.query_stats(),
            QueryStats::default(),
            "{}: an open fetches nothing",
            backend.name()
        );
        let _ = index.knn(data.row(3), 5).unwrap();
        assert!(
            index.query_stats().pages_touched > 0,
            "{}: queries must tick the pools",
            backend.name()
        );
    }
}

/// One fetch, one count: what `query_stats()` reports is what the pools
/// `pool_stats()` lists counted — a touch per fetch, a read per miss — for
/// every backend built, opened resident and opened demand-paged on 8 frames,
/// at open and after KNN and range queries, and for an ingest engine's
/// epoch once a flush has folded its delta into fresh structures.
#[test]
fn query_stats_and_pool_stats_count_each_fetch_once() {
    let data = dataset(120, 0.0);
    let model = fit(&data);
    let agree = |index: &dyn VectorIndex, what: &str| {
        let (stats, pools) = (index.query_stats(), index.pool_stats());
        let touched: u64 = pools.iter().map(|p| p.pages_touched()).sum();
        let misses: u64 = pools.iter().map(|p| p.misses()).sum();
        assert_eq!(stats.pages_touched, touched, "{what}: pages touched");
        assert_eq!(stats.page_reads, misses, "{what}: page reads");
    };
    let exercise = |index: &dyn VectorIndex, what: &str| {
        agree(index, &format!("{what} at open"));
        index.knn(data.row(3), 5).unwrap();
        agree(index, &format!("{what} after a knn"));
        index.range_search(data.row(90), 0.5).unwrap();
        agree(index, &format!("{what} after a range search"));
    };
    for backend in Backend::all() {
        let file = TempFile::new("one-ledger");
        let built = build_index(backend, &data, &model, 16).unwrap();
        save(&file.0, &built, &model).unwrap();
        let resident = open_resident(&file.0).unwrap();
        let paged = OpenOptions {
            pool_pages: Some(8),
            ..OpenOptions::default()
        };
        let paged = open_with(&file.0, &paged).unwrap();
        for (state, index) in [
            ("built", built.as_dyn()),
            ("resident", resident.index.as_dyn()),
            ("paged", paged.index.as_dyn()),
        ] {
            exercise(index, &format!("{} {state}", backend.name()));
        }

        let opts = IngestOptions {
            merge_threshold: 0,
            ..IngestOptions::default()
        };
        let engine = IngestEngine::create(&file.0, backend, &data, &model, 16, opts).unwrap();
        engine.insert(data.row(7)).unwrap();
        engine.flush().unwrap();
        exercise(
            engine.pin().index.as_ref(),
            &format!("{} engine after flush", backend.name()),
        );
    }
}

/// A built index and its resident reopen are put together by one path and
/// their pools start alike, with no page in a frame: the same queries
/// leave every shard's hits, misses and evictions, and every count
/// `query_stats()` reports, equal field for field — on pools small enough
/// to evict.
#[test]
fn a_built_index_counts_like_its_reopen() {
    let data = dataset(600, 0.0);
    let model = fit(&data);
    for backend in Backend::all() {
        let file = TempFile::new("counts-alike");
        let built = build_index(backend, &data, &model, 2).unwrap();
        save(&file.0, &built, &model).unwrap();
        let opened = open_resident(&file.0).unwrap();
        let (built, opened) = (built.as_dyn(), opened.index.as_dyn());
        for (i, row) in [3, 90, 801, 3].into_iter().enumerate() {
            for index in [built, opened] {
                index.knn(data.row(row), 5 + i).unwrap();
                index.range_search(data.row(row), 0.3).unwrap();
            }
            assert_eq!(
                built.pool_stats(),
                opened.pool_stats(),
                "{}",
                backend.name()
            );
            assert_eq!(
                built.query_stats(),
                opened.query_stats(),
                "{}",
                backend.name()
            );
        }
        let evictions: u64 = built.pool_stats().iter().map(|p| p.evictions()).sum();
        assert!(evictions > 0, "{}: the pools must evict", backend.name());
    }
}

#[test]
fn range_search_parity_after_reopen() {
    let data = dataset(60, 0.25);
    let model = fit(&data);
    for backend in Backend::all() {
        let file = TempFile::new("range");
        let built = build_index(backend, &data, &model, 64).unwrap();
        save(&file.0, &built, &model).unwrap();
        let opened = open(&file.0).unwrap();
        let fresh = built.as_dyn().range_search(data.row(7), 0.8).unwrap();
        let again = opened
            .index
            .as_dyn()
            .range_search(data.row(7), 0.8)
            .unwrap();
        assert_answers_identical(&fresh, &again, &format!("{} range", backend.name()));
    }
}

#[test]
fn concurrent_batch_knn_on_reopened_snapshot_matches_serial() {
    // A reopened snapshot must be just as safe to share across query
    // threads as a freshly built index: parallel batch_knn against the
    // restored (sharded) buffer pool returns the serial fresh-build
    // answers bit-for-bit at every thread count.
    use mmdr::core::ParConfig;
    let data = dataset(70, 0.4);
    let model = fit(&data);
    let step = (data.rows() / 12).max(1);
    let queries: Vec<Vec<f64>> = (0..12).map(|i| data.row(i * step).to_vec()).collect();
    for backend in Backend::all() {
        let file = TempFile::new("concurrent");
        let built = build_index(backend, &data, &model, 32).unwrap();
        save(&file.0, &built, &model).unwrap();
        let opened = open(&file.0).unwrap();
        let serial: Vec<Vec<(f64, u64)>> = queries
            .iter()
            .map(|q| built.as_dyn().knn(q, 6).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = opened
                .index
                .as_dyn()
                .batch_knn(&queries, 6, &ParConfig::threads(threads))
                .unwrap();
            for (qi, (fresh, again)) in serial.iter().zip(&batch).enumerate() {
                assert_answers_identical(
                    fresh,
                    again,
                    &format!(
                        "{} reopened query {qi} at {threads} threads",
                        backend.name()
                    ),
                );
            }
        }
    }
}

/// One saved snapshot to damage in the corruption tests below.
fn snapshot_bytes() -> Vec<u8> {
    let data = dataset(50, 0.5);
    let model = fit(&data);
    let file = TempFile::new("corruption-source");
    let built = build_index(Backend::IDistance, &data, &model, 32).unwrap();
    save(&file.0, &built, &model).unwrap();
    std::fs::read(&file.0).unwrap()
}

fn write_image(bytes: &[u8], tag: &str) -> TempFile {
    let file = TempFile::new(tag);
    std::fs::write(&file.0, bytes).unwrap();
    file
}

fn open_image(bytes: &[u8], tag: &str) -> Result<mmdr_persist::Opened, PersistError> {
    let file = write_image(bytes, tag);
    open(&file.0)
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
fn truncated_snapshot_fails_closed() {
    let image = snapshot_bytes();
    // Cut at several depths: inside the superblock, the table, and the
    // page payloads — including losing just the final byte.
    for cut in [0, 10, 60, 100, image.len() / 2, image.len() - 1] {
        match open_image(&image[..cut], "trunc") {
            Err(
                PersistError::Truncated { .. }
                | PersistError::Checksum { .. }
                | PersistError::Malformed(_),
            ) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(_) => panic!("cut at {cut}: truncated snapshot opened"),
        }
    }
    // A deep cut that leaves the header intact is reported as truncation
    // specifically, with byte counts.
    match open_image(&image[..image.len() - 1], "trunc-last") {
        Err(PersistError::Truncated { expected, actual }) => {
            assert_eq!(expected, image.len() as u64);
            assert_eq!(actual, image.len() as u64 - 1);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn flipped_bytes_fail_closed() {
    let image = snapshot_bytes();
    let data = dataset(50, 0.5);
    let q = data.row(3);
    // Reference answers from the clean image, for the fail-closed sweep:
    // a huge-radius range search walks every tree level and heap page, so
    // it faults in every page the index can ever touch.
    let clean_hits = {
        let file = write_image(&image, "flip-clean");
        let opened = open(&file.0).unwrap();
        opened.index.as_dyn().range_search(q, 1e9).unwrap()
    };
    // Flip one bit at a spread of positions covering every region of the
    // file; each must produce a typed error (or, for the version field,
    // UnsupportedVersion — never a success, never a panic).
    for pos in (0..image.len()).step_by(image.len() / 41 + 1) {
        let mut broken = image.clone();
        broken[pos] ^= 0x10;
        let file = write_image(&broken, "flip");
        // The deep verifier catches a flip anywhere in the file.
        assert!(
            scrub(&file.0).is_err(),
            "scrub missed a flipped byte {pos} of {}",
            image.len()
        );
        // The demand-read open fails closed too: either the open itself
        // errors (header, table, model, metadata, page directory), or the
        // query that faults the damaged page in does — never a silently
        // different answer.
        match open(&file.0) {
            Err(_) => {}
            Ok(opened) => match opened.index.as_dyn().range_search(q, 1e9) {
                Err(_) => {}
                Ok(hits) => assert_answers_identical(
                    &clean_hits,
                    &hits,
                    &format!("flip at byte {pos} silently changed answers"),
                ),
            },
        }
    }
    // A payload flip specifically reports which section's checksum broke
    // when the file is verified in full.
    let mut broken = image.clone();
    let last = broken.len() - 10;
    broken[last] ^= 0x01;
    let file = write_image(&broken, "flip-pages");
    match open_resident(&file.0) {
        Err(PersistError::Checksum {
            region,
            stored,
            computed,
        }) => {
            assert_eq!(region, "section pages");
            assert_ne!(stored, computed);
        }
        other => panic!("expected a pages checksum failure, got {other:?}"),
    }
    // The lazy open defers that discovery to first touch: the open (which
    // never reads the PAGES section) succeeds, and the query that faults
    // the damaged page in reports its checksum failure.
    let opened = open(&file.0).unwrap();
    let err = opened.index.as_dyn().range_search(q, 1e9).unwrap_err();
    assert!(
        chain_contains(&err, "checksum"),
        "expected a checksum failure from the faulting query, got {err}"
    );
}

/// What a resident open (and so [`scrub`]) says of damage only it reads up
/// front: a flipped byte in the page directory, in a page image, and in the
/// table's CRC field for PAGES each name the region whose checksum broke.
#[test]
fn a_resident_open_names_the_damaged_region() {
    use mmdr_persist::format::{self, section_id, SUPERBLOCK_LEN, TABLE_ENTRY_LEN};
    let image = snapshot_bytes();
    let sb = format::parse_superblock(&image[..SUPERBLOCK_LEN], image.len() as u64).unwrap();
    let table = &image[SUPERBLOCK_LEN..SUPERBLOCK_LEN + sb.table_len()];
    let entries = format::parse_table(table, &sb).unwrap();
    let slot = |id: u32| entries.iter().position(|e| e.id == id).unwrap();
    let pagedir = entries[slot(section_id::PAGEDIR)];
    let pages = entries[slot(section_id::PAGES)];
    let pages_crc_field = SUPERBLOCK_LEN + slot(section_id::PAGES) * TABLE_ENTRY_LEN + 4;
    for (pos, want) in [
        (pagedir.offset as usize + 5, "section pagedir"),
        ((pages.offset + pages.len / 2) as usize, "section pages"),
        (pages_crc_field, "section table"),
    ] {
        let mut broken = image.clone();
        broken[pos] ^= 0x04;
        let file = write_image(&broken, "named-region");
        for (how, result) in [
            ("open_resident", open_resident(&file.0).map(drop)),
            ("scrub", scrub(&file.0)),
        ] {
            match result {
                Err(PersistError::Checksum { region, .. }) => {
                    assert_eq!(region, want, "{how}, byte {pos}")
                }
                other => panic!("{how}, byte {pos}: expected a {want} checksum, got {other:?}"),
            }
        }
    }
}

#[test]
fn wrong_magic_fails_closed() {
    let mut image = snapshot_bytes();
    image[0..8].copy_from_slice(b"NOTASNAP");
    match open_image(&image, "magic") {
        Err(PersistError::BadMagic { found }) => assert_eq!(&found, b"NOTASNAP"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_reports_unsupported_not_checksum() {
    let next = mmdr_persist::FORMAT_VERSION + 1;
    let mut image = snapshot_bytes();
    image[8..12].copy_from_slice(&next.to_le_bytes());
    match open_image(&image, "version") {
        Err(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, next);
            assert_eq!(supported, mmdr_persist::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn a_snapshot_of_the_previous_format_is_refused_by_its_version() {
    // What a v11 writer left (the same sections but a heap's META record
    // holding its open append page): version 11 under a superblock CRC
    // that is right for it.
    // There is no second reader; the refusal is typed.
    let mut image = snapshot_bytes();
    image[8..12].copy_from_slice(&11u32.to_le_bytes());
    image[44..48].fill(0);
    let crc = mmdr_persist::crc32(&image[..80]);
    image[44..48].copy_from_slice(&crc.to_le_bytes());
    for resident in [false, true] {
        let file = write_image(&image, "v11");
        let options = OpenOptions {
            resident,
            ..OpenOptions::default()
        };
        match open_with(&file.0, &options) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (11, 12));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// A cluster of one retained coordinate fills a heap page with 1 022
/// records, past the 511 a 9-bit placement slot could name: its index
/// builds, saves, reopens (resident and demand-paged) and answers k-NN and
/// range queries bit-identically to the scan over the same model.
#[test]
fn a_one_coordinate_cluster_fills_its_pages_and_answers_as_the_scan() {
    let data = dataset(1500, 0.0);
    let model = fit(&data);
    let line =
        (model.clusters.iter()).find(|c| c.subspace.reduced_dim() == 1 && c.members.len() > 1022);
    assert!(line.is_some(), "a d_r = 1 cluster over two heap pages");
    let scan = build_index(Backend::SeqScan, &data, &model, 64).unwrap();
    let built = build_index(Backend::IDistance, &data, &model, 64).unwrap();
    let BuiltIndex::IDistance(idx) = &built else {
        unreachable!("an iDistance build");
    };
    let full = idx.heap().id_pages().iter().map(Vec::len).max();
    assert_eq!(full, Some(1022), "a full page of one-coordinate records");
    let file = TempFile::new("one-coordinate");
    save(&file.0, &built, &model).unwrap();
    let paged = OpenOptions {
        pool_pages: Some(4),
        ..OpenOptions::default()
    };
    let reopened = [
        open_resident(&file.0).unwrap(),
        open_with(&file.0, &paged).unwrap(),
    ];
    let n = data.rows();
    for (qi, q) in (0..n).step_by(97).map(|i| data.row(i)).enumerate() {
        let knn = scan.as_dyn().knn(q, 10).unwrap();
        let range = scan.as_dyn().range_search(q, 0.05).unwrap();
        let all = scan.as_dyn().knn(q, n).unwrap();
        for (how, index) in [("built", &built)]
            .into_iter()
            .chain(reopened.iter().map(|o| ("reopened", &o.index)))
        {
            let index = index.as_dyn();
            let what = format!("{how} query {qi}");
            assert_answers_identical(&knn, &index.knn(q, 10).unwrap(), &what);
            assert_answers_identical(&range, &index.range_search(q, 0.05).unwrap(), &what);
            assert_answers_identical(&all, &index.knn(q, n).unwrap(), &what);
        }
    }
}

#[test]
fn a_snapshot_whose_backend_tag_is_retired_is_refused() {
    // Tag 3 named a backend this format no longer has: a `seqscan` file
    // with its tag patched to 3, under a superblock CRC that is right for
    // it, is refused by its tag in both open modes.
    let data = dataset(50, 0.5);
    let model = fit(&data);
    let source = TempFile::new("tag3-source");
    let built = build_index(Backend::SeqScan, &data, &model, 32).unwrap();
    save(&source.0, &built, &model).unwrap();
    let mut image = std::fs::read(&source.0).unwrap();
    assert_eq!(image[16..20], 1u32.to_le_bytes(), "seqscan's tag");
    image[16..20].copy_from_slice(&3u32.to_le_bytes());
    image[44..48].fill(0);
    let crc = mmdr_persist::crc32(&image[..80]);
    image[44..48].copy_from_slice(&crc.to_le_bytes());
    for resident in [false, true] {
        let file = write_image(&image, "tag3");
        let options = OpenOptions {
            resident,
            ..OpenOptions::default()
        };
        match open_with(&file.0, &options) {
            Err(PersistError::UnknownBackendTag(3)) => {}
            other => panic!("expected UnknownBackendTag(3), got {other:?}"),
        }
    }
}

/// Every leaf entry of an iDistance index, in leaf order: its leaf's key
/// range, its position and its code.
fn leaf_entries(index: &BuiltIndex) -> Vec<(u64, u64, u64, u64)> {
    let BuiltIndex::IDistance(index) = index else {
        panic!("an iDistance index");
    };
    let tree = index.tree();
    let mut cursor = tree.seek(0.0).unwrap();
    let mut entries = Vec::with_capacity(tree.len());
    while let Some((lo, position)) = tree.cursor_next(&mut cursor).unwrap() {
        let hi = cursor.key_hi();
        entries.push((lo.to_bits(), hi.to_bits(), position, cursor.code()));
    }
    assert_eq!(entries.len(), tree.len());
    entries
}

#[test]
fn codebooks_and_codes_survive_save_and_open() {
    let data = dataset(400, 0.25);
    let model = fit(&data);
    let built = build_index(Backend::IDistance, &data, &model, 64).unwrap();
    let file = TempFile::new("codes");
    save(&file.0, &built, &model).unwrap();
    let codebooks = |index: &BuiltIndex| match index {
        BuiltIndex::IDistance(index) => index
            .partitions()
            .iter()
            .map(|p| p.codebook.clone())
            .collect::<Vec<_>>(),
        _ => panic!("an iDistance index"),
    };
    let want_books = codebooks(&built);
    // A partition loaded empty has no codebook, and that round-trips too.
    assert!(
        want_books.iter().flatten().count() >= 2,
        "the clusters have rows"
    );
    let want_entries = leaf_entries(&built);
    assert!(
        want_entries.iter().any(|&(_, _, _, code)| code != 0),
        "the leaves carry codes"
    );
    // What a query costs says the codes are used, not merely kept: its
    // second asking, after the first has learned its partitions' placement
    // tables.
    let cost = |index: &BuiltIndex, q: &[f64]| {
        let index = index.as_dyn();
        index.knn(q, 10).unwrap();
        let before = index.query_stats();
        let hits = index.knn(q, 10).unwrap();
        let spent = index.query_stats().since(&before);
        (hits, spent.pages_touched, spent.dist_computations)
    };
    let paged = OpenOptions {
        pool_pages: Some(2),
        readahead: 0,
        resident: false,
    };
    let resident = OpenOptions {
        resident: true,
        ..OpenOptions::default()
    };
    for (name, options) in [("paged", paged), ("resident", resident)] {
        let opened = open_with(&file.0, &options).unwrap();
        assert_eq!(codebooks(&opened.index), want_books, "{name}");
        assert_eq!(leaf_entries(&opened.index), want_entries, "{name}");
        for probe in [0, 17, 400, 801] {
            let q = data.row(probe);
            let (fresh, fresh_pages, fresh_dists) = cost(&built, q);
            let (again, pages, dists) = cost(&opened.index, q);
            assert_answers_identical(&fresh, &again, &format!("{name} probe {probe}"));
            assert_eq!(
                (pages, dists),
                (fresh_pages, fresh_dists),
                "{name} probe {probe}"
            );
            assert!(
                (dists as usize) < data.rows() / 4,
                "{name} probe {probe}: {dists} distances for ten neighbours"
            );
        }
    }
}

#[test]
fn missing_file_and_backend_mismatch_are_typed() {
    let missing = std::env::temp_dir().join("mmdr-persist-test-definitely-missing.snapshot");
    assert!(matches!(open(&missing), Err(PersistError::Io { .. })));

    let data = dataset(40, 0.0);
    let model = fit(&data);
    let file = TempFile::new("mismatch");
    let built = build_index(Backend::SeqScan, &data, &model, 16).unwrap();
    save(&file.0, &built, &model).unwrap();
    match open_expecting(&file.0, Backend::Gldr) {
        Err(PersistError::BackendMismatch { expected, found }) => {
            assert_eq!(expected, "gldr");
            assert_eq!(found, "seqscan");
        }
        other => panic!("expected BackendMismatch, got {other:?}"),
    }
}

#[test]
fn attribute_less_snapshots_stay_byte_identical() {
    // The ATTRS section is strictly opt-in: saving with no store — or an
    // *empty* store — must produce exactly the bytes the plain save path
    // produces, so pre-attribute snapshots and tooling never notice it.
    let data = dataset(40, 0.2);
    let model = fit(&data);
    let built = build_index(Backend::SeqScan, &data, &model, 32).unwrap();
    let plain = TempFile::new("attrs-plain");
    save(&plain.0, &built, &model).unwrap();
    let none = TempFile::new("attrs-none");
    save_with_attrs(&none.0, &built, &model, 0, None).unwrap();
    let empty = TempFile::new("attrs-empty");
    save_with_attrs(&empty.0, &built, &model, 0, Some(&AttrStore::default())).unwrap();
    let plain_bytes = std::fs::read(&plain.0).unwrap();
    assert_eq!(plain_bytes, std::fs::read(&none.0).unwrap());
    assert_eq!(plain_bytes, std::fs::read(&empty.0).unwrap());
    // And a legacy (attribute-less) snapshot opens with no store attached.
    let opened = open(&plain.0).unwrap();
    assert!(opened.attrs.is_none());
}

#[test]
fn attrs_section_roundtrips_through_lazy_and_resident_opens() {
    let data = dataset(40, 0.6);
    let model = fit(&data);
    let mut store = AttrStore::new(&[
        ("kind", AttrType::Tag),
        ("score", AttrType::F64),
        ("n", AttrType::I64),
    ])
    .unwrap();
    for id in 0..data.rows() as u64 {
        if id % 3 == 0 {
            store
                .set(id, "kind", &AttrValue::Tag("triple".into()))
                .unwrap();
        }
        store
            .set(id, "score", &AttrValue::F64(id as f64 * 0.25 - 3.0))
            .unwrap();
        store.set(id, "n", &AttrValue::I64(-(id as i64))).unwrap();
    }
    for backend in Backend::all() {
        let file = TempFile::new("attrs-roundtrip");
        let built = build_index(backend, &data, &model, 32).unwrap();
        save_with_attrs(&file.0, &built, &model, 0, Some(&store)).unwrap();
        // The deep verifier accepts the extra section.
        scrub(&file.0).unwrap();
        for resident in [false, true] {
            let opened = if resident {
                open_resident(&file.0).unwrap()
            } else {
                open(&file.0).unwrap()
            };
            let restored = opened.attrs.expect("ATTRS section must restore");
            assert_eq!(restored.capacity(), store.capacity());
            assert_eq!(restored.schema(), store.schema());
            for id in [0u64, 1, 3, data.rows() as u64 - 1] {
                for col in ["kind", "score", "n"] {
                    assert_eq!(
                        restored.get(id, col).unwrap(),
                        store.get(id, col).unwrap(),
                        "{}: row {id} column {col} (resident={resident})",
                        backend.name()
                    );
                }
            }
            // The vector side is untouched by the extra section.
            let fresh = built.as_dyn().knn(data.row(5), 4).unwrap();
            let again = opened.index.as_dyn().knn(data.row(5), 4).unwrap();
            assert_answers_identical(&fresh, &again, backend.name());
        }
    }
}

#[test]
fn concurrent_open_or_build_both_return_valid_indexes() {
    // Two threads race open_or_build on the same missing path. Each saver
    // writes through its own uniquely named temp file, so the atomic
    // rename picks a winner without ever interleaving bytes: both racers
    // must come back with queryable indexes answering identically, and the
    // file left behind must be a healthy snapshot.
    let data = dataset(45, 0.3);
    let model = fit(&data);
    let file = TempFile::new("race");
    let expected = {
        let built = build_index(Backend::IDistance, &data, &model, 32).unwrap();
        built.as_dyn().knn(data.row(4), 5).unwrap()
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (path, data, model) = (&file.0, &data, &model);
                s.spawn(move || {
                    let (index, _reused) =
                        open_or_build(path, Backend::IDistance, data, model, 32).unwrap();
                    index.as_dyn().knn(data.row(4), 5).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, answers) in results.iter().enumerate() {
        assert_answers_identical(&expected, answers, &format!("racer {i}"));
    }
    // Whoever won the rename, the surviving file is complete and typed.
    let opened = open_expecting(&file.0, Backend::IDistance).unwrap();
    let reopened = opened.index.as_dyn().knn(data.row(4), 5).unwrap();
    assert_answers_identical(&expected, &reopened, "winner snapshot");
    // No stray temp files were left next to the snapshot.
    let dir = file.0.parent().unwrap();
    let stem = file.0.file_name().unwrap().to_string_lossy().into_owned();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !(name.starts_with(&stem) && name.contains(".tmp")),
            "leftover temp file {name}"
        );
    }
}

#[test]
fn open_or_build_caches_and_recovers_from_damage() {
    let data = dataset(45, 0.75);
    let model = fit(&data);
    let file = TempFile::new("cache");
    // First call builds and writes the snapshot.
    let (first, reused) = open_or_build(&file.0, Backend::Gldr, &data, &model, 32).unwrap();
    assert!(!reused);
    // Second call reuses it, answers identical.
    let (second, reused) = open_or_build(&file.0, Backend::Gldr, &data, &model, 32).unwrap();
    assert!(reused);
    let a = first.as_dyn().knn(data.row(2), 4).unwrap();
    let b = second.as_dyn().knn(data.row(2), 4).unwrap();
    assert_answers_identical(&a, &b, "cache reuse");
    // Damage the cache: the helper rebuilds instead of failing or reusing.
    let mut bytes = std::fs::read(&file.0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&file.0, &bytes).unwrap();
    let (third, reused) = open_or_build(&file.0, Backend::Gldr, &data, &model, 32).unwrap();
    assert!(!reused, "a damaged snapshot must trigger a rebuild");
    let c = third.as_dyn().knn(data.row(2), 4).unwrap();
    assert_answers_identical(&a, &c, "rebuild after damage");
    // And the rewritten snapshot is healthy again.
    let (_, reused) = open_or_build(&file.0, Backend::Gldr, &data, &model, 32).unwrap();
    assert!(reused);
}
