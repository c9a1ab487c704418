//! The ingest gate: a live sequence of inserts and deletes — WAL-logged,
//! delta-served, background-merged, epoch-swapped — must answer exactly
//! like an index built from scratch over the surviving rows. Id-exact and
//! distance-bit-identical, serially and at 1/2/4/8 threads; concurrent
//! readers never observe a torn epoch while merges swap under them; a
//! crash image (snapshot + WAL copied mid-stream) reopens to the same
//! answers the uncrashed engine gives; and the whole path holds over the
//! wire through the TCP server.

use mmdr_core::{Mmdr, MmdrParams, ParConfig, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{IngestOp, LiveIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{build_index, extend_model, wal_path, BuiltIndex, IngestEngine, IngestOptions};
use mmdr_serve::{Client, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique directory per call, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mmdr-ingest-parity-{}-{tag}-{seq}",
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

/// Two elongated clusters plus off-plane outliers, deterministic.
fn dataset(n_per_cluster: usize) -> Matrix {
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
    for i in 0..n_per_cluster {
        let t = i as f64 / n_per_cluster.max(2) as f64;
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

/// New rows the fitted model routes to a cluster and to the outlier side,
/// mixed — inserts must exercise both paths.
fn new_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = (i as f64 * 0.381_966).fract();
            if i % 3 == 2 {
                vec![2.0 + t, -1.0 - t, 2.0, -2.0]
            } else {
                vec![t, 0.3 * t, 0.001, -0.001]
            }
        })
        .collect()
}

/// Fresh-build reference over the union: base data plus the inserted rows
/// under the same extended model lineage the engine folds with, deletes
/// applied as tombstones.
fn reference(backend: Backend, data: &Matrix, inserts: &[Vec<f64>], deletes: &[u64]) -> BuiltIndex {
    let mut union = data.clone();
    for v in inserts {
        union.push_row(v).unwrap();
    }
    let mut model = fit(data);
    let base_rows = data.rows() as u64;
    let ops: Vec<IngestOp> = inserts
        .iter()
        .enumerate()
        .map(|(i, v)| IngestOp::Insert {
            id: base_rows + i as u64,
            vector: v.clone(),
        })
        .collect();
    extend_model(&mut model, &ops).unwrap();
    let fresh = build_index(backend, &union, &model, 128).unwrap();
    for &id in deletes {
        let _ = fresh.delete(id).unwrap();
    }
    fresh
}

fn assert_bit_identical(a: &[(f64, u64)], b: &[(f64, u64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: answer lengths differ");
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.1, y.1, "{what}: id differs at rank {rank}");
        assert_eq!(
            x.0.to_bits(),
            y.0.to_bits(),
            "{what}: distance not bit-identical at rank {rank} ({} vs {})",
            x.0,
            y.0
        );
    }
}

/// The core gate: for every backend, a live insert/delete sequence with at
/// least one background merge + epoch swap mid-stream answers exactly like
/// a fresh build over the survivors — serially and at 1/2/4/8 threads.
#[test]
fn live_sequence_matches_fresh_build_over_union() {
    let data = dataset(120);
    let model = fit(&data);
    let inserts = new_rows(24);
    let deletes: Vec<u64> = vec![3, 77, data.rows() as u64 + 5];
    let k = 10;

    for backend in Backend::all() {
        let dir = TempDir::new(backend.name());
        let path = dir.file("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            backend,
            &data,
            &model,
            128,
            IngestOptions {
                pool_pages: None,
                // Small enough that the insert stream trips background
                // merges while later operations are still arriving.
                merge_threshold: 10,
            },
        )
        .unwrap();

        for (i, v) in inserts.iter().enumerate() {
            let id = engine.insert(v).unwrap();
            assert_eq!(id, data.rows() as u64 + i as u64, "ids are sequential");
            if i == 8 {
                // Interleave the deletes mid-stream, straddling a merge.
                assert!(engine.delete(deletes[0]).unwrap());
                assert!(engine.delete(deletes[1]).unwrap());
            }
        }
        assert!(engine.delete(deletes[2]).unwrap(), "delete an inserted row");
        // quiesce() joins the merge the inserts spawned.
        engine.quiesce();
        let stats = engine.ingest_stats();
        assert!(
            stats.merges >= 1,
            "{}: background merge never landed",
            backend.name()
        );
        assert!(
            stats.epoch >= 1,
            "{}: epoch must have swapped",
            backend.name()
        );

        let fresh = reference(backend, &data, &inserts, &deletes);
        let pin = engine.pin();

        let step = (data.rows() / 7).max(1);
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|i| data.row(i * step).to_vec())
            .chain(inserts.iter().take(3).cloned())
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            let what = format!("{} query {qi}", backend.name());
            let live = pin.index.knn(q, k).unwrap();
            assert_bit_identical(&fresh.as_dyn().knn(q, k).unwrap(), &live, &what);
            assert!(
                !live.iter().any(|&(_, id)| deletes.contains(&id)),
                "{what}: deleted ids stay gone"
            );
            assert_bit_identical(
                &fresh.as_dyn().range_search(q, 0.7).unwrap(),
                &pin.index.range_search(q, 0.7).unwrap(),
                &format!("{what} range"),
            );
        }

        let serial = fresh
            .as_dyn()
            .batch_knn(&queries, k, &ParConfig::threads(1))
            .unwrap();
        for threads in [1usize, 2, 4, 8] {
            let live = pin
                .index
                .batch_knn(&queries, k, &ParConfig::threads(threads))
                .unwrap();
            assert_eq!(
                live,
                serial,
                "{}: batch answers at {threads} threads diverge",
                backend.name()
            );
        }
    }
}

/// Readers hammering KNN while merges swap epochs under them: every answer
/// comes from one coherent epoch — correct length, sorted, never an error,
/// never a half-visible index — and pinned epochs keep answering after
/// they are retired.
#[test]
fn concurrent_readers_never_observe_torn_epochs() {
    let data = dataset(120);
    let model = fit(&data);
    let dir = TempDir::new("torn");
    let path = dir.file("idx.mmdr");
    let engine = IngestEngine::create(
        &path,
        Backend::Gldr,
        &data,
        &model,
        128,
        IngestOptions {
            pool_pages: None,
            merge_threshold: 6,
        },
    )
    .unwrap();
    let base_len = data.rows();
    let inserts = new_rows(36);
    let k = 5;
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let engine_ref = &engine;
        let stop_ref = &stop;
        let data_ref = &data;
        let readers: Vec<_> = (0..4)
            .map(|r| {
                s.spawn(move || {
                    let q = data_ref.row(r * 31).to_vec();
                    let mut answered = 0u64;
                    let mut max_epoch = 0u64;
                    while !stop_ref.load(Ordering::Acquire) {
                        let pin = engine_ref.pin();
                        max_epoch = max_epoch.max(pin.epoch);
                        let hits = pin.index.knn(&q, k).expect("reader knn");
                        assert_eq!(hits.len(), k, "index never looks half-built");
                        assert!(hits.windows(2).all(|w| w[0] <= w[1]), "answers stay sorted");
                        assert!(
                            pin.index.len() >= base_len,
                            "no epoch ever exposes fewer rows than the base build"
                        );
                        answered += 1;
                    }
                    (answered, max_epoch)
                })
            })
            .collect();

        for v in &inserts {
            engine.insert(v).unwrap();
        }
        // quiesce() joins the merge the inserts spawned.
        engine.quiesce();
        assert!(
            engine.ingest_stats().merges >= 1,
            "background merge never landed"
        );
        stop.store(true, Ordering::Release);
        let mut total = 0;
        let mut observed_epoch = 0;
        for r in readers {
            let (answered, max_epoch) = r.join().unwrap();
            total += answered;
            observed_epoch = observed_epoch.max(max_epoch);
        }
        assert!(total > 0, "readers actually ran");
        let stats = engine.ingest_stats();
        assert!(
            stats.merges >= 1,
            "a merge swapped mid-stream (got {})",
            stats.merges
        );
        assert!(
            observed_epoch <= stats.epoch,
            "no reader saw an epoch that was never published"
        );
    });

    // A pin taken now survives the next swap. Writes that land *before*
    // the swap are visible through the pin (the delta is shared until the
    // epoch retires); writes after the swap are not — the retired epoch is
    // sealed, so its answers freeze.
    let pin = engine.pin();
    let extra = new_rows(2);
    let frozen_id = engine.insert(&extra[0]).unwrap();
    let before = pin.index.knn(data.row(0), k).unwrap();
    engine.flush().unwrap();
    let after = pin.index.knn(data.row(0), k).unwrap();
    assert_eq!(before, after, "a retired epoch keeps answering identically");
    let post_swap_id = engine.insert(&extra[1]).unwrap();
    assert!(post_swap_id > frozen_id);
    assert!(
        !pin.index
            .knn(&extra[1], k)
            .unwrap()
            .iter()
            .any(|&(_, id)| id == post_swap_id),
        "post-swap writes never reach a retired epoch"
    );
}

/// Crash image mid-stream: copying snapshot + WAL after acknowledged
/// operations and reopening elsewhere reproduces the uncrashed engine's
/// answers bit for bit — acked writes survive, unfolded or not.
#[test]
fn crash_image_reopens_to_identical_answers() {
    let data = dataset(100);
    let model = fit(&data);
    let dir = TempDir::new("crash");
    let path = dir.file("idx.mmdr");
    let engine = IngestEngine::create(
        &path,
        Backend::IDistance,
        &data,
        &model,
        128,
        IngestOptions {
            pool_pages: None,
            merge_threshold: 0, // manual flush only: the WAL carries everything
        },
    )
    .unwrap();

    let inserts = new_rows(12);
    for v in &inserts {
        engine.insert(v).unwrap();
    }
    assert!(engine.delete(5).unwrap());

    // Every op above was acked, so the WAL is fsync'd past all of them:
    // a byte-for-byte copy of (snapshot, WAL) is a legitimate crash image.
    let crash = TempDir::new("crash-image");
    let crash_snap = crash.file("idx.mmdr");
    std::fs::copy(&path, &crash_snap).unwrap();
    std::fs::copy(wal_path(&path), wal_path(&crash_snap)).unwrap();

    let reopened = IngestEngine::open(
        &crash_snap,
        IngestOptions {
            pool_pages: None,
            merge_threshold: 0,
        },
    )
    .unwrap();
    let stats = reopened.ingest_stats();
    assert_eq!(stats.delta_rows, inserts.len() as u64, "replayed inserts");
    assert_eq!(stats.tombstones, 1, "replayed delete");
    assert_eq!(stats.next_id, (data.rows() + inserts.len()) as u64);

    let live = engine.pin();
    let recovered = reopened.pin();
    let step = (data.rows() / 5).max(1);
    for i in 0..5 {
        let q = data.row(i * step);
        assert_bit_identical(
            &live.index.knn(q, 10).unwrap(),
            &recovered.index.knn(q, 10).unwrap(),
            &format!("crash-recovered knn query {i}"),
        );
    }

    // And the recovered engine folds cleanly: flush, then parity again.
    let epoch = reopened.flush().unwrap();
    assert!(epoch >= 1);
    let folded = reopened.pin();
    for i in 0..5 {
        let q = data.row(i * step);
        assert_bit_identical(
            &live.index.knn(q, 10).unwrap(),
            &folded.index.knn(q, 10).unwrap(),
            &format!("post-fold knn query {i}"),
        );
    }
}

/// The one crash window a publish leans on: the folded snapshot is renamed
/// into place, the process dies before the log is trimmed. Returns the
/// uncrashed engine and an engine reopened on that image (new snapshot,
/// log as it stood before the flush — every record in it already folded).
fn crash_between_save_and_trim(
    backend: Backend,
    data: &Matrix,
) -> (IngestEngine, IngestEngine, [TempDir; 2]) {
    let opts = IngestOptions {
        pool_pages: None,
        merge_threshold: 0,
    };
    let dirs = [TempDir::new("untrimmed"), TempDir::new("untrimmed-image")];
    let path = dirs[0].file("idx.mmdr");
    let engine = IngestEngine::create(&path, backend, data, &fit(data), 128, opts.clone()).unwrap();
    let rows = new_rows(3);
    engine.insert(&rows[0]).unwrap();
    engine.flush().unwrap();
    engine.insert(&rows[1]).unwrap();
    engine.insert(&rows[2]).unwrap();
    let crash_snap = dirs[1].file("idx.mmdr");
    std::fs::copy(wal_path(&path), wal_path(&crash_snap)).unwrap();
    engine.flush().unwrap();
    std::fs::copy(&path, &crash_snap).unwrap();
    let reopened = IngestEngine::open(&crash_snap, opts).unwrap();
    (engine, reopened, dirs)
}

/// Replay skips the inserts the snapshot already holds, so the
/// save-then-crash-before-trim image answers exactly like the engine that
/// never crashed — for every backend.
#[test]
fn crash_before_trim_image_reopens_to_identical_answers() {
    let data = dataset(100);
    for backend in Backend::all() {
        let (engine, reopened, _dirs) = crash_between_save_and_trim(backend, &data);
        let stats = reopened.ingest_stats();
        assert_eq!((stats.delta_rows, stats.tombstones), (0, 0), "all folded");
        assert_eq!(stats.next_id, engine.ingest_stats().next_id);
        let (live, recovered) = (engine.pin(), reopened.pin());
        for qi in [0usize, 7, 41, 113] {
            let q = data.row(qi);
            assert_bit_identical(
                &live.index.knn(q, 10).unwrap(),
                &recovered.index.knn(q, 10).unwrap(),
                &format!("{}: untrimmed-log image, query {qi}", backend.name()),
            );
        }
    }
}

/// A publish leaves the unfolded tail in the log and nothing else: the
/// folded records a crash left behind are gone after the next flush, not
/// re-read by every later reopen.
#[test]
fn a_flush_that_folds_everything_leaves_an_empty_log_whatever_came_before() {
    let data = dataset(100);
    let (_, reopened, _dirs) = crash_between_save_and_trim(Backend::IDistance, &data);
    reopened.insert(&new_rows(4)[3]).unwrap();
    reopened.flush().unwrap();
    let stats = reopened.ingest_stats();
    assert_eq!((stats.delta_rows, stats.wal_bytes), (0, 0));
}

/// The same contract over the wire: insert through the server, see it in
/// KNN answers immediately, still see it after an explicit flush (merge +
/// epoch swap), and see it gone after delete.
#[test]
fn server_level_insert_then_query() {
    let data = dataset(80);
    let model = fit(&data);
    let dir = TempDir::new("server");
    let path = dir.file("idx.mmdr");
    // iDistance keeps raw coordinates, rounded to f32, for outlier-routed
    // rows through a fold, so an off-subspace probe stays at the same
    // bitwise distance across the merge below (cluster-routed rows are
    // stored projected, exactly like a fresh build would store them).
    let engine = IngestEngine::create(
        &path,
        Backend::IDistance,
        &data,
        &model,
        128,
        IngestOptions {
            pool_pages: None,
            merge_threshold: 0,
        },
    )
    .unwrap();
    let live: Arc<dyn LiveIndex> = Arc::new(engine.clone());
    let handle = Server::start(live, ("127.0.0.1", 0), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let probe = vec![2.42, -1.13, 2.0, -2.0]; // off every cluster subspace
    let id = client.insert(&probe).unwrap();
    assert_eq!(id, data.rows() as u64);

    // An outlier is stored raw, each coordinate its nearest f32: the
    // probe's distance to its row is exactly its distance to that.
    let mut stored = probe.clone();
    mmdr_idistance::stored_values(&mut stored).unwrap();
    let own = mmdr_linalg::reduced_dist(0.0, &probe, &stored);
    assert!(own > 0.0, "the probe is not an f32 vector");
    let hits = client.knn(&probe, 3).unwrap();
    assert_eq!(hits[0].1, id, "inserted row is its own nearest neighbour");
    assert_eq!(
        hits[0].0.to_bits(),
        own.to_bits(),
        "distance to its stored value"
    );

    let epoch = client.flush().unwrap();
    assert!(epoch >= 1, "flush merged and swapped");
    let stats = client.stats().unwrap();
    assert_eq!(stats.ingest.epoch, epoch);
    assert_eq!(stats.ingest.delta_rows, 0, "delta folded away");
    assert_eq!(stats.ingest.wal_bytes, 0, "WAL truncated at swap");

    let hits = client.knn(&probe, 3).unwrap();
    assert_eq!(hits[0].1, id, "row survives the fold");
    assert_eq!(hits[0].0.to_bits(), own.to_bits());

    assert!(client.delete(id).unwrap());
    assert!(!client.delete(id).unwrap(), "second delete is a no-op");
    let hits = client.knn(&probe, 3).unwrap();
    assert!(
        hits.iter().all(|&(_, h)| h != id),
        "deleted row leaves the answers"
    );

    // Wire answers match a direct in-process pin bit for bit.
    let pin = engine.pin();
    assert_bit_identical(
        &pin.index.knn(&probe, 5).unwrap(),
        &client.knn(&probe, 5).unwrap(),
        "wire vs pinned epoch",
    );
    handle.shutdown();
}

/// With no re-fit requested, a badly drifted insert stream — every row
/// routed into cluster 0 with projection error far past its fitted MPE,
/// folded by merges that keep the fitted subspaces — still answers
/// bit-identically to a fresh build over the union and recalls every
/// inserted row at rank 0. A stale model costs pages, never answers.
#[test]
fn drifted_stream_without_refit_stays_exact() {
    let data = dataset(120);
    let model = fit(&data);
    // On cluster 0's (t, 0.3t) line but lifted well off its fitted plane:
    // inside the routing beta, so each insert joins the cluster.
    let inserts: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            let t = (i as f64 * 0.381_966).fract();
            vec![t, 0.3 * t, 0.085, 0.0]
        })
        .collect();
    let deletes: Vec<u64> = vec![7, data.rows() as u64 + 3];
    let k = 10;

    for backend in Backend::all() {
        let dir = TempDir::new(&format!("drift-{}", backend.name()));
        let path = dir.file("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            backend,
            &data,
            &model,
            128,
            IngestOptions {
                pool_pages: None,
                merge_threshold: 10, // merges fold the drifted delta mid-stream
            },
        )
        .unwrap();
        for v in &inserts {
            engine.insert(v).unwrap();
        }
        for &id in &deletes {
            assert!(engine.delete(id).unwrap());
        }
        engine.quiesce();
        let stats = engine.ingest_stats();
        assert!(
            stats.merges >= 1,
            "{}: background merge never landed",
            backend.name()
        );
        assert_eq!(stats.refits, 0, "refits stay disabled");
        assert_eq!(stats.model_epoch, 0, "model never re-fit");

        let fresh = reference(backend, &data, &inserts, &deletes);
        let pin = engine.pin();
        let step = (data.rows() / 5).max(1);
        let queries: Vec<Vec<f64>> = (0..5)
            .map(|i| data.row(i * step).to_vec())
            .chain(inserts.iter().take(4).cloned())
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            assert_bit_identical(
                &fresh.as_dyn().knn(q, k).unwrap(),
                &pin.index.knn(q, k).unwrap(),
                &format!("{} drifted query {qi}", backend.name()),
            );
        }
        // 100% recall on the drifted inserts: each surviving row's stored
        // representation is strictly nearer its own exact vector than any
        // neighbour on the drifted line.
        for (i, v) in inserts.iter().enumerate() {
            let id = data.rows() as u64 + i as u64;
            if deletes.contains(&id) {
                continue;
            }
            let hits = pin.index.knn(v, 1).unwrap();
            assert_eq!(
                hits[0].1,
                id,
                "{}: drifted insert {i} not recalled at rank 0",
                backend.name()
            );
        }
    }
}
