//! The re-fit gate: a re-fit of the reduction model, run on request, must
//! change query *cost*, never query *answers*. For every backend, a
//! drifted insert/delete stream followed by a re-fit answers
//! bit-identically to an index composed from the same public stages —
//! restore the survivors, `refit_model`, `load_exact` — and id-exactly
//! with a SeqScan loaded over the same model, serially and at 1/2/4/8
//! threads. A crash image taken mid-re-fit (fresh snapshot, stale WAL —
//! the durable-first crash window) reopens to identical answers, and a
//! re-fit run on a second thread while writes and background merges go on
//! passes through the epoch pipeline and stays exact throughout. A re-fit
//! over a store the fit described well publishes a model as good as the
//! fit's: the same cluster count, and no larger outlier share.

use mmdr_core::{Mmdr, MmdrParams, ParConfig, ReductionResult};
use mmdr_datagen::{generate_correlated, CorrelatedConfig};
use mmdr_idistance::{load_exact, restored_rows, Backend, BuiltIndex};
use mmdr_index::{IngestOp, LiveIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{build_index, refit_model, wal_path, IngestEngine, IngestOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique directory per call, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mmdr-adapt-parity-{}-{tag}-{seq}",
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

/// The drifted stream: rows on cluster 0's (t, 0.3t) line but lifted off
/// its fitted plane — alternating just inside the routing beta (joins the
/// cluster, far off its flat) and far outside it (routes to the outlier
/// side the stale model has no structure for).
fn drifted_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = (i as f64 * 0.381_966).fract();
            let z = if i % 2 == 0 { 0.085 } else { 0.5 };
            vec![t, 0.3 * t, z, 0.0]
        })
        .collect()
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

/// The survivors of the stream, through the same public stages the engine
/// re-fits with: read the base build's restored rows back, overlay the
/// exact insert vectors, drop the deletes.
fn survivor_rows(
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    inserts: &[Vec<f64>],
    deletes: &[u64],
) -> BTreeMap<u64, Vec<f64>> {
    let base = build_index(backend, data, model, 128).unwrap();
    let mut rows = restored_rows(&base, model).unwrap();
    for (i, v) in inserts.iter().enumerate() {
        rows.insert(data.rows() as u64 + i as u64, v.clone());
    }
    for id in deletes {
        rows.remove(id);
    }
    rows
}

/// `backend` loaded from `model` over `rows` by the build's own loader —
/// what the engine's re-fit swaps in.
fn load(backend: Backend, model: &ReductionResult, rows: &BTreeMap<u64, Vec<f64>>) -> BuiltIndex {
    load_exact(backend, model, 256, |id| rows.get(&id).map(Vec::as_slice)).unwrap()
}

/// The core gate: for every backend, a drifted stream plus a forced re-fit
/// answers bit-identically to `refit_model` + `load_exact` composed by hand
/// over the survivors, id-exactly with a SeqScan over the same model, at
/// 1/2/4/8 threads — and a crash image pairing the freshly saved re-fit
/// snapshot with the stale pre-rewrite WAL reopens to the same answers.
#[test]
fn refit_matches_composed_stages_and_survives_crash_image() {
    let data = dataset(120);
    let model = fit(&data);
    let inserts = drifted_rows(48);
    let deletes: Vec<u64> = vec![5, data.rows() as u64 + 7];
    let next_id = data.rows() as u64 + inserts.len() as u64;
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
                merge_threshold: 0, // every op stays pending until the re-fit
            },
        )
        .unwrap();
        for v in &inserts {
            engine.insert(v).unwrap();
        }
        for &id in &deletes {
            assert!(engine.delete(id).unwrap());
        }

        // The WAL as a crash would leave it: fsync'd past every acked op,
        // not yet rewritten by the re-fit.
        let crash = TempDir::new(&format!("{}-crash", backend.name()));
        let crash_snap = crash.file("idx.mmdr");
        std::fs::copy(wal_path(&path), wal_path(&crash_snap)).unwrap();

        let model_epoch = engine.refit().unwrap();
        assert_eq!(model_epoch, 1, "{}: first re-fit", backend.name());
        let stats = engine.ingest_stats();
        assert_eq!(stats.model_epoch, 1);
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.delta_rows, 0, "re-fit folded the pending stream");

        // Same stages, composed by hand from the public API.
        let rows = survivor_rows(backend, &data, &model, &inserts, &deletes);
        let refitted = refit_model(&rows, next_id, &MmdrParams::default()).unwrap();
        let same = load(backend, &refitted, &rows);
        let seq = load(Backend::SeqScan, &refitted, &rows);

        let pin = engine.pin();
        let step = (data.rows() / 7).max(1);
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|i| data.row(i * step).to_vec())
            .chain(inserts.iter().take(4).cloned())
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            let what = format!("{} refit query {qi}", backend.name());
            let live = pin.index.knn(q, k).unwrap();
            assert_bit_identical(&same.as_dyn().knn(q, k).unwrap(), &live, &what);
            let seq_ids: Vec<u64> = seq
                .as_dyn()
                .knn(q, k)
                .unwrap()
                .iter()
                .map(|&(_, id)| id)
                .collect();
            let live_ids: Vec<u64> = live.iter().map(|&(_, id)| id).collect();
            assert_eq!(live_ids, seq_ids, "{what}: ids diverge from SeqScan");
            assert!(
                !live.iter().any(|&(_, id)| deletes.contains(&id)),
                "{what}: deleted ids stay gone through the re-fit"
            );
        }

        let serial = same
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
                "{}: batch answers at {threads} threads diverge after re-fit",
                backend.name()
            );
        }

        // Crash window: the re-fit snapshot hit disk, the WAL rewrite did
        // not. Replay must skip the already-folded inserts (their ids are
        // below the new model's num_points) and reapply the idempotent
        // deletes, landing on identical answers.
        std::fs::copy(&path, &crash_snap).unwrap();
        let reopened = IngestEngine::open(
            &crash_snap,
            IngestOptions {
                pool_pages: None,
                merge_threshold: 0,
            },
        )
        .unwrap();
        let rstats = reopened.ingest_stats();
        assert_eq!(rstats.model_epoch, 1, "crash image keeps the new model");
        assert_eq!(rstats.delta_rows, 0, "no insert replays into the delta");
        let rpin = reopened.pin();
        for (qi, q) in queries.iter().enumerate() {
            assert_bit_identical(
                &pin.index.knn(q, k).unwrap(),
                &rpin.index.knn(q, k).unwrap(),
                &format!("{} crash-image query {qi}", backend.name()),
            );
        }
    }
}

/// The live pipeline: a re-fit requested on a second thread while a
/// drifted insert/delete stream lands and background merges fold — the
/// model epoch bumped through the ordinary epoch machinery, the merge lock
/// serialising it against the merges — stays exact throughout: every
/// surviving drifted row is reachable, deleted rows stay gone, and batch
/// answers agree at 1/2/4/8 threads.
#[test]
fn refit_amid_writes_and_merges_stays_exact() {
    let data = dataset(120);
    let model = fit(&data);
    let inserts = drifted_rows(80);
    let k = 10;

    for backend in Backend::all() {
        let dir = TempDir::new(&format!("bg-{}", backend.name()));
        let path = dir.file("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            backend,
            &data,
            &model,
            128,
            IngestOptions {
                pool_pages: None,
                merge_threshold: 25, // merges interleave with the re-fit
            },
        )
        .unwrap();

        let mut deletes = Vec::new();
        std::thread::scope(|scope| {
            let mut refit = None;
            for (i, v) in inserts.iter().enumerate() {
                let id = engine.insert(v).unwrap();
                assert_eq!(id, data.rows() as u64 + i as u64);
                if i == 20 || i == 50 {
                    // Interleave base deletes mid-stream, straddling folds.
                    let victim = (i as u64) / 2;
                    assert!(engine.delete(victim).unwrap());
                    deletes.push(victim);
                }
                if i == 30 {
                    // The rest of the stream lands while the re-fit runs.
                    refit = Some(scope.spawn(|| engine.refit().unwrap()));
                }
            }
            let model_epoch = refit.unwrap().join().unwrap();
            assert_eq!(model_epoch, 1, "{}: first re-fit", backend.name());
        });
        engine.quiesce();
        let stats = engine.ingest_stats();
        assert_eq!(
            (stats.model_epoch, stats.refits),
            (1, 1),
            "{}: one re-fit, one model epoch",
            backend.name()
        );
        assert!(stats.merges >= 1, "{}: merges ran", backend.name());

        // Full recall on the drifted stream. A row merged under the stale
        // model and then re-fit lives at its re-restored representation,
        // which can sit among dense in-line neighbours — so the recall
        // contract is reachability within the representation-drift bound
        // (two reductions at ≲ 0.085 each), not rank 0 by exact vector.
        let pin = engine.pin();
        for (i, v) in inserts.iter().enumerate() {
            let id = data.rows() as u64 + i as u64;
            let hits = pin.index.range_search(v, 0.25).unwrap();
            assert!(
                hits.iter().any(|&(_, h)| h == id),
                "{}: drifted insert {i} (id {id}) unreachable within its drift bound",
                backend.name()
            );
        }
        for &id in &deletes {
            let near = pin.index.knn(data.row(id as usize), k).unwrap();
            assert!(
                near.iter().all(|&(_, h)| h != id),
                "{}: deleted base row {id} resurfaced",
                backend.name()
            );
        }
        let queries: Vec<Vec<f64>> = (0..6)
            .map(|i| data.row(i * 19).to_vec())
            .chain(inserts.iter().take(4).cloned())
            .collect();
        let serial = pin
            .index
            .batch_knn(&queries, k, &ParConfig::threads(1))
            .unwrap();
        for threads in [2usize, 4, 8] {
            assert_eq!(
                pin.index
                    .batch_knn(&queries, k, &ParConfig::threads(threads))
                    .unwrap(),
                serial,
                "{}: batch answers at {threads} threads diverge",
                backend.name()
            );
        }
    }
}

/// `IngestOp` stays the WAL's public op vocabulary after the refactor: the
/// composed-stage reference in this file and the engine agree on id
/// assignment, so a re-fit never renumbers a surviving row.
#[test]
fn refit_preserves_row_ids() {
    let data = dataset(60);
    let model = fit(&data);
    let dir = TempDir::new("ids");
    let path = dir.file("idx.mmdr");
    let engine = IngestEngine::create(
        &path,
        Backend::SeqScan,
        &data,
        &model,
        128,
        IngestOptions {
            pool_pages: None,
            merge_threshold: 0,
        },
    )
    .unwrap();
    let inserts = drifted_rows(16);
    let ids: Vec<u64> = inserts.iter().map(|v| engine.insert(v).unwrap()).collect();
    engine.refit().unwrap();
    let pin = engine.pin();
    for (v, &id) in inserts.iter().zip(&ids) {
        let hits = pin.index.knn(v, 1).unwrap();
        assert_eq!(hits[0].1, id, "row id changed across the re-fit");
    }
    // The op type remains constructible by external callers (the WAL's
    // replay vocabulary is public API).
    let _ = IngestOp::Insert {
        id: 0,
        vector: vec![0.0; 4],
    };
}

/// A re-fit's model is only as useful as its clusters: an outlier is
/// stored and searched at full dimension. Over the restored rows of a
/// 10 000 × 32 store of ten correlated clusters, the re-fit must find the
/// original fit's cluster count, with an outlier share at most one
/// percentage point above it. (At 5 000 rows a streamed fit falls back to
/// one whole-set pass, so that size would not tell the two fits apart.)
#[test]
fn refit_of_a_well_fitted_store_keeps_its_clusters() {
    let data =
        generate_correlated(&CorrelatedConfig::paper_style(10_000, 32, 10, 12, 30.0, 0)).data;
    let params = MmdrParams::default();
    let model = Mmdr::new(params.clone()).fit(&data).unwrap();
    let base = build_index(Backend::SeqScan, &data, &model, 128).unwrap();
    let rows = restored_rows(&base, &model).unwrap();
    let refit = refit_model(&rows, data.rows() as u64, &params).unwrap();
    assert!(refit.is_partition());
    assert_eq!(
        refit.clusters.len(),
        model.clusters.len(),
        "re-fit clusters ({} outliers) against the fit's ({} outliers)",
        refit.outliers.len(),
        model.outliers.len()
    );
    assert!(
        refit.outlier_fraction() <= model.outlier_fraction() + 0.01,
        "re-fit outlier share {} against the fit's {}",
        refit.outlier_fraction(),
        model.outlier_fraction()
    );
}
