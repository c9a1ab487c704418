//! The scale-out gate: scatter-gather answers through a cluster-sharded
//! router must be *bit-identical* (ids and f64 distance bits) to a
//! single-node index over the full dataset — for all four backends, at
//! 1/2/4 shards, through the router in-process and over the wire behind a
//! `Server` front. Pruning must be observable (mean shards contacted per
//! query strictly below the shard count on clustered data), and a killed
//! shard must surface as a *typed* degraded error on queries that need it
//! while queries its ball lower bound prunes keep answering.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{Error, LiveIndex, Query, Scratch, Target, VectorIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{
    build_index, open, plan_shards, read_manifest, save, write_manifest, Manifest, MANIFEST_FILE,
};
use mmdr_router::{Router, RouterError, RouterLive, DEFAULT_SHARD_TIMEOUT};
use mmdr_serve::{Client, Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique scratch directory per call, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mmdr-router-parity-{}-{tag}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Five tight, well-separated clusters (40 points each) in 6 dimensions.
/// Separation is what makes ball pruning decisive: a query near one
/// cluster gives every other shard a lower bound far above the k-th
/// distance inside the near cluster.
fn dataset() -> Matrix {
    let centers = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [60.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 60.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 60.0, 30.0, 0.0, 0.0],
        [30.0, 30.0, -60.0, 0.0, 30.0, 0.0],
    ];
    let mut rows = Vec::new();
    let jit = |i: usize, d: usize| (((i * 7 + d * 13) as f64 * 0.618_033_988).fract() - 0.5) * 0.8;
    for (c, center) in centers.iter().enumerate() {
        for i in 0..40 {
            let mut row = center.to_vec();
            for (d, v) in row.iter_mut().enumerate() {
                *v += jit(c * 40 + i, d);
            }
            rows.push(row);
        }
    }
    Matrix::from_rows(&rows).unwrap()
}

fn fit(data: &Matrix) -> ReductionResult {
    Mmdr::new(MmdrParams {
        max_ec: 5,
        ..Default::default()
    })
    .fit(data)
    .unwrap()
}

/// One running sharded cluster: N worker servers over subset snapshots
/// plus the decoded manifest that fronts them.
struct Cluster {
    manifest: Manifest,
    handles: Vec<ServerHandle>,
    addrs: Vec<String>,
    _dir: TempDir,
}

impl Cluster {
    /// shard-split in-process: plan, write per-shard snapshots and the
    /// MANIFEST, re-read the manifest from disk (exercising the codec, not
    /// the in-memory struct), and start one worker server per shard.
    fn start(backend: Backend, data: &Matrix, model: &ReductionResult, shards: usize) -> Cluster {
        let dir = TempDir::new(&format!("{}-{shards}", backend.name()));
        let plans = plan_shards(data, model, shards).unwrap();
        let mut entries = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let name = format!("shard-{i}.mmdr");
            let built = build_index(backend, &plan.data, &plan.model, 64).unwrap();
            save(dir.0.join(&name), &built, &plan.model).unwrap();
            entries.push(plan.entry(name));
        }
        let manifest_path = dir.0.join(MANIFEST_FILE);
        write_manifest(
            &manifest_path,
            &Manifest {
                backend: backend.name().to_string(),
                dim: data.cols(),
                num_points: data.rows(),
                shards: entries,
            },
        )
        .unwrap();
        let manifest = read_manifest(&manifest_path).unwrap();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for entry in &manifest.shards {
            let opened = open(dir.0.join(&entry.snapshot)).unwrap();
            let index: Arc<dyn VectorIndex> = Arc::from(opened.index.into_boxed());
            let handle = Server::start_static(
                index,
                ("127.0.0.1", 0),
                ServerConfig {
                    workers: 1,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            addrs.push(handle.local_addr().to_string());
            handles.push(handle);
        }
        Cluster {
            manifest,
            handles,
            addrs,
            _dir: dir,
        }
    }

    fn router(&self) -> Router {
        Router::connect(self.manifest.clone(), &self.addrs, DEFAULT_SHARD_TIMEOUT).unwrap()
    }

    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// Single-node reference index over the full dataset.
fn single_node(backend: Backend, data: &Matrix, model: &ReductionResult) -> Box<dyn VectorIndex> {
    build_index(backend, data, model, 64).unwrap().into_boxed()
}

/// Query mix: cluster hearts, a cluster edge, midpoints between clusters,
/// and a far-off probe — pruning-friendly and pruning-hostile alike.
fn queries(data: &Matrix) -> Vec<Vec<f64>> {
    let mut qs: Vec<Vec<f64>> = (0..5).map(|c| data.row(c * 40 + 3).to_vec()).collect();
    qs.push(data.row(79).to_vec());
    let mid: Vec<f64> = data
        .row(0)
        .iter()
        .zip(data.row(40))
        .map(|(a, b)| (a + b) / 2.0)
        .collect();
    qs.push(mid);
    qs.push(vec![200.0, -180.0, 90.0, 0.0, 40.0, -7.0]);
    qs
}

fn assert_bit_identical(local: &[(f64, u64)], routed: &[(f64, u64)], what: &str) {
    assert_eq!(local.len(), routed.len(), "{what}: answer lengths differ");
    for (rank, (a, b)) in local.iter().zip(routed).enumerate() {
        assert_eq!(a.1, b.1, "{what}: id differs at rank {rank}");
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "{what}: distance not bit-identical at rank {rank} ({} vs {})",
            a.0,
            b.0
        );
    }
}

#[test]
fn sharded_answers_are_bit_identical_for_all_backends_at_1_2_4_shards() {
    let data = dataset();
    let model = fit(&data);
    let qs = queries(&data);
    for backend in Backend::all() {
        let reference = single_node(backend, &data, &model);
        for shards in [1usize, 2, 4] {
            let cluster = Cluster::start(backend, &data, &model, shards);
            let router = cluster.router();
            assert_eq!(router.len(), data.rows());
            assert_eq!(router.dim(), data.cols());
            for (qi, q) in qs.iter().enumerate() {
                for k in [1usize, 5, 13] {
                    let local = reference.knn(q, k).unwrap();
                    let routed = router.knn(q, k).unwrap();
                    assert_bit_identical(
                        &local,
                        &routed,
                        &format!("{} {shards}-shard knn q{qi} k{k}", backend.name()),
                    );
                }
                for radius in [0.9, 40.0] {
                    let local = reference.range_search(q, radius).unwrap();
                    let routed = router.range_search(q, radius).unwrap();
                    assert_bit_identical(
                        &local,
                        &routed,
                        &format!("{} {shards}-shard range q{qi} r{radius}", backend.name()),
                    );
                }
            }
            // The shared chunk-and-merge batch executor over the router.
            let local: Vec<_> = qs.iter().map(|q| reference.knn(q, 7).unwrap()).collect();
            let routed = router
                .batch_knn(&qs, 7, &mmdr_linalg::ParConfig::default())
                .unwrap();
            for (qi, (l, r)) in local.iter().zip(&routed).enumerate() {
                assert_bit_identical(
                    l,
                    r,
                    &format!("{} {shards}-shard batch q{qi}", backend.name()),
                );
            }
            cluster.shutdown();
        }
    }
}

#[test]
fn ball_pruning_keeps_mean_shards_contacted_below_shard_count() {
    let data = dataset();
    let model = fit(&data);
    let cluster = Cluster::start(Backend::IDistance, &data, &model, 4);
    let router = cluster.router();
    // Cluster-heart queries: the nearest shard fills the heap with tiny
    // distances and every other shard's ball bound is tens of units away.
    for c in 0..5 {
        for i in 0..8 {
            router.knn(data.row(c * 40 + i * 5), 3).unwrap();
        }
    }
    let stats = router.shard_stats().expect("router reports shard stats");
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.queries, 40);
    assert!(
        stats.mean_contacted() < stats.shards as f64,
        "no pruning observed: mean {} shards contacted of {}",
        stats.mean_contacted(),
        stats.shards
    );
    assert!(
        stats.pruned > 0,
        "clustered queries should prune at least one shard hop"
    );
    assert_eq!(
        stats.contacted + stats.pruned,
        stats.queries * stats.shards,
        "every (query, shard) pair is either contacted or pruned"
    );
    cluster.shutdown();
}

#[test]
fn killed_shard_degrades_typed_while_pruned_queries_keep_answering() {
    let data = dataset();
    let model = fit(&data);
    let reference = single_node(Backend::IDistance, &data, &model);
    let mut cluster = Cluster::start(Backend::IDistance, &data, &model, 2);
    let router = cluster.router();

    // Pick, from the manifest geometry alone, a (query, victim) pair the
    // pruning contract guarantees never meets: a cluster-heart query whose
    // 3-NN distances sit far below the victim shard's best ball bound.
    // (The shard holding the model's outlier ball can cover the whole
    // space, so the victim is found, not hard-coded.)
    let lower_bound = |shard: usize, q: &[f64]| {
        cluster.manifest.shards[shard]
            .balls
            .iter()
            .map(|b| b.lower_bound(q))
            .fold(f64::INFINITY, f64::min)
    };
    let (alive_q, victim) = (0..5)
        .map(|c| data.row(c * 40 + 3).to_vec())
        .flat_map(|q| (0..2).map(move |s| (q.clone(), s)))
        .find(|(q, s)| {
            let worst = reference.knn(q, 3).unwrap().last().unwrap().0;
            lower_bound(*s, q) > 2.0 * worst + 10.0
        })
        .expect("separated clusters must make some shard prunable");

    // Kill the victim after the router's connect-time probes succeeded.
    cluster.handles.remove(victim).shutdown();

    // The heap fills on the surviving shard(s); the dead worker's bound
    // cannot beat it, so it is pruned and the answer still matches
    // single-node bit for bit.
    let local = reference.knn(&alive_q, 3).unwrap();
    let routed = router
        .knn(&alive_q, 3)
        .expect("query pruning the dead shard must still answer");
    assert_bit_identical(&local, &routed, "knn with dead shard pruned");

    // A query inside the dead shard's own ball *needs* it (a zero lower
    // bound is never pruned): typed degradation, never a silently partial
    // answer.
    let dead_q = cluster.manifest.shards[victim].balls[0].center.clone();
    let err = router.knn(&dead_q, 3).expect_err("dead shard was needed");
    let Error::Backend(inner) = &err else {
        panic!("expected a backend error, got {err}");
    };
    let router_err = inner
        .downcast_ref::<RouterError>()
        .expect("downcasts to RouterError");
    assert!(
        matches!(router_err, RouterError::Degraded { shard, .. } if *shard == victim),
        "expected Degraded on shard {victim}, got {router_err}"
    );
    // Range search with a radius that reaches the dead shard degrades too.
    let err = router
        .range_search(&dead_q, 1.0)
        .expect_err("range needing the dead shard");
    assert!(err
        .to_string()
        .contains(&format!("degraded: shard {victim}")));
    let stats = router.shard_stats().unwrap();
    assert!(stats.degraded >= 2, "degraded ops must be counted");
    cluster.shutdown();
}

/// The router's two doors — `search` and `RouterLive::filtered` — refuse
/// the inputs every single-node index refuses, with the same variants,
/// and answer `k = 0` with nothing, all before any shard is contacted.
#[test]
fn search_and_filtered_refuse_bad_queries_alike() {
    let data = dataset();
    let model = fit(&data);
    let dim = data.cols();
    let cluster = Cluster::start(Backend::IDistance, &data, &model, 2);
    let router = Arc::new(cluster.router());
    let live = RouterLive::new(Arc::clone(&router));
    let good = data.row(3).to_vec();
    let mut non_finite = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut q = good.clone();
        q[2] = bad;
        non_finite.push(q);
    }
    let before = router.shard_stats().unwrap();
    let doors = |q: &[f64], target: Target| {
        [
            router.search(&Query::new(q, target), &mut Scratch::default()),
            live.filtered(q, target, "views < 10"),
        ]
    };
    for width in [dim - 1, dim + 1] {
        let q = vec![0.5; width];
        for target in [Target::Knn(3), Target::Knn(0), Target::Range(1.0)] {
            for got in doors(&q, target) {
                let err = got.expect_err("wrong width");
                assert!(
                    matches!(err, Error::DimensionMismatch { expected, actual }
                        if expected == dim && actual == width),
                    "width {width}, {target:?}: {err}"
                );
            }
        }
    }
    for q in &non_finite {
        for target in [Target::Knn(3), Target::Knn(0), Target::Range(1.0)] {
            for got in doors(q, target) {
                let err = got.expect_err("non-finite coordinate");
                assert!(matches!(err, Error::InvalidQuery), "{target:?}: {err}");
            }
        }
    }
    for radius in [-1.0, f64::NAN, f64::INFINITY] {
        for got in doors(&good, Target::Range(radius)) {
            let err = got.expect_err("bad radius");
            assert!(
                matches!(err, Error::InvalidRadius),
                "radius {radius}: {err}"
            );
        }
    }
    for got in doors(&good, Target::Knn(0)) {
        assert_eq!(got.unwrap(), Vec::new());
    }
    let after = router.shard_stats().unwrap();
    assert_eq!(
        (after.contacted, after.pruned, after.degraded),
        (before.contacted, before.pruned, before.degraded),
        "no shard was asked"
    );
    cluster.shutdown();
}

#[test]
fn router_behind_a_server_front_answers_bit_identically_over_the_wire() {
    let data = dataset();
    let model = fit(&data);
    let reference = single_node(Backend::Hybrid, &data, &model);
    let cluster = Cluster::start(Backend::Hybrid, &data, &model, 4);
    let front: Arc<dyn VectorIndex> = Arc::new(cluster.router());
    let front_handle = Server::start_static(
        Arc::clone(&front),
        ("127.0.0.1", 0),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(front_handle.local_addr()).unwrap();
    for (qi, q) in queries(&data).iter().enumerate() {
        let local = reference.knn(q, 9).unwrap();
        let remote = client.knn(q, 9).unwrap();
        assert_bit_identical(&local, &remote, &format!("wire knn q{qi}"));
        let local = reference.range_search(q, 2.5).unwrap();
        let remote = client.range(q, 2.5).unwrap();
        assert_bit_identical(&local, &remote, &format!("wire range q{qi}"));
    }
    // STATS through the front carries the scatter-gather attribution.
    let stats = client.stats().unwrap();
    assert_eq!(stats.backend, "router");
    assert_eq!(stats.len, data.rows() as u64);
    let shard = stats.shard.expect("router front reports shard stats");
    assert_eq!(shard.shards, 4);
    assert!(shard.queries >= 16);
    assert!(shard.per_shard_contacts.len() == 4 && shard.per_shard_partials.len() == 4);
    front_handle.shutdown();
    cluster.shutdown();
}
