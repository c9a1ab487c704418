//! One function per layer: fixed-count probes of a crate's public calls,
//! and the passes (KNN, filtered KNN, served KNN, ingest) that workloads
//! and probes share. Everything here runs outside the program under test
//! and reads only counters the system already exposes.

use crate::data::{self, K};
use crate::setup::{self, server_config, WorkDir, PREPARE_DELETES, PREPARE_INSERTS};
use crate::trace::{TraceLog, Tracer, NO_SPAN};
use crate::window::{self, median, percentile, same_answer, Driver, Outcome};
use mmdr_cluster::{EllipticalConfig, EllipticalKMeans};
use mmdr_core::{ParConfig, ReductionResult};
use mmdr_idistance::IDistanceIndex;
use mmdr_index::{IngestOp, LiveIndex, QueryStats, VectorIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{
    open_resident, open_with, wal_path, BuiltIndex, IngestEngine, IngestOptions, OpenOptions,
    WalWriter,
};
use mmdr_query::{run_filtered_knn, AttrSketches, AttrStore, Planner, Predicate, Strategy};
use mmdr_serve::wire::{self, Request, Response};
use mmdr_serve::{Client, Server, ServerHandle};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Answer = Vec<(f64, u64)>;

fn ns_per(iterations: usize, since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / iterations as f64
}

fn idistance(built: &BuiltIndex) -> &IDistanceIndex {
    match built {
        BuiltIndex::IDistance(i) => i,
        _ => panic!("the benchmark builds iDistance indexes only"),
    }
}

// ---- index: one in-process pass over the query set -------------------------

/// Hits, misses and evictions summed over an index's pools.
#[derive(Clone, Copy, Default)]
pub struct PoolTotals {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub fn pool_totals(index: &dyn VectorIndex) -> PoolTotals {
    let mut t = PoolTotals::default();
    for p in index.pool_stats() {
        t.hits += p.hits();
        t.misses += p.misses();
        t.evictions += p.evictions();
    }
    t
}

/// What one pass over the query set cost, by the system's own counters.
pub struct Pass {
    pub answers: Vec<Answer>,
    pub stats: QueryStats,
    pub pool: PoolTotals,
    /// Per-query wall time, in query order.
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
}

impl Pass {
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.answers.len().max(1) as f64
    }
}

/// Runs `ask` once per query on one thread and reads `index`'s counters
/// before and after. `ask` returning `None` is a failed operation.
pub fn counted_pass(
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    mut ask: impl FnMut(usize, &[f64]) -> Option<Answer>,
) -> Pass {
    let stats_before = index.query_stats();
    let pool_before = pool_totals(index);
    let mut answers = Vec::with_capacity(queries.len());
    let mut latencies_ns = Vec::with_capacity(queries.len());
    let mut failed = 0;
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let a = ask(i, q);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        if a.is_none() {
            failed += 1;
        }
        answers.push(a.unwrap_or_default());
    }
    let pool_after = pool_totals(index);
    Pass {
        answers,
        stats: index.query_stats().since(&stats_before),
        pool: PoolTotals {
            hits: pool_after.hits - pool_before.hits,
            misses: pool_after.misses - pool_before.misses,
            evictions: pool_after.evictions - pool_before.evictions,
        },
        latencies_ns,
        failed,
    }
}

pub fn knn_pass(index: &dyn VectorIndex, queries: &[Vec<f64>]) -> Pass {
    counted_pass(index, queries, |_, q| index.knn(q, K).ok())
}

/// Mean in-process `knn` time over three passes of the query set: what
/// the `*_share_est` are shares of.
pub fn knn_us(index: &dyn VectorIndex, queries: &[Vec<f64>]) -> f64 {
    let passes = 3;
    let total: u64 = (0..passes)
        .flat_map(|_| knn_pass(index, queries).latencies_ns)
        .sum();
    total as f64 / 1e3 / (passes * queries.len()).max(1) as f64
}

/// Mean of the paper's precision (`datagen::precision`) over the queries.
pub fn mean_precision(truth: &[Vec<usize>], answers: &[Answer]) -> f64 {
    let total: f64 = truth
        .iter()
        .zip(answers)
        .map(|(exact, got)| {
            let got: Vec<usize> = got.iter().map(|&(_, id)| id as usize).collect();
            mmdr_datagen::precision(exact, &got)
        })
        .sum();
    total / truth.len().max(1) as f64
}

/// `batch_knn` over the query set with two threads against one.
pub fn batch_speedup_t2(index: &dyn VectorIndex, queries: &[Vec<f64>]) -> f64 {
    let time = |par: ParConfig| {
        let t = Instant::now();
        black_box(
            index
                .batch_knn(queries, K, &par)
                .expect("batch_knn answers"),
        );
        t.elapsed().as_secs_f64()
    };
    let serial = time(ParConfig::serial());
    serial / time(ParConfig::threads(2))
}

// ---- linalg, pca, cluster ---------------------------------------------------

pub struct Kernels {
    /// One `reduced_dist` between a projected query and a stored row.
    pub dist_ns: f64,
    /// One `project` + `proj_dist` pair: what a query pays per cluster.
    pub project_ns: f64,
}

/// Times the distance and projection kernels on the index's own reduced
/// rows and subspaces, 1 M distance calls in all.
pub fn kernels(built: &BuiltIndex, queries: &[Vec<f64>]) -> Kernels {
    let idx = idistance(built);
    let part = idx
        .partitions()
        .iter()
        .position(|p| p.subspace.is_some())
        .expect("the model has a cluster");
    let subspace = idx.partitions()[part].subspace.as_ref().expect("checked");
    let mut rows: Vec<Vec<f64>> = Vec::new();
    idx.heap()
        .scan(|p, _, coords| {
            if p as usize == part && rows.len() < 1024 {
                rows.push(coords.to_vec());
            }
        })
        .expect("the heap scans");
    let local = subspace.project(&queries[0]).expect("dimensions match");
    let proj_sq = subspace
        .proj_dist(&queries[0])
        .expect("dimensions match")
        .powi(2);
    let rounds = 1_000_000 / rows.len();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..rounds {
        for r in &rows {
            acc += mmdr_linalg::reduced_dist(black_box(proj_sq), black_box(&local), black_box(r));
        }
    }
    black_box(acc);
    let dist_ns = ns_per(rounds * rows.len(), t);

    let t = Instant::now();
    let reps = 20_000;
    for i in 0..reps {
        let q = &queries[i % queries.len()];
        black_box(subspace.project(black_box(q)).expect("dimensions match"));
        black_box(subspace.proj_dist(black_box(q)).expect("dimensions match"));
    }
    Kernels {
        dist_ns,
        project_ns: ns_per(reps, t),
    }
}

/// One elliptical k-means fit on the workload's data at the model's
/// cluster count, serial.
pub fn ekmeans_s(data: &Matrix, clusters: usize) -> f64 {
    let config = EllipticalConfig {
        k: clusters.max(1),
        ..EllipticalConfig::default()
    };
    let t = Instant::now();
    black_box(
        EllipticalKMeans::new(config)
            .expect("the configuration is valid")
            .fit(data)
            .expect("k-means fits"),
    );
    t.elapsed().as_secs_f64()
}

// ---- storage, btree ---------------------------------------------------------

pub struct PageCosts {
    /// `BufferPool::page` on a pool that holds every page.
    pub hit_ns: f64,
    /// The same call on a one-frame pool over the snapshot file: evict,
    /// `pread`, CRC, every time.
    pub miss_ns: f64,
}

pub fn page_costs(resident: &BuiltIndex, snapshot: &Path) -> PageCosts {
    let cycle = |built: &BuiltIndex, fetches: usize| {
        let pool = idistance(built).heap().pool();
        let pages = pool.num_pages() as u64;
        // Warm, so a resident pool is measured hitting.
        for id in 0..pages {
            black_box(pool.page(id).expect("the page reads"));
        }
        let t = Instant::now();
        for i in 0..fetches as u64 {
            black_box(pool.page(black_box(i % pages)).expect("the page reads"));
        }
        ns_per(fetches, t)
    };
    let one_frame = open_with(
        snapshot,
        &OpenOptions {
            pool_pages: Some(1),
            readahead: 0,
            resident: false,
        },
    )
    .expect("the snapshot opens");
    PageCosts {
        hit_ns: cycle(resident, 1_000_000),
        miss_ns: cycle(&one_frame.index, 20_000),
    }
}

/// Pool misses of one query on a freshly opened snapshot with room for
/// every page and no readahead: the distinct pages the query needs.
pub fn distinct_pages_per_op(snapshot: &Path, queries: &[Vec<f64>]) -> f64 {
    let sample = &queries[..queries.len().min(64)];
    let mut misses = 0;
    for q in sample {
        let opened = open_with(
            snapshot,
            &OpenOptions {
                pool_pages: Some(setup::RESIDENT_POOL_PAGES),
                readahead: 0,
                resident: false,
            },
        )
        .expect("the snapshot opens");
        let index = opened.index.as_dyn();
        black_box(index.knn(q, K).expect("knn answers"));
        misses += pool_totals(index).misses;
    }
    misses as f64 / sample.len() as f64
}

pub struct TreeCosts {
    pub seek_ns: f64,
    pub cursor_next_ns: f64,
    pub fetches_per_entry: f64,
    pub height: f64,
    pub pages: f64,
}

/// Walks the first 10 000 entries of the built tree with a cursor, then
/// seeks each of their keys.
pub fn tree_costs(resident: &BuiltIndex) -> TreeCosts {
    let tree = idistance(resident).tree();
    let entries = tree.len().min(10_000);
    let mut keys = Vec::with_capacity(entries);
    let mut cursor = tree.seek(0.0).expect("the tree seeks");
    let before = tree.pool().snapshot().pages_touched();
    let t = Instant::now();
    while keys.len() < entries {
        match tree.cursor_next(&mut cursor).expect("the cursor advances") {
            Some((key, _)) => keys.push(key),
            None => break,
        }
    }
    let cursor_next_ns = ns_per(keys.len().max(1), t);
    let fetches = tree.pool().snapshot().pages_touched() - before;
    // Stride through the keys so consecutive seeks end on different leaves.
    let t = Instant::now();
    for i in 0..keys.len() {
        black_box(
            tree.seek(black_box(keys[(i * 7919) % keys.len()]))
                .expect("the tree seeks"),
        );
    }
    TreeCosts {
        seek_ns: ns_per(keys.len().max(1), t),
        cursor_next_ns,
        fetches_per_entry: fetches as f64 / keys.len().max(1) as f64,
        height: tree.height() as f64,
        pages: tree.num_pages() as f64,
    }
}

// ---- query: filtered KNN ------------------------------------------------------

/// Selectivities the filtered queries cycle through, in percent. Not 50:
/// that is the planner's own PostFilter threshold, and whether the column
/// draw lands 12 480 or 12 520 rows under the cut then decides the
/// strategy for a third of the queries (`lat_p90_ms` 1.6 ms on one seed,
/// 2.8 ms on the next). At 60 % the planner post-filters on every seed.
pub const SELECTIVITIES: [u32; 3] = [1, 10, 60];

pub fn predicates() -> Vec<Predicate> {
    SELECTIVITIES
        .iter()
        .map(|pct| {
            let cut = data::VIEWS_RANGE / 100 * i64::from(*pct);
            Predicate::parse(&format!("views < {cut}")).expect("the predicate parses")
        })
        .collect()
}

/// Everything one filtered query needs; shared by the count phase, the
/// window driver and the probe.
pub struct FilteredCtx<'a> {
    pub index: &'a dyn VectorIndex,
    pub store: &'a AttrStore,
    pub sketches: &'a AttrSketches,
    pub planner: &'a Planner,
    pub predicates: &'a [Predicate],
}

impl FilteredCtx<'_> {
    /// Compile, plan, run — the way `LiveIndex::filtered_knn` does it,
    /// cost feedback included. Query `i` uses predicate `i % 3`.
    pub fn ask(&self, i: usize, query: &[f64], tracer: &mut Tracer, parent: u32) -> Option<Answer> {
        let op = i as u64;
        let pred = &self.predicates[i % self.predicates.len()];
        let rows = tracer
            .span("query.compile", parent, op, || pred.compile(self.store))
            .ok()?;
        let plan = tracer
            .span("query.plan", parent, op, || {
                let n = self.index.len() as u64;
                self.planner
                    .plan_knn(pred.clone(), rows, Some(self.sketches), n, K)
            })
            .ok()?;
        tracer.span("query.run", parent, op, || {
            let before = self.index.query_stats().page_reads;
            let hits = run_filtered_knn(self.index, query, K, &plan).ok()?;
            let pages = self.index.query_stats().page_reads.saturating_sub(before);
            self.planner.observe(plan.strategy, pages);
            Some(hits)
        })
    }

    /// The answer of each strategy forced in turn; all must be the same.
    /// `PrefilterRank` ranks every matching row, so it is only forced
    /// where the planner itself would consider it cheap enough to matter
    /// (the 1 % predicate).
    pub fn strategies_agree(&self, i: usize, query: &[f64], want: &Answer) -> bool {
        let which = i % self.predicates.len();
        let pred = &self.predicates[which];
        let mut forced = vec![Strategy::PostFilter, Strategy::Pushdown];
        if which == 0 {
            forced.push(Strategy::PrefilterRank);
        }
        let Ok(rows) = pred.compile(self.store) else {
            return false;
        };
        let n = self.index.len() as u64;
        // A throw-away planner builds the filter; the strategy is then
        // overridden, and the shared planner's counters stay clean.
        let Ok(mut plan) = Planner::new().plan_knn(pred.clone(), rows, Some(self.sketches), n, K)
        else {
            return false;
        };
        forced.into_iter().all(|strategy| {
            plan.strategy = strategy;
            run_filtered_knn(self.index, query, K, &plan).is_ok_and(|got| same_answer(&got, want))
        })
    }
}

/// What the `query` layer did over one filtered pass, split by selectivity.
pub struct FilteredLayer {
    pub compile_us: f64,
    pub plan_us: f64,
    /// `[pushdown, post_filter, prefilter_rank]` shares of the decisions.
    pub strategy_frac: [f64; 3],
    pub page_fetches_per_op: [f64; 3],
    pub lat_p50_ms: [f64; 3],
}

/// One pass over the query set with a fresh planner, traced so the
/// compile and plan steps can be told apart from the traversal.
pub fn filtered_pass(
    index: &dyn VectorIndex,
    store: &AttrStore,
    sketches: &AttrSketches,
    queries: &[Vec<f64>],
) -> (Pass, FilteredLayer) {
    let planner = Planner::new();
    let predicates = predicates();
    let ctx = FilteredCtx {
        index,
        store,
        sketches,
        planner: &planner,
        predicates: &predicates,
    };
    let mut tracer = Tracer::on(Instant::now());
    let mut pages = [0u64; 3];
    let mut last = index.query_stats().pages_touched;
    let pass = counted_pass(index, queries, |i, q| {
        let a = ctx.ask(i, q, &mut tracer, NO_SPAN);
        let now = index.query_stats().pages_touched;
        pages[i % 3] += now - last;
        last = now;
        a
    });
    let mut log = TraceLog::default();
    log.absorb(tracer);
    let snap = planner.counters().snapshot();
    let decisions = (snap.pushdown + snap.post_filter + snap.prefilter_rank).max(1) as f64;
    let mut lat_p50_ms = [0.0; 3];
    let mut page_fetches_per_op = [0.0; 3];
    for s in 0..3 {
        let mut lat: Vec<u64> = pass
            .latencies_ns
            .iter()
            .skip(s)
            .step_by(3)
            .copied()
            .collect();
        lat.sort_unstable();
        lat_p50_ms[s] = percentile(&lat, 0.5).0 / 1e6;
        page_fetches_per_op[s] = pages[s] as f64 / lat.len().max(1) as f64;
    }
    let layer = FilteredLayer {
        compile_us: log.mean_ns("query.compile").unwrap_or(0.0) / 1e3,
        plan_us: log.mean_ns("query.plan").unwrap_or(0.0) / 1e3,
        strategy_frac: [
            snap.pushdown as f64 / decisions,
            snap.post_filter as f64 / decisions,
            snap.prefilter_rank as f64 / decisions,
        ],
        page_fetches_per_op,
        lat_p50_ms,
    };
    (pass, layer)
}

// ---- serve ----------------------------------------------------------------------

/// A closed-loop client asking for `knn` over the wire. With `expected`
/// every answer is compared bit for bit; without (a changing index) it
/// must be well-formed.
pub struct ServedKnn<'a> {
    pub client: Client,
    pub queries: &'a [Vec<f64>],
    /// The queries this client asks, in its order, again and again.
    pub order: &'a [usize],
    /// By query, like `queries`.
    pub expected: Option<&'a [Answer]>,
}

impl Driver for ServedKnn<'_> {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome {
        let qi = self.order[op as usize % self.order.len()];
        let root = tracer.begin("client.op", NO_SPAN, op);
        let t = Instant::now();
        let hits = tracer.span("serve.roundtrip", root, op, || {
            self.client.knn(&self.queries[qi], K)
        });
        let latency_ns = t.elapsed().as_nanos() as u64;
        let ok = hits.is_ok_and(|h| match self.expected {
            Some(e) => same_answer(&h, &e[qi]),
            None => window::well_formed(&h, K),
        });
        tracer.end(root);
        Outcome {
            ok,
            latency_ns,
            timed: true,
        }
    }
}

pub struct ServeLayer {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub ping_us: f64,
    pub qps_c1: f64,
    /// Mean served latency at one client minus the mean in-process `knn`
    /// on the same index, over the same queries.
    pub overhead_us: f64,
    pub qps_c2: f64,
    pub lat_p99_ms: f64,
    pub mean_coalesce: f64,
    pub overloaded: f64,
    pub failed: u64,
}

/// Encoding and decoding of the two frames of one KNN round trip.
fn codec_ns(query: &[f64]) -> (f64, f64) {
    let req = Request::Knn {
        query: query.to_vec(),
        k: K as u32,
    };
    let resp = Response::Neighbors((0..K).map(|i| (i as f64 * 0.01, i as u64)).collect());
    let (req_bytes, resp_bytes) = (
        wire::encode_request(1, &req),
        wire::encode_response(1, wire::opcode::KNN, &resp),
    );
    let reps = 100_000;
    let t = Instant::now();
    for i in 0..reps as u64 {
        black_box(wire::encode_request(i, black_box(&req)));
        black_box(wire::encode_response(
            i,
            wire::opcode::KNN,
            black_box(&resp),
        ));
    }
    let encode = ns_per(reps, t);
    let t = Instant::now();
    for _ in 0..reps {
        black_box(wire::decode_request(black_box(&req_bytes)).expect("the frame decodes"));
        black_box(wire::decode_response(black_box(&resp_bytes)).expect("the frame decodes"));
    }
    (encode, ns_per(reps, t))
}

/// Mean coalesced batch size and rejections between two counter readings.
pub fn coalesce_between(before: &wire::ServerCounters, after: &wire::ServerCounters) -> (f64, f64) {
    let batches = after.coalesced_batches - before.coalesced_batches;
    let folded = after.coalesced_queries - before.coalesced_queries;
    (
        if batches > 0 {
            folded as f64 / batches as f64
        } else {
            1.0
        },
        (after.overloaded - before.overloaded) as f64,
    )
}

/// What a served `knn` costs over the same `knn` in process: two passes
/// over `queries`, each query asked over the wire and then directly, the
/// difference of the two means. Alternating keeps both sides under the
/// same host conditions.
fn overhead_us(client: &mut Client, index: &dyn VectorIndex, queries: &[Vec<f64>]) -> f64 {
    let passes = 2;
    let (mut served, mut direct) = (0u64, 0u64);
    for _ in 0..passes {
        for q in queries {
            let t = Instant::now();
            black_box(client.knn(q, K).expect("the server answers"));
            served += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            black_box(index.knn(q, K).expect("knn answers"));
            direct += t.elapsed().as_nanos() as u64;
        }
    }
    (served as f64 - direct as f64) / 1e3 / (passes * queries.len()) as f64
}

/// Codec, ping, then `knn` from one and from two closed-loop connections,
/// `phase_s` each, against a running server.
pub fn serve_layer(
    server: &ServerHandle,
    index: &dyn VectorIndex,
    queries: &[Vec<f64>],
    expected: Option<&[Answer]>,
    phase_s: f64,
) -> ServeLayer {
    let addr = server.local_addr();
    let (encode_ns, decode_ns) = codec_ns(&queries[0]);
    let mut pinger = connect(addr);
    let pings: Vec<f64> = (0..200)
        .map(|_| pinger.ping().expect("the server answers ping").as_nanos() as f64 / 1e3)
        .collect();
    // The workloads' own queries, so that `qps_c1` stands beside
    // `knn_resident`'s `qps`.
    let order: Vec<usize> = (0..queries.len()).collect();
    let phase = |clients: usize| {
        let share = order.len() / clients;
        let mut drivers: Vec<ServedKnn> = (0..clients)
            .map(|c| ServedKnn {
                client: connect(addr),
                queries,
                order: &order[c * share..(c + 1) * share],
                expected,
            })
            .collect();
        window::run(&mut drivers, phase_s, 0, false, Instant::now())
    };
    let c1 = phase(1);
    let before = server.stats();
    let c2 = phase(2);
    let (mean_coalesce, overloaded) = coalesce_between(&before, &server.stats());
    ServeLayer {
        encode_ns,
        decode_ns,
        ping_us: median(&pings),
        qps_c1: c1.qps(),
        overhead_us: overhead_us(&mut pinger, index, queries),
        qps_c2: c2.qps(),
        lat_p99_ms: percentile(&c2.latencies_ns, 0.99).0 / 1e6,
        mean_coalesce,
        overloaded,
        failed: c1.failed + c2.failed,
    }
}

/// `serve_layer` against a server started for the purpose over a
/// resident reopening of `snapshot`.
pub fn serve_probe(snapshot: &Path, queries: &[Vec<f64>], phase_s: f64) -> ServeLayer {
    let opened = open_resident(snapshot).expect("the snapshot opens");
    let index: Arc<dyn VectorIndex> = Arc::from(opened.index.into_boxed());
    let expected: Vec<Answer> = queries
        .iter()
        .map(|q| index.knn(q, K).expect("knn answers"))
        .collect();
    let server = Server::start_static(Arc::clone(&index), ("127.0.0.1", 0), server_config())
        .expect("the server starts");
    let layer = serve_layer(&server, index.as_ref(), queries, Some(&expected), phase_s);
    server.shutdown();
    layer
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("the server accepts")
}

// ---- persist: the write side ------------------------------------------------------

/// What the benchmark was told is durable.
#[derive(Default)]
pub struct Acked {
    /// `(id, row of the insert pool)`.
    pub inserts: Vec<(u64, usize)>,
    pub deletes: Vec<u64>,
}

pub struct Prepared {
    pub acked: Acked,
    pub insert_ns: Vec<u64>,
    pub wall_s: f64,
    pub failed: u64,
}

/// Inserts the first `PREPARE_INSERTS` pool rows and deletes the first
/// `PREPARE_DELETES` ids of `delete_order`, in process, one by one.
pub fn prepare(
    engine: &IngestEngine,
    pool: &Matrix,
    delete_order: &[u64],
    tracer: &mut Tracer,
) -> Prepared {
    let mut acked = Acked::default();
    let mut insert_ns = Vec::with_capacity(PREPARE_INSERTS);
    let mut failed = 0;
    let start = Instant::now();
    for row in 0..PREPARE_INSERTS {
        let t = Instant::now();
        let id = tracer.span("persist.insert", NO_SPAN, row as u64, || {
            engine.insert(pool.row(row))
        });
        insert_ns.push(t.elapsed().as_nanos() as u64);
        match id {
            Ok(id) => acked.inserts.push((id, row)),
            Err(_) => failed += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    for &id in &delete_order[..PREPARE_DELETES] {
        match engine.delete(id) {
            Ok(true) => acked.deletes.push(id),
            _ => failed += 1,
        }
    }
    Prepared {
        acked,
        insert_ns,
        wall_s,
        failed,
    }
}

/// Reopens the engine at `snapshot` from the files alone, then counts
/// acked inserts that are missing and acked deletes that are back. The
/// process was not killed and the OS cache is intact, so this checks WAL
/// replay and folding, not what survives a power cut.
///
/// A sample of inserted rows (the oldest, long folded, and the newest,
/// just replayed from the log) must each come back among the nearest
/// neighbours of their own vector; then a flush folds everything and the
/// ids stored in the snapshot are compared with the acked sets in full.
pub fn replay(snapshot: &Path, pool: &Matrix, acked: &Acked) -> Replay {
    let engine = IngestEngine::open(
        snapshot,
        IngestOptions {
            merge_threshold: 0,
            ..IngestOptions::default()
        },
    )
    .expect("the engine reopens");
    let mut lost = 0;
    let pin = engine.pin();
    let oldest = acked.inserts.iter().take(32);
    let newest = acked.inserts.iter().rev().take(32);
    for &(id, row) in oldest.chain(newest) {
        // Among the nearest four, not the nearest one: a vector stored
        // twice (the stream wrapped, or the probe re-inserted base rows)
        // ties with its copy, and the tie goes to the smaller id.
        let nearest = pin.index.knn(pool.row(row), 4).unwrap_or_default();
        if !nearest.iter().any(|h| h.1 == id) {
            lost += 1;
        }
    }
    drop(pin);
    engine.flush().expect("the final flush folds");
    engine.quiesce();
    drop(engine);
    let opened = open_resident(snapshot).expect("the folded snapshot opens");
    let mut stored = HashSet::new();
    idistance(&opened.index)
        .heap()
        .scan(|_, id, _| {
            stored.insert(id);
        })
        .expect("the heap scans");
    lost += acked
        .inserts
        .iter()
        .filter(|(id, _)| !stored.contains(id))
        .count() as u64;
    lost += acked
        .deletes
        .iter()
        .filter(|id| stored.contains(id))
        .count() as u64;
    Replay {
        lost,
        live_rows: stored.len() as u64,
        disk_bytes: disk_bytes(snapshot),
    }
}

pub struct Replay {
    /// Acked inserts missing plus acked deletes present.
    pub lost: u64,
    /// Rows the folded snapshot stores.
    pub live_rows: u64,
    /// Snapshot plus live log segments, after the final flush.
    pub disk_bytes: u64,
}

/// Bytes of the snapshot and of every segment of its write-ahead log.
pub fn disk_bytes(snapshot: &Path) -> u64 {
    let wal = wal_path(snapshot);
    let wal_name = wal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let log_bytes: u64 = snapshot
        .parent()
        .and_then(|dir| std::fs::read_dir(dir).ok())
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&wal_name))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    std::fs::metadata(snapshot).map_or(0, |m| m.len()) + log_bytes
}

pub struct WalCosts {
    pub append_us: f64,
    pub bytes_per_insert: f64,
}

/// 200 fsync'd appends of a D-dimensional insert record to a fresh log.
pub fn wal_costs(dir: &Path, row: &[f64]) -> WalCosts {
    let (mut wal, _) = WalWriter::open(dir.join("probe.wal")).expect("the log opens");
    let appends = 200;
    let times: Vec<f64> = (0..appends)
        .map(|id| {
            let op = IngestOp::Insert {
                id,
                vector: row.to_vec(),
            };
            let t = Instant::now();
            wal.append(&op).expect("the append is durable");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    WalCosts {
        append_us: median(&times),
        bytes_per_insert: wal.bytes() as f64 / appends as f64,
    }
}

pub struct PersistLayer {
    pub insert_us: f64,
    pub insert_p50_ms: f64,
    pub insert_qps: f64,
    pub read_qps: f64,
    pub merges: f64,
    pub merge_s: f64,
    pub write_amp: f64,
    pub acked_rows_lost: f64,
}

pub fn insert_latency(insert_ns: &[u64]) -> (f64, f64) {
    let mut sorted = insert_ns.to_vec();
    sorted.sort_unstable();
    let mean_us = sorted.iter().sum::<u64>() as f64 / 1e3 / sorted.len().max(1) as f64;
    (mean_us, percentile(&sorted, 0.5).0 / 1e6)
}

/// The write side on a throw-away engine over a copy of `snapshot`:
/// prepare, read beside the delta, fold it with one explicit flush,
/// reopen.
pub fn persist_probe(
    root: &Path,
    snapshot: &Path,
    pool: &Matrix,
    delete_order: &[u64],
    queries: &[Vec<f64>],
    tracer: &mut Tracer,
) -> PersistLayer {
    let dir = WorkDir::new(root, "probe-engine");
    let copy = dir.path().join("probe.mmdr");
    std::fs::copy(snapshot, &copy).expect("the snapshot copies");
    let engine = IngestEngine::open(
        &copy,
        IngestOptions {
            merge_threshold: 0,
            ..IngestOptions::default()
        },
    )
    .expect("the engine opens");
    let prepared = prepare(&engine, pool, delete_order, tracer);
    let reads = &queries[..queries.len().min(64)];
    let t = Instant::now();
    let pin = engine.pin();
    for q in reads {
        black_box(pin.index.knn(q, K).expect("knn answers"));
    }
    drop(pin);
    let read_qps = reads.len() as f64 / t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.flush().expect("the flush folds");
    let merge_s = t.elapsed().as_secs_f64();
    engine.quiesce();
    let folded_bytes = std::fs::metadata(&copy).map_or(0, |m| m.len());
    drop(engine);
    let (insert_us, insert_p50_ms) = insert_latency(&prepared.insert_ns);
    PersistLayer {
        insert_us,
        insert_p50_ms,
        insert_qps: prepared.acked.inserts.len() as f64 / prepared.wall_s,
        read_qps,
        merges: 1.0,
        merge_s,
        write_amp: folded_bytes as f64 / user_bytes(prepared.acked.inserts.len(), pool.cols()),
        acked_rows_lost: (replay(&copy, pool, &prepared.acked).lost + prepared.failed) as f64,
    }
}

/// Bytes the user handed over with `rows` inserts.
pub fn user_bytes(rows: usize, dim: usize) -> f64 {
    (rows * dim * std::mem::size_of::<f64>()).max(1) as f64
}

/// The model numbers that explain a move in `bytes_per_row`,
/// `dists_per_op` or `precision_at_k`.
pub fn model_counts(model: &ReductionResult) -> (f64, f64, f64) {
    (
        model.clusters.len() as f64,
        model.outliers.len() as f64,
        model.mean_retained_dim(),
    )
}
