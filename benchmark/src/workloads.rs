//! The six workloads. Each one is: set-ups before, a count phase on a
//! fixed state, the measured window (twice in a traced run: off, then
//! on), the correctness gate, set-ups after.
//!
//! Why these six, and which layer each isolates, is in README.md and in
//! the `why` lines of BENCHMARK.json.

use crate::data::{self, K};
use crate::host;
use crate::layers::{
    self, Acked, Answer, FilteredCtx, FilteredLayer, Pass, PersistLayer, ServeLayer, ServedKnn,
};
use crate::setup::{self, Front, Kind, Stages, System, PREPARE_DELETES, PREPARE_INSERTS};
use crate::spec::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::{TraceLog, Tracer, NO_SPAN};
use crate::window::{self, median, percentile, same_answer, Driver, Outcome, WindowResult};
use mmdr_core::{Mmdr, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{LiveIndex, VectorIndex};
use mmdr_json::Value;
use mmdr_linalg::Matrix;
use mmdr_persist::{build_index, open_resident, save, BuiltIndex};
use mmdr_query::Planner;
use mmdr_serve::Client;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `precision_at_k` below this fails the run: MMDR on D1 and D2 answers
/// 0.97-0.99 of the exact neighbours, and a change that trades them away
/// must not pass as a speed-up.
pub const PRECISION_FLOOR: f64 = 0.95;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Complete set-ups per run, half before the window and half after.
    pub setups: usize,
    /// Seconds per client count of the serve layer's own phases.
    pub phase_s: f64,
    /// Fewest timed operations in a `fit_build` window, however long they
    /// take.
    pub min_fit_ops: u64,
    /// Fewest background merges `ingest_mixed` must see finish.
    pub min_merges: u64,
    pub root: PathBuf,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub gate: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub extras: Vec<(&'static str, Value)>,
    pub windows_s: Vec<f64>,
    pub threads: usize,
    pub trace: Option<TraceLog>,
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "knn_resident" => run_d1(Kind::Resident, opts),
        "knn_paged" => run_d1(Kind::Paged, opts),
        "serve_knn" => run_d1(Kind::Served, opts),
        "ingest_mixed" => run_d1(Kind::Ingest, opts),
        "filtered_knn" => run_d1(Kind::Filtered, opts),
        "fit_build" => run_fit_build(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

// ---- drivers ------------------------------------------------------------------

/// One thread calling `VectorIndex::knn` in process.
struct DirectKnn<'a> {
    index: &'a dyn VectorIndex,
    queries: &'a [Vec<f64>],
    /// The order the queries are asked in, again and again.
    order: &'a [usize],
    expected: &'a [Answer],
}

impl Driver for DirectKnn<'_> {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome {
        let qi = self.order[op as usize % self.order.len()];
        let root = tracer.begin("client.op", NO_SPAN, op);
        let t = Instant::now();
        let hits = tracer.span("idistance.knn", root, op, || {
            self.index.knn(&self.queries[qi], K)
        });
        let latency_ns = t.elapsed().as_nanos() as u64;
        let ok = hits.is_ok_and(|h| same_answer(&h, &self.expected[qi]));
        tracer.end(root);
        Outcome {
            ok,
            latency_ns,
            timed: true,
        }
    }
}

/// One thread compiling, planning and running a filtered KNN per query.
struct FilteredKnn<'a> {
    ctx: FilteredCtx<'a>,
    queries: &'a [Vec<f64>],
    order: &'a [usize],
    expected: &'a [Answer],
}

impl Driver for FilteredKnn<'_> {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome {
        let qi = self.order[op as usize % self.order.len()];
        let root = tracer.begin("client.op", NO_SPAN, op);
        let t = Instant::now();
        let hits = self.ctx.ask(qi, &self.queries[qi], tracer, root);
        let latency_ns = t.elapsed().as_nanos() as u64;
        let ok = hits.is_some_and(|h| same_answer(&h, &self.expected[qi]));
        tracer.end(root);
        Outcome {
            ok,
            latency_ns,
            timed: true,
        }
    }
}

/// Operations per repetition of the `ingest_mixed` interleave: ten times
/// (3 `knn`, 1 `insert`), then 1 `delete`.
const MIX_CYCLE: u64 = 41;

/// One connection of `ingest_mixed`.
struct IngestMixed<'a> {
    client: Client,
    queries: &'a [Vec<f64>],
    /// The queries this connection asks, in its order.
    order: &'a [usize],
    pool: &'a Matrix,
    /// This connection's pool rows: `next_row`, `next_row + 2`, ...
    next_row: usize,
    /// This connection's ids to delete, in order.
    deletes: std::slice::Iter<'a, u64>,
    acked: Acked,
    deleted: HashSet<u64>,
    knn_seen: usize,
}

impl Driver for IngestMixed<'_> {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome {
        let slot = op % MIX_CYCLE;
        let root = tracer.begin("client.op", NO_SPAN, op);
        let t = Instant::now();
        let (ok, timed) = if slot == MIX_CYCLE - 1 {
            match self.deletes.next() {
                Some(&id) => {
                    let done = tracer.span("serve.roundtrip.delete", root, op, || {
                        self.client.delete(id)
                    });
                    if matches!(done, Ok(true)) {
                        self.acked.deletes.push(id);
                        self.deleted.insert(id);
                    }
                    (matches!(done, Ok(true)), false)
                }
                None => (false, false),
            }
        } else if slot % 4 == 3 {
            // Past the end of the pool the stream starts over after the
            // rows the count phase used; the replay check knows.
            let row = self.next_row;
            self.next_row += 2;
            if self.next_row >= self.pool.rows() {
                self.next_row = PREPARE_INSERTS + self.next_row % 2;
            }
            let id = tracer.span("serve.roundtrip.insert", root, op, || {
                self.client.insert(self.pool.row(row))
            });
            if let Ok(id) = id {
                self.acked.inserts.push((id, row));
            }
            (id.is_ok(), false)
        } else {
            let qi = self.order[self.knn_seen % self.order.len()];
            self.knn_seen += 1;
            let hits = tracer.span("serve.roundtrip", root, op, || {
                self.client.knn(&self.queries[qi], K)
            });
            // The other connection's deletes race with this query; a row
            // this connection was told is gone must not come back.
            let ok = hits.is_ok_and(|h| {
                window::well_formed(&h, K) && h.iter().all(|(_, id)| !self.deleted.contains(id))
            });
            (ok, true)
        };
        let latency_ns = t.elapsed().as_nanos() as u64;
        tracer.end(root);
        Outcome {
            ok,
            latency_ns,
            timed,
        }
    }
}

/// `fit_build`: one operation is fit + build + save.
struct FitBuild<'a> {
    data: &'a Matrix,
    path: PathBuf,
    last: Option<(ReductionResult, BuiltIndex)>,
    /// `(fit, build, save)` seconds of every operation.
    stages: Vec<(f64, f64, f64)>,
}

impl Driver for FitBuild<'_> {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome {
        let root = tracer.begin("client.op", NO_SPAN, op);
        let t = Instant::now();
        let model = tracer.span("core.fit", root, op, || {
            Mmdr::new(setup::serial_params(data::D2_MAX_EC)).fit(self.data)
        });
        let fit_s = t.elapsed().as_secs_f64();
        let built = model.ok().and_then(|model| {
            let built = tracer
                .span("idistance.build", root, op, || {
                    build_index(
                        Backend::IDistance,
                        self.data,
                        &model,
                        setup::RESIDENT_POOL_PAGES,
                    )
                })
                .ok()?;
            Some((model, built))
        });
        let build_s = t.elapsed().as_secs_f64() - fit_s;
        let saved = built.and_then(|(model, built)| {
            tracer
                .span("persist.save", root, op, || {
                    save(&self.path, &built, &model)
                })
                .ok()?;
            Some((model, built))
        });
        let total_s = t.elapsed().as_secs_f64();
        tracer.end(root);
        let ok = saved.as_ref().is_some_and(|(model, _)| {
            model.is_partition() && std::fs::metadata(&self.path).is_ok_and(|m| m.len() > 0)
        });
        self.stages
            .push((fit_s, build_s, total_s - fit_s - build_s));
        self.last = saved;
        Outcome {
            ok,
            latency_ns: (total_s * 1e9) as u64,
            timed: true,
        }
    }
}

// ---- shared pieces ---------------------------------------------------------------

/// The window, and in a traced run a second one with spans on. Both halves
/// of a traced run are `seconds / 2` long, so `--seconds` bounds the run
/// either way.
struct Windows {
    plain: WindowResult,
    traced: Option<WindowResult>,
}

fn run_windows<D: Driver>(drivers: &mut [D], opts: &Opts, min_ops: u64, epoch: Instant) -> Windows {
    if !opts.trace {
        return Windows {
            plain: window::run(drivers, opts.seconds, min_ops, false, epoch),
            traced: None,
        };
    }
    let half = opts.seconds / 2.0;
    let plain = window::run(drivers, half, min_ops, false, epoch);
    let traced = window::run(drivers, half, min_ops, true, epoch);
    Windows {
        plain,
        traced: Some(traced),
    }
}

impl Windows {
    fn lengths(&self) -> Vec<f64> {
        std::iter::once(&self.plain)
            .chain(&self.traced)
            .map(|w| w.wall_s)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.as_ref().map_or(0, |w| w.attempted)
    }

    fn failed(&self) -> u64 {
        self.plain.failed + self.traced.as_ref().map_or(0, |w| w.failed)
    }

    /// (untraced qps - traced qps) / untraced qps, in percent; 0 when no
    /// untraced operation completed.
    fn trace_overhead_pct(&self) -> f64 {
        match &self.traced {
            Some(t) if self.plain.completed() > 0 => {
                (self.plain.qps() - t.qps()) / self.plain.qps() * 100.0
            }
            _ => 0.0,
        }
    }
}

/// Counts of the count phase, per operation.
struct Counts {
    page_fetches_per_op: f64,
    dists_per_op: f64,
    candidates_per_op: f64,
    pool_hit_ratio: f64,
    pool_misses_per_op: f64,
    evictions_per_op: f64,
    physical_reads_per_op: f64,
    readahead_hits_per_op: f64,
}

impl Counts {
    fn of(pass: &Pass) -> Self {
        let touched = pass.pool.hits + pass.pool.misses;
        Self {
            page_fetches_per_op: pass.per_op(pass.stats.pages_touched),
            dists_per_op: pass.per_op(pass.stats.dist_computations),
            candidates_per_op: pass.per_op(pass.stats.candidates_refined),
            pool_hit_ratio: if touched == 0 {
                1.0
            } else {
                pass.pool.hits as f64 / touched as f64
            },
            pool_misses_per_op: pass.per_op(pass.pool.misses),
            evictions_per_op: pass.per_op(pass.pool.evictions),
            physical_reads_per_op: pass.per_op(pass.stats.physical_reads),
            readahead_hits_per_op: pass.per_op(pass.stats.readahead_hits),
        }
    }
}

/// The timing readings of a window, as they happened. They cannot hold a
/// bound on this host (README, "Bounds"), so they are per-layer metrics of
/// a traced run and `extra` lines of an untraced one.
struct Timing {
    qps: f64,
    lat_p50_ms: f64,
    lat_p90_ms: f64,
    cpu_ms_per_op: f64,
    lat_samples: usize,
    lat_samples_beyond_p90: usize,
}

impl Timing {
    fn of(w: &WindowResult) -> Self {
        let (p90, beyond) = percentile(&w.latencies_ns, 0.9);
        Self {
            qps: w.qps(),
            lat_p50_ms: percentile(&w.latencies_ns, 0.5).0 / 1e6,
            lat_p90_ms: p90 / 1e6,
            cpu_ms_per_op: w.cpu_ms_per_op(),
            lat_samples: w.latencies_ns.len(),
            lat_samples_beyond_p90: beyond,
        }
    }
}

fn end_to_end(
    setups: &[f64],
    w: &WindowResult,
    counts: &Counts,
    precision: f64,
    bytes_per_row: f64,
) -> (Metrics, Vec<(&'static str, Value)>) {
    let mut m = Metrics::default();
    m.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.set("page_fetches_per_op", counts.page_fetches_per_op);
    m.set("dists_per_op", counts.dists_per_op);
    m.set("precision_at_k", precision);
    m.set("bytes_per_row", bytes_per_row);
    m.set("peak_rss_mb", host::peak_rss_mib());
    let t = Timing::of(w);
    let extras = vec![
        (
            "setup_s_all",
            Value::Array(setups.iter().map(|&s| Value::Number(s)).collect()),
        ),
        ("setup_s_median", Value::Number(median(setups))),
        (
            "setup_s_max",
            Value::Number(setups.iter().copied().fold(0.0, f64::max)),
        ),
        ("qps", Value::Number(t.qps)),
        ("lat_p50_ms", Value::Number(t.lat_p50_ms)),
        ("lat_p90_ms", Value::Number(t.lat_p90_ms)),
        ("lat_samples", Value::Number(t.lat_samples as f64)),
        (
            "lat_samples_beyond_p90",
            Value::Number(t.lat_samples_beyond_p90 as f64),
        ),
        ("cpu_ms_per_op", Value::Number(t.cpu_ms_per_op)),
    ];
    (m, extras)
}

/// The per-layer numbers every D1 workload measures the same way, on a
/// resident reopening of its own snapshot: the kernels, the page and tree
/// costs, and, unless the workload has its own, the filtered pass.
struct StaticProbes {
    kernels: layers::Kernels,
    ekmeans_s: f64,
    pages: layers::PageCosts,
    distinct_pages_per_op: f64,
    tree: layers::TreeCosts,
    wal: layers::WalCosts,
    /// A resident open of the snapshot, for workloads whose set-up has no
    /// open of its own.
    open_s: f64,
}

fn static_probes(
    snapshot: &Path,
    data: &Matrix,
    clusters: usize,
    queries: &[Vec<f64>],
    root: &Path,
) -> (StaticProbes, BuiltIndex) {
    let t = Instant::now();
    let resident = open_resident(snapshot).expect("the snapshot opens").index;
    let open_s = t.elapsed().as_secs_f64();
    let probes = StaticProbes {
        open_s,
        kernels: layers::kernels(&resident, queries),
        ekmeans_s: layers::ekmeans_s(data, clusters),
        pages: layers::page_costs(&resident, snapshot),
        distinct_pages_per_op: layers::distinct_pages_per_op(snapshot, queries),
        tree: layers::tree_costs(&resident),
        wal: layers::wal_costs(root, data.row(0)),
    };
    (probes, resident)
}

/// Everything a traced run reports, gathered by whichever workload ran.
struct LayerInputs<'a> {
    stages: Stages,
    /// Seconds the stages are a share of (a set-up, or one `fit_build` op).
    stage_total_s: f64,
    model: &'a ReductionResult,
    snapshot_bytes: f64,
    probes: StaticProbes,
    counts: &'a Counts,
    /// Mean in-process `knn` on the workload's own index.
    knn_us: f64,
    batch_speedup_t2: f64,
    filtered: FilteredLayer,
    serve: ServeLayer,
    persist: PersistLayer,
    trace_overhead_pct: f64,
    /// Of the untraced window.
    timing: Timing,
}

fn per_layer(i: LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let knn_ns = i.knn_us * 1e3;
    let (clusters, outliers, mean_dim) = layers::model_counts(i.model);
    let dist_share = i.counts.dists_per_op * i.probes.kernels.dist_ns / knn_ns;
    let project_share = clusters * i.probes.kernels.project_ns / knn_ns;
    let fetch_share = i.counts.page_fetches_per_op * i.probes.pages.hit_ns / knn_ns;
    // A miss costs a hit plus the read; only the read is extra.
    let miss_share = i.counts.pool_misses_per_op
        * (i.probes.pages.miss_ns - i.probes.pages.hit_ns).max(0.0)
        / knn_ns;
    m.set("linalg.dist_ns", i.probes.kernels.dist_ns);
    m.set("linalg.dist_share_est", dist_share);
    m.set("pca.project_ns", i.probes.kernels.project_ns);
    m.set("pca.project_share_est", project_share);
    m.set("cluster.ekmeans_s", i.probes.ekmeans_s);
    m.set("core.fit_s", i.stages.fit_s);
    m.set("core.fit_share", i.stages.fit_s / i.stage_total_s);
    m.set("core.clusters", clusters);
    m.set("core.outliers", outliers);
    m.set("core.mean_reduced_dim", mean_dim);
    m.set("storage.pool_hit_ratio", i.counts.pool_hit_ratio);
    m.set("storage.evictions_per_op", i.counts.evictions_per_op);
    m.set(
        "storage.physical_reads_per_op",
        i.counts.physical_reads_per_op,
    );
    m.set(
        "storage.readahead_hits_per_op",
        i.counts.readahead_hits_per_op,
    );
    m.set("storage.page_hit_ns", i.probes.pages.hit_ns);
    m.set("storage.page_miss_ns", i.probes.pages.miss_ns);
    m.set("storage.fetch_share_est", fetch_share);
    m.set("storage.miss_share_est", miss_share);
    m.set(
        "storage.distinct_pages_per_op",
        i.probes.distinct_pages_per_op,
    );
    m.set("btree.seek_ns", i.probes.tree.seek_ns);
    m.set("btree.cursor_next_ns", i.probes.tree.cursor_next_ns);
    m.set("btree.fetches_per_entry", i.probes.tree.fetches_per_entry);
    m.set("btree.height", i.probes.tree.height);
    m.set("btree.pages", i.probes.tree.pages);
    m.set("idistance.knn_us", i.knn_us);
    m.set("idistance.candidates_per_op", i.counts.candidates_per_op);
    m.set(
        "idistance.rows_examined_per_result",
        i.counts.dists_per_op / K as f64,
    );
    m.set("idistance.build_s", i.stages.build_s);
    m.set(
        "idistance.unattributed_share_est",
        1.0 - dist_share - project_share - fetch_share - miss_share,
    );
    m.set("index.batch_speedup_t2", i.batch_speedup_t2);
    m.set("query.compile_us", i.filtered.compile_us);
    m.set("query.plan_us", i.filtered.plan_us);
    m.set("query.pushdown_frac", i.filtered.strategy_frac[0]);
    m.set("query.postfilter_frac", i.filtered.strategy_frac[1]);
    m.set("query.prefilter_frac", i.filtered.strategy_frac[2]);
    m.set(
        "query.page_fetches_per_op.sel1",
        i.filtered.page_fetches_per_op[0],
    );
    m.set(
        "query.page_fetches_per_op.sel10",
        i.filtered.page_fetches_per_op[1],
    );
    m.set(
        "query.page_fetches_per_op.sel60",
        i.filtered.page_fetches_per_op[2],
    );
    m.set("query.lat_p50_ms.sel1", i.filtered.lat_p50_ms[0]);
    m.set("query.lat_p50_ms.sel10", i.filtered.lat_p50_ms[1]);
    m.set("query.lat_p50_ms.sel60", i.filtered.lat_p50_ms[2]);
    m.set("persist.save_s", i.stages.save_s);
    let open_s = if i.stages.open_s > 0.0 {
        i.stages.open_s
    } else {
        i.probes.open_s
    };
    m.set("persist.open_ms", open_s * 1e3);
    m.set("persist.snapshot_bytes", i.snapshot_bytes);
    m.set("persist.wal_append_us", i.probes.wal.append_us);
    m.set("persist.insert_us", i.persist.insert_us);
    m.set("persist.insert_p50_ms", i.persist.insert_p50_ms);
    m.set(
        "persist.wal_bytes_per_insert",
        i.probes.wal.bytes_per_insert,
    );
    m.set("persist.insert_qps", i.persist.insert_qps);
    m.set("persist.read_qps", i.persist.read_qps);
    m.set("persist.merges", i.persist.merges);
    m.set("persist.merge_s", i.persist.merge_s);
    m.set("persist.write_amp", i.persist.write_amp);
    m.set("persist.acked_rows_lost", i.persist.acked_rows_lost);
    m.set("serve.encode_ns", i.serve.encode_ns);
    m.set("serve.decode_ns", i.serve.decode_ns);
    m.set("serve.ping_us", i.serve.ping_us);
    m.set("serve.overhead_us", i.serve.overhead_us);
    m.set("serve.qps_c1", i.serve.qps_c1);
    m.set("serve.scaling_c2", i.serve.qps_c2 / i.serve.qps_c1);
    m.set("serve.mean_coalesce", i.serve.mean_coalesce);
    m.set("serve.overloaded", i.serve.overloaded);
    m.set("serve.lat_p99_ms", i.serve.lat_p99_ms);
    m.set("trace.overhead_pct", i.trace_overhead_pct);
    m.set("demoted.qps", i.timing.qps);
    m.set("demoted.lat_p50_ms", i.timing.lat_p50_ms);
    m.set("demoted.lat_p90_ms", i.timing.lat_p90_ms);
    m.set("demoted.cpu_ms_per_op", i.timing.cpu_ms_per_op);
    m
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0, |m| m.len()) as f64
}

fn span_summary(log: &TraceLog) -> Value {
    Value::Object(
        log.summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Value::object(vec![
                        ("count", Value::Number(count as f64)),
                        ("total_ms", Value::Number(total as f64 / 1e6)),
                        ("self_ms", Value::Number(own as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

// ---- the five D1 workloads ----------------------------------------------------------

/// What the body of a D1 run hands back across the trailing set-ups.
struct Body {
    attempted: u64,
    failed: u64,
    gate: Vec<String>,
    windows: Windows,
    counts: Counts,
    precision: f64,
    bytes_per_row: f64,
    layer: Option<Metrics>,
    log: TraceLog,
    extras: Vec<(&'static str, Value)>,
}

fn run_d1(kind: Kind, opts: &Opts) -> Result<Report, String> {
    let half = opts.setups / 2;
    let (setups, body) = setup::around_window(
        half,
        opts.setups - half,
        |i| {
            let sys = setup::set_up(kind, opts.seed, &opts.root, &format!("setup-{i}"));
            let t = sys.stages.total_s;
            (sys, t)
        },
        |sys| d1_body(kind, opts, sys),
    );
    let threads = match kind {
        // Two clients, two workers; `ingest_mixed` adds the merge thread.
        Kind::Served => 4,
        Kind::Ingest => 5,
        _ => 1,
    };
    finish(opts, setups, body, threads)
}

fn finish(opts: &Opts, setups: Vec<f64>, body: Body, threads: usize) -> Result<Report, String> {
    let (e2e, mut extras) = end_to_end(
        &setups,
        &body.windows.plain,
        &body.counts,
        body.precision,
        body.bytes_per_row,
    );
    extras.extend(body.extras);
    let mut gate = body.gate;
    if body.precision < PRECISION_FLOOR {
        gate.push(format!(
            "precision_at_k {:.4} is under the floor {PRECISION_FLOOR}",
            body.precision
        ));
    }
    let metrics = match body.layer {
        Some(layer) if opts.trace => layer.finish(&PER_LAYER)?,
        _ => e2e.finish(&END_TO_END)?,
    };
    // The write-side probe of a traced run is held to the same rule as
    // `ingest_mixed` itself.
    let mut failed = body.failed;
    if let Some(&(_, lost, _)) = metrics.iter().find(|m| m.0 == "persist.acked_rows_lost") {
        if lost > 0.0 && gate.is_empty() {
            gate.push(format!("the persist layer lost {lost} acked operations"));
            failed += lost as u64;
        }
    }
    Ok(Report {
        attempted: body.attempted,
        failed,
        gate,
        metrics,
        extras,
        windows_s: body.windows.lengths(),
        threads,
        trace: opts.trace.then_some(body.log),
    })
}

fn d1_body(kind: Kind, opts: &Opts, mut sys: System) -> Body {
    let epoch = Instant::now();
    let mut gate = Vec::new();
    let mut log = TraceLog::default();
    let mut probe_tracer = Tracer::new(opts.trace, epoch);
    let base = &sys.corpus.base;
    let (n, dim) = base.shape();
    let queries = data::queries(base);
    let order = data::window_order(opts.seed);
    let delete_order = data::delete_order(n, opts.seed, PREPARE_DELETES);
    let snapshot_bytes = file_len(&sys.snapshot);

    // Layer probes that need the snapshot as the set-up left it come
    // first: `ingest_mixed` folds into the same file later on.
    let probes = opts.trace.then(|| {
        let (probes, resident) = static_probes(
            &sys.snapshot,
            base,
            sys.model.clusters.len(),
            &queries,
            &opts.root,
        );
        let filtered = (kind != Kind::Filtered).then(|| {
            let store = setup::views_store(n);
            let sketches = setup::sketches_for(&store, &sys.model);
            layers::filtered_pass(resident.as_dyn(), &store, &sketches, &queries).1
        });
        let serve = (!matches!(kind, Kind::Served | Kind::Ingest))
            .then(|| layers::serve_probe(&sys.snapshot, &queries, opts.phase_s));
        let persist = (kind != Kind::Ingest).then(|| {
            layers::persist_probe(
                &opts.root,
                &sys.snapshot,
                &sys.corpus.pool,
                &delete_order,
                &queries,
                &mut probe_tracer,
            )
        });
        (probes, filtered, serve, persist)
    });

    // ---- count phase: one pass over the queries on a fixed state ----
    let mut attempted = queries.len() as u64;
    let mut failed = 0;
    let mut own_filtered = None;
    let mut prepared = None;
    let planner = Planner::new();
    let predicates = layers::predicates();
    let pass = match &sys.front {
        Front::Direct(built) => layers::knn_pass(built.as_dyn(), &queries),
        Front::Served { index, server } => {
            let mut client = layers::connect(server.local_addr());
            let pass = layers::counted_pass(index.as_ref(), &queries, |_, q| client.knn(q, K).ok());
            // Served answers are the in-process answers, bit for bit.
            let differing = queries
                .iter()
                .zip(&pass.answers)
                .filter(|(q, served)| {
                    !index
                        .knn(q, K)
                        .is_ok_and(|local| same_answer(&local, served))
                })
                .count();
            if differing > 0 {
                gate.push(format!(
                    "{differing} served answers differ from in-process knn"
                ));
                failed += differing as u64;
            }
            pass
        }
        Front::Ingest { engine, server } => {
            let p = layers::prepare(engine, &sys.corpus.pool, &delete_order, &mut probe_tracer);
            attempted += (PREPARE_INSERTS + PREPARE_DELETES) as u64;
            failed += p.failed;
            if engine.ingest_stats().merges != 0 {
                gate.push("a merge ran before the count phase".to_string());
            }
            prepared = Some(p);
            let pin = engine.pin();
            let mut client = layers::connect(server.local_addr());
            layers::counted_pass(pin.index.as_ref(), &queries, |_, q| client.knn(q, K).ok())
        }
        Front::Filtered {
            index,
            store,
            sketches,
        } => {
            // Fault every page in first: the planner feeds on pool misses,
            // and a cold pool would have it learn from the first queries a
            // threshold the warm window never sees.
            layers::knn_pass(index.as_dyn(), &queries);
            let (pass, layer) = layers::filtered_pass(index.as_dyn(), store, sketches, &queries);
            let ctx = FilteredCtx {
                index: index.as_dyn(),
                store,
                sketches,
                planner: &planner,
                predicates: &predicates,
            };
            // Every strategy must give the planner's answer; a quarter of
            // the queries, all three predicates, keeps the check under a
            // second.
            let disagreeing = (0..queries.len())
                .step_by(4)
                .filter(|&i| !ctx.strategies_agree(i, &queries[i], &pass.answers[i]))
                .count();
            if disagreeing > 0 {
                gate.push(format!(
                    "{disagreeing} filtered answers differ between strategies"
                ));
                failed += disagreeing as u64;
            }
            own_filtered = Some(layer);
            pass
        }
        Front::Stopped => unreachable!("set_up never returns a stopped system"),
    };
    failed += pass.failed;
    let counts = Counts::of(&pass);
    let expected = &pass.answers;

    // ---- ground truth: the benchmark's own cost, outside setup_s ----
    let truth: Vec<Vec<usize>> = match (kind, &prepared) {
        (Kind::Filtered, _) => {
            let views = data::views_column(n);
            let rows: Vec<(u64, &[f64])> = base
                .iter_rows()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .collect();
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let cut = data::VIEWS_RANGE / 100 * i64::from(layers::SELECTIVITIES[i % 3]);
                    data::exact_ids_among(&rows, q, |id| views[id as usize] < cut)
                })
                .collect()
        }
        (Kind::Ingest, Some(p)) => {
            // Over the rows that survive the prepared state.
            let gone: HashSet<u64> = p.acked.deletes.iter().copied().collect();
            let rows: Vec<(u64, &[f64])> = base
                .iter_rows()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .filter(|(id, _)| !gone.contains(id))
                .chain(
                    p.acked
                        .inserts
                        .iter()
                        .map(|&(id, row)| (id, sys.corpus.pool.row(row))),
                )
                .collect();
            queries
                .iter()
                .map(|q| data::exact_ids_among(&rows, q, |_| true))
                .collect()
        }
        _ => data::exact_ids(base, &queries),
    };
    let precision = layers::mean_precision(&truth, expected);

    // ---- in-process knn on the workload's own index, for the shares ----
    let layer_reads = opts.trace.then(|| {
        sys.with_index(|index| {
            (
                layers::knn_us(index, &queries),
                layers::batch_speedup_t2(index, &queries),
            )
        })
    });
    let own_serve = opts.trace.then(|| match &sys.front {
        Front::Served { index, server } => Some(layers::serve_layer(
            server,
            index.as_ref(),
            &queries,
            Some(expected),
            opts.phase_s,
        )),
        Front::Ingest { engine, server } => {
            let index = engine.pin().index;
            Some(layers::serve_layer(
                server,
                index.as_ref(),
                &queries,
                None,
                opts.phase_s,
            ))
        }
        _ => None,
    });

    // ---- the window ----
    // The ground truth is done with them; the window adds its own.
    let mut acked = prepared.as_mut().map(|p| std::mem::take(&mut p.acked));
    let counters_before = match &sys.front {
        Front::Served { server, .. } | Front::Ingest { server, .. } => Some(server.stats()),
        _ => None,
    };
    // `ingest_mixed` folds its prepared state with one explicit flush:
    // the window then starts from an empty delta whatever the seed, and
    // `bytes_per_row` is taken here, on a state that is the same in every
    // run (the window leaves behind as many rows as the host let it
    // insert).
    let mut bytes_per_row = snapshot_bytes / n as f64;
    let mut explicit_merge_s = 0.0;
    let merges_before = match &sys.front {
        Front::Ingest { engine, .. } => {
            let t = Instant::now();
            if engine.flush().is_err() {
                gate.push("the explicit flush failed".to_string());
            }
            explicit_merge_s = t.elapsed().as_secs_f64();
            engine.quiesce();
            bytes_per_row =
                layers::disk_bytes(&sys.snapshot) as f64 / engine.pin().index.len() as f64;
            engine.ingest_stats().merges
        }
        _ => 0,
    };
    let mut mixed_ops = (0u64, 0u64);
    let mut windows = match &sys.front {
        Front::Direct(built) => {
            let mut d = [DirectKnn {
                index: built.as_dyn(),
                queries: &queries,
                order: &order,
                expected,
            }];
            run_windows(&mut d, opts, 0, epoch)
        }
        Front::Served { server, .. } => {
            // Each connection asks its own half of the queries.
            let half = order.len() / 2;
            let mut d: Vec<ServedKnn> = (0..2)
                .map(|c| ServedKnn {
                    client: layers::connect(server.local_addr()),
                    queries: &queries,
                    order: &order[c * half..(c + 1) * half],
                    expected: Some(expected),
                })
                .collect();
            run_windows(&mut d, opts, 0, epoch)
        }
        Front::Ingest { server, .. } => {
            let after_prepare = &delete_order[PREPARE_DELETES..];
            let half = order.len() / 2;
            let mut d: Vec<IngestMixed> = (0..2)
                .map(|c| IngestMixed {
                    client: layers::connect(server.local_addr()),
                    queries: &queries,
                    order: &order[c * half..(c + 1) * half],
                    pool: &sys.corpus.pool,
                    next_row: PREPARE_INSERTS + c,
                    deletes: after_prepare
                        [c * after_prepare.len() / 2..(c + 1) * after_prepare.len() / 2]
                        .iter(),
                    acked: Acked::default(),
                    deleted: HashSet::new(),
                    knn_seen: 0,
                })
                .collect();
            let w = run_windows(&mut d, opts, 0, epoch);
            let all = acked.as_mut().expect("the ingest workload prepared");
            for driver in d {
                mixed_ops.0 += driver.acked.inserts.len() as u64;
                mixed_ops.1 += driver.knn_seen as u64;
                all.inserts.extend(driver.acked.inserts);
                all.deletes.extend(driver.acked.deletes);
            }
            w
        }
        Front::Filtered {
            index,
            store,
            sketches,
        } => {
            let mut d = [FilteredKnn {
                ctx: FilteredCtx {
                    index: index.as_dyn(),
                    store,
                    sketches,
                    planner: &planner,
                    predicates: &predicates,
                },
                queries: &queries,
                order: &order,
                expected,
            }];
            run_windows(&mut d, opts, 0, epoch)
        }
        Front::Stopped => unreachable!("set_up never returns a stopped system"),
    };
    attempted += windows.attempted();
    failed += windows.failed();

    // ---- after the window: what the served layers did, then the gate ----
    let window_serve = match (&sys.front, &counters_before) {
        (Front::Served { server, .. } | Front::Ingest { server, .. }, Some(before)) => {
            Some(layers::coalesce_between(before, &server.stats()))
        }
        _ => None,
    };
    let mut extras = Vec::new();
    let mut own_persist = None;
    if let (Front::Ingest { engine, .. }, Some(acked), Some(p)) = (&sys.front, &acked, &prepared) {
        engine.quiesce();
        let merges = engine.ingest_stats().merges - merges_before;
        let window_s: f64 = windows.lengths().iter().sum();
        if merges < opts.min_merges {
            gate.push(format!("only {merges} merges finished in the window"));
        }
        let merges_total = engine.ingest_stats().merges + 1;
        let snapshot = sys.snapshot.clone();
        sys.stop();
        let replay = layers::replay(&snapshot, &sys.corpus.pool, acked);
        let live = n as u64 + acked.inserts.len() as u64 - acked.deletes.len() as u64;
        if replay.lost > 0 || replay.live_rows != live {
            gate.push(format!(
                "after reopening: {} acked operations lost, {} rows stored, {live} expected",
                replay.lost, replay.live_rows
            ));
            failed += replay.lost.max(1);
        }
        let (insert_us, insert_p50_ms) = layers::insert_latency(&p.insert_ns);
        extras.push(("merges_in_window", Value::Number(merges as f64)));
        extras.push(("inserts_acked", Value::Number(acked.inserts.len() as f64)));
        extras.push(("deletes_acked", Value::Number(acked.deletes.len() as f64)));
        own_persist = Some(PersistLayer {
            insert_us,
            insert_p50_ms,
            insert_qps: mixed_ops.0 as f64 / window_s,
            read_qps: mixed_ops.1 as f64 / window_s,
            merges: merges as f64,
            merge_s: explicit_merge_s,
            // Every merge rewrites the whole snapshot; the fold that ends
            // the replay check is one more.
            write_amp: merges_total as f64 * replay.disk_bytes as f64
                / layers::user_bytes(acked.inserts.len(), dim),
            acked_rows_lost: replay.lost as f64,
        });
    }

    let trace_overhead_pct = windows.trace_overhead_pct();
    if let Some(t) = &windows.traced {
        extras.push(("spans", span_summary(&t.trace)));
    }
    // All three are `Some` in a traced run and `None` otherwise.
    let layer = probes.zip(layer_reads).zip(own_serve).map(
        |(((probes, filtered, serve, persist), (knn_us, batch_speedup_t2)), own_serve)| {
            let mut serve = serve
                .or(own_serve)
                .expect("one of the two serve layers ran");
            failed += serve.failed;
            if let (Some((coalesce, overloaded)), Some(t)) = (window_serve, &windows.traced) {
                // A served workload reports what its own window saw.
                serve.mean_coalesce = coalesce;
                serve.overloaded = overloaded;
                serve.lat_p99_ms = percentile(&t.latencies_ns, 0.99).0 / 1e6;
            }
            let persist = persist
                .or(own_persist)
                .expect("one of the two persist layers ran");
            per_layer(LayerInputs {
                stages: sys.stages,
                stage_total_s: sys.stages.total_s,
                model: &sys.model,
                snapshot_bytes,
                probes,
                counts: &counts,
                knn_us,
                batch_speedup_t2,
                filtered: filtered.or(own_filtered).expect("a filtered pass ran"),
                serve,
                persist,
                trace_overhead_pct,
                timing: Timing::of(&windows.plain),
            })
        },
    );
    log.absorb(probe_tracer);
    Body {
        attempted,
        failed,
        gate,
        counts,
        precision,
        bytes_per_row,
        layer,
        log: merge_logs(log, &mut windows),
        extras,
        windows,
    }
}

/// The probe spans and the traced window's spans on one list.
fn merge_logs(mut log: TraceLog, windows: &mut Windows) -> TraceLog {
    if let Some(t) = &mut windows.traced {
        log.append(std::mem::take(&mut t.trace));
    }
    log
}

// ---- fit_build -------------------------------------------------------------------------

fn run_fit_build(opts: &Opts) -> Result<Report, String> {
    let half = opts.setups / 2 * setup::FIT_SETUPS_FACTOR;
    let (setups, body) = setup::around_window(
        half,
        half,
        |_| {
            let input = setup::set_up_fit();
            let t = input.stages.total_s;
            (input, t)
        },
        |input| fit_build_body(opts, input),
    );
    finish(opts, setups, body, 1)
}

fn fit_build_body(opts: &Opts, input: setup::FitInput) -> Body {
    let epoch = Instant::now();
    let dir = setup::WorkDir::new(&opts.root, "fit-build");
    let data = &input.data;
    let queries = data::queries(data);
    let mut gate = Vec::new();
    let mut driver = [FitBuild {
        data,
        path: dir.path().join("d2.mmdr"),
        last: None,
        stages: Vec::new(),
    }];
    // One untimed operation: the first fit pays for page faults and
    // allocator growth that no later one does.
    let warm = driver[0].run_op(0, &mut Tracer::off());
    driver[0].stages.clear();
    let mut windows = run_windows(&mut driver, opts, opts.min_fit_ops, epoch);
    let [driver] = driver;
    let mut attempted = 1 + windows.attempted();
    let mut failed = u64::from(!warm.ok) + windows.failed();

    let (model, built) = driver.last.expect("the last operation saved an index");
    let pass = layers::knn_pass(built.as_dyn(), &queries);
    attempted += queries.len() as u64;
    failed += pass.failed;
    let counts = Counts::of(&pass);
    let precision = layers::mean_precision(&data::exact_ids(data, &queries), &pass.answers);
    let reopened = open_resident(&driver.path).expect("the saved snapshot opens");
    let differing = queries
        .iter()
        .zip(&pass.answers)
        .filter(|(q, a)| {
            !reopened
                .index
                .as_dyn()
                .knn(q, K)
                .is_ok_and(|r| same_answer(&r, a))
        })
        .count();
    if differing > 0 {
        gate.push(format!(
            "{differing} answers of the saved snapshot differ from the built index"
        ));
        failed += differing as u64;
    }
    let snapshot_bytes = file_len(&driver.path);

    let column =
        |f: fn(&(f64, f64, f64)) -> f64| median(&driver.stages.iter().map(f).collect::<Vec<_>>());
    let stages = Stages {
        generate_s: input.stages.generate_s,
        fit_s: column(|s| s.0),
        build_s: column(|s| s.1),
        save_s: column(|s| s.2),
        ..Stages::default()
    };
    let mut extras = Vec::new();
    let trace_overhead_pct = windows.trace_overhead_pct();
    if let Some(t) = &windows.traced {
        extras.push(("spans", span_summary(&t.trace)));
    }
    let mut probe_tracer = Tracer::new(opts.trace, epoch);
    let layer = opts.trace.then(|| {
        let (probes, resident) = static_probes(
            &driver.path,
            data,
            model.clusters.len(),
            &queries,
            &opts.root,
        );
        let store = setup::views_store(data.rows());
        let sketches = setup::sketches_for(&store, &model);
        let filtered = layers::filtered_pass(resident.as_dyn(), &store, &sketches, &queries).1;
        // D2 has no held-out rows; its own first rows, re-inserted under
        // new ids, exercise the same write path.
        let persist = layers::persist_probe(
            &opts.root,
            &driver.path,
            data,
            &data::delete_order(data.rows(), opts.seed, PREPARE_DELETES),
            &queries,
            &mut probe_tracer,
        );
        per_layer(LayerInputs {
            stages,
            stage_total_s: stages.fit_s + stages.build_s + stages.save_s,
            model: &model,
            snapshot_bytes,
            probes,
            counts: &counts,
            knn_us: layers::knn_us(built.as_dyn(), &queries),
            batch_speedup_t2: layers::batch_speedup_t2(built.as_dyn(), &queries),
            filtered,
            serve: layers::serve_probe(&driver.path, &queries, opts.phase_s),
            persist,
            trace_overhead_pct,
            timing: Timing::of(&windows.plain),
        })
    });
    let mut log = TraceLog::default();
    log.absorb(probe_tracer);
    Body {
        attempted,
        failed,
        gate,
        counts,
        precision,
        bytes_per_row: snapshot_bytes / data.rows() as f64,
        layer,
        log: merge_logs(log, &mut windows),
        extras,
        windows,
    }
}
