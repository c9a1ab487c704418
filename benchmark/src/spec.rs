//! The names and units this program emits, and the check that they are
//! the ones `BENCHMARK.json` declares.
//!
//! The tables are the single place a metric is named; `Metrics::finish`
//! refuses a run that sets a name twice or leaves one out, so the output
//! cannot drift from them.

use mmdr_json::Value;

pub const WORKLOADS: [&str; 6] = [
    "knn_resident",
    "knn_paged",
    "serve_knn",
    "ingest_mixed",
    "filtered_knn",
    "fit_build",
];

/// Printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("page_fetches_per_op", "count"),
    ("dists_per_op", "count"),
    ("precision_at_k", "ratio"),
    ("bytes_per_row", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Printed by every `--trace 1` run. The prefix is the crate the number
/// belongs to.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("linalg.dist_ns", "ns"),
    ("linalg.dist_share_est", "ratio"),
    ("pca.project_ns", "ns"),
    ("pca.project_share_est", "ratio"),
    ("cluster.ekmeans_s", "s"),
    ("core.fit_s", "s"),
    ("core.fit_share", "ratio"),
    ("core.clusters", "count"),
    ("core.outliers", "count"),
    ("core.mean_reduced_dim", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.evictions_per_op", "count"),
    ("storage.physical_reads_per_op", "count"),
    ("storage.readahead_hits_per_op", "count"),
    ("storage.page_hit_ns", "ns"),
    ("storage.page_miss_ns", "ns"),
    ("storage.fetch_share_est", "ratio"),
    ("storage.miss_share_est", "ratio"),
    ("storage.distinct_pages_per_op", "count"),
    ("btree.seek_ns", "ns"),
    ("btree.cursor_next_ns", "ns"),
    ("btree.fetches_per_entry", "count"),
    ("btree.height", "count"),
    ("btree.pages", "count"),
    ("idistance.knn_us", "us"),
    ("idistance.candidates_per_op", "count"),
    ("idistance.rows_examined_per_result", "count"),
    ("idistance.build_s", "s"),
    ("idistance.unattributed_share_est", "ratio"),
    ("index.batch_speedup_t2", "ratio"),
    ("query.compile_us", "us"),
    ("query.plan_us", "us"),
    ("query.pushdown_frac", "ratio"),
    ("query.postfilter_frac", "ratio"),
    ("query.prefilter_frac", "ratio"),
    ("query.page_fetches_per_op.sel1", "count"),
    ("query.page_fetches_per_op.sel10", "count"),
    ("query.page_fetches_per_op.sel60", "count"),
    ("query.lat_p50_ms.sel1", "ms"),
    ("query.lat_p50_ms.sel10", "ms"),
    ("query.lat_p50_ms.sel60", "ms"),
    ("persist.save_s", "s"),
    ("persist.open_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("persist.wal_append_us", "us"),
    ("persist.insert_us", "us"),
    ("persist.insert_p50_ms", "ms"),
    ("persist.wal_bytes_per_insert", "B"),
    ("persist.insert_qps", "ops/s"),
    ("persist.read_qps", "ops/s"),
    ("persist.merges", "count"),
    ("persist.merge_s", "s"),
    ("persist.write_amp", "ratio"),
    ("persist.acked_rows_lost", "count"),
    ("serve.encode_ns", "ns"),
    ("serve.decode_ns", "ns"),
    ("serve.ping_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.qps_c1", "ops/s"),
    ("serve.scaling_c2", "ratio"),
    ("serve.mean_coalesce", "count"),
    ("serve.overloaded", "count"),
    ("serve.lat_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    // Not a crate: the untraced window as its caller sees it. The issue's
    // four end-to-end timing metrics, demoted because identical runs on
    // this host differ by more than any bound they could be given
    // (README, "Bounds").
    ("demoted.qps", "ops/s"),
    ("demoted.lat_p50_ms", "ms"),
    ("demoted.lat_p90_ms", "ms"),
    ("demoted.cpu_ms_per_op", "ms"),
];

/// Values collected during a run, keyed by the names above.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The values in table order, each with its unit. Fails when a name of
    /// the table is missing, set twice, not finite, or not in the table.
    pub fn finish(
        self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        for (name, _) in &self.0 {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the declared table"));
            }
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == name);
                match (hits.next(), hits.next()) {
                    (Some(&(_, v)), None) if v.is_finite() => Ok((name, v, unit)),
                    (Some(&(_, v)), None) => Err(format!("metric {name} is not finite: {v}")),
                    (None, _) => Err(format!("metric {name} was never set")),
                    (Some(_), Some(_)) => Err(format!("metric {name} was set twice")),
                }
            })
            .collect()
    }
}

fn declared(doc: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a `{key}` entry lacks name or unit")),
            }
        })
        .collect()
}

fn same(what: &str, ours: &[(&str, &str)], theirs: &[(String, String)]) -> Result<(), String> {
    for (n, u) in ours {
        match theirs.iter().filter(|(tn, _)| tn == n).count() {
            1 => {}
            c => return Err(format!("{what} {n}: declared {c} times in BENCHMARK.json")),
        }
        if !theirs.iter().any(|(tn, tu)| tn == n && tu == u) {
            return Err(format!("{what} {n}: unit differs from BENCHMARK.json"));
        }
    }
    if let Some((n, _)) = theirs
        .iter()
        .find(|(tn, _)| !ours.iter().any(|(n, _)| n == tn))
    {
        return Err(format!("{what} {n}: declared but never emitted"));
    }
    Ok(())
}

/// Compares the tables above with `BENCHMARK.json` in the working
/// directory, both ways, and returns the declared `run_seconds`.
pub fn check_contract() -> Result<u64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = mmdr_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    same("end_to_end", &END_TO_END, &declared(&doc, "end_to_end")?)?;
    same("per_layer", &PER_LAYER, &declared(&doc, "per_layer")?)?;
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `workloads` list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if names != WORKLOADS {
        return Err(format!("workloads differ from BENCHMARK.json: {names:?}"));
    }
    doc.get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or_else(|| "BENCHMARK.json has no `run_seconds`".to_string())
}
