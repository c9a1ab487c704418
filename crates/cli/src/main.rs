//! `mmdr` — command-line interface to the MMDR pipeline.
//!
//! ```text
//! mmdr generate    --out data.json --n 5000 --dim 32 --clusters 5 [--histogram]
//! mmdr reduce      --data data.json --out model.mmdr [--method mmdr|ldr|gdr] [--dim D] [--threads N]
//! mmdr info        (--model model.mmdr | --index-file index.mmdr)
//! mmdr build-index --data data.json --model model.mmdr --out index.mmdr [--backend B]
//! mmdr query       --index-file index.mmdr (--row 17,42 --data data.json | --point "0.1,0.2,…") [--k 10]
//! mmdr serve       --index-file index.mmdr --port 7070 [--workers W]
//! mmdr remote-query --addr host:port --point "0.1,0.2,…" [--k 10]
//! ```
//!
//! Datasets are JSON files (`DatasetFile`), so they can be scripted,
//! inspected and diffed. A fitted model and a built index both persist in
//! the checksummed snapshot container (`mmdr-persist`): `reduce` writes a
//! model file, a MODEL section alone; `build-index` reads the model of a
//! model file or a snapshot and writes a snapshot, and `query --index-file`
//! reopens that without rebuilding — with answers bit-identical to a fresh
//! build.

mod attrs_file;
mod dataset;

use dataset::DatasetFile;
use mmdr_core::{Gdr, Ldr, LdrParams, Mmdr, MmdrParams, ParConfig};
use mmdr_datagen::{generate_correlated, generate_histograms, CorrelatedConfig, HistogramConfig};
use mmdr_idistance::Backend;
use mmdr_index::{LiveIndex as _, Query, Target, VectorIndex};
use mmdr_persist::SnapshotLive;
use std::collections::HashMap;
use std::process::ExitCode;

/// `println!` that exits quietly when stdout closes (`mmdr … | head`),
/// instead of panicking on the broken pipe.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "convert" => cmd_convert(rest),
        "reduce" => cmd_reduce(rest),
        "info" => cmd_info(rest),
        "build-index" => cmd_build_index(rest),
        "query" => cmd_query(rest),
        "serve" => cmd_serve(rest),
        "ingest" => cmd_ingest(rest),
        "remote-query" => cmd_remote_query(rest),
        "remote-insert" => cmd_remote_insert(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "mmdr — MMDR dimensionality reduction + extended iDistance indexing

USAGE:
  mmdr generate --out FILE [--n N] [--dim D] [--clusters K] [--ratio R] [--seed S] [--histogram true] [--attrs-out FILE]
  mmdr convert  (--csv FILE --out FILE | --data FILE --out-csv FILE)
  mmdr reduce   --data FILE --out FILE [--method mmdr|ldr|gdr] [--dim D] [--clusters K] [--beta B] [--seed S] [--threads N]
  mmdr info     (--model FILE | --index-file FILE)
  mmdr build-index --data FILE --model FILE --out FILE [--backend seqscan|idistance|gldr] [--buffer-pages N] [--attrs FILE]
  mmdr query    --index-file FILE (--row I[,J,…] --data FILE | --point \"x,y,…\") [--k K] [--radius R] [--filter \"EXPR\"] [--threads N] [--pool-pages N] [--readahead N] [--hex true]
  mmdr serve    --index-file FILE [--wal true] [--merge-threshold N] [--host H] [--port P] [--workers W] [--io-timeout-ms MS] [--pool-pages N] [--readahead N]
  mmdr ingest   --index-file FILE (--data FILE | --point \"x,y,…\") [--delete I[,J,…]] [--flush true] [--refit true] [--merge-threshold N] [--pool-pages N]
  mmdr remote-query --addr HOST:PORT (--row I[,J,…] --data FILE | --point \"x,y,…\") [--k K] [--radius R] [--filter \"EXPR\"] [--hex true]
  mmdr remote-query --addr HOST:PORT --op ping|stats|shutdown
  mmdr remote-insert --addr HOST:PORT (--data FILE | --point \"x,y,…\") [--delete I[,J,…]] [--flush true]

Results are independent of --threads: clustering, PCA and batch queries use
fixed-size work chunks merged in a fixed order, so any thread count produces
bit-identical output. Every --backend answers with the same
reduced-representation distances; they differ only in I/O and CPU cost.

reduce writes the fitted model as a model file: the checksummed snapshot
container with the model alone. build-index reads the model of a model
file or of a snapshot, and saves a checksummed binary snapshot of a built
index; query --index-file reopens it without rebuilding and returns
bit-identical answers to a fresh build. The reopen is out-of-core: pages
are demand-read (and checksummed) from the snapshot file as queries touch
them, so open time and resident memory stay ~constant in dataset size.
--pool-pages caps each buffer pool's frame count (the working set) and
--readahead sets the sequential prefetch window in pages (0 disables);
neither changes answers, only physical I/O.

serve exposes a snapshot over TCP (mmdr-serve wire protocol): a fixed
worker pool answers KNN/range/batch queries with typed OVERLOADED
rejections under load, and SIGINT/SIGTERM (or a remote-query --op
shutdown) drains in-flight requests before exiting. remote-query answers
are bit-identical to local query answers against the same snapshot —
--hex prints raw distance bit patterns to make that checkable with diff.
--io-timeout-ms bounds per-connection socket reads and writes.

serve --wal opens the snapshot writable: INSERT/DELETE/FLUSH opcodes are
accepted, every write is WAL-logged (fsync'd) before it is acknowledged,
and a background merge folds the delta into a fresh snapshot — swapping
the serving epoch atomically — once delta pressure crosses
--merge-threshold (0 = merge only on FLUSH). ingest applies writes to a
snapshot locally through the same engine; remote-insert sends them to a
running serve --wal over the wire. A merged index answers bit-identically
to one built from scratch over the surviving rows.

Merges keep the fitted model's subspaces; ingest --refit true re-runs
MMDR over the surviving rows, bumps the model epoch, and swaps
the freshly loaded index in without blocking readers. Answers stay exact
throughout because queries always refine in whatever model is serving.
Stats lines (local and remote) report the model epoch and re-fit count.

Attribute payloads and filtered search: generate --attrs-out writes a
deterministic per-row attribute file (header `name:type` with types
i64|f64|tag, one CSV row per vector, empty cell = NULL), and build-index
--attrs embeds it into snapshots as a checksummed ATTRS section. query
--filter / remote-query --filter then answer filtered KNN and range
queries: a filter is `column op value` terms (ops = != < <= > >=; tags
take only = and !=; NULL fails every term) joined by AND. A cost-based
planner picks, per query, between post-filtering a widened unfiltered
search, pushing the row bitmap into the index traversal (with
sketch-based cluster skipping), and pre-filter ranking when few rows
match — the choice never changes answers, which stay bit-identical to
a sequential scan of matching rows, serially, threaded, and over the
wire. Planner decisions show in query output and STATS.

serve --wal keeps one log file beside the snapshot; every merge and re-fit
rewrites it down to the operations the new snapshot does not hold yet.";

/// Parses `--flag value` pairs into a map, rejecting unknown flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        if !allowed.contains(&name) {
            return Err(format!(
                "unknown flag --{name} (allowed: {})",
                allowed.join(", ")
            ));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("--{name} is required"))
}

/// Parses an optional boolean flag (`--name true`), defaulting to false.
fn get_bool(flags: &HashMap<String, String>, name: &str) -> Result<bool, String> {
    match flags.get(name).map(String::as_str) {
        None => Ok(false),
        Some("true" | "1" | "yes") => Ok(true),
        Some("false" | "0" | "no") => Ok(false),
        Some(other) => Err(format!("--{name}: expected true/false, got `{other}`")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "out",
            "n",
            "dim",
            "clusters",
            "ratio",
            "seed",
            "histogram",
            "s-dim",
            "attrs-out",
        ],
    )?;
    let out = require(&flags, "out")?;
    let n = get_parse(&flags, "n", 5_000usize)?;
    let seed = get_parse(&flags, "seed", 0u64)?;
    let histogram = get_bool(&flags, "histogram")?;
    let data = if histogram {
        generate_histograms(&HistogramConfig {
            n,
            seed,
            ..Default::default()
        })
        .ok_or("invalid histogram configuration")?
    } else {
        let dim = get_parse(&flags, "dim", 32usize)?;
        let clusters = get_parse(&flags, "clusters", 5usize)?;
        let ratio = get_parse(&flags, "ratio", 30.0f64)?;
        let s_dim = get_parse(&flags, "s-dim", 6usize)?;
        if dim == 0 {
            return Err("--dim must be at least 1".into());
        }
        if clusters == 0 {
            return Err("--clusters must be at least 1".into());
        }
        if n < clusters {
            return Err(format!(
                "--n {n} is fewer than --clusters {clusters}: every cluster needs a point"
            ));
        }
        generate_correlated(&CorrelatedConfig::paper_style(
            n, dim, clusters, s_dim, ratio, seed,
        ))
        .data
    };
    DatasetFile::save(out, &data)?;
    outln!(
        "wrote {} points × {} dims to {out}",
        data.rows(),
        data.cols()
    );
    if let Some(attrs_out) = flags.get("attrs-out") {
        attrs_file::write_synthetic_attrs(attrs_out, data.rows(), seed)?;
        outln!(
            "wrote {} attribute rows (label:tag, score:f64, views:i64) to {attrs_out}",
            data.rows()
        );
    }
    Ok(())
}

/// Converts between CSV and the JSON dataset format.
fn cmd_convert(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["csv", "out", "data", "out-csv"])?;
    match (flags.get("csv"), flags.get("data")) {
        (Some(csv), None) => {
            let out = require(&flags, "out")?;
            let text = std::fs::read_to_string(csv).map_err(|e| format!("{csv}: {e}"))?;
            let m = DatasetFile::parse_csv(&text)?;
            DatasetFile::save(out, &m)?;
            outln!("wrote {} points × {} dims to {out}", m.rows(), m.cols());
            Ok(())
        }
        (None, Some(data)) => {
            let out = require(&flags, "out-csv")?;
            let m = DatasetFile::load(data)?;
            std::fs::write(out, DatasetFile::to_csv(&m)).map_err(|e| format!("{out}: {e}"))?;
            outln!("wrote {} points × {} dims to {out}", m.rows(), m.cols());
            Ok(())
        }
        _ => Err("convert needs either --csv FILE --out FILE or --data FILE --out-csv FILE".into()),
    }
}

fn cmd_reduce(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "data", "out", "method", "dim", "clusters", "beta", "seed", "threads",
        ],
    )?;
    let data = DatasetFile::load(require(&flags, "data")?)?;
    let out = require(&flags, "out")?;
    let method = flags.get("method").map(String::as_str).unwrap_or("mmdr");
    let fixed_dim: Option<usize> = match flags.get("dim") {
        Some(v) => Some(v.parse().map_err(|_| "--dim: not a number")?),
        None => None,
    };
    let clusters = get_parse(&flags, "clusters", 10usize)?;
    let beta = get_parse(&flags, "beta", 0.1f64)?;
    let seed = get_parse(&flags, "seed", 0u64)?;
    let par = ParConfig::threads(get_parse(&flags, "threads", 1usize)?);

    let start = std::time::Instant::now();
    let model = match method {
        "mmdr" => Mmdr::new(MmdrParams {
            max_ec: clusters,
            fixed_dim,
            beta,
            seed,
            par,
            ..Default::default()
        })
        .fit(&data)
        .map_err(|e| e.to_string())?,
        "ldr" => Ldr::new(LdrParams {
            k: clusters,
            fixed_dim,
            recon_threshold: beta,
            seed,
            par,
            ..Default::default()
        })
        .fit(&data)
        .map_err(|e| e.to_string())?,
        "gdr" => Gdr::new(fixed_dim.unwrap_or(20))
            .fit(&data)
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown method `{other}` (mmdr|ldr|gdr)")),
    };
    mmdr_persist::save_model(out, &model).map_err(|e| e.to_string())?;
    outln!(
        "{method}: {} clusters, {:.1}% outliers, mean retained dim {:.1} (of {}), {:.2}s → {out}",
        model.clusters.len(),
        100.0 * model.outlier_fraction(),
        model.mean_retained_dim(),
        model.dim,
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model", "index-file"])?;
    if let Some(path) = flags.get("index-file") {
        if flags.contains_key("model") {
            return Err("--index-file and --model cannot be combined".into());
        }
        return info_snapshot(path);
    }
    let model = mmdr_persist::open_model(require(&flags, "model")?).map_err(|e| e.to_string())?;
    outln!(
        "model: {} points × {} dims → {} clusters + {} outliers ({:.1}%)",
        model.num_points,
        model.dim,
        model.clusters.len(),
        model.outliers.len(),
        100.0 * model.outlier_fraction()
    );
    outln!(
        "mean retained dimensionality: {:.2}",
        model.mean_retained_dim()
    );
    for (i, c) in model.clusters.iter().enumerate() {
        outln!(
            "  cluster {i:>3}: {:>7} points  d_r={:>3}  MPE={:.4}  radii[{:.3}, {:.3}]  e={:.1}",
            c.len(),
            c.reduced_dim(),
            c.mpe,
            c.nearest_radius,
            c.radius_retained,
            c.ellipticity
        );
    }
    Ok(())
}

/// A snapshot's bytes by section, and a row's share of each: the header
/// (superblock and section table), then the sections in file order. The
/// open that counts the rows reads no page image.
fn info_snapshot(path: &str) -> Result<(), String> {
    use mmdr_persist::format::{section_label, SUPERBLOCK_LEN};
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (sb, sections) =
        mmdr_persist::read_head(&file, path.as_ref()).map_err(|e| e.to_string())?;
    let opened = mmdr_persist::open(path).map_err(|e| e.to_string())?;
    let rows = opened.index.as_dyn().len();
    outln!("snapshot: {} B, {rows} rows", sb.file_len);
    let header = (SUPERBLOCK_LEN + sb.table_len()) as u64;
    let sections = sections.iter().map(|s| (section_label(s.id), s.len));
    for (name, bytes) in [("header".into(), header)].into_iter().chain(sections) {
        outln!(
            "  {name:<8} {bytes:>12} B  {:>12.5} B a row",
            bytes as f64 / rows as f64
        );
    }
    Ok(())
}

/// `--pool-pages N`: the frame count of every restored buffer pool (the
/// out-of-core working set), wherever a snapshot is opened.
fn pool_pages(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    let Some(v) = flags.get("pool-pages") else {
        return Ok(None);
    };
    match v.parse() {
        Ok(0) => Err("--pool-pages must be at least 1".into()),
        Ok(pages) => Ok(Some(pages)),
        Err(_) => Err(format!("--pool-pages: cannot parse `{v}`")),
    }
}

/// Snapshot-open knobs shared by `query --index-file` and `serve`:
/// `--pool-pages` and `--readahead`, the sequential prefetch window.
/// Answers are bit-identical at any setting.
fn open_options(flags: &HashMap<String, String>) -> Result<mmdr_persist::OpenOptions, String> {
    let mut opts = mmdr_persist::OpenOptions {
        pool_pages: pool_pages(flags)?,
        ..Default::default()
    };
    opts.readahead = get_parse(flags, "readahead", opts.readahead)?;
    Ok(opts)
}

/// The flags `serve` hands to `serve_until_signal`.
const SERVER_FLAGS: [&str; 4] = ["host", "port", "workers", "io-timeout-ms"];

/// The server settings `--workers` and `--io-timeout-ms` ask for, checked
/// before `serve` opens or binds anything. `--io-timeout-ms` sets both
/// socket deadlines (read and write): one knob, because a stalled peer is
/// a stalled peer in either direction.
fn server_config(flags: &HashMap<String, String>) -> Result<mmdr_serve::ServerConfig, String> {
    let mut config = mmdr_serve::ServerConfig::default();
    config.workers = get_parse(flags, "workers", config.workers)?;
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if let Some(v) = flags.get("io-timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--io-timeout-ms: cannot parse `{v}`"))?;
        if ms == 0 {
            return Err("--io-timeout-ms must be at least 1".into());
        }
        config.read_timeout = std::time::Duration::from_millis(ms);
        config.write_timeout = std::time::Duration::from_millis(ms);
    }
    Ok(config)
}

/// Serves `live` on `--host`/`--port` under `config` until a signal or a
/// remote `SHUTDOWN` arrives, then drains and prints the traffic summary.
fn serve_until_signal(
    live: std::sync::Arc<dyn mmdr_index::LiveIndex>,
    flags: &HashMap<String, String>,
    config: mmdr_serve::ServerConfig,
) -> Result<(), String> {
    let host = flags.get("host").map(String::as_str).unwrap_or("127.0.0.1");
    let port = get_parse(flags, "port", 0u16)?;
    let workers = config.workers;
    let handle =
        mmdr_serve::Server::start(live, (host, port), config).map_err(|e| e.to_string())?;
    // stdout is line-buffered: scripts (tools/verify.sh) read this line to
    // learn the ephemeral port.
    outln!(
        "listening on {} with {} workers",
        handle.local_addr(),
        workers
    );
    let signal = mmdr_serve::shutdown_flag_on_signals();
    while !signal.load(std::sync::atomic::Ordering::SeqCst) && !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let c = handle.shutdown();
    outln!(
        "shutdown: {} connections, {} requests ({} knn, {} range, {} batch, \
         {} insert, {} delete), {} coalesced into {} batches (max {}), \
         {} overloaded, {} protocol errors",
        c.connections,
        c.requests,
        c.knn_requests,
        c.range_requests,
        c.batch_requests,
        c.insert_requests,
        c.delete_requests,
        c.coalesced_queries,
        c.coalesced_batches,
        c.max_coalesce,
        c.overloaded,
        c.protocol_errors
    );
    Ok(())
}

fn cmd_build_index(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["data", "model", "out", "backend", "buffer-pages", "attrs"],
    )?;
    let data = DatasetFile::load(require(&flags, "data")?)?;
    let model = mmdr_persist::open_model(require(&flags, "model")?).map_err(|e| e.to_string())?;
    let out = require(&flags, "out")?;
    let attrs = match flags.get("attrs") {
        Some(path) => Some(attrs_file::load_attrs(path, data.rows())?),
        None => None,
    };
    let backend: Backend = match flags.get("backend") {
        Some(s) => s.parse()?,
        None => Backend::IDistance,
    };
    let buffer_pages = get_parse(&flags, "buffer-pages", 256usize)?;
    let start = std::time::Instant::now();
    let index = mmdr_persist::build_index(backend, &data, &model, buffer_pages)
        .map_err(|e| e.to_string())?;
    let build_secs = start.elapsed().as_secs_f64();
    mmdr_persist::save_with_attrs(out, &index, &model, 0, attrs.as_ref())
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    outln!(
        "built {} over {} points in {build_secs:.2}s; snapshot {bytes} bytes{} → {out}",
        backend.name(),
        index.as_dyn().len(),
        if attrs.is_some() {
            " (with attribute payloads)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Resolves `--row`/`--point` flags into concrete query vectors.
/// `--row` accepts a comma-separated list; multiple rows form a batch.
fn parse_queries(
    flags: &HashMap<String, String>,
    data: Option<&mmdr_linalg::Matrix>,
) -> Result<Vec<Vec<f64>>, String> {
    if let Some(rows) = flags.get("row") {
        let data = data.ok_or("--row needs --data to resolve row indexes")?;
        rows.split(',')
            .map(|s| {
                let idx: usize = s.trim().parse().map_err(|_| "--row: not a number")?;
                if idx >= data.rows() {
                    return Err(format!(
                        "--row {idx} out of range (dataset has {})",
                        data.rows()
                    ));
                }
                Ok(data.row(idx).to_vec())
            })
            .collect()
    } else if let Some(point) = flags.get("point") {
        let q = point
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad coordinate `{s}`"))
            })
            .collect::<Result<Vec<f64>, _>>()?;
        if q.is_empty() {
            return Err("--point: no coordinates given".into());
        }
        Ok(vec![q])
    } else {
        Err("either --row or --point is required".into())
    }
}

/// `--k K` (default 10) or `--radius R`, parsed once for the local and
/// remote query paths alike.
fn parse_target(flags: &HashMap<String, String>, queries: usize) -> Result<Target, String> {
    let Some(radius) = flags.get("radius") else {
        return Ok(Target::Knn(get_parse(flags, "k", 10usize)?));
    };
    if queries != 1 {
        return Err("--radius works with a single query".into());
    }
    let radius: f64 = radius.parse().map_err(|_| "--radius: not a number")?;
    if radius.is_nan() || radius < 0.0 {
        return Err(format!("--radius must be non-negative, got {radius}"));
    }
    Ok(Target::Range(radius))
}

/// Prints one answer block per query. With `hex`, distances print as raw
/// IEEE-754 bit patterns — `query --hex` and `remote-query --hex` output
/// can be diffed to check bit-exact parity, which `.6` decimals would mask.
fn print_answers(answers: &[Vec<(f64, u64)>], target: Target, hex: bool) {
    for (qi, hits) in answers.iter().enumerate() {
        let shown = match target {
            Target::Knn(k) if answers.len() > 1 => {
                outln!("query {qi}: {k}-NN:");
                hits.len()
            }
            Target::Knn(k) => {
                outln!("{k}-NN:");
                hits.len()
            }
            Target::Range(radius) => {
                outln!("{} points within radius {radius}:", hits.len());
                hits.len().min(50)
            }
        };
        for (dist, id) in &hits[..shown] {
            if hex {
                outln!("  #{id:<8} dist {:016x}", dist.to_bits());
            } else {
                outln!("  #{id:<8} dist {dist:.6}");
            }
        }
        if hits.len() > shown {
            outln!("  … and {} more", hits.len() - shown);
        }
    }
}

/// Pre-flight checks shared by the local and remote query paths: every
/// misuse is a typed single-line error, never a panic downstream.
fn validate_query_shape(
    queries: &[Vec<f64>],
    index_dim: usize,
    index_len: usize,
    k: usize,
) -> Result<(), String> {
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    if k > index_len {
        return Err(format!(
            "--k {k} exceeds the index size ({index_len} points)"
        ));
    }
    for (qi, q) in queries.iter().enumerate() {
        if q.len() != index_dim {
            return Err(format!(
                "query {qi} has {} coordinates but the index expects {index_dim}",
                q.len()
            ));
        }
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    let flags = parse_flags(
        args,
        &[
            "data",
            "row",
            "point",
            "k",
            "radius",
            "filter",
            "threads",
            "index-file",
            "pool-pages",
            "readahead",
            "hex",
        ],
    )?;
    let hex = get_bool(&flags, "hex")?;
    let index_file = require(&flags, "index-file")?;
    // The dataset is only needed to resolve --row queries.
    let data = match flags.get("data") {
        Some(path) => Some(DatasetFile::load(path)?),
        None => None,
    };
    let queries = parse_queries(&flags, data.as_ref())?;
    let par = ParConfig::threads(get_parse(&flags, "threads", 1usize)?);
    let target = parse_target(&flags, queries.len())?;

    // Reopen the snapshot demand-paged: no rebuild, answers bit-identical
    // to one at any --pool-pages setting. `live` is the filtered door: the
    // snapshot's index together with its ATTRS payload, behind the same
    // predicate → planner → execution pipeline the servers run.
    let opened =
        mmdr_persist::open_with(index_file, &open_options(&flags)?).map_err(|e| e.to_string())?;
    let index: Arc<dyn VectorIndex> = Arc::from(opened.index.into_boxed());
    let live = match flags.get("filter") {
        Some(filter) => {
            let live = SnapshotLive::new(Arc::clone(&index), &opened.model, opened.attrs)
                .map_err(|e| e.to_string())?;
            Some((live, filter))
        }
        None => None,
    };
    let before = index.query_stats(); // count query work only, not construction I/O
    let pools_before = index.pool_stats();
    let k = match target {
        Target::Knn(k) => k,
        Target::Range(_) => 1,
    };
    validate_query_shape(&queries, index.dim(), index.len(), k)?;
    let answers = match &live {
        Some((live, filter)) => queries
            .iter()
            .map(|q| live.filtered(q, target, filter))
            .collect(),
        None => mmdr_index::batch_queries(&queries, &par, |q, scratch| {
            index.search(&Query::new(q, target), scratch)
        }),
    }
    .map_err(|e| e.to_string())?;
    print_answers(&answers, target, hex);
    let stats = index.query_stats().since(&before);
    // iDistance's two pools are its tree's and its heap's.
    let split = match (index.name(), &index.pool_stats()[..], &pools_before[..]) {
        ("idistance", [tree, heap], [tree_before, heap_before]) => format!(
            "{} tree + {} heap, ",
            tree.since(tree_before).pages_touched(),
            heap.since(heap_before).pages_touched()
        ),
        _ => String::new(),
    };
    outln!(
        "[{}] {} dist computations, {} candidates refined, {} page accesses ({split}{} reads)",
        index.name(),
        stats.dist_computations,
        stats.candidates_refined,
        stats.pages_touched,
        stats.page_reads
    );
    if stats.physical_reads > 0 || stats.read_errors > 0 {
        outln!(
            "[out-of-core] {} physical reads, {} readahead hits, {} read errors",
            stats.physical_reads,
            stats.readahead_hits,
            stats.read_errors
        );
    }
    if let Some((live, _)) = &live {
        let [post_filter, pushdown, prefilter_rank] = live.planner_counts();
        outln!("[planner] {post_filter} post-filter, {pushdown} pushdown, {prefilter_rank} prefilter-rank");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let own = [
        "index-file",
        "pool-pages",
        "readahead",
        "wal",
        "merge-threshold",
    ];
    let flags = parse_flags(args, &[&own[..], &SERVER_FLAGS].concat())?;
    let config = server_config(&flags)?;
    let index_file = require(&flags, "index-file")?;
    let wal = get_bool(&flags, "wal")?;
    let live: std::sync::Arc<dyn mmdr_index::LiveIndex> = if wal {
        if flags.contains_key("readahead") {
            return Err("--readahead applies to read-only serving; drop it with --wal".into());
        }
        let engine = open_engine(&flags, index_file)?;
        let pin = engine.pin();
        outln!(
            "serving {} ({} points × {} dims) from {index_file} [writable, WAL at {}]",
            pin.index.name(),
            pin.index.len(),
            pin.index.dim(),
            mmdr_persist::wal_path(std::path::Path::new(index_file)).display()
        );
        std::sync::Arc::new(engine)
    } else {
        let opened = mmdr_persist::open_with(index_file, &open_options(&flags)?)
            .map_err(|e| e.to_string())?;
        let index: std::sync::Arc<dyn mmdr_index::VectorIndex> =
            std::sync::Arc::from(opened.index.into_boxed());
        outln!(
            "serving {} ({} points × {} dims) from {index_file}{}",
            index.name(),
            index.len(),
            index.dim(),
            if opened.attrs.is_some() {
                " [attribute filters on]"
            } else {
                ""
            }
        );
        // SnapshotLive keeps the read-only contract of ReadOnlyLive but
        // answers --filter queries when the snapshot carries ATTRS.
        let live = mmdr_persist::SnapshotLive::new(
            std::sync::Arc::clone(&index),
            &opened.model,
            opened.attrs,
        )
        .map_err(|e| e.to_string())?;
        std::sync::Arc::new(live)
    };
    serve_until_signal(std::sync::Arc::clone(&live), &flags, config)?;
    if wal {
        print_ingest_stats(&live.ingest_stats());
    }
    Ok(())
}

/// Opens a snapshot writable: the ingest engine replays its WAL and wires
/// up the background merge. Shared by `serve --wal` and `ingest`.
fn open_engine(
    flags: &HashMap<String, String>,
    index_file: &str,
) -> Result<mmdr_persist::IngestEngine, String> {
    let opts = mmdr_persist::IngestOptions {
        pool_pages: pool_pages(flags)?,
        merge_threshold: get_parse(
            flags,
            "merge-threshold",
            mmdr_persist::DEFAULT_MERGE_THRESHOLD,
        )?,
    };
    mmdr_persist::IngestEngine::open(index_file, opts).map_err(|e| e.to_string())
}

/// The operator-facing merge-pressure line, identical for local engines
/// and remote STATS answers.
fn print_ingest_stats(s: &mmdr_index::IngestStats) {
    outln!(
        "ingest: epoch {}, {} delta rows, {} tombstones, {} WAL bytes, {} merges, next id {}, \
         model epoch {}, {} re-fits",
        s.epoch,
        s.delta_rows,
        s.tombstones,
        s.wal_bytes,
        s.merges,
        s.next_id,
        s.model_epoch,
        s.refits
    );
}

/// The flags `ingest` and `remote-insert` share: what to write.
const WRITE_FLAGS: [&str; 4] = ["data", "point", "delete", "flush"];

/// Parses a write command's flags — its `own` and [`WRITE_FLAGS`] — and
/// refuses a command line that writes nothing before anything is opened.
fn parse_write_flags(args: &[String], own: &[&str]) -> Result<HashMap<String, String>, String> {
    let flags = parse_flags(args, &[own, &WRITE_FLAGS].concat())?;
    if !WRITE_FLAGS.iter().any(|f| flags.contains_key(*f)) {
        return Err("nothing to do: give --data, --point, --delete or --flush".into());
    }
    Ok(flags)
}

/// The writes `ingest` and `remote-insert` have in common, through
/// whichever `insert` / `delete` / `flush` the caller drives — a local
/// engine's or a connection's: insert every row of --data or the one
/// --point, tombstone the --delete ids, then optionally --flush.
fn apply_writes(
    flags: &HashMap<String, String>,
    mut insert: impl FnMut(&[f64]) -> Result<u64, String>,
    mut delete: impl FnMut(u64) -> Result<bool, String>,
    flush: impl FnOnce() -> Result<u64, String>,
) -> Result<(), String> {
    let rows: Vec<Vec<f64>> = match (flags.get("data"), flags.get("point")) {
        (Some(path), None) => {
            let m = DatasetFile::load(path)?;
            (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
        }
        (None, Some(_)) => parse_queries(flags, None)?,
        (Some(_), Some(_)) => return Err("give either --data or --point, not both".into()),
        (None, None) => Vec::new(),
    };
    let mut first_id = None;
    for row in &rows {
        first_id.get_or_insert(insert(row)?);
    }
    let mut deleted = 0usize;
    for s in flags.get("delete").iter().flat_map(|ids| ids.split(',')) {
        let id: u64 = s
            .trim()
            .parse()
            .map_err(|_| format!("--delete: bad id `{s}`"))?;
        deleted += usize::from(delete(id)?);
    }
    match first_id {
        Some(first) => outln!(
            "inserted {} rows (ids {first}..{}), deleted {deleted}",
            rows.len(),
            first + rows.len() as u64 - 1
        ),
        None => outln!("inserted 0 rows, deleted {deleted}"),
    }
    if get_bool(flags, "flush")? {
        outln!("flushed: serving epoch is now {}", flush()?);
    }
    Ok(())
}

/// Local writes against a snapshot (see [`apply_writes`]). Without --flush
/// the WAL holds the writes until the next merge — a reopen (ingest, serve
/// --wal, or the engine's replay) restores them.
fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let own = ["index-file", "refit", "merge-threshold", "pool-pages"];
    let flags = parse_write_flags(args, &own)?;
    let index_file = require(&flags, "index-file")?;
    let engine = open_engine(&flags, index_file)?;
    apply_writes(
        &flags,
        |row| engine.insert(row).map_err(|e| e.to_string()),
        |id| engine.delete(id).map_err(|e| e.to_string()),
        || engine.flush().map_err(|e| e.to_string()),
    )?;
    if get_bool(&flags, "refit")? {
        let model_epoch = engine.refit().map_err(|e| e.to_string())?;
        outln!("re-fit: model epoch is now {model_epoch}");
    }
    engine.quiesce(); // let a pressure-triggered merge finish before exit
    print_ingest_stats(&engine.ingest_stats());
    Ok(())
}

/// Remote writes: the same insert/delete/flush verbs as `ingest`, sent to
/// a running `serve --wal` over the wire. Each insert is acknowledged only
/// after the server's WAL fsync.
fn cmd_remote_insert(args: &[String]) -> Result<(), String> {
    let flags = parse_write_flags(args, &["addr"])?;
    let addr = require(&flags, "addr")?;
    // One connection behind all three verbs.
    let client =
        std::cell::RefCell::new(mmdr_serve::Client::connect(addr).map_err(|e| e.to_string())?);
    apply_writes(
        &flags,
        |row| client.borrow_mut().insert(row).map_err(|e| e.to_string()),
        |id| client.borrow_mut().delete(id).map_err(|e| e.to_string()),
        || client.borrow_mut().flush().map_err(|e| e.to_string()),
    )
}

fn cmd_remote_query(args: &[String]) -> Result<(), String> {
    use mmdr_serve::Client;
    let flags = parse_flags(
        args,
        &[
            "addr", "op", "data", "row", "point", "k", "radius", "filter", "hex",
        ],
    )?;
    let addr = require(&flags, "addr")?;
    let hex = get_bool(&flags, "hex")?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match flags.get("op").map(String::as_str) {
        Some("ping") => {
            let rtt = client.ping().map_err(|e| e.to_string())?;
            outln!("pong in {:.3} ms", rtt.as_secs_f64() * 1e3);
            return Ok(());
        }
        Some("stats") => {
            let s = client.stats().map_err(|e| e.to_string())?;
            outln!("[{}] {} points × {} dims", s.backend, s.len, s.dim);
            outln!(
                "query cost: {} dist computations, {} candidates refined, {} page accesses ({} reads)",
                s.query.dist_computations,
                s.query.candidates_refined,
                s.query.pages_touched,
                s.query.page_reads
            );
            outln!(
                "planner: {} post-filter, {} pushdown, {} prefilter-rank",
                s.query.planner_post_filter,
                s.query.planner_pushdown,
                s.query.planner_prefilter_rank
            );
            if s.query.physical_reads > 0 || s.query.read_errors > 0 {
                outln!(
                    "[out-of-core] {} physical reads, {} readahead hits, {} read errors",
                    s.query.physical_reads,
                    s.query.readahead_hits,
                    s.query.read_errors
                );
            }
            for (pi, pool) in s.pools.iter().enumerate() {
                let (h, m, e) = pool.per_shard.iter().fold((0u64, 0u64, 0u64), |acc, sh| {
                    (acc.0 + sh.hits, acc.1 + sh.misses, acc.2 + sh.evictions)
                });
                outln!(
                    "pool {pi}: {} shards, {h} hits, {m} misses, {e} evictions",
                    pool.per_shard.len()
                );
            }
            let c = &s.server;
            outln!(
                "server: {} connections, {} requests ({} knn, {} range, {} batch, \
                 {} insert, {} delete), {} coalesced into {} batches (max {}), \
                 {} overloaded, {} protocol errors, {} queued",
                c.connections,
                c.requests,
                c.knn_requests,
                c.range_requests,
                c.batch_requests,
                c.insert_requests,
                c.delete_requests,
                c.coalesced_queries,
                c.coalesced_batches,
                c.max_coalesce,
                c.overloaded,
                c.protocol_errors,
                c.queue_len
            );
            print_ingest_stats(&s.ingest);
            return Ok(());
        }
        Some("shutdown") => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            outln!("shutdown acknowledged; server is draining");
            return Ok(());
        }
        Some("search") | None => {}
        Some(other) => return Err(format!("unknown --op `{other}` (ping|stats|shutdown)")),
    }
    let data = match flags.get("data") {
        Some(path) => Some(DatasetFile::load(path)?),
        None => None,
    };
    let queries = parse_queries(&flags, data.as_ref())?;
    let filter = flags.get("filter").map(String::as_str);
    let target = parse_target(&flags, queries.len())?;
    // Answer blocks print identically to `query`, so parity is a diff.
    let answers = match (target, &queries[..]) {
        (Target::Knn(0), _) => return Err("--k must be at least 1".into()),
        (_, [q]) => client.search(q, target, filter).map(|hits| vec![hits]),
        (Target::Knn(k), _) if filter.is_none() => client.batch_knn(&queries, k),
        _ => return Err("--filter sends one query at a time; give a single --row/--point".into()),
    }
    .map_err(|e| e.to_string())?;
    print_answers(&answers, target, hex);
    Ok(())
}
