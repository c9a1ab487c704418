//! The repo's benchmark: one named workload per process.
//!
//! ```text
//! mmdr-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reruns the workload with spans on and reports the per-layer metrics.
//! README.md explains what each number means.

mod data;
mod host;
mod layers;
mod setup;
mod spec;
mod trace;
mod window;
mod workloads;

use mmdr_json::Value;
use std::path::{Path, PathBuf};
use workloads::{Opts, Report};

/// Scratch space, inside the checkout and ignored by git; each process
/// works in a directory of its own and removes it on the way out.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    opts: Opts,
    out: Option<PathBuf>,
}

fn parse_args(default_seconds: u64) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = default_seconds as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is one of {:?}", spec::WORKLOADS))?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload is one of {:?}", spec::WORKLOADS));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let root = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
    Ok(Args {
        opts: Opts {
            workload,
            seed,
            // A smoke run checks names and plumbing, not speed.
            seconds: if smoke { 1.0 } else { seconds },
            trace,
            setups: if smoke || trace { 2 } else { 8 },
            phase_s: if smoke { 0.3 } else { 1.0 },
            // A traced run has two windows.
            min_fit_ops: match (smoke, trace) {
                (true, _) => 1,
                (false, true) => 3,
                (false, false) => 6,
            },
            min_merges: if smoke { 0 } else { 4 },
            root,
        },
        out,
    })
}

fn result_line(report: &Report) -> Value {
    Value::object(vec![
        (
            "correct",
            Value::Bool(report.gate.is_empty() && report.failed == 0),
        ),
        ("attempted", Value::Number(report.attempted as f64)),
        ("failed", Value::Number(report.failed as f64)),
        (
            "metrics",
            Value::Object(
                report
                    .metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let entry = Value::object(vec![
                            ("value", Value::Number(value)),
                            ("unit", Value::String(unit.to_string())),
                        ]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn trace_json(report: &Report) -> Value {
    let log = report.trace.as_ref().expect("a traced run keeps its spans");
    let spans = log
        .spans
        .iter()
        .map(|s| {
            Value::Array(vec![
                Value::String(s.name.to_string()),
                Value::Number(s.start_ns as f64),
                Value::Number(s.end_ns as f64),
                if s.parent == trace::NO_SPAN {
                    Value::Null
                } else {
                    Value::Number(f64::from(s.parent))
                },
                Value::Number(s.op_id as f64),
            ])
        })
        .collect();
    Value::object(vec![
        (
            "columns",
            Value::Array(
                ["name", "start_ns", "end_ns", "parent", "op_id"]
                    .iter()
                    .map(|c| Value::String((*c).to_string()))
                    .collect(),
            ),
        ),
        ("dropped", Value::Number(log.dropped as f64)),
        ("spans", Value::Array(spans)),
    ])
}

fn main() {
    let run_seconds = spec::check_contract().unwrap_or_else(|e| fail(&e));
    let Args { opts, out } = parse_args(run_seconds).unwrap_or_else(|e| fail(&e));
    std::fs::create_dir_all(&opts.root)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.root.display())));
    let report = workloads::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.root);
    let report = report.unwrap_or_else(|e| fail(&e));

    let stamp = host::stamp(&opts.workload, opts.seed, &report.windows_s, report.threads);
    let threads_gt_cores = report.threads > host::nproc();
    for &(name, value, unit) in &report.metrics {
        // With more busy threads than cores the 2-client / 1-client ratio
        // measures the scheduler as much as the server.
        let note = if name == "serve.scaling_c2" && threads_gt_cores {
            "  (a ratio, not a scaling claim: threads > cores)"
        } else {
            ""
        };
        println!("metric {name} {value} {unit}{note}");
    }
    for (name, value) in &report.extras {
        println!("extra {name} {}", value.to_json());
    }
    for reason in &report.gate {
        println!("gate {reason}");
    }
    println!("host {}", stamp.to_json());

    let line = result_line(&report);
    if report.trace.is_some() {
        let path = Path::new(WORK_ROOT).join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        let doc = Value::object(vec![
            ("host", stamp.clone()),
            ("result", line.clone()),
            ("trace", trace_json(&report)),
        ]);
        std::fs::write(&path, doc.to_json())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        println!("spans {}", path.display());
    }
    if let Some(path) = out {
        let doc = Value::object(vec![
            ("host", stamp),
            (
                "extras",
                Value::Object(
                    report
                        .extras
                        .iter()
                        .map(|(n, v)| (n.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "gate",
                Value::Array(
                    report
                        .gate
                        .iter()
                        .map(|g| Value::String(g.clone()))
                        .collect(),
                ),
            ),
            ("result", line.clone()),
        ]);
        std::fs::write(&path, doc.to_json())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    }
    println!("{}", line.to_json());
}

fn fail(message: &str) -> ! {
    eprintln!("mmdr-benchmark: {message}");
    std::process::exit(2);
}
