//! What the numbers were measured on, and the two process-wide readings
//! (`cpu_ms_per_op`, `peak_rss_mb`) the kernel keeps for us.

use mmdr_json::Value;
use std::process::Command;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU nanoseconds of the whole process, exited threads
/// included (merge threads come and go inside a window). `/proc/self/stat`
/// has the same number in 10 ms ticks, too coarse for a 0.4 s round.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // 64-bit Linux C library expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `VmHWM`: the largest resident set the process has had, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp every output carries. `threads` is how many threads the
/// workload keeps busy (clients, workers, merge); when it exceeds the
/// cores, ratios between client counts are not scaling claims.
pub fn stamp(workload: &str, seed: u64, windows_s: &[f64], threads: usize) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Value::object(vec![
        ("workload", Value::String(workload.to_string())),
        ("seed", Value::Number(seed as f64)),
        (
            "window_s",
            Value::Array(windows_s.iter().map(|&w| Value::Number(w)).collect()),
        ),
        ("nproc", Value::Number(nproc() as f64)),
        ("threads", Value::Number(threads as f64)),
        ("threads_gt_cores", Value::Bool(threads > nproc())),
        // A driver's checkout is not a git repository: "unknown" there.
        (
            "commit",
            Value::String(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::String(first_line("rustc", &["-V"]))),
        ("kernel", Value::String(kernel)),
    ])
}
