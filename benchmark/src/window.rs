//! The measured window: closed-loop clients, one thread each, that issue
//! their next operation when the previous answer has arrived and been
//! checked. Callers of a KNN index are application threads waiting for
//! the answer, so there is no open-loop schedule to fall behind.
//!
//! The readings are the plain ones: completed operations over wall time,
//! percentiles over every timed operation, process CPU over completed
//! operations. A merge, an fsync or a stalled reader is in all of them.

use crate::host;
use crate::trace::{TraceLog, Tracer};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one operation did.
pub struct Outcome {
    /// The system answered and the answer passed the workload's check.
    pub ok: bool,
    /// Time the caller waited for the system, without the check.
    pub latency_ns: u64,
    /// Whether the latency belongs in `lat_*` (`ingest_mixed` reports the
    /// `knn` operations only).
    pub timed: bool,
}

/// One closed-loop client.
pub trait Driver: Send {
    fn run_op(&mut self, op: u64, tracer: &mut Tracer) -> Outcome;
}

pub struct WindowResult {
    /// From the common start to the last client's last answer.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every successful timed operation, ascending.
    pub latencies_ns: Vec<u64>,
    /// User + system CPU of the whole process over the window: clients,
    /// workers and merge threads.
    pub cpu_s: f64,
    pub trace: TraceLog,
}

impl WindowResult {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Completed operations, all clients and all kinds, per second.
    pub fn qps(&self) -> f64 {
        self.completed() as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.completed().max(1) as f64
    }
}

struct ClientResult {
    done: Instant,
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    tracer: Tracer,
}

fn client_loop<D: Driver>(
    driver: &mut D,
    length: Duration,
    min_ops: u64,
    mut tracer: Tracer,
    barrier: &Barrier,
) -> ClientResult {
    let mut latencies_ns = Vec::with_capacity(1 << 16);
    let (mut attempted, mut failed) = (0u64, 0u64);
    barrier.wait();
    let start = Instant::now();
    while start.elapsed() < length || attempted < min_ops {
        let out = driver.run_op(attempted, &mut tracer);
        attempted += 1;
        if !out.ok {
            failed += 1;
        } else if out.timed {
            latencies_ns.push(out.latency_ns);
        }
    }
    ClientResult {
        done: Instant::now(),
        attempted,
        failed,
        latencies_ns,
        tracer,
    }
}

/// Runs every driver on its own thread for `seconds`; an operation in
/// flight at the deadline finishes and counts. `min_ops` keeps a window
/// of long operations (`fit_build`) from ending with too few of them.
pub fn run<D: Driver>(
    drivers: &mut [D],
    seconds: f64,
    min_ops: u64,
    traced: bool,
    epoch: Instant,
) -> WindowResult {
    let barrier = Barrier::new(drivers.len() + 1);
    let length = Duration::from_secs_f64(seconds);
    let (start, cpu_before, clients) = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|driver| {
                let barrier = &barrier;
                s.spawn(move || {
                    let tracer = Tracer::new(traced, epoch);
                    client_loop(driver, length, min_ops, tracer, barrier)
                })
            })
            .collect();
        barrier.wait();
        let (start, cpu_before) = (Instant::now(), host::cpu_ns());
        let clients: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (start, cpu_before, clients)
    });
    let mut result = WindowResult {
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        latencies_ns: Vec::new(),
        cpu_s: (host::cpu_ns() - cpu_before) as f64 / 1e9,
        trace: TraceLog::default(),
    };
    for c in clients {
        result.wall_s = result.wall_s.max((c.done - start).as_secs_f64());
        result.attempted += c.attempted;
        result.failed += c.failed;
        result.latencies_ns.extend(c.latencies_ns);
        result.trace.absorb(c.tracer);
    }
    result.latencies_ns.sort_unstable();
    result
}

/// Nearest-rank percentile of an ascending list, and how many samples lie
/// beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (f64::NAN, 0);
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Bit-for-bit equality of two answers.
pub fn same_answer(a: &[(f64, u64)], b: &[(f64, u64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1 == y.1)
}

/// An answer of a changing index cannot be compared with a stored one;
/// it must still be `k` finite distances in ascending order.
pub fn well_formed(hits: &[(f64, u64)], k: usize) -> bool {
    hits.len() == k
        && hits.iter().all(|h| h.0.is_finite())
        && hits.windows(2).all(|w| w[0].0 <= w[1].0)
}
