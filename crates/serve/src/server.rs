//! The server core: accept loop → bounded queue → worker pool.
//!
//! # Threading model
//!
//! - One **accept thread** owns the (non-blocking) listener, spawns a
//!   reader thread per connection, and reaps finished ones.
//! - One **reader thread per connection** decodes frames. Cheap ops
//!   (`Ping`, `Stats`, `Shutdown`) are answered inline; query ops become
//!   jobs on the bounded queue — or typed `OVERLOADED` rejections when the
//!   queue or the connection's in-flight budget is full.
//! - A fixed pool of **worker threads** pops jobs, coalesces compatible
//!   queued singleton KNNs into one `batch_knn` call, and writes each
//!   response to its connection under that connection's write lock.
//!
//! # Determinism
//!
//! Coalescing routes through [`VectorIndex::batch_knn`], whose contract
//! (enforced by the conformance suite) is that every row equals the serial
//! `knn` answer bit for bit — so whether a request is answered alone or
//! folded into a batch of 32 changes latency, never bytes. The
//! `serve_parity` gate re-checks this over the wire.
//!
//! # Shutdown ordering
//!
//! `trigger_shutdown` flips the shutdown flag, then closes the queue.
//! From that point: the accept thread stops accepting and joins readers;
//! readers stop at their next tick (≤ 50 ms) — requests already *queued*
//! stay queued, requests arriving after the flag get a typed "shutting
//! down" error; workers drain the queue to empty, writing every response,
//! then exit. `ServerHandle::join` observes that order, so by the time it
//! returns every accepted request has been answered and flushed.

use crate::queue::{JobQueue, PushError};
use crate::stats::ServerStats;
use crate::wire::{
    self, opcode, RemoteStats, Request, Response, ServerCounters, WireError, MAX_FRAME,
};
use mmdr_index::{LiveIndex, ReadOnlyLive, Target, VectorIndex};
use mmdr_linalg::ParConfig;
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Socket read granularity: how often an idle reader re-checks the
/// shutdown flag. Also bounds how stale a shutdown can look to a reader.
const TICK: Duration = Duration::from_millis(50);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Server tuning knobs. `Default` is sized for a small host; the CLI maps
/// `serve` flags onto these fields one-to-one.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded queue capacity — the admission-control depth. A full queue
    /// rejects with `OVERLOADED` instead of queueing unbounded latency.
    pub queue_depth: usize,
    /// Max singleton KNNs folded into one `batch_knn` call (1 disables
    /// coalescing).
    pub coalesce: usize,
    /// Per-connection in-flight request cap; beyond it the connection gets
    /// `OVERLOADED` without touching the shared queue.
    pub max_inflight: usize,
    /// Connection idle/read deadline: an idle connection is dropped after
    /// this long, and a frame must arrive in full within it.
    pub read_timeout: Duration,
    /// Socket write deadline; a client that stops reading is disconnected
    /// rather than blocking a worker forever.
    pub write_timeout: Duration,
    /// Threads used *inside* one coalesced/batch `batch_knn` call. Workers
    /// are the primary parallelism, so 1 is the right default; raising it
    /// never changes answers (the batch executor's contract).
    pub batch_threads: usize,
    /// Start with the worker pool paused (tests use this to assemble a
    /// deterministic backlog, then [`ServerHandle::resume`]).
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
            queue_depth: 1024,
            coalesce: 32,
            max_inflight: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            batch_threads: 1,
            start_paused: false,
        }
    }
}

/// A queued op (the cheap ops never reach the queue). Writes ride the
/// same queue as queries: admission control covers them, and a burst of
/// inserts cannot starve reads any harder than a burst of queries could.
enum JobOp {
    Knn {
        query: Vec<f64>,
        k: usize,
    },
    Range {
        query: Vec<f64>,
        radius: f64,
    },
    Batch {
        queries: Vec<Vec<f64>>,
        k: usize,
    },
    Filtered {
        query: Vec<f64>,
        target: Target,
        filter: String,
    },
    Insert {
        vector: Vec<f64>,
    },
    Delete {
        id: u64,
    },
    Flush,
}

impl JobOp {
    fn opcode(&self) -> u8 {
        match self {
            JobOp::Knn { .. } => opcode::KNN,
            JobOp::Range { .. } => opcode::RANGE,
            JobOp::Batch { .. } => opcode::BATCH_KNN,
            JobOp::Filtered { target, .. } => match target {
                Target::Knn(_) => opcode::FILTERED_KNN,
                Target::Range(_) => opcode::FILTERED_RANGE,
            },
            JobOp::Insert { .. } => opcode::INSERT,
            JobOp::Delete { .. } => opcode::DELETE,
            JobOp::Flush => opcode::FLUSH,
        }
    }
}

struct Job {
    request_id: u64,
    conn: Arc<Conn>,
    op: JobOp,
}

/// The write half of one client connection, shared between its reader
/// thread and every worker holding one of its jobs.
struct Conn {
    writer: Mutex<TcpStream>,
    inflight: AtomicUsize,
    dead: AtomicBool,
}

impl Conn {
    /// Writes one response frame under the connection's write lock. A
    /// failed or timed-out write marks the connection dead; later sends
    /// become no-ops instead of errors cascading through workers.
    fn send_response(&self, request_id: u64, op: u8, resp: &Response) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let payload = wire::encode_response(request_id, op, resp);
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        if wire::write_frame(&mut *w, &payload).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

struct Shared {
    index: Arc<dyn LiveIndex>,
    queue: JobQueue<Job>,
    stats: ServerStats,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
        }
    }
}

/// The entry point: [`Server::start`] binds, spawns the thread structure
/// and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Serves a static snapshot: queries work as always, writes answer
    /// with a typed "read-only" error. The common case for benchmarks and
    /// parity gates that never ingest.
    pub fn start_static(
        index: Arc<dyn VectorIndex>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::start(Arc::new(ReadOnlyLive::new(index)), addr, config)
    }

    /// Binds `addr` (port 0 picks an ephemeral port — read it back from
    /// [`ServerHandle::local_addr`]) and starts serving `index`. Each
    /// query pins the serving epoch once; inserts, deletes and flushes go
    /// through the engine's write path.
    pub fn start(
        index: Arc<dyn LiveIndex>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let queue = JobQueue::new(config.queue_depth, config.start_paused);
        let shared = Arc::new(Shared {
            index,
            queue,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mmdr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("mmdr-serve-accept".into())
                .spawn(move || accept_loop(&s, &listener))?
        };
        Ok(ServerHandle {
            local,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// A running server. Dropping the handle triggers shutdown and joins every
/// thread, so a test or CLI scope cannot leak a listener.
pub struct ServerHandle {
    local: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Snapshot of the server's traffic counters.
    pub fn stats(&self) -> ServerCounters {
        self.shared.stats.snapshot(self.shared.queue.len())
    }

    /// Unpauses a server started with
    /// [`start_paused`](ServerConfig::start_paused).
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Asks the server to shut down without waiting for it (a remote
    /// `Shutdown` op does the same). Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether shutdown has been triggered (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Triggers shutdown, waits for the drain to finish (every accepted
    /// request answered, all threads joined), and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServerCounters {
        self.shared.trigger_shutdown();
        self.join_threads();
        self.stats()
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_threads();
    }
}

// ---- accept + reader threads ----------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let s = Arc::clone(shared);
                if let Ok(h) = thread::Builder::new()
                    .name("mmdr-serve-conn".into())
                    .spawn(move || conn_loop(&s, stream))
                {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            // Transient accept errors (EMFILE, ECONNABORTED): back off.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
        let mut live = Vec::with_capacity(conns.len());
        for h in conns.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        conns = live;
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Outcome of one exact-length socket read under the tick regime.
enum ReadFull {
    Filled,
    /// Zero bytes arrived within one tick (only reported at a frame
    /// boundary, where waiting is idle time, not a stuck frame).
    Idle,
    Eof,
    /// The peer went silent mid-read for longer than the deadline.
    TimedOut,
    Failed,
}

/// Reads exactly `buf.len()` bytes from a socket whose read timeout is
/// [`TICK`]. `allow_idle` is true at frame boundaries: a tick with no bytes
/// yields `Idle` so the caller can check shutdown/idle budgets; mid-frame,
/// ticks accumulate toward `deadline` instead.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Duration,
    shutdown: &AtomicBool,
    allow_idle: bool,
) -> ReadFull {
    let mut filled = 0;
    let start = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadFull::Eof,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if filled == 0 && allow_idle {
                    return ReadFull::Idle;
                }
                if shutdown.load(Ordering::Relaxed) || start.elapsed() >= deadline {
                    return ReadFull::TimedOut;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadFull::Failed,
        }
    }
    ReadFull::Filled
}

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    shared.stats.record_connection();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        inflight: AtomicUsize::new(0),
        dead: AtomicBool::new(false),
    });
    let mut reader = stream;
    let mut idle = Duration::ZERO;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        let mut len_buf = [0u8; 4];
        match read_full(
            &mut reader,
            &mut len_buf,
            shared.config.read_timeout,
            &shared.shutdown,
            true,
        ) {
            ReadFull::Idle => {
                idle += TICK;
                if idle >= shared.config.read_timeout {
                    break; // idle connection reclaimed
                }
                continue;
            }
            ReadFull::Eof | ReadFull::TimedOut | ReadFull::Failed => break,
            ReadFull::Filled => idle = Duration::ZERO,
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME {
            // The length prefix itself is hostile; the stream cannot be
            // re-synchronized. Typed error, then close.
            shared.stats.record_protocol_error();
            conn.send_response(
                0,
                0,
                &Response::Error(WireError::Oversized(len).to_string()),
            );
            break;
        }
        let mut payload = vec![0u8; len as usize];
        if !matches!(
            read_full(
                &mut reader,
                &mut payload,
                shared.config.read_timeout,
                &shared.shutdown,
                false,
            ),
            ReadFull::Filled
        ) {
            break;
        }
        if !handle_frame(shared, &conn, &payload) {
            break;
        }
    }
    // The reader half drops here; workers still holding jobs for this
    // connection keep the write half alive through the `Conn` Arc.
}

/// Processes one decoded frame. Returns `false` when the connection must
/// close (protocol desync).
fn handle_frame(shared: &Arc<Shared>, conn: &Arc<Conn>, payload: &[u8]) -> bool {
    let (id, req) = match wire::decode_request(payload) {
        Ok(ok) => ok,
        Err((maybe_id, err)) => {
            // Malformed frame: answer with a typed error, then close — the
            // framing may be out of sync, and guessing costs correctness.
            shared.stats.record_protocol_error();
            conn.send_response(
                maybe_id.unwrap_or(0),
                0,
                &Response::Error(format!("bad request: {err}")),
            );
            return false;
        }
    };
    shared.stats.record_request();
    match req {
        Request::Ping => {
            conn.send_response(id, opcode::PING, &Response::Pong);
            true
        }
        Request::Stats => {
            let stats = build_stats(shared);
            conn.send_response(id, opcode::STATS, &Response::Stats(Box::new(stats)));
            true
        }
        Request::Shutdown => {
            conn.send_response(id, opcode::SHUTDOWN, &Response::ShutdownStarted);
            shared.trigger_shutdown();
            true
        }
        Request::Knn { query, k } => {
            shared.stats.record_knn();
            enqueue(
                shared,
                conn,
                id,
                JobOp::Knn {
                    query,
                    k: k as usize,
                },
            )
        }
        Request::Range { query, radius } => {
            shared.stats.record_range();
            enqueue(shared, conn, id, JobOp::Range { query, radius })
        }
        Request::BatchKnn { queries, k } => {
            shared.stats.record_batch();
            enqueue(
                shared,
                conn,
                id,
                JobOp::Batch {
                    queries,
                    k: k as usize,
                },
            )
        }
        Request::Insert { vector } => {
            shared.stats.record_insert();
            enqueue(shared, conn, id, JobOp::Insert { vector })
        }
        Request::Delete { id: point } => {
            shared.stats.record_delete();
            enqueue(shared, conn, id, JobOp::Delete { id: point })
        }
        Request::FilteredKnn { query, k, filter } => {
            shared.stats.record_knn();
            enqueue(
                shared,
                conn,
                id,
                JobOp::Filtered {
                    query,
                    target: Target::Knn(k as usize),
                    filter,
                },
            )
        }
        Request::FilteredRange {
            query,
            radius,
            filter,
        } => {
            shared.stats.record_range();
            enqueue(
                shared,
                conn,
                id,
                JobOp::Filtered {
                    query,
                    target: Target::Range(radius),
                    filter,
                },
            )
        }
        Request::Flush => enqueue(shared, conn, id, JobOp::Flush),
    }
}

/// Admission control: per-connection in-flight cap, then the bounded
/// queue. Both rejections are typed `OVERLOADED` — the request was not
/// executed and the client may retry.
fn enqueue(shared: &Arc<Shared>, conn: &Arc<Conn>, id: u64, op: JobOp) -> bool {
    let op_byte = op.opcode();
    if conn.inflight.load(Ordering::Relaxed) >= shared.config.max_inflight {
        shared.stats.record_overloaded();
        conn.send_response(id, op_byte, &Response::Overloaded);
        return true;
    }
    conn.inflight.fetch_add(1, Ordering::Relaxed);
    match shared.queue.try_push(Job {
        request_id: id,
        conn: Arc::clone(conn),
        op,
    }) {
        Ok(()) => true,
        Err(PushError::Full) => {
            conn.inflight.fetch_sub(1, Ordering::Relaxed);
            shared.stats.record_overloaded();
            conn.send_response(id, op_byte, &Response::Overloaded);
            true
        }
        Err(PushError::Closed) => {
            conn.inflight.fetch_sub(1, Ordering::Relaxed);
            conn.send_response(id, op_byte, &Response::Error("server shutting down".into()));
            true
        }
    }
}

fn build_stats(shared: &Shared) -> RemoteStats {
    let pin = shared.index.pin();
    let mut ingest: crate::wire::IngestWire = shared.index.ingest_stats().into();
    ingest.cluster_drift = shared.index.model_drift();
    // The planner lives in the serving handle, not the index; graft its
    // decision counters onto the index's query counters for the wire.
    let mut query: crate::wire::QueryStatsWire = pin.index.query_stats().into();
    let [post, push, rank] = shared.index.planner_counts();
    query.planner_post_filter = post;
    query.planner_pushdown = push;
    query.planner_prefilter_rank = rank;
    RemoteStats {
        backend: pin.index.name().to_string(),
        len: pin.index.len() as u64,
        dim: pin.index.dim() as u32,
        query,
        pools: pin.index.pool_stats(),
        server: shared.stats.snapshot(shared.queue.len()),
        ingest,
        shard: pin.index.shard_stats(),
    }
}

// ---- workers ---------------------------------------------------------------

/// Runs an index call behind a panic guard so one poisoned request cannot
/// take a worker (and with it a share of the pool) down.
fn guarded<R>(f: impl FnOnce() -> mmdr_index::Result<R>) -> Result<R, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("internal error: query panicked".into()),
    }
}

fn send_and_release(conn: &Conn, request_id: u64, op: u8, resp: &Response) {
    conn.send_response(request_id, op, resp);
    conn.inflight.fetch_sub(1, Ordering::Relaxed);
}

fn worker_loop(shared: &Arc<Shared>) {
    let par = ParConfig::threads(shared.config.batch_threads.max(1));
    while let Some(job) = shared.queue.pop() {
        let Job {
            request_id,
            conn,
            op,
        } = job;
        let op_byte = op.opcode();
        match op {
            JobOp::Knn { query, k } if shared.config.coalesce > 1 => {
                coalesce_and_run(shared, request_id, conn, query, k, &par);
            }
            JobOp::Knn { query, k } => {
                // One pin per job: the query runs to completion against
                // this epoch even if a merge swaps mid-flight.
                let pin = shared.index.pin();
                let resp = match guarded(|| pin.index.knn(&query, k)) {
                    Ok(hits) => Response::Neighbors(hits),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::KNN, &resp);
            }
            JobOp::Range { query, radius } => {
                let pin = shared.index.pin();
                let resp = match guarded(|| pin.index.range_search(&query, radius)) {
                    Ok(hits) => Response::Neighbors(hits),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::RANGE, &resp);
            }
            JobOp::Batch { queries, k } => {
                let pin = shared.index.pin();
                let resp = match guarded(|| pin.index.batch_knn(&queries, k, &par)) {
                    Ok(rows) => Response::Batch(rows),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::BATCH_KNN, &resp);
            }
            JobOp::Filtered {
                query,
                target,
                filter,
            } => {
                // The engine pins internally (plan and search against one
                // epoch); no coalescing — filtered answers never batch.
                let resp = match guarded(|| shared.index.filtered(&query, target, &filter)) {
                    Ok(hits) => Response::Neighbors(hits),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, op_byte, &resp);
            }
            JobOp::Insert { vector } => {
                let resp = match guarded(|| shared.index.insert(&vector)) {
                    Ok(id) => Response::Inserted(id),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::INSERT, &resp);
            }
            JobOp::Delete { id } => {
                let resp = match guarded(|| shared.index.delete(id)) {
                    Ok(changed) => Response::Deleted(changed),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::DELETE, &resp);
            }
            JobOp::Flush => {
                let resp = match guarded(|| shared.index.flush()) {
                    Ok(epoch) => Response::Flushed(epoch),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(&conn, request_id, opcode::FLUSH, &resp);
            }
        }
    }
}

/// Folds queued singleton KNNs with the same `k` into one `batch_knn`
/// call. Answers are bit-identical to answering each alone — the batch
/// executor's contract — so coalescing is purely a throughput optimization
/// (one executor invocation, shared page-cache locality, fewer heap
/// allocations per request).
fn coalesce_and_run(
    shared: &Arc<Shared>,
    lead_id: u64,
    lead_conn: Arc<Conn>,
    lead_query: Vec<f64>,
    k: usize,
    par: &ParConfig,
) {
    let more = shared.queue.drain_matching(
        shared.config.coalesce.saturating_sub(1),
        |j| matches!(&j.op, JobOp::Knn { k: jk, .. } if *jk == k),
    );
    // One pin for the whole fold: every coalesced query answers from the
    // same epoch, so a batch can never mix pre- and post-merge views.
    let pin = shared.index.pin();
    if more.is_empty() {
        let resp = match guarded(|| pin.index.knn(&lead_query, k)) {
            Ok(hits) => Response::Neighbors(hits),
            Err(msg) => Response::Error(msg),
        };
        send_and_release(&lead_conn, lead_id, opcode::KNN, &resp);
        return;
    }
    let mut recipients = vec![(lead_id, lead_conn)];
    let mut queries = vec![lead_query];
    for j in more {
        match j.op {
            JobOp::Knn { query, .. } => {
                recipients.push((j.request_id, j.conn));
                queries.push(query);
            }
            // drain_matching only matched Knn jobs.
            _ => unreachable!("coalesce predicate admits only singleton KNN"),
        }
    }
    shared.stats.record_coalesce(queries.len() as u64);
    match guarded(|| pin.index.batch_knn(&queries, k, par)) {
        Ok(rows) => {
            for ((id, conn), hits) in recipients.iter().zip(rows) {
                send_and_release(conn, *id, opcode::KNN, &Response::Neighbors(hits));
            }
        }
        Err(_) => {
            // The batch failed as a whole (e.g. one query has the wrong
            // dimension). Re-run individually so each caller gets its own
            // typed verdict instead of a shared one.
            for ((id, conn), q) in recipients.iter().zip(&queries) {
                let resp = match guarded(|| pin.index.knn(q, k)) {
                    Ok(hits) => Response::Neighbors(hits),
                    Err(msg) => Response::Error(msg),
                };
                send_and_release(conn, *id, opcode::KNN, &resp);
            }
        }
    }
}

// ---- signal hookup ---------------------------------------------------------

/// Returns a process-wide flag that flips to `true` on `SIGINT`/`SIGTERM`
/// (first call installs the handlers; later calls reuse them). The CLI's
/// `serve` loop polls it and turns a signal into
/// [`ServerHandle::shutdown`] — drain, flush, report. On non-Unix targets
/// the flag exists but never fires.
#[cfg(unix)]
pub fn shutdown_flag_on_signals() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    static INSTALL: std::sync::Once = std::sync::Once::new();
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // libc's signal(2); std already links libc on Unix.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    INSTALL.call_once(|| unsafe {
        let _ = signal(SIGINT, on_signal);
        let _ = signal(SIGTERM, on_signal);
    });
    &FLAG
}

/// Non-Unix fallback: a flag that never fires (remote `Shutdown` still
/// works).
#[cfg(not(unix))]
pub fn shutdown_flag_on_signals() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}
