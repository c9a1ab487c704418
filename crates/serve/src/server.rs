//! The server core: accept loop → bounded queue → worker pool.
//!
//! # Threading model
//!
//! - One **accept thread** owns the (non-blocking) listener, spawns a
//!   reader thread per connection, and reaps finished ones.
//! - One **reader thread per connection** decodes frames. Cheap ops
//!   (`Ping`, `Stats`, `Shutdown`) are answered inline; every other
//!   decoded [`Request`] is queued as it is — or rejected with a typed
//!   `OVERLOADED` when the queue or the connection's in-flight budget is
//!   full.
//! - A fixed pool of **worker threads** pops requests, folds compatible
//!   queued singleton KNNs into one `BATCH_KNN` request, has `answer` —
//!   the only dispatch from request to index call — produce the
//!   [`Response`], and writes it to its connection under that connection's
//!   write lock.
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
use mmdr_index::{LiveIndex, QueryStats, ReadOnlyLive, Target, VectorIndex};
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

/// Server tuning knobs. `Default` is sized for a small host; the CLI sets
/// `workers` and the two timeouts and leaves the rest at their defaults.
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

/// A queued request (the cheap ops never reach the queue): the decoded
/// [`Request`] is the job, nothing is re-spelt on the way to the worker.
/// Writes ride the same queue as queries: admission control covers them,
/// and a burst of inserts cannot starve reads any harder than a burst of
/// queries could.
struct Job {
    request_id: u64,
    conn: Arc<Conn>,
    request: Request,
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
    /// become no-ops instead of errors cascading through workers. An
    /// answer too large for one frame goes out as a typed error instead:
    /// nothing was written, so the connection stays in sync and usable.
    fn send_response(&self, request_id: u64, op: u8, resp: &Response) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let payload = wire::encode_response(request_id, op, resp);
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let sent = match wire::write_frame(&mut *w, &payload) {
            Err(e) if e.kind() == ErrorKind::InvalidInput => {
                let too_large = Response::Error(format!(
                    "answer of {} bytes exceeds the 16 MiB frame limit",
                    payload.len()
                ));
                wire::write_frame(&mut *w, &wire::encode_response(request_id, op, &too_large))
            }
            sent => sent,
        };
        if sent.is_err() {
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
    shared.stats.record(&req);
    match req {
        Request::Ping => conn.send_response(id, opcode::PING, &Response::Pong),
        Request::Stats => {
            let stats = build_stats(shared);
            conn.send_response(id, opcode::STATS, &Response::Stats(Box::new(stats)));
        }
        Request::Shutdown => {
            conn.send_response(id, opcode::SHUTDOWN, &Response::ShutdownStarted);
            shared.trigger_shutdown();
        }
        request => enqueue(shared, conn, id, request),
    }
    true
}

/// Admission control: per-connection in-flight cap, then the bounded
/// queue. Both rejections are typed `OVERLOADED` — the request was not
/// executed and the client may retry.
fn enqueue(shared: &Arc<Shared>, conn: &Arc<Conn>, id: u64, request: Request) {
    let op = request.opcode();
    if conn.inflight.load(Ordering::Relaxed) >= shared.config.max_inflight {
        shared.stats.record_overloaded();
        conn.send_response(id, op, &Response::Overloaded);
        return;
    }
    conn.inflight.fetch_add(1, Ordering::Relaxed);
    let rejection = match shared.queue.try_push(Job {
        request_id: id,
        conn: Arc::clone(conn),
        request,
    }) {
        Ok(()) => return,
        Err(PushError::Full) => {
            shared.stats.record_overloaded();
            Response::Overloaded
        }
        Err(PushError::Closed) => Response::Error("server shutting down".into()),
    };
    conn.inflight.fetch_sub(1, Ordering::Relaxed);
    conn.send_response(id, op, &rejection);
}

fn build_stats(shared: &Shared) -> RemoteStats {
    let pin = shared.index.pin();
    // The planner lives in the serving handle, not the index; graft its
    // decision counters onto the index's query counters for the wire.
    let [planner_post_filter, planner_pushdown, planner_prefilter_rank] =
        shared.index.planner_counts();
    RemoteStats {
        backend: pin.index.name().to_string(),
        len: pin.index.len() as u64,
        dim: pin.index.dim() as u32,
        query: QueryStats {
            planner_post_filter,
            planner_pushdown,
            planner_prefilter_rank,
            ..pin.index.query_stats()
        },
        pools: pin.index.pool_stats(),
        server: shared.stats.snapshot(shared.queue.len()),
        ingest: shared.index.ingest_stats(),
    }
}

// ---- workers ---------------------------------------------------------------

/// Answers one queued request: the only place a request variant becomes an
/// index call. Queries pin the serving epoch once and run to completion
/// against it even if a merge swaps mid-flight; a filtered search pins
/// inside the engine (plan and search against one epoch).
fn answer(live: &dyn LiveIndex, req: &Request, par: &ParConfig) -> mmdr_index::Result<Response> {
    Ok(match req {
        Request::Knn { query, k } => Response::Neighbors(live.pin().index.knn(query, *k as usize)?),
        Request::Range { query, radius } => {
            Response::Neighbors(live.pin().index.range_search(query, *radius)?)
        }
        Request::BatchKnn { queries, k } => {
            Response::Batch(live.pin().index.batch_knn(queries, *k as usize, par)?)
        }
        Request::FilteredKnn { query, k, filter } => {
            Response::Neighbors(live.filtered(query, Target::Knn(*k as usize), filter)?)
        }
        Request::FilteredRange {
            query,
            radius,
            filter,
        } => Response::Neighbors(live.filtered(query, Target::Range(*radius), filter)?),
        Request::Insert { vector } => Response::Inserted(live.insert(vector)?),
        Request::Delete { id } => Response::Deleted(live.delete(*id)?),
        Request::Flush => Response::Flushed(live.flush()?),
        Request::Ping | Request::Stats | Request::Shutdown => {
            unreachable!("the reader answers {req:?} inline; it is never queued")
        }
    })
}

/// Runs [`answer`] behind a panic guard, so one poisoned request cannot
/// take a worker (and with it a share of the pool) down, and turns every
/// failure into the typed `ERROR` response its caller gets.
fn guarded_answer(shared: &Shared, req: &Request, par: &ParConfig) -> Response {
    let run = AssertUnwindSafe(|| answer(&*shared.index, req, par));
    match std::panic::catch_unwind(run) {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) => Response::Error(e.to_string()),
        Err(_) => Response::Error("internal error: query panicked".into()),
    }
}

fn send_and_release(conn: &Conn, request_id: u64, op: u8, resp: &Response) {
    conn.send_response(request_id, op, resp);
    conn.inflight.fetch_sub(1, Ordering::Relaxed);
}

fn run(shared: &Shared, job: &Job, par: &ParConfig) {
    let resp = guarded_answer(shared, &job.request, par);
    send_and_release(&job.conn, job.request_id, job.request.opcode(), &resp);
}

fn worker_loop(shared: &Arc<Shared>) {
    let par = ParConfig::threads(shared.config.batch_threads.max(1));
    while let Some(job) = shared.queue.pop() {
        match job.request {
            Request::Knn { k, .. } if shared.config.coalesce > 1 => {
                coalesce_and_run(shared, job, k, &par);
            }
            _ => run(shared, &job, &par),
        }
    }
}

/// Folds queued singleton KNNs with the same `k` into one `BATCH_KNN`
/// request. Answers are bit-identical to answering each alone — the batch
/// executor's contract — so coalescing is purely a throughput optimization
/// (one executor invocation, shared page-cache locality, fewer heap
/// allocations per request), and one pin serves the whole fold: a batch
/// can never mix pre- and post-merge views.
fn coalesce_and_run(shared: &Arc<Shared>, lead: Job, k: u32, par: &ParConfig) {
    let more = shared.queue.drain_matching(
        shared.config.coalesce.saturating_sub(1),
        |j| matches!(&j.request, Request::Knn { k: jk, .. } if *jk == k),
    );
    if more.is_empty() {
        return run(shared, &lead, par);
    }
    let mut recipients = Vec::with_capacity(1 + more.len());
    let mut queries = Vec::with_capacity(1 + more.len());
    for job in std::iter::once(lead).chain(more) {
        let Request::Knn { query, .. } = job.request else {
            unreachable!("coalesce predicate admits only singleton KNN");
        };
        recipients.push((job.request_id, job.conn));
        queries.push(query);
    }
    shared.stats.record_coalesce(queries.len() as u64);
    let batch = Request::BatchKnn { queries, k };
    match guarded_answer(shared, &batch, par) {
        Response::Batch(rows) => {
            for ((id, conn), hits) in recipients.iter().zip(rows) {
                send_and_release(conn, *id, opcode::KNN, &Response::Neighbors(hits));
            }
        }
        // The batch failed as a whole (e.g. one query has the wrong
        // dimension). Re-run individually so each caller gets its own
        // typed verdict instead of a shared one.
        _ => {
            let Request::BatchKnn { queries, .. } = batch else {
                unreachable!("`batch` was built as a BATCH_KNN above");
            };
            for ((request_id, conn), query) in recipients.into_iter().zip(queries) {
                let request = Request::Knn { query, k };
                let job = Job {
                    request_id,
                    conn,
                    request,
                };
                run(shared, &job, par);
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
