//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! u32 payload_len            (little-endian, ≤ MAX_FRAME)
//! payload:
//!   u32 magic      0x4D4D4452 ("MMDR")
//!   u16 version    PROTOCOL_VERSION
//!   u64 request_id caller-chosen; echoed verbatim in the response
//!   u8  opcode     PING | KNN | RANGE | BATCH_KNN | STATS | SHUTDOWN
//!   u8  status     REQUEST on requests; OK | OVERLOADED | ERROR on responses
//!   …   body       opcode/status-specific, layouts below
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns, so a
//! round trip is bit-exact — the parity gate compares served distances to
//! in-process answers with `f64::to_bits`. Decoding is defensive: every
//! count is validated against the bytes that actually remain in the frame
//! before anything is allocated, so a hostile length field cannot cause an
//! oversized allocation, and every malformed input surfaces as a typed
//! [`WireError`], never a panic.

use mmdr_index::{QueryStats, ShardStats};
use mmdr_storage::{PoolStats, ShardCounters};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `"MMDR"` as a big-endian byte string, stored little-endian.
pub const MAGIC: u32 = 0x4D4D_4452;

/// Current protocol version. Servers reject frames from future versions
/// with a typed error instead of guessing at their layout. Version 2
/// added the write opcodes (`INSERT`/`DELETE`/`FLUSH`), the ingest block
/// in `STATS`, and the write counters in [`ServerCounters`]. Version 3
/// added the optional scatter-gather attribution block to `STATS`, so
/// clients can observe shard pruning. Version 4 added the
/// adaptive-maintenance block to `STATS` (`model_epoch`, `refits`, and
/// the per-cluster drift vector in [`IngestWire`]), so operators can
/// watch a drifting stream approach the re-fit threshold remotely.
/// Version 5 added attribute-filtered search (`FILTERED_KNN` /
/// `FILTERED_RANGE`, carrying the predicate as its canonical text) and
/// the three planner-choice counters in [`QueryStatsWire`]. Version 6
/// dropped version 3's open-configuration echo (`workers`, `pool_pages`,
/// `readahead`) from `STATS`: a router checks shard homogeneity on
/// `backend`, `dim` and `len`, and nothing ever read the echo.
pub const PROTOCOL_VERSION: u16 = 6;

/// Hard cap on one frame's payload (16 MiB). Anything larger is rejected
/// before allocation — the admission-control seatbelt against garbage or
/// hostile length prefixes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Fixed payload header length: magic + version + request id + opcode +
/// status.
pub const HEADER_LEN: usize = 4 + 2 + 8 + 1 + 1;

/// Request/response opcodes.
pub mod opcode {
    /// Liveness probe; empty body.
    pub const PING: u8 = 1;
    /// Single k-nearest-neighbour query.
    pub const KNN: u8 = 2;
    /// Range (radius) query.
    pub const RANGE: u8 = 3;
    /// Client-side batch of KNN queries with one shared `k`.
    pub const BATCH_KNN: u8 = 4;
    /// Server + index cost counters.
    pub const STATS: u8 = 5;
    /// Graceful shutdown request.
    pub const SHUTDOWN: u8 = 6;
    /// Insert one vector; the server assigns and returns its id.
    pub const INSERT: u8 = 7;
    /// Delete one id; returns whether visible state changed.
    pub const DELETE: u8 = 8;
    /// Force a merge (fold delta, swap epoch, truncate WAL).
    pub const FLUSH: u8 = 9;
    /// KNN restricted to rows matching an attribute predicate. The
    /// predicate travels as its canonical text form; the server compiles
    /// it against its attribute store and plans the execution strategy.
    pub const FILTERED_KNN: u8 = 10;
    /// Range search restricted to rows matching an attribute predicate.
    pub const FILTERED_RANGE: u8 = 11;
}

/// The status byte.
pub mod status {
    /// This frame is a request.
    pub const REQUEST: u8 = 0;
    /// Successful response; body is the opcode's result layout.
    pub const OK: u8 = 1;
    /// Typed admission-control rejection: the queue or the connection's
    /// in-flight budget is full. Empty body; the request was not executed.
    pub const OVERLOADED: u8 = 2;
    /// The request failed; body is `u32 len + UTF-8 message`.
    pub const ERROR: u8 = 3;
}

/// Decode-side failures, all typed — the server answers them with an
/// `ERROR` response and the fuzz seatbelt asserts none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// A frame announced a payload longer than [`MAX_FRAME`].
    Oversized(u32),
    /// The magic word was wrong — this is not an mmdr-serve frame.
    BadMagic(u32),
    /// The frame speaks a protocol version this build does not.
    BadVersion(u16),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte, or a status that cannot carry this opcode.
    BadStatus(u8),
    /// Structurally valid frame with semantically invalid contents.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x} (want {MAGIC:#010x})"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadStatus(s) => write!(f, "unknown status byte {s}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `k` nearest neighbours of `query`.
    Knn {
        /// Query point in index dimensionality.
        query: Vec<f64>,
        /// Number of neighbours.
        k: u32,
    },
    /// Every point within `radius` of `query`.
    Range {
        /// Query point in index dimensionality.
        query: Vec<f64>,
        /// Search radius.
        radius: f64,
    },
    /// A batch of equal-width KNN queries sharing one `k`.
    BatchKnn {
        /// Query points, all the same width.
        queries: Vec<Vec<f64>>,
        /// Number of neighbours per query.
        k: u32,
    },
    /// Server + index cost counters.
    Stats,
    /// Ask the server to shut down gracefully (drain, flush, exit).
    Shutdown,
    /// Insert one vector; the server's ingest engine assigns the id,
    /// WAL-logs the row, and acknowledges only once it is durable.
    Insert {
        /// Full-dimensional coordinates of the new row.
        vector: Vec<f64>,
    },
    /// Delete the row with this id (tombstone until the next merge).
    Delete {
        /// Point id to remove.
        id: u64,
    },
    /// Force a merge now: fold the delta into a fresh snapshot and swap
    /// the serving epoch.
    Flush,
    /// `k` nearest neighbours of `query` among rows matching `filter`.
    FilteredKnn {
        /// Query point in index dimensionality.
        query: Vec<f64>,
        /// Number of neighbours.
        k: u32,
        /// Predicate in [`mmdr_query::Predicate`] text form, e.g.
        /// `"label = \"news\" && score >= 10"`.
        filter: String,
    },
    /// Every matching point within `radius` of `query`.
    FilteredRange {
        /// Query point in index dimensionality.
        query: Vec<f64>,
        /// Search radius.
        radius: f64,
        /// Predicate in text form.
        filter: String,
    },
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => opcode::PING,
            Request::Knn { .. } => opcode::KNN,
            Request::Range { .. } => opcode::RANGE,
            Request::BatchKnn { .. } => opcode::BATCH_KNN,
            Request::Stats => opcode::STATS,
            Request::Shutdown => opcode::SHUTDOWN,
            Request::Insert { .. } => opcode::INSERT,
            Request::Delete { .. } => opcode::DELETE,
            Request::Flush => opcode::FLUSH,
            Request::FilteredKnn { .. } => opcode::FILTERED_KNN,
            Request::FilteredRange { .. } => opcode::FILTERED_RANGE,
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ping answer.
    Pong,
    /// KNN or range answer: `(distance, point_id)` ascending.
    Neighbors(Vec<(f64, u64)>),
    /// Batch-KNN answer, one list per query in input order.
    Batch(Vec<Vec<(f64, u64)>>),
    /// Cost counters (boxed: large).
    Stats(Box<RemoteStats>),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownStarted,
    /// Insert acknowledged: the row is durable and visible under this id.
    Inserted(u64),
    /// Delete acknowledged; `true` when visible state changed.
    Deleted(bool),
    /// Flush finished; the serving epoch is now this number.
    Flushed(u64),
    /// Typed admission-control rejection — the request was *not* run.
    Overloaded,
    /// The request failed with this message.
    Error(String),
}

/// Everything the `Stats` op reports: identity, the uniform
/// [`QueryStats`] cost counters, buffer-pool shard counters, and the
/// server's own traffic counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RemoteStats {
    /// Backend display name ("idistance", …).
    pub backend: String,
    /// Indexed point count.
    pub len: u64,
    /// Query dimensionality.
    pub dim: u32,
    /// Cumulative query cost, same fields the CLI prints.
    pub query: QueryStatsWire,
    /// Per-pool, per-shard buffer counters.
    pub pools: Vec<PoolStats>,
    /// Server traffic/coalescing/rejection counters.
    pub server: ServerCounters,
    /// Ingest-side state: delta pressure, WAL size, epoch, merges.
    pub ingest: IngestWire,
    /// Scatter-gather attribution, present when the served index is a
    /// router front ([`mmdr_index::VectorIndex::shard_stats`]).
    pub shard: Option<ShardStats>,
}

/// [`mmdr_index::IngestStats`] with a stable wire layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestWire {
    /// Serving epoch number (bumped by every merge + swap).
    pub epoch: u64,
    /// Rows in the serving epoch's delta.
    pub delta_rows: u64,
    /// Tombstoned ids in the serving epoch.
    pub tombstones: u64,
    /// Bytes in the write-ahead log.
    pub wal_bytes: u64,
    /// Merges completed since the server opened the index.
    pub merges: u64,
    /// Next id the engine will assign.
    pub next_id: u64,
    /// Reduction-model epoch (bumped by every background re-fit).
    pub model_epoch: u64,
    /// Re-fits completed since the server opened the index.
    pub refits: u64,
    /// Per-cluster MPE drift of routed inserts, relative to `max_mpe`.
    pub cluster_drift: Vec<f64>,
}

impl From<mmdr_index::IngestStats> for IngestWire {
    fn from(s: mmdr_index::IngestStats) -> Self {
        Self {
            epoch: s.epoch,
            delta_rows: s.delta_rows,
            tombstones: s.tombstones,
            wal_bytes: s.wal_bytes,
            merges: s.merges,
            next_id: s.next_id,
            model_epoch: s.model_epoch,
            refits: s.refits,
            cluster_drift: Vec::new(),
        }
    }
}

/// [`QueryStats`] with a stable wire layout (plain `u64`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStatsWire {
    /// Point-to-point distance evaluations.
    pub dist_computations: u64,
    /// Logical page/node touches.
    pub pages_touched: u64,
    /// Logical page reads (buffer misses).
    pub page_reads: u64,
    /// Candidates offered to the top-k set.
    pub candidates_refined: u64,
    /// Pages physically fetched from the snapshot file (out-of-core opens).
    pub physical_reads: u64,
    /// Misses served from the readahead window.
    pub readahead_hits: u64,
    /// Physical fetches that failed.
    pub read_errors: u64,
    /// Filtered queries the planner ran as a post-filtered scan.
    pub planner_post_filter: u64,
    /// Filtered queries the planner pushed the bitmap into the index for.
    pub planner_pushdown: u64,
    /// Filtered queries answered by ranking the prefiltered matches.
    pub planner_prefilter_rank: u64,
}

impl From<QueryStats> for QueryStatsWire {
    fn from(q: QueryStats) -> Self {
        Self {
            dist_computations: q.dist_computations,
            pages_touched: q.pages_touched,
            page_reads: q.page_reads,
            candidates_refined: q.candidates_refined,
            physical_reads: q.physical_reads,
            readahead_hits: q.readahead_hits,
            read_errors: q.read_errors,
            planner_post_filter: q.planner_post_filter,
            planner_pushdown: q.planner_pushdown,
            planner_prefilter_rank: q.planner_prefilter_rank,
        }
    }
}

/// Snapshot of the server's own counters, as carried by the `Stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerCounters {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Requests decoded (all opcodes).
    pub requests: u64,
    /// Singleton KNN requests.
    pub knn_requests: u64,
    /// Range requests.
    pub range_requests: u64,
    /// Client-side batch requests.
    pub batch_requests: u64,
    /// Insert requests.
    pub insert_requests: u64,
    /// Delete requests.
    pub delete_requests: u64,
    /// Worker batches that folded ≥ 2 queued singleton KNNs together.
    pub coalesced_batches: u64,
    /// Singleton KNN requests answered inside such folded batches.
    pub coalesced_queries: u64,
    /// Largest fold observed.
    pub max_coalesce: u64,
    /// Typed `OVERLOADED` rejections (queue full or in-flight cap).
    pub overloaded: u64,
    /// Malformed frames answered with `ERROR`.
    pub protocol_errors: u64,
    /// Jobs sitting in the queue at snapshot time.
    pub queue_len: u64,
}

// ---- primitive codec ------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Default)]
pub(crate) struct Enc(Vec<u8>);

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

/// Bounds-checked little-endian reader over one frame payload.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` element count, verifying `count * elem_bytes` does not
    /// exceed the bytes actually present — so a hostile count can never
    /// drive allocation past the (already capped) frame size.
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(WireError::Malformed(format!(
                "count {n} × {elem_bytes}B exceeds the {} bytes present",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_vec(e: &mut Enc, v: &[f64]) {
    e.u32(v.len() as u32);
    for &x in v {
        e.f64(x);
    }
}

fn get_vec(d: &mut Dec<'_>) -> Result<Vec<f64>, WireError> {
    let n = d.len(8)?;
    (0..n).map(|_| d.f64()).collect()
}

fn put_hits(e: &mut Enc, hits: &[(f64, u64)]) {
    e.u32(hits.len() as u32);
    for &(dist, id) in hits {
        e.f64(dist);
        e.u64(id);
    }
}

fn get_hits(d: &mut Dec<'_>) -> Result<Vec<(f64, u64)>, WireError> {
    let n = d.len(16)?;
    (0..n).map(|_| Ok((d.f64()?, d.u64()?))).collect()
}

fn put_str(e: &mut Enc, s: &str) {
    e.u32(s.len() as u32);
    e.bytes(s.as_bytes());
}

fn get_str(d: &mut Dec<'_>, what: &str) -> Result<String, WireError> {
    let n = d.len(1)?;
    String::from_utf8(d.take(n)?.to_vec())
        .map_err(|_| WireError::Malformed(format!("{what} is not UTF-8")))
}

// ---- requests -------------------------------------------------------------

fn put_header(e: &mut Enc, request_id: u64, op: u8, status_byte: u8) {
    e.u32(MAGIC);
    e.u16(PROTOCOL_VERSION);
    e.u64(request_id);
    e.u8(op);
    e.u8(status_byte);
}

/// Parsed frame header.
struct Header {
    request_id: u64,
    op: u8,
    status: u8,
}

fn get_header(d: &mut Dec<'_>) -> Result<Header, WireError> {
    let magic = d.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = d.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let request_id = d.u64()?;
    let op = d.u8()?;
    let status = d.u8()?;
    Ok(Header {
        request_id,
        op,
        status,
    })
}

/// Encodes a request frame payload (no length prefix).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    put_header(&mut e, request_id, req.opcode(), status::REQUEST);
    match req {
        Request::Ping | Request::Stats | Request::Shutdown | Request::Flush => {}
        Request::Insert { vector } => put_vec(&mut e, vector),
        Request::Delete { id } => e.u64(*id),
        Request::Knn { query, k } => {
            e.u32(*k);
            put_vec(&mut e, query);
        }
        Request::Range { query, radius } => {
            e.f64(*radius);
            put_vec(&mut e, query);
        }
        Request::FilteredKnn { query, k, filter } => {
            e.u32(*k);
            put_str(&mut e, filter);
            put_vec(&mut e, query);
        }
        Request::FilteredRange {
            query,
            radius,
            filter,
        } => {
            e.f64(*radius);
            put_str(&mut e, filter);
            put_vec(&mut e, query);
        }
        Request::BatchKnn { queries, k } => {
            e.u32(*k);
            e.u32(queries.len() as u32);
            let dim = queries.first().map_or(0, Vec::len);
            e.u32(dim as u32);
            for q in queries {
                for &x in q {
                    e.f64(x);
                }
            }
        }
    }
    e.into_vec()
}

/// Decodes a request frame payload. On failure the request id is still
/// reported when the header parsed far enough to contain one, so the
/// server's error response can echo it.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), (Option<u64>, WireError)> {
    let mut d = Dec::new(payload);
    let h = get_header(&mut d).map_err(|e| (None, e))?;
    let id = h.request_id;
    if h.status != status::REQUEST {
        return Err((Some(id), WireError::BadStatus(h.status)));
    }
    let fail = |e: WireError| (Some(id), e);
    let req = match h.op {
        opcode::PING => Request::Ping,
        opcode::STATS => Request::Stats,
        opcode::SHUTDOWN => Request::Shutdown,
        opcode::FLUSH => Request::Flush,
        opcode::INSERT => Request::Insert {
            vector: get_vec(&mut d).map_err(fail)?,
        },
        opcode::DELETE => Request::Delete {
            id: d.u64().map_err(fail)?,
        },
        opcode::KNN => {
            let k = d.u32().map_err(fail)?;
            let query = get_vec(&mut d).map_err(fail)?;
            Request::Knn { query, k }
        }
        opcode::RANGE => {
            let radius = d.f64().map_err(fail)?;
            let query = get_vec(&mut d).map_err(fail)?;
            Request::Range { query, radius }
        }
        opcode::FILTERED_KNN => {
            let k = d.u32().map_err(fail)?;
            let filter = get_str(&mut d, "filter predicate").map_err(fail)?;
            let query = get_vec(&mut d).map_err(fail)?;
            Request::FilteredKnn { query, k, filter }
        }
        opcode::FILTERED_RANGE => {
            let radius = d.f64().map_err(fail)?;
            let filter = get_str(&mut d, "filter predicate").map_err(fail)?;
            let query = get_vec(&mut d).map_err(fail)?;
            Request::FilteredRange {
                query,
                radius,
                filter,
            }
        }
        opcode::BATCH_KNN => {
            let k = d.u32().map_err(fail)?;
            let nq = d.u32().map_err(fail)? as usize;
            let dim = d.u32().map_err(fail)? as usize;
            let need = nq.checked_mul(dim).and_then(|c| c.checked_mul(8));
            if need.is_none_or(|need| need > d.remaining()) {
                return Err(fail(WireError::Malformed(format!(
                    "batch of {nq}×{dim} floats exceeds the {} bytes present",
                    d.remaining()
                ))));
            }
            let mut queries = Vec::with_capacity(nq);
            for _ in 0..nq {
                let mut q = Vec::with_capacity(dim);
                for _ in 0..dim {
                    q.push(d.f64().map_err(fail)?);
                }
                queries.push(q);
            }
            Request::BatchKnn { queries, k }
        }
        other => return Err((Some(id), WireError::BadOpcode(other))),
    };
    d.expect_end().map_err(fail)?;
    Ok((id, req))
}

// ---- responses ------------------------------------------------------------

fn put_pool(e: &mut Enc, pool: &PoolStats) {
    e.u32(pool.per_shard.len() as u32);
    for s in &pool.per_shard {
        e.u64(s.hits);
        e.u64(s.misses);
        e.u64(s.evictions);
    }
}

fn get_pool(d: &mut Dec<'_>) -> Result<PoolStats, WireError> {
    let n = d.len(24)?;
    let per_shard = (0..n)
        .map(|_| {
            Ok(ShardCounters {
                hits: d.u64()?,
                misses: d.u64()?,
                evictions: d.u64()?,
            })
        })
        .collect::<Result<_, WireError>>()?;
    Ok(PoolStats { per_shard })
}

fn put_stats(e: &mut Enc, s: &RemoteStats) {
    e.u32(s.backend.len() as u32);
    e.bytes(s.backend.as_bytes());
    e.u64(s.len);
    e.u32(s.dim);
    for v in [
        s.query.dist_computations,
        s.query.pages_touched,
        s.query.page_reads,
        s.query.candidates_refined,
        s.query.physical_reads,
        s.query.readahead_hits,
        s.query.read_errors,
        s.query.planner_post_filter,
        s.query.planner_pushdown,
        s.query.planner_prefilter_rank,
    ] {
        e.u64(v);
    }
    e.u32(s.pools.len() as u32);
    for p in &s.pools {
        put_pool(e, p);
    }
    let c = &s.server;
    for v in [
        c.connections,
        c.requests,
        c.knn_requests,
        c.range_requests,
        c.batch_requests,
        c.insert_requests,
        c.delete_requests,
        c.coalesced_batches,
        c.coalesced_queries,
        c.max_coalesce,
        c.overloaded,
        c.protocol_errors,
        c.queue_len,
    ] {
        e.u64(v);
    }
    for v in [
        s.ingest.epoch,
        s.ingest.delta_rows,
        s.ingest.tombstones,
        s.ingest.wal_bytes,
        s.ingest.merges,
        s.ingest.next_id,
        s.ingest.model_epoch,
        s.ingest.refits,
    ] {
        e.u64(v);
    }
    e.u32(s.ingest.cluster_drift.len() as u32);
    for &v in &s.ingest.cluster_drift {
        e.f64(v);
    }
    match &s.shard {
        None => e.u8(0),
        Some(sh) => {
            e.u8(1);
            for v in [sh.shards, sh.queries, sh.contacted, sh.pruned, sh.degraded] {
                e.u64(v);
            }
            e.u32(sh.per_shard_contacts.len() as u32);
            for &v in &sh.per_shard_contacts {
                e.u64(v);
            }
            e.u32(sh.per_shard_partials.len() as u32);
            for &v in &sh.per_shard_partials {
                e.u64(v);
            }
        }
    }
}

fn get_stats(d: &mut Dec<'_>) -> Result<RemoteStats, WireError> {
    let name_len = d.len(1)?;
    let backend = String::from_utf8(d.take(name_len)?.to_vec())
        .map_err(|_| WireError::Malformed("backend name is not UTF-8".into()))?;
    let len = d.u64()?;
    let dim = d.u32()?;
    let query = QueryStatsWire {
        dist_computations: d.u64()?,
        pages_touched: d.u64()?,
        page_reads: d.u64()?,
        candidates_refined: d.u64()?,
        physical_reads: d.u64()?,
        readahead_hits: d.u64()?,
        read_errors: d.u64()?,
        planner_post_filter: d.u64()?,
        planner_pushdown: d.u64()?,
        planner_prefilter_rank: d.u64()?,
    };
    let n_pools = d.len(4)?;
    let pools = (0..n_pools)
        .map(|_| get_pool(d))
        .collect::<Result<_, _>>()?;
    let server = ServerCounters {
        connections: d.u64()?,
        requests: d.u64()?,
        knn_requests: d.u64()?,
        range_requests: d.u64()?,
        batch_requests: d.u64()?,
        insert_requests: d.u64()?,
        delete_requests: d.u64()?,
        coalesced_batches: d.u64()?,
        coalesced_queries: d.u64()?,
        max_coalesce: d.u64()?,
        overloaded: d.u64()?,
        protocol_errors: d.u64()?,
        queue_len: d.u64()?,
    };
    let ingest = IngestWire {
        epoch: d.u64()?,
        delta_rows: d.u64()?,
        tombstones: d.u64()?,
        wal_bytes: d.u64()?,
        merges: d.u64()?,
        next_id: d.u64()?,
        model_epoch: d.u64()?,
        refits: d.u64()?,
        cluster_drift: {
            let n = d.len(8)?;
            (0..n).map(|_| d.f64()).collect::<Result<_, _>>()?
        },
    };
    let shard = match d.u8()? {
        0 => None,
        1 => {
            let shards = d.u64()?;
            let queries = d.u64()?;
            let contacted = d.u64()?;
            let pruned = d.u64()?;
            let degraded = d.u64()?;
            let n = d.len(8)?;
            let per_shard_contacts = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
            let n = d.len(8)?;
            let per_shard_partials = (0..n).map(|_| d.u64()).collect::<Result<_, _>>()?;
            Some(ShardStats {
                shards,
                queries,
                contacted,
                pruned,
                degraded,
                per_shard_contacts,
                per_shard_partials,
            })
        }
        other => {
            return Err(WireError::Malformed(format!(
                "shard-attribution flag must be 0 or 1, found {other}"
            )))
        }
    };
    Ok(RemoteStats {
        backend,
        len,
        dim,
        query,
        pools,
        server,
        ingest,
        shard,
    })
}

/// Encodes a response frame payload (no length prefix). `op` echoes the
/// request's opcode so the response is self-describing.
pub fn encode_response(request_id: u64, op: u8, resp: &Response) -> Vec<u8> {
    let mut e = Enc::new();
    let status_byte = match resp {
        Response::Overloaded => status::OVERLOADED,
        Response::Error(_) => status::ERROR,
        _ => status::OK,
    };
    put_header(&mut e, request_id, op, status_byte);
    match resp {
        Response::Pong | Response::ShutdownStarted | Response::Overloaded => {}
        Response::Inserted(id) => e.u64(*id),
        Response::Deleted(changed) => e.u8(*changed as u8),
        Response::Flushed(epoch) => e.u64(*epoch),
        Response::Neighbors(hits) => put_hits(&mut e, hits),
        Response::Batch(rows) => {
            e.u32(rows.len() as u32);
            for hits in rows {
                put_hits(&mut e, hits);
            }
        }
        Response::Stats(s) => put_stats(&mut e, s),
        Response::Error(msg) => {
            e.u32(msg.len() as u32);
            e.bytes(msg.as_bytes());
        }
    }
    e.into_vec()
}

/// Decodes a response frame payload into `(request_id, Response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let mut d = Dec::new(payload);
    let h = get_header(&mut d)?;
    let resp = match h.status {
        status::OVERLOADED => Response::Overloaded,
        status::ERROR => {
            let len = d.len(1)?;
            let msg = String::from_utf8(d.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("error message is not UTF-8".into()))?;
            Response::Error(msg)
        }
        status::OK => match h.op {
            opcode::PING => Response::Pong,
            opcode::SHUTDOWN => Response::ShutdownStarted,
            opcode::INSERT => Response::Inserted(d.u64()?),
            opcode::DELETE => match d.u8()? {
                0 => Response::Deleted(false),
                1 => Response::Deleted(true),
                other => {
                    return Err(WireError::Malformed(format!(
                        "delete verdict byte {other} is not 0 or 1"
                    )))
                }
            },
            opcode::FLUSH => Response::Flushed(d.u64()?),
            opcode::KNN | opcode::RANGE | opcode::FILTERED_KNN | opcode::FILTERED_RANGE => {
                Response::Neighbors(get_hits(&mut d)?)
            }
            opcode::BATCH_KNN => {
                let nq = d.len(4)?;
                let rows = (0..nq)
                    .map(|_| get_hits(&mut d))
                    .collect::<Result<_, _>>()?;
                Response::Batch(rows)
            }
            opcode::STATS => Response::Stats(Box::new(get_stats(&mut d)?)),
            other => return Err(WireError::BadOpcode(other)),
        },
        other => return Err(WireError::BadStatus(other)),
    };
    d.expect_end()?;
    Ok((h.request_id, resp))
}

// ---- framing --------------------------------------------------------------

/// Writes one length-prefixed frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u32 <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame (blocking). Returns `Ok(None)` on a
/// clean EOF at a frame boundary; a mid-frame EOF or an oversized length is
/// an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(42, &req);
        let (id, back) = decode_request(&bytes).expect("decode");
        assert_eq!(id, 42);
        assert_eq!(back, req);
    }

    fn roundtrip_response(op: u8, resp: Response) {
        let bytes = encode_response(7, op, &resp);
        let (id, back) = decode_response(&bytes).expect("decode");
        assert_eq!(id, 7);
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Knn {
            query: vec![1.5, -2.25, f64::MIN_POSITIVE],
            k: 10,
        });
        roundtrip_request(Request::Range {
            query: vec![0.0, 1.0],
            radius: 0.75,
        });
        roundtrip_request(Request::BatchKnn {
            queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            k: 3,
        });
        roundtrip_request(Request::Insert {
            vector: vec![0.5, -1.5, f64::MAX],
        });
        roundtrip_request(Request::Delete { id: u64::MAX });
        roundtrip_request(Request::Flush);
        roundtrip_request(Request::FilteredKnn {
            query: vec![0.25, -0.5],
            k: 5,
            filter: "label = \"news\" && score >= 10".into(),
        });
        roundtrip_request(Request::FilteredRange {
            query: vec![1.0],
            radius: 0.5,
            filter: "n != 3".into(),
        });
        // An empty filter string travels fine; rejecting it is the
        // server's (typed) job, not the codec's.
        roundtrip_request(Request::FilteredKnn {
            query: vec![],
            k: 0,
            filter: String::new(),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(opcode::PING, Response::Pong);
        roundtrip_response(opcode::SHUTDOWN, Response::ShutdownStarted);
        roundtrip_response(opcode::KNN, Response::Overloaded);
        roundtrip_response(opcode::KNN, Response::Error("boom".into()));
        roundtrip_response(
            opcode::KNN,
            Response::Neighbors(vec![(0.125, 3), (2.5, 11)]),
        );
        roundtrip_response(
            opcode::BATCH_KNN,
            Response::Batch(vec![vec![(0.5, 1)], vec![], vec![(1.0, 2), (2.0, 4)]]),
        );
        roundtrip_response(opcode::INSERT, Response::Inserted(12_345));
        roundtrip_response(opcode::DELETE, Response::Deleted(true));
        roundtrip_response(opcode::DELETE, Response::Deleted(false));
        roundtrip_response(opcode::FLUSH, Response::Flushed(7));
        roundtrip_response(
            opcode::STATS,
            Response::Stats(Box::new(RemoteStats {
                backend: "idistance".into(),
                len: 1000,
                dim: 16,
                query: QueryStatsWire {
                    dist_computations: 1,
                    pages_touched: 2,
                    page_reads: 3,
                    candidates_refined: 4,
                    physical_reads: 8,
                    readahead_hits: 9,
                    read_errors: 10,
                    planner_post_filter: 11,
                    planner_pushdown: 12,
                    planner_prefilter_rank: 13,
                },
                pools: vec![PoolStats {
                    per_shard: vec![ShardCounters {
                        hits: 5,
                        misses: 6,
                        evictions: 7,
                    }],
                }],
                server: ServerCounters {
                    connections: 1,
                    requests: 2,
                    knn_requests: 3,
                    range_requests: 4,
                    batch_requests: 5,
                    insert_requests: 12,
                    delete_requests: 13,
                    coalesced_batches: 6,
                    coalesced_queries: 7,
                    max_coalesce: 8,
                    overloaded: 9,
                    protocol_errors: 10,
                    queue_len: 11,
                },
                ingest: IngestWire {
                    epoch: 3,
                    delta_rows: 14,
                    tombstones: 2,
                    wal_bytes: 4096,
                    merges: 3,
                    next_id: 1015,
                    model_epoch: 2,
                    refits: 1,
                    cluster_drift: vec![0.5, 1.25, f64::from_bits(0x3FF0_0000_0000_0001)],
                },
                shard: None,
            })),
        );
        // Router fronts attach the attribution block; it must survive the
        // trip bit-for-bit too.
        roundtrip_response(
            opcode::STATS,
            Response::Stats(Box::new(RemoteStats {
                backend: "router".into(),
                len: 64,
                dim: 8,
                shard: Some(ShardStats {
                    shards: 4,
                    queries: 100,
                    contacted: 210,
                    pruned: 190,
                    degraded: 1,
                    per_shard_contacts: vec![100, 60, 30, 20],
                    per_shard_partials: vec![500, 180, 90, 40],
                }),
                ..Default::default()
            })),
        );
    }

    #[test]
    fn bad_shard_flag_is_malformed() {
        let stats = RemoteStats {
            backend: "x".into(),
            ..Default::default()
        };
        let bytes = encode_response(5, opcode::STATS, &Response::Stats(Box::new(stats)));
        let mut bad = bytes.clone();
        // The attribution flag is the final byte of a shard-less stats body.
        let last = bad.len() - 1;
        assert_eq!(bad[last], 0);
        bad[last] = 9;
        assert!(matches!(
            decode_response(&bad),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn distances_are_bit_exact() {
        let tricky = vec![(f64::from_bits(0x3FF0_0000_0000_0001), 1u64), (-0.0, 2)];
        let bytes = encode_response(1, opcode::KNN, &Response::Neighbors(tricky.clone()));
        let (_, back) = decode_response(&bytes).unwrap();
        let Response::Neighbors(hits) = back else {
            panic!("wrong variant")
        };
        for ((a, ai), (b, bi)) in tricky.iter().zip(&hits) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(ai, bi);
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Too short for a header.
        assert_eq!(decode_request(&[0; 3]).unwrap_err().1, WireError::Truncated);
        // Wrong magic.
        let mut bad = encode_request(1, &Request::Ping);
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_request(&bad).unwrap_err().1,
            WireError::BadMagic(_)
        ));
        // Future version: id not yet trustworthy, reported as None.
        let mut bad = encode_request(1, &Request::Ping);
        bad[4] = 0xEE;
        let (id, err) = decode_request(&bad).unwrap_err();
        assert_eq!(id, None);
        assert!(matches!(err, WireError::BadVersion(_)));
        // Unknown opcode: header parsed, id preserved for the error reply.
        let mut bad = encode_request(9, &Request::Ping);
        bad[14] = 0xAB;
        let (id, err) = decode_request(&bad).unwrap_err();
        assert_eq!(id, Some(9));
        assert!(matches!(err, WireError::BadOpcode(0xAB)));
        // Hostile element count cannot over-allocate.
        let mut e = Enc::new();
        put_header(&mut e, 3, opcode::KNN, status::REQUEST);
        e.u32(5); // k
        e.u32(u32::MAX); // claimed query length
        let (id, err) = decode_request(&e.into_vec()).unwrap_err();
        assert_eq!(id, Some(3));
        assert!(matches!(err, WireError::Malformed(_)));
        // Trailing garbage after a valid body.
        let mut bytes = encode_request(1, &Request::Ping);
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes).unwrap_err().1,
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let payload = encode_request(5, &Request::Ping);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }
}
