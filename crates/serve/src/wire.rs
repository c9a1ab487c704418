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
//!   u8  opcode     one of the eleven below; a response echoes its request's
//!   u8  status     REQUEST on requests; OK | OVERLOADED | ERROR on responses
//!   …   body       by opcode and status:
//!
//! opcode             request body                             OK-response body
//!  1 PING            —                                        —
//!  2 KNN             u32 k, vec<f64> query                    vec<(f64 dist, u64 id)>
//!  3 RANGE           f64 radius, vec<f64> query               vec<(f64 dist, u64 id)>
//!  4 BATCH_KNN       u32 k, u32 nq, u32 dim, nq·dim f64       vec<vec<(f64 dist, u64 id)>>
//!  5 STATS           —                                        RemoteStats, field by field
//!  6 SHUTDOWN        —                                        —
//!  7 INSERT          vec<f64> vector                          u64 id
//!  8 DELETE          u64 id                                   bool changed
//!  9 FLUSH           —                                        u64 epoch
//! 10 FILTERED_KNN    u32 k, str filter, vec<f64> query        vec<(f64 dist, u64 id)>
//! 11 FILTERED_RANGE  f64 radius, str filter, vec<f64> query   vec<(f64 dist, u64 id)>
//!
//! OVERLOADED body: empty.    ERROR body: str message.
//!
//! vec<T> = u32 count, then the elements    str    = vec<u8>, UTF-8
//! bool   = u8, 0 or 1
//! a struct is its fields in declaration order
//! ```
//!
//! The table is the code: each row's request body is one line of
//! `request_bodies!`, each struct one `wire_struct!` field list, and both
//! directions are generated from that one list (`Wire` is implemented once
//! per building block), so an encoder and its decoder cannot disagree.
//!
//! The bytes are written and read with the storage layer's byte codec
//! ([`mmdr_storage::codec`]), which the snapshot and the WAL use too: all
//! integers are little-endian; floats are IEEE-754 bit patterns, so a
//! round trip is bit-exact — the parity gate compares served distances to
//! in-process answers with `f64::to_bits`. Decoding is defensive: every
//! count passes the codec's one count rule against the bytes that actually
//! remain in the frame before anything is allocated, so a hostile length
//! field cannot cause an oversized allocation, and every malformed input
//! surfaces as a typed [`WireError`] (too few bytes are `Truncated`, any
//! other codec fault `Malformed`), never a panic.

use mmdr_index::{IngestStats, QueryStats};
use mmdr_storage::codec::{frame_len, DecodeError, Fault, Reader, Writer};
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
/// the per-cluster drift vector), so operators can watch a drifting stream
/// approach the re-fit threshold remotely.
/// Version 5 added attribute-filtered search (`FILTERED_KNN` /
/// `FILTERED_RANGE`, carrying the predicate as the text the caller
/// wrote) and the three planner-choice counters in [`QueryStats`]. Version 6
/// dropped version 3's open-configuration echo (`workers`, `pool_pages`,
/// `readahead`) from `STATS`: a router checked shard homogeneity on
/// `backend`, `dim` and `len`, and nothing ever read the echo.
/// Version 7 dropped version 3's scatter-gather attribution block: the
/// `opt` flag that closed `STATS` is gone with the router that set it.
/// Version 8 dropped version 4's per-cluster drift vector from `STATS`:
/// re-fits run on request only, so no threshold is left to approach.
/// `model_epoch` and `refits` stay; explicit re-fits still bump them.
pub const PROTOCOL_VERSION: u16 = 8;

/// Hard cap on one frame's payload (16 MiB), the codec's record cap, which
/// a WAL record shares. Anything larger is rejected before allocation — the
/// admission-control seatbelt against garbage or hostile length prefixes.
pub use mmdr_storage::codec::MAX_FRAME;

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
    /// predicate travels as the text the caller wrote; the server compiles
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
        /// Predicate in the query crate's `Predicate` text form, e.g.
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
    pub query: QueryStats,
    /// Per-pool, per-shard buffer counters.
    pub pools: Vec<PoolStats>,
    /// Server traffic/coalescing/rejection counters.
    pub server: ServerCounters,
    /// Ingest-side state: delta pressure, WAL size, epoch, merges.
    pub ingest: IngestStats,
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

// ---- the building blocks --------------------------------------------------

/// A field the codec could not read: too few bytes is
/// [`WireError::Truncated`], anything else (a count the frame cannot back,
/// trailing bytes) [`WireError::Malformed`].
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e.fault {
            Fault::Truncated { .. } => WireError::Truncated,
            _ => WireError::Malformed(e.to_string()),
        }
    }
}

/// One wire type: how a value is written and how it is read back. Every
/// body above is a sequence of these, so each layout is stated once and
/// serves both directions.
trait Wire: Sized {
    /// The fewest bytes one encoded value occupies — what a `vec` count is
    /// checked against before anything is read.
    const MIN_BYTES: usize;
    fn put(&self, e: &mut Writer);
    fn get(d: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_scalar {
    ($($ty:ty: $put:ident, $get:ident;)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, e: &mut Writer) {
                e.$put(*self);
            }
            fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(d.$get()?)
            }
        }
    )+};
}
wire_scalar! {
    u8: put_u8, get_u8;
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    f64: put_f64, get_f64;
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, e: &mut Writer) {
        (*self as u8).put(e);
    }
    fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "flag byte must be 0 or 1, found {other}"
            ))),
        }
    }
}

/// One answer row: `(distance, point id)`.
impl Wire for (f64, u64) {
    const MIN_BYTES: usize = 16;
    fn put(&self, e: &mut Writer) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((f64::get(d)?, u64::get(d)?))
    }
}

/// `vec<T>`: its count is believed only once `count × T::MIN_BYTES` fits
/// in the bytes actually present (the codec's count rule), so a hostile
/// count can never drive work or allocation past the (already capped)
/// frame size.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, e: &mut Writer) {
        (self.len() as u32).put(e);
        for item in self {
            item.put(e);
        }
    }
    fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::get(d)?;
        (0..d.count(n.into(), T::MIN_BYTES)?)
            .map(|_| T::get(d))
            .collect()
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, e: &mut Writer) {
        e.put_bytes(self.as_bytes());
    }
    fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(d.get_bytes()?.to_vec())
            .map_err(|_| WireError::Malformed("a string is not UTF-8".into()))
    }
}

/// A struct on the wire is its fields in the order listed here; `put` and
/// `get` are both generated from the one list.
macro_rules! wire_struct {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)+;
            fn put(&self, e: &mut Writer) {
                $(self.$field.put(e);)+
            }
            fn get(d: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: <$fty as Wire>::get(d)?),+ })
            }
        }
    };
}

wire_struct!(ShardCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
});
wire_struct!(PoolStats {
    per_shard: Vec<ShardCounters>,
});
wire_struct!(QueryStats {
    dist_computations: u64,
    pages_touched: u64,
    page_reads: u64,
    candidates_refined: u64,
    physical_reads: u64,
    readahead_hits: u64,
    read_errors: u64,
    planner_post_filter: u64,
    planner_pushdown: u64,
    planner_prefilter_rank: u64,
});
wire_struct!(ServerCounters {
    connections: u64,
    requests: u64,
    knn_requests: u64,
    range_requests: u64,
    batch_requests: u64,
    insert_requests: u64,
    delete_requests: u64,
    coalesced_batches: u64,
    coalesced_queries: u64,
    max_coalesce: u64,
    overloaded: u64,
    protocol_errors: u64,
    queue_len: u64,
});
wire_struct!(IngestStats {
    epoch: u64,
    delta_rows: u64,
    tombstones: u64,
    wal_bytes: u64,
    merges: u64,
    next_id: u64,
    model_epoch: u64,
    refits: u64,
});
wire_struct!(RemoteStats {
    backend: String,
    len: u64,
    dim: u32,
    query: QueryStats,
    pools: Vec<PoolStats>,
    server: ServerCounters,
    ingest: IngestStats,
});

/// `BATCH_KNN`'s queries: equal-width rows sent as one rectangle — `u32 nq,
/// u32 dim`, then `nq·dim` floats row by row — instead of a `vec` of `vec`s
/// (one count, not one per query).
struct Rect;

impl Rect {
    fn put(rows: &[Vec<f64>], e: &mut Writer) {
        (rows.len() as u32).put(e);
        (rows.first().map_or(0, Vec::len) as u32).put(e);
        for x in rows.iter().flatten() {
            x.put(e);
        }
    }

    fn get(d: &mut Reader<'_>) -> Result<Vec<Vec<f64>>, WireError> {
        let nq = u32::get(d)?;
        let dim = u32::get(d)? as usize;
        // A zero-width query can match no index, and its rows would occupy
        // no bytes: nothing present would bound `nq`.
        if dim == 0 && nq > 0 {
            return Err(WireError::Malformed(format!(
                "batch of {nq} zero-width queries"
            )));
        }
        // A row is `dim` floats.
        let nq = d.count(nq.into(), dim.saturating_mul(8))?;
        let mut rows = Vec::with_capacity(nq);
        for _ in 0..nq {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                row.push(f64::get(d)?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

// ---- requests -------------------------------------------------------------

/// Each request's opcode and its body's fields in wire order. The one list
/// generates [`Request::opcode`], the encoder's `match` and the decoder's.
macro_rules! request_bodies {
    (@put $e:ident, $field:ident) => { Wire::put($field, $e) };
    (@put $e:ident, $field:ident as $codec:ident) => { $codec::put($field, $e) };
    (@get $d:ident) => { Wire::get($d)? };
    (@get $d:ident as $codec:ident) => { $codec::get($d)? };
    ($($op:ident => $variant:ident $({ $($field:ident $(as $codec:ident)?),+ })?;)+) => {
        impl Request {
            /// The opcode this request travels under.
            pub fn opcode(&self) -> u8 {
                match self {
                    $(Request::$variant { .. } => opcode::$op,)+
                }
            }

            fn put_body(&self, e: &mut Writer) {
                match self {
                    $(Request::$variant $({ $($field),+ })? => {
                        $($(request_bodies!(@put e, $field $(as $codec)?);)+)?
                    })+
                }
            }

            fn get_body(op: u8, d: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match op {
                    $(opcode::$op => Request::$variant $({
                        $($field: request_bodies!(@get d $(as $codec)?)),+
                    })?,)+
                    other => return Err(WireError::BadOpcode(other)),
                })
            }
        }
    };
}

request_bodies! {
    PING => Ping;
    KNN => Knn { k, query };
    RANGE => Range { radius, query };
    BATCH_KNN => BatchKnn { k, queries as Rect };
    STATS => Stats;
    SHUTDOWN => Shutdown;
    INSERT => Insert { vector };
    DELETE => Delete { id };
    FLUSH => Flush;
    FILTERED_KNN => FilteredKnn { k, filter, query };
    FILTERED_RANGE => FilteredRange { radius, filter, query };
}

fn put_header(e: &mut Writer, request_id: u64, op: u8, status_byte: u8) {
    MAGIC.put(e);
    PROTOCOL_VERSION.put(e);
    request_id.put(e);
    op.put(e);
    status_byte.put(e);
}

/// Parsed frame header.
struct Header {
    request_id: u64,
    op: u8,
    status: u8,
}

fn get_header(d: &mut Reader<'_>) -> Result<Header, WireError> {
    let magic = u32::get(d)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::get(d)?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(Header {
        request_id: u64::get(d)?,
        op: u8::get(d)?,
        status: u8::get(d)?,
    })
}

/// Encodes a request frame payload (no length prefix).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut e = Writer::new();
    put_header(&mut e, request_id, req.opcode(), status::REQUEST);
    req.put_body(&mut e);
    e.into_bytes()
}

/// Decodes a request frame payload. On failure the request id is still
/// reported when the header parsed far enough to contain one, so the
/// server's error response can echo it.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), (Option<u64>, WireError)> {
    let mut d = Reader::new(payload);
    let h = get_header(&mut d).map_err(|e| (None, e))?;
    let id = h.request_id;
    if h.status != status::REQUEST {
        return Err((Some(id), WireError::BadStatus(h.status)));
    }
    let fail = |e: WireError| (Some(id), e);
    let req = Request::get_body(h.op, &mut d).map_err(fail)?;
    d.finish().map_err(|e| fail(e.into()))?;
    Ok((id, req))
}

// ---- responses ------------------------------------------------------------

/// Encodes a response frame payload (no length prefix). `op` echoes the
/// request's opcode so the response is self-describing.
pub fn encode_response(request_id: u64, op: u8, resp: &Response) -> Vec<u8> {
    let mut e = Writer::new();
    let status_byte = match resp {
        Response::Overloaded => status::OVERLOADED,
        Response::Error(_) => status::ERROR,
        _ => status::OK,
    };
    put_header(&mut e, request_id, op, status_byte);
    // A response body is its variant's one value, so the variant's type is
    // the schema.
    match resp {
        Response::Pong | Response::ShutdownStarted | Response::Overloaded => {}
        Response::Inserted(v) | Response::Flushed(v) => v.put(&mut e),
        Response::Deleted(changed) => changed.put(&mut e),
        Response::Neighbors(hits) => hits.put(&mut e),
        Response::Batch(rows) => rows.put(&mut e),
        Response::Stats(stats) => stats.put(&mut e),
        Response::Error(msg) => msg.put(&mut e),
    }
    e.into_bytes()
}

/// Decodes a response frame payload into `(request_id, Response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let mut d = Reader::new(payload);
    let h = get_header(&mut d)?;
    let d = &mut d;
    let resp = match h.status {
        status::OVERLOADED => Response::Overloaded,
        status::ERROR => Response::Error(Wire::get(d)?),
        status::OK => match h.op {
            opcode::PING => Response::Pong,
            opcode::SHUTDOWN => Response::ShutdownStarted,
            opcode::INSERT => Response::Inserted(Wire::get(d)?),
            opcode::DELETE => Response::Deleted(Wire::get(d)?),
            opcode::FLUSH => Response::Flushed(Wire::get(d)?),
            opcode::KNN | opcode::RANGE | opcode::FILTERED_KNN | opcode::FILTERED_RANGE => {
                Response::Neighbors(Wire::get(d)?)
            }
            opcode::BATCH_KNN => Response::Batch(Wire::get(d)?),
            opcode::STATS => Response::Stats(Box::new(Wire::get(d)?)),
            other => return Err(WireError::BadOpcode(other)),
        },
        other => return Err(WireError::BadStatus(other)),
    };
    d.finish()?;
    Ok((h.request_id, resp))
}

// ---- framing --------------------------------------------------------------

/// Writes one length-prefixed frame and flushes. A payload over
/// [`MAX_FRAME`] is refused with [`io::ErrorKind::InvalidInput`] before a
/// byte is written: the peer's [`read_frame`] would reject its length
/// prefix and the stream could not be re-synchronized.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_len(payload)?.to_le_bytes())?;
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
        // `STATS`, with every field set, round-trips in
        // tests/golden_frames.rs (bytes pinned) and
        // tests/frame_fragmentation.rs (random values).
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
        let mut e = Writer::new();
        put_header(&mut e, 3, opcode::KNN, status::REQUEST);
        5u32.put(&mut e); // k
        u32::MAX.put(&mut e); // claimed query length
        let (id, err) = decode_request(&e.into_bytes()).unwrap_err();
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

    /// `nq` counts rows of `dim` floats; at `dim = 0` the rows occupy no
    /// bytes, so nothing present bounds `nq`. Such a batch is refused
    /// outright rather than allocated for.
    #[test]
    fn a_zero_width_batch_cannot_name_its_own_row_count() {
        let mut e = Writer::new();
        put_header(&mut e, 3, opcode::BATCH_KNN, status::REQUEST);
        5u32.put(&mut e); // k
        (1u32 << 22).put(&mut e); // nq
        0u32.put(&mut e); // dim
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 28);
        let (id, err) = decode_request(&bytes).unwrap_err();
        assert_eq!(id, Some(3));
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // The empty batch is still a frame, and a count the bytes present
        // cannot back is refused like every other.
        let empty = Request::BatchKnn {
            queries: Vec::new(),
            k: 5,
        };
        assert_eq!(decode_request(&encode_request(3, &empty)), Ok((3, empty)));
        let mut e = Writer::new();
        put_header(&mut e, 3, opcode::BATCH_KNN, status::REQUEST);
        for word in [5u32, u32::MAX, 1] {
            word.put(&mut e);
        }
        let err = decode_request(&e.into_bytes()).unwrap_err().1;
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
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
        // And the writing side refuses before a byte goes out.
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &vec![0; MAX_FRAME as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty());
    }
}
