//! Synchronous client for the mmdr-serve wire protocol.
//!
//! One [`Client`] wraps one TCP connection. The blocking methods
//! ([`Client::search`], [`Client::batch_knn`], …) send a request and wait for its
//! response; the split [`Client::send`]/[`Client::recv`] pair lets a load
//! generator pipeline several requests per connection and match responses
//! by request id. Admission-control rejections surface as the typed
//! [`ServeError::Overloaded`], distinct from transport and server errors.

use crate::error::{Result, ServeError};
use crate::wire::{self, RemoteStats, Request, Response};
use mmdr_index::Target;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connection to an mmdr-serve server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

/// `k` as the wire carries it. A `k` past `u32::MAX` means "everything" on
/// any index a server can hold, so it saturates instead of wrapping
/// (`1 << 32` must not ask for 0 neighbours).
fn wire_k(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(u32::MAX)
}

impl Client {
    /// Connects with a 30 s read/write timeout (a hung server surfaces as
    /// a timeout error, never an indefinite hang).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let default = Some(Duration::from_secs(30));
        stream.set_read_timeout(default)?;
        stream.set_write_timeout(default)?;
        Ok(Self { stream, next_id: 1 })
    }

    /// Overrides the socket read/write timeout (`None` = block forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sends a request without waiting; returns its request id. Pair with
    /// [`recv`](Self::recv) to pipeline.
    pub fn send(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request(id, req);
        wire::write_frame(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Receives the next response frame as `(request_id, response)`.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        let payload = wire::read_frame(&mut self.stream)?.ok_or_else(|| {
            ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Ok(wire::decode_response(&payload)?)
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        let (rid, resp) = self.recv()?;
        if rid != id {
            return Err(ServeError::Unexpected("response id does not match request"));
        }
        Ok(resp)
    }

    /// Lifts the shared rejection/error statuses, handing the op-specific
    /// payload to `f`.
    fn expect<T>(resp: Response, f: impl FnOnce(Response) -> Option<T>) -> Result<T> {
        match resp {
            Response::Overloaded => Err(ServeError::Overloaded),
            Response::Error(msg) => Err(ServeError::Remote(msg)),
            other => f(other).ok_or(ServeError::Unexpected("wrong response variant")),
        }
    }

    /// Round-trip liveness probe; returns the measured latency.
    pub fn ping(&mut self) -> Result<Duration> {
        let t0 = Instant::now();
        Self::expect(self.call(&Request::Ping)?, |r| {
            matches!(r, Response::Pong).then(|| t0.elapsed())
        })
    }

    /// Answers `target` around `query`: `(distance, id)` ascending,
    /// bit-identical to the in-process
    /// [`search`](mmdr_index::VectorIndex::search) — or, with a `filter`,
    /// [`filtered`](mmdr_index::LiveIndex::filtered) — on the same index.
    /// A filter is a predicate in the `--filter` surface syntax (e.g.
    /// `label = "news" && score >= 10`), compiled and planned server-side.
    pub fn search(
        &mut self,
        query: &[f64],
        target: Target,
        filter: Option<&str>,
    ) -> Result<Vec<(f64, u64)>> {
        let query = query.to_vec();
        let req = match (target, filter.map(str::to_string)) {
            (Target::Knn(k), None) => Request::Knn {
                query,
                k: wire_k(k),
            },
            (Target::Knn(k), Some(filter)) => Request::FilteredKnn {
                query,
                k: wire_k(k),
                filter,
            },
            (Target::Range(radius), None) => Request::Range { query, radius },
            (Target::Range(radius), Some(filter)) => Request::FilteredRange {
                query,
                radius,
                filter,
            },
        };
        Self::expect(self.call(&req)?, |r| match r {
            Response::Neighbors(hits) => Some(hits),
            _ => None,
        })
    }

    /// The `k` nearest neighbours of `query`.
    pub fn knn(&mut self, query: &[f64], k: usize) -> Result<Vec<(f64, u64)>> {
        self.search(query, Target::Knn(k), None)
    }

    /// Every indexed point within `radius` of `query`.
    pub fn range(&mut self, query: &[f64], radius: f64) -> Result<Vec<(f64, u64)>> {
        self.search(query, Target::Range(radius), None)
    }

    /// One round trip answering many KNN queries with a shared `k`.
    pub fn batch_knn(&mut self, queries: &[Vec<f64>], k: usize) -> Result<Vec<Vec<(f64, u64)>>> {
        let req = Request::BatchKnn {
            queries: queries.to_vec(),
            k: wire_k(k),
        };
        Self::expect(self.call(&req)?, |r| match r {
            Response::Batch(rows) => Some(rows),
            _ => None,
        })
    }

    /// Inserts one vector. The returned id is durable: the server
    /// acknowledges only after the WAL fsync.
    pub fn insert(&mut self, vector: &[f64]) -> Result<u64> {
        let req = Request::Insert {
            vector: vector.to_vec(),
        };
        Self::expect(self.call(&req)?, |r| match r {
            Response::Inserted(id) => Some(id),
            _ => None,
        })
    }

    /// Deletes one id; `true` when visible state changed.
    pub fn delete(&mut self, id: u64) -> Result<bool> {
        Self::expect(self.call(&Request::Delete { id })?, |r| match r {
            Response::Deleted(changed) => Some(changed),
            _ => None,
        })
    }

    /// Forces a merge (fold the delta, swap epochs, truncate the WAL) and
    /// returns the new serving epoch number.
    pub fn flush(&mut self) -> Result<u64> {
        Self::expect(self.call(&Request::Flush)?, |r| match r {
            Response::Flushed(epoch) => Some(epoch),
            _ => None,
        })
    }

    /// Server identity plus index, buffer-pool, and traffic counters.
    pub fn stats(&mut self) -> Result<RemoteStats> {
        Self::expect(self.call(&Request::Stats)?, |r| match r {
            Response::Stats(s) => Some(*s),
            _ => None,
        })
    }

    /// Asks the server to shut down gracefully. Returns once the server
    /// acknowledges; the drain happens server-side after the ack.
    pub fn shutdown_server(&mut self) -> Result<()> {
        Self::expect(self.call(&Request::Shutdown)?, |r| {
            matches!(r, Response::ShutdownStarted).then_some(())
        })
    }
}
