//! mmdr-serve: a concurrent TCP query server for MMDR indexes.
//!
//! This crate turns any [`mmdr_index::VectorIndex`] — typically opened
//! rebuild-free from an `mmdr-persist` snapshot — into a network service:
//!
//! - **Wire protocol** ([`wire`]): versioned, length-prefixed binary
//!   frames; little-endian integers, IEEE-754 bit-pattern floats, so
//!   served distances are bit-identical to in-process answers.
//! - **Server** ([`Server`]): accept loop → per-connection readers →
//!   bounded job queue → fixed worker pool. Queued singleton KNNs with
//!   equal `k` are coalesced into one `batch_knn` call (answers unchanged,
//!   by the batch executor's contract); a full queue or per-connection
//!   in-flight budget rejects with a typed `OVERLOADED`; graceful shutdown
//!   drains every accepted request before exiting.
//! - **Client** ([`Client`]): blocking helpers plus a `send`/`recv` split
//!   for pipelined load generation.
//!
//! Std-only: no async runtime, no external dependencies.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod queue;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::Client;
pub use error::{Result, ServeError};
pub use server::{shutdown_flag_on_signals, Server, ServerConfig, ServerHandle};
pub use wire::{IngestWire, RemoteStats, Request, Response, ServerCounters, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_index::{KnnHeap, Query, Scratch, SearchCounters, Target, VectorIndex};
    use mmdr_storage::IoStats;
    use std::sync::Arc;

    /// Minimal exact-scan backend for in-crate server tests.
    struct Toy {
        points: Vec<Vec<f64>>,
        io: Arc<IoStats>,
        search: Arc<SearchCounters>,
    }

    impl VectorIndex for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn len(&self) -> usize {
            self.points.len()
        }
        fn dim(&self) -> usize {
            2
        }
        fn search(&self, q: &Query<'_>, _: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
            if q.vector.len() != 2 {
                return Err(mmdr_index::Error::DimensionMismatch {
                    expected: 2,
                    actual: q.vector.len(),
                });
            }
            let (k, radius) = match q.target {
                Target::Knn(k) => (k, f64::INFINITY),
                Target::Range(radius) => (usize::MAX, radius),
            };
            let mut heap = KnnHeap::new(k);
            for (i, p) in self.points.iter().enumerate() {
                let d = p
                    .iter()
                    .zip(q.vector)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if d <= radius {
                    heap.push(d, i as u64);
                }
            }
            self.search.record_dists(self.points.len() as u64);
            Ok(heap.into_sorted_vec())
        }
        fn io_stats(&self) -> Arc<IoStats> {
            Arc::clone(&self.io)
        }
        fn search_counters(&self) -> Arc<SearchCounters> {
            Arc::clone(&self.search)
        }
    }

    fn toy() -> Arc<dyn VectorIndex> {
        Arc::new(Toy {
            points: (0..32).map(|i| vec![i as f64, (i % 7) as f64]).collect(),
            io: IoStats::new(),
            search: SearchCounters::new(),
        })
    }

    #[test]
    fn end_to_end_roundtrip() {
        let index = toy();
        let handle = Server::start_static(
            Arc::clone(&index),
            ("127.0.0.1", 0),
            ServerConfig::default(),
        )
        .expect("start");
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        client.ping().expect("ping");

        let q = vec![3.2, 1.1];
        let remote = client.knn(&q, 5).expect("knn");
        let local = index.knn(&q, 5).expect("local knn");
        assert_eq!(remote.len(), local.len());
        for ((rd, ri), (ld, li)) in remote.iter().zip(&local) {
            assert_eq!(rd.to_bits(), ld.to_bits(), "distance bits differ");
            assert_eq!(ri, li);
        }

        let remote_range = client.range(&q, 4.0).expect("range");
        let local_range = index.range_search(&q, 4.0).expect("local range");
        assert_eq!(remote_range, local_range);

        let stats = client.stats().expect("stats");
        assert_eq!(stats.backend, index.name());
        assert_eq!(stats.len, index.len() as u64);
        assert!(stats.server.requests >= 3);

        let counters = handle.shutdown();
        assert_eq!(counters.connections, 1);
    }

    #[test]
    fn writes_to_a_static_server_are_typed_errors() {
        let handle =
            Server::start_static(toy(), ("127.0.0.1", 0), ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        assert!(matches!(
            client.insert(&[1.0, 2.0]),
            Err(ServeError::Remote(_))
        ));
        assert!(matches!(client.delete(3), Err(ServeError::Remote(_))));
        assert!(matches!(client.flush(), Err(ServeError::Remote(_))));
        let stats = client.stats().expect("stats");
        assert_eq!(stats.server.insert_requests, 1);
        assert_eq!(stats.server.delete_requests, 1);
        assert_eq!(stats.ingest.epoch, 0);
        assert_eq!(stats.ingest.next_id, 32, "read-only next_id mirrors len");
        handle.shutdown();
    }

    #[test]
    fn shutdown_over_the_wire() {
        let handle =
            Server::start_static(toy(), ("127.0.0.1", 0), ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        client.shutdown_server().expect("shutdown ack");
        let counters = handle.shutdown();
        assert_eq!(counters.requests, 1);
    }
}
