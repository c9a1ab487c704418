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
pub use wire::{RemoteStats, Request, Response, ServerCounters, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_index::{KnnHeap, Query, Scratch, VectorIndex};
    use std::sync::Arc;

    /// Minimal exact-scan backend for in-crate server tests: `coords` holds
    /// the points back to back, `dim` coordinates each.
    struct Toy {
        dim: usize,
        coords: Vec<f64>,
    }

    impl VectorIndex for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn len(&self) -> usize {
            self.coords.len() / self.dim
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn answer(&self, q: &Query<'_>, _: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
            let mut heap = KnnHeap::for_target(q.target);
            for (i, p) in self.coords.chunks(self.dim).enumerate() {
                let d = p
                    .iter()
                    .zip(q.vector)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                heap.push(d, i as u64);
            }
            Ok(heap.into_sorted_vec())
        }
    }

    fn toy_over(dim: usize, coords: Vec<f64>) -> Arc<dyn VectorIndex> {
        Arc::new(Toy { dim, coords })
    }

    fn toy() -> Arc<dyn VectorIndex> {
        toy_over(
            2,
            (0..32).flat_map(|i| [i as f64, (i % 7) as f64]).collect(),
        )
    }

    /// A range answer of 1 050 000 hits encodes to 16.8 MB, over the 16 MiB
    /// frame. It must reach the client as a typed error, on a connection
    /// that stays in sync: not as a frame the client's `read_frame`
    /// refuses, and not as a worker lost to an assertion.
    #[test]
    fn an_answer_over_the_frame_limit_is_a_typed_error_and_the_connection_lives() {
        let line = toy_over(1, (0..1_050_000).map(|i| i as f64).collect());
        let handle =
            Server::start_static(line, ("127.0.0.1", 0), ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let err = client.range(&[0.0], 2e6).expect_err("too large to frame");
        assert!(
            matches!(&err, ServeError::Remote(m) if m.contains("exceeds the 16 MiB frame limit")),
            "{err}"
        );
        client.ping().expect("ping on the same connection");
        assert_eq!(client.knn(&[0.0], 3).expect("knn").len(), 3);
        handle.shutdown();
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
