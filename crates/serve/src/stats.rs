//! Server-side traffic counters.

use crate::wire::{Request, ServerCounters};
use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed-atomic counters the server threads bump as they work; a
/// [`ServerStats::snapshot`] becomes the [`ServerCounters`] carried by the
/// `Stats` op and printed at shutdown. Like the index-side
/// `SearchCounters`, these are statistics, not synchronization — totals are
/// exact, momentary attribution is not.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    knn_requests: AtomicU64,
    range_requests: AtomicU64,
    batch_requests: AtomicU64,
    insert_requests: AtomicU64,
    delete_requests: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_queries: AtomicU64,
    max_coalesce: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServerStats {
    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }
    /// Counts one successfully decoded request, in total and under its
    /// kind: a filtered search counts as the KNN or range query it is.
    pub fn record(&self, req: &Request) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let kind = match req {
            Request::Knn { .. } | Request::FilteredKnn { .. } => &self.knn_requests,
            Request::Range { .. } | Request::FilteredRange { .. } => &self.range_requests,
            Request::BatchKnn { .. } => &self.batch_requests,
            Request::Insert { .. } => &self.insert_requests,
            Request::Delete { .. } => &self.delete_requests,
            Request::Ping | Request::Stats | Request::Shutdown | Request::Flush => return,
        };
        kind.fetch_add(1, Ordering::Relaxed);
    }
    /// Counts one typed `OVERLOADED` rejection.
    pub fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }
    /// Counts one malformed frame answered with `ERROR`.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker batch that folded `size ≥ 2` singleton KNNs.
    pub fn record_coalesce(&self, size: u64) {
        self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_queries.fetch_add(size, Ordering::Relaxed);
        self.max_coalesce.fetch_max(size, Ordering::Relaxed);
    }

    /// Point-in-time snapshot; `queue_len` is sampled by the caller.
    pub fn snapshot(&self, queue_len: usize) -> ServerCounters {
        ServerCounters {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            knn_requests: self.knn_requests.load(Ordering::Relaxed),
            range_requests: self.range_requests.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            insert_requests: self.insert_requests.load(Ordering::Relaxed),
            delete_requests: self.delete_requests.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_queries: self.coalesced_queries.load(Ordering::Relaxed),
            max_coalesce: self.max_coalesce.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            queue_len: queue_len as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServerStats::default();
        s.record_connection();
        s.record(&Request::Ping);
        s.record(&Request::FilteredKnn {
            query: vec![0.5],
            k: 3,
            filter: "n = 1".into(),
        });
        s.record_coalesce(4);
        s.record_coalesce(2);
        s.record_overloaded();
        let snap = s.snapshot(3);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.knn_requests, 1);
        assert_eq!(snap.coalesced_batches, 2);
        assert_eq!(snap.coalesced_queries, 6);
        assert_eq!(snap.max_coalesce, 4);
        assert_eq!(snap.overloaded, 1);
        assert_eq!(snap.queue_len, 3);
    }
}
