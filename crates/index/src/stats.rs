//! Uniform query-cost accounting.

use mmdr_storage::IoStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// CPU-side search counters, the complement of [`IoStats`]' page counters.
///
/// Shared `Arc`-style like [`IoStats`] so a harness can hold a handle while
/// the index owns the search path; ordering is relaxed — these are
/// statistics, not synchronization — so under concurrent batch queries the
/// totals are exact but attribution to individual queries is not.
#[derive(Debug, Default)]
pub struct SearchCounters {
    dist_computations: AtomicU64,
    candidates_refined: AtomicU64,
}

impl SearchCounters {
    /// Creates a zeroed, shareable counter set.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records `n` point-to-point distance evaluations.
    pub fn record_dists(&self, n: u64) {
        self.dist_computations.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidates offered to the result set: rows that got
    /// past every test that could reject them unseen (lower-bound pruning,
    /// tombstones, the filter) and reached [`KnnHeap::push`](crate::KnnHeap::push).
    /// A row the filter or a tombstone hides is not a candidate. A scheme
    /// that offers every row it evaluates (the sequential scan, iDistance)
    /// ticks this once per distance; the hybrid tree abandons a distance
    /// part-way once it exceeds the heap's reach, and ticks it for the rest.
    pub fn record_refined(&self, n: u64) {
        self.candidates_refined.fetch_add(n, Ordering::Relaxed);
    }

    /// Distance evaluations so far.
    pub fn dist_computations(&self) -> u64 {
        self.dist_computations.load(Ordering::Relaxed)
    }

    /// Candidates refined so far.
    pub fn candidates_refined(&self) -> u64 {
        self.candidates_refined.load(Ordering::Relaxed)
    }

    /// Resets both counters.
    pub fn reset(&self) {
        self.dist_computations.store(0, Ordering::Relaxed);
        self.candidates_refined.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of a backend's cumulative query cost, combining
/// [`SearchCounters`] with the storage layer's [`IoStats`].
///
/// All four backends populate every field through the same code paths (the
/// buffer pool counts page/node touches, the search loops count distances
/// and refinements), so `QueryStats` from different backends compare like
/// with like — the property the paper's Figure 9/10 plots assume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Point-to-point distance evaluations.
    pub dist_computations: u64,
    /// Logical page/node touches (buffer hits + misses).
    pub pages_touched: u64,
    /// Logical page reads (buffer misses).
    pub page_reads: u64,
    /// Candidates that survived pruning, tombstones and the filter and were
    /// offered to the result set ([`SearchCounters::record_refined`]); never
    /// more than `dist_computations`.
    pub candidates_refined: u64,
    /// Pages physically fetched from the backing source (nonzero only for
    /// out-of-core, demand-read opens; a resident index never re-fetches).
    pub physical_reads: u64,
    /// Misses served from the readahead window instead of a fresh fetch.
    pub readahead_hits: u64,
    /// Physical fetches that failed (I/O error, short read, bad checksum).
    pub read_errors: u64,
    /// Filtered queries the planner answered by post-filtering an
    /// unfiltered search. Zero unless a query planner runs in front of the
    /// index (serving populates these from its planner's counters; plain
    /// snapshots leave them zero).
    pub planner_post_filter: u64,
    /// Filtered queries answered by bitmap pushdown.
    pub planner_pushdown: u64,
    /// Filtered queries answered by ranking the whole passing set.
    pub planner_prefilter_rank: u64,
}

impl QueryStats {
    /// Snapshots the given counters.
    pub fn snapshot(search: &SearchCounters, io: &IoStats) -> Self {
        Self {
            dist_computations: search.dist_computations(),
            candidates_refined: search.candidates_refined(),
            pages_touched: io.accesses(),
            page_reads: io.reads(),
            physical_reads: io.physical_reads(),
            readahead_hits: io.readahead_hits(),
            read_errors: io.read_errors(),
            planner_post_filter: 0,
            planner_pushdown: 0,
            planner_prefilter_rank: 0,
        }
    }

    /// Field-wise difference against an earlier snapshot (per-query or
    /// per-batch cost between two points in time).
    pub fn since(&self, earlier: &QueryStats) -> QueryStats {
        QueryStats {
            dist_computations: self.dist_computations - earlier.dist_computations,
            pages_touched: self.pages_touched - earlier.pages_touched,
            page_reads: self.page_reads - earlier.page_reads,
            candidates_refined: self.candidates_refined - earlier.candidates_refined,
            physical_reads: self.physical_reads - earlier.physical_reads,
            readahead_hits: self.readahead_hits - earlier.readahead_hits,
            read_errors: self.read_errors - earlier.read_errors,
            planner_post_filter: self.planner_post_filter - earlier.planner_post_filter,
            planner_pushdown: self.planner_pushdown - earlier.planner_pushdown,
            planner_prefilter_rank: self.planner_prefilter_rank - earlier.planner_prefilter_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = SearchCounters::new();
        c.record_dists(3);
        c.record_dists(2);
        c.record_refined(1);
        assert_eq!(c.dist_computations(), 5);
        assert_eq!(c.candidates_refined(), 1);
        c.reset();
        assert_eq!(c.dist_computations(), 0);
        assert_eq!(c.candidates_refined(), 0);
    }

    #[test]
    fn snapshot_and_delta() {
        let c = SearchCounters::new();
        let io = IoStats::new();
        c.record_dists(10);
        io.record_access();
        io.record_read();
        let before = QueryStats::snapshot(&c, &io);
        c.record_dists(7);
        c.record_refined(2);
        io.record_access();
        let after = QueryStats::snapshot(&c, &io);
        let delta = after.since(&before);
        assert_eq!(delta.dist_computations, 7);
        assert_eq!(delta.candidates_refined, 2);
        assert_eq!(delta.pages_touched, 1);
        assert_eq!(delta.page_reads, 0);
    }
}
