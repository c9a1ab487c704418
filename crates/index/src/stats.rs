//! Uniform query-cost accounting.

use mmdr_storage::BufferPool;
use std::sync::atomic::{AtomicU64, Ordering};

/// CPU-side search counters, the complement of a buffer pool's page
/// counts.
///
/// Each index owns its counters by value and ticks them where the work
/// happens; [`QueryStats::of`] sums them with the index's pools. They count
/// from the index's creation and are never reset. Atomics, so concurrent
/// `&self` searches count exactly; ordering is relaxed — these are
/// statistics, not synchronization — so under concurrent batch queries the
/// totals are exact but attribution to individual queries is not.
#[derive(Debug, Default)]
pub struct SearchCounters {
    dist_computations: AtomicU64,
    candidates_refined: AtomicU64,
}

impl SearchCounters {
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
}

/// A point-in-time snapshot of a backend's cumulative query cost: its
/// buffer pools' counts summed with its [`SearchCounters`]
/// ([`QueryStats::of`]).
///
/// All three backends populate every field through the same code paths (the
/// buffer pool counts page/node touches, the search loops count distances
/// and refinements), so `QueryStats` from different backends compare like
/// with like — the property the paper's Figure 9/10 plots assume. The
/// counts run from the pools' creation, an open's own fetches included; the
/// cost of a phase is the difference of two snapshots
/// ([`since`](Self::since)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Point-to-point distance evaluations.
    pub dist_computations: u64,
    /// Logical page/node touches (buffer hits + misses).
    pub pages_touched: u64,
    /// Logical page reads (buffer misses, served from memory or the file).
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
    /// The cost an index has counted so far: every fetch its `pools` made
    /// (a touch each, a read per miss, and what their disks read
    /// physically) and every distance its `counters` recorded. A sum over
    /// live counters, never collected into a list: a filtered query asks
    /// for it twice.
    pub fn of<'a>(
        pools: impl IntoIterator<Item = &'a BufferPool>,
        counters: impl IntoIterator<Item = &'a SearchCounters>,
    ) -> Self {
        let mut stats = Self::default();
        for pool in pools {
            let (shards, io) = (pool.totals(), pool.io());
            stats.pages_touched += shards.hits + shards.misses;
            stats.page_reads += shards.misses;
            stats.physical_reads += io.physical_reads;
            stats.readahead_hits += io.readahead_hits;
            stats.read_errors += io.read_errors;
        }
        for c in counters {
            stats.dist_computations += c.dist_computations();
            stats.candidates_refined += c.candidates_refined();
        }
        stats
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
    use mmdr_storage::{DiskManager, Page};
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let c = SearchCounters::default();
        c.record_dists(3);
        c.record_dists(2);
        c.record_refined(1);
        assert_eq!(c.dist_computations(), 5);
        assert_eq!(c.candidates_refined(), 1);
    }

    #[test]
    fn snapshot_and_delta() {
        let pools = [(); 2].map(|_| {
            let disk = DiskManager::from_pages(vec![Arc::new(Page::new())]);
            BufferPool::new(disk, 4).unwrap()
        });
        let (a, b) = (SearchCounters::default(), SearchCounters::default());
        a.record_dists(10);
        pools[0].page(0).unwrap();
        pools[0].page(0).unwrap();
        let before = QueryStats::of(&pools, [&a, &b]);
        assert_eq!((before.pages_touched, before.page_reads), (2, 1));
        b.record_dists(7);
        a.record_refined(2);
        pools[0].page(0).unwrap();
        let after = QueryStats::of(&pools, [&a, &b]);
        assert_eq!(after.dist_computations, 17);
        let delta = after.since(&before);
        assert_eq!(delta.dist_computations, 7);
        assert_eq!(delta.candidates_refined, 2);
        assert_eq!(delta.pages_touched, 1);
        assert_eq!(delta.page_reads, 0, "a page in a frame is a hit");
    }
}
