//! The [`VectorIndex`] trait and the shared batch-query executor.

use crate::error::Result;
use crate::query::{Query, Scratch, Target};
use crate::stats::QueryStats;
use mmdr_linalg::{map_ranges_with, ParConfig};
use mmdr_storage::PoolStats;

/// Queries per work chunk in [`batch_queries`]. Much smaller than the
/// dataset-side `PAR_CHUNK`: one query is already substantial work, and
/// small chunks keep the dynamic scheduler's load balanced. Chunk
/// boundaries never depend on the thread count, so neither do answers.
pub const QUERY_CHUNK: usize = 8;

/// A KNN backend over one dataset's reduced (or raw) representations.
///
/// # Contract
///
/// - [`search`](VectorIndex::search) is the door every query passes: it
///   checks the query ([`Query::validate`]), answers `Knn(0)` and an empty
///   index with nothing, and hands the rest to
///   [`answer`](VectorIndex::answer), the one query method a backend
///   implements. `search`, [`knn`](VectorIndex::knn),
///   [`range_search`](VectorIndex::range_search) and
///   [`batch_knn`](VectorIndex::batch_knn) must not be overridden.
/// - `search` takes `&self`: whatever a query carries from one call to the
///   next lives in the caller's [`Scratch`], never in the index, and is
///   buffer space only — the pages a query pins end with it — so any
///   `Scratch`, fresh or used, gives the same answer.
/// - Answers are `(distance, point_id)` sorted ascending by distance, ties
///   broken toward the smaller point id (the [`crate::KnnHeap`] ordering);
///   a range search returns every hit within the radius in that order. A
///   [`Query::filter`] is honoured exactly (see its contract) or rejected
///   with [`FiltersUnavailable`](crate::Error::FiltersUnavailable).
/// - Answers are deterministic functions of `(index contents, query)` —
///   in particular they must not depend on buffer-pool state or on how
///   many other queries run concurrently. This is what lets
///   [`batch_queries`] promise bit-identical-to-serial results at every
///   thread count.
/// - Cost is counted once, where it happens — a page fetch in its buffer
///   pool's shard, a distance in the index's own [`crate::SearchCounters`]
///   — and read through two methods: [`pool_stats`](VectorIndex::pool_stats)
///   lists the pools, [`query_stats`](VectorIndex::query_stats) sums them
///   with the counters ([`QueryStats::of`]), so the two always agree.
///   Nothing resets: a phase's cost is a difference of two readings.
pub trait VectorIndex: Send + Sync {
    /// Short display name ("seqscan", "idistance", …) used by the CLI and
    /// the bench reports.
    fn name(&self) -> &'static str;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Dimensionality of queries the index accepts.
    fn dim(&self) -> usize;

    /// True when no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers `query`, ascending by `(distance, point_id)`: refuses it
    /// when [`Query::validate`] does, answers `Knn(0)` and an empty index
    /// with nothing, and asks [`answer`](VectorIndex::answer) otherwise.
    fn search(&self, query: &Query<'_>, scratch: &mut Scratch) -> Result<Vec<(f64, u64)>> {
        query.validate(self.dim())?;
        if query.target == Target::Knn(0) || self.is_empty() {
            return Ok(Vec::new());
        }
        self.answer(query, scratch)
    }

    /// Answers a query [`search`](VectorIndex::search) let through: it is
    /// valid for this index's [`dim`](VectorIndex::dim), a KNN's `k` is at
    /// least 1, and the index holds at least one point. Queries go through
    /// `search`; only a wrapper whose own `search` already ran forwards to
    /// an inner index's `answer`.
    fn answer(&self, query: &Query<'_>, scratch: &mut Scratch) -> Result<Vec<(f64, u64)>>;

    /// The k nearest neighbours of `query`.
    fn knn(&self, query: &[f64], k: usize) -> Result<Vec<(f64, u64)>> {
        self.search(&Query::new(query, Target::Knn(k)), &mut Scratch::default())
    }

    /// Every point within `radius` of `query`.
    fn range_search(&self, query: &[f64], radius: f64) -> Result<Vec<(f64, u64)>> {
        self.search(
            &Query::new(query, Target::Range(radius)),
            &mut Scratch::default(),
        )
    }

    /// [`knn`](VectorIndex::knn) for every query in `queries`, through
    /// [`batch_queries`].
    fn batch_knn(
        &self,
        queries: &[Vec<f64>],
        k: usize,
        par: &ParConfig,
    ) -> Result<Vec<Vec<(f64, u64)>>> {
        batch_queries(queries, par, |q, s| {
            self.search(&Query::new(q, Target::Knn(k)), s)
        })
    }

    /// Per-pool buffer statistics: one [`PoolStats`] snapshot per buffer
    /// pool the backend owns (tree pools, heap pools, one per cluster tree
    /// for forests), in a stable order. Remote callers (the query server's
    /// `Stats` op) use this to see the same shard-level hit/miss/eviction
    /// accounting the local harnesses print. Backends without paged storage
    /// return an empty vector.
    fn pool_stats(&self) -> Vec<PoolStats> {
        Vec::new()
    }

    /// Snapshot of the cumulative query cost: the pools
    /// [`pool_stats`](VectorIndex::pool_stats) lists, summed with the
    /// backend's search counters. Backends that count nothing report zeros.
    fn query_stats(&self) -> QueryStats {
        QueryStats::default()
    }
}

/// The batch executor: splits `queries` into fixed [`QUERY_CHUNK`]-sized
/// chunks, fans the chunks across `par.num_threads` scoped worker threads
/// (workers pull chunks dynamically), answers each chunk's queries in turn
/// with `run` and one [`Scratch`] for the chunk, and concatenates the
/// results in input order.
///
/// With `run` a call to [`VectorIndex::search`], each row is exactly the
/// serial answer for that query: thread count affects only wall-clock
/// time. Workers read pages as shared `Arc<Page>` handles out of the
/// sharded buffer pool, so they hold no pool lock while computing
/// distances and do not serialize on page access.
pub fn batch_queries<R: Send>(
    queries: &[Vec<f64>],
    par: &ParConfig,
    run: impl Fn(&[f64], &mut Scratch) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let chunk_results = map_ranges_with(queries.len(), QUERY_CHUNK, par, |range| {
        let mut scratch = Scratch::default();
        range
            .map(|i| run(&queries[i], &mut scratch))
            .collect::<Result<Vec<_>>>()
    });
    let mut out = Vec::with_capacity(queries.len());
    for chunk in chunk_results {
        out.extend(chunk?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::KnnHeap;
    use crate::Error;

    /// Minimal in-memory backend: 1-d points, exact scan.
    struct Toy {
        points: Vec<f64>,
    }

    impl VectorIndex for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn len(&self) -> usize {
            self.points.len()
        }
        fn dim(&self) -> usize {
            1
        }
        fn answer(&self, query: &Query<'_>, _: &mut Scratch) -> Result<Vec<(f64, u64)>> {
            assert!(query.target != Target::Knn(0) && !self.points.is_empty());
            let q = query.vector[0];
            let (k, radius) = match query.target {
                Target::Knn(k) => (k, f64::INFINITY),
                Target::Range(radius) => (usize::MAX, radius),
            };
            let mut heap = KnnHeap::new(k);
            for (i, &p) in self.points.iter().enumerate() {
                let d = (p - q).abs();
                if d <= radius && query.filter.is_none_or(|f| f.passes(i as u64)) {
                    heap.push(d, i as u64);
                }
            }
            Ok(heap.into_sorted_vec())
        }
    }

    fn toy() -> Toy {
        Toy {
            points: (0..100).map(|i| i as f64 * 0.25).collect(),
        }
    }

    #[test]
    fn provided_batch_matches_serial_at_every_thread_count() {
        let index = toy();
        let queries: Vec<Vec<f64>> = (0..33).map(|i| vec![i as f64 * 0.7]).collect();
        let serial: Vec<Vec<(f64, u64)>> =
            queries.iter().map(|q| index.knn(q, 5).unwrap()).collect();
        for threads in [1, 2, 4, 8] {
            let batch = index
                .batch_knn(&queries, 5, &ParConfig::threads(threads))
                .unwrap();
            assert_eq!(batch, serial, "threads {threads}");
        }
    }

    #[test]
    fn batch_propagates_errors() {
        let index = toy();
        let queries = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(index.batch_knn(&queries, 3, &ParConfig::serial()).is_err());
    }

    /// `Toy::answer` asserts what `search` promises it.
    #[test]
    fn search_refuses_a_bad_query_and_answers_k_zero_before_answer_runs() {
        let index = toy();
        assert!(matches!(
            index.knn(&[0.0, 1.0], 1),
            Err(Error::DimensionMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(matches!(
            index.knn(&[f64::NAN], 0),
            Err(Error::InvalidQuery)
        ));
        assert!(matches!(
            index.range_search(&[0.0], -1.0),
            Err(Error::InvalidRadius)
        ));
        assert!(index.knn(&[0.0], 0).unwrap().is_empty());
        let empty = Toy { points: Vec::new() };
        assert!(empty.knn(&[0.0], 3).unwrap().is_empty());
        assert!(empty.range_search(&[0.0], 1.0).unwrap().is_empty());
    }

    #[test]
    fn works_through_dyn_dispatch() {
        let boxed: Box<dyn VectorIndex> = Box::new(toy());
        assert_eq!(boxed.name(), "toy");
        assert_eq!(boxed.len(), 100);
        assert_eq!(boxed.dim(), 1);
        assert!(!boxed.is_empty());
        let r = boxed.knn(&[0.0], 2).unwrap();
        assert_eq!(r, vec![(0.0, 0), (0.25, 1)]);
        let hits = boxed.range_search(&[0.0], 0.6).unwrap();
        assert_eq!(hits.len(), 3);
        let batch = boxed
            .batch_knn(&[vec![0.0]], 1, &ParConfig::threads(4))
            .unwrap();
        assert_eq!(batch, vec![vec![(0.0, 0)]]);
        assert!(boxed.pool_stats().is_empty(), "toy backend has no pools");
        assert_eq!(boxed.query_stats(), QueryStats::default(), "nor counters");
    }
}
