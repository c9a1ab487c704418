//! Cost-based strategy selection for filtered search.
//!
//! Three physical strategies answer a filtered KNN query, all of them exact
//! (bit-identical to post-filtering the unfiltered full ranking):
//!
//! * [`Strategy::PostFilter`] — run unfiltered `knn` with an adaptively
//!   doubled `k`, drop non-matching hits. Only for a filter that rejects
//!   next to nothing, where the first fetch already holds k passing rows:
//!   every doubling re-runs the whole search, and a pushed-down filter
//!   evaluates no failing row, so anywhere below that the k-doubling is the
//!   dearer of the two (on the benchmark's `filtered_knn` corpus at 60 %
//!   selectivity: 182.8 pages and ≈ 5 700 distances a query against 158.8
//!   and ≈ 3 000).
//! * [`Strategy::Pushdown`] — `search` with the compiled bitmap plus
//!   sketch-derived cluster hints as the query's filter. The default:
//!   rejected rows never enter the heap, pruned clusters are never read.
//! * [`Strategy::PrefilterRank`] — when the passing set is tiny, rank the
//!   whole set (a filtered `search` with `k = matches`) and truncate. Sidesteps
//!   the early-termination machinery entirely for point-lookup-like
//!   filters.
//!
//! [`Planner::plan`] picks by selectivity: tiny passing sets go to
//! PrefilterRank, selectivity above an adaptive threshold goes to
//! PostFilter, the rest push down. The threshold starts at
//! [`Planner::DEFAULT_POSTFILTER_THRESHOLD`], the top of its range, and
//! follows observed pages/query (EWMA per strategy): while post-filter
//! queries touch fewer pages than pushed-down ones it sits lower and more
//! queries post-filter; once they no longer do it is back at the top.
//! Every decision lands in a [`PlannerCounters`] slot that serving exposes
//! through STATS.

use crate::error::Result;
use crate::predicate::Predicate;
use crate::sketch::AttrSketches;
use mmdr_index::{Query, RowFilter, Scratch, SearchFilter, Target, VectorIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The physical strategy a query ran with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Unfiltered KNN with adaptive k-doubling, filter applied per hit.
    PostFilter,
    /// Filtered KNN with the bitmap (and cluster hints) pushed down.
    Pushdown,
    /// Rank the entire passing set, truncate to k.
    PrefilterRank,
}

/// Monotonic per-strategy decision counts (mirrored into QueryStats).
#[derive(Debug, Default)]
pub struct PlannerCounters {
    post_filter: AtomicU64,
    pushdown: AtomicU64,
    prefilter_rank: AtomicU64,
}

/// A point-in-time copy of [`PlannerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerSnapshot {
    /// Queries planned as [`Strategy::PostFilter`].
    pub post_filter: u64,
    /// Queries planned as [`Strategy::Pushdown`].
    pub pushdown: u64,
    /// Queries planned as [`Strategy::PrefilterRank`].
    pub prefilter_rank: u64,
}

impl PlannerCounters {
    fn record(&self, s: Strategy) {
        match s {
            Strategy::PostFilter => &self.post_filter,
            Strategy::Pushdown => &self.pushdown,
            Strategy::PrefilterRank => &self.prefilter_rank,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Current counts.
    pub fn snapshot(&self) -> PlannerSnapshot {
        PlannerSnapshot {
            post_filter: self.post_filter.load(Ordering::Relaxed),
            pushdown: self.pushdown.load(Ordering::Relaxed),
            prefilter_rank: self.prefilter_rank.load(Ordering::Relaxed),
        }
    }
}

/// EWMA pages/query per strategy; drives the adaptive threshold.
#[derive(Debug, Clone, Copy, Default)]
struct CostHistory {
    post_filter: Option<f64>,
    pushdown: Option<f64>,
}

/// The query planner: strategy choice, decision counters, cost feedback.
/// One per served index; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Planner {
    counters: PlannerCounters,
    history: Mutex<CostHistory>,
}

/// A compiled, planned filter ready for execution against one index.
#[derive(Debug)]
pub struct PlannedFilter {
    /// The source predicate.
    pub predicate: Predicate,
    /// The search filter (bitmap + cluster hints) backends consume.
    pub filter: SearchFilter,
    /// Rows passing the predicate.
    pub matches: u64,
    /// Strategy for KNN execution.
    pub strategy: Strategy,
}

impl Planner {
    /// Starting selectivity above which PostFilter wins: the ceiling of
    /// [`postfilter_threshold`](Self::postfilter_threshold)'s clamp.
    pub const DEFAULT_POSTFILTER_THRESHOLD: f64 = 0.9;
    /// EWMA weight of each new pages/query observation.
    const EWMA_ALPHA: f64 = 0.2;

    /// New planner with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decision counters (for STATS).
    pub fn counters(&self) -> &PlannerCounters {
        &self.counters
    }

    /// Attaches the sketch-derived cluster hints for `predicate` to its
    /// compiled bitmap `rows` and picks a strategy for `target` over `n`
    /// rows. `sketches` is `None` when the index has no cluster structure
    /// to hint (plain SeqScan). A range query always
    /// pushes down: it has no k to double, so PostFilter has no cost edge
    /// and PrefilterRank degenerates into the same scan; cluster pruning
    /// still applies.
    pub fn plan(
        &self,
        predicate: Predicate,
        rows: RowFilter,
        sketches: Option<&AttrSketches>,
        n: u64,
        target: Target,
    ) -> Result<PlannedFilter> {
        let matches = rows.count();
        let filter = match sketches {
            Some(sk) => {
                let (alive, outliers_alive) = sk.prune(&predicate)?;
                SearchFilter::with_clusters(rows, alive, outliers_alive)
            }
            None => SearchFilter::from_rows(rows),
        };
        let strategy = match target {
            Target::Knn(k) => self.choose(n, k, matches),
            Target::Range(_) => Strategy::Pushdown,
        };
        self.counters.record(strategy);
        Ok(PlannedFilter {
            predicate,
            filter,
            matches,
            strategy,
        })
    }

    /// [`plan`](Self::plan) for a KNN query.
    pub fn plan_knn(
        &self,
        predicate: Predicate,
        rows: RowFilter,
        sketches: Option<&AttrSketches>,
        n: u64,
        k: usize,
    ) -> Result<PlannedFilter> {
        self.plan(predicate, rows, sketches, n, Target::Knn(k))
    }

    /// Pure strategy rule (no counter side effects):
    /// tiny passing sets rank outright, near-pass-everything filters run
    /// unfiltered and drop, everything else pushes down.
    pub fn choose(&self, n: u64, k: usize, matches: u64) -> Strategy {
        if matches <= (k as u64).saturating_mul(4).max(64) {
            return Strategy::PrefilterRank;
        }
        if n == 0 {
            return Strategy::Pushdown;
        }
        let selectivity = matches as f64 / n as f64;
        if selectivity >= self.postfilter_threshold() {
            Strategy::PostFilter
        } else {
            Strategy::Pushdown
        }
    }

    /// Feeds an observed cost (pages read, or any monotone work proxy) back
    /// into the per-strategy EWMA.
    pub fn observe(&self, strategy: Strategy, pages: u64) {
        let mut h = self.history.lock().expect("planner history poisoned");
        let slot = match strategy {
            Strategy::PostFilter => &mut h.post_filter,
            Strategy::Pushdown => &mut h.pushdown,
            // PrefilterRank is chosen on size alone; no feedback needed.
            Strategy::PrefilterRank => return,
        };
        let x = pages as f64;
        *slot = Some(match *slot {
            Some(prev) => prev + Self::EWMA_ALPHA * (x - prev),
            None => x,
        });
    }

    /// The adaptive PostFilter selectivity threshold: the default scaled
    /// by the ratio of observed post-filter cost to pushdown cost, clamped
    /// to `[0.1, 0.9]`. Costlier pushdown → lower threshold → post-filter
    /// kicks in earlier; pushdown as cheap or cheaper → the default.
    pub fn postfilter_threshold(&self) -> f64 {
        let h = self.history.lock().expect("planner history poisoned");
        match (h.post_filter, h.pushdown) {
            (Some(post), Some(push)) if push > 0.0 => {
                (Self::DEFAULT_POSTFILTER_THRESHOLD * (post / push)).clamp(0.1, 0.9)
            }
            _ => Self::DEFAULT_POSTFILTER_THRESHOLD,
        }
    }
}

/// Executes a planned filtered KNN. Every strategy returns the exact
/// filtered top-k: ascending distance, ties toward smaller id — the same
/// ordering as post-filtering the unfiltered full ranking.
pub fn run_filtered_knn(
    index: &dyn VectorIndex,
    query: &[f64],
    k: usize,
    plan: &PlannedFilter,
) -> mmdr_index::Result<Vec<(f64, u64)>> {
    let want = k.min(plan.matches as usize);
    let filtered = |k| {
        let query = Query {
            vector: query,
            target: Target::Knn(k),
            filter: Some(&plan.filter),
        };
        index.search(&query, &mut Scratch::default())
    };
    match plan.strategy {
        Strategy::Pushdown => filtered(k),
        Strategy::PrefilterRank => {
            // Rank the whole passing set, keep the front. Exact because the
            // filtered top-m is a prefix-superset of the filtered top-k.
            let mut all = filtered(plan.matches as usize)?;
            all.truncate(k);
            Ok(all)
        }
        Strategy::PostFilter => {
            // Unfiltered search with doubling k; the filtered prefix of an
            // unfiltered top-fetch IS the filtered top-k once it has k hits
            // or the index is exhausted.
            let n = index.len();
            let mut fetch = k.saturating_mul(2).max(16).min(n);
            loop {
                let full = index.knn(query, fetch)?;
                let exhausted = full.len() < fetch || fetch >= n;
                let hits: Vec<(f64, u64)> = full
                    .into_iter()
                    .filter(|&(_, id)| plan.filter.passes(id))
                    .take(k)
                    .collect();
                if hits.len() >= want || exhausted {
                    return Ok(hits);
                }
                fetch = (fetch * 2).min(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_by_selectivity() {
        let p = Planner::new();
        // Tiny passing set → rank it outright.
        assert_eq!(p.choose(10_000, 10, 40), Strategy::PrefilterRank);
        assert_eq!(p.choose(10_000, 4, 64), Strategy::PrefilterRank);
        // Passing almost everything → post-filter.
        assert_eq!(p.choose(10_000, 10, 9_500), Strategy::PostFilter);
        // Anything the filter cuts into → pushdown.
        assert_eq!(p.choose(10_000, 10, 1_000), Strategy::Pushdown);
        assert_eq!(p.choose(10_000, 10, 6_000), Strategy::Pushdown);
        assert_eq!(p.counters().snapshot(), PlannerSnapshot::default());
    }

    #[test]
    fn threshold_adapts_to_observed_cost() {
        let p = Planner::new();
        assert_eq!(p.postfilter_threshold(), 0.9);
        // Pushdown reading 5x the pages of post-filter: post-filter should
        // kick in at lower selectivity (threshold drops toward 0.1).
        for _ in 0..50 {
            p.observe(Strategy::PostFilter, 100);
            p.observe(Strategy::Pushdown, 500);
        }
        assert!(
            p.postfilter_threshold() < 0.5,
            "pushdown costly → post-filter more"
        );
        assert!(p.postfilter_threshold() >= 0.1);
        // Pushdown now far cheaper: back to the top, more queries push down.
        for _ in 0..200 {
            p.observe(Strategy::Pushdown, 10);
        }
        assert_eq!(
            p.postfilter_threshold(),
            0.9,
            "pushdown cheap → push down more"
        );
    }

    #[test]
    fn counters_track_decisions() {
        let p = Planner::new();
        let rows = RowFilter::from_fn(1000, |id| id % 20 != 0);
        let pred = Predicate { terms: vec![] };
        // plan_knn with an empty-term predicate is fine at this layer; the
        // parser is what forbids empty predicates.
        let plan = p
            .plan_knn(pred.clone(), rows.clone(), None, 1000, 10)
            .unwrap();
        assert_eq!(plan.strategy, Strategy::PostFilter, "95% selectivity");
        assert_eq!(plan.matches, 950);
        let tiny = RowFilter::from_fn(1000, |id| id < 8);
        let plan2 = p.plan_knn(pred.clone(), tiny, None, 1000, 10).unwrap();
        assert_eq!(plan2.strategy, Strategy::PrefilterRank);
        let half = RowFilter::from_fn(1000, |id| id % 2 == 0);
        let ranged = p.plan(pred, half, None, 1000, Target::Range(1.0)).unwrap();
        assert_eq!(ranged.strategy, Strategy::Pushdown);
        assert_eq!(ranged.matches, 500);
        let snap = p.counters().snapshot();
        assert_eq!(snap.post_filter, 1);
        assert_eq!(snap.prefilter_rank, 1);
        assert_eq!(snap.pushdown, 1);
    }
}
