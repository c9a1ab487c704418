//! Filtered serving: the one predicate → bitmap → plan → run → observe
//! body, and the read-only handle over a static snapshot that uses it.
//!
//! [`SnapshotLive`] is the attribute-aware counterpart of
//! [`mmdr_index::ReadOnlyLive`]: it serves a reopened snapshot's index
//! read-only (writes are typed rejections) while answering
//! [`LiveIndex::filtered`] through the same pipeline the WAL-backed
//! [`IngestEngine`](crate::IngestEngine) runs — so `mmdr serve` without
//! `--wal` supports `--filter` queries whenever the snapshot carries an
//! ATTRS section.

use crate::ingest::build_sketches;
use crate::Result;
use mmdr_core::ReductionResult;
use mmdr_index::{LiveIndex, PinnedEpoch, Query, Scratch, Target, VectorIndex};
use mmdr_query::{run_filtered_knn, AttrSketches, AttrStore, Planner, Predicate};
use std::ops::Deref;
use std::sync::Arc;

/// Answers one filtered query against `index`: parses `predicate`,
/// compiles it against `store` into a row bitmap, prunes clusters through
/// `sketches`, lets `planner` pick a strategy, runs it, and feeds the
/// pages a KNN touched back into the planner's cost history — touched, not
/// read: a warm pool reads nothing whatever the strategy costs, and what a
/// strategy saves is fetches. Shared by the engine and [`SnapshotLive`]; a
/// store with no columns is the typed
/// [`FiltersUnavailable`](mmdr_index::Error::FiltersUnavailable) rejection.
///
/// `store` may be a lock guard: it is released once the plan exists,
/// before the search runs.
pub(crate) fn filtered(
    planner: &Planner,
    store: impl Deref<Target = AttrStore>,
    sketches: Option<&AttrSketches>,
    index: &dyn VectorIndex,
    vector: &[f64],
    target: Target,
    predicate: &str,
) -> mmdr_index::Result<Vec<(f64, u64)>> {
    if store.is_empty() {
        return Err(mmdr_index::Error::FiltersUnavailable);
    }
    let pred = Predicate::parse(predicate)?;
    pred.validate(&store)?;
    let rows = pred.compile(&store)?;
    let plan = planner.plan(pred, rows, sketches, index.len() as u64, target)?;
    drop(store);
    match target {
        Target::Knn(k) => {
            let before = index.query_stats().pages_touched;
            let hits = run_filtered_knn(index, vector, k, &plan)?;
            let pages = index.query_stats().pages_touched.saturating_sub(before);
            planner.observe(plan.strategy, pages);
            Ok(hits)
        }
        Target::Range(_) => {
            let query = Query {
                vector,
                target,
                filter: Some(&plan.filter),
            };
            index.search(&query, &mut Scratch::default())
        }
    }
}

/// A read-only [`LiveIndex`] over a static snapshot with filtered-search
/// support: queries (plain and filtered) serve epoch 0 forever, writes are
/// typed [`ReadOnly`](mmdr_index::Error::ReadOnly) rejections.
pub struct SnapshotLive {
    index: Arc<dyn VectorIndex>,
    attrs: AttrStore,
    sketches: Option<Arc<AttrSketches>>,
    planner: Planner,
}

impl SnapshotLive {
    /// Wraps a reopened snapshot. `attrs` is the snapshot's ATTRS payload
    /// ([`Opened::attrs`](crate::Opened)); `None` still serves plain
    /// queries, with filtered ones rejected as
    /// [`FiltersUnavailable`](mmdr_index::Error::FiltersUnavailable).
    /// Sketches are built once from the stored model's cluster membership.
    pub fn new(
        index: Arc<dyn VectorIndex>,
        model: &ReductionResult,
        attrs: Option<AttrStore>,
    ) -> Result<Self> {
        let attrs = attrs.unwrap_or_default();
        let sketches = build_sketches(&attrs, model)?;
        Ok(Self {
            index,
            attrs,
            sketches,
            planner: Planner::new(),
        })
    }
}

impl LiveIndex for SnapshotLive {
    fn pin(&self) -> PinnedEpoch {
        PinnedEpoch {
            epoch: 0,
            index: Arc::clone(&self.index),
        }
    }

    fn filtered(
        &self,
        vector: &[f64],
        target: Target,
        predicate: &str,
    ) -> mmdr_index::Result<Vec<(f64, u64)>> {
        filtered(
            &self.planner,
            &self.attrs,
            self.sketches.as_deref(),
            self.index.as_ref(),
            vector,
            target,
            predicate,
        )
    }

    fn planner_counts(&self) -> [u64; 3] {
        let s = self.planner.counters().snapshot();
        [s.post_filter, s.pushdown, s.prefilter_rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_idistance::Backend;
    use mmdr_linalg::Matrix;
    use mmdr_query::{AttrType, AttrValue};

    /// The planner's threshold moves on a warm index, where no query ever
    /// misses the pool: the cost it is fed is pages touched.
    #[test]
    fn cost_feedback_reaches_the_planner_on_a_resident_index() {
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|i| {
                let t = (i / 2) as f64 / 1999.0;
                if i % 2 == 0 {
                    vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]
                } else {
                    vec![5.0 + jit(i, 0.1), 5.0 + jit(i, 0.9), 5.0 + t, 5.0 - 0.5 * t]
                }
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let mut attrs = AttrStore::new(&[("views", AttrType::I64)]).unwrap();
        for id in 0..data.rows() as u64 {
            let views = AttrValue::I64((id * 37 % 100) as i64);
            attrs.set(id, "views", &views).unwrap();
        }
        let built = crate::build_index(Backend::IDistance, &data, &model, 4096).unwrap();
        let index: Arc<dyn VectorIndex> = Arc::from(built.into_boxed());
        // A range that reaches every row puts every page in a frame of the
        // pools, which hold them all.
        index.range_search(data.row(0), 1e9).unwrap();
        let live = SnapshotLive::new(Arc::clone(&index), &model, Some(attrs)).unwrap();
        let start = live.planner.postfilter_threshold();
        assert_eq!(start, Planner::DEFAULT_POSTFILTER_THRESHOLD);

        // A handful of each strategy with a cost history: 2 % of the rows
        // pass the first predicate (pushed down), 98 % the second
        // (post-filtered, and done after one unfiltered 20-NN).
        let reads_before = index.query_stats().page_reads;
        for probe in (0..data.rows()).step_by(500) {
            let q = data.row(probe);
            for predicate in ["views < 2", "views >= 2"] {
                let hits = live.filtered(q, Target::Knn(10), predicate).unwrap();
                assert_eq!(hits.len(), 10);
            }
        }
        let [post_filter, pushdown, _] = live.planner_counts();
        assert_eq!((pushdown, post_filter), (8, 8));
        assert_eq!(
            index.query_stats().page_reads,
            reads_before,
            "a warm index misses no page: reads say nothing about cost"
        );
        let moved = live.planner.postfilter_threshold();
        assert!(
            moved < start,
            "sixteen observed queries left the threshold at {moved}"
        );
    }
}
