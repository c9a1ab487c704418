//! [`VectorIndex`] implementations for the three schemes in this crate.

use crate::gldr::GlobalLdrIndex;
use crate::index::IDistanceIndex;
use crate::seqscan::SeqScan;
use mmdr_hybridtree::HybridTree;
use mmdr_index::{Query, QueryStats, Scratch, Target, VectorIndex};
use mmdr_storage::PoolStats;

impl From<crate::Error> for mmdr_index::Error {
    fn from(e: crate::Error) -> Self {
        mmdr_index::Error::backend(e)
    }
}

impl VectorIndex for IDistanceIndex {
    fn name(&self) -> &'static str {
        "idistance"
    }

    fn len(&self) -> usize {
        IDistanceIndex::len(self)
    }

    fn dim(&self) -> usize {
        IDistanceIndex::dim(self)
    }

    fn answer(&self, q: &Query<'_>, scratch: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
        Ok(self.search_impl(q.vector, q.target, q.filter, scratch)?)
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        vec![self.tree().pool().snapshot(), self.heap().pool().snapshot()]
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats::of([self.tree().pool(), self.heap().pool()], [&self.search])
    }
}

impl VectorIndex for SeqScan {
    fn name(&self) -> &'static str {
        "seqscan"
    }

    fn len(&self) -> usize {
        SeqScan::len(self)
    }

    fn dim(&self) -> usize {
        SeqScan::dim(self)
    }

    fn answer(&self, q: &Query<'_>, _: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
        Ok(match q.target {
            Target::Knn(k) => self.knn_impl(q.vector, k, q.filter),
            Target::Range(radius) => self.range_impl(q.vector, radius, q.filter),
        }?)
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        vec![self.heap().pool().snapshot()]
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats::of([self.heap().pool()], [&self.search])
    }
}

impl VectorIndex for GlobalLdrIndex {
    fn name(&self) -> &'static str {
        "gldr"
    }

    fn len(&self) -> usize {
        GlobalLdrIndex::len(self)
    }

    fn dim(&self) -> usize {
        GlobalLdrIndex::dim(self)
    }

    fn answer(&self, q: &Query<'_>, _: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
        Ok(self.search_impl(q.vector, q.target, q.filter)?)
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        self.trees().map(|t| t.pool().snapshot()).collect()
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats::of(
            self.trees().map(HybridTree::pool),
            self.trees().map(HybridTree::counters).chain([&self.search]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_linalg::{Matrix, ParConfig};

    fn dataset() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..120 {
            let t = i as f64 / 119.0;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn all_three_backends_answer_through_the_trait() {
        let data = dataset();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = IDistanceIndex::build(&data, &model, 256).unwrap();
        let scan = SeqScan::build(&data, &model, 64).unwrap();
        let gldr = GlobalLdrIndex::build(&data, &model, 64).unwrap();
        let backends: Vec<&dyn VectorIndex> = vec![&index, &scan, &gldr];
        let q = data.row(10);
        let reference = backends[0].knn(q, 5).unwrap();
        for b in &backends {
            assert_eq!(b.len(), data.rows(), "{}", b.name());
            assert_eq!(b.dim(), 4, "{}", b.name());
            let r = b.knn(q, 5).unwrap();
            assert_eq!(r.len(), reference.len(), "{}", b.name());
            let before = b.query_stats();
            let _ = b.knn(q, 5).unwrap();
            let stats = b.query_stats().since(&before);
            assert!(stats.dist_computations > 0, "{} counts distances", b.name());
            assert!(stats.pages_touched > 0, "{} counts page accesses", b.name());
        }
    }

    #[test]
    fn errors_translate() {
        let data = dataset();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let scan = SeqScan::build(&data, &model, 16).unwrap();
        assert!(matches!(
            VectorIndex::knn(&scan, &[0.0], 1).unwrap_err(),
            mmdr_index::Error::DimensionMismatch { .. }
        ));
        assert!(matches!(
            VectorIndex::range_search(&scan, &[0.0; 4], -1.0).unwrap_err(),
            mmdr_index::Error::InvalidRadius
        ));
        // A backend-specific failure wraps rather than panics.
        let wrapped: mmdr_index::Error = crate::Error::BadRecordId(7).into();
        assert!(matches!(wrapped, mmdr_index::Error::Backend(_)));
    }

    #[test]
    fn batch_queries_executor_is_usable_directly() {
        let queries = vec![vec![1.0], vec![2.0]];
        let doubled =
            mmdr_index::batch_queries(&queries, &ParConfig::threads(2), |q, _| Ok(q[0] * 2.0))
                .unwrap();
        assert_eq!(doubled, vec![2.0, 4.0]);
    }
}
