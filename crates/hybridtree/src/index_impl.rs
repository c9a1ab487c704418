//! [`VectorIndex`] implementation for the hybrid tree.

use crate::tree::HybridTree;
use mmdr_index::{Query, QueryStats, Scratch, VectorIndex};
use mmdr_storage::PoolStats;

impl From<crate::Error> for mmdr_index::Error {
    fn from(e: crate::Error) -> Self {
        mmdr_index::Error::backend(e)
    }
}

impl VectorIndex for HybridTree {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn len(&self) -> usize {
        HybridTree::len(self)
    }

    fn dim(&self) -> usize {
        HybridTree::dim(self)
    }

    fn answer(&self, q: &Query<'_>, _: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
        Ok(self.search_gated(q.vector, q.target, None, q.filter)?)
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        vec![self.pool().snapshot()]
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats::of([self.pool()], [self.counters()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_index::Target;
    use mmdr_linalg::Matrix;
    use mmdr_storage::{BufferPool, DiskManager};

    fn tree() -> HybridTree {
        let points = Matrix::from_fn(200, 4, |i, j| ((i * 7 + j * 13) % 101) as f64 / 101.0);
        let rids: Vec<u64> = (0..200).collect();
        let pool = BufferPool::new(DiskManager::new(), 128).unwrap();
        HybridTree::bulk_load(pool, &points, &rids).unwrap()
    }

    #[test]
    fn trait_object_queries_match_the_gated_search() {
        let t = tree();
        let q = [0.4, 0.5, 0.6, 0.7];
        let direct = t.search_gated(&q, Target::Knn(5), None, None).unwrap();
        let via_trait = {
            let dyn_ref: &dyn VectorIndex = &t;
            dyn_ref.knn(&q, 5).unwrap()
        };
        assert_eq!(direct, via_trait);
        assert_eq!(VectorIndex::len(&t), 200);
        assert_eq!(VectorIndex::dim(&t), 4);
        assert_eq!(VectorIndex::name(&t), "hybrid");
    }

    #[test]
    fn errors_translate() {
        let t = tree();
        let err = VectorIndex::knn(&t, &[0.0; 2], 1).unwrap_err();
        assert!(matches!(
            err,
            mmdr_index::Error::DimensionMismatch {
                expected: 4,
                actual: 2
            }
        ));
        let err = VectorIndex::range_search(&t, &[0.0; 4], -1.0).unwrap_err();
        assert!(matches!(err, mmdr_index::Error::InvalidRadius));
    }

    #[test]
    fn a_bulk_load_count_mismatch_is_not_a_dimension_mismatch() {
        let pool = BufferPool::new(DiskManager::new(), 8).unwrap();
        let err: mmdr_index::Error = HybridTree::bulk_load(pool, &Matrix::zeros(3, 4), &[1, 2])
            .unwrap_err()
            .into();
        assert!(matches!(err, mmdr_index::Error::Backend(_)), "{err}");
        assert!(err.to_string().contains("3 points but 2 record ids"));
    }

    #[test]
    fn stats_flow_through_trait() {
        let t = tree();
        let dyn_ref: &dyn VectorIndex = &t;
        let before = dyn_ref.query_stats();
        let _ = dyn_ref.knn(&[0.1, 0.2, 0.3, 0.4], 3).unwrap();
        let stats = dyn_ref.query_stats().since(&before);
        assert!(stats.dist_computations > 0);
        assert!(stats.pages_touched > 0);
    }
}
