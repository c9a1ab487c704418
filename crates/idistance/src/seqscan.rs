//! Sequential scan over the reduced representations — the baseline the
//! paper plots alongside the indexes in Figure 9 ("direct sequential scan"
//! in reduced subspaces).

use crate::error::{Error, Result};
use crate::knn::query_geometry;
use crate::layout::{data_rows, partition_ids, stored_values, PartitionRows};
use crate::vector_heap::{HeapWriter, VectorHeap};
use mmdr_core::ReductionResult;
use mmdr_index::{DeltaLayer, KnnHeap, SearchCounters, SearchFilter};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;

/// Sequential-scan KNN over heap pages of reduced points.
#[derive(Debug)]
pub struct SeqScan {
    heap: VectorHeap,
    /// Per-partition subspaces; `None` = outlier partition (original dim).
    subspaces: Vec<Option<ReducedSubspace>>,
    dim: usize,
    len: usize,
    pub(crate) search: SearchCounters,
    /// Rows ingested since the snapshot, already routed to a partition and
    /// stored exactly as the heap would store them (local coordinates for
    /// cluster partitions, raw for outliers). Scanned alongside the heap.
    pub(crate) delta: DeltaLayer,
}

impl SeqScan {
    /// Lays the reduced dataset out in heap pages.
    pub fn build(data: &Matrix, model: &ReductionResult, buffer_pages: usize) -> Result<Self> {
        let rows = &mut data_rows(data, model)?;
        Self::load(model, buffer_pages, rows)
    }

    /// The one writer of the scan's stored form: each partition's rows
    /// appended, as [`stored_values`], in the order given, partition `i`
    /// being cluster `i` and the last one the outliers (see
    /// [`crate::layout`]).
    pub(crate) fn load(
        model: &ReductionResult,
        buffer_pages: usize,
        rows: &mut PartitionRows<'_>,
    ) -> Result<Self> {
        let mut heap = HeapWriter::default();
        for part in partition_ids(model) {
            let partition = part.unwrap_or(model.clusters.len()) as u32;
            for (id, mut coords) in rows(part)? {
                stored_values(&mut coords)?;
                heap.append(partition, id, &coords)?;
            }
        }
        Self::from_parts(heap.finish(buffer_pages.max(1))?, model)
    }

    /// Reattaches a scan to a heap restored from a snapshot. The partition
    /// subspaces are rebuilt from the reduction model the snapshot stores
    /// (cluster order is the heap's partition order, exactly as the load
    /// laid it out). The heap holds live rows only,
    /// so it may be smaller than the model's id space.
    pub fn from_parts(heap: VectorHeap, model: &ReductionResult) -> Result<Self> {
        if heap.len() > model.num_points as u64 {
            return Err(Error::InvalidConfig("heap size disagrees with the model"));
        }
        let mut subspaces: Vec<Option<ReducedSubspace>> =
            Vec::with_capacity(model.clusters.len() + 1);
        for cluster in &model.clusters {
            subspaces.push(Some(cluster.subspace.clone()));
        }
        subspaces.push(None);
        Ok(Self {
            len: heap.len() as usize,
            heap,
            subspaces,
            dim: model.dim,
            search: SearchCounters::default(),
            delta: DeltaLayer::default(),
        })
    }

    /// Access to the underlying heap (page export for snapshots).
    pub fn heap(&self) -> &VectorHeap {
        &self.heap
    }

    /// Number of visible points: the snapshot rows plus live delta rows.
    /// Base rows masked by a tombstone still count (the heap keeps their
    /// record); searches filter them from answers.
    pub fn len(&self) -> usize {
        self.len + self.delta.live_rows()
    }

    /// True when no snapshot rows and no delta rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap pages the scan touches.
    pub fn num_pages(&self) -> usize {
        self.heap.num_pages()
    }

    /// Dimensionality of queries.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// KNN by scanning every page; distances are to the reduced
    /// representations, identical semantics to [`crate::IDistanceIndex`].
    /// The scan touches every page whatever the `filter` (this backend is
    /// the exhaustive baseline), but failing rows are gated before the
    /// candidate heap, so the result is the exact top-k of the passing
    /// subset.
    pub(crate) fn knn_impl(
        &self,
        query: &[f64],
        k: usize,
        filter: Option<&SearchFilter>,
    ) -> Result<Vec<(f64, u64)>> {
        let q_locals = self
            .subspaces
            .iter()
            .map(|subspace| {
                let mut q_local = Vec::new();
                let proj_sq = query_geometry(subspace.as_ref(), query, &mut q_local)?;
                Ok((q_local, proj_sq))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut best = KnnHeap::new(k);
        let mut seen: u64 = 0;
        // Delta rows first (order is irrelevant to the final top-k): they
        // are stored exactly as the heap stores rows, so the same
        // reduced-distance formula applies bit-for-bit.
        for (part, row) in self.delta.rows().iter() {
            if filter.is_none_or(|f| f.passes(row.id)) {
                let (q_local, proj_sq) = &q_locals[part as usize];
                let dist = mmdr_linalg::reduced_dist(*proj_sq, q_local, &row.coords);
                best.push(dist, row.id);
                seen += 1;
            }
        }
        let tombs = self.delta.tombstones();
        let mut torn = false;
        self.heap.scan(|part, pid, coords| {
            if tombs.contains(&pid) || filter.is_some_and(|f| !f.passes(pid)) {
                return;
            }
            // A record of a partition, or a width, the model does not have
            // is a damaged page.
            let Some((q_local, proj_sq)) =
                (q_locals.get(part as usize)).filter(|(q_local, _)| q_local.len() == coords.len())
            else {
                torn = true;
                return;
            };
            best.push(mmdr_linalg::reduced_dist(*proj_sq, q_local, coords), pid);
            seen += 1;
        })?;
        if torn {
            return Err(Error::InvalidConfig(
                "a heap record disagrees with its partition",
            ));
        }
        // A scan refines every stored point: both counters tick once per
        // point, the CPU baseline the indexed backends are plotted against.
        self.search.record_dists(seen);
        self.search.record_refined(seen);
        Ok(best.into_sorted_vec())
    }

    /// Range search by full scan — the reference the index is tested
    /// against: rank everything, then cut at the radius. Simple and
    /// obviously correct.
    pub(crate) fn range_impl(
        &self,
        query: &[f64],
        radius: f64,
        filter: Option<&SearchFilter>,
    ) -> Result<Vec<(f64, u64)>> {
        let mut hits = self.knn_impl(query, self.len(), filter)?;
        hits.retain(|&(d, _)| d <= radius + 1e-12);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_index::VectorIndex;

    fn flat_data() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64 / 199.0;
                vec![t, 0.5 * t, 0.0, 0.0]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn scan_knn_finds_the_query_itself() {
        let data = flat_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let scan = SeqScan::build(&data, &model, 64).unwrap();
        let r = scan.knn(data.row(100), 1).unwrap();
        assert_eq!(r[0].1, 100);
        assert!(r[0].0 < 1e-6);
    }

    #[test]
    fn scan_io_equals_page_count() {
        let data = flat_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let scan = SeqScan::build(&data, &model, 1).unwrap();
        let pages = scan.num_pages() as u64;
        let before = scan.query_stats();
        let _ = scan.knn(data.row(0), 10).unwrap();
        let reads = scan.query_stats().since(&before).page_reads;
        assert!(reads >= pages - 1, "reads {reads} pages {pages}");
    }

    #[test]
    fn delta_rows_and_tombstones_are_visible() {
        let data = flat_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let built = crate::BuiltIndex::SeqScan(SeqScan::build(&data, &model, 64).unwrap());
        let scan = built.as_dyn();
        let probe = vec![10.0, 5.0, 0.0, 0.0];
        built.insert(&model, 500, &probe).unwrap();
        assert_eq!(scan.len(), 201);
        let r = scan.knn(&probe, 1).unwrap();
        assert_eq!(r[0].1, 500);
        // Its stored coordinate is its projection (11.18…) rounded to the
        // nearest f32, at most half an f32 ulp (2⁻²¹) away.
        assert!(r[0].0 < 1e-6, "{}", r[0].0);
        // Deleting a base row removes it from answers without shrinking
        // the heap.
        assert!(built.delete(199).unwrap());
        let near_base = scan.knn(data.row(199), 1).unwrap();
        assert_ne!(near_base[0].1, 199);
        // Deleting the delta row hides it again.
        assert!(built.delete(500).unwrap());
        let r = scan.knn(&probe, 1).unwrap();
        assert_ne!(r[0].1, 500);
        // Tombstoned base rows still count toward len (the heap keeps
        // their record until a merge folds them out).
        assert_eq!(scan.len(), 200);
    }

    #[test]
    fn validates_queries() {
        let data = flat_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let scan = SeqScan::build(&data, &model, 16).unwrap();
        assert!(scan.knn(&[0.0], 1).is_err());
        assert!(scan.knn(&[f64::NAN, 0.0, 0.0, 0.0], 1).is_err());
        assert!(scan.knn(data.row(0), 0).unwrap().is_empty());
        assert_eq!(scan.len(), 200);
        assert!(!scan.is_empty());
    }
}
