//! Fixed-radius range search over the extended iDistance index.
//!
//! The iDistance KNN algorithm is an iterated range search (§5: "examines
//! increasingly larger sphere in each iteration"); exposing the single
//! iteration directly gives the classic similarity-range query: all points
//! whose reduced representation lies within `radius` of the query.

use crate::error::{Error, Result};
use crate::index::IDistanceIndex;
use crate::vector_heap::TOMBSTONE;
use mmdr_index::{Scratch, SearchFilter};

impl IDistanceIndex {
    /// Returns every point whose reduced representation lies within
    /// `radius` of `query`, as `(distance, point_id)` sorted ascending.
    /// Rows failing `filter` never enter the answer set; partitions its
    /// sketch hints prove dead are not cursor-walked at all.
    pub(crate) fn range_impl(
        &self,
        query: &[f64],
        radius: f64,
        filter: Option<&SearchFilter>,
        reader: &mut Scratch,
    ) -> Result<Vec<(f64, u64)>> {
        if query.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        if query.iter().any(|x| !x.is_finite()) {
            return Err(Error::InvalidQuery);
        }
        if !(radius >= 0.0 && radius.is_finite()) {
            return Err(Error::InvalidRadius);
        }
        let mut out = Vec::new();
        let n_parts = self.partitions.len();
        let tombs = self.delta.tombstones();
        // Same reason as in `knn_impl`: the pin may be stale, or another's.
        reader.unpin();
        // Counted here, recorded once when the search ends.
        let (mut dists, mut refined) = (0u64, 0u64);
        // Delta rows are scanned exactly (they are few between merges);
        // `out` is sorted at the end, so interleaving order is irrelevant.
        if self.delta.live_rows() > 0 {
            let mut geo: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n_parts);
            for info in &self.partitions {
                geo.push(match &info.subspace {
                    Some(subspace) => {
                        let local = subspace.project(query)?;
                        let pd = subspace.proj_dist(query)?;
                        (local, pd * pd)
                    }
                    None => (query.to_vec(), 0.0),
                });
            }
            let mut delta_seen: u64 = 0;
            let mut delta_hits: u64 = 0;
            self.delta.for_each(|id, (part, coords)| {
                if filter.is_some_and(|f| !f.passes(id)) {
                    return;
                }
                let (q_local, proj_sq) = &geo[*part as usize];
                let dist = mmdr_linalg::reduced_dist(*proj_sq, q_local, coords);
                delta_seen += 1;
                if dist <= radius + 1e-12 {
                    delta_hits += 1;
                    out.push((dist, id));
                }
            });
            dists += delta_seen;
            refined += delta_hits;
        }
        for part in 0..n_parts {
            let info = &self.partitions[part];
            if info.count == 0 {
                continue;
            }
            // Partition `part` is cluster `part` in build order; the last
            // (subspace-less) partition holds the outliers.
            if filter.is_some_and(|f| match info.subspace {
                Some(_) => !f.cluster_alive(part),
                None => !f.outliers_alive(),
            }) {
                continue;
            }
            let (q_local, proj_sq, dist_q) = match &info.subspace {
                Some(subspace) => {
                    let local = subspace.project(query)?;
                    let pd = subspace.proj_dist(query)?;
                    let dist_q = mmdr_linalg::l2_norm(&local);
                    (local, pd * pd, dist_q)
                }
                None => {
                    let dist_q = mmdr_linalg::l2_dist(query, &info.centroid);
                    (query.to_vec(), 0.0, dist_q)
                }
            };
            // Partition-level pruning (triangle inequality + projection).
            let gap = (dist_q - info.max_radius)
                .max(info.min_radius - dist_q)
                .max(0.0);
            if proj_sq + gap * gap > radius * radius {
                continue;
            }
            let local_r_sq = radius * radius - proj_sq;
            if local_r_sq < 0.0 {
                continue;
            }
            let local_r = local_r_sq.sqrt();
            let base = part as f64 * self.c;
            let max_r = info.max_radius;
            let lo_key = base + (dist_q - local_r).max(0.0);
            let hi_key = base + (dist_q + local_r).min(max_r);
            let slot_end = if part + 1 == n_parts {
                f64::INFINITY
            } else {
                base + self.c
            };

            let mut cursor = self.tree.seek(lo_key)?;
            while let Some((key, rid)) = self.tree.cursor_next(&mut cursor)? {
                if key > hi_key + 1e-12 || key >= slot_end {
                    break;
                }
                let (heap_part, point_id, coords) = self.heap.read(reader, rid)?;
                debug_assert_eq!(heap_part as usize, part);
                if point_id == TOMBSTONE
                    || tombs.contains(&point_id)
                    || filter.is_some_and(|f| !f.passes(point_id))
                {
                    continue;
                }
                dists += 1;
                let dist = mmdr_linalg::reduced_dist(proj_sq, &q_local, coords);
                if dist <= radius + 1e-12 {
                    refined += 1;
                    out.push((dist, point_id));
                }
            }
        }
        self.search.record_dists(dists);
        self.search.record_refined(refined);
        out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::index::{IDistanceConfig, IDistanceIndex};
    use crate::seqscan::SeqScan;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_index::VectorIndex;
    use mmdr_linalg::Matrix;

    fn build() -> (Matrix, IDistanceIndex, SeqScan) {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..200 {
            let t = i as f64 / 199.0;
            rows.push(vec![t, 0.4 * t, jit(i, 0.3), jit(i, 0.6)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 - jit(i, 0.8),
                5.0 + t,
                5.0 + 0.7 * t,
            ]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let index = IDistanceIndex::build(&data, &model, IDistanceConfig::default()).unwrap();
        let scan = SeqScan::build(&data, &model, 128).unwrap();
        (data, index, scan)
    }

    #[test]
    fn range_matches_scan_reference() {
        let (data, index, scan) = build();
        for &probe in &[0usize, 7, 201, 399] {
            for &radius in &[0.05, 0.2, 1.0, 10.0] {
                let q = data.row(probe);
                let a = index.range_search(q, radius).unwrap();
                let b = scan.range_search(q, radius).unwrap();
                assert_eq!(a.len(), b.len(), "probe {probe} radius {radius}");
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.0 - y.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn zero_radius_finds_exact_reps_only() {
        let (data, index, _) = build();
        // Outliers (stored exactly) match at radius 0; cluster members sit
        // at their ProjDist, so a radius of 0 on a generic query returns
        // nothing or exact representations only.
        let far = vec![100.0; 4];
        assert!(index.range_search(&far, 0.0).unwrap().is_empty());
        let _ = data;
    }

    #[test]
    fn validates_inputs() {
        let (_, index, _) = build();
        assert!(index.range_search(&[0.0], 1.0).is_err());
        assert!(index.range_search(&[0.0; 4], f64::NAN).is_err());
        assert!(index.range_search(&[0.0; 4], -1.0).is_err());
    }

    #[test]
    fn growing_radius_is_monotone() {
        let (data, index, _) = build();
        let q = data.row(10);
        let small = index.range_search(q, 0.1).unwrap().len();
        let big = index.range_search(q, 2.0).unwrap().len();
        assert!(big >= small);
        let all = index.range_search(q, 1e6).unwrap().len();
        assert_eq!(all, data.rows());
    }
}
