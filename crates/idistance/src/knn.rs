//! Iterative-enlargement KNN search (paper §5).

use crate::error::{Error, Result};
use crate::index::IDistanceIndex;
use crate::vector_heap::TOMBSTONE;
use mmdr_btree::Cursor;
use mmdr_index::{KnnHeap, Scratch, SearchFilter};

/// Per-partition search state: two cursors walking the key annulus inward
/// (descending keys) and outward (ascending keys) from the query's image.
struct PartitionSearch {
    /// Partition index.
    part: usize,
    /// `dist(qᵢ, Oᵢ)` within the subspace (or full-dim for outliers).
    dist_q: f64,
    /// Squared distance from `q` to the partition's affine subspace
    /// (0 for the outlier partition).
    proj_sq: f64,
    /// Local coordinates of the query in the partition's axis system (the
    /// full point for the outlier partition).
    q_local: Vec<f64>,
    /// Tightest possible distance from `q` to any member (triangle
    /// inequality bound `‖Q−P‖ ≥ ‖Qⱼ−Oⱼ‖ − Rⱼ`, extended with the
    /// projection component).
    lower_bound: f64,
    inward: Option<Cursor>,
    outward: Option<Cursor>,
    started: bool,
}

impl IDistanceIndex {
    /// Finds the K nearest neighbours of `query` among the reduced
    /// representations. Returns `(distance, point_id)` ascending.
    ///
    /// Distances are `‖q − restore(Pᵢ)‖` — exact for outliers, exact to the
    /// reduced representation for cluster members — so results from
    /// different axis systems are directly comparable.
    ///
    /// With a `filter` this is exact pushdown: failing rows never enter
    /// the candidate heap, so they never tighten the enlargement radius;
    /// partitions the filter's sketch hints prove dead are never
    /// cursor-walked. Delta rows are gated per-row by the bitmap only
    /// (sketches cover merged base rows).
    pub(crate) fn knn_impl(
        &self,
        query: &[f64],
        k: usize,
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
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        // The scratch outlives this `&self` borrow: whatever it pinned last
        // time may since have been written, or belong to another index.
        reader.unpin();
        // Counted here, recorded once when the search ends.
        let (mut dists, mut refined) = (0u64, 0u64);

        // Precompute per-partition geometry.
        let mut searches = Vec::with_capacity(self.partitions.len());
        for (i, part) in self.partitions.iter().enumerate() {
            if part.count == 0 {
                continue;
            }
            // Partition `i` is cluster `i` in build order; the last
            // (subspace-less) partition holds the outliers. A dead partition
            // gets no PartitionSearch, so its pages are never touched.
            if filter.is_some_and(|f| match part.subspace {
                Some(_) => !f.cluster_alive(i),
                None => !f.outliers_alive(),
            }) {
                continue;
            }
            let (q_local, proj_sq) = match &part.subspace {
                Some(subspace) => {
                    let local = subspace.project(query)?;
                    let pd = subspace.proj_dist(query)?;
                    (local, pd * pd)
                }
                None => (query.to_vec(), 0.0),
            };
            let dist_q = match &part.subspace {
                Some(_) => mmdr_linalg::l2_norm(&q_local),
                None => mmdr_linalg::l2_dist(query, &part.centroid),
            };
            // Radial gap to the populated annulus [min_radius, max_radius].
            let gap = (dist_q - part.max_radius)
                .max(part.min_radius - dist_q)
                .max(0.0);
            let lower_bound = (proj_sq + gap * gap).sqrt();
            searches.push(PartitionSearch {
                part: i,
                dist_q,
                proj_sq,
                q_local,
                lower_bound,
                inward: None,
                outward: None,
                started: false,
            });
        }

        // Radius granularity scales with the widest data sphere, not with
        // `c` (which includes the non-overlap margin and would make each
        // enlargement sweep most of a partition at once).
        let widest = self
            .partitions
            .iter()
            .map(|p| p.max_radius)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut step = widest * self.config().radius_step_fraction;
        let mut radius = widest * self.config().initial_radius_fraction;
        let mut best = KnnHeap::new(k);

        // Delta rows are scanned exactly before the enlargement loop (the
        // final top-k is independent of push order). A snapshot-empty
        // partition has no `PartitionSearch`, so compute the query's
        // geometry for such partitions separately — a delta row may be a
        // partition's first point.
        let tombs = self.delta.tombstones();
        if self.delta.live_rows() > 0 {
            let mut geo: Vec<Option<(&[f64], f64)>> = vec![None; self.partitions.len()];
            for s in &searches {
                geo[s.part] = Some((s.q_local.as_slice(), s.proj_sq));
            }
            let mut computed: Vec<Option<(Vec<f64>, f64)>> = vec![None; self.partitions.len()];
            for (pi, part) in self.partitions.iter().enumerate() {
                if geo[pi].is_none() {
                    computed[pi] = Some(match &part.subspace {
                        Some(subspace) => {
                            let local = subspace.project(query)?;
                            let pd = subspace.proj_dist(query)?;
                            (local, pd * pd)
                        }
                        None => (query.to_vec(), 0.0),
                    });
                }
            }
            let mut delta_seen: u64 = 0;
            self.delta.for_each(|id, (part, coords)| {
                if filter.is_some_and(|f| !f.passes(id)) {
                    return;
                }
                let pi = *part as usize;
                let (q_local, proj_sq) = match geo[pi] {
                    Some(pair) => pair,
                    None => {
                        let c = computed[pi].as_ref().expect("geometry computed above");
                        (c.0.as_slice(), c.1)
                    }
                };
                best.push(mmdr_linalg::reduced_dist(proj_sq, q_local, coords), id);
                delta_seen += 1;
            });
            dists += delta_seen;
            refined += delta_seen;
        }

        // One candidate: read its reduced vector through the pinned heap
        // page, evaluate it, and offer it to the heap if it is visible.
        let mut offer = |rid: u64, s: (usize, f64, &[f64]), best: &mut KnnHeap| -> Result<()> {
            let (part, proj_sq, q_local) = s;
            let (heap_part, point_id, coords) = self.heap.read(reader, rid)?;
            debug_assert_eq!(
                heap_part as usize, part,
                "key slot and heap partition agree"
            );
            let dist = mmdr_linalg::reduced_dist(proj_sq, q_local, coords);
            dists += 1;
            if point_id == TOMBSTONE {
                return Ok(());
            }
            refined += 1;
            if !tombs.contains(&point_id) && filter.is_none_or(|f| f.passes(point_id)) {
                best.push(dist, point_id);
            }
            Ok(())
        };

        loop {
            let mut any_active = false;
            for s in searches.iter_mut() {
                if s.lower_bound > radius {
                    // Case 3: the query sphere does not reach this data
                    // space yet.
                    if !s.started || s.inward.is_some() || s.outward.is_some() {
                        any_active = true;
                    }
                    continue;
                }
                // Radius available for the within-subspace component.
                let local_r_sq = radius * radius - s.proj_sq;
                if local_r_sq < 0.0 {
                    any_active = true;
                    continue;
                }
                let local_r = local_r_sq.sqrt();
                let part = s.part;
                let base = part as f64 * self.c;
                // Clamp the annulus to the populated sphere [0, max_radius]
                // — this implements the paper's case analysis: a query
                // outside the data space (case 2) starts at the boundary and
                // only searches inward; keys never leave the partition's
                // [i·c, (i+1)·c) slot.
                let max_r = self.partitions[part].max_radius;
                let lo_key = base + (s.dist_q - local_r).max(0.0);
                let hi_key = base + (s.dist_q + local_r).min(max_r);
                // The last partition (outliers) owns the unbounded key tail:
                // dynamic inserts may stretch it past the build-time margin.
                let slot_end = if part + 1 == self.partitions.len() {
                    f64::INFINITY
                } else {
                    base + self.c
                };

                if !s.started {
                    // Seek the query's image (clamped into the sphere); the
                    // inward cursor walks toward the centroid, the outward
                    // cursor away from it, both from the one pinned leaf.
                    let center = base + s.dist_q.min(max_r);
                    let cur = self.tree.seek(center)?;
                    s.inward = Some(cur.clone());
                    s.outward = Some(cur);
                    s.started = true;
                }
                let image = base + s.dist_q;
                let geometry = (part, s.proj_sq, s.q_local.as_slice());

                // Outward: ascending keys up to hi_key (and < next slot). A
                // cursor stays in place across rounds and is dropped once
                // it runs off the tree or the partition's slot.
                if let Some(cur) = &mut s.outward {
                    let exhausted = loop {
                        let Some((key, rid)) = self.tree.cursor_next(cur)? else {
                            break true;
                        };
                        if key >= slot_end || key > hi_key + 1e-12 {
                            // Past the partition or past the annulus: back
                            // the cursor up so the entry is re-seen when the
                            // radius grows.
                            self.tree.cursor_prev(cur)?;
                            break key >= slot_end;
                        }
                        // Key-gap lower bound: |‖p‖ − ‖q‖| ≤ ‖p − q‖, so an
                        // entry whose ring distance already exceeds the
                        // current k-th best cannot win — skip the heap
                        // fetch entirely. Strictly greater only: skipping
                        // ties would make the answer set depend on the
                        // heap's trajectory, and merged-vs-fresh parity
                        // requires trajectory independence.
                        let ring_gap = key - image;
                        let lb = (s.proj_sq + ring_gap * ring_gap).sqrt();
                        if best.is_full() && lb > best.worst_dist().expect("full heap") {
                            continue;
                        }
                        offer(rid, geometry, &mut best)?;
                    };
                    if exhausted {
                        s.outward = None;
                    }
                }
                // Inward: descending keys down to lo_key.
                if let Some(cur) = &mut s.inward {
                    let exhausted = loop {
                        let Some((key, rid)) = self.tree.cursor_prev(cur)? else {
                            break true;
                        };
                        if key < base || key < lo_key - 1e-12 {
                            self.tree.cursor_next(cur)?;
                            break key < base;
                        }
                        // Same key-gap lower bound as the outward walk
                        // (strict, for trajectory independence).
                        let ring_gap = image - key;
                        let lb = (s.proj_sq + ring_gap * ring_gap).sqrt();
                        if best.is_full() && lb > best.worst_dist().expect("full heap") {
                            continue;
                        }
                        offer(rid, geometry, &mut best)?;
                    };
                    if exhausted {
                        s.inward = None;
                    }
                }
                if s.inward.is_some() || s.outward.is_some() {
                    any_active = true;
                }
            }

            // Stop when the k-th candidate is certainly final: no unseen
            // point can be closer than the current radius.
            if best.is_full() {
                let kth = best.worst_dist().expect("full heap");
                if kth <= radius {
                    break;
                }
            }
            if !any_active {
                break; // everything searched
            }
            // Geometric enlargement: the paper only requires the radius to
            // grow "step by step"; doubling the step keeps the round count
            // logarithmic so the per-round partition bookkeeping does not
            // dominate query CPU. Cursors persist across rounds, so a
            // larger final radius costs no re-scanning.
            radius += step;
            step *= 2.0;
        }

        self.search.record_dists(dists);
        self.search.record_refined(refined);
        Ok(best.into_sorted_vec())
    }
}

#[cfg(test)]
mod tests {
    use crate::index::{IDistanceConfig, IDistanceIndex};
    use crate::seqscan::SeqScan;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_index::VectorIndex;
    use mmdr_linalg::Matrix;

    /// Two separated clusters flat in different dimension pairs, plus a few
    /// implanted outliers.
    fn dataset() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..150 {
            let t = i as f64 / 149.0;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        // Outliers off both planes.
        for i in 0..6 {
            rows.push(vec![2.5, 2.5 + i as f64 * 0.1, 2.5, 2.5]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    fn build_pair() -> (Matrix, IDistanceIndex, SeqScan) {
        let data = dataset();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = IDistanceIndex::build(&data, &model, IDistanceConfig::default()).unwrap();
        let scan = SeqScan::build(&data, &model, 64).unwrap();
        (data, index, scan)
    }

    #[test]
    fn knn_matches_sequential_scan() {
        let (data, index, scan) = build_pair();
        for probe in [0usize, 1, 7, 100, 299, 303] {
            let q = data.row(probe);
            let a = index.knn(q, 10).unwrap();
            let b = scan.knn(q, 10).unwrap();
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.0 - y.0).abs() < 1e-9,
                    "probe {probe}: iDistance {:?} vs scan {:?}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn self_query_finds_own_representation() {
        // The reduced representation drops the point's own off-plane
        // residual, so the self-distance is the point's ProjDist (≤ β), not
        // zero — and a neighbour's representation can occasionally edge it
        // out. The point must appear among the top few at ≤ β distance.
        let (data, index, _) = build_pair();
        let r = index.knn(data.row(42), 3).unwrap();
        assert!(
            r.iter().any(|&(_, id)| id == 42),
            "self missing from top 3: {r:?}"
        );
        assert!(r[0].0 <= 0.1, "nearest rep {} exceeds beta", r[0].0);
    }

    #[test]
    fn knn_uses_fewer_reads_than_scan() {
        let (data, index, scan) = build_pair();
        let istats = index.io_stats();
        let sstats = scan.io_stats();
        istats.reset();
        sstats.reset();
        // Cold-ish pools would be fairer, but even warm the access count
        // (hits + misses) favours the index; compare logical page touches
        // via a small pool: rebuild with pool of 2.
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let cold_index = IDistanceIndex::build(
            &data,
            &model,
            crate::index::IDistanceConfig {
                buffer_pages: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let cold_scan = SeqScan::build(&data, &model, 1).unwrap();
        cold_index.io_stats().reset();
        cold_scan.io_stats().reset();
        let _ = cold_index.knn(data.row(0), 10).unwrap();
        let _ = cold_scan.knn(data.row(0), 10).unwrap();
        // At this tiny scale (a handful of pages) the two can tie; the
        // strict inequality is asserted at realistic scale by the
        // `end_to_end` integration test.
        assert!(
            cold_index.io_stats().reads() <= cold_scan.io_stats().reads(),
            "index {} vs scan {}",
            cold_index.io_stats().reads(),
            cold_scan.io_stats().reads()
        );
    }

    #[test]
    fn query_validation() {
        let (_, index, _) = build_pair();
        assert!(index.knn(&[0.0], 1).is_err());
        assert!(index.knn(&[f64::NAN; 4], 1).is_err());
        assert!(index.knn(&[0.0; 4], 0).unwrap().is_empty());
    }

    #[test]
    fn k_exceeding_n_returns_everything_reachable() {
        let (data, index, _) = build_pair();
        let r = index.knn(data.row(0), 10_000).unwrap();
        assert_eq!(r.len(), data.rows());
    }
}
