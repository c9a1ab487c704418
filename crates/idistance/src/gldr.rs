//! The gLDR comparison scheme: the "Global indexing method [5] on LDR
//! data" — one multidimensional Hybrid tree per cluster plus a cluster
//! array (paper §6.2).

use crate::error::{Error, Result};
use crate::knn::query_geometry;
use crate::layout::{data_rows, partition_ids, PartitionRows};
use mmdr_core::ReductionResult;
use mmdr_hybridtree::HybridTree;
use mmdr_index::{DeltaLayer, KnnHeap, SearchCounters, SearchFilter, Target};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use mmdr_storage::{BufferPool, DiskManager};
use std::cmp::Ordering;

/// One cluster's index: the subspace plus a hybrid tree over the members'
/// local coordinates.
#[derive(Debug)]
struct ClusterIndex {
    subspace: ReducedSubspace,
    tree: HybridTree,
    max_radius: f64,
}

/// One cluster's query geometry: the lower bound on any member's
/// reduced-representation distance, plus the cluster's
/// [`query_geometry`].
struct ClusterProbe {
    lower_bound: f64,
    q_local: Vec<f64>,
    proj_sq: f64,
}

impl ClusterProbe {
    /// The reduced-representation distance of a row at `local_dist` from
    /// the query within the subspace.
    fn rejoin(&self, local_dist: f64) -> f64 {
        (self.proj_sq + local_dist * local_dist).sqrt()
    }
}

/// The gLDR scheme: per-cluster hybrid trees searched with lower-bound
/// ordering, outliers scanned separately.
#[derive(Debug)]
pub struct GlobalLdrIndex {
    clusters: Vec<ClusterIndex>,
    /// Outliers at original dimensionality in their own hybrid tree.
    outlier_tree: Option<HybridTree>,
    dim: usize,
    len: usize,
    /// Distances to delta rows; each tree counts its own.
    pub(crate) search: SearchCounters,
    /// Rows ingested since the snapshot, kept at the forest level (not
    /// inside any cluster tree): a row in slot `ci` < the cluster count
    /// holds local coordinates in cluster `ci`'s subspace, a row in the
    /// last slot is an outlier stored raw. All delta rows enter the global
    /// candidate heap before any tree search, so the per-cluster pruning
    /// radii never need to account for them.
    pub(crate) delta: DeltaLayer,
}

impl GlobalLdrIndex {
    /// Builds one hybrid tree per cluster from the reduction result;
    /// `buffer_pages` is split evenly between the trees.
    pub fn build(data: &Matrix, model: &ReductionResult, buffer_pages: usize) -> Result<Self> {
        let rows = &mut data_rows(data, model)?;
        Self::load(model, buffer_pages, rows)
    }

    /// The one writer of the forest's stored form (see [`crate::layout`]):
    /// one tree per cluster over its rows' local coordinates, pruned by
    /// the largest local norm, plus a tree over the raw outliers when
    /// there are any.
    pub(crate) fn load(
        model: &ReductionResult,
        buffer_pages: usize,
        rows: &mut PartitionRows<'_>,
    ) -> Result<Self> {
        let pages_each = (buffer_pages / (model.clusters.len() + 1)).max(1);
        let mut clusters = Vec::with_capacity(model.clusters.len());
        let mut outlier_tree = None;
        let mut len = 0;
        for part in partition_ids(model) {
            let subspace = part.map(|ci| &model.clusters[ci].subspace);
            let width = subspace.map_or(model.dim, |s| s.reduced_dim());
            let mut points = Matrix::zeros(0, width);
            let mut rids = Vec::new();
            let mut max_radius: f64 = 0.0;
            for (id, coords) in rows(part)? {
                max_radius = max_radius.max(mmdr_linalg::l2_norm(&coords));
                points.push_row(&coords)?;
                rids.push(id);
            }
            if subspace.is_none() && rids.is_empty() {
                continue; // no outliers, no outlier tree
            }
            len += rids.len();
            let pool = BufferPool::new(DiskManager::new(), pages_each)?;
            let tree = HybridTree::bulk_load(pool, &points, &rids)?;
            match subspace {
                Some(subspace) => clusters.push((subspace.clone(), tree, max_radius)),
                None => outlier_tree = Some(tree),
            }
        }
        Self::from_parts(clusters, outlier_tree, model.dim, len)
    }

    /// Reassembles a gLDR forest from snapshot parts: per-cluster
    /// `(subspace, tree, max_radius)` triples in build order plus the
    /// optional outlier tree. Each tree keeps counting its own fetches and
    /// distances; the forest sums them when asked.
    pub fn from_parts(
        clusters: Vec<(ReducedSubspace, HybridTree, f64)>,
        outlier_tree: Option<HybridTree>,
        dim: usize,
        len: usize,
    ) -> Result<Self> {
        let mut cluster_indexes = Vec::with_capacity(clusters.len());
        for (subspace, tree, max_radius) in clusters {
            if subspace.reduced_dim() != tree.dim() || subspace.original_dim() != dim {
                return Err(Error::InvalidConfig(
                    "subspace shape disagrees with its tree",
                ));
            }
            cluster_indexes.push(ClusterIndex {
                subspace,
                tree,
                max_radius,
            });
        }
        if outlier_tree.as_ref().is_some_and(|t| t.dim() != dim) {
            return Err(Error::InvalidConfig("outlier tree dimensionality mismatch"));
        }
        let tree_total: usize = cluster_indexes.iter().map(|c| c.tree.len()).sum::<usize>()
            + outlier_tree.as_ref().map_or(0, |t| t.len());
        if tree_total != len {
            return Err(Error::InvalidConfig(
                "tree sizes disagree with the point count",
            ));
        }
        Ok(Self {
            clusters: cluster_indexes,
            outlier_tree,
            dim,
            len,
            search: SearchCounters::default(),
            delta: DeltaLayer::default(),
        })
    }

    /// Number of per-cluster trees (snapshot export).
    pub fn num_cluster_trees(&self) -> usize {
        self.clusters.len()
    }

    /// The `i`-th cluster's tree and its populated radius, in build order
    /// (snapshot export).
    pub fn cluster_tree(&self, i: usize) -> (&HybridTree, f64) {
        (&self.clusters[i].tree, self.clusters[i].max_radius)
    }

    /// The outlier tree, when any outliers exist (snapshot export).
    pub fn outlier_tree(&self) -> Option<&HybridTree> {
        self.outlier_tree.as_ref()
    }

    /// Every tree of the forest: the cluster trees in build order, then the
    /// outlier tree.
    pub(crate) fn trees(&self) -> impl Iterator<Item = &HybridTree> {
        self.clusters
            .iter()
            .map(|c| &c.tree)
            .chain(&self.outlier_tree)
    }

    /// Number of visible points: the snapshot rows plus live delta rows.
    /// Tree rows masked by a tombstone still count until a merge folds
    /// them out; searches filter them from answers.
    pub fn len(&self) -> usize {
        self.len + self.delta.live_rows()
    }

    /// True when no snapshot rows and no delta rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of queries.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total pages across all structures.
    pub fn total_pages(&self) -> usize {
        self.trees().map(|t| t.pool().num_pages()).sum()
    }

    /// Per-cluster query geometry, in cluster order: the lower bound is
    /// the distance to the subspace combined with the radial gap to the
    /// populated sphere.
    fn cluster_probes(&self, query: &[f64]) -> Result<Vec<ClusterProbe>> {
        self.clusters
            .iter()
            .map(|c| {
                let mut q_local = Vec::new();
                let proj_sq = query_geometry(Some(&c.subspace), query, &mut q_local)?;
                let gap = (mmdr_linalg::l2_norm(&q_local) - c.max_radius).max(0.0);
                Ok(ClusterProbe {
                    lower_bound: (proj_sq + gap * gap).sqrt(),
                    q_local,
                    proj_sq,
                })
            })
            .collect()
    }

    /// Answers `target` with the same reduced-representation distance
    /// semantics as the other schemes. Clusters are visited in ascending
    /// lower-bound order and skipped once nothing in them can enter the
    /// answer — beyond the k-th candidate, beyond a range's radius; ties
    /// at the k-th distance are still visited so the smaller point id
    /// wins, keeping the result deterministic across backends.
    ///
    /// With a `filter` this is exact pushdown: failing rows never enter
    /// the candidate heap, so they never tighten the per-cluster pruning
    /// bound; dead clusters (per the filter's sketch hints) are skipped
    /// without touching their trees. Delta rows are never cluster-skipped
    /// — sketches only cover merged base rows — and are gated per-row by
    /// the bitmap instead.
    pub(crate) fn search_impl(
        &self,
        query: &[f64],
        target: Target,
        filter: Option<&SearchFilter>,
    ) -> Result<Vec<(f64, u64)>> {
        let probes = self.cluster_probes(query)?;
        let tombs = self.delta.tombstones();
        let mut best = KnnHeap::for_target(target);
        // Delta rows enter the heap before any tree search: their cluster
        // distances mimic the tree path bit-for-bit (local distance via
        // √(Σd²), then recombined with the projection component), so a row
        // answers identically whether it is still in the delta or already
        // folded into a tree. Pushing them first also keeps the stored
        // cluster radii valid for pruning — the lower bounds only ever
        // gate tree rows.
        let mut delta_seen: u64 = 0;
        for (slot, row) in self.delta.rows().iter() {
            if filter.is_none_or(|f| f.passes(row.id)) {
                let dist = match probes.get(slot as usize) {
                    Some(probe) => probe.rejoin(mmdr_linalg::l2_dist(&probe.q_local, &row.coords)),
                    None => mmdr_linalg::l2_dist(query, &row.coords),
                };
                best.push(dist, row.id);
                delta_seen += 1;
            }
        }
        if delta_seen > 0 {
            self.search.record_dists(delta_seen);
            self.search.record_refined(delta_seen);
        }

        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by(|&a, &b| {
            probes[a]
                .lower_bound
                .partial_cmp(&probes[b].lower_bound)
                .unwrap_or(Ordering::Equal)
        });
        for ci in order {
            let probe = &probes[ci];
            if filter.is_some_and(|f| !f.cluster_alive(ci)) {
                continue; // sketch proved no base row of this cluster passes
            }
            if probe.lower_bound > best.reach() {
                continue; // cannot enter (nor tie-break: lb strictly worse)
            }
            // Distance decomposes as √(proj_sq + local²): a range's radius
            // leaves √(radius² − proj_sq) for the within-subspace part.
            let local_target = match target {
                Target::Knn(k) => Target::Knn(k),
                Target::Range(radius) => {
                    let local_r_sq = radius * radius - probe.proj_sq;
                    if local_r_sq < 0.0 {
                        continue;
                    }
                    Target::Range(local_r_sq.sqrt())
                }
            };
            let tree = &self.clusters[ci].tree;
            for (local_dist, pid) in
                tree.search_gated(&probe.q_local, local_target, &tombs, filter)?
            {
                best.push(probe.rejoin(local_dist), pid);
            }
        }
        if let Some(t) = &self.outlier_tree {
            if filter.is_none_or(|f| f.outliers_alive()) {
                for (dist, pid) in t.search_gated(query, target, &tombs, filter)? {
                    best.push(dist, pid);
                }
            }
        }
        Ok(best.into_sorted_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Ldr, LdrParams};
    use mmdr_index::VectorIndex;

    fn two_cluster_data() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..150 {
            let t = i as f64 / 149.0;
            rows.push(vec![t, jit(i, 0.3), jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 + jit(i, 0.2),
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn knn_returns_close_points() {
        let data = two_cluster_data();
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = GlobalLdrIndex::build(&data, &model, 128).unwrap();
        let r = index.knn(data.row(10), 5).unwrap();
        assert_eq!(r.len(), 5);
        assert!(r[0].0 < 0.1, "nearest reduced rep should be close");
        for w in r.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn validates_queries() {
        let data = two_cluster_data();
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = GlobalLdrIndex::build(&data, &model, 64).unwrap();
        assert!(index.knn(&[0.0], 1).is_err());
        assert!(index.knn(&[f64::NAN; 4], 1).is_err());
        assert!(index.knn(data.row(0), 0).unwrap().is_empty());
        assert!(index.range_search(&[0.0], 1.0).is_err());
        assert!(index.range_search(&[0.0; 4], -1.0).is_err());
        assert_eq!(index.len(), 300);
        assert!(!index.is_empty());
        assert_eq!(index.dim(), 4);
        assert!(index.total_pages() > 0);
    }

    #[test]
    fn io_is_summed_across_trees() {
        let data = two_cluster_data();
        // Pin d_r = 3 so leaves hold multi-d points (several leaves per
        // tree) and give each tree a 1-page pool: traversals must miss.
        let model = Ldr::new(LdrParams {
            k: 2,
            fixed_dim: Some(3),
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = GlobalLdrIndex::build(&data, &model, 3).unwrap();
        assert!(
            index.total_pages() > 2,
            "need a multi-page index for this test"
        );
        let before = index.query_stats();
        let _ = index.knn(data.row(0), 10).unwrap();
        let spent = index.query_stats().since(&before);
        assert!(spent.page_reads > 0);
        let misses: u64 = index.pool_stats().iter().map(|p| p.misses()).sum();
        assert_eq!(index.query_stats().page_reads, misses);
    }

    #[test]
    fn distances_are_summed_across_trees() {
        let data = two_cluster_data();
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = GlobalLdrIndex::build(&data, &model, 64).unwrap();
        let before = index.query_stats();
        let _ = index.knn(data.row(0), 5).unwrap();
        let by_trees: u64 = index
            .trees()
            .map(|t| t.counters().dist_computations())
            .sum();
        assert!(by_trees > 0, "the cluster trees count their distances");
        assert_eq!(
            index.query_stats().since(&before).dist_computations,
            by_trees
        );
    }

    #[test]
    fn range_search_finds_neighbourhood() {
        let data = two_cluster_data();
        let model = Ldr::new(LdrParams {
            k: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = GlobalLdrIndex::build(&data, &model, 128).unwrap();
        let q = data.row(10);
        let knn = index.knn(q, 5).unwrap();
        let hits = index.range_search(q, knn[4].0).unwrap();
        assert!(
            hits.len() >= 5,
            "range at the 5-NN distance holds at least 5 points"
        );
        for w in hits.windows(2) {
            assert!(w[0] <= w[1], "sorted by (distance, id)");
        }
        assert!(index.range_search(q, 1e6).unwrap().len() == data.rows());
    }
}
