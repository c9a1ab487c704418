//! Building the extended iDistance index from a reduction result.

use crate::backend::Backend;
use crate::codes::Codebook;
use crate::error::{Error, Result};
use crate::layout::{data_rows, partition_ids, KeySpace, PartitionRows};
use crate::vector_heap::VectorHeap;
use mmdr_btree::BPlusTree;
use mmdr_core::{EllipsoidCluster, ReductionResult};
use mmdr_index::{validate_vector, DeltaLayer, SearchCounters};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use mmdr_storage::{BufferPool, DiskManager};

/// Configuration of the index.
#[derive(Debug, Clone)]
pub struct IDistanceConfig {
    /// Buffer-pool pages, split between the B⁺-tree and the heap file.
    pub buffer_pages: usize,
    /// First search radius as a fraction of the widest partition radius
    /// (the paper starts with "a relatively small radius").
    pub initial_radius_fraction: f64,
    /// Radius increment per enlargement, as a fraction of the widest
    /// partition radius.
    pub radius_step_fraction: f64,
    /// Override for the range-partitioning constant `c`; by default
    /// `2 · max_radius + 1` over all partitions, which guarantees key
    /// ranges never overlap.
    pub c: Option<f64>,
    /// β used when dynamically inserting new points (cluster-vs-outlier
    /// test); defaults to Table 1's 0.1.
    pub beta: f64,
}

impl Default for IDistanceConfig {
    fn default() -> Self {
        Self {
            buffer_pages: 256,
            initial_radius_fraction: 0.05,
            radius_step_fraction: 0.05,
            c: None,
            beta: 0.1,
        }
    }
}

/// Per-partition search metadata (the paper's auxiliary arrays: centroids,
/// principal components, nearest/farthest radius, covariance for dynamic
/// insertion).
#[derive(Debug)]
pub struct PartitionInfo {
    /// The reduced subspace; `None` for the outlier partition, which stays
    /// at original dimensionality with `centroid` as reference point.
    pub subspace: Option<ReducedSubspace>,
    /// Reference point (cluster centroid, or outlier reference).
    pub centroid: Vec<f64>,
    /// Covariance of the members in the original space (dynamic-insertion
    /// array; unused by search).
    pub covariance: Option<Matrix>,
    /// Smallest `dist(Pᵢ, Oᵢ)` over members.
    pub min_radius: f64,
    /// Largest `dist(Pᵢ, Oᵢ)` over members — the sphere the three search
    /// cases test against.
    pub max_radius: f64,
    /// Member count.
    pub count: usize,
    /// The cells the leaf entries' codes index, cut from the rows the
    /// partition was loaded with; `None` when it was loaded empty, and its
    /// entries (in-place inserts, code 0) are then never judged by code.
    pub codebook: Option<Codebook>,
}

impl PartitionInfo {
    /// The partition of `cluster` — `None` for the outlier home, whose
    /// reference point is `reference` — with what a load measured of its
    /// rows. Everything else is the model's, so a snapshot stores only the
    /// measurements and says the rest once, in its model.
    pub fn new(
        cluster: Option<&EllipsoidCluster>,
        reference: &[f64],
        (min_radius, max_radius): (f64, f64),
        count: usize,
        codebook: Option<Codebook>,
    ) -> Self {
        Self {
            subspace: cluster.map(|c| c.subspace.clone()),
            centroid: match cluster {
                Some(c) => c.subspace.centroid().to_vec(),
                None => reference.to_vec(),
            },
            covariance: cluster.map(|c| c.covariance.clone()),
            min_radius,
            max_radius,
            count,
            codebook,
        }
    }
}

/// The extended iDistance index.
#[derive(Debug)]
pub struct IDistanceIndex {
    pub(crate) tree: BPlusTree,
    pub(crate) heap: VectorHeap,
    pub(crate) partitions: Vec<PartitionInfo>,
    pub(crate) c: f64,
    pub(crate) dim: usize,
    config: IDistanceConfig,
    pub(crate) search: SearchCounters,
    len: usize,
    /// Rows ingested since the snapshot, routed to a partition and stored
    /// as the heap would store them (local coordinates for clusters, raw
    /// for outliers). Scanned exactly during every search, merged into the
    /// same candidate heap as tree hits.
    pub(crate) delta: DeltaLayer,
}

impl IDistanceIndex {
    /// Builds the index over `data` as reduced by `model`.
    ///
    /// Every cluster's members are projected into their subspace and stored
    /// in heap pages at reduced width; outliers form one extra partition at
    /// original dimensionality. A single B⁺-tree indexes the mapped keys
    /// `y = i·c + dist(Pᵢ, Oᵢ)`.
    pub fn build(data: &Matrix, model: &ReductionResult, config: IDistanceConfig) -> Result<Self> {
        if config.buffer_pages < 2 {
            return Err(Error::InvalidConfig("buffer_pages must be >= 2"));
        }
        let rows = &mut data_rows(Backend::IDistance, data, model)?;
        let buffer_pages = config.buffer_pages;
        let keys = KeySpace::fitted(config, model, |id| Some(data.row(id as usize)))?;
        Self::load(model, buffer_pages, keys, rows)
    }

    /// The one writer of the index's stored form (see [`crate::layout`]):
    /// partition `i` is cluster `i`, the last one the outlier home (always
    /// present so inserts have somewhere to go), each keyed by
    /// `y = i·c + dist(P, Oᵢ)` — the norm of the local coordinates in a
    /// cluster, the distance to `keys.reference` among the outliers — and
    /// coded by the [`Codebook`] cut from the partition's rows. The tree
    /// and the heap split `buffer_pages`.
    pub(crate) fn load(
        model: &ReductionResult,
        buffer_pages: usize,
        keys: KeySpace,
        rows: &mut PartitionRows<'_>,
    ) -> Result<Self> {
        let KeySpace {
            config,
            reference,
            c_floor,
        } = keys;
        let pool = || BufferPool::new(DiskManager::new(), (buffer_pages / 2).max(1));
        let tree_pool = pool()?;
        let mut heap = VectorHeap::new(pool()?);

        let mut partitions: Vec<PartitionInfo> = Vec::with_capacity(model.clusters.len() + 1);
        // (partition, key distance, rid, code); keyed after c is known.
        let mut staged: Vec<(usize, f64, u64, u64)> = Vec::with_capacity(model.num_points);
        for part in partition_ids(model) {
            let i = partitions.len();
            let cluster = part.map(|ci| &model.clusters[ci]);
            let rows = rows(part)?;
            let mut order: Vec<(f64, usize)> = rows
                .iter()
                .enumerate()
                .map(|(at, (_, coords))| match cluster {
                    Some(_) => (mmdr_linalg::l2_norm(coords), at),
                    None => (mmdr_linalg::l2_dist(coords, &reference), at),
                })
                .collect();
            // Append in ascending key order: the heap then becomes a
            // *clustered* file — the KNN annulus scan touches heap pages in
            // the same order as tree leaves, so each page is read once
            // instead of ping-ponging.
            order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let codebook = Codebook::fit(rows.iter().map(|(_, coords)| coords.as_slice()));
            let mut min_radius = f64::INFINITY;
            let mut max_radius: f64 = 0.0;
            for (dist, at) in order {
                min_radius = min_radius.min(dist);
                max_radius = max_radius.max(dist);
                let (id, coords) = &rows[at];
                let rid = heap.append(i as u32, *id, coords)?;
                let code = codebook.as_ref().map_or(0, |book| book.encode(coords));
                staged.push((i, dist, rid, code));
            }
            if rows.is_empty() {
                min_radius = 0.0;
            }
            partitions.push(PartitionInfo::new(
                cluster,
                &reference,
                (min_radius, max_radius),
                rows.len(),
                codebook,
            ));
        }

        // Range-partitioning constant: strictly larger than any in-partition
        // distance so ranges [i·c, (i+1)·c) never overlap; the margin leaves
        // headroom for dynamic inserts that stretch a cluster.
        let widest = partitions.iter().map(|p| p.max_radius).fold(0.0, f64::max);
        let c = config.c.unwrap_or(2.0 * widest + 1.0).max(c_floor);
        let mut entries: Vec<(f64, u64, u64)> = staged
            .into_iter()
            .map(|(part, dist, rid, code)| (part as f64 * c + dist, rid, code))
            .collect();
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let tree = BPlusTree::bulk_load(tree_pool, &entries)?;
        // `from_parts` rejects an unusable `config`, including a `c` that
        // does not exceed every partition radius.
        Self::from_parts(tree, heap, partitions, c, model.dim, config)
    }

    /// Reassembles an index from parts restored from a snapshot: a
    /// reattached B⁺-tree and heap (see [`BPlusTree::from_parts`] and
    /// [`VectorHeap::from_parts`]), the partition metadata, and the scalar
    /// state [`build`](Self::build) computed. The index counts through the
    /// two pools it is given, like a built one.
    pub fn from_parts(
        tree: BPlusTree,
        heap: VectorHeap,
        partitions: Vec<PartitionInfo>,
        c: f64,
        dim: usize,
        config: IDistanceConfig,
    ) -> Result<Self> {
        if !(config.initial_radius_fraction > 0.0 && config.radius_step_fraction > 0.0) {
            return Err(Error::InvalidConfig("radius fractions must be > 0"));
        }
        let Some(outlier) = partitions.last() else {
            return Err(Error::InvalidConfig("partition table must not be empty"));
        };
        if outlier.subspace.is_some() {
            return Err(Error::InvalidConfig(
                "last partition must be the outlier home",
            ));
        }
        let widest = partitions.iter().map(|p| p.max_radius).fold(0.0, f64::max);
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // !(a > b) also rejects NaN
        if !(c > widest) {
            return Err(Error::InvalidConfig("c must exceed every partition radius"));
        }
        let len: usize = partitions.iter().map(|p| p.count).sum();
        if tree.len() != len || heap.len() < len as u64 {
            return Err(Error::InvalidConfig(
                "tree/heap sizes disagree with the partitions",
            ));
        }
        Ok(Self {
            tree,
            heap,
            partitions,
            c,
            dim,
            config,
            search: SearchCounters::default(),
            len,
            delta: DeltaLayer::default(),
        })
    }

    /// Access to the B⁺-tree over the mapped keys (snapshot export, and
    /// per-shard buffer-pool counters via its `pool().snapshot()`).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }

    /// Access to the heap file of reduced payloads (snapshot export, and
    /// per-shard buffer-pool counters via its `pool().snapshot()`).
    pub fn heap(&self) -> &VectorHeap {
        &self.heap
    }

    /// Number of visible points: the snapshot rows plus live delta rows.
    /// Base rows masked by a tombstone still count until a merge folds
    /// them out; searches filter them from answers.
    pub fn len(&self) -> usize {
        self.len + self.delta.live_rows()
    }

    /// True when no snapshot rows and no delta rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Original dimensionality of queries.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The range-partitioning constant `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Per-partition metadata (last entry is the outlier partition).
    pub fn partitions(&self) -> &[PartitionInfo] {
        &self.partitions
    }

    /// The search configuration.
    pub fn config(&self) -> &IDistanceConfig {
        &self.config
    }

    /// Total pages allocated (tree + heap) — the footprint the seq-scan
    /// comparison is normalized against.
    pub fn total_pages(&self) -> usize {
        self.tree.num_pages() + self.heap.num_pages()
    }

    /// Dynamically inserts a new point (paper §5's third auxiliary array
    /// exists for this path).
    ///
    /// The point joins the nearest subspace if its projection distance is
    /// within `β`, else the outlier partition. A cluster point whose key
    /// would escape the cluster's `[i·c, (i+1)·c)` slot (possible if a
    /// far-out point stretches the radius past the build-time margin) is
    /// routed to the outlier partition instead, preserving the mapping
    /// invariant. (A delta row, placed by [`crate::BuiltIndex::insert`],
    /// needs no such fallback: it lives outside the B⁺-tree, and the
    /// background merge recomputes `c` so every folded key fits its slot.)
    pub fn insert(&mut self, point: &[f64], point_id: u64) -> mmdr_index::Result<()> {
        validate_vector(self.dim, point)?;
        // Assignment: nearest subspace within β, else outlier.
        let clusters = self.partitions.iter().filter_map(|p| p.subspace.as_ref());
        let routed = match ReducedSubspace::nearest(clusters, point).map_err(Error::from)? {
            Some((i, subspace, d)) if d <= self.config.beta => {
                let local = subspace.project(point).map_err(Error::from)?;
                let dist = mmdr_linalg::l2_norm(&local);
                (dist < self.c).then_some((i, dist, local))
            }
            _ => None,
        };
        let (part_idx, dist, local) = routed.unwrap_or_else(|| {
            let outlier_part = self.partitions.len() - 1;
            let reference = &self.partitions[outlier_part].centroid;
            let dist = mmdr_linalg::l2_dist(point, reference);
            (outlier_part, dist, point.to_vec())
        });
        let rid = self.heap.append(part_idx as u32, point_id, &local)?;
        let key = part_idx as f64 * self.c + dist;
        let part = &mut self.partitions[part_idx];
        // The outer cells are unbounded: wherever the point lies, it has one.
        let code = part.codebook.as_ref().map_or(0, |book| book.encode(&local));
        self.tree.insert(key, rid, code).map_err(Error::from)?;
        part.min_radius = part.min_radius.min(dist);
        part.max_radius = part.max_radius.max(dist);
        part.count += 1;
        self.len += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_index::VectorIndex;

    fn dataset() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64 / 199.0;
                let j = ((i as f64 * 0.754_877_666).fract() - 0.5) * 0.02;
                vec![t, 0.5 * t + j, j, -j]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn build() -> (Matrix, IDistanceIndex) {
        let data = dataset();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let index = IDistanceIndex::build(&data, &model, IDistanceConfig::default()).unwrap();
        (data, index)
    }

    #[test]
    fn build_produces_disjoint_key_ranges() {
        let (_, index) = build();
        let widest = index
            .partitions()
            .iter()
            .map(|p| p.max_radius)
            .fold(0.0, f64::max);
        assert!(index.c() > widest, "c must exceed every radius");
        assert_eq!(index.len(), 200);
        assert!(!index.is_empty());
        assert_eq!(index.dim(), 4);
        assert!(index.total_pages() > 0);
        // Last partition is the outlier home (possibly empty).
        assert!(index.partitions().last().unwrap().subspace.is_none());
    }

    #[test]
    fn config_validation() {
        let data = dataset();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert!(IDistanceIndex::build(
            &data,
            &model,
            IDistanceConfig {
                buffer_pages: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(IDistanceIndex::build(
            &data,
            &model,
            IDistanceConfig {
                initial_radius_fraction: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(IDistanceIndex::build(
            &data,
            &model,
            IDistanceConfig {
                c: Some(0.0),
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn dynamic_insert_is_searchable() {
        let (data, mut index) = build();
        // A point on the cluster's line joins the cluster…
        let on_line = vec![0.41, 0.205, 0.0, 0.0];
        index.insert(&on_line, 9001).unwrap();
        // …and a point far off every subspace becomes an outlier.
        let off = vec![3.0, -3.0, 3.0, -3.0];
        index.insert(&off, 9002).unwrap();
        assert_eq!(index.len(), 202);
        // The inserted point's reduced representation is its projection, so
        // the self-distance is its (small) ProjDist, not exactly zero.
        let r = index.knn(&on_line, 1).unwrap();
        assert_eq!(r[0].1, 9001);
        assert!(r[0].0 < 0.02, "self distance {}", r[0].0);
        // Outliers are stored exactly; the self-distance is zero.
        let r = index.knn(&off, 1).unwrap();
        assert_eq!(r[0].1, 9002);
        assert!(r[0].0 < 1e-9);
        let _ = data;
    }

    #[test]
    fn insert_validation() {
        let (_, mut index) = build();
        assert!(index.insert(&[0.0], 1).is_err());
        assert!(index.insert(&[f64::INFINITY; 4], 1).is_err());
    }

    #[test]
    fn a_record_carrying_the_tombstone_id_never_surfaces() {
        // What an in-place delete by an older build left in a snapshot.
        let (data, mut index) = build();
        let p = data.row(50).to_vec();
        index.insert(&p, crate::TOMBSTONE).unwrap();
        let hits = index.knn(&p, 500).unwrap();
        assert_eq!(hits.len(), 200);
        assert!(hits.iter().all(|&(_, id)| id != crate::TOMBSTONE));
        let hits = index.range_search(&p, 1e6).unwrap();
        assert_eq!(hits.len(), 200);
    }

    #[test]
    fn insert_updates_partition_stats() {
        let (_, mut index) = build();
        let before: usize = index.partitions().iter().map(|p| p.count).sum();
        index.insert(&[0.5, 0.25, 0.0, 0.0], 500).unwrap();
        let after: usize = index.partitions().iter().map(|p| p.count).sum();
        assert_eq!(after, before + 1);
    }
}
