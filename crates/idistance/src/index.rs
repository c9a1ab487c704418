//! Building the extended iDistance index from a reduction result.

use crate::codes::Codebook;
use crate::error::{Error, Result};
use crate::layout::{data_rows, partition_ids, KeySpace, PartitionRows};
use crate::vector_heap::VectorHeap;
use mmdr_btree::{BPlusTree, LEAF_CAPACITY};
use mmdr_core::{EllipsoidCluster, ReductionResult};
use mmdr_index::{DeltaLayer, SearchCounters};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use mmdr_storage::{BufferPool, DiskManager, PageId};
use std::ops::Range;

/// Per-partition search metadata (the paper's auxiliary arrays: centroids,
/// principal components, nearest/farthest radius).
#[derive(Debug)]
pub struct PartitionInfo {
    /// The reduced subspace; `None` for the outlier partition, which stays
    /// at original dimensionality with `centroid` as reference point.
    pub subspace: Option<ReducedSubspace>,
    /// Reference point (cluster centroid, or outlier reference).
    pub centroid: Vec<f64>,
    /// Smallest `dist(Pᵢ, Oᵢ)` over members.
    pub min_radius: f64,
    /// Largest `dist(Pᵢ, Oᵢ)` over members — the sphere the three search
    /// cases test against.
    pub max_radius: f64,
    /// Member count.
    pub count: usize,
    /// The cells the leaf entries' codes index, cut from the rows the
    /// partition was loaded with; `None` when it was loaded empty.
    pub codebook: Option<Codebook>,
    /// Where its rows lie, worked out by [`IDistanceIndex::from_parts`].
    pub(crate) run: Run,
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
            min_radius,
            max_radius,
            count,
            codebook,
            run: Run::default(),
        }
    }
}

/// Where one partition's rows lie. A load lays each partition's rows out
/// once, leaf by leaf in ascending key order (in Hilbert order inside a
/// leaf), twice over: as consecutive leaf entries from position `first`,
/// and as records on a heap page run of its own from page `page`,
/// `per_page` to a page. So the partition's `n`-th entry is its `n`-th
/// record, and a position names its record by arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    pub(crate) first: u64,
    pub(crate) count: u64,
    page: PageId,
    per_page: u64,
}

impl Run {
    /// The positions the heap page holding `position` holds, and that
    /// page; `None` for a position outside the partition.
    fn page_of(&self, position: u64) -> Option<(Range<u64>, PageId)> {
        let n = position
            .checked_sub(self.first)
            .filter(|&n| n < self.count)?;
        let index = n / self.per_page;
        let start = self.first + index * self.per_page;
        let end = (start + self.per_page).min(self.first + self.count);
        Some((start..end, self.page + index))
    }
}

/// Resolves tree positions to heap record ids, remembering the positions
/// of the heap page the last one fell on: a walk along the leaves divides
/// once per heap page it crosses, and for every other position compares
/// once and adds. A filtered search resolves every leaf entry it walks, so the
/// division is not paid per entry.
#[derive(Debug, Default)]
pub struct RecordIds {
    /// The positions of the heap page resolved last, `start..start + len`
    /// (none at first).
    start: u64,
    len: u64,
    /// What turns one of them into its rid (`page << 16 | slot`) by a
    /// wrapping add.
    offset: u64,
}

impl RecordIds {
    /// The rid of the record at `position`, one of `index`'s tree
    /// positions — any a cursor returns ([`IDistanceIndex::record_id`]
    /// checks any other). Always inlined, and infallible for that: a
    /// filtered scan asks it of every leaf entry, and as a call, or with an
    /// error path, it cost `filtered_knn` 7 % of its queries.
    #[inline(always)]
    pub fn get(&mut self, index: &IDistanceIndex, position: u64) -> u64 {
        if position.wrapping_sub(self.start) >= self.len {
            self.locate(index, position);
        }
        position.wrapping_add(self.offset)
    }

    /// Moves to the heap page holding `position`.
    #[inline(never)]
    fn locate(&mut self, index: &IDistanceIndex, position: u64) {
        let parts = &index.partitions;
        let part = parts.partition_point(|p| p.run.first + p.run.count <= position);
        let (positions, page) = parts
            .get(part)
            .and_then(|p| p.run.page_of(position))
            .expect("the partitions' runs cover the tree's positions");
        self.start = positions.start;
        self.len = positions.end - positions.start;
        self.offset = (page << 16).wrapping_sub(positions.start);
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
    pub(crate) search: SearchCounters,
    len: usize,
    /// Rows ingested since the snapshot, routed to a partition and stored
    /// as the heap would store them (local coordinates for clusters, raw
    /// for outliers), each with its cell code. A search queues them beside
    /// the tree's entries, at their code bounds.
    pub(crate) delta: DeltaLayer,
}

impl IDistanceIndex {
    /// Builds the index over `data` as reduced by `model`, behind a
    /// `buffer_pages`-page budget.
    ///
    /// Every cluster's members are projected into their subspace and stored
    /// in heap pages at reduced width; outliers form one extra partition at
    /// original dimensionality. A single B⁺-tree indexes the mapped keys
    /// `y = i·c + dist(Pᵢ, Oᵢ)`.
    pub fn build(data: &Matrix, model: &ReductionResult, buffer_pages: usize) -> Result<Self> {
        let rows = &mut data_rows(data, model)?;
        let keys = KeySpace::fitted(model, |id| Some(data.row(id as usize)))?;
        Self::load(model, buffer_pages, keys, rows)
    }

    /// The one writer of the index's stored form (see [`crate::layout`]):
    /// partition `i` is cluster `i`, the last one the outlier home (always
    /// present, possibly empty), each keyed by `y = i·c + dist(P, Oᵢ)` —
    /// the norm of the local coordinates in a cluster, the distance to
    /// `keys.reference` among the outliers — and coded by the [`Codebook`]
    /// cut from the partition's rows. The tree and the heap split
    /// `buffer_pages`.
    ///
    /// The rows go to leaves in key order, a leaf every [`LEAF_CAPACITY`]
    /// positions; a leaf keeps only its key range, so inside each leaf's
    /// share of a partition they — and their heap records — go in
    /// [`Codebook::hilbert`] order of their codes, ties in key order: rows
    /// near one another in the subspace come to share heap pages.
    pub(crate) fn load(
        model: &ReductionResult,
        buffer_pages: usize,
        keys: KeySpace,
        rows: &mut PartitionRows<'_>,
    ) -> Result<Self> {
        let KeySpace { reference, c_floor } = keys;
        let pool = || BufferPool::new(DiskManager::new(), (buffer_pages / 2).max(1));
        let tree_pool = pool()?;
        let mut heap = VectorHeap::new(pool()?);

        let mut partitions: Vec<PartitionInfo> = Vec::with_capacity(model.clusters.len() + 1);
        // (key distance, code) in layout order, partition after partition;
        // keyed after c is known.
        let mut staged: Vec<(f64, u64)> = Vec::with_capacity(model.num_points);
        // One leaf's share of a partition: (Hilbert index, rank in key
        // order, code), each worked out once a row.
        let mut share: Vec<(u128, usize, u64)> = Vec::with_capacity(LEAF_CAPACITY);
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
            order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let radii = match (order.first(), order.last()) {
                (Some(nearest), Some(farthest)) => (nearest.0, farthest.0),
                _ => (0.0, 0.0),
            };
            let codebook = Codebook::fit(rows.iter().map(|(_, coords)| coords.as_slice()));
            // A partition with rows has a codebook.
            let mut rest = &order[..];
            while let (Some(book), false) = (&codebook, rest.is_empty()) {
                // The leaf being filled takes as many rows as it has room.
                let room = LEAF_CAPACITY - staged.len() % LEAF_CAPACITY;
                let (leaf, tail) = rest.split_at(room.min(rest.len()));
                rest = tail;
                share.clear();
                share.extend(leaf.iter().enumerate().map(|(rank, &(_, at))| {
                    let code = book.encode(&rows[at].1);
                    (book.hilbert(code), rank, code)
                }));
                share.sort_unstable();
                for &(_, rank, code) in &share {
                    let (dist, at) = leaf[rank];
                    let (id, coords) = &rows[at];
                    heap.append(i as u32, *id, coords)?;
                    staged.push((dist, code));
                }
            }
            partitions.push(PartitionInfo::new(
                cluster,
                &reference,
                radii,
                rows.len(),
                codebook,
            ));
        }

        // Range-partitioning constant: strictly larger than any in-partition
        // distance so ranges [i·c, (i+1)·c) never overlap.
        let widest = partitions.iter().map(|p| p.max_radius).fold(0.0, f64::max);
        let c = (2.0 * widest + 1.0).max(c_floor);
        // Partition after partition: the keys ascend leaf to leaf as they
        // stand (the bulk load refuses them if not), so entry `n` is the
        // `n`-th row laid out.
        let slots = (partitions.iter().enumerate())
            .flat_map(|(i, p)| std::iter::repeat_n(i as f64 * c, p.count));
        staged
            .iter_mut()
            .zip(slots)
            .for_each(|(entry, slot)| entry.0 += slot);
        let tree = BPlusTree::bulk_load(tree_pool, &staged)?;
        Self::from_parts(tree, heap, partitions, c, model.dim)
    }

    /// Reassembles an index from parts restored from a snapshot: a
    /// reattached B⁺-tree and heap (see [`BPlusTree::from_parts`] and
    /// [`VectorHeap::from_parts`]), the partition metadata, and the scalar
    /// state [`build`](Self::build) computed. Where each partition's rows
    /// lie follows from the counts and widths alone (see [`RecordIds`]),
    /// so it is worked out here and never stored. The index counts through
    /// the two pools it is given, like a built one.
    pub fn from_parts(
        tree: BPlusTree,
        heap: VectorHeap,
        mut partitions: Vec<PartitionInfo>,
        c: f64,
        dim: usize,
    ) -> Result<Self> {
        let Some(outlier) = partitions.last() else {
            return Err(Error::InvalidConfig("partition table must not be empty"));
        };
        if outlier.subspace.is_some() {
            return Err(Error::InvalidConfig(
                "last partition must be the outlier home",
            ));
        }
        // An infinite `c` would make every search key non-finite (`0·∞` is
        // NaN), so each query would fail after a clean open.
        let widest = partitions.iter().map(|p| p.max_radius).fold(0.0, f64::max);
        if !(c.is_finite() && c > widest) {
            return Err(Error::InvalidConfig(
                "c must be finite and exceed every partition radius",
            ));
        }
        // A partition's entries follow the previous one's; its records
        // start a heap page of their own.
        let (mut first, mut page) = (0u64, 0u64);
        for p in &mut partitions {
            let width = p
                .subspace
                .as_ref()
                .map_or(dim, ReducedSubspace::reduced_dim);
            let per_page = VectorHeap::page_capacity(width) as u64;
            let count = p.count as u64;
            if count > 0 && per_page == 0 {
                return Err(Error::InvalidConfig("record width must fit a page"));
            }
            p.run = Run {
                first,
                count,
                page,
                per_page,
            };
            first += count;
            page += count.div_ceil(per_page.max(1));
        }
        if tree.len() as u64 != first || heap.len() != first || (heap.num_pages() as u64) < page {
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
            search: SearchCounters::default(),
            len: first as usize,
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

    /// The rid of the heap record the tree's entry at `position` names (a
    /// one-off [`RecordIds::get`]); [`Error::BadRecordId`] past the tree.
    pub fn record_id(&self, position: u64) -> Result<u64> {
        if position >= self.tree.len() as u64 {
            return Err(Error::BadRecordId(position));
        }
        Ok(RecordIds::default().get(self, position))
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

    /// Total pages allocated (tree + heap) — the footprint the seq-scan
    /// comparison is normalized against.
    pub fn total_pages(&self) -> usize {
        self.tree.num_pages() + self.heap.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BuiltIndex;
    use mmdr_core::{Mmdr, MmdrParams, PointAssignment};

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

    fn fitted() -> (Matrix, ReductionResult) {
        let data = dataset();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        (data, model)
    }

    fn build() -> (Matrix, IDistanceIndex) {
        let (data, model) = fitted();
        let index = IDistanceIndex::build(&data, &model, 256).unwrap();
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
    fn from_parts_refuses_a_c_that_is_not_finite_or_too_small() {
        let (_, index) = build();
        let widest = index
            .partitions()
            .iter()
            .map(|p| p.max_radius)
            .fold(0.0, f64::max);
        // A built index's parts, reassembled with its own `c` (`None`) or
        // another.
        for other in [
            None,
            Some(f64::INFINITY),
            Some(f64::NAN),
            Some(widest),
            Some(0.0),
        ] {
            let IDistanceIndex {
                tree,
                heap,
                partitions,
                c,
                dim,
                ..
            } = build().1;
            let got = IDistanceIndex::from_parts(tree, heap, partitions, other.unwrap_or(c), dim);
            match other {
                None => assert!(got.is_ok()),
                Some(c) => assert!(matches!(got, Err(Error::InvalidConfig(_))), "c = {c}"),
            }
        }
    }

    #[test]
    fn a_position_past_the_tree_names_no_record() {
        let (_, index) = build();
        let n = index.tree().len() as u64;
        assert!(index.record_id(n - 1).is_ok());
        for bad in [n, n + 1, u64::MAX] {
            assert!(matches!(index.record_id(bad), Err(Error::BadRecordId(p)) if p == bad));
        }
    }

    #[test]
    fn inserted_points_are_routed_and_searchable() {
        let (data, model) = fitted();
        let index = IDistanceIndex::build(&data, &model, 256).unwrap();
        let built = BuiltIndex::IDistance(Box::new(index));
        // A point on the cluster's line joins the cluster…
        let on_line = vec![0.41, 0.205, 0.0, 0.0];
        let routed = built.insert(&model, 9001, &on_line).unwrap();
        assert!(matches!(routed, PointAssignment::Cluster(_)));
        // …and a point far off every subspace becomes an outlier.
        let off = vec![3.0, -3.0, 3.0, -3.0];
        let routed = built.insert(&model, 9002, &off).unwrap();
        assert_eq!(routed, PointAssignment::Outlier);
        let index = built.as_dyn();
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
        // A point of another width, or not finite, is refused.
        assert!(built.insert(&model, 1, &[0.0]).is_err());
        assert!(built.insert(&model, 1, &[f64::INFINITY; 4]).is_err());
        assert_eq!(index.len(), 202);
    }

    #[test]
    fn the_id_an_older_build_marked_dead_rows_with_is_refused() {
        // `u64::MAX` was a dead record's id; no row may carry it now, so
        // every record a search reads is a live row.
        let (data, model) = fitted();
        let rows = &mut data_rows(&data, &model).unwrap();
        let keys = KeySpace::fitted(&model, |id| Some(data.row(id as usize))).unwrap();
        let loaded = IDistanceIndex::load(&model, 256, keys, &mut |part| {
            let mut rows = rows(part)?;
            for (id, _) in rows.iter_mut().filter(|(id, _)| *id == 50) {
                *id = u64::MAX;
            }
            Ok(rows)
        });
        assert!(matches!(loaded, Err(Error::ReservedId)));
        let built =
            BuiltIndex::IDistance(Box::new(IDistanceIndex::build(&data, &model, 256).unwrap()));
        let refused = built.insert(&model, u64::MAX, data.row(50)).unwrap_err();
        assert!(refused.to_string().contains("reserved"), "{refused}");
        assert_eq!(built.delta_stats().rows, 0);
        assert_eq!(built.as_dyn().len(), 200);
        built.insert(&model, u64::MAX - 1, data.row(50)).unwrap();
        assert_eq!(built.as_dyn().knn(data.row(50), 200).unwrap().len(), 200);
    }
}
