//! Building the extended iDistance index from a reduction result.

use crate::codes::Codebook;
use crate::error::{Error, Result};
use crate::grouping::page_groups;
use crate::layout::{data_rows, partition_ids, stored_values, BaseCodes, KeySpace, PartitionRows};
use crate::vector_heap::{HeapWriter, VectorHeap};
use mmdr_btree::BPlusTree;
use mmdr_core::{EllipsoidCluster, ReductionResult};
use mmdr_index::{DeltaLayer, SearchCounters};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use mmdr_storage::PageId;
use std::sync::{Mutex, OnceLock, PoisonError};

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
    /// Its placement table: kept by the load that wrote its records, or
    /// learned by the first search that opens it after an open.
    pub(crate) placement: OnceLock<Box<[u32]>>,
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
            placement: OnceLock::new(),
        }
    }
}

/// Where one partition's rows lie. A load lays them out once, twice over:
/// as consecutive leaf entries in key order from position `first`, and as
/// records on a heap page run of its own from page `page`, `per_page` to a
/// page, each page a group of rows near one another in the subspace
/// ([`page_groups`]). A position names its record through the partition's
/// placement table ([`IDistanceIndex::placement`]): `page offset << SLOT |
/// slot` in 32 bits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    pub(crate) first: u64,
    pub(crate) count: u64,
    page: PageId,
    per_page: u64,
}

/// Bits of a placement's slot: a page holds at most 1 022 records (one
/// coordinate each).
const SLOT: u32 = 10;

/// The placement table of a partition whose rows stand in `groups` (one a
/// key-order rank, as [`page_groups`] gives them), a group a page, each
/// page's records in key order: the groups turned, in place, into `page
/// offset << SLOT | slot`. In place, for the table a build keeps then takes
/// the block the grouping took first: a table allocated after the
/// grouping's buffers held `serve_knn`'s `peak_rss_mb` 2 MiB higher.
fn placement_table(mut groups: Vec<u32>, per_page: usize) -> Box<[u32]> {
    let mut filled = vec![0u32; groups.len().div_ceil(per_page)];
    for placed in &mut groups {
        let slot = &mut filled[*placed as usize];
        *placed = *placed << SLOT | *slot;
        *slot += 1;
    }
    groups.into()
}

/// Resolves tree positions to heap record ids through the placement table
/// of the partition the last one fell in: a table read and an add, with no
/// division.
#[derive(Debug, Default)]
pub struct RecordIds<'a> {
    /// That partition's first position, first page and table (none at first).
    first: u64,
    page: PageId,
    table: &'a [u32],
}

impl<'a> RecordIds<'a> {
    /// The rid of the record at `position`, one of `index`'s tree
    /// positions — any a cursor returns, of a partition whose table is
    /// known: a build kept it, a search has opened the partition, or
    /// [`IDistanceIndex::record_id`] has resolved one of its positions.
    /// Always inlined, and infallible
    /// for that: a filtered scan asks it of every leaf entry, and as a
    /// call, or with an error path, it cost `filtered_knn` 7 % of its
    /// queries.
    #[inline(always)]
    pub fn get(&mut self, index: &'a IDistanceIndex, position: u64) -> u64 {
        if position.wrapping_sub(self.first) >= self.table.len() as u64 {
            self.locate(index, position);
        }
        let placed = u64::from(self.table[(position - self.first) as usize]);
        ((self.page + (placed >> SLOT)) << 16) | (placed & ((1 << SLOT) - 1))
    }

    /// Moves to the partition holding `position`.
    #[inline(never)]
    fn locate(&mut self, index: &'a IDistanceIndex, position: u64) {
        let part = &index.partitions[index.partition_of(position)];
        self.first = part.run.first;
        self.page = part.run.page;
        self.table = part.placement.get().expect("a learned table");
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
    /// Held while a placement table is learned, so each is read once.
    learning: Mutex<()>,
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
    /// A row is coded as it comes — a projection unrounded, so its code is
    /// the cell a from-scratch build gives it, a fold's stored value as it
    /// is (or by the base's code, see [`KeySpace::codes`]) — and then
    /// rounded ([`stored_values`]); its key, the radii and its record are
    /// the stored value's, for the ring bound `|‖p‖ − ‖q‖| ≤ ‖p − q‖` holds
    /// for the `p` a search reads. The code's cell holds the stored value
    /// too (see [`crate::codes`]).
    ///
    /// The rows go to leaves in key order, packed full, and to heap records
    /// page by page, a page a group of rows near one another by their codes
    /// ([`page_groups`]), in key order (see [`Run`]); the partition keeps
    /// the placement table that gives, so a built index never reads its
    /// leaves to learn it.
    pub(crate) fn load(
        model: &ReductionResult,
        buffer_pages: usize,
        keys: KeySpace,
        rows: &mut PartitionRows<'_>,
    ) -> Result<Self> {
        let KeySpace {
            reference,
            c_floor,
            codes: base,
        } = keys;
        let pool_pages = (buffer_pages / 2).max(1);
        let mut heap = HeapWriter::default();

        let mut partitions: Vec<PartitionInfo> = Vec::with_capacity(model.clusters.len() + 1);
        // (key distance, code) in key order, partition after partition;
        // keyed after c is known.
        let mut staged: Vec<(f64, u64)> = Vec::with_capacity(model.num_points);
        for part in partition_ids(model) {
            let i = partitions.len();
            let cluster = part.map(|ci| &model.clusters[ci]);
            let mut rows = rows(part)?;
            let codebook = Codebook::fit(rows.iter().map(|(_, coords)| coords.as_slice()));
            // A partition with rows has a codebook.
            let codes = codebook.as_ref().map_or_else(Vec::new, |book| {
                let kept = base.get(i).filter(|(cut, _)| cut.as_ref() == Some(book));
                let kept = |id: &u64| {
                    let codes = &kept?.1;
                    let at = codes.binary_search_by_key(id, |&(id, _)| id).ok()?;
                    Some(codes[at].1)
                };
                (rows.iter())
                    .map(|(id, coords)| kept(id).unwrap_or_else(|| book.encode(coords)))
                    .collect()
            });
            for (_, coords) in &mut rows {
                stored_values(coords)?;
            }
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
            let keyed: Vec<u64> = order.iter().map(|&(_, at)| codes[at]).collect();
            staged.extend(
                order
                    .iter()
                    .zip(&keyed)
                    .map(|(&(dist, _), &code)| (dist, code)),
            );
            let width = cluster.map_or(model.dim, |c| c.subspace.reduced_dim());
            let per_page = VectorHeap::page_capacity(width).max(1);
            let groups = codebook
                .as_ref()
                .map_or_else(Vec::new, |book| page_groups(book, &keyed, per_page));
            let table = placement_table(groups, per_page);
            // The records page after page, each page's in key order: every
            // page but the last is full, so a record's place is its page's
            // offset times `per_page`, plus its slot.
            let mut placed = vec![0u32; table.len()];
            for (rank, &at) in (0..).zip(&table[..]) {
                placed[(at >> SLOT) as usize * per_page + (at & ((1 << SLOT) - 1)) as usize] = rank;
            }
            for rank in placed {
                let (id, coords) = &rows[order[rank as usize].1];
                heap.append(i as u32, *id, coords)?;
            }
            let mut info = PartitionInfo::new(cluster, &reference, radii, rows.len(), codebook);
            info.placement = OnceLock::from(table);
            partitions.push(info);
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
        let tree = BPlusTree::bulk_load(pool_pages, &staged)?;
        Self::from_parts(tree, heap.finish(pool_pages)?, partitions, c, model.dim)
    }

    /// Reassembles an index from parts restored from a snapshot: a
    /// reattached B⁺-tree and heap (see [`BPlusTree::from_parts`] and
    /// [`VectorHeap::from_parts`]), the partition metadata, and the scalar
    /// state [`build`](Self::build) computed. Where each partition's rows
    /// lie follows from the counts and widths alone, so it is worked out
    /// here and never stored; which record each position names is the
    /// partition's placement table — kept by a load, or learned from the
    /// leaves by the first search that opens the partition. Reads no page.
    /// The index counts through the two pools it is given, like a built
    /// one.
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
            // Its codes order its records; a placement is `page offset <<
            // SLOT | slot` in 32 bits.
            let placeable =
                (1..1 << SLOT).contains(&per_page) && count.div_ceil(per_page) <= 1 << (32 - SLOT);
            if count > 0 && !(placeable && p.codebook.is_some()) {
                return Err(Error::InvalidConfig("partition rows must fit a table"));
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
        // Each run's pages are full but its last, and the id column must
        // count them so: a record's place on its page is its id's place.
        for run in partitions.iter().map(|p| p.run) {
            for (at, page) in (0..run.count.div_ceil(run.per_page.max(1))).zip(run.page..) {
                let want = run.per_page.min(run.count - at * run.per_page);
                if heap.id_pages().get(page as usize).map(Vec::len) != Some(want as usize) {
                    return Err(Error::InvalidConfig(
                        "a heap page holds another count than its partition's run",
                    ));
                }
            }
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
            learning: Mutex::new(()),
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
    /// one-off [`RecordIds::get`], learning its partition's table if it is
    /// not known yet); [`Error::BadRecordId`] past the tree.
    pub fn record_id(&self, position: u64) -> Result<u64> {
        if position >= self.tree.len() as u64 {
            return Err(Error::BadRecordId(position));
        }
        self.placement(self.partition_of(position))?;
        Ok(RecordIds::default().get(self, position))
    }

    /// The partition whose positions hold `position` (the last one past
    /// the tree).
    fn partition_of(&self, position: u64) -> usize {
        self.partitions
            .partition_point(|p| p.run.first + p.run.count <= position)
    }

    /// Partition `part`'s placement table: per position, in order, where its
    /// record lies, `page offset << SLOT | slot` on the partition's page run
    /// (a page holds at most 1 022 records). A built index keeps the table
    /// its load worked out. The records' order is a function of the codes
    /// the leaves hold, so after an open (which reads no page) the first
    /// call reads the partition's leaves, each once, through the tree's pool
    /// and counted as any fetch, and groups their codes as the load did.
    pub(crate) fn placement(&self, part: usize) -> Result<&[u32]> {
        let info = &self.partitions[part];
        if let Some(table) = info.placement.get() {
            return Ok(table);
        }
        let _one = self.learning.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = info.placement.get() {
            return Ok(table);
        }
        let run = info.run;
        let mut groups = Vec::new();
        if let Some(book) = &info.codebook {
            let mut codes = Vec::with_capacity(run.count as usize);
            let mut cursor = self.tree.cursor_at(run.first)?;
            for _ in 0..run.count {
                self.tree.cursor_next(&mut cursor)?;
                codes.push(cursor.code());
            }
            groups = page_groups(book, &codes, run.per_page as usize);
        }
        let table = placement_table(groups, run.per_page.max(1) as usize);
        Ok(info.placement.get_or_init(|| table))
    }

    /// Each partition's codebook and the code each of its base rows holds,
    /// by id ascending — what a fold over this index keeps
    /// ([`KeySpace::folded`]). Reads every leaf.
    pub(crate) fn codes_by_id(&self) -> Result<Vec<BaseCodes>> {
        let mut all = Vec::with_capacity(self.partitions.len());
        for (part, info) in self.partitions.iter().enumerate() {
            let run = info.run;
            let mut codes = Vec::with_capacity(run.count as usize);
            if run.count > 0 {
                self.placement(part)?;
                let (mut ids, mut cursor) = (RecordIds::default(), self.tree.cursor_at(run.first)?);
                for position in run.first..run.first + run.count {
                    self.tree.cursor_next(&mut cursor)?;
                    let rid = ids.get(self, position);
                    let id = self.heap.point_id(rid).ok_or(Error::BadRecordId(rid))?;
                    codes.push((id, cursor.code()));
                }
                codes.sort_unstable();
            }
            all.push((info.codebook.clone(), codes));
        }
        Ok(all)
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
impl IDistanceIndex {
    /// The index as an open of its snapshot leaves it: its page images in
    /// fresh pools, no counts, no delta and no placement table learned.
    pub(crate) fn reopened(self) -> Self {
        self.reopened_with(|_| {}).unwrap()
    }

    /// [`reopened`](Self::reopened), with `edit` done to the tree's page
    /// images first.
    pub(crate) fn reopened_with(
        self,
        edit: impl FnOnce(&mut Vec<std::sync::Arc<mmdr_storage::Page>>),
    ) -> Result<Self> {
        use mmdr_storage::{BufferPool, DiskManager};
        let images = |pool: &BufferPool| pool.export_pages().unwrap();
        let pool = |images, pool: &BufferPool| {
            BufferPool::new(DiskManager::from_pages(images), pool.capacity()).unwrap()
        };
        let Self {
            tree,
            heap,
            mut partitions,
            c,
            dim,
            ..
        } = self;
        let mut leaves = images(tree.pool());
        edit(&mut leaves);
        let tree = BPlusTree::from_parts(
            pool(leaves, tree.pool()),
            tree.fences().to_vec(),
            tree.len(),
        )?;
        let heap = VectorHeap::from_parts(
            pool(images(heap.pool()), heap.pool()),
            heap.len(),
            heap.id_pages().to_vec(),
        )?;
        for p in &mut partitions {
            p.placement = OnceLock::new();
        }
        Self::from_parts(tree, heap, partitions, c, dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BuiltIndex;
    use mmdr_core::{Mmdr, MmdrParams, PointAssignment};
    use mmdr_index::VectorIndex;
    use mmdr_storage::{BufferPool, DiskManager, Page};
    use std::sync::Arc;

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
    fn from_parts_refuses_rows_without_the_codes_that_order_their_records() {
        let IDistanceIndex {
            tree,
            heap,
            mut partitions,
            c,
            dim,
            ..
        } = build().1;
        let part = partitions.iter().position(|p| p.count > 0).unwrap();
        partitions[part].codebook = None;
        let got = IDistanceIndex::from_parts(tree, heap, partitions, c, dim);
        assert!(matches!(got, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn from_parts_refuses_a_heap_whose_pages_disagree_with_the_runs() {
        let IDistanceIndex {
            tree,
            heap,
            partitions,
            c,
            dim,
            ..
        } = build().1;
        // A row moved from the first page to a page past the runs: the
        // ids add up to the rows, but not page by page to the runs.
        let mut pages = heap.id_pages().to_vec();
        let moved = pages[0].pop().unwrap();
        pages.push(vec![moved]);
        let mut images = heap.pool().export_pages().unwrap();
        images.push(Arc::new(Page::new()));
        let pool = BufferPool::new(DiskManager::from_pages(images), 8).unwrap();
        let heap = VectorHeap::from_parts(pool, heap.len(), pages).unwrap();
        let got = IDistanceIndex::from_parts(tree, heap, partitions, c, dim);
        assert!(matches!(got, Err(Error::InvalidConfig(_))));
    }

    /// Each partition's leaves, counted once a partition with rows.
    fn leaves(index: &IDistanceIndex, parts: impl Iterator<Item = usize>) -> u64 {
        let cap = mmdr_btree::LEAF_CAPACITY as u64;
        let runs = parts
            .map(|p| index.partitions[p].run)
            .filter(|r| r.count > 0);
        runs.map(|r| (r.first + r.count - 1) / cap - r.first / cap + 1)
            .sum()
    }

    /// Three flats of 700 rows in 5-d, fitted: several leaves and heap
    /// pages a partition.
    fn flats() -> &'static (Matrix, ReductionResult) {
        static FLATS: OnceLock<(Matrix, ReductionResult)> = OnceLock::new();
        FLATS.get_or_init(|| {
            let rows: Vec<Vec<f64>> = (0..2100)
                .map(|i| {
                    let (f, t) = ((i % 3) as f64, (i / 3) as f64 / 700.0);
                    let s = (i as f64 * 0.618_033_988).fract();
                    let jit = ((i as f64 * 0.414_213_56).fract() - 0.5) * 0.01;
                    vec![9.0 * f + t, 9.0 * f + s, 9.0 * f + 0.5 * t, jit, -jit]
                })
                .collect();
            let data = Matrix::from_rows(&rows).unwrap();
            let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
            (data, model)
        })
    }

    #[test]
    fn a_build_keeps_its_tables_and_the_first_search_after_an_open_learns_them() {
        let (data, model) = flats();
        let built = IDistanceIndex::build(data, model, 256).unwrap();
        let parts = 0..built.partitions.len();
        assert!(leaves(&built, parts.clone()) > 3, "several leaves");
        let fetches = |index: &IDistanceIndex, f: &dyn Fn()| {
            let before = index.query_stats();
            f();
            index.query_stats().since(&before).pages_touched
        };
        // A build keeps every table its load worked out: resolving a
        // position reads no page.
        assert!(built.partitions.iter().all(|p| p.placement.get().is_some()));
        assert_eq!(fetches(&built, &|| assert!(built.record_id(0).is_ok())), 0);
        let kept: Vec<Vec<u32>> = parts
            .clone()
            .map(|p| built.placement(p).unwrap().to_vec())
            .collect();
        let index = built.reopened();
        assert!(index.partitions.iter().all(|p| p.placement.get().is_none()));
        // One position resolved: its partition's leaves are read, no more.
        let home = index.partition_of(0);
        let one = fetches(&index, &|| {
            index.record_id(0).unwrap();
        });
        assert_eq!(one, leaves(&index, [home].into_iter()));
        // A k-NN over every row opens every partition: asked once, it reads
        // the other tables; asked again, none.
        let (q, n) = (data.row(5), data.rows());
        let rest = leaves(&index, parts.clone().filter(|&p| p != home));
        assert!(rest > 0, "more than one partition with rows");
        let first = fetches(&index, &|| drop(index.knn(q, n).unwrap()));
        let second = fetches(&index, &|| drop(index.knn(q, n).unwrap()));
        assert_eq!(first, second + rest);
        // What they learned is what the build kept, to the bit.
        let learned: Vec<Vec<u32>> = parts
            .map(|p| index.placement(p).unwrap().to_vec())
            .collect();
        assert_eq!(learned, kept);
        // Eight threads asking it at once of a fresh open read each table
        // once between them.
        let want = index.knn(q, n).unwrap();
        let fresh = IDistanceIndex::build(data, model, 256).unwrap().reopened();
        let start = std::sync::Barrier::new(8);
        let eight = fetches(&fresh, &|| {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        start.wait();
                        assert_eq!(fresh.knn(q, n).unwrap(), want);
                    });
                }
            })
        });
        assert_eq!(eight, 8 * second + rest + one);
    }

    /// `n` rows of `dim` in the outlier home of an index: drawn from
    /// `distinct` rows, repeated in turn (so codes repeat), or all distinct
    /// for `distinct == 0`.
    fn outlier_home(dim: usize, n: usize, distinct: usize, mut state: u64) -> IDistanceIndex {
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_007) as f64 / 10_007.0
        };
        let drawn: Vec<Vec<f64>> = (0..if distinct == 0 { n } else { distinct })
            .map(|_| (0..dim).map(|_| draw()).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| drawn[i % drawn.len()].clone()).collect();
        let model = ReductionResult {
            dim,
            num_points: n,
            clusters: Vec::new(),
            outliers: (0..n).collect(),
            stats: Default::default(),
        };
        IDistanceIndex::build(&Matrix::from_rows(&rows).unwrap(), &model, 64).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A build keeps, bit for bit, the placement table an open learns
        /// from the leaves — for a partition of one row, of a page, of a
        /// page and one and of many pages; with codes repeated or not; at 6
        /// coordinates and at 70, wider than a code covers — and its
        /// records fill the run page by page, each once, every page full
        /// but the last.
        #[test]
        fn a_kept_table_is_the_table_an_open_learns(
            wide in proptest::bool::ANY,
            size in 0usize..4,
            distinct in 0usize..40,
            seed in 1u64..u64::MAX,
        ) {
            let dim = if wide { 70 } else { 6 };
            let per_page = VectorHeap::page_capacity(dim);
            let n = [1, per_page, per_page + 1, 30 * per_page + 5][size];
            let built = outlier_home(dim, n, distinct, seed);
            let part = built.partitions.len() - 1;
            let kept = built.placement(part).unwrap().to_vec();
            let opened = built.reopened();
            proptest::prop_assert!(opened.partitions[part].placement.get().is_none());
            proptest::prop_assert_eq!(opened.placement(part).unwrap(), &kept[..]);
            let mut placed: Vec<(u32, u32)> =
                kept.iter().map(|&p| (p >> SLOT, p & ((1 << SLOT) - 1))).collect();
            placed.sort_unstable();
            let want: Vec<(u32, u32)> = (0..n as u32)
                .map(|at| (at / per_page as u32, at % per_page as u32))
                .collect();
            proptest::prop_assert_eq!(placed, want);
        }
    }

    /// Where `mmdr_btree` keeps a leaf's header fields and its codes: the
    /// count (`u16`), the first position (`u64`), the first and the last
    /// key (`f64`s).
    const COUNT: usize = 0;
    const FIRST: usize = 2;
    const LO: usize = 10;
    const HI: usize = 18;
    const CODES: usize = 26;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// A leaf image with its count past a leaf's capacity or short of
        /// its packing, its first position off where it packs, a first key
        /// that is not its fence (or NaN), a last key below it (or NaN), or
        /// codes overwritten at random is read or refused `Corrupt` by
        /// every reader — the tree's check, both cursor directions, a
        /// cursor put at a position, a placement table learned from the
        /// leaves, a position resolved, k-NN and range searches — and
        /// never panics.
        #[test]
        fn a_damaged_leaf_is_read_or_refused_corrupt(
            kind in 0usize..7,
            leaf in 0usize..64,
            word in 0u64..u64::MAX,
            at in 0usize..mmdr_btree::LEAF_CAPACITY,
        ) {
            use mmdr_btree::LEAF_CAPACITY as CAP;
            let (data, model) = flats();
            let index = IDistanceIndex::build(data, model, 8).unwrap();
            let leaf = leaf % index.tree.num_pages();
            let (packed, fence) = ((leaf * CAP) as u64, index.tree.fences()[leaf]);
            let damage = |page: &mut Page| {
                let pick = |n: u64| word % n;
                match kind {
                    0 => page.put_u16(COUNT, (CAP as u64 + 1 + pick(u64::from(u16::MAX) - CAP as u64)) as u16),
                    1 => page.put_u16(COUNT, pick(CAP as u64 + 1) as u16),
                    2 => page.put_u64(FIRST, [word, packed + 1, packed.wrapping_sub(1), packed + CAP as u64][pick(4) as usize]),
                    3 => page.put_f64(LO, [f64::NAN, f64::from_bits(word), fence.next_up(), fence - 1.0][pick(4) as usize]),
                    4 => page.put_f64(HI, [f64::NAN, f64::from_bits(word), fence - 1.0, f64::INFINITY][pick(4) as usize]),
                    5 => page.put_u64(CODES + 8 * at, word),
                    _ => (0..CAP).try_for_each(|i| {
                        page.put_u64(CODES + 8 * i, word.rotate_left(i as u32).wrapping_mul(i as u64 | 1))
                    }),
                }
                .unwrap()
            };
            let corrupt = |e: &Error| matches!(e, Error::BTree(mmdr_btree::Error::Corrupt(_)));
            // The fences are the build's, so the parts go together: the
            // damage is met only where a leaf is read.
            let index = index
                .reopened_with(|images| {
                    let mut page = (*images[leaf]).clone();
                    damage(&mut page);
                    images[leaf] = Arc::new(page);
                })
                .unwrap();
            let tree = &index.tree;
            if let Err(e) = tree.check_invariants() {
                proptest::prop_assert!(matches!(e, mmdr_btree::Error::Corrupt(_)), "{e}");
            }
            let n = tree.len() as u64;
            for backward in [false, true] {
                let start = if backward { f64::MAX } else { f64::MIN };
                let mut cursor = match tree.seek(start) {
                    Ok(cursor) => cursor,
                    Err(e) => {
                        proptest::prop_assert!(matches!(e, mmdr_btree::Error::Corrupt(_)), "{e}");
                        continue;
                    }
                };
                for _ in 0..=n {
                    let step = if backward { tree.cursor_prev(&mut cursor) } else { tree.cursor_next(&mut cursor) };
                    match step {
                        Ok(Some((_, position))) => {
                            proptest::prop_assert!(position < n);
                            cursor.code();
                        }
                        Ok(None) => break,
                        Err(e) => {
                            proptest::prop_assert!(matches!(e, mmdr_btree::Error::Corrupt(_)), "{e}");
                            break;
                        }
                    }
                }
            }
            for position in [0, packed, packed + at as u64, n] {
                if let Err(e) = tree.cursor_at(position.min(n)) {
                    proptest::prop_assert!(matches!(e, mmdr_btree::Error::Corrupt(_)), "{e}");
                }
            }
            for part in 0..index.partitions.len() {
                if let Err(e) = index.placement(part) {
                    proptest::prop_assert!(corrupt(&e), "{e}");
                }
            }
            for position in (0..n).step_by(97) {
                if let Err(e) = index.record_id(position) {
                    proptest::prop_assert!(corrupt(&e), "{e}");
                }
            }
            for probe in [0, 700, 1401, 2099] {
                let q = data.row(probe);
                for result in [index.knn(q, 7), index.range_search(q, 0.3)] {
                    if let Err(e) = result {
                        let inner = match &e {
                            mmdr_index::Error::Backend(inner) => inner.downcast_ref::<Error>(),
                            _ => None,
                        };
                        proptest::prop_assert!(inner.is_some_and(corrupt), "{e}");
                    }
                }
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
