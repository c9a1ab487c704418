//! Paged heap file for reduced-dimensionality point payloads.
//!
//! Each page holds records of one partition (cluster or outlier set), so a
//! page-level header can carry the partition id and per-record width:
//!
//! ```text
//! offset 0: partition id (u32)
//! offset 4: dim          (u16)  — coordinates per record
//! offset 6: count        (u16)
//! offset 8: record[0] = coords: dim × f64, record[1], …
//! ```
//!
//! A record is its coordinates and nothing else, so a page holds
//! `(PAGE_SIZE − 8) / (8·dim)` of them. Record ids encode the location
//! directly (`rid = page_id << 16 | slot`). Records are read off a
//! [`HeapPage`], the pinned image of one page with its header decoded: a
//! reader pins each page once ([`PageSet`]), so it costs one (buffered)
//! page access per heap page, not per record, in whatever order it reads
//! the records — the unit the I/O experiments count — and a record is one
//! bounds-checked slice of that image ([`Record`]), decoded only for a
//! reader that wants its coordinates.
//!
//! The point ids live beside the pages, in the **id column**: every
//! record's id in record order, held page by page.
//! [`append`](VectorHeap::append) writes it with the page, a snapshot saves
//! it as a section of its own, and [`VectorHeap::point_id`] reads it
//! without pinning a page — so a search puts a row to its filter and its
//! tombstones before it spends a page on the row.

use crate::error::{Error, Result};
use mmdr_storage::{BufferPool, Page, PageId, PageSet, PAGE_SIZE};
use std::num::NonZeroU16;

const HEADER: usize = 8;

/// One heap page as a reader sees it: an immutable image the pool handed
/// out, held by the reader's [`PageSet`] (a pin, not a latch — see
/// [`mmdr_btree::Cursor`]), and its header.
#[derive(Debug)]
struct HeapPage<'a> {
    image: &'a Page,
    partition: u32,
    /// Bytes per record: `dim` coordinates.
    width: usize,
    count: usize,
}

impl<'a> HeapPage<'a> {
    fn new(image: &'a Page) -> Self {
        let partition = image.get_u32(0).expect("header");
        let dim = image.get_u16(4).expect("header") as usize;
        let count = image.get_u16(6).expect("header") as usize;
        Self {
            image,
            partition,
            width: 8 * dim,
            count,
        }
    }

    /// The coordinate bytes of record `slot`, taken from the image as one
    /// slice: the slot is checked against the page's count and the slice
    /// against the page's end, once. `None` for a slot the page does not
    /// hold.
    #[inline]
    fn coords(&self, slot: usize) -> Option<&'a [u8]> {
        if slot >= self.count {
            return None;
        }
        let at = HEADER + slot * self.width;
        self.image.bytes(at, self.width).ok()
    }
}

/// One stored record: its point id, from the id column, and its
/// coordinates, borrowed from its pinned page and decoded only for a reader
/// that wants them.
#[derive(Debug)]
pub struct Record<'a> {
    id: u64,
    coords: &'a [u8],
}

impl Record<'_> {
    /// The point id.
    #[inline]
    pub fn point_id(&self) -> u64 {
        self.id
    }

    /// Decodes the coordinates into `out`, replacing its contents.
    #[inline]
    pub fn coords_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let (chunks, _) = self.coords.as_chunks();
        out.extend(chunks.iter().map(|c| f64::from_le_bytes(*c)));
    }
}

/// Every record's point id in record order: per heap page, its ids in slot
/// order, and how many there are in all. A page's ids are an allocation of
/// their own, the size of a few hundred bytes: held as one 200 KB block, an
/// opened D1 index's column split the hole its build had left, and the
/// benchmark's `knn_paged` process peaked 1.5 MiB higher for it.
#[derive(Debug, Default)]
struct IdColumn {
    pages: Vec<Vec<u64>>,
    len: u64,
}

impl IdColumn {
    /// Page `page`'s ids; `None` past the heap's pages.
    #[inline]
    fn page(&self, page: u64) -> Option<&[u64]> {
        Some(self.pages.get(usize::try_from(page).ok()?)?)
    }
}

/// Paged storage of reduced coordinates grouped by partition, and the id
/// column that names each record's point.
///
/// The column sits behind one pointer, so the struct is no larger than it
/// was when the ids lived on the pages: 32 bytes more once put the boxed
/// `IDistanceIndex` into another allocator size class, and the benchmark
/// process peaked 3.2 MiB higher for it.
#[derive(Debug)]
pub struct VectorHeap {
    pool: BufferPool,
    /// Page currently being filled, with its partition id and dim.
    open: Option<(PageId, u32, NonZeroU16)>,
    column: Box<IdColumn>,
}

impl VectorHeap {
    /// Creates an empty heap in the pool.
    pub fn new(pool: BufferPool) -> Self {
        Self {
            pool,
            open: None,
            column: Box::default(),
        }
    }

    /// Reattaches a heap to pages restored from a snapshot, with its id
    /// column: per heap page, its records' point ids in slot order
    /// ([`id_pages`](Self::id_pages)). `open` and `len` must be the values
    /// the saved heap reported ([`open_page`](Self::open_page),
    /// [`len`](Self::len)); restoring the open-page state makes post-reopen
    /// appends land exactly where post-build appends would, so record ids
    /// stay reproducible. A column that does not fit the pages — another
    /// page count, a page holding more records than any page can, ids that
    /// do not add up to `len`, the reserved id — is refused; a page whose
    /// width holds fewer is refused where the page is read. Reads no page.
    pub fn from_parts(
        pool: BufferPool,
        open: Option<(PageId, u32, usize)>,
        len: u64,
        id_pages: Vec<Vec<u64>>,
    ) -> Result<Self> {
        let open = match open {
            // Appends go to the last page: the column grows at its end.
            Some((page, _, _)) if page.checked_add(1) != Some(pool.num_pages() as u64) => {
                return Err(Error::BadRecordId(page << 16));
            }
            Some((page, partition, dim)) => Some((page, partition, Self::width(dim)?)),
            None => None,
        };
        let most = Self::page_capacity(1);
        if id_pages.len() != pool.num_pages()
            || id_pages.iter().any(|ids| ids.len() > most)
            || id_pages.iter().map(|ids| ids.len() as u64).sum::<u64>() != len
        {
            return Err(Error::InvalidConfig(
                "the id column must count the heap's pages and rows",
            ));
        }
        if id_pages.iter().flatten().any(|&id| id == u64::MAX) {
            return Err(Error::ReservedId);
        }
        Ok(Self {
            pool,
            open,
            column: Box::new(IdColumn {
                pages: id_pages,
                len,
            }),
        })
    }

    /// `dim` as a page header holds it; an error for a record no page fits.
    fn width(dim: usize) -> Result<NonZeroU16> {
        u16::try_from(dim)
            .ok()
            .filter(|_| Self::page_capacity(dim) > 0)
            .and_then(NonZeroU16::new)
            .ok_or(Error::InvalidConfig("record width must fit a page"))
    }

    /// The partially-filled page appends currently land in, as
    /// `(page, partition, dim)` — persisted so
    /// [`from_parts`](Self::from_parts) can reattach.
    pub fn open_page(&self) -> Option<(PageId, u32, usize)> {
        let (page, partition, width) = self.open?;
        Some((page, partition, width.get() as usize))
    }

    /// Access to the underlying buffer pool (page export for snapshots).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.column.len
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.column.len == 0
    }

    /// Number of heap pages allocated.
    pub fn num_pages(&self) -> usize {
        self.pool.num_pages()
    }

    /// Records that fit a page at the given width.
    pub fn page_capacity(dim: usize) -> usize {
        (PAGE_SIZE - HEADER) / (8 * dim).max(1)
    }

    /// The id column: per heap page, its records' point ids in slot
    /// order — every id in record order, page by page.
    pub fn id_pages(&self) -> &[Vec<u64>] {
        &self.column.pages
    }

    /// Appends a record for `partition`, returning its rid. Starts a new
    /// page when the partition/width changes or the page fills. A heap is
    /// written by its load, before anything reads it. Every record is a
    /// live row, so the id `u64::MAX` — an older build's mark of a dead
    /// one — is refused.
    pub fn append(&mut self, partition: u32, point_id: u64, coords: &[f64]) -> Result<u64> {
        if point_id == u64::MAX {
            return Err(Error::ReservedId);
        }
        let dim = coords.len();
        let width = Self::width(dim)?;
        let fits = |&(page, part, open_width): &(PageId, u32, NonZeroU16)| {
            part == partition
                && open_width == width
                && (self.column.page(page)).is_some_and(|ids| ids.len() < Self::page_capacity(dim))
        };
        let page = match self.open.filter(fits) {
            Some((page, _, _)) => page,
            None => {
                let page = self.pool.allocate()?;
                debug_assert_eq!(
                    page as usize,
                    self.column.pages.len(),
                    "the heap's own pool"
                );
                self.pool.with_page_mut(page, |p| {
                    p.put_u32(0, partition).expect("header");
                    p.put_u16(4, width.get()).expect("header");
                    p.put_u16(6, 0).expect("header");
                })?;
                let ids = Vec::with_capacity(Self::page_capacity(dim));
                self.column.pages.push(ids);
                self.open = Some((page, partition, width));
                page
            }
        };
        let slot = self.column.pages[page as usize].len() as u16;
        self.pool.with_page_mut(page, |p| -> Result<()> {
            let base = HEADER + slot as usize * 8 * dim;
            for (j, &c) in coords.iter().enumerate() {
                p.put_f64(base + 8 * j, c)?;
            }
            p.put_u16(6, slot + 1).expect("header");
            Ok(())
        })??;
        self.column.pages[page as usize].push(point_id);
        self.column.len += 1;
        Ok((page << 16) | slot as u64)
    }

    /// The point id of record `rid`, read off the id column: no page is
    /// pinned. `None` for a rid the heap does not hold.
    #[inline]
    pub fn point_id(&self, rid: u64) -> Option<u64> {
        let slot = (rid & 0xFFFF) as usize;
        self.column.page(rid >> 16)?.get(slot).copied()
    }

    /// The point ids of page `page`, whose image says it holds `count`
    /// records: a page and a column that disagree are refused.
    fn page_ids(&self, page: PageId, count: usize) -> Result<&[u64]> {
        match self.column.page(page) {
            Some(ids) if ids.len() == count => Ok(ids),
            Some(_) => Err(Error::InvalidConfig(
                "a heap page disagrees with the id column",
            )),
            None => Err(Error::BadRecordId(page << 16)),
        }
    }

    /// The record `rid` names, read off its page in `pages`: the page is
    /// fetched from the pool only when `pages` does not hold it yet, so a
    /// page costs one fetch per [`PageSet`] — per query — whatever order
    /// its records are read in, and no pool lock is held while records are
    /// decoded: concurrent KNN workers refine candidates from the same
    /// page in parallel. This is the KNN hot path.
    ///
    /// A pinned page is a pre-write image of this heap's pool: clear
    /// `pages` before reading through a set kept across anything that may
    /// have written to, or swapped, the pages.
    #[inline]
    pub fn record<'p>(&self, pages: &'p mut PageSet, rid: u64) -> Result<(u32, Record<'p>)> {
        let (page_id, slot) = (rid >> 16, (rid & 0xFFFF) as usize);
        if !pages.holds(page_id) && page_id >= self.pool.num_pages() as u64 {
            return Err(Error::BadRecordId(rid));
        }
        let page = HeapPage::new(pages.page(&self.pool, page_id)?);
        let ids = self.page_ids(page_id, page.count)?;
        let (Some(&id), Some(coords)) = (ids.get(slot), page.coords(slot)) else {
            return Err(Error::BadRecordId(rid));
        };
        Ok((page.partition, Record { id, coords }))
    }

    /// Fetches one record by itself: `(partition, point_id, coords)`.
    pub fn get(&self, rid: u64) -> Result<(u32, u64, Vec<f64>)> {
        let mut pages = PageSet::default();
        let (partition, record) = self.record(&mut pages, rid)?;
        let mut coords = Vec::new();
        record.coords_into(&mut coords);
        Ok((partition, record.point_id(), coords))
    }

    /// Iterates every record, invoking `f(partition, point_id, coords)`.
    /// Reads every heap page exactly once — the sequential-scan primitive.
    pub fn scan(&self, mut f: impl FnMut(u32, u64, &[f64])) -> Result<()> {
        let mut coords = Vec::new();
        for page_id in 0..self.pool.num_pages() as u64 {
            let image = self.pool.page(page_id)?;
            let page = HeapPage::new(&image);
            for (slot, &id) in self.page_ids(page_id, page.count)?.iter().enumerate() {
                let record = Record {
                    id,
                    coords: page
                        .coords(slot)
                        .ok_or(Error::BadRecordId((page_id << 16) | slot as u64))?,
                };
                record.coords_into(&mut coords);
                f(page.partition, id, &coords);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;
    use proptest::prelude::*;

    fn heap(pages: usize) -> VectorHeap {
        VectorHeap::new(BufferPool::new(DiskManager::new(), pages).unwrap())
    }

    #[test]
    fn append_get_roundtrip() {
        let mut h = heap(16);
        let r1 = h.append(0, 100, &[1.0, 2.0]).unwrap();
        let r2 = h.append(0, 101, &[3.0, 4.0]).unwrap();
        assert_eq!(h.get(r1).unwrap(), (0, 100, vec![1.0, 2.0]));
        assert_eq!(h.get(r2).unwrap(), (0, 101, vec![3.0, 4.0]));
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    fn a_run_of_records_from_one_page_fetches_it_once() {
        let mut h = heap(16);
        let cap = VectorHeap::page_capacity(4) as u64;
        let rids: Vec<u64> = (0..cap + 2)
            .map(|i| h.append(0, i, &[i as f64; 4]).unwrap())
            .collect();
        let before = h.pool().snapshot();
        let fetches = || h.pool().snapshot().since(&before).pages_touched();
        let mut pages = PageSet::default();
        for &rid in &rids[..cap as usize] {
            h.record(&mut pages, rid).unwrap();
        }
        assert_eq!(fetches(), 1, "one page, one fetch");
        // Another page is another fetch; coming back is not…
        for &rid in [&rids[cap as usize], &rids[0], &rids[cap as usize + 1]] {
            h.record(&mut pages, rid).unwrap();
        }
        assert_eq!(fetches(), 2);
        // …until the set lets its pages go.
        pages.clear();
        h.record(&mut pages, rids[1]).unwrap();
        assert_eq!(fetches(), 3);
    }

    #[test]
    fn a_heap_is_no_larger_than_it_was_with_ids_on_its_pages() {
        // What `open: Option<(u64, u32, usize)>`, `len` and the learned
        // column's pointer took before the ids left the pages.
        assert!(std::mem::size_of::<VectorHeap>() <= std::mem::size_of::<BufferPool>() + 40);
    }

    #[test]
    fn the_id_column_names_every_record_without_a_pin() {
        let mut h = heap(16);
        let cap = VectorHeap::page_capacity(4) as u64;
        assert_eq!(cap, 127, "a record is its 32 coordinate bytes");
        let first = [0, 1 << 32, u64::MAX - 1];
        let id = |i: u64| first.get(i as usize).copied().unwrap_or(100 + i);
        let rids: Vec<u64> = (0..cap + 3)
            .map(|i| h.append(0, id(i), &[i as f64; 4]).unwrap())
            .collect();
        let before = h.pool().snapshot();
        for (i, &rid) in (0..).zip(&rids) {
            assert_eq!(h.point_id(rid), Some(id(i)));
        }
        let second = rids[cap as usize];
        assert_eq!(second, 1 << 16, "the second page's first slot");
        assert_eq!(h.point_id(second + 3), None, "no such slot");
        assert_eq!(h.point_id(rids[0] | 0xFFFF), None, "no such slot");
        assert_eq!(h.point_id(7 << 16), None, "no such page");
        assert_eq!(h.point_id(u64::MAX), None);
        assert_eq!(h.pool().snapshot().since(&before).pages_touched(), 0);
        let lens: Vec<usize> = h.id_pages().iter().map(Vec::len).collect();
        assert_eq!(lens, [cap as usize, 3]);
        // A record read off its page carries the column's id.
        assert_eq!(h.get(rids[1]).unwrap(), (0, 1 << 32, vec![1.0; 4]));
    }

    #[test]
    fn from_parts_refuses_a_column_that_does_not_fit_the_pages() {
        let mut h = heap(16);
        let cap = VectorHeap::page_capacity(2);
        for i in 0..cap as u64 + 5 {
            h.append(0, i, &[i as f64, 1.0]).unwrap();
        }
        let images = h.pool().export_pages().unwrap();
        let (open, len) = (h.open_page(), h.len());
        // The heap's ids cut into pages of the given lengths.
        let pages = |lens: &[usize]| -> Vec<Vec<u64>> {
            let mut ids = (0..).map(|i| i % len);
            lens.iter()
                .map(|&n| ids.by_ref().take(n).collect())
                .collect()
        };
        let reattach = |open, len, ids: Vec<Vec<u64>>| {
            let pool = BufferPool::new(DiskManager::from_pages(images.clone()), 4).unwrap();
            VectorHeap::from_parts(pool, open, len, ids)
        };
        assert_eq!(pages(&[cap, 5]), h.id_pages());
        assert!(reattach(open, len, h.id_pages().to_vec()).is_ok());
        let refused = |got: Result<()>| {
            assert!(
                matches!(
                    got,
                    Err(Error::InvalidConfig(_) | Error::BadRecordId(_) | Error::ReservedId)
                ),
                "{got:?}"
            )
        };
        let opened = |got: Result<VectorHeap>| got.map(drop);
        // Ids that do not add up to the heap's length, another page count,
        // a page no page holds.
        refused(opened(reattach(open, len + 1, pages(&[cap, 5]))));
        refused(opened(reattach(open, len - 1, pages(&[cap, 5]))));
        refused(opened(reattach(open, len, pages(&[cap + 5]))));
        refused(opened(reattach(open, len, pages(&[cap, 5, 0]))));
        refused(opened(reattach(open, 517, pages(&[512, 5]))));
        // The reserved id, and an open page that is not the last.
        let mut reserved = pages(&[cap, 5]);
        reserved[1][3] = u64::MAX;
        refused(opened(reattach(open, len, reserved)));
        refused(opened(reattach(Some((0, 0, 2)), len, pages(&[cap, 5]))));
        // Counts a page image does not hold — more than fit one at its
        // width, too — are found when it is read.
        for bad in [&[cap - 1, 6][..], &[5, cap], &[cap + 5, 0]] {
            let shifted = reattach(open, len, pages(bad)).unwrap();
            refused(shifted.get(0).map(drop));
            refused(shifted.scan(|_, _, _| {}));
            let mut pages = PageSet::default();
            refused(shifted.record(&mut pages, 1 << 16).map(drop));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A record taken as one slice is the record the per-field typed
        /// accessors decode, on every slot of every page — the last slot
        /// of a full page included — with the id it was appended with, and
        /// a rid past the page's count or the heap's pages is still
        /// `BadRecordId`.
        #[test]
        fn record_view_equals_the_per_field_decode(
            dim in 1usize..40,
            full_pages in 0usize..3,
            tail in 1usize..20,
            bits in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let cap = VectorHeap::page_capacity(dim);
            let n = full_pages * cap + tail.min(cap);
            let mut h = heap(8);
            // Any bit pattern is a coordinate (NaNs too): compare bits.
            let word = |i: usize| bits[i % bits.len()].rotate_left((i / bits.len()) as u32);
            let rids: Vec<u64> = (0..n)
                .map(|r| {
                    let coords: Vec<f64> =
                        (0..dim).map(|j| f64::from_bits(word(r * dim + j))).collect();
                    h.append(3, word(r) ^ r as u64, &coords).unwrap()
                })
                .collect();
            prop_assert_eq!(h.num_pages(), n.div_ceil(cap));

            let mut pages = PageSet::default();
            let mut coords = Vec::new();
            for (r, &rid) in rids.iter().enumerate() {
                let (page, slot) = (rid >> 16, (rid & 0xFFFF) as usize);
                let p = h.pool().page(page).unwrap();
                let (part, width) = (p.get_u32(0).unwrap(), p.get_u16(4).unwrap() as usize);
                prop_assert!(slot < p.get_u16(6).unwrap() as usize);
                let at = HEADER + slot * 8 * width;
                let want: Vec<u64> = (0..width)
                    .map(|j| p.get_f64(at + 8 * j).unwrap().to_bits())
                    .collect();

                let (got_part, record) = h.record(&mut pages,rid).unwrap();
                prop_assert_eq!(got_part, part);
                prop_assert_eq!(record.point_id(), word(r) ^ r as u64);
                prop_assert_eq!(h.point_id(rid), Some(word(r) ^ r as u64));
                record.coords_into(&mut coords);
                prop_assert_eq!(coords.iter().map(|c| c.to_bits()).collect::<Vec<_>>(), want);
            }
            // The last slot of a full page ends within a record of the
            // page's end; one slot further is out of range, like any slot
            // past a page's count and any page past the heap's.
            let last = *rids.last().unwrap();
            for bad in [last + 1, last | 0xFFFF, ((last >> 16) + 1) << 16, u64::MAX] {
                prop_assert!(
                    matches!(h.record(&mut pages,bad), Err(Error::BadRecordId(rid)) if rid == bad),
                    "rid {bad:#x} must be refused"
                );
            }
            if full_pages > 0 {
                let full_last = (cap - 1) as u64;
                prop_assert!(h.record(&mut pages,full_last).is_ok());
                prop_assert!(matches!(
                    h.record(&mut pages,full_last + 1),
                    Err(Error::BadRecordId(_))
                ));
            }
        }
    }

    #[test]
    fn partition_change_starts_new_page() {
        let mut h = heap(16);
        h.append(0, 1, &[0.0]).unwrap();
        let before = h.num_pages();
        h.append(1, 2, &[0.0]).unwrap();
        assert_eq!(h.num_pages(), before + 1);
        // Same partition, different width also breaks the page.
        h.append(1, 3, &[0.0, 0.0]).unwrap();
        assert_eq!(h.num_pages(), before + 2);
    }

    #[test]
    fn page_overflow_allocates() {
        let mut h = heap(64);
        let cap = VectorHeap::page_capacity(4);
        for i in 0..(cap + 1) as u64 {
            h.append(0, i, &[0.0; 4]).unwrap();
        }
        assert_eq!(h.num_pages(), 2);
    }

    #[test]
    fn capacity_shrinks_with_dim() {
        assert!(VectorHeap::page_capacity(2) > VectorHeap::page_capacity(64));
        assert_eq!(VectorHeap::page_capacity(1000), 0);
    }

    #[test]
    fn invalid_records_rejected() {
        let mut h = heap(8);
        assert!(h.append(0, 1, &[]).is_err());
        assert!(h.append(0, 1, &[0.0; 1000]).is_err());
        assert!(matches!(h.get(1 << 16), Err(Error::BadRecordId(_))));
        let rid = h.append(0, 1, &[0.0]).unwrap();
        assert!(matches!(h.get(rid + 1), Err(Error::BadRecordId(_))));
    }

    #[test]
    fn from_parts_reattaches_and_appends_where_build_would() {
        let mut h = heap(16);
        for i in 0..10u64 {
            h.append(0, i, &[i as f64, 1.0]).unwrap();
        }
        let images = h.pool().export_pages().unwrap();
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let ids = h.id_pages().to_vec();
        let mut back = VectorHeap::from_parts(pool, h.open_page(), h.len(), ids).unwrap();
        assert_eq!(back.len(), 10);
        // The next append on the reopened heap gets the same rid as the
        // next append on the original.
        let r_orig = h.append(0, 99, &[9.0, 9.0]).unwrap();
        let r_back = back.append(0, 99, &[9.0, 9.0]).unwrap();
        assert_eq!(r_orig, r_back);
        assert_eq!(back.get(r_back).unwrap(), (0, 99, vec![9.0, 9.0]));
        // Bad open-page metadata is rejected.
        let pool = BufferPool::new(DiskManager::new(), 4).unwrap();
        assert!(VectorHeap::from_parts(pool, Some((7, 0, 2)), 0, vec![]).is_err());
    }

    #[test]
    fn scan_visits_everything_once() {
        let mut h = heap(32);
        for i in 0..100u64 {
            h.append((i % 3) as u32, i, &[i as f64, -(i as f64)])
                .unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|part, pid, coords| {
            assert_eq!(part as u64, pid % 3);
            assert_eq!(coords[0], pid as f64);
            seen.push(pid);
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn append_refuses_the_reserved_id_and_writes_nothing() {
        let mut h = heap(8);
        h.append(0, 1, &[1.0]).unwrap();
        assert!(matches!(
            h.append(0, u64::MAX, &[2.0]),
            Err(Error::ReservedId)
        ));
        h.append(0, u64::MAX - 1, &[3.0]).unwrap();
        let mut seen = Vec::new();
        h.scan(|_, pid, _| seen.push(pid)).unwrap();
        assert_eq!(seen, vec![1, u64::MAX - 1]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn scan_costs_each_page_once_when_pool_is_cold() {
        let mut h = heap(1); // pathological pool: every page access is a miss
        for i in 0..500u64 {
            h.append(0, i, &[0.0; 8]).unwrap();
        }
        let pages = h.num_pages() as u64;
        let before = h.pool().snapshot();
        h.scan(|_, _, _| {}).unwrap();
        // Every page read exactly once, except the still-resident open page
        // may be a buffer hit.
        let reads = h.pool().snapshot().since(&before).misses();
        assert!(
            reads >= pages - 1 && reads <= pages,
            "reads {reads} for {pages} pages"
        );
    }
}
