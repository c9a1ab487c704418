//! Paged heap file for reduced-dimensionality point payloads.
//!
//! Each page holds records of one partition (cluster or outlier set), so a
//! page-level header can carry the partition id and per-record width:
//!
//! ```text
//! offset 0: partition id (u32)
//! offset 4: dim          (u16)  — coordinates per record
//! offset 6: count        (u16)
//! offset 8: record[0] = coords: dim × f32, record[1], …
//! ```
//!
//! A record is its coordinates and nothing else, each a little-endian
//! `f32`, so a page holds `(PAGE_SIZE − 8) / (4·dim)` of them: 85 at
//! `dim = 12`, 1 022 at `dim = 1`. The values are the stored form's
//! ([`crate::layout::stored_values`]), each already the nearest `f32` to
//! the coordinate it stands for, so writing one loses nothing and reading
//! it back widens it to the very `f64` every backend answers over. Record
//! ids encode the location directly (`rid = page_id << 16 | slot`).
//! Records are read off a [`HeapPage`], the pinned image of one page with
//! its header decoded: a reader pins each page once ([`PageSet`]), so it
//! costs one (buffered)
//! page access per heap page, not per record, in whatever order it reads
//! the records — the unit the I/O experiments count — and a record is one
//! bounds-checked slice of that image ([`Record`]), decoded only for a
//! reader that wants its coordinates.
//!
//! The point ids live beside the pages, in the **id column**: every
//! record's id in record order, held page by page.
//! [`HeapWriter::append`] writes it with the page, a snapshot saves it as a
//! section of its own, and [`VectorHeap::point_id`] reads it without
//! pinning a page — so a search puts a row to its filter and its
//! tombstones before it spends a page on the row.
//!
//! A heap is written once, by its load, through a [`HeapWriter`]: the
//! pages are the writer's own until [`HeapWriter::finish`] hands them to
//! the pool the finished heap is read through.

use crate::error::{Error, Result};
use mmdr_storage::{BufferPool, DiskManager, Page, PageId, PageSet, PAGE_SIZE};
use std::num::NonZeroU16;
use std::sync::Arc;

const HEADER: usize = 8;

/// Bytes of one stored coordinate: an `f32`.
const COORD: usize = 4;

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
    /// The page's header decoded; a header no page could have written — no
    /// coordinates a record, or more records than fit at its width — is
    /// refused, so no record is read off it.
    fn new(image: &'a Page) -> Result<Self> {
        let partition = image.get_u32(0)?;
        let dim = image.get_u16(4)? as usize;
        let count = image.get_u16(6)? as usize;
        if dim == 0 || count > VectorHeap::page_capacity(dim) {
            return Err(Error::InvalidConfig("a heap page header no page can hold"));
        }
        Ok(Self {
            image,
            partition,
            width: COORD * dim,
            count,
        })
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

    /// Decodes the coordinates into `out`, replacing its contents: each
    /// stored `f32` widened to the `f64` it stands for.
    #[inline]
    pub fn coords_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let (chunks, _) = self.coords.as_chunks();
        out.extend(chunks.iter().map(|c| f64::from(f32::from_le_bytes(*c))));
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
    column: Box<IdColumn>,
}

/// The load of a [`VectorHeap`]: appends records into pages it owns, one
/// partition and width to a page, and [`finish`](Self::finish)es into the
/// heap, whose pool reads those pages. The only writer of a heap page.
#[derive(Debug, Default)]
pub struct HeapWriter {
    pages: Vec<Page>,
    /// The partition and width of the last page while it takes records.
    open: Option<(u32, NonZeroU16)>,
    column: IdColumn,
}

impl HeapWriter {
    /// Appends a record for `partition`, returning its rid. Starts a new
    /// page when the partition/width changes or the page fills. The
    /// coordinates are in the stored form
    /// ([`crate::layout::stored_values`]): each is written as the `f32` it
    /// already equals. Every record is a live row, so the id `u64::MAX` —
    /// an older build's mark of a dead one — is refused.
    pub fn append(&mut self, partition: u32, point_id: u64, coords: &[f64]) -> Result<u64> {
        if point_id == u64::MAX {
            return Err(Error::ReservedId);
        }
        let dim = coords.len();
        let width = VectorHeap::width(dim)?;
        let room = (self.column.pages.last())
            .is_some_and(|ids| ids.len() < VectorHeap::page_capacity(dim));
        if self.open != Some((partition, width)) || !room {
            let mut page = Page::new();
            page.put_u32(0, partition)?;
            page.put_u16(4, width.get())?;
            self.pages.push(page);
            self.column
                .pages
                .push(Vec::with_capacity(VectorHeap::page_capacity(dim)));
            self.open = Some((partition, width));
        }
        let at = self.pages.len() - 1;
        let (page, ids) = (&mut self.pages[at], &mut self.column.pages[at]);
        let slot = ids.len();
        let base = HEADER + slot * COORD * dim;
        for (j, &c) in coords.iter().enumerate() {
            page.put_f32(base + COORD * j, c as f32)?;
        }
        page.put_u16(6, slot as u16 + 1)?;
        ids.push(point_id);
        self.column.len += 1;
        Ok(((at as u64) << 16) | slot as u64)
    }

    /// The heap the records make, read through a pool of `pool_pages`
    /// frames that starts with no page in a frame, as a reopened heap's
    /// does.
    pub fn finish(self, pool_pages: usize) -> Result<VectorHeap> {
        let pages = self.pages.into_iter().map(Arc::new).collect();
        let pool = BufferPool::new(DiskManager::from_pages(pages), pool_pages)?;
        VectorHeap::from_parts(pool, self.column.len, self.column.pages)
    }
}

impl VectorHeap {
    /// Puts a heap together from its pages — a [`HeapWriter`]'s, or a
    /// snapshot's, restored — and its id column: per heap page, its
    /// records' point ids in slot order ([`id_pages`](Self::id_pages)),
    /// `len` in all ([`len`](Self::len)). A column that does not fit the
    /// pages — another page count, a page holding more records than any
    /// page can, ids that do not add up to `len`, the reserved id — is
    /// refused; a page whose width holds fewer is refused where the page is
    /// read. Reads no page.
    pub fn from_parts(pool: BufferPool, len: u64, id_pages: Vec<Vec<u64>>) -> Result<Self> {
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
        (PAGE_SIZE - HEADER) / (COORD * dim).max(1)
    }

    /// The id column: per heap page, its records' point ids in slot
    /// order — every id in record order, page by page.
    pub fn id_pages(&self) -> &[Vec<u64>] {
        &self.column.pages
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
    /// A set pins pages of one pool: clear `pages` before reading another
    /// heap's records through it.
    #[inline]
    pub fn record<'p>(&self, pages: &'p mut PageSet, rid: u64) -> Result<(u32, Record<'p>)> {
        let (page_id, slot) = (rid >> 16, (rid & 0xFFFF) as usize);
        if !pages.holds(page_id) && page_id >= self.pool.num_pages() as u64 {
            return Err(Error::BadRecordId(rid));
        }
        let page = HeapPage::new(pages.page(&self.pool, page_id)?)?;
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
            let page = HeapPage::new(&image)?;
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
    use proptest::prelude::*;

    /// A heap of `(partition, id, coords)` rows read through `pages` frames,
    /// and each row's rid.
    fn heap(
        pages: usize,
        rows: impl IntoIterator<Item = (u32, u64, Vec<f64>)>,
    ) -> (VectorHeap, Vec<u64>) {
        let mut w = HeapWriter::default();
        let rids = (rows.into_iter())
            .map(|(part, id, coords)| w.append(part, id, &coords).unwrap())
            .collect();
        (w.finish(pages).unwrap(), rids)
    }

    #[test]
    fn append_get_roundtrip() {
        let (h, rids) = heap(16, [(0, 100, vec![1.0, 2.0]), (0, 101, vec![3.0, 4.0])]);
        assert_eq!(h.get(rids[0]).unwrap(), (0, 100, vec![1.0, 2.0]));
        assert_eq!(h.get(rids[1]).unwrap(), (0, 101, vec![3.0, 4.0]));
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    fn a_run_of_records_from_one_page_fetches_it_once() {
        let cap = VectorHeap::page_capacity(4) as u64;
        let (h, rids) = heap(16, (0..cap + 2).map(|i| (0, i, vec![i as f64; 4])));
        let fetches = || h.pool().snapshot().pages_touched();
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
        let cap = VectorHeap::page_capacity(4) as u64;
        assert_eq!(cap, 255, "a record is its 16 coordinate bytes");
        let first = [0, 1 << 32, u64::MAX - 1];
        let id = |i: u64| first.get(i as usize).copied().unwrap_or(100 + i);
        let (h, rids) = heap(16, (0..cap + 3).map(|i| (0, id(i), vec![i as f64; 4])));
        for (i, &rid) in (0..).zip(&rids) {
            assert_eq!(h.point_id(rid), Some(id(i)));
        }
        let second = rids[cap as usize];
        assert_eq!(second, 1 << 16, "the second page's first slot");
        assert_eq!(h.point_id(second + 3), None, "no such slot");
        assert_eq!(h.point_id(rids[0] | 0xFFFF), None, "no such slot");
        assert_eq!(h.point_id(7 << 16), None, "no such page");
        assert_eq!(h.point_id(u64::MAX), None);
        assert_eq!(h.pool().snapshot().pages_touched(), 0);
        let lens: Vec<usize> = h.id_pages().iter().map(Vec::len).collect();
        assert_eq!(lens, [cap as usize, 3]);
        // A record read off its page carries the column's id.
        assert_eq!(h.get(rids[1]).unwrap(), (0, 1 << 32, vec![1.0; 4]));
    }

    #[test]
    fn from_parts_refuses_a_column_that_does_not_fit_the_pages() {
        let cap = VectorHeap::page_capacity(2);
        let (h, _) = heap(16, (0..cap as u64 + 5).map(|i| (0, i, vec![i as f64, 1.0])));
        let images = h.pool().export_pages().unwrap();
        let len = h.len();
        // The heap's ids cut into pages of the given lengths.
        let pages = |lens: &[usize]| -> Vec<Vec<u64>> {
            let mut ids = (0..).map(|i| i % len);
            lens.iter()
                .map(|&n| ids.by_ref().take(n).collect())
                .collect()
        };
        let reattach = |len, ids: Vec<Vec<u64>>| {
            let pool = BufferPool::new(DiskManager::from_pages(images.clone()), 4).unwrap();
            VectorHeap::from_parts(pool, len, ids)
        };
        assert_eq!(pages(&[cap, 5]), h.id_pages());
        assert!(reattach(len, h.id_pages().to_vec()).is_ok());
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
        refused(opened(reattach(len + 1, pages(&[cap, 5]))));
        refused(opened(reattach(len - 1, pages(&[cap, 5]))));
        refused(opened(reattach(len, pages(&[cap + 5]))));
        refused(opened(reattach(len, pages(&[cap, 5, 0]))));
        refused(opened(reattach(1028, pages(&[1023, 5]))));
        // The reserved id.
        let mut reserved = pages(&[cap, 5]);
        reserved[1][3] = u64::MAX;
        refused(opened(reattach(len, reserved)));
        // Counts a page image does not hold — more than fit one at its
        // width, too — are found when it is read.
        for bad in [&[cap - 1, 6][..], &[5, cap], &[cap + 5, 0]] {
            let shifted = reattach(len, pages(bad)).unwrap();
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
            // Any bit pattern is a coordinate (NaNs too): compare bits.
            let word = |i: usize| bits[i % bits.len()].rotate_left((i / bits.len()) as u32);
            let (h, rids) = heap(8, (0..n).map(|r| {
                let coords: Vec<f64> =
                    (0..dim).map(|j| f64::from_bits(word(r * dim + j))).collect();
                (3, word(r) ^ r as u64, coords)
            }));
            prop_assert_eq!(h.num_pages(), n.div_ceil(cap));

            let mut pages = PageSet::default();
            let mut coords = Vec::new();
            for (r, &rid) in rids.iter().enumerate() {
                let (page, slot) = (rid >> 16, (rid & 0xFFFF) as usize);
                let p = h.pool().page(page).unwrap();
                let (part, width) = (p.get_u32(0).unwrap(), p.get_u16(4).unwrap() as usize);
                prop_assert!(slot < p.get_u16(6).unwrap() as usize);
                let at = HEADER + slot * COORD * width;
                let want: Vec<u64> = (0..width)
                    .map(|j| f64::from(p.get_f32(at + COORD * j).unwrap()).to_bits())
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
    fn a_header_no_page_can_hold_is_refused_where_the_page_is_read() {
        let (h, _) = heap(8, (0..10u64).map(|i| (0, i, vec![i as f64, 1.0])));
        let intact = h.pool().export_pages().unwrap();
        // No coordinates a record; more records than fit at the width (the
        // id column agreeing, so only the header can tell).
        let over = VectorHeap::page_capacity(2) + 1;
        for (at, value, rows) in [(4, 0u16, 10), (6, over as u16, over)] {
            let mut page = (*intact[0]).clone();
            page.put_u16(at, value).unwrap();
            let pool = BufferPool::new(DiskManager::from_pages(vec![Arc::new(page)]), 2).unwrap();
            let ids = vec![(0..rows as u64).collect()];
            let damaged = VectorHeap::from_parts(pool, rows as u64, ids).unwrap();
            let refused =
                |got: Result<()>| assert!(matches!(got, Err(Error::InvalidConfig(_))), "{got:?}");
            refused(damaged.get(0).map(drop));
            refused(damaged.scan(|_, _, _| {}));
            refused(damaged.record(&mut PageSet::default(), 3).map(drop));
        }
    }

    #[test]
    fn partition_change_starts_new_page() {
        // Same partition, different width also breaks the page.
        let (h, rids) = heap(
            16,
            [(0, 1, vec![0.0]), (1, 2, vec![0.0]), (1, 3, vec![0.0, 0.0])],
        );
        assert_eq!(h.num_pages(), 3);
        assert_eq!(rids, [0, 1 << 16, 2 << 16]);
    }

    #[test]
    fn page_overflow_allocates() {
        let cap = VectorHeap::page_capacity(4) as u64;
        let (h, _) = heap(64, (0..cap + 1).map(|i| (0, i, vec![0.0; 4])));
        assert_eq!(h.num_pages(), 2);
    }

    #[test]
    fn capacity_shrinks_with_dim() {
        assert!(VectorHeap::page_capacity(2) > VectorHeap::page_capacity(64));
        assert_eq!(VectorHeap::page_capacity(1), 1022);
        assert_eq!(VectorHeap::page_capacity(12), 85);
        assert_eq!(VectorHeap::page_capacity(1022), 1);
        assert_eq!(VectorHeap::page_capacity(1023), 0);
    }

    #[test]
    fn invalid_records_rejected() {
        let mut w = HeapWriter::default();
        assert!(w.append(0, 1, &[]).is_err());
        assert!(w.append(0, 1, &[0.0; 1023]).is_err());
        let rid = w.append(0, 1, &[0.0]).unwrap();
        let h = w.finish(8).unwrap();
        assert!(matches!(h.get(1 << 16), Err(Error::BadRecordId(_))));
        assert!(matches!(h.get(rid + 1), Err(Error::BadRecordId(_))));
        assert!(matches!(
            HeapWriter::default().finish(0),
            Err(Error::Storage(_))
        ));
    }

    #[test]
    fn scan_visits_everything_once() {
        let (h, _) = heap(
            32,
            (0..100u64).map(|i| ((i % 3) as u32, i, vec![i as f64, -(i as f64)])),
        );
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
        let mut w = HeapWriter::default();
        w.append(0, 1, &[1.0]).unwrap();
        assert!(matches!(
            w.append(0, u64::MAX, &[2.0]),
            Err(Error::ReservedId)
        ));
        w.append(0, u64::MAX - 1, &[3.0]).unwrap();
        let h = w.finish(8).unwrap();
        let mut seen = Vec::new();
        h.scan(|_, pid, _| seen.push(pid)).unwrap();
        assert_eq!(seen, vec![1, u64::MAX - 1]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn scan_costs_each_page_once_when_pool_is_cold() {
        // Pathological pool: every page access is a miss.
        let (h, _) = heap(1, (0..500u64).map(|i| (0, i, vec![0.0; 8])));
        let pages = h.num_pages() as u64;
        h.scan(|_, _, _| {}).unwrap();
        let stats = h.pool().snapshot();
        assert_eq!((stats.hits(), stats.misses()), (0, pages));
    }
}
