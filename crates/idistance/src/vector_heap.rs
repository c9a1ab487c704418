//! Paged heap file for reduced-dimensionality point payloads.
//!
//! Each page holds records of one partition (cluster or outlier set), so a
//! page-level header can carry the partition id and per-record width:
//!
//! ```text
//! offset 0: partition id (u32)
//! offset 4: dim          (u16)  — coordinates per record
//! offset 6: count        (u16)
//! offset 8: record[0] = (point_id: u64, coords: dim × f64), record[1], …
//! ```
//!
//! Record ids encode the location directly (`rid = page_id << 16 | slot`),
//! so no in-memory directory is needed. Records are read off a
//! [`HeapPage`], the pinned image of one page with its header decoded: a
//! reader pins each page once ([`PageSet`]), so it costs one (buffered)
//! page access per heap page, not per record, in whatever order it reads
//! the records — the unit the I/O experiments count — and a record is one
//! bounds-checked slice of that image ([`Record`]), decoded only as far as
//! its reader goes.
//!
//! The one thing kept beside the pages is the **id column** a filtered
//! search learns ([`VectorHeap::learned_id`]): the point ids of every page
//! such a search has pinned, so the next one can put a row to its filter
//! without pinning the page to find out which row it is.

use crate::error::{Error, Result};
use mmdr_storage::{BufferPool, Page, PageId, PageSet, PAGE_SIZE};
use std::num::NonZeroU16;
use std::sync::OnceLock;

const HEADER: usize = 8;

/// One heap page as a reader sees it: an immutable image the pool handed
/// out, held by the reader's [`PageSet`] (a pin, not a latch — see
/// [`mmdr_btree::Cursor`]), and its header.
#[derive(Debug)]
struct HeapPage<'a> {
    image: &'a Page,
    partition: u32,
    /// Bytes per record: the id and `dim` coordinates.
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
            width: 8 + 8 * dim,
            count,
        }
    }

    /// Record `slot`, taken from the image as one slice: the slot is
    /// checked against the page's count and the slice against the page's
    /// end, once, and no field read checks again. `None` for a slot the
    /// page does not hold.
    #[inline]
    fn record(&self, slot: usize) -> Option<Record<'a>> {
        if slot >= self.count {
            return None;
        }
        let bytes = self
            .image
            .bytes(HEADER + slot * self.width, self.width)
            .ok()?;
        let (id, coords) = bytes.split_first_chunk()?;
        Some(Record { id, coords })
    }

    /// The point ids the page holds, in slot order.
    fn ids(&self) -> Box<[u64]> {
        (0..self.count)
            .map_while(|slot| Some(self.record(slot)?.point_id()))
            .collect()
    }
}

/// One stored record, borrowed from its pinned page and not yet decoded:
/// reading the id costs nothing more, and the coordinates are decoded only
/// for a record somebody wants.
#[derive(Debug)]
pub struct Record<'a> {
    id: &'a [u8; 8],
    coords: &'a [u8],
}

impl Record<'_> {
    /// The point id.
    #[inline]
    pub fn point_id(&self) -> u64 {
        u64::from_le_bytes(*self.id)
    }

    /// Decodes the coordinates into `out`, replacing its contents.
    #[inline]
    pub fn coords_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let (chunks, _) = self.coords.as_chunks();
        out.extend(chunks.iter().map(|c| f64::from_le_bytes(*c)));
    }
}

/// One heap page's slot of the id column: its point ids in slot order,
/// once a filtered search has pinned it.
type PageIds = OnceLock<Box<[u64]>>;

/// Paged storage of `(point_id, coords)` records grouped by partition.
///
/// The struct is the size it was before it had an id column, and a heap no
/// filtered search reads allocates nothing for one (`open` keeps its width
/// as the page header does, which pays for the column's pointer): 32 bytes
/// more put the boxed `IDistanceIndex` into another allocator size class,
/// and the benchmark process of a workload that never filters peaked
/// 3.2 MiB higher for it.
#[derive(Debug)]
pub struct VectorHeap {
    pool: BufferPool,
    /// Page currently being filled, with its partition id and dim.
    open: Option<(PageId, u32, NonZeroU16)>,
    len: u64,
    /// The id column, one write-once slot per heap page: empty until a
    /// filtered search pins the page ([`pin_learning`](Self::pin_learning)),
    /// then that page's point ids in slot order, read without a lock. It is
    /// never scanned for and never saved; 8 bytes per row a filtered search
    /// has seen is all it can grow to. The slots themselves are made by
    /// the first such pin — after the heap's last
    /// [`append`](Self::append): a load writes a heap once, before anything
    /// searches it.
    #[allow(clippy::box_collection)] // a thin pointer: see the struct's size
    ids: OnceLock<Box<Vec<PageIds>>>,
}

impl VectorHeap {
    /// Creates an empty heap in the pool.
    pub fn new(pool: BufferPool) -> Self {
        Self {
            pool,
            open: None,
            len: 0,
            ids: OnceLock::new(),
        }
    }

    /// Reattaches a heap to pages restored from a snapshot. `open` and
    /// `len` must be the values the saved heap reported
    /// ([`open_page`](Self::open_page), [`len`](Self::len)); restoring the
    /// open-page state makes post-reopen appends land exactly where
    /// post-build appends would, so record ids stay reproducible.
    pub fn from_parts(
        pool: BufferPool,
        open: Option<(PageId, u32, usize)>,
        len: u64,
    ) -> Result<Self> {
        let open = match open {
            Some((page, _, _)) if page as usize >= pool.num_pages() => {
                return Err(Error::BadRecordId(page << 16));
            }
            Some((page, partition, dim)) => Some((page, partition, Self::width(dim)?)),
            None => None,
        };
        Ok(Self {
            pool,
            open,
            len,
            ids: OnceLock::new(),
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
        self.len
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of heap pages allocated.
    pub fn num_pages(&self) -> usize {
        self.pool.num_pages()
    }

    /// Records that fit a page at the given width.
    pub fn page_capacity(dim: usize) -> usize {
        (PAGE_SIZE - HEADER) / (8 + 8 * dim)
    }

    /// Appends a record for `partition`, returning its rid. Starts a new
    /// page when the partition/width changes or the page fills. A heap is
    /// written by its load, before anything reads it. Every record is a
    /// live row, so the id `u64::MAX` — an older build's mark of a dead
    /// one — is refused.
    pub fn append(&mut self, partition: u32, point_id: u64, coords: &[f64]) -> Result<u64> {
        debug_assert!(self.ids.get().is_none(), "appended after a search");
        if point_id == u64::MAX {
            return Err(Error::ReservedId);
        }
        let dim = coords.len();
        let width = Self::width(dim)?;
        let need_new = match self.open {
            Some((page, part, open_width)) => {
                part != partition
                    || open_width != width
                    || self
                        .pool
                        .with_page(page, |p| p.get_u16(6).expect("header"))?
                        as usize
                        >= Self::page_capacity(dim)
            }
            None => true,
        };
        if need_new {
            let page = self.pool.allocate()?;
            self.pool.with_page_mut(page, |p| {
                p.put_u32(0, partition).expect("header");
                p.put_u16(4, width.get()).expect("header");
                p.put_u16(6, 0).expect("header");
            })?;
            self.open = Some((page, partition, width));
        }
        let (page, _, _) = self.open.expect("just ensured");
        let slot = self.pool.with_page_mut(page, |p| -> Result<u16> {
            let slot = p.get_u16(6).expect("header");
            let base = HEADER + slot as usize * (8 + 8 * dim);
            p.put_u64(base, point_id)?;
            for (j, &c) in coords.iter().enumerate() {
                p.put_f64(base + 8 + 8 * j, c)?;
            }
            p.put_u16(6, slot + 1).expect("header");
            Ok(slot)
        })??;
        self.len += 1;
        Ok((page << 16) | slot as u64)
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
        let page = HeapPage::new(self.pin(pages, rid)?);
        let record = page
            .record((rid & 0xFFFF) as usize)
            .ok_or(Error::BadRecordId(rid))?;
        Ok((page.partition, record))
    }

    /// What a filtered search does before [`record`](Self::record): pins
    /// the page `rid` lives on, and a page so pinned also enters the id
    /// column (if no search put it there before), read off the image just
    /// pinned — learning costs no fetch.
    pub fn pin_learning(&self, pages: &mut PageSet, rid: u64) -> Result<()> {
        let page = self.pin(pages, rid)?;
        let ids = self.ids.get_or_init(|| {
            let unlearned = (0..self.pool.num_pages()).map(|_| OnceLock::new());
            Box::new(unlearned.collect())
        });
        ids[(rid >> 16) as usize].get_or_init(|| HeapPage::new(page).ids());
        Ok(())
    }

    /// The point id of record `rid` if the id column holds its page —
    /// that is, if a filtered search has pinned that page since the heap
    /// was loaded or opened; `None` otherwise (also for a slot the page
    /// does not have). Touches no page.
    #[inline]
    pub fn learned_id(&self, rid: u64) -> Option<u64> {
        let page = self.ids.get()?.get((rid >> 16) as usize)?.get()?;
        page.get((rid & 0xFFFF) as usize).copied()
    }

    /// Pins the page `rid` lives on in `pages`.
    #[inline]
    fn pin<'p>(&self, pages: &'p mut PageSet, rid: u64) -> Result<&'p Page> {
        let id = rid >> 16;
        if !pages.holds(id) && id >= self.pool.num_pages() as u64 {
            return Err(Error::BadRecordId(rid));
        }
        Ok(pages.page(&self.pool, id)?)
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
        for id in 0..self.pool.num_pages() as u64 {
            let image = self.pool.page(id)?;
            let page = HeapPage::new(&image);
            for slot in 0..page.count {
                let record = page
                    .record(slot)
                    .ok_or(Error::BadRecordId((id << 16) | slot as u64))?;
                record.coords_into(&mut coords);
                f(page.partition, record.point_id(), &coords);
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
    fn a_heap_is_the_size_it_was_without_an_id_column() {
        // What `open: Option<(u64, u32, usize)>` and `len` took.
        assert_eq!(
            std::mem::size_of::<VectorHeap>(),
            std::mem::size_of::<BufferPool>() + 40
        );
    }

    #[test]
    fn the_id_column_holds_what_pin_learning_pinned() {
        let mut h = heap(16);
        let cap = VectorHeap::page_capacity(4) as u64;
        let rids: Vec<u64> = (0..cap + 3)
            .map(|i| h.append(0, 100 + i, &[i as f64; 4]).unwrap())
            .collect();
        let (first, second) = (rids[0], rids[cap as usize]);
        // Reading a record learns nothing…
        let mut pages = PageSet::default();
        h.record(&mut pages, first).unwrap();
        assert_eq!(h.learned_id(first), None);
        // …reading it for a filtered search learns its page, for one fetch.
        let before = h.pool().snapshot();
        let fetches = |h: &VectorHeap| h.pool().snapshot().since(&before).pages_touched();
        pages.clear();
        h.pin_learning(&mut pages, first).unwrap();
        assert_eq!(fetches(&h), 1);
        for &rid in &rids[..cap as usize] {
            assert_eq!(h.learned_id(rid), Some(100 + (rid & 0xFFFF)));
        }
        assert_eq!(h.learned_id(second), None, "another page");
        assert_eq!(h.learned_id(first | 0xFFFF), None, "no such slot");
        assert_eq!(h.learned_id(7 << 16), None, "no such page");
        assert_eq!(fetches(&h), 1, "asking the column fetches nothing");
        h.pin_learning(&mut pages, second).unwrap();
        assert_eq!(h.learned_id(second + 2), Some(100 + cap + 2));
        assert_eq!(h.learned_id(second + 3), None);
        assert_eq!(fetches(&h), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A record taken as one slice is the record the per-field typed
        /// accessors decode, on every slot of every page — the last slot
        /// of a full page included — and a rid past the page's count or
        /// the heap's pages is still `BadRecordId`.
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
            for &rid in &rids {
                let (page, slot) = (rid >> 16, (rid & 0xFFFF) as usize);
                let p = h.pool().page(page).unwrap();
                let (part, width) = (p.get_u32(0).unwrap(), p.get_u16(4).unwrap() as usize);
                prop_assert!(slot < p.get_u16(6).unwrap() as usize);
                let at = HEADER + slot * (8 + 8 * width);
                let want: Vec<u64> = (0..width)
                    .map(|j| p.get_f64(at + 8 + 8 * j).unwrap().to_bits())
                    .collect();

                let (got_part, record) = h.record(&mut pages,rid).unwrap();
                prop_assert_eq!(got_part, part);
                prop_assert_eq!(record.point_id(), p.get_u64(at).unwrap());
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
        let mut back = VectorHeap::from_parts(pool, h.open_page(), h.len()).unwrap();
        assert_eq!(back.len(), 10);
        // The next append on the reopened heap gets the same rid as the
        // next append on the original.
        let r_orig = h.append(0, 99, &[9.0, 9.0]).unwrap();
        let r_back = back.append(0, 99, &[9.0, 9.0]).unwrap();
        assert_eq!(r_orig, r_back);
        assert_eq!(back.get(r_back).unwrap(), (0, 99, vec![9.0, 9.0]));
        // Bad open-page metadata is rejected.
        let pool = BufferPool::new(DiskManager::new(), 4).unwrap();
        assert!(VectorHeap::from_parts(pool, Some((7, 0, 2)), 0).is_err());
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
