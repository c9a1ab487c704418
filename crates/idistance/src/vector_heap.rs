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
//! so no in-memory directory is needed. Records are read through a
//! [`Scratch`], which pins the page it last read: a scan in rid order
//! costs one (buffered) page access per heap page, not per record — the
//! unit the I/O experiments count.

use crate::error::{Error, Result};
use mmdr_index::Scratch;
use mmdr_storage::{BufferPool, IoStats, PageId, PAGE_SIZE};
use std::sync::Arc;

const HEADER: usize = 8;

/// Sentinel point id marking a dead record. Nothing writes it any more
/// (live deletes are tombstones in the delta, folded out by the loader),
/// but a snapshot from a build that deleted in place may hold one, so
/// every reader skips it.
pub const TOMBSTONE: u64 = u64::MAX;

/// Paged storage of `(point_id, coords)` records grouped by partition.
#[derive(Debug)]
pub struct VectorHeap {
    pool: BufferPool,
    /// Page currently being filled, with its partition id and dim.
    open: Option<(PageId, u32, usize)>,
    len: u64,
}

impl VectorHeap {
    /// Creates an empty heap in the pool.
    pub fn new(pool: BufferPool) -> Self {
        Self {
            pool,
            open: None,
            len: 0,
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
        if let Some((page, _, dim)) = open {
            if page as usize >= pool.num_pages() {
                return Err(Error::BadRecordId(page << 16));
            }
            if dim == 0 || Self::page_capacity(dim) == 0 {
                return Err(Error::InvalidConfig("record width must fit a page"));
            }
        }
        Ok(Self { pool, open, len })
    }

    /// The partially-filled page appends currently land in, as
    /// `(page, partition, dim)` — persisted so
    /// [`from_parts`](Self::from_parts) can reattach.
    pub fn open_page(&self) -> Option<(PageId, u32, usize)> {
        self.open
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

    /// Handle to the I/O counters.
    pub fn io_stats(&self) -> Arc<IoStats> {
        self.pool.stats()
    }

    /// Records that fit a page at the given width.
    pub fn page_capacity(dim: usize) -> usize {
        (PAGE_SIZE - HEADER) / (8 + 8 * dim)
    }

    /// Appends a record for `partition`, returning its rid. Starts a new
    /// page when the partition/width changes or the page fills.
    pub fn append(&mut self, partition: u32, point_id: u64, coords: &[f64]) -> Result<u64> {
        let dim = coords.len();
        if dim == 0 || Self::page_capacity(dim) == 0 {
            return Err(Error::InvalidConfig("record width must fit a page"));
        }
        let need_new = match self.open {
            Some((page, part, pdim)) => {
                part != partition
                    || pdim != dim
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
                p.put_u16(4, dim as u16).expect("header");
                p.put_u16(6, 0).expect("header");
            })?;
            self.open = Some((page, partition, dim));
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

    /// Fetches a record through `reader`: `(partition, point_id, coords)`,
    /// the coordinates borrowed from the reader's buffer. The pool is
    /// fetched only when `rid` lives on another page than the reader's
    /// last read, and no pool lock is held while the record is decoded, so
    /// concurrent KNN workers refine candidates from the same page in
    /// parallel. This is the KNN hot path — thousands of candidates per
    /// query, a few dozen per heap page.
    pub fn read<'r>(&self, reader: &'r mut Scratch, rid: u64) -> Result<(u32, u64, &'r [f64])> {
        let page = rid >> 16;
        let slot = (rid & 0xFFFF) as usize;
        let (p, coords) = reader.page(page, || {
            if page >= self.pool.num_pages() as u64 {
                return Err(Error::BadRecordId(rid));
            }
            Ok(self.pool.page(page)?)
        })?;
        let partition = p.get_u32(0).expect("header");
        let dim = p.get_u16(4).expect("header") as usize;
        let count = p.get_u16(6).expect("header") as usize;
        if slot >= count {
            return Err(Error::BadRecordId(rid));
        }
        let base = HEADER + slot * (8 + 8 * dim);
        let point_id = p.get_u64(base).expect("record in page");
        coords.resize(dim, 0.0);
        for (j, c) in coords.iter_mut().enumerate() {
            *c = p.get_f64(base + 8 + 8 * j).expect("record in page");
        }
        Ok((partition, point_id, coords))
    }

    /// Fetches one record by itself: `(partition, point_id, coords)`.
    pub fn get(&self, rid: u64) -> Result<(u32, u64, Vec<f64>)> {
        let mut reader = Scratch::default();
        let (partition, point_id, coords) = self.read(&mut reader, rid)?;
        Ok((partition, point_id, coords.to_vec()))
    }

    /// Iterates every record, invoking `f(partition, point_id, coords)`.
    /// Reads every heap page exactly once — the sequential-scan primitive.
    pub fn scan(&self, mut f: impl FnMut(u32, u64, &[f64])) -> Result<()> {
        let pages = self.pool.num_pages() as u64;
        let mut coords = Vec::new();
        for page in 0..pages {
            let p = self.pool.page(page)?;
            let partition = p.get_u32(0).expect("header");
            let dim = p.get_u16(4).expect("header") as usize;
            let count = p.get_u16(6).expect("header") as usize;
            coords.resize(dim, 0.0);
            for slot in 0..count {
                let base = HEADER + slot * (8 + 8 * dim);
                let point_id = p.get_u64(base).expect("record in page");
                if point_id == TOMBSTONE {
                    continue; // deleted record
                }
                for (j, c) in coords.iter_mut().enumerate() {
                    *c = p.get_f64(base + 8 + 8 * j).expect("record in page");
                }
                f(partition, point_id, &coords);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;

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
        let pool = BufferPool::new(
            mmdr_storage::DiskManager::from_pages(images, mmdr_storage::IoStats::new()),
            16,
        )
        .unwrap();
        let mut back = VectorHeap::from_parts(pool, h.open_page(), h.len()).unwrap();
        assert_eq!(back.len(), 10);
        // The next append on the reopened heap gets the same rid as the
        // next append on the original.
        let r_orig = h.append(0, 99, &[9.0, 9.0]).unwrap();
        let r_back = back.append(0, 99, &[9.0, 9.0]).unwrap();
        assert_eq!(r_orig, r_back);
        assert_eq!(back.get(r_back).unwrap(), (0, 99, vec![9.0, 9.0]));
        // Bad open-page metadata is rejected.
        let pool = BufferPool::new(mmdr_storage::DiskManager::new(), 4).unwrap();
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
    fn scan_skips_a_record_carrying_the_tombstone_id() {
        let mut h = heap(8);
        h.append(0, 1, &[1.0]).unwrap();
        h.append(0, TOMBSTONE, &[2.0]).unwrap();
        h.append(0, 3, &[3.0]).unwrap();
        let mut seen = Vec::new();
        h.scan(|_, pid, _| seen.push(pid)).unwrap();
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn scan_costs_each_page_once_when_pool_is_cold() {
        let mut h = heap(1); // pathological pool: every page access is a miss
        for i in 0..500u64 {
            h.append(0, i, &[0.0; 8]).unwrap();
        }
        let pages = h.num_pages() as u64;
        let stats = h.io_stats();
        stats.reset();
        h.scan(|_, _, _| {}).unwrap();
        // Every page read exactly once, except the still-resident open page
        // may be a buffer hit.
        assert!(
            stats.reads() >= pages - 1 && stats.reads() <= pages,
            "reads {} for {pages} pages",
            stats.reads()
        );
    }
}
