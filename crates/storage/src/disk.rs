//! The disk: the pages held in memory, over an optional [`PageSource`],
//! with the counts only a source can tick.
//!
//! A built structure hands its disk every page it wrote
//! ([`DiskManager::from_pages`]: all in memory, no source); a reopened
//! snapshot instead wires a [`crate::FileSource`] underneath, and pages are
//! faulted in with `pread` the first time the buffer pool misses on them.
//! An optional readahead window turns sequential misses (leaf scans) into
//! one larger physical read.

use crate::error::{Error, Result};
use crate::page::{Page, PageId};
use crate::source::PageSource;
use std::sync::Arc;

/// Pages [`DiskManager::make_resident`] asks its source for at a time. Small
/// on purpose: the source's buffer for a run is a hole under the pages
/// loaded after it, and a longer run loads no faster.
const RESIDENT_RUN: usize = 8;

/// What a disk's [`PageSource`] did, counted since the disk was made: the
/// counts that have no buffer-pool twin. A pool's logical counts — one
/// touch per fetch, one read per miss — live in its shards
/// ([`crate::PoolStats`]); these tick only when a source is asked for an
/// image, so a disk with no source never ticks them and the gap between
/// the two is the out-of-core cost. Read through
/// [`crate::BufferPool::io`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages physically fetched from the source (a pread against a
    /// snapshot file, or an injected test read).
    pub physical_reads: u64,
    /// Reads served from the readahead run instead of a fresh fetch.
    pub readahead_hits: u64,
    /// Failed physical reads (I/O error, short read, or a page image that
    /// failed its checksum).
    pub read_errors: u64,
}

/// A paged "disk", read-only. Reads come from a [`crate::BufferPool`] on
/// a miss, which counts them; the disk counts only what its [`PageSource`]
/// does ([`IoStats`]). It is reached only under the pool's lock, so those
/// counts are plain integers. A page in memory has one home, `pages`; a
/// page that is not there comes from the source underneath.
///
/// A page image is held in memory once. `pages`, the readahead run and the
/// pool's frame all hold the same `Arc<Page>`, and a read shares it.
/// [`Default`] is a disk of no pages.
#[derive(Debug, Default)]
pub struct DiskManager {
    /// Every page by id; `Some` once handed to
    /// [`from_pages`](Self::from_pages) or loaded by
    /// [`make_resident`](Self::make_resident), `None` while it is the
    /// source's to read.
    pages: Vec<Option<Arc<Page>>>,
    /// Where a page that is `None` above is read from: physical I/O exactly
    /// when present. A build-time disk and a resident one have none.
    source: Option<Box<dyn PageSource>>,
    pub(crate) io: IoStats,
    /// Pages to pull per sequential run (`0` disables readahead).
    readahead: usize,
    /// Last prefetched run: first page id + images. Empty = no run cached.
    ra_start: PageId,
    ra_pages: Vec<Arc<Page>>,
    /// The id a strictly sequential reader would ask for next; a miss on
    /// exactly this id triggers a readahead run.
    next_seq: PageId,
}

impl DiskManager {
    /// A disk of page images, all in memory: what a bulk load hands over
    /// once it has written them. Nothing is read or counted: a built index
    /// counts from its first real page access, exactly like an opened one.
    pub fn from_pages(pages: Vec<Arc<Page>>) -> Self {
        Self {
            pages: pages.into_iter().map(Some).collect(),
            ..Self::default()
        }
    }

    /// Wraps an arbitrary page source (a [`crate::FileSource`] window into
    /// a snapshot, or a fault-injecting test source) with `readahead`
    /// pages of sequential prefetch (`0` = off). Nothing is read here:
    /// the first physical fetch happens on the first buffer-pool miss.
    pub fn from_source(source: Box<dyn PageSource>, readahead: usize) -> Self {
        Self {
            pages: vec![None; source.num_pages()],
            source: Some(source),
            readahead,
            ..Self::default()
        }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads a page. A page in memory wins over the readahead buffer, which
    /// wins over a physical fetch from the source; only the last is counted
    /// as a physical read.
    pub fn read_page(&mut self, page_id: PageId) -> Result<Arc<Page>> {
        if page_id as usize >= self.pages.len() {
            return Err(Error::PageNotFound { page_id });
        }
        let sequential = page_id == self.next_seq;
        self.next_seq = page_id + 1;
        if let Some(page) = &self.pages[page_id as usize] {
            return Ok(Arc::clone(page));
        }
        if let Some(page) = self.ra_lookup(page_id) {
            self.io.readahead_hits += 1;
            return Ok(page);
        }
        // A page in no slot has a source: only `from_source` leaves slots
        // empty, and `make_resident` fills them all before it drops it.
        let source = self
            .source
            .as_ref()
            .ok_or(Error::PageNotFound { page_id })?;
        if self.readahead > 1 && sequential {
            let left = source.num_pages() as u64 - page_id;
            let count = (self.readahead as u64).min(left) as usize;
            if let Ok(pages) = source.read_run(page_id, count) {
                self.io.physical_reads += count as u64;
                let first = Arc::clone(&pages[0]);
                self.ra_start = page_id;
                self.ra_pages = pages;
                return Ok(first);
            }
            // A failed run falls back to a single-page read below, so a
            // corrupt page later in the window cannot fail this fetch.
        }
        match source.read_page(page_id) {
            Ok(page) => {
                self.io.physical_reads += 1;
                Ok(page)
            }
            Err(e) => {
                self.io.read_errors += 1;
                Err(e)
            }
        }
    }

    /// Warms the readahead buffer with the run starting at `start` — the
    /// hint half of sequential prefetch
    /// (leaf-chain scans call this for the *next* leaf). Failures are
    /// swallowed: a bad page surfaces, typed, on the demand read that
    /// actually needs it.
    pub fn prefetch(&mut self, start: PageId) {
        let Some(source) = self.source.as_ref().filter(|_| self.readahead > 0) else {
            return;
        };
        let src_pages = source.num_pages() as u64;
        if start >= src_pages || self.ra_lookup(start).is_some() {
            return;
        }
        let count = (self.readahead as u64).min(src_pages - start) as usize;
        if let Ok(pages) = source.read_run(start, count) {
            self.io.physical_reads += count as u64;
            self.ra_start = start;
            self.ra_pages = pages;
        }
    }

    /// The current image of a page — memory over source — uncounted: what a
    /// snapshot writer walks, a bulk export and not query work.
    pub fn image(&self, page_id: PageId) -> Result<Arc<Page>> {
        match (self.pages.get(page_id as usize), &self.source) {
            (Some(Some(page)), _) => Ok(Arc::clone(page)),
            (Some(None), Some(source)) => source.read_page(page_id),
            _ => Err(Error::PageNotFound { page_id }),
        }
    }

    /// Makes the disk resident: reads every page through the source, a run
    /// at a time and verified as on any fetch, then drops the source (and
    /// with it the file handle). A load and not query work, so it is not
    /// counted; afterwards no read is physical. On an error the source
    /// stays, and with it every page not yet loaded.
    pub fn make_resident(&mut self) -> Result<()> {
        let Some(source) = self.source.as_ref() else {
            return Ok(());
        };
        for start in (0..self.pages.len()).step_by(RESIDENT_RUN) {
            let run = RESIDENT_RUN.min(self.pages.len() - start);
            let loaded = source.read_run(start as PageId, run)?;
            for (slot, page) in self.pages[start..].iter_mut().zip(loaded) {
                *slot = Some(page);
            }
        }
        self.source = None;
        self.ra_pages.clear();
        Ok(())
    }

    fn ra_lookup(&self, page_id: PageId) -> Option<Arc<Page>> {
        if self.ra_pages.is_empty() || page_id < self.ra_start {
            return None;
        }
        let idx = (page_id - self.ra_start) as usize;
        self.ra_pages.get(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FaultMode, FaultSource};
    use crate::{BufferPool, PAGE_SIZE};

    #[test]
    fn pages_in_memory_read_back_unread() {
        let mut p = Page::new();
        p.put_u64(0, 99).unwrap();
        let mut disk = DiskManager::from_pages(vec![Arc::new(p)]);
        let back = disk.read_page(0).unwrap();
        assert_eq!(back.get_u64(0).unwrap(), 99);
        assert_eq!(disk.num_pages(), 1);
        assert_eq!(
            disk.io,
            IoStats::default(),
            "reads from memory are not physical"
        );
    }

    #[test]
    fn missing_page_is_an_error() {
        let mut disk = DiskManager::default();
        assert_eq!(
            disk.read_page(5).err(),
            Some(Error::PageNotFound { page_id: 5 })
        );
    }

    fn images(n: usize) -> Vec<Page> {
        (0..n)
            .map(|i| {
                let mut p = Page::new();
                p.put_u64(8, 1000 + i as u64).unwrap();
                p
            })
            .collect()
    }

    #[test]
    fn source_reads_are_physical_and_images_are_not() {
        let src = FaultSource::new(images(4));
        let mut disk = DiskManager::from_source(Box::new(src), 0);
        assert_eq!(disk.num_pages(), 4);
        assert_eq!(disk.read_page(2).unwrap().get_u64(8).unwrap(), 1002);
        assert_eq!(disk.io.physical_reads, 1);
        assert_eq!(disk.image(3).unwrap().get_u64(8).unwrap(), 1003);
        assert!(disk.image(4).is_err());
        // Page 3 came from the source, uncounted.
        assert_eq!(disk.io.physical_reads, 1, "walking images is not a read");
        // Resident, every page is in memory and no read is physical.
        disk.make_resident().unwrap();
        assert_eq!(disk.read_page(3).unwrap().get_u64(8).unwrap(), 1003);
        assert_eq!(disk.io.physical_reads, 1, "a read from memory is free");
    }

    #[test]
    fn sequential_misses_trigger_readahead() {
        let src = FaultSource::new(images(8));
        let mut disk = DiskManager::from_source(Box::new(src), 4);
        // Page 0 is the first sequential id, so the run [0,4) comes in at once.
        assert_eq!(disk.read_page(0).unwrap().get_u64(8).unwrap(), 1000);
        assert_eq!(disk.io.physical_reads, 4);
        for id in 1..4u64 {
            assert_eq!(disk.read_page(id).unwrap().get_u64(8).unwrap(), 1000 + id);
        }
        assert_eq!(disk.io.physical_reads, 4, "run served 1..4 from the buffer");
        assert_eq!(disk.io.readahead_hits, 3);
        // The next sequential miss pulls the next run, clamped to the end.
        assert_eq!(disk.read_page(4).unwrap().get_u64(8).unwrap(), 1004);
        assert_eq!(disk.io.physical_reads, 8);
    }

    #[test]
    fn random_misses_do_not_readahead() {
        let src = FaultSource::new(images(8));
        let mut disk = DiskManager::from_source(Box::new(src), 4);
        disk.read_page(5).unwrap();
        disk.read_page(2).unwrap();
        assert_eq!(disk.io.physical_reads, 2, "non-sequential = single reads");
        assert_eq!(disk.io.readahead_hits, 0);
    }

    #[test]
    fn prefetch_warms_without_logical_reads() {
        let src = FaultSource::new(images(8));
        let pool = BufferPool::new(DiskManager::from_source(Box::new(src), 2), 4).unwrap();
        pool.prefetch(3).unwrap();
        assert_eq!(
            pool.snapshot().pages_touched(),
            0,
            "a hint is not a logical read"
        );
        assert_eq!(pool.io().physical_reads, 2);
        pool.page(3).unwrap();
        assert_eq!(pool.snapshot().misses(), 1);
        assert_eq!(pool.io().readahead_hits, 1);
        assert_eq!(pool.io().physical_reads, 2, "demand read was free");
        // Prefetch with readahead disabled is a no-op.
        let src = FaultSource::new(images(4));
        let mut disk = DiskManager::from_source(Box::new(src), 0);
        disk.prefetch(0);
        assert_eq!(disk.io.physical_reads, 0);
    }

    #[test]
    fn failed_reads_are_typed_and_counted_and_retryable() {
        let src = FaultSource::new(images(4));
        let handle: &'static FaultSource = Box::leak(Box::new(src));
        // Share the leaked source so the test can flip modes mid-flight.
        #[derive(Debug)]
        struct Shared(&'static FaultSource);
        impl PageSource for Shared {
            fn num_pages(&self) -> usize {
                self.0.num_pages()
            }
            fn read_page(&self, id: PageId) -> Result<Arc<Page>> {
                self.0.read_page(id)
            }
        }
        let mut disk = DiskManager::from_source(Box::new(Shared(handle)), 0);
        handle.set_mode(FaultMode::Transient { remaining: 1 });
        match disk.read_page(1) {
            Err(Error::Io { kind, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::WouldBlock)
            }
            other => panic!("expected transient Io error, got {other:?}"),
        }
        assert_eq!(disk.io.read_errors, 1);
        // Retry succeeds; the disk is not wedged.
        assert_eq!(disk.read_page(1).unwrap().get_u64(8).unwrap(), 1001);
        assert_eq!(disk.io.read_errors, 1);
    }

    #[test]
    fn readahead_run_failure_falls_back_to_single_page() {
        let src = FaultSource::new(images(4));
        // Corrupt page 2: a run [0,4) fails its CRC, but page 0 itself is
        // fine and must still be served by the single-page fallback.
        src.set_mode(FaultMode::FlipByte {
            page_id: 2,
            offset: 11,
        });
        let mut disk = DiskManager::from_source(Box::new(src), 4);
        assert_eq!(disk.read_page(0).unwrap().get_u64(8).unwrap(), 1000);
        assert_eq!(disk.io.physical_reads, 1);
        assert_eq!(
            disk.read_page(2).err(),
            Some(Error::Corrupt { page_id: 2 }),
            "the corrupt page itself stays a typed error"
        );
        assert_eq!(disk.io.read_errors, 1);
    }

    #[test]
    fn page_size_constant_matches_images() {
        assert_eq!(Page::new().as_bytes().len(), PAGE_SIZE);
    }
}
