//! Out-of-core buffer-pool properties, exercised at the storage layer.
//!
//! Two harnesses:
//!
//! 1. A proptest that replays arbitrary sequences of page reads against a
//!    *tiny-capacity*, file-backed pool and a fully resident model pool
//!    built from the same images ([`DiskManager::from_pages`]). Contents
//!    must stay identical page for page, however often a page is evicted
//!    and faulted back in. A second property makes such a pool resident
//!    mid-life: every page is loaded, and the source is never asked again.
//! 2. Fault-injection tests with a [`FaultSource`] behind the pool:
//!    transient failures heal on retry, permanent failures and short reads
//!    stay typed errors (never a panic, never wrong bytes), a flipped byte
//!    trips the per-page CRC, and the pool keeps serving other pages — and
//!    the faulted page itself once the fault clears — because a failed
//!    fetch installs no frame.

use mmdr_storage::{
    crc32, BufferPool, DiskManager, Error, FaultMode, FaultSource, FileSource, Page, PageId,
    PageSource, PAGE_SIZE,
};
use proptest::prelude::*;
use std::fs::File;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique temp path per call, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "mmdr-oocore-pool-{}-{tag}-{seq}.pages",
            std::process::id()
        ));
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Deterministic, page-id-dependent images so a stale or swapped page can
/// never masquerade as the right one.
fn patterned_pages(n: usize) -> Vec<Page> {
    (0..n)
        .map(|i| {
            let mut bytes = [0u8; PAGE_SIZE];
            for (j, b) in bytes.iter_mut().enumerate() {
                *b = ((i * 131 + j * 7) % 251) as u8;
            }
            Page::from_bytes(&bytes).unwrap()
        })
        .collect()
}

/// Writes `pages` as raw images to a fresh file and opens a demand-read,
/// file-backed pool over them with the given capacity and readahead.
fn file_pool(
    pages: &[Page],
    capacity: usize,
    readahead: usize,
    tag: &str,
) -> (BufferPool, TempFile) {
    let file = TempFile::new(tag);
    let mut bytes = Vec::with_capacity(pages.len() * PAGE_SIZE);
    for p in pages {
        bytes.extend_from_slice(p.as_bytes());
    }
    std::fs::write(&file.0, &bytes).unwrap();
    let crcs: Vec<u32> = pages.iter().map(|p| crc32(p.as_bytes())).collect();
    let source = FileSource::new(Arc::new(File::open(&file.0).unwrap()), 0, crcs.into());
    let disk = DiskManager::from_source(Box::new(source), readahead);
    (BufferPool::new(disk, capacity).unwrap(), file)
}

/// The fully resident reference: same images, a pool big enough to never
/// evict, served from memory.
fn model_pool(pages: &[Page]) -> BufferPool {
    let disk = DiskManager::from_pages(pages.iter().cloned().map(Arc::new).collect());
    BufferPool::new(disk, pages.len() + 1).unwrap()
}

const NUM_PAGES: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary read sequences over a pool small enough that pages are
    /// constantly evicted must match a resident model exactly — every
    /// page, every byte.
    #[test]
    fn interleavings_match_resident_model(
        // A tiny page domain, so the same page is read, evicted and
        // re-faulted many times per case.
        ops in proptest::collection::vec(0u64..NUM_PAGES as u64, 1..80),
        capacity in 1usize..5,
        readahead in 0usize..5,
    ) {
        let pages = patterned_pages(NUM_PAGES);
        let (subject, _file) = file_pool(&pages, capacity, readahead, "prop");
        let model = model_pool(&pages);

        for (i, &page_id) in ops.iter().enumerate() {
            let got = subject.page(page_id).unwrap();
            let want = model.page(page_id).unwrap();
            prop_assert_eq!(
                got.as_bytes().as_slice(),
                want.as_bytes().as_slice(),
                "page {} diverged mid-run at op {}",
                page_id,
                i
            );
        }

        // Every page — including ones the ops never touched — must match
        // the model bit for bit, both through the pool's read path and
        // through a full export.
        for page_id in 0..NUM_PAGES as PageId {
            let got = subject.page(page_id).unwrap();
            let want = model.page(page_id).unwrap();
            prop_assert_eq!(
                got.as_bytes().as_slice(),
                want.as_bytes().as_slice(),
                "page {} diverged at the end",
                page_id
            );
        }
        let exported = subject.export_pages().unwrap();
        let model_exported = model.export_pages().unwrap();
        prop_assert_eq!(exported.len(), model_exported.len());
        for (page_id, (got, want)) in exported.iter().zip(&model_exported).enumerate() {
            prop_assert_eq!(
                got.as_bytes().as_slice(),
                want.as_bytes().as_slice(),
                "exported page {} diverged",
                page_id
            );
        }
    }

    /// Making a pool resident after pages were read through it loads every
    /// page; afterwards nothing is physical I/O and the source, set to fail
    /// every read, is never consulted.
    #[test]
    fn make_resident_loads_every_page_and_retires_the_source(
        reads in proptest::collection::vec(0u64..NUM_PAGES as u64, 0..20),
        capacity in 1usize..5,
        readahead in 0usize..5,
    ) {
        let pages = patterned_pages(NUM_PAGES);
        let (subject, fault) = fault_pool(NUM_PAGES, capacity, readahead);
        let want: Vec<[u8; PAGE_SIZE]> = pages.iter().map(|p| *p.as_bytes()).collect();
        for &page_id in &reads {
            subject.page(page_id).unwrap();
        }
        subject.make_resident().unwrap();

        fault.set_mode(FaultMode::Permanent);
        let (before, io) = (subject.snapshot(), subject.io());
        for round in 0..2 {
            for page_id in 0..NUM_PAGES as PageId {
                let got = subject.page(page_id).unwrap();
                prop_assert_eq!(
                    got.as_bytes().as_slice(),
                    want[page_id as usize].as_slice(),
                    "page {} in round {}",
                    page_id,
                    round
                );
            }
        }
        prop_assert_eq!(subject.snapshot().since(&before).pages_touched(), 2 * NUM_PAGES as u64);
        prop_assert_eq!(subject.io(), io, "nothing physical after the load");
    }
}

/// A [`FaultSource`] the test keeps a handle to after the pool boxes it.
#[derive(Debug)]
struct SharedFault(Arc<FaultSource>);

impl PageSource for SharedFault {
    fn num_pages(&self) -> usize {
        self.0.num_pages()
    }

    fn read_page(&self, page_id: PageId) -> mmdr_storage::Result<Arc<Page>> {
        self.0.read_page(page_id)
    }
}

/// A pool over a fault source, plus the handle that flips modes.
fn fault_pool(n: usize, capacity: usize, readahead: usize) -> (BufferPool, Arc<FaultSource>) {
    let source = Arc::new(FaultSource::new(patterned_pages(n)));
    let disk = DiskManager::from_source(Box::new(SharedFault(Arc::clone(&source))), readahead);
    (BufferPool::new(disk, capacity).unwrap(), source)
}

#[test]
fn transient_faults_heal_on_retry() {
    let (pool, fault) = fault_pool(6, 2, 0);
    fault.set_mode(FaultMode::Transient { remaining: 2 });

    for attempt in 0..2 {
        match pool.page(0) {
            Err(Error::Io {
                page_id: 0, kind, ..
            }) => {
                assert_eq!(kind, ErrorKind::WouldBlock, "attempt {attempt}")
            }
            other => panic!("attempt {attempt}: expected a transient Io error, got {other:?}"),
        }
    }
    // Third attempt succeeds — the failed fetches installed no frame, so
    // nothing poisoned; and the bytes are the pristine image.
    let page = pool.page(0).unwrap();
    assert_eq!(page.as_bytes(), patterned_pages(6)[0].as_bytes());
    assert_eq!(
        pool.io().read_errors,
        2,
        "both failed fetches must be counted"
    );
}

#[test]
fn permanent_fault_is_typed_and_pool_keeps_serving() {
    let (pool, fault) = fault_pool(6, 2, 0);
    // Warm page 0 so it is served from the pool while the source is down.
    pool.page(0).unwrap();

    fault.set_mode(FaultMode::Permanent);
    match pool.page(1) {
        Err(Error::Io { page_id: 1, .. }) => {}
        other => panic!("expected a permanent Io error, got {other:?}"),
    }
    // Cached pages are untouched by the source failure.
    let cached = pool.page(0).unwrap();
    assert_eq!(cached.as_bytes(), patterned_pages(6)[0].as_bytes());

    // And once the source heals, the faulted page comes through intact.
    fault.set_mode(FaultMode::None);
    let healed = pool.page(1).unwrap();
    assert_eq!(healed.as_bytes(), patterned_pages(6)[1].as_bytes());
}

#[test]
fn short_reads_and_flipped_bytes_are_typed_errors() {
    let (pool, fault) = fault_pool(6, 2, 0);

    fault.set_mode(FaultMode::ShortRead { got: 17 });
    match pool.page(2) {
        Err(Error::ShortRead {
            page_id: 2,
            got: 17,
        }) => {}
        other => panic!("expected ShortRead, got {other:?}"),
    }

    // A flipped byte in the image trips the per-page CRC at fault time.
    fault.set_mode(FaultMode::FlipByte {
        page_id: 3,
        offset: 1234,
    });
    match pool.page(3) {
        Err(Error::Corrupt { page_id: 3 }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Other pages are unaffected while the flip persists...
    assert_eq!(
        pool.page(4).unwrap().as_bytes(),
        patterned_pages(6)[4].as_bytes()
    );
    // ...and the victim itself recovers once the source is clean again.
    fault.set_mode(FaultMode::None);
    assert_eq!(
        pool.page(3).unwrap().as_bytes(),
        patterned_pages(6)[3].as_bytes()
    );
    assert_eq!(pool.io().read_errors, 2);
}

/// The CRC gate is real for actual files too: flip one byte of a page
/// image on disk and the demand-read surfaces [`Error::Corrupt`] for that
/// page — sibling pages keep reading fine.
#[test]
fn file_backed_flip_trips_per_page_crc() {
    let pages = patterned_pages(6);
    let (pool, file) = file_pool(&pages, 2, 0, "flip");

    let mut bytes = std::fs::read(&file.0).unwrap();
    bytes[2 * PAGE_SIZE + 77] ^= 0x40;
    std::fs::write(&file.0, &bytes).unwrap();

    match pool.page(2) {
        Err(Error::Corrupt { page_id: 2 }) => {}
        other => panic!("expected Corrupt for the flipped page, got {other:?}"),
    }
    assert_eq!(pool.page(1).unwrap().as_bytes(), pages[1].as_bytes());

    // Heal the file in place; the same pool serves the page again.
    bytes[2 * PAGE_SIZE + 77] ^= 0x40;
    std::fs::write(&file.0, &bytes).unwrap();
    assert_eq!(pool.page(2).unwrap().as_bytes(), pages[2].as_bytes());
}
