//! Pluggable page sources: where demand-read page images come from.
//!
//! A [`crate::DiskManager`] holds the pages that are in memory itself and
//! pulls every other one from a [`PageSource`]. Two sources exist:
//!
//! - [`FileSource`] — a window of raw 4 KiB images inside a snapshot file,
//!   demand-read with `pread` and verified against per-page CRC32s on every
//!   fetch. This is what makes `open()` ~O(superblock): nothing is read
//!   until a query faults the page in.
//! - [`FaultSource`] — a test source that injects transient/permanent read
//!   failures, short reads, and bit flips, so eviction and error paths can
//!   be exercised deterministically.
//!
//! Sources do no accounting themselves; the [`crate::DiskManager`] counts
//! physical reads, readahead hits and read errors ([`crate::IoStats`])
//! around each call.

use crate::crc32::crc32;
use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use std::fmt;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::{Arc, Mutex};

/// A provider of immutable 4 KiB page images, addressed by [`PageId`]
/// `0..num_pages`. Implementations must be safe to call from many threads
/// (the buffer pool's shards fetch concurrently through one source).
pub trait PageSource: fmt::Debug + Send + Sync {
    /// Number of pages this source can serve.
    fn num_pages(&self) -> usize;

    /// Reads one page image, verifying whatever integrity information the
    /// source carries (per-page CRC32 for file-backed sources). The image is
    /// shared, not copied: whoever needs to change it copies on write.
    fn read_page(&self, page_id: PageId) -> Result<Arc<Page>>;

    /// Reads `count` consecutive pages starting at `start` — the readahead
    /// primitive. The default loops over [`read_page`](Self::read_page);
    /// file-backed sources override it with a single larger `pread`.
    fn read_run(&self, start: PageId, count: usize) -> Result<Vec<Arc<Page>>> {
        (0..count)
            .map(|i| self.read_page(start + i as PageId))
            .collect()
    }
}

/// A window of `crcs.len()` consecutive raw page images inside an open
/// file, starting at byte `base`. Every fetch is a positioned read
/// (`pread`) followed by a CRC32 check against the checksum the snapshot
/// recorded for that page, so a flipped bit on disk surfaces as
/// [`Error::Corrupt`] at the moment the page is faulted in — never as a
/// silently wrong answer.
///
/// Cloning shares the file handle; `pread` needs no seek state, so clones
/// are safe to use concurrently.
#[derive(Debug, Clone)]
pub struct FileSource {
    file: Arc<File>,
    /// Byte offset of page 0's image within the file.
    base: u64,
    /// Expected CRC32 of each page image, in page-id order.
    crcs: Arc<[u32]>,
}

impl FileSource {
    /// A source over the `crcs.len()` page images stored at byte `base` of
    /// `file`.
    pub fn new(file: Arc<File>, base: u64, crcs: Arc<[u32]>) -> Self {
        Self { file, base, crcs }
    }
}

impl PageSource for FileSource {
    fn num_pages(&self) -> usize {
        self.crcs.len()
    }

    fn read_page(&self, page_id: PageId) -> Result<Arc<Page>> {
        let mut run = self.read_run(page_id, 1)?;
        Ok(run.pop().expect("read_run returned one page"))
    }

    fn read_run(&self, start: PageId, count: usize) -> Result<Vec<Arc<Page>>> {
        if (start as usize)
            .checked_add(count)
            .filter(|&e| e <= self.crcs.len())
            .is_none()
        {
            return Err(Error::PageNotFound {
                page_id: start + count.saturating_sub(1) as PageId,
            });
        }
        let mut buf = vec![0u8; count * PAGE_SIZE];
        let off = self.base + start * PAGE_SIZE as u64;
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.file.read_at(&mut buf[filled..], off + filled as u64) {
                Ok(0) => {
                    return Err(Error::ShortRead {
                        page_id: start + (filled / PAGE_SIZE) as PageId,
                        got: filled % PAGE_SIZE,
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(Error::Io {
                        page_id: start + (filled / PAGE_SIZE) as PageId,
                        kind: e.kind(),
                        detail: e.to_string(),
                    })
                }
            }
        }
        let mut pages = Vec::with_capacity(count);
        for (i, image) in buf.chunks_exact(PAGE_SIZE).enumerate() {
            let page_id = start + i as PageId;
            if crc32(image) != self.crcs[start as usize + i] {
                return Err(Error::Corrupt { page_id });
            }
            pages.push(Arc::new(Page::from_bytes(image)?));
        }
        Ok(pages)
    }
}

/// What a [`FaultSource`] does to the next reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Serve reads faithfully (still CRC-verified).
    None,
    /// The next `remaining` reads fail with a retryable
    /// [`io::ErrorKind::WouldBlock`] error, then reads succeed again.
    Transient {
        /// Failures left to inject.
        remaining: u32,
    },
    /// Every read fails with a permanent I/O error.
    Permanent,
    /// Every read reports a short read of `got` bytes.
    ShortRead {
        /// Bytes the fake read "returned".
        got: usize,
    },
    /// Reads of `page_id` return an image with the byte at `offset`
    /// XOR-flipped — which the per-page CRC check must catch.
    FlipByte {
        /// Page whose image is corrupted.
        page_id: PageId,
        /// Byte offset within the image to flip.
        offset: usize,
    },
}

/// A deterministic fault-injecting source for tests. Holds pristine page
/// images plus their CRCs (computed at construction, exactly as a snapshot
/// writer would), and misbehaves according to the current [`FaultMode`].
/// Corrupted images still go through the CRC check, mirroring the
/// [`FileSource`] read path, so `FlipByte` surfaces as [`Error::Corrupt`].
#[derive(Debug)]
pub struct FaultSource {
    pages: Vec<Arc<Page>>,
    crcs: Vec<u32>,
    mode: Mutex<FaultMode>,
}

impl FaultSource {
    /// A fault source over pristine `pages`, initially injecting nothing.
    pub fn new(pages: Vec<Page>) -> Self {
        let crcs = pages.iter().map(|p| crc32(p.as_bytes())).collect();
        Self {
            pages: pages.into_iter().map(Arc::new).collect(),
            crcs,
            mode: Mutex::new(FaultMode::None),
        }
    }

    /// Sets the fault injected on subsequent reads.
    pub fn set_mode(&self, mode: FaultMode) {
        *self.mode.lock().expect("fault mode lock") = mode;
    }
}

impl PageSource for FaultSource {
    fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&self, page_id: PageId) -> Result<Arc<Page>> {
        let page = self
            .pages
            .get(page_id as usize)
            .ok_or(Error::PageNotFound { page_id })?;
        let mut mode = self.mode.lock().map_err(|_| Error::Poisoned)?;
        match *mode {
            FaultMode::Transient { remaining } if remaining > 0 => {
                *mode = FaultMode::Transient {
                    remaining: remaining - 1,
                };
                Err(Error::Io {
                    page_id,
                    kind: io::ErrorKind::WouldBlock,
                    detail: "injected transient fault".into(),
                })
            }
            FaultMode::Permanent => Err(Error::Io {
                page_id,
                kind: io::ErrorKind::Other,
                detail: "injected permanent fault".into(),
            }),
            FaultMode::ShortRead { got } => Err(Error::ShortRead { page_id, got }),
            FaultMode::FlipByte {
                page_id: victim,
                offset,
            } if victim == page_id => {
                let mut image = *page.as_bytes();
                image[offset % PAGE_SIZE] ^= 0x01;
                if crc32(&image) != self.crcs[page_id as usize] {
                    return Err(Error::Corrupt { page_id });
                }
                // Unreachable in practice: a single-bit flip always changes
                // the CRC. Kept total so the type system stays honest.
                Ok(Arc::new(Page::from_bytes(&image)?))
            }
            _ => {
                if crc32(page.as_bytes()) != self.crcs[page_id as usize] {
                    return Err(Error::Corrupt { page_id });
                }
                Ok(Arc::clone(page))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn pages(n: usize) -> Vec<Page> {
        (0..n)
            .map(|i| {
                let mut p = Page::new();
                p.put_u64(0, i as u64 * 31 + 7).unwrap();
                p
            })
            .collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "mmdr-source-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Writes `pages` as raw images at `base` and opens a FileSource.
    fn file_source(pages: &[Page], base: u64) -> (FileSource, std::path::PathBuf) {
        let path = temp_path("fs");
        let mut f = File::create(&path).unwrap();
        f.write_all(&vec![0xAAu8; base as usize]).unwrap();
        for p in pages {
            f.write_all(p.as_bytes()).unwrap();
        }
        f.sync_all().unwrap();
        let crcs: Arc<[u32]> = pages.iter().map(|p| crc32(p.as_bytes())).collect();
        let src = FileSource::new(Arc::new(File::open(&path).unwrap()), base, crcs);
        (src, path)
    }

    #[test]
    fn file_source_demand_reads_and_verifies() {
        let imgs = pages(5);
        let (src, path) = file_source(&imgs, 123);
        assert_eq!(src.num_pages(), 5);
        for (i, img) in imgs.iter().enumerate() {
            let got = src.read_page(i as PageId).unwrap();
            assert_eq!(got.as_bytes(), img.as_bytes());
        }
        let run = src.read_run(1, 3).unwrap();
        assert_eq!(run.len(), 3);
        assert_eq!(run[0].as_bytes(), imgs[1].as_bytes());
        assert_eq!(run[2].as_bytes(), imgs[3].as_bytes());
        assert!(src.read_run(3, 3).is_err(), "run past the end");
        assert_eq!(
            src.read_page(5).err(),
            Some(Error::PageNotFound { page_id: 5 })
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn file_source_catches_on_disk_corruption() {
        let imgs = pages(3);
        let (src, path) = file_source(&imgs, 0);
        // Flip one byte of page 1's image on disk, behind the source's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[PAGE_SIZE + 77] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        // The handle still points at the old inode on some systems, so
        // reopen through a fresh source to be deterministic.
        let crcs: Arc<[u32]> = imgs.iter().map(|p| crc32(p.as_bytes())).collect();
        let src2 = FileSource::new(Arc::new(File::open(&path).unwrap()), 0, crcs);
        assert!(src2.read_page(0).is_ok());
        assert_eq!(src2.read_page(1).err(), Some(Error::Corrupt { page_id: 1 }));
        // A run covering the bad page fails too.
        assert_eq!(
            src2.read_run(0, 3).err(),
            Some(Error::Corrupt { page_id: 1 })
        );
        let _ = src;
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn file_source_truncation_is_a_short_read() {
        let imgs = pages(4);
        let (src, path) = file_source(&imgs, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..3 * PAGE_SIZE + 100]).unwrap();
        let crcs: Arc<[u32]> = imgs.iter().map(|p| crc32(p.as_bytes())).collect();
        let src2 = FileSource::new(Arc::new(File::open(&path).unwrap()), 0, crcs);
        assert_eq!(
            src2.read_page(3).err(),
            Some(Error::ShortRead {
                page_id: 3,
                got: 100
            })
        );
        assert!(src2.read_page(2).is_ok(), "intact pages keep serving");
        let _ = src;
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fault_source_modes() {
        let src = FaultSource::new(pages(4));
        assert!(src.read_page(0).is_ok());

        src.set_mode(FaultMode::Transient { remaining: 2 });
        for _ in 0..2 {
            match src.read_page(1) {
                Err(Error::Io { kind, .. }) => assert_eq!(kind, io::ErrorKind::WouldBlock),
                other => panic!("expected WouldBlock, got {other:?}"),
            }
        }
        assert!(src.read_page(1).is_ok(), "transient fault clears");

        src.set_mode(FaultMode::Permanent);
        assert!(matches!(src.read_page(2), Err(Error::Io { .. })));
        assert!(matches!(src.read_page(2), Err(Error::Io { .. })));

        src.set_mode(FaultMode::ShortRead { got: 512 });
        assert_eq!(
            src.read_page(0).err(),
            Some(Error::ShortRead {
                page_id: 0,
                got: 512
            })
        );

        src.set_mode(FaultMode::FlipByte {
            page_id: 3,
            offset: 9,
        });
        assert_eq!(src.read_page(3).err(), Some(Error::Corrupt { page_id: 3 }));
        assert!(src.read_page(0).is_ok(), "other pages unaffected");

        src.set_mode(FaultMode::None);
        assert!(src.read_page(3).is_ok());
    }
}
