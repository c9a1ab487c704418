//! Paged storage substrate with logical I/O accounting.
//!
//! The paper's Figure 9 reports index performance in *I/O cost* (page
//! accesses) on a machine with a bounded buffer. This crate provides the
//! pieces needed to reproduce that measurement without a physical disk:
//!
//! - [`Page`] — a fixed 4 KiB byte page with typed little-endian accessors.
//! - [`PageSource`] — where a page that is not in memory comes from, handed
//!   out as a shared `Arc<Page>`: a demand-read [`FileSource`] window into
//!   a snapshot file (pread + per-page CRC32), or a fault-injecting
//!   [`FaultSource`] in tests.
//! - [`DiskManager`] — a read-only "disk": the pages in memory (handed
//!   over by the bulk load that wrote them, [`DiskManager::from_pages`], or
//!   loaded by [`DiskManager::make_resident`]) or an optional page source
//!   under them, with optional sequential readahead; it counts only what
//!   the source does ([`IoStats`]: physical reads, readahead hits, read
//!   errors).
//! - [`BufferPool`] — a sharded, lock-striped read cache in front of the
//!   disk with clock (second-chance) eviction per shard; buffer hits are
//!   free, misses cost a logical read. The pool capacity models the
//!   paper's 500 K-point buffer limit (§6.3), and the shared-read frames
//!   ([`BufferPool::page`] returns `Arc<Page>`) let concurrent KNN workers
//!   scan pages without serializing on a pool lock. Nothing writes through
//!   a pool: a page is written once, by its structure's bulk load, into a
//!   [`Page`] the load owns, before the pool exists. A page in memory is
//!   held once: disk and frame share one image.
//! - [`PageSet`] — the page images one reader has pinned, by id, so a page
//!   it comes back to costs no second fetch.
//! - [`codec`] — the one little-endian byte codec ([`codec::Writer`] and
//!   the bounded [`codec::Reader`]) every format beyond a page image is
//!   written and read with: a snapshot's sections, the ATTRS payload, WAL
//!   records and wire frames. A count read from bytes is believed only
//!   once its elements fit in the bytes present.
//!
//! I/O numbers produced this way are *logical* page accesses — the same
//! unit the paper plots — and are deterministic across runs. Each is
//! counted once, where it happens: a fetch as a hit or a miss in its shard
//! of the pool ([`PoolStats`]), a physical read by the disk under it. They
//! count from the pool's creation and nothing resets them; a caller that
//! wants one phase's cost diffs two readings ([`PoolStats::since`]).

mod buffer_pool;
pub mod codec;
mod crc32;
mod disk;
mod error;
mod page;
mod source;

pub use buffer_pool::{BufferPool, PageSet, PoolStats, ShardCounters};
pub use crc32::{crc32, Crc32};
pub use disk::{DiskManager, IoStats};
pub use error::{Error, Result};
pub use page::{Page, PageId, PAGE_SIZE};
pub use source::{FaultMode, FaultSource, FileSource, PageSource};
