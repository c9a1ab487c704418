//! Durable on-disk store for MMDR indexes.
//!
//! Building an index over a large reduced dataset is expensive: the
//! reduction itself, per-cluster projections, and a bulk load per storage
//! structure. This crate makes that work durable — a built index is
//! serialized into a single snapshot file and reopened later into a
//! ready-to-query [`VectorIndex`](mmdr_index::VectorIndex) *without any
//! rebuild*.
//!
//! The format (see [`format`](mod@format)) is versioned, endian-stable and fully
//! checksummed: a superblock, a section table, and CRC32-guarded sections
//! for the reduction model, the backend metadata, a page directory with a
//! CRC32 per page, and the raw buffer-pool page images. Every failure mode
//! — truncation, bit flips, wrong magic, a future format version —
//! surfaces as a typed [`PersistError`]; nothing panics and nothing opens
//! into a silently wrong index. A fitted model alone is stored in the same
//! container, as a model file with a MODEL section and nothing else
//! ([`save_model`]); [`open_model`] reads the model of either kind of file.
//!
//! The default [`open`] is *out-of-core*: it verifies the superblock,
//! table and small sections, then mounts the page images as demand-read
//! [`FileSource`](mmdr_storage::FileSource) windows — pages are pread in
//! (and verified per page) only when the buffer pool misses on them, so
//! open time is ~O(superblock) and resident memory is bounded by
//! [`OpenOptions::pool_pages`], not the dataset. [`open_resident`] is the
//! same open with the whole file verified first and every page then loaded
//! into memory, and [`scrub`] deep-verifies a file that way without keeping
//! the index.
//!
//! Reopened indexes reuse the same [`mmdr_storage`] page/buffer-pool
//! machinery as built ones, so their logical I/O accounting (the unit the
//! paper's figures plot) is identical: restoring pages costs zero reads,
//! and every fetch after that — the open's own check of an iDistance root
//! included — is counted by the pool that makes it, as in a built index.
//!
//! Because floats are stored as raw IEEE-754 bit patterns and pages as raw
//! images, a save → open round trip is bit-exact: the reopened index
//! returns byte-for-byte the same `(distance, id)` answers as the index
//! that was saved. The `persist_roundtrip` integration test asserts this
//! for every backend.

mod error;
pub mod format;
mod ingest;
mod live;
mod model_codec;
mod refit;
mod snapshot;
mod wal;

pub use error::{PersistError, Result};
pub use format::FORMAT_VERSION;
pub use ingest::{
    extend_model, fold, wal_path, Epoch, IngestEngine, IngestOptions, DEFAULT_FOLD_PAGES,
    DEFAULT_MERGE_THRESHOLD, TOMBSTONE_MERGE_FLOOR, TOMBSTONE_MERGE_RATIO,
};
pub use live::SnapshotLive;
pub use mmdr_storage::{crc32, Crc32};
pub use refit::refit_model;
pub use snapshot::{
    build_index, open, open_expecting, open_model, open_or_build, open_resident, open_with,
    read_head, save, save_model, save_with_attrs, scrub, BuiltIndex, OpenOptions, Opened,
};
pub use wal::{decode_wal, replay_wal, WalRecord, WalReplay, WalWriter, MAX_WAL_RECORD};
