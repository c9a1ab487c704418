//! The uniform query interface over every KNN backend.
//!
//! The paper's evaluation (§6, Figures 9–10) compares three ways of
//! answering the same question — "which reduced representations are nearest
//! to `q`?" — with very different machinery: a sequential scan, the
//! extended iDistance B⁺-tree, and the per-cluster hybrid-tree *gLDR*
//! scheme. [`VectorIndex`] is the contract that makes
//! that comparison apples-to-apples:
//!
//! - **One door.** [`VectorIndex::search`] answers a [`Query`] — k nearest
//!   or everything within a radius ([`Target`]), filtered or not — through
//!   `&self` and the caller's [`Scratch`], so one index can serve
//!   concurrent workers. It checks the query once ([`Query::validate`])
//!   and answers `k = 0` and an empty index itself, so a backend
//!   implements only [`VectorIndex::answer`]. `knn`, `range_search` and
//!   `batch_knn` are names for it.
//! - **Deterministic answers.** `(distance, point_id)` ascending by
//!   distance with ties broken toward the smaller point id (the
//!   [`KnnHeap`] ordering), so two backends measuring the same metric
//!   agree on the full result list, not just the id set.
//! - **A shared batch executor.** [`batch_queries`] splits queries into
//!   fixed-size chunks and fans them across scoped worker threads, one
//!   `Scratch` per chunk, with results merged in input order. Each answer
//!   row is exactly the serial `search` result for that query, so the
//!   thread count changes wall-clock time, never answers — every backend
//!   inherits the bit-identical-to-serial guarantee without writing
//!   threading code.
//! - **Uniform measurement.** [`QueryStats`] snapshots distance
//!   computations, logical page/node touches, physical page reads, and
//!   candidates refined from the same counters regardless of backend. Each
//!   is counted once, where it happens: a fetch in its buffer pool's shard,
//!   a distance in the index's own [`SearchCounters`]. [`QueryStats::of`]
//!   sums them on demand; nothing is shared between indexes and nothing
//!   resets — a phase's cost is [`QueryStats::since`] an earlier reading.

mod error;
mod filter;
mod heap;
mod mutable;
mod query;
mod stats;
mod traits;

pub use error::{Error, Result};
pub use filter::{RowFilter, SearchFilter};
pub use heap::KnnHeap;
/// The storage layer's byte codec, for the crates above this one that
/// encode without depending on storage (the query layer's attributes).
pub use mmdr_storage::codec;
pub use mutable::{
    DeltaLayer, DeltaRow, DeltaRows, DeltaStats, IngestOp, IngestStats, LiveIndex, PinnedEpoch,
    ReadOnlyLive,
};
pub use query::{validate_vector, Query, Scratch, Target};
pub use stats::{QueryStats, SearchCounters};
pub use traits::{batch_queries, VectorIndex, QUERY_CHUNK};
