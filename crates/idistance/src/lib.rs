//! Extended iDistance — indexing reduced subspaces with a single B⁺-tree
//! (paper §5) — plus the evaluation's comparison schemes.
//!
//! After MMDR (or LDR/GDR) reduces the data, each cluster lives in its own
//! axis system. The extended iDistance maps every point to a single
//! dimension with
//!
//! ```text
//! y = i · c + dist(Pᵢ, Oᵢ)
//! ```
//!
//! where `i` is the cluster id, `Oᵢ` its centroid, `dist(Pᵢ, Oᵢ)` the
//! distance of the point's projection to the centroid *within the reduced
//! subspace*, and `c` a range-partitioning constant. One B⁺-tree indexes all
//! clusters (outliers form one extra partition at original dimensionality);
//! reduced point payloads live in paged heap files behind the same I/O
//! counters.
//!
//! KNN search (a [`mmdr_index::Target::Knn`] through
//! [`VectorIndex::search`]) is the paper's growing sphere with its radius
//! read off the result set: the search reads each partition outward from
//! the query's image `i·c + dist(qᵢ,Oᵢ)` (clamped into
//! `[min_radius, max_radius]`: the paper's three cases) in ring order, a
//! leaf at a time, always at the least ring any unread entry can have, and
//! stops once the k-th candidate's distance excludes it. The triangle
//! inequality `‖Q−P‖ ≥ ‖Qⱼ−Oⱼ‖ − Rⱼ` keeps a partition closed until the
//! ring order reaches it, and a 64-bit cell code beside every key
//! ([`Codebook`]) bounds an entry's distance from below in the leaf, so the
//! heap is read only for the rows that bound cannot rule out — nearest
//! bound first, each heap page once a query. A range query
//! ([`mmdr_index::Target::Range`]) is the same loop with its reach fixed at
//! its radius.
//!
//! Comparison schemes for the Figure 9/10 experiments:
//! - [`SeqScan`] — sequential scan of the reduced heap pages.
//! - [`GlobalLdrIndex`] — the paper's *gLDR*: one multidimensional
//!   [`mmdr_hybridtree`] per cluster plus an outlier scan.
//!
//! Distances returned by every scheme are distances to the points'
//! *reduced representations* (`‖q − restore(Pᵢ)‖`), which is what the
//! paper's precision metric compares against the exact full-space answers.

mod backend;
mod codes;
mod error;
mod gldr;
mod grouping;
mod index;
mod knn;
mod layout;
mod seqscan;
mod vector_heap;
mod vector_index;

pub use backend::Backend;
pub use codes::Codebook;
pub use error::{Error, Result};
pub use gldr::GlobalLdrIndex;
pub use index::{IDistanceIndex, PartitionInfo, RecordIds};
pub use layout::{
    build_index, load, load_exact, restored_rows, stored_rows, stored_values, BuiltIndex, KeySpace,
    Row, INSERT_BETA,
};
// The shared query-layer types live in `mmdr-index` (the KnnHeap moved
// there in PR 2 — import it from `mmdr_index` directly); these two are
// re-exported because every backend consumer needs them together.
pub use mmdr_index::{QueryStats, VectorIndex};
pub use seqscan::SeqScan;
pub use vector_heap::{HeapWriter, Record, VectorHeap};
