//! mmdr-query: query processing over `VectorIndex`.
//!
//! This crate layers attribute-aware query processing on top of the vector
//! search backends:
//!
//! * [`AttrStore`] — a columnar per-row attribute payload store (i64, f64,
//!   and dictionary-encoded tag columns) with a self-contained byte codec
//!   the snapshot layer embeds as an ATTRS section.
//! * [`Predicate`] — the `--filter` surface syntax parsed into a
//!   conjunction of comparison terms and compiled against an [`AttrStore`]
//!   into a [`RowFilter`](mmdr_index::RowFilter) bitmap.
//! * [`AttrSketches`] — per-cluster `(count, min, max)` summaries that turn
//!   a predicate into sound cluster-skip hints.
//! * [`Planner`] — cost-based choice between post-filtering, bitmap
//!   pushdown, and prefilter-rank execution, with decision counters and
//!   pages/query feedback.
//!
//! The invariant every piece preserves: a filtered query returns exactly
//! the rows of the unfiltered full ranking that pass the predicate,
//! bit-identical in both ids and distances, whatever strategy or backend
//! runs it.

mod attrs;
mod error;
mod planner;
mod predicate;
mod sketch;

pub use attrs::{decode_row, encode_row, AttrStore, AttrType, AttrValue};
pub use error::{Error, Result};
pub use planner::{
    run_filtered_knn, PlannedFilter, Planner, PlannerCounters, PlannerSnapshot, Strategy,
};
pub use predicate::{Op, Predicate, Term};
pub use sketch::{AttrSketches, ColumnSketch, PartitionSketch};
