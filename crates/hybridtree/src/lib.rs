//! A paged multidimensional index in the style of the Hybrid tree
//! (Chakrabarti & Mehrotra, ICDE 1999) — the index used by the paper's
//! **gLDR** comparator ("Global indexing method \[5\] on LDR data").
//!
//! The Hybrid tree is a kd-tree whose single-dimension splits are packed
//! into disk pages. This reproduction keeps the two properties the paper's
//! comparison rests on:
//!
//! 1. **Nodes store multi-dimensional data** — leaves hold full `d`-dim
//!    points, so leaf fanout shrinks as `1/d` and the tree needs many more
//!    pages than a B⁺-tree of 1-d keys (Figure 9's I/O gap).
//! 2. **Search computes L-norms** — KNN is a best-first descent computing
//!    `MINDIST` to kd regions and L2 distances to points (Figure 10's CPU
//!    gap against iDistance's single-dimensional comparisons).
//!
//! Construction is bulk-only (recursive max-spread kd partitioning), which
//! is how the evaluation uses it: LDR reduces, then each cluster's points
//! are loaded at once.

mod error;
mod knn;
mod node;
mod tree;

pub use error::{Error, Result};
pub use tree::{HybridTree, DEFAULT_FANOUT};
