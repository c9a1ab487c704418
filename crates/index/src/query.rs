//! The query value and the per-caller read state that
//! [`VectorIndex::search`](crate::VectorIndex::search) takes.

use crate::filter::SearchFilter;

/// What a query asks for. The paper's §5 has one search routine — a KNN
/// query is a range query whose radius grows until the k-th candidate is
/// inside it — so the two differ by this value and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// The `k` nearest rows.
    Knn(usize),
    /// Every row within this radius (non-negative, finite).
    Range(f64),
}

/// One query, borrowed from its caller.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// Full-dimensional query point.
    pub vector: &'a [f64],
    /// K nearest, or everything within a radius.
    pub target: Target,
    /// Rows that may appear in the answer; `None` admits every row. The
    /// contract is exact pushdown: the answer is bit-identical (ids and
    /// f64 distance bits) to ranking every row, dropping those that fail,
    /// and (for KNN) truncating to `k` — a failing row never enters the
    /// answer heap and never tightens a termination radius.
    pub filter: Option<&'a SearchFilter>,
}

impl<'a> Query<'a> {
    /// An unfiltered query.
    pub fn new(vector: &'a [f64], target: Target) -> Self {
        Self {
            vector,
            target,
            filter: None,
        }
    }
}

/// What one caller lends its queries, one after another, so that a run of
/// them need not allocate it anew: a [`batch_queries`](crate::batch_queries)
/// chunk hands the same `Scratch` to every
/// [`VectorIndex::search`](crate::VectorIndex::search) it makes.
///
/// It holds buffers, never a page or anything else an answer could depend
/// on: any `Scratch`, fresh or used, with this index or another, gives the
/// same answer.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Where a stored record's coordinates are decoded; overwritten per
    /// record, meaningless between calls.
    pub coords: Vec<f64>,
}
