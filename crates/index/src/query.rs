//! The query value, the one rule a valid query obeys, and the per-caller
//! read state that [`VectorIndex::search`](crate::VectorIndex::search)
//! takes.

use crate::error::{Error, Result};
use crate::filter::SearchFilter;
use mmdr_storage::PageSet;

/// The one input check on a vector, queried or ingested: `dim` wide, then
/// finite throughout.
pub fn validate_vector(dim: usize, vector: &[f64]) -> Result<()> {
    if vector.len() != dim {
        return Err(Error::DimensionMismatch {
            expected: dim,
            actual: vector.len(),
        });
    }
    if vector.iter().any(|x| !x.is_finite()) {
        return Err(Error::InvalidQuery);
    }
    Ok(())
}

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

    /// Whether an index of dimensionality `dim` can answer this query: the
    /// vector passes [`validate_vector`], and a range's radius is finite and
    /// non-negative.
    pub fn validate(&self, dim: usize) -> Result<()> {
        validate_vector(dim, self.vector)?;
        match self.target {
            Target::Range(radius) if !(radius >= 0.0 && radius.is_finite()) => {
                Err(Error::InvalidRadius)
            }
            _ => Ok(()),
        }
    }
}

/// What one caller lends its queries, one after another, so that a run of
/// them need not allocate it anew: a [`batch_queries`](crate::batch_queries)
/// chunk hands the same `Scratch` to every
/// [`VectorIndex::search`](crate::VectorIndex::search) it makes.
///
/// Between calls it holds buffers, never a page or anything else an answer
/// could depend on: any `Scratch`, fresh or used, with this index or
/// another, gives the same answer.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Where a stored record's coordinates are decoded; overwritten per
    /// record, meaningless between calls.
    pub coords: Vec<f64>,
    /// Candidates a search has admitted and not yet refined, each a lower
    /// bound's bits over a position (so they order by bound, then
    /// position). Empty between calls.
    pub queue: Vec<u128>,
    /// The pages one query has pinned from one pool. Empty between calls.
    pub pages: PageSet,
    /// Upper bounds a k-NN search has gathered on the distances of rows it
    /// has read, as bits, greatest on top. Empty between calls.
    pub uppers: std::collections::BinaryHeap<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_vector_rejects_bad_input() {
        assert!(validate_vector(3, &[0.0, 1.0]).is_err());
        assert!(validate_vector(2, &[f64::NAN, 0.0]).is_err());
        assert!(validate_vector(2, &[0.0, 1.0]).is_ok());
    }

    #[test]
    fn a_query_is_checked_width_then_coordinates_then_radius() {
        let check = |vector: &[f64], target| Query::new(vector, target).validate(2);
        assert!(matches!(
            check(&[f64::NAN], Target::Range(-1.0)),
            Err(Error::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            check(&[f64::INFINITY, 0.0], Target::Range(-1.0)),
            Err(Error::InvalidQuery)
        ));
        for radius in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                check(&[0.0, 0.0], Target::Range(radius)),
                Err(Error::InvalidRadius)
            ));
        }
        assert!(check(&[0.0, 0.0], Target::Range(0.0)).is_ok());
        assert!(check(&[0.0, 0.0], Target::Knn(0)).is_ok());
    }
}
