//! The query value and the per-caller read state that
//! [`VectorIndex::search`](crate::VectorIndex::search) takes.

use crate::filter::SearchFilter;
use mmdr_storage::{Page, PageId};
use std::sync::Arc;

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

/// Read state one caller carries from query to query: the page its last
/// record came from, pinned as the immutable image the pool handed out,
/// and the buffer records are decoded into. A run of reads from one page
/// fetches the pool once.
///
/// The pin is a pre-write image (page writes are copy-on-write) of one
/// particular pool, and a `Scratch` outlives any `&self` borrow that kept
/// it valid: [`unpin`](Self::unpin) before reading through a scratch that
/// was kept across anything that may have written to, or swapped, the
/// pages it read from. [`VectorIndex::search`](crate::VectorIndex::search)
/// does so on entry.
#[derive(Debug, Default)]
pub struct Scratch {
    pin: Option<(PageId, Arc<Page>)>,
    coords: Vec<f64>,
}

impl Scratch {
    /// Drops the pinned page (the decode buffer keeps its capacity).
    pub fn unpin(&mut self) {
        self.pin = None;
    }

    /// The image of page `id` and the decode buffer: the pinned image when
    /// `id` is the page last asked for, otherwise `fetch()`'s, which
    /// becomes the pin.
    pub fn page<E>(
        &mut self,
        id: PageId,
        fetch: impl FnOnce() -> Result<Arc<Page>, E>,
    ) -> Result<(&Page, &mut Vec<f64>), E> {
        if !matches!(&self.pin, Some((pinned, _)) if *pinned == id) {
            self.pin = Some((id, fetch()?));
        }
        let (_, page) = self.pin.as_ref().expect("pinned above");
        Ok((page, &mut self.coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn a_page_is_fetched_once_until_another_is_asked_for_or_unpinned() {
        let mut scratch = Scratch::default();
        let mut fetches = 0;
        for id in [3, 3, 4, 3] {
            scratch
                .page(id, || {
                    fetches += 1;
                    Ok::<_, Infallible>(Arc::new(Page::new()))
                })
                .unwrap();
        }
        assert_eq!(fetches, 3);
        scratch.unpin();
        scratch
            .page(3, || {
                fetches += 1;
                Ok::<_, Infallible>(Arc::new(Page::new()))
            })
            .unwrap();
        assert_eq!(fetches, 4);
        assert!(scratch.page(9, || Err::<Arc<Page>, _>("gone")).is_err());
    }
}
