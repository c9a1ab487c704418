//! Cursor handle for leaf-chain iteration.

use crate::node::Leaf;
use mmdr_storage::{Page, PageId};
use std::sync::Arc;

/// A position in the leaf chain: "the gap before slot `slot`" of the leaf
/// the cursor stands on.
///
/// A cursor *pins* its leaf: it holds the `Arc<Page>` image the pool handed
/// out when the cursor arrived there, and
/// [`cursor_next`](crate::BPlusTree::cursor_next) /
/// [`cursor_prev`](crate::BPlusTree::cursor_prev) read keys — and
/// [`code`](Self::code) the code word — from that image. The pool is
/// fetched once per leaf visited — when [`seek`](crate::BPlusTree::seek)
/// lands on it or a step crosses to a neighbour — never per entry. The pin
/// is an immutable image, not a latch: the pool may evict the frame
/// underneath it.
///
/// Cloning yields an independent cursor over the same pinned image.
#[derive(Debug, Clone)]
pub struct Cursor {
    pub(crate) leaf: Arc<Page>,
    /// The pinned leaf's page: its neighbours are the pages either side.
    pub(crate) page: PageId,
    pub(crate) slot: usize,
    /// The pinned leaf's entry count and the position of its entry 0, read
    /// from its header once per pin (the image is immutable), not once per
    /// step.
    pub(crate) count: usize,
    pub(crate) first: u64,
    /// Slot of the entry the last step returned, on the pinned leaf.
    pub(crate) last: usize,
}

impl Cursor {
    /// A cursor pinned to `leaf`, page `page`, in the gap before `slot`.
    pub(crate) fn pinned(page: PageId, leaf: Arc<Page>, slot: usize) -> Self {
        Self {
            count: Leaf::count(&leaf),
            first: Leaf::first(&leaf),
            leaf,
            page,
            slot,
            last: 0,
        }
    }

    /// The code word of the entry the last
    /// [`cursor_next`](crate::BPlusTree::cursor_next) or
    /// [`cursor_prev`](crate::BPlusTree::cursor_prev) returned: the second
    /// field of the leaf entry, read only by a caller that wants it.
    /// Meaningless before a step has returned an entry.
    #[inline]
    pub fn code(&self) -> u64 {
        Leaf::code(&self.leaf, self.last)
    }
}

#[cfg(test)]
mod tests {
    use crate::BPlusTree;
    use mmdr_storage::{BufferPool, DiskManager};

    #[test]
    fn cloned_cursor_advances_independently() {
        let entries: Vec<(f64, u64)> = (0..1000).map(|i| (i as f64, i * i)).collect();
        let step = |at: usize| Some((entries[at].0, at as u64));
        let pool = BufferPool::new(DiskManager::new(), 16).unwrap();
        let t = BPlusTree::bulk_load(pool, &entries).unwrap();
        let mut a = t.seek(500.0).unwrap();
        let mut b = a.clone();
        // Each walks its own way, across leaf boundaries, from the same gap.
        for i in 0..400 {
            assert_eq!(t.cursor_next(&mut a).unwrap(), step(500 + i));
            assert_eq!(a.code(), entries[500 + i].1);
            assert_eq!(t.cursor_prev(&mut b).unwrap(), step(499 - i));
            assert_eq!(b.code(), entries[499 - i].1);
        }
        assert_eq!(t.cursor_next(&mut b).unwrap(), step(100));
        assert_eq!(b.code(), entries[100].1);
        assert_eq!(t.cursor_prev(&mut a).unwrap(), step(899));
        assert_eq!(a.code(), entries[899].1);
    }
}
