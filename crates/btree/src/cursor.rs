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
/// [`cursor_prev`](crate::BPlusTree::cursor_prev) — and
/// [`key_hi`](Self::key_hi) / [`code`](Self::code) the rest of an entry —
/// read from that image. The pool is fetched once per leaf visited — when
/// [`seek`](crate::BPlusTree::seek) lands on it or a step crosses to a
/// neighbour — never per entry. The pin is an immutable image, not a
/// latch: the pool may evict the frame underneath it.
///
/// Cloning yields an independent cursor over the same pinned image.
#[derive(Debug, Clone)]
pub struct Cursor {
    pub(crate) leaf: Arc<Page>,
    /// The pinned leaf's page: its neighbours are the pages either side.
    pub(crate) page: PageId,
    pub(crate) slot: usize,
    /// The pinned leaf's entry count, the position of its entry 0 and its
    /// key range, from its header once per pin (the image is immutable),
    /// not once per step.
    pub(crate) count: usize,
    pub(crate) first: u64,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    /// Slot of the entry the last step returned, on the pinned leaf.
    pub(crate) last: usize,
}

impl Cursor {
    /// A cursor pinned to `leaf`, page `page`, in the gap before `slot`.
    pub(crate) fn pinned(page: PageId, leaf: Arc<Page>, slot: usize) -> Self {
        Self {
            count: Leaf::count(&leaf),
            first: Leaf::first(&leaf),
            lo: Leaf::first_key(&leaf),
            hi: Leaf::last_key(&leaf),
            leaf,
            page,
            slot,
            last: 0,
        }
    }

    /// The greatest key of the pinned leaf, inclusive: the upper end of the
    /// key range every entry of the leaf takes as its bound, whose lower
    /// end the last [`cursor_next`](crate::BPlusTree::cursor_next) or
    /// [`cursor_prev`](crate::BPlusTree::cursor_prev) returned. The entry's
    /// key lies in `[lo, key_hi()]`.
    #[inline]
    pub fn key_hi(&self) -> f64 {
        self.hi
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

    /// Whether the next [`cursor_next`](crate::BPlusTree::cursor_next)
    /// leaves the pinned leaf: crosses to the next one, or finds no entry
    /// past the tree's last.
    #[inline]
    pub fn at_leaf_end(&self) -> bool {
        self.slot >= self.count
    }

    /// Whether the next [`cursor_prev`](crate::BPlusTree::cursor_prev)
    /// leaves the pinned leaf: crosses to the previous one, or finds no
    /// entry before the tree's first.
    #[inline]
    pub fn at_leaf_start(&self) -> bool {
        self.slot == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::node::LEAF_CAPACITY;
    use crate::BPlusTree;

    /// Over keys `0, 1, …` in order: the first key of the leaf holding `at`.
    fn leaf_lo(at: usize) -> f64 {
        (at - at % LEAF_CAPACITY) as f64
    }

    #[test]
    fn cloned_cursor_advances_independently() {
        let entries: Vec<(f64, u64)> = (0..1200).map(|i| (i as f64, i * i)).collect();
        let step = |at: usize| Some((leaf_lo(at), at as u64));
        let t = BPlusTree::bulk_load(16, &entries).unwrap();
        // Mid-leaf: the cursor stands before the second leaf.
        let mut a = t.seek(LEAF_CAPACITY as f64 + 90.0).unwrap();
        let mut b = a.clone();
        let start = LEAF_CAPACITY;
        // Each walks its own way, across leaf boundaries, from the same gap.
        for i in 0..400 {
            assert_eq!(t.cursor_next(&mut a).unwrap(), step(start + i));
            assert_eq!(a.code(), entries[start + i].1);
            assert_eq!(t.cursor_prev(&mut b).unwrap(), step(start - 1 - i));
            assert_eq!(b.code(), entries[start - 1 - i].1);
            assert_eq!(b.key_hi(), (LEAF_CAPACITY - 1) as f64);
        }
        assert_eq!(t.cursor_next(&mut b).unwrap(), step(start - 400));
        assert_eq!(b.code(), entries[start - 400].1);
        assert_eq!(t.cursor_prev(&mut a).unwrap(), step(start + 399));
        assert_eq!(a.code(), entries[start + 399].1);
    }

    #[test]
    fn the_leaf_probes_say_where_the_next_step_leaves_the_leaf() {
        let entries: Vec<(f64, u64)> = (0..1200).map(|i| (i as f64, i)).collect();
        let t = BPlusTree::bulk_load(16, &entries).unwrap();
        // Steps `cursor` once either way and checks the probe said whether
        // it would leave the leaf it stood on: cross, or find nothing.
        let step = |cursor: &mut crate::Cursor, forward: bool| {
            let (page, probe) = match forward {
                true => (cursor.page, cursor.at_leaf_end()),
                false => (cursor.page, cursor.at_leaf_start()),
            };
            let got = match forward {
                true => t.cursor_next(cursor).unwrap(),
                false => t.cursor_prev(cursor).unwrap(),
            };
            assert_eq!(probe, got.is_none() || cursor.page != page, "{got:?}");
            got
        };
        // Fresh seeks: mid-leaf, at a leaf boundary, before the first entry
        // and past the last — the two probes from each. A seek stands at
        // one end of its leaf, so exactly one probe holds.
        let boundary = LEAF_CAPACITY as f64;
        let mut fresh_probes = 0;
        for key in [100.0, boundary - 0.5, boundary, 0.0, 1200.0] {
            let fresh = t.seek(key).unwrap();
            fresh_probes += usize::from(fresh.at_leaf_end()) + usize::from(fresh.at_leaf_start());
            step(&mut fresh.clone(), true);
            step(&mut fresh.clone(), false);
        }
        assert_eq!(fresh_probes, 5);
        // Forward over every leaf boundary to the end, then back to the
        // start: each crossing, both ways, announced by its probe.
        let mut c = t.seek(0.0).unwrap();
        let mut los = Vec::new();
        while let Some((lo, _)) = step(&mut c, true) {
            los.push(lo);
        }
        los.dedup();
        assert_eq!(los, [0.0, boundary, 2.0 * boundary]);
        assert!(c.at_leaf_end());
        let mut clone = c.clone();
        while step(&mut c, false).is_some() {}
        assert!(c.at_leaf_start());
        // The clone still stands at the end, on the last leaf, its probes
        // its own.
        assert!(clone.at_leaf_end() && !clone.at_leaf_start());
        assert_eq!(step(&mut clone, false), Some((2.0 * boundary, 1199)));
        assert_eq!(clone.key_hi(), 1199.0);
        assert!(!clone.at_leaf_end());
    }
}
