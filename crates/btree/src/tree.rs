//! The B⁺-tree proper: descent, insertion with splits, and seeks.

use crate::cursor::Cursor;
use crate::error::{Error, Result};
use crate::node::{is_leaf, Internal, Leaf, INTERNAL_CAPACITY, LEAF_CAPACITY, NIL_PAGE};
use mmdr_storage::{BufferPool, PageId};

/// A B⁺-tree over finite `f64` keys with `u64` record ids.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct BPlusTree {
    pub(crate) pool: BufferPool,
    root: PageId,
    height: usize,
    len: usize,
}

impl BPlusTree {
    /// Creates an empty tree (a single empty leaf as root) in the pool.
    pub fn new(mut pool: BufferPool) -> Result<Self> {
        let root = pool.allocate()?;
        pool.with_page_mut(root, Leaf::init)?;
        Ok(Self {
            pool,
            root,
            height: 1,
            len: 0,
        })
    }

    /// Reattaches a tree to pages restored from a snapshot. `root`,
    /// `height` and `len` must be the values the saved tree reported
    /// ([`root_page_id`](Self::root_page_id), [`height`](Self::height),
    /// [`len`](Self::len)); the pool must hold that tree's page images.
    /// Structural validation is limited to cheap invariants — the page
    /// *contents* are protected by the snapshot layer's checksums. The one
    /// that reads a page, the root's kind against `height`, is a fetch like
    /// any other: the pool counts it.
    pub fn from_parts(pool: BufferPool, root: PageId, height: usize, len: usize) -> Result<Self> {
        if root as usize >= pool.num_pages() {
            return Err(Error::Storage(mmdr_storage::Error::PageNotFound {
                page_id: root,
            }));
        }
        if height == 0 {
            return Err(Error::Corrupt("tree height must be at least 1"));
        }
        let root_is_leaf = is_leaf(&*pool.page(root)?);
        if root_is_leaf != (height == 1) {
            return Err(Error::Corrupt("root node kind disagrees with height"));
        }
        Ok(Self {
            pool,
            root,
            height,
            len,
        })
    }

    /// The root's page id (persisted alongside the page images so
    /// [`from_parts`](Self::from_parts) can reattach).
    pub fn root_page_id(&self) -> PageId {
        self.root
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Access to the buffer pool: its page counts, and the per-shard
    /// hit/miss/eviction counters every fetch ticks
    /// ([`BufferPool::snapshot`]).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Pages allocated on the underlying disk.
    pub fn num_pages(&self) -> usize {
        self.pool.num_pages()
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: usize, len: usize) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    /// Inserts an entry. Duplicate keys are allowed; the entry lands before
    /// existing equal keys.
    pub fn insert(&mut self, key: f64, rid: u64, code: u64) -> Result<()> {
        if !key.is_finite() {
            return Err(Error::InvalidKey);
        }
        if let Some((sep, right)) = self.insert_rec(self.root, (key, rid, code))? {
            // Root split: grow a level.
            let new_root = self.pool.allocate()?;
            let old_root = self.root;
            self.pool.with_page_mut(new_root, |p| {
                Internal::init(p, old_root);
                Internal::push(p, sep, right)
            })??;
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_page))` when
    /// the child split and the parent must absorb a new key.
    fn insert_rec(
        &mut self,
        node: PageId,
        entry: (f64, u64, u64),
    ) -> Result<Option<(f64, PageId)>> {
        let (key, rid, code) = entry;
        let leaf = self.pool.with_page(node, is_leaf)?;
        if leaf {
            let n = self.pool.with_page(node, Leaf::count)?;
            if n < LEAF_CAPACITY {
                self.pool.with_page_mut(node, |p| {
                    let slot = Leaf::lower_bound(p, key);
                    Leaf::insert_at(p, slot, key, rid, code)
                })??;
                return Ok(None);
            }
            // Split the leaf, then insert into the proper half.
            let right = self.pool.allocate()?;
            let mut moved = self.pool.with_page(node, |p| p.clone())?;
            let mut right_page = self.pool.with_page(right, |p| p.clone())?;
            Leaf::init(&mut right_page);
            let sep = Leaf::split_into(&mut moved, &mut right_page);
            // Fix the chain: node <-> right <-> old next.
            let old_next = Leaf::next(&moved);
            Leaf::set_next(&mut moved, right);
            Leaf::set_prev(&mut right_page, node);
            Leaf::set_next(&mut right_page, old_next);
            if key < sep {
                let slot = Leaf::lower_bound(&moved, key);
                Leaf::insert_at(&mut moved, slot, key, rid, code)?;
            } else {
                let slot = Leaf::lower_bound(&right_page, key);
                Leaf::insert_at(&mut right_page, slot, key, rid, code)?;
            }
            self.pool.with_page_mut(node, |p| *p = moved)?;
            self.pool.with_page_mut(right, |p| *p = right_page)?;
            if old_next != NIL_PAGE {
                self.pool
                    .with_page_mut(old_next, |p| Leaf::set_prev(p, right))?;
            }
            return Ok(Some((sep, right)));
        }

        let idx = self
            .pool
            .with_page(node, |p| Internal::child_index(p, key))?;
        let child = self.pool.with_page(node, |p| Internal::child(p, idx))?;
        let Some((sep, new_right)) = self.insert_rec(child, entry)? else {
            return Ok(None);
        };
        let n = self.pool.with_page(node, Internal::count)?;
        if n < INTERNAL_CAPACITY {
            self.pool
                .with_page_mut(node, |p| Internal::insert_at(p, idx, sep, new_right))??;
            return Ok(None);
        }
        // Split this internal node, then place (sep, new_right).
        let right = self.pool.allocate()?;
        let mut left_page = self.pool.with_page(node, |p| p.clone())?;
        let mut right_page = self.pool.with_page(right, |p| p.clone())?;
        let up = Internal::split_into(&mut left_page, &mut right_page);
        if sep < up {
            let slot = Internal::child_index(&left_page, sep);
            Internal::insert_at(&mut left_page, slot, sep, new_right)?;
        } else {
            let slot = Internal::child_index(&right_page, sep);
            Internal::insert_at(&mut right_page, slot, sep, new_right)?;
        }
        self.pool.with_page_mut(node, |p| *p = left_page)?;
        self.pool.with_page_mut(right, |p| *p = right_page)?;
        Ok(Some((up, right)))
    }

    /// Positions a cursor at the first entry with key `>= key`, pinned to
    /// the leaf the descent ended on: one pool fetch per level, and none
    /// again until the cursor crosses to a sibling.
    ///
    /// The cursor may be exhausted immediately (every key is smaller); both
    /// [`cursor_next`](Self::cursor_next) and
    /// [`cursor_prev`](Self::cursor_prev) work from the returned position.
    pub fn seek(&self, key: f64) -> Result<Cursor> {
        if !key.is_finite() {
            return Err(Error::InvalidKey);
        }
        // No pool lock is held while a node is examined, so concurrent
        // seeks proceed in parallel.
        let mut page = self.pool.page(self.root)?;
        for _ in 1..self.height {
            let idx = Internal::child_index(&page, key);
            page = self.pool.page(Internal::child(&page, idx))?;
        }
        if !is_leaf(&page) {
            return Err(Error::Corrupt("descent did not end at a leaf"));
        }
        let slot = Leaf::lower_bound(&page, key);
        Ok(Cursor::pinned(page, slot))
    }

    /// Returns the entry at the cursor and advances it forward (ascending
    /// keys). `None` when past the last entry; the cursor then stays on the
    /// last leaf, so [`cursor_prev`](Self::cursor_prev) still walks back.
    ///
    /// A step within the pinned leaf is a slot compare and one 16-byte
    /// read, inlined into the caller's loop; only crossing to a sibling
    /// calls out. The entry's third field is not read here:
    /// [`Cursor::code`] reads it for the caller that wants it.
    #[inline]
    pub fn cursor_next(&self, cursor: &mut Cursor) -> Result<Option<(f64, u64)>> {
        while cursor.slot >= cursor.count {
            let next = Leaf::next(&cursor.leaf);
            if next == NIL_PAGE {
                return Ok(None);
            }
            // Crossing a leaf boundary: hint the pool so a demand-read
            // source can start on the next leaf before the miss lands.
            // Free on resident pools, and never a logical access.
            let _ = self.pool.prefetch(next);
            *cursor = Cursor::pinned(self.pool.page(next)?, 0);
        }
        cursor.last = cursor.slot;
        cursor.slot += 1;
        Ok(Some(Leaf::entry(&cursor.leaf, cursor.last)))
    }

    /// Returns the entry *before* the cursor and moves it backward
    /// (descending keys). `None` when before the first entry; the cursor
    /// then stays on the first leaf.
    ///
    /// `cursor_next` and `cursor_prev` are symmetric around the cursor gap:
    /// after a `seek(k)`, `cursor_prev` yields entries `< k` and
    /// `cursor_next` yields entries `>= k`.
    #[inline]
    pub fn cursor_prev(&self, cursor: &mut Cursor) -> Result<Option<(f64, u64)>> {
        while cursor.slot == 0 {
            let prev = Leaf::prev(&cursor.leaf);
            if prev == NIL_PAGE {
                return Ok(None);
            }
            let leaf = self.pool.page(prev)?;
            let end = Leaf::count(&leaf);
            *cursor = Cursor::pinned(leaf, end);
        }
        cursor.slot -= 1;
        cursor.last = cursor.slot;
        Ok(Some(Leaf::entry(&cursor.leaf, cursor.last)))
    }

    /// Collects all `(key, rid)` entries with `lo <= key <= hi`.
    pub fn range(&self, lo: f64, hi: f64) -> Result<Vec<(f64, u64)>> {
        let mut cursor = self.seek(lo)?;
        let mut out = Vec::new();
        while let Some((k, r)) = self.cursor_next(&mut cursor)? {
            if k > hi {
                break;
            }
            out.push((k, r));
        }
        Ok(out)
    }

    /// Walks the whole tree checking structural invariants (key order
    /// within nodes, separator consistency, chain integrity, length).
    /// Test/diagnostic helper — `O(n)`.
    pub fn check_invariants(&self) -> Result<()> {
        // Full in-order scan must be sorted and have `len` entries.
        let mut cursor = self.seek(f64::MIN)?;
        let mut prev: Option<f64> = None;
        let mut seen = 0usize;
        while let Some((k, _)) = self.cursor_next(&mut cursor)? {
            if let Some(p) = prev {
                if k < p {
                    return Err(Error::Corrupt("keys out of order in leaf chain"));
                }
            }
            prev = Some(k);
            seen += 1;
        }
        if seen != self.len {
            return Err(Error::Corrupt("leaf chain length disagrees with len"));
        }
        // Backward scan must see the same count.
        let mut cursor = self.seek(f64::MAX)?;
        // Consume possible trailing entries ≥ MAX (none), then walk back.
        let mut back = 0usize;
        while self.cursor_prev(&mut cursor)?.is_some() {
            back += 1;
        }
        if back != self.len {
            return Err(Error::Corrupt("backward chain length disagrees with len"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;

    fn tree(pool_pages: usize) -> BPlusTree {
        BPlusTree::new(BufferPool::new(DiskManager::new(), pool_pages).unwrap()).unwrap()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree(16);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
    }

    #[test]
    fn insert_and_point_seek() {
        let mut t = tree(64);
        for i in 0..100u64 {
            t.insert(i as f64, i, 0).unwrap();
        }
        assert_eq!(t.len(), 100);
        let mut c = t.seek(42.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((42.0, 42)));
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((43.0, 43)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn splits_grow_height_and_preserve_order() {
        let mut t = tree(256);
        // Enough entries to force several leaf splits and an internal level.
        let n = 3000u64;
        for i in 0..n {
            // Insert in a scrambled order.
            let k = ((i * 7919) % n) as f64;
            t.insert(k, i, !i).unwrap();
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.height() >= 2, "height {}", t.height());
        t.check_invariants().unwrap();
        // Through every split, a code stayed with its key and rid.
        let mut c = t.seek(f64::MIN).unwrap();
        let mut seen = 0;
        while let Some((k, rid)) = t.cursor_next(&mut c).unwrap() {
            assert_eq!(k, ((rid * 7919) % n) as f64);
            assert_eq!(c.code(), !rid);
            seen += 1;
        }
        assert_eq!(seen, n);
        // Every key is findable.
        for probe in [0.0, 1.0, 1499.0, 2998.0] {
            let mut c = t.seek(probe).unwrap();
            let (k, _) = t.cursor_next(&mut c).unwrap().unwrap();
            assert_eq!(k, probe);
        }
    }

    #[test]
    fn duplicates_seek_to_first() {
        let mut t = tree(64);
        for rid in 0..10u64 {
            t.insert(5.0, rid, 0).unwrap();
        }
        t.insert(1.0, 100, 0).unwrap();
        t.insert(9.0, 200, 0).unwrap();
        let mut c = t.seek(5.0).unwrap();
        let mut rids = Vec::new();
        while let Some((k, r)) = t.cursor_next(&mut c).unwrap() {
            if k != 5.0 {
                break;
            }
            rids.push(r);
        }
        assert_eq!(rids.len(), 10, "all duplicates reachable from seek");
    }

    #[test]
    fn duplicates_across_splits() {
        let mut t = tree(256);
        // A run of duplicates longer than a leaf forces cross-leaf runs.
        for rid in 0..600u64 {
            t.insert(7.0, rid, 0).unwrap();
        }
        for rid in 0..100u64 {
            t.insert(3.0, 1000 + rid, 0).unwrap();
            t.insert(11.0, 2000 + rid, 0).unwrap();
        }
        let hits = t.range(7.0, 7.0).unwrap();
        assert_eq!(hits.len(), 600);
        t.check_invariants().unwrap();
    }

    #[test]
    fn backward_scan_symmetry() {
        let mut t = tree(64);
        for i in 0..500u64 {
            t.insert(i as f64, i, 0).unwrap();
        }
        let mut c = t.seek(250.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((249.0, 249)));
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((248.0, 248)));
        // Cursor gap restored by seek; forward resumes at >= key.
        let mut c = t.seek(250.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((250.0, 250)));
    }

    #[test]
    fn range_query() {
        let mut t = tree(64);
        for i in 0..100u64 {
            t.insert(i as f64 * 0.1, i, 0).unwrap();
        }
        let r = t.range(2.0, 3.0).unwrap();
        assert_eq!(r.len(), 11); // 2.0, 2.1, ..., 3.0 (within fp tolerance)
        assert!(r.iter().all(|&(k, _)| (2.0..=3.0).contains(&k)));
        assert!(t.range(99.0, 100.0).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_finite_keys() {
        let mut t = tree(16);
        assert_eq!(t.insert(f64::NAN, 0, 0).err(), Some(Error::InvalidKey));
        assert_eq!(t.insert(f64::INFINITY, 0, 0).err(), Some(Error::InvalidKey));
        assert_eq!(t.seek(f64::NAN).err(), Some(Error::InvalidKey));
    }

    #[test]
    fn io_is_counted_through_small_pool() {
        // A pool smaller than the tree forces real I/O on traversals.
        let mut t = tree(4);
        for i in 0..5000u64 {
            t.insert(i as f64, i, 0).unwrap();
        }
        let before = t.pool().snapshot();
        let mut c = t.seek(2500.0).unwrap();
        let _ = t.cursor_next(&mut c).unwrap();
        assert!(
            t.pool().snapshot().since(&before).misses() > 0,
            "cold traversal must cost reads"
        );
    }

    #[test]
    fn from_parts_reattaches_exported_pages() {
        let mut t = tree(16);
        for i in 0..2000u64 {
            t.insert(i as f64 * 0.25, i, 0).unwrap();
        }
        let images = t.pool().export_pages().unwrap();
        let (root, height, len) = (t.root_page_id(), t.height(), t.len());
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, root, height, len).unwrap();
        assert_eq!(back.len(), 2000);
        assert_eq!(back.height(), height);
        let mut c = back.seek(100.0).unwrap();
        assert_eq!(back.cursor_next(&mut c).unwrap(), Some((100.0, 400)));
    }

    #[test]
    fn from_parts_rejects_inconsistent_metadata() {
        let mut t = tree(16);
        for i in 0..2000u64 {
            t.insert(i as f64, i, 0).unwrap();
        }
        let (root, height, len) = (t.root_page_id(), t.height(), t.len());
        assert!(height > 1, "need a multi-level tree");
        let images = t.pool().export_pages().unwrap();
        let reopen = |root, height| {
            let pool = BufferPool::new(DiskManager::from_pages(images.clone()), 16).unwrap();
            BPlusTree::from_parts(pool, root, height, len)
        };
        assert!(reopen(root, height).is_ok());
        assert!(reopen(10_000, height).is_err(), "root out of range");
        assert!(reopen(root, 0).is_err(), "zero height");
        assert!(reopen(root, 1).is_err(), "internal root claimed as leaf");
    }

    #[test]
    fn negative_and_fractional_keys() {
        let mut t = tree(64);
        let keys = [-5.5, -0.1, 0.0, 0.1, 3.25, -100.0];
        for (rid, &k) in keys.iter().enumerate() {
            t.insert(k, rid as u64, 0).unwrap();
        }
        let all = t.range(f64::MIN, f64::MAX).unwrap();
        let got: Vec<f64> = all.iter().map(|&(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
    }
}
