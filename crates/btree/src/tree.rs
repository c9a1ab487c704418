//! The B⁺-tree proper: descent, seeks and the two-way leaf walk.

use crate::cursor::Cursor;
use crate::error::{Error, Result};
use crate::node::{is_leaf, Internal, Leaf};
use mmdr_storage::{BufferPool, Page, PageId};
use std::sync::Arc;

/// A static B⁺-tree over finite `f64` keys, each entry named by its
/// position in key order, with a `u64` code word beside its key.
///
/// Built once by [`bulk_load`](Self::bulk_load) (or reattached by
/// [`from_parts`](Self::from_parts)) and never written again. See the
/// crate docs for an end-to-end example.
#[derive(Debug)]
pub struct BPlusTree {
    pub(crate) pool: BufferPool,
    pub(crate) root: PageId,
    pub(crate) height: usize,
    pub(crate) len: usize,
}

impl BPlusTree {
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

    /// Number of entries: positions run `0..len`.
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

    /// Positions a cursor at the first entry with key `>= key`, pinned to
    /// the leaf the descent ended on: one pool fetch per level, and none
    /// again until the cursor crosses to a neighbour.
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
        let mut id = self.root;
        let mut page = self.pool.page(id)?;
        for _ in 1..self.height {
            id = Internal::child(&page, Internal::child_index(&page, key));
            page = self.pool.page(id)?;
        }
        if !is_leaf(&page) {
            return Err(Error::Corrupt("descent did not end at a leaf"));
        }
        let slot = Leaf::lower_bound(&page, key);
        self.pin(id, page, slot)
    }

    /// A cursor on `leaf`, page `page`, in the gap before `slot` — refused
    /// if the leaf's positions run past [`len`](Self::len), so every
    /// position a cursor returns names one of the tree's entries.
    #[inline]
    fn pin(&self, page: PageId, leaf: Arc<Page>, slot: usize) -> Result<Cursor> {
        let cursor = Cursor::pinned(page, leaf, slot);
        if cursor.first + cursor.count as u64 > self.len as u64 {
            return Err(Error::Corrupt("leaf positions run past the tree"));
        }
        Ok(cursor)
    }

    /// Returns the entry at the cursor as `(key, position)` and advances
    /// the cursor forward (ascending keys). `None` when past the last
    /// entry; the cursor then stays on the last leaf, so
    /// [`cursor_prev`](Self::cursor_prev) still walks back.
    ///
    /// A step within the pinned leaf is a slot compare and one key read,
    /// inlined into the caller's loop; only crossing to the next leaf calls
    /// out. The entry's code is not read here: [`Cursor::code`] reads it
    /// for the caller that wants it.
    #[inline]
    pub fn cursor_next(&self, cursor: &mut Cursor) -> Result<Option<(f64, u64)>> {
        while cursor.slot >= cursor.count {
            if cursor.first + cursor.count as u64 >= self.len as u64 {
                return Ok(None);
            }
            let next = cursor.page + 1;
            // Crossing a leaf boundary: hint the pool so a demand-read
            // source can start on the next leaf before the miss lands.
            // Free on resident pools, and never a logical access.
            let _ = self.pool.prefetch(next);
            *cursor = self.pin(next, self.pool.page(next)?, 0)?;
        }
        cursor.last = cursor.slot;
        cursor.slot += 1;
        Ok(Some(self.entry(cursor)))
    }

    /// Returns the entry *before* the cursor as `(key, position)` and moves
    /// the cursor backward (descending keys). `None` when before the first
    /// entry; the cursor then stays on the first leaf.
    ///
    /// `cursor_next` and `cursor_prev` are symmetric around the cursor gap:
    /// after a `seek(k)`, `cursor_prev` yields entries `< k` and
    /// `cursor_next` yields entries `>= k`.
    #[inline]
    pub fn cursor_prev(&self, cursor: &mut Cursor) -> Result<Option<(f64, u64)>> {
        while cursor.slot == 0 {
            if cursor.first == 0 {
                return Ok(None);
            }
            let prev = cursor.page - 1;
            let leaf = self.pool.page(prev)?;
            let end = Leaf::count(&leaf);
            *cursor = self.pin(prev, leaf, end)?;
        }
        cursor.slot -= 1;
        cursor.last = cursor.slot;
        Ok(Some(self.entry(cursor)))
    }

    /// The entry the last step returned, as `(key, position)`.
    #[inline]
    fn entry(&self, cursor: &Cursor) -> (f64, u64) {
        (
            Leaf::key(&cursor.leaf, cursor.last),
            cursor.first + cursor.last as u64,
        )
    }

    /// Collects all `(key, position)` entries with `lo <= key <= hi`.
    pub fn range(&self, lo: f64, hi: f64) -> Result<Vec<(f64, u64)>> {
        let mut cursor = self.seek(lo)?;
        let mut out = Vec::new();
        while let Some((k, position)) = self.cursor_next(&mut cursor)? {
            if k > hi {
                break;
            }
            out.push((k, position));
        }
        Ok(out)
    }

    /// Walks the whole tree checking structural invariants (key order
    /// along the leaf chain, positions `0..len` in order, the chain the
    /// same length both ways). Test/diagnostic helper — `O(n)`.
    pub fn check_invariants(&self) -> Result<()> {
        let mut cursor = self.seek(f64::MIN)?;
        let mut prev: Option<f64> = None;
        let mut seen = 0u64;
        while let Some((k, position)) = self.cursor_next(&mut cursor)? {
            if prev.is_some_and(|p| k < p) {
                return Err(Error::Corrupt("keys out of order in leaf chain"));
            }
            if position != seen {
                return Err(Error::Corrupt("positions are not dense in key order"));
            }
            prev = Some(k);
            seen += 1;
        }
        if seen != self.len as u64 {
            return Err(Error::Corrupt("leaf chain length disagrees with len"));
        }
        let mut back = 0u64;
        while self.cursor_prev(&mut cursor)?.is_some() {
            back += 1;
        }
        if back != self.len as u64 {
            return Err(Error::Corrupt("backward chain length disagrees with len"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;

    /// A tree over `keys` in the given (sorted) order, code = position².
    fn tree(pool_pages: usize, keys: &[f64]) -> BPlusTree {
        let entries: Vec<(f64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i * i) as u64))
            .collect();
        let pool = BufferPool::new(DiskManager::new(), pool_pages).unwrap();
        BPlusTree::bulk_load(pool, &entries).unwrap()
    }

    fn upto(n: u64, scale: f64) -> Vec<f64> {
        (0..n).map(|i| i as f64 * scale).collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree(16, &[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_pages(), 1, "one empty leaf, no spare root");
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn point_seek_and_walk() {
        let t = tree(64, &upto(100, 1.0));
        assert_eq!(t.len(), 100);
        let mut c = t.seek(42.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((42.0, 42)));
        assert_eq!(c.code(), 42 * 42);
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((43.0, 43)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_across_leaves_seek_to_first() {
        // A run of duplicates longer than a leaf spans leaf boundaries.
        let mut keys = vec![3.0; 100];
        keys.extend([7.0; 600]);
        keys.extend([11.0; 100]);
        let t = tree(256, &keys);
        let mut c = t.seek(7.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((7.0, 100)));
        let hits = t.range(7.0, 7.0).unwrap();
        assert_eq!(hits.len(), 600);
        assert!(hits.iter().zip(100..).all(|(&(_, p), want)| p == want));
        let mut c = t.seek(7.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((3.0, 99)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn backward_scan_symmetry() {
        let t = tree(64, &upto(500, 1.0));
        let mut c = t.seek(250.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((249.0, 249)));
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((248.0, 248)));
        // Cursor gap restored by seek; forward resumes at >= key.
        let mut c = t.seek(250.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((250.0, 250)));
    }

    #[test]
    fn range_query() {
        let t = tree(64, &upto(100, 0.1));
        let r = t.range(2.0, 3.0).unwrap();
        assert_eq!(r.len(), 11); // 2.0, 2.1, ..., 3.0 (within fp tolerance)
        assert!(r.iter().all(|&(k, _)| (2.0..=3.0).contains(&k)));
        assert!(t.range(99.0, 100.0).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_finite_seeks() {
        let t = tree(16, &[1.0]);
        assert_eq!(t.seek(f64::NAN).err(), Some(Error::InvalidKey));
        assert_eq!(t.seek(f64::INFINITY).err(), Some(Error::InvalidKey));
    }

    #[test]
    fn io_is_counted_through_small_pool() {
        // A pool smaller than the tree forces real I/O on traversals.
        let t = tree(4, &upto(5000, 1.0));
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
        let t = tree(16, &upto(2000, 0.25));
        let images = t.pool().export_pages().unwrap();
        let (root, height, len) = (t.root_page_id(), t.height(), t.len());
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, root, height, len).unwrap();
        assert_eq!(back.len(), 2000);
        assert_eq!(back.height(), height);
        let mut c = back.seek(100.0).unwrap();
        assert_eq!(back.cursor_next(&mut c).unwrap(), Some((100.0, 400)));
        assert_eq!(c.code(), 400 * 400);
        back.check_invariants().unwrap();
    }

    #[test]
    fn from_parts_rejects_inconsistent_metadata() {
        let t = tree(16, &upto(2000, 1.0));
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
    fn a_leaf_whose_positions_run_past_the_tree_is_refused() {
        let t = tree(16, &upto(2000, 1.0));
        let (root, height, len) = (t.root_page_id(), t.height(), t.len());
        let mut images = t.pool().export_pages().unwrap();
        // Page 1 is the second leaf; shift its `first` past the tree.
        let mut leaf = (*images[1]).clone();
        Leaf::init(&mut leaf, len as u64);
        Leaf::push(&mut leaf, 300.0, 0).unwrap();
        images[1] = Arc::new(leaf);
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, root, height, len).unwrap();
        assert!(matches!(back.seek(300.0), Err(Error::Corrupt(_))));
        // A walk from the first leaf is refused where it crosses onto it.
        let mut c = back.seek(0.0).unwrap();
        let stopped = loop {
            match back.cursor_next(&mut c) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(matches!(stopped, Err(Error::Corrupt(_))));
    }

    #[test]
    fn negative_and_fractional_keys() {
        let keys = [-100.0, -5.5, -0.1, 0.0, 0.1, 3.25];
        let t = tree(64, &keys);
        let all = t.range(f64::MIN, f64::MAX).unwrap();
        let got: Vec<f64> = all.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys);
    }
}
