//! The B⁺-tree proper: fence routing, seeks and the two-way leaf walk.

use crate::cursor::Cursor;
use crate::error::{Error, Result};
use crate::node::{Leaf, LEAF_CAPACITY};
use mmdr_storage::{BufferPool, Page, PageId};
use std::sync::Arc;

/// A static B⁺-tree over finite `f64` keys, each entry a `u64` code word
/// named by its position, bounded by its leaf's key range.
///
/// The tree is its leaves, on pages `0..` of its pool, and one *fence* per
/// leaf held in memory: the leaf's exact first (least) key. A seek
/// binary-searches the fences and fetches one leaf; there are no internal
/// nodes. Built once by [`bulk_load`](Self::bulk_load) (or reattached by
/// [`from_parts`](Self::from_parts)) and never written again. See the
/// crate docs for an end-to-end example.
#[derive(Debug)]
pub struct BPlusTree {
    pub(crate) pool: BufferPool,
    pub(crate) fences: Vec<f64>,
    pub(crate) len: usize,
}

impl BPlusTree {
    /// Puts a tree together from its pages — a bulk load's, or a
    /// snapshot's, restored. `fences` and `len` must be the values the
    /// saved tree reported
    /// ([`fences`](Self::fences), [`len`](Self::len)); the pool must hold
    /// that tree's page images. Reads no page: what is checked is that
    /// there is a fence per leaf `len` entries fill and a page per fence,
    /// and that the fences are finite and ascend — the page *contents* are
    /// protected by the snapshot layer's checksums.
    pub fn from_parts(pool: BufferPool, fences: Vec<f64>, len: usize) -> Result<Self> {
        if fences.len() != len.div_ceil(LEAF_CAPACITY).max(1) {
            return Err(Error::Corrupt("fence count disagrees with the entry count"));
        }
        if fences.iter().any(|f| !f.is_finite()) || fences.windows(2).any(|w| w[1] < w[0]) {
            return Err(Error::Corrupt("fences must be finite and ascending"));
        }
        if pool.num_pages() != fences.len() {
            return Err(Error::Corrupt("page count disagrees with the fences"));
        }
        Ok(Self { pool, fences, len })
    }

    /// Each leaf's exact first (least) key, leaf by leaf (persisted
    /// alongside the page images so [`from_parts`](Self::from_parts) can
    /// reattach).
    pub fn fences(&self) -> &[f64] {
        &self.fences
    }

    /// Number of entries: positions run `0..len`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages a seek fetches: 1, the leaf — the fences route it in memory.
    pub fn height(&self) -> usize {
        1
    }

    /// Access to the buffer pool: its page counts, and the per-shard
    /// hit/miss/eviction counters every fetch ticks
    /// ([`BufferPool::snapshot`]).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Pages allocated on the underlying disk: one per leaf.
    pub fn num_pages(&self) -> usize {
        self.pool.num_pages()
    }

    /// Positions a cursor at a leaf boundary: before the leaf the fences
    /// route `key` to if its last key is `≥ key`, after it otherwise. One
    /// pool fetch, and none again until the cursor crosses to a neighbour.
    /// So [`cursor_prev`](Self::cursor_prev) yields exactly the entries of
    /// the leaves whose last key is `< key`, and
    /// [`cursor_next`](Self::cursor_next) those of the rest — every entry
    /// whose key is `≥ key` among them.
    ///
    /// The routing is lower-bound routing: a leaf whose fence equals `key`
    /// is not taken, so a seek lands on the *first* duplicate. The cursor
    /// may be exhausted immediately (every leaf ends below `key`); both
    /// steps work from the returned position.
    pub fn seek(&self, key: f64) -> Result<Cursor> {
        if !key.is_finite() {
            return Err(Error::InvalidKey);
        }
        // No pool lock is held while a leaf is examined, so concurrent
        // seeks proceed in parallel.
        let page = self.fences[1..].partition_point(|&fence| fence < key) as PageId;
        let mut cursor = self.pin(page, self.pool.page(page)?, 0)?;
        if cursor.hi < key {
            cursor.slot = cursor.count;
        }
        Ok(cursor)
    }

    /// Positions a cursor in the gap before `position` (`≤ len`), on leaf
    /// `position / LEAF_CAPACITY`, where [`bulk_load`](Self::bulk_load)
    /// packs it: one pool fetch, as a seek makes. A leaf whose positions do
    /// not hold `position` is refused `Corrupt`.
    pub fn cursor_at(&self, position: u64) -> Result<Cursor> {
        let page = (position / LEAF_CAPACITY as u64).min(self.fences.len() as u64 - 1);
        let mut cursor = self.pin(page, self.pool.page(page)?, 0)?;
        cursor.slot = (position.checked_sub(cursor.first))
            .filter(|&slot| slot <= cursor.count as u64)
            .ok_or(Error::Corrupt("a leaf's positions are not where they pack"))?
            as usize;
        Ok(cursor)
    }

    /// A cursor on `leaf`, page `page`, in the gap before `slot` — refused
    /// if the leaf's positions are not the ones [`bulk_load`](Self::bulk_load)
    /// packs on its page (from `page · LEAF_CAPACITY`, a full leaf's worth
    /// but on the last page, which ends at [`len`](Self::len)), so every
    /// position a cursor returns names one of the tree's entries and a step
    /// never leaves the tree's pages; or if its first key is not its fence,
    /// or its last key is below its first or not finite — the two keys are
    /// all a walk knows of its entries' keys, and a wrong one would end a
    /// walk early without a word.
    #[inline]
    fn pin(&self, page: PageId, leaf: Arc<Page>, slot: usize) -> Result<Cursor> {
        let cursor = Cursor::pinned(page, leaf, slot);
        let packed = page * LEAF_CAPACITY as u64;
        let count = (self.len as u64)
            .saturating_sub(packed)
            .min(LEAF_CAPACITY as u64);
        if cursor.first != packed || cursor.count as u64 != count {
            return Err(Error::Corrupt("a leaf's positions are not where they pack"));
        }
        // The fences are finite (`from_parts`), so a first key equal to its
        // fence is too; `!(lo <= hi)` also refuses a NaN last key.
        if cursor.lo != self.fences[page as usize] {
            return Err(Error::Corrupt("a leaf's first key is not its fence"));
        }
        if !(cursor.lo <= cursor.hi && cursor.hi.is_finite()) {
            return Err(Error::Corrupt(
                "a leaf's last key is below its first or not finite",
            ));
        }
        Ok(cursor)
    }

    /// Returns the entry at the cursor as `(lo, position)` — `lo` the
    /// leaf's first key, the lower end of the range the entry's key lies
    /// in, [`Cursor::key_hi`] the upper — and advances the cursor forward
    /// (ascending positions, leaf ranges that never descend). `None` when
    /// past the last entry; the cursor then stays on the last leaf, so
    /// [`cursor_prev`](Self::cursor_prev) still walks back.
    ///
    /// A step within the pinned leaf is a slot compare, inlined into the
    /// caller's loop; only crossing to the next leaf calls out. The entry's
    /// code is not read here: [`Cursor::code`] reads it for the caller that
    /// wants it.
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
        Ok(Some(Self::entry(cursor)))
    }

    /// Returns the entry *before* the cursor as `(lo, position)` and moves
    /// the cursor backward (descending positions). `None` when before the
    /// first entry; the cursor then stays on the first leaf.
    ///
    /// `cursor_next` and `cursor_prev` are symmetric around the cursor gap:
    /// after a `seek(k)`, `cursor_prev` yields the entries of the leaves
    /// that end below `k` and `cursor_next` the rest.
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
        Ok(Some(Self::entry(cursor)))
    }

    /// The entry the last step returned, as `(lo, position)`.
    #[inline]
    fn entry(cursor: &Cursor) -> (f64, u64) {
        (cursor.lo, cursor.first + cursor.last as u64)
    }

    /// Walks the whole tree checking structural invariants (each leaf pins
    /// — its first key is its fence, its last key finite and not below it
    /// — and ends at or below the next leaf's fence, positions `0..len` in
    /// order, the chain the same length both ways). Test/diagnostic helper
    /// — `O(n)`.
    pub fn check_invariants(&self) -> Result<()> {
        for page in 0..self.fences.len() as PageId {
            let leaf = self.pin(page, self.pool.page(page)?, 0)?;
            if self
                .fences
                .get(page as usize + 1)
                .is_some_and(|&next| leaf.hi > next)
            {
                return Err(Error::Corrupt("leaf key ranges descend along the chain"));
            }
        }
        let mut cursor = self.seek(f64::MIN)?;
        let mut seen = 0u64;
        while let Some((_, position)) = self.cursor_next(&mut cursor)? {
            if position != seen {
                return Err(Error::Corrupt("positions are not dense in leaf order"));
            }
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
        BPlusTree::bulk_load(pool_pages, &entries).unwrap()
    }

    fn upto(n: u64, scale: f64) -> Vec<f64> {
        (0..n).map(|i| i as f64 * scale).collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree(16, &[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_pages(), 1, "one empty leaf");
        assert_eq!(t.fences(), [0.0]);
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        let mut c = t.seek(0.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
        t.check_invariants().unwrap();
    }

    /// The second leaf's first position and key over `upto(n, 1.0)`.
    const SECOND: u64 = LEAF_CAPACITY as u64;

    #[test]
    fn point_seek_and_walk() {
        let t = tree(64, &upto(1200, 1.0));
        assert_eq!(t.len(), 1200);
        // Mid-leaf: the cursor stands before the leaf holding the key.
        let mut c = t.seek(SECOND as f64 + 42.0).unwrap();
        assert_eq!(
            t.cursor_next(&mut c).unwrap(),
            Some((SECOND as f64, SECOND))
        );
        assert_eq!(c.key_hi(), (2 * SECOND - 1) as f64);
        assert_eq!(c.code(), SECOND * SECOND);
        assert_eq!(
            t.cursor_next(&mut c).unwrap(),
            Some((SECOND as f64, SECOND + 1))
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_cursor_at_a_position_steps_onto_it_with_one_fetch() {
        let t = tree(64, &upto(1200, 1.0));
        for at in [0, 1, SECOND - 1, SECOND, SECOND + 7, 1199] {
            let before = t.pool().snapshot();
            let mut c = t.cursor_at(at).unwrap();
            assert_eq!(t.pool().snapshot().since(&before).pages_touched(), 1);
            assert_eq!(t.cursor_next(&mut c).unwrap().map(|e| e.1), Some(at));
            assert_eq!(c.code(), at * at);
            let mut c = t.cursor_at(at).unwrap();
            let back = t.cursor_prev(&mut c).unwrap().map(|e| e.1);
            assert_eq!(back, at.checked_sub(1));
        }
        // The gap past the last entry, and past a full last leaf.
        let mut c = t.cursor_at(1200).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        let full = tree(16, &upto(SECOND, 1.0));
        let mut c = full.cursor_at(SECOND).unwrap();
        assert_eq!(
            full.cursor_prev(&mut c).unwrap().map(|e| e.1),
            Some(SECOND - 1)
        );
    }

    #[test]
    fn duplicates_across_leaves_seek_to_first() {
        // A run of duplicates longer than a leaf spans leaf boundaries:
        // leaves [3, 7], [7, 7] and [7, 11].
        let mut keys = vec![3.0; 100];
        keys.extend([7.0; 1200]);
        keys.extend([11.0; 100]);
        let t = tree(256, &keys);
        assert_eq!(t.fences(), [3.0, 7.0, 7.0]);
        // The first leaf holding a 7: everything is forward of it.
        let mut c = t.seek(7.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((3.0, 0)));
        assert_eq!(c.key_hi(), 7.0);
        // Past 7, only the last leaf reaches the key.
        let mut c = t.seek(7.5).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((7.0, 2 * SECOND - 1)));
        assert_eq!(c.key_hi(), 7.0);
        let mut c = t.seek(7.5).unwrap();
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((7.0, 2 * SECOND)));
        assert_eq!(c.key_hi(), 11.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn backward_scan_symmetry() {
        let t = tree(64, &upto(1200, 1.0));
        let mut c = t.seek(600.0).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((0.0, SECOND - 1)));
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((0.0, SECOND - 2)));
        // Cursor gap restored by seek; forward resumes at the leaf holding
        // the key.
        let mut c = t.seek(600.0).unwrap();
        assert_eq!(
            t.cursor_next(&mut c).unwrap(),
            Some((SECOND as f64, SECOND))
        );
        // A key past a leaf's last but short of the next fence: the cursor
        // stands after that leaf.
        let t = tree(64, &upto(1200, 2.0));
        let gap = 2.0 * (SECOND - 1) as f64 + 1.0;
        let mut c = t.seek(gap).unwrap();
        assert!(c.at_leaf_end());
        assert_eq!(t.cursor_next(&mut c).unwrap(), Some((gap + 1.0, SECOND)));
        let mut c = t.seek(gap).unwrap();
        assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((0.0, SECOND - 1)));
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
    fn from_parts_reattaches_exported_pages_without_a_fetch() {
        let t = tree(16, &upto(2000, 0.25));
        let images = t.pool().export_pages().unwrap();
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, t.fences().to_vec(), t.len()).unwrap();
        assert_eq!(
            back.pool().snapshot().pages_touched(),
            0,
            "an open reads no page"
        );
        assert_eq!(back.len(), 2000);
        let mut c = back.seek(200.0).unwrap();
        assert_eq!(back.cursor_next(&mut c).unwrap(), Some((127.0, SECOND)));
        assert_eq!(c.code(), SECOND * SECOND);
        back.check_invariants().unwrap();
    }

    #[test]
    fn from_parts_rejects_inconsistent_metadata() {
        let t = tree(16, &upto(2000, 1.0));
        let (fences, len) = (t.fences().to_vec(), t.len());
        assert!(fences.len() > 2, "need several leaves");
        let images = t.pool().export_pages().unwrap();
        let reopen = |fences: Vec<f64>, pages: usize| {
            let disk = DiskManager::from_pages(images[..pages].to_vec());
            BPlusTree::from_parts(BufferPool::new(disk, 16).unwrap(), fences, len)
        };
        assert!(reopen(fences.clone(), images.len()).is_ok());
        let corrupt = |got: Result<BPlusTree>| matches!(got, Err(Error::Corrupt(_)));
        assert!(
            corrupt(reopen(fences[1..].to_vec(), images.len())),
            "a fence short"
        );
        let mut descending = fences.clone();
        descending.swap(1, 2);
        assert!(corrupt(reopen(descending, images.len())), "fences descend");
        let mut unbounded = fences.clone();
        unbounded[1] = f64::NAN;
        assert!(
            corrupt(reopen(unbounded, images.len())),
            "a fence not finite"
        );
        assert!(
            corrupt(reopen(fences, images.len() - 1)),
            "a page short of the fences"
        );
    }

    #[test]
    fn a_leaf_whose_positions_run_past_the_tree_is_refused() {
        let t = tree(16, &upto(2000, 1.0));
        let (fences, len) = (t.fences().to_vec(), t.len());
        let mut images = t.pool().export_pages().unwrap();
        // Page 1 is the second leaf; shift its `first` past the tree.
        let mut leaf = (*images[1]).clone();
        Leaf::write(&mut leaf, len as u64, &[(fences[1], 0)]).unwrap();
        images[1] = Arc::new(leaf);
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, fences.clone(), len).unwrap();
        assert!(matches!(back.seek(fences[1] + 1.0), Err(Error::Corrupt(_))));
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
    fn a_leaf_counting_more_entries_than_a_page_holds_is_refused() {
        let t = tree(16, &upto(2000, 1.0));
        let mut images = t.pool().export_pages().unwrap();
        // The count is the header's first field: one past capacity, with
        // positions that would still lie inside the tree.
        let mut leaf = (*images[0]).clone();
        leaf.put_u16(0, LEAF_CAPACITY as u16 + 1).unwrap();
        images[0] = Arc::new(leaf);
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, t.fences().to_vec(), t.len()).unwrap();
        assert!(matches!(back.seek(0.0), Err(Error::Corrupt(_))));
    }

    /// A tree over `0..2000` whose second leaf's header holds `first` and
    /// `last` as its two keys (node.rs: offsets 10 and 18): refused by a
    /// seek that lands on it, by a walk crossing onto it either way, and by
    /// `check_invariants`.
    fn refused_with_keys(first: f64, last: f64) {
        let t = tree(16, &upto(2000, 1.0));
        let (fences, len) = (t.fences().to_vec(), t.len());
        let mut images = t.pool().export_pages().unwrap();
        let mut leaf = (*images[1]).clone();
        leaf.put_f64(10, first).unwrap();
        leaf.put_f64(18, last).unwrap();
        images[1] = Arc::new(leaf);
        let pool = BufferPool::new(DiskManager::from_pages(images), 16).unwrap();
        let back = BPlusTree::from_parts(pool, fences.clone(), len).unwrap();
        let ctx = format!("keys [{first}, {last}]");
        let corrupt = |got: Result<Option<(f64, u64)>>| matches!(got, Err(Error::Corrupt(_)));
        assert!(
            matches!(back.seek(fences[1] + 1.0), Err(Error::Corrupt(_))),
            "{ctx}"
        );
        let mut c = back.seek(fences[0]).unwrap();
        let stopped = loop {
            match back.cursor_next(&mut c) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(corrupt(stopped), "{ctx}");
        let mut c = back.seek(fences[2] + 1.0).unwrap();
        let stopped = loop {
            match back.cursor_prev(&mut c) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(corrupt(stopped), "{ctx}");
        assert!(back.check_invariants().is_err(), "{ctx}");
    }

    #[test]
    fn a_leaf_whose_first_key_is_not_its_fence_is_refused() {
        let (first, last) = (SECOND as f64, (2 * SECOND - 1) as f64);
        refused_with_keys(first + 0.5, last);
        refused_with_keys(first - 0.5, last);
    }

    #[test]
    fn a_leaf_whose_last_key_is_below_its_first_is_refused() {
        let first = SECOND as f64;
        refused_with_keys(first, first - 1.0);
        refused_with_keys(first, first.next_down());
    }

    #[test]
    fn a_leaf_whose_keys_are_not_finite_is_refused() {
        let (first, last) = (SECOND as f64, (2 * SECOND - 1) as f64);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            refused_with_keys(bad, last);
            refused_with_keys(first, bad);
        }
    }

    #[test]
    fn negative_and_fractional_keys() {
        let keys = [-100.0, -5.5, -0.1, 0.0, 0.1, 3.25];
        let t = tree(64, &keys);
        let mut c = t.seek(f64::MIN).unwrap();
        for (i, &key) in keys.iter().enumerate() {
            let (lo, position) = t.cursor_next(&mut c).unwrap().unwrap();
            assert_eq!(position, i as u64);
            assert!(
                lo <= key && key <= c.key_hi(),
                "{key}: [{lo}, {}]",
                c.key_hi()
            );
        }
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
    }
}
