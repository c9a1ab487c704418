//! Bottom-up bulk loading from sorted input.
//!
//! Indexing a dimensionality-reduction result means inserting every point's
//! 1-d key at once; bulk loading builds a compact tree (≈ 90 % leaf fill)
//! in `O(n)` page writes instead of `O(n log n)` top-down inserts.

use crate::error::{Error, Result};
use crate::node::{Internal, Leaf, INTERNAL_CAPACITY, LEAF_CAPACITY, NIL_PAGE};
use crate::tree::BPlusTree;
use mmdr_storage::{BufferPool, PageId};

/// Leaf fill fraction for bulk loads; < 1.0 leaves room for later inserts.
const FILL: f64 = 0.9;

impl BPlusTree {
    /// Builds a tree from `(key, rid, code)` entries sorted by key
    /// (ascending; duplicates allowed). Returns [`Error::UnsortedInput`] on
    /// order violations and [`Error::InvalidKey`] on non-finite keys.
    pub fn bulk_load(mut pool: BufferPool, entries: &[(f64, u64, u64)]) -> Result<Self> {
        // Validate input once, up front.
        for (i, &(k, _, _)) in entries.iter().enumerate() {
            if !k.is_finite() {
                return Err(Error::InvalidKey);
            }
            if i > 0 && k < entries[i - 1].0 {
                return Err(Error::UnsortedInput { position: i });
            }
        }
        if entries.is_empty() {
            return Self::new(pool);
        }

        let per_leaf = ((LEAF_CAPACITY as f64 * FILL) as usize).max(1);
        // Build the leaf level; remember (first_key, page) for the level above.
        let mut level: Vec<(f64, PageId)> = Vec::new();
        let mut prev_leaf = NIL_PAGE;
        for chunk in entries.chunks(per_leaf) {
            let page_id = pool.allocate()?;
            pool.with_page_mut(page_id, |p| -> Result<()> {
                Leaf::init(p);
                for &(k, rid, code) in chunk {
                    Leaf::push(p, k, rid, code)?;
                }
                Leaf::set_prev(p, prev_leaf);
                Ok(())
            })??;
            if prev_leaf != NIL_PAGE {
                pool.with_page_mut(prev_leaf, |p| Leaf::set_next(p, page_id))?;
            }
            level.push((chunk[0].0, page_id));
            prev_leaf = page_id;
        }

        // Build internal levels until a single root remains.
        let per_node = ((INTERNAL_CAPACITY as f64 * FILL) as usize).max(2);
        let mut height = 1;
        while level.len() > 1 {
            let mut next_level: Vec<(f64, PageId)> = Vec::new();
            for group in level.chunks(per_node + 1) {
                let page_id = pool.allocate()?;
                pool.with_page_mut(page_id, |p| -> Result<()> {
                    Internal::init(p, group[0].1);
                    for &(first_key, child) in &group[1..] {
                        Internal::push(p, first_key, child)?;
                    }
                    Ok(())
                })??;
                next_level.push((group[0].0, page_id));
            }
            level = next_level;
            height += 1;
        }

        let root = level[0].1;
        let mut tree = Self::new(pool)?; // allocates a dummy leaf root
        tree.set_root(root, height, entries.len());
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;

    fn pool(pages: usize) -> BufferPool {
        BufferPool::new(DiskManager::new(), pages).unwrap()
    }

    /// `(key, rid)` pairs with a code derived from the rid.
    fn coded(pairs: impl IntoIterator<Item = (f64, u64)>) -> Vec<(f64, u64, u64)> {
        pairs
            .into_iter()
            .map(|(k, rid)| (k, rid, rid.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    fn pairs(entries: &[(f64, u64, u64)]) -> Vec<(f64, u64)> {
        entries.iter().map(|&(k, rid, _)| (k, rid)).collect()
    }

    #[test]
    fn bulk_load_small() {
        let entries = coded((0..10).map(|i| (i as f64, i)));
        let t = BPlusTree::bulk_load(pool(16), &entries).unwrap();
        assert_eq!(t.len(), 10);
        t.check_invariants().unwrap();
        let all = t.range(f64::MIN, f64::MAX).unwrap();
        assert_eq!(all, pairs(&entries));
    }

    #[test]
    fn bulk_load_multi_level() {
        let n = 100_000u64;
        let entries = coded((0..n).map(|i| (i as f64 * 0.25, i)));
        let t = BPlusTree::bulk_load(pool(1024), &entries).unwrap();
        assert_eq!(t.len(), n as usize);
        assert!(t.height() >= 3, "height {}", t.height());
        // Spot checks.
        for probe in [0u64, 1, n / 2, n - 1] {
            let key = probe as f64 * 0.25;
            let mut c = t.seek(key).unwrap();
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((key, probe)));
            assert_eq!(c.code(), entries[probe as usize].2);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_duplicates() {
        let mut entries = vec![(1.0, 1u64)];
        entries.extend((0..500).map(|i| (2.0, 100 + i)));
        entries.push((3.0, 9));
        let entries = coded(entries);
        let t = BPlusTree::bulk_load(pool(64), &entries).unwrap();
        assert_eq!(t.range(2.0, 2.0).unwrap().len(), 500);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_empty() {
        let t = BPlusTree::bulk_load(pool(4), &[]).unwrap();
        assert!(t.is_empty());
        assert!(t.range(0.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn bulk_load_validates_input() {
        assert!(matches!(
            BPlusTree::bulk_load(pool(4), &[(2.0, 0, 0), (1.0, 1, 0)]),
            Err(Error::UnsortedInput { position: 1 })
        ));
        assert!(matches!(
            BPlusTree::bulk_load(pool(4), &[(f64::NAN, 0, 0)]),
            Err(Error::InvalidKey)
        ));
    }

    /// `(tree, leaves)` over `n` distinct keys `0, 1, …`.
    fn loaded(n: u64, frames: usize) -> (BPlusTree, u64) {
        let entries = coded((0..n).map(|i| (i as f64, i)));
        let per_leaf = (LEAF_CAPACITY as f64 * FILL) as u64;
        let t = BPlusTree::bulk_load(pool(frames), &entries).unwrap();
        (t, n.div_ceil(per_leaf))
    }

    #[test]
    fn scan_costs_one_fetch_per_leaf() {
        let n = 60_000u64;
        let (t, leaves) = loaded(n, 1024);
        let height = t.height() as u64;
        assert!(height >= 3 && leaves > 200, "h {height}, {leaves} leaves");
        let fetches = |f: &dyn Fn()| {
            let before = t.pool().snapshot();
            f();
            t.pool().snapshot().since(&before).pages_touched()
        };

        assert_eq!(fetches(&|| drop(t.seek(n as f64 / 2.0).unwrap())), height);
        let forward = fetches(&|| {
            let mut c = t.seek(f64::MIN).unwrap();
            let mut seen = 0;
            while t.cursor_next(&mut c).unwrap().is_some() {
                seen += 1;
            }
            assert_eq!(seen, n);
        });
        assert_eq!(forward, height + leaves - 1);
        let backward = fetches(&|| {
            let mut c = t.seek(f64::MAX).unwrap();
            let mut seen = 0;
            while t.cursor_prev(&mut c).unwrap().is_some() {
                seen += 1;
            }
            assert_eq!(seen, n);
        });
        assert_eq!(backward, height + leaves - 1);
    }

    #[test]
    fn pinned_leaf_survives_eviction() {
        // One frame: every fetch evicts the leaf the cursor stands on.
        let n = 5_000u64;
        let (t, _) = loaded(n, 1);
        let mut c = t.seek(f64::MIN).unwrap();
        let mut mid = t.seek(n as f64 / 2.0).unwrap();
        let code = |rid: u64| coded([(0.0, rid)])[0].2;
        for i in 0..n {
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((i as f64, i)));
            assert_eq!(c.code(), code(i));
        }
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        // A cursor parked across all that traffic still reads its leaf.
        assert_eq!(t.cursor_next(&mut mid).unwrap(), Some((2500.0, 2500)));
        for i in (0..n).rev() {
            assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((i as f64, i)));
            assert_eq!(c.code(), code(i));
        }
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
    }

    #[test]
    fn inserts_after_bulk_load() {
        let entries = coded((0..1000).map(|i| (i as f64 * 2.0, i)));
        let mut t = BPlusTree::bulk_load(pool(128), &entries).unwrap();
        for i in 0..1000u64 {
            t.insert(i as f64 * 2.0 + 1.0, 10_000 + i, 0).unwrap();
        }
        assert_eq!(t.len(), 2000);
        t.check_invariants().unwrap();
        let r = t.range(10.0, 13.0).unwrap();
        let keys: Vec<f64> = r.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![10.0, 11.0, 12.0, 13.0]);
    }
}
