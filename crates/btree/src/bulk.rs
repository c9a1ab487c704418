//! Bottom-up bulk loading from sorted input — the one way a tree is built.
//!
//! Indexing a dimensionality-reduction result means indexing every point's
//! 1-d key at once, and the index is never written again: every leaf but
//! the last is packed full, on consecutive pages, in `O(n)` page writes.

use crate::error::{Error, Result};
use crate::node::{Internal, Leaf, INTERNAL_CAPACITY, LEAF_CAPACITY};
use crate::tree::BPlusTree;
use mmdr_storage::{BufferPool, PageId};

impl BPlusTree {
    /// Builds a tree from `(key, code)` entries sorted by key (ascending;
    /// duplicates allowed): entry `n` of `entries` is the tree's position
    /// `n`. Returns [`Error::UnsortedInput`] on order violations and
    /// [`Error::InvalidKey`] on non-finite keys. An empty input is one
    /// empty leaf.
    pub fn bulk_load(mut pool: BufferPool, entries: &[(f64, u64)]) -> Result<Self> {
        // Validate input once, up front.
        for (i, &(k, _)) in entries.iter().enumerate() {
            if !k.is_finite() {
                return Err(Error::InvalidKey);
            }
            if i > 0 && k < entries[i - 1].0 {
                return Err(Error::UnsortedInput { position: i });
            }
        }

        // The leaf level, allocated back to back; remember (first_key,
        // page) for the level above.
        let leaves = entries.len().div_ceil(LEAF_CAPACITY).max(1);
        let mut level: Vec<(f64, PageId)> = Vec::with_capacity(leaves);
        for at in (0..leaves).map(|j| j * LEAF_CAPACITY) {
            let chunk = &entries[at..(at + LEAF_CAPACITY).min(entries.len())];
            let page_id = pool.allocate()?;
            pool.with_page_mut(page_id, |p| -> Result<()> {
                Leaf::init(p, at as u64);
                for &(k, code) in chunk {
                    Leaf::push(p, k, code)?;
                }
                Ok(())
            })??;
            level.push((chunk.first().map_or(0.0, |e| e.0), page_id));
        }

        // Internal levels, every node full but the last of its level,
        // until a single root remains.
        let mut height = 1;
        while level.len() > 1 {
            let mut next_level: Vec<(f64, PageId)> = Vec::new();
            for group in level.chunks(INTERNAL_CAPACITY + 1) {
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

        Ok(Self {
            pool,
            root: level[0].1,
            height,
            len: entries.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_storage::DiskManager;

    fn pool(pages: usize) -> BufferPool {
        BufferPool::new(DiskManager::new(), pages).unwrap()
    }

    /// Keys with a code derived from each entry's position.
    fn coded(keys: impl IntoIterator<Item = f64>) -> Vec<(f64, u64)> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// `(key, position)` of every entry, as `range` returns them.
    fn positioned(entries: &[(f64, u64)]) -> Vec<(f64, u64)> {
        (0..).zip(entries).map(|(i, &(k, _))| (k, i)).collect()
    }

    #[test]
    fn bulk_load_small() {
        let entries = coded((0..10).map(f64::from));
        let t = BPlusTree::bulk_load(pool(16), &entries).unwrap();
        assert_eq!(t.len(), 10);
        t.check_invariants().unwrap();
        let all = t.range(f64::MIN, f64::MAX).unwrap();
        assert_eq!(all, positioned(&entries));
    }

    #[test]
    fn bulk_load_multi_level() {
        let n = 100_000u64;
        let entries = coded((0..n).map(|i| i as f64 * 0.25));
        let t = BPlusTree::bulk_load(pool(1024), &entries).unwrap();
        assert_eq!(t.len(), n as usize);
        assert!(t.height() >= 3, "height {}", t.height());
        // Spot checks.
        for probe in [0u64, 1, n / 2, n - 1] {
            let key = probe as f64 * 0.25;
            let mut c = t.seek(key).unwrap();
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((key, probe)));
            assert_eq!(c.code(), entries[probe as usize].1);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn leaves_are_packed_full_and_nothing_else_is_allocated() {
        for n in [0usize, 1, LEAF_CAPACITY, LEAF_CAPACITY + 1, 60_000] {
            let entries = coded((0..n).map(|i| i as f64));
            let t = BPlusTree::bulk_load(pool(64), &entries).unwrap();
            let leaves = n.div_ceil(LEAF_CAPACITY).max(1);
            let mut pages = leaves;
            let mut level = leaves;
            while level > 1 {
                level = level.div_ceil(INTERNAL_CAPACITY + 1);
                pages += level;
            }
            assert_eq!(t.num_pages(), pages, "n = {n}");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn bulk_load_duplicates() {
        let mut keys = vec![1.0];
        keys.extend([2.0; 500]);
        keys.push(3.0);
        let t = BPlusTree::bulk_load(pool(64), &coded(keys)).unwrap();
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
            BPlusTree::bulk_load(pool(4), &[(2.0, 0), (1.0, 1)]),
            Err(Error::UnsortedInput { position: 1 })
        ));
        assert!(matches!(
            BPlusTree::bulk_load(pool(4), &[(f64::NAN, 0)]),
            Err(Error::InvalidKey)
        ));
    }

    /// `(tree, leaves)` over `n` distinct keys `0, 1, …`.
    fn loaded(n: u64, frames: usize) -> (BPlusTree, Vec<(f64, u64)>, u64) {
        let entries = coded((0..n).map(|i| i as f64));
        let t = BPlusTree::bulk_load(pool(frames), &entries).unwrap();
        (t, entries, n.div_ceil(LEAF_CAPACITY as u64))
    }

    #[test]
    fn scan_costs_one_fetch_per_leaf() {
        let n = 100_000u64;
        let (t, _, leaves) = loaded(n, 1024);
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
        let (t, entries, _) = loaded(n, 1);
        let mut c = t.seek(f64::MIN).unwrap();
        let mut mid = t.seek(n as f64 / 2.0).unwrap();
        for i in 0..n {
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((i as f64, i)));
            assert_eq!(c.code(), entries[i as usize].1);
        }
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        // A cursor parked across all that traffic still reads its leaf.
        assert_eq!(t.cursor_next(&mut mid).unwrap(), Some((2500.0, 2500)));
        for i in (0..n).rev() {
            assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((i as f64, i)));
            assert_eq!(c.code(), entries[i as usize].1);
        }
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
    }
}
