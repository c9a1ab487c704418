//! Bulk loading from sorted input — the one way a tree is built.
//!
//! Indexing a dimensionality-reduction result means indexing every point's
//! 1-d key at once, and the index is never written again: every leaf but
//! the last is packed full, on consecutive pages, in `O(n)` page writes,
//! and each leaf's first key becomes its fence.

use crate::error::{Error, Result};
use crate::node::{Leaf, LEAF_CAPACITY};
use crate::tree::BPlusTree;
use mmdr_storage::BufferPool;

impl BPlusTree {
    /// Builds a tree from `(key, code)` entries sorted by key (ascending;
    /// duplicates allowed) on a fresh pool: entry `n` of `entries` is the
    /// tree's position `n`. Returns [`Error::UnsortedInput`] on order
    /// violations and [`Error::InvalidKey`] on non-finite keys. An empty
    /// input is one empty leaf.
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

        let leaves = entries.len().div_ceil(LEAF_CAPACITY).max(1);
        let mut fences = Vec::with_capacity(leaves);
        for at in (0..leaves).map(|j| j * LEAF_CAPACITY) {
            let chunk = &entries[at..(at + LEAF_CAPACITY).min(entries.len())];
            let page_id = pool.allocate()?;
            pool.with_page_mut(page_id, |p| Leaf::write(p, at as u64, chunk))??;
            fences.push(chunk.first().map_or(0.0, |e| e.0));
        }
        Ok(Self {
            pool,
            fences,
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

    /// Every entry as a forward walk shows it: `(lo, position, code)`.
    fn walked(t: &BPlusTree) -> Vec<(f64, u64, u64)> {
        let mut c = t.seek(f64::MIN).unwrap();
        let mut out = Vec::new();
        while let Some((lo, position)) = t.cursor_next(&mut c).unwrap() {
            out.push((lo, position, c.code()));
        }
        out
    }

    #[test]
    fn bulk_load_small() {
        let entries = coded((0..10).map(f64::from));
        let t = BPlusTree::bulk_load(pool(16), &entries).unwrap();
        assert_eq!(t.len(), 10);
        t.check_invariants().unwrap();
        // Small integers read back exactly: the unit divides them.
        let want: Vec<(f64, u64, u64)> =
            (0..).zip(&entries).map(|(i, &(k, c))| (k, i, c)).collect();
        assert_eq!(walked(&t), want);
    }

    #[test]
    fn bulk_load_many_leaves() {
        let n = 100_000u64;
        let entries = coded((0..n).map(|i| i as f64 * 0.25));
        let t = BPlusTree::bulk_load(pool(1024), &entries).unwrap();
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.fences().len(), (n as usize).div_ceil(LEAF_CAPACITY));
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
            assert_eq!(t.num_pages(), n.div_ceil(LEAF_CAPACITY).max(1), "n = {n}");
            assert_eq!(t.fences().len(), t.num_pages(), "n = {n}");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn bulk_load_duplicates() {
        let mut keys = vec![1.0];
        keys.extend([2.0; 500]);
        keys.push(3.0);
        let t = BPlusTree::bulk_load(pool(64), &coded(keys)).unwrap();
        let twos = walked(&t).iter().filter(|e| e.0 == 2.0).count();
        assert_eq!(twos, 500);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_empty() {
        let t = BPlusTree::bulk_load(pool(4), &[]).unwrap();
        assert!(t.is_empty());
        assert!(walked(&t).is_empty());
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
        assert!(leaves > 200, "{leaves} leaves");
        let fetches = |f: &dyn Fn()| {
            let before = t.pool().snapshot();
            f();
            t.pool().snapshot().since(&before).pages_touched()
        };

        // A seek is one leaf fetch wherever it lands: the fences route it.
        for key in [
            f64::MIN,
            0.0,
            n as f64 / 2.0,
            339.0,
            339.5,
            n as f64,
            f64::MAX,
        ] {
            assert_eq!(fetches(&|| drop(t.seek(key).unwrap())), 1, "seek({key})");
        }
        let forward = fetches(&|| {
            let mut c = t.seek(f64::MIN).unwrap();
            let mut seen = 0;
            while t.cursor_next(&mut c).unwrap().is_some() {
                seen += 1;
            }
            assert_eq!(seen, n);
        });
        assert_eq!(forward, leaves);
        let backward = fetches(&|| {
            let mut c = t.seek(f64::MAX).unwrap();
            let mut seen = 0;
            while t.cursor_prev(&mut c).unwrap().is_some() {
                seen += 1;
            }
            assert_eq!(seen, n);
        });
        assert_eq!(backward, leaves);
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
