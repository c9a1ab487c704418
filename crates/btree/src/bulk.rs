//! Bulk loading — the one way a tree is built.
//!
//! Indexing a dimensionality-reduction result means indexing every point's
//! 1-d key at once, and the index is never written again: every leaf but
//! the last is packed full, on consecutive pages, each written once, and
//! each leaf's least key becomes its fence.

use crate::error::{Error, Result};
use crate::node::{Leaf, LEAF_CAPACITY};
use crate::tree::BPlusTree;
use mmdr_storage::{BufferPool, DiskManager, Page};
use std::sync::Arc;

impl BPlusTree {
    /// Builds a tree from `(key, code)` entries, read through a pool of
    /// `pool_pages` frames: the leaves are written into pages the load
    /// owns, then handed to the pool's disk, so the tree starts with no
    /// page in a frame, as a reopened one does. Entry `n`
    /// of `entries` is the tree's position `n`, and leaf `j` holds entries
    /// `j·LEAF_CAPACITY` on, up to [`LEAF_CAPACITY`] of them, their codes
    /// in the order given. Within a leaf the entries may come in any order
    /// (a leaf keeps only its least and greatest key); across leaves every
    /// key must be at or above each key of the leaves before it — input
    /// sorted by key always is. Returns [`Error::UnsortedInput`] at the
    /// first entry below a key of an earlier leaf and [`Error::InvalidKey`]
    /// on non-finite keys. An empty input is one empty leaf.
    pub fn bulk_load(pool_pages: usize, entries: &[(f64, u64)]) -> Result<Self> {
        if entries.iter().any(|&(k, _)| !k.is_finite()) {
            return Err(Error::InvalidKey);
        }
        let leaves = entries.len().div_ceil(LEAF_CAPACITY).max(1);
        let mut fences = Vec::with_capacity(leaves);
        let mut pages = Vec::with_capacity(leaves);
        // The greatest key of the leaves written so far.
        let mut below = f64::NEG_INFINITY;
        for at in (0..leaves).map(|j| j * LEAF_CAPACITY) {
            let chunk = &entries[at..(at + LEAF_CAPACITY).min(entries.len())];
            if let Some(i) = chunk.iter().position(|&(k, _)| k < below) {
                return Err(Error::UnsortedInput { position: at + i });
            }
            let mut page = Page::new();
            let (first, last) = Leaf::write(&mut page, at as u64, chunk)?;
            pages.push(Arc::new(page));
            fences.push(first);
            below = last;
        }
        let pool = BufferPool::new(DiskManager::from_pages(pages), pool_pages)?;
        Self::from_parts(pool, fences, entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys with a code derived from each entry's position.
    fn coded(keys: impl IntoIterator<Item = f64>) -> Vec<(f64, u64)> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// Every entry as a forward walk shows it: `(lo, hi, position, code)`.
    fn walked(t: &BPlusTree) -> Vec<(f64, f64, u64, u64)> {
        let mut c = t.seek(f64::MIN).unwrap();
        let mut out = Vec::new();
        while let Some((lo, position)) = t.cursor_next(&mut c).unwrap() {
            out.push((lo, c.key_hi(), position, c.code()));
        }
        out
    }

    /// Each entry's leaf range, as a bulk load over `entries` must give it:
    /// the least and greatest key of its `LEAF_CAPACITY`-chunk.
    fn ranges(entries: &[(f64, u64)]) -> Vec<(f64, f64)> {
        entries
            .chunks(LEAF_CAPACITY)
            .flat_map(|chunk| {
                let keys = chunk.iter().map(|e| e.0);
                let lo = keys.clone().fold(f64::INFINITY, f64::min);
                let hi = keys.fold(f64::NEG_INFINITY, f64::max);
                std::iter::repeat_n((lo, hi), chunk.len())
            })
            .collect()
    }

    /// The walk a bulk load over `entries` must give: position `n` is entry
    /// `n` with its code, bounded by its chunk's range.
    fn want(entries: &[(f64, u64)]) -> Vec<(f64, f64, u64, u64)> {
        (0..)
            .zip(entries.iter().zip(ranges(entries)))
            .map(|(n, (&(_, code), (lo, hi)))| (lo, hi, n, code))
            .collect()
    }

    #[test]
    fn bulk_load_small() {
        let entries = coded((0..10).map(f64::from));
        let t = BPlusTree::bulk_load(16, &entries).unwrap();
        assert_eq!(t.len(), 10);
        t.check_invariants().unwrap();
        assert_eq!(walked(&t), want(&entries));
        assert_eq!(t.fences(), [0.0]);
    }

    #[test]
    fn bulk_load_many_leaves() {
        let n = 100_000u64;
        let entries = coded((0..n).map(|i| i as f64 * 0.25));
        let t = BPlusTree::bulk_load(1024, &entries).unwrap();
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.fences().len(), (n as usize).div_ceil(LEAF_CAPACITY));
        // Spot checks: a seek stands before the leaf holding the key.
        for probe in [0u64, 1, n / 2, n - 1] {
            let key = probe as f64 * 0.25;
            let first = probe - probe % LEAF_CAPACITY as u64;
            let mut c = t.seek(key).unwrap();
            let lo = first as f64 * 0.25;
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((lo, first)));
            assert!(lo <= key && key <= c.key_hi());
            assert_eq!(c.code(), entries[first as usize].1);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_leaf_takes_its_entries_in_any_order() {
        // Descending inside each leaf, ascending across leaves.
        let mut entries = coded((0..1500).map(f64::from));
        for chunk in entries.chunks_mut(LEAF_CAPACITY) {
            chunk.reverse();
        }
        let t = BPlusTree::bulk_load(16, &entries).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(walked(&t), want(&entries));
        let leaf = LEAF_CAPACITY as f64;
        assert_eq!(t.fences(), [0.0, leaf, 2.0 * leaf]);
    }

    #[test]
    fn leaves_are_packed_full_and_nothing_else_is_allocated() {
        for n in [0usize, 1, LEAF_CAPACITY, LEAF_CAPACITY + 1, 60_000] {
            let entries = coded((0..n).map(|i| i as f64));
            let t = BPlusTree::bulk_load(64, &entries).unwrap();
            assert_eq!(t.num_pages(), n.div_ceil(LEAF_CAPACITY).max(1), "n = {n}");
            assert_eq!(t.fences().len(), t.num_pages(), "n = {n}");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn bulk_load_duplicates() {
        let mut keys = vec![1.0];
        keys.extend([2.0; 1100]);
        keys.push(3.0);
        let entries = coded(keys);
        let t = BPlusTree::bulk_load(64, &entries).unwrap();
        assert_eq!(walked(&t), want(&entries));
        assert_eq!(t.fences(), [1.0, 2.0, 2.0]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_empty() {
        let t = BPlusTree::bulk_load(4, &[]).unwrap();
        assert!(t.is_empty());
        assert!(walked(&t).is_empty());
    }

    #[test]
    fn bulk_load_validates_input() {
        // Out of order inside a leaf is a leaf's business; below a key of an
        // earlier leaf is not.
        assert!(BPlusTree::bulk_load(4, &[(2.0, 0), (1.0, 1)]).is_ok());
        let mut entries = coded((0..1000).map(f64::from));
        entries[LEAF_CAPACITY + 5].0 = (LEAF_CAPACITY - 1) as f64;
        assert!(BPlusTree::bulk_load(4, &entries).is_ok(), "a tie");
        entries[LEAF_CAPACITY + 5].0 = 100.0;
        assert!(matches!(
            BPlusTree::bulk_load(4, &entries),
            Err(Error::UnsortedInput { position }) if position == LEAF_CAPACITY + 5
        ));
        assert!(matches!(
            BPlusTree::bulk_load(4, &[(f64::NAN, 0)]),
            Err(Error::InvalidKey)
        ));
    }

    /// `(tree, leaves)` over `n` distinct keys `0, 1, …`.
    fn loaded(n: u64, frames: usize) -> (BPlusTree, Vec<(f64, u64)>, u64) {
        let entries = coded((0..n).map(|i| i as f64));
        let t = BPlusTree::bulk_load(frames, &entries).unwrap();
        (t, entries, n.div_ceil(LEAF_CAPACITY as u64))
    }

    #[test]
    fn scan_costs_one_fetch_per_leaf() {
        let n = 100_000u64;
        let (t, _, leaves) = loaded(n, 1024);
        assert!(leaves > 190, "{leaves} leaves");
        let fetches = |f: &dyn Fn()| {
            let before = t.pool().snapshot();
            f();
            t.pool().snapshot().since(&before).pages_touched()
        };

        // A seek is one leaf fetch wherever it lands: the fences route it.
        let leaf = LEAF_CAPACITY as f64;
        for key in [
            f64::MIN,
            0.0,
            n as f64 / 2.0,
            leaf - 0.5,
            leaf,
            leaf + 0.5,
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
        let lo = |i: u64| (i - i % LEAF_CAPACITY as u64) as f64;
        let mut c = t.seek(f64::MIN).unwrap();
        let mut mid = t.seek(n as f64 / 2.0).unwrap();
        for i in 0..n {
            assert_eq!(t.cursor_next(&mut c).unwrap(), Some((lo(i), i)));
            assert_eq!(c.code(), entries[i as usize].1);
        }
        assert_eq!(t.cursor_next(&mut c).unwrap(), None);
        // A cursor parked across all that traffic still reads its leaf.
        let parked = lo(n / 2) as u64;
        assert_eq!(t.cursor_next(&mut mid).unwrap(), Some((lo(parked), parked)));
        for i in (0..n).rev() {
            assert_eq!(t.cursor_prev(&mut c).unwrap(), Some((lo(i), i)));
            assert_eq!(c.code(), entries[i as usize].1);
        }
        assert_eq!(t.cursor_prev(&mut c).unwrap(), None);
    }
}
