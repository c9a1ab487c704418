//! On-page node layouts.
//!
//! Both node kinds share a 3-byte header:
//!
//! ```text
//! offset 0: node type  (u8: 0 = leaf, 1 = internal)
//! offset 1: key count  (u16)
//! ```
//!
//! **Leaf** (entries are `(key: f64, code: u64)` pairs, 16 bytes each; the
//! code is an opaque word that travels with its key — iDistance keeps a
//! quantised image of the row there, so a scan can judge an entry before it
//! reads the row):
//!
//! ```text
//! offset  3: first (u64) — the position of entry[0]
//! offset 11: entry[0], entry[1], …
//! ```
//!
//! An entry's *position* is its rank in key order over the whole tree, and
//! it is not stored: entry `i` of a leaf is at position `first + i`. The
//! tree is bulk-loaded once and never written again, with its leaves on
//! consecutive pages, every one full but the last — so a leaf's neighbours
//! are the pages either side of it, and the leaf holding the last position
//! ends the chain.
//!
//! **Internal** (`n` keys separate `n + 1` children):
//!
//! ```text
//! offset  3: child[0] (u64)
//! offset 11: (key[0]: f64, child[1]: u64), (key[1], child[2]), …
//! ```
//!
//! Routing rule: `child[i]` covers keys `< key[i]`; equal keys go left
//! (lower-bound routing), so a seek lands on the *first* duplicate.

use crate::error::{Error, Result};
use mmdr_storage::{Page, PageId, PAGE_SIZE};

const TYPE_OFFSET: usize = 0;
const COUNT_OFFSET: usize = 1;
const LEAF_FIRST_OFFSET: usize = 3;
const LEAF_ENTRIES_OFFSET: usize = 11;
const LEAF_ENTRY_SIZE: usize = 16;
const INTERNAL_CHILD0_OFFSET: usize = 3;
const INTERNAL_PAIRS_OFFSET: usize = 11;
const INTERNAL_PAIR_SIZE: usize = 16;

/// Maximum entries in a leaf page.
pub const LEAF_CAPACITY: usize = (PAGE_SIZE - LEAF_ENTRIES_OFFSET) / LEAF_ENTRY_SIZE;
/// Maximum keys in an internal page (children = keys + 1).
pub const INTERNAL_CAPACITY: usize = (PAGE_SIZE - INTERNAL_PAIRS_OFFSET) / INTERNAL_PAIR_SIZE;

const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;

/// True when the page holds a leaf node.
#[inline]
pub fn is_leaf(page: &Page) -> bool {
    page.get_u8(TYPE_OFFSET).expect("header in page") == NODE_LEAF
}

/// Number of keys in the node.
#[inline]
pub fn count(page: &Page) -> usize {
    page.get_u16(COUNT_OFFSET).expect("header in page") as usize
}

fn set_count(page: &mut Page, n: usize) {
    debug_assert!(n <= u16::MAX as usize);
    page.put_u16(COUNT_OFFSET, n as u16)
        .expect("header in page");
}

/// Leaf-node accessors. All methods are static over a [`Page`]; offsets are
/// bounded by [`LEAF_CAPACITY`], so internal `expect`s encode layout
/// invariants rather than recoverable errors.
pub struct Leaf;

impl Leaf {
    /// Formats a page as an empty leaf whose first entry will sit at
    /// position `first`.
    pub fn init(page: &mut Page, first: u64) {
        page.put_u8(TYPE_OFFSET, NODE_LEAF).expect("header");
        set_count(page, 0);
        page.put_u64(LEAF_FIRST_OFFSET, first).expect("header");
    }

    /// Entry count.
    #[inline]
    pub fn count(page: &Page) -> usize {
        count(page)
    }

    /// The position of entry 0.
    #[inline]
    pub fn first(page: &Page) -> u64 {
        page.get_u64(LEAF_FIRST_OFFSET).expect("header")
    }

    /// Key of entry `i`.
    #[inline]
    pub fn key(page: &Page, i: usize) -> f64 {
        debug_assert!(i < count(page));
        page.get_f64(LEAF_ENTRIES_OFFSET + i * LEAF_ENTRY_SIZE)
            .expect("entry in page")
    }

    /// The code word of entry `i`.
    #[inline]
    pub fn code(page: &Page, i: usize) -> u64 {
        page.get_u64(LEAF_ENTRIES_OFFSET + i * LEAF_ENTRY_SIZE + 8)
            .expect("entry in page")
    }

    /// First slot whose key is `>= key` (lower bound); `count` when none.
    #[inline]
    pub fn lower_bound(page: &Page, key: f64) -> usize {
        let n = count(page);
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if Self::key(page, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends `(key, code)` (the bulk load keeps the order).
    pub fn push(page: &mut Page, key: f64, code: u64) -> Result<()> {
        let n = count(page);
        if n >= LEAF_CAPACITY {
            return Err(Error::Corrupt("push onto a full leaf"));
        }
        let at = LEAF_ENTRIES_OFFSET + n * LEAF_ENTRY_SIZE;
        page.put_f64(at, key)?;
        page.put_u64(at + 8, code)?;
        set_count(page, n + 1);
        Ok(())
    }
}

/// Internal-node accessors (see the module docs for the layout).
pub struct Internal;

impl Internal {
    /// Formats a page as an internal node with a single child.
    pub fn init(page: &mut Page, first_child: PageId) {
        page.put_u8(TYPE_OFFSET, NODE_INTERNAL).expect("header");
        set_count(page, 0);
        page.put_u64(INTERNAL_CHILD0_OFFSET, first_child)
            .expect("header");
    }

    /// Separator key `i`.
    pub fn key(page: &Page, i: usize) -> f64 {
        debug_assert!(i < count(page));
        page.get_f64(INTERNAL_PAIRS_OFFSET + i * INTERNAL_PAIR_SIZE)
            .expect("pair in page")
    }

    /// Child pointer `i` (`0 ..= count`).
    pub fn child(page: &Page, i: usize) -> PageId {
        debug_assert!(i <= count(page));
        if i == 0 {
            page.get_u64(INTERNAL_CHILD0_OFFSET).expect("header")
        } else {
            page.get_u64(INTERNAL_PAIRS_OFFSET + (i - 1) * INTERNAL_PAIR_SIZE + 8)
                .expect("pair in page")
        }
    }

    /// Index of the child to descend into for `key` (lower-bound routing:
    /// equal keys go left so seeks find the first duplicate).
    pub fn child_index(page: &Page, key: f64) -> usize {
        let n = count(page);
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if Self::key(page, mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends `(key, right_child)` (the bulk load keeps the order).
    pub fn push(page: &mut Page, key: f64, right_child: PageId) -> Result<()> {
        let n = count(page);
        if n >= INTERNAL_CAPACITY {
            return Err(Error::Corrupt("push onto a full internal node"));
        }
        let at = INTERNAL_PAIRS_OFFSET + n * INTERNAL_PAIR_SIZE;
        page.put_f64(at, key)?;
        page.put_u64(at + 8, right_child)?;
        set_count(page, n + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn capacities_are_sane() {
        assert_eq!(LEAF_CAPACITY, 255);
        assert_eq!(INTERNAL_CAPACITY, 255);
        // Layout fits the page.
        assert!(LEAF_ENTRIES_OFFSET + LEAF_CAPACITY * LEAF_ENTRY_SIZE <= PAGE_SIZE);
        assert!(INTERNAL_PAIRS_OFFSET + INTERNAL_CAPACITY * INTERNAL_PAIR_SIZE <= PAGE_SIZE);
    }

    #[test]
    fn leaf_init_push_lookup() {
        let mut p = Page::new();
        Leaf::init(&mut p, 510);
        assert!(is_leaf(&p));
        assert_eq!(Leaf::count(&p), 0);
        assert_eq!(Leaf::first(&p), 510);
        for (k, code) in [(1.0, 100), (2.0, 200), (3.0, u64::MAX)] {
            Leaf::push(&mut p, k, code).unwrap();
        }
        assert_eq!(Leaf::count(&p), 3);
        assert_eq!(
            (0..3).map(|i| Leaf::key(&p, i)).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(
            (0..3).map(|i| Leaf::code(&p, i)).collect::<Vec<_>>(),
            vec![100, 200, u64::MAX],
            "a code sits beside its key"
        );
    }

    #[test]
    fn leaf_lower_bound_with_duplicates() {
        let mut p = Page::new();
        Leaf::init(&mut p, 0);
        for k in [1.0, 2.0, 2.0, 2.0, 5.0] {
            Leaf::push(&mut p, k, 0).unwrap();
        }
        assert_eq!(Leaf::lower_bound(&p, 0.5), 0);
        assert_eq!(Leaf::lower_bound(&p, 2.0), 1);
        assert_eq!(Leaf::lower_bound(&p, 3.0), 4);
        assert_eq!(Leaf::lower_bound(&p, 9.0), 5);
    }

    #[test]
    fn pushing_onto_a_full_node_is_a_corrupt_error() {
        let mut p = Page::new();
        Leaf::init(&mut p, 0);
        for i in 0..LEAF_CAPACITY {
            Leaf::push(&mut p, i as f64, 0).unwrap();
        }
        assert!(matches!(Leaf::push(&mut p, 0.0, 0), Err(Error::Corrupt(_))));
        let mut p = Page::new();
        Internal::init(&mut p, 0);
        for i in 0..INTERNAL_CAPACITY {
            Internal::push(&mut p, i as f64, i as u64 + 1).unwrap();
        }
        assert!(matches!(
            Internal::push(&mut p, 0.0, 0),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn internal_routing() {
        let mut p = Page::new();
        Internal::init(&mut p, 100);
        Internal::push(&mut p, 10.0, 101).unwrap();
        Internal::push(&mut p, 20.0, 102).unwrap();
        assert!(!is_leaf(&p));
        assert_eq!(count(&p), 2);
        assert_eq!(Internal::child(&p, 0), 100);
        assert_eq!(Internal::child(&p, 2), 102);
        // Lower-bound routing: equal keys go left.
        assert_eq!(Internal::child_index(&p, 5.0), 0);
        assert_eq!(Internal::child_index(&p, 10.0), 0);
        assert_eq!(Internal::child_index(&p, 10.5), 1);
        assert_eq!(Internal::child_index(&p, 20.0), 1);
        assert_eq!(Internal::child_index(&p, 25.0), 2);
    }
}
