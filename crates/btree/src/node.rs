//! On-page node layouts.
//!
//! Both node kinds share a 3-byte header:
//!
//! ```text
//! offset 0: node type  (u8: 0 = leaf, 1 = internal)
//! offset 1: key count  (u16)
//! ```
//!
//! **Leaf** (entries are `(key: f64, rid: u64, code: u64)` triples, 24 bytes
//! each; the code is an opaque word that travels with its key — iDistance
//! keeps a quantised image of the row there, so a scan can judge an entry
//! before it follows the rid):
//!
//! ```text
//! offset  3: prev leaf (u64, NIL_PAGE when none)
//! offset 11: next leaf (u64)
//! offset 19: entry[0], entry[1], …
//! ```
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

/// Sentinel for "no sibling".
pub const NIL_PAGE: PageId = u64::MAX;

const TYPE_OFFSET: usize = 0;
const COUNT_OFFSET: usize = 1;
const LEAF_PREV_OFFSET: usize = 3;
const LEAF_NEXT_OFFSET: usize = 11;
const LEAF_ENTRIES_OFFSET: usize = 19;
const LEAF_ENTRY_SIZE: usize = 24;
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
    /// Formats a page as an empty leaf.
    pub fn init(page: &mut Page) {
        page.put_u8(TYPE_OFFSET, NODE_LEAF).expect("header");
        set_count(page, 0);
        page.put_u64(LEAF_PREV_OFFSET, NIL_PAGE).expect("header");
        page.put_u64(LEAF_NEXT_OFFSET, NIL_PAGE).expect("header");
    }

    /// Entry count.
    #[inline]
    pub fn count(page: &Page) -> usize {
        count(page)
    }

    /// Key of entry `i`.
    #[inline]
    pub fn key(page: &Page, i: usize) -> f64 {
        debug_assert!(i < count(page));
        page.get_f64(LEAF_ENTRIES_OFFSET + i * LEAF_ENTRY_SIZE)
            .expect("entry in page")
    }

    /// Entry `i` as `(key, rid)`: their 16 bytes taken from the page as one
    /// slice, under one bounds check.
    #[inline]
    pub fn entry(page: &Page, i: usize) -> (f64, u64) {
        debug_assert!(i < count(page));
        let bytes = page
            .bytes(LEAF_ENTRIES_OFFSET + i * LEAF_ENTRY_SIZE, 16)
            .expect("entry in page");
        let (key, rid) = bytes.split_first_chunk().expect("16 bytes");
        let rid = rid.first_chunk().expect("16 bytes");
        (f64::from_le_bytes(*key), u64::from_le_bytes(*rid))
    }

    /// The code word of entry `i`.
    #[inline]
    pub fn code(page: &Page, i: usize) -> u64 {
        page.get_u64(LEAF_ENTRIES_OFFSET + i * LEAF_ENTRY_SIZE + 16)
            .expect("entry in page")
    }

    /// Previous leaf in the chain.
    pub fn prev(page: &Page) -> PageId {
        page.get_u64(LEAF_PREV_OFFSET).expect("header")
    }

    /// Next leaf in the chain.
    pub fn next(page: &Page) -> PageId {
        page.get_u64(LEAF_NEXT_OFFSET).expect("header")
    }

    /// Sets the previous-leaf link.
    pub fn set_prev(page: &mut Page, id: PageId) {
        page.put_u64(LEAF_PREV_OFFSET, id).expect("header");
    }

    /// Sets the next-leaf link.
    pub fn set_next(page: &mut Page, id: PageId) {
        page.put_u64(LEAF_NEXT_OFFSET, id).expect("header");
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

    /// Inserts `(key, rid, code)` at slot `slot`, shifting later entries
    /// right. The caller guarantees the leaf is not full.
    pub fn insert_at(page: &mut Page, slot: usize, key: f64, rid: u64, code: u64) -> Result<()> {
        let n = count(page);
        if n >= LEAF_CAPACITY {
            return Err(Error::Corrupt("insert into full leaf"));
        }
        debug_assert!(slot <= n);
        let src = LEAF_ENTRIES_OFFSET + slot * LEAF_ENTRY_SIZE;
        page.shift(src, src + LEAF_ENTRY_SIZE, (n - slot) * LEAF_ENTRY_SIZE)?;
        page.put_f64(src, key)?;
        page.put_u64(src + 8, rid)?;
        page.put_u64(src + 16, code)?;
        set_count(page, n + 1);
        Ok(())
    }

    /// Appends `(key, rid, code)` (bulk-load path; caller keeps order +
    /// capacity).
    pub fn push(page: &mut Page, key: f64, rid: u64, code: u64) -> Result<()> {
        let n = count(page);
        Self::insert_at(page, n, key, rid, code)
    }

    /// Moves the upper half of `from` into the empty leaf `to` — whole
    /// entries, so a code stays with its key — returning the first key of
    /// `to` (the separator to push up).
    pub fn split_into(from: &mut Page, to: &mut Page) -> f64 {
        let n = count(from);
        let mid = n / 2;
        let moved = n - mid;
        let src = LEAF_ENTRIES_OFFSET + mid * LEAF_ENTRY_SIZE;
        let bytes = from
            .bytes(src, moved * LEAF_ENTRY_SIZE)
            .expect("range in page")
            .to_vec();
        to.put_bytes(LEAF_ENTRIES_OFFSET, &bytes)
            .expect("range in page");
        set_count(to, moved);
        set_count(from, mid);
        Self::key(to, 0)
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

    /// Key count (children = count + 1).
    pub fn count(page: &Page) -> usize {
        count(page)
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

    /// Inserts `(key, right_child)` after position `slot` (i.e. key becomes
    /// `key[slot]`, child becomes `child[slot + 1]`). Caller guarantees the
    /// node is not full.
    pub fn insert_at(page: &mut Page, slot: usize, key: f64, right_child: PageId) -> Result<()> {
        let n = count(page);
        if n >= INTERNAL_CAPACITY {
            return Err(Error::Corrupt("insert into full internal node"));
        }
        debug_assert!(slot <= n);
        let src = INTERNAL_PAIRS_OFFSET + slot * INTERNAL_PAIR_SIZE;
        page.shift(
            src,
            src + INTERNAL_PAIR_SIZE,
            (n - slot) * INTERNAL_PAIR_SIZE,
        )?;
        page.put_f64(src, key)?;
        page.put_u64(src + 8, right_child)?;
        set_count(page, n + 1);
        Ok(())
    }

    /// Appends `(key, right_child)` (bulk-load path).
    pub fn push(page: &mut Page, key: f64, right_child: PageId) -> Result<()> {
        let n = count(page);
        Self::insert_at(page, n, key, right_child)
    }

    /// Splits a full internal node: the upper half of `from` moves into the
    /// empty internal node `to`, and the middle key is *removed* and
    /// returned (it migrates up, B-tree style).
    pub fn split_into(from: &mut Page, to: &mut Page) -> f64 {
        let n = count(from);
        let mid = n / 2;
        let up_key = Self::key(from, mid);
        Internal::init(to, Self::child(from, mid + 1));
        for i in (mid + 1)..n {
            Internal::push(to, Self::key(from, i), Self::child(from, i + 1))
                .expect("fits by construction");
        }
        set_count(from, mid);
        up_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn capacities_are_sane() {
        assert_eq!(LEAF_CAPACITY, 169);
        assert!(INTERNAL_CAPACITY >= 200);
        // Layout fits the page.
        assert!(LEAF_ENTRIES_OFFSET + LEAF_CAPACITY * LEAF_ENTRY_SIZE <= PAGE_SIZE);
        assert!(INTERNAL_PAIRS_OFFSET + INTERNAL_CAPACITY * INTERNAL_PAIR_SIZE <= PAGE_SIZE);
    }

    #[test]
    fn leaf_init_insert_lookup() {
        let mut p = Page::new();
        Leaf::init(&mut p);
        assert!(is_leaf(&p));
        assert_eq!(Leaf::count(&p), 0);
        assert_eq!(Leaf::prev(&p), NIL_PAGE);
        Leaf::insert_at(&mut p, 0, 2.0, 20, 200).unwrap();
        Leaf::insert_at(&mut p, 0, 1.0, 10, 100).unwrap();
        Leaf::insert_at(&mut p, 2, 3.0, 30, u64::MAX).unwrap();
        assert_eq!(Leaf::count(&p), 3);
        assert_eq!(
            (0..3).map(|i| Leaf::key(&p, i)).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(Leaf::entry(&p, 1), (2.0, 20));
        assert_eq!(
            (0..3).map(|i| Leaf::code(&p, i)).collect::<Vec<_>>(),
            vec![100, 200, u64::MAX],
            "a shifted entry takes its code along"
        );
    }

    #[test]
    fn leaf_lower_bound_with_duplicates() {
        let mut p = Page::new();
        Leaf::init(&mut p);
        for (i, k) in [1.0, 2.0, 2.0, 2.0, 5.0].iter().enumerate() {
            Leaf::push(&mut p, *k, i as u64, 0).unwrap();
        }
        assert_eq!(Leaf::lower_bound(&p, 0.5), 0);
        assert_eq!(Leaf::lower_bound(&p, 2.0), 1);
        assert_eq!(Leaf::lower_bound(&p, 3.0), 4);
        assert_eq!(Leaf::lower_bound(&p, 9.0), 5);
    }

    #[test]
    fn leaf_split_halves_and_returns_separator() {
        let mut a = Page::new();
        let mut b = Page::new();
        Leaf::init(&mut a);
        Leaf::init(&mut b);
        for i in 0..10 {
            Leaf::push(&mut a, i as f64, i, !i).unwrap();
        }
        let sep = Leaf::split_into(&mut a, &mut b);
        assert_eq!(Leaf::count(&a), 5);
        assert_eq!(Leaf::count(&b), 5);
        assert_eq!(sep, 5.0);
        for i in 0..5 {
            assert_eq!(Leaf::entry(&a, i), (i as f64, i as u64));
            assert_eq!(Leaf::code(&a, i), !(i as u64));
            assert_eq!(Leaf::entry(&b, i), ((i + 5) as f64, i as u64 + 5));
            assert_eq!(Leaf::code(&b, i), !(i as u64 + 5));
        }
    }

    #[test]
    fn leaf_full_insert_is_corrupt_error() {
        let mut p = Page::new();
        Leaf::init(&mut p);
        for i in 0..LEAF_CAPACITY {
            Leaf::push(&mut p, i as f64, i as u64, 0).unwrap();
        }
        assert!(matches!(
            Leaf::push(&mut p, 0.0, 0, 0),
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
        assert_eq!(Internal::count(&p), 2);
        assert_eq!(Internal::child(&p, 0), 100);
        assert_eq!(Internal::child(&p, 2), 102);
        // Lower-bound routing: equal keys go left.
        assert_eq!(Internal::child_index(&p, 5.0), 0);
        assert_eq!(Internal::child_index(&p, 10.0), 0);
        assert_eq!(Internal::child_index(&p, 10.5), 1);
        assert_eq!(Internal::child_index(&p, 20.0), 1);
        assert_eq!(Internal::child_index(&p, 25.0), 2);
    }

    #[test]
    fn internal_split_moves_middle_key_up() {
        let mut a = Page::new();
        let mut b = Page::new();
        Internal::init(&mut a, 0);
        for i in 0..5 {
            Internal::push(&mut a, (i + 1) as f64 * 10.0, (i + 1) as u64).unwrap();
        }
        // Keys [10,20,30,40,50]; children [0,1,2,3,4,5]. mid = 2 → 30 up.
        let up = Internal::split_into(&mut a, &mut b);
        assert_eq!(up, 30.0);
        assert_eq!(Internal::count(&a), 2);
        assert_eq!(Internal::count(&b), 2);
        assert_eq!(Internal::child(&b, 0), 3);
        assert_eq!(Internal::key(&b, 0), 40.0);
        assert_eq!(Internal::child(&b, 2), 5);
    }

    #[test]
    fn sibling_links() {
        let mut p = Page::new();
        Leaf::init(&mut p);
        Leaf::set_prev(&mut p, 7);
        Leaf::set_next(&mut p, 9);
        assert_eq!(Leaf::prev(&p), 7);
        assert_eq!(Leaf::next(&p), 9);
    }
}
