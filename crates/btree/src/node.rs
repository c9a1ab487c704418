//! The on-page leaf layout. A tree is its leaves: the fence array in memory
//! routes a seek (see [`crate::BPlusTree`]), so there is no internal node.
//!
//! ```text
//! offset  0: count     (u16)
//! offset  2: first     (u64) — the position of code[0]
//! offset 10: first key (f64) — the least key in the leaf, exact
//! offset 18: last key  (f64) — the greatest key in the leaf, exact
//! offset 26: code[0], code[1], … — u64, 8 bytes each
//! ```
//!
//! An entry is its code alone: the leaf keeps no key per entry, and every
//! entry takes the leaf's key range `[first key, last key]` as its key
//! bound — both ends inclusive and exact. The code is an opaque word
//! (iDistance keeps a quantised image of the row there, so a scan can
//! judge an entry before it reads the row). With no key to keep them in
//! order, a leaf's entries may stand in any order the writer chose.
//!
//! An entry's *position* is its rank in leaf order over the whole tree,
//! and it is not stored: entry `i` of a leaf is at position `first + i`.
//! The tree is bulk-loaded once and never written again, with its leaves on
//! consecutive pages, every one full but the last — so a leaf's neighbours
//! are the pages either side of it, and the leaf holding the last position
//! ends the chain.

use crate::error::{Error, Result};
use mmdr_storage::{Page, PAGE_SIZE};

const COUNT_OFFSET: usize = 0;
const FIRST_OFFSET: usize = 2;
const FIRST_KEY_OFFSET: usize = 10;
const LAST_KEY_OFFSET: usize = 18;
const CODES_OFFSET: usize = 26;
const CODE_SIZE: usize = 8;

/// Maximum entries in a leaf page.
pub const LEAF_CAPACITY: usize = (PAGE_SIZE - CODES_OFFSET) / CODE_SIZE;

/// Leaf accessors. All methods are static over a [`Page`]; offsets are
/// bounded by [`LEAF_CAPACITY`], so internal `expect`s encode layout
/// invariants rather than recoverable errors.
pub struct Leaf;

impl Leaf {
    /// Formats `page` as the leaf holding `entries` (`(key, code)`, in any
    /// order), the first of them at position `first`: their codes in the
    /// order given, and the least and greatest of their keys, which it
    /// returns. An empty leaf's keys are both 0.
    pub fn write(page: &mut Page, first: u64, entries: &[(f64, u64)]) -> Result<(f64, f64)> {
        if entries.len() > LEAF_CAPACITY {
            return Err(Error::Corrupt("more entries than a leaf holds"));
        }
        let (first_key, last_key) = key_range(entries).unwrap_or((0.0, 0.0));
        page.put_u16(COUNT_OFFSET, entries.len() as u16)?;
        page.put_u64(FIRST_OFFSET, first)?;
        page.put_f64(FIRST_KEY_OFFSET, first_key)?;
        page.put_f64(LAST_KEY_OFFSET, last_key)?;
        for (i, &(_, code)) in entries.iter().enumerate() {
            page.put_u64(CODES_OFFSET + i * CODE_SIZE, code)?;
        }
        Ok((first_key, last_key))
    }

    /// Entry count.
    #[inline]
    pub fn count(page: &Page) -> usize {
        page.get_u16(COUNT_OFFSET).expect("header in page") as usize
    }

    /// The position of entry 0.
    #[inline]
    pub fn first(page: &Page) -> u64 {
        page.get_u64(FIRST_OFFSET).expect("header in page")
    }

    /// The least key in the leaf, exact (the leaf's fence).
    #[inline]
    pub fn first_key(page: &Page) -> f64 {
        page.get_f64(FIRST_KEY_OFFSET).expect("header in page")
    }

    /// The greatest key in the leaf, exact.
    #[inline]
    pub fn last_key(page: &Page) -> f64 {
        page.get_f64(LAST_KEY_OFFSET).expect("header in page")
    }

    /// The code word of entry `i`.
    #[inline]
    pub fn code(page: &Page, i: usize) -> u64 {
        page.get_u64(CODES_OFFSET + i * CODE_SIZE)
            .expect("entry in page")
    }
}

/// The least and greatest key of `entries`; `None` for none.
fn key_range(entries: &[(f64, u64)]) -> Option<(f64, f64)> {
    let (&(key, _), rest) = entries.split_first()?;
    Some(
        rest.iter()
            .fold((key, key), |(lo, hi), &(key, _)| (lo.min(key), hi.max(key))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn capacity_is_sane() {
        assert_eq!(LEAF_CAPACITY, 508);
        assert!(CODES_OFFSET + LEAF_CAPACITY * CODE_SIZE <= PAGE_SIZE);
        assert!(CODES_OFFSET + (LEAF_CAPACITY + 1) * CODE_SIZE > PAGE_SIZE);
    }

    #[test]
    fn header_and_codes_read_back() {
        let mut p = Page::new();
        let range = Leaf::write(&mut p, 510, &[(2.0, 100), (-1.5, 200), (3.0, u64::MAX)]).unwrap();
        assert_eq!(range, (-1.5, 3.0));
        assert_eq!(Leaf::count(&p), 3);
        assert_eq!(Leaf::first(&p), 510);
        assert_eq!((Leaf::first_key(&p), Leaf::last_key(&p)), (-1.5, 3.0));
        let codes: Vec<u64> = (0..3).map(|i| Leaf::code(&p, i)).collect();
        assert_eq!(codes, [100, 200, u64::MAX], "codes in the order written");
    }

    #[test]
    fn the_key_range_is_exact_whatever_the_order() {
        for keys in [
            vec![3.0; 40],
            vec![0.0, -0.0, 0.0],
            vec![f64::MAX, -1.0, 1e-300, -f64::MAX, 0.0, 1.0],
            vec![1.0f64.next_up(), 1.0, 1.0f64.next_up().next_up()],
        ] {
            let entries: Vec<(f64, u64)> = (0..).zip(&keys).map(|(i, &k)| (k, i)).collect();
            let mut p = Page::new();
            Leaf::write(&mut p, 0, &entries).unwrap();
            let (lo, hi) = (Leaf::first_key(&p), Leaf::last_key(&p));
            assert!(keys.iter().all(|&k| lo <= k && k <= hi), "{keys:?}");
            assert!(keys.contains(&lo) && keys.contains(&hi), "{keys:?}");
        }
    }

    #[test]
    fn an_empty_leaf_and_an_overfull_one() {
        let mut p = Page::new();
        Leaf::write(&mut p, 0, &[]).unwrap();
        assert_eq!(Leaf::count(&p), 0);
        assert_eq!((Leaf::first_key(&p), Leaf::last_key(&p)), (0.0, 0.0));
        let full: Vec<(f64, u64)> = (0..=LEAF_CAPACITY as u64).map(|i| (i as f64, i)).collect();
        assert!(Leaf::write(&mut p, 0, &full[..LEAF_CAPACITY]).is_ok());
        assert_eq!(Leaf::code(&p, LEAF_CAPACITY - 1), LEAF_CAPACITY as u64 - 1);
        assert!(matches!(
            Leaf::write(&mut p, 0, &full),
            Err(Error::Corrupt(_))
        ));
    }
}
