//! The on-page leaf layout. A tree is its leaves: the fence array in memory
//! routes a seek (see [`crate::BPlusTree`]), so there is no internal node.
//!
//! ```text
//! offset  0: count     (u16)
//! offset  2: exponent  (i16) — the leaf's key unit is 2^exponent
//! offset  4: first     (u64) — the position of entry[0]
//! offset 12: first key (f64) — entry[0]'s key, exact
//! offset 20: last key  (f64) — the last entry's key, exact
//! offset 28: entry[0], entry[1], … — (offset: u32, code: u64), 12 bytes
//! ```
//!
//! A key is stored as a 32-bit offset from the leaf's first key, in units of
//! `2^exponent`, the finest unit at which the leaf's key span fits 32 bits.
//! Offset `u` stands for the cell `[lo, hi)` ([`Cells`]): the reader's
//! `lo ≤ key < hi` holds in its own `f64` arithmetic, because the writer
//! stores the largest `u` whose `lo` does not pass the key, computed by the
//! same function. Rounding can only widen a cell, never lose its key — the
//! same spirit as iDistance's cell codes. The code is an opaque word that
//! travels with its key (iDistance keeps a quantised image of the row
//! there, so a scan can judge an entry before it reads the row).
//!
//! An entry's *position* is its rank in key order over the whole tree, and
//! it is not stored: entry `i` of a leaf is at position `first + i`. The
//! tree is bulk-loaded once and never written again, with its leaves on
//! consecutive pages, every one full but the last — so a leaf's neighbours
//! are the pages either side of it, and the leaf holding the last position
//! ends the chain.

use crate::error::{Error, Result};
use mmdr_storage::{Page, PAGE_SIZE};

const COUNT_OFFSET: usize = 0;
const EXPONENT_OFFSET: usize = 2;
const FIRST_OFFSET: usize = 4;
const FIRST_KEY_OFFSET: usize = 12;
const LAST_KEY_OFFSET: usize = 20;
const ENTRIES_OFFSET: usize = 28;
const ENTRY_SIZE: usize = 12;

/// Maximum entries in a leaf page.
pub const LEAF_CAPACITY: usize = (PAGE_SIZE - ENTRIES_OFFSET) / ENTRY_SIZE;

/// `2^k` as an `f64`: 0 below the least subnormal, ∞ past the largest
/// finite power.
fn pow2(k: i32) -> f64 {
    match k {
        ..=-1075 => 0.0,
        -1074..=-1023 => f64::from_bits(1 << (k + 1074)),
        -1022..=1023 => f64::from_bits(((k + 1023) as u64) << 52),
        _ => f64::INFINITY,
    }
}

/// How a leaf reads its keys: offset `u` stands for the cell
/// `[lo(u), hi(u))`, `lo(u) = first + u·unit` and `hi(u) = lo(u + 1)`
/// evaluated the same way, with `hi` capped at the least `f64` above the
/// leaf's last key. The cap keeps a cell inside its leaf: the last entry's
/// `hi` is no more than the next leaf's first key's successor, so `lo` and
/// `hi` never decrease along the chain, and a key at or past a leaf's
/// fence is past every cell of the leaves before it.
#[derive(Debug, Clone, Copy)]
pub struct Cells {
    first: f64,
    unit: f64,
    cap: f64,
}

impl Cells {
    /// The cells of a leaf whose keys run from `first` to `last`, and the
    /// exponent of their unit: the least `e` at which
    /// `first + 2^32 · 2^e` exceeds `last`, so the largest offset any key
    /// takes fits 32 bits. (`first + t` grows with `t`, so a binary search
    /// finds it; at `e = 992` the addend is ∞.)
    fn fit(first: f64, last: f64) -> (Self, i16) {
        let (mut lo, mut hi) = (-1074i32, 992i32);
        while lo < hi {
            let mid = (lo + hi) >> 1;
            if first + pow2(32 + mid) > last {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (Self::of(first, last, hi as i16), hi as i16)
    }

    fn of(first: f64, last: f64, exponent: i16) -> Self {
        Self {
            first,
            unit: pow2(i32::from(exponent)),
            cap: last.next_up(),
        }
    }

    /// The least key offset `u` stands for.
    #[inline]
    pub fn lo(&self, u: u32) -> f64 {
        self.first + f64::from(u) * self.unit
    }

    /// The least key past the ones offset `u` stands for.
    #[inline]
    pub fn hi(&self, u: u32) -> f64 {
        (self.first + (f64::from(u) + 1.0) * self.unit).min(self.cap)
    }

    /// The offset a key of the leaf is stored as: the largest `u` with
    /// `lo(u) ≤ key`, so `key < lo(u + 1)` — and `key < hi(u)`, as `fit`
    /// chose the unit so that `lo(2^32)` passes the last key.
    fn offset(&self, key: f64) -> u32 {
        // Usually the quotient (`lo` never decreases, so the test proves it);
        // else rounding, or `u`s sharing one `lo` in a leaf narrower than its
        // first key's ulp, leave it to the search.
        let guess = ((key - self.first) / self.unit) as u32;
        if self.lo(guess) <= key && (guess == u32::MAX || key < self.lo(guess + 1)) {
            return guess;
        }
        // `lo(lo) ≤ key` throughout (`lo(0)` is the first key), and no
        // offset from `hi` on has it.
        let (mut lo, mut hi) = (0u64, 1u64 << 32);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.lo(mid as u32) <= key {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }
}

/// Leaf accessors. All methods are static over a [`Page`]; offsets are
/// bounded by [`LEAF_CAPACITY`], so internal `expect`s encode layout
/// invariants rather than recoverable errors.
pub struct Leaf;

impl Leaf {
    /// Formats `page` as the leaf holding `entries` (sorted by key), the
    /// first of them at position `first`.
    pub fn write(page: &mut Page, first: u64, entries: &[(f64, u64)]) -> Result<()> {
        if entries.len() > LEAF_CAPACITY {
            return Err(Error::Corrupt("more entries than a leaf holds"));
        }
        let (first_key, last_key) = match entries {
            [] => (0.0, 0.0),
            [(first, _), ..] => (*first, entries[entries.len() - 1].0),
        };
        let (cells, exponent) = Cells::fit(first_key, last_key);
        page.put_u16(COUNT_OFFSET, entries.len() as u16)?;
        page.put_u16(EXPONENT_OFFSET, exponent as u16)?;
        page.put_u64(FIRST_OFFSET, first)?;
        page.put_f64(FIRST_KEY_OFFSET, first_key)?;
        page.put_f64(LAST_KEY_OFFSET, last_key)?;
        for (i, &(key, code)) in entries.iter().enumerate() {
            let at = ENTRIES_OFFSET + i * ENTRY_SIZE;
            page.put_u32(at, cells.offset(key))?;
            page.put_u64(at + 4, code)?;
        }
        Ok(())
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

    /// Entry 0's key, exact (the leaf's fence).
    pub fn first_key(page: &Page) -> f64 {
        page.get_f64(FIRST_KEY_OFFSET).expect("header in page")
    }

    /// How the leaf's key offsets read.
    #[inline]
    pub fn cells(page: &Page) -> Cells {
        let exponent = page.get_u16(EXPONENT_OFFSET).expect("header in page") as i16;
        let last = page.get_f64(LAST_KEY_OFFSET).expect("header in page");
        Cells::of(Self::first_key(page), last, exponent)
    }

    /// The key offset of entry `i`.
    #[inline]
    pub fn offset(page: &Page, i: usize) -> u32 {
        page.get_u32(ENTRIES_OFFSET + i * ENTRY_SIZE)
            .expect("entry in page")
    }

    /// The code word of entry `i`.
    #[inline]
    pub fn code(page: &Page, i: usize) -> u64 {
        page.get_u64(ENTRIES_OFFSET + i * ENTRY_SIZE + 4)
            .expect("entry in page")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leaf over `keys`, code = slot, and each entry's `(lo, hi)`.
    fn cells_of(keys: &[f64]) -> Vec<(f64, f64)> {
        let entries: Vec<(f64, u64)> = (0..).zip(keys).map(|(i, &k)| (k, i)).collect();
        let mut p = Page::new();
        Leaf::write(&mut p, 0, &entries).unwrap();
        let cells = Leaf::cells(&p);
        (0..Leaf::count(&p))
            .map(|i| {
                assert_eq!(Leaf::code(&p, i), i as u64, "a code sits beside its key");
                (cells.lo(Leaf::offset(&p, i)), cells.hi(Leaf::offset(&p, i)))
            })
            .collect()
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout checks
    fn capacity_is_sane() {
        assert_eq!(LEAF_CAPACITY, 339);
        assert!(ENTRIES_OFFSET + LEAF_CAPACITY * ENTRY_SIZE <= PAGE_SIZE);
    }

    #[test]
    fn powers_of_two_are_exact_across_the_range() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(-1), 0.5);
        assert_eq!(pow2(1023), 2f64.powi(1023));
        assert_eq!(pow2(-1022), f64::MIN_POSITIVE);
        assert_eq!(pow2(-1074), 0f64.next_up());
        assert_eq!(pow2(-1075), 0.0);
        assert_eq!(pow2(1024), f64::INFINITY);
    }

    #[test]
    fn header_and_entries_read_back() {
        let mut p = Page::new();
        Leaf::write(&mut p, 510, &[(1.0, 100), (2.0, 200), (3.0, u64::MAX)]).unwrap();
        assert_eq!(Leaf::count(&p), 3);
        assert_eq!(Leaf::first(&p), 510);
        assert_eq!(Leaf::first_key(&p), 1.0);
        assert_eq!(Leaf::code(&p, 2), u64::MAX);
        let cells = Leaf::cells(&p);
        assert_eq!(cells.lo(Leaf::offset(&p, 0)), 1.0, "the first key is exact");
    }

    #[test]
    fn every_key_lies_in_its_cell_and_cells_ascend() {
        let ramp: Vec<f64> = (0..LEAF_CAPACITY).map(|i| i as f64 * 0.1 - 7.0).collect();
        for keys in [
            ramp,
            vec![3.0; 40],
            vec![0.0, 0.0, -0.0],
            vec![-f64::MAX, -1.0, 0.0, 1e-300, 1.0, f64::MAX],
            vec![1e-300, 2e-300, 1e300],
            vec![f64::MAX.next_down(), f64::MAX],
            vec![1.0, 1.0f64.next_up(), 1.0f64.next_up().next_up()],
        ] {
            let cells = cells_of(&keys);
            for (i, (&key, &(lo, hi))) in keys.iter().zip(&cells).enumerate() {
                assert!(lo <= key && key < hi, "{keys:?}[{i}]: [{lo}, {hi})");
                if i > 0 {
                    assert!(
                        cells[i - 1].0 <= lo && cells[i - 1].1 <= hi,
                        "{keys:?}[{i}]"
                    );
                }
            }
            assert_eq!(cells[0].0, keys[0], "{keys:?}");
            let last = *keys.last().unwrap();
            assert!(cells.last().unwrap().1 <= last.next_up(), "{keys:?}");
        }
    }

    #[test]
    fn an_empty_leaf_and_an_overfull_one() {
        assert!(cells_of(&[]).is_empty());
        let full: Vec<(f64, u64)> = (0..=LEAF_CAPACITY as u64).map(|i| (i as f64, i)).collect();
        let mut p = Page::new();
        assert!(Leaf::write(&mut p, 0, &full[..LEAF_CAPACITY]).is_ok());
        assert!(matches!(
            Leaf::write(&mut p, 0, &full),
            Err(Error::Corrupt(_))
        ));
    }
}
