//! On-page node layouts for the hybrid tree.
//!
//! **Leaf** (full `d`-dim points; `d` is a tree-level constant):
//!
//! ```text
//! offset 0: node type (u8: 0 = leaf, 1 = internal)
//! offset 1: count     (u16)
//! offset 3: entry[0] = (rid: u64, coords: d × f64), entry[1], …
//! ```
//!
//! **Internal** (one split dimension, `n` children separated by `n − 1`
//! boundaries):
//!
//! ```text
//! offset 0: node type (u8)
//! offset 1: n_children (u16)
//! offset 3: split_dim (u16)
//! offset 5: boundary[0..n-1] (f64 each)
//! then    : child[0..n] (u64 each)
//! ```
//!
//! Child `i` covers `boundary[i-1] <= x[split_dim] < boundary[i]` (with
//! implicit ±∞ at the ends).

use crate::error::{Error, Result};
use mmdr_storage::{Page, PageId, PAGE_SIZE};

const TYPE_OFFSET: usize = 0;
const COUNT_OFFSET: usize = 1;
const LEAF_ENTRIES_OFFSET: usize = 3;
const INTERNAL_DIM_OFFSET: usize = 3;
const INTERNAL_BOUNDS_OFFSET: usize = 5;

const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;

/// Checks a fetched node's header against what a bulk load writes, once,
/// so that the accessors below read only inside the page: a type byte
/// that is neither leaf nor internal, a leaf holding more entries than fit
/// at `dim`, an internal node with fewer than two children or more than
/// fit, a split dimension past `dim`, or a child not below page `id` is
/// refused. (A load writes children before their parent, so a walk that
/// only descends to lower pages never comes back to one.)
pub fn check(page: &Page, id: PageId, dim: usize) -> Result<()> {
    let n = count(page);
    let written = match page.get_u8(TYPE_OFFSET)? {
        NODE_LEAF => n <= leaf_capacity(dim),
        NODE_INTERNAL => {
            (2..=internal_capacity()).contains(&n)
                && Internal::split_dim(page) < dim
                && (0..n).all(|i| Internal::child(page, i) < id)
        }
        _ => false,
    };
    if written {
        Ok(())
    } else {
        Err(Error::Corrupt("a node header no bulk load writes"))
    }
}

/// True when the page holds a leaf.
pub fn is_leaf(page: &Page) -> bool {
    page.get_u8(TYPE_OFFSET).expect("header") == NODE_LEAF
}

/// Entry/child count.
pub fn count(page: &Page) -> usize {
    page.get_u16(COUNT_OFFSET).expect("header") as usize
}

/// Leaf capacity for points of dimensionality `d`.
pub fn leaf_capacity(dim: usize) -> usize {
    (PAGE_SIZE - LEAF_ENTRIES_OFFSET) / (8 + 8 * dim)
}

/// Max children for an internal node with the given fanout bound; the page
/// layout itself allows far more than any sensible fanout.
pub fn internal_capacity() -> usize {
    // n children need (n-1)*8 boundary bytes + n*8 child bytes + 5 header.
    (PAGE_SIZE - INTERNAL_BOUNDS_OFFSET + 8) / 16
}

/// Leaf accessors.
pub struct Leaf;

impl Leaf {
    /// Formats an empty leaf.
    pub fn init(page: &mut Page) {
        page.put_u8(TYPE_OFFSET, NODE_LEAF).expect("header");
        page.put_u16(COUNT_OFFSET, 0).expect("header");
    }

    fn entry_offset(dim: usize, i: usize) -> usize {
        LEAF_ENTRIES_OFFSET + i * (8 + 8 * dim)
    }

    /// Record id of entry `i`.
    pub fn rid(page: &Page, dim: usize, i: usize) -> u64 {
        page.get_u64(Self::entry_offset(dim, i))
            .expect("entry in page")
    }

    /// Reads the coordinates of entry `i` into `out` (`out.len() == dim`).
    pub fn coords_into(page: &Page, dim: usize, i: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), dim);
        let base = Self::entry_offset(dim, i) + 8;
        for (j, o) in out.iter_mut().enumerate() {
            *o = page.get_f64(base + 8 * j).expect("entry in page");
        }
    }

    /// Appends an entry; the caller respects [`leaf_capacity`].
    pub fn push(page: &mut Page, dim: usize, rid: u64, coords: &[f64]) -> Result<()> {
        debug_assert_eq!(coords.len(), dim);
        let n = count(page);
        if n >= leaf_capacity(dim) {
            return Err(Error::Corrupt("push into full hybrid leaf"));
        }
        let base = Self::entry_offset(dim, n);
        page.put_u64(base, rid)?;
        for (j, &c) in coords.iter().enumerate() {
            page.put_f64(base + 8 + 8 * j, c)?;
        }
        page.put_u16(COUNT_OFFSET, (n + 1) as u16)?;
        Ok(())
    }
}

/// Internal-node accessors.
pub struct Internal;

impl Internal {
    /// Formats an internal node with the given split dimension, boundaries
    /// and children (`children.len() == boundaries.len() + 1`).
    pub fn init(
        page: &mut Page,
        split_dim: usize,
        boundaries: &[f64],
        children: &[PageId],
    ) -> Result<()> {
        if children.len() != boundaries.len() + 1 || children.len() < 2 {
            return Err(Error::Corrupt("internal node arity mismatch"));
        }
        if children.len() > internal_capacity() {
            return Err(Error::Corrupt("internal node overflows page"));
        }
        page.put_u8(TYPE_OFFSET, NODE_INTERNAL)?;
        page.put_u16(COUNT_OFFSET, children.len() as u16)?;
        page.put_u16(INTERNAL_DIM_OFFSET, split_dim as u16)?;
        for (i, &b) in boundaries.iter().enumerate() {
            page.put_f64(INTERNAL_BOUNDS_OFFSET + 8 * i, b)?;
        }
        let child_base = INTERNAL_BOUNDS_OFFSET + 8 * boundaries.len();
        for (i, &c) in children.iter().enumerate() {
            page.put_u64(child_base + 8 * i, c)?;
        }
        Ok(())
    }

    /// The split dimension.
    pub fn split_dim(page: &Page) -> usize {
        page.get_u16(INTERNAL_DIM_OFFSET).expect("header") as usize
    }

    /// Boundary `i` (`0 .. count - 1`).
    pub fn boundary(page: &Page, i: usize) -> f64 {
        debug_assert!(i + 1 < count(page));
        page.get_f64(INTERNAL_BOUNDS_OFFSET + 8 * i)
            .expect("bound in page")
    }

    /// Child `i` (`0 .. count`).
    pub fn child(page: &Page, i: usize) -> PageId {
        let n = count(page);
        debug_assert!(i < n);
        let child_base = INTERNAL_BOUNDS_OFFSET + 8 * (n - 1);
        page.get_u64(child_base + 8 * i).expect("child in page")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_capacity_shrinks_with_dim() {
        assert!(leaf_capacity(2) > leaf_capacity(30));
        assert!(leaf_capacity(30) >= 16);
        assert_eq!(leaf_capacity(510), 1);
        assert_eq!(leaf_capacity(512), 0); // too wide for a page
    }

    #[test]
    fn leaf_roundtrip() {
        let mut p = Page::new();
        Leaf::init(&mut p);
        assert!(is_leaf(&p));
        Leaf::push(&mut p, 3, 7, &[1.0, 2.0, 3.0]).unwrap();
        Leaf::push(&mut p, 3, 8, &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(count(&p), 2);
        assert_eq!(Leaf::rid(&p, 3, 1), 8);
        let mut buf = [0.0; 3];
        Leaf::coords_into(&p, 3, 0, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn leaf_capacity_enforced() {
        let dim = 100;
        let cap = leaf_capacity(dim);
        let mut p = Page::new();
        Leaf::init(&mut p);
        let coords = vec![0.0; dim];
        for i in 0..cap {
            Leaf::push(&mut p, dim, i as u64, &coords).unwrap();
        }
        assert!(Leaf::push(&mut p, dim, 99, &coords).is_err());
    }

    #[test]
    fn internal_roundtrip() {
        let mut p = Page::new();
        Internal::init(&mut p, 5, &[1.0, 2.0], &[10, 11, 12]).unwrap();
        assert!(!is_leaf(&p));
        assert_eq!(count(&p), 3);
        assert_eq!(Internal::split_dim(&p), 5);
        assert_eq!(Internal::boundary(&p, 0), 1.0);
        assert_eq!(Internal::boundary(&p, 1), 2.0);
        assert_eq!(Internal::child(&p, 0), 10);
        assert_eq!(Internal::child(&p, 2), 12);
    }

    #[test]
    fn a_header_no_load_writes_is_refused() {
        let dim = 4;
        let mut leaf = Page::new();
        Leaf::init(&mut leaf);
        let mut internal = Page::new();
        Internal::init(&mut internal, 3, &[1.0], &[0, 1]).unwrap();
        assert!(check(&leaf, 0, dim).is_ok());
        assert!(check(&internal, 2, dim).is_ok());
        type Damage = fn(&mut Page);
        let damaged: [(&Page, PageId, Damage); 6] = [
            (&leaf, 0, |p| {
                p.put_u16(COUNT_OFFSET, 1 + leaf_capacity(4) as u16)
                    .unwrap()
            }),
            (&leaf, 0, |p| p.put_u8(TYPE_OFFSET, 2).unwrap()),
            (&internal, 2, |p| p.put_u16(COUNT_OFFSET, 0).unwrap()),
            (&internal, 2, |p| p.put_u16(COUNT_OFFSET, u16::MAX).unwrap()),
            (&internal, 2, |p| p.put_u16(INTERNAL_DIM_OFFSET, 4).unwrap()),
            // A child that is not below its parent: the parent itself.
            (&internal, 1, |_| ()),
        ];
        for (i, (page, id, damage)) in damaged.into_iter().enumerate() {
            let mut page = page.clone();
            damage(&mut page);
            assert!(
                matches!(check(&page, id, dim), Err(Error::Corrupt(_))),
                "case {i}"
            );
        }
    }

    #[test]
    fn internal_arity_checked() {
        let mut p = Page::new();
        assert!(Internal::init(&mut p, 0, &[1.0], &[1]).is_err());
        assert!(Internal::init(&mut p, 0, &[], &[1]).is_err());
        let too_many: Vec<PageId> = (0..400).collect();
        let bounds = vec![0.0; 399];
        assert!(Internal::init(&mut p, 0, &bounds, &too_many).is_err());
    }
}
