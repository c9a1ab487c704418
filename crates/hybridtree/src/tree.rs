//! Bulk construction of the hybrid tree.

use crate::error::{Error, Result};
use crate::node::{check, count, is_leaf, leaf_capacity, Internal, Leaf};
use mmdr_index::SearchCounters;
use mmdr_linalg::Matrix;
use mmdr_storage::{BufferPool, DiskManager, Page, PageId};
use std::sync::Arc;

/// Most children an internal node gets. The original Hybrid tree packs
/// binary kd splits into pages; a modest multiway fanout per page is the
/// equivalent packed form.
pub const DEFAULT_FANOUT: usize = 16;

/// A bulk-loaded, paged kd-style multidimensional index.
#[derive(Debug)]
pub struct HybridTree {
    pub(crate) pool: BufferPool,
    pub(crate) root: PageId,
    pub(crate) dim: usize,
    pub(crate) search: SearchCounters,
    len: usize,
    height: usize,
}

impl HybridTree {
    /// Builds a tree over `points` (rows) tagged with `rids`, with at most
    /// [`DEFAULT_FANOUT`] children to an internal node, read through a pool
    /// of `pool_pages` frames. Every node is written once, into a page the
    /// load owns, children before their parent; the pages are then handed
    /// to the pool's disk, so the tree starts with no page in a frame, as a
    /// reopened one does.
    pub fn bulk_load(pool_pages: usize, points: &Matrix, rids: &[u64]) -> Result<Self> {
        let dim = points.cols();
        if points.rows() != rids.len() {
            return Err(Error::InputMismatch {
                points: points.rows(),
                rids: rids.len(),
            });
        }
        if dim == 0 || leaf_capacity(dim) == 0 {
            return Err(Error::UnsupportedDimensionality { dim });
        }
        let mut order: Vec<usize> = (0..points.rows()).collect();
        let mut pages = Vec::new();
        let mut height = 1;
        // An empty tree is a single empty leaf.
        let root = build(
            &mut pages,
            points,
            rids,
            &mut order[..],
            dim,
            1,
            &mut height,
        )?;
        let pool = BufferPool::new(DiskManager::from_pages(pages), pool_pages)?;
        Self::from_parts(pool, root, dim, rids.len(), height)
    }

    /// Puts a tree together from its pages — a bulk load's, or a
    /// snapshot's, restored — and its metadata: the values the saved tree
    /// reported
    /// ([`root_page_id`](Self::root_page_id), [`dim`](Self::dim),
    /// [`len`](Self::len), [`height`](Self::height)); the pool must hold
    /// that tree's page images. Reads no page: a node's header is checked
    /// where a walk fetches it.
    pub fn from_parts(
        pool: BufferPool,
        root: PageId,
        dim: usize,
        len: usize,
        height: usize,
    ) -> Result<Self> {
        if dim == 0 || leaf_capacity(dim) == 0 {
            return Err(Error::UnsupportedDimensionality { dim });
        }
        if root as usize >= pool.num_pages() || height == 0 {
            return Err(Error::Corrupt(
                "snapshot metadata does not match the page set",
            ));
        }
        Ok(Self {
            pool,
            root,
            dim,
            search: SearchCounters::default(),
            len,
            height,
        })
    }

    /// The root's page id (persisted alongside the page images so
    /// [`from_parts`](Self::from_parts) can reattach).
    pub fn root_page_id(&self) -> PageId {
        self.root
    }

    /// Number of bulk-loaded rows. A row the owner has deleted still
    /// counts until a merge folds it out; the owner's skip set hides it
    /// from answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks every leaf and returns the stored `(rid, coords)` rows, in
    /// page order. The background merge exports these to rebuild a folded
    /// tree.
    pub fn export_rows(&self) -> Result<Vec<(u64, Vec<f64>)>> {
        let mut out = Vec::with_capacity(self.len);
        let mut coords = vec![0.0; self.dim];
        let mut stack = vec![self.root];
        while let Some(page_id) = stack.pop() {
            let page = self.pool.page(page_id)?;
            check(&page, page_id, self.dim)?;
            let n = count(&page);
            if is_leaf(&page) {
                for i in 0..n {
                    Leaf::coords_into(&page, self.dim, i, &mut coords);
                    out.push((Leaf::rid(&page, self.dim, i), coords.clone()));
                }
            } else {
                for i in 0..n {
                    stack.push(Internal::child(&page, i));
                }
            }
        }
        Ok(out)
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height in levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The tree's own search counters: the distances its searches
    /// computed. A forest of trees (gLDR) sums its trees'.
    pub fn counters(&self) -> &SearchCounters {
        &self.search
    }

    /// Access to the buffer pool (page counts, per-shard hit/miss/eviction
    /// counters via [`BufferPool::snapshot`]).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub(crate) fn root(&self) -> PageId {
        self.root
    }
}

/// Recursively builds the subtree over `order` (indices into `points`)
/// into `pages`, returning its root page: the last one written.
fn build(
    pages: &mut Vec<Arc<Page>>,
    points: &Matrix,
    rids: &[u64],
    order: &mut [usize],
    dim: usize,
    level: usize,
    height: &mut usize,
) -> Result<PageId> {
    *height = (*height).max(level);
    let cap = leaf_capacity(dim);
    if order.len() <= cap {
        let mut page = Page::new();
        Leaf::init(&mut page);
        for &i in order.iter() {
            Leaf::push(&mut page, dim, rids[i], points.row(i))?;
        }
        pages.push(Arc::new(page));
        return Ok(pages.len() as PageId - 1);
    }

    // Split along the dimension with the largest spread (kd heuristic the
    // Hybrid tree also favours: it minimizes overlap probability).
    let split_dim = max_spread_dim(points, order, dim);
    order.sort_unstable_by(|&a, &b| {
        points.row(a)[split_dim]
            .partial_cmp(&points.row(b)[split_dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Number of children: enough that each child can eventually fit, capped
    // by fanout.
    let n_children = DEFAULT_FANOUT.min(order.len().div_ceil(cap)).max(2);
    let chunk = order.len().div_ceil(n_children);
    let mut boundaries = Vec::with_capacity(n_children - 1);
    let mut children = Vec::with_capacity(n_children);
    let mut start = 0;
    while start < order.len() {
        let end = (start + chunk).min(order.len());
        if start > 0 {
            boundaries.push(points.row(order[start])[split_dim]);
        }
        // Recurse on the chunk; split_unstable borrows disjoint ranges.
        let child = {
            let sub = &mut order[start..end];
            build(pages, points, rids, sub, dim, level + 1, height)?
        };
        children.push(child);
        start = end;
    }
    let mut page = Page::new();
    Internal::init(&mut page, split_dim, &boundaries, &children)?;
    pages.push(Arc::new(page));
    Ok(pages.len() as PageId - 1)
}

/// The dimension with maximum (max − min) spread over the subset.
fn max_spread_dim(points: &Matrix, order: &[usize], dim: usize) -> usize {
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for &i in order {
        for (j, &x) in points.row(i).iter().enumerate() {
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
    }
    let mut best = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for j in 0..dim {
        let spread = hi[j] - lo[j];
        if spread > best_spread {
            best_spread = spread;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_index::Target;
    use std::collections::HashSet;

    fn grid_points(n: usize, dim: usize) -> (Matrix, Vec<u64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * (j + 3)) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect();
        let rids: Vec<u64> = (0..n as u64).collect();
        (Matrix::from_rows(&rows).unwrap(), rids)
    }

    #[test]
    fn builds_and_reports_shape() {
        let (points, rids) = grid_points(2000, 8);
        let t = HybridTree::bulk_load(512, &points, &rids).unwrap();
        assert_eq!(t.len(), 2000);
        assert_eq!(t.dim(), 8);
        assert!(t.height() >= 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_parts_reattaches_exported_pages() {
        let (points, rids) = grid_points(500, 4);
        let t = HybridTree::bulk_load(64, &points, &rids).unwrap();
        let q = [0.3, 0.4, 0.5, 0.6];
        let none = HashSet::new();
        let want = t.search_gated(&q, Target::Knn(7), &none, None).unwrap();
        let images = t.pool().export_pages().unwrap();
        let reopened_pool = BufferPool::new(DiskManager::from_pages(images), 64).unwrap();
        let back = HybridTree::from_parts(
            reopened_pool,
            t.root_page_id(),
            t.dim(),
            t.len(),
            t.height(),
        )
        .unwrap();
        let got = back.search_gated(&q, Target::Knn(7), &none, None).unwrap();
        assert_eq!(got, want);
        assert!(
            HybridTree::from_parts(
                BufferPool::new(DiskManager::default(), 4).unwrap(),
                5,
                4,
                1,
                1
            )
            .is_err(),
            "root beyond the page set is rejected"
        );
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let points = Matrix::zeros(0, 4);
        let t = HybridTree::bulk_load(4, &points, &[]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn validates_inputs() {
        let (points, _) = grid_points(10, 4);
        assert!(matches!(
            HybridTree::bulk_load(8, &points, &[1, 2]),
            Err(Error::InputMismatch { .. })
        ));
        let wide = Matrix::zeros(1, 600);
        assert!(matches!(
            HybridTree::bulk_load(8, &wide, &[0]),
            Err(Error::UnsupportedDimensionality { .. })
        ));
    }

    #[test]
    fn higher_dim_means_more_pages() {
        // The core property the gLDR comparison rests on: page count grows
        // with dimensionality for the same number of points.
        let (p8, r8) = grid_points(3000, 8);
        let (p32, r32) = grid_points(3000, 32);
        let t8 = HybridTree::bulk_load(4096, &p8, &r8).unwrap();
        let t32 = HybridTree::bulk_load(4096, &p32, &r32).unwrap();
        assert!(
            t32.pool.num_pages() > 2 * t8.pool.num_pages(),
            "{} vs {}",
            t32.pool.num_pages(),
            t8.pool.num_pages()
        );
    }

    #[test]
    fn duplicate_points_build_fine() {
        let rows = vec![vec![0.5; 4]; 500];
        let points = Matrix::from_rows(&rows).unwrap();
        let rids: Vec<u64> = (0..500).collect();
        let t = HybridTree::bulk_load(256, &points, &rids).unwrap();
        assert_eq!(t.len(), 500);
    }
}
