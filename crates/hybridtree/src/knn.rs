//! Best-first KNN and range search over the hybrid tree.

use crate::error::Result;
use crate::node::{check, count, is_leaf, Internal, Leaf};
use crate::tree::HybridTree;
use mmdr_index::{KnnHeap, SearchFilter, Target};
use mmdr_storage::{Page, PageId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Heap entry for the best-first frontier, ordered by ascending `MINDIST`.
struct Frontier {
    mindist_sq: f64,
    page: PageId,
    /// kd region bounds accumulated on the way down (lo, hi per dim).
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.mindist_sq == other.mindist_sq
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the smallest MINDIST.
        other
            .mindist_sq
            .partial_cmp(&self.mindist_sq)
            .unwrap_or(Ordering::Equal)
    }
}

// Two walks behind one entry, on purpose. A KNN pops regions best-first and
// ranks *squared* distances, so a leaf row's sum can be abandoned part-way
// against the k-th best; a range search has to visit every qualifying
// region anyway, so it takes them in sibling (page) order — what keeps a
// demand-paged pool's readahead window warm, pinned by
// `tests/out_of_core.rs::hybrid_range_walk_readahead_hits_rise` — and
// compares *rooted* distances with the radius. One collector for both could
// not return the same bits; they share the row gate and `child_region`.
impl HybridTree {
    /// Answers `target` around `query` by L2 distance: `(distance, rid)`
    /// pairs sorted ascending by distance, ties broken toward the smaller
    /// rid; a range search uses the same boundary tolerance as the other
    /// backends (`dist ≤ radius + 1e-12`).
    ///
    /// Two row gates: a set of rids to hide (the gLDR forest keeps one
    /// tombstone set at its own level and passes it down to every cluster
    /// tree, so deleted members never surface) and an optional
    /// [`SearchFilter`] whose failing rows never enter the answer
    /// (the pushdown contract — results are bit-identical to
    /// post-filtering the ungated ranking).
    ///
    /// The query must be one [`mmdr_index::Query::validate`] accepts for
    /// this tree's dimensionality: gLDR passes each cluster tree the query
    /// it checked, projected. An empty tree answers without fetching its
    /// root, for gLDR asks its cluster trees whether they hold rows or not.
    pub fn search_gated(
        &self,
        query: &[f64],
        target: Target,
        skip: &HashSet<u64>,
        filter: Option<&SearchFilter>,
    ) -> Result<Vec<(f64, u64)>> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let dead = |rid: u64| skip.contains(&rid) || filter.is_some_and(|f| !f.passes(rid));
        match target {
            Target::Knn(k) => self.knn_walk(query, k, dead),
            Target::Range(radius) => self.range_walk(query, radius, dead),
        }
    }

    /// The classic best-first algorithm: a frontier ordered by region
    /// `MINDIST`, pruned against the current k-th best distance. Every
    /// page popped from the frontier costs one (buffered) page access;
    /// leaf distances are early-abandoned against the k-th best, which
    /// cannot change the result set (a candidate at the bound is still
    /// summed in full and tie-broken by rid).
    fn knn_walk(
        &self,
        query: &[f64],
        k: usize,
        dead: impl Fn(u64) -> bool,
    ) -> Result<Vec<(f64, u64)>> {
        let dim = self.dim;
        let mut frontier = BinaryHeap::new();
        frontier.push(Frontier {
            mindist_sq: 0.0,
            page: self.root(),
            lo: vec![f64::NEG_INFINITY; dim],
            hi: vec![f64::INFINITY; dim],
        });
        // Holds *squared* distances; √ is applied once on the way out.
        let mut best = KnnHeap::new(k);
        let mut coords = vec![0.0; dim];
        while let Some(node) = frontier.pop() {
            if node.mindist_sq > best.reach() {
                break; // no remaining region can beat the k-th best
            }
            // One fetch per visited node: the `Arc<Page>` image is held
            // for the whole node and no pool lock is held while distances
            // are computed, so concurrent KNN workers proceed in parallel.
            let page = self.pool.page(node.page)?;
            check(&page, node.page, dim)?;
            if is_leaf(&page) {
                // A distance counts once it is evaluated (abandoned
                // part-way or not): a row the gate hides costs none.
                let (mut dists, mut refined) = (0, 0);
                for i in 0..count(&page) {
                    let rid = Leaf::rid(&page, dim, i);
                    if dead(rid) {
                        continue;
                    }
                    Leaf::coords_into(&page, dim, i, &mut coords);
                    dists += 1;
                    if let Some(d) = mmdr_linalg::l2_dist_sq_within(query, &coords, best.reach()) {
                        best.push(d, rid);
                        refined += 1;
                    }
                }
                self.search.record_dists(dists);
                self.search.record_refined(refined);
                continue;
            }
            // Internal: push each child with its refined region.
            for i in 0..count(&page) {
                let (child, lo, hi) = child_region(&page, i, &node.lo, &node.hi);
                let mindist_sq = mindist_sq(query, &lo, &hi);
                if mindist_sq > best.reach() {
                    continue;
                }
                frontier.push(Frontier {
                    mindist_sq,
                    page: child,
                    lo,
                    hi,
                });
            }
        }

        Ok(best
            .into_sorted_vec()
            .into_iter()
            .map(|(d_sq, rid)| (d_sq.sqrt(), rid))
            .collect())
    }

    /// Every row within `radius`, by the same `MINDIST` region pruning.
    fn range_walk(
        &self,
        query: &[f64],
        radius: f64,
        dead: impl Fn(u64) -> bool,
    ) -> Result<Vec<(f64, u64)>> {
        let dim = self.dim;
        let mut out = KnnHeap::for_target(Target::Range(radius));
        let limit = out.reach();
        let mut coords = vec![0.0; dim];
        // Plain stack walk: every qualifying region must be visited anyway,
        // so best-first ordering buys nothing here.
        let mut stack = vec![(
            self.root(),
            vec![f64::NEG_INFINITY; dim],
            vec![f64::INFINITY; dim],
        )];
        while let Some((page, lo, hi)) = stack.pop() {
            if mindist_sq(query, &lo, &hi).sqrt() > limit {
                continue;
            }
            let node_page = self.pool.page(page)?;
            check(&node_page, page, dim)?;
            if is_leaf(&node_page) {
                // The next stack entry is the next region in walk order —
                // for bulk-loaded trees, the right sibling leaf. Hint it
                // before scanning this leaf so a demand-read source can
                // overlap the sibling fetch, even when pruning made the
                // page ids non-consecutive. Free on resident pools, and
                // never a logical access.
                if let Some((next, _, _)) = stack.last() {
                    let _ = self.pool.prefetch(*next);
                }
                let (mut dists, mut refined) = (0, 0);
                for i in 0..count(&node_page) {
                    let rid = Leaf::rid(&node_page, dim, i);
                    if dead(rid) {
                        continue;
                    }
                    Leaf::coords_into(&node_page, dim, i, &mut coords);
                    dists += 1;
                    let d = mmdr_linalg::l2_dist(query, &coords);
                    if d <= limit {
                        out.push(d, rid);
                        refined += 1;
                    }
                }
                self.search.record_dists(dists);
                self.search.record_refined(refined);
                continue;
            }
            let n_children = count(&node_page);
            // Every child of this qualifying region is about to be pushed,
            // and bulk-loaded siblings sit on consecutive pages: hint the
            // pool at the first child so a demand-read source pulls the
            // whole sibling run in one pread. Children are pushed in
            // reverse so the stack pops them in leaf-sibling order —
            // ascending page ids under bulk load — which keeps the
            // sequential-readahead window warm across the walk. Answer
            // order is unaffected: the answer is sorted on the way out.
            if n_children > 0 {
                let _ = self.pool.prefetch(Internal::child(&node_page, 0));
            }
            for i in (0..n_children).rev() {
                stack.push(child_region(&node_page, i, &lo, &hi));
            }
        }
        Ok(out.into_sorted_vec())
    }
}

/// Child `i` of an internal node and the kd region it covers: the parent's
/// `(lo, hi)` box narrowed along the node's split dimension to the child's
/// boundary pair.
fn child_region(page: &Page, i: usize, lo: &[f64], hi: &[f64]) -> (PageId, Vec<f64>, Vec<f64>) {
    let split_dim = Internal::split_dim(page);
    let (mut lo, mut hi) = (lo.to_vec(), hi.to_vec());
    if i > 0 {
        lo[split_dim] = lo[split_dim].max(Internal::boundary(page, i - 1));
    }
    if i + 1 < count(page) {
        hi[split_dim] = hi[split_dim].min(Internal::boundary(page, i));
    }
    (Internal::child(page, i), lo, hi)
}

/// Squared `MINDIST` from a point to an axis-aligned box.
fn mindist_sq(q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&x, &l), &h) in q.iter().zip(lo).zip(hi) {
        let d = if x < l {
            l - x
        } else if x > h {
            x - h
        } else {
            0.0
        };
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::HybridTree;
    use mmdr_linalg::Matrix;

    /// An ungated search: no row hidden, no filter.
    fn search(tree: &HybridTree, query: &[f64], target: Target) -> Vec<(f64, u64)> {
        tree.search_gated(query, target, &HashSet::new(), None)
            .unwrap()
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Matrix::from_fn(n, dim, |_, _| rand())
    }

    /// Brute-force reference KNN.
    fn exact_knn(points: &Matrix, query: &[f64], k: usize) -> Vec<(f64, u64)> {
        let mut all: Vec<(f64, u64)> = points
            .iter_rows()
            .enumerate()
            .map(|(i, p)| (mmdr_linalg::l2_dist(query, p), i as u64))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let points = random_points(2000, 6, 42);
        let rids: Vec<u64> = (0..2000).collect();
        let tree = HybridTree::bulk_load(1024, &points, &rids).unwrap();
        for qseed in [7u64, 99, 1234] {
            let q = random_points(1, 6, qseed);
            let query = q.row(0);
            let got = search(&tree, query, Target::Knn(10));
            let want = exact_knn(&points, query, 10);
            let got_set: std::collections::HashSet<u64> = got.iter().map(|&(_, r)| r).collect();
            let want_set: std::collections::HashSet<u64> = want.iter().map(|&(_, r)| r).collect();
            assert_eq!(got_set, want_set, "KNN mismatch for seed {qseed}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g.0 - w.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_respects_k() {
        let points = random_points(100, 3, 5);
        let rids: Vec<u64> = (0..100).collect();
        let tree = HybridTree::bulk_load(128, &points, &rids).unwrap();
        assert_eq!(search(&tree, points.row(0), Target::Knn(1)).len(), 1);
        assert_eq!(search(&tree, points.row(0), Target::Knn(100)).len(), 100);
        assert_eq!(search(&tree, points.row(0), Target::Knn(500)).len(), 100);
        assert!(search(&tree, points.row(0), Target::Knn(0)).is_empty());
    }

    #[test]
    fn exact_match_is_nearest() {
        let points = random_points(500, 4, 11);
        let rids: Vec<u64> = (0..500).collect();
        let tree = HybridTree::bulk_load(256, &points, &rids).unwrap();
        let r = search(&tree, points.row(123), Target::Knn(1));
        assert_eq!(r[0].1, 123);
        assert!(r[0].0 < 1e-12);
    }

    #[test]
    fn duplicate_distances_tie_break_toward_smaller_rid() {
        // 20 identical points: any k of them are correct by distance; the
        // contract picks the k smallest rids.
        let rows = vec![vec![0.25; 3]; 20];
        let points = Matrix::from_rows(&rows).unwrap();
        let rids: Vec<u64> = (0..20).collect();
        let tree = HybridTree::bulk_load(32, &points, &rids).unwrap();
        let r = search(&tree, &[0.25; 3], Target::Knn(5));
        let ids: Vec<u64> = r.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pruning_saves_io_versus_full_scan() {
        let points = random_points(5000, 4, 3);
        let rids: Vec<u64> = (0..5000).collect();
        let tree = HybridTree::bulk_load(4, &points, &rids).unwrap();
        let total_pages = tree.pool().num_pages() as u64;
        let before = tree.pool().snapshot();
        let _ = search(&tree, points.row(0), Target::Knn(5));
        let reads = tree.pool().snapshot().since(&before).misses();
        assert!(
            reads < total_pages / 2,
            "KNN read {reads} of {total_pages} pages"
        );
    }

    #[test]
    fn counters_tick() {
        let points = random_points(300, 4, 17);
        let rids: Vec<u64> = (0..300).collect();
        let tree = HybridTree::bulk_load(64, &points, &rids).unwrap();
        let counters = tree.counters();
        assert_eq!(
            counters.dist_computations(),
            0,
            "a build computes no distance"
        );
        let _ = search(&tree, points.row(0), Target::Knn(5));
        assert!(counters.dist_computations() > 0);
        assert!(counters.candidates_refined() > 0);
        // Pruning means not every computed distance is refined.
        assert!(counters.candidates_refined() <= counters.dist_computations());
    }

    #[test]
    fn a_row_the_gate_hides_costs_no_distance() {
        let points = random_points(300, 4, 17);
        let rids: Vec<u64> = (0..300).collect();
        let tree = HybridTree::bulk_load(64, &points, &rids).unwrap();
        let counters = tree.counters();
        let hidden: HashSet<u64> = (0..100).collect();
        let passing = SearchFilter::from_rows(mmdr_index::RowFilter::from_fn(300, |id| id >= 270));
        // Every row is a candidate of both walks (k = n, an all-covering
        // radius), so the count is exactly the rows the gate lets through.
        for target in [Target::Knn(300), Target::Range(1e6)] {
            let none = HashSet::new();
            for (skip, filter, evaluated) in [
                (&none, None, 300),
                (&hidden, None, 200),
                (&none, Some(&passing), 30),
                (&hidden, Some(&passing), 30),
            ] {
                let before = counters.dist_computations();
                let hits = tree
                    .search_gated(points.row(0), target, skip, filter)
                    .unwrap();
                assert_eq!(hits.len(), evaluated);
                assert_eq!(counters.dist_computations() - before, evaluated as u64);
            }
        }
    }

    #[test]
    fn range_search_matches_brute_force() {
        let points = random_points(1500, 5, 77);
        let rids: Vec<u64> = (0..1500).collect();
        let tree = HybridTree::bulk_load(512, &points, &rids).unwrap();
        for (qseed, radius) in [(5u64, 0.2), (21, 0.5), (40, 1.0)] {
            let q = random_points(1, 5, qseed);
            let query = q.row(0);
            let got = search(&tree, query, Target::Range(radius));
            let want: Vec<(f64, u64)> = {
                let mut v: Vec<(f64, u64)> = points
                    .iter_rows()
                    .enumerate()
                    .map(|(i, p)| (mmdr_linalg::l2_dist(query, p), i as u64))
                    .filter(|&(d, _)| d <= radius + 1e-12)
                    .collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            };
            assert_eq!(got.len(), want.len(), "seed {qseed} radius {radius}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.1, w.1);
                assert!((g.0 - w.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let points = Matrix::zeros(0, 3);
        let tree = HybridTree::bulk_load(4, &points, &[]).unwrap();
        assert!(search(&tree, &[0.0, 0.0, 0.0], Target::Knn(5)).is_empty());
        assert!(search(&tree, &[0.0, 0.0, 0.0], Target::Range(1.0)).is_empty());
    }

    #[test]
    fn mindist_sq_cases() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        assert_eq!(mindist_sq(&[0.5, 0.5], &lo, &hi), 0.0); // inside
        assert_eq!(mindist_sq(&[2.0, 0.5], &lo, &hi), 1.0); // right of box
        assert_eq!(mindist_sq(&[-1.0, -1.0], &lo, &hi), 2.0); // corner
    }
}
