//! The one result set of every search: the k best candidates of a KNN
//! query, or everything within a range query's radius.

use crate::query::Target;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap candidate (worst of the current k on top).
struct Candidate {
    dist: f64,
    point_id: u64,
}
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.point_id == other.point_id
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then(self.point_id.cmp(&other.point_id))
    }
}

/// Bounded max-heap of the k best `(distance, point_id)` candidates seen so
/// far that lie within a distance limit. Ties on distance break toward the
/// smaller point id, so the winner set is deterministic regardless of
/// insertion order — the property the backend-conformance suite's
/// exact-parity assertions rest on.
pub struct KnnHeap {
    k: usize,
    /// Farthest distance a candidate may have: `∞` for a KNN target.
    limit: f64,
    heap: BinaryHeap<Candidate>,
}

impl KnnHeap {
    /// Slots reserved up front. `k` arrives unvalidated from the wire and
    /// from callers that mean "everything" (`usize::MAX`, `len`), so the
    /// reservation is bounded; the heap grows to `min(k, rows offered)`.
    const MAX_RESERVED: usize = 1024;

    /// An empty heap retaining at most `k` candidates.
    pub fn new(k: usize) -> Self {
        Self::for_target(Target::Knn(k))
    }

    /// An empty heap that ends up holding `target`'s answer once every row
    /// has been offered: the `k` best for `Knn(k)`, everything within
    /// `radius + 1e-12` for `Range(radius)` — the boundary tolerance of
    /// every backend, so a row at the radius to the last bit is a hit
    /// whichever order its distance was summed in. The radius is taken as
    /// given: [`crate::VectorIndex::search`] has validated it
    /// ([`crate::Query::validate`]).
    pub fn for_target(target: Target) -> Self {
        let (k, limit) = match target {
            Target::Knn(k) => (k, f64::INFINITY),
            Target::Range(radius) => (usize::MAX, radius + 1e-12),
        };
        Self {
            k,
            limit,
            heap: BinaryHeap::with_capacity(k.min(Self::MAX_RESERVED) + 1),
        }
    }

    /// Candidate bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidates currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidate has been offered (or k = 0).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once k candidates are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Distance of the worst retained candidate (the current k-th best), or
    /// `None` while empty.
    #[inline]
    pub fn worst_dist(&self) -> Option<f64> {
        self.heap.peek().map(|c| c.dist)
    }

    /// The farthest distance that can still enter: the k-th best once k
    /// candidates are held, the limit before. A search may skip, unseen,
    /// whatever it can prove lies strictly beyond it — never what ties it,
    /// which a smaller point id could still win.
    #[inline]
    pub fn reach(&self) -> f64 {
        if self.is_full() {
            self.worst_dist().unwrap_or(f64::NEG_INFINITY)
        } else {
            self.limit
        }
    }

    /// Offers a candidate; it is kept only if it lies within the limit and
    /// the heap is not yet full or it beats the current worst (distance,
    /// then point id).
    #[inline]
    pub fn push(&mut self, dist: f64, point_id: u64) {
        if self.k == 0 || dist > self.limit {
            return;
        }
        if self.heap.len() == self.k {
            let worst = self.heap.peek().expect("len == k > 0");
            if (dist, point_id) >= (worst.dist, worst.point_id) {
                return;
            }
            self.heap.pop();
        }
        self.heap.push(Candidate { dist, point_id });
    }

    /// Consumes the heap, returning candidates sorted ascending by
    /// `(distance, point_id)`.
    pub fn into_sorted_vec(self) -> Vec<(f64, u64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.dist, c.point_id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_best_with_id_tiebreaks() {
        let mut h = KnnHeap::new(3);
        for (d, id) in [(5.0, 1), (1.0, 2), (3.0, 3), (3.0, 0), (9.0, 4)] {
            h.push(d, id);
        }
        assert_eq!(h.into_sorted_vec(), vec![(1.0, 2), (3.0, 0), (3.0, 3)]);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut offers = vec![(2.0, 7u64), (2.0, 3), (2.0, 9), (1.0, 5), (4.0, 1)];
        let mut forward = KnnHeap::new(2);
        for &(d, id) in &offers {
            forward.push(d, id);
        }
        offers.reverse();
        let mut backward = KnnHeap::new(2);
        for &(d, id) in &offers {
            backward.push(d, id);
        }
        assert_eq!(forward.into_sorted_vec(), backward.into_sorted_vec());
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut h = KnnHeap::new(0);
        h.push(1.0, 1);
        assert!(h.is_empty());
        assert!(h.is_full());
        assert_eq!(h.k(), 0);
        assert!(h.into_sorted_vec().is_empty());
    }

    #[test]
    fn an_unbounded_k_reserves_little_and_keeps_everything_offered() {
        let mut h = KnnHeap::new(usize::MAX);
        assert!(h.heap.capacity() < 1 << 16);
        for id in (0..5000u64).rev() {
            h.push(id as f64, id);
        }
        assert!(!h.is_full());
        let all = h.into_sorted_vec();
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_range_target_keeps_everything_within_its_radius() {
        let mut h = KnnHeap::for_target(Target::Range(2.0));
        assert_eq!(h.reach(), 2.0 + 1e-12);
        for (d, id) in [
            (2.5, 1),
            (2.0, 2),
            (0.5, 3),
            (2.0 + 1e-13, 4),
            (2.0 + 1e-11, 5),
        ] {
            h.push(d, id);
        }
        assert!(!h.is_full());
        assert_eq!(h.reach(), 2.0 + 1e-12, "a range's reach is its radius");
        assert_eq!(
            h.into_sorted_vec(),
            vec![(0.5, 3), (2.0, 2), (2.0 + 1e-13, 4)]
        );
    }

    #[test]
    fn reach_is_unbounded_until_k_are_held_then_the_kth() {
        let mut h = KnnHeap::for_target(Target::Knn(2));
        assert_eq!(h.reach(), f64::INFINITY);
        h.push(3.0, 1);
        assert_eq!(h.reach(), f64::INFINITY);
        h.push(1.0, 2);
        assert_eq!(h.reach(), 3.0);
        h.push(2.0, 3);
        assert_eq!(h.reach(), 2.0);
        assert_eq!(KnnHeap::new(0).reach(), f64::NEG_INFINITY);
    }

    #[test]
    fn tracks_fill_state() {
        let mut h = KnnHeap::new(2);
        assert!(!h.is_full());
        assert_eq!(h.worst_dist(), None);
        h.push(1.0, 1);
        assert_eq!(h.len(), 1);
        h.push(2.0, 2);
        assert!(h.is_full());
        assert_eq!(h.worst_dist(), Some(2.0));
        h.push(0.5, 3);
        assert_eq!(h.worst_dist(), Some(1.0));
    }
}
