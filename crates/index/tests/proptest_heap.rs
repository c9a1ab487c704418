//! Property tests for [`KnnHeap`], the result set at the core of every
//! search: pop order, k-bounding, the distance limit of a range target,
//! and insertion-order independence.

use mmdr_index::{KnnHeap, Target};
use proptest::prelude::*;

/// Candidate stream: distances in a bounded range (ties likely), small ids.
fn candidates() -> impl Strategy<Value = Vec<(f64, u64)>> {
    proptest::collection::vec((0.0f64..10.0, 0u64..64), 0..120)
}

/// The k smallest candidates under (distance, id) order — the reference a
/// correct heap must reproduce.
fn reference_top_k(cands: Vec<(f64, u64)>, k: usize) -> Vec<(f64, u64)> {
    reference_answer(cands, Target::Knn(k))
}

/// `target`'s answer over `cands`: sort, cut at the limit, truncate to k.
fn reference_answer(mut cands: Vec<(f64, u64)>, target: Target) -> Vec<(f64, u64)> {
    let (k, limit) = match target {
        Target::Knn(k) => (k, f64::INFINITY),
        Target::Range(radius) => (usize::MAX, radius + 1e-12),
    };
    cands.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite distances")
            .then(a.1.cmp(&b.1))
    });
    cands.retain(|&(d, _)| d <= limit);
    cands.truncate(k);
    cands
}

/// Either kind of target, sized so both the k-bound and the limit bite.
fn targets() -> impl Strategy<Value = Target> {
    (proptest::bool::ANY, 0usize..20, 0.0f64..10.0).prop_map(|(knn, k, radius)| {
        if knn {
            Target::Knn(k)
        } else {
            Target::Range(radius)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// into_sorted_vec returns candidates ascending by (distance, id) and
    /// never more than k of them.
    #[test]
    fn pop_order_is_sorted_and_k_bounded(cands in candidates(), k in 0usize..20) {
        let mut heap = KnnHeap::new(k);
        for &(d, id) in &cands {
            heap.push(d, id);
            prop_assert!(heap.len() <= k, "heap exceeded k");
        }
        let out = heap.into_sorted_vec();
        prop_assert!(out.len() <= k);
        prop_assert_eq!(out.len(), cands.len().min(k).min(out.len()));
        for w in out.windows(2) {
            prop_assert!(
                (w[0].0, w[0].1) <= (w[1].0, w[1].1),
                "not sorted: {:?} then {:?}", w[0], w[1]
            );
        }
    }

    /// The heap retains exactly the k smallest candidates (deterministic
    /// tie-break on id), regardless of insertion order.
    #[test]
    fn retains_exactly_the_k_smallest(cands in candidates(), k in 1usize..20) {
        // Deduplicate (distance, id) pairs: pushing the same candidate twice
        // may legitimately retain both copies in a set-agnostic heap, but
        // real searches never offer the same id at two distances.
        let mut seen = std::collections::HashSet::new();
        let cands: Vec<(f64, u64)> = cands
            .into_iter()
            .filter(|&(_, id)| seen.insert(id))
            .collect();

        let mut heap = KnnHeap::new(k);
        for &(d, id) in &cands {
            heap.push(d, id);
        }
        let expect = reference_top_k(cands.clone(), k);
        prop_assert_eq!(heap.into_sorted_vec(), expect.clone());

        // Reversed insertion order must give the same winner set.
        let mut heap = KnnHeap::new(k);
        for &(d, id) in cands.iter().rev() {
            heap.push(d, id);
        }
        prop_assert_eq!(heap.into_sorted_vec(), expect);
    }

    /// worst_dist always reports the current k-th best (max of retained).
    #[test]
    fn worst_dist_tracks_the_maximum(cands in candidates(), k in 1usize..20) {
        let mut heap = KnnHeap::new(k);
        let mut retained: Vec<(f64, u64)> = Vec::new();
        for &(d, id) in &cands {
            heap.push(d, id);
            retained.push((d, id));
            retained.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1))
            });
            retained.truncate(k);
            let expect = retained.last().map(|&(d, _)| d);
            prop_assert_eq!(heap.worst_dist(), expect);
            prop_assert_eq!(heap.is_full(), retained.len() == k);
        }
    }

    /// A heap built for a target ends up holding that target's answer,
    /// whatever order the candidates are offered in; and `reach()` never
    /// understates: a candidate a push goes on to keep was within it.
    #[test]
    fn a_targeted_heap_is_sort_cut_truncate_in_any_offer_order(
        cands in candidates(),
        target in targets(),
        rotate in 0usize..120,
    ) {
        let mut seen = std::collections::HashSet::new();
        let mut cands: Vec<(f64, u64)> = cands
            .into_iter()
            .filter(|&(_, id)| seen.insert(id))
            .collect();
        let expect = reference_answer(cands.clone(), target);
        let shift = rotate % cands.len().max(1);
        cands.rotate_left(shift);
        for offers in [cands.clone(), cands.iter().rev().copied().collect()] {
            let mut heap = KnnHeap::for_target(target);
            let mut offered = Vec::new();
            for &(d, id) in &offers {
                let reach = heap.reach();
                heap.push(d, id);
                offered.push((d, id));
                if reference_answer(offered.clone(), target).contains(&(d, id)) {
                    prop_assert!(d <= reach, "kept {d} beyond reach {reach}");
                }
            }
            prop_assert_eq!(heap.into_sorted_vec(), expect.clone());
        }
    }

    /// k = 0 accepts nothing.
    #[test]
    fn zero_k_stays_empty(cands in candidates()) {
        let mut heap = KnnHeap::new(0);
        for &(d, id) in &cands {
            heap.push(d, id);
        }
        prop_assert!(heap.is_empty());
        prop_assert!(heap.into_sorted_vec().is_empty());
    }
}
