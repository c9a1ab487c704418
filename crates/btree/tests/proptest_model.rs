//! Property tests: a bulk-loaded tree over keys with duplicates, sorted
//! across leaves and shuffled inside each, is its input itself — positions
//! dense `0..n` in input order, each code at its position, each key inside
//! its leaf's range `[lo, hi]`, ranges that never descend along the chain,
//! and the two cursor directions mirror images across leaf boundaries —
//! and a seek is one leaf fetch that parts the entries by their leaves'
//! last keys, whatever the key shape (runs longer than a leaf, both signs,
//! magnitudes from 1e-300 to 1e300, spans near `f64::MAX`) and whatever
//! the buffer pool (down to one frame: forced eviction).

use mmdr_btree::{BPlusTree, LEAF_CAPACITY};
use proptest::prelude::*;

/// A finite `f64` of either sign and any magnitude from 1e-300 to 1e300.
fn wide((neg, e): (bool, f64)) -> f64 {
    let x = 10f64.powf(e);
    if neg {
        -x
    } else {
        x
    }
}

/// A key of one of five shapes, from one raw draw.
fn shaped(shape: u32, (x, k, sign): (f64, u32, (bool, f64))) -> f64 {
    match shape {
        // A small domain: runs of duplicates are common.
        0 => f64::from(k) * 0.5,
        // Three keys: runs longer than a leaf (508 entries), so leaves
        // whose span is 0, and runs that start or end at a leaf boundary.
        1 => f64::from(k % 3) - 1.0,
        // Negative keys.
        2 => -1e6 * x,
        // Both signs, magnitudes from 1e-300 to 1e300.
        3 => wide(sign),
        // Spans near f64::MAX: from −MAX to MAX, the ends themselves too.
        _ => match k % 8 {
            0 => f64::MAX,
            1 => -f64::MAX,
            _ => (2.0 * x - 1.0) * f64::MAX,
        },
    }
}

/// `(key, code)` entries of one of the five shapes, sorted by key and
/// then, inside each leaf's share, by code: in no key order a leaf sees.
fn leaf_ordered_entries() -> impl Strategy<Value = Vec<(f64, u64)>> {
    let raw = (
        0.0f64..1.0,
        0u32..24,
        (proptest::bool::ANY, -300.0f64..300.0),
    );
    (
        0u32..5,
        proptest::collection::vec((raw, 0..=u64::MAX), 0..1200),
    )
        .prop_map(|(shape, raw)| {
            let mut entries: Vec<(f64, u64)> = raw
                .into_iter()
                .map(|(r, code)| (shaped(shape, r), code))
                .collect();
            entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            for leaf in entries.chunks_mut(LEAF_CAPACITY) {
                leaf.sort_by_key(|e| e.1);
            }
            entries
        })
}

/// Every entry as the cursor shows it, forward from the first leaf and then
/// back from the end: `(lo, hi, position, code)`. The two directions must
/// agree.
fn walk(tree: &BPlusTree) -> Vec<(f64, f64, u64, u64)> {
    let mut cur = tree.seek(f64::MIN).unwrap();
    let mut forward = Vec::new();
    while let Some((lo, position)) = tree.cursor_next(&mut cur).unwrap() {
        forward.push((lo, cur.key_hi(), position, cur.code()));
    }
    let mut backward = Vec::new();
    while let Some((lo, position)) = tree.cursor_prev(&mut cur).unwrap() {
        backward.push((lo, cur.key_hi(), position, cur.code()));
    }
    backward.reverse();
    assert_eq!(forward, backward);
    forward
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_bulk_load_is_its_input(
        entries in leaf_ordered_entries(),
        pool_pages in 1usize..16,
        small in proptest::collection::vec(-1.0f64..13.0, 4),
        large in proptest::collection::vec((proptest::bool::ANY, -300.0f64..300.0), 4),
    ) {
        let tree = BPlusTree::bulk_load(pool_pages, &entries).unwrap();
        prop_assert_eq!(tree.len(), entries.len());
        tree.check_invariants().unwrap();

        // Positions dense 0..n in input order, each code at its position and
        // each key inside its leaf's range; a leaf's entries share one
        // range, and the next leaf's starts at or above its end.
        let walked = walk(&tree);
        prop_assert_eq!(walked.len(), entries.len());
        let mut prev = (f64::MIN, f64::MIN);
        for (n, (&(key, code), &(lo, hi, position, got))) in entries.iter().zip(&walked).enumerate() {
            prop_assert!(lo <= key && key <= hi, "entry {}: {} not in [{}, {}]", n, key, lo, hi);
            prop_assert_eq!((position, got), (n as u64, code));
            if n % LEAF_CAPACITY == 0 {
                prop_assert!(prev.1 <= lo, "entry {}: ranges descend", n);
            } else {
                prop_assert_eq!((lo.to_bits(), hi.to_bits()), (prev.0.to_bits(), prev.1.to_bits()));
            }
            prev = (lo, hi);
        }

        // A seek parts the entries by their leaves' last keys: back from it
        // are exactly those of the leaves whose last key is < the probe,
        // forward the rest, and the two steps meet, whichever leaf boundary
        // lies between. It fetches one page, the leaf the fences route it
        // to. Probed at every key and range end and their neighbours,
        // besides arbitrary values.
        let his: Vec<f64> = walked.iter().map(|e| e.1).collect();
        let edges = walked.iter().step_by(37).flat_map(|&(lo, hi, position, _)| {
            let key = entries[position as usize].0;
            [key, key.next_down(), key.next_up(), lo, lo.next_down(), hi, hi.next_down(), hi.next_up()]
        });
        let probes = small.into_iter().chain(large.into_iter().map(wide));
        for probe in probes.chain(edges).filter(|x| x.is_finite()) {
            let before = tree.pool().snapshot();
            let mut cur = tree.seek(probe).unwrap();
            prop_assert_eq!(tree.pool().snapshot().since(&before).pages_touched(), 1);
            let parted = his.partition_point(|&hi| hi < probe) as u64;
            prop_assert!(parted.is_multiple_of(LEAF_CAPACITY as u64) || parted == walked.len() as u64);
            let step = |n: u64| walked.get(n as usize).map(|&(lo, _, position, _)| (lo, position));
            let next = tree.cursor_next(&mut cur).unwrap();
            prop_assert_eq!(next, step(parted), "probe {}", probe);
            if next.is_some() {
                prop_assert_eq!(tree.cursor_prev(&mut cur).unwrap(), next);
            }
            let mut cur = tree.seek(probe).unwrap();
            let prev = tree.cursor_prev(&mut cur).unwrap();
            prop_assert_eq!(prev, parted.checked_sub(1).and_then(step), "probe {}", probe);
            if prev.is_some() {
                prop_assert_eq!(tree.cursor_next(&mut cur).unwrap(), prev);
            }
        }
    }
}
