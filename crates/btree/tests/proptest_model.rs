//! Property tests: a bulk-loaded tree over sorted keys with duplicates is
//! the sorted input itself — positions dense `0..n` in input order, every
//! seek on the first duplicate, each code beside its key, and the two
//! cursor directions mirror images across leaf boundaries — whatever the
//! buffer pool (down to one frame: forced eviction).

use mmdr_btree::BPlusTree;
use mmdr_storage::{BufferPool, DiskManager};
use proptest::prelude::*;

/// Sorted `(key, code)` entries: keys from a small domain, so runs of
/// duplicates are common and some outgrow a leaf (255 entries).
fn sorted_entries() -> impl Strategy<Value = Vec<(f64, u64)>> {
    proptest::collection::vec((0u32..24, 0..=u64::MAX), 0..1200).prop_map(|mut raw| {
        raw.sort_by_key(|&(k, _)| k);
        raw.into_iter()
            .map(|(k, code)| (f64::from(k) * 0.5, code))
            .collect()
    })
}

/// Every entry as the cursor shows it, forward from the first key and then
/// back from the end: `(key, position, code)`. The two directions must
/// agree.
fn walk(tree: &BPlusTree) -> Vec<(f64, u64, u64)> {
    let mut cur = tree.seek(f64::MIN).unwrap();
    let mut forward = Vec::new();
    while let Some((k, position)) = tree.cursor_next(&mut cur).unwrap() {
        forward.push((k, position, cur.code()));
    }
    let mut backward = Vec::new();
    while let Some((k, position)) = tree.cursor_prev(&mut cur).unwrap() {
        backward.push((k, position, cur.code()));
    }
    backward.reverse();
    assert_eq!(forward, backward);
    forward
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_bulk_load_is_its_sorted_input(
        entries in sorted_entries(),
        pool_pages in 1usize..16,
        probes in proptest::collection::vec(-1.0f64..13.0, 8),
    ) {
        let pool = BufferPool::new(DiskManager::new(), pool_pages).unwrap();
        let tree = BPlusTree::bulk_load(pool, &entries).unwrap();
        prop_assert_eq!(tree.len(), entries.len());
        tree.check_invariants().unwrap();

        // Positions dense 0..n in input order, each code with its key.
        let want: Vec<(f64, u64, u64)> =
            (0..).zip(&entries).map(|(n, &(k, code))| (k, n, code)).collect();
        prop_assert_eq!(walk(&tree), want);

        // Every seek lands on the first duplicate: forward from it is the
        // first entry >= the probe, back from it the last entry < it, and
        // the two steps meet, whichever leaf boundary lies between.
        let keys: Vec<f64> = entries.iter().map(|e| e.0).collect();
        let existing = keys.iter().copied().step_by(97);
        for probe in probes.into_iter().chain(existing) {
            let first = keys.partition_point(|&k| k < probe) as u64;
            let mut cur = tree.seek(probe).unwrap();
            let next = tree.cursor_next(&mut cur).unwrap();
            prop_assert_eq!(next, keys.get(first as usize).map(|&k| (k, first)));
            if let Some((_, n)) = next {
                prop_assert_eq!(cur.code(), entries[n as usize].1);
                prop_assert_eq!(tree.cursor_prev(&mut cur).unwrap(), next);
            }
            let mut cur = tree.seek(probe).unwrap();
            let prev = tree.cursor_prev(&mut cur).unwrap();
            let before = first.checked_sub(1);
            prop_assert_eq!(prev, before.map(|n| (keys[n as usize], n)));
            if let Some((_, n)) = prev {
                prop_assert_eq!(cur.code(), entries[n as usize].1);
                prop_assert_eq!(tree.cursor_next(&mut cur).unwrap(), prev);
            }
        }
    }
}
