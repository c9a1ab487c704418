//! Property tests: the paged B⁺-tree must behave exactly like a sorted
//! reference model under arbitrary insert/bulk-load workloads, including
//! duplicate keys and tiny buffer pools (forced eviction).

use mmdr_btree::BPlusTree;
use mmdr_storage::{BufferPool, DiskManager};
use proptest::prelude::*;

fn pool(pages: usize) -> BufferPool {
    BufferPool::new(DiskManager::new(), pages).unwrap()
}

/// Reference: sorted multiset of (key, rid, code).
fn model_range(model: &[(f64, u64, u64)], lo: f64, hi: f64) -> Vec<f64> {
    let mut keys: Vec<f64> = model
        .iter()
        .filter(|&&(k, _, _)| k >= lo && k <= hi)
        .map(|&(k, _, _)| k)
        .collect();
    keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
    keys
}

/// Every entry of `tree` as the cursor shows it, walking forward then back:
/// `(key, rid, code)`. The two directions must agree.
fn walk(tree: &BPlusTree) -> Vec<(f64, u64, u64)> {
    let mut cur = tree.seek(f64::MIN).unwrap();
    let mut forward = Vec::new();
    while let Some((k, rid)) = tree.cursor_next(&mut cur).unwrap() {
        forward.push((k, rid, cur.code()));
    }
    let mut backward = Vec::new();
    while let Some((k, rid)) = tree.cursor_prev(&mut cur).unwrap() {
        backward.push((k, rid, cur.code()));
    }
    backward.reverse();
    assert_eq!(forward, backward);
    forward
}

/// Whatever order duplicates landed in, each rid still carries the key and
/// the code it was stored with.
fn assert_codes_follow_their_rids(tree: &BPlusTree, model: &[(f64, u64, u64)]) {
    let mut got = walk(tree);
    got.sort_by_key(|&(_, rid, _)| rid);
    let mut want = model.to_vec();
    want.sort_by_key(|&(_, rid, _)| rid);
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inserts_match_reference_model(
        // Keys from a small domain to force plenty of duplicates.
        keys in proptest::collection::vec((0u32..64, 0..=u64::MAX), 1..400),
        pool_pages in 2usize..32,
        probe in 0u32..64,
    ) {
        let mut tree = BPlusTree::new(pool(pool_pages)).unwrap();
        let mut model: Vec<(f64, u64, u64)> = Vec::new();
        for (rid, &(k, code)) in keys.iter().enumerate() {
            tree.insert(k as f64, rid as u64, code).unwrap();
            model.push((k as f64, rid as u64, code));
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().unwrap();
        assert_codes_follow_their_rids(&tree, &model);

        // Full scan matches the sorted model.
        let got: Vec<f64> = tree
            .range(f64::MIN, f64::MAX)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        prop_assert_eq!(got, model_range(&model, f64::MIN, f64::MAX));

        // Point range at the probe key returns every duplicate.
        let hits = tree.range(probe as f64, probe as f64).unwrap();
        let expected = model.iter().filter(|&&(k, _, _)| k == probe as f64).count();
        prop_assert_eq!(hits.len(), expected);
    }

    #[test]
    fn bulk_load_matches_inserts(
        mut keys in proptest::collection::vec((0.0f64..1000.0, 0..=u64::MAX), 1..300),
        lo in 0.0f64..500.0,
        width in 0.0f64..500.0,
    ) {
        keys.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let entries: Vec<(f64, u64, u64)> =
            keys.iter().enumerate().map(|(i, &(k, code))| (k, i as u64, code)).collect();
        let bulk = BPlusTree::bulk_load(pool(64), &entries).unwrap();
        let mut incremental = BPlusTree::new(pool(64)).unwrap();
        for &(k, v, code) in &entries {
            incremental.insert(k, v, code).unwrap();
        }
        bulk.check_invariants().unwrap();
        // A bulk load lays the entries out as given.
        prop_assert_eq!(&walk(&bulk), &entries);
        assert_codes_follow_their_rids(&incremental, &entries);
        let hi = lo + width;
        let a: Vec<f64> = bulk.range(lo, hi).unwrap().into_iter().map(|(k, _)| k).collect();
        let b: Vec<f64> =
            incremental.range(lo, hi).unwrap().into_iter().map(|(k, _)| k).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn seek_is_lower_bound(
        mut keys in proptest::collection::vec(0.0f64..100.0, 1..200),
        probe in 0.0f64..100.0,
    ) {
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let entries: Vec<(f64, u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u64, 0)).collect();
        let tree = BPlusTree::bulk_load(pool(32), &entries).unwrap();
        let mut cur = tree.seek(probe).unwrap();
        let next = tree.cursor_next(&mut cur).unwrap();
        let expected = keys.iter().copied().find(|&k| k >= probe);
        prop_assert_eq!(next.map(|(k, _)| k), expected);
        // And the entry before the cursor is the last key < probe.
        let mut cur = tree.seek(probe).unwrap();
        let prev = tree.cursor_prev(&mut cur).unwrap();
        let expected_prev = keys.iter().copied().rfind(|&k| k < probe);
        prop_assert_eq!(prev.map(|(k, _)| k), expected_prev);
    }
}
