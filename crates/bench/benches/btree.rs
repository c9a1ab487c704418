//! Microbenchmarks for the paged B⁺-tree: the extended iDistance's base
//! structure (bulk load, seek, range scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmdr_btree::BPlusTree;
use std::hint::black_box;

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree_bulk_load");
    group.sample_size(10);
    for &n in &[10_000u64, 100_000] {
        let entries: Vec<(f64, u64)> = (0..n).map(|i| (i as f64, i)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(BPlusTree::bulk_load(4096, &entries).unwrap().len()));
        });
    }
    group.finish();
}

fn bench_seek(c: &mut Criterion) {
    let entries: Vec<(f64, u64)> = (0..100_000u64).map(|i| (i as f64, i)).collect();
    let tree = BPlusTree::bulk_load(4096, &entries).unwrap();
    let mut i = 0u64;
    c.bench_function("btree_seek_100k", |b| {
        b.iter(|| {
            i = (i * 6364136223846793005).wrapping_add(1442695040888963407);
            let key = (i % 100_000) as f64;
            black_box(tree.seek(key).unwrap())
        });
    });
}

fn bench_range_scan(c: &mut Criterion) {
    let entries: Vec<(f64, u64)> = (0..100_000u64).map(|i| (i as f64, i)).collect();
    let tree = BPlusTree::bulk_load(4096, &entries).unwrap();
    // A cursor walk from a seek to the first cell past the range's end.
    c.bench_function("btree_range_1000_of_100k", |b| {
        b.iter(|| {
            let mut cursor = tree.seek(40_000.0).unwrap();
            let mut hits = 0;
            while let Some((lo, _)) = tree.cursor_next(&mut cursor).unwrap() {
                if lo > 41_000.0 {
                    break;
                }
                hits += 1;
            }
            black_box(hits)
        });
    });
}

criterion_group!(benches, bench_bulk_load, bench_seek, bench_range_scan);
criterion_main!(benches);
