//! KNN query latency across the three search schemes (the Figure 10 CPU
//! comparison as a microbenchmark) plus dynamic insertion.

use criterion::{criterion_group, criterion_main, Criterion};
use mmdr_bench::{eval, workloads, Method};
use mmdr_idistance::{GlobalLdrIndex, IDistanceConfig, IDistanceIndex, SeqScan, VectorIndex};
use std::hint::black_box;

fn bench_knn_schemes(c: &mut Criterion) {
    let ds = workloads::synthetic(8_000, 64, 10, 30.0, 5);
    let mmdr_model = eval::reduce(Method::Mmdr, &ds.data, None, 10, 0);
    let ldr_model = eval::reduce(Method::Ldr, &ds.data, None, 10, 0);
    let q = ds.data.row(17).to_vec();

    let mut group = c.benchmark_group("knn_10_of_8k_64d");
    group.sample_size(20);
    let immdr = IDistanceIndex::build(
        &ds.data,
        &mmdr_model,
        IDistanceConfig {
            buffer_pages: 1 << 14,
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("iMMDR", |b| {
        b.iter(|| black_box(immdr.knn(&q, 10).unwrap()))
    });

    let ildr = IDistanceIndex::build(
        &ds.data,
        &ldr_model,
        IDistanceConfig {
            buffer_pages: 1 << 14,
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("iLDR", |b| b.iter(|| black_box(ildr.knn(&q, 10).unwrap())));

    let gldr = GlobalLdrIndex::build(&ds.data, &ldr_model, 1 << 14).unwrap();
    group.bench_function("gLDR", |b| b.iter(|| black_box(gldr.knn(&q, 10).unwrap())));

    let scan = SeqScan::build(&ds.data, &mmdr_model, 1 << 14).unwrap();
    group.bench_function("seq-scan", |b| {
        b.iter(|| black_box(scan.knn(&q, 10).unwrap()))
    });
    group.finish();
}

fn bench_dynamic_insert(c: &mut Criterion) {
    let ds = workloads::synthetic(4_000, 32, 6, 30.0, 9);
    let model = eval::reduce(Method::Mmdr, &ds.data, None, 10, 0);
    let mut index = IDistanceIndex::build(&ds.data, &model, IDistanceConfig::default()).unwrap();
    let point = ds.data.row(100).to_vec();
    let mut id = 1_000_000u64;
    c.bench_function("idistance_insert_32d", |b| {
        b.iter(|| {
            id += 1;
            index.insert(black_box(&point), id).unwrap()
        });
    });
}

criterion_group!(benches, bench_knn_schemes, bench_dynamic_insert);
criterion_main!(benches);
