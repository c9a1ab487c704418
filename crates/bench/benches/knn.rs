//! KNN query latency across the three search schemes (the Figure 10 CPU
//! comparison as a microbenchmark), the per-candidate kernel of the
//! iDistance search on its own, and the same search under a filter with its
//! id column empty and learned.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmdr::index::{Query, RowFilter, Scratch, SearchFilter, Target};
use mmdr_bench::{eval, workloads, Method};
use mmdr_btree::{BPlusTree, Cursor};
use mmdr_idistance::{GlobalLdrIndex, IDistanceIndex, RecordIds, SeqScan, VectorIndex};
use mmdr_storage::PageSet;
use std::hint::black_box;
use std::ops::Range;

fn bench_knn_schemes(c: &mut Criterion) {
    let ds = workloads::synthetic(8_000, 64, 10, 30.0, 5);
    let mmdr_model = eval::reduce(Method::Mmdr, &ds.data, None, 10, 0);
    let ldr_model = eval::reduce(Method::Ldr, &ds.data, None, 10, 0);
    let q = ds.data.row(17).to_vec();

    let mut group = c.benchmark_group("knn_10_of_8k_64d");
    group.sample_size(20);
    let immdr = IDistanceIndex::build(&ds.data, &mmdr_model, 1 << 14).unwrap();
    group.bench_function("iMMDR", |b| {
        b.iter(|| black_box(immdr.knn(&q, 10).unwrap()))
    });

    let ildr = IDistanceIndex::build(&ds.data, &ldr_model, 1 << 14).unwrap();
    group.bench_function("iLDR", |b| b.iter(|| black_box(ildr.knn(&q, 10).unwrap())));

    let gldr = GlobalLdrIndex::build(&ds.data, &ldr_model, 1 << 14).unwrap();
    group.bench_function("gLDR", |b| b.iter(|| black_box(gldr.knn(&q, 10).unwrap())));

    let scan = SeqScan::build(&ds.data, &mmdr_model, 1 << 14).unwrap();
    group.bench_function("seq-scan", |b| {
        b.iter(|| black_box(scan.knn(&q, 10).unwrap()))
    });
    group.finish();
}

/// What one candidate of `IDistanceIndex::search_impl` costs, stage by
/// stage, on the index's own pages: one walk over the biggest partition's
/// key slot per sample (divide the reported time by the candidate count in
/// the name for ns per candidate). Each stage includes the ones before it,
/// as the search runs them: step the leaf cursor; read the entry's cell
/// code and bound its distance from the query's gap table (what a row the
/// code rules out costs — the table is built once a walk, as once a started
/// partition); resolve the entry's position to its record through the
/// partition's placement table, locate that on the pinned heap page and
/// read its id (what a row the gate rejects costs); decode the coordinates
/// and evaluate the distance (what a row it admits costs, short of the
/// result heap).
fn bench_candidate_path(c: &mut Criterion) {
    let ds = workloads::synthetic(8_000, 64, 10, 30.0, 5);
    let model = eval::reduce(Method::Mmdr, &ds.data, None, 10, 0);
    let index = IDistanceIndex::build(&ds.data, &model, 1 << 14).unwrap();
    let (part, info) = index
        .partitions()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.subspace.is_some())
        .max_by_key(|(_, p)| p.count)
        .expect("the model has a cluster");
    let subspace = info.subspace.as_ref().expect("filtered above");
    let q = ds.data.row(17);
    let q_local = subspace.project(q).unwrap();
    let proj_sq = subspace.proj_dist(q).unwrap().powi(2);
    // The partition's entries follow the ones before it, and its keys
    // start at `part · c`.
    let first: u64 = index.partitions()[..part]
        .iter()
        .map(|p| p.count as u64)
        .sum();
    let slot = (part as f64 * index.c(), first..first + info.count as u64);
    let (tree, heap) = (index.tree(), index.heap());

    // The walk every stage shares: `visit` sees each entry of the partition,
    // left by position as the search leaves it (generic, so the stage
    // inlines into the loop as it does in the search).
    fn walk_slot(
        tree: &BPlusTree,
        (lo, run): &(f64, Range<u64>),
        mut visit: impl FnMut(u64, &Cursor),
    ) {
        let mut cursor = tree.seek(*lo).unwrap();
        while let Some((_, position)) = tree.cursor_next(&mut cursor).unwrap() {
            if position >= run.end {
                break;
            }
            if position >= run.start {
                visit(position, &cursor);
            }
        }
    }
    let book = info.codebook.as_ref().expect("the partition has rows");
    // The partition's placement table, learned as the search's open does.
    index.record_id(first).unwrap();
    let mut group = c.benchmark_group("candidate_path");
    group.sample_size(200);
    group.bench_function(BenchmarkId::new("leaf_step", info.count), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            walk_slot(tree, &slot, |position, _| acc ^= position);
            acc
        })
    });
    group.bench_function(BenchmarkId::new("leaf_step+code_bound", info.count), |b| {
        b.iter(|| {
            let (mut gaps, mut far, mut acc) = (Vec::new(), Vec::new(), 0.0);
            book.gaps_into(black_box(&q_local), &mut gaps, &mut far);
            // The radicand is what the search compares: no root per entry.
            walk_slot(tree, &slot, |_, cursor| {
                acc += proj_sq + book.gap_sq(&gaps, cursor.code())
            });
            acc
        })
    });
    group.bench_function(BenchmarkId::new("+record_id", info.count), |b| {
        b.iter(|| {
            let (mut ids, mut pages, mut acc) = (RecordIds::default(), PageSet::default(), 0u64);
            walk_slot(tree, &slot, |position, _| {
                let rid = ids.get(&index, position);
                acc ^= heap.record(&mut pages, rid).unwrap().1.point_id()
            });
            acc
        })
    });
    group.bench_function(BenchmarkId::new("+decode+distance", info.count), |b| {
        b.iter(|| {
            let (mut ids, mut pages) = (RecordIds::default(), PageSet::default());
            let (mut coords, mut acc) = (Vec::new(), 0.0);
            walk_slot(tree, &slot, |position, _| {
                let rid = ids.get(&index, position);
                let (_, record) = heap.record(&mut pages, rid).unwrap();
                record.coords_into(&mut coords);
                acc += mmdr_linalg::reduced_dist(proj_sq, black_box(&q_local), &coords);
            });
            acc
        })
    });
    group.finish();
}

/// A filtered 10-NN search at 1, 10 and 60 % selectivity, `cold` — the
/// first filtered query an index sees, which pins every candidate's page
/// as an unfiltered one does and learns it — against `warm` — the same
/// query once the id column holds the pages in reach, pinning only for
/// rows that pass. Every page is resident either way (the difference is
/// fetches and id reads, not I/O), and both take another index on every
/// call, so neither runs from a processor cache the other does not have.
fn bench_filtered_candidate_path(c: &mut Criterion) {
    const SAMPLES: usize = 10;
    let ds = workloads::synthetic(8_000, 64, 10, 30.0, 5);
    let model = eval::reduce(Method::Mmdr, &ds.data, None, 10, 0);
    let build = || IDistanceIndex::build(&ds.data, &model, 1 << 11).unwrap();
    let q = ds.data.row(17);
    let n = ds.data.rows() as u64;

    let mut group = c.benchmark_group("filtered_candidate_path");
    group.sample_size(SAMPLES);
    for percent in [1u64, 10, 60] {
        let filter = SearchFilter::from_rows(RowFilter::from_fn(n, |id| id % 100 < percent));
        let query = Query {
            vector: q,
            target: Target::Knn(10),
            filter: Some(&filter),
        };
        let ask = |index: &IDistanceIndex| index.search(&query, &mut Scratch::default()).unwrap();
        // One index per call (the samples and the warm-up), each asked once.
        let mut unasked: Vec<IDistanceIndex> = (0..=SAMPLES).map(|_| build()).collect();
        let mut asked = Vec::new();
        group.bench_function(BenchmarkId::new("cold", format!("sel{percent}")), |b| {
            b.iter(|| {
                asked.push(unasked.pop().expect("one index per call"));
                ask(asked.last().expect("pushed above"))
            })
        });
        let mut again = asked.iter().cycle();
        group.bench_function(BenchmarkId::new("warm", format!("sel{percent}")), |b| {
            b.iter(|| ask(again.next().expect("a cycle does not end")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_knn_schemes,
    bench_candidate_path,
    bench_filtered_candidate_path
);
criterion_main!(benches);
