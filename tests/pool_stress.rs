//! Concurrency stress for the sharded buffer pool: many threads hammering
//! one shared index must get bit-identical answers to a serial run.
//!
//! The pool hands pages out as shared `Arc<Page>` handles, so query threads
//! hold no pool lock while computing distances. These tests are the
//! behavioural check behind that claim for every backend: 8 threads running
//! mixed `knn`/`range_search` traffic against one index, every result
//! compared against the serial answer by id and distance *bits*. A second
//! variant runs under severe eviction pressure (a 4-page pool) so frames
//! are constantly recycled underneath the readers.

use mmdr::core::{Mmdr, MmdrParams};
use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::idistance::{build_index, Backend};
use mmdr::index::VectorIndex;

const K: usize = 10;
const THREADS: usize = 8;

struct Fixture {
    data: mmdr::linalg::Matrix,
    model: mmdr::core::ReductionResult,
    queries: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let ds = generate_correlated(&CorrelatedConfig::paper_style(900, 24, 4, 6, 30.0, 77));
    let model = Mmdr::new(MmdrParams::default()).fit(&ds.data).unwrap();
    let queries: Vec<Vec<f64>> = sample_queries(&ds.data, 12, 5)
        .unwrap()
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    Fixture {
        data: ds.data,
        model,
        queries,
    }
}

/// `(distance bits, id)` image of a result row — exact comparison, no
/// float tolerance.
fn bits(rows: &[(f64, u64)]) -> Vec<(u64, u64)> {
    rows.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
}

/// The mixed workload: even queries run KNN, odd queries run a range search
/// whose radius is the query's own k-th neighbour distance (so every range
/// result is non-trivial).
enum Op {
    Knn,
    Range(f64),
}

fn serial_answers(index: &dyn VectorIndex, queries: &[Vec<f64>]) -> Vec<(Op, Vec<(u64, u64)>)> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 2 == 0 {
                (Op::Knn, bits(&index.knn(q, K).unwrap()))
            } else {
                let kth = index.knn(q, K).unwrap().last().unwrap().0;
                let radius = kth * 1.05;
                (
                    Op::Range(radius),
                    bits(&index.range_search(q, radius).unwrap()),
                )
            }
        })
        .collect()
}

/// 8 threads × `rounds` passes over the mixed workload, each result
/// bit-compared against the serial answer.
fn hammer(index: &dyn VectorIndex, queries: &[Vec<f64>], rounds: usize) {
    let serial = serial_answers(index, queries);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let serial = &serial;
            scope.spawn(move || {
                for round in 0..rounds {
                    // Different threads start at different offsets so the
                    // pool sees genuinely interleaved page demand.
                    for off in 0..queries.len() {
                        let i = (t + round + off) % queries.len();
                        let q = &queries[i];
                        let (op, want) = &serial[i];
                        let got = match op {
                            Op::Knn => bits(&index.knn(q, K).unwrap()),
                            Op::Range(r) => bits(&index.range_search(q, *r).unwrap()),
                        };
                        assert_eq!(
                            &got,
                            want,
                            "{} thread {t} query {i}: concurrent result \
                             diverges from serial",
                            index.name()
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_mixed_queries_match_serial_for_every_backend() {
    let fx = fixture();
    for backend in Backend::all() {
        let index = build_index(backend, &fx.data, &fx.model, 128).expect("build backend");
        hammer(index.as_dyn(), &fx.queries, 3);
    }
}

#[test]
fn concurrent_queries_survive_eviction_pressure() {
    // A 4-page pool cannot hold even one tree level: every thread's fetches
    // constantly evict the others' frames, exercising the clock sweep and
    // the shard locks. Answers must not care.
    let fx = fixture();
    for backend in Backend::all() {
        let index = build_index(backend, &fx.data, &fx.model, 4)
            .expect("build backend")
            .into_boxed();
        let before = index.query_stats();
        hammer(index.as_ref(), &fx.queries[..6], 2);
        assert!(
            index.query_stats().since(&before).pages_touched > 0,
            "{}: stress run recorded no page traffic",
            backend.name()
        );
    }
}
