//! Microbenchmarks for the linear-algebra substrate: the `O(d²)`/`O(d³)`
//! kernels whose scaling drives Figure 11b's near-quadratic TRT curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmdr_linalg::{covariance, Cholesky, Matrix, SymmetricEigen};
use std::hint::black_box;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Matrix::from_fn(n, d, |_, _| rand())
}

fn spd(d: usize, seed: u64) -> Matrix {
    let a = random_data(d + 8, d, seed);
    covariance(&a).unwrap()
}

fn bench_covariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("covariance");
    for &d in &[16usize, 64, 128] {
        let data = random_data(2_000, d, 1);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| covariance(black_box(&data)).unwrap());
        });
    }
    group.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric_eigen");
    group.sample_size(10);
    for &d in &[16usize, 64, 128] {
        let m = spd(d, 2);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| SymmetricEigen::new(black_box(&m)).unwrap());
        });
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    for &d in &[16usize, 64, 128] {
        let m = spd(d, 3);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| Cholesky::new(black_box(&m)).unwrap());
        });
    }
    group.finish();
}

fn bench_quadratic_form(c: &mut Criterion) {
    // The elliptical k-means inner-loop kernel.
    let m = spd(32, 4);
    let ch = Cholesky::new(&m).unwrap();
    let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.1).collect();
    let mut y = vec![0.0; 32];
    c.bench_function("mahalanobis_quadratic_form_32d", |b| {
        b.iter(|| {
            y.copy_from_slice(black_box(&x));
            ch.quadratic_form(&mut y).unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_covariance,
    bench_eigen,
    bench_cholesky,
    bench_quadratic_form
);
criterion_main!(benches);
