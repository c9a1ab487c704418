//! Inputs. The program under test sees only what these functions return.
//!
//! The two corpora, the 256 queries, the attribute column and the state the
//! count phase runs on are constants of the benchmark, as SIFT or GIST and
//! their query files are for an ANN benchmark: the counts (`page_fetches_
//! per_op`, `dists_per_op`, `precision_at_k`, `bytes_per_row`) are then the
//! same number on every run of the same code, whatever the seed, and a
//! change of a tenth of a percent is a change of the program. `--seed`
//! draws what the measured window asks: the order the queries come in, the
//! order of the insert stream and the ids deleted.
//!
//! Drawing the points from the seed as well was tried and dropped: on the
//! same cluster layout `Mmdr::fit` takes 0.69 s for one draw of D2 and
//! 1.91 s for the next (k-means takes another path), and 0.36 s against
//! 0.47 s on D1. That is a property of the draw, not of the code; it put a
//! 39 % spread on `fit_build` and is what moved `setup_s` of the earlier
//! attempt by 10-19 % between two sets of runs.

use mmdr_datagen::{exact_knn, generate_correlated, sample_queries, CorrelatedConfig};
use mmdr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const K: usize = 10;
pub const NUM_QUERIES: usize = 256;

/// Cluster layout (centres, retained blocks) and sample of both corpora,
/// and the draw of everything else that is a constant.
const LAYOUT_SEED: u64 = 7;
const SAMPLE_SEED: u64 = 1;

const D1_ROWS: usize = 25_000;
const D1_DIM: usize = 32;
const D1_CLUSTERS: usize = 5;
/// Rows held out of D1 per run as the insert stream of `ingest_mixed`.
const D1_POOL: usize = 8_000;

const D2_ROWS: usize = 12_500;
const D2_DIM: usize = 64;
const D2_CLUSTERS: usize = 10;

/// `max_ec` for D1 and D2: the number of clusters the data has.
pub const D1_MAX_EC: usize = D1_CLUSTERS;
pub const D2_MAX_EC: usize = D2_CLUSTERS;

/// D1 and the rows held out of it.
pub struct Corpus {
    /// 25 000 x 32, five correlated clusters of 5 000 rows.
    pub base: Matrix,
    /// 8 000 more rows of the same five clusters: the insert stream. The
    /// first `fixed` rows come in the same order on every run (the count
    /// phase of `ingest_mixed` inserts them), the rest in an order drawn
    /// from the seed.
    pub pool: Matrix,
}

/// D1. Each cluster is generated with `(D1_ROWS + D1_POOL) / 5` rows; the
/// first 5 000 are indexed, the rest are held out as the insert stream. A
/// second call to the generator would not do: it would draw new
/// orientations, and the "fresh" rows would lie off every fitted subspace.
pub fn d1(seed: u64, fixed: usize) -> Corpus {
    let per = (D1_ROWS + D1_POOL) / D1_CLUSTERS;
    let keep = D1_ROWS / D1_CLUSTERS;
    let mut cfg = CorrelatedConfig::paper_style(
        per * D1_CLUSTERS,
        D1_DIM,
        D1_CLUSTERS,
        12,
        30.0,
        LAYOUT_SEED,
    );
    cfg.seed = SAMPLE_SEED;
    let all = generate_correlated(&cfg).data;
    let base: Vec<usize> = (0..D1_CLUSTERS)
        .flat_map(|c| c * per..c * per + keep)
        .collect();
    let mut pool: Vec<usize> = (0..D1_CLUSTERS)
        .flat_map(|c| c * per + keep..(c + 1) * per)
        .collect();
    shuffle(&mut pool, SAMPLE_SEED);
    shuffle(&mut pool[fixed..], seed ^ 0x9001);
    Corpus {
        base: all.select_rows(&base),
        pool: all.select_rows(&pool),
    }
}

/// D2: 12 500 x 64, ten clusters: the paper's algorithm at another width
/// and cluster count, on the same layout and sample seeds as D1.
pub fn d2() -> Matrix {
    let mut cfg =
        CorrelatedConfig::paper_style(D2_ROWS, D2_DIM, D2_CLUSTERS, 12, 30.0, LAYOUT_SEED);
    cfg.seed = SAMPLE_SEED;
    generate_correlated(&cfg).data
}

pub fn queries(data: &Matrix) -> Vec<Vec<f64>> {
    sample_queries(data, NUM_QUERIES, SAMPLE_SEED)
        .expect("the corpus is not empty")
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect()
}

/// The order the window asks the queries in: `0..NUM_QUERIES`, shuffled.
pub fn window_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..NUM_QUERIES).collect();
    shuffle(&mut order, seed ^ 0x51);
    order
}

/// Ids of the exact `K` nearest rows of `data` in the original space.
pub fn exact_ids(data: &Matrix, queries: &[Vec<f64>]) -> Vec<Vec<usize>> {
    queries
        .iter()
        .map(|q| exact_knn(data, q, K).into_iter().map(|(_, i)| i).collect())
        .collect()
}

/// Exact `K` nearest among the `(id, row)` pairs `keep` lets through, by
/// linear scan; ties go to the smaller id, as `exact_knn` breaks them.
pub fn exact_ids_among(
    rows: &[(u64, &[f64])],
    query: &[f64],
    keep: impl Fn(u64) -> bool,
) -> Vec<usize> {
    let mut best: Vec<(f64, u64)> = Vec::with_capacity(K + 1);
    for &(id, row) in rows.iter().filter(|(id, _)| keep(*id)) {
        let hit = (mmdr_linalg::l2_dist_sq(row, query), id);
        if best.len() < K || hit < best[K - 1] {
            let at = best.partition_point(|b| *b < hit);
            best.insert(at, hit);
            best.truncate(K);
        }
    }
    best.into_iter().map(|(_, id)| id as usize).collect()
}

/// The attribute column of `filtered_knn`: uniform in `0..VIEWS_RANGE`,
/// so `views < cut` has selectivity `cut / VIEWS_RANGE`.
pub const VIEWS_RANGE: i64 = 1_000_000;

pub fn views_column(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED ^ 0xA77);
    (0..n).map(|_| rng.gen_range(0..VIEWS_RANGE)).collect()
}

/// An order of the base ids; `ingest_mixed` deletes along it. The first
/// `fixed` are the same on every run, the rest drawn from the seed.
pub fn delete_order(n: usize, seed: u64, fixed: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    shuffle(&mut ids, SAMPLE_SEED ^ 0xDE1);
    shuffle(&mut ids[fixed..], seed ^ 0xDE1);
    ids
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
