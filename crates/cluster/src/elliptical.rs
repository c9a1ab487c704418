//! Elliptical k-means — nested-loop clustering with the normalized
//! Mahalanobis distance (paper §2, §4.1; Sung & Poggio's method).
//!
//! Structure (paper's description):
//! - **inner loop** — k-means-style reassignment using the normalized
//!   Mahalanobis distance with every cluster's covariance held fixed;
//!   centroids are re-averaged after each pass; stops when membership is
//!   stable.
//! - **outer loop** — re-estimates each cluster's covariance matrix from its
//!   current members; stops when an entire inner convergence produces no
//!   membership change.
//!
//! The §4.2 optimizations are integrated and individually switchable:
//! - **lookup table** (`lookup_k`) — per point, remember the IDs of the `k`
//!   closest centroids from the previous full evaluation; later iterations
//!   compute distances only against those. An entry is refreshed (with a
//!   full evaluation) only when the point's membership changes.
//! - **Activity field** (`activity_threshold`) — count the consecutive
//!   iterations in which a point kept its membership; past the threshold the
//!   point is *inactive* and skipped entirely.
//!
//! The engine counts every Mahalanobis evaluation in
//! [`EllipticalResult::distance_computations`] so the ablation benchmark can
//! show the optimizations' effect directly.

use crate::assignment::{Cluster, Clustering};
use crate::error::{Error, Result};
use mmdr_linalg::{map_ranges, Cholesky, Matrix, ParConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ridge added (scaled by matrix magnitude) before factorizing cluster
/// covariances. Degenerate clusters — fewer members than dimensions, or
/// exactly coplanar members — are routine during the early iterations of
/// elliptical k-means, so regularization is unconditional.
const COVARIANCE_RIDGE: f64 = 1e-6;

/// Configuration for [`EllipticalKMeans`].
#[derive(Debug, Clone)]
pub struct EllipticalConfig {
    /// Number of clusters (the paper's `MaxEC`, default 10 in Table 1).
    pub k: usize,
    /// Cap on outer (covariance re-estimation) iterations.
    pub max_outer: usize,
    /// Cap on inner (reassignment) iterations per outer round.
    pub max_inner: usize,
    /// Seed for the k-means++ style initialization.
    pub seed: u64,
    /// `Some(k)` enables the §4.2 lookup table with `k` remembered centroid
    /// IDs (Table 1 default: 3). `None` disables it.
    pub lookup_k: Option<usize>,
    /// `Some(t)` freezes a point after `t` iterations without a membership
    /// change (§6.3 uses 10). `None` disables the Activity optimization.
    pub activity_threshold: Option<u32>,
    /// Thread count for the assignment and sufficient-statistics passes.
    /// Results are bit-identical for every value (chunk-and-merge; see
    /// `mmdr_linalg::par`).
    pub par: ParConfig,
}

impl Default for EllipticalConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_outer: 20,
            max_inner: 30,
            seed: 0,
            lookup_k: Some(3),
            activity_threshold: Some(10),
            par: ParConfig::serial(),
        }
    }
}

/// Result of an elliptical k-means run.
#[derive(Debug, Clone)]
pub struct EllipticalResult {
    /// Final clustering; empty clusters are pruned and assignments remapped.
    pub clustering: Clustering,
    /// Outer iterations executed.
    pub outer_iterations: usize,
    /// Total inner iterations across all outer rounds.
    pub inner_iterations: usize,
    /// Number of normalized-Mahalanobis evaluations performed.
    pub distance_computations: u64,
    /// Whether the outer loop converged before its cap.
    pub converged: bool,
}

/// The elliptical k-means engine.
#[derive(Debug, Clone)]
pub struct EllipticalKMeans {
    config: EllipticalConfig,
}

/// Per-cluster state during iteration: centroid plus the Cholesky factor of
/// the covariance fixed for the current outer round.
struct ClusterState {
    centroid: Vec<f64>,
    chol: Cholesky,
    log_det: f64,
}

impl ClusterState {
    /// The normalized Mahalanobis distance, with `diff` (`d` long) as the
    /// scratch the difference and its forward substitution are written to.
    fn norm_maha_dist(&self, point: &[f64], d_ln_2pi: f64, diff: &mut [f64]) -> f64 {
        for (o, (p, c)) in diff.iter_mut().zip(point.iter().zip(&self.centroid)) {
            *o = p - c;
        }
        let q = self
            .chol
            .quadratic_form(diff)
            .expect("dims checked at fit entry");
        0.5 * (d_ln_2pi + self.log_det + q)
    }
}

/// The buffers one chunk of the reassignment pass reuses for every point.
struct Scratch {
    /// The difference to a centroid, then its forward substitution.
    diff: Vec<f64>,
    /// A full evaluation's `(cluster, distance)` pairs, sorted.
    dists: Vec<(usize, f64)>,
    /// Mahalanobis evaluations made.
    evals: u64,
}

impl EllipticalKMeans {
    /// Creates an engine, validating the configuration.
    pub fn new(config: EllipticalConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(Error::InvalidConfig("k must be > 0"));
        }
        if config.max_outer == 0 || config.max_inner == 0 {
            return Err(Error::InvalidConfig("iteration caps must be > 0"));
        }
        if config.lookup_k == Some(0) {
            return Err(Error::InvalidConfig("lookup_k must be > 0 when enabled"));
        }
        Ok(Self { config })
    }

    /// Clusters a dataset (rows are points) with unit weights.
    pub fn fit(&self, data: &Matrix) -> Result<EllipticalResult> {
        self.fit_impl(data, None)
    }

    /// Clusters with per-point weights (used by the streaming §4.3 path,
    /// where each "point" is a sub-ellipsoid centroid carrying its size).
    pub fn fit_weighted(&self, data: &Matrix, weights: &[f64]) -> Result<EllipticalResult> {
        if weights.len() != data.rows() {
            return Err(Error::WeightMismatch {
                points: data.rows(),
                weights: weights.len(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(Error::InvalidConfig("weights must be positive and finite"));
        }
        self.fit_impl(data, Some(weights))
    }

    fn fit_impl(&self, data: &Matrix, weights: Option<&[f64]>) -> Result<EllipticalResult> {
        let n = data.rows();
        if n == 0 {
            return Err(Error::EmptyDataset);
        }
        let k = self.config.k.min(n); // fewer points than clusters: degrade
        let d = data.cols();
        let d_ln_2pi = d as f64 * (2.0 * std::f64::consts::PI).ln();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Initial centroids: k-means++ style (Euclidean) for spread; initial
        // covariance: the global covariance's average variance times I, so
        // the first Mahalanobis round starts isotropic.
        let mut centroids = seed_centroids(data, k, &mut rng);
        let global_cov = mmdr_linalg::covariance(data)?;
        let iso = (global_cov.trace()? / d as f64).max(1e-12);
        let mut covariances: Vec<Matrix> = (0..k).map(|_| Matrix::identity(d).scale(iso)).collect();

        let mut assignments = vec![usize::MAX; n];
        let mut activity = vec![0u32; n];
        // The §4.2 lookup table, `width` centroid IDs a point, flat; a row
        // starting with `usize::MAX` has had no full evaluation yet.
        let width = self.config.lookup_k.map_or(0, |lk| lk.min(k));
        let mut lookup = vec![usize::MAX; n * width];
        let mut dist_computations: u64 = 0;
        let mut outer_iterations = 0;
        let mut inner_iterations = 0;
        let mut converged = false;

        for outer in 0..self.config.max_outer {
            outer_iterations = outer + 1;
            // Fix covariances for this round.
            let mut states: Vec<ClusterState> = centroids
                .iter()
                .zip(&covariances)
                .map(|(c, cov)| {
                    let chol = Cholesky::new_regularized(cov, COVARIANCE_RIDGE)?;
                    let log_det = chol.log_determinant();
                    Ok(ClusterState {
                        centroid: c.clone(),
                        chol,
                        log_det,
                    })
                })
                .collect::<Result<_>>()?;

            let mut outer_changed = false;
            for inner in 0..self.config.max_inner {
                inner_iterations += 1;
                let full_pass = inner == 0 && outer == 0;

                // Reassignment pass. Each point's decision depends only on
                // the pre-pass arrays and the fixed cluster states, so the
                // pass parallelizes by chunking points: workers read the
                // shared arrays and emit per-point outcomes, which the main
                // thread writes back in chunk order.
                let chunk_outcomes = map_ranges(n, &self.config.par, |range| {
                    let mut updates = Vec::with_capacity(range.len());
                    let mut fresh = vec![usize::MAX; range.len() * width];
                    let mut scratch = Scratch {
                        diff: vec![0.0; d],
                        dists: Vec::with_capacity(k),
                        evals: 0,
                    };
                    let mut changed = false;
                    for (j, i) in range.enumerate() {
                        let outcome = assign_point(
                            &states,
                            data.row(i),
                            d_ln_2pi,
                            self.config.activity_threshold,
                            full_pass,
                            assignments[i],
                            activity[i],
                            &lookup[i * width..(i + 1) * width],
                            &mut fresh[j * width..(j + 1) * width],
                            &mut scratch,
                        );
                        changed |= outcome.changed;
                        updates.push(outcome);
                    }
                    (updates, fresh, scratch.evals, changed)
                });
                let mut inner_changed = false;
                let mut i = 0;
                for (updates, fresh, dists, changed) in chunk_outcomes {
                    dist_computations += dists;
                    inner_changed |= changed;
                    for (j, u) in updates.into_iter().enumerate() {
                        assignments[i] = u.assign;
                        activity[i] = u.activity;
                        if u.refreshed {
                            lookup[i * width..(i + 1) * width]
                                .copy_from_slice(&fresh[j * width..(j + 1) * width]);
                        }
                        i += 1;
                    }
                }

                if inner_changed {
                    outer_changed = true;
                } else {
                    break; // inner loop converged
                }
                // Update centroids with covariances still fixed.
                update_centroids(
                    data,
                    weights,
                    &assignments,
                    &mut centroids,
                    &mut rng,
                    &self.config.par,
                );
                for (s, c) in states.iter_mut().zip(&centroids) {
                    s.centroid.clone_from(c);
                }
            }

            // Outer step: re-estimate covariances from current membership.
            update_centroids(
                data,
                weights,
                &assignments,
                &mut centroids,
                &mut rng,
                &self.config.par,
            );
            update_covariances(
                data,
                weights,
                &assignments,
                &centroids,
                &mut covariances,
                &self.config.par,
            )?;

            if !outer_changed {
                converged = true;
                break;
            }
        }

        let clustering = materialize(weights, &assignments, &centroids);
        Ok(EllipticalResult {
            clustering,
            outer_iterations,
            inner_iterations,
            distance_computations: dist_computations,
            converged,
        })
    }
}

/// One point's reassignment outcome (`refreshed` when the pass performed a
/// full evaluation that wrote the point's new lookup row).
struct PointOutcome {
    assign: usize,
    activity: u32,
    refreshed: bool,
    changed: bool,
}

/// The per-point body of the reassignment pass. Pure in the pre-pass state
/// (`cur_*`), which is what makes the pass safe to chunk across threads.
/// `cur_lookup` is the point's lookup row and `new_lookup` where a full
/// evaluation writes its replacement (both empty without the table).
#[allow(clippy::too_many_arguments)]
fn assign_point(
    states: &[ClusterState],
    point: &[f64],
    d_ln_2pi: f64,
    activity_threshold: Option<u32>,
    full_pass: bool,
    cur_assign: usize,
    cur_activity: u32,
    cur_lookup: &[usize],
    new_lookup: &mut [usize],
    scratch: &mut Scratch,
) -> PointOutcome {
    if let Some(t) = activity_threshold {
        if cur_activity >= t {
            // Inactive point: frozen (§4.2).
            return PointOutcome {
                assign: cur_assign,
                activity: cur_activity,
                refreshed: false,
                changed: false,
            };
        }
    }
    let use_lookup = !full_pass && cur_lookup.first().is_some_and(|&c| c != usize::MAX);
    let best = if use_lookup {
        best_among(states, point, d_ln_2pi, cur_lookup, scratch)
    } else {
        best_with_order(states, point, d_ln_2pi, new_lookup, scratch)
    };
    let refreshed = !new_lookup.is_empty();
    if cur_assign == best {
        return PointOutcome {
            assign: cur_assign,
            activity: cur_activity.saturating_add(1),
            refreshed: refreshed && !use_lookup,
            changed: false,
        };
    }
    // Membership change: refresh the lookup entry with a full evaluation
    // (paper: entries update only on membership change) and reset the
    // Activity counter.
    let assign = if use_lookup {
        best_with_order(states, point, d_ln_2pi, new_lookup, scratch)
    } else {
        best
    };
    let changed = cur_assign != assign;
    PointOutcome {
        assign,
        activity: if changed {
            0
        } else {
            cur_activity.saturating_add(1)
        },
        refreshed,
        changed,
    }
}

/// Best cluster among an explicit candidate set.
fn best_among(
    states: &[ClusterState],
    point: &[f64],
    d_ln_2pi: f64,
    candidates: &[usize],
    scratch: &mut Scratch,
) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for &c in candidates {
        scratch.evals += 1;
        let d = states[c].norm_maha_dist(point, d_ln_2pi, &mut scratch.diff);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Full evaluation over all clusters; writes the IDs of the closest
/// centroids (the best first) into `order`, the point's new lookup row.
fn best_with_order(
    states: &[ClusterState],
    point: &[f64],
    d_ln_2pi: f64,
    order: &mut [usize],
    scratch: &mut Scratch,
) -> usize {
    let Scratch { diff, dists, evals } = scratch;
    dists.clear();
    for (c, s) in states.iter().enumerate() {
        *evals += 1;
        dists.push((c, s.norm_maha_dist(point, d_ln_2pi, diff)));
    }
    dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    for (o, &(c, _)) in order.iter_mut().zip(dists.iter()) {
        *o = c;
    }
    dists[0].0
}

fn seed_centroids(data: &Matrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    // Reuse the k-means++ spreading logic from the Euclidean engine.
    let n = data.rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data.row(rng.gen_range(0..n)).to_vec());
    let mut dist_sq: Vec<f64> = data
        .iter_rows()
        .map(|p| mmdr_linalg::l2_dist_sq(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = data.row(next).to_vec();
        for (i, p) in data.iter_rows().enumerate() {
            dist_sq[i] = dist_sq[i].min(mmdr_linalg::l2_dist_sq(p, &c));
        }
        centroids.push(c);
    }
    centroids
}

/// Weighted centroid update; empty clusters are reseeded at a random point.
///
/// Per-cluster sums accumulate per fixed-size chunk and merge in chunk
/// order, so the result is bit-identical for every thread count; the
/// rng-consuming empty-cluster reseed runs on the calling thread in cluster
/// order.
fn update_centroids(
    data: &Matrix,
    weights: Option<&[f64]>,
    assignments: &[usize],
    centroids: &mut [Vec<f64>],
    rng: &mut StdRng,
    par: &ParConfig,
) {
    let k = centroids.len();
    let d = data.cols();
    let partials = map_ranges(data.rows(), par, |range| {
        let mut sums = vec![vec![0.0; d]; k];
        let mut totals = vec![0.0f64; k];
        for i in range {
            let a = assignments[i];
            if a == usize::MAX {
                continue;
            }
            let w = weights.map_or(1.0, |ws| ws[i]);
            mmdr_linalg::axpy(w, data.row(i), &mut sums[a]);
            totals[a] += w;
        }
        (sums, totals)
    });
    let (sums, totals) = partials
        .into_iter()
        .reduce(|(mut sums, mut totals), (s, t)| {
            for (acc, part) in sums.iter_mut().zip(&s) {
                mmdr_linalg::add_assign(acc, part);
            }
            for (acc, part) in totals.iter_mut().zip(&t) {
                *acc += part;
            }
            (sums, totals)
        })
        .expect("non-empty data yields at least one chunk");
    for c in 0..k {
        if totals[c] > 0.0 {
            let inv = 1.0 / totals[c];
            centroids[c] = sums[c].iter().map(|s| s * inv).collect();
        } else {
            centroids[c] = data.row(rng.gen_range(0..data.rows())).to_vec();
        }
    }
}

/// Weighted covariance re-estimation (the outer-loop step), chunk-and-merge
/// parallel like [`update_centroids`].
fn update_covariances(
    data: &Matrix,
    weights: Option<&[f64]>,
    assignments: &[usize],
    centroids: &[Vec<f64>],
    covariances: &mut [Matrix],
    par: &ParConfig,
) -> Result<()> {
    let k = centroids.len();
    let d = data.cols();
    let partials = map_ranges(data.rows(), par, |range| {
        let mut accum = vec![Matrix::zeros(d, d); k];
        let mut totals = vec![0.0f64; k];
        let mut centred = vec![0.0; d];
        for i in range {
            let a = assignments[i];
            if a == usize::MAX {
                continue;
            }
            let point = data.row(i);
            let w = weights.map_or(1.0, |ws| ws[i]);
            for (c, (x, m)) in centred.iter_mut().zip(point.iter().zip(&centroids[a])) {
                *c = x - m;
            }
            let acc = &mut accum[a];
            for r in 0..d {
                let cr = centred[r] * w;
                if cr == 0.0 {
                    continue;
                }
                for col in r..d {
                    acc[(r, col)] += cr * centred[col];
                }
            }
            totals[a] += w;
        }
        (accum, totals)
    });
    let (mut accum, totals) = partials
        .into_iter()
        .reduce(|(mut accum, mut totals), (m, t)| {
            for (acc, part) in accum.iter_mut().zip(&m) {
                for r in 0..d {
                    for col in r..d {
                        acc[(r, col)] += part[(r, col)];
                    }
                }
            }
            for (acc, part) in totals.iter_mut().zip(&t) {
                *acc += part;
            }
            (accum, totals)
        })
        .expect("non-empty data yields at least one chunk");
    for c in 0..k {
        if totals[c] > 0.0 {
            let inv = 1.0 / totals[c];
            for r in 0..d {
                for col in r..d {
                    let v = accum[c][(r, col)] * inv;
                    accum[c][(r, col)] = v;
                    accum[c][(col, r)] = v;
                }
            }
            covariances[c] = accum[c].clone();
        }
        // Empty clusters keep their previous covariance; the reseeded
        // centroid will collect members next round.
    }
    Ok(())
}

/// Builds the final [`Clustering`], pruning empty clusters and remapping
/// assignment indices.
fn materialize(
    weights: Option<&[f64]>,
    assignments: &[usize],
    centroids: &[Vec<f64>],
) -> Clustering {
    let k = centroids.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &a) in assignments.iter().enumerate() {
        members[a].push(i);
    }
    let mut remap = vec![usize::MAX; k];
    let mut clusters = Vec::new();
    for c in 0..k {
        if members[c].is_empty() {
            continue;
        }
        remap[c] = clusters.len();
        let weight = match weights {
            Some(ws) => members[c].iter().map(|&i| ws[i]).sum(),
            None => members[c].len() as f64,
        };
        clusters.push(Cluster {
            centroid: centroids[c].clone(),
            members: std::mem::take(&mut members[c]),
            weight,
        });
    }
    let assignments = assignments.iter().map(|&a| remap[a]).collect();
    Clustering {
        assignments,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two touching elongated clusters in a T arrangement (the Figure 5
    /// geometry): one stretched along x through the origin, one along y
    /// ending just above it. Euclidean k-means cuts the long clusters
    /// across; elliptical k-means recovers them.
    fn crossed_ellipses(n_per: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        // Deterministic low-discrepancy jitter.
        let jitter = |i: usize| (i as f64 * 0.754_877_666).fract() - 0.5;
        for i in 0..n_per {
            let t = i as f64 / n_per as f64 * 2.0 - 1.0;
            rows.push(vec![10.0 * t, 0.3 * jitter(i)]);
            truth.push(0);
        }
        for i in 0..n_per {
            let t = i as f64 / n_per as f64 * 2.0 - 1.0;
            rows.push(vec![0.3 * jitter(i + 1000), 10.0 * t + 11.0]);
            truth.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    fn accuracy(assignments: &[usize], truth: &[usize]) -> f64 {
        // Best of the two label permutations.
        let same: usize = assignments
            .iter()
            .zip(truth)
            .filter(|(a, t)| a == t)
            .count();
        let flipped = assignments.len() - same;
        same.max(flipped) as f64 / assignments.len() as f64
    }

    #[test]
    fn recovers_crossed_ellipses() {
        let (data, truth) = crossed_ellipses(120);
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let r = engine.fit(&data).unwrap();
        assert!(r.clustering.is_consistent());
        assert_eq!(r.clustering.clusters.len(), 2);
        let acc = accuracy(&r.clustering.assignments, &truth);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn beats_euclidean_kmeans_on_elongated_clusters() {
        // The Figure 1 claim, end to end: Mahalanobis clustering recovers
        // elongated clusters that the L2 metric cuts across.
        let (data, truth) = crossed_ellipses(120);
        let euclid = crate::kmeans(
            &data,
            &crate::KMeansConfig {
                k: 2,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let maha = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            seed: 3,
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        let acc_e = accuracy(&euclid.clustering.assignments, &truth);
        let acc_m = accuracy(&maha.clustering.assignments, &truth);
        assert!(acc_m > acc_e + 0.05, "maha {acc_m} vs euclid {acc_e}");
    }

    #[test]
    fn covariances_reflect_elongation() {
        let (data, _) = crossed_ellipses(120);
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let r = engine.fit(&data).unwrap();
        for c in &r.clustering.clusters {
            let cov = mmdr_linalg::covariance(&data.select_rows(&c.members)).unwrap();
            let eig = mmdr_linalg::SymmetricEigen::new(&cov).unwrap();
            // Strongly anisotropic: top eigenvalue dwarfs the second.
            assert!(eig.eigenvalues[0] > 20.0 * eig.eigenvalues[1].max(1e-9));
        }
    }

    #[test]
    fn optimizations_reduce_distance_computations() {
        let (data, truth) = crossed_ellipses(150);
        let base = EllipticalKMeans::new(EllipticalConfig {
            k: 4,
            seed: 1,
            lookup_k: None,
            activity_threshold: None,
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        let optimized = EllipticalKMeans::new(EllipticalConfig {
            k: 4,
            seed: 1,
            lookup_k: Some(2),
            activity_threshold: Some(3),
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        assert!(
            optimized.distance_computations < base.distance_computations,
            "optimized {} vs base {}",
            optimized.distance_computations,
            base.distance_computations
        );
        // Quality must not collapse.
        let acc = accuracy(&optimized.clustering.assignments, &truth);
        let _ = acc; // with k=4 labels don't map to the 2 truth labels; just
                     // require consistency.
        assert!(optimized.clustering.is_consistent());
    }

    #[test]
    fn weighted_fit_biases_centroid() {
        let data = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![0.5], vec![9.5]]).unwrap();
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            seed: 0,
            ..Default::default()
        })
        .unwrap();
        // Heavy weight on point 0 pulls its cluster's centroid toward 0.
        let r = engine.fit_weighted(&data, &[100.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(r.clustering.is_consistent());
        let c_of_0 = r.clustering.assignments[0];
        let centroid = r.clustering.clusters[c_of_0].centroid[0];
        assert!(centroid < 0.1, "centroid {centroid}");
    }

    #[test]
    fn weighted_fit_validates() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let engine = EllipticalKMeans::new(EllipticalConfig::default()).unwrap();
        assert!(matches!(
            engine.fit_weighted(&data, &[1.0]),
            Err(Error::WeightMismatch { .. })
        ));
        assert!(engine.fit_weighted(&data, &[1.0, -1.0]).is_err());
        assert!(engine.fit_weighted(&data, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(EllipticalKMeans::new(EllipticalConfig {
            k: 0,
            ..Default::default()
        })
        .is_err());
        assert!(EllipticalKMeans::new(EllipticalConfig {
            lookup_k: Some(0),
            ..Default::default()
        })
        .is_err());
        assert!(EllipticalKMeans::new(EllipticalConfig {
            max_outer: 0,
            ..Default::default()
        })
        .is_err());
        assert!(EllipticalKMeans::new(EllipticalConfig {
            max_inner: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        let engine = EllipticalKMeans::new(EllipticalConfig::default()).unwrap();
        assert_eq!(
            engine.fit(&Matrix::zeros(0, 2)).err(),
            Some(Error::EmptyDataset)
        );
    }

    #[test]
    fn fewer_points_than_clusters_degrades_gracefully() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0]]).unwrap();
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: 10,
            ..Default::default()
        })
        .unwrap();
        let r = engine.fit(&data).unwrap();
        assert!(r.clustering.clusters.len() <= 2);
        assert!(r.clustering.is_consistent());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = crossed_ellipses(60);
        let cfg = EllipticalConfig {
            k: 3,
            seed: 11,
            ..Default::default()
        };
        let a = EllipticalKMeans::new(cfg.clone())
            .unwrap()
            .fit(&data)
            .unwrap();
        let b = EllipticalKMeans::new(cfg).unwrap().fit(&data).unwrap();
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
        assert_eq!(a.distance_computations, b.distance_computations);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (data, _) = crossed_ellipses(100);
        let run = |threads| {
            let cfg = EllipticalConfig {
                k: 3,
                seed: 11,
                par: ParConfig::threads(threads),
                ..Default::default()
            };
            EllipticalKMeans::new(cfg).unwrap().fit(&data).unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(r.clustering.assignments, base.clustering.assignments);
            assert_eq!(r.distance_computations, base.distance_computations);
            assert_eq!(r.inner_iterations, base.inner_iterations);
            for (a, b) in r.clustering.clusters.iter().zip(&base.clustering.clusters) {
                assert_eq!(a.centroid, b.centroid);
            }
        }
    }

    #[test]
    fn converges_and_reports_iterations() {
        let (data, _) = crossed_ellipses(60);
        let r = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        assert!(r.converged);
        assert!(r.outer_iterations >= 1);
        assert!(r.inner_iterations >= r.outer_iterations);
    }

    #[test]
    fn prefers_mahalanobis_fit_over_euclidean_split() {
        // A single long thin cluster: Euclidean k-means with k=2 cuts it in
        // half across the middle; elliptical k-means (k=2) should leave one
        // cluster nearly empty or split along, not across. We check that the
        // dominant cluster's covariance captures the full elongation.
        let mut rows = Vec::new();
        for i in 0..200 {
            let t = i as f64 / 199.0 * 2.0 - 1.0;
            rows.push(vec![50.0 * t, ((i * 7919) % 100) as f64 / 100.0 - 0.5]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let r = EllipticalKMeans::new(EllipticalConfig {
            k: 2,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
        .fit(&data)
        .unwrap();
        let biggest = r
            .clustering
            .clusters
            .iter()
            .max_by_key(|c| c.members.len())
            .unwrap();
        let cov = mmdr_linalg::covariance(&data.select_rows(&biggest.members)).unwrap();
        let eig = mmdr_linalg::SymmetricEigen::new(&cov).unwrap();
        assert!(eig.eigenvalues[0] > 50.0 * eig.eigenvalues[1].max(1e-9));
    }
}
