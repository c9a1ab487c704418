//! Euclidean k-means with k-means++ seeding.
//!
//! The LDR baseline (and the paper's Figure 1/5a discussion) relies on this
//! classic algorithm: it partitions with the `L2` metric and therefore
//! produces spherical clusters, which is exactly the weakness MMDR's
//! Mahalanobis clustering addresses.

use crate::assignment::{Cluster, Clustering};
use crate::error::{Error, Result};
use mmdr_linalg::{l2_dist_sq, map_ranges, Matrix, ParConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for k-means++ seeding (runs are deterministic given a seed).
    pub seed: u64,
    /// Thread count for the assignment and update steps. Results are
    /// bit-identical for every value (chunk-and-merge; see
    /// `mmdr_linalg::par`).
    pub par: ParConfig,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iters: 100,
            seed: 0,
            par: ParConfig::serial(),
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// The clustering (assignments + per-cluster models).
    pub clustering: Clustering,
    /// Lloyd iterations executed until convergence (or the cap).
    pub iterations: usize,
    /// Whether the run converged (no membership change) before the cap.
    pub converged: bool,
}

/// Runs Lloyd's algorithm with k-means++ seeding on a dataset whose rows are
/// points.
pub fn kmeans(data: &Matrix, config: &KMeansConfig) -> Result<KMeansResult> {
    let n = data.rows();
    if n == 0 {
        return Err(Error::EmptyDataset);
    }
    if config.k == 0 || config.k > n {
        return Err(Error::InvalidClusterCount {
            requested: config.k,
            points: n,
        });
    }
    let k = config.k;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = seed_plus_plus(data, k, &mut rng);
    let mut assignments = vec![usize::MAX; n];
    let mut iterations = 0;
    let mut converged = false;

    while iterations < config.max_iters {
        iterations += 1;
        // Assignment step: each point's nearest centroid depends only on the
        // fixed centroids, so the pass chunks across threads; outcomes are
        // written back in chunk order.
        let chunk_outcomes = map_ranges(n, &config.par, |range| {
            let mut best_ids = Vec::with_capacity(range.len());
            let mut changed = false;
            for i in range {
                let point = data.row(i);
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = l2_dist_sq(point, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                changed |= assignments[i] != best;
                best_ids.push(best);
            }
            (best_ids, changed)
        });
        let mut changed = false;
        let mut i = 0;
        for (best_ids, chunk_changed) in chunk_outcomes {
            changed |= chunk_changed;
            for best in best_ids {
                assignments[i] = best;
                i += 1;
            }
        }
        if !changed {
            converged = true;
            break;
        }
        // Update step: per-cluster partial sums per chunk, merged in chunk
        // order (bit-identical for every thread count).
        let partials = map_ranges(n, &config.par, |range| {
            let mut sums = vec![vec![0.0; data.cols()]; k];
            let mut counts = vec![0usize; k];
            for i in range {
                let a = assignments[i];
                mmdr_linalg::add_assign(&mut sums[a], data.row(i));
                counts[a] += 1;
            }
            (sums, counts)
        });
        let (sums, counts) = partials
            .into_iter()
            .reduce(|(mut sums, mut counts), (s, c)| {
                for (acc, part) in sums.iter_mut().zip(&s) {
                    mmdr_linalg::add_assign(acc, part);
                }
                for (acc, part) in counts.iter_mut().zip(&c) {
                    *acc += part;
                }
                (sums, counts)
            })
            .expect("non-empty data yields at least one chunk");
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed at the point farthest from its
                // current centroid, the standard repair.
                let far = farthest_point(data, &centroids, &assignments);
                centroids[c] = data.row(far).to_vec();
            } else {
                let inv = 1.0 / counts[c] as f64;
                centroids[c] = sums[c].iter().map(|s| s * inv).collect();
            }
        }
    }

    // Materialize clusters.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &a) in assignments.iter().enumerate() {
        members[a].push(i);
    }
    let mut clusters = Vec::with_capacity(k);
    for (c, m) in members.into_iter().enumerate() {
        clusters.push(Cluster {
            centroid: centroids[c].clone(),
            weight: m.len() as f64,
            members: m,
        });
    }
    Ok(KMeansResult {
        clustering: Clustering {
            assignments,
            clusters,
        },
        iterations,
        converged,
    })
}

/// k-means++ seeding: first centroid uniform, subsequent ones proportional
/// to squared distance from the nearest chosen centroid.
fn seed_plus_plus(data: &Matrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = data.rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data.row(rng.gen_range(0..n)).to_vec());
    let mut dist_sq: Vec<f64> = data
        .iter_rows()
        .map(|p| l2_dist_sq(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
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
            dist_sq[i] = dist_sq[i].min(l2_dist_sq(p, &c));
        }
        centroids.push(c);
    }
    centroids
}

/// Index of the point farthest from its assigned centroid.
fn farthest_point(data: &Matrix, centroids: &[Vec<f64>], assignments: &[usize]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for (i, p) in data.iter_rows().enumerate() {
        let d = l2_dist_sq(p, &centroids[assignments[i]]);
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs of 10 points each.
    fn two_blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..10 {
            let jitter = (i as f64) * 0.01;
            rows.push(vec![0.0 + jitter, 0.0 - jitter]);
            rows.push(vec![10.0 - jitter, 10.0 + jitter]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let r = kmeans(
            &data,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        assert!(r.clustering.is_consistent());
        // Points alternate blob membership by construction; all even indices
        // must share a cluster, all odd the other.
        let a0 = r.clustering.assignments[0];
        for i in (0..20).step_by(2) {
            assert_eq!(r.clustering.assignments[i], a0);
        }
        assert_ne!(r.clustering.assignments[1], a0);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]).unwrap();
        let r = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for c in &r.clustering.clusters {
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert!(matches!(
            kmeans(
                &data,
                &KMeansConfig {
                    k: 2,
                    ..Default::default()
                }
            ),
            Err(Error::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            kmeans(
                &data,
                &KMeansConfig {
                    k: 0,
                    ..Default::default()
                }
            ),
            Err(Error::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            kmeans(&Matrix::zeros(0, 2), &KMeansConfig::default()),
            Err(Error::EmptyDataset)
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let cfg = KMeansConfig {
            k: 2,
            seed: 7,
            ..Default::default()
        };
        let a = kmeans(&data, &cfg).unwrap();
        let b = kmeans(&data, &cfg).unwrap();
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let data = two_blobs();
        let run = |threads| {
            let cfg = KMeansConfig {
                k: 2,
                seed: 7,
                par: ParConfig::threads(threads),
                ..Default::default()
            };
            kmeans(&data, &cfg).unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(r.clustering.assignments, base.clustering.assignments);
            assert_eq!(r.iterations, base.iterations);
            for (a, b) in r.clustering.clusters.iter().zip(&base.clustering.clusters) {
                assert_eq!(a.centroid, b.centroid);
            }
        }
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 6]).unwrap();
        let r = kmeans(
            &data,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.clustering.assignments.len(), 6);
        assert!(r.clustering.is_consistent());
    }

    #[test]
    fn centroids_minimize_within_cluster_distance() {
        let data = two_blobs();
        let r = kmeans(
            &data,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for c in &r.clustering.clusters {
            // Centroid is the mean of members.
            let mut mean = vec![0.0; 2];
            for &i in &c.members {
                mmdr_linalg::add_assign(&mut mean, data.row(i));
            }
            mmdr_linalg::scale_assign(&mut mean, 1.0 / c.len() as f64);
            assert!(mmdr_linalg::l2_dist(&mean, &c.centroid) < 1e-9);
        }
    }
}
