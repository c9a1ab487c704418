//! Scalable MMDR for datasets larger than the buffer (paper §4.3).
//!
//! The dataset is read as a sequence of *data streams* of `ε·N` points.
//! `Generate Ellipsoid` runs on one stream at a time; only the resulting
//! small ellipsoids' centroids (weighted by member count) are kept in the
//! **Ellipsoid Array**. After all streams are processed, the array itself is
//! clustered (weighted elliptical k-means) to merge small ellipsoids into
//! the big ones, and one final scan assigns every point to its merged
//! ellipsoid before dimensionality optimization runs per cluster.

use crate::algorithm::{check_input, finish};
use crate::error::{Error, Result};
use crate::generate_ellipsoid::{generate_ellipsoid, SemiEllipsoid};
use crate::model::{ReductionResult, ReductionStats};
use crate::params::MmdrParams;
use mmdr_cluster::{EllipticalConfig, EllipticalKMeans};
use mmdr_linalg::Matrix;

/// The §4.3 streaming variant of MMDR.
#[derive(Debug, Clone)]
pub struct ScalableMmdr {
    params: MmdrParams,
    /// Stream size as a fraction of N (Table 1's `ε`, default 0.005).
    epsilon: f64,
}

impl ScalableMmdr {
    /// Creates the scalable algorithm with Table 1's `ε = 0.005`.
    pub fn new(params: MmdrParams) -> Self {
        Self {
            params,
            epsilon: 0.005,
        }
    }

    /// Overrides the data-stream fraction `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Runs scalable MMDR on a dataset whose rows are points.
    ///
    /// The data matrix is only ever accessed one stream (plus the Ellipsoid
    /// Array) at a time, mirroring the bounded-buffer behaviour the paper
    /// measures in Figure 11.
    pub fn fit(&self, data: &Matrix) -> Result<ReductionResult> {
        self.params.validate().map_err(Error::InvalidParams)?;
        check_input(data)?;
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(Error::InvalidParams("epsilon must be in (0, 1]"));
        }
        let n = data.rows();
        let stream_len = stream_len(self.epsilon, n, self.params.min_cluster_size);

        // Phase 1: per-stream Generate Ellipsoid; keep centroids + weights.
        let mut stats = ReductionStats::default();
        let mut array_points = Matrix::zeros(0, 0);
        let mut array_weights: Vec<f64> = Vec::new();
        let mut leftover: Vec<usize> = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + stream_len).min(n);
            let indices: Vec<usize> = (start..end).collect();
            let mut semis: Vec<SemiEllipsoid> = Vec::new();
            let mut small: Vec<usize> = Vec::new();
            generate_ellipsoid(
                data,
                &indices,
                self.params.initial_s_dim,
                &self.params,
                &mut stats,
                &mut semis,
                &mut small,
            )?;
            for semi in &semis {
                let rows = data.select_rows(&semi.members);
                let centroid = mmdr_linalg::mean_vector(&rows)?;
                array_points.push_row(&centroid)?;
                array_weights.push(semi.members.len() as f64);
            }
            // Points from sub-minimum clusters are re-examined in the final
            // assignment pass rather than dropped.
            leftover.extend(small);
            stats.streams += 1;
            start = end;
        }

        if array_points.rows() == 0 {
            // Degenerate: every stream was too small to cluster. Fall back
            // to treating the entire dataset as one stream.
            let mut semis = Vec::new();
            let mut small = Vec::new();
            let indices: Vec<usize> = (0..n).collect();
            generate_ellipsoid(
                data,
                &indices,
                self.params.initial_s_dim,
                &self.params,
                &mut stats,
                &mut semis,
                &mut small,
            )?;
            return finish(data, semis, small, stats, &self.params);
        }

        // Phase 2: merge the Ellipsoid Array with weighted clustering.
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: self.params.max_ec.min(array_points.rows()),
            seed: self.params.seed,
            lookup_k: Some(self.params.lookup_k),
            activity_threshold: if self.params.activity_threshold == 0 {
                None
            } else {
                Some(self.params.activity_threshold)
            },
            par: self.params.par,
            ..Default::default()
        })?;
        let merged = engine.fit_weighted(&array_points, &array_weights)?;
        stats.distance_computations += merged.distance_computations;

        // Phase 3: final scan — assign every point (including leftovers) to
        // the nearest merged centroid; then optimize each merged cluster.
        let centroids: Vec<&[f64]> = merged
            .clustering
            .clusters
            .iter()
            .map(|c| c.centroid.as_slice())
            .collect();
        let mut membership: Vec<Vec<usize>> = vec![Vec::new(); centroids.len()];
        for (i, point) in data.iter_rows().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = mmdr_linalg::l2_dist_sq(point, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            membership[best].push(i);
        }
        let mut semis = Vec::new();
        let mut outliers = Vec::new();
        for members in membership {
            if members.len() < self.params.min_cluster_size {
                outliers.extend(members);
                continue;
            }
            // The merged ellipsoid was discovered at full dimensionality;
            // dimensionality optimization will choose its d_r starting from
            // min(MaxDim, d).
            semis.push(SemiEllipsoid {
                s_dim: self.params.max_dim.min(data.cols()),
                mpe: 0.0,
                pca: None,
                members,
            });
        }
        finish(data, semis, outliers, stats, &self.params)
    }
}

/// The paper's stream-sizing rule: `⌈ε·N⌉` points per stream, raised to
/// `floor` (the minimum cluster size) and capped at `N`.
fn stream_len(epsilon: f64, n: usize, floor: usize) -> usize {
    ((epsilon * n as f64).ceil() as usize).max(floor).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Mmdr;

    /// Interleaved separated clusters so every stream sees all of them.
    fn interleaved_clusters(n_per: usize) -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..n_per {
            let t = i as f64 / (n_per - 1) as f64;
            rows.push(vec![t, jit(i, 0.1), jit(i, 0.2), jit(i, 0.3)]);
            rows.push(vec![
                5.0 + jit(i, 0.4),
                5.0 + t,
                5.0 + jit(i, 0.5),
                5.0 + jit(i, 0.6),
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn streaming_matches_in_memory_structure() {
        let data = interleaved_clusters(200);
        let params = MmdrParams {
            max_ec: 4,
            ..Default::default()
        };
        let scalable = ScalableMmdr::new(params.clone())
            .with_epsilon(0.25)
            .fit(&data)
            .unwrap();
        let plain = Mmdr::new(params).fit(&data).unwrap();
        assert!(scalable.is_partition());
        assert!(scalable.stats.streams >= 4);
        // Same cluster count and similar coverage as the in-memory run.
        assert_eq!(scalable.clusters.len(), plain.clusters.len());
        let cov_s = scalable.clustered_points() as f64 / scalable.num_points as f64;
        let cov_p = plain.clustered_points() as f64 / plain.num_points as f64;
        assert!((cov_s - cov_p).abs() < 0.1, "{cov_s} vs {cov_p}");
    }

    #[test]
    fn reduced_dimensionalities_are_low() {
        let data = interleaved_clusters(200);
        let model = ScalableMmdr::new(MmdrParams::default())
            .with_epsilon(0.2)
            .fit(&data)
            .unwrap();
        for c in &model.clusters {
            assert!(c.reduced_dim() <= 2, "d_r = {}", c.reduced_dim());
        }
    }

    #[test]
    fn validates_epsilon() {
        let data = interleaved_clusters(40);
        assert!(ScalableMmdr::new(MmdrParams::default())
            .with_epsilon(0.0)
            .fit(&data)
            .is_err());
        assert!(ScalableMmdr::new(MmdrParams::default())
            .with_epsilon(2.0)
            .fit(&data)
            .is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        assert!(matches!(
            ScalableMmdr::new(MmdrParams::default()).fit(&Matrix::zeros(0, 2)),
            Err(Error::EmptyDataset)
        ));
    }

    #[test]
    fn tiny_dataset_falls_back_to_single_stream() {
        // Smaller than min_cluster_size per stream: the degenerate path.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0, 0.0]).collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let model = ScalableMmdr::new(MmdrParams {
            min_cluster_size: 8,
            ..Default::default()
        })
        .with_epsilon(0.5)
        .fit(&data)
        .unwrap();
        assert!(model.is_partition());
    }
}
