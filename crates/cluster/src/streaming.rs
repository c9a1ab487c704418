//! Streaming (scalable) clustering — paper §4.3.
//!
//! For datasets larger than the buffer, the paper divides the data into
//! *data streams* of `ε·N` points each, clusters one stream at a time, and
//! keeps only the resulting ellipsoids' centroids (weighted by member count)
//! in an **Ellipsoid Array**. A final clustering pass over the array merges
//! small ellipsoids into the big ones a whole-dataset run would have found.

use crate::assignment::Clustering;
use crate::elliptical::{EllipticalConfig, EllipticalKMeans};
use crate::error::{Error, Result};
use mmdr_linalg::Matrix;

/// Configuration for [`stream_cluster`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Stream size as a fraction of the dataset (the paper's `ε`,
    /// Table 1 default 0.005).
    pub epsilon: f64,
    /// Clustering configuration applied to each stream *and* to the final
    /// Ellipsoid Array pass.
    pub elliptical: EllipticalConfig,
    /// Number of clusters requested from each individual stream (small
    /// ellipsoids). Defaults to `elliptical.k`.
    pub per_stream_k: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.005,
            elliptical: EllipticalConfig::default(),
            per_stream_k: None,
        }
    }
}

/// Weighted point set — the Ellipsoid Array: one row per sub-ellipsoid
/// centroid, with the sub-ellipsoid's member count as weight.
#[derive(Debug, Clone)]
pub struct WeightedPoints {
    /// Centroids, one per row.
    pub points: Matrix,
    /// Positive weights, `points.rows()` of them.
    pub weights: Vec<f64>,
}

/// Result of a streaming clustering run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Final clustering of the Ellipsoid Array. `assignments` index the
    /// array rows, not the original points.
    pub clustering: Clustering,
    /// The Ellipsoid Array that was clustered.
    pub ellipsoid_array: WeightedPoints,
    /// Number of streams processed.
    pub streams: usize,
    /// Total Mahalanobis evaluations across all passes.
    pub distance_computations: u64,
}

/// The paper's stream-sizing rule, shared by every fit stage that reads
/// the data as `ε`-fraction streams: `⌈ε·N⌉` points per stream, raised to
/// `floor` (the per-stream cluster count here, the minimum cluster size in
/// the scalable MMDR fit) and capped at `N`.
pub fn stream_len(epsilon: f64, n: usize, floor: usize) -> usize {
    ((epsilon * n as f64).ceil() as usize).max(floor).min(n)
}

/// Clusters a large dataset stream-by-stream (§4.3).
///
/// `data` rows are points, read in index order as the paper's "sequence of
/// data points read in order of indices". Each stream holds
/// `max(ε·N, per-stream k)` points; the final pass runs weighted elliptical
/// k-means over the Ellipsoid Array.
pub fn stream_cluster(data: &Matrix, config: &StreamConfig) -> Result<StreamResult> {
    let n = data.rows();
    if n == 0 {
        return Err(Error::EmptyDataset);
    }
    if !(config.epsilon > 0.0 && config.epsilon <= 1.0) {
        return Err(Error::InvalidConfig("epsilon must be in (0, 1]"));
    }
    let per_stream_k = config.per_stream_k.unwrap_or(config.elliptical.k).max(1);
    let stream_len = stream_len(config.epsilon, n, per_stream_k);

    let mut array_points = Matrix::zeros(0, 0);
    let mut array_weights: Vec<f64> = Vec::new();
    let mut streams = 0;
    let mut distance_computations = 0;

    let mut start = 0;
    while start < n {
        let end = (start + stream_len).min(n);
        let indices: Vec<usize> = (start..end).collect();
        let stream = data.select_rows(&indices);
        let engine = EllipticalKMeans::new(EllipticalConfig {
            k: per_stream_k.min(stream.rows()),
            // Vary the seed per stream so identical streams don't collude.
            seed: config.elliptical.seed.wrapping_add(streams as u64),
            ..config.elliptical.clone()
        })?;
        let result = engine.fit(&stream)?;
        distance_computations += result.distance_computations;
        for cluster in &result.clustering.clusters {
            array_points
                .push_row(&cluster.centroid)
                .map_err(Error::Linalg)?;
            array_weights.push(cluster.weight);
        }
        streams += 1;
        start = end;
    }

    // Final pass: weighted clustering of the Ellipsoid Array.
    let final_engine = EllipticalKMeans::new(EllipticalConfig {
        k: config.elliptical.k.min(array_points.rows()),
        ..config.elliptical.clone()
    })?;
    let final_result = final_engine.fit_weighted(&array_points, &array_weights)?;
    distance_computations += final_result.distance_computations;

    Ok(StreamResult {
        clustering: final_result.clustering,
        ellipsoid_array: WeightedPoints {
            points: array_points,
            weights: array_weights,
        },
        streams,
        distance_computations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 well-separated blobs, points interleaved so every stream sees all.
    fn three_blobs(n_per: usize) -> Matrix {
        let centres = [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]];
        let mut rows = Vec::new();
        for i in 0..n_per {
            for c in &centres {
                let jx = ((i as f64 * 0.618_033_988).fract() - 0.5) * 2.0;
                let jy = ((i as f64 * 0.754_877_666).fract() - 0.5) * 2.0;
                rows.push(vec![c[0] + jx, c[1] + jy]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn streaming_finds_the_blobs() {
        let data = three_blobs(100);
        let config = StreamConfig {
            epsilon: 0.1, // 30-point streams
            elliptical: EllipticalConfig {
                k: 3,
                seed: 2,
                ..Default::default()
            },
            per_stream_k: Some(3),
        };
        let r = stream_cluster(&data, &config).unwrap();
        assert_eq!(r.streams, 10);
        assert_eq!(r.clustering.clusters.len(), 3);
        // Each final centroid is near one of the true centres.
        let centres = [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]];
        for cl in &r.clustering.clusters {
            let nearest = centres
                .iter()
                .map(|c| mmdr_linalg::l2_dist(c, &cl.centroid))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 3.0, "centroid {:?} off by {nearest}", cl.centroid);
        }
    }

    #[test]
    fn ellipsoid_array_weights_sum_to_n() {
        let data = three_blobs(50);
        let config = StreamConfig {
            epsilon: 0.25,
            elliptical: EllipticalConfig {
                k: 3,
                seed: 0,
                ..Default::default()
            },
            per_stream_k: Some(4),
        };
        let r = stream_cluster(&data, &config).unwrap();
        let total: f64 = r.ellipsoid_array.weights.iter().sum();
        assert!((total - data.rows() as f64).abs() < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        let data = three_blobs(5);
        assert!(stream_cluster(
            &data,
            &StreamConfig {
                epsilon: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(stream_cluster(
            &data,
            &StreamConfig {
                epsilon: 1.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(stream_cluster(&Matrix::zeros(0, 2), &StreamConfig::default()).is_err());
    }

    #[test]
    fn single_stream_degenerates_to_plain_clustering() {
        let data = three_blobs(30);
        let config = StreamConfig {
            epsilon: 1.0,
            elliptical: EllipticalConfig {
                k: 3,
                seed: 4,
                ..Default::default()
            },
            per_stream_k: Some(3),
        };
        let r = stream_cluster(&data, &config).unwrap();
        assert_eq!(r.streams, 1);
        assert_eq!(r.clustering.clusters.len(), 3);
    }

    #[test]
    fn tiny_epsilon_is_clamped_to_cluster_count() {
        let data = three_blobs(20); // 60 points
        let config = StreamConfig {
            epsilon: 1e-6, // would be 1-point streams; clamped to k
            elliptical: EllipticalConfig {
                k: 3,
                seed: 4,
                ..Default::default()
            },
            per_stream_k: Some(3),
        };
        let r = stream_cluster(&data, &config).unwrap();
        assert!(r.streams >= 1);
        assert!(r.clustering.clusters.len() <= 3);
    }
}
