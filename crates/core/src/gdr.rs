//! Global Dimensionality Reduction baseline (paper §2, strategy 1 of
//! Chakrabarti & Mehrotra).
//!
//! One PCA over the entire dataset; every point is represented in the same
//! global `d_r`-dimensional subspace. No clustering, no outlier set — which
//! is exactly why GDR collapses on datasets that are only *locally*
//! correlated (Figures 7–8 show it capped near 15–25 % precision).

use crate::error::{Error, Result};
use crate::model::{EllipsoidCluster, ReductionResult, ReductionStats};
use mmdr_linalg::{l2_norm, Matrix};
use mmdr_pca::{Pca, ReducedSubspace};

/// The GDR baseline.
#[derive(Debug, Clone)]
pub struct Gdr {
    target_dim: usize,
}

impl Gdr {
    /// Creates a GDR reducer targeting `target_dim` retained dimensions
    /// (clamped to the data dimensionality at fit time).
    pub fn new(target_dim: usize) -> Self {
        Self { target_dim }
    }

    /// Reduces the whole dataset into a single global subspace.
    pub fn fit(&self, data: &Matrix) -> Result<ReductionResult> {
        if data.rows() == 0 {
            return Err(Error::EmptyDataset);
        }
        if self.target_dim == 0 {
            return Err(Error::InvalidParams("target_dim must be > 0"));
        }
        let d = data.cols();
        let d_r = self.target_dim.min(d);
        let pca = Pca::fit(data)?;
        let basis = pca.basis(d_r)?;
        let subspace = ReducedSubspace::new(pca.mean().to_vec(), basis)?;

        let mut radius_eliminated: f64 = 0.0;
        let mut radius_retained: f64 = 0.0;
        let mut nearest_radius = f64::INFINITY;
        let mut mpe_sum = 0.0;
        let mut coords = Vec::with_capacity(d_r);
        for row in data.iter_rows() {
            coords.clear();
            let pd = subspace.project_into(row, &mut coords)?;
            let local = l2_norm(&coords);
            radius_eliminated = radius_eliminated.max(pd);
            radius_retained = radius_retained.max(local);
            nearest_radius = nearest_radius.min(local);
            mpe_sum += pd;
        }
        let ellipticity = if radius_eliminated > 0.0 {
            (radius_retained - radius_eliminated) / radius_eliminated
        } else if radius_retained > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        Ok(ReductionResult {
            dim: d,
            num_points: data.rows(),
            clusters: vec![EllipsoidCluster {
                subspace,
                members: (0..data.rows()).collect(),
                mpe: mpe_sum / data.rows() as f64,
                radius_eliminated,
                radius_retained,
                nearest_radius: if nearest_radius.is_finite() {
                    nearest_radius
                } else {
                    0.0
                },
                ellipticity,
            }],
            outliers: Vec::new(),
            stats: ReductionStats {
                streams: 1,
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_data() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = i as f64 / 79.0;
                vec![t, 2.0 * t, -t, 0.5 * t]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn globally_correlated_data_reduces_losslessly() {
        let data = correlated_data();
        let model = Gdr::new(1).fit(&data).unwrap();
        assert!(model.is_partition());
        assert_eq!(model.clusters.len(), 1);
        assert_eq!(model.clusters[0].reduced_dim(), 1);
        assert!(model.clusters[0].mpe < 1e-9);
        assert!(model.outliers.is_empty());
    }

    #[test]
    fn locally_correlated_data_loses_information() {
        // Two clusters correlated along *different* axes: a single global
        // 1-d projection must lose one of them.
        let mut rows = Vec::new();
        for i in 0..60 {
            let t = i as f64 / 59.0;
            rows.push(vec![t, 0.0]);
            rows.push(vec![10.0, t]); // second cluster varies in dim 1
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Gdr::new(1).fit(&data).unwrap();
        assert!(
            model.clusters[0].mpe > 0.05,
            "mpe {}",
            model.clusters[0].mpe
        );
    }

    #[test]
    fn target_dim_clamped() {
        let data = correlated_data();
        let model = Gdr::new(100).fit(&data).unwrap();
        assert_eq!(model.clusters[0].reduced_dim(), 4);
    }

    #[test]
    fn validates_inputs() {
        assert!(matches!(
            Gdr::new(1).fit(&Matrix::zeros(0, 4)),
            Err(Error::EmptyDataset)
        ));
        let data = correlated_data();
        assert!(matches!(
            Gdr::new(0).fit(&data),
            Err(Error::InvalidParams(_))
        ));
    }
}
