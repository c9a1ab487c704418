//! Live-ingest support shared by this crate's backends: routing a new
//! point to its partition, and the [`MutableVectorIndex`] implementations
//! over each backend's delta layer.
//!
//! Routing is [`mmdr_core::ReductionResult::assign_point`]'s rule — both
//! call [`ReducedSubspace::nearest`], demoting to the outlier partition
//! when every `ProjDist` exceeds `β`. The ingest engine extends the
//! reduction model with the same rule at merge time, so a row's partition
//! (and therefore its stored representation and its query distance) is
//! identical in the serving delta, in the folded snapshot, and in a
//! from-scratch build over the union of rows.

use crate::error::Result;
use crate::gldr::GlobalLdrIndex;
use crate::index::IDistanceIndex;
use crate::seqscan::SeqScan;
use mmdr_index::{DeltaStats, MutableVectorIndex};
use mmdr_pca::ReducedSubspace;

/// The β every backend uses for dynamically ingested points (Table 1's
/// 0.1, the same default as
/// [`IDistanceConfig::beta`](crate::IDistanceConfig)).
pub const DEFAULT_BETA: f64 = 0.1;

/// Routes a new point over `clusters` (in model order): `Some((ci,
/// local))` — the nearest subspace within `β`, with the point's local
/// coordinates in it — or `None` for the outlier partition (store the
/// point raw).
pub(crate) fn route<'a>(
    clusters: impl Iterator<Item = &'a ReducedSubspace>,
    beta: f64,
    point: &[f64],
) -> Result<Option<(usize, Vec<f64>)>> {
    match ReducedSubspace::nearest(clusters, point)? {
        Some((ci, subspace, d)) if d <= beta => Ok(Some((ci, subspace.project(point)?))),
        _ => Ok(None),
    }
}

/// Validates an ingested vector the way every query path does.
pub(crate) fn validate_vector(dim: usize, vector: &[f64]) -> Result<()> {
    if vector.len() != dim {
        return Err(crate::error::Error::DimensionMismatch {
            expected: dim,
            actual: vector.len(),
        });
    }
    if vector.iter().any(|x| !x.is_finite()) {
        return Err(crate::error::Error::InvalidQuery);
    }
    Ok(())
}

impl MutableVectorIndex for SeqScan {
    fn insert(&self, id: u64, vector: &[f64]) -> mmdr_index::Result<()> {
        validate_vector(self.dim(), vector)?;
        let prepared = self.prepare_row(vector)?;
        self.delta().insert(id, prepared)
    }

    fn delete(&self, id: u64) -> mmdr_index::Result<bool> {
        self.delta().delete(id)
    }

    fn seal(&self) -> DeltaStats {
        self.delta().seal()
    }

    fn delta_stats(&self) -> DeltaStats {
        self.delta().stats()
    }
}

impl MutableVectorIndex for IDistanceIndex {
    fn insert(&self, id: u64, vector: &[f64]) -> mmdr_index::Result<()> {
        validate_vector(self.dim(), vector)?;
        let prepared = self.prepare_row(vector)?;
        self.delta().insert(id, prepared)
    }

    fn delete(&self, id: u64) -> mmdr_index::Result<bool> {
        self.delta().delete(id)
    }

    fn seal(&self) -> DeltaStats {
        self.delta().seal()
    }

    fn delta_stats(&self) -> DeltaStats {
        self.delta().stats()
    }
}

impl MutableVectorIndex for GlobalLdrIndex {
    fn insert(&self, id: u64, vector: &[f64]) -> mmdr_index::Result<()> {
        validate_vector(self.dim(), vector)?;
        let prepared = self.prepare_row(vector)?;
        self.delta().insert(id, prepared)
    }

    fn delete(&self, id: u64) -> mmdr_index::Result<bool> {
        self.delta().delete(id)
    }

    fn seal(&self) -> DeltaStats {
        self.delta().seal()
    }

    fn delta_stats(&self) -> DeltaStats {
        self.delta().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams, PointAssignment};
    use mmdr_linalg::Matrix;

    #[test]
    fn route_agrees_with_the_model_assignment() {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = i as f64 / 299.0;
                let j = ((i as f64 * 0.618_033_988).fract() - 0.5) * 0.02;
                if i % 2 == 0 {
                    vec![t, 0.5 * t, j, -j]
                } else {
                    vec![5.0 + j, 5.0 - j, 5.0 + t, 5.0 + 0.3 * t]
                }
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let probes = [
            vec![0.4, 0.2, 0.0, 0.0],
            vec![5.0, 5.0, 5.4, 5.1],
            vec![2.5, -2.5, 2.5, 2.5],
        ];
        for p in &probes {
            let via_route = route(model.clusters.iter().map(|c| &c.subspace), DEFAULT_BETA, p)
                .unwrap()
                .map(|(ci, _)| ci);
            let via_model = match model.assign_point(p, DEFAULT_BETA).unwrap() {
                PointAssignment::Cluster(ci) => Some(ci),
                PointAssignment::Outlier => None,
            };
            assert_eq!(via_route, via_model, "probe {p:?}");
        }
    }

    #[test]
    fn validate_vector_rejects_bad_input() {
        assert!(validate_vector(3, &[0.0, 1.0]).is_err());
        assert!(validate_vector(2, &[f64::NAN, 0.0]).is_err());
        assert!(validate_vector(2, &[0.0, 1.0]).is_ok());
    }
}
