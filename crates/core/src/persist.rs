//! Model persistence: serialize a [`ReductionResult`] to JSON and back.
//!
//! A reduction is expensive (minutes on large datasets); a production
//! deployment fits once and reloads the model at startup, rebuilding the
//! index from it with `IDistanceIndex::build`. The on-disk format is a
//! plain-Vec DTO layer so the linear-algebra types stay dependency-free.

use crate::error::{Error, Result};
use crate::model::{EllipsoidCluster, ReductionResult, ReductionStats};
use mmdr_json::Value;
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;

/// Version 2 dropped each cluster's `"covariance"` matrix, which no reader
/// used; a version-1 document is refused, not converted.
const FORMAT_VERSION: u64 = 2;

fn matrix_to_value(m: &Matrix) -> Value {
    Value::object(vec![
        ("rows", m.rows().into()),
        ("cols", m.cols().into()),
        ("data", m.as_slice().to_vec().into()),
    ])
}

fn matrix_from_value(v: &Value) -> Result<Matrix> {
    let malformed = || Error::InvalidParams("malformed model JSON");
    let rows = v
        .get("rows")
        .and_then(Value::as_usize)
        .ok_or_else(malformed)?;
    let cols = v
        .get("cols")
        .and_then(Value::as_usize)
        .ok_or_else(malformed)?;
    let data = v
        .get("data")
        .and_then(Value::as_f64_vec)
        .ok_or_else(malformed)?;
    Matrix::from_vec(rows, cols, data).map_err(Error::Linalg)
}

/// A cluster scalar as a JSON value: a number when finite, else its bit
/// pattern as a hex string — JSON has no infinity or NaN, and a flat
/// cluster's ellipticity is +∞ (Definition 3.4).
fn scalar_to_value(x: f64) -> Value {
    if x.is_finite() {
        x.into()
    } else {
        format!("{:#018x}", x.to_bits()).into()
    }
}

/// The inverse of [`scalar_to_value`], bit for bit; a hex string must name
/// a non-finite value, so a finite one has exactly one spelling.
fn scalar_from_value(v: &Value) -> Option<f64> {
    if let Some(x) = v.as_f64() {
        return Some(x);
    }
    let bits = u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()?;
    Some(f64::from_bits(bits)).filter(|x| !x.is_finite())
}

impl ReductionResult {
    /// Serializes the model to a JSON string.
    pub fn to_json(&self) -> String {
        let clusters: Vec<Value> = self
            .clusters
            .iter()
            .map(|c| {
                Value::object(vec![
                    ("centroid", c.subspace.centroid().to_vec().into()),
                    ("basis", matrix_to_value(c.subspace.basis())),
                    ("members", c.members.clone().into()),
                    ("mpe", scalar_to_value(c.mpe)),
                    ("radius_eliminated", scalar_to_value(c.radius_eliminated)),
                    ("radius_retained", scalar_to_value(c.radius_retained)),
                    ("nearest_radius", scalar_to_value(c.nearest_radius)),
                    ("ellipticity", scalar_to_value(c.ellipticity)),
                ])
            })
            .collect();
        Value::object(vec![
            ("version", FORMAT_VERSION.into()),
            ("dim", self.dim.into()),
            ("num_points", self.num_points.into()),
            ("clusters", Value::Array(clusters)),
            ("outliers", self.outliers.clone().into()),
            (
                "stats",
                Value::object(vec![
                    (
                        "distance_computations",
                        self.stats.distance_computations.into(),
                    ),
                    ("ge_invocations", self.stats.ge_invocations.into()),
                    ("max_s_dim_reached", self.stats.max_s_dim_reached.into()),
                    ("streams", self.stats.streams.into()),
                ]),
            ),
        ])
        .to_json()
    }

    /// Restores a model from [`to_json`](Self::to_json) output, revalidating
    /// every invariant (orthonormal bases, partition coverage).
    pub fn from_json(json: &str) -> Result<Self> {
        let malformed = || Error::InvalidParams("malformed model JSON");
        let doc = mmdr_json::parse(json).map_err(|_| malformed())?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(malformed)?;
        if version != FORMAT_VERSION {
            return Err(Error::InvalidParams("unsupported model format version"));
        }
        let dim = doc
            .get("dim")
            .and_then(Value::as_usize)
            .ok_or_else(malformed)?;
        let num_points = doc
            .get("num_points")
            .and_then(Value::as_usize)
            .ok_or_else(malformed)?;
        let cluster_values = doc
            .get("clusters")
            .and_then(Value::as_array)
            .ok_or_else(malformed)?;
        let mut clusters = Vec::with_capacity(cluster_values.len());
        for c in cluster_values {
            let centroid = c
                .get("centroid")
                .and_then(Value::as_f64_vec)
                .ok_or_else(malformed)?;
            let basis = matrix_from_value(c.get("basis").ok_or_else(malformed)?)?;
            let members = c
                .get("members")
                .and_then(Value::as_usize_vec)
                .ok_or_else(malformed)?;
            let field = |name: &str| {
                c.get(name)
                    .and_then(scalar_from_value)
                    .ok_or_else(malformed)
            };
            let subspace = ReducedSubspace::new(centroid, basis).map_err(Error::Pca)?;
            clusters.push(EllipsoidCluster {
                subspace,
                members,
                mpe: field("mpe")?,
                radius_eliminated: field("radius_eliminated")?,
                radius_retained: field("radius_retained")?,
                nearest_radius: field("nearest_radius")?,
                ellipticity: field("ellipticity")?,
            });
        }
        let outliers = doc
            .get("outliers")
            .and_then(Value::as_usize_vec)
            .ok_or_else(malformed)?;
        let stats = doc.get("stats").ok_or_else(malformed)?;
        let stat = |name: &str| {
            stats
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(malformed)
        };
        let result = ReductionResult {
            dim,
            num_points,
            clusters,
            outliers,
            stats: ReductionStats {
                distance_computations: stat("distance_computations")?,
                ge_invocations: stat("ge_invocations")?,
                max_s_dim_reached: stats
                    .get("max_s_dim_reached")
                    .and_then(Value::as_usize)
                    .ok_or_else(malformed)?,
                streams: stat("streams")?,
            },
        };
        if !result.is_partition() {
            return Err(Error::InvalidParams(
                "model JSON does not partition its points",
            ));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Mmdr;
    use crate::params::MmdrParams;

    fn model() -> ReductionResult {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let t = i as f64 / 119.0;
                let j = ((i as f64 * 0.754_877_666).fract() - 0.5) * 0.02;
                vec![t, 0.3 * t + j, j, -j]
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        Mmdr::new(MmdrParams::default()).fit(&data).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = model();
        let json = m.to_json();
        let back = ReductionResult::from_json(&json).unwrap();
        assert_eq!(back.dim, m.dim);
        assert_eq!(back.num_points, m.num_points);
        assert_eq!(back.outliers, m.outliers);
        assert_eq!(back.clusters.len(), m.clusters.len());
        for (a, b) in back.clusters.iter().zip(&m.clusters) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.subspace.centroid(), b.subspace.centroid());
            assert_eq!(a.subspace.basis(), b.subspace.basis());
            assert_eq!(a.mpe, b.mpe);
        }
        assert_eq!(back.stats, m.stats);
    }

    #[test]
    fn non_finite_cluster_scalars_roundtrip_bit_for_bit() {
        let mut m = model();
        let odd_nan = f64::from_bits(0x7ff8_0000_0000_0bad);
        let c = &mut m.clusters[0];
        c.ellipticity = f64::INFINITY;
        c.nearest_radius = f64::NEG_INFINITY;
        c.radius_retained = odd_nan;
        let back = ReductionResult::from_json(&m.to_json()).unwrap();
        let b = &back.clusters[0];
        assert_eq!(b.ellipticity, f64::INFINITY);
        assert_eq!(b.nearest_radius, f64::NEG_INFINITY);
        assert_eq!(b.radius_retained.to_bits(), odd_nan.to_bits());
        assert_eq!(b.mpe.to_bits(), m.clusters[0].mpe.to_bits());
        // A finite value has one spelling: as a number.
        let finite = m.to_json().replacen(
            "\"ellipticity\":\"0x7ff0000000000000\"",
            "\"ellipticity\":\"0x3ff0000000000000\"",
            1,
        );
        assert!(ReductionResult::from_json(&finite).is_err());
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(ReductionResult::from_json("not json").is_err());
        assert!(ReductionResult::from_json("{}").is_err());
        let unsupported = Err(Error::InvalidParams("unsupported model format version"));
        let m = model().to_json();
        for old in ["\"version\":99", "\"version\":1"] {
            let other = m.replacen("\"version\":2", old, 1);
            assert_ne!(other, m);
            assert_eq!(ReductionResult::from_json(&other).map(|_| ()), unsupported);
        }
    }

    #[test]
    fn rejects_tampered_partitions() {
        let m = model();
        let json = m.to_json();
        // Drop the outliers array's contents and duplicate a member by
        // tampering: simplest tamper — change num_points so coverage fails.
        let bad = json.replacen(
            &format!("\"num_points\":{}", m.num_points),
            &format!("\"num_points\":{}", m.num_points + 5),
            1,
        );
        assert!(ReductionResult::from_json(&bad).is_err());
    }

    #[test]
    fn restored_model_serves_queries() {
        let m = model();
        let back = ReductionResult::from_json(&m.to_json()).unwrap();
        let p = vec![0.5, 0.15, 0.0, 0.0];
        let a = m.assign_point(&p, 0.1).unwrap();
        let b = back.assign_point(&p, 0.1).unwrap();
        assert_eq!(a, b);
    }
}
