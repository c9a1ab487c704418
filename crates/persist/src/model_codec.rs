//! Binary encoding of the reduction model and index metadata structures.
//!
//! Floats are stored as IEEE-754 bit patterns (see [`crate::codec`]), so
//! the decoded model is *bit-identical* to the saved one — centroids,
//! rotation matrices, radii and MPE statistics all round-trip exactly,
//! which is what makes reopened indexes return byte-for-byte the same
//! distances as freshly built ones.
//!
//! Decoding is fail-closed: structures are revalidated on the way in
//! (orthonormal bases via [`ReducedSubspace::new`], partition coverage via
//! [`ReductionResult::is_partition`]), so bytes that checksum correctly but
//! encode an invalid model are still rejected.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{PersistError, Result};
use mmdr_core::{EllipsoidCluster, ReductionResult, ReductionStats};
use mmdr_idistance::{Codebook, PartitionInfo};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;

pub fn put_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &v in m.as_slice() {
        w.put_f64(v);
    }
}

pub fn get_matrix(r: &mut ByteReader<'_>) -> Result<Matrix> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| PersistError::malformed(format!("matrix shape {rows}×{cols} overflows")))?;
    if n.saturating_mul(8) > r.remaining() {
        return Err(PersistError::malformed(format!(
            "matrix {rows}×{cols} larger than the bytes backing it"
        )));
    }
    let data = (0..n).map(|_| r.get_f64()).collect::<Result<Vec<f64>>>()?;
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| PersistError::malformed(format!("matrix decode: {e}")))
}

pub fn put_subspace(w: &mut ByteWriter, s: &ReducedSubspace) {
    w.put_f64_slice(s.centroid());
    put_matrix(w, s.basis());
}

/// Decodes a subspace, re-running the orthonormality check — a basis that
/// checksums fine but is not orthonormal is rejected, not trusted.
pub fn get_subspace(r: &mut ByteReader<'_>) -> Result<ReducedSubspace> {
    let centroid = r.get_f64_vec()?;
    let basis = get_matrix(r)?;
    Ok(ReducedSubspace::new(centroid, basis)?)
}

pub fn put_model(w: &mut ByteWriter, m: &ReductionResult) {
    w.put_usize(m.dim);
    w.put_usize(m.num_points);
    w.put_usize(m.clusters.len());
    for c in &m.clusters {
        put_subspace(w, &c.subspace);
        put_matrix(w, &c.covariance);
        w.put_id_list(&c.members);
        w.put_f64(c.mpe);
        w.put_f64(c.radius_eliminated);
        w.put_f64(c.radius_retained);
        w.put_f64(c.nearest_radius);
        w.put_f64(c.ellipticity);
    }
    w.put_id_list(&m.outliers);
    w.put_u64(m.stats.distance_computations);
    w.put_u64(m.stats.ge_invocations);
    w.put_usize(m.stats.max_s_dim_reached);
    w.put_u64(m.stats.streams);
}

pub fn get_model(r: &mut ByteReader<'_>) -> Result<ReductionResult> {
    let dim = r.get_usize()?;
    let num_points = r.get_usize()?;
    let n_clusters = r.get_len(1)?;
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let subspace = get_subspace(r)?;
        let covariance = get_matrix(r)?;
        let members = r.get_id_list()?;
        let mpe = r.get_f64()?;
        let radius_eliminated = r.get_f64()?;
        let radius_retained = r.get_f64()?;
        let nearest_radius = r.get_f64()?;
        let ellipticity = r.get_f64()?;
        if subspace.original_dim() != dim {
            return Err(PersistError::malformed(format!(
                "cluster subspace lives in {}d, model is {dim}d",
                subspace.original_dim()
            )));
        }
        clusters.push(EllipsoidCluster {
            subspace,
            covariance,
            members,
            mpe,
            radius_eliminated,
            radius_retained,
            nearest_radius,
            ellipticity,
        });
    }
    let outliers = r.get_id_list()?;
    let stats = ReductionStats {
        distance_computations: r.get_u64()?,
        ge_invocations: r.get_u64()?,
        max_s_dim_reached: r.get_usize()?,
        streams: r.get_u64()?,
    };
    let model = ReductionResult {
        dim,
        num_points,
        clusters,
        outliers,
        stats,
    };
    if !model.is_partition() {
        return Err(PersistError::malformed(
            "cluster members and outliers do not partition the point set",
        ));
    }
    Ok(model)
}

/// What a load measured of one partition — its radii, its count, the
/// codebook its leaf codes index — and, for the outlier home alone, the
/// reference point its keys are measured from. The subspace and a cluster's
/// centroid are the model's: MODEL holds them once.
pub fn put_partition(w: &mut ByteWriter, p: &PartitionInfo) {
    w.put_f64(p.min_radius);
    w.put_f64(p.max_radius);
    w.put_usize(p.count);
    match &p.codebook {
        Some(book) => {
            w.put_u8(1);
            w.put_usize(book.edges().len());
            for &e in book.edges() {
                w.put_u32(e.to_bits());
            }
        }
        None => w.put_u8(0),
    }
    if p.subspace.is_none() {
        w.put_f64_slice(&p.centroid);
    }
}

/// Decodes partition `i` of `model`'s layout (cluster `i`, then the outlier
/// home) and completes it from the model, exactly as a load does.
pub fn get_partition(
    r: &mut ByteReader<'_>,
    model: &ReductionResult,
    i: usize,
) -> Result<PartitionInfo> {
    let cluster = model.clusters.get(i);
    let radii = (r.get_f64()?, r.get_f64()?);
    let count = r.get_usize()?;
    let codebook = match r.get_u8()? {
        0 => None,
        1 => {
            let n = r.get_len(4)?;
            let edges = (0..n)
                .map(|_| r.get_u32().map(f32::from_bits))
                .collect::<Result<Vec<f32>>>()?;
            // The width the partition's rows are stored at decides how
            // many edges there must be.
            let stored_dim = cluster.map_or(model.dim, |c| c.subspace.reduced_dim());
            Some(Codebook::from_edges(stored_dim, edges)?)
        }
        other => {
            return Err(PersistError::malformed(format!(
                "partition codebook flag {other}"
            )));
        }
    };
    let reference = match cluster {
        Some(_) => Vec::new(),
        None => r.get_f64_vec()?,
    };
    Ok(PartitionInfo::new(
        cluster, &reference, radii, count, codebook,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ReductionResult {
        let basis = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        let subspace = ReducedSubspace::new(vec![0.25, -1.5, 3.0], basis).unwrap();
        ReductionResult {
            dim: 3,
            num_points: 5,
            clusters: vec![EllipsoidCluster {
                subspace,
                covariance: Matrix::identity(3),
                members: vec![0, 2, 4],
                mpe: 0.012_345,
                radius_eliminated: 0.071,
                radius_retained: 2.5,
                nearest_radius: 0.1,
                ellipticity: 35.2,
            }],
            outliers: vec![1, 3],
            stats: ReductionStats {
                distance_computations: 123,
                ge_invocations: 4,
                max_s_dim_reached: 3,
                streams: 1,
            },
        }
    }

    fn roundtrip(m: &ReductionResult) -> ReductionResult {
        let mut w = ByteWriter::new();
        put_model(&mut w, m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test model");
        let out = get_model(&mut r).unwrap();
        r.expect_end().unwrap();
        out
    }

    #[test]
    fn model_roundtrips_bit_exactly() {
        let m = toy_model();
        let got = roundtrip(&m);
        assert_eq!(got.dim, m.dim);
        assert_eq!(got.num_points, m.num_points);
        assert_eq!(got.outliers, m.outliers);
        assert_eq!(got.stats, m.stats);
        let (a, b) = (&got.clusters[0], &m.clusters[0]);
        assert_eq!(a.members, b.members);
        assert_eq!(a.subspace.centroid(), b.subspace.centroid());
        assert_eq!(a.subspace.basis().as_slice(), b.subspace.basis().as_slice());
        assert_eq!(a.covariance.as_slice(), b.covariance.as_slice());
        assert_eq!(a.mpe.to_bits(), b.mpe.to_bits());
        assert_eq!(a.radius_eliminated.to_bits(), b.radius_eliminated.to_bits());
        assert_eq!(a.radius_retained.to_bits(), b.radius_retained.to_bits());
        assert_eq!(a.nearest_radius.to_bits(), b.nearest_radius.to_bits());
        assert_eq!(a.ellipticity.to_bits(), b.ellipticity.to_bits());
    }

    #[test]
    fn non_partition_model_rejected() {
        let mut m = toy_model();
        m.outliers = vec![1]; // point 3 now belongs nowhere
        let mut w = ByteWriter::new();
        put_model(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "bad model");
        assert!(matches!(get_model(&mut r), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn non_orthonormal_basis_rejected() {
        // Encode a valid subspace, then double a basis entry in the raw
        // bytes: decode must fail closed via ReducedSubspace::new.
        let m = toy_model();
        let mut w = ByteWriter::new();
        put_subspace(&mut w, &m.clusters[0].subspace);
        let mut bytes = w.into_bytes();
        // Layout: centroid len u64 + 3 f64, basis rows u64 + cols u64, data.
        let first_basis_entry = 8 + 3 * 8 + 8 + 8;
        bytes[first_basis_entry..first_basis_entry + 8]
            .copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        let mut r = ByteReader::new(&bytes, "bad subspace");
        assert!(matches!(get_subspace(&mut r), Err(PersistError::Pca(_))));
    }

    #[test]
    fn partition_roundtrip() {
        let m = toy_model();
        let rows = [vec![0.5, -1.0], vec![0.25, 2.0], vec![4.0, 2.0]];
        let part = PartitionInfo::new(
            Some(&m.clusters[0]),
            &[],
            (0.5, 2.0),
            3,
            Codebook::fit(rows.iter().map(Vec::as_slice)),
        );
        let outlier = PartitionInfo::new(None, &[1.0, 1.0, 1.0], (0.0, 4.0), 2, None);
        let mut w = ByteWriter::new();
        put_partition(&mut w, &part);
        let cluster_bytes = w.into_bytes().len();
        assert_eq!(
            cluster_bytes,
            3 * 8 + 1 + 8 + 2 * 255 * 4,
            "radii, count and the codebook: no subspace, centroid or covariance"
        );
        for (i, p) in [&part, &outlier].into_iter().enumerate() {
            let mut w = ByteWriter::new();
            put_partition(&mut w, p);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes, "part");
            let got = get_partition(&mut r, &m, i).unwrap();
            r.expect_end().unwrap();
            assert_eq!(got.subspace.is_some(), p.subspace.is_some());
            assert_eq!(got.centroid, p.centroid);
            assert_eq!(got.count, p.count);
            assert_eq!(got.min_radius.to_bits(), p.min_radius.to_bits());
            assert_eq!(got.max_radius.to_bits(), p.max_radius.to_bits());
            assert_eq!(got.codebook, p.codebook);
        }
        // A codebook of another width than the partition stores is refused.
        let mut w = ByteWriter::new();
        put_partition(&mut w, &part);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "part");
        assert!(matches!(
            get_partition(&mut r, &m, 1),
            Err(PersistError::Index(_))
        ));
    }
}
