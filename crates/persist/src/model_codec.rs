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

pub fn put_subspace(w: &mut ByteWriter, s: &ReducedSubspace) {
    w.put_f64_slice(s.centroid());
    let basis = s.basis();
    w.put_usize(basis.rows());
    w.put_usize(basis.cols());
    for &v in basis.as_slice() {
        w.put_f64(v);
    }
}

/// Decodes a subspace, re-running the orthonormality check — a basis that
/// checksums fine but is not orthonormal is rejected, not trusted.
pub fn get_subspace(r: &mut ByteReader<'_>) -> Result<ReducedSubspace> {
    let centroid = r.get_f64_vec()?;
    let (rows, cols) = (r.get_usize()?, r.get_usize()?);
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| PersistError::malformed(format!("basis shape {rows}×{cols} overflows")))?;
    if n.saturating_mul(8) > r.remaining() {
        return Err(PersistError::malformed(format!(
            "basis {rows}×{cols} larger than the bytes backing it"
        )));
    }
    let data = (0..n).map(|_| r.get_f64()).collect::<Result<Vec<f64>>>()?;
    let basis = Matrix::from_vec(rows, cols, data)
        .map_err(|e| PersistError::malformed(format!("basis decode: {e}")))?;
    Ok(ReducedSubspace::new(centroid, basis)?)
}

pub fn put_model(w: &mut ByteWriter, m: &ReductionResult) {
    w.put_usize(m.dim);
    w.put_usize(m.num_points);
    w.put_usize(m.clusters.len());
    for c in &m.clusters {
        put_subspace(w, &c.subspace);
        w.put_id_list(c.members.iter().map(|&id| id as u64));
        w.put_f64(c.mpe);
        w.put_f64(c.radius_eliminated);
        w.put_f64(c.radius_retained);
        w.put_f64(c.nearest_radius);
        w.put_f64(c.ellipticity);
    }
    w.put_id_list(m.outliers.iter().map(|&id| id as u64));
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
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_idistance::IDistanceIndex;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn toy_model() -> ReductionResult {
        let basis = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        let subspace = ReducedSubspace::new(vec![0.25, -1.5, 3.0], basis).unwrap();
        ReductionResult {
            dim: 3,
            num_points: 5,
            clusters: vec![EllipsoidCluster {
                subspace,
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
            "radii, count and the codebook: no subspace or centroid"
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

    /// A fitted model's MODEL bytes and each of its partitions' META
    /// record, as a snapshot save writes them.
    struct Encoded {
        model: ReductionResult,
        model_bytes: Vec<u8>,
        partition_bytes: Vec<Vec<u8>>,
    }

    impl Encoded {
        /// Record `which`: the model, then partition `which − 1`.
        fn record(&self, which: usize) -> &[u8] {
            match which {
                0 => &self.model_bytes,
                i => &self.partition_bytes[i - 1],
            }
        }
    }

    fn encoded() -> &'static Encoded {
        static ENCODED: OnceLock<Encoded> = OnceLock::new();
        ENCODED.get_or_init(|| {
            // Three noisy lines in 6-d and a few scattered points.
            let rows: Vec<Vec<f64>> = (0..240)
                .map(|i| {
                    let t = (i / 3) as f64 / 79.0;
                    let j = ((i as f64 * 0.754_877_666).fract() - 0.5) * 0.02;
                    let mut row = vec![j, -j, 0.5 * j, 0.0, 0.0, 0.0];
                    row[i % 3] += t;
                    row[3 + i % 3] += 1.0 + 0.25 * t;
                    if i % 47 == 0 {
                        row[5 - i % 3] += 3.0;
                    }
                    row
                })
                .collect();
            let data = Matrix::from_rows(&rows).unwrap();
            let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
            let index = IDistanceIndex::build(&data, &model, 16).unwrap();
            let mut w = ByteWriter::new();
            put_model(&mut w, &model);
            let partition_bytes = index
                .partitions()
                .iter()
                .map(|p| {
                    let mut w = ByteWriter::new();
                    put_partition(&mut w, p);
                    w.into_bytes()
                })
                .collect();
            Encoded {
                model,
                model_bytes: w.into_bytes(),
                partition_bytes,
            }
        })
    }

    /// Decodes record `which` of [`encoded`] from `bytes`: the model, or
    /// partition `which − 1` against the intact model, as a load reads META
    /// after MODEL.
    fn decode(which: usize, bytes: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(bytes, "damaged");
        if which == 0 {
            let model = get_model(&mut r)?;
            assert!(model.is_partition(), "decoded a model that is no partition");
        } else {
            get_partition(&mut r, &encoded().model, which - 1)?;
        }
        r.expect_end()
    }

    #[test]
    fn the_fixture_fits_several_partitions_with_codebooks() {
        let e = encoded();
        assert!(
            e.model.clusters.len() >= 2,
            "{} clusters",
            e.model.clusters.len()
        );
        assert_eq!(e.partition_bytes.len(), e.model.clusters.len() + 1);
        for which in 0..=e.partition_bytes.len() {
            decode(which, e.record(which)).unwrap();
        }
    }

    /// Lengths no bytes could back, planted as a little-endian `u64` at
    /// every offset of the model and of each partition record's head and
    /// tail (between them lie only codebook edges): each decode returns,
    /// typed, without sizing anything by the lie — a decoder that trusted
    /// one would abort on the allocation or panic on its capacity.
    #[test]
    fn a_planted_length_is_refused_or_harmless_at_every_offset() {
        let e = encoded();
        for which in 0..=e.partition_bytes.len() {
            let bytes = e.record(which);
            let lies = [bytes.len() as u64 + 1, 1 << 40, 1 << 62, u64::MAX];
            let last = bytes.len() - 8;
            let offsets = (0..=last).filter(|&at| which == 0 || at < 64 || last - at < 64);
            for at in offsets {
                for lie in lies {
                    let mut damaged = bytes.to_vec();
                    damaged[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                    let _ = decode(which, &damaged);
                }
            }
        }
    }

    /// The point count is a length too: `is_partition` sizes its table by
    /// it, so a count the member and outlier lists do not add up to is
    /// refused first.
    #[test]
    fn a_point_count_the_lists_do_not_back_is_refused() {
        let e = encoded();
        for lie in [e.model.num_points as u64 + 1, 1 << 40, u64::MAX] {
            let mut damaged = e.model_bytes.clone();
            damaged[8..16].copy_from_slice(&lie.to_le_bytes());
            assert!(matches!(
                decode(0, &damaged),
                Err(PersistError::Malformed(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// MODEL and META records cut short, with bytes flipped and
        /// overwritten, decoded directly (no CRC in front): every decode
        /// returns `Ok` or a typed `PersistError`, and none panics. A cut
        /// alone is always refused.
        #[test]
        fn a_damaged_record_decodes_or_is_refused(
            which in 0usize..=usize::MAX,
            cut in 0usize..=usize::MAX,
            flips in proptest::collection::vec((0usize..=usize::MAX, 1u8..=255), 0..4),
            (overwrites, at, word) in (proptest::bool::ANY, 0usize..=usize::MAX, 0u64..=u64::MAX),
        ) {
            let e = encoded();
            let which = which % (e.partition_bytes.len() + 1);
            let intact = e.record(which);
            // Whole records as often as cut ones.
            let cut = if cut % 2 == 0 { intact.len() } else { cut % (intact.len() + 1) };
            let mut bytes = intact[..cut].to_vec();
            let damaged = !flips.is_empty() || overwrites;
            if !bytes.is_empty() {
                for (at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
                if overwrites {
                    let at = at % bytes.len();
                    let end = bytes.len().min(at + 8);
                    bytes[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                }
            }
            let got = decode(which, &bytes);
            if bytes.len() < intact.len() && !damaged {
                prop_assert!(got.is_err(), "a cut at {} of {} decoded", bytes.len(), intact.len());
            }
        }
    }
}
