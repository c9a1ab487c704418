//! Cluster-sharded serving: shard planning and the CRC-guarded MANIFEST.
//!
//! `mmdr shard-split` partitions a reduced dataset *by MMDR cluster* into N
//! disjoint shards, each persisted as an ordinary format-v2 snapshot a
//! stock `mmdr serve` worker can open. This module owns both halves of
//! that:
//!
//! - [`plan_shards`] assigns whole clusters (plus the outlier set as one
//!   more group) to shards with a deterministic size-balanced greedy pack,
//!   builds each shard's sub-model (the *same* cluster subspaces, members
//!   remapped to local row numbers) and sub-matrix, and computes the
//!   bounding-ball geometry the router prunes with.
//! - [`Manifest`] / [`write_manifest`] / [`read_manifest`] persist the
//!   shard table — per shard: its snapshot file name, cluster set, balls,
//!   and the ascending global row ids backing local ids — in a small file
//!   with the same fail-closed discipline as snapshots: magic, version,
//!   recorded length, CRC32 over the body, and a decoder that validates
//!   every structural invariant (the shards must partition the row space).
//!
//! **Why whole clusters, and why this geometry.** Every backend reports,
//! for a clustered point `p`, a distance that is a pure function of the
//! query, `p`'s cluster subspace, and `p`'s coordinates (and for an
//! outlier, of the query and `p` alone). Moving whole clusters — subspaces
//! bit-identical, members merely renumbered — therefore reproduces every
//! per-point distance bit for bit on the shard, which is what makes the
//! router's merged answers bit-identical to single-node. The ball for a
//! cluster is centered on its subspace centroid with radius
//! `max_p ‖restore(p) − centroid‖`; the outlier group gets a mean-centered
//! ball over its raw rows. By the triangle inequality
//! `‖q − p'‖ ≥ ‖q − c‖ − r` for every represented point `p'` in the ball,
//! so `max(0, ‖q − c‖ − r)` lower-bounds every distance a shard can
//! return. (The router additionally deflates the bound by a small epsilon
//! before pruning so floating-point rounding can never flip a keep into a
//! prune.)

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{PersistError, Result};
use crate::snapshot::replace_file;
use mmdr_core::{ReductionResult, ReductionStats};
use mmdr_linalg::{l2_dist, Matrix};
use mmdr_storage::crc32;

/// Magic prefix of a MANIFEST file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"MMDRMAN\x01";

/// Current MANIFEST format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Conventional file name for the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Fixed manifest header: magic + version + body length + body CRC32.
const MANIFEST_HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// A Euclidean bounding ball around one group of represented points on a
/// shard (one per cluster, plus one for the shard's outlier rows).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBall {
    /// Ball center in original dimensionality.
    pub center: Vec<f64>,
    /// Radius covering every represented point of the group.
    pub radius: f64,
}

impl ShardBall {
    /// `max(0, ‖q − center‖ − radius)`: a lower bound on the distance any
    /// represented point in this ball can have to `q`.
    pub fn lower_bound(&self, query: &[f64]) -> f64 {
        (l2_dist(query, &self.center) - self.radius).max(0.0)
    }
}

/// One shard's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// Snapshot file name, relative to the manifest's directory.
    pub snapshot: String,
    /// Global cluster indices this shard holds (ascending).
    pub clusters: Vec<u64>,
    /// Whether this shard also holds the model's outlier rows.
    pub holds_outliers: bool,
    /// Bounding balls for the shard's groups (used for pruning).
    pub balls: Vec<ShardBall>,
    /// Global row ids in ascending order; the shard's local id `i` is the
    /// row `rows[i]` of the original dataset.
    pub rows: Vec<u64>,
}

/// The cluster-shard table `mmdr route` serves from.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Backend every shard snapshot was built with.
    pub backend: String,
    /// Original dimensionality.
    pub dim: usize,
    /// Total points across all shards.
    pub num_points: usize,
    /// Per-shard entries; shard `i` is served by the `i`-th worker.
    pub shards: Vec<ShardEntry>,
}

/// Everything needed to materialize one shard: which groups it holds, the
/// sub-dataset and sub-model to build its snapshot from, and its manifest
/// geometry.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Global cluster indices assigned to this shard (ascending).
    pub clusters: Vec<usize>,
    /// Whether the model's outlier rows live on this shard.
    pub holds_outliers: bool,
    /// Global row ids in ascending order (local id `i` ↔ `rows[i]`).
    pub rows: Vec<usize>,
    /// The shard's rows, in `rows` order.
    pub data: Matrix,
    /// The shard's model: identical subspaces, members renumbered to local
    /// row ids — satisfies `is_partition()` over the sub-dataset.
    pub model: ReductionResult,
    /// Bounding balls for the router's lower-bound pruning.
    pub balls: Vec<ShardBall>,
}

impl ShardPlan {
    /// This plan's manifest entry, naming `snapshot` as its file.
    pub fn entry(&self, snapshot: String) -> ShardEntry {
        ShardEntry {
            snapshot,
            clusters: self.clusters.iter().map(|&c| c as u64).collect(),
            holds_outliers: self.holds_outliers,
            balls: self.balls.clone(),
            rows: self.rows.iter().map(|&r| r as u64).collect(),
        }
    }
}

/// Partitions `model`'s groups (each cluster, plus the outlier set) across
/// `shards` shards and builds every shard's sub-dataset, sub-model, and
/// ball geometry.
///
/// Assignment is a deterministic size-balanced greedy pack: groups in
/// descending point count (ties toward the lower group index) each go to
/// the currently lightest shard (ties toward the lower shard index). Whole
/// groups move, never fractions — that is what preserves per-point
/// distance bits. Fails if `shards` is zero, exceeds the group count
/// (some shard would be empty), or `data` does not match the model.
pub fn plan_shards(
    data: &Matrix,
    model: &ReductionResult,
    shards: usize,
) -> Result<Vec<ShardPlan>> {
    if data.rows() != model.num_points || data.cols() != model.dim {
        return Err(PersistError::malformed(format!(
            "data is {}×{}, model expects {}×{}",
            data.rows(),
            data.cols(),
            model.num_points,
            model.dim
        )));
    }
    // Groups: one per cluster, then (if non-empty) the outlier set.
    let mut groups: Vec<(usize, usize)> = model // (group id, weight)
        .clusters
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.members.len()))
        .collect();
    let outlier_group = model.clusters.len();
    if !model.outliers.is_empty() {
        groups.push((outlier_group, model.outliers.len()));
    }
    if shards == 0 {
        return Err(PersistError::malformed("shard count must be at least 1"));
    }
    if shards > groups.len() {
        return Err(PersistError::malformed(format!(
            "cannot split {} cluster groups across {shards} shards without an empty shard",
            groups.len()
        )));
    }
    groups.sort_by_key(|&(id, w)| (std::cmp::Reverse(w), id));
    let mut load = vec![0usize; shards];
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (id, w) in groups {
        let lightest = (0..shards)
            .min_by_key(|&s| (load[s], s))
            .expect("shards >= 1");
        load[lightest] += w;
        assigned[lightest].push(id);
    }

    let mut plans = Vec::with_capacity(shards);
    for mut group_ids in assigned {
        group_ids.sort_unstable();
        let holds_outliers = group_ids.last() == Some(&outlier_group) && !model.outliers.is_empty();
        let clusters: Vec<usize> = group_ids
            .iter()
            .copied()
            .filter(|&g| g < outlier_group)
            .collect();

        let mut rows: Vec<usize> = Vec::new();
        for &c in &clusters {
            rows.extend_from_slice(&model.clusters[c].members);
        }
        if holds_outliers {
            rows.extend_from_slice(&model.outliers);
        }
        rows.sort_unstable();
        let to_local: HashMap<usize, usize> = rows
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local))
            .collect();

        let mut balls = Vec::new();
        let mut sub_clusters = Vec::with_capacity(clusters.len());
        for &c in &clusters {
            let cluster = &model.clusters[c];
            let mut sub = cluster.clone();
            sub.members = cluster.members.iter().map(|g| to_local[g]).collect();
            let centroid = cluster.subspace.centroid().to_vec();
            let mut radius = 0.0f64;
            for &g in &cluster.members {
                let local = cluster.subspace.project(data.row(g))?;
                let restored = cluster.subspace.restore(&local)?;
                radius = radius.max(l2_dist(&restored, &centroid));
            }
            balls.push(ShardBall {
                center: centroid,
                radius,
            });
            sub_clusters.push(sub);
        }
        let outliers: Vec<usize> = if holds_outliers {
            model.outliers.iter().map(|g| to_local[g]).collect()
        } else {
            Vec::new()
        };
        if holds_outliers {
            let mut center = vec![0.0f64; model.dim];
            for &g in &model.outliers {
                for (acc, &v) in center.iter_mut().zip(data.row(g)) {
                    *acc += v;
                }
            }
            let n = model.outliers.len() as f64;
            for v in &mut center {
                *v /= n;
            }
            let radius = model
                .outliers
                .iter()
                .map(|&g| l2_dist(data.row(g), &center))
                .fold(0.0f64, f64::max);
            balls.push(ShardBall { center, radius });
        }

        let sub_model = ReductionResult {
            dim: model.dim,
            num_points: rows.len(),
            clusters: sub_clusters,
            outliers,
            stats: ReductionStats::default(),
        };
        if !sub_model.is_partition() {
            return Err(PersistError::malformed(
                "shard sub-model does not partition its rows (internal planning bug)",
            ));
        }
        plans.push(ShardPlan {
            clusters,
            holds_outliers,
            rows: rows.clone(),
            data: data.select_rows(&rows),
            model: sub_model,
            balls,
        });
    }
    Ok(plans)
}

// ---- encode / decode ------------------------------------------------------

fn put_string(w: &mut ByteWriter, s: &str) {
    w.put_usize(s.len());
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut ByteReader<'_>, what: &str) -> Result<String> {
    let n = r.get_len(1)?;
    let bytes: Vec<u8> = (0..n).map(|_| r.get_u8()).collect::<Result<_>>()?;
    String::from_utf8(bytes)
        .map_err(|_| PersistError::malformed(format!("manifest: {what} is not UTF-8")))
}

/// Encodes a manifest to its on-disk image.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut body = ByteWriter::new();
    put_string(&mut body, &m.backend);
    body.put_usize(m.dim);
    body.put_usize(m.num_points);
    body.put_usize(m.shards.len());
    for shard in &m.shards {
        put_string(&mut body, &shard.snapshot);
        body.put_usize(shard.clusters.len());
        for &c in &shard.clusters {
            body.put_u64(c);
        }
        body.put_u8(shard.holds_outliers as u8);
        body.put_usize(shard.balls.len());
        for ball in &shard.balls {
            body.put_f64_slice(&ball.center);
            body.put_f64(ball.radius);
        }
        body.put_usize(shard.rows.len());
        for &r in &shard.rows {
            body.put_u64(r);
        }
    }
    let body = body.into_bytes();
    let mut out = ByteWriter::new();
    out.put_bytes(&MANIFEST_MAGIC);
    out.put_u32(MANIFEST_VERSION);
    out.put_u64(body.len() as u64);
    out.put_u32(crc32(&body));
    out.put_bytes(&body);
    out.into_bytes()
}

/// Decodes and validates a manifest image (fail closed, like snapshots).
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
    if bytes.len() < MANIFEST_HEADER_LEN {
        return Err(PersistError::Truncated {
            expected: MANIFEST_HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != MANIFEST_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(PersistError::BadMagic { found });
    }
    let mut hdr = ByteReader::new(&bytes[8..MANIFEST_HEADER_LEN], "manifest header");
    let version = hdr.get_u32()?;
    if version > MANIFEST_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    let body_len = hdr.get_u64()?;
    let stored_crc = hdr.get_u32()?;
    let expected = MANIFEST_HEADER_LEN as u64 + body_len;
    if (bytes.len() as u64) < expected {
        return Err(PersistError::Truncated {
            expected,
            actual: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 > expected {
        return Err(PersistError::TrailingBytes {
            expected,
            actual: bytes.len() as u64,
        });
    }
    let body = &bytes[MANIFEST_HEADER_LEN..];
    let computed = crc32(body);
    if computed != stored_crc {
        return Err(PersistError::Checksum {
            region: "manifest body".into(),
            stored: stored_crc,
            computed,
        });
    }

    let mut r = ByteReader::new(body, "manifest");
    let backend = get_string(&mut r, "backend name")?;
    let dim = r.get_usize()?;
    let num_points = r.get_usize()?;
    let n_shards = r.get_len(1)?;
    let mut shards = Vec::with_capacity(n_shards);
    let mut covered = vec![false; num_points];
    for s in 0..n_shards {
        let snapshot = get_string(&mut r, "snapshot name")?;
        let n_clusters = r.get_len(8)?;
        let clusters: Vec<u64> = (0..n_clusters)
            .map(|_| r.get_u64())
            .collect::<Result<_>>()?;
        let holds_outliers = match r.get_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(PersistError::malformed(format!(
                    "manifest: outlier flag must be 0 or 1, found {other}"
                )))
            }
        };
        let n_balls = r.get_len(8)?;
        let mut balls = Vec::with_capacity(n_balls);
        for _ in 0..n_balls {
            let center = r.get_f64_vec()?;
            if center.len() != dim {
                return Err(PersistError::malformed(format!(
                    "manifest: ball center has {} coordinates, dim is {dim}",
                    center.len()
                )));
            }
            let radius = r.get_f64()?;
            if !radius.is_finite() || radius < 0.0 || center.iter().any(|v| !v.is_finite()) {
                return Err(PersistError::malformed(
                    "manifest: ball geometry must be finite with non-negative radius",
                ));
            }
            balls.push(ShardBall { center, radius });
        }
        if balls.is_empty() {
            return Err(PersistError::malformed(format!(
                "manifest: shard {s} has no bounding balls"
            )));
        }
        let n_rows = r.get_len(8)?;
        let rows: Vec<u64> = (0..n_rows).map(|_| r.get_u64()).collect::<Result<_>>()?;
        for pair in rows.windows(2) {
            if pair[1] <= pair[0] {
                return Err(PersistError::malformed(format!(
                    "manifest: shard {s} rows are not strictly ascending"
                )));
            }
        }
        for &row in &rows {
            let row = usize::try_from(row).map_err(|_| {
                PersistError::malformed("manifest: row id exceeds the address space")
            })?;
            match covered.get_mut(row) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    return Err(PersistError::malformed(format!(
                        "manifest: row {row} appears on more than one shard"
                    )))
                }
                None => {
                    return Err(PersistError::malformed(format!(
                        "manifest: row {row} out of range for {num_points} points"
                    )))
                }
            }
        }
        shards.push(ShardEntry {
            snapshot,
            clusters,
            holds_outliers,
            balls,
            rows,
        });
    }
    if covered.iter().any(|&c| !c) {
        return Err(PersistError::malformed(
            "manifest: shards do not cover every row",
        ));
    }
    r.expect_end()?;
    Ok(Manifest {
        backend,
        dim,
        num_points,
        shards,
    })
}

/// Writes a manifest to `path` (sibling temp file + atomic rename, like
/// snapshot [`crate::save`]).
pub fn write_manifest(path: impl AsRef<Path>, m: &Manifest) -> Result<()> {
    let path = path.as_ref();
    replace_file(path, |file| {
        file.write_all(&encode_manifest(m))
            .map_err(|e| PersistError::io(path, e))
    })
    .map(drop)
}

/// Reads and validates the manifest at `path`.
pub fn read_manifest(path: impl AsRef<Path>) -> Result<Manifest> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| PersistError::io(path, e))?;
    decode_manifest(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            backend: "idistance".into(),
            dim: 2,
            num_points: 5,
            shards: vec![
                ShardEntry {
                    snapshot: "shard-0.mmdr".into(),
                    clusters: vec![0],
                    holds_outliers: false,
                    balls: vec![ShardBall {
                        center: vec![1.0, -2.5],
                        radius: 3.25,
                    }],
                    rows: vec![0, 2, 4],
                },
                ShardEntry {
                    snapshot: "shard-1.mmdr".into(),
                    clusters: vec![1],
                    holds_outliers: true,
                    balls: vec![
                        ShardBall {
                            center: vec![-7.0, 0.0],
                            radius: 0.5,
                        },
                        ShardBall {
                            center: vec![100.0, 100.0],
                            radius: 9.75,
                        },
                    ],
                    rows: vec![1, 3],
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let m = sample();
        let image = encode_manifest(&m);
        assert_eq!(decode_manifest(&image).unwrap(), m);
    }

    #[test]
    fn rejects_corruption_fail_closed() {
        let m = sample();
        let image = encode_manifest(&m);
        // Bad magic.
        let mut bad = image.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_manifest(&bad),
            Err(PersistError::BadMagic { .. })
        ));
        // Future version.
        let mut bad = image.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            decode_manifest(&bad),
            Err(PersistError::UnsupportedVersion { .. })
        ));
        // A flipped body byte fails the CRC.
        let mut bad = image.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_manifest(&bad),
            Err(PersistError::Checksum { .. })
        ));
        // Truncation and trailing bytes.
        assert!(matches!(
            decode_manifest(&image[..image.len() - 3]),
            Err(PersistError::Truncated { .. })
        ));
        let mut long = image.clone();
        long.push(0);
        assert!(matches!(
            decode_manifest(&long),
            Err(PersistError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn rejects_structural_lies() {
        // Overlapping rows.
        let mut m = sample();
        m.shards[1].rows = vec![0, 3];
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
        // Uncovered rows.
        let mut m = sample();
        m.shards[1].rows = vec![1];
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
        // Out-of-range row.
        let mut m = sample();
        m.shards[1].rows = vec![1, 99];
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
        // Non-ascending rows.
        let mut m = sample();
        m.shards[0].rows = vec![2, 0, 4];
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
        // Ball dimensionality mismatch.
        let mut m = sample();
        m.shards[0].balls[0].center = vec![1.0];
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
        // Non-finite radius.
        let mut m = sample();
        m.shards[0].balls[0].radius = f64::NAN;
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn ball_lower_bound_clamps_at_zero() {
        let ball = ShardBall {
            center: vec![0.0, 0.0],
            radius: 5.0,
        };
        assert_eq!(ball.lower_bound(&[1.0, 1.0]), 0.0);
        let lb = ball.lower_bound(&[8.0, 0.0]);
        assert!((lb - 3.0).abs() < 1e-12);
    }
}
