//! Ellipsoid merge pass.
//!
//! `Generate Ellipsoid` can over-segment: the level-1 k-means always forms
//! up to `MaxEC` partitions, so a genuine ellipsoid may be accepted as
//! several fragments of the same flat. The paper's claim that MMDR
//! "discover[s] the intrinsic number of correlated cluster[s]" (§6.1) —
//! and §4.3's merging of small ellipsoids from the Ellipsoid Array — imply
//! fragments of one ellipsoid must coalesce. This pass merges two clusters
//! when **each** cluster's members lie within `MaxMPE` (on average) of the
//! *other* cluster's subspace — i.e. they describe the same flat — and
//! re-optimizes the union, repeating greedily until no pair qualifies.

use crate::dim_opt::optimize_dimensionality;
use crate::error::Result;
use crate::generate_ellipsoid::SemiEllipsoid;
use crate::model::EllipsoidCluster;
use crate::params::MmdrParams;
use mmdr_linalg::Matrix;

/// Greedily merges compatible clusters, then enforces the `MaxEC` budget
/// (Table 1: "Max EC allowed") by folding the smallest clusters into their
/// nearest neighbour. Returns the surviving clusters and any members
/// expelled by the re-optimization β test.
pub(crate) fn merge_compatible(
    data: &Matrix,
    clusters: Vec<EllipsoidCluster>,
    params: &MmdrParams,
) -> Result<(Vec<EllipsoidCluster>, Vec<usize>)> {
    let (clusters, mut expelled) = merge_coplanar(data, clusters, params)?;
    let (clusters, more) = enforce_max_ec(data, clusters, params)?;
    expelled.extend(more);
    Ok((clusters, expelled))
}

/// Phase 1: merge pairs that describe the same flat.
fn merge_coplanar(
    data: &Matrix,
    mut clusters: Vec<EllipsoidCluster>,
    params: &MmdrParams,
) -> Result<(Vec<EllipsoidCluster>, Vec<usize>)> {
    let mut expelled = Vec::new();
    'outer: loop {
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                if !mutually_coplanar(data, &clusters[i], &clusters[j], params)? {
                    continue;
                }
                // Merge j into i and re-optimize the union.
                let b = clusters.swap_remove(j);
                let a = clusters.swap_remove(i);
                let mut members = a.members;
                members.extend(b.members);
                let s_dim = a
                    .subspace
                    .reduced_dim()
                    .max(b.subspace.reduced_dim())
                    .min(params.max_dim);
                let semi = SemiEllipsoid {
                    members,
                    s_dim,
                    mpe: 0.0,
                    pca: None,
                };
                let outcome = optimize_dimensionality(data, &semi, params)?;
                expelled.extend(outcome.outliers);
                if let Some(cluster) = outcome.cluster {
                    clusters.push(cluster);
                }
                continue 'outer;
            }
        }
        break;
    }
    Ok((clusters, expelled))
}

/// Phase 2: enforce the `MaxEC` cluster budget. While over budget, the
/// smallest cluster is folded into the neighbour whose subspace represents
/// its members best, and the union is re-optimized. Weakly-correlated data
/// (the paper's Corel histograms) otherwise shatters into hundreds of
/// partitions, and the extended iDistance pays a per-partition seek on
/// every query.
fn enforce_max_ec(
    data: &Matrix,
    mut clusters: Vec<EllipsoidCluster>,
    params: &MmdrParams,
) -> Result<(Vec<EllipsoidCluster>, Vec<usize>)> {
    let mut expelled = Vec::new();
    while clusters.len() > params.max_ec {
        let smallest = clusters
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.members.len())
            .map(|(i, _)| i)
            .expect("non-empty");
        let victim = clusters.swap_remove(smallest);
        // Nearest host: minimal mean projection distance for the victim's
        // members.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, host) in clusters.iter().enumerate() {
            let d = mean_proj_dist(data, &victim.members, host, f64::INFINITY)?;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let host = clusters.swap_remove(best);
        let mut members = host.members;
        members.extend(victim.members);
        let s_dim = host
            .subspace
            .reduced_dim()
            .max(victim.subspace.reduced_dim())
            .min(params.max_dim);
        let semi = SemiEllipsoid {
            members,
            s_dim,
            mpe: 0.0,
            pca: None,
        };
        let outcome = optimize_dimensionality(data, &semi, params)?;
        expelled.extend(outcome.outliers);
        if let Some(cluster) = outcome.cluster {
            clusters.push(cluster);
        }
        if clusters.is_empty() {
            break;
        }
    }
    Ok((clusters, expelled))
}

/// True when each cluster's members average within `MaxMPE` of the other's
/// subspace. Cheap: reuses the existing subspaces, no PCA refits, and stops
/// reading members once the answer is decided.
fn mutually_coplanar(
    data: &Matrix,
    a: &EllipsoidCluster,
    b: &EllipsoidCluster,
    params: &MmdrParams,
) -> Result<bool> {
    let max = params.max_mpe;
    Ok(mean_proj_dist(data, &b.members, a, max)? <= max
        && mean_proj_dist(data, &a.members, b, max)? <= max)
}

/// Mean distance of the listed points to the cluster's subspace, or a
/// partial mean once that exceeds `limit`: the terms are non-negative and
/// IEEE rounding is monotone, so the full mean would exceed it too.
fn mean_proj_dist(data: &Matrix, ids: &[usize], to: &EllipsoidCluster, limit: f64) -> Result<f64> {
    let n = ids.len().max(1) as f64;
    let mut sum = 0.0;
    for &idx in ids {
        sum += to.subspace.proj_dist(data.row(idx))?;
        if sum / n > limit {
            break;
        }
    }
    Ok(sum / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Mmdr;

    /// One long flat in 8-d plus one distinct flat far away.
    fn fragmentable_data() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..400 {
            let t = i as f64 / 399.0 * 4.0; // long: invites k-means splits
            rows.push(vec![
                t,
                0.5 * t,
                jit(i, 0.1),
                jit(i, 0.2),
                jit(i, 0.3),
                jit(i, 0.4),
                jit(i, 0.5),
                jit(i, 0.6),
            ]);
        }
        for i in 0..200 {
            let t = i as f64 / 199.0;
            rows.push(vec![
                9.0 + jit(i, 0.7),
                9.0 + jit(i, 0.8),
                9.0 + t,
                9.0 - t,
                9.0 + jit(i, 0.9),
                9.0 + jit(i, 1.0),
                9.0 + jit(i, 1.1),
                9.0 + jit(i, 1.2),
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn fragments_of_one_flat_coalesce() {
        let data = fragmentable_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        // Without merging, the 4-unit-long flat fragments under MaxEC = 10
        // k-means; with the merge pass the model should recover ≈ 2 real
        // clusters.
        assert!(
            model.clusters.len() <= 3,
            "expected ≤ 3 clusters after merging, got {}",
            model.clusters.len()
        );
        assert!(model.is_partition());
        // No cluster mixes the two true flats.
        for c in &model.clusters {
            let first_group = c.members.iter().filter(|&&m| m < 400).count();
            assert!(
                first_group == 0 || first_group == c.members.len(),
                "merged across distinct flats"
            );
        }
    }

    #[test]
    fn distinct_flats_do_not_merge() {
        let data = fragmentable_data();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        assert!(
            model.clusters.len() >= 2,
            "two true clusters must remain distinct"
        );
    }
}
