//! The recursive **Generate Ellipsoid** step (Figure 4, lines 1–11).
//!
//! At each level the data subset is projected (locally, via its own PCA)
//! onto an `s_dim`-dimensional subspace and clustered there with elliptical
//! k-means. Each resulting *semi-ellipsoid* is restored to the original
//! space; if its local-subspace MPE is small enough it is accepted,
//! otherwise the subspace dimensionality is doubled and the semi-ellipsoid
//! is partitioned again recursively.
//!
//! Note on the pseudo-code: line 8 reads `if MPE > MaxMPE and 2*s_dim > d`,
//! but recursing *increases* `s_dim`, so the recursion guard must be
//! `2·s_dim ≤ d` (otherwise no level above
//! `d/2` could ever recurse and the condition as printed recurses exactly
//! when doubling is impossible). We implement the evident intent: recurse
//! while the subspace can still grow.

use crate::dim_opt::start_dim;
use crate::error::Result;
use crate::model::ReductionStats;
use crate::params::MmdrParams;
use mmdr_cluster::{EllipticalConfig, EllipticalKMeans};
use mmdr_linalg::Matrix;
use mmdr_pca::Pca;

/// A cluster accepted by `Generate Ellipsoid`: its members (original
/// dataset indices) and the subspace level it was accepted at.
#[derive(Debug, Clone)]
pub struct SemiEllipsoid {
    /// Indices of the member points in the original dataset.
    pub members: Vec<usize>,
    /// The `s_dim` at which this ellipsoid's MPE fell below `MaxMPE`
    /// (or the deepest level reached). Dimensionality optimization starts
    /// from `min(MaxDim, s_dim)`.
    pub s_dim: usize,
    /// MPE of the members at `s_dim`, under their local PCA.
    pub mpe: f64,
    /// That local PCA, kept to the components dimensionality optimization
    /// reads, so that it is not fitted again; `None` (the streaming path,
    /// the merge, the adoption pass) makes optimization fit it.
    pub pca: Option<Pca>,
}

/// Runs `Generate Ellipsoid` over `indices` (a subset of `data` rows) at
/// subspace level `s_dim`.
///
/// Accepted ellipsoids are appended to `out`; subsets too small to cluster
/// meaningfully are appended to `small` (the caller routes them to the
/// outlier set). `stats` accumulates work counters.
pub fn generate_ellipsoid(
    data: &Matrix,
    indices: &[usize],
    s_dim: usize,
    params: &MmdrParams,
    stats: &mut ReductionStats,
    out: &mut Vec<SemiEllipsoid>,
    small: &mut Vec<usize>,
) -> Result<()> {
    let indices = indices.to_vec();
    recurse(data, indices, None, s_dim, params, 0, stats, out, small)
}

/// One level of Generate Ellipsoid over `indices`. `fitted` is the subset's
/// rows and their PCA when the level above already computed them.
#[allow(clippy::too_many_arguments)]
fn recurse(
    data: &Matrix,
    indices: Vec<usize>,
    fitted: Option<(Matrix, Pca)>,
    s_dim: usize,
    params: &MmdrParams,
    depth: usize,
    stats: &mut ReductionStats,
    out: &mut Vec<SemiEllipsoid>,
    small: &mut Vec<usize>,
) -> Result<()> {
    let d = data.cols();
    let s_dim = s_dim.min(d);
    stats.ge_invocations += 1;
    stats.max_s_dim_reached = stats.max_s_dim_reached.max(s_dim);

    if indices.len() < params.min_cluster_size {
        small.extend(indices);
        return Ok(());
    }

    // Line 1: project the subset onto its own s_dim-dimensional subspace.
    let (subset, pca) = match fitted {
        Some(fitted) => fitted,
        None => {
            let subset = data.select_rows(&indices);
            let pca = Pca::fit_par(&subset, &params.par)?;
            (subset, pca)
        }
    };

    // Entry acceptance for semi-ellipsoids (depth ≥ 1 — the top level
    // always clusters first, exactly as the paper's lines 1–2 do): if some
    // subspace level in {s_dim, 2·s_dim, …} (capped below MaxDim and the
    // trivial full dimensionality) represents the subset with
    // MPE ≤ MaxMPE, the subset *is* an ellipsoid — accept it intact at the
    // smallest such level. This is the paper's line-7 MPE test plus its
    // reason (2) for recursion ("s_dim could be too small for a single
    // cluster"), applied without re-clustering: re-partitioning a coherent
    // ellipsoid only fragments it (the paper instead relies on elliptical
    // k-means leaving the extra clusters empty, line 4). Fragments that do
    // arise are coalesced later by the merge pass. Every level's MPE comes
    // from one projection to the cap.
    if depth > 0 && params.use_entry_probe {
        let level_cap = params.max_dim.min(d.saturating_sub(1)).max(1);
        let mut levels = vec![s_dim.min(level_cap)];
        while let Some(&last) = levels.last().filter(|&&l| l < level_cap) {
            levels.push((last * 2).min(level_cap));
        }
        let mpes = pca.mpe_levels(&subset, &levels, &params.par)?;
        if let Some((&probe, &mpe)) = levels
            .iter()
            .zip(&mpes)
            .find(|&(_, &mpe)| mpe <= params.max_mpe)
        {
            out.push(SemiEllipsoid {
                members: indices,
                s_dim: probe,
                mpe,
                pca: Some(pca.truncated(start_dim(params, d, probe))),
            });
            return Ok(());
        }
    }

    let projections = pca.project_dataset_par(&subset, s_dim, &params.par)?;
    drop((subset, pca)); // before the levels below fit their own

    // Line 2: elliptical k-means in the subspace.
    let engine = EllipticalKMeans::new(EllipticalConfig {
        k: params.max_ec.min(projections.rows()),
        seed: params.seed.wrapping_add(depth as u64),
        lookup_k: Some(params.lookup_k),
        activity_threshold: if params.activity_threshold == 0 {
            None
        } else {
            Some(params.activity_threshold)
        },
        par: params.par,
        ..Default::default()
    })?;
    let clustering = engine.fit(&projections)?;
    stats.distance_computations += clustering.distance_computations;

    // Lines 3–11: handle each semi-ellipsoid.
    for cluster in &clustering.clustering.clusters {
        // Restore to original space (line 5).
        let member_indices: Vec<usize> = cluster.members.iter().map(|&i| indices[i]).collect();
        if member_indices.len() < params.min_cluster_size {
            small.extend(member_indices);
            continue;
        }
        let member_rows = data.select_rows(&member_indices);
        // Local projection + MPE at this level (lines 6–7).
        let local_pca = Pca::fit_par(&member_rows, &params.par)?;
        let local_s_dim = s_dim.min(member_rows.rows()).min(d);
        let mpe = local_pca.mpe_par(&member_rows, local_s_dim, &params.par)?;

        let can_grow = 2 * s_dim <= d && depth + 1 < params.max_recursion_depth;
        if mpe > params.max_mpe && can_grow {
            // Line 9: recurse with a doubled subspace dimensionality, on
            // the rows and the PCA just fitted.
            recurse(
                data,
                member_indices,
                Some((member_rows, local_pca)),
                2 * s_dim,
                params,
                depth + 1,
                stats,
                out,
                small,
            )?;
        } else {
            // Line 11: accept.
            out.push(SemiEllipsoid {
                members: member_indices,
                s_dim: local_s_dim,
                mpe,
                pca: Some(local_pca.truncated(start_dim(params, d, local_s_dim))),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(data: &Matrix, params: &MmdrParams) -> (Vec<SemiEllipsoid>, Vec<usize>, ReductionStats) {
        let mut stats = ReductionStats::default();
        let mut out = Vec::new();
        let mut small = Vec::new();
        let indices: Vec<usize> = (0..data.rows()).collect();
        generate_ellipsoid(
            data,
            &indices,
            params.initial_s_dim,
            params,
            &mut stats,
            &mut out,
            &mut small,
        )
        .unwrap();
        (out, small, stats)
    }

    /// One flat cluster along x in 4-d: accepted at the first level.
    #[test]
    fn single_flat_cluster_accepted_at_level_one() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 99.0;
                vec![t, 1e-4 * ((i % 5) as f64), 0.0, 0.0]
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let params = MmdrParams {
            max_ec: 2,
            ..Default::default()
        };
        let (out, small, stats) = run(&data, &params);
        assert!(small.is_empty());
        assert!(!out.is_empty());
        let total: usize = out.iter().map(|s| s.members.len()).sum();
        assert_eq!(total, 100);
        for s in &out {
            assert!(s.mpe <= params.max_mpe, "mpe {}", s.mpe);
        }
        assert!(stats.ge_invocations >= 1);
    }

    /// Two clusters flat in *different* dimensions: a 1-d global projection
    /// cannot represent both, so the algorithm must either split them at
    /// level 1 or recurse; the result must cover all points with small MPE.
    #[test]
    fn two_orthogonal_flats_are_separated() {
        let mut rows = Vec::new();
        // Cluster A: varies in dim 0, centred at origin.
        for i in 0..80 {
            let t = i as f64 / 79.0;
            rows.push(vec![t, 0.0, 0.0, 0.0]);
        }
        // Cluster B: varies in dim 2, centred far away.
        for i in 0..80 {
            let t = i as f64 / 79.0;
            rows.push(vec![5.0, 5.0, 5.0 + t, 5.0]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let params = MmdrParams {
            max_ec: 4,
            ..Default::default()
        };
        let (out, small, _) = run(&data, &params);
        let covered: usize = out.iter().map(|s| s.members.len()).sum::<usize>() + small.len();
        assert_eq!(covered, 160);
        // No accepted ellipsoid mixes the two clusters.
        for s in &out {
            let in_a = s.members.iter().filter(|&&i| i < 80).count();
            assert!(
                in_a == 0 || in_a == s.members.len(),
                "ellipsoid mixes clusters: {in_a}/{}",
                s.members.len()
            );
            assert!(s.mpe <= params.max_mpe);
        }
    }

    #[test]
    fn tiny_input_goes_to_small_set() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let params = MmdrParams {
            min_cluster_size: 16,
            ..Default::default()
        };
        let (out, small, _) = run(&data, &params);
        assert!(out.is_empty());
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn s_dim_is_clamped_to_d() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, -(i as f64)]).collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let params = MmdrParams {
            initial_s_dim: 10,
            max_ec: 2,
            ..Default::default()
        };
        let (out, _, stats) = run(&data, &params);
        assert!(stats.max_s_dim_reached <= 2);
        for s in &out {
            assert!(s.s_dim <= 2);
        }
    }

    #[test]
    fn recursion_terminates_on_noise() {
        // Pure isotropic noise: MPE never drops below MaxMPE at low dims,
        // but recursion must still end (depth/dimension caps).
        let mut state = 1u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..200).map(|_| (0..8).map(|_| rand()).collect()).collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let params = MmdrParams {
            max_ec: 3,
            ..Default::default()
        };
        let (out, small, _) = run(&data, &params);
        let covered: usize = out.iter().map(|s| s.members.len()).sum::<usize>() + small.len();
        assert_eq!(covered, 200);
    }
}
