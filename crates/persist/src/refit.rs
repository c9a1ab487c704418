//! The re-fit's own stage: the MMDR fit over the rows that survive, keyed
//! by the ids the engine serves.
//!
//! A drifted insert stream leaves the fitted model describing data that is
//! no longer there: routed inserts land in clusters whose subspaces were
//! fitted before the stream moved, so projection errors — and therefore
//! `pages_touched` per query — creep up even though answers stay exact.
//! [`IngestEngine::refit`](crate::IngestEngine::refit) cures that on
//! request in three stages, off-lock, of which this module owns the
//! middle one:
//!
//! 1. [`mmdr_idistance::restored_rows`] exports every live base row in its
//!    *restored representation* `restore(project(v))`. Base rows are
//!    stored reduced, so the original coordinates are unrecoverable; the
//!    restored representation is the exact vector every backend already
//!    answers queries against, and it is bitwise-identical across
//!    backends.
//! 2. [`refit_model`] fits a fresh model over the survivors — in memory,
//!    with [`Mmdr::fit`], since they are already one matrix — and remaps its
//!    row-position membership back to the engine's stable point ids. Dead
//!    ids are parked in the outlier set so the model stays a partition of
//!    `0..next_id` and the id-based WAL replay-skip rule keeps working
//!    after a crash.
//! 3. [`mmdr_idistance::load_exact`] loads fresh base structures from the
//!    model and the id-keyed rows, through the same loader as the
//!    from-scratch build: the result is byte for byte what a build over
//!    the same rows would save. Loading is *member-driven*: it iterates
//!    the model's member lists rather than re-routing rows, so the fit's
//!    partition is authoritative.
//!
//! Fitting then loading over the same rows produces an index whose answers
//! are exact by construction: every live row is present exactly once, in
//! the representation the model was fitted on.

use crate::error::{PersistError, Result};
use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_linalg::Matrix;
use std::collections::BTreeMap;

/// Fits a fresh model over `rows` with the in-memory MMDR algorithm and
/// remaps its row-position membership to the ids the engine serves.
///
/// `next_id` is the engine's id allocator at the time the row set was
/// captured; every id in `0..next_id` that is absent from `rows` (deleted,
/// or folded out long ago) is parked in the outlier set, so the result is
/// a partition of `0..next_id` — the invariant the snapshot codec enforces
/// and the WAL replay-skip rule (`Insert id < num_points` is folded)
/// depends on.
pub fn refit_model(
    rows: &BTreeMap<u64, Vec<f64>>,
    next_id: u64,
    params: &MmdrParams,
) -> Result<ReductionResult> {
    if rows.is_empty() {
        return Err(PersistError::malformed(
            "re-fit over zero surviving rows".to_string(),
        ));
    }
    let ids: Vec<u64> = rows.keys().copied().collect();
    let data = Matrix::from_rows(&rows.values().cloned().collect::<Vec<_>>())?;
    let mut model = Mmdr::new(params.clone()).fit(&data)?;

    // The fit partitions row *positions*; the engine speaks stable ids.
    for cluster in &mut model.clusters {
        for m in &mut cluster.members {
            *m = ids[*m] as usize;
        }
    }
    for o in &mut model.outliers {
        *o = ids[*o] as usize;
    }
    // Park ids with no surviving row so the model stays a partition.
    let live: std::collections::HashSet<u64> = ids.iter().copied().collect();
    for id in 0..next_id {
        if !live.contains(&id) {
            model.outliers.push(id as usize);
        }
    }
    model.num_points = next_id as usize;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::build_index;
    use mmdr_idistance::{load_exact, restored_rows, Backend, BuiltIndex};

    fn dataset() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..120 {
            let t = i as f64 / 119.0;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    fn params() -> MmdrParams {
        MmdrParams {
            max_ec: 4,
            ..Default::default()
        }
    }

    fn model_for(data: &Matrix) -> ReductionResult {
        Mmdr::new(params()).fit(data).unwrap()
    }

    #[test]
    fn restored_rows_agree_across_backends() {
        let data = dataset();
        let model = model_for(&data);
        let mut per_backend = Vec::new();
        for backend in Backend::all() {
            let built = build_index(backend, &data, &model, 128).unwrap();
            per_backend.push((backend, restored_rows(&built, &model).unwrap()));
        }
        let (_, reference) = &per_backend[0];
        assert_eq!(reference.len(), data.rows());
        for (backend, rows) in &per_backend[1..] {
            assert_eq!(rows.len(), reference.len(), "{}", backend.name());
            for (id, row) in reference {
                let other = &rows[id];
                assert_eq!(row.len(), other.len());
                for (a, b) in row.iter().zip(other) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}: id {id} restored representation",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn refit_model_is_a_partition_with_parked_dead_ids() {
        let data = dataset();
        let model = model_for(&data);
        let built = build_index(Backend::SeqScan, &data, &model, 128).unwrap();
        let mut rows = restored_rows(&built, &model).unwrap();
        for dead in [3u64, 77, 150] {
            rows.remove(&dead);
        }
        let next_id = data.rows() as u64 + 2; // two ids allocated, both dead
        let refit = refit_model(&rows, next_id, &params()).unwrap();
        assert!(refit.is_partition());
        assert_eq!(refit.num_points, next_id as usize);
        for dead in [3usize, 77, 150, 240, 241] {
            assert!(refit.outliers.contains(&dead), "dead id {dead} parked");
        }
    }

    #[test]
    fn fit_then_load_answers_like_seqscan_over_survivors() {
        let data = dataset();
        let model = model_for(&data);
        let built = build_index(Backend::SeqScan, &data, &model, 128).unwrap();
        let mut rows = restored_rows(&built, &model).unwrap();
        rows.remove(&10);
        let refit = refit_model(&rows, data.rows() as u64, &params()).unwrap();
        let attached: Vec<BuiltIndex> = Backend::all()
            .into_iter()
            .map(|b| load_exact(b, &refit, 128, |id| rows.get(&id).map(Vec::as_slice)).unwrap())
            .collect();
        for qi in [0usize, 7, 41, 113] {
            let q = data.row(qi);
            let want = attached[0].as_dyn().knn(q, 10).unwrap();
            let want_ids: std::collections::HashSet<u64> = want.iter().map(|&(_, id)| id).collect();
            assert!(!want_ids.contains(&10), "deleted id stays gone");
            for built in &attached[1..] {
                let got = built.as_dyn().knn(q, 10).unwrap();
                let got_ids: std::collections::HashSet<u64> =
                    got.iter().map(|&(_, id)| id).collect();
                assert_eq!(got_ids, want_ids, "{} vs SeqScan", built.backend().name());
            }
        }
    }

    #[test]
    fn refit_over_no_rows_is_an_error() {
        assert!(refit_model(&BTreeMap::new(), 5, &params()).is_err());
    }
}
