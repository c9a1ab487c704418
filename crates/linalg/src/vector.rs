//! Free functions on `&[f64]` slices.
//!
//! Points in the MMDR pipeline are stored contiguously inside row-major
//! matrices, so the natural vector type is a slice, not an owned newtype.
//! Dimension agreement is enforced with `assert_eq!` rather than `Result`:
//! mismatched point dimensionalities inside these hot loops are programmer
//! errors, and the callers (PCA, clustering) validate shapes once at the API
//! boundary.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance. Preferred in inner loops since it avoids the
/// `sqrt` and preserves ordering.
#[inline]
pub fn l2_dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l2_dist_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean (`L2`) distance.
#[inline]
pub fn l2_dist(a: &[f64], b: &[f64]) -> f64 {
    l2_dist_sq(a, b).sqrt()
}

/// Distance from a query to a *reduced representation*: the point lies in an
/// affine subspace at squared distance `proj_sq` from the query, and `a`/`b`
/// are the query's and point's coordinates within that subspace, so
/// `‖q − restore(p)‖ = √(proj_sq + ‖a − b‖²)`.
///
/// Every KNN backend (sequential scan, extended iDistance, gLDR) measures
/// this same quantity; keeping the arithmetic in one place guarantees their
/// answers are comparable bit-for-bit.
#[inline]
pub fn reduced_dist(proj_sq: f64, a: &[f64], b: &[f64]) -> f64 {
    (proj_sq + l2_dist_sq(a, b)).sqrt()
}

/// Early-abandoning squared Euclidean distance: returns `None` as soon as
/// the running sum strictly exceeds `bound_sq`, `Some(dist_sq)` otherwise.
///
/// For top-k searches the bound is the current k-th best squared distance;
/// a candidate strictly beyond it can never enter the result, so the
/// remaining dimensions need not be summed. Partial sums of squares are
/// monotonically non-decreasing, so `None` guarantees the full distance
/// exceeds the bound. A candidate *at* the bound is returned in full —
/// callers that break distance ties (e.g. by point id) still see it and
/// apply their own tie rule, which keeps results identical to the
/// non-abandoning scan.
#[inline]
pub fn l2_dist_sq_within(a: &[f64], b: &[f64], bound_sq: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "l2_dist_sq_within: length mismatch");
    let mut acc = 0.0;
    // Sum in fixed chunks of 8: one bound check per chunk keeps the loop
    // vectorizable while the summation order stays identical to
    // `l2_dist_sq`'s (plain left-to-right), preserving bit-equality of the
    // returned value.
    let mut i = 0;
    while i < a.len() {
        let end = (i + 8).min(a.len());
        while i < end {
            let d = a[i] - b[i];
            acc += d * d;
            i += 1;
        }
        if acc > bound_sq {
            return None;
        }
    }
    Some(acc)
}

/// Euclidean norm of a single vector.
#[inline]
pub fn l2_norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Element-wise sum, producing a new vector.
#[inline]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference, producing a new vector.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// In-place element-wise sum: `a += b`.
#[inline]
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Scaled copy: `s * a`.
#[inline]
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// In-place scaling: `a *= s`.
#[inline]
pub fn scale_assign(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

/// `y += alpha * x`, the classic BLAS-1 primitive.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn distances_agree_on_simple_cases() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(l2_dist_sq(&a, &b), 25.0);
        assert_eq!(l2_dist(&a, &b), 5.0);
    }

    #[test]
    fn norms() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, 2.0], 2.5), vec![2.5, 5.0]);
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[1.0, 1.0]);
        assert_eq!(a, vec![2.0, 3.0]);
        scale_assign(&mut a, 0.5);
        assert_eq!(a, vec![1.0, 1.5]);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn reduced_dist_matches_full_space_identity() {
        // q at height 2 above the plane, in-plane offset (3, 4): the full
        // distance is √(2² + 5²).
        let d = reduced_dist(4.0, &[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 29.0f64.sqrt()).abs() < 1e-15);
        // Zero projection distance degenerates to plain L2.
        assert_eq!(reduced_dist(0.0, &[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn bounded_distance_agrees_with_plain() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.91).cos()).collect();
        let full = l2_dist_sq(&a, &b);
        // Generous bound: the exact value comes back bit-identically.
        let v = l2_dist_sq_within(&a, &b, full * 2.0).unwrap();
        assert_eq!(v.to_bits(), full.to_bits());
        // Tight bound: abandoned.
        assert!(l2_dist_sq_within(&a, &b, full * 0.5).is_none());
        // A tie at the bound is still returned in full, so callers can
        // apply their own tie-breaking rule.
        assert_eq!(l2_dist_sq_within(&a, &b, full), Some(full));
        // Zero-length inputs have distance 0.
        assert_eq!(l2_dist_sq_within(&[], &[], 1.0), Some(0.0));
    }
}
