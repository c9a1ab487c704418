//! Sample mean and covariance estimation.

use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::par::{map_ranges, ParConfig};

/// Mean vector of a dataset whose rows are points.
///
/// Returns [`Error::Empty`] for a matrix with zero rows.
pub fn mean_vector(data: &Matrix) -> Result<Vec<f64>> {
    if data.rows() == 0 {
        return Err(Error::Empty);
    }
    mean_rows(data.iter_rows())
}

/// [`mean_vector`] over any sequence of equal-length rows, with the same
/// arithmetic (sum in iteration order, then one multiplication by `1/N`),
/// so a mean taken over rows that live outside a [`Matrix`] is
/// bit-identical to one taken over a matrix holding them in that order.
pub fn mean_rows<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Result<Vec<f64>> {
    let mut rows = rows.into_iter().peekable();
    let mut mean = vec![0.0; rows.peek().ok_or(Error::Empty)?.len()];
    let mut n = 0usize;
    for row in rows {
        if row.len() != mean.len() {
            return Err(Error::DimensionMismatch {
                op: "mean_rows",
                lhs: (n, mean.len()),
                rhs: (1, row.len()),
            });
        }
        crate::vector::add_assign(&mut mean, row);
        n += 1;
    }
    crate::vector::scale_assign(&mut mean, 1.0 / n as f64);
    Ok(mean)
}

/// Sample covariance matrix of a dataset whose rows are points, centred on
/// the sample mean.
///
/// Uses the maximum-likelihood normalization `1/N` (not `1/(N-1)`): the
/// normalized Mahalanobis distance of Definition 3.2 treats the cluster as a
/// Gaussian density, for which the ML estimate is the natural plug-in. A
/// single point yields the zero matrix.
pub fn covariance(data: &Matrix) -> Result<Matrix> {
    let mean = mean_vector(data)?;
    covariance_about(data, &mean)
}

/// Covariance of `data` about an explicit centre `o` (normalization `1/N`).
///
/// The elliptical k-means outer loop re-estimates each cluster's covariance
/// about the cluster centroid, which is exactly this computation.
pub fn covariance_about(data: &Matrix, o: &[f64]) -> Result<Matrix> {
    if data.rows() == 0 {
        return Err(Error::Empty);
    }
    let d = data.cols();
    if o.len() != d {
        return Err(Error::DimensionMismatch {
            op: "covariance_about",
            lhs: data.shape(),
            rhs: (o.len(), 1),
        });
    }
    let mut cov = Matrix::zeros(d, d);
    accumulate_scatter(data, o, 0..data.rows(), &mut cov);
    normalize_scatter(&mut cov, data.rows());
    Ok(cov)
}

/// Adds the upper-triangle scatter of rows `range` about `o` into `cov`.
fn accumulate_scatter(data: &Matrix, o: &[f64], range: std::ops::Range<usize>, cov: &mut Matrix) {
    let d = data.cols();
    let mut centred = vec![0.0; d];
    for r in range {
        let row = data.row(r);
        for (c, (x, m)) in centred.iter_mut().zip(row.iter().zip(o)) {
            *c = x - m;
        }
        // Accumulate the upper triangle of the outer product only.
        for i in 0..d {
            let ci = centred[i];
            if ci == 0.0 {
                continue;
            }
            let row_i = cov.row_mut(i);
            for j in i..d {
                row_i[j] += ci * centred[j];
            }
        }
    }
}

/// Scales an upper-triangle scatter by `1/n` and mirrors it to full symmetry.
fn normalize_scatter(cov: &mut Matrix, n: usize) {
    let d = cov.rows();
    let inv_n = 1.0 / n as f64;
    for i in 0..d {
        for j in i..d {
            let v = cov[(i, j)] * inv_n;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
}

/// [`mean_vector`] with deterministic chunk-and-merge parallelism: per-chunk
/// partial sums are merged in chunk order, so the result is bit-identical
/// for every `num_threads` (see the crate's `par` module).
pub fn mean_vector_par(data: &Matrix, par: &ParConfig) -> Result<Vec<f64>> {
    if data.rows() == 0 {
        return Err(Error::Empty);
    }
    let d = data.cols();
    let partials = map_ranges(data.rows(), par, |range| {
        let mut sum = vec![0.0; d];
        for r in range {
            crate::vector::add_assign(&mut sum, data.row(r));
        }
        sum
    });
    let mut mean = partials
        .into_iter()
        .reduce(|mut acc, p| {
            crate::vector::add_assign(&mut acc, &p);
            acc
        })
        .expect("non-empty data yields at least one chunk");
    crate::vector::scale_assign(&mut mean, 1.0 / data.rows() as f64);
    Ok(mean)
}

/// [`covariance_about`] with deterministic chunk-and-merge parallelism:
/// per-chunk scatter matrices are merged in chunk order before the single
/// `1/N` normalization, so the result is bit-identical for every
/// `num_threads`.
pub fn covariance_about_par(data: &Matrix, o: &[f64], par: &ParConfig) -> Result<Matrix> {
    if data.rows() == 0 {
        return Err(Error::Empty);
    }
    let d = data.cols();
    if o.len() != d {
        return Err(Error::DimensionMismatch {
            op: "covariance_about_par",
            lhs: data.shape(),
            rhs: (o.len(), 1),
        });
    }
    let partials = map_ranges(data.rows(), par, |range| {
        let mut scatter = Matrix::zeros(d, d);
        accumulate_scatter(data, o, range, &mut scatter);
        scatter
    });
    let mut cov = partials
        .into_iter()
        .reduce(|mut acc, p| {
            for i in 0..d {
                let acc_i = acc.row_mut(i);
                let p_i = p.row(i);
                for j in i..d {
                    acc_i[j] += p_i[j];
                }
            }
            acc
        })
        .expect("non-empty data yields at least one chunk");
    normalize_scatter(&mut cov, data.rows());
    Ok(cov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_points() {
        let data = Matrix::from_rows(&[vec![1.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(mean_vector(&data).unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let data = Matrix::zeros(0, 3);
        assert_eq!(mean_vector(&data), Err(Error::Empty));
        assert_eq!(covariance(&data), Err(Error::Empty));
    }

    #[test]
    fn covariance_of_single_point_is_zero() {
        let data = Matrix::from_rows(&[vec![5.0, -1.0]]).unwrap();
        assert_eq!(covariance(&data).unwrap(), Matrix::zeros(2, 2));
    }

    #[test]
    fn covariance_hand_computed() {
        // Points (0,0), (2,2): mean (1,1); each centred point (±1, ±1).
        // Cov = 1/2 * ((1,1)(1,1)^T + (1,1)(1,1)^T) = [[1,1],[1,1]].
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0]]).unwrap();
        let c = covariance(&data).unwrap();
        for &(i, j) in &[(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!((c[(i, j)] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diagonal_nonneg() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.3, 2.2],
            vec![0.7, -0.1, 1.0],
            vec![2.0, 2.0, 2.0],
        ])
        .unwrap();
        let c = covariance(&data).unwrap();
        assert!(c.is_symmetric(1e-12));
        for i in 0..3 {
            assert!(c[(i, i)] >= 0.0);
        }
    }

    #[test]
    fn covariance_about_shifted_centre() {
        let data = Matrix::from_rows(&[vec![1.0], vec![3.0]]).unwrap();
        // About the mean (2): var = 1. About 0: E[x^2] = (1+9)/2 = 5.
        assert!((covariance(&data).unwrap()[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((covariance_about(&data, &[0.0]).unwrap()[(0, 0)] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_about_validates_dims() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(covariance_about(&data, &[0.0]).is_err());
        assert!(covariance_about_par(&data, &[0.0], &ParConfig::serial()).is_err());
    }

    /// Deterministic multi-chunk dataset (larger than one `PAR_CHUNK`).
    fn pseudo_random_data(n: usize, d: usize) -> Matrix {
        let mut rows = Vec::with_capacity(n);
        let mut state = 0x9E37_79B9u64;
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for _ in 0..d {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5);
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn par_variants_bit_identical_across_thread_counts() {
        let data = pseudo_random_data(3000, 5);
        let m1 = mean_vector_par(&data, &ParConfig::serial()).unwrap();
        let c1 = covariance_about_par(&data, &m1, &ParConfig::serial()).unwrap();
        for threads in [2, 4, 8] {
            let par = ParConfig::threads(threads);
            assert_eq!(mean_vector_par(&data, &par).unwrap(), m1);
            assert_eq!(covariance_about_par(&data, &m1, &par).unwrap(), c1);
        }
    }

    #[test]
    fn par_variants_match_serial_closely() {
        let data = pseudo_random_data(2500, 4);
        let mean = mean_vector(&data).unwrap();
        let mean_p = mean_vector_par(&data, &ParConfig::threads(4)).unwrap();
        for (a, b) in mean.iter().zip(&mean_p) {
            assert!((a - b).abs() < 1e-12);
        }
        let cov = covariance_about(&data, &mean).unwrap();
        let cov_p = covariance_about_par(&data, &mean, &ParConfig::threads(4)).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((cov[(i, j)] - cov_p[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn par_single_chunk_is_exactly_serial() {
        // Under one PAR_CHUNK of rows the chunked reduction degenerates to
        // the serial fold, so the results agree bitwise.
        let data = pseudo_random_data(200, 3);
        let mean = mean_vector(&data).unwrap();
        assert_eq!(
            mean,
            mean_vector_par(&data, &ParConfig::threads(8)).unwrap()
        );
        assert_eq!(
            covariance_about(&data, &mean).unwrap(),
            covariance_about_par(&data, &mean, &ParConfig::threads(8)).unwrap()
        );
    }
}
