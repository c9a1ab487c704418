//! Row-major dense matrix.

use crate::error::{Error, Result};

/// A dense, row-major `f64` matrix.
///
/// Datasets throughout the workspace are represented as matrices whose rows
/// are points; covariance matrices, projection bases and rotations are small
/// square or tall matrices. Storage is a single contiguous `Vec<f64>` so rows
/// can be handed out as slices without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns [`Error::DimensionMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                op: "Matrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a list of equal-length rows.
    ///
    /// Returns [`Error::Empty`] for an empty list and
    /// [`Error::DimensionMismatch`] when rows disagree in length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let first = rows.first().ok_or(Error::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(Error::DimensionMismatch {
                    op: "Matrix::from_rows",
                    lhs: (1, cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the cache-friendly `ikj` loop order with the inner loop over a
    /// contiguous row of `rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(Error::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self.iter_rows().map(|r| crate::vector::dot(r, v)).collect())
    }

    /// Element-wise sum.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scaled copy `s * self`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Sum of diagonal entries; requires a square matrix.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(Error::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// True when `|self[i][j] - self[j][i]| <= tol` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Selects a contiguous block of columns `[start, start+len)` as a new
    /// matrix. Used to split a PCA basis into retained/eliminated parts.
    pub fn columns(&self, start: usize, len: usize) -> Result<Matrix> {
        if start + len > self.cols {
            return Err(Error::DimensionMismatch {
                op: "columns",
                lhs: self.shape(),
                rhs: (start, len),
            });
        }
        let mut out = Matrix::zeros(self.rows, len);
        for i in 0..self.rows {
            out.row_mut(i)
                .copy_from_slice(&self.row(i)[start..start + len]);
        }
        Ok(out)
    }

    /// Stacks the rows at the given indices into a new matrix.
    ///
    /// Extracting cluster members from a dataset is the hot use of this.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Appends one row; the row length must equal `cols` (or the matrix must
    /// be empty, in which case it defines `cols`).
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "push_row",
                lhs: (self.rows, self.cols),
                rhs: (1, row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Maximum absolute entry; 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        assert!(m.is_square());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates() {
        assert_eq!(Matrix::from_rows(&[]), Err(Error::Empty));
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_trace() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.trace().unwrap(), 3.0);
        assert!(i3.is_symmetric(0.0));
        let m = Matrix::zeros(2, 3);
        assert!(m.trace().is_err());
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m22(1.5, -2.0, 0.25, 9.0);
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_multiplies_and_checks_width() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn add_sub_scale() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a.add(&b).unwrap(), m22(5.0, 5.0, 5.0, 5.0));
        assert_eq!(a.sub(&a).unwrap(), Matrix::zeros(2, 2));
        assert_eq!(a.scale(2.0), m22(2.0, 4.0, 6.0, 8.0));
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
        assert!(a.sub(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn columns_block() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let c = a.columns(1, 2).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![2.0, 3.0], vec![5.0, 6.0]]).unwrap()
        );
        assert!(a.columns(2, 2).is_err());
    }

    #[test]
    fn select_rows_copies() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[vec![3.0], vec![1.0]]).unwrap());
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m, m22(1.0, 2.0, 3.0, 4.0));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn norms_and_symmetry() {
        let m = m22(3.0, 0.0, 0.0, 4.0);
        assert!(m.is_symmetric(0.0));
        assert!(!m22(0.0, 1.0, 0.0, 0.0).is_symmetric(1e-9));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn iter_rows_yields_all() {
        let m = m22(1.0, 2.0, 3.0, 4.0);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn from_fn_builds() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
