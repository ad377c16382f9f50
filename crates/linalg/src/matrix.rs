//! Column-major dense matrix of `f64`.
//!
//! The layout mirrors LAPACK conventions (column-major with a leading
//! dimension equal to the row count) so the blocked factorizations in this
//! crate read like their ScaLAPACK counterparts in the paper.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense column-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create an `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create an identity matrix of order `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Create from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Create from rows given as nested slices (row-major input).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the backing column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        let start = j * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let start = j * self.rows;
        &mut self.data[start..start + self.rows]
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Unchecked-ish linear index of `(i, j)`.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        j * self.rows + i
    }

    /// Transposed copy.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extract the sub-matrix starting at `(i0, j0)` of shape `r x c`.
    pub fn submatrix(&self, i0: usize, j0: usize, r: usize, c: usize) -> Matrix {
        assert!(i0 + r <= self.rows && j0 + c <= self.cols, "submatrix out of bounds");
        Matrix::from_fn(r, c, |i, j| self[(i0 + i, j0 + j)])
    }

    /// Overwrite the block starting at `(i0, j0)` with `block`.
    pub fn set_submatrix(&mut self, i0: usize, j0: usize, block: &Matrix) {
        assert!(
            i0 + block.rows <= self.rows && j0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for j in 0..block.cols {
            for i in 0..block.rows {
                self[(i0 + i, j0 + j)] = block[(i, j)];
            }
        }
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Elementwise `self - other` (shapes must agree).
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise `self + other` (shapes must agree).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Matrix-vector product `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// True when `|self - other|_max <= atol + rtol * |other|_max`.
    pub fn approx_eq(&self, other: &Matrix, rtol: f64, atol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        let tol = atol + rtol * other.norm_max();
        self.sub(other).norm_max() <= tol
    }

    /// Lower-triangular copy (entries above the diagonal zeroed).
    #[cfg(test)]
    pub(crate) fn tril(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| if i >= j { self[(i, j)] } else { 0.0 })
    }

    /// Upper-triangular copy (entries below the diagonal zeroed).
    pub fn triu(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| if i <= j { self[(i, j)] } else { 0.0 })
    }

    /// Swap rows `a` and `b` over all columns.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let ia = self.idx(a, j);
            let ib = self.idx(b, j);
            self.data.swap(ia, ib);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[self.idx(i, j)]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        let k = self.idx(i, j);
        &mut self.data[k]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_square());
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        // column 0 first: (0,0), (1,0), then column 1 ...
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.col(1), &[1.0, 11.0]);
        assert_eq!(m.row(1), vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn submatrix_and_set() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        let mut m2 = Matrix::zeros(4, 4);
        m2.set_submatrix(1, 2, &s);
        assert_eq!(m2[(2, 3)], m[(2, 3)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn norm_max_is_the_largest_magnitude() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn matvec_basic() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.swap_rows(0, 1);
        assert_eq!(a.row(0), vec![3.0, 4.0]);
        assert_eq!(a.row(1), vec![1.0, 2.0]);
    }

    #[test]
    fn tril_triu() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.tril()[(0, 1)], 0.0);
        assert_eq!(a.triu()[(1, 0)], 0.0);
        assert_eq!(a.tril().add(&a.triu())[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_col_major_checks_len() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0; 3]);
    }
}
