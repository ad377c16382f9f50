//! Compressed sparse row matrices and stencil generators.
//!
//! FT-CG is "the most memory intensive ABFT" in the paper because its
//! per-iteration work streams a large operator plus five Krylov vectors with
//! little reuse. A CSR 5-point Poisson operator reproduces that access
//! profile on laptop-scale inputs.

/// Compressed sparse row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry.
    col_idx: Vec<usize>,
    /// Stored values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from triplets `(row, col, value)`; duplicate entries are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(i, j, v) in triplets {
            assert!(i < rows && j < cols, "triplet ({i},{j}) out of bounds");
            per_row[i].push((j, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(j, _)| j);
            let mut last: Option<usize> = None;
            for &(j, v) in row.iter() {
                if last == Some(j) {
                    #[expect(
                        clippy::expect_used,
                        reason = "`last == Some(j)` implies a prior push; infallible"
                    )]
                    let value = values.last_mut().expect("entry exists");
                    *value += v;
                } else {
                    col_idx.push(j);
                    values.push(v);
                    last = Some(j);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sparse matrix-vector product `y = A x` into an existing buffer.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        assert_eq!(y.len(), self.rows, "spmv output mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.values[k] * x[self.col_idx[k]];
            }
            *yi = s;
        }
    }

    /// `|A| e`: each row's sum of absolute entries.
    pub(crate) fn abs_row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| {
                self.values[self.row_ptr[i]..self.row_ptr[i + 1]].iter().map(|v| v.abs()).sum()
            })
            .collect()
    }

    /// Extract the diagonal (zero where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *di = self.values[k];
                }
            }
        }
        d
    }

    /// Densify (O(rows*cols) memory).
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> crate::Matrix {
        let mut m = crate::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] += self.values[k];
            }
        }
        m
    }
}

/// 5-point finite-difference Laplacian on an `nx x ny` grid (Dirichlet
/// boundaries): the standard SPD test operator for CG.
pub fn poisson_2d(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let mut triplets = Vec::with_capacity(5 * n);
    let id = |ix: usize, iy: usize| iy * nx + ix;
    for iy in 0..ny {
        for ix in 0..nx {
            let r = id(ix, iy);
            triplets.push((r, r, 4.0));
            if ix > 0 {
                triplets.push((r, id(ix - 1, iy), -1.0));
            }
            if ix + 1 < nx {
                triplets.push((r, id(ix + 1, iy), -1.0));
            }
            if iy > 0 {
                triplets.push((r, id(ix, iy - 1), -1.0));
            }
            if iy + 1 < ny {
                triplets.push((r, id(ix, iy + 1), -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_round_trip() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 5.0), (0, 2, 2.0)]);
        assert_eq!(a.nnz(), 3);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(1, 2)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense()[(0, 0)], 3.5);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = poisson_2d(4, 3);
        let x: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let mut sparse_y = vec![0.0; 12];
        a.spmv_into(&x, &mut sparse_y);
        let dense_y = a.to_dense().matvec(&x);
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            assert!((s - d).abs() < 1e-14);
        }
    }

    #[test]
    fn poisson_structure() {
        let a = poisson_2d(5, 5);
        assert_eq!(a.rows(), 25);
        let d = a.to_dense();
        assert!(d.approx_eq(&d.transpose(), 0.0, 1e-14), "symmetric");
        // 25 diagonal entries plus two entries per grid edge
        // (horizontal edges: 4*5, vertical edges: 5*4).
        assert_eq!(a.nnz(), 25 + 2 * (4 * 5 + 5 * 4));
        let d = a.diagonal();
        assert!(d.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn spmv_constant_vector_interior_zero() {
        // Laplacian of a constant is zero away from the boundary.
        let a = poisson_2d(5, 5);
        let mut y = vec![0.0; 25];
        a.spmv_into(&[1.0; 25], &mut y);
        assert_eq!(y[12], 0.0); // center point
        assert!(y[0] > 0.0); // corner feels the Dirichlet boundary
    }
}
