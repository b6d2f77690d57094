//! Column-major dense matrix.
//!
//! Local DTM subsystems are small (tens to a few hundred unknowns per
//! processor in the paper's experiments), so a simple dense path is both the
//! reference implementation and frequently the fastest choice; the sparse
//! Cholesky takes over for larger blocks.

use crate::error::{Error, Result};

/// Column-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    n_rows: usize,
    n_cols: usize,
    /// `data[c * n_rows + r]` is entry `(r, c)`.
    data: Vec<f64>,
}

impl Dense {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Identity of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            *m.get_mut(i, i) = 1.0;
        }
        m
    }

    /// Build from a row-major slice of slices (convenient in tests).
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        for r in rows {
            if r.len() != n_cols {
                return Err(Error::DimensionMismatch {
                    context: "Dense::from_rows",
                    expected: n_cols,
                    actual: r.len(),
                });
            }
        }
        let mut m = Self::zeros(n_rows, n_cols);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                *m.get_mut(i, j) = v;
            }
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        self.data[c * self.n_rows + r]
    }

    /// Mutable entry `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        &mut self.data[c * self.n_rows + r]
    }

    /// Column `c` as a slice (column-major storage makes this free).
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.n_rows..(c + 1) * self.n_rows]
    }

    /// `y ← A x` (no allocation).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "dense matvec: x length");
        assert_eq!(y.len(), self.n_rows, "dense matvec: y length");
        y.fill(0.0);
        // Column-major: iterate columns outermost for unit-stride access.
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let col = self.col(c);
            for (yi, &a) in y.iter_mut().zip(col) {
                *yi += a * xc;
            }
        }
    }

    /// `A x` as a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Max-abs difference to another matrix (∞ if shapes differ).
    pub fn max_abs_diff(&self, other: &Dense) -> f64 {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Is this matrix symmetric within `tol`?
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        for r in 0..self.n_rows {
            for c in (r + 1)..self.n_cols {
                let (a, b) = (self.get(r, c), self.get(c, r));
                if (a - b).abs() > tol * a.abs().max(b.abs()).max(1.0) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn ragged_rejected() {
        let e = Dense::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(matches!(e, Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn matvec() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = m.matvec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn identity_is_symmetric() {
        assert!(Dense::identity(4).is_symmetric(0.0));
        let mut m = Dense::identity(2);
        *m.get_mut(0, 1) = 5.0;
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn max_abs_diff() {
        let a = Dense::identity(2);
        let mut b = Dense::identity(2);
        *b.get_mut(1, 0) = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&Dense::zeros(3, 3)), f64::INFINITY);
    }
}
