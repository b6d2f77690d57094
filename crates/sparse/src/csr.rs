//! Compressed sparse row (CSR) matrix.
//!
//! The computational sparse format of the workspace. For the symmetric
//! matrices that dominate this reproduction, CSR and CSC coincide, which the
//! sparse Cholesky in [`crate::sparse_cholesky`] exploits.

use crate::coo::Coo;
use crate::dense::Dense;
use crate::error::{Error, Result};
use crate::ordering::Permutation;

/// An immutable CSR sparse matrix.
///
/// Invariants (enforced by construction):
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * column indices within each row are strictly increasing and `< n_cols`;
/// * `col_idx.len() == values.len() == row_ptr[n_rows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (debug-style validation, always on) if the invariants above do
    /// not hold; this constructor is meant for trusted internal callers such
    /// as [`Coo::to_csr`].
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr length");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(row_ptr.last().copied(), Some(col_idx.len()), "row_ptr end");
        assert_eq!(col_idx.len(), values.len(), "col/val length");
        for r in 0..n_rows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr monotone");
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns strictly increasing in row {r}");
            }
            if let Some(&last) = cols.last() {
                assert!(last < n_cols, "column index out of bounds in row {r}");
            }
        }
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Zero matrix with no stored entries.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Raw row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Raw values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (pattern is fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterate over `(col, value)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(r, c)`; zero if not stored. Binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// `y ← A x` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec: x length");
        assert_eq!(y.len(), self.n_rows, "matvec: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// `A x` as a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// ‖b − A x‖₂, computed row-at-a-time without allocating.
    // lint: hot-path
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_cols, "residual: x length");
        assert_eq!(b.len(), self.n_rows, "residual: b length");
        let mut sum_sq = 0.0;
        for (row, &br) in b.iter().enumerate() {
            let lo = self.row_ptr[row];
            let hi = self.row_ptr[row + 1];
            let mut acc = br;
            for k in lo..hi {
                acc -= self.values[k] * x[self.col_idx[k]];
            }
            sum_sq += acc * acc;
        }
        sum_sq.sqrt()
    }

    /// The diagonal as a dense vector (zeros where unstored).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Structural + numerical symmetry check with tolerance `tol`
    /// (relative to the larger of the two mirrored magnitudes).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.symmetry_violation(tol).is_none()
    }

    /// First `(row, col)` where symmetry fails, if any.
    pub fn symmetry_violation(&self, tol: f64) -> Option<(usize, usize)> {
        if self.n_rows != self.n_cols {
            return Some((self.n_rows, self.n_cols));
        }
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                let vt = self.get(c, r);
                let scale = v.abs().max(vt.abs()).max(1.0);
                if (v - vt).abs() > tol * scale {
                    return Some((r, c));
                }
            }
        }
        None
    }

    /// Validate symmetry, returning `Err` on the first violation.
    pub fn require_symmetric(&self, tol: f64) -> Result<()> {
        match self.symmetry_violation(tol) {
            None => Ok(()),
            Some((row, col)) => Err(Error::NotSymmetric { row, col }),
        }
    }

    /// Weak row diagonal dominance: `|a_ii| ≥ Σ_{j≠i} |a_ij|` for all rows,
    /// with at least one strict inequality (sufficient for SPD when the
    /// diagonal is positive and the matrix symmetric & irreducible).
    pub fn is_diag_dominant(&self) -> bool {
        let mut any_strict = false;
        for r in 0..self.n_rows {
            let mut off = 0.0;
            let mut diag = 0.0;
            for (c, v) in self.row(r) {
                if c == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag < off - 1e-14 * diag.max(off).max(1.0) {
                return false;
            }
            if diag > off + 1e-14 * diag.max(off).max(1.0) {
                any_strict = true;
            }
        }
        any_strict || self.n_rows == 0
    }

    /// Dense copy.
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                *d.get_mut(r, c) = v;
            }
        }
        d
    }

    /// COO copy (for re-assembly).
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.n_rows, self.n_cols, self.nnz());
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                coo.push_trusted(r, c, v);
            }
        }
        coo
    }

    /// Transpose (also converts CSR↔CSC interpretation).
    pub fn transpose(&self) -> Csr {
        let mut col_counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            col_counts[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            col_counts[i + 1] += col_counts[i];
        }
        let mut next = col_counts.clone();
        let mut rows = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                rows[slot] = r;
                vals[slot] = self.values[k];
                next[c] += 1;
            }
        }
        Csr::from_raw_parts(self.n_cols, self.n_rows, col_counts, rows, vals)
    }

    /// Principal submatrix on `keep` (indices must be sorted, unique, valid).
    /// Returns the submatrix in the order given by `keep`.
    pub fn principal_submatrix(&self, keep: &[usize]) -> Csr {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep must be sorted");
        let mut inv = vec![usize::MAX; self.n_cols];
        for (new, &old) in keep.iter().enumerate() {
            inv[old] = new;
        }
        let mut coo = Coo::with_capacity(keep.len(), keep.len(), self.nnz());
        for (new_r, &old_r) in keep.iter().enumerate() {
            for (c, v) in self.row(old_r) {
                let new_c = inv[c];
                if new_c != usize::MAX {
                    coo.push_trusted(new_r, new_c, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` of the result equals
    /// `A(p(i), p(j))` where `p = perm.new_to_old`.
    pub fn permute_sym(&self, perm: &Permutation) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "permute_sym: square only");
        assert_eq!(perm.len(), self.n_rows, "permute_sym: size");
        let old_to_new = perm.inverse();
        let mut coo = Coo::with_capacity(self.n_rows, self.n_cols, self.nnz());
        for r in 0..self.n_rows {
            let nr = old_to_new.new_to_old()[r];
            for (c, v) in self.row(r) {
                let nc = old_to_new.new_to_old()[c];
                coo.push_trusted(nr, nc, v);
            }
        }
        coo.to_csr()
    }

    /// A copy with `delta[i]` added to diagonal entry `i` (creating the entry
    /// if absent). Used to build the DTM local matrices `A + Z⁻¹`.
    pub fn add_to_diagonal(&self, delta: &[f64]) -> Csr {
        assert_eq!(delta.len(), self.n_rows.min(self.n_cols), "delta length");
        let mut coo = self.to_coo();
        for (i, &d) in delta.iter().enumerate() {
            if d != 0.0 {
                coo.push_trusted(i, i, d);
            }
        }
        coo.to_csr()
    }

    /// Maximum |value|.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> Csr {
        // System (3.2) of the paper.
        let mut coo = Coo::new(4, 4);
        for (i, d) in [5.0, 6.0, 7.0, 8.0].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(0, 2, -1.0).unwrap();
        coo.push_sym(1, 2, -2.0).unwrap();
        coo.push_sym(1, 3, -1.0).unwrap();
        coo.push_sym(2, 3, -2.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn matvec_matches_dense() {
        let a = paper_matrix();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = a.matvec(&x);
        let d = a.to_dense();
        let yd = d.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-14);
        }
        // Hand check of the first row: 5·1 −1·2 −1·3 = 0
        assert!((y[0] - 0.0).abs() < 1e-14);
    }

    #[test]
    fn symmetry_and_dominance() {
        let a = paper_matrix();
        assert!(a.is_symmetric(1e-14));
        assert!(a.is_diag_dominant());
        assert!(a.require_symmetric(0.0).is_ok());
    }

    #[test]
    fn asymmetric_detected() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(!a.is_symmetric(1e-12));
        assert!(matches!(
            a.require_symmetric(1e-12),
            Err(Error::NotSymmetric { .. })
        ));
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Csr::identity(5);
        let x = vec![1.0, -2.0, 3.0, 0.5, 9.0];
        assert_eq!(i.matvec(&x), x);
        assert_eq!(i.nnz(), 5);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = paper_matrix();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        // symmetric matrix: transpose equals itself
        assert_eq!(a, a.transpose());
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
    }

    #[test]
    fn principal_submatrix_extracts() {
        let a = paper_matrix();
        let s = a.principal_submatrix(&[1, 2]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.get(0, 0), 6.0);
        assert_eq!(s.get(1, 1), 7.0);
        assert_eq!(s.get(0, 1), -2.0);
        assert_eq!(s.get(1, 0), -2.0);
    }

    #[test]
    fn add_to_diagonal_creates_entries() {
        let a = Csr::zeros(3, 3);
        let b = a.add_to_diagonal(&[1.0, 0.0, 3.0]);
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(1, 1), 0.0);
        assert_eq!(b.get(2, 2), 3.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn permute_sym_diagonal_follows() {
        let a = paper_matrix();
        let p = Permutation::from_new_to_old(vec![3, 2, 1, 0]).unwrap();
        let b = a.permute_sym(&p);
        // Entry (i,j) of B equals A(p(i), p(j)).
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(b.get(i, j), a.get(3 - i, 3 - j), "({i},{j})");
            }
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Csr::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        assert!(a.residual_norm(&b, &b) < 1e-15);
    }

    #[test]
    fn get_missing_is_zero() {
        let a = paper_matrix();
        assert_eq!(a.get(0, 3), 0.0);
        assert_eq!(a.get(3, 0), 0.0);
    }

    #[test]
    fn norms() {
        let i = Csr::identity(4);
        assert_eq!(i.max_abs(), 1.0);
    }
}
