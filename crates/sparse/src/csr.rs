//! Compressed sparse row (CSR) matrix.
//!
//! The computational sparse format of the workspace. For the symmetric
//! matrices that dominate this reproduction, CSR and CSC coincide, which the
//! sparse Cholesky in [`crate::sparse_cholesky`] exploits.
//!
//! Column indices are stored as `u32` — 12 bytes an entry with its `f64`
//! value instead of 16 — so a matrix has at most [`MAX_COLS`] columns; the
//! row pointers stay `usize`, so the entry count is not bounded by the
//! narrower index. Every builder narrows as it stores, never a `usize`
//! copy afterwards: the public ones ([`Coo::to_csr`], the Matrix Market
//! reader) refuse a wider matrix with [`Error::TooManyColumns`] before
//! they allocate anything, and the ones that derive a matrix from another
//! (a permutation, a principal submatrix, a shifted diagonal) inherit a
//! width that fits.

use crate::coo::Coo;
use crate::dense::Dense;
use crate::error::{Error, Result};
use crate::ordering::Permutation;

/// The most columns a [`Csr`] holds: its column indices are `u32`, and
/// `u32::MAX` itself is never a valid one, so an index that does not fit
/// can saturate to it and still be caught as out of bounds.
pub const MAX_COLS: usize = u32::MAX as usize;

/// Refuse a column count that `u32` indices cannot name — the check every
/// fallible builder runs before allocating anything.
///
/// # Errors
/// [`Error::TooManyColumns`] if `n_cols > MAX_COLS`.
pub fn check_n_cols(context: &'static str, n_cols: usize) -> Result<()> {
    if n_cols > MAX_COLS {
        return Err(Error::TooManyColumns { context, n_cols });
    }
    Ok(())
}

/// `i` as a stored `u32` index. Every caller narrows an index below a
/// width that fits (checked by [`check_n_cols`], or inherited from a
/// `Csr`); one that does not saturates at `u32::MAX`, which no `Csr`
/// accepts as a column, so [`Csr::from_raw_parts`]'s invariant check
/// stops it instead of a wrapped index.
#[inline]
pub(crate) fn narrow(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// An immutable CSR sparse matrix.
///
/// Invariants (enforced by construction):
/// * `n_cols <= MAX_COLS`;
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * column indices within each row are strictly increasing and `< n_cols`;
/// * `col_idx.len() == values.len() == row_ptr[n_rows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
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
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert!(n_cols <= MAX_COLS, "{n_cols} columns exceed MAX_COLS");
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
                assert!(
                    (last as usize) < n_cols,
                    "column index out of bounds in row {r}"
                );
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
    ///
    /// # Panics
    /// Panics if `n > MAX_COLS`.
    pub fn identity(n: usize) -> Self {
        let cols = (0..n).map(narrow).collect();
        Self::from_raw_parts(n, n, (0..=n).collect(), cols, vec![1.0; n])
    }

    /// Zero matrix with no stored entries.
    ///
    /// # Panics
    /// Panics if `n_cols > MAX_COLS`.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        let row_ptr = vec![0; n_rows + 1];
        Self::from_raw_parts(n_rows, n_cols, row_ptr, Vec::new(), Vec::new())
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
    pub fn col_idx(&self) -> &[u32] {
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
            .map(|&c| c as usize)
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(r, c)`; zero if not stored. Binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let Ok(c) = u32::try_from(c) else {
            return 0.0;
        };
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
                acc += self.values[k] * x[self.col_idx[k] as usize];
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

    /// ‖b − A x‖₂, computed row-at-a-time without allocating: the
    /// [`residual_sq`](Self::residual_sq) of every row, summed in row order.
    // lint: hot-path
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_cols, "residual: x length");
        assert_eq!(b.len(), self.n_rows, "residual: b length");
        let mut sum_sq = 0.0;
        for (row, &br) in b.iter().enumerate() {
            sum_sq += self.residual_sq(row, x, br);
        }
        sum_sq.sqrt()
    }

    /// `(b_r − (A x)_r)²` for row `r` and `b_r = br`: `br` less each term
    /// of the row in column order, squared — the term
    /// [`residual_norm`](Self::residual_norm) adds for the row, bit for bit.
    // lint: hot-path
    #[inline]
    pub fn residual_sq(&self, r: usize, x: &[f64], br: f64) -> f64 {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let mut acc = br;
        for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            acc -= v * x[c as usize];
        }
        acc * acc
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
    ///
    /// # Panics
    /// Panics if `n_rows > MAX_COLS` (the transpose's columns).
    pub fn transpose(&self) -> Csr {
        let mut col_counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            col_counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            col_counts[i + 1] += col_counts[i];
        }
        let mut next = col_counts.clone();
        let mut rows = vec![0u32; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let slot = next[c];
                rows[slot] = narrow(r);
                vals[slot] = self.values[k];
                next[c] += 1;
            }
        }
        Csr::from_raw_parts(self.n_cols, self.n_rows, col_counts, rows, vals)
    }

    /// A matrix assembled row by row: `fill(r, row)` appends row `r`'s
    /// entries in any column order, each column at most once; they are
    /// sorted and exact zeros dropped — what [`Coo::to_csr`] does with
    /// them — and stored narrow, with no triplet copy in between.
    fn from_rows(
        n_rows: usize,
        n_cols: usize,
        cap: usize,
        mut fill: impl FnMut(usize, &mut Vec<(u32, f64)>),
    ) -> Csr {
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::with_capacity(cap);
        let mut values = Vec::with_capacity(cap);
        row_ptr.push(0);
        let mut row = Vec::new();
        for r in 0..n_rows {
            row.clear();
            fill(r, &mut row);
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter().filter(|&&(_, v)| v != 0.0) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw_parts(n_rows, n_cols, row_ptr, col_idx, values)
    }

    /// Principal submatrix on `keep` (indices must be sorted, unique, valid).
    /// Returns the submatrix in the order given by `keep`.
    pub fn principal_submatrix(&self, keep: &[usize]) -> Csr {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep must be sorted");
        // `u32::MAX` is never a kept column's new index (see `narrow`).
        let mut inv = vec![u32::MAX; self.n_cols];
        for (new, &old) in keep.iter().enumerate() {
            inv[old] = narrow(new);
        }
        Self::from_rows(keep.len(), keep.len(), self.nnz(), |new_r, row| {
            let kept = self.row(keep[new_r]).map(|(c, v)| (inv[c], v));
            row.extend(kept.filter(|&(c, _)| c != u32::MAX));
        })
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` of the result equals
    /// `A(p(i), p(j))` where `p = perm.new_to_old`.
    pub fn permute_sym(&self, perm: &Permutation) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "permute_sym: square only");
        assert_eq!(perm.len(), self.n_rows, "permute_sym: size");
        let old_to_new = perm.inverse();
        let old_to_new = old_to_new.new_to_old();
        Self::from_rows(self.n_rows, self.n_cols, self.nnz(), |i, row| {
            let old = self.row(perm.new_to_old()[i]);
            row.extend(old.map(|(c, v)| (narrow(old_to_new[c]), v)));
        })
    }

    /// A copy with `delta[i]` added to diagonal entry `i` (creating the entry
    /// if absent). Used to build the DTM local matrices `A + Z⁻¹`.
    pub fn add_to_diagonal(&self, delta: &[f64]) -> Csr {
        assert_eq!(delta.len(), self.n_rows.min(self.n_cols), "delta length");
        let cap = self.nnz() + delta.len();
        Self::from_rows(self.n_rows, self.n_cols, cap, |r, row| {
            let d = delta.get(r).copied().unwrap_or(0.0);
            let mut pending = d != 0.0;
            for (c, v) in self.row(r) {
                let add = pending && c == r;
                pending &= !add;
                row.push((narrow(c), if add { v + d } else { v }));
            }
            if pending {
                row.push((narrow(r), d));
            }
        })
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
        coo.to_csr().unwrap()
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
        let a = coo.to_csr().unwrap();
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
        let a = coo.to_csr().unwrap();
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

    /// A matrix as the triplet path assembles it: the oracle of the
    /// row-by-row builders, which replaced it for the derived matrices.
    fn via_triplets(n: usize, entries: Vec<(usize, usize, f64)>) -> Csr {
        let mut coo = Coo::new(n, n);
        for (r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr().unwrap()
    }

    fn triplets(a: &Csr) -> Vec<(usize, usize, f64)> {
        (0..a.n_rows())
            .flat_map(|r| a.row(r).map(move |(c, v)| (r, c, v)))
            .collect()
    }

    proptest::proptest! {
        /// Permuted, shifted and restricted copies are the triplet path's,
        /// bit for bit: the same pattern and values, with a diagonal that
        /// a shift creates where it was missing and drops where it cancels.
        #[test]
        fn row_builders_are_the_triplet_path(
            n in 1usize..60,
            degree in 0usize..6,
            seed in proptest::prelude::any::<u64>(),
            shift in -2.0f64..2.0,
        ) {
            let full = crate::generators::random_spd(n, degree, 0.5, seed);
            // Every third diagonal entry missing.
            let kept = triplets(&full).into_iter().filter(|&(r, c, _)| r != c || r % 3 != 0);
            let a = via_triplets(n, kept.collect());
            let p = crate::ordering::reverse_cuthill_mckee(&a);
            let old_to_new = p.inverse();
            let moved = triplets(&a).into_iter().map(|(r, c, v)| {
                (old_to_new.new_to_old()[r], old_to_new.new_to_old()[c], v)
            });
            proptest::prop_assert_eq!(a.permute_sym(&p), via_triplets(n, moved.collect()));
            let delta: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -a.get(i, i),
                    _ => shift * (i as f64 + 0.5),
                })
                .collect();
            let mut shifted = triplets(&a);
            shifted.extend((0..n).filter(|&i| delta[i] != 0.0).map(|i| (i, i, delta[i])));
            proptest::prop_assert_eq!(a.add_to_diagonal(&delta), via_triplets(n, shifted));
            let keep: Vec<usize> = (0..n).filter(|i| (seed >> (i % 64)) & 1 == 1).collect();
            let mut inv = vec![usize::MAX; n];
            for (new, &old) in keep.iter().enumerate() {
                inv[old] = new;
            }
            let restricted = triplets(&a)
                .into_iter()
                .filter(|&(r, c, _)| inv[r] != usize::MAX && inv[c] != usize::MAX)
                .map(|(r, c, v)| (inv[r], inv[c], v));
            proptest::prop_assert_eq!(
                a.principal_submatrix(&keep),
                via_triplets(keep.len(), restricted.collect())
            );
        }
    }
}
