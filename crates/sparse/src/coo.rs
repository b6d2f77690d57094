//! Coordinate-format (COO) sparse matrix builder.
//!
//! COO is the mutable "assembly" format: entries are appended in any order
//! (duplicates allowed — they sum), then compressed into [`crate::Csr`] for
//! computation. This mirrors how finite-difference / circuit matrices are
//! assembled element by element.

use crate::csr::Csr;
use crate::error::{Error, Result};

/// A sparse matrix under assembly, stored as `(row, col, value)` triplets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Coo {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// New empty `rows × cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// New empty matrix with room for `cap` triplets.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The raw triplets.
    pub fn triplets(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Append `value` at `(row, col)`. Duplicates accumulate on compression.
    ///
    /// # Errors
    /// Returns [`Error::IndexOutOfBounds`] for out-of-range indices.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.n_rows {
            return Err(Error::IndexOutOfBounds {
                context: "Coo::push row",
                index: row,
                bound: self.n_rows,
            });
        }
        if col >= self.n_cols {
            return Err(Error::IndexOutOfBounds {
                context: "Coo::push col",
                index: col,
                bound: self.n_cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Append both `(row, col, v)` and `(col, row, v)`; a convenience for
    /// assembling symmetric matrices from their upper or lower triangle.
    /// Diagonal entries are pushed once.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// [`push`](Self::push) for crate-internal assembly whose indices are
    /// in range *by construction* (grid stencils, permutations of an
    /// existing matrix). The bounds invariant is checked in debug builds
    /// only, so provably-unreachable error paths don't litter the
    /// generators with panic-capable `expect`s.
    pub(crate) fn push_trusted(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(
            row < self.n_rows,
            "push_trusted row {row} >= {}",
            self.n_rows
        );
        debug_assert!(
            col < self.n_cols,
            "push_trusted col {col} >= {}",
            self.n_cols
        );
        self.entries.push((row, col, value));
    }

    /// Symmetric [`push_trusted`](Self::push_trusted).
    pub(crate) fn push_sym_trusted(&mut self, row: usize, col: usize, value: f64) {
        self.push_trusted(row, col, value);
        if row != col {
            self.push_trusted(col, row, value);
        }
    }

    /// Compress to CSR, summing duplicate entries and dropping explicit zeros
    /// produced by cancellation only when `drop_tol` exceeds their magnitude.
    ///
    /// Entries with `|v| <= drop_tol` after summation are discarded
    /// (`drop_tol = 0.0` keeps explicit zeros out but preserves everything
    /// else exactly).
    pub fn to_csr_with_tol(&self, drop_tol: f64) -> Csr {
        self.compress(drop_tol).0
    }

    /// [`to_csr`](Self::to_csr) for input that must name every coordinate
    /// at most once (a file, as opposed to element-by-element assembly):
    /// `Err((row, col))` is the first coordinate, in row-major order,
    /// stored more than once.
    pub fn to_csr_unique(&self) -> std::result::Result<Csr, (usize, usize)> {
        match self.compress(0.0) {
            (csr, None) => Ok(csr),
            (_, Some(duplicate)) => Err(duplicate),
        }
    }

    /// The compression behind every `to_csr*`: the CSR plus the first
    /// coordinate (row-major) that needed merging, if any.
    fn compress(&self, drop_tol: f64) -> (Csr, Option<(usize, usize)>) {
        // Counting sort by row, then per-row sort by column and merge
        // duplicates: O(nnz log nnz_row) without hashing.
        let mut row_counts = vec![0usize; self.n_rows + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.n_rows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut next = row_counts.clone();
        let mut cols = vec![0usize; self.entries.len()];
        let mut vals = vec![0f64; self.entries.len()];
        for &(r, c, v) in &self.entries {
            let slot = next[r];
            cols[slot] = c;
            vals[slot] = v;
            next[r] += 1;
        }

        let mut out_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut out_cols = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        out_ptr.push(0);

        let mut duplicate = None;
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.n_rows {
            let (lo, hi) = (row_counts[r], row_counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let first = i;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if i - first > 1 && duplicate.is_none() {
                    duplicate = Some((r, c));
                }
                if sum.abs() > drop_tol || (drop_tol == 0.0 && sum != 0.0) {
                    out_cols.push(c);
                    out_vals.push(sum);
                }
            }
            out_ptr.push(out_cols.len());
        }

        let csr = Csr::from_raw_parts(self.n_rows, self.n_cols, out_ptr, out_cols, out_vals);
        (csr, duplicate)
    }

    /// Compress to CSR, summing duplicates and dropping exact zeros.
    pub fn to_csr(&self) -> Csr {
        self.to_csr_with_tol(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_compress() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.n_rows(), 2);
        assert_eq!(csr.n_cols(), 3);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 2), 2.0);
        assert_eq!(csr.get(1, 1), 3.0);
        assert_eq!(csr.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_sum() {
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 4.0);
        assert_eq!(csr.nnz(), 1);
    }

    #[test]
    fn exact_cancellation_is_dropped() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 1, -2.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn drop_tolerance() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 0, 1e-14).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        let csr = coo.to_csr_with_tol(1e-12);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 1.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = Coo::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            coo.push(0, 5, 1.0),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, -2.0).unwrap();
        coo.push_sym(2, 2, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), -2.0);
        assert_eq!(csr.get(1, 0), -2.0);
        assert_eq!(csr.get(2, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn unsorted_input_sorts_columns() {
        let mut coo = Coo::new(1, 4);
        coo.push(0, 3, 3.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        let csr = coo.to_csr();
        let row: Vec<_> = csr.row(0).collect();
        assert_eq!(row, vec![(0, 1.0), (2, 2.0), (3, 3.0)]);
    }
}
