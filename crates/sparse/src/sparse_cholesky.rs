//! Up-looking sparse Cholesky with elimination-tree symbolic analysis.
//!
//! Implements the classic three-stage pipeline for symmetric positive
//! definite matrices (following the structure of Davis, *Direct Methods for
//! Sparse Linear Systems*):
//!
//! 1. **elimination tree** of `A`,
//! 2. **symbolic factorization** — per-row reach sets give the exact nonzero
//!    count of every column of `L`,
//! 3. **numeric up-looking factorization** — row `k` of `L` is obtained from
//!    a sparse triangular solve over the reach of row `k`.
//!
//! The factor is stored in CSC so that forward/backward substitution are
//! column-oriented sweeps. Two optional pre-orderings: fill-reducing nested
//! dissection ([`SparseCholesky::factor_fill_reducing`]) and the
//! band-narrowing reverse Cuthill–McKee ([`SparseCholesky::factor_rcm`]).
//!
//! This is the "Sparse Cholesky" the paper names as the local solver of DTM
//! (§5: "(5.9) could be solved by Sparse or Dense Cholesky, CG, MG, etc.").

use crate::csr::Csr;
use crate::error::{Error, Result};
use crate::ordering::{fill_reducing, reverse_cuthill_mckee, Permutation};
use std::iter;

/// Widest supernode panel the blocked substitution sweeps at once. Bounds
/// the dense triangular diagonal block so a panel's working set (panel
/// columns × block width) stays register/L1-resident.
const MAX_SUPERNODE: usize = 32;

/// Sparse Cholesky factor `A = L Lᵀ` (CSC lower-triangular `L`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCholesky {
    n: usize,
    /// Column pointers of `L` (CSC).
    col_ptr: Vec<usize>,
    /// Row indices of `L`; the first entry of each column is the diagonal.
    row_idx: Vec<usize>,
    /// Values of `L`.
    values: Vec<f64>,
    /// Optional fill-reducing permutation (`None` = natural order).
    perm: Option<Permutation>,
    /// Supernode boundaries over the columns of `L`: panel `s` spans
    /// columns `sn_ptr[s]..sn_ptr[s+1]`. Within a panel every column's
    /// pattern is the panel's dense triangular diagonal block plus one
    /// shared set of below-panel rows, so the blocked substitution decodes
    /// those row indices once per panel instead of once per column.
    sn_ptr: Vec<usize>,
}

impl SparseCholesky {
    /// Factor a symmetric positive definite CSR matrix in natural order.
    ///
    /// Only the lower triangle of `A` is read through the row/column duality
    /// of symmetric CSR. Symmetry is the caller's responsibility (checked in
    /// debug builds).
    ///
    /// # Errors
    /// [`Error::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn factor(a: &Csr) -> Result<Self> {
        debug_assert!(a.is_symmetric(1e-10), "SparseCholesky expects symmetry");
        if a.n_rows() != a.n_cols() {
            return Err(Error::DimensionMismatch {
                context: "SparseCholesky::factor",
                expected: a.n_rows(),
                actual: a.n_cols(),
            });
        }
        let n = a.n_rows();
        let parent = elimination_tree(a);

        // --- Symbolic: column counts of L via row reaches. ---
        let mut col_count = vec![1usize; n]; // diagonal of each column
        {
            let mut mark = vec![usize::MAX; n];
            let mut stack = Vec::with_capacity(n);
            for k in 0..n {
                mark[k] = k;
                for (j0, _) in a.row(k).filter(|&(c, _)| c < k) {
                    let mut j = j0;
                    stack.clear();
                    while mark[j] != k {
                        stack.push(j);
                        mark[j] = k;
                        j = match parent[j] {
                            Some(p) => p,
                            None => break,
                        };
                    }
                    for &c in &stack {
                        col_count[c] += 1;
                    }
                }
            }
        }

        let mut col_ptr = vec![0usize; n + 1];
        for j in 0..n {
            col_ptr[j + 1] = col_ptr[j] + col_count[j];
        }
        let nnz = col_ptr[n];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        // Next free slot per column; slot 0 of each column is the diagonal,
        // filled at the end of step k == j.
        let mut next = col_ptr[..n].iter().map(|&p| p + 1).collect::<Vec<_>>();

        // --- Numeric: up-looking. ---
        let mut x = vec![0f64; n]; // sparse accumulator (dense workspace)
        let mut pattern: Vec<usize> = Vec::with_capacity(n); // reach of row k, topological
        let mut mark = vec![usize::MAX; n];
        let mut stack = Vec::with_capacity(n);

        for k in 0..n {
            // Scatter A(0..k, k) — by symmetry, row k entries with col ≤ k.
            pattern.clear();
            mark[k] = k;
            let mut d = 0.0;
            for (c, v) in a.row(k) {
                match c.cmp(&k) {
                    std::cmp::Ordering::Less => {
                        x[c] = v;
                        // Walk the elimination tree to collect the reach.
                        let mut j = c;
                        stack.clear();
                        while mark[j] != k {
                            stack.push(j);
                            mark[j] = k;
                            j = match parent[j] {
                                Some(p) => p,
                                None => break,
                            };
                        }
                        // stack holds a root-ward path; reversing gives
                        // ascending (topological) order for this path.
                        for &c2 in stack.iter().rev() {
                            pattern.push(c2);
                        }
                    }
                    std::cmp::Ordering::Equal => d = v,
                    std::cmp::Ordering::Greater => {}
                }
            }
            // Paths pushed per-entry are each ascending but may interleave;
            // a total ascending sort is a valid topological order of the
            // reach (ancestors have larger indices in an etree).
            pattern.sort_unstable();

            for &j in &pattern {
                let ljj = values[col_ptr[j]];
                let lkj = x[j] / ljj;
                x[j] = 0.0;
                // x ← x − L(:, j) · lkj for rows < k already in column j.
                for p in (col_ptr[j] + 1)..next[j] {
                    x[row_idx[p]] -= values[p] * lkj;
                }
                d -= lkj * lkj;
                // Append L(k, j).
                let slot = next[j];
                debug_assert!(slot < col_ptr[j + 1], "symbolic undercount");
                row_idx[slot] = k;
                values[slot] = lkj;
                next[j] += 1;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(Error::NotPositiveDefinite {
                    column: k,
                    pivot: d,
                });
            }
            row_idx[col_ptr[k]] = k;
            values[col_ptr[k]] = d.sqrt();
        }

        let sn_ptr = detect_supernodes(n, &col_ptr, &row_idx);
        Ok(Self {
            n,
            col_ptr,
            row_idx,
            values,
            perm: None,
            sn_ptr,
        })
    }

    /// Factor with a reverse Cuthill–McKee pre-ordering; solves transparently
    /// permute/unpermute. RCM narrows the band; for low fill use
    /// [`factor_fill_reducing`](Self::factor_fill_reducing).
    ///
    /// # Errors
    /// As [`factor`](Self::factor); the failing column is reported in the
    /// numbering of `a`, not of the permuted matrix.
    pub fn factor_rcm(a: &Csr) -> Result<Self> {
        Self::factor_permuted(a, reverse_cuthill_mckee(a))
    }

    /// Factor with the fill-reducing pre-ordering
    /// ([`ordering::fill_reducing`](crate::ordering::fill_reducing): nested
    /// dissection, RCM on small matrices); solves transparently
    /// permute/unpermute.
    ///
    /// # Errors
    /// As [`factor_rcm`](Self::factor_rcm).
    pub fn factor_fill_reducing(a: &Csr) -> Result<Self> {
        Self::factor_permuted(a, fill_reducing(a))
    }

    /// Factor `P A Pᵀ` for a caller-chosen ordering `perm`; solves
    /// transparently permute/unpermute.
    ///
    /// # Errors
    /// As [`factor_rcm`](Self::factor_rcm).
    ///
    /// # Panics
    /// Panics if `perm.len() != a.n_rows()`.
    pub fn factor_permuted(a: &Csr, perm: Permutation) -> Result<Self> {
        let mut f = Self::factor(&a.permute_sym(&perm)).map_err(|e| match e {
            Error::NotPositiveDefinite { column, pivot } => Error::NotPositiveDefinite {
                column: perm.new_to_old()[column],
                pivot,
            },
            e => e,
        })?;
        f.perm = Some(perm);
        Ok(f)
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros in `L` (a fill measure).
    pub fn nnz_l(&self) -> usize {
        self.values.len()
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_block_in_place(b, 1);
    }

    /// Solve `A X = B` in place for a column-major block of `k` right-hand
    /// sides (`xs.len() == n·k`, column `c` at `xs[c·n .. (c+1)·n]`).
    ///
    /// For `k ≥ 2` the block is transposed into an interleaved scratch
    /// layout (`k` values of one row contiguous) and swept panel by panel —
    /// see [`solve_block_with_scratch`](Self::solve_block_with_scratch),
    /// which this delegates to with a transient scratch buffer. Hot-loop
    /// callers should hold a persistent scratch and call that method
    /// directly to stay allocation-free.
    ///
    /// Column `c` undergoes exactly the scalar
    /// [`solve_in_place`](Self::solve_in_place) arithmetic in the same
    /// order, so a block solve is bitwise identical to `k` scalar solves.
    pub fn solve_block_in_place(&self, xs: &mut [f64], k: usize) {
        let mut scratch = Vec::new();
        self.solve_block_with_scratch(xs, k, &mut scratch);
    }

    /// [`solve_block_in_place`](Self::solve_block_in_place) with a
    /// caller-owned scratch buffer: after warm-up (`scratch` grown to
    /// `n·k`) repeated solves perform **zero** heap allocations, including
    /// on the permuted (RCM) path — the permutation gather is fused with
    /// the layout transpose instead of materializing per-column vectors.
    // lint: hot-path
    pub fn solve_block_with_scratch(&self, xs: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(xs.len(), n * k, "SparseCholesky::solve_block length");
        if k == 1 {
            // Scalar path: sweep the panels in place (via scratch only
            // when the factor is permuted).
            match &self.perm {
                None => self.solve_panels(xs),
                Some(p) => {
                    scratch.resize(n, 0.0);
                    for (i, &o) in p.new_to_old().iter().enumerate() {
                        scratch[i] = xs[o];
                    }
                    self.solve_panels(scratch);
                    for (i, &o) in p.new_to_old().iter().enumerate() {
                        xs[o] = scratch[i];
                    }
                }
            }
            return;
        }
        // Blocked path: gather into the interleaved layout
        // `scratch[i·k + c] = column c, (permuted) row i`, fusing the
        // fill-reducing permutation with the transpose.
        scratch.resize(n * k, 0.0);
        match &self.perm {
            None => {
                for i in 0..n {
                    for c in 0..k {
                        scratch[i * k + c] = xs[c * n + i];
                    }
                }
            }
            Some(p) => {
                for (i, &o) in p.new_to_old().iter().enumerate() {
                    for c in 0..k {
                        scratch[i * k + c] = xs[c * n + o];
                    }
                }
            }
        }
        self.solve_interleaved(scratch, k);
        match &self.perm {
            None => {
                for i in 0..n {
                    for c in 0..k {
                        xs[c * n + i] = scratch[i * k + c];
                    }
                }
            }
            Some(p) => {
                for (i, &o) in p.new_to_old().iter().enumerate() {
                    for c in 0..k {
                        xs[c * n + o] = scratch[i * k + c];
                    }
                }
            }
        }
    }

    /// The seed (pre-blocking) kernel: column-major sweeps with a strided
    /// inner loop over the `k` right-hand sides, permutation applied per
    /// column. It stays because it is the independent bitwise oracle: it
    /// shares no layout, panel or lane code with the kernels behind
    /// [`solve_block_in_place`](Self::solve_block_in_place), which
    /// `tests/block_solve_props.rs` proves equal to it bit for bit at
    /// every `k`, and `repro bench` times it beside them.
    pub fn solve_block_colmajor(&self, xs: &mut [f64], k: usize) {
        let n = self.n;
        assert_eq!(xs.len(), n * k, "SparseCholesky::solve_block length");
        match &self.perm {
            None => self.solve_colmajor_natural(xs, k),
            Some(p) => {
                // B = P A Pᵀ factored; A x = b ⇔ B (P x) = P b, per column.
                for c in 0..k {
                    let col = &mut xs[c * n..(c + 1) * n];
                    let pb = p.apply(col);
                    col.copy_from_slice(&pb);
                }
                self.solve_colmajor_natural(xs, k);
                for c in 0..k {
                    let col = &mut xs[c * n..(c + 1) * n];
                    let x = p.apply_inverse(col);
                    col.copy_from_slice(&x);
                }
            }
        }
    }

    fn solve_colmajor_natural(&self, xs: &mut [f64], k: usize) {
        let n = self.n;
        // Forward: L Y = B (column-oriented, one factor sweep for all k).
        for j in 0..n {
            let pj = self.col_ptr[j];
            let d = self.values[pj];
            for c in 0..k {
                xs[c * n + j] /= d;
            }
            for p in (pj + 1)..self.col_ptr[j + 1] {
                let (i, v) = (self.row_idx[p], self.values[p]);
                for c in 0..k {
                    xs[c * n + i] -= v * xs[c * n + j];
                }
            }
        }
        // Backward: Lᵀ X = Y.
        for j in (0..n).rev() {
            let pj = self.col_ptr[j];
            for p in (pj + 1)..self.col_ptr[j + 1] {
                let (i, v) = (self.row_idx[p], self.values[p]);
                for c in 0..k {
                    xs[c * n + j] -= v * xs[c * n + i];
                }
            }
            let d = self.values[pj];
            for c in 0..k {
                xs[c * n + j] /= d;
            }
        }
    }

    /// Scalar (K = 1) substitution over the supernode panels of
    /// [`Self::sn_ptr`]. A panel column is its slice of the dense in-panel
    /// triangle — contiguous values against contiguous `y`, no indices —
    /// followed by the panel's one shared list of below-panel rows, so the
    /// sweep streams 8 bytes per factor entry where the column-major
    /// kernel streams 16.
    ///
    /// Bitwise contract: the updates are those of
    /// [`solve_colmajor_natural`](Self::solve_colmajor_natural) in its
    /// order — forward, column by column, rows ascending; backward, each
    /// column's rows ascending into one running difference, then the
    /// divide — each a separate multiply and subtract. Only where the
    /// operands are read from differs.
    // lint: hot-path
    fn solve_panels(&self, y: &mut [f64]) {
        let n_panels = self.sn_ptr.len() - 1;
        // Forward: L y = b.
        for s in 0..n_panels {
            let (j0, j1) = (self.sn_ptr[s], self.sn_ptr[s + 1]);
            let rows = self.panel_rows(j1);
            for jj in j0..j1 {
                let (d, tri, below) = self.panel_column(jj, j1);
                let yj = y[jj] / d;
                y[jj] = yj;
                for (yi, &v) in y[jj + 1..j1].iter_mut().zip(tri) {
                    *yi -= v * yj;
                }
                for (&i, &v) in rows.iter().zip(below) {
                    y[i] -= v * yj;
                }
            }
        }
        // Backward: Lᵀ x = y.
        for s in (0..n_panels).rev() {
            let (j0, j1) = (self.sn_ptr[s], self.sn_ptr[s + 1]);
            let rows = self.panel_rows(j1);
            for jj in (j0..j1).rev() {
                let (d, tri, below) = self.panel_column(jj, j1);
                let mut yj = y[jj];
                for (&yi, &v) in y[jj + 1..j1].iter().zip(tri) {
                    yj -= v * yi;
                }
                for (&i, &v) in rows.iter().zip(below) {
                    yj -= v * y[i];
                }
                y[jj] = yj / d;
            }
        }
    }

    /// The below-panel rows shared by every column of the panel ending at
    /// column `j1`: its last column's rows after the diagonal.
    #[inline(always)]
    fn panel_rows(&self, j1: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j1 - 1] + 1..self.col_ptr[j1]]
    }

    /// Column `jj` of the panel ending at `j1`: its diagonal, its run of
    /// the in-panel triangle (rows `jj + 1..j1`), its below-panel values
    /// (one per [`panel_rows`](Self::panel_rows) entry).
    #[inline(always)]
    fn panel_column(&self, jj: usize, j1: usize) -> (f64, &[f64], &[f64]) {
        let pj = self.col_ptr[jj];
        let (tri, below) = self.values[pj + 1..self.col_ptr[jj + 1]].split_at(j1 - jj - 1);
        (self.values[pj], tri, below)
    }

    /// Blocked substitution over the interleaved layout
    /// (`ys[i·k + c]` = row `i`, column `c`). Every update goes through
    /// [`fold_rows`], which holds the destination rows' `k` lanes in
    /// registers across all of their terms, and the supernode panels of
    /// [`Self::sn_ptr`] let the forward sweep decode each shared
    /// below-panel row index once per panel instead of once per column:
    /// - forward, in-panel triangle: column by column, as the scalar sweep
    ///   (a row-wise triangle measured slower on wide panels);
    /// - forward, below-panel rows: two rows at a time, loaded once,
    ///   updated by every panel column in ascending `jj` (one load of that
    ///   column's lanes serves both), stored once;
    /// - backward: column `jj`'s lanes take its entries in ascending rows
    ///   (the in-panel rows, then the below-panel ones), are divided, and
    ///   are stored once.
    ///
    /// Bitwise contract: each lane receives exactly the updates of
    /// [`solve_colmajor_natural`](Self::solve_colmajor_natural), in its
    /// order (ascending `j` into a forward row, ascending rows into a
    /// backward column), each a multiply then a subtract — never a fused
    /// multiply-add. Lanes and rows are independent, so no sum is
    /// reassociated.
    // lint: hot-path
    fn solve_interleaved(&self, ys: &mut [f64], k: usize) {
        let n_panels = self.sn_ptr.len() - 1;
        // Forward: L Y = B, panel by panel.
        for s in 0..n_panels {
            let (j0, j1) = (self.sn_ptr[s], self.sn_ptr[s + 1]);
            for jj in j0..j1 {
                let (d, tri, _) = self.panel_column(jj, j1);
                fold_rows(ys, k, [jj * k], iter::empty(), Some(d));
                for (i, &v) in (jj + 1..j1).zip(tri) {
                    fold_rows(ys, k, [i * k], iter::once((jj * k, [v])), None);
                }
            }
            // Below-panel rows in pairs. L(i, jj) of the `r`-th one sits
            // after column jj's in-panel entries.
            let below = |jj: usize, r: usize| self.col_ptr[jj] + (j1 - jj) + r;
            let rows = self.panel_rows(j1);
            let pairs = rows.chunks_exact(2);
            let odd = pairs.remainder();
            for (r, pair) in (0..).step_by(2).zip(pairs) {
                let terms = (j0..j1).map(|jj| {
                    let p = below(jj, r);
                    (jj * k, [self.values[p], self.values[p + 1]])
                });
                fold_rows(ys, k, [pair[0] * k, pair[1] * k], terms, None);
            }
            if let [i] = *odd {
                let r = rows.len() - 1;
                let terms = (j0..j1).map(|jj| (jj * k, [self.values[below(jj, r)]]));
                fold_rows(ys, k, [i * k], terms, None);
            }
        }
        // Backward: Lᵀ X = Y.
        for jj in (0..self.n).rev() {
            let (pj, pe) = (self.col_ptr[jj], self.col_ptr[jj + 1]);
            let rows = self.row_idx[pj + 1..pe].iter().map(|&i| i * k);
            let terms = rows.zip(self.values[pj + 1..pe].iter().map(|&v| [v]));
            fold_rows(ys, k, [jj * k], terms, Some(self.values[pj]));
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// One update of `R` independent rows of a blocked substitution over the
/// interleaved layout: the `k` lanes of each row `ys[dst[r]..][..k]` become
/// `(ys[dst[r] + c] − Σ v[r] · ys[src + c]) / d` over `terms = (src, v)` in
/// order (no divide when `d` is `None`). The lanes go through
/// [`fold_lanes`] 8 at a time, then 4, 2 and 1, so each chunk is loaded
/// once, held in registers across every term and stored once. Per lane the
/// arithmetic is the scalar sweep's, whatever the chunking.
// lint: hot-path
#[inline(always)]
pub(crate) fn fold_rows<const R: usize, I>(
    ys: &mut [f64],
    k: usize,
    dst: [usize; R],
    terms: I,
    d: Option<f64>,
) where
    I: Iterator<Item = (usize, [f64; R])> + Clone,
{
    let mut c = 0;
    while c + 8 <= k {
        fold_lanes::<R, 8>(ys, c, dst, terms.clone(), d);
        c += 8;
    }
    if c + 4 <= k {
        fold_lanes::<R, 4>(ys, c, dst, terms.clone(), d);
        c += 4;
    }
    if c + 2 <= k {
        fold_lanes::<R, 2>(ys, c, dst, terms.clone(), d);
        c += 2;
    }
    if c < k {
        fold_lanes::<R, 1>(ys, c, dst, terms, d);
    }
}

/// Lanes `c..c + W` of [`fold_rows`], `R` rows × `W` lanes in registers:
/// `acc[r] ← ys[dst[r] + c..][..W]`, then `acc[r][l] −= v[r] · ys[src + c + l]`
/// for each term — a multiply then a subtract, two roundings, never a
/// fused multiply-add — then `acc[r][l] /= d`, then one store per row.
// lint: hot-path
#[inline(always)]
fn fold_lanes<const R: usize, const W: usize>(
    ys: &mut [f64],
    c: usize,
    dst: [usize; R],
    terms: impl Iterator<Item = (usize, [f64; R])>,
    d: Option<f64>,
) {
    let mut acc = [[0.0; W]; R];
    for (a, &i) in acc.iter_mut().zip(&dst) {
        a.copy_from_slice(&ys[i + c..i + c + W]);
    }
    for (src, v) in terms {
        let y = &ys[src + c..src + c + W];
        for (a, &v) in acc.iter_mut().zip(&v) {
            for (a, &b) in a.iter_mut().zip(y) {
                *a -= v * b;
            }
        }
    }
    if let Some(d) = d {
        for a in acc.iter_mut().flatten() {
            *a /= d;
        }
    }
    for (a, &i) in acc.iter().zip(&dst) {
        ys[i + c..i + c + W].copy_from_slice(a);
    }
}

/// Partition the columns of `L` into supernode panels: maximal runs of
/// consecutive columns (capped at [`MAX_SUPERNODE`]) where each column's
/// pattern is exactly the next column's pattern plus the next column
/// itself. By induction every column of a panel then holds the panel's
/// dense triangular diagonal block plus one shared set of below-panel
/// rows — the structure [`SparseCholesky::solve_interleaved`] exploits.
fn detect_supernodes(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    if n == 0 {
        return vec![0];
    }
    let mut sn_ptr = vec![0usize];
    for j in 1..n {
        let prev = &row_idx[col_ptr[j - 1]..col_ptr[j]];
        let cur = &row_idx[col_ptr[j]..col_ptr[j + 1]];
        let joins = j - sn_ptr.last().copied().unwrap_or(0) < MAX_SUPERNODE
            && prev.len() == cur.len() + 1
            && prev[1] == j
            && prev[2..] == cur[1..];
        if !joins {
            sn_ptr.push(j);
        }
    }
    sn_ptr.push(n);
    sn_ptr
}

/// Elimination tree of a symmetric CSR matrix (None = root).
///
/// Uses the ancestor path-compression algorithm; `parent[j]` is the smallest
/// `k > j` such that `L(k, j) ≠ 0`.
pub fn elimination_tree(a: &Csr) -> Vec<Option<usize>> {
    let n = a.n_rows();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut ancestor: Vec<Option<usize>> = vec![None; n];
    for k in 0..n {
        for (i, _) in a.row(k).filter(|&(c, _)| c < k) {
            let mut j = i;
            loop {
                let anc = ancestor[j];
                ancestor[j] = Some(k);
                match anc {
                    None => {
                        if parent[j].is_none() && j != k {
                            parent[j] = Some(k);
                        }
                        break;
                    }
                    Some(a) if a == k => break,
                    Some(a) => j = a,
                }
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::DenseCholesky;
    use crate::coo::Coo;
    use crate::generators;

    fn tridiag(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn tridiagonal_solve_is_exact() {
        let a = tridiag(10);
        let f = SparseCholesky::factor(&a).unwrap();
        let xe: Vec<f64> = (0..10).map(|i| (i as f64).sin() + 1.0).collect();
        let b = a.matvec(&xe);
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(&xe) {
            assert!((u - v).abs() < 1e-12);
        }
        // Tridiagonal ⇒ no fill: nnz(L) = 2n − 1.
        assert_eq!(f.nnz_l(), 19);
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = tridiag(5);
        let parent = elimination_tree(&a);
        assert_eq!(
            parent,
            vec![Some(1), Some(2), Some(3), Some(4), None],
            "tridiagonal etree must be the path 0→1→2→3→4"
        );
    }

    #[test]
    fn matches_dense_cholesky_on_grid() {
        let a = generators::grid2d_laplacian(6, 5);
        let fs = SparseCholesky::factor(&a).unwrap();
        let fd = DenseCholesky::factor_csr(&a).unwrap();
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let xs = fs.solve(&b);
        let xd = fd.solve(&b);
        for (u, v) in xs.iter().zip(&xd) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn rcm_variant_agrees_with_natural() {
        let a = generators::grid2d_laplacian(7, 7);
        let f1 = SparseCholesky::factor(&a).unwrap();
        let f2 = SparseCholesky::factor_rcm(&a).unwrap();
        let b: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let x1 = f1.solve(&b);
        let x2 = f2.solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn rcm_reduces_fill_on_shuffled_grid() {
        // Permute a grid randomly; RCM ordering should not produce more fill
        // than the shuffled natural ordering.
        let a = generators::grid2d_laplacian(9, 9);
        let shuffled = {
            let n = a.n_rows();
            let p = Permutation::from_new_to_old((0..n).map(|i| (i * 37) % n).collect::<Vec<_>>())
                .unwrap();
            a.permute_sym(&p)
        };
        let f_nat = SparseCholesky::factor(&shuffled).unwrap();
        let f_rcm = SparseCholesky::factor_rcm(&shuffled).unwrap();
        assert!(
            f_rcm.nnz_l() <= f_nat.nnz_l(),
            "RCM fill {} should not exceed natural fill {}",
            f_rcm.nnz_l(),
            f_nat.nnz_l()
        );
    }

    #[test]
    fn block_solve_is_bitwise_k_scalar_solves() {
        // Natural and RCM factors: the block path must reproduce the scalar
        // path column for column, bit for bit.
        let a = generators::grid2d_laplacian(6, 6);
        let n = a.n_rows();
        let k = 4;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i + 7 * c) as f64 * 0.173).cos()).collect())
            .collect();
        for f in [
            SparseCholesky::factor(&a).unwrap(),
            SparseCholesky::factor_rcm(&a).unwrap(),
        ] {
            let mut block: Vec<f64> = cols.iter().flatten().copied().collect();
            f.solve_block_in_place(&mut block, k);
            for (c, col) in cols.iter().enumerate() {
                let mut x = col.clone();
                f.solve_in_place(&mut x);
                assert_eq!(&block[c * n..(c + 1) * n], &x[..], "column {c}");
            }
        }
    }

    #[test]
    fn panel_sweep_is_bitwise_the_column_major_sweep() {
        // K = 1 through the panels vs the retained scalar kernel, on
        // factors with wide panels (3-D), narrow ones (2-D, natural) and
        // every ordering.
        for a in [
            generators::grid2d_laplacian(17, 19),
            generators::grid3d_laplacian(7, 8, 6),
        ] {
            let n = a.n_rows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
            for f in [
                SparseCholesky::factor(&a).unwrap(),
                SparseCholesky::factor_rcm(&a).unwrap(),
                SparseCholesky::factor_fill_reducing(&a).unwrap(),
            ] {
                let mut panels = b.clone();
                f.solve_block_with_scratch(&mut panels, 1, &mut Vec::new());
                let mut colmajor = b.clone();
                f.solve_block_colmajor(&mut colmajor, 1);
                assert_eq!(panels, colmajor);
            }
        }
    }

    #[test]
    fn failed_pivot_is_reported_in_the_callers_numbering() {
        // An SPD grid with one diagonal pushed to −1: the rows eliminated
        // before `bad` form an SPD principal submatrix and never see it,
        // so every elimination order breaks down exactly at `bad`.
        let spoiled = |w: usize, h: usize, bad: usize| {
            let a = generators::grid2d_laplacian(w, h);
            let mut delta = vec![0.0; a.n_rows()];
            delta[bad] = -1.0 - a.get(bad, bad);
            a.add_to_diagonal(&delta)
        };
        let failing_column = |r: Result<SparseCholesky>| match r {
            Err(Error::NotPositiveDefinite { column, .. }) => column,
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        };
        let (a, bad) = (spoiled(5, 5, 7), 7);
        let rcm = reverse_cuthill_mckee(&a);
        assert_ne!(rcm.inverse().new_to_old()[bad], bad, "RCM moves the row");
        assert_eq!(failing_column(SparseCholesky::factor(&a)), bad);
        assert_eq!(failing_column(SparseCholesky::factor_rcm(&a)), bad);
        // Above the RCM threshold the fill-reducing ordering dissects.
        let (a, bad) = (spoiled(20, 20, 150), 150);
        let nd = fill_reducing(&a);
        assert_ne!(nd.inverse().new_to_old()[bad], bad, "ND moves the row");
        assert_eq!(
            failing_column(SparseCholesky::factor_fill_reducing(&a)),
            bad
        );
    }

    #[test]
    fn indefinite_rejected() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push_sym(0, 1, 2.0).unwrap();
        let a = coo.to_csr();
        assert!(matches!(
            SparseCholesky::factor(&a),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn diagonal_matrix() {
        let mut coo = Coo::new(3, 3);
        for (i, d) in [2.0, 8.0, 0.5].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseCholesky::factor(&a).unwrap();
        let x = f.solve(&[2.0, 8.0, 0.5]);
        for v in x {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn dense_like_matrix_with_full_fill() {
        // Arrow matrix pointing the wrong way produces maximal fill in
        // natural order; result must still be correct.
        let n = 12;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, n as f64).unwrap();
        }
        for i in 1..n {
            coo.push_sym(0, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseCholesky::factor(&a).unwrap();
        let xe = vec![1.0; n];
        let b = a.matvec(&xe);
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(&xe) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
