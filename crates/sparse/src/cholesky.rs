//! Dense Cholesky (LLᵀ) and LDLᵀ factorizations.
//!
//! The paper's key performance observation (§5) is that the DTM local
//! coefficient matrix is *constant*: it is factored **once** and every
//! subsequent boundary-condition update costs only a forward/backward
//! substitution. [`DenseCholesky`] is that factor-once object for small
//! local systems; [`DenseLdlt`] additionally handles semi-definite matrices
//! and is used to *verify* the SNND hypothesis of convergence Theorem 6.1.

use crate::csr::Csr;
use crate::dense::Dense;
use crate::error::{Error, Result};
use crate::sparse_cholesky::fold_rows;

/// Dense LLᵀ Cholesky factor of an SPD matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCholesky {
    /// Lower factor, stored densely (upper part is garbage).
    l: Dense,
}

impl DenseCholesky {
    /// Factor a dense SPD matrix.
    ///
    /// # Errors
    /// [`Error::NotPositiveDefinite`] on a non-positive pivot.
    pub fn factor(a: &Dense) -> Result<Self> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(Error::DimensionMismatch {
                context: "DenseCholesky::factor",
                expected: n,
                actual: a.n_cols(),
            });
        }
        let mut l = a.clone();
        for j in 0..n {
            // d = a_jj − Σ_{k<j} l_jk²
            let mut d = l.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(Error::NotPositiveDefinite {
                    column: j,
                    pivot: d,
                });
            }
            let dj = d.sqrt();
            *l.get_mut(j, j) = dj;
            for i in (j + 1)..n {
                let mut s = l.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                *l.get_mut(i, j) = s / dj;
            }
        }
        Ok(Self { l })
    }

    /// Factor a sparse SPD matrix by densifying (for small local systems).
    pub fn factor_csr(a: &Csr) -> Result<Self> {
        Self::factor(&a.to_dense())
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.l.n_rows()
    }

    /// Solve `A x = b` in place: forward then backward substitution.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        self.solve_block_in_place(x, 1);
    }

    /// Solve `A X = B` in place for a column-major block of `k` right-hand
    /// sides (`xs.len() == n·k`, column `c` at `xs[c·n .. (c+1)·n]`).
    ///
    /// The factor is traversed once per sweep for every 8 columns: each
    /// `L(i, j)` entry is loaded once and applied to up to 8 register
    /// lanes, so the per-column cost falls with `k` (the §5 factor-once
    /// design amortized a second way). For `k ≥ 2` the block is transposed
    /// into an interleaved scratch so the `k`-wide inner loops are
    /// unit-stride — see
    /// [`solve_block_with_scratch`](Self::solve_block_with_scratch), which
    /// this delegates to with a transient buffer. Each column undergoes
    /// exactly the arithmetic of the scalar
    /// [`solve_in_place`](Self::solve_in_place), in the same order, so a
    /// block solve is bitwise identical to `k` scalar solves.
    pub fn solve_block_in_place(&self, xs: &mut [f64], k: usize) {
        let mut scratch = Vec::new();
        self.solve_block_with_scratch(xs, k, &mut scratch);
    }

    /// [`solve_block_in_place`](Self::solve_block_in_place) with a
    /// caller-owned scratch buffer: once `scratch` has grown to `n·k`,
    /// repeated solves perform zero heap allocations.
    pub fn solve_block_with_scratch(&self, xs: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        let n = self.n();
        assert_eq!(xs.len(), n * k, "DenseCholesky::solve_block length");
        if k == 1 {
            self.solve_block_colmajor(xs, 1);
            return;
        }
        scratch.resize(n * k, 0.0);
        for i in 0..n {
            for c in 0..k {
                scratch[i * k + c] = xs[c * n + i];
            }
        }
        self.solve_interleaved(scratch, k);
        for i in 0..n {
            for c in 0..k {
                xs[c * n + i] = scratch[i * k + c];
            }
        }
    }

    /// The seed (pre-blocking) kernel: column-major layout with a strided
    /// inner loop over the `k` right-hand sides. It is the K = 1 path and
    /// the independent bitwise oracle the blocked kernel is proven against
    /// (`tests/block_solve_props.rs`).
    // Triangular substitutions update x[i] for i > j while reading
    // L(i, j): the index form mirrors the math; iterator forms obscure the
    // column-sweep access pattern.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_block_colmajor(&self, xs: &mut [f64], k: usize) {
        let n = self.n();
        assert_eq!(xs.len(), n * k, "DenseCholesky::solve_block length");
        // L Y = B
        for j in 0..n {
            let ljj = self.l.get(j, j);
            for c in 0..k {
                xs[c * n + j] /= ljj;
            }
            for i in (j + 1)..n {
                let lij = self.l.get(i, j);
                for c in 0..k {
                    xs[c * n + i] -= lij * xs[c * n + j];
                }
            }
        }
        // Lᵀ X = Y
        for j in (0..n).rev() {
            for i in (j + 1)..n {
                let lij = self.l.get(i, j);
                for c in 0..k {
                    xs[c * n + j] -= lij * xs[c * n + i];
                }
            }
            let ljj = self.l.get(j, j);
            for c in 0..k {
                xs[c * n + j] /= ljj;
            }
        }
    }

    /// Blocked substitution over the interleaved layout (`ys[i·k + c]` =
    /// row `i`, column `c`), one [`fold_rows`] per row in each sweep: the
    /// forward sweep takes row `i` as `(y_i − Σ_{j<i} L(i, j)·y_j) / L(i, i)`
    /// with `j` ascending — the order in which the column-major sweep
    /// delivers row `i`'s updates — and the backward sweep takes column `j`
    /// as one running difference over rows `i > j` ascending. Each
    /// `L(i, j)` is applied as a multiply then a subtract, never a fused
    /// multiply-add, so the result is bitwise identical to the
    /// column-major kernel.
    // lint: hot-path
    fn solve_interleaved(&self, ys: &mut [f64], k: usize) {
        let n = self.n();
        // L Y = B
        for i in 0..n {
            let terms = (0..i).map(|j| (j * k, [self.l.get(i, j)]));
            fold_rows(ys, k, [i * k], terms, Some(self.l.get(i, i)));
        }
        // Lᵀ X = Y
        for j in (0..n).rev() {
            let col = self.l.col(j);
            let terms = (j + 1..n).map(|i| (i * k, [col[i]]));
            fold_rows(ys, k, [j * k], terms, Some(col[j]));
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// The lower-triangular factor (entries above the diagonal are not
    /// meaningful).
    pub fn l(&self) -> &Dense {
        &self.l
    }
}

/// Dense LDLᵀ factorization with a semi-definite tolerance.
///
/// For a symmetric matrix this computes `A = L D Lᵀ` with unit lower
/// triangular `L`. Pivots in `(-tol, tol)` are treated as zero, which is
/// only legal when the remaining column is also (near) zero — exactly the
/// structure of an SNND matrix. Pivots `< -tol` mean the matrix is
/// indefinite.
#[derive(Debug, Clone)]
pub struct DenseLdlt {
    l: Dense,
    d: Vec<f64>,
    /// Count of pivots treated as exactly zero.
    zero_pivots: usize,
}

/// Classification of a symmetric matrix by [`DenseLdlt::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Definiteness {
    /// All pivots strictly positive: symmetric positive definite.
    PositiveDefinite,
    /// Non-negative pivots with at least one (near) zero: SNND but singular.
    PositiveSemiDefinite,
    /// A negative pivot or an inconsistent zero pivot was found.
    Indefinite,
}

impl DenseLdlt {
    /// The unit lower-triangular factor `L`.
    pub fn l(&self) -> &Dense {
        &self.l
    }

    /// Factor with tolerance `tol` (absolute, relative to the largest
    /// diagonal magnitude).
    ///
    /// # Errors
    /// [`Error::NotPositiveDefinite`] if a pivot is `< -tol`, or if a zero
    /// pivot has a structurally nonzero column below it (indefinite or
    /// rank-revealing failure).
    // The LDLT inner products read l(·, k)·d[k] across k: index form keeps
    // the three-factor recurrence legible.
    #[allow(clippy::needless_range_loop)]
    pub fn factor(a: &Dense, tol: f64) -> Result<Self> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(Error::DimensionMismatch {
                context: "DenseLdlt::factor",
                expected: n,
                actual: a.n_cols(),
            });
        }
        let scale = (0..n).fold(1.0_f64, |m, i| m.max(a.get(i, i).abs()));
        let eff_tol = tol * scale;
        let mut l = Dense::identity(n);
        let mut d = vec![0.0; n];
        let mut zero_pivots = 0usize;
        for j in 0..n {
            let mut dj = a.get(j, j);
            for k in 0..j {
                dj -= l.get(j, k) * l.get(j, k) * d[k];
            }
            if dj < -eff_tol || !dj.is_finite() {
                return Err(Error::NotPositiveDefinite {
                    column: j,
                    pivot: dj,
                });
            }
            if dj.abs() <= eff_tol {
                // Semi-definite direction: column below must vanish too.
                d[j] = 0.0;
                zero_pivots += 1;
                for i in (j + 1)..n {
                    let mut s = a.get(i, j);
                    for k in 0..j {
                        s -= l.get(i, k) * l.get(j, k) * d[k];
                    }
                    if s.abs() > eff_tol.max(1e-10 * scale) {
                        return Err(Error::NotPositiveDefinite {
                            column: j,
                            pivot: dj,
                        });
                    }
                    *l.get_mut(i, j) = 0.0;
                }
                continue;
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k) * d[k];
                }
                *l.get_mut(i, j) = s / dj;
            }
        }
        Ok(Self { l, d, zero_pivots })
    }

    /// The diagonal of `D`.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Number of pivots treated as zero.
    pub fn zero_pivots(&self) -> usize {
        self.zero_pivots
    }

    /// Classify a symmetric matrix as SPD / SNND / indefinite.
    ///
    /// This is the numerical check behind Theorem 6.1's hypothesis
    /// ("at least one SPD subgraph, the others SNND").
    pub fn classify(a: &Dense, tol: f64) -> Definiteness {
        match Self::factor(a, tol) {
            Err(_) => Definiteness::Indefinite,
            Ok(f) if f.zero_pivots == 0 => Definiteness::PositiveDefinite,
            Ok(_) => Definiteness::PositiveSemiDefinite,
        }
    }

    /// Classify a sparse symmetric matrix (densifies; local blocks only).
    pub fn classify_csr(a: &Csr, tol: f64) -> Definiteness {
        Self::classify(&a.to_dense(), tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn spd3() -> Dense {
        Dense::from_rows(&[&[4.0, -1.0, 0.0], &[-1.0, 4.0, -1.0], &[0.0, -1.0, 4.0]]).unwrap()
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let f = DenseCholesky::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = f.solve(&b);
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let f = DenseCholesky::factor(&a).unwrap();
        let n = 3;
        // L Lᵀ == A
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    s += f.l().get(i, k) * f.l().get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigs 3, −1
        assert!(matches!(
            DenseCholesky::factor(&a),
            Err(Error::NotPositiveDefinite { .. })
        ));
        assert_eq!(DenseLdlt::classify(&a, 1e-12), Definiteness::Indefinite);
    }

    #[test]
    fn zero_matrix_is_snnd() {
        let a = Dense::zeros(3, 3);
        assert_eq!(
            DenseLdlt::classify(&a, 1e-12),
            Definiteness::PositiveSemiDefinite
        );
    }

    #[test]
    fn semidefinite_laplacian_classified() {
        // Graph Laplacian of a path (singular, SNND).
        let a =
            Dense::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]).unwrap();
        assert_eq!(
            DenseLdlt::classify(&a, 1e-10),
            Definiteness::PositiveSemiDefinite
        );
    }

    #[test]
    fn spd_classified() {
        assert_eq!(
            DenseLdlt::classify(&spd3(), 1e-12),
            Definiteness::PositiveDefinite
        );
    }

    #[test]
    fn factor_csr_matches_dense() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(1, 2, -1.0).unwrap();
        let a = coo.to_csr().unwrap();
        let f1 = DenseCholesky::factor_csr(&a).unwrap();
        let f2 = DenseCholesky::factor(&spd3()).unwrap();
        assert!(f1.l().max_abs_diff(f2.l()) < 1e-14);
    }

    #[test]
    fn solve_in_place_identity() {
        let f = DenseCholesky::factor(&Dense::identity(4)).unwrap();
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        f.solve_in_place(&mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn block_solve_is_bitwise_k_scalar_solves() {
        let a = crate::generators::grid2d_random(5, 4, 1.0, 11);
        let f = DenseCholesky::factor_csr(&a).unwrap();
        let n = a.n_rows();
        let k = 3;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * (c + 1)) as f64 * 0.31).sin())
                    .collect()
            })
            .collect();
        let mut block: Vec<f64> = cols.iter().flatten().copied().collect();
        f.solve_block_in_place(&mut block, k);
        for (c, col) in cols.iter().enumerate() {
            let mut x = col.clone();
            f.solve_in_place(&mut x);
            assert_eq!(&block[c * n..(c + 1) * n], &x[..], "column {c}");
        }
    }
}
