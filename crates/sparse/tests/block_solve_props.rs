//! Property tests for the panel substitution kernels: on random SPD
//! systems and on grids, a K-column block solve must agree with K
//! independent scalar solves — for the sparse factor (natural, RCM and
//! nested-dissection orderings), the dense factor, and the retained
//! column-major reference kernel — and the K = 1 panel sweep must be that
//! reference kernel bit for bit.

use dtm_sparse::ordering::nested_dissection;
use dtm_sparse::{generators, Coo, Csr, DenseCholesky, SparseCholesky};
use proptest::prelude::*;

/// A random symmetric diagonally-dominant (hence SPD) matrix: `extra`
/// off-diagonal edges laid over a path (so the graph is connected and the
/// bandwidth is nontrivial), diagonal = |row off-diagonal sum| + slack.
fn random_spd(n: usize, edges: &[(usize, usize, f64)]) -> Csr {
    let mut dominance = vec![1.0f64; n];
    let mut coo = Coo::new(n, n);
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..n - 1 {
        seen.insert((i, i + 1));
        coo.push_sym(i, i + 1, -1.0).unwrap();
        dominance[i] += 1.0;
        dominance[i + 1] += 1.0;
    }
    for &(a, b, w) in edges {
        let (r, c) = (a.min(b) % n, a.max(b) % n);
        if r == c || !seen.insert((r, c)) {
            continue;
        }
        coo.push_sym(r, c, w).unwrap();
        dominance[r] += w.abs();
        dominance[c] += w.abs();
    }
    for (i, d) in dominance.iter().enumerate() {
        coo.push(i, i, d + 0.25).unwrap();
    }
    coo.to_csr()
}

/// `a` factored in natural order, under RCM, and under nested dissection
/// (called directly: `factor_fill_reducing` keeps matrices this small on
/// RCM).
fn factors(a: &Csr) -> [SparseCholesky; 3] {
    [
        SparseCholesky::factor(a).expect("SPD"),
        SparseCholesky::factor_rcm(a).expect("SPD"),
        SparseCholesky::factor_permuted(a, nested_dissection(a)).expect("SPD"),
    ]
}

/// Block widths under test: each of the blocked kernels' lane chunks
/// (8, 4, 2, 1) alone and behind wider ones (3 = 2 + 1, 7 = 4 + 2 + 1,
/// 12 = 8 + 4, …), up to two chunks of 8.
const KS: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16];

/// Deterministic pseudo-random RHS block (column-major, `n * k` values).
fn rhs_block(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n * k)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// One scalar solve per column, through the same factor.
fn scalar_columns(solve: impl Fn(&mut [f64]), xs: &[f64], n: usize, k: usize) -> Vec<f64> {
    let mut out = xs.to_vec();
    for col in out.chunks_mut(n) {
        solve(col);
    }
    debug_assert_eq!(out.len(), n * k);
    out
}

/// A 3-D grid under nested dissection has the widest supernode panels
/// (its separators): at K = 8 (one 8-lane chunk) and K = 12 (8 + 4) the
/// blocked solve is the column-major reference bit for bit.
#[test]
fn wide_panel_blocks_are_bitwise_colmajor() {
    let a = generators::grid3d_laplacian(10, 10, 10);
    let factor = SparseCholesky::factor_permuted(&a, nested_dissection(&a)).expect("SPD");
    let n = a.n_rows();
    for k in [8usize, 12] {
        let xs = rhs_block(n, k, 0x5eed);
        let mut blocked = xs.clone();
        factor.solve_block_in_place(&mut blocked, k);
        let mut colmajor = xs;
        factor.solve_block_colmajor(&mut colmajor, k);
        assert!(
            blocked
                .iter()
                .zip(&colmajor)
                .all(|(u, v)| u.to_bits() == v.to_bits()),
            "K = {k}: blocked solve differs from the column-major sweep"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sparse blocked solve (supernode-panel interleaved kernel) agrees
    /// with K scalar solves to ≤ 1e-12 componentwise, across natural, RCM
    /// and nested-dissection orderings and every K of [`KS`].
    #[test]
    fn sparse_blocked_matches_k_scalar_solves(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        for factor in factors(&a) {
            for k in KS {
                let xs = rhs_block(n, k, seed);
                let mut blocked = xs.clone();
                factor.solve_block_in_place(&mut blocked, k);
                let scalar = scalar_columns(|col| factor.solve_in_place(col), &xs, n, k);
                for (i, (u, v)) in blocked.iter().zip(&scalar).enumerate() {
                    prop_assert!(
                        (u - v).abs() <= 1e-12,
                        "n={n} k={k} component {i}: blocked {u} vs scalar {v}"
                    );
                }
            }
        }
    }

    /// The blocked kernel and the retained column-major reference kernel
    /// are interchangeable: bit-for-bit equal on the sparse factor.
    #[test]
    fn sparse_blocked_is_bitwise_colmajor(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        for factor in factors(&a) {
            for k in KS {
                let xs = rhs_block(n, k, seed);
                let mut blocked = xs.clone();
                factor.solve_block_in_place(&mut blocked, k);
                let mut colmajor = xs;
                factor.solve_block_colmajor(&mut colmajor, k);
                for (i, (u, v)) in blocked.iter().zip(&colmajor).enumerate() {
                    prop_assert!(
                        u.to_bits() == v.to_bits(),
                        "n={n} k={k} component {i}: blocked {u:e} != colmajor {v:e}"
                    );
                }
            }
        }
    }

    /// The K = 1 panel sweep on grid factors — where the panels are wide,
    /// unlike on the random systems above — is the column-major reference
    /// bit for bit, and is column `c` of every blocked solve that carries
    /// the same right-hand side in column `c`.
    #[test]
    fn k1_panel_sweep_is_bitwise_colmajor_and_a_column_of_the_block(
        w in 2usize..12,
        h in 2usize..12,
        d in 2usize..6,
        flat in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (a, d) = if flat {
            (generators::grid2d_laplacian(w, h), 1)
        } else {
            (generators::grid3d_laplacian(w.min(6), h.min(6), d), d)
        };
        let n = a.n_rows();
        for factor in factors(&a) {
            let block = rhs_block(n, 16, seed);
            let mut solved: Vec<f64> = block.clone();
            for col in solved.chunks_mut(n) {
                factor.solve_block_in_place(col, 1);
            }
            let mut colmajor = block.clone();
            for col in colmajor.chunks_mut(n) {
                factor.solve_block_colmajor(col, 1);
            }
            prop_assert!(
                solved.iter().zip(&colmajor).all(|(u, v)| u.to_bits() == v.to_bits()),
                "{w}x{h}x{d}: K = 1 panel sweep differs from the column-major sweep"
            );
            for k in KS {
                let mut blocked = block[..n * k].to_vec();
                factor.solve_block_in_place(&mut blocked, k);
                prop_assert!(
                    blocked.iter().zip(&solved).all(|(u, v)| u.to_bits() == v.to_bits()),
                    "{w}x{h}x{d}: K = {k} block differs from its K = 1 columns"
                );
            }
        }
    }

    /// Dense blocked solve agrees with K scalar solves to ≤ 1e-12 and is
    /// bitwise-identical to the column-major reference kernel.
    #[test]
    fn dense_blocked_matches_k_scalar_solves(
        n in 2usize..24,
        edges in proptest::collection::vec((0usize..32, 0usize..32, 0.1f64..1.5), 0..40),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        let factor = DenseCholesky::factor_csr(&a).expect("SPD");
        for k in KS {
            let xs = rhs_block(n, k, seed);
            let mut blocked = xs.clone();
            factor.solve_block_in_place(&mut blocked, k);
            let scalar = scalar_columns(|col| factor.solve_in_place(col), &xs, n, k);
            for (i, (u, v)) in blocked.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    (u - v).abs() <= 1e-12,
                    "n={n} k={k} component {i}: blocked {u} vs scalar {v}"
                );
            }
            let mut colmajor = xs;
            factor.solve_block_colmajor(&mut colmajor, k);
            for (i, (u, v)) in blocked.iter().zip(&colmajor).enumerate() {
                prop_assert!(
                    u.to_bits() == v.to_bits(),
                    "n={n} k={k} component {i}: blocked {u:e} != colmajor {v:e}"
                );
            }
        }
    }

    /// Blocked solves actually solve the system: `A x ≈ b` column by
    /// column after a sparse RCM block substitution.
    #[test]
    fn sparse_blocked_solves_the_system(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        let factor = SparseCholesky::factor_rcm(&a).expect("SPD");
        let k = 8usize;
        let b = rhs_block(n, k, seed);
        let mut x = b.clone();
        factor.solve_block_in_place(&mut x, k);
        for (col, bcol) in x.chunks(n).zip(b.chunks(n)) {
            let ax = a.matvec(col);
            for (i, (u, v)) in ax.iter().zip(bcol).enumerate() {
                prop_assert!(
                    (u - v).abs() <= 1e-9,
                    "n={n} residual component {i}: Ax = {u} vs b = {v}"
                );
            }
        }
    }
}
