//! Seeded workload generators for every experiment in the paper.
//!
//! The paper evaluates DTM on "randomly generated" sparse SPD systems with
//! n = 289, 1089 and 4225 unknowns (= 17², 33², 65²) that are "regularly
//! partitioned" — i.e. grid-structured problems. The generators here produce:
//!
//! * deterministic 5-point / 9-point 2-D grid Laplacians,
//! * 2-D grids with **random positive conductances** (the closest synthetic
//!   equivalent of the paper's random systems; see the README's
//!   "Reproduction caveats"),
//! * 3-D 7-point Laplacians,
//! * random-sparsity diagonally dominant SPD matrices,
//! * tridiagonal SPD matrices,
//! * random right-hand sides and exact-solution/RHS pairs.
//!
//! All randomness is drawn from caller-provided seeds via `StdRng`, making
//! every experiment bit-reproducible.

use crate::coo::Coo;
use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 5-point finite-difference Laplacian on an `nx × ny` grid with Dirichlet
/// boundary conditions: diagonal 4, off-diagonal −1 to the 4-neighbours.
/// SPD and irreducibly diagonally dominant.
pub fn grid2d_laplacian(nx: usize, ny: usize) -> Csr {
    grid2d_conductance(nx, ny, |_, _| 1.0, 0.0).add_to_diagonal(&boundary_margin_2d(nx, ny))
}

/// Margin that converts the singular grid Laplacian into the classic
/// Dirichlet 5-point stencil: each boundary node is coupled to implicit
/// ghost nodes, adding 1 per missing neighbour so every diagonal becomes 4.
fn boundary_margin_2d(nx: usize, ny: usize) -> Vec<f64> {
    let mut m = vec![0.0; nx * ny];
    for y in 0..ny {
        for x in 0..nx {
            let mut missing = 0.0;
            if x == 0 {
                missing += 1.0;
            }
            if x + 1 == nx {
                missing += 1.0;
            }
            if y == 0 {
                missing += 1.0;
            }
            if y + 1 == ny {
                missing += 1.0;
            }
            m[y * nx + x] = missing;
        }
    }
    m
}

/// Weighted graph Laplacian of the `nx × ny` grid with per-edge conductance
/// `g(edge)` plus `margin` added to every diagonal entry (`margin > 0` makes
/// the matrix strictly diagonally dominant, hence SPD).
///
/// Vertex `(x, y)` has index `y * nx + x`.
pub fn grid2d_conductance(
    nx: usize,
    ny: usize,
    mut g: impl FnMut(usize, usize) -> f64,
    margin: f64,
) -> Csr {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = Coo::with_capacity(n, n, 5 * n);
    let mut diag = vec![margin; n];
    for y in 0..ny {
        for x in 0..nx {
            let u = idx(x, y);
            if x + 1 < nx {
                let v = idx(x + 1, y);
                let w = g(u, v);
                assert!(w > 0.0, "conductances must be positive");
                coo.push_sym_trusted(u, v, -w);
                diag[u] += w;
                diag[v] += w;
            }
            if y + 1 < ny {
                let v = idx(x, y + 1);
                let w = g(u, v);
                assert!(w > 0.0, "conductances must be positive");
                coo.push_sym_trusted(u, v, -w);
                diag[u] += w;
                diag[v] += w;
            }
        }
    }
    for (i, d) in diag.iter().enumerate() {
        coo.push_trusted(i, i, *d);
    }
    coo.to_csr_trusted()
}

/// The paper's random sparse SPD testcase family: an `nx × ny` grid with
/// conductances drawn from `Uniform(0.1, 10)` (two decades of spread) and a
/// dominance margin of `margin` on every diagonal.
///
/// `grid2d_random(17, 17, 1.0, seed)` has n = 289; 33×33 → 1089; 65×65 →
/// 4225: exactly the paper's sizes.
pub fn grid2d_random(nx: usize, ny: usize, margin: f64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    grid2d_conductance(nx, ny, move |_, _| rng.gen_range(0.1..10.0), margin)
}

/// 9-point 2-D stencil (includes diagonal neighbours at weight `diag_w`).
pub fn grid2d_laplacian_9pt(nx: usize, ny: usize, diag_w: f64) -> Csr {
    assert!(diag_w > 0.0, "diagonal coupling must be positive");
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = Coo::with_capacity(n, n, 9 * n);
    let mut diag = vec![0.0; n];
    for y in 0..ny {
        for x in 0..nx {
            let u = idx(x, y);
            let couple = |vx: isize, vy: isize, w: f64, diag: &mut [f64], coo: &mut Coo| {
                if vx >= 0 && vy >= 0 && (vx as usize) < nx && (vy as usize) < ny {
                    let v = idx(vx as usize, vy as usize);
                    if v > u {
                        coo.push_sym_trusted(u, v, -w);
                        diag[u] += w;
                        diag[v] += w;
                    }
                }
            };
            let (xi, yi) = (x as isize, y as isize);
            couple(xi + 1, yi, 1.0, &mut diag, &mut coo);
            couple(xi, yi + 1, 1.0, &mut diag, &mut coo);
            couple(xi + 1, yi + 1, diag_w, &mut diag, &mut coo);
            couple(xi - 1, yi + 1, diag_w, &mut diag, &mut coo);
        }
    }
    // Dirichlet-style margin to make it non-singular: pin every diagonal to
    // the full interior stencil weight.
    let full = 2.0 * (1.0 + 1.0) + 4.0 * diag_w;
    for (i, d) in diag.iter().enumerate() {
        coo.push_trusted(i, i, d + (full - d).max(0.0) * 0.5 + 1e-6);
    }
    coo.to_csr_trusted()
}

/// 7-point Laplacian on an `nx × ny × nz` grid (Dirichlet; diagonal 6).
pub fn grid3d_laplacian(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut coo = Coo::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let u = idx(x, y, z);
                coo.push_trusted(u, u, 6.0);
                if x + 1 < nx {
                    coo.push_sym_trusted(u, idx(x + 1, y, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push_sym_trusted(u, idx(x, y + 1, z), -1.0);
                }
                if z + 1 < nz {
                    coo.push_sym_trusted(u, idx(x, y, z + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr_trusted()
}

/// Anisotropic 7-point Laplacian on an `nx × ny × nz` grid (Dirichlet):
/// conductance 1 along x, `eps` along y and z, so the diagonal is
/// `2 + 4·eps` everywhere (boundary nodes couple to implicit ghost nodes).
/// Small `eps` stretches the stencil into near-1-D chains — the classic
/// stress case for partition quality and for the supernode panel shapes
/// the blocked substitution kernels rely on.
pub fn grid3d_laplacian_aniso(nx: usize, ny: usize, nz: usize, eps: f64) -> Csr {
    assert!(eps > 0.0, "anisotropy ratio must be positive");
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let diag = 2.0 + 4.0 * eps;
    let mut coo = Coo::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let u = idx(x, y, z);
                coo.push_trusted(u, u, diag);
                if x + 1 < nx {
                    coo.push_sym_trusted(u, idx(x + 1, y, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push_sym_trusted(u, idx(x, y + 1, z), -eps);
                }
                if z + 1 < nz {
                    coo.push_sym_trusted(u, idx(x, y, z + 1), -eps);
                }
            }
        }
    }
    coo.to_csr_trusted()
}

/// Random-sparsity symmetric diagonally dominant SPD matrix: `n` vertices,
/// ~`avg_degree` random neighbours each, negative off-diagonals, diagonal =
/// Σ|off-diag| + `margin`.
pub fn random_spd(n: usize, avg_degree: usize, margin: f64, seed: u64) -> Csr {
    assert!(margin > 0.0, "margin must be positive for definiteness");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * (avg_degree + 1));
    let mut diag = vec![margin; n];
    for u in 0..n {
        for _ in 0..avg_degree.div_ceil(2) {
            let v = rng.gen_range(0..n);
            if v == u {
                continue;
            }
            let w: f64 = rng.gen_range(0.1..2.0);
            coo.push_sym_trusted(u, v, -w);
            diag[u] += w;
            diag[v] += w;
        }
    }
    for (i, d) in diag.iter().enumerate() {
        coo.push_trusted(i, i, *d);
    }
    coo.to_csr_trusted()
}

/// Tridiagonal SPD matrix with constant diagonal `d` and off-diagonal `e`
/// (requires `|d| > 2|e|` for strict dominance; asserted).
pub fn tridiagonal(n: usize, d: f64, e: f64) -> Csr {
    assert!(d.abs() > 2.0 * e.abs(), "need |d| > 2|e| for SPD");
    let mut coo = Coo::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push_trusted(i, i, d);
    }
    for i in 0..n.saturating_sub(1) {
        coo.push_sym_trusted(i, i + 1, e);
    }
    coo.to_csr_trusted()
}

/// The 4×4 example system (3.2) of the paper, with its right-hand side.
///
/// ```text
/// ⎡ 5 −1 −1  0⎤       ⎡1⎤
/// ⎢−1  6 −2 −1⎥   b = ⎢2⎥
/// ⎢−1 −2  7 −2⎥       ⎢3⎥
/// ⎣ 0 −1 −2  8⎦       ⎣4⎦
/// ```
pub fn paper_example_system() -> (Csr, Vec<f64>) {
    let mut coo = Coo::new(4, 4);
    for (i, d) in [5.0, 6.0, 7.0, 8.0].iter().enumerate() {
        coo.push_trusted(i, i, *d);
    }
    coo.push_sym_trusted(0, 1, -1.0);
    coo.push_sym_trusted(0, 2, -1.0);
    coo.push_sym_trusted(1, 2, -2.0);
    coo.push_sym_trusted(1, 3, -1.0);
    coo.push_sym_trusted(2, 3, -2.0);
    (coo.to_csr_trusted(), vec![1.0, 2.0, 3.0, 4.0])
}

/// Random dense RHS with entries in `[-1, 1]`.
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Manufactured problem: pick a random exact solution `x*`, return
/// `(b = A x*, x*)` so solvers can be checked against a known answer.
pub fn manufactured_rhs(a: &Csr, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let xe = random_rhs(a.n_cols(), seed);
    (a.matvec(&xe), xe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{Definiteness, DenseLdlt};

    #[test]
    fn grid2d_laplacian_shape_and_spd() {
        let a = grid2d_laplacian(4, 3);
        assert_eq!(a.n_rows(), 12);
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diag_dominant());
        // Interior node has diagonal 4 and four −1 neighbours.
        assert_eq!(a.get(5, 5), 4.0);
        assert_eq!(a.get(5, 4), -1.0);
        assert_eq!(a.get(5, 6), -1.0);
        assert_eq!(a.get(5, 1), -1.0);
        assert_eq!(a.get(5, 9), -1.0);
        // Corner node also has diagonal 4 (Dirichlet ghost margin).
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(
            DenseLdlt::classify_csr(&a, 1e-10),
            Definiteness::PositiveDefinite
        );
    }

    #[test]
    fn grid_row_sums_reflect_dirichlet_boundary() {
        let a = grid2d_laplacian(3, 3);
        // Interior node row sums to 0; boundary rows are strictly dominant.
        let row_sum = |r: usize| a.row(r).map(|(_, v)| v).sum::<f64>();
        assert!((row_sum(4) - 0.0).abs() < 1e-14);
        assert!(row_sum(0) > 0.0);
    }

    #[test]
    fn random_grid_is_reproducible_and_spd() {
        let a1 = grid2d_random(5, 5, 1.0, 42);
        let a2 = grid2d_random(5, 5, 1.0, 42);
        assert_eq!(a1, a2);
        let a3 = grid2d_random(5, 5, 1.0, 43);
        assert_ne!(a1, a3);
        assert!(a1.is_symmetric(1e-12));
        assert!(a1.is_diag_dominant());
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(grid2d_random(17, 17, 1.0, 1).n_rows(), 289);
        // 33×33 = 1089 and 65×65 = 4225 checked cheaply by arithmetic here;
        // the repro harness builds them for real.
        assert_eq!(33 * 33, 1089);
        assert_eq!(65 * 65, 4225);
    }

    #[test]
    fn random_spd_is_spd() {
        let a = random_spd(40, 4, 0.5, 7);
        assert!(a.is_symmetric(1e-12));
        assert!(a.is_diag_dominant());
        assert_eq!(
            DenseLdlt::classify_csr(&a, 1e-10),
            Definiteness::PositiveDefinite
        );
    }

    #[test]
    fn grid3d_interior_diag() {
        let a = grid3d_laplacian(3, 3, 3);
        assert_eq!(a.n_rows(), 27);
        // Center node (1,1,1) = index 13 has six −1 neighbours.
        let offdiag: f64 = a.row(13).filter(|&(c, _)| c != 13).map(|(_, v)| v).sum();
        assert_eq!(offdiag, -6.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn grid3d_row_sums_and_spectrum() {
        // Row sums: an interior row of the 7-point Dirichlet Laplacian
        // sums to 0; each missing neighbour (one per adjacent face of the
        // boundary) leaves +1 behind. Total row sum = Σ missing edges
        // = 2(ny·nz + nx·nz + nx·ny).
        let (nx, ny, nz) = (5usize, 4, 3);
        let a = grid3d_laplacian(nx, ny, nz);
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut total = 0.0;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let faces = usize::from(x == 0)
                        + usize::from(x == nx - 1)
                        + usize::from(y == 0)
                        + usize::from(y == ny - 1)
                        + usize::from(z == 0)
                        + usize::from(z == nz - 1);
                    let sum: f64 = a.row(idx(x, y, z)).map(|(_, v)| v).sum();
                    assert_eq!(sum, faces as f64, "row ({x},{y},{z})");
                    total += sum;
                }
            }
        }
        assert_eq!(total, (2 * (ny * nz + nx * nz + nx * ny)) as f64);
        // nnz: 7 per vertex minus the two halves of every missing edge.
        let n = nx * ny * nz;
        assert_eq!(a.nnz(), 7 * n - 2 * (ny * nz + nx * nz + nx * ny));

        // Spectrum: the eigenvectors are separable sine products with
        // λ_{pqr} = 6 − 2cos(pπ/(nx+1)) − 2cos(qπ/(ny+1)) − 2cos(rπ/(nz+1)).
        // Check A v = λ v for the extreme pairs (smallest and largest).
        use std::f64::consts::PI;
        for (p, q, r) in [(1usize, 1usize, 1usize), (nx, ny, nz)] {
            let lambda = 6.0
                - 2.0 * (p as f64 * PI / (nx as f64 + 1.0)).cos()
                - 2.0 * (q as f64 * PI / (ny as f64 + 1.0)).cos()
                - 2.0 * (r as f64 * PI / (nz as f64 + 1.0)).cos();
            let mut v = vec![0.0; n];
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        v[idx(x, y, z)] = ((x + 1) as f64 * p as f64 * PI / (nx as f64 + 1.0))
                            .sin()
                            * ((y + 1) as f64 * q as f64 * PI / (ny as f64 + 1.0)).sin()
                            * ((z + 1) as f64 * r as f64 * PI / (nz as f64 + 1.0)).sin();
                    }
                }
            }
            let av = a.matvec(&v);
            for (i, (u, w)) in av.iter().zip(&v).enumerate() {
                assert!(
                    (u - lambda * w).abs() < 1e-12,
                    "eigenpair ({p},{q},{r}) fails at {i}: {u} vs λ·v = {}",
                    lambda * w
                );
            }
            assert!(lambda > 0.0, "Dirichlet Laplacian is positive definite");
        }
    }

    #[test]
    fn grid3d_aniso_row_sums_and_spd() {
        let (nx, ny, nz, eps) = (4usize, 3, 3, 0.05);
        let a = grid3d_laplacian_aniso(nx, ny, nz, eps);
        assert_eq!(a.n_rows(), nx * ny * nz);
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diag_dominant());
        // Each row sums to the ghost-node leakage: 1 per missing x-face,
        // eps per missing y/z-face; interior rows sum to 0.
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let leak = (usize::from(x == 0) + usize::from(x == nx - 1)) as f64
                        + (usize::from(y == 0)
                            + usize::from(y == ny - 1)
                            + usize::from(z == 0)
                            + usize::from(z == nz - 1)) as f64
                            * eps;
                    let sum: f64 = a.row(idx(x, y, z)).map(|(_, v)| v).sum();
                    assert!((sum - leak).abs() < 1e-14, "row ({x},{y},{z}): {sum}");
                }
            }
        }
        assert_eq!(
            DenseLdlt::classify_csr(&a, 1e-10),
            Definiteness::PositiveDefinite
        );
    }

    #[test]
    fn grid3d_aniso_at_unit_eps_is_isotropic() {
        // eps = 1 must reproduce the plain 7-point Dirichlet Laplacian.
        assert_eq!(
            grid3d_laplacian_aniso(3, 4, 2, 1.0),
            grid3d_laplacian(3, 4, 2)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn grid3d_aniso_rejects_nonpositive_eps() {
        let _ = grid3d_laplacian_aniso(2, 2, 2, 0.0);
    }

    #[test]
    fn nine_point_is_spd() {
        let a = grid2d_laplacian_9pt(5, 4, 0.5);
        assert!(a.is_symmetric(1e-12));
        assert_eq!(
            DenseLdlt::classify_csr(&a, 1e-10),
            Definiteness::PositiveDefinite
        );
    }

    #[test]
    fn tridiagonal_entries() {
        let a = tridiagonal(5, 4.0, -1.0);
        assert_eq!(a.get(2, 2), 4.0);
        assert_eq!(a.get(2, 3), -1.0);
        assert_eq!(a.get(2, 1), -1.0);
        assert_eq!(a.nnz(), 5 + 2 * 4);
    }

    #[test]
    #[should_panic(expected = "SPD")]
    fn tridiagonal_rejects_non_dominant() {
        let _ = tridiagonal(3, 1.0, 1.0);
    }

    #[test]
    fn paper_example_matches_text() {
        let (a, b) = paper_example_system();
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.get(1, 1), 6.0);
        assert_eq!(a.get(1, 2), -2.0);
        assert_eq!(a.get(0, 3), 0.0);
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diag_dominant());
    }

    #[test]
    fn manufactured_rhs_consistent() {
        let a = grid2d_laplacian(4, 4);
        let (b, xe) = manufactured_rhs(&a, 3);
        let ax = a.matvec(&xe);
        for (u, v) in ax.iter().zip(&b) {
            assert_eq!(u, v);
        }
    }

    #[test]
    fn random_rhs_seeded() {
        assert_eq!(random_rhs(8, 5), random_rhs(8, 5));
        assert_ne!(random_rhs(8, 5), random_rhs(8, 6));
    }
}
