//! Successive over-relaxation (SOR): Gauss–Seidel with relaxation factor ω.

use super::{IterConfig, IterResult};
use crate::csr::Csr;
use crate::vector::norm2;

/// Solve `A x = b` by SOR with relaxation factor `omega ∈ (0, 2)`.
///
/// `omega = 1` reduces to Gauss–Seidel.
///
/// # Panics
/// Panics for `omega` outside `(0, 2)` (divergent for SPD systems).
pub fn solve(a: &Csr, b: &[f64], omega: f64, cfg: &IterConfig) -> IterResult {
    assert!(
        omega > 0.0 && omega < 2.0,
        "SOR requires omega in (0, 2), got {omega}"
    );
    let n = a.n_rows();
    assert_eq!(a.n_cols(), n, "sor: square matrix required");
    assert_eq!(b.len(), n, "sor: rhs length");
    let diag = a.diag();
    assert!(diag.iter().all(|&d| d != 0.0), "sor: zero diagonal entry");

    let threshold = cfg.threshold(norm2(b));
    let mut x = vec![0.0; n];
    let mut history = Vec::new();
    let mut residual = f64::INFINITY;

    for it in 0..cfg.max_iter {
        for r in 0..n {
            let mut s = b[r];
            for (c, v) in a.row(r) {
                if c != r {
                    s -= v * x[c];
                }
            }
            let gs = s / diag[r];
            x[r] = (1.0 - omega) * x[r] + omega * gs;
        }
        residual = a.residual_norm(&x, b);
        if cfg.record_history {
            history.push(residual);
        }
        if residual <= threshold {
            return IterResult {
                x,
                iterations: it + 1,
                residual,
                converged: true,
                residual_history: history,
            };
        }
    }
    IterResult {
        x,
        iterations: cfg.max_iter,
        residual,
        converged: false,
        residual_history: history,
    }
}

/// The theoretically optimal ω for a consistently-ordered matrix with Jacobi
/// spectral radius `rho_j`: `2 / (1 + √(1 − ρ²))`.
pub fn optimal_omega(rho_jacobi: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho_jacobi), "need 0 ≤ ρ < 1");
    2.0 / (1.0 + (1.0 - rho_jacobi * rho_jacobi).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn omega_one_equals_gauss_seidel() {
        let a = generators::grid2d_laplacian(6, 6);
        let b = generators::random_rhs(36, 4);
        let s = solve(&a, &b, 1.0, &IterConfig::with_rtol(1e-10));
        assert!(s.converged);
        // The same number of forward Gauss–Seidel sweeps, written out.
        let mut x = vec![0.0; 36];
        for _ in 0..s.iterations {
            for r in 0..36 {
                let off: f64 = a
                    .row(r)
                    .filter(|&(c, _)| c != r)
                    .map(|(c, v)| v * x[c])
                    .sum();
                x[r] = (b[r] - off) / a.get(r, r);
            }
        }
        for (u, v) in s.x.iter().zip(&x) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn tuned_omega_accelerates_laplacian() {
        let nx = 16;
        let a = generators::grid2d_laplacian(nx, nx);
        let b = generators::random_rhs(nx * nx, 4);
        let cfg = IterConfig::with_rtol(1e-8).max_iter(100_000);
        // Jacobi spectral radius of the Dirichlet Laplacian ≈ cos(π/(nx+1)).
        let rho = (std::f64::consts::PI / (nx as f64 + 1.0)).cos();
        let s_opt = solve(&a, &b, optimal_omega(rho), &cfg);
        let s_gs = solve(&a, &b, 1.0, &cfg);
        assert!(s_opt.converged && s_gs.converged);
        assert!(
            s_opt.iterations < s_gs.iterations / 2,
            "optimal SOR {} should be ≫ faster than GS {}",
            s_opt.iterations,
            s_gs.iterations
        );
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn rejects_bad_omega() {
        let a = generators::tridiagonal(3, 4.0, -1.0);
        let _ = solve(&a, &[1.0, 1.0, 1.0], 2.5, &IterConfig::default());
    }

    #[test]
    fn optimal_omega_bounds() {
        assert!((optimal_omega(0.0) - 1.0).abs() < 1e-15);
        assert!(optimal_omega(0.99) < 2.0);
        assert!(optimal_omega(0.99) > 1.0);
    }
}
