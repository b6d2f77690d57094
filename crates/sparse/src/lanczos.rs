//! Lanczos estimate of a symmetric operator's smallest eigenvalue.
//!
//! `k` steps of the three-term recurrence
//! `β_{j+1} v_{j+1} = A v_j − α_j v_j − β_j v_{j−1}` project `A` onto the
//! Krylov space of the start vector as a `k × k` tridiagonal `T` (diagonal
//! `α`, off-diagonal `β`); the eigenvalues of `T` (Ritz values) approach
//! the ends of `A`'s spectrum first, and every one of them lies inside it,
//! so the smallest Ritz value is an *upper* bound on `λ_min` that tightens
//! with `k` and with the start vector's weight on the lowest mode. It is
//! read off `T` by bisection on the Sturm count (negative pivots of
//! `T − xI = LDLᵀ`).
//!
//! No reorthogonalisation: lost orthogonality only duplicates converged
//! extreme Ritz values, it never moves them outside the spectrum. Serial,
//! caller-chosen start, fixed step count — the result is a pure function of
//! its inputs, bit for bit. The caller is `dtm-core`'s matched impedance,
//! which turns this spectral estimate into DTM's one tunable.

use crate::vector::{dot, norm2};

/// Smallest Ritz value of at most `steps` Lanczos steps on the symmetric
/// operator `apply(x, y)` (`y ← A x`), started from `start`.
///
/// Stops early when the Krylov space is exhausted (`β` at rounding level:
/// `start` lies in an invariant subspace, the Ritz values so far are exact
/// eigenvalues, and the next vector would be normalised noise). Returns NaN
/// when there is no estimate — `start` zero or not finite, `steps == 0`, an
/// operator that produces NaN — which cannot be mistaken for one.
pub fn smallest_ritz(
    mut apply: impl FnMut(&[f64], &mut [f64]),
    start: &[f64],
    steps: usize,
) -> f64 {
    let norm = norm2(start);
    if !(norm > 0.0 && norm.is_finite()) {
        return f64::NAN;
    }
    let mut v: Vec<f64> = start.iter().map(|x| x / norm).collect();
    let mut v_prev = vec![0.0; v.len()];
    let mut w = vec![0.0; v.len()];
    // T: `alphas[j]` on the diagonal, `betas[j]` between rows j−1 and j
    // (`betas[0] = 0`).
    let (mut alphas, mut betas) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    let mut beta = 0.0;
    for _ in 0..steps {
        apply(&v, &mut w);
        let alpha = dot(&v, &w);
        // w ← w − α v − β v_prev and ‖w‖² in one pass.
        let mut sq = 0.0;
        for ((wi, vi), pi) in w.iter_mut().zip(&v).zip(&v_prev) {
            *wi -= alpha * vi + beta * pi;
            sq += *wi * *wi;
        }
        alphas.push(alpha);
        betas.push(beta);
        // ‖A v‖² = α² + β_j² + β_{j+1}² (Pythagoras), so this is
        // β_{j+1} ≤ √ε·‖A v‖: what is left of `w` is rounding noise.
        if sq.is_nan() || sq <= f64::EPSILON * (alpha * alpha + beta * beta) {
            break;
        }
        beta = sq.sqrt();
        // v_prev ← v, v ← w / β (the next apply overwrites w).
        std::mem::swap(&mut v, &mut v_prev);
        let inv_beta = 1.0 / beta;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi * inv_beta;
        }
    }
    smallest_tridiagonal_eigenvalue(&alphas, &betas)
}

/// Smallest eigenvalue of the symmetric tridiagonal with diagonal `alphas`
/// and `betas[j]` between rows `j − 1` and `j` (`betas[0] = 0`), by
/// bisection on the Sturm count inside the Gershgorin interval. NaN for an
/// empty or non-finite matrix.
fn smallest_tridiagonal_eigenvalue(alphas: &[f64], betas: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (j, (a, b)) in alphas.iter().zip(betas).enumerate() {
        let radius = b.abs() + betas.get(j + 1).map_or(0.0, |b| b.abs());
        lo = lo.min(a - radius);
        hi = hi.max(a + radius);
    }
    if !(lo.is_finite() && hi.is_finite()) {
        return f64::NAN;
    }
    // Whether an eigenvalue lies below `x`: a negative pivot of the LDLᵀ
    // recurrence on T − xI.
    let any_below = |x: f64| {
        let mut q = 1.0_f64;
        for (a, b) in alphas.iter().zip(betas) {
            q = a - x - b * b / q;
            if q < 0.0 {
                return true;
            }
            if q == 0.0 {
                q = f64::MIN_POSITIVE;
            }
        }
        false
    };
    // No eigenvalue lies below `lo`, the smallest is at most `hi`; 64
    // halvings take the Gershgorin width down to rounding level.
    for _ in 0..64 {
        let mid = lo + 0.5 * (hi - lo);
        if any_below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo + 0.5 * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::DenseCholesky;
    use crate::csr::Csr;
    use crate::generators;
    use std::f64::consts::PI;

    fn ritz(a: &Csr, start: &[f64], steps: usize) -> f64 {
        smallest_ritz(|x, y| a.matvec_into(x, y), start, steps)
    }

    /// A start vector with weight on every mode of the test grids.
    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
    }

    #[test]
    fn tridiagonal_lambda_min_is_closed_form() {
        // λ_j = d + 2e·cos(jπ/(n+1)); the smallest is j = 1 for e < 0.
        let n = 40;
        let a = generators::tridiagonal(n, 2.01, -1.0);
        let exact = 2.01 - 2.0 * (PI / (n as f64 + 1.0)).cos();
        // Full-length run: the Krylov space is everything, the value exact.
        let full = ritz(&a, &ramp(n), n);
        assert!((full - exact).abs() < 1e-10, "{full} vs {exact}");
        // A short run is an upper bound that a longer one tightens.
        let (r8, r16) = (ritz(&a, &ramp(n), 8), ritz(&a, &ramp(n), 16));
        assert!(r8 >= r16 && r16 >= exact - 1e-12, "{r8} {r16} {exact}");
        assert!(r16 < 2.0 * exact, "16 steps within 2x: {r16} vs {exact}");
    }

    #[test]
    fn grid_laplacian_lambda_min_from_the_ones_vector() {
        // Dirichlet 5-point Laplacian: λ_min = 4 − 2cos(π/(nx+1)) − 2cos(π/(ny+1)).
        // The ones vector overlaps the lowest mode, so 16 steps land within
        // 2× — the regime the matched impedance relies on.
        let (nx, ny) = (24, 24);
        let a = generators::grid2d_laplacian(nx, ny);
        let exact = 4.0 - 4.0 * (PI / (nx as f64 + 1.0)).cos();
        let est = ritz(&a, &vec![1.0; nx * ny], 16);
        assert!(
            est >= exact - 1e-12 && est < 2.0 * exact,
            "{est} vs {exact}"
        );
    }

    #[test]
    fn matches_dense_lambda_min_on_a_random_spd_matrix() {
        let n = 30;
        let a = generators::random_spd(n, 4, 0.1, 11);
        // Reference: inverse power iteration on the dense Cholesky factor.
        let chol = DenseCholesky::factor_csr(&a).unwrap();
        let mut x = ramp(n);
        let mut lambda = 0.0;
        for _ in 0..500 {
            let norm = norm2(&x);
            x.iter_mut().for_each(|v| *v /= norm);
            let y = chol.solve(&x);
            lambda = 1.0 / dot(&x, &y);
            x = y;
        }
        let est = ritz(&a, &ramp(n), n);
        assert!((est - lambda).abs() < 1e-9 * lambda, "{est} vs {lambda}");
    }

    #[test]
    fn invariant_start_stops_at_its_eigenvalue() {
        // Neumann grid plus a uniform shift: the ones vector is the exact
        // lowest eigenvector (eigenvalue = the shift); one step finds it.
        let a = generators::grid2d_conductance(6, 6, |_, _| 1.0, 0.5);
        let mut calls = 0;
        let est = smallest_ritz(
            |x, y| {
                calls += 1;
                a.matvec_into(x, y);
            },
            &[1.0; 36],
            16,
        );
        assert_eq!(calls, 1);
        assert!((est - 0.5).abs() < 1e-12, "{est}");
    }

    #[test]
    fn deterministic_and_nan_without_a_start() {
        let a = generators::grid2d_laplacian(9, 9);
        let s = ramp(81);
        assert_eq!(ritz(&a, &s, 16).to_bits(), ritz(&a, &s, 16).to_bits());
        assert!(ritz(&a, &[0.0; 81], 16).is_nan());
        assert!(ritz(&a, &s, 0).is_nan());
        let mut bad = s;
        bad[3] = f64::NAN;
        assert!(ritz(&a, &bad, 16).is_nan());
    }
}
