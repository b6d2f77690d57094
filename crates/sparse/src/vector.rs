//! Dense vector kernels: norms, dot products, axpy, error metrics.
//!
//! These are the hot inner loops of every iterative solver in the workspace,
//! so they are kept simple, allocation-free and easily auto-vectorizable.

/// Euclidean (ℓ₂) norm of `x`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `‖x‖₂`, saturated to 1 when zero — the scale of a relative residual
/// `‖b − A·x‖ / ‖b‖` (keeps the ratio defined for b = 0, where the
/// absolute and relative residuals coincide).
pub fn norm2_or_one(x: &[f64]) -> f64 {
    let norm = norm2(x);
    if norm > 0.0 {
        norm
    } else {
        1.0
    }
}

/// The in-memory input boundary: `Ok` when every entry of `x` is finite.
///
/// # Errors
/// [`Error::NonFinite`](crate::Error::NonFinite) naming the first entry
/// that is a NaN or an infinity.
pub fn require_finite(context: &'static str, x: &[f64]) -> crate::Result<()> {
    match x.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(index) => Err(crate::Error::NonFinite {
            context,
            index,
            value: x[index],
        }),
    }
}

/// Infinity (max-abs) norm of `x`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha·x`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← alpha·y + x` (scale-then-add, the CG "beta" update).
#[inline]
pub fn aypx(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "aypx: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * *yi + xi;
    }
}

/// `out ← x − y`, reusing `out`'s allocation.
#[inline]
pub fn sub_into(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    assert_eq!(x.len(), out.len(), "sub_into: output length mismatch");
    for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
        *o = a - b;
    }
}

/// Root-mean-square difference `‖x − y‖₂ / √n` — the paper's "RMS error"
/// metric (Figs. 9, 12, 14).
///
/// Returns 0 for empty vectors.
#[inline]
pub fn rms_error(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rms_error: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let ss: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    (ss / x.len() as f64).sqrt()
}

/// Relative ℓ₂ error `‖x − y‖ / max(‖y‖, ε)`.
#[inline]
pub fn rel_error(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_error: length mismatch");
    let ss: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    ss.sqrt() / norm2(y).max(f64::MIN_POSITIVE)
}

/// Scale `x` in place by `alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// Fill `x` with `value`.
#[inline]
pub fn fill(x: &mut [f64], value: f64) {
    for v in x {
        *v = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let x = [3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        aypx(0.5, &x, &mut y);
        assert_eq!(y, [4.0, 6.5, 9.0]);
    }

    #[test]
    fn rms_of_identical_vectors_is_zero() {
        let x = [1.0, -2.0, 3.5];
        assert_eq!(rms_error(&x, &x), 0.0);
        assert_eq!(rms_error(&[], &[]), 0.0);
    }

    #[test]
    fn rms_matches_hand_computation() {
        // differences: 1, -1 → mean square = 1 → rms = 1
        assert!((rms_error(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sub_into_works() {
        let mut out = [0.0; 3];
        sub_into(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, [4.0, 3.0, 2.0]);
    }

    #[test]
    fn rel_error_scale_free() {
        let y = [2.0, 0.0];
        let x = [2.2, 0.0];
        assert!((rel_error(&x, &y) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn scale_and_fill() {
        let mut x = [1.0, 2.0];
        scale(&mut x, 3.0);
        assert_eq!(x, [3.0, 6.0]);
        fill(&mut x, 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }
}
