//! Dense vector helpers: norms, the dot product, the paper's RMS error
//! metric, and the finiteness checks every system passes at the input
//! boundary.

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

/// [`require_finite`] for a sparse matrix's stored values — one pass over
/// them.
///
/// # Errors
/// [`Error::NonFinite`](crate::Error::NonFinite) naming the row of the
/// first stored value that is a NaN or an infinity.
pub fn require_finite_csr(context: &'static str, a: &crate::Csr) -> crate::Result<()> {
    match a.values().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(k) => Err(crate::Error::NonFinite {
            context,
            // The row holding entry k: the last row starting at or before it.
            index: a.row_ptr().partition_point(|&start| start <= k) - 1,
            value: a.values()[k],
        }),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let x = [3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
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
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn non_finite_csr_values_name_their_row() {
        let a = crate::generators::grid2d_laplacian(3, 3);
        assert!(require_finite_csr("m", &a).is_ok());
        for (row, value) in [(0, f64::NAN), (4, f64::INFINITY), (8, f64::NEG_INFINITY)] {
            let mut bad = a.clone();
            let last_of_row = bad.row_ptr()[row + 1] - 1;
            bad.values_mut()[last_of_row] = value;
            match require_finite_csr("m", &bad).unwrap_err() {
                crate::Error::NonFinite {
                    index, value: v, ..
                } => {
                    assert_eq!(index, row);
                    assert_eq!(v.to_bits(), value.to_bits());
                }
                other => panic!("expected NonFinite, got {other}"),
            }
        }
    }
}
