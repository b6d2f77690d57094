//! Error type shared across the substrate.

use std::fmt;

/// Errors produced by the sparse substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Matrix dimensions are inconsistent with the requested operation.
    DimensionMismatch {
        /// What was being attempted.
        context: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// What was being attempted.
        context: &'static str,
        /// The offending index.
        index: usize,
        /// The valid bound (exclusive).
        bound: usize,
    },
    /// Cholesky factorization hit a non-positive pivot: the matrix is not
    /// positive definite (within the solver's tolerance).
    NotPositiveDefinite {
        /// Pivot column at which the factorization broke down.
        column: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// [`NotPositiveDefinite`](Self::NotPositiveDefinite) from the local
    /// factorization of one part of a torn system, located in the caller's
    /// terms: the input was not SPD there, or the split violated the
    /// hypothesis of Theorem 6.1.
    PartNotPositiveDefinite {
        /// The part whose local matrix broke down.
        part: usize,
        /// Row of the *original* system the failing pivot belongs to.
        row: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// The matrix is structurally or numerically non-symmetric.
    NotSymmetric {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// In-memory input (a right-hand side, a matrix value) holds a NaN or
    /// an infinity.
    NonFinite {
        /// What was being checked.
        context: &'static str,
        /// Index of the first offending entry (for a matrix: its row).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Parsing external data (e.g. Matrix Market) failed.
    Parse(String),
    /// An iterative solver failed to converge within its budget.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            Error::IndexOutOfBounds {
                context,
                index,
                bound,
            } => write!(f, "index {index} out of bounds (< {bound}) in {context}"),
            Error::NotPositiveDefinite { column, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:.3e} at column {column}"
            ),
            Error::PartNotPositiveDefinite { part, row, pivot } => write!(
                f,
                "part {part} is not positive definite: pivot {pivot:.3e} at row {row} \
                 of the original system"
            ),
            Error::NotSymmetric { row, col } => {
                write!(f, "matrix is not symmetric at entry ({row}, {col})")
            }
            Error::NonFinite {
                context,
                index,
                value,
            } => write!(f, "non-finite value {value} at index {index} of {context}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver did not converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::NotPositiveDefinite {
            column: 3,
            pivot: -1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("positive definite"));
        assert!(msg.contains("column 3"));

        let e = Error::PartNotPositiveDefinite {
            part: 2,
            row: 41,
            pivot: -1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("part 2") && msg.contains("row 41"), "{msg}");

        let e = Error::DimensionMismatch {
            context: "matvec",
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains("matvec"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::Parse("x".into()));
    }
}
