//! # dtm-sparse — sparse linear-algebra substrate
//!
//! Foundation crate for the Directed Transmission Method (DTM) reproduction.
//! Everything the paper's solver sits on is implemented here from scratch:
//!
//! * [`Coo`] / [`Csr`] sparse matrix formats with symmetric-matrix helpers,
//! * a column-major [`Dense`] matrix,
//! * dense Cholesky ([`cholesky::DenseCholesky`]) and LDLᵀ,
//! * an up-looking sparse Cholesky with elimination-tree symbolic analysis
//!   ([`sparse_cholesky::SparseCholesky`]),
//! * nested-dissection (fill-reducing) and reverse Cuthill–McKee
//!   (bandwidth) orderings ([`ordering`]),
//! * a Lanczos estimate of a symmetric operator's smallest eigenvalue
//!   ([`lanczos`]), behind `dtm-core`'s matched impedance,
//! * seeded workload generators for every experiment in the paper
//!   ([`generators`]),
//! * Matrix Market I/O ([`mm`]).
//!
//! The crate is deliberately free of `unsafe` and of external linear-algebra
//! dependencies: the goal is a self-contained, auditable substrate.
//!
//! ## Quick example
//!
//! ```
//! use dtm_sparse::{generators, SparseCholesky};
//!
//! let a = generators::grid2d_laplacian(9, 9);          // 81×81 SPD
//! let b = vec![1.0; a.n_rows()];
//! let chol = SparseCholesky::factor_fill_reducing(&a).unwrap();
//! let x = chol.solve(&b);
//! let r = a.residual_norm(&x, &b);
//! assert!(r < 1e-12 * dtm_sparse::vector::norm2(&b));
//! ```

pub mod cholesky;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod generators;
pub mod lanczos;
pub mod mm;
pub mod ordering;
pub mod sparse_cholesky;
pub mod vector;

pub use cholesky::{DenseCholesky, DenseLdlt};
pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use error::{Error, Result};
pub use ordering::Permutation;
pub use sparse_cholesky::SparseCholesky;
