//! # dtm-repro — reproduction of "Directed Transmission Method" (SPAA 2008)
//!
//! Facade crate: re-exports the four subsystem crates so examples and
//! integration tests can use one import path. See the README for the tour
//! and its "Paper mapping" section for where each part of the paper lives.

pub use dtm_core as core;
pub use dtm_graph as graph;
pub use dtm_simnet as simnet;
pub use dtm_sparse as sparse;

pub use dtm_core::{DtmBuilder, DtmProblem, ImpedancePolicy, SolveReport};
