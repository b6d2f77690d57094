//! # dtm-graph — electric graphs and Electric Vertex Splitting (EVS)
//!
//! The paper (§3–§4) reformulates a symmetric linear system `A x = b` as an
//! **electric graph**: vertex *i* carries weight `a_ii`, source `b_i` and the
//! unknown potential `x_i`; a nonzero `a_ij` is an edge of weight `a_ij`.
//! **Electric Vertex Splitting** ("wire tearing") then partitions the graph
//! by *splitting* every boundary vertex into twin copies, dividing its
//! weight/source between them and introducing unknown *inflow currents* at
//! the resulting ports — Kirchhoff's current law in matrix form.
//!
//! This crate implements:
//!
//! * [`ElectricGraph`] — the lossless matrix ↔ graph correspondence (§3);
//! * [`plan`] — partition plans: which vertices are inner to which part and
//!   which are split into copies (§4 step 1–2), derivable from any raw
//!   per-vertex assignment;
//! * [`partition`] — assignment generators: 1-D strips and 2-D blocks for
//!   grids ("regularly partitioned … level-one and level-two mixed EVS",
//!   §7), plus nested dissection — the one partitioner for general
//!   graphs — selectable through [`Partitioner`];
//! * [`evs`] — the splitting itself (§4 step 3–4): weight/source/edge share
//!   policies, twin/multilevel chain topologies (Fig. 6), and the per-part
//!   [`evs::Subdomain`] local systems of eq. (4.3);
//! * [`validate`] — the reconstruction invariant (the split subsystems sum
//!   back to the original system exactly) and the SNND hypothesis check of
//!   convergence Theorem 6.1.

pub mod electric;
pub mod evs;
pub mod partition;
pub mod plan;
pub mod validate;

pub use electric::ElectricGraph;
pub use evs::{EvsOptions, ExplicitShares, SharePolicy, SplitSystem, Subdomain, TwinTopology};
pub use partition::{PartitionConfig, Partitioner};
pub use plan::{Owner, PartitionPlan};
