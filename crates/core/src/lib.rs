//! # dtm-core — the Directed Transmission Method
//!
//! The paper's contribution (§2, §5–§6): a **fully asynchronous,
//! continuous-time** iterative solver for sparse SPD linear systems.
//!
//! After `dtm-graph` tears the electric graph into subdomains, a **Directed
//! Transmission Line Pair** is inserted between every pair of twin vertices.
//! Each DTL imposes the Directed Transmission Delay Equation
//!
//! ```text
//! U_out(t) + Z·I_out(t) = U_in(t − τ) − Z·I_in(t − τ)        (2.1)
//! ```
//!
//! which turns the neighbour's *delayed* boundary condition into a Robin
//! ("impedance") condition on the local system: the local matrix becomes
//! `A_j + diag(1/z)` on the port rows — **constant**, so it is Cholesky-
//! factored once and every update is a pair of triangular solves (§5's key
//! performance remark). Because each DTL carries its own delay, the
//! algorithm maps one-to-one onto a machine with asymmetric link delays —
//! the *Algorithm-Architecture Delay Mapping*.
//!
//! Modules:
//!
//! * [`dtl`] — the delay-equation algebra (incident/reflected waves);
//! * [`impedance`] — characteristic-impedance selection policies (the free
//!   parameter studied in Fig. 9), the default of which works its scale
//!   out of the torn system's spectrum;
//! * [`local`] — the factor-once local solver of eq. (5.9);
//! * [`runtime`] — the **backend-agnostic DTM runtime**: the one canonical
//!   node state machine (solve-and-scatter, wave merge, Table 1 step 3.3
//!   self-halt) behind the [`runtime::Transport`] /
//!   [`runtime::ExecutorBackend`] trait pair; what a supervisor reads of
//!   the system it scores a run against ([`runtime::GatherMap`]); and, in
//!   [`runtime::wallclock`], the block a wall-clock worker publishes its
//!   solution through;
//! * [`fabric`] — **the two wall-clock fabrics**, each written once and
//!   generic over the node: resident workers on one ready queue, and one
//!   OS thread per node; plus the per-node hook and the LocalDelta
//!   passive/re-arm rule. Every real-time executor below is a caller;
//! * [`solver`] — the simulated executor: the one adapter between a node
//!   and a `dtm-simnet` processor, its engine loop, DTM's entry points on
//!   the simulated heterogeneous machine, and the lock-step machine
//!   (every link one round) that synchronous rounds run on;
//! * [`threaded`] — caller: DTM on real OS threads and channels
//!   (genuinely asynchronous execution);
//! * [`rayon_backend`] — caller: DTM as tasks on an in-process
//!   work-stealing pool;
//! * [`vtm`] — the Virtual Transmission Method (eq. 5.10): one thin entry
//!   point — DTM's own nodes on the lock-step machine;
//! * [`async_baselines`] — **the baselines**: randomized asynchronous
//!   Richardson (Avron et al. 2013), Hong's D-iteration (2012) and
//!   block-Jacobi as first-class peer solvers behind the same
//!   [`runtime::AsyncNode`] / [`runtime::Transport`] contract — three node
//!   state machines, run by the same three executors as DTM (callers of
//!   [`fabric`] and [`solver`]) and compared message for message by
//!   `repro compare`; block-Jacobi's nodes on the lock-step machine are
//!   the synchronous baseline the paper's introduction measures DTM
//!   against;
//! * [`analysis`] — spectral radius of the VTM iteration operator
//!   (quantitative convergence rates, Fig. 9 cross-check);
//! * [`monitor`] — **the one scorer** of every executor, one-shot or
//!   rolling: the incrementally gathered estimate, and per column slot the
//!   oracle RMS against the direct solution or the reference-free
//!   incremental true residual, held to the slot's own stopping rule;
//! * [`builder`] — the high-level [`DtmBuilder`] entry point;
//! * [`session`] — **the streaming API, rolling mixed-tolerance
//!   sessions**: an admission queue that swaps right-hand sides into the
//!   live block wave as column slots free up, each ticket under its own
//!   termination, with per-column completion reports — one driver on the
//!   simulated machine and one generic over the wall-clock [`fabric`]s,
//!   scored by the one-shot solves' own [`monitor`];
//! * [`report`] — the shared solve-report vocabulary and
//!   [`SolveReport::assemble`], the one report constructor holding the one
//!   `converged` rule.
//!
//! ## Quickstart
//!
//! ```
//! use dtm_core::DtmBuilder;
//! use dtm_sparse::generators;
//!
//! let a = generators::grid2d_laplacian(9, 9);
//! let b = vec![1.0; a.n_rows()];
//! let report = DtmBuilder::new(a.clone(), b.clone())
//!     .grid_blocks(9, 9, 2, 2)
//!     .solve()
//!     .unwrap();
//! assert!(report.converged);
//! assert!(a.residual_norm(&report.solution, &b) < 1e-6);
//! ```

pub mod analysis;
pub mod async_baselines;
pub mod builder;
pub mod dtl;
pub mod fabric;
pub mod impedance;
pub mod local;
pub mod monitor;
pub mod rayon_backend;
pub mod report;
pub mod runtime;
pub mod session;
pub mod solver;
pub mod sync;
pub mod threaded;
pub mod vtm;

pub use async_baselines::{
    BaselineAlgo, BaselineConfig, DIterationParams, RelaxationSchedule, RichardsonParams,
};
pub use builder::{DtmBuilder, DtmProblem};
pub use impedance::ImpedancePolicy;
pub use local::LocalSystem;
pub use report::{AlgorithmKind, BackendKind, SolveReport};
pub use runtime::{
    AsyncNode, CommonConfig, ExecutorBackend, NodeRuntime, SmallBlock, Termination, Transport,
};
pub use session::{
    ColumnReport, RollingPoolSession, RollingSession, RollingThreadedSession, TicketId,
};
pub use solver::{ComputeModel, DtmConfig};
