//! DTM on an in-process worker pool.
//!
//! The third executor, and the proof that the [`crate::runtime`]
//! abstraction holds: the *same* [`NodeRuntime`] state machine that runs
//! under the discrete-event simulator and under one-thread-per-subdomain
//! here runs as **activations handed to a few resident workers**. This is
//! the execution shape a production service would use: subdomain count
//! decoupled from thread count, any worker takes any part, no thread
//! parked on an idle subdomain. (The module, config and backend names date
//! from when the workers were a work-stealing task pool; since PR 22 they
//! drain one shared queue, and nothing is stolen.)
//!
//! Delay mapping: a wave is an inbox entry plus the receiver's place in
//! the pool's one ready queue, so the DTL transmission delay is the time
//! the receiver waits there — behind the parts queued before it, and for
//! as long as a neighbour of it is computing (the queue never steps two
//! neighbours at once, which is what makes the workers advance one
//! freshest-data sweep instead of interleaved stale-data ones). Still
//! uncontrolled, still positive: exactly the regime the paper's Theorem
//! 6.1 covers (convergence for *arbitrary* positive delays).
//!
//! This module is a **caller** of the generic pool fabric
//! [`crate::fabric::Pool`], which owns the scheduling protocol (ready
//! queue, state lock, inbox, quiescence kick) for every node type; what is
//! left here is DTM's configuration and entry points.

use crate::fabric::{self, WallFabric};
use crate::report::SolveReport;
use crate::runtime::{self, CommonConfig, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_sparse::Result;
use std::time::Duration;

/// Work-stealing-executor configuration: the shared [`CommonConfig`] plus
/// pool sizing and the wall-clock budget.
#[derive(Debug, Clone)]
pub struct RayonConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Worker threads in the pool (`0` = available parallelism). More
    /// workers than cores costs solves: a part whose worker is preempted
    /// mid-step holds its neighbours back for the whole time slice.
    pub num_threads: usize,
    /// Wall-clock budget.
    pub budget: Duration,
}

impl Default for RayonConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig {
                max_solves_per_node: 1_000_000,
                ..Default::default()
            },
            num_threads: 0,
            budget: Duration::from_secs(30),
        }
    }
}

/// Run DTM on the work-stealing pool.
///
/// # Errors
/// Propagates impedance/factorization failures.
pub fn solve(split: &SplitSystem, config: &RayonConfig) -> Result<SolveReport> {
    solve_with_reference(split, None, config)
}

/// [`solve`] with a precomputed direct reference solution.
///
/// # Errors
/// See [`solve`].
pub fn solve_with_reference(
    split: &SplitSystem,
    reference: Option<Vec<f64>>,
    config: &RayonConfig,
) -> Result<SolveReport> {
    let runtimes = runtime::build_nodes(split, &config.common)?;
    solve_prepared(split, runtimes, reference, config)
}

/// [`solve`] over **prebuilt node runtimes** — the factor-once serving
/// path. Callers build (and pay for) the per-part factorizations once via
/// [`runtime::build_nodes`]/[`runtime::build_nodes_parallel`], then hand a
/// clone of the templates to each solve: `NodeRuntime` clones share their
/// factors, so repeated solves re-run only the wave exchange.
///
/// # Errors
/// See [`solve`].
pub fn solve_prepared(
    split: &SplitSystem,
    runtimes: Vec<NodeRuntime>,
    reference: Option<Vec<f64>>,
    config: &RayonConfig,
) -> Result<SolveReport> {
    fabric::solve_dtm(
        split,
        runtimes,
        reference.map(|r| vec![r]),
        None,
        &config.common,
        config.budget,
        WallFabric::Pool {
            num_threads: config.num_threads,
        },
    )
}

/// Run DTM on the work-stealing pool for a **block of right-hand sides**
/// sharing one factorization per subdomain (see
/// [`crate::solver::solve_block`] for the block-wave semantics; here the
/// waves are inbox entries and places in the ready queue).
///
/// # Errors
/// See [`solve`].
pub fn solve_block(
    split: &SplitSystem,
    rhs_cols: &[Vec<f64>],
    references: Option<Vec<Vec<f64>>>,
    config: &RayonConfig,
) -> Result<SolveReport> {
    let runtimes = runtime::build_nodes_block(split, &config.common, rhs_cols)?;
    fabric::solve_dtm(
        split,
        runtimes,
        references,
        Some(rhs_cols),
        &config.common,
        config.budget,
        WallFabric::Pool {
            num_threads: config.num_threads,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impedance::ImpedancePolicy;
    use crate::report::{BackendKind, StopKind};
    use crate::runtime::Termination;
    use dtm_graph::evs::{split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    fn grid_split(nx: usize, k: usize, seed: u64) -> SplitSystem {
        let a = generators::grid2d_random(nx, nx, 1.0, seed);
        let b = generators::random_rhs(nx * nx, seed + 1);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(nx, nx, k);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        evs_split(&g, &plan, &EvsOptions::default()).unwrap()
    }

    #[test]
    fn workstealing_dtm_converges() {
        let ss = grid_split(10, 4, 81);
        let config = RayonConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-8 },
                ..RayonConfig::default().common
            },
            num_threads: 3, // fewer workers than subdomains: parts share workers
            budget: Duration::from_secs(60),
        };
        let report = solve(&ss, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert_eq!(report.backend, BackendKind::WorkStealing);
        let (a, b) = ss.reconstruct();
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
        assert!(report.total_solves > 4);
        assert!(report.total_messages > 0);
    }

    #[test]
    fn workstealing_local_delta_self_halts() {
        let ss = grid_split(8, 3, 82);
        let config = RayonConfig {
            common: CommonConfig {
                termination: Termination::LocalDelta {
                    tol: 1e-12,
                    patience: 4,
                },
                ..RayonConfig::default().common
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        };
        let report = solve(&ss, &config).unwrap();
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(report.converged);
        assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
    }

    #[test]
    fn paper_example_on_the_pool() {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: dtm_graph::evs::paper_example_shares(),
            ..Default::default()
        };
        let ss = evs_split(&g, &plan, &options).unwrap();
        let config = RayonConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
                termination: Termination::OracleRms { tol: 1e-9 },
                ..RayonConfig::default().common
            },
            num_threads: 2,
            ..Default::default()
        };
        let report = solve(&ss, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        let exact = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}
