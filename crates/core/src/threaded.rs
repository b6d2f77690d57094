//! DTM on real OS threads — genuine asynchrony, no simulation.
//!
//! This module is a **thin adapter** over [`crate::runtime`]: one thread
//! per subdomain runs the shared [`NodeRuntime`] state machine; waves
//! travel `std::sync::mpsc` channels, so the DTL transmission delay is
//! realised by real scheduling and channel latency (the
//! Algorithm-Architecture Delay Mapping under natural asynchrony). No
//! barrier anywhere. An optional router thread injects per-link delays
//! (scaled from a [`Topology`]) so heterogeneous-machine behaviour can be
//! exercised with real threads too.
//!
//! The worker loop, the work-token quiescence counter and the router live
//! in the generic one-thread-per-node fabric [`crate::fabric::Threads`];
//! this module is a **caller** that owns DTM's configuration and entry
//! points.

use crate::fabric::{self, WallFabric};
use crate::report::SolveReport;
use crate::runtime::{self, CommonConfig, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::Result;
use std::time::Duration;

/// Threaded-executor configuration: the shared [`CommonConfig`] plus the
/// wall-clock and delay-shaping knobs that only exist on real threads.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Wall-clock budget.
    pub budget: Duration,
    /// Inject link delays from this topology, scaled by `delay_scale`
    /// (simulated nanoseconds × scale = real nanoseconds). `None` sends
    /// directly (natural channel latency only).
    pub delay_topology: Option<Topology>,
    /// Delay scale factor (default 1e-3: simulated ms → real µs).
    pub delay_scale: f64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig {
                max_solves_per_node: 1_000_000,
                ..Default::default()
            },
            budget: Duration::from_secs(30),
            delay_topology: None,
            delay_scale: 1e-3,
        }
    }
}

impl ThreadedConfig {
    fn fabric(&self) -> WallFabric<'_> {
        WallFabric::Threads {
            delay: self
                .delay_topology
                .as_ref()
                .map(|topo| (topo, self.delay_scale)),
        }
    }
}

/// Run DTM on real threads.
///
/// # Errors
/// Propagates impedance/factorization failures.
///
/// # Panics
/// Panics if a worker thread panics (the panic is propagated on join).
pub fn solve(split: &SplitSystem, config: &ThreadedConfig) -> Result<SolveReport> {
    solve_with_reference(split, None, config)
}

/// [`solve`] with a precomputed direct reference solution.
///
/// # Errors
/// See [`solve`].
pub fn solve_with_reference(
    split: &SplitSystem,
    reference: Option<Vec<f64>>,
    config: &ThreadedConfig,
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
    config: &ThreadedConfig,
) -> Result<SolveReport> {
    fabric::solve_dtm(
        split,
        runtimes,
        reference.map(|r| vec![r]),
        None,
        &config.common,
        config.budget,
        config.fabric(),
    )
}

/// Run DTM on real threads for a **block of right-hand sides** sharing one
/// factorization per subdomain (see [`crate::solver::solve_block`] for the
/// block-wave semantics; here the waves travel real channels).
///
/// # Errors
/// See [`solve`].
pub fn solve_block(
    split: &SplitSystem,
    rhs_cols: &[Vec<f64>],
    references: Option<Vec<Vec<f64>>>,
    config: &ThreadedConfig,
) -> Result<SolveReport> {
    let runtimes = runtime::build_nodes_block(split, &config.common, rhs_cols)?;
    fabric::solve_dtm(
        split,
        runtimes,
        references,
        Some(rhs_cols),
        &config.common,
        config.budget,
        config.fabric(),
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
    use dtm_simnet::DelayModel;
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
    fn threaded_dtm_converges_natural_asynchrony() {
        let ss = grid_split(10, 4, 71);
        let config = ThreadedConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-8 },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        };
        let report = solve(&ss, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert_eq!(report.backend, BackendKind::Threaded);
        let (a, b) = ss.reconstruct();
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
        assert!(report.total_solves > 4);
        assert!(report.total_messages > 0);
    }

    #[test]
    fn threaded_dtm_with_injected_heterogeneous_delays() {
        let ss = grid_split(8, 4, 72);
        let topo =
            dtm_simnet::Topology::ring(4).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 9));
        let config = ThreadedConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-7 },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(60),
            delay_topology: Some(topo),
            delay_scale: 1e-3, // 10–99 ms simulated → 10–99 µs real
        };
        let report = solve(&ss, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
    }

    #[test]
    fn threaded_local_delta_self_halts() {
        let ss = grid_split(8, 3, 73);
        let config = ThreadedConfig {
            common: CommonConfig {
                termination: Termination::LocalDelta {
                    tol: 1e-12,
                    patience: 4,
                },
                ..ThreadedConfig::default().common
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
    fn threaded_solve_cap_is_not_convergence() {
        let ss = grid_split(8, 3, 74);
        let config = ThreadedConfig {
            common: CommonConfig {
                // tol 0.0: the delta rule can never fire; only the cap halts.
                termination: Termination::LocalDelta {
                    tol: 0.0,
                    patience: 2,
                },
                max_solves_per_node: 5,
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(30),
            ..Default::default()
        };
        let report = solve(&ss, &config).unwrap();
        assert!(
            !report.converged,
            "capped-out run must not claim convergence (rms {})",
            report.final_rms
        );
    }

    #[test]
    fn threaded_local_delta_with_long_real_delays_still_converges() {
        // Regression: waves spending ~10 ms in the router used to let the
        // 1 ms idle kick feed the zero-delta self-halt streak, halting
        // workers long before the run converged. The quiescence guard
        // (no worker active, nothing in flight) must hold the kick back
        // until the waves have genuinely stopped.
        let ss = grid_split(6, 2, 75);
        let topo = dtm_simnet::Topology::ring(2).with_delays(&DelayModel::fixed_ms(10.0));
        let config = ThreadedConfig {
            common: CommonConfig {
                termination: Termination::LocalDelta {
                    tol: 1e-12,
                    patience: 4,
                },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(60),
            delay_topology: Some(topo),
            delay_scale: 1.0, // 10 ms simulated -> 10 ms real
        };
        let report = solve(&ss, &config).unwrap();
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(report.converged);
        assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
    }

    #[test]
    fn malformed_delay_topology_is_a_typed_error_not_a_panic() {
        // Regression: a delay topology missing a route's link used to
        // panic inside a worker thread ("no link {src} → {dst}") and
        // surface as a join panic; it must be a typed error before any
        // thread spawns.
        let ss = grid_split(6, 3, 76);
        // A 3-node topology with NO links at all: every route is missing.
        let topo = dtm_simnet::Topology::from_links(3, vec![]);
        let config = ThreadedConfig {
            delay_topology: Some(topo),
            budget: Duration::from_secs(5),
            ..Default::default()
        };
        let err = solve(&ss, &config);
        assert!(err.is_err(), "missing links must be a typed error");
        let msg = format!("{}", err.unwrap_err());
        assert!(msg.contains("no link"), "typed message, got: {msg}");

        // Wrong processor count is likewise typed.
        let wrong = ThreadedConfig {
            delay_topology: Some(
                dtm_simnet::Topology::ring(4).with_delays(&DelayModel::fixed_ms(1.0)),
            ),
            budget: Duration::from_secs(5),
            ..Default::default()
        };
        assert!(solve(&ss, &wrong).is_err());
    }

    #[test]
    fn paper_example_on_two_threads() {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: dtm_graph::evs::paper_example_shares(),
            ..Default::default()
        };
        let ss = evs_split(&g, &plan, &options).unwrap();
        let config = ThreadedConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
                termination: Termination::OracleRms { tol: 1e-9 },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(30),
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
