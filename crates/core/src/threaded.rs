//! DTM on the wall clock with injected link delays — genuine asynchrony,
//! no simulation: [`Machine::Threads`]'s configuration.
//!
//! The machine is the one wall-clock fabric, [`crate::fabric::Pool`], on
//! `available_parallelism` workers, behind an optional delay router: each
//! wave waits out its link's delay from a [`Topology`], scaled to real
//! time, before it lands in its receiver's inbox (the
//! Algorithm-Architecture Delay Mapping on a heterogeneous machine). With
//! no topology, or a zero scale, the delay is the wait in the pool's ready
//! queue alone. No barrier anywhere. A solve runs there through
//! [`DtmProblem::solve`](crate::DtmProblem::solve) on
//! [`Machine::Threads`], or through [`solve_prepared`] over prebuilt
//! nodes; its report is labelled [`BackendKind::Threaded`](crate::BackendKind::Threaded).

use crate::machine::{self, Machine};
use crate::report::SolveReport;
use crate::runtime::{CommonConfig, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::Result;
use std::time::Duration;
/// Delay-routed wall-clock configuration: the shared [`CommonConfig`]
/// plus the budget and the delay router's table.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Wall-clock budget.
    pub budget: Duration,
    /// Inject link delays from this topology, scaled by `delay_scale`
    /// (simulated nanoseconds × scale = real nanoseconds). `None` routes
    /// nothing: the wait in the pool's ready queue is the only delay.
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

/// DTM on [`Machine::Threads`] over **prebuilt node runtimes** — the
/// factor-once serving path. Callers build (and pay for) the per-part
/// factorizations once via
/// [`runtime::build_nodes`](crate::runtime::build_nodes)/[`runtime::build_nodes_parallel`](crate::runtime::build_nodes_parallel),
/// then hand a clone of the templates to each solve: `NodeRuntime` clones
/// share their factors, so repeated solves re-run only the wave exchange.
/// `reference` is the direct solution RMS monitoring uses; when `None` it
/// is computed where the termination mode needs one.
///
/// # Errors
/// A NaN tolerance, or an injected delay topology missing a wave route's
/// link.
pub fn solve_prepared(
    split: &SplitSystem,
    runtimes: Vec<NodeRuntime>,
    reference: Option<Vec<f64>>,
    config: &ThreadedConfig,
) -> Result<SolveReport> {
    machine::solve_dtm(
        split,
        Some(runtimes),
        reference.map(|r| vec![r]),
        None,
        &Machine::Threads(config.clone()),
    )
}

#[cfg(test)]
mod tests {
    //! [`Machine::Threads`]' cells of the shared property table
    //! (`machine::tests`), then what only this machine has: the delay
    //! router in front of the pool.
    use super::*;
    use crate::machine::tests::{self as table, grid_split};
    use crate::report::StopKind;
    use crate::runtime::{build_nodes, Termination};
    use crate::DtmProblem;
    use dtm_simnet::DelayModel;

    #[test]
    fn threaded_dtm_converges_natural_asynchrony() {
        table::converges(table::threads, 71);
    }

    #[test]
    fn threaded_local_delta_self_halts() {
        table::local_delta_self_halts(table::threads, 73);
    }

    #[test]
    fn threaded_solve_cap_is_not_convergence() {
        table::cap_is_not_convergence(table::threads, 74);
    }

    #[test]
    fn a_nan_in_b_is_never_converged() {
        table::nan_in_b_is_never_converged(table::threads);
    }

    #[test]
    fn paper_example_on_two_threads() {
        table::paper_example(table::threads);
    }

    fn solve(ss: SplitSystem, config: ThreadedConfig) -> Result<SolveReport> {
        DtmProblem::of_split(ss).solve(&Machine::Threads(config))
    }

    fn local_delta() -> CommonConfig {
        CommonConfig {
            termination: Termination::LocalDelta {
                tol: 1e-12,
                patience: 4,
            },
            ..ThreadedConfig::default().common
        }
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
        let report = solve(ss, config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
    }

    #[test]
    fn threaded_local_delta_with_long_real_delays_still_converges() {
        // Regression: waves spending ~10 ms in the router used to let the
        // idle kick feed the zero-delta self-halt streak, halting nodes
        // long before the run converged. The quiescence guard (queue idle
        // and nothing held by the router, read under one lock) must hold
        // the kick back until the waves have genuinely stopped. Through the
        // prebuilt-node form, which shares the one dispatch.
        let ss = grid_split(6, 2, 75);
        let topo = dtm_simnet::Topology::ring(2).with_delays(&DelayModel::fixed_ms(10.0));
        let config = ThreadedConfig {
            common: local_delta(),
            budget: Duration::from_secs(60),
            delay_topology: Some(topo),
            delay_scale: 1.0, // 10 ms simulated -> 10 ms real
        };
        let nodes = build_nodes(&ss, &config.common).unwrap();
        let report = solve_prepared(&ss, nodes, None, &config).unwrap();
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(report.converged);
        assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
    }

    #[test]
    fn malformed_delay_topology_is_a_typed_error_not_a_panic() {
        // Regression: a delay topology missing a route's link used to
        // panic inside a worker thread ("no link {src} → {dst}") and
        // surface as a join panic; it must be a typed error before any
        // worker starts.
        let ss = grid_split(6, 3, 76);
        // A 3-node topology with NO links at all: every route is missing.
        let topo = dtm_simnet::Topology::from_links(3, vec![]);
        let config = ThreadedConfig {
            delay_topology: Some(topo),
            budget: Duration::from_secs(5),
            ..Default::default()
        };
        let err = solve(ss.clone(), config);
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
        assert!(solve(ss, wrong).is_err());
    }
}
