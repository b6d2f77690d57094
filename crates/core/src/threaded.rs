//! DTM on the wall clock with injected link delays: the names the
//! pool behind the delay router went by when it was a machine of its own.
//!
//! There is one wall-clock in-process machine, [`Machine::Pool`]; a
//! [`delay_topology`](RayonConfig::delay_topology) in its configuration
//! puts the delay router in front of its ready queue, so each wave waits
//! out its link's delay, scaled to real time, before it lands (the
//! Algorithm-Architecture Delay Mapping on a heterogeneous machine). A
//! delay table is a property of a machine's links, not a second machine.
//! [`ThreadedConfig`] and [`solve_prepared`] stay as names of the pool's
//! configuration and of its form over prebuilt nodes; its reports are
//! labelled [`BackendKind::WorkStealing`](crate::BackendKind::WorkStealing).
//!
//! [`Machine::Pool`]: crate::Machine::Pool

use crate::rayon_backend::RayonConfig;

pub use crate::rayon_backend::solve_prepared;

/// The pool's configuration under its older name.
pub type ThreadedConfig = RayonConfig;

#[cfg(test)]
mod tests {
    //! The routed pool's cells of the shared property table
    //! (`machine::tests`), and what only the delay router has, through the
    //! names above.
    use super::*;
    use crate::machine::tests::{self as table, grid_split, routed_rows};
    use crate::report::{SolveReport, StopKind};
    use crate::runtime::{build_nodes, CommonConfig, Termination};
    use crate::{rayon_backend, DtmProblem, Machine};
    use dtm_graph::evs::SplitSystem;
    use dtm_simnet::DelayModel;
    use dtm_sparse::Result;
    use std::time::Duration;

    fn solve(ss: SplitSystem, config: ThreadedConfig) -> Result<SolveReport> {
        DtmProblem::of_split(ss).solve(&Machine::Pool(config))
    }

    /// Both frozen names over clones of one set of templates, each config
    /// built the way a caller outside the crate builds it: same machine,
    /// same label, and no delay router.
    #[test]
    fn frozen_names_run_the_bare_pool() {
        let ss = grid_split(10, 4, 79);
        let common = CommonConfig {
            termination: Termination::Residual { tol: 1e-6 },
            ..ThreadedConfig::default().common
        };
        let budget = Duration::from_secs(60);
        let threaded = ThreadedConfig {
            common: common.clone(),
            budget,
            ..ThreadedConfig::default()
        };
        let pool = RayonConfig {
            common,
            num_threads: 2,
            budget,
            ..RayonConfig::default()
        };
        let templates = build_nodes(&ss, &threaded.common).unwrap();
        let reports = [
            solve_prepared(&ss, templates.clone(), None, &threaded).unwrap(),
            rayon_backend::solve_prepared(&ss, templates, None, &pool).unwrap(),
        ];
        for report in &reports {
            assert!(report.converged, "residual {}", report.final_residual);
            assert!(report.final_residual <= 1e-6);
        }
        assert_eq!(reports[0].backend, reports[1].backend);
        for config in [threaded, pool] {
            assert!(Machine::Pool(config).links().is_none(), "no router");
        }
    }

    #[test]
    fn threaded_dtm_converges_natural_asynchrony() {
        table::converges(routed_rows);
    }

    #[test]
    fn threaded_local_delta_self_halts() {
        table::local_delta_self_halts(routed_rows);
    }

    #[test]
    fn threaded_solve_cap_is_not_convergence() {
        table::cap_is_not_convergence(routed_rows);
    }

    #[test]
    fn a_nan_in_b_is_never_converged() {
        table::nan_in_b_is_never_converged(routed_rows);
    }

    #[test]
    fn paper_example_on_two_threads() {
        table::paper_example(routed_rows);
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
            ..Default::default()
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
            ..Default::default()
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
