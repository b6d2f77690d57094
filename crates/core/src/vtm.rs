//! The Virtual Transmission Method (VTM) — DTM's synchronous special case:
//! configuration and a thin entry point.
//!
//! "If we set τ₁ = τ₂ = … = τ_n = 1, then DTM is degenerated into a
//! discrete-time iterative algorithm, which is called Virtual Transmission
//! Method" (§1). The local system is eq. (5.10): identical to DTM's except
//! the remote boundary conditions advance in lock-step rounds `k`. The code
//! says the same thing: [`solve`] runs DTM's own
//! [`NodeRuntime`](crate::runtime::NodeRuntime)s on the simulated driver
//! ([`crate::solver`]) over a machine whose every link has the same delay,
//! and reads the [`VtmReport`] off the [`SolveReport`](crate::SolveReport).
//!
//! VTM converges in fewer *exchanges* than DTM under heterogeneous delays
//! (conclusion §8: "the convergence speed of DTM is slower" than VTM), but
//! each synchronous round costs the *maximum* link delay plus a barrier,
//! which is precisely what DTM avoids — the trade-off the `cmp-vtm`
//! experiment quantifies.

use crate::impedance::ImpedancePolicy;
use crate::local::LocalSolverKind;
use crate::runtime::{CommonConfig, Termination};
use crate::solver::{self, ComputeModel, DtmConfig};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{DelayModel, SimDuration, Topology};
use dtm_sparse::Result;
use serde::Serialize;

/// VTM configuration.
#[derive(Debug, Clone)]
pub struct VtmConfig {
    /// Impedance policy (shared with DTM).
    pub impedance: ImpedancePolicy,
    /// Local factorization backend.
    pub solver_kind: LocalSolverKind,
    /// RMS tolerance against the direct reference.
    pub tol: f64,
    /// Round budget.
    pub max_rounds: usize,
}

impl Default for VtmConfig {
    fn default() -> Self {
        Self {
            impedance: ImpedancePolicy::default(),
            solver_kind: LocalSolverKind::Auto,
            tol: 1e-8,
            max_rounds: 100_000,
        }
    }
}

/// VTM outcome.
#[derive(Debug, Clone, Serialize)]
pub struct VtmReport {
    /// Gathered global solution.
    pub solution: Vec<f64>,
    /// Tolerance met within the round budget?
    pub converged: bool,
    /// Synchronous rounds performed (the last one may have been cut short
    /// by the tolerance).
    pub rounds: usize,
    /// Final RMS error.
    pub final_rms: f64,
    /// RMS error after each round.
    pub series: Vec<f64>,
}

/// Run VTM: DTM's own nodes on the simulated machine whose every link has
/// the same delay. All same-instant deliveries commit before any
/// activation fires, so each node's `k`-th solve sees exactly its
/// neighbours' round-`(k−1)` waves — eq. (5.10)'s lock-step rounds — and
/// the solve cap is the round budget.
///
/// # Errors
/// Propagates impedance assignment and factorization failures.
pub fn solve(
    split: &SplitSystem,
    reference: Option<Vec<f64>>,
    config: &VtmConfig,
) -> Result<VtmReport> {
    // The common link delay: one round of simulated time, whatever its unit.
    const ROUND_MS: f64 = 1.0;
    let topology = Topology::complete(split.n_parts()).with_delays(&DelayModel::fixed_ms(ROUND_MS));
    let dtm = DtmConfig {
        common: CommonConfig {
            impedance: config.impedance.clone(),
            solver_kind: config.solver_kind,
            termination: Termination::OracleRms { tol: config.tol },
            max_solves_per_node: config.max_rounds,
        },
        compute: ComputeModel::Zero,
        horizon: SimDuration::from_millis_f64(ROUND_MS * (config.max_rounds as f64 + 1.0)),
        ..Default::default()
    };
    let report = solver::solve(split, topology, reference, &dtm)?;
    // One series point per activation, every activation of a round at the
    // same instant: a round's error is the last point of its instant.
    let mut series: Vec<f64> = Vec::new();
    let mut instant = f64::NAN;
    for &(t, rms) in &report.series {
        match series.last_mut() {
            Some(last) if t == instant => *last = rms,
            _ => series.push(rms),
        }
        instant = t;
    }
    Ok(VtmReport {
        converged: report.converged,
        rounds: report.total_solves.div_ceil(split.n_parts().max(1) as u64) as usize,
        final_rms: report.final_rms,
        series,
        solution: report.solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtm_core_common(impedance: ImpedancePolicy) -> CommonConfig {
        CommonConfig {
            impedance,
            termination: Termination::OracleRms { tol: 0.0 },
            ..Default::default()
        }
    }
    use dtm_graph::evs::{paper_example_shares, split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    fn paper_split() -> SplitSystem {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: paper_example_shares(),
            ..Default::default()
        };
        evs_split(&g, &plan, &options).unwrap()
    }

    #[test]
    fn vtm_converges_on_paper_example() {
        let ss = paper_split();
        let config = VtmConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            tol: 1e-10,
            ..Default::default()
        };
        let report = solve(&ss, None, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        let (a, b) = generators::paper_example_system();
        let exact = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn series_is_monotone_decreasing_late() {
        let ss = paper_split();
        let config = VtmConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            tol: 1e-12,
            max_rounds: 200,
            ..Default::default()
        };
        let report = solve(&ss, None, &config).unwrap();
        let tail = &report.series[report.series.len().saturating_sub(10)..];
        for w in tail.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "{} then {}", w[0], w[1]);
        }
    }

    /// The defining equivalence: DTM on a network with *equal* delays and
    /// zero compute time reproduces VTM's round-k state exactly.
    #[test]
    fn dtm_with_equal_delays_equals_vtm() {
        let ss = paper_split();
        let impedance = ImpedancePolicy::PerDtlp(vec![0.2, 0.1]);
        let rounds = 12;

        let vtm_report = solve(
            &ss,
            None,
            &VtmConfig {
                impedance: impedance.clone(),
                tol: 0.0, // run exactly max_rounds
                max_rounds: rounds,
                ..Default::default()
            },
        )
        .unwrap();

        // DTM with both delays = 1 ms, compute 0: the k-th exchanged solve
        // happens at t = k ms; stop mid-way through round `rounds`.
        let topo = Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = DtmConfig {
            common: dtm_core_common(impedance),
            compute: ComputeModel::Zero,
            horizon: SimDuration::from_micros_f64((rounds as f64 - 0.5) * 1000.0),
            ..Default::default()
        };
        let dtm_report = solver::solve(&ss, topo, None, &config).unwrap();

        assert!(
            (dtm_report.final_rms - vtm_report.final_rms).abs()
                <= 1e-12 * vtm_report.final_rms.max(1e-30),
            "DTM(equal delays) {} vs VTM {}",
            dtm_report.final_rms,
            vtm_report.final_rms
        );
        for (u, v) in dtm_report.solution.iter().zip(&vtm_report.solution) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    /// VTM is DTM on *any* equal-delay machine: a different common delay
    /// and a nonzero compute time stretch the clock, not the rounds.
    #[test]
    fn vtm_equals_dtm_on_any_equal_delay_machine() {
        let a = generators::grid2d_random(10, 10, 1.0, 33);
        let b = generators::random_rhs(100, 34);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(10, 10, 4);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let tol = 1e-9;
        let vtm_report = solve(
            &ss,
            None,
            &VtmConfig {
                tol,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(vtm_report.converged);
        assert_eq!(vtm_report.series.len(), vtm_report.rounds);

        let topo = Topology::complete(4).with_delays(&DelayModel::fixed_ms(7.0));
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(2.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        };
        let dtm_report = solver::solve(&ss, topo, None, &config).unwrap();
        for (u, v) in dtm_report.solution.iter().zip(&vtm_report.solution) {
            assert!((u - v).abs() <= 1e-12, "{u} vs {v}");
        }
        let rounds = vtm_report.rounds as u64;
        assert!(rounds * 4 >= dtm_report.total_solves);
        assert!((rounds - 1) * 4 < dtm_report.total_solves, "no idle round");
    }

    #[test]
    fn vtm_on_grid_with_uniform_policy() {
        let a = generators::grid2d_random(10, 10, 1.0, 31);
        let b = generators::random_rhs(100, 32);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = dtm_graph::partition::grid_strips(10, 10, 4);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let report = solve(&ss, None, &VtmConfig::default()).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
    }

    #[test]
    fn round_budget_respected() {
        let ss = paper_split();
        let config = VtmConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            tol: 1e-300,
            max_rounds: 7,
            ..Default::default()
        };
        let report = solve(&ss, None, &config).unwrap();
        assert!(!report.converged);
        assert_eq!(report.rounds, 7);
        assert_eq!(report.series.len(), 7);
    }
}
