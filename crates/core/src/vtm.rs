//! The Virtual Transmission Method (VTM) — DTM's synchronous special case.
//!
//! "If we set τ₁ = τ₂ = … = τ_n = 1, then DTM is degenerated into a
//! discrete-time iterative algorithm, which is called Virtual Transmission
//! Method" (§1). The local system is eq. (5.10): identical to DTM's except
//! the remote boundary conditions advance in lock-step rounds `k`.
//!
//! VTM converges in fewer *exchanges* than DTM under heterogeneous delays
//! (conclusion §8: "the convergence speed of DTM is slower" than VTM), but
//! each synchronous round costs the *maximum* link delay plus a barrier,
//! which is precisely what DTM avoids — the trade-off the `cmp-vtm`
//! experiment quantifies.

use crate::impedance::{per_port, ImpedancePolicy};
use crate::local::{LocalSolverKind, LocalSystem};
use dtm_graph::evs::SplitSystem;
use dtm_sparse::{Result, SparseCholesky};
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
    /// Synchronous rounds performed.
    pub rounds: usize,
    /// Final RMS error.
    pub final_rms: f64,
    /// RMS error after each round.
    pub series: Vec<f64>,
}

/// Run VTM: synchronous rounds of local solves + boundary exchanges.
///
/// # Errors
/// Propagates impedance assignment and factorization failures.
pub fn solve(
    split: &SplitSystem,
    reference: Option<Vec<f64>>,
    config: &VtmConfig,
) -> Result<VtmReport> {
    let reference = match reference {
        Some(r) => r,
        None => {
            let (a, b) = split.reconstruct();
            SparseCholesky::factor_fill_reducing(&a)?.solve(&b)
        }
    };
    let z_dtlp = config.impedance.assign(split)?;
    let z_ports = per_port(split, &z_dtlp);
    let mut locals: Vec<LocalSystem> = split
        .subdomains
        .iter()
        .enumerate()
        .map(|(p, sd)| LocalSystem::new(sd, &z_ports[p], config.solver_kind))
        .collect::<Result<_>>()?;

    let mut series = Vec::new();
    let mut rounds = 0;
    let mut rms = f64::INFINITY;
    // Outgoing boundary conditions, buffered so every round-k solve sees
    // only round-(k−1) data.
    let mut outbox: Vec<Vec<(f64, f64)>> = split
        .subdomains
        .iter()
        .map(|sd| vec![(0.0, 0.0); sd.n_ports()])
        .collect();

    while rounds < config.max_rounds {
        for local in locals.iter_mut() {
            local.solve();
        }
        for (p, local) in locals.iter().enumerate() {
            for (q, slot) in outbox[p].iter_mut().enumerate() {
                *slot = local.outgoing(q);
            }
        }
        for (p, sd) in split.subdomains.iter().enumerate() {
            for (q, port) in sd.ports.iter().enumerate() {
                let (u, omega) = outbox[port.peer.part][port.peer.port];
                locals[p].set_remote(q, u, omega);
            }
        }
        rounds += 1;
        let gathered = gather(split, &locals);
        rms = dtm_sparse::vector::rms_error(&gathered, &reference);
        series.push(rms);
        if rms <= config.tol {
            break;
        }
    }

    let solution = gather(split, &locals);
    Ok(VtmReport {
        converged: rms <= config.tol,
        rounds,
        final_rms: rms,
        series,
        solution,
    })
}

fn gather(split: &SplitSystem, locals: &[LocalSystem]) -> Vec<f64> {
    let xs: Vec<Vec<f64>> = locals.iter().map(|l| l.solution().to_vec()).collect();
    split.gather(&xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::CommonConfig;
    use crate::solver::{self, ComputeModel, DtmConfig, Termination};

    fn dtm_core_common(impedance: ImpedancePolicy) -> CommonConfig {
        CommonConfig {
            impedance,
            termination: Termination::OracleRms { tol: 0.0 },
            ..Default::default()
        }
    }
    use dtm_graph::evs::{paper_example_shares, split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_simnet::{DelayModel, SimDuration, Topology};
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
