//! The Virtual Transmission Method (VTM) — DTM's synchronous special case.
//!
//! "If we set τ₁ = τ₂ = … = τ_n = 1, then DTM is degenerated into a
//! discrete-time iterative algorithm, which is called Virtual Transmission
//! Method" (§1). The local system is eq. (5.10): identical to DTM's except
//! the remote boundary conditions advance in lock-step rounds `k`. The code
//! says the same thing: [`solve`] runs DTM's own
//! [`NodeRuntime`](crate::runtime::NodeRuntime)s on the simulated driver's
//! lock-step machine ([`crate::solver`]), whose every link takes one round.
//!
//! VTM converges in fewer *exchanges* than DTM under heterogeneous delays
//! (conclusion §8: "the convergence speed of DTM is slower" than VTM), but
//! each synchronous round costs the *maximum* link delay plus a barrier,
//! which is precisely what DTM avoids — the trade-off the `cmp-vtm`
//! experiment quantifies.

use crate::report::{AlgorithmKind, SolveReport};
use crate::runtime::{self, CommonConfig, GatherMap, RunSpec};
use crate::solver;
use dtm_graph::evs::SplitSystem;
use dtm_simnet::SimDuration;
use dtm_sparse::Result;

/// The simulated length of one VTM round: the report's `final_time_ms` is
/// the round count, and its series has one point per round at `k` ms.
const ROUND: SimDuration = SimDuration::from_nanos(1_000_000);

/// Run VTM under `common`: DTM's own nodes in lock-step rounds, the solve
/// cap (`max_solves_per_node`) the round budget. Each node's `k`-th solve
/// sees exactly its neighbours' round-`(k−1)` waves — eq. (5.10).
///
/// `reference` is the direct solution used for RMS monitoring; when `None`
/// it is computed where the termination mode needs one.
///
/// # Errors
/// Propagates impedance assignment and factorization failures.
pub fn solve(
    split: &SplitSystem,
    reference: Option<Vec<f64>>,
    common: &CommonConfig,
) -> Result<SolveReport> {
    let nodes = runtime::build_nodes(split, common)?;
    let (a, own_b) = split.reconstruct();
    let map = GatherMap::of_split(split, &a, &own_b, None);
    let references =
        runtime::resolve_references(&map, common.termination, reference.map(|r| vec![r]))?;
    Ok(solver::run_lockstep(
        nodes,
        ROUND,
        common.max_solves_per_node,
        RunSpec {
            algorithm: AlgorithmKind::Dtm,
            termination: common.termination,
            map,
            references: references.as_deref(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impedance::ImpedancePolicy;
    use crate::runtime::Termination;
    use crate::solver::{ComputeModel, DtmConfig};
    use dtm_graph::evs::{paper_example_shares, split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_simnet::{DelayModel, Topology};
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

    /// The paper's impedances, an RMS tolerance and a round budget.
    fn paper_common(tol: f64, max_rounds: usize) -> CommonConfig {
        CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::OracleRms { tol },
            max_solves_per_node: max_rounds,
        }
    }

    #[test]
    fn vtm_converges_on_paper_example() {
        let ss = paper_split();
        let report = solve(&ss, None, &paper_common(1e-10, 100_000)).unwrap();
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
        let report = solve(&ss, None, &paper_common(1e-12, 200)).unwrap();
        let tail = &report.series[report.series.len().saturating_sub(10)..];
        for w in tail.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.01, "{:?} then {:?}", w[0], w[1]);
        }
    }

    /// The defining equivalence: DTM on a network with *equal* delays and
    /// zero compute time reproduces VTM's round-k state exactly.
    #[test]
    fn dtm_with_equal_delays_equals_vtm() {
        let ss = paper_split();
        let rounds = 12;
        // Tolerance 0: run exactly `rounds` rounds.
        let common = paper_common(0.0, rounds);
        let vtm_report = solve(&ss, None, &common).unwrap();
        assert_eq!(vtm_report.series.len(), rounds);

        // DTM with both delays = 1 ms, compute 0: the k-th exchanged solve
        // happens at t = k ms; stop mid-way through round `rounds`.
        let topo = Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = DtmConfig {
            common: CommonConfig {
                max_solves_per_node: 200_000,
                ..common
            },
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
        let common = CommonConfig {
            termination: Termination::OracleRms { tol: 1e-9 },
            ..Default::default()
        };
        let vtm_report = solve(&ss, None, &common).unwrap();
        assert!(vtm_report.converged);
        let rounds = vtm_report.series.len() as u64;
        assert_eq!(vtm_report.final_time_ms, rounds as f64, "one round = 1 ms");

        let topo = Topology::complete(4).with_delays(&DelayModel::fixed_ms(7.0));
        let config = DtmConfig {
            common,
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(2.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        };
        let dtm_report = solver::solve(&ss, topo, None, &config).unwrap();
        for (u, v) in dtm_report.solution.iter().zip(&vtm_report.solution) {
            assert!((u - v).abs() <= 1e-12, "{u} vs {v}");
        }
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
        let report = solve(&ss, None, &CommonConfig::default()).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
    }

    #[test]
    fn round_budget_respected() {
        let ss = paper_split();
        let report = solve(&ss, None, &paper_common(1e-300, 7)).unwrap();
        assert!(!report.converged);
        assert_eq!(report.series.len(), 7);
        assert_eq!(report.final_time_ms, 7.0);
        assert_eq!(report.total_solves, 14);
    }
}
