//! The Virtual Transmission Method (VTM) — DTM's synchronous special case,
//! which is DTM on [`Machine::LockStep`](crate::Machine::LockStep).
//!
//! "If we set τ₁ = τ₂ = … = τ_n = 1, then DTM is degenerated into a
//! discrete-time iterative algorithm, which is called Virtual Transmission
//! Method" (§1). The local system is eq. (5.10): identical to DTM's except
//! the remote boundary conditions advance in lock-step rounds `k`. There is
//! no VTM code: each node's `k`-th solve on the lock-step machine sees
//! exactly its neighbours' round-`(k−1)` waves. What is here is what
//! defines VTM: the round budget and the equal-delay equivalence, beside
//! lock-step rounds' cells of the properties every machine shares
//! (`machine::tests`).

#[cfg(test)]
mod tests {
    use crate::impedance::ImpedancePolicy;
    use crate::machine::tests::{self as table, grid_split, lockstep, lockstep_rows, paper_split};
    use crate::runtime::{CommonConfig, Termination};
    use crate::solver::{ComputeModel, DtmConfig};
    use crate::{DtmProblem, Machine, SolveReport};
    use dtm_graph::evs::SplitSystem;
    use dtm_simnet::{DelayModel, SimDuration, Topology};

    /// The paper's impedances, an RMS tolerance and a round budget.
    fn paper_common(tol: f64, max_rounds: usize) -> CommonConfig {
        CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::OracleRms { tol },
            max_solves_per_node: max_rounds,
        }
    }

    fn solve(split: &SplitSystem, machine: &Machine) -> SolveReport {
        DtmProblem::of_split(split.clone()).solve(machine).unwrap()
    }

    #[test]
    fn vtm_converges_on_paper_example() {
        table::paper_example(lockstep_rows);
    }

    #[test]
    fn vtm_on_grid_with_uniform_policy() {
        table::converges(lockstep_rows);
    }

    #[test]
    fn vtm_local_delta_self_halts() {
        table::local_delta_self_halts(lockstep_rows);
    }

    #[test]
    fn vtm_nan_in_b_is_never_converged() {
        table::nan_in_b_is_never_converged(lockstep_rows);
    }

    /// A 5-round budget under a delta rule that can never fire is five
    /// scored rounds of three solves each, and no convergence.
    #[test]
    fn round_budget_respected() {
        let common = CommonConfig {
            termination: Termination::LocalDelta {
                tol: 0.0,
                patience: 2,
            },
            max_solves_per_node: 5,
            ..Default::default()
        };
        let report = solve(&grid_split(8, 3, 77), &lockstep(common));
        assert!(!report.converged);
        assert_eq!(report.series.len(), 5);
        assert_eq!(report.final_time_ms, 5.0);
        assert_eq!(report.total_solves, 15);
    }

    #[test]
    fn series_is_monotone_decreasing_late() {
        let report = solve(&paper_split(), &lockstep(paper_common(1e-12, 200)));
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
        let vtm_report = solve(&ss, &lockstep(common.clone()));
        assert_eq!(vtm_report.series.len(), rounds);

        // DTM with both delays = 1 ms, compute 0: the k-th exchanged solve
        // happens at t = k ms; stop mid-way through round `rounds`.
        let dtm = Machine::Simulated {
            topology: Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0)),
            config: DtmConfig {
                common: CommonConfig {
                    max_solves_per_node: 200_000,
                    ..common
                },
                compute: ComputeModel::Zero,
                horizon: SimDuration::from_micros_f64((rounds as f64 - 0.5) * 1000.0),
                ..Default::default()
            },
        };
        let dtm_report = solve(&ss, &dtm);

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
        let ss = grid_split(10, 4, 33);
        let common = CommonConfig {
            termination: Termination::OracleRms { tol: 1e-9 },
            ..Default::default()
        };
        let vtm_report = solve(&ss, &lockstep(common.clone()));
        assert!(vtm_report.converged);
        let rounds = vtm_report.series.len() as u64;
        assert_eq!(vtm_report.final_time_ms, rounds as f64, "one round = 1 ms");

        let dtm = Machine::Simulated {
            topology: Topology::complete(4).with_delays(&DelayModel::fixed_ms(7.0)),
            config: DtmConfig {
                common,
                compute: ComputeModel::Fixed(SimDuration::from_millis_f64(2.0)),
                horizon: SimDuration::from_millis_f64(3_600_000.0),
                ..Default::default()
            },
        };
        let dtm_report = solve(&ss, &dtm);
        for (u, v) in dtm_report.solution.iter().zip(&vtm_report.solution) {
            assert!((u - v).abs() <= 1e-12, "{u} vs {v}");
        }
        assert!(rounds * 4 >= dtm_report.total_solves);
        assert!((rounds - 1) * 4 < dtm_report.total_solves, "no idle round");
    }
}
