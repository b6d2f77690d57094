//! Degraded-operation behaviour: processors that stop early, overly loose
//! local tolerances, tiny horizons, and extreme delay skew. DTM should
//! degrade *gracefully* — bounded error, honest reports — never hang or
//! panic.

mod common;

use common::random_grid_split as grid_split;
use dtm_repro::core::impedance::ImpedancePolicy;
use dtm_repro::core::report::StopKind;
use dtm_repro::core::runtime::CommonConfig;
use dtm_repro::core::solver::{self, ComputeModel, DtmConfig, Termination};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;

#[test]
fn premature_halt_via_solve_cap_reports_horizon_not_hang() {
    // Nodes stop after 5 solves each: the run must terminate (quiescent —
    // no messages left) with an honest non-converged report.
    let ss = grid_split(10, 3, 501);
    let topo = Topology::ring(3).with_delays(&DelayModel::uniform_ms(5.0, 40.0, 2));
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-12 },
            max_solves_per_node: 5,
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, None, &config).expect("runs");
    assert!(!report.converged);
    assert!(
        matches!(report.stop, StopKind::Quiescent | StopKind::AllHalted),
        "graceful stop expected, got {:?}",
        report.stop
    );
    assert!(report.total_solves <= 3 * 5);
    // Error is bounded by the initial error (it only ever decreases here).
    let first = report.series.first().expect("series recorded").1;
    assert!(report.final_rms <= first);
}

#[test]
fn loose_local_tolerance_gives_commensurately_loose_answer() {
    let ss = grid_split(10, 3, 502);
    let run = |tol: f64| {
        let topo = Topology::ring(3).with_delays(&DelayModel::uniform_ms(5.0, 40.0, 3));
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::LocalDelta { tol, patience: 3 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        };
        solver::solve(&ss, topo, None, &config).expect("runs")
    };
    let loose = run(1e-3);
    let tight = run(1e-10);
    assert!(loose.total_solves < tight.total_solves);
    assert!(loose.final_rms > tight.final_rms);
    assert!(tight.final_rms < 1e-6, "tight rms {}", tight.final_rms);
    assert!(loose.final_rms < 1e-1, "loose rms {}", loose.final_rms);
}

#[test]
fn tiny_horizon_stops_on_time_limit() {
    let ss = grid_split(8, 2, 503);
    let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(10.0));
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-12 },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        horizon: SimDuration::from_millis_f64(25.0), // ~2 exchanges
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, None, &config).expect("runs");
    assert_eq!(report.stop, StopKind::Horizon);
    assert!(report.final_time_ms <= 25.0 + 1e-9);
    assert!(!report.converged);
}

#[test]
fn extreme_delay_skew_still_converges() {
    // One direction 1 ms, the other 500 ms: 500× asymmetry (far beyond the
    // paper's 9×). Theorem 6.1 promises convergence for arbitrary delays.
    let ss = grid_split(8, 2, 504);
    let topo = Topology::from_links(
        2,
        vec![
            dtm_repro::simnet::Link {
                src: 0,
                dst: 1,
                delay: SimDuration::from_millis_f64(1.0),
            },
            dtm_repro::simnet::Link {
                src: 1,
                dst: 0,
                delay: SimDuration::from_millis_f64(500.0),
            },
        ],
    );
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-8 },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(0.5)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, None, &config).expect("runs");
    assert!(report.converged, "rms {}", report.final_rms);
}

#[test]
fn wildly_bad_impedances_still_converge_just_slowly() {
    // Theorem 6.1: any positive impedance converges. 10⁻³ and 10³ scales
    // must both get there (eventually) on a small system.
    let ss = grid_split(6, 2, 505);
    for z in [1e-3, 1e3] {
        let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(5.0));
        let config = DtmConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::Fixed(z),
                termination: Termination::OracleRms { tol: 1e-6 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(0.5)),
            horizon: SimDuration::from_millis_f64(36_000_000.0),
            sample_interval: SimDuration::from_millis_f64(1_000.0),
        };
        let report = solver::solve(&ss, topo, None, &config).expect("runs");
        assert!(report.converged, "z = {z}: rms {}", report.final_rms);
    }
}

#[test]
fn batched_run_degrades_gracefully_under_solve_cap() {
    // Degraded mode with a block of 4 right-hand sides: processors stop
    // after 5 solves each, long before any column converges. The batched
    // run must terminate honestly — per-column solutions and error levels
    // reported, no convergence claimed for any column, no hang.
    let ss = grid_split(10, 3, 507);
    let n = 100;
    let cols: Vec<Vec<f64>> = (0..4).map(|c| generators::random_rhs(n, 600 + c)).collect();
    let topo = Topology::ring(3).with_delays(&DelayModel::uniform_ms(5.0, 40.0, 5));
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-12 },
            max_solves_per_node: 5,
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let report = solver::solve_block(&ss, topo, &cols, None, &config).expect("runs");
    assert!(!report.converged, "capped batch must not claim convergence");
    assert!(
        matches!(report.stop, StopKind::Quiescent | StopKind::AllHalted),
        "graceful stop expected, got {:?}",
        report.stop
    );
    assert_eq!(report.n_rhs, 4);
    assert_eq!(report.solutions.len(), 4);
    assert_eq!(report.final_rms_per_rhs.len(), 4);
    assert!(report.total_solves <= 3 * 5);
    // Honest per-column reporting: the worst column is the reported rms,
    // and every column made *some* progress over the zero guess.
    let worst = report
        .final_rms_per_rhs
        .iter()
        .fold(0.0_f64, |m, &v| m.max(v));
    assert!((worst - report.final_rms).abs() <= 1e-15 * worst.max(1.0));
    let (a, _) = ss.reconstruct();
    let f = dtm_repro::sparse::SparseCholesky::factor_rcm(&a).expect("SPD");
    for (c, (x, b)) in report.solutions.iter().zip(&cols).enumerate() {
        let exact = f.solve(b);
        let zero_err = dtm_repro::sparse::vector::rms_error(&vec![0.0; n], &exact);
        assert!(
            report.final_rms_per_rhs[c] < zero_err,
            "column {c} should improve on the zero guess"
        );
        assert_eq!(x.len(), n);
    }
}

#[test]
fn solve_cap_under_local_delta_is_not_reported_as_convergence() {
    // Nodes that hit the max_solves safety cap never declared Table 1
    // step 3.3 convergence: the run must report converged = false even
    // though every node (eventually) halted.
    let ss = grid_split(10, 3, 506);
    let topo = Topology::ring(3).with_delays(&DelayModel::uniform_ms(5.0, 40.0, 4));
    let config = DtmConfig {
        common: CommonConfig {
            // tol 0.0: the delta rule can never fire; only the cap halts.
            termination: Termination::LocalDelta {
                tol: 0.0,
                patience: 2,
            },
            max_solves_per_node: 5,
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, None, &config).expect("runs");
    assert!(
        !report.converged,
        "capped-out run must not claim convergence (rms {})",
        report.final_rms
    );
    assert!(report.total_solves <= 3 * 5);
}
