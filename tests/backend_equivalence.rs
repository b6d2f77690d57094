//! Cross-backend equivalence: the paper's Algorithm-Architecture Delay
//! Mapping promises that **one algorithm** runs unchanged on any machine.
//! That is literally true in code — one `DtmProblem::solve` over a
//! `Machine` value drives the same `dtm_core::runtime::NodeRuntime` on the
//! simulated machine and on the worker pool, routed or not — and this suite pins it down
//! behaviourally: every backend must converge to the direct Cholesky
//! solution of the same torn system, with live message/solve counters.

mod common;

use common::example_5_1_split;
use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::report::BackendKind;
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{ComputeModel, DtmConfig};
use dtm_repro::core::{DtmProblem, ImpedancePolicy, Machine, SolveReport};
use dtm_repro::graph::evs::SplitSystem;
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use std::time::Duration;

/// A 2-D grid Laplacian torn into strips (this file's historical seed).
fn laplacian_split(side: usize, k: usize) -> SplitSystem {
    common::laplacian_split(side, k, 907)
}

fn common(impedance: ImpedancePolicy, tol: f64) -> CommonConfig {
    CommonConfig {
        impedance,
        termination: Termination::OracleRms { tol },
        ..Default::default()
    }
}

/// The three machines for a `k`-part problem under `common`: the
/// simulated complete graph with 1 ms links, the pool on every core
/// behind the delay router on those links (scaled to 1 µs), a two-worker
/// pool.
fn machines(k: usize, common: CommonConfig) -> [Machine; 3] {
    let links = Topology::complete(k).with_delays(&DelayModel::fixed_ms(1.0));
    [
        Machine::Simulated {
            topology: links.clone(),
            config: DtmConfig {
                common: common.clone(),
                compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
                horizon: SimDuration::from_millis_f64(3_600_000.0),
                ..Default::default()
            },
        },
        Machine::Pool(RayonConfig {
            common: common.clone(),
            budget: Duration::from_secs(60),
            delay_topology: Some(links),
            ..Default::default()
        }),
        Machine::Pool(RayonConfig {
            common,
            num_threads: 2,
            budget: Duration::from_secs(60),
            ..Default::default()
        }),
    ]
}

/// Run all three executors on `ss` and return their reports.
fn run_all_backends(ss: &SplitSystem, impedance: ImpedancePolicy, tol: f64) -> Vec<SolveReport> {
    let p = DtmProblem::of_split(ss.clone());
    machines(ss.n_parts(), common(impedance, tol))
        .iter()
        .map(|m| p.solve(m).expect("backend runs"))
        .collect()
}

fn assert_all_close(reports: &[SolveReport], exact: &[f64], tol: f64) {
    for report in reports {
        assert!(
            report.converged,
            "{:?} did not converge (rms {})",
            report.backend, report.final_rms
        );
        for (i, (u, v)) in report.solution.iter().zip(exact).enumerate() {
            assert!(
                (u - v).abs() < tol,
                "{:?}: x[{i}] = {u} vs direct {v}",
                report.backend
            );
        }
        assert!(
            report.total_solves > 0,
            "{:?}: zero solves reported",
            report.backend
        );
        assert!(
            report.total_messages > 0,
            "{:?}: zero messages reported",
            report.backend
        );
    }
    assert_eq!(reports[0].backend, BackendKind::Simulated);
    assert_eq!(reports[1].backend, BackendKind::WorkStealing);
    assert_eq!(reports[2].backend, BackendKind::WorkStealing);
}

#[test]
fn example_5_1_equivalent_across_backends() {
    let ss = example_5_1_split();
    let (a, b) = generators::paper_example_system();
    let exact = dtm_repro::sparse::DenseCholesky::factor_csr(&a)
        .expect("SPD")
        .solve(&b);
    let reports = run_all_backends(&ss, ImpedancePolicy::PerDtlp(vec![0.2, 0.1]), 1e-9);
    assert_all_close(&reports, &exact, 1e-6);
}

#[test]
fn grid_laplacian_equivalent_across_backends() {
    let side = 10;
    let ss = laplacian_split(side, 3);
    let (a, b) = ss.reconstruct().unwrap();
    let exact = dtm_repro::sparse::SparseCholesky::factor_rcm(&a)
        .expect("SPD")
        .solve(&b);
    let reports = run_all_backends(&ss, ImpedancePolicy::default(), 1e-8);
    assert_all_close(&reports, &exact, 1e-5);
    // The torn system must also satisfy the *original* equation.
    for report in &reports {
        assert!(
            a.residual_norm(&report.solution, &b) < 1e-4,
            "{:?}: residual {}",
            report.backend,
            a.residual_norm(&report.solution, &b)
        );
    }
}

#[test]
fn example_5_1_batched_k8_equivalent_across_backends() {
    // Block waves: 8 right-hand sides (the paper's own b plus 7 random
    // ones) solved simultaneously over one factorization per subdomain.
    // Every backend must deliver, per column, the direct solution of the
    // original matrix against that column.
    let ss = example_5_1_split();
    let (a, b) = generators::paper_example_system();
    let cols: Vec<Vec<f64>> = std::iter::once(b)
        .chain((0..7).map(|c| generators::random_rhs(4, 9_000 + c)))
        .collect();
    let direct = dtm_repro::sparse::DenseCholesky::factor_csr(&a).expect("SPD");
    let exact: Vec<Vec<f64>> = cols.iter().map(|c| direct.solve(c)).collect();
    let impedance = ImpedancePolicy::PerDtlp(vec![0.2, 0.1]);
    let tol = 1e-9;

    let p = DtmProblem::of_split(ss);
    let [sim, routed, pool] =
        machines(2, common(impedance, tol)).map(|m| p.solve_block(&cols, &m).expect("block run"));

    for report in [&sim, &routed, &pool] {
        assert!(
            report.converged,
            "{:?} did not converge (rms {})",
            report.backend, report.final_rms
        );
        assert_eq!(report.n_rhs, 8, "{:?}", report.backend);
        assert_eq!(report.solutions.len(), 8);
        assert_eq!(report.final_rms_per_rhs.len(), 8);
        assert_eq!(report.solution, report.solutions[0]);
        for (c, x) in report.solutions.iter().enumerate() {
            for (i, (u, v)) in x.iter().zip(&exact[c]).enumerate() {
                assert!(
                    (u - v).abs() < 1e-6,
                    "{:?} col {c} x[{i}]: {u} vs direct {v}",
                    report.backend
                );
            }
        }
    }
    assert_eq!(sim.backend, BackendKind::Simulated);
    assert_eq!(routed.backend, BackendKind::WorkStealing);
    assert_eq!(pool.backend, BackendKind::WorkStealing);
}

#[test]
fn local_delta_self_halt_equivalent_across_backends() {
    // The genuinely distributed stopping rule (Table 1 step 3.3) must end
    // every backend at the same fixed point, with every node self-halted.
    let ss = laplacian_split(8, 2);
    let (a, b) = ss.reconstruct().unwrap();
    let exact = dtm_repro::sparse::SparseCholesky::factor_rcm(&a)
        .expect("SPD")
        .solve(&b);
    let term = Termination::LocalDelta {
        tol: 1e-12,
        patience: 3,
    };
    let local_delta = CommonConfig {
        termination: term,
        ..Default::default()
    };
    let p = DtmProblem::of_split(ss);
    let [sim, routed, pool] = machines(2, local_delta).map(|m| p.solve(&m).expect("runs"));
    for report in [&sim, &routed, &pool] {
        assert!(
            report.converged,
            "{:?}: stop {:?}, rms {}",
            report.backend, report.stop, report.final_rms
        );
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-6, "{:?}: {u} vs {v}", report.backend);
        }
    }
}
