//! Reference-free residual termination, end to end.
//!
//! `Termination::Residual` is the production stopping rule: no direct
//! solve of the original system is ever performed — the monitor tracks the
//! relative true residual `‖b − A·x‖₂ / ‖b‖₂` incrementally. This suite
//! pins down:
//!
//! * the incremental tracker agrees with an exact recomputation to ~1e-12
//!   across random update orders and values (proptest);
//! * all three executors solve Example 5.1 and the grid Laplacian under
//!   `Termination::Residual` with **no reference** (the report's RMS
//!   fields are `NaN`/empty — structural evidence no oracle ran), stopping
//!   within the configured residual tolerance — verified against a direct
//!   solve computed *in the test only*;
//! * a residual-terminated run and an oracle-RMS run stop at solutions
//!   agreeing to the configured tolerance.

mod common;

use common::{direct_solution, example_5_1_split};
use dtm_repro::core::monitor::Monitor;
use dtm_repro::core::rayon_backend::{self, RayonConfig};
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{self, ComputeModel, DtmConfig};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::core::{DtmBuilder, ImpedancePolicy, SolveReport};
use dtm_repro::graph::evs::SplitSystem;
use dtm_repro::simnet::{DelayModel, SimDuration, SimTime, Topology};
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

fn laplacian_split(side: usize, n_parts: usize) -> SplitSystem {
    common::laplacian_split(side, n_parts, 1_907)
}

/// A reference-free report must carry no oracle numbers: that is the
/// structural evidence `reference_solutions` never ran.
fn assert_reference_free(report: &SolveReport) {
    assert!(
        report.final_rms.is_nan(),
        "reference-free run must not report an oracle RMS (got {})",
        report.final_rms
    );
    assert!(report.final_rms_per_rhs.is_empty());
    assert!(report.final_residual.is_finite());
    assert_eq!(report.final_residual_per_rhs.len(), report.n_rhs);
}

#[test]
fn simulated_backend_residual_solves_example_5_1_without_oracle() {
    let ss = example_5_1_split();
    let topo = Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
    let tol = 1e-9;
    let config = DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::Residual { tol },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(10.0)),
        horizon: SimDuration::from_millis_f64(10_000.0),
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, None, &config).expect("residual run");
    assert!(report.converged, "resid {}", report.final_residual);
    assert!(report.final_residual <= tol);
    assert_reference_free(&report);
    // Verified against a direct solve in the test only.
    let (exact, _) = direct_solution(&ss);
    for (u, v) in report.solution.iter().zip(&exact) {
        assert!((u - v).abs() < 1e-7, "{u} vs {v}");
    }
}

#[test]
fn threaded_backend_residual_solves_grid_without_oracle() {
    let ss = laplacian_split(8, 3);
    let tol = 1e-7;
    let config = ThreadedConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol },
            ..ThreadedConfig::default().common
        },
        budget: Duration::from_secs(60),
        ..Default::default()
    };
    let report = threaded::solve(&ss, &config).expect("threaded residual run");
    assert!(report.converged, "resid {}", report.final_residual);
    assert_reference_free(&report);
    let (a, b) = ss.reconstruct();
    assert!(a.residual_norm(&report.solution, &b) < tol * 10.0 * b.len() as f64);
}

#[test]
fn workstealing_backend_residual_solves_grid_without_oracle() {
    let ss = laplacian_split(8, 3);
    let tol = 1e-7;
    let config = RayonConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol },
            ..RayonConfig::default().common
        },
        num_threads: 2,
        budget: Duration::from_secs(60),
    };
    let report = rayon_backend::solve(&ss, &config).expect("rayon residual run");
    assert!(report.converged, "resid {}", report.final_residual);
    assert_reference_free(&report);
}

#[test]
fn zero_rhs_column_falls_back_to_absolute_residual() {
    // Regression: an all-zero right-hand side has ‖b‖ = 0, so a naive
    // relative residual is NaN — a never- (or instantly-) terminating
    // column. The monitor must fall back to the ABSOLUTE residual (scale
    // saturates to 1): the zero column is solved exactly by x = 0 from
    // the start, never poisons the block metric with NaN, and the run
    // stops when the *other* column meets the tolerance.
    let ss = laplacian_split(6, 2);
    let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
    let tol = 1e-8;
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let zero = vec![0.0; 36];
    let b1 = generators::random_rhs(36, 991);
    let report = solver::solve_block(
        &ss,
        topo.clone(),
        &[zero.clone(), b1.clone()],
        None,
        &config,
    )
    .expect("block run with a zero column");
    assert!(report.converged, "resid {}", report.final_residual);
    assert_reference_free(&report);
    assert!(
        report.final_residual_per_rhs[0].is_finite(),
        "zero column must never be NaN, got {}",
        report.final_residual_per_rhs[0]
    );
    assert!(report.final_residual_per_rhs[0] <= tol);
    assert!(report.final_residual_per_rhs[1] <= tol);
    for v in &report.solutions[0] {
        assert!(v.abs() < 1e-9, "zero RHS solves to zero, got {v}");
    }
    let (a, _) = ss.reconstruct();
    assert!(a.residual_norm(&report.solutions[1], &b1) < 1e-5);

    // The degenerate all-zero single-RHS solve also terminates cleanly
    // (instantly: x = 0 already meets any tolerance) instead of NaN-looping
    // to the horizon.
    let degenerate = solver::solve_block(&ss, topo, &[zero], None, &config).expect("zero run");
    assert!(degenerate.converged);
    assert_eq!(degenerate.final_residual, 0.0);
}

#[test]
fn residual_and_oracle_modes_agree_on_the_solution() {
    // The equivalence case: a residual-terminated run and an oracle-RMS
    // run must stop at solutions agreeing to the configured tolerance.
    let ss = laplacian_split(8, 2);
    let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
    let tol = 1e-9;
    let base = DtmConfig {
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let residual = solver::solve(
        &ss,
        topo.clone(),
        None,
        &DtmConfig {
            common: CommonConfig {
                termination: Termination::Residual { tol },
                ..Default::default()
            },
            ..base.clone()
        },
    )
    .expect("residual run");
    let oracle = solver::solve(
        &ss,
        topo,
        None,
        &DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..Default::default()
            },
            ..base
        },
    )
    .expect("oracle run");
    assert!(residual.converged && oracle.converged);
    assert_reference_free(&residual);
    assert!(oracle.final_rms <= tol);
    // Both runs also report the always-computable residual; the oracle
    // run's must be finite and small too.
    assert!(oracle.final_residual < 1e-6);
    for (u, v) in residual.solution.iter().zip(&oracle.solution) {
        assert!((u - v).abs() < 1e-6, "residual-stop {u} vs oracle-stop {v}");
    }
}

#[test]
fn explicit_reference_under_residual_keeps_residual_stopping() {
    // Supplying a reference under Termination::Residual must not switch
    // the stopping metric to oracle RMS (all backends stop on the
    // residual for identical inputs); the reference only adds RMS
    // reporting to the run.
    let ss = laplacian_split(8, 2);
    let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
    let tol = 1e-8;
    let (exact, _) = direct_solution(&ss);
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let report = solver::solve(&ss, topo, Some(exact), &config).expect("runs");
    assert!(report.converged, "resid {}", report.final_residual);
    assert!(
        report.final_residual <= tol,
        "stopped on the residual metric"
    );
    // RMS reporting is present (the reference was used for reporting)…
    assert!(!report.final_rms.is_nan());
    assert_eq!(report.final_rms_per_rhs.len(), 1);
    assert!(report.final_rms < 1e-6);
}

#[test]
fn residual_block_session_streams_without_any_direct_solve() {
    // A residual-mode streaming session: no reference factorization at
    // setup, no oracle substitutions per batch — and the batch still
    // converges to per-column solutions matching the direct answers.
    let side = 8;
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 2_024);
    let problem = DtmBuilder::new(a.clone(), b)
        .grid_blocks(side, side, 2, 2)
        .termination(Termination::Residual { tol: 1e-8 })
        .build()
        .expect("builds");
    assert!(
        problem.reference.is_none(),
        "residual problems must not compute a build-time reference"
    );
    let mut session = problem.rolling(3).expect("factors subdomains only");
    let cols: Vec<Vec<f64>> = (0..3)
        .map(|c| generators::random_rhs(side * side, 3_000 + c))
        .collect();
    for col in &cols {
        session
            .submit(col, Termination::Residual { tol: 1e-8 })
            .expect("dimension ok");
    }
    let mut reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
    reports.sort_by_key(|r| r.ticket);
    assert_eq!(reports.len(), 3);
    for (r, col) in reports.iter().zip(&cols) {
        assert!(r.final_residual <= 1e-8, "resid {}", r.final_residual);
        assert_eq!(
            r.final_rms, None,
            "residual tickets never pay for an oracle"
        );
        assert!(a.residual_norm(&r.solution, col) < 1e-5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The incremental residual tracker must match an exact recomputation
    /// (`‖b − A·est‖/‖b‖` from scratch) to ~1e-12, whatever order parts
    /// report in and whatever values they carry.
    #[test]
    fn incremental_residual_matches_exact_recompute(
        updates in proptest::collection::vec((0usize..3, -10.0f64..10.0, 0.1f64..3.0), 1..40),
    ) {
        let ss = laplacian_split(6, 3);
        let (a, b) = ss.reconstruct();
        let bnorm = dtm_repro::sparse::vector::norm2(&b);
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        for (i, &(part, base, scale)) in updates.iter().enumerate() {
            let nl = ss.subdomains[part].n_local();
            let local: Vec<f64> = (0..nl)
                .map(|l| base + scale * ((l as f64) * 0.7 + i as f64).sin())
                .collect();
            m.update_part(part, SimTime::from_nanos(i as u64), &local);
            let exact = a.residual_norm(m.estimate(), &b) / bnorm;
            prop_assert!(
                (m.rel_residual() - exact).abs() < 1e-12 * exact.max(1.0),
                "incremental {} vs exact {} after update {}",
                m.rel_residual(), exact, i
            );
        }
        // The exact-recompute API agrees as well.
        let exact = a.residual_norm(m.estimate(), &b) / bnorm;
        prop_assert!((m.resync() - exact).abs() < 1e-13 * exact.max(1.0));
    }

    /// Block form: the worst column drives the metric, and every column's
    /// incremental value matches its exact recomputation.
    #[test]
    fn incremental_block_residual_matches_exact_per_column(
        seed in 0u64..1000,
        rounds in 1usize..6,
    ) {
        let ss = laplacian_split(6, 2);
        let (a, _) = ss.reconstruct();
        let cols: Vec<Vec<f64>> = (0..3).map(|c| generators::random_rhs(36, seed * 7 + c)).collect();
        let mut m = Monitor::new_residual(&ss, Some(&cols), SimDuration::ZERO);
        for r in 0..rounds {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let nl = sd.n_local();
                let block: Vec<f64> = (0..nl * 3)
                    .map(|i| ((i + r + p) as f64 * 0.31).cos())
                    .collect();
                m.update_part(p, SimTime::from_nanos((r * 10 + p) as u64), &block);
            }
        }
        let incremental = m.rel_residual();
        let per: Vec<f64> = m.retire_all().iter().map(|col| col.residual).collect();
        for (c, col) in cols.iter().enumerate() {
            let bnorm = dtm_repro::sparse::vector::norm2(col);
            let exact = a.residual_norm(m.estimate_col(c), col) / bnorm;
            prop_assert!((per[c] - exact).abs() < 1e-12 * exact.max(1.0), "column {c}");
        }
        let worst = per.iter().fold(0.0f64, |acc, &v| acc.max(v));
        prop_assert!((incremental - worst).abs() < 1e-9 * worst.max(1.0));
    }
}
