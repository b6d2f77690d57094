//! Baseline equivalence: the asynchronous baselines (randomized
//! Richardson, D-iteration, block-Jacobi) and DTM are *peer algorithms* —
//! on random SPD systems all of them must converge to the
//! direct-Cholesky solution within tolerance **on every executor**
//! (simulated machine, OS threads, work-stealing pool), under randomized
//! update orders (the Richardson seed) and randomized delay topologies.
//! Pinned as proptests so the equivalence holds across the whole space,
//! not at one seed.

mod common;

use dtm_repro::core::async_baselines::{
    self, BaselineAlgo, BaselineConfig, DIterationParams, RichardsonParams,
};
use dtm_repro::core::rayon_backend::{self, RayonConfig};
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{self, ComputeModel, DtmConfig};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::core::SolveReport;
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

const TOL: f64 = 1e-8;
const CLOSE: f64 = 1e-5;

fn baseline_config() -> BaselineConfig {
    BaselineConfig {
        termination: Termination::Residual { tol: TOL },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
        horizon: SimDuration::from_millis_f64(600_000.0),
        budget: Duration::from_secs(60),
        num_threads: 2,
        ..Default::default()
    }
}

fn assert_close(
    report: &SolveReport,
    exact: &[f64],
    label: &str,
) -> std::result::Result<(), proptest::TestCaseError> {
    prop_assert!(
        report.converged,
        "{label}: did not converge (residual {})",
        report.final_residual
    );
    for (i, (u, v)) in report.solution.iter().zip(exact).enumerate() {
        prop_assert!((u - v).abs() < CLOSE, "{label}: x[{i}] = {u} vs direct {v}");
    }
    prop_assert!(report.total_solves > 0, "{label}: empty activation counter");
    prop_assert!(report.total_messages > 0, "{label}: empty message counter");
    prop_assert!(report.total_flops > 0, "{label}: empty flop counter");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Random-conductance grid systems: every baseline and DTM, on all
    /// three executors, under a randomized update-order seed and a
    /// randomized asymmetric delay topology, all land on the
    /// direct-Cholesky solution.
    #[test]
    fn baselines_and_dtm_agree_with_direct_on_all_executors(
        seed in 0u64..1_000,
        order_seed in 0u64..1_000,
        side in 6usize..8,
        parts in 2usize..4,
        delay_lo in 1.0f64..10.0,
        delay_spread in 1.0f64..40.0,
    ) {
        let (a, b, asg) = common::random_grid_system(side, parts, seed);
        let ss = common::random_grid_split(side, parts, seed);
        let (exact, _) = common::direct_solution(&ss);
        let topo = Topology::ring(parts).with_delays(&DelayModel::uniform_ms(
            delay_lo,
            delay_lo + delay_spread,
            seed ^ 0x5eed,
        ));
        let config = baseline_config();

        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams {
                seed: order_seed,
                ..Default::default()
            }),
            BaselineAlgo::DIteration(DIterationParams { retention: 0.2 }),
            BaselineAlgo::BlockJacobi,
        ] {
            let name = algo.kind().name();
            let sim =
                async_baselines::solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &config)
                    .expect("baseline sim run");
            assert_close(&sim, &exact, &format!("{name}/sim"))?;
            let th = async_baselines::solve_threaded(&algo, &a, &b, &asg, None, &config)
                .expect("baseline threaded run");
            assert_close(&th, &exact, &format!("{name}/threaded"))?;
            let ws = async_baselines::solve_workstealing(&algo, &a, &b, &asg, None, &config)
                .expect("baseline pool run");
            assert_close(&ws, &exact, &format!("{name}/workstealing"))?;
        }

        // DTM on the same machine and partition (EVS split of the same
        // assignment), same executors, same reference-free rule.
        let dtm_sim = solver::solve(
            &ss,
            topo,
            None,
            &DtmConfig {
                common: CommonConfig {
                    termination: Termination::Residual { tol: TOL },
                    ..Default::default()
                },
                compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
                horizon: SimDuration::from_millis_f64(600_000.0),
                ..Default::default()
            },
        )
        .expect("dtm sim run");
        assert_close(&dtm_sim, &exact, "dtm/sim")?;
        let dtm_th = threaded::solve(
            &ss,
            &ThreadedConfig {
                common: CommonConfig {
                    termination: Termination::Residual { tol: TOL },
                    ..ThreadedConfig::default().common
                },
                budget: Duration::from_secs(60),
                ..Default::default()
            },
        )
        .expect("dtm threaded run");
        assert_close(&dtm_th, &exact, "dtm/threaded")?;
        let dtm_ws = rayon_backend::solve(
            &ss,
            &RayonConfig {
                common: CommonConfig {
                    termination: Termination::Residual { tol: TOL },
                    ..RayonConfig::default().common
                },
                num_threads: 2,
                budget: Duration::from_secs(60),
            },
        )
        .expect("dtm pool run");
        assert_close(&dtm_ws, &exact, "dtm/workstealing")?;
    }

    /// Random-sparsity SPD systems (no grid structure at all): both
    /// baselines on the simulated machine with a complete random-delay
    /// topology and chunked row assignment still pin the direct solution.
    #[test]
    fn baselines_solve_random_spd_systems(
        seed in 0u64..1_000,
        order_seed in 0u64..1_000,
        n in 20usize..40,
        parts in 2usize..5,
    ) {
        let a = generators::random_spd(n, 4, 1.0, seed);
        let b = generators::random_rhs(n, seed + 1);
        let exact = dtm_repro::sparse::SparseCholesky::factor_rcm(&a)
            .expect("SPD")
            .solve(&b);
        // Chunked assignment: row i goes to part i·parts/n.
        let asg: Vec<usize> = (0..n).map(|i| i * parts / n).collect();
        let topo = Topology::complete(parts)
            .with_delays(&DelayModel::uniform_ms(1.0, 20.0, seed ^ 0xd1ce));
        let config = baseline_config();
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams {
                seed: order_seed,
                ..Default::default()
            }),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report =
                async_baselines::solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &config)
                    .expect("baseline run on random SPD");
            prop_assert!(
                report.converged,
                "{}: residual {}",
                algo.kind().name(),
                report.final_residual
            );
            for (i, (u, v)) in report.solution.iter().zip(&exact).enumerate() {
                prop_assert!(
                    (u - v).abs() < CLOSE,
                    "{}: x[{i}] = {u} vs direct {v}",
                    algo.kind().name()
                );
            }
        }
    }
}
