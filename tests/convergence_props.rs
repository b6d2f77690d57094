//! Property-based tests of the reproduction's core invariants:
//!
//! * EVS reconstruction is exact for random systems/partitions/policies;
//! * Theorem 6.1: DTM converges for arbitrary positive impedances and
//!   arbitrary positive (asymmetric) delays on SNND-split SPD systems;
//! * the VTM iteration operator is contractive under the same hypotheses;
//! * DTM with equal delays ≡ VTM, round for round;
//! * `converged: true` means the returned `x` meets the stated tolerance,
//!   on every executor, for DTM and a baseline alike.

mod common;

use common::simulated;
use dtm_net::{DistributedBackend, DistributedConfig};
use dtm_repro::core::analysis::WaveOperator;
use dtm_repro::core::async_baselines::{self, BaselineAlgo};
use dtm_repro::core::impedance::ImpedancePolicy;
use dtm_repro::core::local::LocalSolverKind;
use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::report::StopKind;
use dtm_repro::core::runtime::{build_nodes, CommonConfig, ExecutorBackend};
use dtm_repro::core::solver::{ComputeModel, DtmConfig, Termination};
use dtm_repro::core::{DtmProblem, Machine, SolveReport};
use dtm_repro::graph::evs::{split, EvsOptions, SharePolicy, SplitSystem};
use dtm_repro::graph::validate;
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

fn random_split(
    nx: usize,
    ny: usize,
    k: usize,
    policy: SharePolicy,
    seed: u64,
) -> (SplitSystem, dtm_repro::sparse::Csr, Vec<f64>) {
    let a = generators::grid2d_random(nx, ny, 1.0, seed);
    let b = generators::random_rhs(nx * ny, seed ^ 0xabcd);
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    let asg = partition::grid_strips(nx, ny, k);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let options = EvsOptions {
        policy,
        ..Default::default()
    };
    (split(&g, &plan, &options).expect("valid split"), a, b)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// EVS reconstruction: split subsystems always sum back to (A, b).
    #[test]
    fn evs_reconstruction_is_exact(
        nx in 4usize..10,
        ny in 4usize..10,
        k in 2usize..4,
        uniform in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(k <= nx);
        let policy = if uniform { SharePolicy::Uniform } else { SharePolicy::DominanceProportional };
        let (ss, a, b) = random_split(nx, ny, k, policy, seed);
        validate::check_reconstruction(&ss, &a, &b, 1e-11).expect("reconstruction");
        validate::check_wiring(&ss).expect("wiring");
    }

    /// Theorem 6.1 numerically: dominance-proportional splits satisfy the
    /// SNND hypothesis and the wave operator is contractive for any z > 0.
    #[test]
    fn theorem_6_1_contraction(
        nx in 5usize..9,
        k in 2usize..4,
        z_exp in -4.0f64..4.0,
        seed in 0u64..1_000_000,
    ) {
        let (ss, _, _) = random_split(nx, nx, k, SharePolicy::DominanceProportional, seed);
        let check = validate::check_theorem_hypothesis(&ss, 1e-10);
        prop_assert!(check.satisfied, "split must satisfy Thm 6.1: {:?}", check.parts);
        let z = (2.0f64).powf(z_exp);
        let mut op = WaveOperator::new(&ss, &ImpedancePolicy::Fixed(z), LocalSolverKind::Auto)
            .expect("operator");
        let rho = op.spectral_radius(150, seed);
        prop_assert!(rho < 1.0, "ρ = {rho} must be < 1 for z = {z}");
    }

    /// DTM converges under arbitrary positive asymmetric delays.
    #[test]
    fn dtm_converges_for_arbitrary_delays(
        nx in 5usize..9,
        k in 2usize..4,
        lo_ms in 1.0f64..20.0,
        spread in 1.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let (ss, a, b) = random_split(nx, nx, k, SharePolicy::DominanceProportional, seed);
        let topo = Topology::ring(k)
            .with_delays(&DelayModel::uniform_ms(lo_ms, lo_ms * spread, seed));
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-7 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(lo_ms / 4.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            sample_interval: SimDuration::from_millis_f64(50.0),
        };
        let report = simulated(&ss, topo, config);
        prop_assert!(report.converged, "rms {}", report.final_rms);
        prop_assert!(a.residual_norm(&report.solution, &b) < 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// `report.converged ⇒` the stopping metric **recomputed here from
    /// `report.solution`** is within the stated tolerance — the relative
    /// residual under `Residual`, the RMS against a direct solve under
    /// `OracleRms` — for {simulated, lock-step, threads, pool, distributed
    /// in-process} × {DTM, block-Jacobi}. (The distributed executor is DTM
    /// under `Residual` only, by construction.) On the wall-clock fabrics
    /// the solution must be the estimate the supervisor *accepted*, not
    /// whatever the workers had moved on to by the time it looked again —
    /// which is timing, which is why CI repeats this 50× on two cores.
    #[test]
    fn converged_implies_the_returned_x_meets_the_tolerance(
        nx in 5usize..9,
        k in 2usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (ss, _, _) = random_split(nx, nx, k, SharePolicy::DominanceProportional, seed);
        // Score against exactly the system and reference the library does:
        // the caller's, which the split holds.
        let (a, b) = ((*ss.a).clone(), (*ss.b).clone());
        let x_star = dtm_repro::sparse::SparseCholesky::factor(&a).expect("SPD").solve(&b);
        let asg = partition::grid_strips(nx, nx, k);
        let topo = Topology::ring(k).with_delays(&DelayModel::uniform_ms(1.0, 9.0, seed));
        let algo = BaselineAlgo::BlockJacobi;
        let tol = 1e-7;
        for termination in [Termination::Residual { tol }, Termination::OracleRms { tol }] {
            let reference = || Some(x_star.clone());
            let common = CommonConfig { termination, ..Default::default() };
            let sim = |horizon_ms| Machine::Simulated {
                topology: topo.clone(),
                config: DtmConfig {
                    common: common.clone(),
                    horizon: SimDuration::from_millis_f64(horizon_ms),
                    ..Default::default()
                },
            };
            let pool = Machine::Pool(RayonConfig { common: common.clone(), ..Default::default() });
            let routed = Machine::Pool(RayonConfig {
                common: common.clone(),
                delay_topology: Some(topo.clone()),
                ..Default::default()
            });
            let lockstep = Machine::LockStep { common: common.clone(), price: None };
            let dtm = DtmProblem { reference: reference(), ..DtmProblem::of_split(ss.clone()) };
            let jacobi = |machine: &Machine| {
                async_baselines::solve(&algo, &a, &b, &asg, reference(), machine)
            };
            let mut reports = vec![
                ("dtm/sim", dtm.solve(&sim(3_600_000.0))),
                ("dtm/lockstep", dtm.solve(&lockstep)),
                ("dtm/routed", dtm.solve(&routed)),
                ("dtm/pool", dtm.solve(&pool)),
                ("jacobi/sim", jacobi(&sim(600_000.0))),
                ("jacobi/lockstep", jacobi(&lockstep)),
                ("jacobi/routed", jacobi(&routed)),
                ("jacobi/pool", jacobi(&pool)),
            ];
            if matches!(termination, Termination::Residual { .. }) {
                let config = DistributedConfig { common, processes: 2, ..Default::default() };
                reports.push(("dtm/distributed", DistributedBackend.solve(&ss, reference(), &config)));
            }
            check_converged(reports, termination, &a, &b, &x_star)?;
        }
    }

    /// The same on a split whose every part takes the port path (steps
    /// compute only the port values; the interior is completed when
    /// read), DTM on every machine.
    #[test]
    fn converged_implies_the_returned_x_meets_the_tolerance_on_port_path_parts(
        side in 20usize..25,
        seed in 0u64..1_000_000,
    ) {
        let a = generators::grid2d_random(side, side, 1.0, seed);
        let b = generators::random_rhs(side * side, seed ^ 0xabcd);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
        let asg = partition::grid_blocks(side, side, 2, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
        let ss = split(&g, &plan, &EvsOptions::default()).expect("valid split");
        let nodes = build_nodes(&ss, &CommonConfig::default()).expect("factors");
        prop_assert!(nodes.iter().all(|n| n.local().port_block().is_some()));
        let x_star = dtm_repro::sparse::SparseCholesky::factor(&a).expect("SPD").solve(&b);
        let topo = Topology::complete(4).with_delays(&DelayModel::uniform_ms(1.0, 9.0, seed));
        let tol = 1e-7;
        for termination in [Termination::Residual { tol }, Termination::OracleRms { tol }] {
            let common = CommonConfig { termination, ..Default::default() };
            // A step costs about a link delay, so arrivals coalesce: with
            // the default 10 µs steps every wave is its own activation.
            let sim = Machine::Simulated {
                topology: topo.clone(),
                config: DtmConfig {
                    common: common.clone(),
                    compute: ComputeModel::Fixed(SimDuration::from_millis_f64(2.0)),
                    horizon: SimDuration::from_millis_f64(3_600_000.0),
                    ..Default::default()
                },
            };
            let pool = Machine::Pool(RayonConfig { common: common.clone(), ..Default::default() });
            let routed = Machine::Pool(RayonConfig {
                common: common.clone(),
                delay_topology: Some(topo.clone()),
                ..Default::default()
            });
            let lockstep = Machine::LockStep { common: common.clone(), price: None };
            let dtm = DtmProblem { reference: Some(x_star.clone()), ..DtmProblem::of_split(ss.clone()) };
            let mut reports = vec![
                ("ports/sim", dtm.solve(&sim)),
                ("ports/lockstep", dtm.solve(&lockstep)),
                ("ports/routed", dtm.solve(&routed)),
                ("ports/pool", dtm.solve(&pool)),
            ];
            if matches!(termination, Termination::Residual { .. }) {
                let config = DistributedConfig { common, processes: 2, ..Default::default() };
                reports.push(("ports/distributed", DistributedBackend.solve(&ss, Some(x_star.clone()), &config)));
            }
            check_converged(reports, termination, &a, &b, &x_star)?;
        }
    }
}

/// Every report converged, and the stopping metric recomputed from its
/// `x` meets `termination`'s tolerance and is the one it reports.
fn check_converged(
    reports: Vec<(&str, dtm_repro::sparse::Result<SolveReport>)>,
    termination: Termination,
    a: &dtm_repro::sparse::Csr,
    b: &[f64],
    x_star: &[f64],
) -> Result<(), TestCaseError> {
    let tol = termination.metric_tol().expect("a supervised rule");
    for (who, report) in reports {
        let report = report.expect("runs");
        prop_assert!(
            report.converged,
            "{who} under {termination:?}: {:?}",
            report.stop
        );
        let x = &report.solution;
        let (metric, reported) = match termination {
            Termination::OracleRms { .. } => (
                dtm_repro::sparse::vector::rms_error(x, x_star),
                report.final_rms,
            ),
            _ => (
                a.residual_norm(x, b) / dtm_repro::sparse::vector::norm2(b),
                report.final_residual,
            ),
        };
        prop_assert!(
            metric <= tol,
            "{who} under {termination:?}: {metric:e} > {tol:e}"
        );
        prop_assert_eq!(metric, reported, "{} reports its own x", who);
    }
    Ok(())
}

/// Non-proptest determinism check: two identical runs are bit-identical.
#[test]
fn simulation_is_deterministic() {
    let (ss, _, _) = random_split(8, 8, 3, SharePolicy::DominanceProportional, 99);
    let mk = || {
        let topo = Topology::ring(3).with_delays(&DelayModel::uniform_ms(5.0, 40.0, 7));
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-9 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        simulated(&ss, topo, config)
    };
    let r1 = mk();
    let r2 = mk();
    assert_eq!(r1.total_solves, r2.total_solves);
    assert_eq!(r1.total_messages, r2.total_messages);
    assert_eq!(r1.final_time_ms, r2.final_time_ms);
    assert_eq!(r1.solution, r2.solution);
    assert_eq!(r1.series, r2.series);
}

/// The one-shot supervisor sleeps on the measured decay of its metric
/// (`monitor::next_poll`), not on a fixed 500 µs clock, on the pool bare
/// and behind the delay router: a solve of tens of milliseconds is scored a few dozen times at
/// most, not once per floor interval; `converged` still means the returned
/// `x` meets the tolerance; and a run the budget cuts short is not slept
/// past it, however long the gaps had grown. Timing-dependent, so CI
/// repeats it 50× on two cores.
#[test]
fn supervisor_polls_follow_the_decay_on_both_fabrics() {
    // `POLL_INTERVAL`, the cadence's floor (crate-private).
    const POLL_FLOOR_MS: f64 = 0.5;
    // What the OS may add to a sleep: up to 14 ms was measured with two
    // test threads pinned to two loaded cores. A sleep that ignored the
    // budget would overrun it by up to a whole grown gap, 40–90 ms here.
    const WAKE_SLACK_MS: f64 = 30.0;
    let (ss, _, _) = random_split(64, 64, 4, SharePolicy::DominanceProportional, 5);
    let (a, b) = ss.reconstruct().unwrap();
    let solve = |tol: f64, budget: Duration| {
        let common = CommonConfig {
            termination: Termination::Residual { tol },
            ..Default::default()
        };
        let pool = RayonConfig {
            common,
            num_threads: 2,
            budget,
            ..Default::default()
        };
        let routed = RayonConfig {
            delay_topology: Some(Topology::ring(4).with_delays(&DelayModel::fixed_ms(1.0))),
            ..pool.clone()
        };
        let p = DtmProblem::of_split(ss.clone());
        [
            ("pool", p.solve(&Machine::Pool(pool)).expect("runs")),
            ("routed", p.solve(&Machine::Pool(routed)).expect("runs")),
        ]
    };

    let tol = 1e-10;
    for (who, report) in solve(tol, Duration::from_secs(30)) {
        assert!(report.converged, "{who}: {:?}", report.stop);
        let residual = a.residual_norm(&report.solution, &b) / dtm_repro::sparse::vector::norm2(&b);
        assert!(residual <= tol, "{who}: {residual:e}");
        let polls = report.series.len();
        assert!(
            polls <= 40,
            "{who}: {polls} polls in {:.1} ms",
            report.final_time_ms
        );
    }

    // Unreachable: the sleeps double for as long as the residual falls,
    // which it still does at the budget.
    let budget = Duration::from_millis(100);
    for (who, report) in solve(1e-300, budget) {
        assert!(!report.converged, "{who}");
        assert_eq!(report.stop, StopKind::Budget, "{who}");
        // A budget stop scores the blocks once more after the poll that
        // found the budget spent; that poll is the one before.
        let stopped = report.series[report.series.len() - 2].0;
        let bound = budget.as_secs_f64() * 1e3 + POLL_FLOOR_MS + WAKE_SLACK_MS;
        assert!(stopped <= bound, "{who}: stopped at {stopped:.2} ms");
    }
}
