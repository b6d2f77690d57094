//! Cross-solver agreement: every path to a solution — direct Cholesky
//! (dense & sparse), DTM (simulated, threaded & work-stealing), VTM, and
//! both block-Jacobi baselines — must land on the same x* for the same
//! system.

use dtm_repro::core::async_baselines::{self, BaselineAlgo, BaselineConfig};
use dtm_repro::core::rayon_backend::{self, RayonConfig};
use dtm_repro::core::runtime::CommonConfig;
use dtm_repro::core::solver::{ComputeModel, Termination};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::core::vtm;
use dtm_repro::graph::evs::{split, EvsOptions};
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::{generators, DenseCholesky, SparseCholesky};
use dtm_repro::DtmBuilder;
use std::time::Duration;

const SIDE: usize = 12;
const K: usize = 3;

fn system() -> (dtm_repro::sparse::Csr, Vec<f64>) {
    let a = generators::grid2d_random(SIDE, SIDE, 1.0, 404);
    let b = generators::random_rhs(SIDE * SIDE, 405);
    (a, b)
}

fn assert_close(name: &str, x: &[f64], y: &[f64], tol: f64) {
    for (i, (u, v)) in x.iter().zip(y).enumerate() {
        assert!((u - v).abs() < tol, "{name}: x[{i}] = {u} vs reference {v}");
    }
}

#[test]
fn all_solvers_agree() {
    let (a, b) = system();
    let reference = SparseCholesky::factor_rcm(&a).expect("SPD").solve(&b);

    // Dense direct.
    let xd = DenseCholesky::factor_csr(&a).expect("SPD").solve(&b);
    assert_close("dense cholesky", &xd, &reference, 1e-9);

    // DTM (simulated).
    let dtm = DtmBuilder::new(a.clone(), b.clone())
        .grid_strips(SIDE, SIDE, K)
        .termination(Termination::OracleRms { tol: 1e-9 })
        .solve()
        .expect("dtm");
    assert!(dtm.converged);
    assert_close("dtm", &dtm.solution, &reference, 1e-6);

    // VTM.
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    let plan =
        PartitionPlan::from_assignment(&g, &partition::grid_strips(SIDE, SIDE, K)).expect("valid");
    let ss = split(&g, &plan, &EvsOptions::default()).expect("valid");
    let v = vtm::solve(
        &ss,
        Some(reference.clone()),
        &CommonConfig {
            termination: Termination::OracleRms { tol: 1e-9 },
            ..Default::default()
        },
    )
    .expect("vtm");
    assert!(v.converged);
    assert_close("vtm", &v.solution, &reference, 1e-6);

    // Threaded DTM.
    let t = threaded::solve(
        &ss,
        &ThreadedConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-9 },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .expect("threads");
    assert!(t.converged);
    assert_close("threaded dtm", &t.solution, &reference, 1e-6);

    // Work-stealing DTM.
    let w = rayon_backend::solve(
        &ss,
        &RayonConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-9 },
                ..RayonConfig::default().common
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .expect("work-stealing pool");
    assert!(w.converged);
    assert_close("work-stealing dtm", &w.solution, &reference, 1e-6);

    // Block-Jacobi baselines.
    let asg = partition::grid_strips(SIDE, SIDE, K);
    let topo = Topology::ring(K).with_delays(&DelayModel::uniform_ms(5.0, 30.0, 11));
    let bj_config = BaselineConfig {
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        termination: Termination::OracleRms { tol: 1e-9 },
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let abj = async_baselines::solve_sim(
        &BaselineAlgo::BlockJacobi,
        &a,
        &b,
        &asg,
        topo.clone(),
        Some(reference.clone()),
        &bj_config,
    )
    .expect("abj");
    assert!(abj.converged);
    assert_close("async block-jacobi", &abj.solution, &reference, 1e-6);
    let sbj = async_baselines::solve_sync(&a, &b, &asg, &topo, Some(reference.clone()), &bj_config)
        .expect("sbj");
    assert!(sbj.converged);
    assert_close("sync block-jacobi", &sbj.solution, &reference, 1e-6);
}

#[test]
fn dtm_beats_async_jacobi_in_simulated_time() {
    // The paper's motivation: classical asynchronous iterations converge,
    // but slowly; DTM's impedance coupling accelerates the same machine.
    let (a, b) = system();
    let topo = Topology::ring(K).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 3));
    let tol = 1e-7;

    let dtm = DtmBuilder::new(a.clone(), b.clone())
        .grid_strips(SIDE, SIDE, K)
        .network(topo.clone())
        .compute(ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)))
        .termination(Termination::OracleRms { tol })
        .horizon(SimDuration::from_millis_f64(3_600_000.0))
        .solve()
        .expect("dtm");

    let bj_config = BaselineConfig {
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        termination: Termination::OracleRms { tol },
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    };
    let asg = partition::grid_strips(SIDE, SIDE, K);
    let abj = async_baselines::solve_sim(
        &BaselineAlgo::BlockJacobi,
        &a,
        &b,
        &asg,
        topo,
        None,
        &bj_config,
    )
    .expect("abj");

    assert!(dtm.converged && abj.converged);
    assert!(
        dtm.final_time_ms < abj.final_time_ms,
        "DTM {} ms should beat async block-Jacobi {} ms",
        dtm.final_time_ms,
        abj.final_time_ms
    );
}
