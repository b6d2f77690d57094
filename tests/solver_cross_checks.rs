//! Cross-solver agreement: every path to a solution — direct Cholesky
//! (dense & sparse), DTM (simulated, on the pool bare and routed), VTM, and
//! both block-Jacobi baselines — must land on the same x* for the same
//! system.

mod common;

use dtm_repro::core::async_baselines::{self, BaselineAlgo};
use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::runtime::CommonConfig;
use dtm_repro::core::solver::{ComputeModel, DtmConfig, Termination};
use dtm_repro::core::{DtmProblem, Machine};
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

fn oracle(tol: f64) -> CommonConfig {
    CommonConfig {
        termination: Termination::OracleRms { tol },
        ..Default::default()
    }
}

/// The simulated machine `topology` the block-Jacobi rows run on: 1 ms
/// per block solve, oracle RMS ≤ `tol`, a one-hour horizon.
fn oracle_machine(topology: Topology, tol: f64) -> Machine {
    Machine::Simulated {
        topology,
        config: DtmConfig {
            common: oracle(tol),
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        },
    }
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
    let p = DtmProblem {
        reference: Some(reference.clone()),
        ..DtmProblem::of_split(ss)
    };
    let budget = Duration::from_secs(60);
    let topo = Topology::ring(K).with_delays(&DelayModel::uniform_ms(5.0, 30.0, 11));
    for (name, machine) in [
        (
            "vtm",
            Machine::LockStep {
                common: oracle(1e-9),
                price: None,
            },
        ),
        (
            "routed pool dtm",
            Machine::Pool(RayonConfig {
                common: oracle(1e-9),
                budget,
                delay_topology: Some(topo.clone()),
                ..Default::default()
            }),
        ),
        (
            "work-stealing dtm",
            Machine::Pool(RayonConfig {
                common: oracle(1e-9),
                budget,
                ..Default::default()
            }),
        ),
    ] {
        let r = p.solve(&machine).expect(name);
        assert!(r.converged, "{name}");
        assert_close(name, &r.solution, &reference, 1e-6);
    }

    // Block-Jacobi baselines, asynchronous and in barrier-priced rounds.
    let asg = partition::grid_strips(SIDE, SIDE, K);
    let sync = Machine::LockStep {
        common: oracle(1e-9),
        price: Some((
            topo.clone(),
            ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        )),
    };
    for (name, machine) in [
        ("async block-jacobi", oracle_machine(topo, 1e-9)),
        ("sync block-jacobi", sync),
    ] {
        let algo = BaselineAlgo::BlockJacobi;
        let r = async_baselines::solve(&algo, &a, &b, &asg, Some(reference.clone()), &machine)
            .expect(name);
        assert!(r.converged, "{name}");
        assert_close(name, &r.solution, &reference, 1e-6);
    }
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

    let asg = partition::grid_strips(SIDE, SIDE, K);
    let abj = async_baselines::solve(
        &BaselineAlgo::BlockJacobi,
        &a,
        &b,
        &asg,
        None,
        &oracle_machine(topo, tol),
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
