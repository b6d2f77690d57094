//! End-to-end checks of every concrete number printed in the paper:
//! system (3.2), subsystems (4.1)/(4.2), local systems (5.4)/(5.5), the
//! initial condition (5.6), and the Example 5.1 machine.

use dtm_repro::core::impedance::ImpedancePolicy;
use dtm_repro::core::local::{local_matrix, LocalSolverKind, LocalSystem};
use dtm_repro::core::runtime::CommonConfig;
use dtm_repro::core::solver::{ComputeModel, DtmConfig, Termination};
use dtm_repro::simnet::{Link, SimDuration, Topology};
use dtm_repro::sparse::generators;

mod common;

use common::{example_5_1_split as paper_split, simulated};

fn paper_topology() -> Topology {
    Topology::from_links(
        2,
        vec![
            Link {
                src: 0,
                dst: 1,
                delay: SimDuration::from_micros_f64(6.7),
            },
            Link {
                src: 1,
                dst: 0,
                delay: SimDuration::from_micros_f64(2.9),
            },
        ],
    )
}

#[test]
fn system_3_2_row_by_row() {
    let (a, b) = generators::paper_example_system();
    let expect = [
        [5.0, -1.0, -1.0, 0.0],
        [-1.0, 6.0, -2.0, -1.0],
        [-1.0, -2.0, 7.0, -2.0],
        [0.0, -1.0, -2.0, 8.0],
    ];
    for (r, row) in expect.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            assert_eq!(a.get(r, c), v, "A({r},{c})");
        }
    }
    assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn subsystems_4_1_and_4_2_reconstruct_3_2() {
    let ss = paper_split();
    let (a2, b2) = ss.reconstruct().unwrap();
    let (a, b) = generators::paper_example_system();
    assert!(a.to_dense().max_abs_diff(&a2.to_dense()) < 1e-12);
    for (u, v) in b.iter().zip(&b2) {
        assert!((u - v).abs() < 1e-12);
    }
}

#[test]
fn local_systems_5_4_and_5_5_digit_for_digit() {
    // (5.4): diag [7.5, 13.3] on the V2a/V3a ports; (5.5): [8.5, 13.7].
    let ss = paper_split();
    let l1 = local_matrix(&ss.subdomains[0], &[0.2, 0.1]);
    let l2 = local_matrix(&ss.subdomains[1], &[0.2, 0.1]);
    assert!((l1.get(0, 0) - 7.5).abs() < 1e-12);
    assert!((l1.get(1, 1) - 13.3).abs() < 1e-12);
    assert!((l2.get(0, 0) - 8.5).abs() < 1e-12);
    assert!((l2.get(1, 1) - 13.7).abs() < 1e-12);
}

#[test]
fn initial_condition_5_6_is_all_zero() {
    let ss = paper_split();
    let ls = LocalSystem::new(&ss.subdomains[0], &[0.2, 0.1], LocalSolverKind::Dense).expect("SPD");
    for p in 0..ls.n_ports() {
        assert_eq!(ls.incident_wave(p), 0.0, "x(0) = ω(0) = 0 ⇒ w(0) = 0");
    }
    assert!(ls.solution().iter().all(|&v| v == 0.0));
}

#[test]
fn figure_8_run_reaches_the_exact_solution() {
    let ss = paper_split();
    let config = DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::OracleRms { tol: 1e-11 },
            ..Default::default()
        },
        compute: ComputeModel::Zero,
        horizon: SimDuration::from_millis_f64(10.0),
        ..Default::default()
    };
    let report = simulated(&ss, paper_topology(), config);
    assert!(report.converged);
    // x* = A⁻¹ b of (3.2) = [10/17, 15.6/17, 17.4/17, 14.8/17].
    let expect = [10.0 / 17.0, 15.6 / 17.0, 17.4 / 17.0, 14.8 / 17.0];
    for (u, v) in report.solution.iter().zip(&expect) {
        assert!((u - v).abs() < 1e-7, "{u} vs {v}");
    }
}

#[test]
fn delay_mapping_is_asymmetric_and_exact() {
    let topo = paper_topology();
    assert_eq!(topo.try_delay(0, 1).map(|d| d.as_nanos()), Ok(6_700));
    assert_eq!(topo.try_delay(1, 0).map(|d| d.as_nanos()), Ok(2_900));
    assert!(topo.asymmetry() > 0.5);
}

#[test]
fn fig9_impedance_sensitivity_visible_at_100us() {
    // Fig. 9's phenomenon at fixed t = 100 µs: a good impedance pair beats
    // a bad one by orders of magnitude.
    let run = |z2: f64, z3: f64| {
        let config = DtmConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::PerDtlp(vec![z2, z3]),
                termination: Termination::OracleRms { tol: 0.0 },
                ..Default::default()
            },
            compute: ComputeModel::Zero,
            horizon: SimDuration::from_micros_f64(100.0),
            ..Default::default()
        };
        simulated(&paper_split(), paper_topology(), config).final_rms
    };
    let good = run(0.2, 0.2);
    let bad = run(0.025, 0.025);
    assert!(
        good < bad / 100.0,
        "good Z rms {good:.2e} should beat bad Z rms {bad:.2e} by ≫100×"
    );
}
