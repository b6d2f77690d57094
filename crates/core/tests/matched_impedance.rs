//! The matched impedance (`ImpedancePolicy::Matched`, the default) as a
//! build-path decision: the scale is a pure function of the torn system —
//! not of the right-hand side, the executor, the setup path or the run —
//! every system it is asked about gets a positive finite impedance and
//! converges on every executor, and an input it cannot estimate (singular,
//! indefinite) falls back to `s = 1` and fails where and how it did before
//! the scale existed, now naming the part and the original row.

use dtm_core::impedance::{per_port, ImpedancePolicy, Matching};
use dtm_core::rayon_backend::RayonConfig;
use dtm_core::runtime::{
    build_node, build_nodes, build_nodes_block, build_nodes_block_parallel, build_nodes_parallel,
    CommonConfig, Termination,
};
use dtm_core::threaded::ThreadedConfig;
use dtm_core::{DtmBuilder, DtmProblem};
use dtm_sparse::{generators, Csr, Error};
use proptest::prelude::*;
use std::time::Duration;

const TOL: f64 = 1e-6;

fn problem(a: Csr, b: Vec<f64>, parts: usize) -> DtmProblem {
    DtmBuilder::new(a, b)
        .partition_auto(parts)
        .termination(Termination::Residual { tol: TOL })
        .build()
        .expect("builds")
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
}

fn bits(z: &[f64]) -> Vec<u64> {
    z.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_scale_is_a_pure_function_of_the_matrix() {
    let a = generators::grid2d_laplacian(20, 20);
    let p1 = problem(a.clone(), generators::random_rhs(400, 1), 6);
    let p2 = problem(a, vec![0.0; 400], 6);
    let policy = ImpedancePolicy::default();
    assert_eq!(policy, ImpedancePolicy::Matched);

    // Repeated calls, and a different right-hand side (sessions factor
    // once and stream columns: the estimate may not read `b`).
    let z = policy.assign(&p1.split).expect("assigns");
    assert_eq!(bits(&z), bits(&policy.assign(&p1.split).expect("assigns")));
    assert_eq!(bits(&z), bits(&policy.assign(&p2.split).expect("assigns")));
    let m = Matching::of(&p1.split);
    assert_eq!(m, Matching::of(&p2.split));
    assert!(
        m.scale > 2.0,
        "a Dirichlet Laplacian is far from s = 1: {m:?}"
    );

    // It is GeometricMean at that scale, bit for bit.
    let explicit = ImpedancePolicy::GeometricMean { scale: m.scale };
    assert_eq!(
        bits(&z),
        bits(&explicit.assign(&p1.split).expect("assigns"))
    );

    // Serial and pooled setup hand every node the same impedances.
    let common = CommonConfig::default();
    let serial = build_nodes(&p1.split, &common).expect("serial");
    let pooled = build_nodes_parallel(&p1.split, &common, &pool(3)).expect("pooled");
    let ports = per_port(&p1.split, &z);
    for ((s, p), z) in serial.iter().zip(&pooled).zip(&ports) {
        assert_eq!(bits(s.local().impedances()), bits(z));
        assert!(s.local() == p.local(), "part {}", s.part());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random conductance grids from strongly dominant to nearly singular:
    /// the scale never drops below the local match, every impedance is a
    /// positive number, and the default policy converges to the stated
    /// residual on the simulated, pool and threaded executors.
    #[test]
    fn matched_converges_on_every_executor(
        nx in 8usize..14,
        ny in 8usize..14,
        parts in 2usize..17,
        margin_exp in -3.0f64..0.0,
        seed in 0u64..1_000_000,
    ) {
        let a = generators::grid2d_random(nx, ny, 10f64.powf(margin_exp), seed);
        let b = generators::random_rhs(nx * ny, seed ^ 0x5eed);
        let p = problem(a.clone(), b.clone(), parts);
        let m = Matching::of(&p.split);
        prop_assert!(m.scale >= 1.0 && m.scale.is_finite(), "{m:?}");
        prop_assert!(m.mu > 0.0 && m.gamma > 0.0, "{m:?}");
        let z = ImpedancePolicy::Matched.assign(&p.split).expect("assigns");
        prop_assert!(z.iter().all(|z| *z > 0.0 && z.is_finite()));

        let common = p.config.common.clone();
        let reports = [
            p.solve(),
            p.solve_workstealing(&RayonConfig {
                common: common.clone(),
                num_threads: 2,
                ..Default::default()
            }),
            p.solve_threaded(&ThreadedConfig { common, ..Default::default() }),
        ];
        let b_norm = dtm_sparse::vector::norm2(&b);
        for r in reports {
            let r = r.expect("runs");
            prop_assert!(r.converged, "{:?}: {:?} residual {}", r.backend, r.stop, r.final_residual);
            let res = a.residual_norm(&r.solution, &b) / b_norm;
            prop_assert!(res <= 2.0 * TOL, "{:?}: verified residual {res}", r.backend);
        }
    }
}

/// A 12 × 12 grid in three strips with one interior diagonal entry
/// negated: SPD everywhere except inside the part that owns `row`.
fn indefinite_problem() -> (DtmProblem, usize, usize) {
    let side = 12;
    let row = 5 * side + 5;
    let mut flip = vec![0.0; side * side];
    flip[row] = -8.0; // a diagonal of 4 becomes −4
    let a = generators::grid2d_laplacian(side, side).add_to_diagonal(&flip);
    let p = DtmBuilder::new(a, vec![1.0; side * side])
        .grid_strips(side, side, 3)
        .termination(Termination::Residual { tol: TOL })
        .build()
        .expect("symmetric input builds");
    let owners: Vec<usize> = (0..p.split.n_parts())
        .filter(|&q| p.split.subdomains[q].global_of_local.contains(&row))
        .collect();
    assert_eq!(
        owners.len(),
        1,
        "the negated vertex is interior to one part"
    );
    (p, owners[0], row)
}

#[test]
fn an_indefinite_block_names_its_part_and_row_on_every_entry_point() {
    let (p, part, row) = indefinite_problem();
    let check = |what: &str, e: Error| match e {
        Error::PartNotPositiveDefinite {
            part: got_part,
            row: got_row,
            pivot,
        } => {
            assert_eq!((got_part, got_row), (part, row), "{what}");
            assert!(pivot < 0.0, "{what}: pivot {pivot}");
        }
        other => panic!("{what}: expected PartNotPositiveDefinite, got {other}"),
    };
    let ss = &p.split;
    let common = p.config.common.clone();
    let cols = vec![vec![1.0; ss.original_n], vec![2.0; ss.original_n]];
    let pool = pool(2);
    check("build_nodes", build_nodes(ss, &common).unwrap_err());
    check(
        "build_nodes_parallel",
        build_nodes_parallel(ss, &common, &pool).unwrap_err(),
    );
    check(
        "build_nodes_block",
        build_nodes_block(ss, &common, &cols).unwrap_err(),
    );
    check(
        "build_nodes_block_parallel",
        build_nodes_block_parallel(ss, &common, &cols, &pool).unwrap_err(),
    );
    let z = per_port(ss, &common.impedance.assign(ss).expect("assigns at s = 1"));
    check(
        "build_node",
        build_node(&ss.subdomains[part], &z[part], &common).unwrap_err(),
    );
    check("simulated", p.solve().unwrap_err());
    check("rolling", p.rolling(2).expect_err("session build fails"));
    check(
        "rolling_workstealing",
        p.rolling_workstealing(2, 1)
            .err()
            .expect("session build fails"),
    );
    check(
        "rolling_threaded",
        p.rolling_threaded(2).err().expect("session build fails"),
    );
    check(
        "pool",
        p.solve_workstealing(&RayonConfig {
            common: common.clone(),
            ..Default::default()
        })
        .unwrap_err(),
    );
    check(
        "threaded",
        p.solve_threaded(&ThreadedConfig {
            common,
            ..Default::default()
        })
        .unwrap_err(),
    );
}

#[test]
fn a_singular_input_takes_the_fallback_and_ends_unconverged() {
    // Pure Neumann conductance grid: D^½·1 is the null vector, μ̂ is
    // rounding noise around 0, and the port admittances keep every local
    // matrix factorable — so nothing fails at build time and the run ends
    // the way it always did: an honest unconverged report.
    let side = 10;
    let a = generators::grid2d_conductance(side, side, |_, _| 1.0, 0.0);
    let b = generators::random_rhs(side * side, 9);
    let mut p = problem(a, b, 4);
    let m = Matching::of(&p.split);
    assert_eq!(m.scale, 1.0, "{m:?}");
    assert!(m.mu.abs() < 1e-12, "{m:?}");
    let z = ImpedancePolicy::Matched.assign(&p.split).expect("assigns");
    let at_one = ImpedancePolicy::GeometricMean { scale: 1.0 }
        .assign(&p.split)
        .expect("assigns");
    assert_eq!(bits(&z), bits(&at_one));

    p.config.common.max_solves_per_node = 200;
    let common = p.config.common.clone();
    let sim = p.solve().expect("runs to its cap");
    assert!(!sim.converged && sim.final_residual.is_finite(), "{sim:?}");
    let budget = Duration::from_millis(300);
    let pool = p
        .solve_workstealing(&RayonConfig {
            common: common.clone(),
            num_threads: 2,
            budget,
        })
        .expect("runs to its cap or budget");
    assert!(!pool.converged && pool.final_residual.is_finite());
    let threaded = p
        .solve_threaded(&ThreadedConfig {
            common,
            budget,
            ..Default::default()
        })
        .expect("runs to its cap or budget");
    assert!(!threaded.converged && threaded.final_residual.is_finite());
}
