//! Block–scalar equivalence properties for multi-RHS solves.
//!
//! The block-wave design rests on one invariant: the columns of a K-RHS
//! solve never interact. Each column's waves undergo exactly the scalar
//! arithmetic (the kernels are bitwise column-stacks of the scalar
//! substitutions, the wave payloads carry one value per column), so a
//! K-column block solve must equal K independent scalar solves column for
//! column — on every backend. These properties pin that down on random SPD
//! systems.

mod common;

use common::random_grid_split as grid_split;
use dtm_repro::core::rayon_backend::{self, RayonConfig};
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{self, ComputeModel, DtmConfig};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

fn sim_config(tol: f64) -> DtmConfig {
    DtmConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
        horizon: SimDuration::from_millis_f64(3_600_000.0),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Kernel level: the block substitution of both Cholesky factors is a
    /// bitwise column-stack of scalar substitutions on random SPD systems.
    #[test]
    fn block_substitution_is_bitwise_scalar_stack(
        side in 3usize..8,
        k in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let a = generators::grid2d_random(side, side, 1.0, seed);
        let n = a.n_rows();
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| generators::random_rhs(n, seed + 10 + c as u64))
            .collect();
        let dense = dtm_repro::sparse::DenseCholesky::factor_csr(&a).expect("SPD");
        let sparse = dtm_repro::sparse::SparseCholesky::factor_rcm(&a).expect("SPD");
        let mut dense_block: Vec<f64> = cols.iter().flatten().copied().collect();
        let mut sparse_block = dense_block.clone();
        dense.solve_block_in_place(&mut dense_block, k);
        sparse.solve_block_in_place(&mut sparse_block, k);
        for (c, col) in cols.iter().enumerate() {
            let mut xd = col.clone();
            dense.solve_in_place(&mut xd);
            prop_assert_eq!(&dense_block[c * n..(c + 1) * n], &xd[..]);
            let mut xs = col.clone();
            sparse.solve_in_place(&mut xs);
            prop_assert_eq!(&sparse_block[c * n..(c + 1) * n], &xs[..]);
        }
    }

    /// Simulated backend on random SPD systems: a K-column block run
    /// matches K independent scalar runs column for column (both driven
    /// two orders below the comparison tolerance; only the stopping
    /// instant differs — the deterministic Example 5.1 test below pins the
    /// bitwise version, where identical horizons make the runs replay the
    /// same schedule).
    #[test]
    fn simnet_block_equals_k_scalar_runs(
        side in 4usize..7,
        k in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let ss = grid_split(side, 2, seed);
        let n = side * side;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| generators::random_rhs(n, seed + 100 + c as u64))
            .collect();
        let topo = || Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = sim_config(1e-8);
        let block = solver::solve_block(&ss, topo(), &cols, None, &config).expect("block run");
        prop_assert!(block.converged, "block rms {}", block.final_rms);
        prop_assert_eq!(block.n_rhs, k);
        for (c, col) in cols.iter().enumerate() {
            let scalar = solver::solve_block(
                &ss,
                topo(),
                std::slice::from_ref(col),
                None,
                &config,
            )
            .expect("scalar run");
            prop_assert!(scalar.converged, "scalar col {c} rms {}", scalar.final_rms);
            for (i, (u, v)) in block.solutions[c].iter().zip(&scalar.solution).enumerate() {
                prop_assert!(
                    (u - v).abs() < 1e-6,
                    "col {c} x[{i}]: block {u} vs scalar {v}"
                );
            }
        }
    }
}

/// The acceptance-grade equivalence, made exact: run the block and the K
/// scalar solves for the **same simulated duration** (LocalDelta with
/// tol 0 never fires, so every run is horizon-stopped). The deterministic
/// engine then replays the identical event schedule, and since block
/// columns never interact the block run is **bitwise identical** per
/// column to the scalar runs — far inside the 1e-12 requirement.
#[test]
fn simnet_example_5_1_block_is_bitwise_k_scalar_runs() {
    let (_, b) = generators::paper_example_system();
    let ss = common::example_5_1_split();
    let cols: Vec<Vec<f64>> = std::iter::once(b)
        .chain((0..7).map(|c| generators::random_rhs(4, 300 + c)))
        .collect();
    let topo = || Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
    let config = DtmConfig {
        common: CommonConfig {
            impedance: dtm_repro::core::ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            // tol 0: the delta rule can never fire — every run ends at the
            // horizon, after the identical number of exchanges.
            termination: Termination::LocalDelta {
                tol: 0.0,
                patience: 2,
            },
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
        horizon: SimDuration::from_millis_f64(500.0),
        ..Default::default()
    };
    let block = solver::solve_block(&ss, topo(), &cols, None, &config).expect("block run");
    assert_eq!(block.n_rhs, 8);
    assert!(
        block.final_rms < 1e-10,
        "500 simulated ms must be deep in convergence, rms {}",
        block.final_rms
    );
    for (c, col) in cols.iter().enumerate() {
        let scalar = solver::solve_block(&ss, topo(), std::slice::from_ref(col), None, &config)
            .expect("scalar run");
        assert_eq!(
            block.solutions[c], scalar.solution,
            "column {c} must be bitwise the scalar run"
        );
        assert_eq!(block.total_solves, scalar.total_solves);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Real-execution backends: a 2-column block solve agrees with two
    /// independent scalar solves column for column (to the oracle
    /// tolerance both runs are driven below — wall-clock schedules are
    /// nondeterministic, so the comparison is through the shared fixed
    /// point, not bitwise).
    #[test]
    fn wallclock_backends_block_equals_scalar_columns(seed in 0u64..1_000) {
        let side = 6;
        let ss = grid_split(side, 2, seed);
        let n = side * side;
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| generators::random_rhs(n, seed + 200 + c as u64))
            .collect();
        let tol = 1e-9;

        let tconfig = ThreadedConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        };
        let rconfig = RayonConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..RayonConfig::default().common
            },
            num_threads: 2,
            budget: Duration::from_secs(60),
        };

        let tblock = threaded::solve_block(&ss, &cols, None, &tconfig).expect("threaded block");
        let rblock =
            rayon_backend::solve_block(&ss, &cols, None, &rconfig).expect("stealing block");
        prop_assert!(tblock.converged, "threaded rms {}", tblock.final_rms);
        prop_assert!(rblock.converged, "stealing rms {}", rblock.final_rms);
        for (c, col) in cols.iter().enumerate() {
            let tscalar = threaded::solve_block(
                &ss,
                std::slice::from_ref(col),
                None,
                &tconfig,
            )
            .expect("threaded scalar");
            let rscalar = rayon_backend::solve_block(
                &ss,
                std::slice::from_ref(col),
                None,
                &rconfig,
            )
            .expect("stealing scalar");
            prop_assert!(tscalar.converged && rscalar.converged);
            for (u, v) in tblock.solutions[c].iter().zip(&tscalar.solution) {
                prop_assert!((u - v).abs() < 1e-6, "threaded col {c}: {u} vs {v}");
            }
            for (u, v) in rblock.solutions[c].iter().zip(&rscalar.solution) {
                prop_assert!((u - v).abs() < 1e-6, "stealing col {c}: {u} vs {v}");
            }
        }
    }
}
