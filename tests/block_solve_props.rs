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
use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{ComputeModel, DtmConfig};
use dtm_repro::core::{DtmProblem, Machine};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

/// A 2-processor ring with 1 ms links and a 100 µs activation, oracle
/// RMS ≤ `tol`.
fn sim_machine(tol: f64) -> Machine {
    Machine::Simulated {
        topology: Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0)),
        config: DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        },
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
        let p = DtmProblem::of_split(grid_split(side, 2, seed));
        let n = side * side;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| generators::random_rhs(n, seed + 100 + c as u64))
            .collect();
        let machine = sim_machine(1e-8);
        let block = p.solve_block(&cols, &machine).expect("block run");
        prop_assert!(block.converged, "block rms {}", block.final_rms);
        prop_assert_eq!(block.n_rhs, k);
        for (c, col) in cols.iter().enumerate() {
            let scalar = p
                .solve_block(std::slice::from_ref(col), &machine)
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
    let p = DtmProblem::of_split(common::example_5_1_split());
    let cols: Vec<Vec<f64>> = std::iter::once(b)
        .chain((0..7).map(|c| generators::random_rhs(4, 300 + c)))
        .collect();
    let topology = Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
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
    let machine = Machine::Simulated { topology, config };
    let block = p.solve_block(&cols, &machine).expect("block run");
    assert_eq!(block.n_rhs, 8);
    assert!(
        block.final_rms < 1e-10,
        "500 simulated ms must be deep in convergence, rms {}",
        block.final_rms
    );
    for (c, col) in cols.iter().enumerate() {
        let scalar = p
            .solve_block(std::slice::from_ref(col), &machine)
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
        let p = DtmProblem::of_split(grid_split(side, 2, seed));
        let n = side * side;
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| generators::random_rhs(n, seed + 200 + c as u64))
            .collect();
        let common = CommonConfig {
            termination: Termination::OracleRms { tol: 1e-9 },
            ..RayonConfig::default().common
        };
        // The pool behind the delay router (1 ms links scaled to 1 µs),
        // and bare on two workers.
        let links = Topology::complete(2).with_delays(&DelayModel::fixed_ms(1.0));
        let machines = [
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
        ];
        for machine in &machines {
            let block = p.solve_block(&cols, machine).expect("block run");
            let what = block.backend;
            prop_assert!(block.converged, "{:?} rms {}", what, block.final_rms);
            for (c, col) in cols.iter().enumerate() {
                let scalar = p
                    .solve_block(std::slice::from_ref(col), machine)
                    .expect("scalar run");
                prop_assert!(scalar.converged);
                for (u, v) in block.solutions[c].iter().zip(&scalar.solution) {
                    prop_assert!((u - v).abs() < 1e-6, "{:?} col {c}: {u} vs {v}", what);
                }
            }
        }
    }
}
