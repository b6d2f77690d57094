//! The port path of [`LocalSolverKind::Auto`]: a part above the dense
//! limit whose `m` distinct port vertices satisfy `m² ≤ 2·nnz(L)` steps
//! through its dense port block `G = Â⁻¹[pv, pv]` and completes its
//! interior only when the solution is read.
//!
//! * On random 2-D SPD grids torn into blocks, a port step's `(u, ω)`
//!   match a full solve's to rounding, a `K = 8` port step is bitwise a
//!   stack of 8 scalar ones, and a read after a step is bitwise a fresh
//!   full solve of the same state.
//! * The rule picks the port path on every part of the benchmark's 2-D
//!   system and on no part of its two 3-D systems.

use dtm_core::local::{LocalSolverKind, AUTO_DENSE_LIMIT};
use dtm_core::runtime::{build_nodes, CommonConfig};
use dtm_core::{DtmBuilder, LocalSystem};
use dtm_graph::evs::{split, EvsOptions, SplitSystem};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_sparse::{generators, Csr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An `side`² random-conductance grid torn into `blocks × blocks` blocks.
fn grid_split(side: usize, blocks: usize, seed: u64) -> SplitSystem {
    let a = generators::grid2d_random(side, side, 1.0, seed);
    let b = generators::random_rhs(side * side, seed ^ 0x5eed);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_blocks(side, side, blocks, blocks);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    split(&g, &plan, &EvsOptions::default()).expect("valid split")
}

/// Random incident waves on every port of every column.
fn set_waves(ls: &mut LocalSystem, rng: &mut StdRng) {
    for c in 0..ls.n_rhs() {
        for p in 0..ls.n_ports() {
            ls.set_remote_col(p, c, rng.gen_range(-2.0..2.0), rng.gen_range(-1.0..1.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn port_steps_are_the_full_solve_at_the_ports(
        side in 22usize..30,
        seed in 0u64..1_000_000,
    ) {
        let ss = grid_split(side, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for sd in &ss.subdomains {
            prop_assert!(sd.n_local() > AUTO_DENSE_LIMIT);
            let z: Vec<f64> = (0..sd.n_ports()).map(|_| rng.gen_range(0.2..5.0)).collect();
            let mut port = LocalSystem::new(sd, &z, LocalSolverKind::Auto).expect("SPD");
            prop_assert!(port.port_block().is_some(), "part {} on the port path", sd.part);
            // Two exchange steps, the second on fresh waves.
            for _ in 0..2 {
                set_waves(&mut port, &mut rng);
                let mut full = port.clone();
                port.solve_ports();
                full.solve();
                let scale = full.solution().iter().fold(1.0_f64, |m, v| m.max(v.abs()));
                for (p, z) in z.iter().enumerate() {
                    let ((u, om), (u_full, om_full)) = (port.outgoing(p), full.outgoing(p));
                    prop_assert!((u - u_full).abs() <= 1e-12 * scale, "u {u} vs {u_full}");
                    prop_assert!((om - om_full).abs() <= 1e-12 * scale / z, "ω {om} vs {om_full}");
                }
                // The read completes the interior: the full solve, bit for bit.
                prop_assert_eq!(port.solution(), full.solution());
                prop_assert_eq!(port.n_solves(), full.n_solves());
            }
        }
    }

    #[test]
    fn a_block_port_step_is_a_stack_of_scalar_ones(
        side in 22usize..30,
        seed in 0u64..1_000_000,
    ) {
        const K: usize = 8;
        let ss = grid_split(side, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sd = &ss.subdomains[rng.gen_range(0..ss.n_parts())];
        let z: Vec<f64> = (0..sd.n_ports()).map(|_| rng.gen_range(0.2..5.0)).collect();
        let cols: Vec<Vec<f64>> = (0..K)
            .map(|_| (0..sd.n_local()).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut block = LocalSystem::new_block(sd, &z, LocalSolverKind::Auto, &cols).expect("SPD");
        prop_assert!(block.port_block().is_some());
        let mut scalars: Vec<LocalSystem> = cols
            .iter()
            .map(|c| LocalSystem::new_block(sd, &z, LocalSolverKind::Auto, std::slice::from_ref(c)))
            .collect::<Result<_, _>>()
            .expect("SPD");
        for _ in 0..2 {
            set_waves(&mut block, &mut rng);
            for (c, scalar) in scalars.iter_mut().enumerate() {
                for p in 0..sd.n_ports() {
                    let w = block.incident_wave_col(p, c);
                    scalar.set_incident_wave(p, w);
                }
                scalar.solve_ports();
            }
            block.solve_ports();
            for (c, scalar) in scalars.iter().enumerate() {
                for p in 0..sd.n_ports() {
                    let (bu, bom) = block.outgoing_col(p, c);
                    let (su, som) = scalar.outgoing(p);
                    prop_assert_eq!((bu.to_bits(), bom.to_bits()), (su.to_bits(), som.to_bits()));
                }
                prop_assert_eq!(block.col_deltas()[c].to_bits(), scalar.last_delta().to_bits());
                prop_assert_eq!(block.solution_col(c), scalar.solution());
            }
        }
    }
}

/// A warm-started column swap on the port path scales the completed
/// solution and re-solves the column's base: the next step equals a
/// freshly built block's with the same state.
#[test]
fn a_swapped_column_steps_like_a_fresh_one() {
    let ss = grid_split(24, 2, 11);
    let sd = &ss.subdomains[3];
    let z = vec![0.7; sd.n_ports()];
    let mut rng = StdRng::seed_from_u64(3);
    let col = |rng: &mut StdRng| -> Vec<f64> {
        (0..sd.n_local())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect()
    };
    let cols = vec![col(&mut rng), col(&mut rng)];
    let mut block = LocalSystem::new_block(sd, &z, LocalSolverKind::Auto, &cols).expect("SPD");
    set_waves(&mut block, &mut rng);
    block.solve_ports();
    let before = block.solution_col(1).to_vec();
    let new_rhs = col(&mut rng);
    block.replace_rhs_col(1, &new_rhs, -0.5);
    let scaled: Vec<f64> = before.iter().map(|v| v * -0.5).collect();
    assert_eq!(
        block.solution_col(1),
        scaled,
        "the completed column, scaled"
    );
    let mut fresh =
        LocalSystem::new_block(sd, &z, LocalSolverKind::Auto, &[cols[0].clone(), new_rhs])
            .expect("SPD");
    for p in 0..sd.n_ports() {
        for c in 0..2 {
            let w = block.incident_wave_col(p, c);
            fresh.set_remote_col(p, c, w, 0.0);
        }
    }
    block.solve_ports();
    fresh.solve_ports();
    for p in 0..sd.n_ports() {
        assert_eq!(
            block.outgoing_col(p, 1),
            fresh.outgoing_col(p, 1),
            "port {p}"
        );
    }
    assert_eq!(block.solution(), fresh.solution());
}

/// The benchmark's right-hand side (unit load plus seeded noise), torn by
/// the default partitioner.
fn torn(a: Csr, parts: usize) -> SplitSystem {
    let mut b = generators::random_rhs(a.n_rows(), 2008);
    b.iter_mut().for_each(|v| *v += 1.0);
    DtmBuilder::new(a, b)
        .partition_auto(parts)
        .build()
        .expect("builds")
        .split
}

/// Which parts of a split take the port path, by building its nodes.
fn port_parts(split: &SplitSystem) -> Vec<bool> {
    build_nodes(split, &CommonConfig::default())
        .expect("factors")
        .iter()
        .map(|node| node.local().port_block().is_some())
        .collect()
}

#[test]
fn the_rule_picks_every_part_of_the_2d_benchmark() {
    let comm2d = port_parts(&torn(generators::grid2d_laplacian(96, 96), 72));
    assert_eq!(comm2d.len(), 72);
    assert!(comm2d.iter().all(|&p| p), "comm2d: {comm2d:?}");
}

#[test]
fn the_rule_picks_no_part_of_the_3d_benchmarks() {
    for (name, side, parts) in [("kernel3d", 32, 16), ("serve8", 24, 8)] {
        let split = torn(generators::grid3d_laplacian(side, side, side), parts);
        assert!(port_parts(&split).iter().all(|&p| !p), "{name}");
    }
}
