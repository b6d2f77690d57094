//! Shared integration-test fixtures: the paper's Example 5.1 split, the
//! grid Laplacian / random-conductance splits, and the builder-level grid
//! problem — deduplicated from the copies that used to be inlined across
//! `backend_equivalence.rs`, `rolling_session.rs`,
//! `residual_termination.rs` and friends. Each test binary compiles its
//! own copy of this module (`mod common;`), so unused helpers per binary
//! are expected.
#![allow(dead_code)]

use dtm_repro::core::runtime::Termination;
use dtm_repro::core::solver::DtmConfig;
use dtm_repro::core::{DtmBuilder, DtmProblem, Machine, SolveReport};
use dtm_repro::graph::evs::{paper_example_shares, split, EvsOptions, SplitSystem};
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::Topology;
use dtm_repro::sparse::{generators, Csr};

/// The paper's Example 4.1/5.1 split of system (3.2): two subdomains,
/// explicit source shares (Z₂ = 0.2, Z₃ = 0.1 are chosen by the caller's
/// impedance policy).
pub fn example_5_1_split() -> SplitSystem {
    let (a, b) = generators::paper_example_system();
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).expect("valid");
    let options = EvsOptions {
        explicit: paper_example_shares(),
        ..Default::default()
    };
    split(&g, &plan, &options).expect("paper split")
}

/// A `side × side` 2-D grid Laplacian with a seeded random right-hand
/// side, torn into `parts` strips.
pub fn laplacian_split(side: usize, parts: usize, rhs_seed: u64) -> SplitSystem {
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, rhs_seed);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, parts))
        .expect("valid");
    split(&g, &plan, &EvsOptions::default()).expect("splits")
}

/// The EVS split of [`random_grid_system`]'s exact triple — the baselines
/// partition the raw system, DTM tears this split; both views solve the
/// same `A x = b` by construction.
pub fn random_grid_split(side: usize, parts: usize, seed: u64) -> SplitSystem {
    let (a, b, asg) = random_grid_system(side, parts, seed);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    split(&g, &plan, &EvsOptions::default()).expect("splits")
}

/// Direct solution of the split's reconstructed system, computed by the
/// TEST (the solver under test never sees it). Returns `(x*, b)`.
pub fn direct_solution(ss: &SplitSystem) -> (Vec<f64>, Vec<f64>) {
    let (a, b) = ss.reconstruct().unwrap();
    let x = dtm_repro::sparse::SparseCholesky::factor_rcm(&a)
        .expect("SPD")
        .solve(&b);
    (x, b)
}

/// DTM on `split` on `machine`, the oracle reference (where the rule needs
/// one) solved by the run.
pub fn solve_on(split: &SplitSystem, machine: &Machine) -> SolveReport {
    DtmProblem::of_split(split.clone())
        .solve(machine)
        .expect("runs")
}

/// DTM on the simulated machine `topology` under `config`.
pub fn simulated(split: &SplitSystem, topology: Topology, config: DtmConfig) -> SolveReport {
    solve_on(split, &Machine::Simulated { topology, config })
}

/// The simulated machine the builder chose for `p`.
pub fn own_machine(p: &DtmProblem) -> Machine {
    Machine::Simulated {
        topology: p.topology.clone(),
        config: p.config.clone(),
    }
}

/// The builder-level `side × side` grid-Laplacian problem torn 2×2 (unit
/// right-hand side) under `termination` — the rolling-session and
/// baseline-equivalence workload.
pub fn grid_problem(side: usize, termination: Termination) -> DtmProblem {
    let a = generators::grid2d_laplacian(side, side);
    DtmBuilder::new(a, vec![1.0; side * side])
        .grid_blocks(side, side, 2, 2)
        .termination(termination)
        .build()
        .expect("builds")
}

/// A seeded random-conductance grid system (not split): the raw
/// `(A, b, strip assignment)` triple the point baselines partition
/// directly.
pub fn random_grid_system(side: usize, parts: usize, seed: u64) -> (Csr, Vec<f64>, Vec<usize>) {
    let a = generators::grid2d_random(side, side, 1.0, seed);
    let b = generators::random_rhs(side * side, seed + 1);
    let asg = partition::grid_strips(side, side, parts);
    (a, b, asg)
}
