//! Multilevel wire tearing (paper §4, Fig. 6): vertices split into more
//! than two copies — block-partition cross points — with DTLP trees aligned
//! to the machine, end to end through the solver.

mod common;

use dtm_repro::core::solver::{ComputeModel, Termination};
use dtm_repro::core::Machine;
use dtm_repro::graph::evs::{split, EvsOptions, TwinTopology};
use dtm_repro::graph::validate;
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;
use std::collections::BTreeSet;

#[test]
fn block_partition_produces_multiway_splits() {
    let side = 9;
    let a = generators::grid2d_laplacian(side, side);
    let g = ElectricGraph::from_system(a, vec![0.0; side * side]).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 3, 3);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let multi = plan
        .split_vertices()
        .filter(|&v| plan.owner(v).parts().len() >= 3)
        .count();
    assert!(multi > 0, "cross points must split ≥ 3 ways");
}

#[test]
fn chains_give_each_interior_copy_two_ports() {
    let side = 9;
    let a = generators::grid2d_laplacian(side, side);
    let b = vec![1.0; side * side];
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 3, 3);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let ss = split(&g, &plan, &EvsOptions::default()).expect("splits");
    // A ≥3-way chain has an interior copy carrying 2 ports.
    let has_two_port_vertex = ss.subdomains.iter().any(|sd| {
        let mut counts = std::collections::HashMap::new();
        for p in &sd.ports {
            *counts.entry(p.local_vertex).or_insert(0usize) += 1;
        }
        counts.values().any(|&c| c >= 2)
    });
    assert!(has_two_port_vertex);
    validate::check_wiring(&ss).expect("wiring");
}

#[test]
fn multilevel_dtm_converges_on_3x3_processor_mesh() {
    let side = 15;
    let a = generators::grid2d_random(side, side, 1.0, 303);
    let b = generators::random_rhs(side * side, 304);
    let machine = Topology::mesh(3, 3).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 5));
    let report = DtmBuilder::new(a.clone(), b.clone())
        .grid_blocks(side, side, 3, 3)
        .network(machine)
        .compute(ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)))
        .termination(Termination::OracleRms { tol: 1e-8 })
        .horizon(SimDuration::from_millis_f64(3_600_000.0))
        .solve()
        .expect("valid problem");
    assert!(report.converged, "rms {}", report.final_rms);
    assert!(a.residual_norm(&report.solution, &b) < 1e-5);
}

#[test]
fn tree_within_never_uses_missing_links() {
    let side = 12;
    let a = generators::grid2d_laplacian(side, side);
    let g = ElectricGraph::from_system(a, vec![0.0; side * side]).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 2, 3);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let machine = Topology::mesh(3, 2);
    let pairs: BTreeSet<(usize, usize)> = machine
        .links()
        .iter()
        .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
        .collect();
    let options = EvsOptions {
        twin_topology: TwinTopology::TreeWithin(pairs.clone()),
        ..Default::default()
    };
    let ss = split(&g, &plan, &options).expect("splits");
    for d in &ss.dtlps {
        let key = (d.a.part.min(d.b.part), d.a.part.max(d.b.part));
        assert!(pairs.contains(&key), "DTLP {key:?} has no machine link");
    }
}

#[test]
fn star_and_chain_topologies_converge_identically_in_the_limit() {
    // Different tree shapes change the iteration path but not the fixed
    // point.
    let side = 9;
    let a = generators::grid2d_random(side, side, 1.0, 305);
    let b = generators::random_rhs(side * side, 306);
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    let asg = partition::grid_blocks(side, side, 3, 3);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let mut solutions = Vec::new();
    for topo in [TwinTopology::Chain, TwinTopology::Star] {
        let options = EvsOptions {
            twin_topology: topo,
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).expect("splits");
        let vtm = Machine::LockStep {
            common: dtm_repro::core::CommonConfig {
                termination: dtm_repro::core::Termination::OracleRms { tol: 1e-11 },
                ..Default::default()
            },
            price: None,
        };
        let report = common::solve_on(&ss, &vtm);
        assert!(report.converged);
        solutions.push(report.solution);
    }
    for (u, v) in solutions[0].iter().zip(&solutions[1]) {
        assert!((u - v).abs() < 1e-8);
    }
}
