//! The paper's running example, end to end: system (3.2) → electric graph
//! (Fig. 3) → EVS at {V2, V3} (Example 4.1, Fig. 5) → DTLPs with the
//! Example 5.1 impedances and delays (Fig. 7) → asynchronous DTM run
//! (Fig. 8), printing every intermediate object with the paper's numbers.
//!
//! ```sh
//! cargo run --release --example circuit_tearing
//! ```

use dtm_repro::core::impedance::ImpedancePolicy;
use dtm_repro::core::runtime::CommonConfig;
use dtm_repro::core::solver::{ComputeModel, DtmConfig, Termination};
use dtm_repro::core::{DtmProblem, Machine};
use dtm_repro::graph::evs::{paper_example_shares, split, EvsOptions};
use dtm_repro::graph::{ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{Link, SimDuration, Topology};
use dtm_repro::sparse::generators;

fn main() {
    // --- §3: the electric graph of (3.2). -----------------------------
    let (a, b) = generators::paper_example_system();
    println!("system (3.2): A (4x4), b = {b:?}");
    let graph = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    for v in 0..graph.n() {
        println!(
            "  V{}: weight {}, source {}",
            v + 1,
            graph.vertex_weight(v),
            graph.source(v)
        );
    }

    // --- §4: EVS at the boundary {V2, V3}. -----------------------------
    let plan = PartitionPlan::from_assignment(&graph, &[0, 0, 1, 1]).expect("valid");
    println!(
        "\nEVS boundary: {:?} (split vertices)",
        plan.split_vertices().map(|v| v + 1).collect::<Vec<_>>()
    );
    let options = EvsOptions {
        explicit: paper_example_shares(), // the paper's exact 2.5/3.5 … split
        ..Default::default()
    };
    let ss = split(&graph, &plan, &options).expect("valid split");
    for sd in &ss.subdomains {
        println!(
            "subsystem ({}): {} unknowns, {} ports, rhs {:?}",
            if sd.part == 0 { "4.1" } else { "4.2" },
            sd.n_local(),
            sd.n_ports(),
            sd.rhs
        );
    }

    // --- §5: DTLPs + the two-processor machine of Fig. 7. --------------
    let topo = Topology::from_links(
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
    );
    println!("\nmachine: P_A → P_B = 6.7 µs, P_B → P_A = 2.9 µs (asymmetric)");
    println!("DTLP impedances: Z₂ = 0.2, Z₃ = 0.1 (Example 5.1)");

    // --- run DTM (Fig. 8). ----------------------------------------------
    let config = DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::OracleRms { tol: 1e-10 },
            ..Default::default()
        },
        compute: ComputeModel::Zero,
        horizon: SimDuration::from_millis_f64(5.0),
        ..Default::default()
    };
    let machine = Machine::Simulated {
        topology: topo.clone(),
        config: config.clone(),
    };
    let problem = DtmProblem {
        split: ss,
        topology: topo,
        config,
        reference: None,
    };
    let report = problem.solve(&machine).expect("paper example runs");
    let exact = dtm_repro::sparse::DenseCholesky::factor_csr(&a)
        .expect("SPD")
        .solve(&b);
    println!(
        "\nDTM converged = {} at t = {:.1} µs ({} local solves)",
        report.converged,
        report.final_time_ms * 1000.0,
        report.total_solves
    );
    println!("solution  {:?}", report.solution);
    println!("exact     {exact:?}");
    assert!(report.converged);
}
