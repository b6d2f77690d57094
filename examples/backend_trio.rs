//! One algorithm, three machines: solve the same torn system on the
//! simulated machine, on the worker pool behind the delay router (the same
//! ring's delays, scaled to microseconds) and on the bare pool, and print
//! the shared report vocabulary side by side.
//!
//! ```sh
//! cargo run --release --example backend_trio
//! ```

use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::runtime::Termination;
use dtm_repro::core::solver::ComputeModel;
use dtm_repro::core::{Machine, SolveReport};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;
use std::time::Duration;

fn main() {
    let (side, k) = (16, 4);
    let a = generators::grid2d_random(side, side, 1.0, 2024);
    let b = generators::random_rhs(side * side, 2025);
    // Tear once; the builder's machine is a 10–99 ms ring with 1 ms solves.
    let problem = DtmBuilder::new(a.clone(), b.clone())
        .grid_strips(side, side, k)
        .network(Topology::ring(k).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 7)))
        .compute(ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)))
        .horizon(SimDuration::from_millis_f64(3_600_000.0))
        .termination(Termination::OracleRms { tol: 1e-8 })
        .build()
        .expect("valid problem");

    // The machine is a value: the same problem on three of them.
    let common = problem.config.common.clone();
    let pool = RayonConfig {
        common,
        num_threads: 2,
        budget: Duration::from_secs(30),
        ..Default::default()
    };
    let machines = [
        (
            "simulated",
            Machine::Simulated {
                topology: problem.topology.clone(),
                config: problem.config.clone(),
            },
        ),
        (
            "routed pool",
            Machine::Pool(RayonConfig {
                delay_topology: Some(problem.topology.clone()),
                delay_scale: 1e-3,
                ..pool.clone()
            }),
        ),
        ("pool", Machine::Pool(pool)),
    ];

    println!(
        "{:>14} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "machine", "converged", "time [ms]", "solves", "messages", "rms"
    );
    for (name, machine) in &machines {
        let report = &problem.solve(machine).expect("solves");
        print_row(name, report);
        assert!(report.converged, "{:?} failed to converge", report.backend);
        let residual = a.residual_norm(&report.solution, &b);
        assert!(residual < 1e-5, "{:?}: residual {residual}", report.backend);
    }
    println!("\nall three machines agree with the direct solution (residual < 1e-5)");
    println!("(simulated time is virtual; the pool's, routed or not, is wall-clock)");
}

fn print_row(name: &str, r: &SolveReport) {
    println!(
        "{:>14} {:>10} {:>12.2} {:>10} {:>10} {:>12.2e}",
        name, r.converged, r.final_time_ms, r.total_solves, r.total_messages, r.final_rms
    );
}
