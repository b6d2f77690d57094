//! One algorithm, three machines: solve the same torn system on the
//! simulated, threaded and work-stealing executors and print the shared
//! report vocabulary side by side.
//!
//! ```sh
//! cargo run --release --example backend_trio
//! ```

use dtm_repro::core::rayon_backend::{self, RayonConfig};
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::solver::{self, ComputeModel, DtmConfig};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::core::SolveReport;
use dtm_repro::graph::evs::{split, EvsOptions};
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use std::time::Duration;

fn main() {
    let (side, k) = (16, 4);
    let a = generators::grid2d_random(side, side, 1.0, 2024);
    let b = generators::random_rhs(side * side, 2025);
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, k))
        .expect("valid plan");
    let ss = split(&g, &plan, &EvsOptions::default()).expect("valid split");
    let tol = 1e-8;
    let common = || CommonConfig {
        termination: Termination::OracleRms { tol },
        ..Default::default()
    };

    let sim = solver::solve(
        &ss,
        Topology::ring(k).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 7)),
        None,
        &DtmConfig {
            common: common(),
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        },
    )
    .expect("simulated backend");

    let threaded = threaded::solve(
        &ss,
        &ThreadedConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..ThreadedConfig::default().common
            },
            budget: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .expect("threaded backend");

    let stealing = rayon_backend::solve(
        &ss,
        &RayonConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol },
                ..RayonConfig::default().common
            },
            num_threads: 2,
            budget: Duration::from_secs(30),
        },
    )
    .expect("work-stealing backend");

    println!(
        "{:>14} {:>10} {:>12} {:>10} {:>10} {:>12}",
        "backend", "converged", "time [ms]", "solves", "messages", "rms"
    );
    for report in [&sim, &threaded, &stealing] {
        print_row(report);
        assert!(report.converged, "{:?} failed to converge", report.backend);
        let residual = a.residual_norm(&report.solution, &b);
        assert!(residual < 1e-5, "{:?}: residual {residual}", report.backend);
    }
    println!("\nall three executors agree with the direct solution (residual < 1e-5)");
    println!("(simulated time is virtual; threaded/work-stealing are wall-clock)");
}

fn print_row(r: &SolveReport) {
    println!(
        "{:>14} {:>10} {:>12.2} {:>10} {:>10} {:>12.2e}",
        format!("{:?}", r.backend),
        r.converged,
        r.final_time_ms,
        r.total_solves,
        r.total_messages,
        r.final_rms
    );
}
