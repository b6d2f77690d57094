//! DTM on real OS threads: genuine asynchrony with `std` channels and
//! injected heterogeneous link delays — no simulation, no barrier, no
//! global clock.
//!
//! ```sh
//! cargo run --release --example threaded_async
//! ```

use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::threaded::{self, ThreadedConfig};
use dtm_repro::graph::evs::{split, EvsOptions};
use dtm_repro::graph::{partition, ElectricGraph, PartitionPlan};
use dtm_repro::simnet::{DelayModel, Topology};
use dtm_repro::sparse::generators;
use std::time::Duration;

fn main() {
    let side = 20;
    let k = 4; // four worker threads
    let a = generators::grid2d_random(side, side, 1.0, 77);
    let b = generators::random_rhs(side * side, 78);
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, k))
        .expect("valid plan");
    let ss = split(&g, &plan, &EvsOptions::default()).expect("valid split");

    // Inject 10–99 "ms" delays scaled down 1000× (so they become 10–99 µs
    // of real sleeping) through the router thread.
    let machine = Topology::ring(k).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 5));
    let config = ThreadedConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-8 },
            ..ThreadedConfig::default().common
        },
        budget: Duration::from_secs(30),
        delay_topology: Some(machine),
        delay_scale: 1e-3,
    };

    let report = threaded::solve(&ss, &config).expect("threads run");
    println!(
        "{} threads converged = {} in {:.1} ms wall-clock",
        k, report.converged, report.final_time_ms
    );
    println!(
        "{} local solves, {} messages, final RMS {:.2e}, residual {:.2e}",
        report.total_solves,
        report.total_messages,
        report.final_rms,
        a.residual_norm(&report.solution, &b)
    );
    assert!(report.converged);
}
