//! DTM on the wall clock with injected heterogeneous link delays: the
//! worker pool behind the delay router — no simulation, no barrier, no
//! global clock.
//!
//! ```sh
//! cargo run --release --example threaded_async
//! ```

use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::runtime::{CommonConfig, Termination};
use dtm_repro::core::Machine;
use dtm_repro::simnet::{DelayModel, Topology};
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;
use std::time::Duration;

fn main() {
    let side = 20;
    let k = 4; // four parts
    let a = generators::grid2d_random(side, side, 1.0, 77);
    let b = generators::random_rhs(side * side, 78);
    let problem = DtmBuilder::new(a.clone(), b.clone())
        .grid_strips(side, side, k)
        .build()
        .expect("valid problem");

    // Inject 10–99 "ms" delays scaled down 1000× (so they become 10–99 µs
    // of real waiting) through the router in front of the pool.
    let machine = Topology::ring(k).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 5));
    let routed = Machine::Pool(RayonConfig {
        common: CommonConfig {
            termination: Termination::OracleRms { tol: 1e-8 },
            ..RayonConfig::default().common
        },
        budget: Duration::from_secs(30),
        delay_topology: Some(machine),
        delay_scale: 1e-3,
        ..Default::default()
    });

    let report = problem.solve(&routed).expect("routed run");
    println!(
        "{} parts converged = {} in {:.1} ms wall-clock",
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
