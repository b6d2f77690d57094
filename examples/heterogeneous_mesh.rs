//! DTM on the paper's "terrible" machine: 16 processors in a 4×4 mesh with
//! asymmetric delays between 10 ms and 99 ms (Fig. 11), solving a random
//! sparse SPD system with n = 1089 unknowns, using the *distributed*
//! termination rule (every processor halts itself; no oracle, no barrier).
//!
//! ```sh
//! cargo run --release --example heterogeneous_mesh
//! ```

use dtm_repro::core::solver::{ComputeModel, Termination};
use dtm_repro::core::Machine;
use dtm_repro::simnet::{DelayModel, SimDuration, Topology};
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;

fn main() {
    let side = 33; // n = 1089, one of the paper's sizes
    let a = generators::grid2d_random(side, side, 1.0, 2008);
    let b = generators::random_rhs(side * side, 2009);

    let machine = Topology::mesh(4, 4).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 1108));
    let (lo, hi) = machine.delay_range();
    println!(
        "machine: 4×4 mesh, asymmetric delays {:.0}–{:.0} ms (ratio {:.1}×, asymmetry {:.2})",
        lo.as_millis_f64(),
        hi.as_millis_f64(),
        hi.as_millis_f64() / lo.as_millis_f64(),
        machine.asymmetry()
    );

    let compute = ComputeModel::Fixed(SimDuration::from_millis_f64(1.0));
    let problem = DtmBuilder::new(a.clone(), b.clone())
        .grid_blocks(side, side, 4, 4)
        .network(machine.clone())
        .compute(compute)
        // Fully distributed stop: each processor breaks on its own
        // (Table 1 step 3.3) — nothing global anywhere.
        .termination(Termination::LocalDelta {
            tol: 1e-9,
            patience: 5,
        })
        .horizon(SimDuration::from_millis_f64(600_000.0))
        .build()
        .expect("valid problem");
    let mesh = Machine::Simulated {
        topology: machine.clone(),
        config: problem.config.clone(),
    };
    let report = problem.solve(&mesh).expect("runs");

    println!(
        "stopped via {:?} at t = {:.0} ms (simulated)",
        report.stop, report.final_time_ms
    );
    println!(
        "{} local solves, {} N2N messages, {} coalesced batches",
        report.total_solves, report.total_messages, report.coalesced_batches
    );
    println!(
        "final RMS error {:.2e}, residual {:.2e}",
        report.final_rms,
        a.residual_norm(&report.solution, &b)
    );
    assert!(report.final_rms < 1e-5);

    // The synchronous alternative on the same mesh: lock-step rounds (VTM),
    // each priced at the slowest solve plus a 99 ms exchange and a 99 ms
    // barrier.
    let rounds = Machine::LockStep {
        common: problem.config.common.clone(),
        price: Some((machine, compute)),
    };
    let vtm = problem.solve(&rounds).expect("runs");
    println!(
        "VTM: {} rounds, {:.0} ms (simulated), final RMS error {:.2e}",
        vtm.series.len(),
        vtm.final_time_ms,
        vtm.final_rms
    );
    assert!(vtm.final_rms < 1e-5);
}
