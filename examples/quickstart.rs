//! Quickstart: solve a sparse SPD system with DTM in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dtm_repro::core::rayon_backend::RayonConfig;
use dtm_repro::core::solver::Termination;
use dtm_repro::core::Machine;
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;

fn main() {
    // A 2-D grid system with random conductances: n = 225 unknowns.
    let a = generators::grid2d_random(15, 15, 1.0, 42);
    let b = generators::random_rhs(a.n_rows(), 43);

    // Tear it into 2×2 blocks, run DTM on a 4-processor mesh (1 ms links).
    let problem = DtmBuilder::new(a.clone(), b.clone())
        .grid_blocks(15, 15, 2, 2)
        .termination(Termination::OracleRms { tol: 1e-8 })
        .build()
        .expect("valid SPD problem");
    let mesh = Machine::Simulated {
        topology: problem.topology.clone(),
        config: problem.config.clone(),
    };
    let report = problem.solve(&mesh).expect("runs");

    println!(
        "converged = {} after {} local solves / {} messages",
        report.converged, report.total_solves, report.total_messages
    );
    println!(
        "simulated time {:.1} ms, final RMS error {:.2e}",
        report.final_time_ms, report.final_rms
    );
    let residual = a.residual_norm(&report.solution, &b);
    println!("residual ‖b − Ax‖ = {residual:.2e}");
    assert!(report.converged && residual < 1e-5);

    // The same torn system on this computer's cores: only the machine changes.
    let pool = Machine::Pool(RayonConfig {
        common: problem.config.common.clone(),
        ..Default::default()
    });
    let report = problem.solve(&pool).expect("runs");
    println!(
        "worker pool: converged = {} in {:.1} ms wall-clock",
        report.converged, report.final_time_ms
    );
    assert!(report.converged);
}
