//! Streaming multi-RHS solves: factor once, serve batches forever.
//!
//! The paper's §5 observation — the local coefficient matrices are
//! constant, so "only once factorization should be done at the beginning"
//! — means additional right-hand sides are nearly free. This example opens
//! a [`RollingSession`](dtm_repro::core::RollingSession), then streams three
//! batches of right-hand sides through the *same* factorizations, wave
//! routes and live exchange: each ticket is admitted into a free column
//! slot and retires at its own tolerance.
//!
//! ```sh
//! cargo run --release --example streaming_session
//! ```

use dtm_repro::core::solver::Termination;
use dtm_repro::simnet::SimDuration;
use dtm_repro::sparse::generators;
use dtm_repro::DtmBuilder;

fn main() {
    // A 2-D grid Laplacian torn into 2×2 blocks on a 4-processor mesh.
    let side = 12;
    let n = side * side;
    let a = generators::grid2d_laplacian(side, side);
    let problem = DtmBuilder::new(a.clone(), vec![1.0; n])
        .grid_blocks(side, side, 2, 2)
        .build()
        .expect("valid SPD problem");

    // Factor-once happens here — the only expensive step in the program.
    let mut session = problem.rolling(16).expect("factors");
    let rule = Termination::OracleRms { tol: 1e-8 };

    println!(
        "{:>6} {:>6} {:>12} {:>14} {:>12}",
        "batch", "K", "sim t [ms]", "sim t/RHS [ms]", "worst rms"
    );
    let mut served = 0;
    for (batch, k) in [1usize, 4, 16].into_iter().enumerate() {
        let start_ms = session.now().as_millis_f64();
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| generators::random_rhs(n, (batch * 100 + c) as u64))
            .collect();
        for b in &cols {
            session.submit(b, rule).expect("dimension ok");
        }
        // Only the wave exchange runs: the K columns share each substitution.
        let mut reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        reports.sort_by_key(|r| r.ticket);
        assert_eq!(reports.len(), k, "batch {batch} must complete");
        let mut worst_rms = 0.0_f64;
        let mut done_ms = start_ms;
        for (r, b) in reports.iter().zip(&cols) {
            let residual = a.residual_norm(&r.solution, b);
            assert!(
                residual < 1e-5,
                "batch {batch} ticket {}: residual {residual}",
                r.ticket
            );
            worst_rms = worst_rms.max(r.final_rms.expect("oracle ticket"));
            done_ms = done_ms.max(r.completed_at_ms);
        }
        served += k;
        println!(
            "{:>6} {:>6} {:>12.1} {:>14.2} {:>12.2e}",
            batch,
            k,
            done_ms - start_ms,
            (done_ms - start_ms) / k as f64,
            worst_rms
        );
    }
    println!(
        "\n{served} RHS served across 3 batches over one factorization and one \
         live exchange — the streaming path to serving traffic"
    );
}
