//! Rolling-session equivalence: staggered mid-exchange admission must
//! produce the same answers as separate one-shot solves.
//!
//! The rolling subsystem admits right-hand sides into a **live** wave
//! exchange — a freshly admitted column starts from whatever stale
//! boundary waves are still in flight for the retired ticket it replaced.
//! Because each ticket only retires when the *exact* metric of the
//! gathered estimate meets its own tolerance, staleness may delay a stop
//! but can never corrupt a result: whatever the admission schedule, every
//! reported solution must agree (within its tolerance) with the direct
//! solution and with a separate one-shot solve of the same right-hand
//! side. Pinned here as proptests across all three executors.

mod common;

use dtm_repro::core::runtime::Termination;
use dtm_repro::core::DtmProblem;
use dtm_repro::simnet::SimDuration;
use dtm_repro::sparse::generators;
use proptest::prelude::*;
use std::time::Duration;

const SIDE: usize = 8;
const N: usize = SIDE * SIDE;

fn grid_problem() -> DtmProblem {
    common::grid_problem(SIDE, Termination::Residual { tol: 1e-8 })
}

/// The workload a case serves: seeded right-hand sides with alternating
/// stopping rules (mixed tolerances in one session).
fn workload(seed: u64, count: usize, tol: f64) -> Vec<(Vec<f64>, Termination)> {
    (0..count)
        .map(|i| {
            let b = generators::random_rhs(N, seed.wrapping_mul(31).wrapping_add(i as u64));
            let termination = if i % 2 == 0 {
                Termination::Residual { tol }
            } else {
                Termination::OracleRms { tol }
            };
            (b, termination)
        })
        .collect()
}

/// Direct solutions of the reconstructed system — the one-shot target.
fn direct_solutions(problem: &DtmProblem, work: &[(Vec<f64>, Termination)]) -> Vec<Vec<f64>> {
    let (a, _) = problem.split.reconstruct();
    let factor = dtm_repro::sparse::SparseCholesky::factor_rcm(&a).expect("SPD");
    work.iter().map(|(b, _)| factor.solve(b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Simulated machine: random staggering between submissions (including
    /// zero gaps — several tickets racing into the same exchange) must not
    /// change any ticket's answer beyond its tolerance.
    #[test]
    fn sim_rolling_staggered_equals_one_shot(
        seed in 0u64..1_000,
        gaps in proptest::collection::vec(0u8..3, 2..5),
    ) {
        let problem = grid_problem();
        let work = workload(seed, gaps.len(), 1e-8);
        let direct = direct_solutions(&problem, &work);
        let mut session = problem.rolling(2).expect("builds");
        let mut tickets = Vec::new();
        for ((b, termination), gap) in work.iter().zip(&gaps) {
            tickets.push(session.submit(b, *termination).expect("admissible"));
            // Staggered admission: let the live exchange run between
            // submissions (0 = race the next ticket in immediately).
            if *gap > 0 {
                let _ = session.run_for(SimDuration::from_millis_f64(*gap as f64 * 5.0));
            }
        }
        let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        prop_assert_eq!(reports.len(), work.len());
        for (i, ticket) in tickets.iter().enumerate() {
            let r = reports.iter().find(|r| r.ticket == *ticket).expect("reported");
            // Within-tolerance agreement with the direct one-shot answer:
            // a 1e-8 stop on this well-conditioned Laplacian leaves the
            // solutions equal to ~1e-6.
            for (u, v) in r.solution.iter().zip(&direct[i]) {
                prop_assert!(
                    (u - v).abs() < 1e-5,
                    "ticket {} entry: rolling {} vs one-shot {}", i, u, v
                );
            }
            prop_assert!(r.final_residual.is_finite());
        }
    }

    /// The rolling answer also matches a separate one-shot *DTM* solve of
    /// the same right-hand side (a fresh exchange per solve) — not just the
    /// direct oracle.
    #[test]
    fn sim_rolling_matches_separate_one_shot_dtm_solves(
        seed in 0u64..1_000,
    ) {
        let problem = grid_problem();
        let work = workload(seed, 3, 1e-8);
        // Separate one-shot solves: one exchange per RHS, batch barrier of 1.
        let mut singles = Vec::new();
        for (b, _) in &work {
            let report = problem.solve_block(std::slice::from_ref(b)).expect("converges");
            prop_assert!(report.converged);
            singles.push(report.solution.clone());
        }
        // Rolling: all three race into two slots of one live exchange.
        let mut session = problem.rolling(2).expect("builds");
        let mut tickets = Vec::new();
        for (b, termination) in &work {
            tickets.push(session.submit(b, *termination).expect("admissible"));
        }
        let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        prop_assert_eq!(reports.len(), work.len());
        for (i, ticket) in tickets.iter().enumerate() {
            let r = reports.iter().find(|r| r.ticket == *ticket).expect("reported");
            for (u, v) in r.solution.iter().zip(&singles[i]) {
                prop_assert!(
                    (u - v).abs() < 2e-5,
                    "ticket {} entry: rolling {} vs one-shot DTM {}", i, u, v
                );
            }
        }
    }
}

proptest! {
    // Real executors are wall-clock bound; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Threaded executor: staggered real-time admission, same contract.
    #[test]
    fn threaded_rolling_staggered_equals_one_shot(
        seed in 0u64..1_000,
        stagger in proptest::collection::vec(0u8..2, 2..4),
    ) {
        let problem = grid_problem();
        let work = workload(seed, stagger.len(), 1e-7);
        let direct = direct_solutions(&problem, &work);
        let mut session = problem.rolling_threaded(2).expect("spawns");
        let mut tickets = Vec::new();
        for ((b, termination), gap) in work.iter().zip(&stagger) {
            tickets.push(session.submit(b, *termination).expect("admissible"));
            if *gap > 0 {
                std::thread::sleep(Duration::from_millis(*gap as u64));
            }
        }
        let reports = session.drain(Duration::from_secs(60));
        session.finish();
        prop_assert_eq!(reports.len(), work.len());
        for (i, ticket) in tickets.iter().enumerate() {
            let r = reports.iter().find(|r| r.ticket == *ticket).expect("reported");
            for (u, v) in r.solution.iter().zip(&direct[i]) {
                prop_assert!(
                    (u - v).abs() < 1e-4,
                    "ticket {} entry: rolling {} vs one-shot {}", i, u, v
                );
            }
        }
    }

    /// Work-stealing executor: same contract on the pool.
    #[test]
    fn workstealing_rolling_staggered_equals_one_shot(
        seed in 0u64..1_000,
        stagger in proptest::collection::vec(0u8..2, 2..4),
    ) {
        let problem = grid_problem();
        let work = workload(seed, stagger.len(), 1e-7);
        let direct = direct_solutions(&problem, &work);
        let mut session = problem.rolling_workstealing(2, 2).expect("spawns");
        let mut tickets = Vec::new();
        for ((b, termination), gap) in work.iter().zip(&stagger) {
            tickets.push(session.submit(b, *termination).expect("admissible"));
            if *gap > 0 {
                std::thread::sleep(Duration::from_millis(*gap as u64));
            }
        }
        let reports = session.drain(Duration::from_secs(60));
        session.finish();
        prop_assert_eq!(reports.len(), work.len());
        for (i, ticket) in tickets.iter().enumerate() {
            let r = reports.iter().find(|r| r.ticket == *ticket).expect("reported");
            for (u, v) in r.solution.iter().zip(&direct[i]) {
                prop_assert!(
                    (u - v).abs() < 1e-4,
                    "ticket {} entry: rolling {} vs one-shot {}", i, u, v
                );
            }
        }
    }
}
