//! Serving-workload plumbing of `repro serve`: a seeded Poisson arrival
//! stream with mixed per-ticket tolerances, driven through the rolling
//! session under two admission policies — rolling (admission
//! mid-exchange, per-column completion) and the batch barrier (arrivals
//! wait for the running batch to drain, then share one exchange and one
//! tolerance).
//!
//! The serving metric is **per-RHS completion latency**: submission to
//! completion, in simulated milliseconds, per arrival. The rolling design
//! exists to lower it — a loose-tolerance ticket retires the moment *its*
//! residual crosses, instead of waiting for the tightest column of its
//! barrier batch.

use dtm_core::runtime::Termination;
use dtm_core::solver::ComputeModel;
use dtm_core::{DtmBuilder, DtmProblem};
use dtm_simnet::SimDuration;
use dtm_sparse::generators;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One arrival of the serving workload.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Simulated arrival instant, in milliseconds.
    pub at_ms: f64,
    /// The right-hand side.
    pub b: Vec<f64>,
    /// The ticket's own stopping rule.
    pub termination: Termination,
}

/// The tightest residual tolerance in the mixed traffic — the batch
/// baseline must run every batch at this tolerance (a barrier batch is
/// only done when its strictest member is).
pub const SERVE_TIGHT_TOL: f64 = 1e-6;

/// Default seed of the `repro serve` arrival trace (`repro serve --seed N`
/// overrides it; the same seed always reproduces the identical ticket
/// trace).
pub const SERVE_TRACE_SEED: u64 = 4_201;

/// The serving workload shape of `repro serve`:
/// `(arrival count, mean inter-arrival gap in simulated ms, rolling
/// slots)` — `quick` is the CI smoke variant.
pub fn serve_workload(quick: bool) -> (usize, f64, usize) {
    // Mean gap chosen near the single-ticket service time (~a few tens of
    // ms of simulated exchange): a loaded-but-not-saturated stream, where
    // admission policy — not raw throughput — decides the latency. The
    // slot pool is sized to the offered load.
    if quick {
        (12, 12.0, 4)
    } else {
        (36, 12.0, 8)
    }
}

/// The exact arrival trace `repro serve` drives for a given `--quick` /
/// `--seed` combination — deterministic per seed, so a run can be
/// reproduced ticket for ticket.
pub fn serve_trace(quick: bool, seed: u64) -> Vec<Arrival> {
    let (count, mean_gap_ms, _) = serve_workload(quick);
    poisson_trace(81, count, mean_gap_ms, seed)
}

/// The 9×9 grid-Laplacian serving problem (the acceptance benchmark),
/// torn 2×2, residual termination at the tightest traffic tolerance.
pub fn serve_problem() -> DtmProblem {
    let side = 9;
    let a = generators::grid2d_laplacian(side, side);
    DtmBuilder::new(a, vec![1.0; side * side])
        .grid_blocks(side, side, 2, 2)
        .termination(Termination::Residual {
            tol: SERVE_TIGHT_TOL,
        })
        .compute(ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)))
        .build()
        .expect("serving problem builds")
}

/// A seeded Poisson arrival stream: exponential inter-arrival gaps with
/// mean `mean_gap_ms`, right-hand sides seeded per arrival, tolerances
/// cycling through mixed traffic — tight residual, loose residual, oracle
/// RMS — so one stream exercises every admission path.
pub fn poisson_trace(n: usize, count: usize, mean_gap_ms: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0_f64;
    (0..count)
        .map(|i| {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -mean_gap_ms * (1.0 - u).ln();
            let termination = match i % 3 {
                0 => Termination::Residual {
                    tol: SERVE_TIGHT_TOL,
                },
                1 => Termination::Residual { tol: 1e-3 },
                _ => Termination::OracleRms { tol: 1e-7 },
            };
            Arrival {
                at_ms: t,
                b: generators::random_rhs(n, seed.wrapping_mul(1_000).wrapping_add(i as u64)),
                termination,
            }
        })
        .collect()
}

/// Serve `trace` through a rolling session with `slots` column slots;
/// returns per-arrival completion latency (ms of simulated time), in
/// arrival order.
///
/// # Panics
/// Panics if a ticket fails to complete within the drain budget.
pub fn serve_rolling(problem: &DtmProblem, trace: &[Arrival], slots: usize) -> Vec<f64> {
    let mut session = problem.rolling(slots).expect("rolling session builds");
    let mut reports = Vec::with_capacity(trace.len());
    for arrival in trace {
        let now = session.now().as_millis_f64();
        if arrival.at_ms > now {
            reports.extend(session.run_for(SimDuration::from_millis_f64(arrival.at_ms - now)));
        }
        session
            .submit(&arrival.b, arrival.termination)
            .expect("arrival admissible");
    }
    reports.extend(session.drain_for(SimDuration::from_millis_f64(600_000.0)));
    assert_eq!(
        reports.len(),
        trace.len(),
        "every ticket completes ({} outstanding)",
        session.outstanding()
    );
    let mut latencies = vec![f64::NAN; trace.len()];
    for r in &reports {
        latencies[r.ticket.0 as usize] = r.latency_ms();
    }
    assert!(latencies.iter().all(|l| l.is_finite()));
    latencies
}

/// Serve `trace` under the batch-barrier policy: arrivals queue while a
/// batch runs; when it drains, everything queued forms the next batch — a
/// fresh session with one slot per member, every ticket at
/// [`SERVE_TIGHT_TOL`] (the barrier pays the strictest member's tolerance
/// for every column). Returns per-arrival completion latency in arrival
/// order — each arrival completes at its batch's last retirement.
///
/// # Panics
/// Panics if a batch ticket fails to complete within the drain budget.
pub fn serve_batch(problem: &DtmProblem, trace: &[Arrival]) -> Vec<f64> {
    let tight = Termination::Residual {
        tol: SERVE_TIGHT_TOL,
    };
    let mut latencies = vec![0.0_f64; trace.len()];
    let mut clock = 0.0_f64;
    let mut next = 0;
    while next < trace.len() {
        // Idle until the next arrival if nothing is queued.
        clock = clock.max(trace[next].at_ms);
        let first = next;
        while next < trace.len() && trace[next].at_ms <= clock {
            next += 1;
        }
        let batch = &trace[first..next];
        let mut session = problem.rolling(batch.len()).expect("batch session builds");
        for arrival in batch {
            session
                .submit(&arrival.b, tight)
                .expect("arrival admissible");
        }
        let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        assert_eq!(reports.len(), batch.len(), "every batch ticket completes");
        clock += reports
            .iter()
            .fold(0.0_f64, |t, r| t.max(r.completed_at_ms));
        for (latency, arrival) in latencies[first..next].iter_mut().zip(batch) {
            *latency = clock - arrival.at_ms;
        }
    }
    latencies
}

/// `(mean, p50, max)` of a latency set.
pub fn latency_stats(latencies: &[f64]) -> (f64, f64, f64) {
    assert!(!latencies.is_empty());
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let p50 = sorted[sorted.len() / 2];
    let max = *sorted.last().expect("non-empty");
    (mean, p50, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_seeded_and_monotone() {
        let a = poisson_trace(81, 12, 5.0, 42);
        let b = poisson_trace(81, 12, 5.0, 42);
        let c = poisson_trace(81, 12, 5.0, 43);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ms, y.at_ms, "deterministic per seed");
            assert_eq!(x.b, y.b);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.at_ms != y.at_ms));
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // Mixed traffic: both rules and several tolerances appear.
        assert!(a
            .iter()
            .any(|x| matches!(x.termination, Termination::OracleRms { .. })));
        assert!(a
            .iter()
            .any(|x| matches!(x.termination, Termination::Residual { tol } if tol > 1e-4)));
    }

    #[test]
    fn serve_trace_is_reproducible_per_seed() {
        // The `repro serve --seed N` contract: the same seed reproduces
        // the identical ticket trace (arrival instants, right-hand sides
        // AND per-ticket stopping rules), a different seed does not.
        for quick in [true, false] {
            let a = serve_trace(quick, 7);
            let b = serve_trace(quick, 7);
            let (count, _, _) = serve_workload(quick);
            assert_eq!(a.len(), count);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.at_ms, y.at_ms, "identical arrival instants");
                assert_eq!(x.b, y.b, "identical right-hand sides");
                assert_eq!(x.termination, y.termination, "identical rules");
            }
            let c = serve_trace(quick, 8);
            assert!(
                a.iter()
                    .zip(&c)
                    .any(|(x, y)| x.at_ms != y.at_ms || x.b != y.b),
                "a different seed produces a different trace"
            );
        }
        // The default seed is the one the CLI documents.
        let d = serve_trace(true, SERVE_TRACE_SEED);
        let e = serve_trace(true, 4_201);
        assert_eq!(d.len(), e.len());
        for (x, y) in d.iter().zip(&e) {
            assert_eq!(x.at_ms, y.at_ms);
        }
    }

    #[test]
    fn latency_stats_order() {
        let (mean, p50, max) = latency_stats(&[1.0, 3.0, 2.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!(p50, 2.0);
        assert_eq!(max, 3.0);
    }
}
