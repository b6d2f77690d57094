//! The round supervisor scores only the rounds its decay cadence asks for
//! (`dtm_core::monitor::next_round`). This file holds it to a lock-step
//! oracle that scores **every** round: the oracle drives the nodes itself
//! in the executor's colour order — for each colour class, for each of its
//! parts in ascending order, absorb the waves pending for it in ascending
//! source order, step, and deliver its waves at once — scores each round
//! with `Monitor::update_round` and stops at the first round at or below
//! the tolerance. The in-process distributed run, on 2 and 3 groups, must stop
//! at that very round with the same solution bits, residual and counters;
//! a run that ends at the round cap must report the cap's last round, and
//! one out of budget the round it scores once the budget is out.
//!
//! The cases on the benchmark-sized systems are `#[ignore]`d; run them in
//! release (CI does):
//! `cargo test --release -p dtm-net --test cadence_oracle -- --include-ignored`.

use dtm_core::monitor::{Monitor, Retired};
use dtm_core::runtime::{
    build_nodes, CommonConfig, DtmMsg, ExecutorBackend, GatherMap, Termination,
};
use dtm_core::DtmBuilder;
use dtm_graph::evs::SplitSystem;
use dtm_net::round::group_rates;
use dtm_net::{colour_assignment, DistributedBackend, DistributedConfig, RunMode};
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::{generators, Csr};
use std::collections::BTreeMap;
use std::time::Duration;

/// The benchmark's right-hand side — a unit load plus seeded white noise —
/// torn by the default partitioner.
fn torn(a: Csr, parts: usize, seed: u64) -> SplitSystem {
    let mut b = generators::random_rhs(a.n_rows(), seed);
    b.iter_mut().for_each(|v| *v += 1.0);
    DtmBuilder::new(a, b)
        .partition_auto(parts)
        .build()
        .expect("builds")
        .split
}

/// A named system: its matrix and its part count.
type System = (&'static str, fn() -> Csr, usize);

fn common(tol: f64, cap: usize) -> CommonConfig {
    CommonConfig {
        termination: Termination::Residual { tol },
        max_solves_per_node: cap,
        ..Default::default()
    }
}

/// What the oracle saw: rounds run, the scored column of the last one,
/// and the counters those rounds are worth.
struct Oracle {
    rounds: u64,
    column: Retired,
    counters: [u64; 3],
}

/// Colour-ordered rounds on one thread, every round scored, up to `cap`
/// rounds; stops at the first round whose exact residual meets `tol`.
fn oracle(split: &SplitSystem, tol: f64, cap: usize) -> Oracle {
    let common = common(tol, cap);
    let mut nodes = build_nodes(split, &common).expect("factors");
    let map = GatherMap::of_split(split, None);
    let mut monitor = Monitor::new(&map, 1, SimDuration::ZERO);
    monitor.admit(0, &split.b, Termination::Residual { tol }, None);

    let n_parts = nodes.len();
    let colour = colour_assignment(split);
    let mut sweep: Vec<usize> = (0..n_parts).collect();
    sweep.sort_by_key(|&p| colour[p]);
    let mut inbox: Vec<Vec<(usize, DtmMsg)>> = (0..n_parts).map(|_| Vec::new()).collect();
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    let mut rounds = 0;
    while rounds < cap as u64 {
        for &p in &sweep {
            let mut waves = std::mem::take(&mut inbox[p]);
            waves.sort_by_key(|&(src, _)| src);
            for (_, msg) in waves {
                nodes[p].absorb_owned(msg);
            }
            let _ = nodes[p].step(&mut outbox);
            for (dst, msg) in outbox.drain(..) {
                inbox[dst].push((p, msg));
            }
        }
        monitor.update_round(
            SimTime::from_nanos(rounds),
            nodes.iter().map(|n| n.local().solution()),
        );
        rounds += 1;
        if monitor.done(0) {
            break;
        }
    }
    let rates = group_rates(&nodes.into_iter().enumerate().collect::<BTreeMap<_, _>>());
    Oracle {
        rounds,
        column: monitor.retire(0),
        counters: [
            rounds * rates.solves_per_round,
            rounds * rates.messages_per_round,
            rounds * rates.flops_per_round,
        ],
    }
}

/// The in-process distributed run on `groups` groups agrees with the
/// oracle bit for bit: stop round (through the counters), solution,
/// residual, convergence.
fn assert_matches_oracle(split: &SplitSystem, tol: f64, cap: usize, label: &str) {
    let want = oracle(split, tol, cap);
    for groups in [2, 3] {
        let config = DistributedConfig {
            common: common(tol, cap),
            mode: RunMode::InProcess,
            processes: groups,
            topology: None,
            budget: Duration::from_secs(600),
        };
        let got = DistributedBackend
            .solve(split, None, &config)
            .expect("distributed solve");
        let at = format!("{label} τ {tol:e} on {groups} groups");
        assert_eq!(
            [got.total_solves, got.total_messages, got.total_flops],
            want.counters,
            "{at}: stopped after {} rounds, the oracle after {}",
            got.total_solves / split.n_parts() as u64,
            want.rounds
        );
        assert_eq!(
            got.final_residual.to_bits(),
            want.column.residual.to_bits(),
            "{at}"
        );
        assert_eq!(got.solution.len(), want.column.solution.len(), "{at}");
        for (i, (x, y)) in got.solution.iter().zip(&want.column.solution).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{at}: vertex {i}: {x:?} vs {y:?}");
        }
        assert_eq!(got.converged, want.column.residual <= tol, "{at}");
    }
}

#[test]
fn the_cadence_stops_at_the_first_converged_round_on_small_systems() {
    let systems: [System; 2] = [
        ("20²@6", || generators::grid2d_laplacian(20, 20), 6),
        ("8³@4", || generators::grid3d_laplacian(8, 8, 8), 4),
    ];
    for (name, a, parts) in systems {
        for seed in [2008, 7] {
            let split = torn(a(), parts, seed);
            for tol in [1e-3, 1e-6, 1e-9] {
                assert_matches_oracle(&split, tol, 10_000, &format!("{name} seed {seed}"));
            }
        }
    }
}

#[test]
#[ignore = "benchmark-sized; run in release (CI does)"]
fn the_cadence_stops_at_the_first_converged_round_on_the_benchmark_systems() {
    // Five systems × five seeds, the tolerance rotating so that every
    // system and every seed meets every tolerance.
    let systems: [System; 5] = [
        ("96²@72", || generators::grid2d_laplacian(96, 96), 72),
        ("32³@16", || generators::grid3d_laplacian(32, 32, 32), 16),
        ("24³@8", || generators::grid3d_laplacian(24, 24, 24), 8),
        ("64²@16", || generators::grid2d_laplacian(64, 64), 16),
        ("48²@36", || generators::grid2d_laplacian(48, 48), 36),
    ];
    let tols = [1e-3, 1e-6, 1e-9];
    for (i, (name, a, parts)) in systems.into_iter().enumerate() {
        for (j, seed) in [2008, 7, 1, 42, 99].into_iter().enumerate() {
            let split = torn(a(), parts, seed);
            let tol = tols[(i + j) % tols.len()];
            assert_matches_oracle(&split, tol, 10_000, &format!("{name} seed {seed}"));
        }
    }
}

#[test]
fn a_capped_run_reports_the_last_round() {
    // τ = 0 scores every round. Under a tolerance out of reach the cadence
    // would skip from round 31 to 63, past the cap: the run must still
    // score and report round 39.
    let split = torn(generators::grid2d_laplacian(24, 24), 4, 2008);
    for tol in [0.0, 1e-30] {
        let want = oracle(&split, tol, 40);
        assert_eq!(want.rounds, 40);
        assert_matches_oracle(&split, tol, 40, "24²@4 capped at 40");
    }
}

#[test]
fn a_run_out_of_budget_reports_the_round_it_scores_then() {
    // With no budget at all the deadline has passed before any round
    // completes: the supervisor scores round 0, the next to complete, and
    // reports it — not an empty estimate of no round.
    let split = torn(generators::grid2d_laplacian(12, 12), 2, 2008);
    let tol = 1e-30;
    let want = oracle(&split, tol, 1);
    let config = DistributedConfig {
        common: common(tol, 1_000),
        mode: RunMode::InProcess,
        processes: 2,
        topology: None,
        budget: Duration::ZERO,
    };
    let got = DistributedBackend
        .solve(&split, None, &config)
        .expect("distributed solve");
    assert_eq!(got.stop, dtm_core::report::StopKind::Budget);
    assert_eq!(got.total_solves, want.counters[0], "one round");
    assert_eq!(got.final_residual.to_bits(), want.column.residual.to_bits());
    for (x, y) in got.solution.iter().zip(&want.column.solution) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
