//! The pool's schedule (`fabric::ReadyQueue`) as numbers: a lock-step
//! model of `W` workers draining the real queue type over real
//! `NodeRuntime`s, deterministic, so a count is exact.
//!
//! * Activations to `Residual 1e-6` do not grow with `W` and sit well
//!   under the synchronous-round (Jacobi) count — the neighbour rule is
//!   what keeps `W` workers on one freshest-data sweep.
//! * Colour-ordered rounds (what `dtm_net::round` runs: the colour classes
//!   of a greedy colouring of the part graph step one after the other) do
//!   about the work of one sequential sweep, with a fixed schedule.
//! * `#[ignore]`d, benchmark-sized: the sequential-sweep counts at `s/2`,
//!   `s`, `2s` on the three benchmark systems (README "Choosing the
//!   impedance"), and the README "Executors" table; run in release with
//!   `--include-ignored --nocapture`.
//!
//! The running pool's side of the same rule (no two neighbours ever step
//! at once, nobody starves) is `fabric::tests`.

use dtm_core::fabric::ReadyQueue;
use dtm_core::impedance::{ImpedancePolicy, Matching};
use dtm_core::monitor::Monitor;
use dtm_core::rayon_backend::{self, RayonConfig};
use dtm_core::runtime::{build_nodes, CommonConfig, DtmMsg, NodeRuntime, Termination};
use dtm_core::DtmBuilder;
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::{generators, Csr};

const TOL: f64 = 1e-6;

/// The benchmark's right-hand side (unit load plus seeded noise), torn by
/// the default partitioner.
fn torn(a: Csr, parts: usize) -> SplitSystem {
    let mut b = generators::random_rhs(a.n_rows(), 2008);
    b.iter_mut().for_each(|v| *v += 1.0);
    DtmBuilder::new(a, b)
        .partition_auto(parts)
        .build()
        .expect("builds")
        .split
}

fn nodes(split: &SplitSystem, impedance: &ImpedancePolicy) -> Vec<NodeRuntime> {
    let common = CommonConfig {
        termination: Termination::Residual { tol: TOL },
        impedance: impedance.clone(),
        max_solves_per_node: 1_000_000,
    };
    build_nodes(split, &common).expect("factors")
}

/// Who steps in each tick of a lock-step run.
enum Schedule {
    /// `W` workers each take the queue's first eligible part.
    Workers(usize),
    /// Every part, every tick: synchronous (Jacobi) rounds.
    Rounds,
    /// One colour class per tick, the classes in turn: a round is one
    /// tick per colour.
    Colours,
}

/// Part → colour, greedy in ascending part id: the smallest colour none
/// of a part's lower-numbered neighbours holds (`dtm_net`'s rule).
fn colours(split: &SplitSystem) -> Vec<usize> {
    let mut colour: Vec<usize> = Vec::with_capacity(split.n_parts());
    for sd in &split.subdomains {
        let taken: Vec<usize> = sd
            .neighbor_parts()
            .into_iter()
            .filter_map(|q| colour.get(q).copied())
            .collect();
        colour.push((0..).find(|c| !taken.contains(c)).expect("a free colour"));
    }
    colour
}

/// Activations to `Residual TOL`. All steps of a tick read the waves
/// delivered by earlier ticks and deliver their own at its end, so parts
/// stepping in the same tick are stepping "at once".
fn activations(split: &SplitSystem, impedance: &ImpedancePolicy, schedule: &Schedule) -> u64 {
    let n = split.n_parts();
    let mut nodes = nodes(split, impedance);
    let mut monitor = Monitor::new_residual(split, None, SimDuration::ZERO);
    // Score exactly at and below the tolerance, and bound the drift above.
    monitor.set_refresh_below(TOL);
    let mut inboxes: Vec<Vec<DtmMsg>> = vec![Vec::new(); n];
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    // The pool's own bound on overtaking: twice per worker.
    let max_overtakes = match *schedule {
        Schedule::Workers(w) => 2 * w,
        Schedule::Rounds | Schedule::Colours => 0,
    };
    let mut queue = ReadyQueue::new(n, max_overtakes);
    (0..n).for_each(|p| queue.push(p));
    let colour = colours(split);
    let n_colours = colour.iter().max().map_or(1, |&c| c + 1);
    let (mut count, mut residual, mut tick) = (0, f64::INFINITY, 0);
    loop {
        let taken: Vec<usize> = match *schedule {
            Schedule::Workers(w) => (0..w).map_while(|_| queue.take()).collect(),
            Schedule::Rounds => (0..n).collect(),
            Schedule::Colours => (0..n).filter(|&p| colour[p] == tick % n_colours).collect(),
        };
        tick += 1;
        assert!(!taken.is_empty(), "the exchange died out above tolerance");
        let mut sent = Vec::new();
        for &p in &taken {
            for msg in inboxes[p].drain(..) {
                nodes[p].absorb_owned(msg);
            }
            nodes[p].step(&mut outbox);
            residual = monitor.update_part(p, SimTime::ZERO, nodes[p].local().solution());
            sent.extend(outbox.drain(..).map(|(dst, msg)| (p, dst, msg)));
        }
        count += taken.len() as u64;
        for (p, dst, msg) in sent {
            inboxes[dst].push(msg);
            queue.link(p, dst);
            queue.push(dst);
        }
        if matches!(schedule, Schedule::Workers(_)) {
            taken.iter().for_each(|&p| queue.done(p));
        }
        if residual <= TOL {
            return count;
        }
        assert!(count < 10_000_000, "not converging");
    }
}

#[test]
fn worker_count_does_not_change_the_work() {
    let split = torn(generators::grid2d_laplacian(32, 32), 32);
    let policy = &ImpedancePolicy::Matched;
    let jacobi = activations(&split, policy, &Schedule::Rounds);
    let one = activations(&split, policy, &Schedule::Workers(1));
    let coloured = activations(&split, policy, &Schedule::Colours);
    println!(
        "32² @32: {jacobi} solves in rounds, {one} in one sequential sweep, \
         {coloured} in colour rounds"
    );
    assert!(one * 10 <= jacobi * 6, "{one} vs {jacobi}");
    assert!(coloured.abs_diff(one) * 10 <= one, "{coloured} vs {one}");
    for w in [2, 4, 8] {
        let at_w = activations(&split, policy, &Schedule::Workers(w));
        println!("  {w} workers: {at_w}");
        assert!(
            at_w.abs_diff(one) * 20 <= one,
            "{w} workers: {at_w} vs {one}"
        );
        assert!(at_w * 10 <= jacobi * 6, "{w} workers: {at_w} vs {jacobi}");
    }
}

/// The tables of README "Executors" and "Choosing the impedance" on the
/// three benchmark systems: solves to tolerance in synchronous rounds and
/// in one sequential sweep at `s/2`, `s`, `2s` (does the matched scale,
/// derived and pinned on rounds, still sit at the bottom of the bowl when
/// the parts step one after the other on the freshest data?), colour
/// rounds, the model at 2, 4 and 8 workers, and — printed, not asserted,
/// it is a wall-clock run — the pool itself at 1, 2, 4 and 8 threads.
#[test]
#[ignore = "benchmark-sized; run in release with --nocapture"]
fn benchmark_systems_rounds_sweep_and_pool() {
    let systems: [(&str, Csr, usize); 3] = [
        ("comm2d 96² @72", generators::grid2d_laplacian(96, 96), 72),
        (
            "kernel3d 32³ @16",
            generators::grid3d_laplacian(32, 32, 32),
            16,
        ),
        ("serve8 24³ @8", generators::grid3d_laplacian(24, 24, 24), 8),
    ];
    for (name, a, parts) in systems {
        let split = torn(a, parts);
        let s = Matching::of(&split).scale;
        let at = |factor: f64, schedule: &Schedule| {
            let policy = ImpedancePolicy::GeometricMean { scale: s * factor };
            activations(&split, &policy, schedule)
        };
        let rounds = [0.5, 1.0, 2.0].map(|f| at(f, &Schedule::Rounds));
        let sweep = [0.5, 1.0, 2.0].map(|f| at(f, &Schedule::Workers(1)));
        let model = [2, 4, 8].map(|w| at(1.0, &Schedule::Workers(w)));
        let coloured = at(1.0, &Schedule::Colours);
        let n_colours = colours(&split).into_iter().max().map_or(1, |c| c + 1);
        let pool = [1, 2, 4, 8].map(|num_threads| {
            let config = RayonConfig {
                common: CommonConfig {
                    termination: Termination::Residual { tol: TOL },
                    ..RayonConfig::default().common
                },
                num_threads,
                ..Default::default()
            };
            let nodes = build_nodes(&split, &config.common).expect("builds");
            let report =
                rayon_backend::solve_prepared(&split, nodes, None, &config).expect("solves");
            assert!(report.converged, "{name}: {}", report.final_residual);
            report.total_solves
        });
        println!(
            "{name:<17} s {s:>5.2} | s/2, s, 2s: rounds×parts {rounds:?} sweep {sweep:?} \
             | at s: colour rounds×parts {coloured} ({n_colours} colours) \
             model W=2,4,8 {model:?} pool T=1,2,4,8 {pool:?}"
        );
        // Colour rounds do one sweep's work on a fixed schedule: within a
        // tenth of it, and at most 0.6× the synchronous rounds.
        assert!(
            coloured.abs_diff(sweep[1]) * 10 <= sweep[1],
            "{name}: {coloured} vs {sweep:?}"
        );
        assert!(
            coloured * 10 <= rounds[1] * 6,
            "{name}: {coloured} vs {rounds:?}"
        );
        // One sweep is the cheaper order at every scale, no worker count
        // gives it back, and neither side of the matched scale beats it by
        // more than a quarter.
        for i in 0..3 {
            assert!(sweep[i] * 10 <= rounds[i] * 7, "{name}: {sweep:?}");
        }
        for at_w in model {
            assert!(
                at_w.abs_diff(sweep[1]) * 10 <= sweep[1],
                "{name}: {model:?}"
            );
        }
        let best = *sweep.iter().min().expect("three");
        assert!(sweep[1] * 4 <= best * 5, "{name}: {sweep:?}");
    }
}
