//! Fig. 9's bowl as numbers: synchronous rounds to `Residual 1e-6` — every
//! part steps once a round on its neighbours' waves of the round before,
//! and every round is scored exactly, so a round count is exact — under
//! the matched default, under the old constant `scale = 1`, and at the
//! minimum of a coarse √2-spaced sweep — for every family the rule of
//! `dtm_core::impedance` was validated on. The matched scale is derived on
//! these rounds. The round counts themselves are pinned, so a change to the
//! rule shows up here as a diff in numbers.
//!
//! The rounds are driven here, not on `Machine::LockStep`: that machine
//! scores through `Monitor::update_part`, whose maintained residual can
//! settle just above the tolerance until its next exact resync (the chain
//! below at scale 64 reads 64 rounds there, 18 here).
//!
//! `cargo test -p dtm-net --test impedance_bowl -- --nocapture` prints the
//! table README's "Choosing the impedance" section is copied from.

use dtm_core::impedance::{ImpedancePolicy, Matching};
use dtm_core::monitor::Monitor;
use dtm_core::runtime::{build_nodes, CommonConfig, DtmMsg, GatherMap, Termination};
use dtm_core::DtmBuilder;
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::{generators, Csr};

const TOL: f64 = 1e-6;
const MAX_ROUNDS: u64 = 10_000;

/// The benchmark's right-hand side: a unit load plus seeded white noise,
/// torn by the default partitioner.
fn torn(a: Csr, parts: usize) -> SplitSystem {
    let mut b = generators::random_rhs(a.n_rows(), 2008);
    b.iter_mut().for_each(|v| *v += 1.0);
    DtmBuilder::new(a, b)
        .partition_auto(parts)
        .build()
        .expect("builds")
        .split
}

/// Exact synchronous rounds to `Residual 1e-6`.
fn rounds(split: &SplitSystem, impedance: ImpedancePolicy) -> u64 {
    let termination = Termination::Residual { tol: TOL };
    let common = CommonConfig {
        termination,
        impedance,
        max_solves_per_node: MAX_ROUNDS as usize,
    };
    let mut nodes = build_nodes(split, &common).expect("factors");
    let mut monitor = Monitor::new(&GatherMap::of_split(split, None), 1, SimDuration::ZERO);
    monitor.admit(0, &split.b, termination, None);
    // Each part's waves of the round before, in ascending source order.
    let mut inbox: Vec<Vec<DtmMsg>> = vec![Vec::new(); nodes.len()];
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    for round in 1..=MAX_ROUNDS {
        let mut next: Vec<Vec<DtmMsg>> = vec![Vec::new(); nodes.len()];
        for (node, waves) in nodes.iter_mut().zip(&mut inbox) {
            waves.drain(..).for_each(|msg| node.absorb_owned(msg));
            let _ = node.step(&mut outbox);
            outbox.drain(..).for_each(|(dst, msg)| next[dst].push(msg));
        }
        inbox = next;
        monitor.update_round(
            SimTime::from_nanos(round),
            nodes.iter().map(|n| n.local().solution()),
        );
        if monitor.done(0) {
            return round;
        }
    }
    panic!("no round met {TOL:e} within {MAX_ROUNDS}");
}

fn at_scale(split: &SplitSystem, scale: f64) -> u64 {
    rounds(split, ImpedancePolicy::GeometricMean { scale })
}

/// Minimum of the √2-spaced sweep upward from scale 1 (`at_one` rounds),
/// stopped at `up_to` or once the bowl has risen twice past its minimum.
fn sweep_min(split: &SplitSystem, at_one: u64, up_to: f64) -> (f64, u64) {
    let mut best = (1.0, at_one);
    let mut rises = 0;
    for scale in (1..).map(|i| 2f64.powf(f64::from(i) / 2.0)) {
        if scale > up_to * 1.001 || rises == 2 {
            break;
        }
        let r = at_scale(split, scale);
        if r < best.1 {
            best = (scale, r);
            rises = 0;
        } else {
            rises += 1;
        }
    }
    best
}

struct Pinned {
    name: &'static str,
    a: fn() -> Csr,
    parts: usize,
    /// A Dirichlet Laplacian: additionally ≥ 2× fewer rounds than scale 1.
    dirichlet: bool,
    /// Rounds at scale 1, under `Matched`, and at the swept minimum.
    expect: [u64; 3],
}

const PINNED: &[Pinned] = &[
    Pinned {
        name: "5pt 24²",
        a: || generators::grid2d_laplacian(24, 24),
        parts: 4,
        dirichlet: true,
        expect: [163, 72, 49],
    },
    Pinned {
        name: "5pt 24²",
        a: || generators::grid2d_laplacian(24, 24),
        parts: 12,
        dirichlet: true,
        expect: [254, 82, 88],
    },
    Pinned {
        name: "9pt 20²",
        a: || generators::grid2d_laplacian_9pt(20, 20, 0.5),
        parts: 4,
        dirichlet: true,
        expect: [156, 58, 54],
    },
    Pinned {
        name: "9pt 20²",
        a: || generators::grid2d_laplacian_9pt(20, 20, 0.5),
        parts: 9,
        dirichlet: true,
        expect: [210, 80, 76],
    },
    Pinned {
        name: "7pt 12³",
        a: || generators::grid3d_laplacian(12, 12, 12),
        parts: 8,
        dirichlet: true,
        expect: [105, 50, 37],
    },
    Pinned {
        name: "7pt 12³",
        a: || generators::grid3d_laplacian(12, 12, 12),
        parts: 16,
        dirichlet: true,
        expect: [122, 58, 41],
    },
    Pinned {
        name: "aniso 12³ ε=0.1",
        a: || generators::grid3d_laplacian_aniso(12, 12, 12, 0.1),
        parts: 8,
        dirichlet: false,
        expect: [100, 44, 46],
    },
    Pinned {
        name: "conductance 20² m=1",
        a: || generators::grid2d_conductance(20, 20, |_, _| 1.0, 1.0),
        parts: 6,
        dirichlet: false,
        expect: [16, 16, 14],
    },
    Pinned {
        name: "conductance 20² m=0.1",
        a: || generators::grid2d_conductance(20, 20, |_, _| 1.0, 0.1),
        parts: 6,
        dirichlet: false,
        expect: [66, 39, 32],
    },
    Pinned {
        name: "conductance 20² m=0.01",
        a: || generators::grid2d_conductance(20, 20, |_, _| 1.0, 0.01),
        parts: 6,
        dirichlet: false,
        expect: [438, 84, 79],
    },
    Pinned {
        name: "random 17² m=1",
        a: || generators::grid2d_random(17, 17, 1.0, 2008),
        parts: 4,
        dirichlet: false,
        expect: [46, 40, 30],
    },
    Pinned {
        name: "random 33² m=1",
        a: || generators::grid2d_random(33, 33, 1.0, 2008),
        parts: 8,
        dirichlet: false,
        expect: [45, 40, 39],
    },
    Pinned {
        name: "random 65² m=1",
        a: || generators::grid2d_random(65, 65, 1.0, 2008),
        parts: 16,
        dirichlet: false,
        expect: [43, 43, 34],
    },
    Pinned {
        name: "random_spd 600",
        a: || generators::random_spd(600, 6, 0.5, 2008),
        parts: 8,
        dirichlet: false,
        expect: [81, 62, 57],
    },
];

#[test]
fn matched_against_scale_one_and_the_swept_minimum() {
    println!(
        "{:<24} {:>5} {:>5}  {:>9} {:>6} {:>6}  {:>7} {:>7} {:>12}",
        "system", "n", "parts", "μ̂", "Γ", "s", "scale 1", "matched", "swept min"
    );
    let mut broken = Vec::new();
    for p in PINNED {
        let split = torn((p.a)(), p.parts);
        let m = Matching::of(&split);
        let one = at_scale(&split, 1.0);
        let matched = rounds(&split, ImpedancePolicy::Matched);
        let (best_scale, best) = sweep_min(&split, one, 16.0);
        println!(
            "{:<24} {:>5} {:>5}  {:>9.3e} {:>6.3} {:>6.2}  {:>7} {:>7} {:>6} @{:<5.2}",
            p.name,
            split.original_n,
            p.parts,
            m.mu,
            m.gamma,
            m.scale,
            one,
            matched,
            best,
            best_scale
        );
        // Collected, not asserted on the spot: a change to the rule should
        // print the whole new table before it fails.
        let mut claim = |ok: bool, what: &str| {
            if !ok {
                broken.push(format!("{} @{}: {what}", p.name, p.parts));
            }
        };
        claim(matched as f64 <= 1.05 * one as f64, "behind scale 1");
        claim(matched <= 2 * best, "over 2x the swept minimum");
        if p.dirichlet {
            claim(2 * matched <= one, "under 2x ahead of scale 1");
        }
        claim(
            [one, matched, best] == p.expect,
            &format!("rounds {:?}, pinned {:?}", [one, matched, best], p.expect),
        );
    }
    assert!(broken.is_empty(), "{broken:#?}");
}

/// Known miss, recorded: a 1-D chain has one-vertex interfaces, which a
/// line matches *exactly* as `s → ∞` (the bowl's right branch does not
/// exist: 4 rounds at every `s ≥ 32`). The rule's `β ≈ 2` assumes an
/// interface with a stiff mode and stops far short — it must still beat
/// scale 1.
#[test]
fn one_dimensional_chain_is_a_known_miss_that_still_beats_scale_one() {
    let split = torn(generators::tridiagonal(256, 2.001, -1.0), 4);
    let one = at_scale(&split, 1.0);
    let matched = rounds(&split, ImpedancePolicy::Matched);
    let far = at_scale(&split, 64.0);
    println!(
        "chain 256 @4: {:?} scale 1 {one}, matched {matched}, scale 64 {far}",
        Matching::of(&split)
    );
    assert!(matched < one && far < matched);
    assert_eq!([one, matched, far], [288, 104, 18]);
}

/// The benchmark's own point (`comm2d` / `comm2d_uds2`: 96² 5-point
/// Laplacian, 72 parts): run by the release-mode CI step.
#[test]
#[ignore = "benchmark-sized; run in release (CI does)"]
fn comm2d_system_2325_rounds_become_under_400() {
    let split = torn(generators::grid2d_laplacian(96, 96), 72);
    assert_eq!(at_scale(&split, 1.0), 2325);
    let matched = rounds(&split, ImpedancePolicy::Matched);
    println!("96² @72: {:?} matched {matched}", Matching::of(&split));
    assert!(matched <= 400, "{matched}");
    assert_eq!(matched, 277);
}
