//! Reproduction harness: one subcommand per table/figure of the paper.
//!
//! ```text
//! repro fig3     electric graph of system (3.2)                 [§3, Fig. 3]
//! repro fig5     EVS split into subsystems (4.1)/(4.2)          [§4, Fig. 5]
//! repro fig7     algorithm-architecture delay mapping setup     [§5, Fig. 7]
//! repro fig8     DTM trajectories for Example 5.1               [§5, Fig. 8]
//! repro fig9     RMS error at t = 100 µs vs impedances          [§5, Fig. 9]
//! repro table1   traced run: N2N only, no sync, no broadcast    [§5, Table 1]
//! repro fig11    16-processor mesh delay table + bar chart      [§7, Fig. 11]
//! repro fig12    DTM convergence on 16 processors               [§7, Fig. 12]
//! repro fig13    64-processor mesh delays + bar chart           [§7, Fig. 13]
//! repro fig14    DTM convergence on 64 processors               [§7, Fig. 14]
//! repro cmp-vtm  DTM vs VTM (conclusion §8)                     [§8]
//! repro cmp-jacobi  DTM vs async/sync block-Jacobi (§1)         [§1]
//! repro sweep-z  spectral radius vs impedance scale + matched s [§6, Fig. 9]
//! repro batched  per-RHS amortized cost of multi-RHS batches    [§5, factor-once]
//! repro serve    rolling admission vs batch barrier latency     [§5, factor-once]
//! repro compare  DTM vs randomized-asynchrony baselines          [§1, §6]
//! repro all      everything above
//! ```
//!
//! `compare` pits DTM against the two randomized-asynchrony baselines —
//! Avron et al.'s randomized asynchronous Richardson and Hong's
//! D-iteration — **message for message on the identical machine**: same
//! grid Laplacian, same 2×2 block partition, same seeded asymmetric-delay
//! mesh, same 1 ms compute model, and the same reference-free
//! `Termination::Residual` rule (no oracle taints the comparison). It
//! prints the uniform message/activation/flop counter table plus tagged
//! activation-trace samples, and asserts all three algorithms converge
//! with populated counters (the CI smoke contract). `--quick` loosens the
//! tolerance.
//!
//! `compare --transport uds|tcp [--processes N]` switches to the
//! **distributed socket backend**: the same DTM solve run once in-process
//! and once across N spawned OS processes linked by real sockets
//! (`dtm-net`), asserted **bit-for-bit** equal — solution bits, residual
//! bits and deterministic work counters. (The hidden `net-child`
//! subcommand is this executable relaunched as a child process.)
//!
//! `batched` sweeps K ∈ {1, 4, 16, 64} by default; `--num-rhs K` pins a
//! single batch width instead.
//!
//! `cmp-vtm` and `cmp-jacobi` assert their shape: VTM converges in fewer
//! exchanges than DTM; DTM and both block-Jacobi variants converge, and
//! every synchronous block-Jacobi round is priced at the slowest compute
//! plus twice the worst link delay.
//!
//! Every subcommand but `bench` and `lint` (which parse their own) rejects
//! an argument that is not one of the flags below, or a flag's value, with
//! the usage line and exit status 2.
//!
//! `serve` drives a Poisson arrival stream of mixed-tolerance right-hand
//! sides (tight residual / loose residual / oracle RMS) through the rolling
//! session under two admission policies — rolling (tickets admitted into
//! the live wave exchange as column slots free up, each stopping at its own
//! target) and the batch barrier — then compares per-RHS completion
//! latency. `--quick` shrinks
//! the stream (the CI smoke test); the subcommand asserts every ticket
//! completes and that rolling beats the barrier on mean latency.
//! `--seed N` pins the arrival-trace seed: the same seed reproduces the
//! identical ticket trace (instants, right-hand sides and stopping rules).
//!
//! `--termination residual|oracle` (default `oracle`) selects the stopping
//! rule for the convergence subcommands (`fig12`, `fig14`, `batched`):
//! `oracle` monitors RMS against a direct solve per right-hand side (the
//! paper's figures); `residual` stops on the reference-free relative true
//! residual `‖b − A·x‖/‖b‖` — the production path, which never
//! direct-solves the original system.
//!
//! Absolute numbers depend on the delay seeds and the compute model (the
//! paper's own testbed was a MATLAB simulation); the *shapes* — monotone
//! staircase convergence, the impedance bowl, larger n converging slower,
//! async beating barrier-synchronised rounds on heterogeneous networks —
//! are the reproduction targets. See the README's "Reproduction caveats".

use dtm_bench::*;

use dtm_core::async_baselines::{self, BaselineAlgo, BaselineConfig};
use dtm_core::impedance::{ImpedancePolicy, Matching};
use dtm_core::local::LocalSolverKind;
use dtm_core::runtime::CommonConfig;
use dtm_core::solver::{self, ComputeModel, DtmConfig, Termination};
use dtm_core::{analysis, vtm};
use dtm_simnet::{Engine, SimDuration, SimTime};
use dtm_sparse::generators;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if cmd == "net-child" {
        // Hidden mode: this very executable relaunched as a socket-backend
        // child process (so distributed runs need only one binary on disk).
        std::process::exit(dtm_net::child_main(&args[1..]));
    }
    if !matches!(cmd, "bench" | "lint") {
        let mut rest = args.iter().skip(1);
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--quick" => {}
                "--num-rhs" | "--seed" | "--termination" | "--transport" | "--processes" => {
                    rest.next();
                }
                other => {
                    eprintln!("{cmd}: unknown argument {other:?}");
                    usage();
                }
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let num_rhs = args
        .iter()
        .position(|a| a == "--num-rhs")
        .and_then(|i| args.get(i + 1))
        .map(|v| match v.parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => {
                eprintln!("--num-rhs takes a positive integer, got {v:?}");
                std::process::exit(2);
            }
        });
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .map(|i| match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(s)) => s,
            _ => {
                eprintln!("--seed takes a u64");
                std::process::exit(2);
            }
        })
        .unwrap_or(serve::SERVE_TRACE_SEED);
    let mode = match args.iter().position(|a| a == "--termination") {
        None => TerminationMode::Oracle,
        Some(i) => match args.get(i + 1) {
            Some(v) => TerminationMode::parse(v).unwrap_or_else(|| {
                eprintln!("--termination takes 'residual' or 'oracle', got {v:?}");
                std::process::exit(2);
            }),
            None => {
                eprintln!("--termination requires a value: 'residual' or 'oracle'");
                std::process::exit(2);
            }
        },
    };
    let transport = args.iter().position(|a| a == "--transport").map(|i| {
        match args.get(i + 1).map(String::as_str) {
            Some(v) => dtm_net::TransportKind::parse(v).unwrap_or_else(|| {
                eprintln!("--transport takes 'uds' or 'tcp', got {v:?}");
                std::process::exit(2);
            }),
            None => {
                eprintln!("--transport requires a value: 'uds' or 'tcp'");
                std::process::exit(2);
            }
        }
    });
    let processes = args
        .iter()
        .position(|a| a == "--processes")
        .and_then(|i| args.get(i + 1))
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--processes takes a positive integer, got {v:?}");
                std::process::exit(2);
            }
        })
        .unwrap_or(2);
    match cmd {
        "fig3" => fig3(),
        "fig5" => fig5(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "table1" => table1(),
        "fig11" => fig11(),
        "fig12" => fig12(quick, mode),
        "fig13" => fig13(),
        "fig14" => fig14(quick, mode),
        "cmp-vtm" => cmp_vtm(),
        "cmp-jacobi" => cmp_jacobi(),
        "sweep-z" => sweep_z(quick),
        "batched" => batched(num_rhs, mode),
        "serve" => serve_cmd(quick, seed),
        "compare" => match transport {
            None => compare_cmd(quick),
            Some(t) => compare_distributed(quick, t, processes),
        },
        "bench" => bench_cmd(&args[1..]),
        "lint" => {
            // Project lint (see crates/lint): panic-free libraries,
            // never-FMA sparse kernels, simnet determinism, SAFETY
            // comments, alloc-free hot paths. Gates CI.
            if let Err(e) = dtm_lint::run_cli(&args[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        "all" => {
            fig3();
            fig5();
            fig7();
            fig8();
            fig9();
            table1();
            fig11();
            fig12(quick, mode);
            fig13();
            fig14(quick, mode);
            cmp_vtm();
            cmp_jacobi();
            sweep_z(quick);
            batched(num_rhs, mode);
            serve_cmd(quick, seed);
            compare_cmd(quick);
        }
        _ => usage(),
    }
}

/// Print the usage line and exit with status 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro <fig3|fig5|fig7|fig8|fig9|table1|fig11|fig12|fig13|fig14|\
         cmp-vtm|cmp-jacobi|sweep-z|batched|serve|compare|bench|lint|all> [--quick] \
         [--num-rhs K] [--seed N] [--termination residual|oracle]\n\
         compare flags: [--transport uds|tcp [--processes N]] (distributed \
         socket backend vs the in-process reference, asserted bit-for-bit)\n\
         bench flags: [--quick] [--matrix FILE.mtx [--rhs FILE]]"
    );
    std::process::exit(2);
}

/// Fig. 3 — the electric graph of system (3.2).
fn fig3() {
    banner("Fig. 3: electric graph of the example system (3.2)");
    let (a, b) = generators::paper_example_system();
    let g = dtm_graph::ElectricGraph::from_system(a, b).expect("symmetric");
    println!(
        "{:>6} {:>8} {:>8}   edges (neighbour: weight)",
        "vertex", "weight", "source"
    );
    for v in 0..g.n() {
        let edges: Vec<String> = g
            .neighbors(v)
            .map(|(u, w)| format!("V{}: {w}", u + 1))
            .collect();
        println!(
            "{:>6} {:>8} {:>8}   {}",
            format!("V{}", v + 1),
            g.vertex_weight(v),
            g.source(v),
            edges.join(", ")
        );
    }
    println!();
}

/// Fig. 5 / Example 4.1 — EVS split into subsystems (4.1) and (4.2).
fn fig5() {
    banner("Fig. 5 / Example 4.1: EVS at boundary {V2, V3} -> subsystems (4.1), (4.2)");
    let ss = example_5_1_split();
    for sd in &ss.subdomains {
        println!("subgraph {} (local order: copies first):", sd.part + 1);
        let names: Vec<String> = sd
            .global_of_local
            .iter()
            .enumerate()
            .map(|(l, &g)| {
                if l < sd.n_copies {
                    format!("x{}{}", g + 1, (b'a' + sd.part as u8) as char)
                } else {
                    format!("x{}", g + 1)
                }
            })
            .collect();
        println!("  unknowns: {}", names.join(", "));
        for r in 0..sd.n_local() {
            let row: Vec<String> = (0..sd.n_local())
                .map(|c| format!("{:>6.2}", sd.matrix.get(r, c)))
                .collect();
            println!("  [{}] | rhs {:>5.2}", row.join(" "), sd.rhs[r]);
        }
    }
    println!(
        "ports: {} DTLPs between twin pairs {:?}\n",
        ss.dtlps.len(),
        ss.dtlps
            .iter()
            .map(|d| format!("V{}", d.vertex + 1))
            .collect::<Vec<_>>()
    );
}

/// Fig. 7 — the delay mapping of Example 5.1.
fn fig7() {
    banner("Fig. 7: algorithm-architecture delay mapping (Example 5.1)");
    let topo = example_5_1_topology();
    println!("machine: 2 processors");
    for l in topo.links() {
        println!(
            "  link P{} -> P{}: {:.1} us  (= DTL propagation delay in that direction)",
            l.src + 1,
            l.dst + 1,
            l.delay.as_micros_f64()
        );
    }
    println!("DTLP impedances: Z2 = 0.2 (V2a-V2b), Z3 = 0.1 (V3a-V3b)\n");
}

/// Fig. 8 — DTM trajectories x(t) for Example 5.1.
fn fig8() {
    banner("Fig. 8: computing result of DTM on Example 5.1 (staircase x(t))");
    let ss = example_5_1_split();
    let topo = example_5_1_topology();
    let config = DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::OracleRms { tol: 0.0 },
            ..Default::default()
        },
        compute: ComputeModel::Zero,
        horizon: SimDuration::from_micros_f64(120.0),
        ..Default::default()
    };
    let nodes = solver::build_nodes(&ss, &topo, &config).expect("paper setup builds");
    let mut engine = Engine::new(topo, nodes);
    // Column order mirrors the paper: x1, x2a, x2b, x3a, x3b, x4.
    println!(
        "{:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "t [us]", "x1", "x2a", "x2b", "x3a", "x3b", "x4"
    );
    let mut state = [[0.0f64; 3]; 2];
    engine.run(
        SimTime::ZERO + SimDuration::from_micros_f64(120.0),
        |t, part, node| {
            state[part].copy_from_slice(node.local().solution());
            let (p0, p1) = (state[0], state[1]);
            println!(
                "{:>9.2} {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5}",
                t.as_micros_f64(),
                p0[2],
                p0[0],
                p1[0],
                p0[1],
                p1[1],
                p1[2]
            );
            true
        },
    );
    let (a, b) = generators::paper_example_system();
    let exact = dtm_sparse::DenseCholesky::factor_csr(&a)
        .expect("SPD")
        .solve(&b);
    println!(
        "exact:    {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5}",
        exact[0], exact[1], exact[1], exact[2], exact[2], exact[3]
    );
    println!();
}

/// Fig. 9 — RMS error at t = 100 µs as a function of (Z2, Z3).
fn fig9() {
    banner("Fig. 9: RMS error of DTM at t = 100 us vs characteristic impedances");
    let ss = example_5_1_split();
    let zs = [0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6];
    println!("rows: Z2, cols: Z3; entries: RMS error at t = 100 us");
    print!("{:>8}", "Z2\\Z3");
    for z3 in zs {
        print!(" {z3:>9.3}");
    }
    println!();
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for z2 in zs {
        print!("{z2:>8.3}");
        for z3 in zs {
            let config = DtmConfig {
                common: CommonConfig {
                    impedance: ImpedancePolicy::PerDtlp(vec![z2, z3]),
                    termination: Termination::OracleRms { tol: 0.0 },
                    ..Default::default()
                },
                compute: ComputeModel::Zero,
                horizon: SimDuration::from_micros_f64(100.0),
                ..Default::default()
            };
            let r = solver::solve(&ss, example_5_1_topology(), None, &config)
                .expect("paper setup solves");
            print!(" {:>9.2e}", r.final_rms);
            if r.final_rms < best.0 {
                best = (r.final_rms, z2, z3);
            }
        }
        println!();
    }
    println!(
        "interior optimum near Z2 = {}, Z3 = {} (rms {:.2e}) — the impedance \
         choice controls convergence speed (paper §5)\n",
        best.1, best.2, best.0
    );
}

/// Table 1 — the traced algorithm: N2N messages only, no synchronization.
fn table1() {
    banner("Table 1: traced DTM run (no barrier, no broadcast, N2N only)");
    let ss = example_5_1_split();
    let topo = example_5_1_topology();
    let config = DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            termination: Termination::LocalDelta {
                tol: 1e-10,
                patience: 2,
            },
            ..Default::default()
        },
        compute: ComputeModel::Zero,
        horizon: SimDuration::from_millis_f64(5.0),
        ..Default::default()
    };
    let nodes = solver::build_nodes(&ss, &topo, &config).expect("builds");
    let mut engine = Engine::new(topo, nodes);
    engine.enable_trace(24);
    let outcome = engine.run_until(SimTime::ZERO + SimDuration::from_millis_f64(5.0));
    for r in engine.trace().expect("enabled").records() {
        let what = match r.kind {
            dtm_simnet::trace::TraceKind::Start { sent } => {
                format!("initial local solve, sent {sent} N2N message(s)")
            }
            dtm_simnet::trace::TraceKind::Receive { batch, sent } => {
                format!("received {batch} boundary update(s), re-solved, sent {sent}")
            }
            dtm_simnet::trace::TraceKind::Halt => "locally convergent -> break".into(),
        };
        println!(
            "  t={:>9.2} us  P{}  {}",
            r.time.as_micros_f64(),
            r.node + 1,
            what
        );
    }
    let stats = engine.stats();
    println!(
        "totals: {} messages over {} directed links, {} activations, 0 broadcasts \
         (the engine has no broadcast primitive), stop: {:?}\n",
        stats.messages_sent,
        stats.sent_per_link.len(),
        stats.activations.iter().sum::<u64>(),
        outcome.reason
    );
}

/// Fig. 11 — the 16-processor heterogeneous mesh.
fn fig11() {
    banner("Fig. 11: 16 processors, 4x4 mesh, asymmetric N2N delays (ms)");
    let topo = fig11_topology();
    println!("directed link delays (ms):");
    for l in topo.links() {
        if l.src < l.dst {
            let back = topo
                .try_delay(l.dst, l.src)
                .map_or(0.0, |d| d.as_millis_f64());
            println!(
                "  P{:<2} -> P{:<2}: {:>5.1}   P{:<2} -> P{:<2}: {:>5.1}",
                l.src + 1,
                l.dst + 1,
                l.delay.as_millis_f64(),
                l.dst + 1,
                l.src + 1,
                back
            );
        }
    }
    let (lo, hi) = topo.delay_range();
    println!(
        "min {:.0} ms, max {:.0} ms (ratio {:.1}x), asymmetry index {:.2}",
        lo.as_millis_f64(),
        hi.as_millis_f64(),
        hi.as_millis_f64() / lo.as_millis_f64(),
        topo.asymmetry()
    );
    println!("\ndelay histogram (Fig. 11B):");
    let rows: Vec<(String, f64)> = topo
        .delay_histogram(8)
        .into_iter()
        .map(|(lo, c)| (format!("{:.0} ms", lo.as_millis_f64()), c as f64))
        .collect();
    print!("{}", ascii_bars(&rows, 40));
    println!();
}

/// Fig. 12 — DTM convergence on the 16-processor mesh.
fn fig12(quick: bool, mode: TerminationMode) {
    banner("Fig. 12: DTM on 16 processors (4x4 mesh), random sparse SPD systems");
    let sizes: &[usize] = if quick { &[17] } else { &[17, 33] };
    for &side in sizes {
        let topo = fig11_topology();
        let ss = paper_split(side, 4, 4, &topo);
        let config = mesh_config_mode(1e-6, 120_000.0, mode);
        let report = solver::solve(&ss, topo, None, &config).expect("mesh run");
        println!(
            "n = {} ({}x{} grid, level-1+2 mixed EVS): converged={} {}={} \
             t={:.0} ms, {} solves, {} messages",
            side * side,
            side,
            side,
            report.converged,
            metric_name(mode),
            fmt_mode_metric(mode, &report),
            report.final_time_ms,
            report.total_solves,
            report.total_messages
        );
        print_series(
            &format!("Fig. 12 series, n = {}", side * side),
            "ms",
            &decimate(&report.series, 24),
        );
    }
}

/// Fig. 13 — the 64-processor mesh delays.
fn fig13() {
    banner("Fig. 13: 64 processors, 8x8 mesh, delays uniform in [10, 100] ms");
    let topo = fig13_topology();
    let (lo, hi) = topo.delay_range();
    println!(
        "{} directed links; min {:.1} ms, max {:.1} ms, asymmetry index {:.2}",
        topo.links().len(),
        lo.as_millis_f64(),
        hi.as_millis_f64(),
        topo.asymmetry()
    );
    println!("\ndelay histogram (Fig. 13B):");
    let rows: Vec<(String, f64)> = topo
        .delay_histogram(9)
        .into_iter()
        .map(|(lo, c)| (format!("{:.0} ms", lo.as_millis_f64()), c as f64))
        .collect();
    print!("{}", ascii_bars(&rows, 40));
    println!();
}

/// Fig. 14 — DTM convergence on the 64-processor mesh.
fn fig14(quick: bool, mode: TerminationMode) {
    banner("Fig. 14: DTM on 64 processors (8x8 mesh), n = 1089 and 4225");
    let sizes: &[usize] = if quick { &[33] } else { &[33, 65] };
    for &side in sizes {
        let topo = fig13_topology();
        let ss = paper_split(side, 8, 8, &topo);
        let config = mesh_config_mode(1e-6, 240_000.0, mode);
        let report = solver::solve(&ss, topo, None, &config).expect("mesh run");
        println!(
            "n = {}: converged={} {}={} t={:.0} ms, {} solves, {} messages, \
             {} coalesced batches",
            side * side,
            report.converged,
            metric_name(mode),
            fmt_mode_metric(mode, &report),
            report.final_time_ms,
            report.total_solves,
            report.total_messages,
            report.coalesced_batches
        );
        print_series(
            &format!("Fig. 14 series, n = {}", side * side),
            "ms",
            &decimate(&report.series, 24),
        );
    }
}

/// §8 — DTM vs VTM: VTM needs fewer exchanges, DTM needs no synchronization.
fn cmp_vtm() {
    banner("Conclusion (§8): DTM vs VTM on the 16-processor mesh, n = 1089");
    let topo = fig11_topology();
    let ss = paper_split(33, 4, 4, &topo);
    let config = mesh_config(1e-6, 240_000.0);

    let dtm = solver::solve(&ss, topo.clone(), None, &config).expect("dtm run");
    let vtm_report = vtm::solve(&ss, None, &config.common).expect("vtm run");
    // A synchronous VTM round on this machine costs max-delay + barrier
    // (another max-delay) + compute.
    let (_, hi) = topo.delay_range();
    let round_ms = 2.0 * hi.as_millis_f64() + 1.0;
    let rounds = vtm_report.series.len();
    println!(
        "{:>28} {:>8} {:>12} {:>14} {:>12}",
        "method", "rounds", "messages", "sim time [ms]", "rms"
    );
    println!(
        "{:>28} {:>8} {:>12} {:>14.0} {:>12.2e}",
        "DTM (asynchronous)", "-", dtm.total_messages, dtm.final_time_ms, dtm.final_rms
    );
    println!(
        "{:>28} {:>8} {:>12} {:>14.0} {:>12.2e}",
        "VTM (synchronous rounds)",
        rounds,
        vtm_report.total_messages,
        rounds as f64 * round_ms,
        vtm_report.final_rms
    );
    println!(
        "shape check: VTM uses fewer exchanges per accuracy (it always sees \
         fresh data), but every round is barrier-priced at 2x the worst link \
         ({:.0} ms); DTM proceeds at per-link speed with no barrier.\n",
        2.0 * hi.as_millis_f64()
    );
    assert!(dtm.converged && vtm_report.converged, "both must converge");
    assert!(
        vtm_report.total_messages < dtm.total_messages,
        "VTM must need fewer exchanges than DTM ({} vs {})",
        vtm_report.total_messages,
        dtm.total_messages
    );
}

/// §1 — DTM vs the classical baselines on the same machine and partition.
fn cmp_jacobi() {
    banner("Intro (§1): DTM vs async/sync block-Jacobi, 16 processors, n = 1089");
    let topo = fig11_topology();
    let side = 33;
    let tol = 1e-6;
    let ss = paper_split(side, 4, 4, &topo);
    let (a, b) = paper_system(side);
    let asg = dtm_graph::partition::grid_blocks(side, side, 4, 4);

    let dtm =
        solver::solve(&ss, topo.clone(), None, &mesh_config(tol, 240_000.0)).expect("dtm run");
    let compute = SimDuration::from_millis_f64(1.0);
    let bj_config = BaselineConfig {
        compute: ComputeModel::Fixed(compute),
        termination: Termination::OracleRms { tol },
        horizon: SimDuration::from_millis_f64(240_000.0),
        sample_interval: SimDuration::from_millis_f64(5.0),
        ..Default::default()
    };
    let abj = async_baselines::solve_sim(
        &BaselineAlgo::BlockJacobi,
        &a,
        &b,
        &asg,
        topo.clone(),
        None,
        &bj_config,
    )
    .expect("async bj run");
    let sbj = async_baselines::solve_sync(&a, &b, &asg, &topo, None, &bj_config).expect("sync bj");

    println!(
        "{:>28} {:>10} {:>14} {:>12} {:>10}",
        "method", "converged", "sim time [ms]", "rms", "messages"
    );
    for (name, r) in [
        ("DTM (asynchronous)", &dtm),
        ("async block-Jacobi", &abj),
        ("sync block-Jacobi", &sbj),
    ] {
        println!(
            "{:>28} {:>10} {:>14.0} {:>12.2e} {:>10}",
            name, r.converged, r.final_time_ms, r.final_rms, r.total_messages
        );
    }
    // Every synchronous round: the slowest block's compute, one exchange
    // and one barrier at the worst link delay.
    let round = compute + topo.delay_range().1.saturating_mul(2);
    let rounds = sbj.series.len() as u64;
    println!(
        "sync block-Jacobi: {rounds} rounds x {:.1} ms (1 ms compute + 2x the worst link)\n",
        round.as_millis_f64()
    );
    for r in [&dtm, &abj, &sbj] {
        assert!(r.converged, "{} must converge", r.algorithm.name());
    }
    assert_eq!(
        sbj.final_time_ms,
        round.saturating_mul(rounds).as_millis_f64(),
        "sync time = rounds x round price"
    );
}

/// §6 / Fig. 9 — spectral radius of the iteration operator vs impedance
/// scale: the analytic form of the impedance bowl, the ρ < 1 claim of
/// Theorem 6.1, and where in the bowl the matched default
/// ([`ImpedancePolicy::Matched`]) lands — on the paper's 17² mesh split and
/// on the three benchmark systems (`--quick`: at the benchmark's own
/// `--quick` sizes).
fn sweep_z(quick: bool) {
    banner("Theorem 6.1 / Fig. 9: iteration-operator spectral radius vs impedance scale");
    let bench_split = |a: dtm_sparse::Csr, parts: usize| {
        let b = vec![1.0; a.n_rows()];
        let problem = dtm_core::DtmBuilder::new(a, b)
            .partition_auto(parts)
            .build();
        problem.expect("benchmark system builds").split
    };
    let (cube, square, serve) = if quick { (8, 16, 8) } else { (32, 96, 24) };
    let systems = [
        (
            "paper 17² random grid, 4×4 mesh blocks".to_string(),
            paper_split(17, 4, 4, &fig11_topology()),
        ),
        (
            format!("kernel3d: {cube}³ 7-pt Laplacian, 16 parts"),
            bench_split(generators::grid3d_laplacian(cube, cube, cube), 16),
        ),
        (
            format!("comm2d: {square}² 5-pt Laplacian, 72 parts"),
            bench_split(generators::grid2d_laplacian(square, square), 72),
        ),
        (
            format!("serve8: {serve}³ 7-pt Laplacian, 8 parts"),
            bench_split(generators::grid3d_laplacian(serve, serve, serve), 8),
        ),
    ];
    let mut all_contractive = true;
    for (name, ss) in &systems {
        let m = Matching::of(ss);
        println!(
            "{name}: n = {}, μ̂ = {:.3e}, Γ = {:.3}, matched s = {:.2}",
            ss.original_n, m.mu, m.gamma, m.scale
        );
        let mut scales = vec![0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, m.scale];
        scales.sort_by(f64::total_cmp);
        scales.dedup();
        let sweep =
            analysis::impedance_sweep(ss, &scales, LocalSolverKind::Auto).expect("sweep builds");
        println!("{:>12} {:>16}", "z scale", "spectral radius");
        for &(s, rho) in &sweep {
            let mark = if s == m.scale { "  <- matched" } else { "" };
            println!("{s:>12.2} {rho:>16.6}{mark}");
        }
        let at = |scale: f64| sweep.iter().find(|&&(s, _)| s == scale).expect("swept").1;
        let best = sweep.iter().fold(f64::INFINITY, |b, &(_, r)| b.min(r));
        // ρ is the per-round contraction: rounds to 1e-6 ≈ ln(1e-6)/ln ρ.
        let rounds = |rho: f64| (1e-6_f64.ln() / rho.ln()).ceil();
        println!(
            "rho at the matched scale {:.6} (~{} rounds to 1e-6) vs {:.6} at scale 1 (~{}); \
             lowest swept rho {best:.6}\n",
            at(m.scale),
            rounds(at(m.scale)),
            at(1.0),
            rounds(at(1.0)),
        );
        all_contractive &= sweep.iter().all(|&(_, r)| r < 1.0);
    }
    println!("all contractive (Theorem 6.1, arbitrary positive impedance): {all_contractive}\n");
}

/// §5 factor-once, turned into a serving number: per-RHS amortized wall
/// time of one block solve of K right-hand sides over one factorization
/// per subdomain. With `--termination residual` the block also skips the
/// reference factorization and the K oracle substitutions — the measured
/// difference between the two modes is the price of the oracle.
fn batched(num_rhs: Option<usize>, mode: TerminationMode) {
    banner("Batched multi-RHS: per-RHS amortized solve time over one factorization");
    let ks: Vec<usize> = match num_rhs {
        Some(k) => vec![k],
        None => vec![1, 4, 16, 64],
    };
    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>14} {:>10} {:>12}",
        "mode", "K", "batch [ms]", "per-RHS [ms]", "sim/RHS [ms]", "solves", "worst metric"
    );
    let modes: Vec<TerminationMode> = match num_rhs {
        // A pinned K still honours --termination; the default sweep prints
        // both modes so the oracle tax is visible side by side.
        Some(_) => vec![mode],
        None => vec![TerminationMode::Oracle, TerminationMode::Residual],
    };
    let mut per_rhs_ms: Vec<(TerminationMode, usize, f64)> = Vec::new();
    for &m in &modes {
        for &k in &ks {
            let (batch_ms, report) = batched_run(k, m);
            per_rhs_ms.push((m, k, batch_ms / k as f64));
            println!(
                "{:>10} {:>6} {:>14.3} {:>14.3} {:>14.3} {:>10} {:>12}",
                metric_name(m),
                k,
                batch_ms,
                batch_ms / k as f64,
                report.time_per_rhs_ms(),
                report.total_solves,
                fmt_mode_metric(m, &report)
            );
        }
    }
    if num_rhs.is_none() {
        let per = |m: TerminationMode, k: usize| {
            per_rhs_ms
                .iter()
                .find(|&&(mm, kk, _)| mm == m && kk == k)
                .expect("swept")
                .2
        };
        let (k1, k16) = (
            per(TerminationMode::Oracle, 1),
            per(TerminationMode::Oracle, 16),
        );
        println!(
            "amortization: K=16 per-RHS {:.3} ms vs K=1 {:.3} ms ({:.1}x cheaper) — \
             additional right-hand sides ride the factor-once design nearly free",
            k16,
            k1,
            k1 / k16
        );
        let (r1, r16) = (
            per(TerminationMode::Residual, 1),
            per(TerminationMode::Residual, 16),
        );
        println!(
            "oracle tax: reference-free per-RHS {:.3} ms (K=1) / {:.3} ms (K=16) vs \
             oracle {:.3} / {:.3} — residual termination drops the K direct \
             substitutions a batch otherwise pays for RMS reporting\n",
            r1, r16, k1, k16
        );
    } else {
        println!();
    }
}

/// One measured block solve of `k` right-hand sides under `mode`.
fn batched_run(k: usize, mode: TerminationMode) -> (f64, dtm_core::SolveReport) {
    let side = 9; // n = 81: small enough that a batch is interactive
    let a = dtm_sparse::generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 4_001);
    let problem = dtm_core::DtmBuilder::new(a, b)
        .grid_blocks(side, side, 2, 2)
        .termination(mode.termination(1e-8))
        .compute(ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)))
        .build()
        .expect("valid problem");
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|c| generators::random_rhs(side * side, 5_000 + c as u64))
        .collect();
    let t = std::time::Instant::now();
    let report = problem.solve_block(&cols).expect("batch converges");
    let batch_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(report.converged, "K = {k} must converge");
    (batch_ms, report)
}

/// Rolling admission vs the batch barrier, as a serving-latency number:
/// the same Poisson arrival stream of mixed-tolerance right-hand sides is
/// served (a) by a rolling session — each ticket admitted into the live
/// 9×9 grid-Laplacian wave exchange as a column slot frees up, retiring at
/// its own tolerance — and (b) under the batch barrier, where arrivals
/// wait out the running batch and every column pays the strictest
/// member's tolerance. Asserts that every ticket completes and
/// that rolling wins on mean per-RHS completion latency (the CI smoke
/// contract).
fn serve_cmd(quick: bool, seed: u64) {
    banner("Serve: rolling mixed-tolerance admission vs batch-barrier baseline");
    // Workload shape lives in dtm_bench::serve (shared with the
    // reproducibility test); the seed is the `--seed N` knob — the same
    // seed reproduces the identical ticket trace.
    let (count, mean_gap_ms, slots) = serve::serve_workload(quick);
    let problem = serve::serve_problem();
    let trace = serve::serve_trace(quick, seed);
    println!(
        "workload: {count} Poisson arrivals (mean gap {mean_gap_ms} ms sim, seed {seed}), \
         mixed tolerances [resid {:.0e} | resid 1e-3 | oracle-rms 1e-7], {slots} rolling slots",
        serve::SERVE_TIGHT_TOL
    );

    let rolling = serve::serve_rolling(&problem, &trace, slots);
    let batch = serve::serve_batch(&problem, &trace);
    let (rm, rp50, rmax) = serve::latency_stats(&rolling);
    let (bm, bp50, bmax) = serve::latency_stats(&batch);
    println!(
        "{:>24} {:>12} {:>12} {:>12}",
        "policy", "mean [ms]", "p50 [ms]", "max [ms]"
    );
    println!(
        "{:>24} {:>12.2} {:>12.2} {:>12.2}",
        "rolling (per-ticket)", rm, rp50, rmax
    );
    println!(
        "{:>24} {:>12.2} {:>12.2} {:>12.2}",
        "batch barrier", bm, bp50, bmax
    );
    println!(
        "per-RHS completion latency: rolling {:.2} ms vs barrier {:.2} ms \
         ({:.1}x lower) — loose tickets retire the moment their own residual \
         crosses instead of waiting for the tightest column of their batch",
        rm,
        bm,
        bm / rm
    );
    assert_eq!(rolling.len(), trace.len(), "all rolling tickets complete");
    assert!(
        rm < bm,
        "rolling mean latency ({rm:.2} ms) must beat the batch barrier ({bm:.2} ms)"
    );
    println!();
}

/// DTM vs randomized asynchronous Richardson vs D-iteration, message for
/// message on the identical machine: same 9×9 grid Laplacian, same 2×2
/// block partition, same seeded asymmetric-delay mesh, same 1 ms compute
/// model, same reference-free residual stopping rule. Prints the uniform
/// counter table and tagged activation-trace samples; asserts all three
/// converge with populated counters (the CI smoke contract).
fn compare_cmd(quick: bool) {
    banner("Compare: DTM vs randomized-asynchrony baselines, message for message");
    let tol = if quick { 1e-6 } else { 1e-8 };
    let setup = compare::grid_setup(9, 2, 2, tol);
    println!(
        "machine: 4 processors (2x2 mesh, asymmetric delays 10-99 ms, seed {}), \
         n = 81 grid Laplacian torn 2x2, termination: residual <= {tol:.0e} \
         (reference-free for every algorithm)",
        compare::COMPARE_DELAY_SEED
    );
    let reports = compare::all_reports(&setup);
    println!(
        "{:>24} {:>10} {:>13} {:>12} {:>10} {:>12} {:>9} {:>11}",
        "algorithm",
        "converged",
        "sim time [ms]",
        "activations",
        "messages",
        "flops",
        "msg/act",
        "residual"
    );
    for r in &reports {
        println!(
            "{:>24} {:>10} {:>13.0} {:>12} {:>10} {:>12} {:>9.2} {:>11.2e}",
            r.algorithm.name(),
            r.converged,
            r.final_time_ms,
            r.total_solves,
            r.total_messages,
            r.total_flops,
            r.messages_per_solve(),
            r.final_residual
        );
    }
    let dtm = &reports[0];
    for r in &reports {
        assert!(
            r.converged,
            "{} must converge on the grid Laplacian (residual {})",
            r.algorithm.name(),
            r.final_residual
        );
        assert!(
            r.total_solves > 0,
            "{}: empty activation counter",
            r.algorithm.name()
        );
        assert!(
            r.total_messages > 0,
            "{}: empty message counter",
            r.algorithm.name()
        );
        assert!(
            r.total_flops > 0,
            "{}: empty flop counter",
            r.algorithm.name()
        );
        assert!(
            r.final_residual <= tol,
            "{}: residual above tol",
            r.algorithm.name()
        );
    }
    println!(
        "\nshape check: all three asynchronous algorithms reach the same residual on \
         the same machine; DTM's factor-once waves carry more arithmetic per message \
         ({:.0} flops/msg vs {:.0} Richardson / {:.0} D-iteration), trading messages \
         for local solves ({:.0} ms vs {:.0} / {:.0} ms simulated).",
        dtm.flops_per_message(),
        reports[1].flops_per_message(),
        reports[2].flops_per_message(),
        dtm.final_time_ms,
        reports[1].final_time_ms,
        reports[2].final_time_ms
    );

    // Tagged activation-trace samples: the same engine, three algorithms,
    // each trace labelled by its per-algorithm tag.
    println!("\ntagged activation-trace samples (first 4 records each):");
    let mut traces = vec![compare::dtm_trace_sample(&setup, 4)];
    for algo in [
        dtm_core::BaselineAlgo::RandomizedRichardson(Default::default()),
        dtm_core::BaselineAlgo::DIteration(Default::default()),
    ] {
        traces.push(compare::baseline_trace_sample(&setup, &algo, 4));
    }
    for trace in &traces {
        for r in trace.records() {
            let what = match r.kind {
                dtm_simnet::trace::TraceKind::Start { sent } => {
                    format!("initial activation, sent {sent}")
                }
                dtm_simnet::trace::TraceKind::Receive { batch, sent } => {
                    format!("received {batch}, sent {sent}")
                }
                dtm_simnet::trace::TraceKind::Halt => "halt".into(),
            };
            println!(
                "  [{:>22}] t={:>8.2} ms  P{}  {}",
                trace.tag(),
                r.time.as_millis_f64(),
                r.node + 1,
                what
            );
        }
    }
    println!();
}

/// `repro compare --transport uds|tcp [--processes N]`: the distributed
/// socket backend against the in-process reference on the comparison
/// workload — same split, same reference-free residual rule — asserted
/// **bit for bit** equal (solution bits, residual bits, work counters).
fn compare_distributed(quick: bool, transport: dtm_net::TransportKind, processes: usize) {
    banner("Compare: distributed socket backend vs in-process reference, bit for bit");
    let tol = if quick { 1e-6 } else { 1e-8 };
    let setup = compare::grid_setup(9, 2, 2, tol);
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate the repro executable to respawn as children: {e}");
        std::process::exit(1);
    });
    let child = dtm_net::ChildCommand {
        exe,
        prefix_args: vec!["net-child".to_string()],
    };
    println!(
        "workload: n = 81 grid Laplacian torn 2x2 (4 parts), termination: \
         residual <= {tol:.0e}; transport: {}, {processes} processes",
        transport.name()
    );
    let (in_process, multi_process) =
        match compare::distributed_pair(&setup, transport, processes, child) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("distributed comparison failed: {e}");
                std::process::exit(1);
            }
        };
    println!(
        "{:>22} {:>10} {:>13} {:>12} {:>10} {:>12} {:>11}",
        "mode", "converged", "wall [ms]", "activations", "messages", "flops", "residual"
    );
    for (name, r) in [
        ("in-process (1 group)", &in_process),
        ("socket processes", &multi_process),
    ] {
        println!(
            "{:>22} {:>10} {:>13.1} {:>12} {:>10} {:>12} {:>11.2e}",
            name,
            r.converged,
            r.final_time_ms,
            r.total_solves,
            r.total_messages,
            r.total_flops,
            r.final_residual
        );
    }
    compare::assert_distributed_bitwise(&in_process, &multi_process);
    assert!(
        in_process.converged,
        "distributed comparison must converge (residual {})",
        in_process.final_residual
    );
    println!(
        "\nbit-for-bit: {} solution values, residual {:.2e} and all work counters \
         identical between 1 in-process group and {processes} OS processes over {} — \
         the round-structured executor makes the result independent of process count.",
        in_process.solution.len(),
        in_process.final_residual,
        transport.name()
    );
    println!();
}

/// `repro bench`: the printed scaling table (3-D Laplacians up to 10⁶
/// unknowns on both wall-clock fabrics with per-phase set-up timings,
/// substitution kernels, Matrix Market) — see [`perf`]. `--quick` is the
/// CI-sized slice. Exits 1 if a solve does not converge or the K = 1 panel
/// sweep loses to the scalar kernel, 2 on a flag it does not know.
fn bench_cmd(args: &[String]) {
    let mut opts = perf::BenchOptions::default();
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        let mut path = || match flags.next() {
            Some(v) if !v.starts_with("--") => Some(std::path::PathBuf::from(v)),
            _ => {
                eprintln!("{flag} requires a file path");
                std::process::exit(2);
            }
        };
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--matrix" => opts.matrix = path(),
            "--rhs" => opts.rhs = path(),
            _ => {
                eprintln!("bench: unknown argument {flag:?} (flags: --quick, --matrix, --rhs)");
                std::process::exit(2);
            }
        }
    }
    if opts.rhs.is_some() && opts.matrix.is_none() {
        eprintln!("--rhs requires --matrix");
        std::process::exit(2);
    }
    banner("Bench: scaling suite");
    if let Err(e) = perf::run(&opts) {
        eprintln!("bench failed: {e}");
        std::process::exit(1);
    }
}

fn metric_name(mode: TerminationMode) -> &'static str {
    match mode {
        TerminationMode::Oracle => "rms",
        TerminationMode::Residual => "resid",
    }
}

/// The mode's stopping metric as a table cell — `-` instead of `NaN` when
/// the report carries no oracle RMS (reference-free runs).
fn fmt_mode_metric(mode: TerminationMode, report: &dtm_core::SolveReport) -> String {
    match mode {
        TerminationMode::Oracle => fmt_metric(report.final_rms_opt()),
        TerminationMode::Residual => fmt_metric(Some(report.final_residual)),
    }
}

fn banner(s: &str) {
    println!("================================================================");
    println!("{s}");
    println!("================================================================");
}
