//! End-to-end distributed-backend tests: the multi-process socket run
//! must reproduce the in-process run **bit for bit** (UDS and TCP), and
//! a child that dies mid-solve must produce a typed error with every
//! remaining child reaped — no orphans, no hang. A group that loses a link
//! because the run is being stopped ends cleanly and silently; one that
//! loses a link with no `Stop` behind it fails with a typed error.

use dtm_core::impedance;
use dtm_core::report::SolveReport;
use dtm_core::runtime::{build_nodes, CommonConfig, ExecutorBackend, Termination};
use dtm_graph::evs::{split as evs_split, EvsOptions, SplitSystem};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_net::round::{run_group, GroupCtx, GroupIo, GroupLinks};
use dtm_net::socket::{Listener, Stream};
use dtm_net::wire::{self, GroupPlan, Msg, PartPlan, SnapshotBatch, Wave};
use dtm_net::{
    ChildCommand, DistributedBackend, DistributedConfig, FailInjection, RunMode, TransportKind,
};
use dtm_sparse::{generators, Error};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The standalone child binary of this crate (production runs use the
/// `repro` executable's hidden `net-child` mode instead).
fn child_cmd() -> ChildCommand {
    ChildCommand {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_net-child")),
        prefix_args: Vec::new(),
    }
}

/// A `side × side` grid Laplacian with a seeded random RHS, torn into
/// `parts` strips (the `tests/failure_injection.rs` fixture family).
fn grid_split(side: usize, parts: usize, rhs_seed: u64) -> SplitSystem {
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, rhs_seed);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, parts))
        .expect("valid");
    evs_split(&g, &plan, &EvsOptions::default()).expect("splits")
}

fn config(tol: f64, processes: usize, mode: RunMode) -> DistributedConfig {
    DistributedConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol },
            ..Default::default()
        },
        mode,
        processes,
        topology: None,
        budget: Duration::from_secs(120),
    }
}

fn solve(split: &SplitSystem, cfg: &DistributedConfig) -> SolveReport {
    DistributedBackend
        .solve(split, None, cfg)
        .expect("distributed solve")
}

fn assert_bitwise(a: &SolveReport, b: &SolveReport) {
    assert_eq!(a.solution.len(), b.solution.len());
    for (i, (x, y)) in a.solution.iter().zip(&b.solution).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {i}: {x:?} vs {y:?}");
    }
    assert_eq!(a.final_residual.to_bits(), b.final_residual.to_bits());
    assert_eq!(a.total_solves, b.total_solves);
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.total_flops, b.total_flops);
    assert_eq!(a.converged, b.converged);
}

#[test]
fn uds_two_processes_match_in_process_bitwise() {
    let ss = grid_split(10, 4, 501);
    let reference = solve(&ss, &config(1e-8, 1, RunMode::InProcess));
    assert!(reference.converged, "reference run must converge");
    let distributed = solve(
        &ss,
        &config(
            1e-8,
            2,
            RunMode::Processes {
                transport: TransportKind::Uds,
                child: child_cmd(),
                fail: None,
            },
        ),
    );
    assert_bitwise(&reference, &distributed);
}

#[test]
fn tcp_three_processes_match_in_process_bitwise() {
    let ss = grid_split(10, 3, 502);
    let reference = solve(&ss, &config(1e-8, 1, RunMode::InProcess));
    assert!(reference.converged, "reference run must converge");
    let distributed = solve(
        &ss,
        &config(
            1e-8,
            3,
            RunMode::Processes {
                transport: TransportKind::Tcp,
                child: child_cmd(),
                fail: None,
            },
        ),
    );
    assert_bitwise(&reference, &distributed);
}

#[test]
fn one_process_per_part_matches_too() {
    // The extreme grouping: every part its own OS process.
    let ss = grid_split(8, 3, 503);
    let reference = solve(&ss, &config(1e-8, 1, RunMode::InProcess));
    let distributed = solve(
        &ss,
        &config(
            1e-8,
            3,
            RunMode::Processes {
                transport: TransportKind::Uds,
                child: child_cmd(),
                fail: None,
            },
        ),
    );
    assert_bitwise(&reference, &distributed);
}

#[test]
fn grouping_does_not_change_the_in_process_bits() {
    // The structural half of the guarantee, without sockets: 1 group vs
    // 3 groups on threads produce identical bits.
    let ss = grid_split(10, 3, 504);
    let one = solve(&ss, &config(1e-8, 1, RunMode::InProcess));
    let three = solve(&ss, &config(1e-8, 3, RunMode::InProcess));
    assert_bitwise(&one, &three);
}

#[test]
fn killed_child_yields_typed_error_and_reaps_the_rest() {
    // Group 1 exits with a nonzero status after round 1 — long before
    // the 1e-10 tolerance can be met — simulating a mid-solve crash. The
    // parent must return a typed error (not hang) and reap every child.
    let ss = grid_split(10, 3, 505);
    let err = DistributedBackend
        .solve(
            &ss,
            None,
            &config(
                1e-10,
                3,
                RunMode::Processes {
                    transport: TransportKind::Uds,
                    child: child_cmd(),
                    fail: Some(FailInjection {
                        group: 1,
                        after_round: 1,
                    }),
                },
            ),
        )
        .expect_err("a crashed child must fail the solve");
    let text = err.to_string();
    assert!(
        text.contains("group"),
        "error should name the failed group link: {text}"
    );
}

#[test]
fn child_killed_at_round_zero_still_tears_down() {
    // Crash during the very first round: the handshake has completed but
    // almost no waves have flowed — the earliest mid-solve death.
    let ss = grid_split(8, 2, 506);
    let err = DistributedBackend
        .solve(
            &ss,
            None,
            &config(
                1e-10,
                2,
                RunMode::Processes {
                    transport: TransportKind::Uds,
                    child: child_cmd(),
                    fail: Some(FailInjection {
                        group: 0,
                        after_round: 0,
                    }),
                },
            ),
        )
        .expect_err("a crashed child must fail the solve");
    assert!(err.to_string().contains("group"), "typed error: {err}");
}

#[test]
fn unspawnable_child_fails_fast_with_no_orphans() {
    let ss = grid_split(8, 2, 507);
    let err = DistributedBackend
        .solve(
            &ss,
            None,
            &config(
                1e-8,
                2,
                RunMode::Processes {
                    transport: TransportKind::Uds,
                    child: ChildCommand {
                        exe: PathBuf::from("/nonexistent/dtm-net-child"),
                        prefix_args: Vec::new(),
                    },
                    fail: None,
                },
            ),
        )
        .expect_err("spawn failure must surface");
    assert!(err.to_string().contains("spawn"), "typed error: {err}");
}

#[test]
fn rejects_non_residual_termination() {
    let ss = grid_split(8, 2, 508);
    let mut cfg = config(1e-8, 1, RunMode::InProcess);
    cfg.common.termination = Termination::OracleRms { tol: 1e-8 };
    let err = DistributedBackend
        .solve(&ss, None, &cfg)
        .expect_err("oracle termination is not supported");
    assert!(err.to_string().contains("Residual"), "typed error: {err}");
}

/// A NaN tolerance never compares true: the run used to go to its round
/// cap and report unconverged. It is refused before any round runs — in
/// process, and before a child that cannot even be spawned is tried.
#[test]
fn a_nan_tolerance_is_refused_before_any_round() {
    let ss = grid_split(8, 2, 510);
    let unspawnable = RunMode::Processes {
        transport: TransportKind::Uds,
        child: ChildCommand {
            exe: PathBuf::from("/nonexistent/dtm-net-child"),
            prefix_args: Vec::new(),
        },
        fail: None,
    };
    let started = Instant::now();
    for mode in [RunMode::InProcess, unspawnable] {
        let err = DistributedBackend
            .solve(&ss, None, &config(f64::NAN, 2, mode))
            .expect_err("a NaN tolerance is refused");
        assert!(
            matches!(err, Error::NonFinite { value, .. } if value.is_nan()),
            "typed error: {err}"
        );
    }
    assert!(started.elapsed() < Duration::from_secs(1));
}

/// A negative tolerance is never met: refused before any round, typed,
/// naming the tolerance.
#[test]
fn a_negative_tolerance_is_refused_before_any_round() {
    let ss = grid_split(8, 2, 511);
    let err = DistributedBackend
        .solve(&ss, None, &config(-1e-6, 2, RunMode::InProcess))
        .expect_err("a negative tolerance is refused");
    assert!(
        matches!(&err, Error::Parse(m) if m.contains("-1e-6")),
        "typed error: {err}"
    );
}

#[test]
fn rejects_more_processes_than_parts() {
    let ss = grid_split(8, 2, 509);
    let err = DistributedBackend
        .solve(&ss, None, &config(1e-8, 7, RunMode::InProcess))
        .expect_err("7 groups over 2 parts is invalid");
    assert!(err.to_string().contains("processes"), "typed error: {err}");
}

#[test]
fn missing_topology_link_is_a_build_time_error() {
    // Strips chain parts 0-1-2, but the supplied machine only has the
    // 0↔1 link: validation must list the missing 1↔2 routes before
    // anything is spawned or solved.
    let ss = grid_split(9, 3, 510);
    let mut cfg = config(1e-8, 3, RunMode::InProcess);
    cfg.topology = Some(
        dtm_simnet::Topology::star(2)
            .with_delays(&dtm_simnet::DelayModel::uniform_ms(5.0, 20.0, 1)),
    );
    let err = DistributedBackend
        .solve(&ss, None, &cfg)
        .expect_err("missing link must fail validation");
    let text = err.to_string();
    assert!(
        text.contains("1->2") && text.contains("2->1"),
        "error must list the missing links: {text}"
    );
}

#[test]
fn indefinite_part_is_a_typed_error_naming_part_and_row() {
    // One interior diagonal entry negated: the matched impedance falls
    // back to s = 1 (no "impedance must be positive" detour) and the
    // part's factorization reports itself in the caller's numbering.
    let (side, row) = (10, 5 * 10 + 5);
    let mut flip = vec![0.0; side * side];
    flip[row] = -8.0; // a diagonal of 4 becomes −4
    let a = generators::grid2d_laplacian(side, side).add_to_diagonal(&flip);
    let g = ElectricGraph::from_system(a, vec![1.0; side * side]).expect("symmetric");
    let plan =
        PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, 3)).expect("valid");
    let ss = evs_split(&g, &plan, &EvsOptions::default()).expect("splits");
    let err = DistributedBackend
        .solve(&ss, None, &config(1e-8, 2, RunMode::InProcess))
        .expect_err("indefinite part");
    match err {
        dtm_sparse::Error::PartNotPositiveDefinite { part, row: r, .. } => {
            assert_eq!(r, row);
            assert!(ss.subdomains[part].global_of_local.contains(&row));
        }
        other => panic!("expected PartNotPositiveDefinite, got {other}"),
    }
}

/// The probe both end-of-run tests share: a 24² grid in 4 strips on 2
/// groups with a tolerance no residual can meet, so only the budget or
/// the round cap can end the run.
fn unreachable_tol(mode: RunMode, cap: usize, budget: Duration) -> DistributedConfig {
    let mut cfg = config(0.0, 2, mode);
    cfg.common.max_solves_per_node = cap;
    cfg.budget = budget;
    cfg
}

#[test]
fn budget_is_honoured_while_snapshots_stream() {
    // Live groups never leave the event channel quiet, so a deadline
    // looked at only when a receive times out is never looked at.
    let ss = grid_split(24, 4, 511);
    let cap = 2_000_000;
    let budget = Duration::from_millis(300);
    let started = std::time::Instant::now();
    let report = solve(&ss, &unreachable_tol(RunMode::InProcess, cap, budget));
    let took = started.elapsed();
    assert!(!report.converged);
    assert_eq!(report.stop, dtm_core::report::StopKind::Budget);
    assert!(
        report.total_solves < (cap * ss.n_parts()) as u64,
        "the budget, not the round cap, must have ended the run"
    );
    assert!(
        took < 2 * budget,
        "budget {budget:?}, returned after {took:?}"
    );
}

/// A run that ends at the round cap is an unconverged report with every
/// round accounted for — never a typed error from a group still sending
/// to a peer that has already left.
fn assert_ends_at_the_cap(ss: &SplitSystem, mode: RunMode, cap: usize) {
    let cfg = unreachable_tol(mode, cap, Duration::from_secs(120));
    let report = DistributedBackend
        .solve(ss, None, &cfg)
        .expect("the round cap is not an error");
    assert!(!report.converged);
    assert_eq!(report.total_solves, (cap * ss.n_parts()) as u64);
}

#[test]
fn round_cap_returns_an_unconverged_report_not_an_error() {
    let ss = grid_split(24, 4, 512);
    for _ in 0..50 {
        assert_ends_at_the_cap(&ss, RunMode::InProcess, 40);
    }
    assert_ends_at_the_cap(
        &ss,
        RunMode::Processes {
            transport: TransportKind::Uds,
            child: child_cmd(),
            fail: None,
        },
        40,
    );
}

/// The round cap across processes, under a watchdog: in the final round a
/// part still waits for its lower-coloured neighbours' waves of that round,
/// so a run whose last round dropped them would hang instead of ending.
/// The run must end within the watchdog as an unconverged report, with
/// every child it spawned reaped — none left alive or unreaped behind it.
#[test]
fn round_cap_in_processes_ends_inside_a_watchdog_with_no_orphans() {
    const GROUPS: [usize; 2] = [2, 4];
    let ss = grid_split(24, 4, 514);
    let want = (40 * ss.n_parts()) as u64;
    let (done_tx, done_rx) = channel();
    let runs = std::thread::spawn(move || {
        for groups in GROUPS {
            let mode = RunMode::Processes {
                transport: TransportKind::Uds,
                child: child_cmd(),
                fail: None,
            };
            let mut cfg = unreachable_tol(mode, 40, Duration::from_secs(120));
            cfg.processes = groups;
            let report = DistributedBackend.solve(&ss, None, &cfg);
            // The children this thread forked that are still alive or
            // unreaped (Linux lists them per thread).
            let left = std::fs::read_to_string("/proc/thread-self/children").unwrap_or_default();
            let outcome = report.map(|r| (r.converged, r.total_solves));
            if done_tx.send((outcome, left)).is_err() {
                break;
            }
        }
    });
    for groups in GROUPS {
        let (outcome, left) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{groups} groups: the capped run outlived the watchdog"));
        let outcome = outcome.expect("the round cap is not an error");
        assert_eq!(outcome, (false, want), "{groups} groups");
        assert!(
            left.trim().is_empty(),
            "{groups} groups left children: {left}"
        );
    }
    runs.join().expect("the runs' thread");
}

/// The links of a group whose peer has exited: the supervisor still
/// listens, the peer's socket is closed (when `peer_gone`).
struct PeerExited {
    peer_gone: bool,
}

impl GroupLinks for PeerExited {
    fn send_waves(&mut self, _peer: usize, _waves: &mut Vec<Wave>) -> dtm_sparse::Result<()> {
        if self.peer_gone {
            return Err(Error::Parse(
                "write frame: Broken pipe (os error 32)".into(),
            ));
        }
        Ok(())
    }

    fn send_snapshots(&mut self, _batch: &mut SnapshotBatch) -> dtm_sparse::Result<()> {
        Ok(())
    }
}

/// Group 0 of a two-group run whose peer, group 1, has already exited —
/// either its socket refuses the round's waves (`peer_gone`), or they are
/// written into the void and the peer's reader, at EOF, has hung up the
/// incoming wave channel. `stop_after` is when this group's own `Stop`
/// lands, if it ever does.
fn group_zero_after_its_peer_exited(
    peer_gone: bool,
    stop_after: Option<Duration>,
) -> dtm_sparse::Result<()> {
    let ss = grid_split(8, 2, 508);
    let mut built = build_nodes(&ss, &CommonConfig::default()).expect("factors");
    built.truncate(1);
    let mut nodes = BTreeMap::from([(0, built.remove(0))]);
    let (wave_tx, wave_rx) = channel();
    drop(wave_tx);
    let stop = Arc::new(AtomicBool::new(false));
    let mut io = GroupIo {
        wave_rx,
        links: PeerExited { peer_gone },
        stop: stop.clone(),
        due: Arc::new(AtomicU64::new(0)),
    };
    let ctx = GroupCtx {
        group: 0,
        group_of_part: vec![0, 1],
        colour_of_part: vec![0, 1],
        max_rounds: 1_000,
        fail_after_round: None,
    };
    let supervisor = stop_after.map(|after| {
        std::thread::spawn(move || {
            std::thread::sleep(after);
            stop.store(true, Ordering::Release);
        })
    });
    let run = run_group(&mut nodes, &ctx, &mut io);
    if let Some(h) = supervisor {
        h.join().expect("supervisor thread");
    }
    run
}

#[test]
fn link_closed_with_stop_right_behind_is_a_clean_exit() {
    // The supervisor stops the groups one after another: the peer read its
    // `Stop`, exited and closed its sockets a few milliseconds before this
    // group's own `Stop` is read. Not an error — `child_main` prints
    // nothing and exits 0 on `Ok`.
    let late = Some(Duration::from_millis(20));
    group_zero_after_its_peer_exited(true, late).expect("broken pipe, then Stop: clean");
    group_zero_after_its_peer_exited(false, late).expect("hung-up wave channel, then Stop: clean");
    // And with `Stop` already seen when the link closes.
    group_zero_after_its_peer_exited(true, Some(Duration::ZERO)).expect("Stop, then broken pipe");
}

/// A colour map that leaves a part of the group out is a typed error
/// before any round runs, not an index out of range.
#[test]
fn a_colour_map_missing_a_part_is_a_typed_error() {
    let ss = grid_split(8, 2, 515);
    let mut built = build_nodes(&ss, &CommonConfig::default()).expect("factors");
    let mut nodes = BTreeMap::from([(1, built.remove(1))]);
    let (_wave_tx, wave_rx) = channel();
    let mut io = GroupIo {
        wave_rx,
        links: PeerExited { peer_gone: false },
        stop: Arc::new(AtomicBool::new(false)),
        due: Arc::new(AtomicU64::new(0)),
    };
    let ctx = GroupCtx {
        group: 1,
        group_of_part: vec![0, 1],
        colour_of_part: vec![0],
        max_rounds: 10,
        fail_after_round: None,
    };
    let err = run_group(&mut nodes, &ctx, &mut io).expect_err("part 1 has no colour");
    assert!(
        matches!(&err, Error::Parse(m) if m.contains("part 1 is outside the colour map")),
        "{err}"
    );
}

#[test]
fn link_closed_with_no_stop_is_a_typed_error() {
    for (peer_gone, what) in [
        (true, "peer link to group 1 closed mid-solve"),
        (false, "wave channel disconnected mid-solve"),
    ] {
        let started = Instant::now();
        let err = group_zero_after_its_peer_exited(peer_gone, None)
            .expect_err("nobody is stopping the run: the link died");
        assert!(err.to_string().contains(what), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "bounded wait");
    }
}

/// A real `net-child` process for group 0 of a two-part, two-group run,
/// with this test as its supervisor and as group 1. The peer link is
/// closed before `Go`, so the child's first write of round-0 waves fails;
/// then the supervisor sends `Stop` after `stop_after`, if ever. Returns
/// the child's exit status and what it printed on stderr.
fn net_child_after_its_peer_closed(
    tag: &str,
    stop_after: Option<Duration>,
) -> (std::process::ExitStatus, String) {
    let ss = grid_split(8, 2, 513);
    let common = CommonConfig::default();
    let z = impedance::per_port(&ss, &common.impedance.assign(&ss).expect("z"));
    let dir = std::env::temp_dir().join(format!("dtm-net-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = dir.join("parent.sock").to_string_lossy().into_owned();
    let (listener, addr) = Listener::bind(TransportKind::Uds, &spec).expect("bind");
    let mut child = Command::new(env!("CARGO_BIN_EXE_net-child"))
        .args(["--connect", &addr, "--group", "0", "--transport", "uds"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn net-child");

    // Nonblocking, so that a child that never connects fails the test
    // instead of hanging it.
    listener.set_nonblocking(true).expect("nonblocking");
    let connect_by = Instant::now() + Duration::from_secs(20);
    let mut parent = loop {
        if let Some(s) = listener.try_accept().expect("accept") {
            break s;
        }
        let exited = child.try_wait().expect("try_wait");
        assert!(
            exited.is_none() && Instant::now() < connect_by,
            "net-child never connected: {exited:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    parent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let read = |s: &mut Stream| wire::read_frame(s).expect("frame").expect("not eof");
    assert!(matches!(read(&mut parent), Msg::Hello { group: 0 }));
    let plan = GroupPlan {
        group: 0,
        n_groups: 2,
        n_parts: 2,
        group_of_part: vec![0, 1],
        colour_of_part: vec![0, 1],
        max_rounds: 1_000,
        termination: common.termination,
        max_solves_per_node: 1_000,
        listen_spec: dir.join("peer-0.sock").to_string_lossy().into_owned(),
        parts: vec![PartPlan {
            sub: ss.subdomains[0].clone(),
            z_ports: z[0].clone(),
        }],
    };
    wire::write_frame(&mut parent, &Msg::Plan(Box::new(plan))).expect("plan");
    let Msg::Listening { addr: peer_addr } = read(&mut parent) else {
        panic!("expected Listening");
    };
    let addrs = vec![(0, peer_addr.clone()), (1, String::new())];
    wire::write_frame(&mut parent, &Msg::PeerMap { addrs }).expect("peer map");
    // Group 1 dials in, as a higher group does.
    let mut peer = Stream::connect(TransportKind::Uds, &peer_addr).expect("peer link");
    wire::write_frame(&mut peer, &Msg::PeerHello { group: 1 }).expect("peer hello");
    assert!(matches!(read(&mut parent), Msg::Ready(_)));

    // Group 1 is gone before the first round; then the run is stopped.
    drop(peer);
    wire::write_frame(&mut parent, &Msg::Go).expect("go");
    if let Some(after) = stop_after {
        std::thread::sleep(after);
        wire::write_frame(&mut parent, &Msg::Stop).expect("stop");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("net-child did not exit within 20 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
        .expect("stderr");
    drop(parent);
    let _ = std::fs::remove_dir_all(&dir);
    (status, stderr)
}

#[test]
fn net_child_closed_peer_with_stop_right_behind_exits_cleanly() {
    // `link_closed_with_stop_right_behind_is_a_clean_exit` in a real
    // process: the peer exited on its own `Stop` a moment before this
    // child's `Stop` is read.
    let (status, stderr) = net_child_after_its_peer_closed("stop", Some(Duration::from_millis(20)));
    assert!(status.success(), "{status}: {stderr}");
    assert!(stderr.is_empty(), "a clean exit prints nothing: {stderr}");
}

#[test]
fn net_child_closed_peer_with_no_stop_fails_typed() {
    let (status, stderr) = net_child_after_its_peer_closed("no-stop", None);
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("net-child group 0")
            && stderr.contains("peer link to group 1 closed mid-solve"),
        "{stderr}"
    );
}
