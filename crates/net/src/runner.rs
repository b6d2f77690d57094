//! The parent supervisor: partitions the solve into groups, runs them —
//! as threads (in-process reference) or as spawned OS processes over
//! sockets — and evaluates rounds in order until the residual tolerance
//! is met.
//!
//! Both modes funnel into one `supervise` loop: each group's per-round
//! [`SnapshotBatch`] arrives on a merged event channel, the parent feeds
//! each *complete* round to its [`Monitor`] in round order (ascending
//! part order within the round, whatever order the groups swept in,
//! matching [`SplitSystem::reconstruct`]-style averaging of copies) and
//! stops at the first round whose relative residual meets the tolerance.
//! Because rounds — not wall-clock races — define the stop
//! decision, the returned solution is a pure function of the problem, and
//! socket and in-process runs agree bit for bit.
//!
//! In process mode the parent runs one reader thread per child (a
//! [`wire::FrameReader`] that turns each frame into one event) next to
//! the supervising thread, which keeps the write halves for `Stop`.
//!
//! Teardown is unconditional in process mode: whatever happens — clean
//! convergence, a child crash, a wire error — every spawned child is
//! killed and reaped before the runner returns, so a failed solve leaves
//! no orphan processes behind.

use crate::round::{self, GroupCtx, GroupIo, GroupLinks, UpEvent};
use crate::socket::{Listener, Stream, TransportKind};
use crate::wire::{self, GroupPlan, GroupRates, Msg, PartPlan, SnapshotBatch, Wave};
use dtm_core::monitor::{wall_time, Monitor, Retired};
use dtm_core::report::StopKind;
use dtm_core::runtime::{build_node, CommonConfig, GatherMap, NodeRuntime, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::SimDuration;
use dtm_sparse::{Error, Result};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable the failure-injection hook travels through: set
/// on one child process, makes it exit mid-solve after the given round.
pub const FAIL_ENV: &str = "DTM_NET_FAIL_AFTER_ROUND";

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything both run modes need.
pub(crate) struct RunInputs<'a> {
    pub split: &'a SplitSystem,
    pub z_ports: &'a [Vec<f64>],
    pub common: &'a CommonConfig,
    pub group_of_part: &'a [usize],
    pub n_groups: usize,
    pub tol: f64,
    /// Oracle reference, reported against — never stopped on.
    pub reference: Option<&'a [f64]>,
    pub budget: Duration,
    pub max_rounds: u64,
}

/// What a run produced, mode-independent.
pub(crate) struct RunOutcome {
    pub rounds_completed: u64,
    /// Tolerance met at the last evaluated round, or the budget / round
    /// cap ran out first.
    pub stop: StopKind,
    /// The scored column as retired: solution, residual, RMS.
    pub column: Retired,
    pub series: Vec<(f64, f64)>,
    pub rates: GroupRates,
    pub elapsed: Duration,
}

fn derr(what: impl std::fmt::Display) -> Error {
    Error::Parse(format!("distributed: {what}"))
}

// ---------------------------------------------------------------------------
// Shared round evaluation
// ---------------------------------------------------------------------------

/// Index one round's batches by part, or say why they are not exactly
/// one right-sized solution per part.
fn solutions_by_part<'a>(
    split: &SplitSystem,
    batches: &'a [SnapshotBatch],
) -> Result<Vec<&'a [f64]>> {
    let mut by_part: Vec<Option<&[f64]>> = vec![None; split.n_parts()];
    for (part, vals) in batches.iter().flat_map(SnapshotBatch::iter) {
        let fits = usize::try_from(part)
            .ok()
            .and_then(|p| Some((by_part.get_mut(p)?, split.subdomains.get(p)?)))
            .filter(|(slot, sd)| slot.is_none() && sd.global_of_local.len() == vals.len());
        match fits {
            Some((slot, _)) => *slot = Some(vals),
            None => {
                return Err(derr(format!(
                    "snapshot of part {part} is unknown, repeated or the wrong size"
                )))
            }
        }
    }
    by_part
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| derr("a round's snapshot batches leave a part out"))
}

/// Consume group events until the tolerance is met at some round, every
/// group reports done (round cap), or the budget expires. Rounds are
/// evaluated strictly in order, each only once every part's snapshot for
/// it has arrived.
fn supervise(
    inp: &RunInputs<'_>,
    events: &Receiver<(usize, UpEvent)>,
    started: Instant,
    rates: GroupRates,
) -> Result<RunOutcome> {
    let split = inp.split;
    let n_parts = split.n_parts();
    let (a, b) = split.reconstruct();
    let map = GatherMap::of_split(split, &a, &b, None);
    let mut monitor = Monitor::new(&map, 1, SimDuration::ZERO);
    monitor.admit(0, &b, Termination::Residual { tol: inp.tol }, inp.reference);
    let deadline = started + inp.budget;

    let mut pending: BTreeMap<u64, Vec<SnapshotBatch>> = BTreeMap::new();
    let mut stop = StopKind::Budget;
    let mut next_round: u64 = 0;
    let mut done_groups = 0usize;

    'outer: loop {
        // Evaluate every round that just became complete, in order.
        while pending
            .get(&next_round)
            .is_some_and(|bs| bs.iter().map(SnapshotBatch::len).sum::<usize>() >= n_parts)
        {
            let batches = pending.remove(&next_round).unwrap_or_default();
            // Parts in ascending order: with three or more copies of a
            // vertex the order of the additions is part of the bits.
            let by_part = solutions_by_part(split, &batches)?;
            monitor.update_round(wall_time(started), by_part);
            next_round += 1;
            if monitor.done(0) {
                stop = StopKind::OracleTolerance;
                break 'outer;
            }
        }
        if done_groups == inp.n_groups {
            // Nothing more will arrive (per-sender FIFO: every batch a
            // group sent precedes its Done on the merged channel).
            break;
        }
        // Checked on every pass, not only when the channel runs dry:
        // live groups never leave it quiet for a whole poll interval.
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match events.recv_timeout(left.min(Duration::from_millis(50))) {
            // Already-evaluated or out-of-contract rounds are dropped
            // (late batches keep streaming in while a stop decision
            // propagates).
            Ok((_, UpEvent::Snapshots(batch))) => {
                if (next_round..inp.max_rounds).contains(&batch.round()) {
                    pending.entry(batch.round()).or_default().push(batch);
                }
            }
            Ok((_, UpEvent::Done)) => done_groups += 1,
            Ok((g, UpEvent::Failed(text))) => {
                return Err(derr(format!("group {g} failed: {text}")));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(derr("all group links closed before completion"));
            }
        }
    }

    Ok(RunOutcome {
        rounds_completed: next_round,
        stop,
        column: monitor.retire(0),
        series: monitor.into_series(),
        rates,
        elapsed: started.elapsed(),
    })
}

// ---------------------------------------------------------------------------
// In-process mode: groups as threads, channels as links
// ---------------------------------------------------------------------------

/// Build each part's node and bucket them by group.
fn build_groups(inp: &RunInputs<'_>) -> Result<BTreeMap<usize, BTreeMap<usize, NodeRuntime>>> {
    let mut groups: BTreeMap<usize, BTreeMap<usize, NodeRuntime>> = BTreeMap::new();
    for (p, sd) in inp.split.subdomains.iter().enumerate() {
        let z = inp
            .z_ports
            .get(p)
            .ok_or_else(|| derr("impedance table shorter than part list"))?;
        let node = build_node(sd, z, inp.common)?;
        let g = inp.group_of_part.get(p).copied().unwrap_or(0);
        groups.entry(g).or_default().insert(p, node);
    }
    Ok(groups)
}

/// The in-process links of one group: a round's batch moves to its
/// receiver whole, and a buffer of the same capacity takes its place.
struct ChannelLinks {
    group: usize,
    peers: BTreeMap<usize, Sender<Vec<Wave>>>,
    up: Sender<(usize, UpEvent)>,
}

impl GroupLinks for ChannelLinks {
    fn send_waves(&mut self, peer: usize, waves: &mut Vec<Wave>) -> Result<()> {
        let fresh = Vec::with_capacity(waves.len());
        self.peers
            .get(&peer)
            .ok_or_else(|| derr(format!("no link to group {peer}")))?
            .send(std::mem::replace(waves, fresh))
            .map_err(|_| derr("receiver gone"))
    }

    fn send_snapshots(&mut self, batch: &mut SnapshotBatch) -> Result<()> {
        let fresh = SnapshotBatch::with_capacity(batch.round(), batch.len(), batch.n_values());
        self.up
            .send((
                self.group,
                UpEvent::Snapshots(std::mem::replace(batch, fresh)),
            ))
            .map_err(|_| derr("receiver gone"))
    }
}

/// Run the solve with every group on an OS thread in this process — the
/// bitwise reference the socket mode is compared against.
pub(crate) fn run_in_process(inp: &RunInputs<'_>) -> Result<RunOutcome> {
    let started = Instant::now();
    let groups = build_groups(inp)?;
    let mut rates = GroupRates::default();
    for nodes in groups.values() {
        let r = round::group_rates(nodes);
        rates.solves_per_round += r.solves_per_round;
        rates.messages_per_round += r.messages_per_round;
        rates.flops_per_round += r.flops_per_round;
    }

    let mut wave_tx: BTreeMap<usize, Sender<Vec<Wave>>> = BTreeMap::new();
    let mut wave_rx: BTreeMap<usize, Receiver<Vec<Wave>>> = BTreeMap::new();
    for &g in groups.keys() {
        let (tx, rx) = channel();
        wave_tx.insert(g, tx);
        wave_rx.insert(g, rx);
    }
    let (ev_tx, ev_rx) = channel();
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for (g, mut nodes) in groups {
        let peers = wave_tx
            .iter()
            .filter(|&(&h, _)| h != g)
            .map(|(&h, tx)| (h, tx.clone()))
            .collect();
        let Some(rx) = wave_rx.remove(&g) else {
            continue;
        };
        let mut io = GroupIo {
            wave_rx: rx,
            links: ChannelLinks {
                group: g,
                peers,
                up: ev_tx.clone(),
            },
            stop: stop.clone(),
        };
        let ctx = GroupCtx {
            group: g,
            group_of_part: inp.group_of_part.to_vec(),
            max_rounds: inp.max_rounds,
            fail_after_round: None,
        };
        handles.push(std::thread::spawn(move || {
            let end = match round::run_group(&mut nodes, &ctx, &mut io) {
                Ok(()) => UpEvent::Done,
                Err(e) => UpEvent::Failed(e.to_string()),
            };
            let _ = io.links.up.send((g, end));
        }));
    }
    drop(ev_tx);
    drop(wave_tx);

    let outcome = supervise(inp, &ev_rx, started, rates);
    stop.store(true, Ordering::Release);
    for h in handles {
        match h.join() {
            Ok(()) => {}
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    outcome
}

// ---------------------------------------------------------------------------
// Process mode: groups as spawned children over sockets
// ---------------------------------------------------------------------------

/// How child processes are launched: the executable plus any leading
/// arguments before the protocol flags (`repro` passes itself plus the
/// hidden `net-child` subcommand; the crate's own tests pass the
/// `net-child` binary directly).
#[derive(Debug, Clone)]
pub struct ChildCommand {
    /// Executable path.
    pub exe: PathBuf,
    /// Arguments inserted before `--connect …`.
    pub prefix_args: Vec<String>,
}

/// Failure-injection hook for teardown tests: group `group` exits with a
/// nonzero status after completing round `after_round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailInjection {
    /// Which group's child crashes.
    pub group: usize,
    /// The round after which it crashes.
    pub after_round: u64,
}

struct Brood {
    children: Vec<(usize, std::process::Child)>,
}

impl Brood {
    /// Kill and reap every child unconditionally (idempotent).
    fn kill_all(&mut self) {
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.children.clear();
    }

    /// Give children until `deadline` to exit on their own, then kill
    /// the rest. Always reaps everything.
    fn reap_graceful(&mut self, deadline: Instant) {
        loop {
            let mut all_done = true;
            for (_, c) in &mut self.children {
                match c.try_wait() {
                    Ok(Some(_)) => {}
                    Ok(None) => all_done = false,
                    Err(_) => {}
                }
            }
            if all_done || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill_all();
    }

    /// Fail if any child has already exited (used while waiting on
    /// handshake steps, so a child that died at startup surfaces as a
    /// typed error instead of a 30-second timeout).
    fn check_alive(&mut self) -> Result<()> {
        for (g, c) in &mut self.children {
            if let Ok(Some(status)) = c.try_wait() {
                return Err(derr(format!("child for group {g} exited early: {status}")));
            }
        }
        Ok(())
    }
}

/// Unique scratch directory for this run's UDS paths.
fn scratch_dir() -> Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dtm-net-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| derr(format!("scratch dir: {e}")))?;
    Ok(dir)
}

/// Run the solve with one spawned OS process per group, linked over
/// `transport` sockets. Children are always reaped before returning,
/// error or not.
pub(crate) fn run_processes(
    inp: &RunInputs<'_>,
    transport: TransportKind,
    child_cmd: &ChildCommand,
    fail: Option<FailInjection>,
) -> Result<RunOutcome> {
    let started = Instant::now();
    let dir = scratch_dir()?;
    let parent_spec = match transport {
        TransportKind::Uds => dir.join("parent.sock").to_string_lossy().into_owned(),
        TransportKind::Tcp => "127.0.0.1:0".to_string(),
    };
    let (listener, parent_addr) = Listener::bind(transport, &parent_spec)?;
    listener.set_nonblocking(true)?;

    let mut brood = Brood {
        children: Vec::new(),
    };
    for g in 0..inp.n_groups {
        let mut cmd = std::process::Command::new(&child_cmd.exe);
        cmd.args(&child_cmd.prefix_args)
            .arg("--connect")
            .arg(&parent_addr)
            .arg("--group")
            .arg(g.to_string())
            .arg("--transport")
            .arg(transport.name());
        if let Some(f) = fail {
            if f.group == g {
                cmd.env(FAIL_ENV, f.after_round.to_string());
            }
        }
        match cmd.spawn() {
            Ok(child) => brood.children.push((g, child)),
            Err(e) => {
                brood.kill_all();
                let _ = std::fs::remove_dir_all(&dir);
                return Err(derr(format!("spawn child for group {g}: {e}")));
            }
        }
    }

    let result = run_processes_inner(inp, transport, &listener, &dir, &mut brood, started);
    match result {
        Ok(outcome) => {
            // Graceful teardown: Stop frames were already sent; give the
            // children a moment to flush Done and exit, then reap.
            brood.reap_graceful(Instant::now() + REAP_TIMEOUT);
            let _ = std::fs::remove_dir_all(&dir);
            Ok(outcome)
        }
        Err(e) => {
            brood.kill_all();
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// The fallible part of process mode; the caller owns teardown.
fn run_processes_inner(
    inp: &RunInputs<'_>,
    transport: TransportKind,
    listener: &Listener,
    dir: &std::path::Path,
    brood: &mut Brood,
    started: Instant,
) -> Result<RunOutcome> {
    let n_groups = inp.n_groups;

    // Accept one supervisor link per child; each opens with Hello.
    let mut conns: BTreeMap<usize, Stream> = BTreeMap::new();
    let accept_deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    while conns.len() < n_groups {
        match listener.try_accept()? {
            Some(s) => {
                s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
                let mut s = s;
                match wire::read_frame(&mut s)? {
                    Some(Msg::Hello { group }) => {
                        conns.insert(group as usize, s);
                    }
                    other => return Err(derr(format!("expected Hello, got {other:?}"))),
                }
            }
            None => {
                brood.check_alive()?;
                if Instant::now() >= accept_deadline {
                    return Err(derr("timed out waiting for children to connect"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    if conns.len() != n_groups || conns.keys().copied().ne(0..n_groups) {
        return Err(derr("children identified with unexpected group ids"));
    }

    // Ship each group its plan.
    for (&g, conn) in &mut conns {
        let parts: Vec<PartPlan> = inp
            .split
            .subdomains
            .iter()
            .enumerate()
            .filter(|&(p, _)| inp.group_of_part.get(p) == Some(&g))
            .map(|(p, sd)| PartPlan {
                sub: sd.clone(),
                z_ports: inp.z_ports.get(p).cloned().unwrap_or_default(),
            })
            .collect();
        let listen_spec = match transport {
            TransportKind::Uds => dir
                .join(format!("peer-{g}.sock"))
                .to_string_lossy()
                .into_owned(),
            TransportKind::Tcp => "127.0.0.1:0".to_string(),
        };
        let plan = GroupPlan {
            group: g as u64,
            n_groups: n_groups as u64,
            n_parts: inp.split.n_parts() as u64,
            group_of_part: inp.group_of_part.iter().map(|&x| x as u64).collect(),
            max_rounds: inp.max_rounds,
            termination: inp.common.termination,
            max_solves_per_node: inp.common.max_solves_per_node as u64,
            listen_spec,
            parts,
        };
        wire::write_frame(conn, &Msg::Plan(Box::new(plan)))?;
    }

    // Collect peer listener addresses, broadcast the map.
    let mut addrs: Vec<(u64, String)> = Vec::with_capacity(n_groups);
    for (&g, conn) in &mut conns {
        brood.check_alive()?;
        match wire::read_frame(conn)? {
            Some(Msg::Listening { addr }) => addrs.push((g as u64, addr)),
            other => return Err(derr(format!("expected Listening, got {other:?}"))),
        }
    }
    for conn in conns.values_mut() {
        wire::write_frame(
            conn,
            &Msg::PeerMap {
                addrs: addrs.clone(),
            },
        )?;
    }

    // Wait for Ready (peer mesh up), summing per-round rates.
    let mut rates = GroupRates::default();
    for conn in conns.values_mut() {
        brood.check_alive()?;
        match wire::read_frame(conn)? {
            Some(Msg::Ready(r)) => {
                rates.solves_per_round += r.solves_per_round;
                rates.messages_per_round += r.messages_per_round;
                rates.flops_per_round += r.flops_per_round;
            }
            other => return Err(derr(format!("expected Ready, got {other:?}"))),
        }
    }
    for conn in conns.values_mut() {
        wire::write_frame(conn, &Msg::Go)?;
    }

    // Steady state: one reader thread per child feeds the merged event
    // channel; the write halves stay here for the Stop frames.
    let (ev_tx, ev_rx) = channel();
    let mut writers: BTreeMap<usize, Stream> = BTreeMap::new();
    for (g, conn) in conns {
        conn.set_read_timeout(None)?;
        let reader = conn.try_clone()?;
        writers.insert(g, conn);
        let ev = ev_tx.clone();
        std::thread::spawn(move || child_link_reader(g, reader, &ev));
    }
    drop(ev_tx);

    let outcome = supervise(inp, &ev_rx, started, rates);

    // Stop everyone regardless of how supervision ended; the caller
    // reaps.
    for conn in writers.values_mut() {
        let _ = wire::write_frame(conn, &Msg::Stop);
    }
    outcome
}

/// Pump one child's supervisor link into the merged event channel, one
/// event per frame. A link that closes before `Done` is a child failure.
fn child_link_reader(g: usize, stream: Stream, ev: &Sender<(usize, UpEvent)>) {
    let mut frames = wire::FrameReader::new(stream);
    let mut saw_done = false;
    loop {
        match frames.read() {
            Ok(Some(Msg::SnapshotBatch(batch))) => {
                if ev.send((g, UpEvent::Snapshots(batch))).is_err() {
                    break;
                }
            }
            Ok(Some(Msg::Done)) => {
                saw_done = true;
                let _ = ev.send((g, UpEvent::Done));
            }
            Ok(Some(Msg::Err { text })) => {
                let _ = ev.send((g, UpEvent::Failed(text)));
                break;
            }
            Ok(Some(_)) => {}
            Ok(None) => {
                if !saw_done {
                    let _ = ev.send((g, UpEvent::Failed("supervisor link closed".into())));
                }
                break;
            }
            Err(e) => {
                if !saw_done {
                    let _ = ev.send((g, UpEvent::Failed(format!("supervisor link error: {e}"))));
                }
                break;
            }
        }
    }
}
