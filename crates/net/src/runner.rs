//! The parent supervisor: partitions the solve into groups, runs them —
//! as threads (in-process reference) or as spawned OS processes over
//! sockets — and scores rounds until the residual tolerance is met.
//!
//! Both modes funnel into one `supervise` loop: each group's per-round
//! [`SnapshotBatch`] arrives on a merged event channel, and the parent
//! feeds the *complete* rounds that the decay cadence
//! ([`next_round`]) asks for to its [`Monitor`] (ascending part order
//! within the round, whatever order the groups swept in, averaging each
//! vertex's copies as every gather does); the others are
//! dropped unscored. After each scored round it announces the next one
//! ([`Msg::Due`]: a shared atomic in process, a frame on each child's
//! supervisor link otherwise), and the groups build and ship no snapshot
//! of a round before it. It stops at the first scored round whose relative
//! residual meets the tolerance. The cadence scores every round near the
//! predicted crossing and few far from it. Because rounds and their exact
//! metrics — not wall-clock races — decide which rounds are scored and
//! where the run stops, the returned solution is a pure function of the
//! problem, and socket and in-process runs agree bit for bit.
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
use dtm_core::monitor::{next_round, wall_time, Monitor, Retired};
use dtm_core::report::StopKind;
use dtm_core::runtime::{build_node, CommonConfig, GatherMap, NodeRuntime, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::SimDuration;
use dtm_sparse::{Error, Result};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable the failure-injection hook travels through: set
/// on one child process, makes it exit mid-solve after the given round.
pub const FAIL_ENV: &str = "DTM_NET_FAIL_AFTER_ROUND";

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// First wait of [`recheck_after`]'s schedule, and its caps while
/// children connect and while they exit.
const RECHECK_FIRST: Duration = Duration::from_micros(100);
const ACCEPT_RECHECK_MAX: Duration = Duration::from_millis(5);
const REAP_RECHECK_MAX: Duration = Duration::from_millis(10);

/// How long to sleep after the `misses`-th miss in a row (0-based) of a
/// loop that polls for something until a deadline `left` away: 100 µs,
/// doubling per miss up to `cap`, and never past the deadline. Children
/// connect within a few milliseconds and exit within about one of `Stop`,
/// so a flat `cap`-long sleep would cost more than the wait itself.
fn recheck_after(misses: u32, cap: Duration, left: Duration) -> Duration {
    RECHECK_FIRST
        .saturating_mul(1 << misses.min(16))
        .min(cap)
        .min(left)
}

/// Everything both run modes need.
pub(crate) struct RunInputs<'a> {
    pub split: &'a SplitSystem,
    pub z_ports: &'a [Vec<f64>],
    pub common: &'a CommonConfig,
    pub group_of_part: &'a [usize],
    pub colour_of_part: &'a [usize],
    pub n_groups: usize,
    pub tol: f64,
    /// Oracle reference, reported against — never stopped on.
    pub reference: Option<&'a [f64]>,
    pub budget: Duration,
    pub max_rounds: u64,
}

/// What a run produced, mode-independent.
pub(crate) struct RunOutcome {
    /// The last scored round + 1: the stop round, the round cap, or the
    /// round scored once the budget ran out.
    pub rounds_completed: u64,
    /// Tolerance met at the last scored round, or the budget / round cap
    /// ran out first.
    pub stop: StopKind,
    /// The scored column as retired: solution, residual, RMS.
    pub column: Retired,
    pub series: Vec<(f64, f64)>,
    pub rates: GroupRates,
    pub elapsed: Duration,
}

/// The longest the supervisor blocks on the event channel before it looks
/// at the clock again — and how long, once the budget is out, it waits for
/// the round it then reports.
const RECV_INTERVAL: Duration = Duration::from_millis(50);

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

/// Consume group events until the tolerance is met at some scored round,
/// every group reports done (round cap), or the budget expires.
///
/// A round is complete once every part's snapshot for it has arrived, and
/// rounds complete in order (each group sends its rounds in order). The
/// supervisor scores the complete rounds [`next_round`] asks for — the
/// next one is picked from the decay between the last two scored rounds,
/// and the cap's last round is never skipped — so which rounds are scored,
/// and the one the run stops at, depend on round indices and exact metrics
/// only, never on arrival timing. Snapshots of the rounds in between are
/// dropped on arrival. Once the budget is out, the next round to complete
/// is scored and reported, if it completes within one receive interval.
///
/// Every time the next round to score moves, `announce` tells the groups
/// ([`Msg::Due`]), so that they stop building and shipping the snapshots
/// of the rounds in between; a group that has not heard yet ships them,
/// and they are dropped here as before.
fn supervise(
    inp: &RunInputs<'_>,
    events: &Receiver<(usize, UpEvent)>,
    started: Instant,
    rates: GroupRates,
    announce: &mut dyn FnMut(u64),
) -> Result<RunOutcome> {
    let split = inp.split;
    let n_parts = split.n_parts();
    let (map, b) = (GatherMap::of_split(split, None), &split.b);
    let mut monitor = Monitor::new(&map, 1, SimDuration::ZERO);
    monitor.admit(0, b, Termination::Residual { tol: inp.tol }, inp.reference);
    let deadline = started + inp.budget;
    let last_round = inp.max_rounds.saturating_sub(1);

    // Snapshots of the rounds from the next one to score to the newest.
    let mut pending: BTreeMap<u64, Vec<SnapshotBatch>> = BTreeMap::new();
    let mut due: u64 = 0;
    // The last scored round and its metric.
    let mut last: Option<(u64, f64)> = None;
    let mut overtime: Option<Instant> = None;
    let mut stop = StopKind::Budget;
    let mut done_groups = 0usize;

    // (Per-sender FIFO: every batch a group sent precedes its Done on the
    // merged channel, so after the last Done nothing more comes.)
    while done_groups < inp.n_groups {
        // Checked on every pass, not only when the channel runs dry: live
        // groups never leave it quiet for a whole receive interval.
        let now = Instant::now();
        if now >= deadline && overtime.is_none() {
            overtime = Some(now + RECV_INTERVAL);
            due = last.map_or(0, |(r, _)| r + 1);
            announce(due);
        }
        let Some(left) = overtime.unwrap_or(deadline).checked_duration_since(now) else {
            break;
        };
        let batch = match events.recv_timeout(left.min(RECV_INTERVAL)) {
            Ok((_, UpEvent::Snapshots(batch))) => batch,
            Ok((_, UpEvent::Done)) => {
                done_groups += 1;
                continue;
            }
            Ok((g, UpEvent::Failed(text))) => {
                return Err(derr(format!("group {g} failed: {text}")));
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(derr("all group links closed before completion"));
            }
        };
        // Rounds the cadence skips, and out-of-contract ones, are dropped.
        let round = batch.round();
        if round < due || round > last_round {
            continue;
        }
        let batches = pending.entry(round).or_default();
        batches.push(batch);
        if batches.iter().map(SnapshotBatch::len).sum::<usize>() < n_parts {
            continue;
        }
        let batches = pending.remove(&round).unwrap_or_default();
        // Parts in ascending order: with three or more copies of a vertex
        // the order of the additions is part of the bits.
        let by_part = solutions_by_part(split, &batches)?;
        let metric = monitor.update_round(wall_time(started), by_part);
        due = next_round(last, (round, metric), inp.tol).min(last_round);
        last = Some((round, metric));
        announce(due);
        // Rounds that started arriving before this one completed and that
        // the cadence now skips.
        pending.retain(|&r, _| r >= due);
        if monitor.done(0) {
            stop = StopKind::OracleTolerance;
            break;
        }
        if overtime.is_some() {
            break;
        }
    }

    Ok(RunOutcome {
        rounds_completed: last.map_or(0, |(r, _)| r + 1),
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

/// The in-process links of one group: a batch moves to its receiver
/// whole, and a buffer its receiver drained earlier takes its place.
struct ChannelLinks {
    group: usize,
    peers: BTreeMap<usize, Sender<Vec<Wave>>>,
    up: Sender<(usize, UpEvent)>,
    /// Drained wave batches, shared by every group of the run: each
    /// batch received returns one buffer, each batch sent takes one.
    spare: Arc<Mutex<Vec<Vec<Wave>>>>,
}

impl GroupLinks for ChannelLinks {
    fn send_waves(&mut self, peer: usize, waves: &mut Vec<Wave>) -> Result<()> {
        // A push or a pop leaves the list valid: a poisoned lock is fine.
        let fresh = (self.spare.lock())
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
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

    fn recycle(&mut self, drained: Vec<Wave>) {
        (self.spare.lock())
            .unwrap_or_else(PoisonError::into_inner)
            .push(drained);
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
    let due = Arc::new(AtomicU64::new(0));
    let spare = Arc::new(Mutex::new(Vec::new()));

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
                spare: spare.clone(),
            },
            stop: stop.clone(),
            due: due.clone(),
        };
        let ctx = GroupCtx {
            group: g,
            group_of_part: inp.group_of_part.to_vec(),
            colour_of_part: inp.colour_of_part.to_vec(),
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

    let outcome = supervise(inp, &ev_rx, started, rates, &mut |round| {
        due.store(round, Ordering::Release);
    });
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
        for misses in 0.. {
            // An error from `try_wait` counts as exited: `kill_all` reaps.
            let all_done = self
                .children
                .iter_mut()
                .all(|(_, c)| !matches!(c.try_wait(), Ok(None)));
            let now = Instant::now();
            if all_done || now >= deadline {
                break;
            }
            std::thread::sleep(recheck_after(misses, REAP_RECHECK_MAX, deadline - now));
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
    let mut misses = 0;
    while conns.len() < n_groups {
        match listener.try_accept()? {
            Some(s) => {
                misses = 0;
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
                let now = Instant::now();
                if now >= accept_deadline {
                    return Err(derr("timed out waiting for children to connect"));
                }
                std::thread::sleep(recheck_after(
                    misses,
                    ACCEPT_RECHECK_MAX,
                    accept_deadline - now,
                ));
                misses += 1;
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
            colour_of_part: inp.colour_of_part.iter().map(|&x| x as u64).collect(),
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

    // A child that cannot be told is one that failed; its reader
    // reports that.
    let outcome = supervise(inp, &ev_rx, started, rates, &mut |round| {
        for conn in writers.values_mut() {
            let _ = wire::write_frame(conn, &Msg::Due(round));
        }
    });

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

#[cfg(test)]
mod tests {
    use super::*;

    /// On a simulated clock: the first re-check comes within 200 µs of a
    /// miss, the waits grow to the cap and stay there, and no sleep ends
    /// past the deadline — a short deadline is run out exactly.
    #[test]
    fn recheck_schedule_starts_short_grows_to_its_cap_and_stops_at_the_deadline() {
        let us = Duration::from_micros;
        for (cap, budget) in [
            (ACCEPT_RECHECK_MAX, HANDSHAKE_TIMEOUT),
            (REAP_RECHECK_MAX, REAP_TIMEOUT),
            (REAP_RECHECK_MAX, us(2_345)),
            (ACCEPT_RECHECK_MAX, Duration::ZERO),
        ] {
            assert!(recheck_after(0, cap, budget) <= us(200));
            let (mut t, mut prev) = (Duration::ZERO, Duration::ZERO);
            for misses in 0..64 {
                let left = budget - t;
                let wait = recheck_after(misses, cap, left);
                assert!(wait <= left && wait <= cap, "miss {misses}: {wait:?}");
                assert!(wait >= prev.min(left), "miss {misses}: the waits shrank");
                (t, prev) = (t + wait, wait);
            }
            assert!(prev == cap || t == budget, "{cap:?} {budget:?}: {t:?}");
        }
        // Any run of misses, however long, stays at the cap.
        assert_eq!(
            recheck_after(u32::MAX, REAP_RECHECK_MAX, REAP_TIMEOUT),
            REAP_RECHECK_MAX
        );
    }
}
