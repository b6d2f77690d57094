//! The two wall-clock fabrics — every real-time executor in this crate is
//! one of them, driving one [`AsyncNode`] type.
//!
//! The paper's Table 1 is *one* node program that runs unchanged on any
//! machine; [`AsyncNode`] + [`Transport`](crate::runtime::Transport) say so
//! in types, and this module is the other half of the claim: each way of
//! running nodes against the wall clock is written **once**, generic over
//! the node. DTM ([`crate::rayon_backend`], [`crate::threaded`]), the
//! randomized-asynchrony baselines ([`crate::async_baselines`]) and the
//! rolling sessions ([`crate::session`]) are callers.
//!
//! * [`Pool`] — one *task per activation* on a work-stealing pool: a wave
//!   is an inbox entry plus a spawned task, so the transmission delay is
//!   task queueing/stealing latency. Subdomain count is decoupled from
//!   thread count and no thread parks on an idle node.
//! * [`Threads`] — one *OS thread per node* parked on a channel: the delay
//!   is real scheduling/channel latency, optionally shaped by a router
//!   thread that holds each wave for its link's delay.
//!
//! # Hooks
//!
//! Each fabric takes one per-node [`Hook`], run before the node may step:
//! it can mutate the node and returns whether it did (which forces a step
//! even with no wave pending). A one-shot solve passes [`no_hook`]; a
//! rolling session passes its column-swap mailbox. That is the whole
//! difference between the two — a session is a hook, not a fork of the
//! loop.
//!
//! # Halting is a state, not an exit
//!
//! Under [`Termination::LocalDelta`](crate::runtime::Termination::LocalDelta) a
//! node whose step returns
//! [`NodeControl::Converged`] goes **passive**: it is no longer kicked, and
//! the waves of that very step — sub-tolerance by definition — are dropped
//! at passive receivers (which is what lets the exchange die out). But it
//! still listens: a wave from a step that returned
//! [`NodeControl::Continue`] **re-arms** a passive receiver, which absorbs
//! it and steps again (a large delta resets its streak). Without this, a
//! node that starts late meets neighbours that already converged against
//! its zero boundary guess, and the run ends "all halted" on a wrong
//! answer. [`NodeControl::Capped`] is terminal. A run is *all halted* only
//! when every node is passive or capped **and** the fabric is quiescent.
//! A fabric that goes quiescent with live nodes left (their neighbours
//! fell silent) *kicks* them: re-solving against an unchanged boundary is
//! a zero delta, which lets the Table 1 step 3.3 streak complete.

use crate::monitor::{wall_time, POLL_INTERVAL};
use crate::report::{BackendKind, RunSummary, SolveReport, StopKind, Totals};
use crate::runtime::wallclock::SharedBlock;
use crate::runtime::{AsyncNode, DtmMsg, NodeControl, RunSpec};
use crate::sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::sync::{thread, Arc, AtomicBool, AtomicI64, AtomicUsize, Mutex, Ordering};
use dtm_simnet::{SimDuration, Topology};
use dtm_sparse::Result;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::time::{Duration, Instant};

/// Per-node hook run before the node may step; returns whether it changed
/// the node (see the [module docs](self)).
pub type Hook<N> = Box<dyn Fn(&mut N) -> bool + Send + Sync>;

/// The hook of a one-shot solve: nothing to do between steps.
pub fn no_hook<N>() -> Hook<N> {
    Box::new(|_| false)
}

/// What a supervisor needs of a running fabric.
pub trait Fabric {
    /// Per-node published solution blocks.
    fn snapshots(&self) -> &[SharedBlock];

    /// Whether every node is passive or capped **and** nothing is queued,
    /// running or in flight. A fabric started with `kick_idle` kicks its
    /// live nodes when it finds itself quiescent short of that.
    fn all_halted(&self) -> bool;

    /// Make node `p` run its hook soon even if no wave arrives.
    fn wake(&self, p: usize);

    /// Stop the fabric, wait for it, and read the work counters off the
    /// nodes. Idempotent; also run on drop.
    fn finish(&mut self) -> Totals;
}

/// Which nodes are passive or capped. A flag is set by the node's own
/// step and cleared by the activation that re-arms it, both under that
/// node's serialization (state lock / owning thread); senders only read.
struct Halts {
    halted: Vec<AtomicBool>,
    count: AtomicUsize,
}

impl Halts {
    fn new(n: usize) -> Self {
        Self {
            halted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            count: AtomicUsize::new(0),
        }
    }

    fn is_halted(&self, p: usize) -> bool {
        self.halted[p].load(Ordering::Acquire)
    }

    fn retire(&self, p: usize) {
        self.halted[p].store(true, Ordering::Release);
        self.count.fetch_add(1, Ordering::AcqRel);
    }

    fn rearm(&self, p: usize) {
        self.halted[p].store(false, Ordering::Release);
        self.count.fetch_sub(1, Ordering::AcqRel);
    }

    fn all(&self) -> bool {
        self.count.load(Ordering::Acquire) == self.halted.len()
    }

    /// The delivery rule: only the sub-tolerance waves of a converging
    /// step are dropped, and only at a receiver that is itself halted.
    fn drops(&self, dst: usize, sender: NodeControl) -> bool {
        sender == NodeControl::Converged && self.is_halted(dst)
    }
}

// ---------------------------------------------------------------------------
// Fabric 1: tasks on a work-stealing pool.
// ---------------------------------------------------------------------------

/// One node plus its recycled activation buffers, all serialized by one
/// lock (activations of the same node never overlap their solves).
struct NodeState<N> {
    node: N,
    /// Swap target for the inbox: messages drain through here and their
    /// payload buffers return to the node.
    drain: Vec<DtmMsg>,
    /// Reused scatter buffer (drained after every step, capacity kept).
    outbox: Vec<(usize, DtmMsg)>,
}

struct Cell<N> {
    state: Mutex<NodeState<N>>,
    /// Whole wave-front messages, one per sender step, delivered without
    /// flattening so the payload buffers survive to be recycled.
    inbox: Mutex<Vec<DtmMsg>>,
    /// An activation task is queued or running.
    scheduled: AtomicBool,
}

struct PoolShared<N> {
    cells: Vec<Cell<N>>,
    snapshots: Vec<SharedBlock>,
    halts: Halts,
    stop: AtomicBool,
    before_step: Hook<N>,
}

/// The work-stealing fabric. Per node: a state lock, an inbox and a
/// `scheduled` bit. Wave arrival pushes to the inbox and sets the bit; if
/// it was clear an activation task is spawned. The task clears the bit
/// *before* draining the inbox, so a wave landing during the solve
/// schedules a fresh activation instead of being lost — the lock-free
/// equivalent of the simulator's busy-window coalescing (Table 1 step 3:
/// "one or more of the adjacent subgraphs").
pub struct Pool<N> {
    shared: Arc<PoolShared<N>>,
    pool: Arc<ThreadPool>,
    kick_idle: bool,
}

/// Run one activation of node `p`: drain inbox, merge, step, deliver the
/// outgoing waves and schedule their receivers.
///
/// `force` steps even with an empty inbox (the initial eq.-5.6 solve and
/// the idle kick). Without it an empty drain — possible when a delivery
/// raced an in-flight activation that already absorbed it — returns
/// without stepping, so spurious wakeups can never feed the zero-delta
/// self-halt streak.
// lint: hot-path
fn activate<N: AsyncNode + 'static>(
    shared: &Arc<PoolShared<N>>,
    pool: &Arc<ThreadPool>,
    p: usize,
    force: bool,
) {
    let cell = &shared.cells[p];
    // Clear *before* draining: a wave landing after this point spawns a
    // fresh activation rather than relying on this one seeing it.
    cell.scheduled.store(false, Ordering::Release);
    if shared.stop.load(Ordering::Acquire) {
        return;
    }
    let mut st = cell.state.lock();
    let NodeState {
        node,
        drain,
        outbox,
    } = &mut *st;
    // Swap the inbox against the node's (empty) drain buffer: the inbox
    // lock is held only for the pointer swap, and both vectors keep their
    // capacity across activations.
    std::mem::swap(&mut *cell.inbox.lock(), drain);
    // Read the halt flag only under the state lock: an activation that
    // queued up behind the one that halted the node must see the halt
    // (checked before the lock, it would step the node a second time and
    // count it halted twice). Every delivery is followed by a schedule, so
    // a wave that raced the halt is found here, by a later activation.
    if shared.halts.is_halted(p) {
        if node.capped() || drain.is_empty() {
            drain.clear();
            return;
        }
        shared.halts.rearm(p);
    }
    let changed = (shared.before_step)(node);
    if drain.is_empty() && !force && !changed {
        return;
    }
    for msg in drain.drain(..) {
        node.absorb_owned(msg);
    }
    let control = node.step_node(outbox);
    // Publish only the columns this step could have changed — the
    // supervisor mirrors them incrementally.
    shared.snapshots[p].publish(node.solution(), node.solved_cols());
    if control.is_halt() {
        shared.halts.retire(p);
    }
    // Deliver while still holding only this node's state lock: inbox
    // pushes are leaf locks on *other* cells, so no ordering cycle — and
    // draining here lets the outbox buffer be reused next step.
    for (dst, msg) in outbox.drain(..) {
        if shared.halts.drops(dst, control) {
            continue;
        }
        shared.cells[dst].inbox.lock().push(msg);
        schedule(shared, pool, dst, false);
    }
}

/// Spawn an activation task for `p` unless one is already queued/running.
fn schedule<N: AsyncNode + 'static>(
    shared: &Arc<PoolShared<N>>,
    pool: &Arc<ThreadPool>,
    p: usize,
    force: bool,
) {
    if shared.stop.load(Ordering::Acquire) {
        return;
    }
    if shared.cells[p]
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        let shared = shared.clone();
        let pool2 = pool.clone();
        pool.spawn(move || activate(&shared, &pool2, p, force));
    }
}

impl<N: AsyncNode + 'static> Pool<N> {
    /// Start `nodes` (each publishing `n_rhs` columns) on a pool of
    /// `num_threads` workers (`0` = available parallelism) and schedule
    /// their initial solves (eq. 5.6).
    ///
    /// # Errors
    /// Fails on pool construction.
    pub fn start(
        nodes: Vec<N>,
        n_rhs: usize,
        num_threads: usize,
        kick_idle: bool,
        before_step: Hook<N>,
    ) -> Result<Self> {
        let pool = Arc::new(
            ThreadPoolBuilder::new()
                .num_threads(num_threads)
                .build()
                .map_err(|e| dtm_sparse::Error::Parse(format!("thread pool: {e}")))?,
        );
        let shared = Arc::new(PoolShared {
            snapshots: nodes
                .iter()
                .map(|n| SharedBlock::new(n.n_local(), n_rhs))
                .collect(),
            halts: Halts::new(nodes.len()),
            cells: nodes
                .into_iter()
                .map(|node| Cell {
                    state: Mutex::new(NodeState {
                        node,
                        drain: Vec::new(),
                        outbox: Vec::new(),
                    }),
                    inbox: Mutex::new(Vec::new()),
                    scheduled: AtomicBool::new(false),
                })
                .collect(),
            stop: AtomicBool::new(false),
            before_step,
        });
        for p in 0..shared.cells.len() {
            schedule(&shared, &pool, p, true);
        }
        Ok(Self {
            shared,
            pool,
            kick_idle,
        })
    }
}

impl<N: AsyncNode + 'static> Fabric for Pool<N> {
    fn snapshots(&self) -> &[SharedBlock] {
        &self.shared.snapshots
    }

    fn all_halted(&self) -> bool {
        // Quiescence first: with no task queued or running, only this
        // (supervisor) thread can start one, so the halt flags read next
        // are stable — and every inbox has been drained by an activation
        // that came after its last delivery.
        if self.pool.pending_tasks() != 0 {
            return false;
        }
        if self.shared.halts.all() {
            return true;
        }
        if self.kick_idle {
            for p in 0..self.shared.cells.len() {
                if !self.shared.halts.is_halted(p) {
                    schedule(&self.shared, &self.pool, p, true);
                }
            }
        }
        false
    }

    fn wake(&self, p: usize) {
        schedule(&self.shared, &self.pool, p, false);
    }

    fn finish(&mut self) -> Totals {
        self.shared.stop.store(true, Ordering::Release);
        self.pool.wait_quiescent();
        // Quiescent: no activation holds a state lock.
        let mut totals = Totals::default();
        for cell in &self.shared.cells {
            totals.add(&cell.state.lock().node);
        }
        totals
    }
}

impl<N> Drop for Pool<N> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.pool.wait_quiescent();
    }
}

// ---------------------------------------------------------------------------
// Fabric 2: one OS thread per node.
// ---------------------------------------------------------------------------

/// A wave held by the delay router until its link delay has elapsed.
struct Routed {
    deliver_at: Instant,
    seq: u64,
    dst: usize,
    msg: DtmMsg,
}

impl PartialEq for Routed {
    fn eq(&self, o: &Self) -> bool {
        (self.deliver_at, self.seq) == (o.deliver_at, o.seq)
    }
}

impl Eq for Routed {}

impl PartialOrd for Routed {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Routed {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(o.deliver_at, o.seq))
    }
}

/// The router thread: delivers delayed waves in deadline order (ties in
/// arrival order, so per-pair FIFO holds).
fn route(rx: &Receiver<Routed>, senders: &[Sender<DtmMsg>], stop: &AtomicBool) {
    use std::cmp::Reverse;
    let mut heap: std::collections::BinaryHeap<Reverse<Routed>> = Default::default();
    let mut seq = 0u64;
    loop {
        let timeout = heap.peek().map_or(Duration::from_millis(1), |Reverse(p)| {
            p.deliver_at
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(1))
        });
        match rx.recv_timeout(timeout) {
            Ok(mut wave) => {
                seq += 1;
                wave.seq = seq;
                heap.push(Reverse(wave));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(p)| p.deliver_at <= now) {
            if let Some(Reverse(p)) = heap.pop() {
                // Ignore send failures during shutdown.
                let _ = senders[p.dst].send(p.msg);
            }
        }
    }
}

/// How one worker's waves leave: straight into the receivers' channels, or
/// via the router with this worker's per-link delays.
struct Links {
    senders: Vec<Sender<DtmMsg>>,
    /// `(router, per-destination real delay)` when delays are injected.
    routed: Option<(Sender<Routed>, Vec<Duration>)>,
}

impl Links {
    fn send(&self, dst: usize, msg: DtmMsg) {
        // Ignore send failures during shutdown.
        match &self.routed {
            Some((router, delay)) => {
                let _ = router.send(Routed {
                    deliver_at: Instant::now() + delay[dst],
                    seq: 0,
                    dst,
                    msg,
                });
            }
            None => {
                let _ = self.senders[dst].send(msg);
            }
        }
    }
}

struct ThreadsShared<N> {
    snapshots: Vec<SharedBlock>,
    halts: Halts,
    /// Outstanding work tokens — the quiescence signal, one
    /// deferred-decrement counter. Seeded with one per worker (the initial
    /// solve each owes); a token is minted before a wave becomes
    /// receivable and released by the consumer only after the step that
    /// absorbed it has minted tokens for its own waves, so a zero read
    /// proves no wave exists anywhere and none can appear without a fresh
    /// external cause. (A two-counter scheme — waves in flight + workers
    /// mid-step — is racy: the two loads can straddle a receive handoff;
    /// `tests/model_check.rs` keeps it as a caught mutant.)
    work: AtomicI64,
    stop: AtomicBool,
    before_step: Hook<N>,
    kick_idle: bool,
}

/// The one-thread-per-node fabric.
pub struct Threads<N> {
    shared: Arc<ThreadsShared<N>>,
    workers: Vec<thread::JoinHandle<N>>,
    router: Option<thread::JoinHandle<()>>,
}

/// One worker: the initial solve, then receive → coalesce → step for the
/// fabric's whole life. The worker never exits on its own — a passive node
/// stays parked on its channel so a late wave can re-arm it, and a capped
/// one keeps discarding its mail so the tokens drain.
fn work<N: AsyncNode>(
    p: usize,
    mut node: N,
    rx: &Receiver<DtmMsg>,
    links: &Links,
    shared: &ThreadsShared<N>,
) -> N {
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    let mut step = |node: &mut N| {
        let control = node.step_node(&mut outbox);
        // Publish only the columns this step could have changed — the
        // supervisor mirrors them incrementally.
        shared.snapshots[p].publish(node.solution(), node.solved_cols());
        if control.is_halt() {
            shared.halts.retire(p);
        }
        for (dst, msg) in outbox.drain(..) {
            if !shared.halts.drops(dst, control) {
                // Mint the token *before* the wave becomes receivable.
                shared.work.fetch_add(1, Ordering::AcqRel);
                links.send(dst, msg);
            }
        }
    };

    // Initial solve with the zero boundary guess (eq. 5.6). Its token was
    // minted at setup; release it only after the step's own sends are
    // counted.
    step(&mut node);
    shared.work.fetch_sub(1, Ordering::AcqRel);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return node;
        }
        let changed = (shared.before_step)(&mut node);
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(first) => {
                let mut consumed: i64 = 1;
                if node.capped() {
                    while rx.try_recv().is_ok() {
                        consumed += 1;
                    }
                } else {
                    // A late wave re-arms a passive node — before its
                    // token is released, so "all halted" and "no work"
                    // never hold together while it is pending.
                    if shared.halts.is_halted(p) {
                        shared.halts.rearm(p);
                    }
                    // Consumed messages fund the next outgoing ones.
                    node.absorb_owned(first);
                    // Coalesce whatever else is pending (Table 1 step 3:
                    // "one or more of the adjacent subgraphs").
                    while let Ok(more) = rx.try_recv() {
                        consumed += 1;
                        node.absorb_owned(more);
                    }
                    step(&mut node);
                }
                // Deferred decrement: the consumed waves' tokens stay
                // outstanding until the step they caused has minted
                // tokens for its own sends, so the counter never reads
                // zero while this causal chain is mid-handoff.
                shared.work.fetch_sub(consumed, Ordering::AcqRel);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle kick: live, and globally quiescent on one atomic
                // load — a wave merely delayed in flight, or mid-absorb in
                // a peer, keeps the counter nonzero, so it can never feed
                // the streak. The kick owes no token: at the zero read no
                // wave existed, and any send the step makes mints its own
                // before becoming visible.
                let kick = shared.kick_idle
                    && !shared.halts.is_halted(p)
                    && shared.work.load(Ordering::Acquire) == 0;
                if changed || kick {
                    step(&mut node);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return node,
        }
    }
}

impl<N: AsyncNode + 'static> Threads<N> {
    /// Spawn one worker per node (each publishing `n_rhs` columns).
    /// `delays = Some((topology, scale))` routes every wave through a
    /// router thread that holds it for its link's simulated delay × `scale`
    /// (the caller has checked that every route has a link; a missing one
    /// degrades to immediate delivery).
    pub fn start(
        nodes: Vec<N>,
        n_rhs: usize,
        delays: Option<(&Topology, f64)>,
        kick_idle: bool,
        before_step: Hook<N>,
    ) -> Self {
        let n = nodes.len();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<DtmMsg>()).unzip();
        let shared = Arc::new(ThreadsShared {
            snapshots: nodes
                .iter()
                .map(|node| SharedBlock::new(node.n_local(), n_rhs))
                .collect(),
            halts: Halts::new(n),
            // A part count that overflows i64 is unreachable (it would
            // dwarf addressable memory); saturate rather than panic.
            work: AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)),
            stop: AtomicBool::new(false),
            before_step,
            kick_idle,
        });
        let router = delays.map(|_| {
            let (tx, rx) = unbounded::<Routed>();
            let (senders, shared) = (senders.clone(), shared.clone());
            (
                tx,
                thread::spawn(move || route(&rx, &senders, &shared.stop)),
            )
        });
        let workers = nodes
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(p, (node, rx))| {
                let links = Links {
                    senders: senders.clone(),
                    routed: router.as_ref().zip(delays).map(|((tx, _), (topo, scale))| {
                        let delay = |dst| {
                            let ns = topo.try_delay(p, dst).map_or(0.0, |d| d.as_nanos() as f64);
                            Duration::from_nanos((ns * scale).round() as u64)
                        };
                        (tx.clone(), (0..n).map(delay).collect())
                    }),
                };
                let shared = shared.clone();
                thread::spawn(move || work(p, node, &rx, &links, &shared))
            })
            .collect();
        Self {
            shared,
            workers,
            router: router.map(|(_, handle)| handle),
        }
    }
}

impl<N: AsyncNode + 'static> Fabric for Threads<N> {
    fn snapshots(&self) -> &[SharedBlock] {
        &self.shared.snapshots
    }

    fn all_halted(&self) -> bool {
        // Tokens first: a wave that could still re-arm someone holds one
        // until its receiver has cleared its own halt flag.
        self.shared.work.load(Ordering::Acquire) == 0 && self.shared.halts.all()
    }

    /// Workers poll their hook every millisecond anyway.
    fn wake(&self, _p: usize) {}

    fn finish(&mut self) -> Totals {
        self.shared.stop.store(true, Ordering::Release);
        let mut totals = Totals::default();
        // Re-raise a worker/router panic with its original payload rather
        // than masking it behind a generic join message.
        for h in self.workers.drain(..) {
            match h.join() {
                Ok(node) => totals.add(&node),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        if let Some(Err(payload)) = self.router.take().map(thread::JoinHandle::join) {
            std::panic::resume_unwind(payload);
        }
        totals
    }
}

impl<N> Drop for Threads<N> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The one-shot wall-clock solve over either fabric.
// ---------------------------------------------------------------------------

/// What [`run`] needs besides the started fabric.
pub(crate) struct WallRun<'a> {
    pub spec: RunSpec<'a>,
    pub backend: BackendKind,
    pub budget: Duration,
}

/// Supervise a started fabric — `run.spec`'s columns admitted to the
/// monitor at once — until every column met the rule, every node halted
/// or the budget expired; then stop the fabric and assemble the report.
pub(crate) fn run(mut fabric: impl Fabric, run: &WallRun<'_>) -> SolveReport {
    let started = Instant::now();
    let mut monitor = run.spec.monitor(SimDuration::ZERO);
    let stop = loop {
        std::thread::sleep(POLL_INTERVAL);
        monitor.poll(wall_time(started), fabric.snapshots());
        if monitor.all_done() {
            break StopKind::OracleTolerance;
        }
        if fabric.all_halted() {
            break StopKind::AllHalted;
        }
        if started.elapsed() >= run.budget {
            break StopKind::Budget;
        }
    };
    // A tolerance stop retires the columns as scored: the returned `x` is
    // the one the exact metric accepted, whatever the nodes have done to
    // theirs since. Otherwise report whatever was published by now.
    if stop != StopKind::OracleTolerance {
        monitor.poll(wall_time(started), fabric.snapshots());
    }
    let columns = monitor.retire_all();
    let time_ms = started.elapsed().as_secs_f64() * 1e3;
    let totals = fabric.finish();
    SolveReport::assemble(RunSummary {
        backend: run.backend,
        algorithm: run.spec.algorithm,
        termination: run.spec.termination,
        stop,
        time_ms,
        columns,
        series: monitor.into_series(),
        totals,
        coalesced_batches: 0,
        n_parts: run.spec.map.parts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AlgorithmKind;
    use crate::runtime::{self, CommonConfig, GatherMap, Termination, Transport};
    use dtm_graph::evs::{split as evs_split, EvsOptions, SplitSystem};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    /// A node that sleeps before its first step — a part whose thread (or
    /// pool worker) comes up late. Possible only because the fabrics are
    /// generic over the node.
    struct SlowStart<N> {
        inner: N,
        delay: Duration,
    }

    impl<N: AsyncNode> AsyncNode for SlowStart<N> {
        fn part(&self) -> usize {
            self.inner.part()
        }
        fn n_local(&self) -> usize {
            self.inner.n_local()
        }
        fn solution(&self) -> &[f64] {
            self.inner.solution()
        }
        fn absorb_owned(&mut self, msg: DtmMsg) {
            self.inner.absorb_owned(msg);
        }
        fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
            std::thread::sleep(std::mem::take(&mut self.delay));
            self.inner.step_node(transport)
        }
        fn solves(&self) -> u64 {
            self.inner.solves()
        }
        fn messages_sent(&self) -> u64 {
            self.inner.messages_sent()
        }
        fn flops(&self) -> u64 {
            self.inner.flops()
        }
        fn work_nnz(&self) -> usize {
            self.inner.work_nnz()
        }
        fn capped(&self) -> bool {
            self.inner.capped()
        }
        fn solved_cols(&self) -> u64 {
            self.inner.solved_cols()
        }
    }

    const TERMINATION: Termination = Termination::LocalDelta {
        tol: 1e-12,
        patience: 4,
    };

    /// An 8×8 grid in three strips whose part 0 starts 20 ms late: by then
    /// parts 1 and 2 have converged against part 0's *zero boundary guess*
    /// and gone passive. Part 0's first wave must re-arm them.
    fn slow_start_problem() -> (SplitSystem, Vec<SlowStart<runtime::NodeRuntime>>) {
        let a = generators::grid2d_random(8, 8, 1.0, 82);
        let b = generators::random_rhs(64, 83);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(8, 8, 3);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let common = CommonConfig {
            termination: TERMINATION,
            max_solves_per_node: 1_000_000,
            ..Default::default()
        };
        let nodes = runtime::build_nodes(&ss, &common)
            .unwrap()
            .into_iter()
            .map(|inner| SlowStart {
                delay: Duration::from_millis(if inner.part() == 0 { 20 } else { 0 }),
                inner,
            })
            .collect();
        (ss, nodes)
    }

    fn run_to_all_halted(ss: &SplitSystem, fabric: impl Fabric, backend: BackendKind) {
        let (a, b) = ss.reconstruct();
        let map = GatherMap::of_split(ss, &a, &b, None);
        let references = runtime::resolve_references(&map, TERMINATION, None).unwrap();
        let report = run(
            fabric,
            &WallRun {
                spec: RunSpec {
                    algorithm: AlgorithmKind::Dtm,
                    termination: TERMINATION,
                    map,
                    references: references.as_deref(),
                },
                backend,
                budget: Duration::from_secs(60),
            },
        );
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(report.converged);
        assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
    }

    #[test]
    fn slow_start_rearms_converged_neighbours_on_the_pool() {
        let (ss, nodes) = slow_start_problem();
        let pool = Pool::start(nodes, 1, 3, true, no_hook()).unwrap();
        run_to_all_halted(&ss, pool, BackendKind::WorkStealing);
    }

    #[test]
    fn slow_start_rearms_converged_neighbours_on_threads() {
        let (ss, nodes) = slow_start_problem();
        let threads = Threads::start(nodes, 1, None, true, no_hook());
        run_to_all_halted(&ss, threads, BackendKind::Threaded);
    }
}
