//! The wall-clock fabric — every real-time executor in this crate runs
//! on it, driving one [`AsyncNode`] type.
//!
//! The paper's Table 1 is *one* node program that runs unchanged on any
//! machine; [`AsyncNode`] + [`Transport`](crate::runtime::Transport) say so
//! in types, and this module is the other half of the claim: running nodes
//! against the wall clock is written **once**, generic over the node. The
//! one-shot solves of every algorithm (through
//! [`Machine::Pool`](crate::Machine::Pool), routed or not) and the rolling
//! sessions ([`crate::session`]) are callers.
//!
//! [`Pool`] is a few resident workers draining **one ready queue** of part
//! ids ([`ReadyQueue`]): a wave is an inbox entry plus a place in that
//! queue, so the transmission delay is the time the receiver waits there —
//! behind older arrivals, and for as long as one of its neighbours is
//! mid-step. Subdomain count is decoupled from thread count and no thread
//! parks on an idle node. Started with a delay table, the pool puts a
//! router thread in front of the queue: a wave on a delayed link lands in
//! its receiver's inbox, and queues the receiver, only once the link's
//! delay has elapsed (the paper's Algorithm-Architecture Delay Mapping
//! with any positive delay, which Theorem 6.1 covers).
//!
//! # Hooks
//!
//! The pool takes one per-node [`Hook`], run before the node may step and
//! after it has absorbed the activation's drained waves: it can mutate the
//! node and returns whether it did (which forces a step even with no wave
//! pending). A one-shot solve passes [`no_hook`]; a rolling
//! session passes its column-swap mailbox. That is the whole difference
//! between the two — a session is a hook, not a fork of the loop.
//!
//! # Halting is a state, not an exit
//!
//! Under [`Termination::LocalDelta`](crate::runtime::Termination::LocalDelta) a node whose step returns
//! [`NodeControl::Converged`] goes **passive**: it is no longer kicked, and
//! the waves of that very step — sub-tolerance by definition — are dropped
//! at passive receivers (which is what lets the exchange die out). But it
//! still listens: a wave from a step that returned
//! [`NodeControl::Continue`] **re-arms** a passive receiver, which absorbs
//! it and steps again (a large delta resets its streak). Without this, a
//! node that starts late meets neighbours that already converged against
//! its zero boundary guess, and the run ends "all halted" on a wrong
//! answer. [`NodeControl::Capped`] is terminal. A run is *all halted* only
//! when every node is passive or capped **and** the pool is quiescent:
//! nothing queued, nobody mid-step, no wave held by the router. A pool that
//! goes quiescent with live nodes left (their neighbours fell silent)
//! *kicks* them: re-solving against an unchanged boundary is a zero delta,
//! which lets the Table 1 step 3.3 streak complete.

use crate::monitor::{next_poll, wall_time, POLL_INTERVAL};
use crate::report::{BackendKind, RunSummary, SolveReport, StopKind, Totals};
use crate::runtime::wallclock::SharedBlock;
use crate::runtime::{AsyncNode, DtmMsg, NodeControl, RunSpec};
use crate::sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::sync::{thread, Arc, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
use dtm_simnet::{SimDuration, Topology};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Per-node hook run before the node may step, after it has absorbed the
/// activation's drained waves; returns whether it changed the node (see
/// the [module docs](self)).
pub type Hook<N> = Box<dyn Fn(&mut N) -> bool + Send + Sync>;

/// The hook of a one-shot solve: nothing to do between steps.
pub fn no_hook<N>() -> Hook<N> {
    Box::new(|_| false)
}

/// Which nodes are passive or capped. A flag is set by the node's own
/// step and cleared by the activation that re-arms it, both under that
/// node's state lock; senders only read.
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
// Fabric 1: resident workers on one ready queue.
// ---------------------------------------------------------------------------

/// The pool's schedule, as a pure type (no locks, no clock): the part ids
/// with something to do, **in arrival order**, plus who is mid-step and who
/// neighbours whom. [`take`](Self::take) hands out the first queued part
/// that is not mid-step and has no neighbour mid-step, and leaves the parts
/// it passed over where they were — at the head, first in line once the
/// step that blocks them is [`done`](Self::done).
///
/// Why the neighbour rule: a part that steps *while* a neighbour computes
/// steps on the wave that neighbour is about to replace. With it, `W`
/// workers advance one freshest-data (Gauss–Seidel) sweep of the part
/// graph; without it they run `W` interleaved stale-data (Jacobi) chains —
/// about twice the solves to the same tolerance (README "Executors").
/// Nothing ever *waits for a message*: a part steps on whatever has
/// arrived, so this is still Table 1 and Theorem 6.1 covers it unchanged.
///
/// Why overtaking is bounded: a part that has been overtaken
/// `max_overtakes` times holds back everything queued behind it. That is
/// the no-starvation guarantee, and it is what keeps the rule cheap when a
/// worker is *preempted* mid-step (more workers than free cores): the
/// others may not go round and round the few parts it does not block,
/// re-solving against a frozen boundary, for the whole time slice — they
/// run out of queue, park, and leave the core to the step everybody is
/// waiting for.
///
/// A part is queued at most once (`push` of a queued part is a no-op), so
/// the queue never holds more than `n_parts` ids and never allocates after
/// [`new`](Self::new) and the first [`link`](Self::link) of each pair.
#[derive(Debug)]
pub struct ReadyQueue {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    running: Vec<bool>,
    n_running: usize,
    peers: Vec<Vec<usize>>,
    /// Per queued part: how many `take`s have reached past it.
    overtaken: Vec<usize>,
    max_overtakes: usize,
}

impl ReadyQueue {
    /// An empty queue over `n_parts` parts, no two of them linked yet,
    /// each of which may be overtaken `max_overtakes` times per wait.
    pub fn new(n_parts: usize, max_overtakes: usize) -> Self {
        Self {
            queue: VecDeque::with_capacity(n_parts),
            queued: vec![false; n_parts],
            running: vec![false; n_parts],
            n_running: 0,
            peers: vec![Vec::new(); n_parts],
            overtaken: vec![0; n_parts],
            max_overtakes,
        }
    }

    /// Record that `p` and `q` exchange waves (idempotent, symmetric).
    pub fn link(&mut self, p: usize, q: usize) {
        if p != q && !self.peers[p].contains(&q) {
            self.peers[p].push(q);
            self.peers[q].push(p);
        }
    }

    /// Queue `p` behind everything already waiting, unless it is queued.
    pub fn push(&mut self, p: usize) {
        if !std::mem::replace(&mut self.queued[p], true) {
            self.queue.push_back(p);
        }
    }

    /// Remove and return the first queued part that may step now, marking
    /// it mid-step until [`done`](Self::done) — `None` if there is none
    /// ahead of the first part that may not be overtaken again. From here
    /// on a `push` of the part queues it again, behind its own running
    /// step.
    pub fn take(&mut self) -> Option<usize> {
        let mut found = None;
        for (i, &p) in self.queue.iter().enumerate() {
            if !self.running[p] && self.peers[p].iter().all(|&q| !self.running[q]) {
                found = Some(i);
                break;
            }
            if self.overtaken[p] >= self.max_overtakes {
                break;
            }
        }
        let i = found?;
        for &p in self.queue.iter().take(i) {
            self.overtaken[p] += 1;
        }
        let p = self.queue.remove(i)?;
        self.overtaken[p] = 0;
        self.queued[p] = false;
        self.running[p] = true;
        self.n_running += 1;
        Some(p)
    }

    /// `p`'s step is over: it and its neighbours may be taken again.
    pub fn done(&mut self, p: usize) {
        debug_assert!(self.running[p], "done({p}) without take");
        self.running[p] = false;
        self.n_running -= 1;
    }

    /// Nothing queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Nothing queued and nobody mid-step: no wave exists that has not
    /// been absorbed, and none can appear without a fresh `push`.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.n_running == 0
    }
}

/// One node plus its recycled activation buffers, all serialized by one
/// lock (the queue never hands a part to two workers at once, so the lock
/// is uncontended while the pool runs; `finish` reads through it).
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
    /// The next activation steps even with an empty inbox (the initial
    /// eq.-5.6 solve and the idle kick). Set before the part is pushed and
    /// read after it is taken, so the queue lock orders the two.
    force: AtomicBool,
}

/// The schedule and the workers parked on it, under one lock.
struct Ready {
    queue: ReadyQueue,
    /// Workers waiting on [`PoolShared::work`].
    parked: usize,
}

struct PoolShared<N> {
    cells: Vec<Cell<N>>,
    snapshots: Vec<SharedBlock>,
    halts: Halts,
    ready: Mutex<Ready>,
    /// Signalled, under `ready`, when a part that may be eligible appears
    /// while a worker is parked — and on `stop`.
    work: Condvar,
    stop: AtomicBool,
    before_step: Hook<N>,
    /// The delay router's intake, when links carry injected delays.
    router: Option<Router>,
    /// Waves handed to the router and not yet queued at their receiver:
    /// up at send time, down under `ready` once the receiver is queued.
    in_flight: AtomicUsize,
}

/// The pool fabric: at most one resident worker per part, draining one
/// [`ReadyQueue`]. Per node: a state lock and an inbox. Wave arrival pushes
/// to the receiver's inbox and *then* queues the receiver; a worker takes a
/// part off the queue — which un-queues it — *before* draining its inbox,
/// so a wave landing during the solve queues the part again instead of
/// being lost (Table 1 step 3: "one or more of the adjacent subgraphs" —
/// the simulator's busy-window coalescing). The transmission delay of a
/// wave is therefore the time its receiver spends in the queue: behind
/// older arrivals, and behind any neighbour that is computing.
pub struct Pool<N> {
    shared: Arc<PoolShared<N>>,
    workers: Vec<thread::JoinHandle<()>>,
    /// The delay router's thread, when links carry injected delays.
    routing: Option<thread::JoinHandle<()>>,
    kick_idle: bool,
}

/// Run one activation of node `p`, which the caller took off the queue:
/// drain inbox, merge, run the hook, step, deliver the outgoing waves. The receivers are
/// left in `sent` for the caller to link and — `true`: delivered here, not
/// handed to the router — to queue.
///
/// An empty drain that was not forced — possible when a delivery raced an
/// activation that already absorbed it — returns without stepping, so
/// spurious wakeups can never feed the zero-delta self-halt streak.
// lint: hot-path
fn activate<N: AsyncNode>(shared: &PoolShared<N>, p: usize, sent: &mut Vec<(usize, bool)>) {
    let cell = &shared.cells[p];
    let force = cell.force.swap(false, Ordering::AcqRel);
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
    // Activations of one node are serialized by the queue, so the halt
    // flag this one reads is the one the previous one left. Every delivery
    // is followed by a push, so a wave that raced the halt is found here,
    // by a later activation.
    if shared.halts.is_halted(p) {
        if node.capped() || drain.is_empty() {
            drain.clear();
            return;
        }
        shared.halts.rearm(p);
    }
    // Absorb first, so that the hook sees — and a column swap scales —
    // the node state this activation's waves have already moved.
    let waves = !drain.is_empty();
    for msg in drain.drain(..) {
        node.absorb_owned(msg);
    }
    let changed = (shared.before_step)(node);
    if !waves && !force && !changed {
        return;
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
        // A wave on a delayed link goes to the router, which queues its
        // receiver when it lands; the rest land here.
        let msg = match &shared.router {
            Some(router) => router.hold(p, dst, msg, &shared.in_flight),
            None => Some(msg),
        };
        let landed = msg.is_some();
        if let Some(msg) = msg {
            shared.cells[dst].inbox.lock().push(msg);
        }
        sent.push((dst, landed));
    }
}

/// One resident worker: take the first eligible part, step it, then — in
/// one critical section — queue the receivers of its waves, release it and
/// take the next. Parks when nothing queued may step.
fn drain_queue<N: AsyncNode>(shared: &PoolShared<N>) {
    let mut sent = Vec::new();
    let mut ready = shared.ready.lock();
    while !shared.stop.load(Ordering::Acquire) {
        let Some(p) = ready.queue.take() else {
            ready.parked += 1;
            ready = shared.work.wait(ready);
            ready.parked -= 1;
            continue;
        };
        // More may be eligible than this worker can step.
        let wake = ready.parked > 0 && !ready.queue.is_empty();
        drop(ready);
        if wake {
            shared.work.notify_one();
        }
        activate(shared, p, &mut sent);
        ready = shared.ready.lock();
        // `p` is still marked mid-step here, so its receivers sit in the
        // queue, ineligible, until the `done` below: nobody can observe
        // "queue empty, nobody mid-step" between a delivery and its push.
        // A routed wave links its pair now, at send time, so the pair
        // keeps the neighbour rule while the wave is on its way.
        for (dst, delivered) in sent.drain(..) {
            ready.queue.link(p, dst);
            if delivered {
                ready.queue.push(dst);
            }
        }
        ready.queue.done(p);
    }
}

impl<N: AsyncNode> PoolShared<N> {
    /// Queue `p` from outside the workers (start, kick, hook wake-up).
    fn schedule(&self, p: usize, force: bool) {
        if force {
            self.cells[p].force.store(true, Ordering::Release);
        }
        let mut ready = self.ready.lock();
        ready.queue.push(p);
        if ready.parked > 0 {
            self.work.notify_one();
        }
    }

    /// The router's hand-off of a due wave: into the inbox, then — in one
    /// critical section — queue the receiver and only then count the wave
    /// landed, so [`Pool::all_halted`] never finds the queue idle and
    /// nothing in flight while the wave is in neither place.
    fn land(&self, dst: usize, msg: DtmMsg) {
        self.cells[dst].inbox.lock().push(msg);
        let mut ready = self.ready.lock();
        ready.queue.push(dst);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        if ready.parked > 0 {
            self.work.notify_one();
        }
    }
}

impl<N: AsyncNode + 'static> Pool<N> {
    /// Start `nodes` (each publishing `n_rhs` columns) under `num_threads`
    /// workers (`0` = available parallelism), at most one per node — a
    /// part is stepped by one worker at a time, so any further worker
    /// could only park — and queue their initial solves (eq. 5.6).
    /// `delays = Some((topology, scale))` holds each wave
    /// for its link's simulated delay × `scale` in a router thread before
    /// it lands (the caller has checked that every route has a link; a
    /// missing one, like a zero delay, lands at once).
    pub fn start(
        nodes: Vec<N>,
        n_rhs: usize,
        num_threads: usize,
        delays: Option<(&Topology, f64)>,
        kick_idle: bool,
        before_step: Hook<N>,
    ) -> Self {
        let n_parts = nodes.len();
        let n_workers = match num_threads {
            0 => std::thread::available_parallelism().map_or(4, |v| v.get()),
            n => n,
        }
        .min(n_parts);
        let (router, intake) = delays
            .and_then(|(topology, scale)| Router::new(topology, scale, n_parts))
            .unzip();
        let shared = Arc::new(PoolShared {
            snapshots: nodes
                .iter()
                .map(|n| SharedBlock::new(n.n_local(), n_rhs))
                .collect(),
            halts: Halts::new(n_parts),
            ready: Mutex::new(Ready {
                // Twice per worker: while a part waits out one neighbour's
                // step, every other worker finishes a step or two.
                queue: ReadyQueue::new(n_parts, 2 * n_workers),
                parked: 0,
            }),
            cells: nodes
                .into_iter()
                .map(|node| Cell {
                    state: Mutex::new(NodeState {
                        node,
                        drain: Vec::new(),
                        outbox: Vec::new(),
                    }),
                    inbox: Mutex::new(Vec::new()),
                    force: AtomicBool::new(false),
                })
                .collect(),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            before_step,
            router,
            in_flight: AtomicUsize::new(0),
        });
        for p in 0..shared.cells.len() {
            shared.schedule(p, true);
        }
        let workers = (0..n_workers)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || drain_queue(&shared))
            })
            .collect();
        let routing = intake.map(|rx| {
            let shared = shared.clone();
            thread::spawn(move || route(&rx, &shared))
        });
        Self {
            shared,
            workers,
            routing,
            kick_idle,
        }
    }
}

impl<N> Pool<N> {
    /// Stop the workers and wait for them; a worker's panic is re-raised
    /// with its own payload unless `quiet` (drop).
    fn stop(&mut self, quiet: bool) {
        self.shared.stop.store(true, Ordering::Release);
        // Under the queue lock: a worker that read `stop` clear is either
        // still ahead of its `wait` (and holds the lock) or already parked.
        {
            let _ready = self.shared.ready.lock();
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..).chain(self.routing.take()) {
            if let (Err(payload), false) = (h.join(), quiet) {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<N: AsyncNode + 'static> Pool<N> {
    /// Per-node published solution blocks.
    pub fn snapshots(&self) -> &[SharedBlock] {
        &self.shared.snapshots
    }

    /// Whether every node is passive or capped **and** nothing is queued,
    /// running or held by the router. A pool started with `kick_idle`
    /// kicks its live nodes when it finds itself quiescent short of that.
    pub fn all_halted(&self) -> bool {
        // Quiescence first: with nothing queued and nobody mid-step, only
        // this (supervisor) thread can queue a part, so the halt flags
        // read next are stable — and every inbox has been drained by an
        // activation that came after its last delivery.
        {
            let ready = self.shared.ready.lock();
            if !ready.queue.is_idle() || self.shared.in_flight.load(Ordering::Acquire) != 0 {
                return false;
            }
        }
        if self.shared.halts.all() {
            return true;
        }
        if self.kick_idle {
            for p in 0..self.shared.cells.len() {
                if !self.shared.halts.is_halted(p) {
                    self.shared.schedule(p, true);
                }
            }
        }
        false
    }

    /// Make node `p` run its hook soon even if no wave arrives.
    pub fn wake(&self, p: usize) {
        self.shared.schedule(p, false);
    }

    /// Stop the pool, wait for it, and read the work counters off the
    /// nodes. Idempotent; also run on drop.
    pub fn finish(&mut self) -> Totals {
        self.stop(false);
        // Workers joined: no activation holds a state lock.
        let mut totals = Totals::default();
        for cell in &self.shared.cells {
            totals.add(&cell.state.lock().node);
        }
        totals
    }
}

impl<N> Drop for Pool<N> {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// A wave on its way to its receiver: `(due time, receiver, wave)`.
type Routed = (Instant, usize, DtmMsg);

/// The delay router's intake: each directed pair's real delay, and the
/// channel to the router thread.
struct Router {
    tx: Sender<Routed>,
    n: usize,
    /// `delay[src * n + dst]`.
    delay: Vec<Duration>,
}

impl Router {
    /// The router between `n` parts for `topology`'s links scaled by
    /// `scale` (simulated nanoseconds × scale = real nanoseconds), and the
    /// receiving end of its intake — `None` when no link has a delay left
    /// to impose.
    fn new(topology: &Topology, scale: f64, n: usize) -> Option<(Self, Receiver<Routed>)> {
        let delay: Vec<Duration> = (0..n * n)
            .map(|i| {
                let ns = topology
                    .try_delay(i / n, i % n)
                    .map_or(0.0, |d| d.as_nanos() as f64);
                Duration::from_nanos((ns * scale).round() as u64)
            })
            .collect();
        if delay.iter().all(Duration::is_zero) {
            return None;
        }
        let (tx, rx) = unbounded();
        Some((Self { tx, n, delay }, rx))
    }

    /// Hold `msg` from `src` to `dst` for its link's delay, counting it in
    /// `in_flight` first — or hand it back if the link imposes none.
    fn hold(&self, src: usize, dst: usize, msg: DtmMsg, in_flight: &AtomicUsize) -> Option<DtmMsg> {
        let delay = self.delay[src * self.n + dst];
        if delay.is_zero() {
            return Some(msg);
        }
        in_flight.fetch_add(1, Ordering::AcqRel);
        // Ignore send failures during shutdown.
        let _ = self.tx.send((Instant::now() + delay, dst, msg));
        None
    }
}

/// The router thread: lands held waves in deadline order (ties in arrival
/// order, so per-pair FIFO holds) until the pool stops.
fn route<N: AsyncNode>(rx: &Receiver<Routed>, shared: &PoolShared<N>) {
    const MAX_WAIT: Duration = Duration::from_millis(1);
    // Keyed by (due time, arrival number).
    let mut held = std::collections::BTreeMap::new();
    let mut arrivals = 0u64;
    loop {
        let timeout = held
            .keys()
            .next()
            .map_or(MAX_WAIT, |&(due, _): &(Instant, u64)| {
                due.saturating_duration_since(Instant::now()).min(MAX_WAIT)
            });
        match rx.recv_timeout(timeout) {
            Ok((due, dst, msg)) => {
                arrivals += 1;
                held.insert((due, arrivals), (dst, msg));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        while let Some(wave) = held.first_entry().filter(|w| w.key().0 <= now) {
            let (dst, msg) = wave.remove();
            shared.land(dst, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// The one-shot wall-clock solve.
// ---------------------------------------------------------------------------

/// What [`run`] needs besides the started pool.
pub(crate) struct WallRun<'a> {
    pub spec: RunSpec<'a>,
    pub backend: BackendKind,
    pub budget: Duration,
}

/// Supervise a started pool — `run.spec`'s columns admitted to the
/// monitor at once — until every column met the rule, every node halted
/// or the budget expired; then stop the pool and assemble the report.
/// Each sleep between polls follows the decay of the metric just scored
/// ([`next_poll`]).
pub(crate) fn run<N: AsyncNode + 'static>(mut pool: Pool<N>, run: &WallRun<'_>) -> SolveReport {
    let started = Instant::now();
    let mut monitor = run.spec.monitor(SimDuration::ZERO);
    let tol = run.spec.termination.metric_tol();
    let (mut gap, mut last) = (POLL_INTERVAL.min(run.budget), None);
    let stop = loop {
        std::thread::sleep(gap);
        let time = wall_time(started);
        let metric = monitor.poll(time, pool.snapshots(), u64::MAX);
        if monitor.all_done() {
            break StopKind::OracleTolerance;
        }
        if pool.all_halted() {
            break StopKind::AllHalted;
        }
        let left = run.budget.saturating_sub(started.elapsed());
        if left.is_zero() {
            break StopKind::Budget;
        }
        let now = (Duration::from_nanos(time.as_nanos()), metric);
        gap = next_poll(last, now, tol, left);
        last = Some(now);
    };
    // A tolerance stop retires the columns as scored: the returned `x` is
    // the one the exact metric accepted, whatever the nodes have done to
    // theirs since. Otherwise report whatever was published by now.
    if stop != StopKind::OracleTolerance {
        monitor.poll(wall_time(started), pool.snapshots(), u64::MAX);
    }
    let columns = monitor.retire_all();
    let time_ms = started.elapsed().as_secs_f64() * 1e3;
    let totals = pool.finish();
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

    /// What the probed nodes of one pool share: who is mid-step, how
    /// many steps each has finished, and the neighbour overlaps seen.
    struct Watch {
        in_step: Vec<AtomicBool>,
        steps: Vec<AtomicUsize>,
        overlaps: AtomicUsize,
        /// Steps whose hook saw all of the waves the step solved with,
        /// at least one — and steps whose hook saw fewer.
        hook_saw_waves: AtomicUsize,
        hook_missed_waves: AtomicUsize,
    }

    impl Watch {
        fn new(n: usize) -> Arc<Self> {
            Arc::new(Self {
                in_step: (0..n).map(|_| AtomicBool::new(false)).collect(),
                steps: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                overlaps: AtomicUsize::new(0),
                hook_saw_waves: AtomicUsize::new(0),
                hook_missed_waves: AtomicUsize::new(0),
            })
        }
    }

    /// A node that sleeps before its first step (a part whose worker comes
    /// up late) and before every step (a slow part), records stepping
    /// while one of `peers` does, and counts the waves it absorbs between
    /// steps against what [`hook_probe`] saw. Possible only because the
    /// pool is generic over the node.
    struct Probe<N> {
        inner: N,
        delay: Duration,
        pause: Duration,
        peers: Vec<usize>,
        watch: Arc<Watch>,
        /// Waves absorbed since the last step.
        absorbed: usize,
        /// `absorbed` as the hook found it, where a hook recorded it.
        at_hook: Option<usize>,
    }

    /// The hook that records, for the next step, how many waves the node
    /// had absorbed when the hook ran.
    fn hook_probe<N>() -> Hook<Probe<N>> {
        Box::new(|node| {
            node.at_hook = Some(node.absorbed);
            false
        })
    }

    impl<N: AsyncNode> AsyncNode for Probe<N> {
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
            self.absorbed += 1;
            self.inner.absorb_owned(msg);
        }
        fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
            let (me, w) = (self.inner.part(), &*self.watch);
            let absorbed = std::mem::take(&mut self.absorbed);
            match self.at_hook.take() {
                Some(seen) if seen < absorbed => {
                    w.hook_missed_waves.fetch_add(1, Ordering::SeqCst);
                }
                Some(seen) if seen > 0 => {
                    w.hook_saw_waves.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
            w.in_step[me].store(true, Ordering::SeqCst);
            // Whoever starts second sees the other. Two *initial* solves
            // may overlap: nobody has sent anything yet, so the pool knows
            // no links. (`settled` is read first: a peer seen mid-step
            // after it read false is still in its initial solve.)
            let settled = |p: usize| w.steps[p].load(Ordering::SeqCst) > 0;
            for &q in &self.peers {
                let past_initial = settled(me) || settled(q);
                if past_initial && w.in_step[q].load(Ordering::SeqCst) {
                    w.overlaps.fetch_add(1, Ordering::SeqCst);
                }
            }
            std::thread::sleep(std::mem::take(&mut self.delay) + self.pause);
            let control = self.inner.step_node(transport);
            w.steps[me].fetch_add(1, Ordering::SeqCst);
            w.in_step[me].store(false, Ordering::SeqCst);
            control
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
    fn slow_start_problem() -> (SplitSystem, Vec<Probe<runtime::NodeRuntime>>) {
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
        let watch = Watch::new(3);
        let nodes = runtime::build_nodes(&ss, &common)
            .unwrap()
            .into_iter()
            .map(|inner| Probe {
                delay: Duration::from_millis(if inner.part() == 0 { 20 } else { 0 }),
                pause: Duration::ZERO,
                peers: Vec::new(),
                watch: watch.clone(),
                absorbed: 0,
                at_hook: None,
                inner,
            })
            .collect();
        (ss, nodes)
    }

    fn supervise(
        ss: &SplitSystem,
        termination: Termination,
        pool: Pool<Probe<runtime::NodeRuntime>>,
    ) -> SolveReport {
        let map = GatherMap::of_split(ss, None);
        let references = runtime::resolve_references(&map, termination, None).unwrap();
        run(
            pool,
            &WallRun {
                spec: RunSpec {
                    algorithm: AlgorithmKind::Dtm,
                    termination,
                    map,
                    references: references.as_deref(),
                },
                backend: BackendKind::WorkStealing,
                budget: Duration::from_secs(60),
            },
        )
    }

    fn run_to_all_halted(ss: &SplitSystem, pool: Pool<Probe<runtime::NodeRuntime>>) {
        let report = supervise(ss, TERMINATION, pool);
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(report.converged);
        assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
    }

    /// A path 0 – 1 – 2 – 3 with every part queued in id order.
    fn path_queue() -> ReadyQueue {
        let mut q = ReadyQueue::new(4, usize::MAX);
        for p in 0..3 {
            q.link(p, p + 1);
        }
        (0..4).for_each(|p| q.push(p));
        q
    }

    #[test]
    fn ready_queue_never_hands_out_two_neighbours() {
        let mut q = path_queue();
        assert_eq!(q.take(), Some(0));
        // 1 neighbours the running 0 and is skipped; 2 does not.
        assert_eq!(q.take(), Some(2));
        // 1 and 3 both neighbour a running part.
        assert_eq!(q.take(), None);
        assert!(!q.is_empty() && !q.is_idle());
        q.done(2);
        // The skipped 1 is still first in line, and still blocked by 0.
        assert_eq!(q.take(), Some(3));
        q.done(0);
        assert_eq!(q.take(), Some(1));
        assert!(q.is_empty() && !q.is_idle());
        q.done(1);
        q.done(3);
        assert!(q.is_idle());
    }

    #[test]
    fn ready_queue_keeps_a_skipped_part_at_the_head() {
        // 1 is queued first and skipped while its neighbours 0 and 2 take
        // turns; the moment neither runs it is the first part offered,
        // ahead of everything that arrived while it was held back.
        let mut q = ReadyQueue::new(4, 16);
        q.link(0, 1);
        q.link(1, 2);
        q.push(0);
        assert_eq!(q.take(), Some(0));
        q.push(1);
        for _ in 0..4 {
            q.push(2);
            q.push(3);
            assert_eq!(q.take(), Some(2), "1 is blocked by 0, 2 is not");
            assert_eq!(q.take(), Some(3));
            q.done(0);
            q.done(3);
            q.push(0);
            assert_eq!(q.take(), Some(0), "1 is blocked by 2, 0 is not");
            q.done(2);
        }
        // Overtaken 4 × (2, 3, 0) = 12 times; four more and it holds the
        // queue, whoever else could step.
        for _ in 0..4 {
            q.push(3);
            assert_eq!(q.take(), Some(3));
            q.done(3);
        }
        q.push(3);
        assert_eq!(q.take(), None, "nobody overtakes 1 a 17th time");
        q.done(0);
        assert_eq!(q.take(), Some(1));
        // Its wait is over, and with it the hold: 3 does not neighbour it.
        assert_eq!(q.take(), Some(3));
    }

    #[test]
    fn ready_queue_queues_a_part_once_and_again_behind_its_own_step() {
        let mut q = ReadyQueue::new(2, usize::MAX);
        q.push(0);
        q.push(0);
        assert_eq!(q.take(), Some(0));
        assert!(q.is_empty() && !q.is_idle());
        // A wave landing mid-step queues the part again; it is not handed
        // out until that step is over.
        q.push(0);
        assert_eq!(q.take(), None);
        q.done(0);
        assert_eq!(q.take(), Some(0));
        q.done(0);
        assert!(q.is_idle());
        assert_eq!(q.take(), None);
        // Unlinked parts (the initial solves) may all run at once.
        q.push(0);
        q.push(1);
        assert_eq!((q.take(), q.take()), (Some(0), Some(1)));
    }

    /// Four workers over a 24² grid in 16 parts, every node probed, the
    /// neighbours of part 0 slowed down: once a part has sent its first
    /// waves (which is when the queue learns its links) it never steps
    /// while a neighbour does, and part 0 — passed over while the fast
    /// parts queued behind it are handed out — is held back, not dropped.
    #[test]
    fn pool_never_steps_two_neighbours_at_once_and_starves_nobody() {
        let a = generators::grid2d_laplacian(24, 24);
        let b = generators::random_rhs(24 * 24, 84);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_blocks(24, 24, 4, 4);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let termination = Termination::Residual { tol: 1e-6 };
        let common = CommonConfig {
            termination,
            max_solves_per_node: 1_000_000,
            ..Default::default()
        };
        let plain = runtime::build_nodes(&ss, &common).unwrap();
        let slow: Vec<usize> = plain[0].neighbor_parts().collect();
        let watch = Watch::new(plain.len());
        let nodes = plain
            .into_iter()
            .map(|inner| Probe {
                delay: Duration::ZERO,
                pause: Duration::from_micros(if slow.contains(&inner.part()) { 200 } else { 0 }),
                peers: inner.neighbor_parts().collect(),
                watch: watch.clone(),
                absorbed: 0,
                at_hook: None,
                inner,
            })
            .collect();
        let pool = Pool::start(nodes, 1, 4, None, false, no_hook());
        let report = supervise(&ss, termination, pool);
        assert!(report.converged, "residual {}", report.final_residual);
        assert_eq!(watch.overlaps.load(Ordering::SeqCst), 0);
        let steps: Vec<usize> = watch
            .steps
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .collect();
        assert_eq!(steps.iter().sum::<usize>() as u64, report.total_solves);
        let slowest = slow.iter().map(|&p| steps[p]).min().unwrap();
        assert!(
            steps[0] >= 4 && 2 * steps[0] >= slowest,
            "part 0 starved: {steps:?}"
        );
    }

    /// A part is stepped by one worker at a time, so a pool asked for more
    /// workers than parts starts one per part; and it starts the router
    /// only when some link has a delay left to impose.
    #[test]
    fn pool_starts_one_worker_per_part_at_most_and_a_router_only_for_delays() {
        let ms =
            |delay| Topology::complete(3).with_delays(&dtm_simnet::DelayModel::fixed_ms(delay));
        let (zero, unscaled) = (ms(0.0), ms(2.0));
        for delays in [None, Some((&zero, 1.0)), Some((&unscaled, 0.0))] {
            let pool = Pool::start(slow_start_problem().1, 1, 8, delays, false, no_hook());
            assert_eq!(pool.workers.len(), 3);
            assert!(pool.routing.is_none(), "no delay to impose, no router");
        }
    }

    /// The hook runs after the activation has absorbed its drained waves,
    /// so a column swap scales them with the rest of the node state: at
    /// every step, the hook saw every wave the step solves with.
    #[test]
    fn the_hook_sees_the_activations_drained_waves_absorbed() {
        let (ss, nodes) = slow_start_problem();
        let watch = nodes[0].watch.clone();
        let pool = Pool::start(nodes, 1, 3, None, true, hook_probe());
        run_to_all_halted(&ss, pool);
        assert_eq!(watch.hook_missed_waves.load(Ordering::SeqCst), 0);
        assert!(watch.hook_saw_waves.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn slow_start_rearms_converged_neighbours_on_the_pool() {
        let (ss, nodes) = slow_start_problem();
        let pool = Pool::start(nodes, 1, 3, None, true, no_hook());
        run_to_all_halted(&ss, pool);
    }

    /// The late part's waves reach its converged neighbours through the
    /// router, 2 ms after they are sent: they still re-arm them, and the
    /// pool does not read "all halted" while they are on their way.
    #[test]
    fn slow_start_rearms_converged_neighbours_through_the_router() {
        let (ss, nodes) = slow_start_problem();
        let links = Topology::complete(3).with_delays(&dtm_simnet::DelayModel::fixed_ms(2.0));
        let pool = Pool::start(nodes, 1, 3, Some((&links, 1.0)), true, no_hook());
        run_to_all_halted(&ss, pool);
    }
}
