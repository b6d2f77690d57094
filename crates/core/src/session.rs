//! Rolling mixed-tolerance solve sessions — the streaming API: admit
//! right-hand sides into a **live** wave exchange, retire them
//! individually, and stream per-column completion reports.
//!
//! A batch of right-hand sides solved at once
//! ([`DtmProblem::solve_block`]) shares one tolerance, and new work waits
//! for the whole exchange to drain. The paper's factor-once design promises
//! more — the local matrices never depend on the right-hand side, so a
//! *column slot* of the block wave can be recycled the instant its ticket
//! converges, without quiescing anything. Avron et
//! al. (2013) supply the license: asynchronous iterations tolerate
//! per-component staleness, so a freshly admitted column may start from
//! whatever stale boundary waves are still in flight for the retired one —
//! contraction corrects the initial state, and the stop decision is
//! **self-validating** (a ticket only retires when the *exact* metric of
//! the gathered estimate meets its own tolerance, so stale data can delay
//! a stop, never corrupt a result).
//!
//! Nor does a ticket start cold: Theorem 6.1's contraction holds from any
//! starting state, so [`Monitor::admit`] starts it from the A-norm-optimal
//! multiple `α·x̂` of its slot's last estimate, `α = x̂ᵀb / x̂ᵀAx̂`, and
//! both drivers scale the column's node state by the same `α` in the swap
//! order. A stream of correlated right-hand sides (a shared load plus
//! noise) starts each ticket with the shared part of its answer in place;
//! an uncorrelated one gets `α ≈ 0`, the zero start of eq. (5.6).
//!
//! This file is the queue, the ticket vocabulary and two thin drivers —
//! the simulated machine and the wall-clock pool — both scoring their
//! tickets with the [`Monitor`] a one-shot solve uses, its column slots
//! admitted and retired as tickets come and go:
//!
//! * `SessionQueue` — tickets, slot states, completion stream. Pure logic,
//!   shared by every driver.
//! * [`RollingSession`] — the simulated machine: the discrete-event engine
//!   is paused (its event queue, in-flight envelopes and busy windows all
//!   persist), the retiring column is swapped in place, warm-started
//!   ([`dtm_simnet::Engine::nodes_mut`] +
//!   [`NodeRuntime::swap_rhs_col`](crate::runtime::NodeRuntime::swap_rhs_col)
//!   with the `α` of [`Monitor::admit`]), and the run resumes — an
//!   instantaneous control action at the current simulated instant, not
//!   an exchange restart.
//! * [`WallclockSession`] ([`RollingPoolSession`]) — a
//!   [`crate::fabric::Pool`] runs the perpetual exchange; swap orders
//!   (slot, local right-hand side, `α`) travel per-part admission
//!   mailboxes that the pool's per-node hook drains before each step, so
//!   no node ever blocks or restarts.
//!
//! Every submitted right-hand side carries its **own**
//! [`Termination`] — `Residual` and `OracleRms` tolerances mix freely in
//! one session ([`Termination::LocalDelta`] is rejected: nodes must keep
//! exchanging for the session's lifetime, so per-node self-halt cannot
//! coexist with rolling admission). Completion is reported per column as a
//! [`ColumnReport`] stream instead of one batch-level
//! [`SolveReport`](crate::report::SolveReport).

use crate::builder::DtmProblem;
use crate::fabric::{Hook, Pool};
use crate::local::has_col;
use crate::monitor::{wall_time, Monitor, NO_SERIES, POLL_INTERVAL};
use crate::runtime::{self, CommonConfig, GatherMap, NodeRuntime, Termination};
use crate::solver::{self, DtmNode};
use crate::sync::{Arc, Mutex};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{Engine, SimDuration, SimTime, StopReason};
use dtm_sparse::{Csr, Error, Result, SparseCholesky};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Handle for one submitted right-hand side; returned by `submit`, carried
/// by its [`ColumnReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

impl std::fmt::Display for TicketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Per-column completion report — the rolling analogue of a batch
/// [`SolveReport`](crate::report::SolveReport): one per ticket, streamed
/// out as tickets retire instead of once per barrier.
#[derive(Debug, Clone)]
pub struct ColumnReport {
    /// Which submission this answers.
    pub ticket: TicketId,
    /// The stopping rule the ticket was admitted with.
    pub termination: Termination,
    /// Gathered global solution at retirement (split copies averaged).
    pub solution: Vec<f64>,
    /// Exact relative residual `‖b − A·x‖₂ / ‖b‖₂` at retirement (absolute
    /// residual for an all-zero `b`). Always computed.
    pub final_residual: f64,
    /// Exact RMS error against the oracle reference — `None` for
    /// residual-rule tickets, which never pay for an oracle.
    pub final_rms: Option<f64>,
    /// Session clock at submission, in milliseconds (simulated time for
    /// the simnet driver, wall-clock for the real executors).
    pub submitted_at_ms: f64,
    /// Session clock at retirement, in milliseconds.
    pub completed_at_ms: f64,
}

impl ColumnReport {
    /// Submission-to-completion latency in milliseconds — the serving
    /// number the rolling design exists to lower.
    pub fn latency_ms(&self) -> f64 {
        self.completed_at_ms - self.submitted_at_ms
    }
}

/// One queued or live right-hand side.
#[derive(Debug, Clone)]
struct Ticket {
    id: TicketId,
    b: Vec<f64>,
    termination: Termination,
    /// Direct solution `A⁻¹ b`, present only for `OracleRms` tickets.
    reference: Option<Vec<f64>>,
    submitted_at_ms: f64,
}

/// State of one column slot of the live block wave.
#[derive(Debug, Clone)]
enum Slot {
    /// No ticket occupies the slot. The retired column's values keep
    /// circulating in the exchange (they are converged, so their deltas
    /// are ~0 and they cost nothing extra) until an admission scales them
    /// into the next ticket's warm start.
    Idle,
    /// A live ticket.
    Active(Ticket),
}

/// The admission/queueing layer every rolling driver shares: a FIFO of
/// pending tickets, the slot table of the live block wave, and the
/// completed-report stream. Owns no executor state — drivers translate
/// its decisions (admit into slot `s`, retire slot `s`) into column swaps
/// on their machine.
#[derive(Debug)]
pub(crate) struct SessionQueue {
    n: usize,
    slots: Vec<Slot>,
    queue: VecDeque<Ticket>,
    next_ticket: u64,
    completed: Vec<ColumnReport>,
}

impl SessionQueue {
    /// A queue for systems of dimension `n` over `slots` column slots.
    pub fn new(n: usize, slots: usize) -> Self {
        assert!(slots >= 1, "at least one column slot");
        Self {
            n,
            slots: vec![Slot::Idle; slots],
            queue: VecDeque::new(),
            next_ticket: 0,
            completed: Vec::new(),
        }
    }

    /// Column slots of the live block wave.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Tickets waiting for a slot.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Tickets currently occupying slots.
    pub fn active(&self) -> usize {
        (0..self.slots.len()).filter(|&s| self.is_active(s)).count()
    }

    /// Whether a ticket occupies `slot`.
    fn is_active(&self, slot: usize) -> bool {
        matches!(self.slots[slot], Slot::Active(_))
    }

    /// Tickets submitted but not yet completed (queued + live).
    pub fn outstanding(&self) -> usize {
        self.pending() + self.active()
    }

    /// Refuse a ticket no session can serve — the check every rolling
    /// driver's `submit` makes before anything else.
    ///
    /// # Errors
    /// Rejects wrong-length vectors, non-finite entries (naming the first),
    /// a NaN tolerance and [`Termination::LocalDelta`] (rolling sessions
    /// need nodes that keep exchanging; per-node self-halt cannot coexist
    /// with mid-exchange admission).
    fn check(&self, b: &[f64], termination: Termination) -> Result<()> {
        if b.len() != self.n {
            return Err(Error::DimensionMismatch {
                context: "rolling session submit",
                expected: self.n,
                actual: b.len(),
            });
        }
        dtm_sparse::vector::require_finite("rolling session submit", b)?;
        if matches!(termination.check()?, Termination::LocalDelta { .. }) {
            return Err(Error::Parse(
                "rolling sessions accept Residual or OracleRms tickets; LocalDelta \
                 self-halt would retire nodes the session still needs"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Queue a [`check`](Self::check)ed right-hand side under its own
    /// stopping rule.
    fn submit(
        &mut self,
        b: &[f64],
        termination: Termination,
        reference: Option<Vec<f64>>,
        now_ms: f64,
    ) -> TicketId {
        debug_assert_eq!(
            matches!(termination, Termination::OracleRms { .. }),
            reference.is_some(),
            "oracle tickets carry a reference, residual tickets never do"
        );
        let id = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.queue.push_back(Ticket {
            id,
            b: b.to_vec(),
            termination,
            reference,
            submitted_at_ms: now_ms,
        });
        id
    }

    /// Lowest-numbered idle slot, if any.
    fn idle_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| matches!(s, Slot::Idle))
    }

    /// Move the front pending ticket into `slot`; returns the admitted
    /// ticket for the driver to scatter, or `None` if the queue is empty.
    fn admit_into(&mut self, slot: usize) -> Option<&Ticket> {
        debug_assert!(matches!(self.slots[slot], Slot::Idle), "slot occupied");
        let t = self.queue.pop_front()?;
        self.slots[slot] = Slot::Active(t);
        match &self.slots[slot] {
            Slot::Active(t) => Some(t),
            Slot::Idle => None, // just stored Active
        }
    }

    /// Retire the ticket in `slot` with its final numbers; frees the slot.
    fn retire(
        &mut self,
        slot: usize,
        solution: Vec<f64>,
        final_residual: f64,
        final_rms: Option<f64>,
        now_ms: f64,
    ) {
        let Slot::Active(t) = std::mem::replace(&mut self.slots[slot], Slot::Idle) else {
            // Retiring an idle slot is a driver bug; there is no ticket to
            // report, so in release this is a no-op.
            debug_assert!(false, "retiring an idle slot");
            return;
        };
        self.completed.push(ColumnReport {
            ticket: t.id,
            termination: t.termination,
            solution,
            final_residual,
            final_rms,
            submitted_at_ms: t.submitted_at_ms,
            completed_at_ms: now_ms,
        });
    }

    /// Drain the completed-report stream (submission order not
    /// guaranteed — tickets complete when their own tolerance is met).
    pub fn take_completed(&mut self) -> Vec<ColumnReport> {
        std::mem::take(&mut self.completed)
    }
}

/// Node-level configuration for a rolling run: the problem's common config
/// with self-halt and the solve cap disabled — session nodes live as long
/// as the session and halt for no reason of their own.
fn rolling_common(common: &CommonConfig) -> CommonConfig {
    CommonConfig {
        termination: Termination::Residual { tol: 0.0 },
        max_solves_per_node: usize::MAX,
        ..common.clone()
    }
}

/// A session's scorer: `slots` idle column slots over the split's system,
/// keeping no series.
fn session_monitor(split: &SplitSystem, slots: usize) -> Monitor {
    Monitor::new(&GatherMap::of_split(split, None), slots, NO_SERIES)
}

/// Lazily factored oracle for `OracleRms` tickets: residual-only sessions
/// never pay for the direct factorization of the original system.
#[derive(Debug, Default)]
struct LazyOracle {
    factor: Option<SparseCholesky>,
}

impl LazyOracle {
    fn reference(&mut self, a: &Csr, b: &[f64]) -> Result<Vec<f64>> {
        let f = match self.factor.take() {
            Some(f) => f,
            None => SparseCholesky::factor_fill_reducing(a)?,
        };
        let out = f.solve(b);
        self.factor = Some(f);
        Ok(out)
    }

    fn for_ticket(&mut self, a: &Csr, b: &[f64], t: Termination) -> Result<Option<Vec<f64>>> {
        match t {
            Termination::OracleRms { .. } => Ok(Some(self.reference(a, b)?)),
            _ => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Driver 1: the simulated machine.
// ---------------------------------------------------------------------------

/// A rolling session on the simulated heterogeneous machine.
///
/// Built once from a [`DtmProblem`]: every subdomain is factored once,
/// the engine and its event queue live for the whole session, and columns
/// are admitted/retired by in-place swaps between `run` slices — the
/// exchange is never restarted and nothing is ever re-factored.
///
/// ```
/// use dtm_core::runtime::Termination;
/// use dtm_core::DtmBuilder;
/// use dtm_simnet::SimDuration;
/// use dtm_sparse::generators;
///
/// let a = generators::grid2d_laplacian(9, 9);
/// let problem = DtmBuilder::new(a, vec![1.0; 81])
///     .grid_blocks(9, 9, 2, 2)
///     .build()
///     .unwrap();
/// let mut session = problem.rolling(2).unwrap();
/// // Mixed tolerances in one session: each stops at its own target.
/// let loose = session
///     .submit(&generators::random_rhs(81, 1), Termination::Residual { tol: 1e-3 })
///     .unwrap();
/// let tight = session
///     .submit(&generators::random_rhs(81, 2), Termination::OracleRms { tol: 1e-8 })
///     .unwrap();
/// let reports = session.drain_for(SimDuration::from_millis_f64(60_000.0));
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().any(|r| r.ticket == loose));
/// assert!(reports.iter().any(|r| r.ticket == tight));
/// ```
#[derive(Debug)]
pub struct RollingSession {
    split: SplitSystem,
    engine: Engine<DtmNode>,
    monitor: Monitor,
    queue: SessionQueue,
    oracle: LazyOracle,
}

impl RollingSession {
    pub(crate) fn new(problem: &DtmProblem, slots: usize) -> Result<Self> {
        if slots == 0 {
            return Err(Error::Parse("rolling session needs ≥ 1 column slot".into()));
        }
        let split = problem.split.clone();
        let n = split.original_n;
        let mut config = problem.config.clone();
        config.common = rolling_common(&config.common);
        let zero_cols = vec![vec![0.0; n]; slots];
        let nodes = solver::build_nodes_block(&split, &problem.topology, &config, &zero_cols)?;
        Ok(Self {
            engine: Engine::new(problem.topology.clone(), nodes),
            monitor: session_monitor(&split, slots),
            queue: SessionQueue::new(n, slots),
            split,
            oracle: LazyOracle::default(),
        })
    }

    /// Current simulated session clock.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Column slots of the live block wave.
    pub fn n_slots(&self) -> usize {
        self.queue.n_slots()
    }

    /// Tickets submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// Total local solves across the session so far — monotone for the
    /// session's whole life (admissions never reset the exchange).
    pub fn total_solves(&self) -> u64 {
        self.engine.stats().activations.iter().sum()
    }

    /// Queue a right-hand side under its own stopping rule; it is admitted
    /// into the live wave as soon as a slot is free (immediately, if one
    /// is).
    ///
    /// # Errors
    /// Rejects wrong-length vectors, non-finite entries (naming the first),
    /// a NaN tolerance and [`Termination::LocalDelta`]; `OracleRms` tickets
    /// additionally factor the original system once per session.
    pub fn submit(&mut self, b: &[f64], termination: Termination) -> Result<TicketId> {
        self.queue.check(b, termination)?;
        let reference = self
            .oracle
            .for_ticket(self.monitor.matrix(), b, termination)?;
        let now_ms = self.engine.now().as_millis_f64();
        let id = self.queue.submit(b, termination, reference, now_ms);
        self.admit_idle_slots();
        Ok(id)
    }

    /// Admit pending tickets into every idle slot: re-anchor the monitor's
    /// column on the warm start `α·x̂` and swap the ticket into every node's
    /// live block with its state scaled by the same `α` — the exchange
    /// keeps running throughout.
    fn admit_idle_slots(&mut self) {
        while self.queue.pending() > 0 {
            let Some(slot) = self.queue.idle_slot() else {
                return;
            };
            let Some(t) = self.queue.admit_into(slot) else {
                return;
            };
            let alpha = self
                .monitor
                .admit(slot, &t.b, t.termination, t.reference.as_deref());
            let local_cols = self.split.scatter_rhs(&t.b);
            for (node, local) in self.engine.nodes_mut().iter_mut().zip(&local_cols) {
                node.swap_rhs_col(slot, local, alpha);
            }
        }
    }

    /// Advance the simulated machine by `d`, admitting and retiring
    /// tickets as their own tolerances are crossed; returns the reports
    /// completed in the window.
    pub fn run_for(&mut self, d: SimDuration) -> Vec<ColumnReport> {
        let horizon = self.engine.now() + d;
        self.run_until(horizon, false)
    }

    /// Run until every outstanding ticket has completed, or `max` more
    /// simulated time has elapsed; returns everything completed.
    pub fn drain_for(&mut self, max: SimDuration) -> Vec<ColumnReport> {
        let horizon = self.engine.now() + max;
        self.run_until(horizon, true)
    }

    fn run_until(&mut self, horizon: SimTime, stop_when_drained: bool) -> Vec<ColumnReport> {
        let mut crossed: Vec<usize> = Vec::new();
        loop {
            if stop_when_drained && self.queue.outstanding() == 0 {
                break;
            }
            self.admit_idle_slots();
            let Self {
                engine,
                monitor,
                queue,
                ..
            } = self;
            crossed.clear();
            let outcome = engine.run(horizon, |time, part, node| {
                monitor.update_part(part, time, node.local().solution());
                crossed.extend((0..queue.n_slots()).filter(|&slot| monitor.done(slot)));
                crossed.is_empty()
            });
            if !crossed.is_empty() {
                let now_ms = engine.now().as_millis_f64();
                for slot in crossed.drain(..) {
                    let done = monitor.retire(slot);
                    queue.retire(slot, done.solution, done.residual, done.rms, now_ms);
                }
                continue; // resume the same exchange; admissions at loop top
            }
            match outcome.reason {
                StopReason::TimeLimit => break,
                // A quiescent or fully halted machine cannot make further
                // progress (only possible with no live tickets driving it).
                StopReason::QueueEmpty | StopReason::AllHalted => break,
                StopReason::ObserverStop => unreachable!("observer stops only on crossings"),
            }
        }
        self.queue.take_completed()
    }
}

// ---------------------------------------------------------------------------
// Driver 2: the wall-clock pool.
// ---------------------------------------------------------------------------

/// One admission order: `(column slot, local RHS column, warm start α)`.
type ColumnSwap = (usize, Vec<f64>, f64);

/// A rolling session on the wall-clock [`Pool`].
///
/// The pool runs the perpetual exchange — every received wave triggers a
/// re-solve and a re-scatter — for the session's whole life; the caller's
/// thread is the supervisor: [`poll`](Self::poll) drains the solution
/// snapshots of the columns due for scoring, retires tickets whose own
/// tolerance is met (exact metrics on the gathered estimate —
/// self-validating), and admits queued tickets — each warm-started from
/// its slot's last estimate ([`Monitor::admit`]) — by dropping swap orders
/// into per-part mailboxes, which the nodes drain through the pool's
/// per-node hook. Each column is scored on its own cadence, the one-shot
/// supervisor's decay rule (`Monitor::schedule`), so a poll between two
/// due times does no work; a scoring is one copy of what the parts
/// published, one gather and one exact recomputation. Call [`finish`](Self::finish) (or drop the
/// session) to stop the pool.
pub struct WallclockSession {
    split: SplitSystem,
    queue: SessionQueue,
    oracle: LazyOracle,
    monitor: Monitor,
    pool: Pool<NodeRuntime>,
    /// Admission mailboxes, one per part: [`ColumnSwap`] orders the node's
    /// hook applies before its next step.
    swaps: Arc<Vec<Mutex<Vec<ColumnSwap>>>>,
    started: Instant,
    finished: bool,
    /// Supervisor passes ([`poll`](Self::poll)s, including those inside
    /// `submit` and `drain`).
    pub(crate) pumps: u64,
    /// Columns scored, summed over the passes.
    pub(crate) scorings: u64,
}

/// A rolling session on the in-process work-stealing pool — the serving
/// shape: subdomain count decoupled from thread count.
pub type RollingPoolSession = WallclockSession;

impl WallclockSession {
    /// Build the session's nodes (a `slots`-wide block of zero columns
    /// over the problem's factors) and start them, with the mailbox hook,
    /// on a pool of `num_threads` workers (`0` = available parallelism).
    pub(crate) fn new(problem: &DtmProblem, slots: usize, num_threads: usize) -> Result<Self> {
        if slots == 0 {
            return Err(Error::Parse("rolling session needs ≥ 1 column slot".into()));
        }
        let split = problem.split.clone();
        let common = rolling_common(&problem.config.common);
        let zero_cols = vec![vec![0.0; split.original_n]; slots];
        let runtimes = runtime::build_nodes_block(&split, &common, &zero_cols)?;
        let swaps: Arc<Vec<Mutex<Vec<ColumnSwap>>>> = Arc::new(
            (0..split.n_parts())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        );
        let mailboxes = swaps.clone();
        let hook: Hook<NodeRuntime> = Box::new(move |rt| {
            let mut orders = mailboxes[rt.part()].lock();
            let swapped = !orders.is_empty();
            for (col, rhs, alpha) in orders.drain(..) {
                rt.swap_rhs_col(col, &rhs, alpha);
            }
            swapped
        });
        Ok(Self {
            pool: Pool::start(runtimes, slots, num_threads, None, false, hook),
            monitor: session_monitor(&split, slots),
            queue: SessionQueue::new(split.original_n, slots),
            oracle: LazyOracle::default(),
            split,
            swaps,
            started: Instant::now(),
            finished: false,
            pumps: 0,
            scorings: 0,
        })
    }

    /// Tickets submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    fn now_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Queue a right-hand side under its own stopping rule; admission
    /// happens immediately if a slot is free (completed reports stay
    /// queued for the next [`poll`](Self::poll) — submitting never
    /// discards them).
    ///
    /// # Errors
    /// See [`RollingSession::submit`]; also rejects submissions after
    /// [`finish`](Self::finish) — the pool is stopped, so the ticket
    /// could never complete.
    pub fn submit(&mut self, b: &[f64], termination: Termination) -> Result<TicketId> {
        if self.finished {
            return Err(Error::Parse(
                "rolling session is finished; its nodes are stopped".into(),
            ));
        }
        self.queue.check(b, termination)?;
        let reference = self
            .oracle
            .for_ticket(self.monitor.matrix(), b, termination)?;
        let now_ms = self.now_ms();
        let id = self.queue.submit(b, termination, reference, now_ms);
        self.pump();
        Ok(id)
    }

    /// One supervisor pass without consuming the completed-report stream:
    /// copy in what the nodes published for the columns that are due and
    /// score them exactly, retire every due ticket whose own tolerance the exact
    /// metric of its gathered estimate meets (self-validating, even while
    /// some parts still hold a just-swapped column's stale state) and
    /// schedule the others' next scoring, then admit queued tickets into
    /// the free slots, each warm-started from the slot's last estimate and
    /// due one floor interval on. Each swap order carries the admission's
    /// `α` and wakes its node so an idle one picks it up promptly. A pass that
    /// retires and admits nothing allocates nothing; one with nothing due
    /// takes no lock.
    fn pump(&mut self) {
        self.pumps += 1;
        let time = wall_time(self.started);
        let now = Duration::from_nanos(time.as_nanos());
        let due = self.monitor.due(now);
        if due != 0 {
            self.monitor.poll(time, self.pool.snapshots(), due);
            let slots = self.queue.n_slots();
            for slot in 0..slots {
                if !has_col(due, slot, slots) || !self.queue.is_active(slot) {
                    continue;
                }
                self.scorings += 1;
                if self.monitor.done(slot) {
                    let done = self.monitor.retire(slot);
                    let now_ms = self.now_ms();
                    self.queue
                        .retire(slot, done.solution, done.residual, done.rms, now_ms);
                } else {
                    self.monitor.schedule(slot, now);
                }
            }
        }
        while let Some(slot) = self.queue.idle_slot() {
            let Some(t) = self.queue.admit_into(slot) else {
                break;
            };
            let alpha = self
                .monitor
                .admit(slot, &t.b, t.termination, t.reference.as_deref());
            self.monitor.schedule(slot, now);
            let local_cols = self.split.scatter_rhs(&t.b);
            for (p, (mailbox, local)) in self.swaps.iter().zip(local_cols).enumerate() {
                mailbox.lock().push((slot, local, alpha));
                self.pool.wake(p);
            }
        }
    }

    /// One supervisor pass: drain snapshots, retire finished tickets,
    /// admit queued ones; returns the reports completed so far.
    pub fn poll(&mut self) -> Vec<ColumnReport> {
        self.pump();
        self.queue.take_completed()
    }

    /// Poll until every outstanding ticket completes or `timeout` elapses
    /// (one too long for the clock, `Duration::MAX` say, sets no
    /// deadline), sleeping between passes until the earliest live column
    /// is due. A [`finish`](Self::finish)ed session returns at once with
    /// the reports completed so far: its stopped nodes can complete
    /// nothing more.
    pub fn drain(&mut self, timeout: Duration) -> Vec<ColumnReport> {
        if self.finished {
            return self.queue.take_completed();
        }
        let deadline = Instant::now().checked_add(timeout);
        let mut out = self.poll();
        while self.queue.outstanding() > 0 {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                break;
            }
            let wait = self.monitor.next_due().map_or(POLL_INTERVAL, |due| {
                due.saturating_sub(self.started.elapsed())
            });
            std::thread::sleep(wait.min(left));
            out.extend(self.poll());
        }
        out
    }

    /// Stop the pool and wait for it. Further submissions are rejected;
    /// prefer draining first.
    pub fn finish(&mut self) {
        self.pool.finish();
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DtmBuilder;
    use dtm_sparse::generators;

    fn grid_problem(side: usize) -> DtmProblem {
        let a = generators::grid2d_laplacian(side, side);
        let b = vec![1.0; side * side];
        DtmBuilder::new(a, b)
            .grid_blocks(side, side, 2, 2)
            .build()
            .expect("builds")
    }

    #[test]
    fn queue_rejects_local_delta_and_wrong_lengths() {
        let mut q = SessionQueue::new(4, 2);
        assert!(q
            .check(&[1.0; 3], Termination::Residual { tol: 1e-6 })
            .is_err());
        assert!(q
            .check(
                &[1.0; 4],
                Termination::LocalDelta {
                    tol: 1e-9,
                    patience: 2
                },
            )
            .is_err());
        assert!(q
            .check(&[1.0; 4], Termination::Residual { tol: f64::NAN })
            .is_err());
        let id = q.submit(&[1.0; 4], Termination::Residual { tol: 1e-6 }, None, 0.0);
        assert_eq!(id, TicketId(0));
        assert_eq!(q.outstanding(), 1);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn submit_rejects_non_finite_right_hand_sides() {
        // The one queue both sessions share names the first bad entry;
        // nothing is queued.
        let rule = Termination::Residual { tol: 1e-6 };
        let q = SessionQueue::new(4, 2);
        let err = q
            .check(&[1.0, f64::NAN, f64::INFINITY, 1.0], rule)
            .unwrap_err();
        assert!(matches!(err, Error::NonFinite { index: 1, .. }), "{err}");
        assert_eq!(q.outstanding(), 0);
        // … through a session's own `submit` as well.
        let mut session = grid_problem(6).rolling(1).unwrap();
        let mut b = vec![1.0; 36];
        b[20] = f64::INFINITY;
        let err = session.submit(&b, rule).unwrap_err();
        assert!(matches!(err, Error::NonFinite { index: 20, .. }), "{err}");
        assert_eq!(session.outstanding(), 0);
    }

    #[test]
    fn queue_admission_and_retirement_lifecycle() {
        let mut q = SessionQueue::new(2, 1);
        let t0 = q.submit(&[1.0, 2.0], Termination::Residual { tol: 1e-6 }, None, 1.0);
        let t1 = q.submit(&[3.0, 4.0], Termination::Residual { tol: 1e-3 }, None, 2.0);
        assert_eq!(q.idle_slot(), Some(0));
        assert_eq!(q.admit_into(0).unwrap().id, t0);
        assert_eq!(q.idle_slot(), None, "single slot occupied");
        assert_eq!(q.active(), 1);
        q.retire(0, vec![0.5, 0.5], 1e-7, None, 5.0);
        assert_eq!(q.idle_slot(), Some(0), "slot recycled");
        assert_eq!(q.admit_into(0).unwrap().id, t1);
        q.retire(0, vec![0.1, 0.1], 1e-4, None, 9.0);
        let done = q.take_completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].ticket, t0);
        assert!((done[0].latency_ms() - 4.0).abs() < 1e-12);
        assert_eq!(done[1].ticket, t1);
        assert!((done[1].latency_ms() - 7.0).abs() < 1e-12);
        assert_eq!(q.outstanding(), 0);
    }

    mod queue_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of the adversarial driver schedule.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// Submit a fresh ticket.
            Submit,
            /// Retire the `i % active`-th live slot (no-op when none live).
            Retire(u8),
            /// Admit pending tickets into every idle slot (what every
            /// driver does between steps).
            AdmitAll,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..12).prop_map(|v| match v {
                0..=4 => Op::Submit,
                5..=8 => Op::Retire(v),
                _ => Op::AdmitAll,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// FIFO + slot-recycling invariants under racing retire/admit
            /// schedules: admission happens in exact submission order, a
            /// retired slot is reused exactly once per free-up, and no
            /// ticket is ever lost or duplicated.
            #[test]
            fn queue_fifo_and_slot_recycling_invariants(
                slots in 1usize..5,
                ops in proptest::collection::vec(op_strategy(), 1..60),
            ) {
                let n = 3;
                let mut q = SessionQueue::new(n, slots);
                let mut submitted: u64 = 0;
                let mut admitted_order: Vec<u64> = Vec::new();
                let mut live: Vec<(usize, u64)> = Vec::new(); // (slot, ticket)
                let mut clock = 0.0_f64;
                for op in ops {
                    clock += 1.0;
                    match op {
                        Op::Submit => {
                            let id = q.submit(
                                &[1.0, 2.0, 3.0],
                                Termination::Residual { tol: 1e-6 },
                                None,
                                clock,
                            );
                            prop_assert_eq!(id, TicketId(submitted), "ids are sequential");
                            submitted += 1;
                        }
                        Op::Retire(i) => {
                            if !live.is_empty() {
                                let (slot, ticket) =
                                    live.remove(i as usize % live.len());
                                q.retire(slot, vec![0.0; n], 1e-9, None, clock);
                                prop_assert_eq!(
                                    q.idle_slot(),
                                    Some(
                                        (0..slots)
                                            .find(|s| !live.iter().any(|&(l, _)| l == *s))
                                            .unwrap()
                                    ),
                                    "lowest freed slot becomes admissible (ticket {})",
                                    ticket
                                );
                            }
                        }
                        Op::AdmitAll => {
                            while q.pending() > 0 {
                                let Some(slot) = q.idle_slot() else { break };
                                prop_assert!(
                                    !live.iter().any(|&(l, _)| l == slot),
                                    "admitting into an occupied slot"
                                );
                                let t = q.admit_into(slot).unwrap();
                                admitted_order.push(t.id.0);
                                live.push((slot, t.id.0));
                            }
                        }
                    }
                    // Book-keeping invariants hold after every op.
                    prop_assert_eq!(q.active(), live.len());
                    prop_assert_eq!(
                        q.outstanding(),
                        q.pending() + live.len(),
                        "outstanding = queued + live"
                    );
                    prop_assert!(q.active() <= slots, "never more live than slots");
                }
                // FIFO: tickets entered slots in exact submission order.
                let sorted: Vec<u64> = {
                    let mut s = admitted_order.clone();
                    s.sort_unstable();
                    s
                };
                prop_assert_eq!(&admitted_order, &sorted, "admission preserves FIFO");
                // Drain everything: every submitted ticket must surface in
                // exactly one completed report — none lost, none duplicated.
                loop {
                    while q.pending() > 0 {
                        let Some(slot) = q.idle_slot() else { break };
                        let t = q.admit_into(slot).unwrap();
                        live.push((slot, t.id.0));
                    }
                    let Some((slot, _)) = live.pop() else { break };
                    q.retire(slot, vec![0.0; n], 1e-9, None, clock);
                }
                let mut done: Vec<u64> =
                    q.take_completed().iter().map(|r| r.ticket.0).collect();
                done.sort_unstable();
                prop_assert_eq!(done.len() as u64, submitted, "no ticket lost");
                prop_assert_eq!(done, (0..submitted).collect::<Vec<u64>>(), "no duplicates");
                prop_assert_eq!(q.outstanding(), 0);
            }

            /// Latency accounting survives any schedule: completion time
            /// never precedes submission time, and reports carry the
            /// termination they were admitted with.
            #[test]
            fn queue_reports_are_causally_ordered(
                gaps in proptest::collection::vec(0.0f64..10.0, 1..12),
            ) {
                let mut q = SessionQueue::new(2, 1);
                let mut clock = 0.0;
                for (i, gap) in gaps.iter().enumerate() {
                    clock += gap;
                    let term = if i % 2 == 0 {
                        Termination::Residual { tol: 1e-6 }
                    } else {
                        Termination::Residual { tol: 1e-3 }
                    };
                    q.submit(&[1.0, 2.0], term, None, clock);
                }
                let mut retired = 0;
                while retired < gaps.len() {
                    let slot = q.idle_slot().unwrap();
                    q.admit_into(slot).unwrap();
                    clock += 1.0;
                    q.retire(slot, vec![0.0; 2], 1e-9, None, clock);
                    retired += 1;
                }
                for r in q.take_completed() {
                    prop_assert!(r.latency_ms() >= 1.0 - 1e-12, "causal latency");
                    prop_assert!(matches!(r.termination, Termination::Residual { .. }));
                }
            }
        }
    }

    #[test]
    fn rolling_sim_session_admits_mid_exchange_without_restart() {
        let problem = grid_problem(8);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling(2).expect("builds");
        let b1 = generators::random_rhs(64, 11);
        let b2 = generators::random_rhs(64, 12);
        let b3 = generators::random_rhs(64, 13);
        // Two tickets occupy both slots; the third queues.
        session
            .submit(&b1, Termination::Residual { tol: 1e-8 })
            .unwrap();
        session
            .submit(&b2, Termination::Residual { tol: 1e-8 })
            .unwrap();
        session
            .submit(&b3, Termination::OracleRms { tol: 1e-8 })
            .unwrap();
        assert_eq!(session.outstanding(), 3);
        // Run a short slice: the exchange starts and time advances.
        let _ = session.run_for(SimDuration::from_millis_f64(1.0));
        let (t_mid, solves_mid) = (session.now(), session.total_solves());
        assert!(solves_mid > 0, "exchange is live");
        // Drain: ticket 3 must be admitted into a recycled slot while the
        // same exchange keeps running — time and solve counts continue
        // monotonically from the mid-run snapshot, never reset.
        let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        assert_eq!(reports.len(), 3, "all tickets complete");
        assert!(session.now() > t_mid, "simulated time never restarted");
        assert!(
            session.total_solves() > solves_mid,
            "solve counters continued, not reset"
        );
        for r in &reports {
            let b = match r.ticket {
                TicketId(0) => &b1,
                TicketId(1) => &b2,
                _ => &b3,
            };
            // Residual tickets stopped on the relative residual itself; the
            // oracle ticket stopped on its RMS, which bounds the residual
            // more loosely.
            let bound = if r.ticket == TicketId(2) { 1e-5 } else { 1e-8 };
            assert!(
                a.residual_norm(&r.solution, b) / dtm_sparse::vector::norm2(b) <= bound * 1.0001,
                "ticket {} meets its own tolerance",
                r.ticket
            );
            assert!(r.latency_ms() >= 0.0);
        }
        // The oracle ticket reports an RMS; residual tickets don't.
        let oracle_report = reports.iter().find(|r| r.ticket == TicketId(2)).unwrap();
        assert!(oracle_report.final_rms.is_some());
        assert!(oracle_report.final_rms.unwrap() <= 1e-8);
        assert!(reports
            .iter()
            .filter(|r| r.ticket != TicketId(2))
            .all(|r| r.final_rms.is_none()));
    }

    #[test]
    fn rolling_sim_mixed_tolerances_stop_at_their_own_targets() {
        let problem = grid_problem(8);
        let mut session = problem.rolling(2).expect("builds");
        let b_loose = generators::random_rhs(64, 21);
        let b_tight = generators::random_rhs(64, 22);
        let loose = session
            .submit(&b_loose, Termination::Residual { tol: 1e-2 })
            .unwrap();
        let tight = session
            .submit(&b_tight, Termination::Residual { tol: 1e-9 })
            .unwrap();
        let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
        assert_eq!(reports.len(), 2);
        let r_loose = reports.iter().find(|r| r.ticket == loose).unwrap();
        let r_tight = reports.iter().find(|r| r.ticket == tight).unwrap();
        assert!(r_loose.final_residual <= 1e-2);
        assert!(r_tight.final_residual <= 1e-9);
        assert!(
            r_loose.completed_at_ms < r_tight.completed_at_ms,
            "the loose ticket retires earlier ({} vs {} ms), not at a shared barrier",
            r_loose.completed_at_ms,
            r_tight.completed_at_ms
        );
    }

    #[test]
    fn rolling_sim_session_resubmitting_the_same_rhs_starts_warm() {
        // Deterministic: the second ticket for the same b starts from the
        // first one's answer (α ≈ 1) and retires in a fraction of the
        // activations the cold start took.
        let problem = grid_problem(8);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling(1).expect("builds");
        let b = generators::random_rhs(64, 31);
        let rule = Termination::Residual { tol: 1e-8 };
        let drain = |session: &mut RollingSession| {
            let before = session.total_solves();
            let reports = session.drain_for(SimDuration::from_millis_f64(600_000.0));
            assert_eq!(reports.len(), 1);
            let residual = a.residual_norm(&reports[0].solution, &b);
            assert!(residual / dtm_sparse::vector::norm2(&b) <= 1e-8);
            session.total_solves() - before
        };
        session.submit(&b, rule).unwrap();
        let cold = drain(&mut session);
        session.submit(&b, rule).unwrap();
        let warm = drain(&mut session);
        assert!(4 * warm <= cold, "warm {warm} vs cold {cold} activations");
    }

    #[test]
    fn rolling_pool_session_resubmitting_the_same_rhs_starts_warm() {
        // The pool's admission is scored on the warm start: the resubmitted
        // ticket starts next to its retired answer, not at residual 1.
        let problem = grid_problem(8);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling_workstealing(1, 2).expect("spawns");
        let b = generators::random_rhs(64, 32);
        let rule = Termination::Residual { tol: 1e-7 };
        for round in 0..2 {
            session.submit(&b, rule).unwrap();
            if round == 1 {
                let start = session.monitor.metric();
                assert!(start < 1e-5, "admitted at residual {start:e}");
            }
            let reports = session.drain(Duration::from_secs(60));
            assert_eq!(reports.len(), 1);
            let residual = a.residual_norm(&reports[0].solution, &b);
            assert!(residual / dtm_sparse::vector::norm2(&b) <= 1e-7);
        }
        session.finish();
    }

    #[test]
    fn rolling_session_rejects_local_delta_and_zero_slots() {
        let problem = grid_problem(6);
        assert!(problem.rolling(0).is_err());
        let mut session = problem.rolling(1).unwrap();
        assert!(session
            .submit(
                &[0.0; 36],
                Termination::LocalDelta {
                    tol: 1e-9,
                    patience: 2
                }
            )
            .is_err());
        assert!(session
            .submit(&[0.0; 35], Termination::Residual { tol: 1e-6 })
            .is_err());
    }

    /// Serve 12 tickets, tolerances alternating 1e-3 and 1e-7, through a
    /// 4-slot session on a 12×12 grid, polling in a busy loop — far more
    /// often than any column is due. Every answer meets its own
    /// tolerance; each ticket costs a bounded number of column scorings,
    /// never two of one column within `POLL_INTERVAL`; most polls score
    /// nothing.
    #[test]
    fn rolling_pool_session_scores_each_column_on_its_own_cadence() {
        let problem = grid_problem(12);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling_workstealing(4, 2).expect("spawns");
        let work: Vec<(Vec<f64>, f64)> = (0..12)
            .map(|i| {
                (
                    generators::random_rhs(144, 500 + i),
                    [1e-3, 1e-7][i as usize % 2],
                )
            })
            .collect();
        let started = Instant::now();
        for (b, tol) in &work {
            session
                .submit(b, Termination::Residual { tol: *tol })
                .unwrap();
        }
        let mut reports = Vec::new();
        while reports.len() < work.len() && started.elapsed() < Duration::from_secs(60) {
            reports.extend(session.poll());
            std::hint::spin_loop();
        }
        let elapsed = started.elapsed();
        session.finish();
        assert_eq!(reports.len(), work.len(), "every ticket retires");
        for r in &reports {
            let (b, tol) = &work[r.ticket.0 as usize];
            let residual = a.residual_norm(&r.solution, b) / dtm_sparse::vector::norm2(b);
            assert!(
                residual <= *tol,
                "ticket {}: {residual:e} > {tol:e}",
                r.ticket
            );
        }
        // Optimised builds score 1–5 times per ticket here, unoptimised
        // ones 8–22; the bound leaves room for a loaded machine, where a
        // starved column's flat metric is rescored at the floor. Scoring
        // every column on every poll would be thousands per ticket.
        let (pumps, scorings) = (session.pumps, session.scorings);
        assert!(
            scorings <= 60 * 12,
            "{scorings} column scorings for 12 tickets"
        );
        // A column is first scored one floor interval after its admission
        // and then at least as far apart, and at most 4 are live at once.
        let cap = 4 * elapsed.as_micros() / POLL_INTERVAL.as_micros();
        assert!(
            u128::from(scorings) <= cap,
            "{scorings} scorings in {elapsed:?}"
        );
        assert!(
            pumps >= 10 * scorings,
            "{pumps} polls, {scorings} column scorings"
        );
    }

    #[test]
    fn rolling_session_of_65_slots_retires_every_ticket() {
        // Wider than the 64-bit column mask: every live column is scored
        // whenever any is due.
        let problem = grid_problem(6);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling_workstealing(65, 2).expect("spawns");
        let work: Vec<Vec<f64>> = (0..70)
            .map(|i| generators::random_rhs(36, 900 + i))
            .collect();
        for b in &work {
            session
                .submit(b, Termination::Residual { tol: 1e-6 })
                .unwrap();
        }
        let reports = session.drain(Duration::from_secs(60));
        session.finish();
        assert_eq!(reports.len(), work.len());
        for r in &reports {
            let b = &work[r.ticket.0 as usize];
            assert!(a.residual_norm(&r.solution, b) / dtm_sparse::vector::norm2(b) <= 1e-6);
        }
    }

    #[test]
    fn rolling_session_drain_needs_no_deadline_and_stops_at_finish() {
        let problem = grid_problem(8);
        let mut session = problem.rolling_workstealing(2, 2).expect("spawns");
        let b = generators::random_rhs(64, 61);
        let done = session
            .submit(&b, Termination::Residual { tol: 1e-6 })
            .unwrap();
        let reports = session.drain(Duration::MAX);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].ticket, done);
        // A tolerance no estimate meets: the ticket is still outstanding
        // when the nodes stop, and nothing can complete it after.
        session
            .submit(&b, Termination::Residual { tol: 1e-300 })
            .unwrap();
        session.finish();
        let started = Instant::now();
        assert!(session.drain(Duration::MAX).is_empty());
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(session.outstanding(), 1);
    }

    #[test]
    fn rolling_pool_session_serves_staggered_tickets() {
        let problem = grid_problem(8);
        let (a, _) = problem.split.reconstruct().unwrap();
        let mut session = problem.rolling_workstealing(2, 2).expect("spawns");
        let b1 = generators::random_rhs(64, 41);
        let b2 = generators::random_rhs(64, 42);
        session
            .submit(&b1, Termination::Residual { tol: 1e-7 })
            .unwrap();
        session
            .submit(&b2, Termination::Residual { tol: 1e-4 })
            .unwrap();
        let reports = session.drain(Duration::from_secs(60));
        session.finish();
        assert_eq!(reports.len(), 2);
        let r1 = reports.iter().find(|r| r.ticket == TicketId(0)).unwrap();
        let r2 = reports.iter().find(|r| r.ticket == TicketId(1)).unwrap();
        assert!(a.residual_norm(&r1.solution, &b1) / dtm_sparse::vector::norm2(&b1) <= 2e-7);
        assert!(a.residual_norm(&r2.solution, &b2) / dtm_sparse::vector::norm2(&b2) <= 2e-4);
    }
}
