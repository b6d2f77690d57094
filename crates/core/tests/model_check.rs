//! Exhaustive-interleaving model checks of the concurrency protocols the
//! backends' correctness rests on. Runs only with the `model-check`
//! feature, which flips `dtm_core::sync` to the minloom shim primitives:
//!
//! ```text
//! cargo test -p dtm-core --features model-check --test model_check --release
//! ```
//!
//! Each protocol is modeled as a *distilled* version of the production
//! loop written against the same `dtm_core::sync` facade the production
//! code compiles against, plus seeded mutants the checker must catch:
//!
//! 1. **Quiescence kick** (`fabric.rs`, `Threads`): the LocalDelta idle
//!    kick may fire only at true global quiescence. Current code uses one
//!    deferred-decrement work counter; the mutant is the previous
//!    two-counter (`active` + `in_flight`) guard, whose two loads can
//!    straddle a receive handoff and both read zero while a wave is
//!    mid-absorb — the checker finds the resulting premature stop.
//! 2. **Scheduled-bit mailbox** (`fabric.rs`, `Pool`): a part's "queued"
//!    bit (since PR 22 a flag inside `ReadyQueue`, cleared by `take`) must
//!    be cleared *before* the activation drains the inbox; the
//!    drain-before-clear mutant strands a wave pushed between the drain
//!    and the clear.
//! 3. **Rolling-session retirement** (`session.rs`): a ticket retires
//!    only on the exact metric of its *own* gathered estimate
//!    (self-validating); the stale-metric mutant retires a freshly
//!    admitted ticket on the previous occupant's solved value.
//!
//! Plus the PR 4 regression: the monitor's incremental-metric resync
//! must trigger at `metric <= refresh_below` (inclusive); the historical
//! `<` mutant skips the resync exactly on the boundary and declares
//! convergence from a drifted metric. The checker finds the
//! supervisor-polls-between-updates schedule that exposes it.
//!
//! And the LocalDelta halting protocol of `fabric.rs` — **halting is a
//! state**: the halt → late-wave → re-arm handoff. On the pool, the halt
//! flag is read under the state lock, after the inbox swap, and "all
//! halted" needs quiescence; the mutants are the parent commit's
//! check-before-lock (one node counted halted twice, so the count never
//! equals the part count), a halted node that ignores its mail (the lost
//! wake-up), and a supervisor that trusts the count without quiescence
//! (the premature collective halt). On threads, a re-armed worker clears
//! its flag *before* releasing the wave's work token; the release-first
//! mutant lets the supervisor read "no work, all halted" in between.
//!
//! And the pool's **ready-queue hand-off** (PR 22), on the production
//! `fabric::ReadyQueue` under the production lock: two neighbours are never
//! mid-step at once, a part passed over because its neighbour was mid-step
//! is never lost, and "queue empty ∧ nobody mid-step" is never observed
//! over an undelivered wave. Mutants: `done` in a critical section of its
//! own ahead of the pushes, and a finisher that parks without re-offering
//! the head of the queue.

#![cfg(feature = "model-check")]

use dtm_core::fabric::ReadyQueue;
use dtm_core::sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dtm_core::sync::{
    Arc, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering,
};
use minloom::{checkpoint, hash_fold, thread, Builder};
use std::time::Duration;

// ---------------------------------------------------------------------------
// 1. Quiescence kick (fabric.rs, Threads)
// ---------------------------------------------------------------------------

/// Which quiescence guard the distilled worker runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Guard {
    /// Current code: one deferred-decrement work counter; kick on a
    /// single zero read.
    SingleCounter,
    /// Pre-PR 9 code: separate `active` (workers mid-step) and
    /// `in_flight` (waves sent, not yet absorbed) counters; kick when
    /// both loads read zero. Racy: the receive path's
    /// `active += 1; in_flight -= 1` handoff can straddle the two loads.
    TwoCounter,
}

struct QuiesceShared {
    /// `SingleCounter`: outstanding work tokens (seeded with one per
    /// worker for the initial step). `TwoCounter`: waves in flight.
    in_flight: AtomicI64,
    /// `TwoCounter` only: workers currently mid-step.
    active: AtomicI64,
}

/// Distilled delivery, matching the worker's `step` closure: mint the
/// token *before* the wave becomes receivable.
fn q_send(shared: &QuiesceShared, tx: &Sender<u32>, v: u32) {
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    let _ = tx.send(v);
}

/// Distilled worker, matching the shape of `fabric::work`:
/// initial step, then recv/coalesce/step with the LocalDelta idle kick
/// on timeout. The "solve" forwards wave `v` as `v - 1` to the next part
/// while `v > 0` (a finite causal chain standing in for a decaying
/// delta). The streak advances only on the kick path, so a worker halts
/// exactly when its guard claimed global quiescence `patience` times —
/// any wave left undelivered at join time is a premature stop.
#[allow(clippy::needless_pass_by_value)]
fn q_worker(
    part: u64,
    guard: Guard,
    patience: u32,
    initial_wave: Option<u32>,
    rx: Receiver<u32>,
    next: Sender<u32>,
    shared: Arc<QuiesceShared>,
) {
    let step = |absorbed: &[u32]| -> Option<u32> {
        let out = absorbed.iter().copied().max().unwrap_or(0);
        (out > 0).then(|| out - 1)
    };

    // Initial solve. Under `SingleCounter` its token was minted at
    // counter setup and is released only after the step's own sends are
    // counted; under `TwoCounter` the step is bracketed by `active`.
    if guard == Guard::TwoCounter {
        shared.active.fetch_add(1, Ordering::AcqRel);
    }
    if let Some(v) = initial_wave {
        q_send(&shared, &next, v);
    }
    match guard {
        Guard::SingleCounter => {
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
        Guard::TwoCounter => {
            shared.active.fetch_sub(1, Ordering::AcqRel);
        }
    }

    let mut streak: u32 = 0;
    loop {
        // The recv_timeout poll loop is unbounded; everything
        // loop-carried that steers behavior is (part, streak).
        checkpoint(hash_fold(part, u64::from(streak)));
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(first) => {
                if guard == Guard::TwoCounter {
                    // The racy handoff under test: mark active, then
                    // release the in-flight count — two counters, so no
                    // observer can read both at once.
                    shared.active.fetch_add(1, Ordering::AcqRel);
                    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
                let mut absorbed = vec![first];
                while let Ok(more) = rx.try_recv() {
                    if guard == Guard::TwoCounter {
                        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                    }
                    absorbed.push(more);
                }
                if let Some(out) = step(&absorbed) {
                    q_send(&shared, &next, out);
                }
                match guard {
                    Guard::SingleCounter => {
                        // Deferred decrement: consumed tokens stay
                        // outstanding until the step they caused has
                        // minted tokens for its own sends.
                        shared
                            .in_flight
                            .fetch_sub(absorbed.len() as i64, Ordering::AcqRel);
                    }
                    Guard::TwoCounter => {
                        shared.active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                streak = 0;
            }
            Err(RecvTimeoutError::Timeout) => {
                let quiescent = match guard {
                    Guard::SingleCounter => shared.in_flight.load(Ordering::Acquire) == 0,
                    Guard::TwoCounter => {
                        shared.active.load(Ordering::Acquire) == 0
                            && shared.in_flight.load(Ordering::Acquire) == 0
                    }
                };
                if quiescent {
                    // Idle kick: the re-solve against an unchanged
                    // boundary is zero-delta, advancing the self-halt
                    // streak (Table 1 step 3.3).
                    streak += 1;
                    if streak >= patience {
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Build the ring of distilled workers and assert every wave was
/// absorbed before its addressee halted. `patience = 1` is the hardest
/// setting: a single spurious quiescence read kills a worker.
fn quiesce_model(guard: Guard, n_workers: u64, initial_wave: u32) {
    let shared = Arc::new(QuiesceShared {
        in_flight: AtomicI64::new(match guard {
            Guard::SingleCounter => n_workers as i64,
            Guard::TwoCounter => 0,
        }),
        active: AtomicI64::new(0),
    });
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    for _ in 0..n_workers {
        let (tx, rx) = unbounded::<u32>();
        txs.push(tx);
        rxs.push(rx);
    }
    // Keep supervisor-side clones, mirroring `drain_rx`: after every
    // worker has halted, an undelivered wave is a protocol violation.
    let drain: Vec<Receiver<u32>> = rxs.iter().map(Receiver::clone).collect();

    let mut handles = Vec::new();
    for (p, rx) in rxs.into_iter().enumerate() {
        let next = txs[(p + 1) % n_workers as usize].clone();
        let shared = Arc::clone(&shared);
        // Worker 0 owes the chain's seed wave; the others' initial
        // solves are zero-delta.
        let seed = (p == 0).then_some(initial_wave);
        handles.push(thread::spawn(move || {
            q_worker(p as u64, guard, 1, seed, rx, next, shared);
        }));
    }
    drop(txs);
    for h in handles {
        h.join().unwrap();
    }
    for (p, rx) in drain.iter().enumerate() {
        assert!(
            rx.try_recv().is_err(),
            "premature stop: worker {p} halted with a wave still addressed to it"
        );
    }
}

/// Current protocol, two workers, full interleaving exploration: the
/// idle kick can never fire while the seed wave's causal chain is alive.
#[test]
fn quiescence_single_counter_exhaustive() {
    let report = Builder::new().explore(|| quiesce_model(Guard::SingleCounter, 2, 1));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
    // State-hash dedup collapses most branches; completed schedules plus
    // pruned subtrees together witness a real exploration.
    assert!(
        report.schedules + report.pruned > 20,
        "trivial exploration: {report:?}"
    );
}

/// Current protocol at the scale of the real deployment shape (a
/// three-part ring with a two-hop chain), explored to preemption bound
/// 2 — the bound that exposes the two-counter race below.
#[test]
fn quiescence_single_counter_three_workers_bounded() {
    let report = Builder::new()
        .preemption_bound(2)
        .explore(|| quiesce_model(Guard::SingleCounter, 3, 2));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// The pre-PR 9 two-counter guard: the checker must find the schedule
/// where an idle worker's two loads straddle a peer's
/// `active += 1; in_flight -= 1` handoff, both read zero while the peer
/// is mid-absorb, and the worker self-halts just before the peer's step
/// sends it the next wave.
#[test]
fn quiescence_two_counter_mutant_is_caught() {
    let report = Builder::new()
        .preemption_bound(2)
        .explore(|| quiesce_model(Guard::TwoCounter, 2, 1));
    let v = report
        .violation
        .expect("the two-counter quiescence race must be found");
    assert!(
        v.message.contains("premature stop"),
        "unexpected violation:\n{v}"
    );
    assert!(!v.trace.is_empty(), "counterexample must carry a schedule");
}

// ---------------------------------------------------------------------------
// 2. Scheduled-bit mailbox (fabric.rs, Pool)
// ---------------------------------------------------------------------------

struct Cell {
    scheduled: AtomicBool,
    inbox: Mutex<Vec<u32>>,
    processed: AtomicUsize,
}

/// Distilled `activate()`: the production code clears the scheduled bit
/// (`ReadyQueue::take` un-queues the part) *before* draining the inbox, so
/// a wave pushed after the drain finds the bit clear and queues the part
/// again. `clear_first = false` seeds the lost-wave mutant.
fn activate(cell: &Cell, clear_first: bool) {
    if clear_first {
        cell.scheduled.store(false, Ordering::SeqCst);
    }
    let drained = {
        let mut inbox = cell.inbox.lock();
        let n = inbox.len();
        inbox.clear();
        n
    };
    if !clear_first {
        cell.scheduled.store(false, Ordering::SeqCst);
    }
    cell.processed.fetch_add(drained, Ordering::SeqCst);
}

/// Distilled delivery: push, then CAS the bit 0 → 1 and run the
/// activation on its own thread if we won it (the model's stand-in for a
/// worker taking the part off the queue). Joining inside keeps handle plumbing trivial without
/// serializing the *other* producer against the activation.
fn pool_producer(cell: &Arc<Cell>, wave: u32, clear_first: bool) {
    cell.inbox.lock().push(wave);
    if cell
        .scheduled
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        let cell2 = Arc::clone(cell);
        thread::spawn(move || activate(&cell2, clear_first))
            .join()
            .unwrap();
    }
}

fn scheduled_bit_model(clear_first: bool) {
    let cell = Arc::new(Cell {
        scheduled: AtomicBool::new(false),
        inbox: Mutex::new(Vec::new()),
        processed: AtomicUsize::new(0),
    });
    let producers: Vec<_> = (1..=2)
        .map(|w| {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                minloom::trace_value(u64::from(w));
                pool_producer(&cell, w, clear_first);
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    // Producers have returned, so every won CAS's activation has been
    // joined: anything still in the inbox is stranded for good.
    assert!(
        cell.inbox.lock().is_empty(),
        "lost wave: inbox nonempty after all activations finished"
    );
    assert_eq!(cell.processed.load(Ordering::SeqCst), 2);
}

#[test]
fn scheduled_bit_clear_before_drain_exhaustive() {
    let report = Builder::new().explore(|| scheduled_bit_model(true));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// Drain-before-clear: the checker must find the push that lands after
/// the drain but before the clear — its CAS loses, no task respawns,
/// the wave is stranded.
#[test]
fn scheduled_bit_drain_before_clear_mutant_is_caught() {
    let report = Builder::new().explore(|| scheduled_bit_model(false));
    let v = report
        .violation
        .expect("the lost-wave schedule must be found");
    assert!(
        v.message.contains("lost wave"),
        "unexpected violation:\n{v}"
    );
}

// ---------------------------------------------------------------------------
// 3. Rolling-session retirement (session.rs)
// ---------------------------------------------------------------------------

/// Distilled solved-value publication: ticket value `v` solves to
/// `v + 100` (distinguishing "swap applied" from "solve published").
const SOLVED_OFFSET: u64 = 100;

/// Distilled rolling-session worker, matching a fabric worker running the
/// session's hook: drain the swap mailbox between steps, publish the
/// slot's solved value to the shared snapshot.
fn session_worker(mailbox: &Mutex<Vec<(usize, u64)>>, snapshot: &AtomicU64, stop: &AtomicBool) {
    let mut current: u64 = 0;
    loop {
        checkpoint(hash_fold(0x5e55, current));
        if stop.load(Ordering::Acquire) {
            return;
        }
        let orders: Vec<(usize, u64)> = {
            let mut mb = mailbox.lock();
            let taken = mb.clone();
            mb.clear();
            taken
        };
        for (_slot, v) in orders {
            current = v;
        }
        if current != 0 {
            // One step of the live exchange: publish this slot's solve.
            snapshot.store(current + SOLVED_OFFSET, Ordering::Release);
        }
    }
}

/// Supervisor sweep, distilled: admit a ticket by dropping a swap order
/// into the mailbox, then retire it only when the published snapshot
/// equals the ticket's *own* solved value (`exact = true`, the
/// production self-validating rule) or — the mutant — as soon as any
/// solved value is published (`exact = false`, a stale cached metric:
/// slot 0 already "meets tolerance" from its previous occupant).
fn session_model(exact: bool) {
    let mailbox = Arc::new(Mutex::new(Vec::new()));
    let snapshot = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let (mb, sn, st) = (
            Arc::clone(&mailbox),
            Arc::clone(&snapshot),
            Arc::clone(&stop),
        );
        thread::spawn(move || session_worker(&mb, &sn, &st))
    };

    let mut reports: Vec<u64> = Vec::new();
    for ticket in [10_u64, 20] {
        mailbox.lock().push((0, ticket));
        loop {
            checkpoint(hash_fold(ticket, reports.len() as u64));
            let seen = snapshot.load(Ordering::Acquire);
            let retire = if exact {
                seen == ticket + SOLVED_OFFSET
            } else {
                seen >= SOLVED_OFFSET
            };
            if retire {
                reports.push(seen);
                break;
            }
        }
    }
    stop.store(true, Ordering::Release);
    worker.join().unwrap();

    assert_eq!(reports.len(), 2, "every ticket must retire exactly once");
    assert_eq!(
        reports,
        vec![10 + SOLVED_OFFSET, 20 + SOLVED_OFFSET],
        "a ticket retired with a solution that is not its own"
    );
}

#[test]
fn session_exact_metric_retirement_exhaustive() {
    let report = Builder::new().explore(|| session_model(true));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// The stale-metric mutant: the checker must find the schedule where the
/// supervisor polls after admitting ticket 2 but before the worker
/// applies its swap — the snapshot still holds ticket 1's solved value,
/// the non-exact rule retires ticket 2 with it.
#[test]
fn session_stale_metric_mutant_is_caught() {
    let report = Builder::new().explore(|| session_model(false));
    let v = report
        .violation
        .expect("the stale-metric retirement must be found");
    assert!(
        v.message.contains("not its own"),
        "unexpected violation:\n{v}"
    );
}

// ---------------------------------------------------------------------------
// 4. PR 4 regression: the monitor resync boundary (`<=` vs `<`)
// ---------------------------------------------------------------------------

/// Distilled `Monitor` resync discipline (see
/// `crates/core/src/monitor.rs`, the `metric <= refresh_below` fix from
/// PR 4), integer-scaled so the boundary equality is exact. The worker
/// publishes two state updates; the supervisor tracks a cheap
/// incremental metric that *drifts low* and must re-derive the exact
/// metric before trusting any stop decision at or below
/// `refresh_below`.
fn resync_model(inclusive: bool) {
    /// Incremental (drifted) metric after observing worker state `v`.
    fn incremental(v: u64) -> u64 {
        10 - 5 * v // v=0 → 10, v=1 → 5 (the boundary!), v=2 → 0
    }
    /// Exact metric (what a resync recomputes) for worker state `v`.
    fn exact(v: u64) -> u64 {
        match v {
            0 => 10,
            1 => 7, // the drifted 5 was flattering: truth is above tol
            _ => 3, // genuinely converged
        }
    }
    const TOL: u64 = 5;
    const REFRESH_BELOW: u64 = 5;

    let state = Arc::new(AtomicU64::new(0));
    let worker = {
        let state = Arc::clone(&state);
        thread::spawn(move || {
            state.store(1, Ordering::Release);
            state.store(2, Ordering::Release);
        })
    };

    let converged_at = loop {
        let v = state.load(Ordering::Acquire);
        checkpoint(hash_fold(0x4e5c, v));
        let mut metric = incremental(v);
        let refresh = if inclusive {
            metric <= REFRESH_BELOW // production: PR 4's `<=` fix
        } else {
            metric < REFRESH_BELOW // mutant: the pre-PR 4 strict `<`
        };
        if refresh {
            metric = exact(v);
        }
        if metric <= TOL {
            break v;
        }
    };
    worker.join().unwrap();
    assert_eq!(
        converged_at, 2,
        "premature stop: converged on a drifted metric at the resync boundary"
    );
}

#[test]
fn monitor_resync_inclusive_boundary_exhaustive() {
    let report = Builder::new().explore(|| resync_model(true));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// Re-inject the PR 4 bug: with strict `<`, the schedule where the
/// supervisor polls between the worker's two stores sees the
/// incremental metric land exactly on `refresh_below`, skips the
/// resync, and declares convergence from the drifted value. The checker
/// must find that schedule.
#[test]
fn monitor_resync_strict_mutant_is_caught() {
    let report = Builder::new().explore(|| resync_model(false));
    let v = report
        .violation
        .expect("the boundary premature-stop schedule must be found");
    assert!(
        v.message.contains("premature stop"),
        "unexpected violation:\n{v}"
    );
}

// ---------------------------------------------------------------------------
// 5. Halting is a state (fabric.rs): halt → late wave → re-arm
// ---------------------------------------------------------------------------

/// Where the distilled pool activation reads its node's halt flag.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HaltCheck {
    /// Current code: under the state lock, after the inbox swap; a halted
    /// node that finds mail re-arms.
    UnderLock,
    /// The parent commit's order: read the flag, *then* block on the state
    /// lock. An activation that queued up behind the halting one passes
    /// the check and steps the halted node again.
    BeforeLock,
    /// Lost wake-up: a halted node returns without looking at its inbox.
    IgnoresMail,
}

/// One pool cell of a node whose LocalDelta streak is complete (every
/// step it takes converges), plus the fabric-wide counters.
struct HaltCell {
    /// The node's state lock, guarding its step count.
    state: Mutex<u32>,
    inbox: Mutex<Vec<u32>>,
    scheduled: AtomicBool,
    halted: AtomicBool,
    /// Nodes currently counted halted (`Halts::count`).
    count: AtomicUsize,
    /// Activations queued or running (the queue's `!is_idle()`).
    pending: AtomicUsize,
    /// Waves a step has absorbed.
    absorbed: AtomicUsize,
}

/// `initial_tasks` activations are already queued when the model starts.
fn halt_cell(initial_tasks: usize) -> Arc<HaltCell> {
    Arc::new(HaltCell {
        state: Mutex::new(0),
        inbox: Mutex::new(Vec::new()),
        scheduled: AtomicBool::new(true),
        halted: AtomicBool::new(false),
        count: AtomicUsize::new(0),
        pending: AtomicUsize::new(initial_tasks),
        absorbed: AtomicUsize::new(0),
    })
}

/// Distilled `fabric::activate`, in the production order: clear the
/// scheduled bit, take the state lock, swap the inbox, read the halt flag,
/// step, retire.
fn h_activate(cell: &HaltCell, check: HaltCheck, force: bool) {
    cell.scheduled.store(false, Ordering::SeqCst);
    if !(check == HaltCheck::BeforeLock && cell.halted.load(Ordering::SeqCst)) {
        let mut steps = cell.state.lock();
        'activation: {
            if check == HaltCheck::IgnoresMail && cell.halted.load(Ordering::SeqCst) {
                break 'activation;
            }
            let mail = std::mem::take(&mut *cell.inbox.lock());
            if check == HaltCheck::UnderLock && cell.halted.load(Ordering::SeqCst) {
                if mail.is_empty() {
                    break 'activation;
                }
                // A late wave re-arms the passive node.
                cell.halted.store(false, Ordering::SeqCst);
                cell.count.fetch_sub(1, Ordering::SeqCst);
            }
            if mail.is_empty() && !force {
                break 'activation;
            }
            cell.absorbed.fetch_add(mail.len(), Ordering::SeqCst);
            *steps += 1;
            // The step converges: the node goes passive.
            cell.halted.store(true, Ordering::SeqCst);
            cell.count.fetch_add(1, Ordering::SeqCst);
        }
    }
    cell.pending.fetch_sub(1, Ordering::SeqCst);
}

/// Distilled delivery of a *significant* wave (its sender's step returned
/// `Continue`): push, then schedule — never the other way round.
fn h_deliver(cell: &Arc<HaltCell>, check: HaltCheck) -> Option<thread::JoinHandle<()>> {
    cell.inbox.lock().push(1);
    cell.scheduled
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
        .then(|| {
            cell.pending.fetch_add(1, Ordering::SeqCst);
            let cell = Arc::clone(cell);
            thread::spawn(move || h_activate(&cell, check, false))
        })
}

/// The double halt: the node's initial (halting) activation races a
/// neighbour's wave, whose delivery queues a second activation of the same
/// node. Whatever the order, the node must end up counted halted once,
/// having absorbed the wave.
fn double_halt_model(check: HaltCheck) {
    let cell = halt_cell(1);
    let initial = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || h_activate(&cell, check, true))
    };
    let second = h_deliver(&cell, check);
    initial.join().unwrap();
    if let Some(h) = second {
        h.join().unwrap();
    }
    assert_eq!(
        cell.count.load(Ordering::SeqCst),
        1,
        "double halt: one node counted halted twice"
    );
    assert_eq!(cell.absorbed.load(Ordering::SeqCst), 1);
}

#[test]
fn halt_flag_under_state_lock_exhaustive() {
    let report = Builder::new().explore(|| double_halt_model(HaltCheck::UnderLock));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// The parent commit's check-before-lock: the checker must find the
/// second activation that passes the flag check while the first is still
/// stepping, then steps the halted node again — `halted_count` reaches
/// `n_parts + 1` and the run can only end on its budget.
#[test]
fn halt_flag_before_lock_mutant_is_caught() {
    let report = Builder::new().explore(|| double_halt_model(HaltCheck::BeforeLock));
    let v = report.violation.expect("the double halt must be found");
    assert!(
        v.message.contains("double halt"),
        "unexpected violation:\n{v}"
    );
}

/// The re-arm handoff on the pool, with the supervisor watching. Node T's
/// initial activation halts it; node S's step returns `Continue`, delivers
/// its (significant) wave to T, and S then converges itself. The
/// supervisor declares "all halted" by the production rule — quiescent
/// *first*, then every node halted — or, with `quiescent_first = false`,
/// by the parent's count alone. At that moment T must have stepped on S's
/// wave.
fn pool_rearm_model(check: HaltCheck, quiescent_first: bool) {
    // Two tasks are queued at start: T's initial activation and S's.
    let cell = halt_cell(2);
    let initial = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || h_activate(&cell, check, true))
    };
    let sender = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let woken = h_deliver(&cell, check);
            // S's own next step converges (its waves, now sub-tolerance,
            // are dropped at the passive T).
            cell.count.fetch_add(1, Ordering::SeqCst);
            cell.pending.fetch_sub(1, Ordering::SeqCst);
            if let Some(h) = woken {
                h.join().unwrap();
            }
        })
    };
    loop {
        checkpoint(hash_fold(0x4a17, 0));
        if quiescent_first && cell.pending.load(Ordering::SeqCst) != 0 {
            continue;
        }
        if cell.count.load(Ordering::SeqCst) == 2 {
            break;
        }
    }
    assert_eq!(
        cell.absorbed.load(Ordering::SeqCst),
        1,
        "premature halt: all halted declared over an unabsorbed wave"
    );
    initial.join().unwrap();
    sender.join().unwrap();
}

#[test]
fn pool_rearm_handoff_exhaustive() {
    let report = Builder::new().explore(|| pool_rearm_model(HaltCheck::UnderLock, true));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// Lost wake-up: a halted node that returns without draining its inbox
/// strands the late wave; the fabric goes quiescent with every node
/// halted and the answer wrong.
#[test]
fn pool_halted_node_ignoring_mail_mutant_is_caught() {
    let report = Builder::new().explore(|| pool_rearm_model(HaltCheck::IgnoresMail, true));
    let v = report.violation.expect("the lost wake-up must be found");
    assert!(
        v.message.contains("premature halt"),
        "unexpected violation:\n{v}"
    );
}

/// The parent's supervisor rule (`halted_count == n_parts`, no quiescence):
/// the checker must find the poll that lands after S converged but before
/// T's re-arming activation ran.
#[test]
fn pool_all_halted_without_quiescence_mutant_is_caught() {
    let report = Builder::new().explore(|| pool_rearm_model(HaltCheck::UnderLock, false));
    let v = report
        .violation
        .expect("the premature collective halt must be found");
    assert!(
        v.message.contains("premature halt"),
        "unexpected violation:\n{v}"
    );
}

/// The re-arm handoff on threads. Worker T is passive, parked on its
/// channel; S's step mints a token, sends T a significant wave, releases
/// its own token and converges. T must clear its halt flag *before*
/// releasing the wave's token (`rearm_first`), so the supervisor's
/// "no work, then all halted" can never hold while the wave is pending.
fn threads_rearm_model(rearm_first: bool) {
    struct Shared {
        work: AtomicI64,
        halted: AtomicBool,
        count: AtomicUsize,
        stepped: AtomicUsize,
        stop: AtomicBool,
    }
    // T is already passive; S still owes its initial solve (one token).
    let shared = Arc::new(Shared {
        work: AtomicI64::new(1),
        halted: AtomicBool::new(true),
        count: AtomicUsize::new(1),
        stepped: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    let (tx, rx) = unbounded::<u32>();
    let worker = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || loop {
            let stepped = shared.stepped.load(Ordering::SeqCst);
            checkpoint(hash_fold(0x7ead, stepped as u64));
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(_) => {
                    if !rearm_first {
                        shared.work.fetch_sub(1, Ordering::SeqCst);
                    }
                    shared.halted.store(false, Ordering::SeqCst);
                    shared.count.fetch_sub(1, Ordering::SeqCst);
                    // Absorb, step — and converge again.
                    shared.stepped.fetch_add(1, Ordering::SeqCst);
                    shared.halted.store(true, Ordering::SeqCst);
                    shared.count.fetch_add(1, Ordering::SeqCst);
                    if rearm_first {
                        shared.work.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        })
    };
    let sender = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            shared.work.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(1);
            shared.work.fetch_sub(1, Ordering::SeqCst);
            shared.count.fetch_add(1, Ordering::SeqCst);
            // Keep the channel connected until the worker is told to stop.
            while !shared.stop.load(Ordering::SeqCst) {
                checkpoint(hash_fold(0x5e4d, 0));
            }
        })
    };
    loop {
        checkpoint(hash_fold(0x4a18, 0));
        if shared.work.load(Ordering::SeqCst) == 0 && shared.count.load(Ordering::SeqCst) == 2 {
            break;
        }
    }
    assert_eq!(
        shared.stepped.load(Ordering::SeqCst),
        1,
        "premature halt: all halted declared over an unabsorbed wave"
    );
    shared.stop.store(true, Ordering::SeqCst);
    worker.join().unwrap();
    sender.join().unwrap();
}

#[test]
fn threads_rearm_before_token_release_exhaustive() {
    let report = Builder::new().explore(|| threads_rearm_model(true));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
}

/// Release-before-re-arm: between the worker's token release and its flag
/// clear the supervisor reads `work == 0` and `count == n`.
#[test]
fn threads_token_release_before_rearm_mutant_is_caught() {
    let report = Builder::new().explore(|| threads_rearm_model(false));
    let v = report
        .violation
        .expect("the premature collective halt must be found");
    assert!(
        v.message.contains("premature halt"),
        "unexpected violation:\n{v}"
    );
}

// ---------------------------------------------------------------------------
// 6. The ready-queue hand-off (fabric.rs, Pool)
// ---------------------------------------------------------------------------

/// What the distilled pool worker does with a part whose step is over.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Release {
    /// Current code: one critical section queues the receivers of the
    /// step's waves, marks the part done, and takes the next eligible part
    /// from the head of the queue.
    PushDoneTake,
    /// Mutant: the part is marked done in a critical section of its own,
    /// *before* its receivers are queued — in between, the queue is empty
    /// and nobody is mid-step while a wave sits undelivered in an inbox.
    DoneBeforePush,
    /// Mutant: a finisher that queued nothing parks without looking at the
    /// queue, trusting that whoever queued a part also woke somebody. A
    /// part that was passed over while its neighbour was mid-step (its
    /// waker long since parked again) is never offered to anyone.
    ParkAfterDone,
}

/// The production schedule type under the production lock, plus the
/// distilled rest of `PoolShared`.
struct RqShared {
    ready: Mutex<RqReady>,
    work: Condvar,
    /// Model-only: lets the supervisor *block* until the queue is idle
    /// (production polls), so a lost part is a detected deadlock instead of
    /// an endless poll.
    idle: Condvar,
    inbox: [Mutex<Vec<u32>>; 2],
    /// The part has not run its initial solve yet.
    initial: [AtomicBool; 2],
    in_step: [AtomicBool; 2],
    absorbed: AtomicUsize,
    stop: AtomicBool,
}

struct RqReady {
    queue: ReadyQueue,
    parked: usize,
}

/// Distilled `fabric::drain_queue` + `activate` over two linked parts.
/// Part 0's initial solve owes part 1 wave 2; a step that absorbed wave
/// `v > 0` owes the other part `v − 1`.
fn rq_worker(s: &RqShared, release: Release) {
    let mut ready = s.ready.lock();
    // Set by a finisher of the `ParkAfterDone` mutant: park without a look.
    let mut skip_take = false;
    loop {
        if s.stop.load(Ordering::SeqCst) {
            return;
        }
        let taken = if std::mem::take(&mut skip_take) {
            None
        } else {
            ready.queue.take()
        };
        let Some(p) = taken else {
            if ready.queue.is_idle() {
                s.idle.notify_all();
            }
            ready.parked += 1;
            ready = s.work.wait(ready);
            ready.parked -= 1;
            continue;
        };
        let wake = ready.parked > 0 && !ready.queue.is_empty();
        drop(ready);
        if wake {
            s.work.notify_one();
        }

        // The step: never while the neighbour is mid-step.
        let other = 1 - p;
        s.in_step[p].store(true, Ordering::SeqCst);
        assert!(
            !s.in_step[other].load(Ordering::SeqCst),
            "overlap: two neighbours mid-step at once"
        );
        let mail = std::mem::take(&mut *s.inbox[p].lock());
        s.absorbed.fetch_add(mail.len(), Ordering::SeqCst);
        let first = s.initial[p].swap(false, Ordering::SeqCst);
        let out = match mail.iter().max() {
            Some(&v) => (v > 0).then(|| v - 1),
            None => (first && p == 0).then_some(2),
        };
        if let Some(v) = out {
            s.inbox[other].lock().push(v);
        }
        s.in_step[p].store(false, Ordering::SeqCst);

        ready = s.ready.lock();
        if release == Release::DoneBeforePush {
            ready.queue.done(p);
            drop(ready);
            ready = s.ready.lock();
        }
        if out.is_some() {
            ready.queue.push(other);
        }
        if release != Release::DoneBeforePush {
            ready.queue.done(p);
        }
        skip_take = release == Release::ParkAfterDone && out.is_none();
    }
}

/// Two workers, two linked parts, both queued for their initial solves —
/// part 1, whose initial solve sends nothing, first — so whoever comes
/// second passes over part 0 and parks. The supervisor waits for "queue
/// empty ∧ nobody mid-step", at which point every wave must have been
/// absorbed.
fn ready_queue_model(release: Release) {
    let mut queue = ReadyQueue::new(2, 4);
    queue.link(0, 1);
    queue.push(1);
    queue.push(0);
    let s = Arc::new(RqShared {
        ready: Mutex::new(RqReady { queue, parked: 0 }),
        work: Condvar::new(),
        idle: Condvar::new(),
        inbox: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        initial: [AtomicBool::new(true), AtomicBool::new(true)],
        in_step: [AtomicBool::new(false), AtomicBool::new(false)],
        absorbed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let s = Arc::clone(&s);
            thread::spawn(move || rq_worker(&s, release))
        })
        .collect();
    {
        let mut ready = s.ready.lock();
        while !ready.queue.is_idle() {
            ready = s.idle.wait(ready);
        }
        for inbox in &s.inbox {
            assert!(
                inbox.lock().is_empty(),
                "premature quiescence: queue idle over an undelivered wave"
            );
        }
        s.stop.store(true, Ordering::SeqCst);
        s.work.notify_all();
    }
    for w in workers {
        w.join().unwrap();
    }
    // 0 → 1 carries wave 2, 1 → 0 wave 1, 0 → 1 wave 0: three absorbed.
    assert_eq!(s.absorbed.load(Ordering::SeqCst), 3);
}

#[test]
fn ready_queue_handoff_exhaustive() {
    let report = Builder::new().explore(|| ready_queue_model(Release::PushDoneTake));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
    assert!(
        report.schedules + report.pruned > 20,
        "trivial exploration: {report:?}"
    );
}

/// `done` ahead of the pushes: the checker must find the supervisor's look
/// at the queue that lands between the two critical sections.
#[test]
fn ready_queue_done_before_push_mutant_is_caught() {
    let report = Builder::new().explore(|| ready_queue_model(Release::DoneBeforePush));
    let v = report
        .violation
        .expect("the premature quiescence must be found");
    assert!(
        v.message.contains("premature quiescence"),
        "unexpected violation:\n{v}"
    );
}

/// `done` without re-offering the head: part 0, passed over while part 1
/// ran its wave-less initial solve, stays queued with every worker parked.
#[test]
fn ready_queue_done_without_reoffering_the_head_mutant_is_caught() {
    let report = Builder::new().explore(|| ready_queue_model(Release::ParkAfterDone));
    let v = report.violation.expect("the lost part must be found");
    assert!(v.message.contains("deadlock"), "unexpected violation:\n{v}");
}
