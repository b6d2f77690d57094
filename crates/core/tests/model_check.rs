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
//! 1. **Scheduled-bit mailbox** (`fabric.rs`, `Pool`): a part's "queued"
//!    bit (since PR 22 a flag inside `ReadyQueue`, cleared by `take`) must
//!    be cleared *before* the activation drains the inbox; the
//!    drain-before-clear mutant strands a wave pushed between the drain
//!    and the clear.
//! 2. **Rolling-session retirement** (`session.rs`): a ticket retires
//!    only on the exact metric of its *own* gathered estimate
//!    (self-validating); the stale-metric mutant retires a freshly
//!    admitted ticket on the previous occupant's solved value.
//! 3. **Halting is a state** (`fabric.rs`): the LocalDelta halt →
//!    late-wave → re-arm handoff. The halt flag is read under the state
//!    lock, after the inbox swap, and "all halted" needs quiescence; the
//!    mutants are the parent commit's check-before-lock (one node counted
//!    halted twice, so the count never equals the part count), a halted
//!    node that ignores its mail (the lost wake-up), and a supervisor that
//!    trusts the count without quiescence (the premature collective halt).
//! 4. **The ready-queue hand-off**, on the production
//!    `fabric::ReadyQueue` under the production lock: two neighbours are
//!    never mid-step at once, a part passed over because its neighbour was
//!    mid-step is never lost, and "queue empty ∧ nobody mid-step" is never
//!    observed over an undelivered wave. Mutants: `done` in a critical
//!    section of its own ahead of the pushes, and a finisher that parks
//!    without re-offering the head of the queue.
//! 5. **The delay router's hand-off** (`fabric.rs`, `Pool::start` with a
//!    delay table), on the production `ReadyQueue`: "queue idle ∧ no wave
//!    in flight", read under the queue lock, never holds while a routed
//!    wave is neither in an inbox nor queued. The sender counts the wave
//!    in flight before it leaves, and the router counts it down under the
//!    queue lock after queueing its receiver. Mutants: a router that counts
//!    the wave down before it takes the lock to queue the receiver, and a
//!    sender that counts it only after its own step is released.

#![cfg(feature = "model-check")]

use dtm_core::fabric::ReadyQueue;
use dtm_core::sync::channel::unbounded;
use dtm_core::sync::{Arc, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use minloom::{checkpoint, hash_fold, thread, Builder};

// ---------------------------------------------------------------------------
// 1. Scheduled-bit mailbox (fabric.rs, Pool)
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
// 2. Rolling-session retirement (session.rs)
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
// 3. Halting is a state (fabric.rs): halt → late wave → re-arm
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

// ---------------------------------------------------------------------------
// 4. The ready-queue hand-off (fabric.rs, Pool)
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

// ---------------------------------------------------------------------------
// 5. The delay router's hand-off (fabric.rs, Pool with a delay table)
// ---------------------------------------------------------------------------

/// Where the distilled routed pool counts a routed wave.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Routing {
    /// Current code: the sender counts the wave in flight before handing
    /// it to the router; the router lands it in the inbox, then — under
    /// the queue lock — queues the receiver and counts the wave down.
    Production,
    /// Mutant: the router counts the wave down before it takes the lock to
    /// queue the receiver — in between, the wave is in an inbox nobody is
    /// queued to drain, and nothing is in flight.
    CountDownBeforePush,
    /// Mutant: the sender counts the wave only after its own step is
    /// released — in between, the router holds a wave nobody counts.
    CountUpAfterDone,
}

struct RoutedShared {
    ready: Mutex<RqReady>,
    work: Condvar,
    /// `PoolShared::in_flight`.
    in_flight: AtomicUsize,
    inbox: Mutex<Vec<u32>>,
    absorbed: AtomicUsize,
    stop: AtomicBool,
}

/// Two linked parts on one distilled pool worker, a router thread and the
/// supervisor. Part 0's initial solve sends part 1 one wave over a delayed
/// link; part 1 absorbs it and sends nothing. The supervisor polls
/// `all_halted`'s quiescence read — queue idle and nothing in flight,
/// under the queue lock — and at the first quiescent read the wave must
/// have been absorbed.
fn routed_pool_model(routing: Routing) {
    let mut queue = ReadyQueue::new(2, 4);
    queue.push(0);
    let s = Arc::new(RoutedShared {
        ready: Mutex::new(RqReady { queue, parked: 0 }),
        work: Condvar::new(),
        in_flight: AtomicUsize::new(0),
        inbox: Mutex::new(Vec::new()),
        absorbed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    let (tx, rx) = unbounded::<u32>();
    let worker = {
        let s = Arc::clone(&s);
        thread::spawn(move || {
            let mut ready = s.ready.lock();
            loop {
                if s.stop.load(Ordering::SeqCst) {
                    return;
                }
                let Some(p) = ready.queue.take() else {
                    ready.parked += 1;
                    ready = s.work.wait(ready);
                    ready.parked -= 1;
                    continue;
                };
                drop(ready);
                // `activate`: part 0 sends over its delayed link, part 1
                // drains its inbox.
                let routed = p == 0;
                if routed && routing != Routing::CountUpAfterDone {
                    s.in_flight.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(1);
                }
                if p == 1 {
                    let mail = std::mem::take(&mut *s.inbox.lock());
                    s.absorbed.fetch_add(mail.len(), Ordering::SeqCst);
                }
                ready = s.ready.lock();
                if routed {
                    ready.queue.link(0, 1);
                }
                ready.queue.done(p);
                if routed && routing == Routing::CountUpAfterDone {
                    drop(ready);
                    s.in_flight.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(1);
                    ready = s.ready.lock();
                }
            }
        })
    };
    let router = {
        let s = Arc::clone(&s);
        thread::spawn(move || {
            // The wave's delay has elapsed: `PoolShared::land`.
            let Ok(wave) = rx.recv() else { return };
            s.inbox.lock().push(wave);
            if routing == Routing::CountDownBeforePush {
                s.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            let mut ready = s.ready.lock();
            ready.queue.push(1);
            if routing != Routing::CountDownBeforePush {
                s.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            if ready.parked > 0 {
                s.work.notify_one();
            }
        })
    };
    loop {
        checkpoint(hash_fold(0x4a19, 0));
        let ready = s.ready.lock();
        if ready.queue.is_idle() && s.in_flight.load(Ordering::SeqCst) == 0 {
            assert_eq!(
                s.absorbed.load(Ordering::SeqCst),
                1,
                "premature quiescence: a routed wave neither in an inbox nor queued"
            );
            s.stop.store(true, Ordering::SeqCst);
            s.work.notify_all();
            break;
        }
    }
    worker.join().unwrap();
    router.join().unwrap();
}

#[test]
fn routed_pool_handoff_exhaustive() {
    let report = Builder::new().explore(|| routed_pool_model(Routing::Production));
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete, "exploration must exhaust: {report:?}");
    assert!(
        report.schedules + report.pruned > 20,
        "trivial exploration: {report:?}"
    );
}

/// The checker must find the supervisor's read that lands after the router
/// counted the wave down and before it queued the receiver
/// (`CountDownBeforePush`), and the one that lands after the sender's step
/// was released and before it counted its wave (`CountUpAfterDone`).
#[test]
fn routed_pool_mutants_are_caught() {
    for routing in [Routing::CountDownBeforePush, Routing::CountUpAfterDone] {
        let report = Builder::new().explore(move || routed_pool_model(routing));
        let v = report
            .violation
            .expect("the premature quiescence must be found");
        assert!(
            v.message.contains("premature quiescence"),
            "unexpected violation:\n{v}"
        );
    }
}
