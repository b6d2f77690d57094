//! The deterministic round-structured wavefront executor.
//!
//! Each group sweeps its parts once per **round**, in a fixed colour
//! order. The parts are coloured once per solve
//! ([`crate::colour_assignment`]: no two neighbours share a colour), and
//! at round `r` a part of colour `c` first absorbs one wave per neighbour,
//! in ascending source-part order — the neighbour's round-`r` wave if its
//! colour is below `c`, its round-`r−1` wave otherwise — then steps once:
//! solve and scatter its round-`r` waves. At round 0 there are no
//! round-`−1` waves, so a part absorbs only its lower-coloured
//! neighbours'. This is a Gauss–Seidel sweep over the colour classes: a
//! part steps on the freshest waves its lower-coloured neighbours have,
//! which takes about half the rounds synchronous (Jacobi) rounds take.
//!
//! Because every part consumes exactly one wave per neighbour per round,
//! chosen by colours alone, and [`NodeRuntime::step`] emits exactly one
//! wave per route per step, the sequence of floating-point operations a
//! part performs is a pure function of the split — independent of how
//! parts are grouped into processes, of socket scheduling and of thread
//! interleaving. That is the backend's bit-for-bit guarantee: the same
//! solve on 1 thread, N threads or N OS processes produces identical
//! bits.
//!
//! **A colour class is the unit of I/O.** A sweep visits the parts by
//! colour, and within a colour the parts that have a neighbour in another
//! group first, in ascending part order. Once the last of a class's
//! boundary parts has stepped, every peer group that class owes waves
//! gets them as **one batch** — not one per round: the peer's next class
//! may be waiting for them. When the sweep ends the supervisor gets every
//! part's solution as **one** [`SnapshotBatch`] — for the rounds it will
//! score only: it announces the next one it scores ([`GroupIo::due`]),
//! and an earlier round ships nothing (the cap's last round always
//! ships). Skipping a snapshot changes no node state, so the counters and
//! the bits do not depend on when the announcement lands. Waves wait for their
//! round in a pair of slots per route (picked by round parity: a sender
//! can be at most one round ahead of its receiver), not in a keyed map.
//! In the final round (`max_rounds − 1`) only the waves to higher-coloured
//! parts are shipped — they are absorbed in that same round — so a group
//! that reaches the cap never sends to a peer that has already left.
//!
//! The executor sees its links only through [`GroupLinks`]: the
//! in-process runner moves batches over [`std::sync::mpsc`] channels, the
//! socket child encodes each into one frame and writes it from this very
//! thread (its reader threads decode incoming frames back into batches).
//! So this file is the *entire* algorithm for both transports.

use crate::wire::{GroupRates, SnapshotBatch, Wave};
use dtm_core::runtime::{DtmMsg, NodeRuntime};
use dtm_sparse::{Error, Result};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upward events a group reports to its supervisor. The socket child
/// serializes these onto the parent link; the in-process runner delivers
/// them over a channel directly.
#[derive(Debug)]
pub enum UpEvent {
    /// Every part's solution for one round.
    Snapshots(SnapshotBatch),
    /// The group's round loop finished (stop flag or round cap).
    Done,
    /// The group failed; the supervisor should tear the run down.
    Failed(String),
}

/// A group's outbound links. Both sends hand over a batch; a link may
/// move the contents out (leaving a buffer of its own choosing behind) or
/// only read them — the sweep empties whatever it gets back before the
/// next batch.
pub trait GroupLinks {
    /// Ship one colour class's waves for peer group `peer` as one batch.
    ///
    /// # Errors
    /// Fails if the link to `peer` is gone.
    fn send_waves(&mut self, peer: usize, waves: &mut Vec<Wave>) -> Result<()>;

    /// Ship the round's solutions to the supervisor as one batch.
    ///
    /// # Errors
    /// Fails if the supervisor link is gone.
    fn send_snapshots(&mut self, batch: &mut SnapshotBatch) -> Result<()>;

    /// Take back an incoming wave batch the sweep has drained, so that a
    /// later [`send_waves`](Self::send_waves) can leave it behind instead
    /// of a fresh buffer. Dropped by default.
    fn recycle(&mut self, _drained: Vec<Wave>) {}
}

/// A group's connections, transport-agnostic.
pub struct GroupIo<L> {
    /// Incoming cross-group wave batches (any source group).
    pub wave_rx: Receiver<Vec<Wave>>,
    /// Outbound links to the peer groups and the supervisor.
    pub links: L,
    /// Cease after the current absorb/step when set.
    pub stop: Arc<AtomicBool>,
    /// The next round the supervisor scores ([`crate::wire::Msg::Due`]):
    /// the snapshots of earlier rounds are neither built nor shipped.
    pub due: Arc<AtomicU64>,
}

/// Static execution context of one group.
pub struct GroupCtx {
    /// This group's id.
    pub group: usize,
    /// Part → group map for the whole solve.
    pub group_of_part: Vec<usize>,
    /// Part → colour map for the whole solve
    /// ([`crate::colour_assignment`]): the sweep order, and which round's
    /// wave a part absorbs from each neighbour.
    pub colour_of_part: Vec<usize>,
    /// Run rounds `0..max_rounds` unless stopped earlier.
    pub max_rounds: u64,
    /// Test hook: call [`std::process::exit`]`(3)` after this round
    /// completes, simulating a mid-solve child crash. Never set outside
    /// failure-injection tests.
    pub fail_after_round: Option<u64>,
}

/// Per-round work rates of a built group (the deterministic counter
/// basis — see [`GroupRates`]).
pub fn group_rates(nodes: &BTreeMap<usize, NodeRuntime>) -> GroupRates {
    let mut r = GroupRates::default();
    for node in nodes.values() {
        r.solves_per_round += 1;
        r.messages_per_round += node.neighbor_parts().count() as u64;
        r.flops_per_round += node.local().step_flops();
    }
    r
}

/// Where waves wait for their round: two slots per route into this
/// group, picked by round parity. While a node waits for a wave of round
/// `k` its sender may already have delivered round `k+1`, never round
/// `k+2` — that step needs a wave this node sends only after absorbing
/// round `k` — so two slots are enough and an occupied slot is a protocol
/// violation.
struct RouteSlots {
    /// Part → index in sweep order; `usize::MAX` for other groups' parts.
    index_of_part: Vec<usize>,
    /// Per node, in sweep order: its routes' range in `src` and `slots`.
    range: Vec<Range<usize>>,
    /// Source part of each route, ascending within a node — the
    /// canonical absorb order.
    src: Vec<usize>,
    /// Per route: 0 if its source is coloured below its destination (the
    /// wave of the same round is absorbed), 1 otherwise (the round
    /// before's).
    lag: Vec<u64>,
    slots: Vec<[Option<Wave>; 2]>,
}

impl RouteSlots {
    /// Park `wave` until its destination reaches the round after it.
    // lint: hot-path
    fn deliver(&mut self, wave: Wave) -> Result<()> {
        let bad = |what: &str| {
            Error::Parse(format!(
                "distributed: round-{} wave {}->{} {what}",
                wave.round, wave.src, wave.dst
            ))
        };
        let routes = usize::try_from(wave.dst)
            .ok()
            .and_then(|dst| self.index_of_part.get(dst))
            .and_then(|&i| self.range.get(i))
            .ok_or_else(|| bad("is addressed to a part of another group"))?;
        let route = usize::try_from(wave.src)
            .ok()
            .and_then(|src| self.src.get(routes.clone())?.binary_search(&src).ok())
            .ok_or_else(|| bad("follows no route of the partition"))?;
        let slot = &mut self.slots[routes.start + route][(wave.round & 1) as usize];
        if slot.is_some() {
            return Err(bad("arrived twice or a round early"));
        }
        *slot = Some(wave);
        Ok(())
    }

    /// Take the round-`round` wave of `route`, if it has arrived.
    // lint: hot-path
    fn take(&mut self, route: usize, round: u64) -> Option<DtmMsg> {
        let slot = &mut self.slots[route][(round & 1) as usize];
        if slot.as_ref().is_some_and(|w| w.round == round) {
            slot.take().map(|w| w.msg)
        } else {
            None
        }
    }
}

/// Everything a sweep reuses from round to round.
struct Sweep<'a> {
    /// The group's nodes by colour; within a colour, those with a
    /// neighbour in another group first, then the interior ones; ascending
    /// part within each.
    nodes: Vec<&'a mut NodeRuntime>,
    /// Per node, in sweep order: whether it is the last boundary node of
    /// its colour class, after which the class's waves ship.
    ships: Vec<bool>,
    slots: RouteSlots,
    outbox: Vec<(usize, DtmMsg)>,
    /// The current class's waves per peer group this group has routes to.
    out: BTreeMap<usize, Vec<Wave>>,
    snaps: SnapshotBatch,
}

/// Run one group's round loop to completion. Returns `Ok` whether the
/// loop ended by stop flag or by round cap; link failures while the run
/// is still live are errors (a peer vanished mid-solve).
///
/// # Errors
/// Fails if a wave channel disconnects, a send fails or a wave that
/// follows no route arrives before the stop flag is raised.
pub fn run_group<L: GroupLinks>(
    nodes: &mut BTreeMap<usize, NodeRuntime>,
    ctx: &GroupCtx,
    io: &mut GroupIo<L>,
) -> Result<()> {
    let foreign = |q: usize| ctx.group_of_part.get(q).is_some_and(|&g| g != ctx.group);
    let colour = |p: usize| {
        ctx.colour_of_part
            .get(p)
            .copied()
            .ok_or_else(|| Error::Parse(format!("distributed: part {p} is outside the colour map")))
    };
    let mut sweep_nodes = Vec::with_capacity(nodes.len());
    for node in nodes.values_mut() {
        let key = (colour(node.part())?, !node.neighbor_parts().any(foreign));
        sweep_nodes.push((key, node));
    }
    // Stable: ascending part order survives within each (colour, side).
    sweep_nodes.sort_by_key(|&(key, _)| key);
    let ships: Vec<bool> = (0..sweep_nodes.len())
        .map(|i| {
            let ((c, interior), _) = sweep_nodes[i];
            let next_ships_for_c = sweep_nodes
                .get(i + 1)
                .is_some_and(|&((d, next_interior), _)| d == c && !next_interior);
            !interior && !next_ships_for_c
        })
        .collect();

    let mut slots = RouteSlots {
        index_of_part: vec![usize::MAX; ctx.group_of_part.len()],
        range: Vec::with_capacity(sweep_nodes.len()),
        src: Vec::new(),
        lag: Vec::new(),
        slots: Vec::new(),
    };
    let mut out: BTreeMap<usize, Vec<Wave>> = BTreeMap::new();
    let mut n_values = 0;
    for (i, ((c, _), node)) in sweep_nodes.iter().enumerate() {
        let p = node.part();
        *slots.index_of_part.get_mut(p).ok_or_else(|| {
            Error::Parse(format!("distributed: part {p} is outside the group map"))
        })? = i;
        let mut ns: Vec<usize> = node.neighbor_parts().collect();
        ns.sort_unstable();
        ns.dedup();
        for &q in &ns {
            if foreign(q) {
                out.entry(ctx.group_of_part[q]).or_default();
            }
            slots.lag.push(u64::from(colour(q)? >= *c));
        }
        let start = slots.src.len();
        slots.src.extend(ns);
        slots.range.push(start..slots.src.len());
        n_values += node.local().n_local() * node.local().n_rhs();
    }
    slots.slots.resize(slots.src.len(), [None, None]);

    let mut sweep = Sweep {
        snaps: SnapshotBatch::with_capacity(0, sweep_nodes.len(), n_values),
        nodes: sweep_nodes.into_iter().map(|(_, node)| node).collect(),
        ships,
        slots,
        outbox: Vec::new(),
        out,
    };
    for round in 0..ctx.max_rounds {
        if !sweep_round(&mut sweep, round, ctx, io)? {
            break; // stopped mid-round
        }
        if ctx.fail_after_round == Some(round) {
            // Failure injection: vanish like a crashed process would.
            std::process::exit(3);
        }
        if io.stop.load(Ordering::Acquire) {
            break;
        }
    }
    Ok(())
}

/// One round of one group: per part absorb and step, one wave batch per
/// colour class and peer group, one snapshot batch. `Ok(false)` means the
/// stop flag ended it early.
// lint: hot-path
fn sweep_round<L: GroupLinks>(
    sweep: &mut Sweep<'_>,
    round: u64,
    ctx: &GroupCtx,
    io: &mut GroupIo<L>,
) -> Result<bool> {
    let last_round = round + 1 == ctx.max_rounds;
    // A round the supervisor would drop unscored ships no snapshots — and
    // so completes no port-path interior. The cap's last round always
    // ships.
    let snaps = last_round || round >= io.due.load(Ordering::Acquire);
    sweep.snaps.reset(round);
    for (i, node) in sweep.nodes.iter_mut().enumerate() {
        for route in sweep.slots.range[i].clone() {
            // At round 0 there is no round before to take a wave from.
            let Some(wanted) = round.checked_sub(sweep.slots.lag[route]) else {
                continue;
            };
            let msg = loop {
                if let Some(m) = sweep.slots.take(route, wanted) {
                    break m;
                }
                if !wait_batch(&mut sweep.slots, io)? {
                    return Ok(false);
                }
            };
            node.absorb_owned(msg);
        }
        let _ = node.step(&mut sweep.outbox);
        let src = node.part();
        if snaps {
            sweep.snaps.push(src as u64, node.local().solution());
        }
        for (dst, msg) in sweep.outbox.drain(..) {
            // The final round's waves to lower colours would be absorbed
            // in a round that never comes.
            if last_round && ctx.colour_of_part.get(dst) <= ctx.colour_of_part.get(src) {
                node.recycle(msg);
                continue;
            }
            let wave = Wave {
                round,
                src: src as u64,
                dst: dst as u64,
                msg,
            };
            match ctx
                .group_of_part
                .get(dst)
                .and_then(|g| sweep.out.get_mut(g))
            {
                Some(batch) => batch.push(wave),
                None => sweep.slots.deliver(wave)?,
            }
        }
        if sweep.ships[i] {
            for (&peer, waves) in &mut sweep.out {
                if waves.is_empty() {
                    continue;
                }
                if let Err(e) = io.links.send_waves(peer, waves) {
                    return closed_link(ctx, io, &format!("peer link to group {peer}"), &e);
                }
                waves.clear();
            }
        }
    }
    if snaps {
        if let Err(e) = io.links.send_snapshots(&mut sweep.snaps) {
            return closed_link(ctx, io, "supervisor link", &e);
        }
    }
    Ok(true)
}

/// How long a group that lost a link waits for the `Stop` that explains
/// it. The supervisor stops the groups one after another, so a peer that
/// read its `Stop` first is gone — its sockets closed — a moment before
/// ours is read; a supervisor that tears a failed run down stops the
/// survivors within the same moment. Past this, nobody is stopping the
/// run and the link simply died.
const STOP_GRACE: Duration = Duration::from_millis(250);

/// A link just went away. Teardown if the stop flag is up or comes up
/// within [`STOP_GRACE`] — a clean, silent end of the run — and a failure
/// otherwise.
fn stopping<L>(io: &GroupIo<L>) -> bool {
    let deadline = Instant::now() + STOP_GRACE;
    while !io.stop.load(Ordering::Acquire) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A send failed: teardown once the run is stopping, a vanished peer
/// otherwise.
fn closed_link<L>(ctx: &GroupCtx, io: &GroupIo<L>, link: &str, cause: &Error) -> Result<bool> {
    if stopping(io) {
        return Ok(false);
    }
    Err(Error::Parse(format!(
        "distributed group {}: {link} closed mid-solve: {cause}",
        ctx.group
    )))
}

/// Block (briefly) for the next incoming wave batch and park its waves
/// in their slots. `Ok(false)` means the stop flag was raised.
// lint: hot-path
fn wait_batch<L: GroupLinks>(slots: &mut RouteSlots, io: &mut GroupIo<L>) -> Result<bool> {
    if io.stop.load(Ordering::Acquire) {
        return Ok(false);
    }
    match io.wave_rx.recv_timeout(Duration::from_millis(5)) {
        Ok(mut batch) => {
            for wave in batch.drain(..) {
                slots.deliver(wave)?;
            }
            io.links.recycle(batch);
            Ok(true)
        }
        Err(RecvTimeoutError::Timeout) => Ok(true),
        Err(RecvTimeoutError::Disconnected) => {
            if stopping(io) {
                return Ok(false);
            }
            Err(Error::Parse(
                "distributed: wave channel disconnected mid-solve".into(),
            ))
        }
    }
}
