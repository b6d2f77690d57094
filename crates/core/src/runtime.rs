//! The backend-agnostic DTM runtime: **one** node state machine, many
//! executors.
//!
//! # Why this layer exists
//!
//! The paper's central promise (§5, "Algorithm-Architecture Delay
//! Mapping") is that the *same* algorithm — factor the local system once,
//! then solve-and-scatter whenever remote boundary conditions arrive —
//! runs unchanged on any machine, because the Directed Transmission Line's
//! propagation delay simply *is* whatever delay the executing machine
//! imposes on that message. The code must mirror that claim: the node
//! behaviour of Table 1 lives **here, once**, and each execution scenario
//! (deterministic simulation, a worker pool with or without a delay
//! router, processes over sockets) is a thin adapter that decides only *when* a node runs
//! and *how* its waves travel.
//!
//! # The contract
//!
//! Two small traits split the responsibilities:
//!
//! * [`Transport`] — *where scattered waves go.* The runtime calls
//!   [`Transport::send`] once per neighbour subdomain per solve, handing it
//!   a [`DtmMsg`] addressed to a peer part. The transport owns the delay:
//!   the simulated backend maps it onto a [`dtm_simnet`] link (delay =
//!   simulated link delay), the pool onto a shared inbox (delay = the
//!   receiver's wait in the pool's ready queue, after — behind the delay
//!   router — its link's scaled delay). **A transport must never reorder
//!   the messages of one sender–receiver pair**; both in-tree transports
//!   deliver per-pair FIFO, which is what eq. (2.1) assumes of
//!   a transmission line.
//!
//! * [`ExecutorBackend`] — *when nodes run.* A backend owns scheduling:
//!   build one [`NodeRuntime`] per subdomain (via [`build_nodes`]), call
//!   [`NodeRuntime::step`] for the initial solve of every node (eq. (5.6):
//!   zero boundary guess), then deliver waves and re-step receivers until
//!   a [`Termination`] condition ends the run. Backends report through the
//!   shared [`SolveReport`](crate::report::SolveReport) vocabulary.
//!
//! The runtime itself never blocks, spawns, sleeps or locks: every method
//! is a plain synchronous state transition. That is what makes it
//! executable under a discrete-event simulator and a thread pool alike.
//!
//! # How the delay mapping is preserved per backend
//!
//! | backend | wave travels as | delay realised by |
//! |---|---|---|
//! | [`solver`](crate::solver) (simnet) | [`dtm_simnet::Envelope`] | per-directed-link simulated delay (Fig. 7/11) |
//! | [`rayon_backend`](crate::rayon_backend) | inbox entry + a place in the ready queue | the link's delay in the router, when the config has a `delay_topology`; then the receiver's wait in that queue: older arrivals first, and never while a neighbour computes |
//!
//! In every case the receiving node merges whatever has arrived *by the
//! time it runs* — Table 1 step 3: "wait until receiving part of the
//! remote boundary conditions from one or more of the adjacent subgraphs".
//! No barrier, no broadcast, no global clock.

use crate::impedance::{per_port, ImpedancePolicy};
use crate::local::{LocalSolverKind, LocalSystem};
use crate::monitor::Monitor;
use dtm_graph::evs::{SplitSystem, Subdomain};
use dtm_sparse::{Csr, Result, SparseCholesky};
use std::sync::Arc;

/// Columns a [`SmallBlock`] stores inline before spilling to the heap.
///
/// Sized so the common block widths (and always the scalar K = 1 path) pay
/// zero allocations per scattered wave — the K = 1 fast-path guarantee.
pub const SMALL_BLOCK_INLINE: usize = 4;

/// One value per RHS column of a block wave — the payload half of a
/// [`PortUpdate`].
///
/// Up to [`SMALL_BLOCK_INLINE`] columns live inline; wider blocks spill to
/// a heap vector. Dereferences to `[f64]` (one entry per column).
#[derive(Debug, Clone, PartialEq)]
pub struct SmallBlock {
    len: usize,
    inline: [f64; SMALL_BLOCK_INLINE],
    spill: Vec<f64>,
}

impl SmallBlock {
    /// A single-column (scalar-pipeline) block.
    pub fn scalar(v: f64) -> Self {
        Self::from_fn(1, |_| v)
    }

    /// Build a `k`-column block from a per-column generator.
    pub fn from_fn(k: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        if k <= SMALL_BLOCK_INLINE {
            let mut inline = [0.0; SMALL_BLOCK_INLINE];
            for (c, slot) in inline.iter_mut().take(k).enumerate() {
                *slot = f(c);
            }
            Self {
                len: k,
                inline,
                spill: Vec::new(),
            }
        } else {
            Self {
                len: k,
                inline: [0.0; SMALL_BLOCK_INLINE],
                spill: (0..k).map(f).collect(),
            }
        }
    }

    /// Copy a slice into a block.
    pub fn from_slice(vals: &[f64]) -> Self {
        Self::from_fn(vals.len(), |c| vals[c])
    }

    /// Overwrite this block in place with `k` freshly generated columns,
    /// reusing the spill buffer's capacity — the zero-allocation refill used
    /// by the pooled wave pipeline (a recycled block never reallocates
    /// unless `k` outgrows every width it has carried before).
    // lint: hot-path
    pub fn fill_from_fn(&mut self, k: usize, mut f: impl FnMut(usize) -> f64) {
        self.len = k;
        if k <= SMALL_BLOCK_INLINE {
            self.spill.clear();
            for (c, slot) in self.inline.iter_mut().take(k).enumerate() {
                *slot = f(c);
            }
        } else {
            self.spill.clear();
            self.spill.extend((0..k).map(&mut f));
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block has no columns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-column values.
    pub fn as_slice(&self) -> &[f64] {
        if self.len <= SMALL_BLOCK_INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for SmallBlock {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<f64> for SmallBlock {
    fn from(v: f64) -> Self {
        Self::scalar(v)
    }
}

impl Default for SmallBlock {
    /// An empty (zero-column) block — the state of a pooled payload before
    /// its first [`fill_from_fn`](Self::fill_from_fn).
    fn default() -> Self {
        Self::from_fn(0, |_| 0.0)
    }
}

/// Boundary-condition update for one port of the receiving subdomain.
///
/// This is the paper's message payload (Table 1 step 3.2): the sender's
/// twin potential `u` and inflow current `ω` for one DTLP, addressed by
/// the *receiver's* port index — one value per RHS column of the block
/// wave (the scalar pipeline is the one-column case).
#[derive(Debug, Clone, PartialEq)]
pub struct PortUpdate {
    /// Port index *at the receiver*.
    pub port: usize,
    /// Transmitted twin potentials `u`, one per column.
    pub u: SmallBlock,
    /// Transmitted twin inflow currents `ω`, one per column.
    pub omega: SmallBlock,
}

impl PortUpdate {
    /// A scalar (single-column) update — the paper's original payload.
    pub fn scalar(port: usize, u: f64, omega: f64) -> Self {
        Self {
            port,
            u: SmallBlock::scalar(u),
            omega: SmallBlock::scalar(omega),
        }
    }
}

impl Default for PortUpdate {
    /// An empty pooled slot, overwritten in place before transmission.
    fn default() -> Self {
        Self {
            port: 0,
            u: SmallBlock::default(),
            omega: SmallBlock::default(),
        }
    }
}

/// One wave-front message: every boundary condition the sending subdomain
/// owes one neighbour after a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmMsg {
    /// Updates keyed by receiver port.
    pub updates: Vec<PortUpdate>,
}

/// Stopping rule of a distributed solve — shared vocabulary across all
/// backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Oracle: stop when the (centrally monitored) global RMS error drops
    /// below `tol`. Matches how the paper's figures are produced. The
    /// *backend's* monitor enforces this; nodes never self-halt. Requires a
    /// direct reference solution `x* = A⁻¹b` per right-hand side — a cost
    /// real traffic cannot pay, which is what [`Residual`](Self::Residual)
    /// removes.
    OracleRms {
        /// RMS-error tolerance.
        tol: f64,
    },
    /// Reference-free: stop when the (centrally monitored) relative true
    /// residual `‖b − A·x‖₂ / ‖b‖₂` of the gathered estimate drops below
    /// `tol` (worst column of a block solve). No direct solve of the
    /// original system is ever performed — the monitor recomputes the
    /// residual exactly, one SpMV, from the same per-part solution updates
    /// the oracle mode uses, whenever the estimate moves. This is the
    /// production stopping rule (cf. Avron et al. 2013, Hong 2012, which
    /// terminate on computable residuals).
    Residual {
        /// Relative-residual tolerance.
        tol: f64,
    },
    /// Distributed: each node halts itself once its outgoing boundary
    /// conditions change by less than `tol` for `patience` consecutive
    /// solves (Table 1 step 3.3, "if convergent, then break"). The run
    /// ends when every node halted.
    LocalDelta {
        /// Outgoing-wave change tolerance.
        tol: f64,
        /// Consecutive small-delta solves required.
        patience: usize,
    },
}

impl Termination {
    /// The tolerance a supervisor holds its own metric (oracle RMS /
    /// relative residual) to; `None` under [`LocalDelta`](Self::LocalDelta),
    /// where the nodes halt themselves and the metric is only recorded.
    pub fn metric_tol(self) -> Option<f64> {
        match self {
            Termination::OracleRms { tol } | Termination::Residual { tol } => Some(tol),
            Termination::LocalDelta { .. } => None,
        }
    }

    /// Refuse a tolerance no run can mean: a NaN — no metric or delta ever
    /// compares below one, so every executor would run out its budget and
    /// report unconverged — and a negative one, which no norm ever meets.
    /// `0` (run to the cap) and `∞` stay legal. The one check of the
    /// stopping rule: every one-shot entry point passes it through
    /// [`Machine`](crate::Machine), every session ticket at `submit`, and
    /// `dtm-net`'s distributed backend before its first round.
    ///
    /// # Errors
    /// [`Error::NonFinite`](dtm_sparse::Error::NonFinite) for a NaN
    /// tolerance; [`Error::Parse`](dtm_sparse::Error::Parse), naming the
    /// tolerance, for a negative one.
    pub fn check(self) -> Result<Self> {
        let (Termination::OracleRms { tol }
        | Termination::Residual { tol }
        | Termination::LocalDelta { tol, .. }) = self;
        if tol.is_nan() {
            return Err(dtm_sparse::Error::NonFinite {
                context: "termination tolerance",
                index: 0,
                value: tol,
            });
        }
        if tol < 0.0 {
            return Err(dtm_sparse::Error::Parse(format!(
                "termination tolerance must be ≥ 0, got {tol:e}"
            )));
        }
        Ok(self)
    }
}

/// Configuration shared by every executor backend: everything that
/// parameterises the *algorithm* rather than the *machine*.
#[derive(Debug, Clone)]
pub struct CommonConfig {
    /// Impedance policy — Fig. 9's bowl. The default,
    /// [`Matched`](ImpedancePolicy::Matched), works the one global scale
    /// out of the torn system's spectrum when the nodes are built (see
    /// [`crate::impedance`]); set an explicit policy to sweep the bowl or
    /// to reproduce the paper's values.
    pub impedance: ImpedancePolicy,
    /// Stopping rule.
    pub termination: Termination,
    /// Safety cap on solves per node (guards non-convergent configs).
    pub max_solves_per_node: usize,
}

impl Default for CommonConfig {
    fn default() -> Self {
        Self {
            impedance: ImpedancePolicy::default(),
            termination: Termination::OracleRms { tol: 1e-8 },
            max_solves_per_node: 200_000,
        }
    }
}

/// Where scattered waves go. Implemented by each backend's message fabric;
/// see the [module docs](self) for the contract (per-pair FIFO, delay
/// owned by the transport).
pub trait Transport {
    /// Carry `msg` from the stepping node to the node executing subdomain
    /// `dst`. Called during [`NodeRuntime::step`], once per neighbour.
    fn send(&mut self, dst: usize, msg: DtmMsg);
}

/// A bare `Vec<(dst, msg)>` is itself a transport that buffers instead of
/// delivering, in send order — for backends that must release a node lock
/// before touching neighbour state, and for tests that inspect scattered
/// waves. Backends keep one outbox vector per node and `drain(..)` it
/// after each step, so the buffer's capacity survives across activations
/// and the scatter path never allocates.
impl Transport for Vec<(usize, DtmMsg)> {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        self.push((dst, msg));
    }
}

/// A mutable reference to a transport is itself a transport — lets node
/// state machines take `&mut dyn Transport` (the object-safe form the
/// [`AsyncNode`] contract uses) while callers keep passing concrete
/// transports by reference.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        (**self).send(dst, msg);
    }
}

/// The abstract asynchronous-solver node: the contract every distributed
/// algorithm in this crate satisfies — DTM's [`NodeRuntime`] and the
/// randomized-asynchrony baselines of [`crate::async_baselines`]
/// (randomized Richardson, D-iteration) alike.
///
/// The contract is exactly the executor loop's view of a node: absorb
/// whatever waves arrived, run one activation (solve/relax/diffuse and
/// scatter through a [`Transport`]), publish the current local solution,
/// and report uniform work counters (activations, messages, flops). Any
/// machine that can drive this trait — the simulated engine, the worker
/// pool with or without its delay router — can therefore drive *any* of the algorithms,
/// which is what makes `repro compare` a message-for-message benchmark on
/// identical machines.
pub trait AsyncNode: Send {
    /// The subdomain/partition id this node executes.
    fn part(&self) -> usize;

    /// Rows this node owns (length of [`solution`](Self::solution)).
    fn n_local(&self) -> usize;

    /// The node's current local solution estimate, one value per owned
    /// row (column-major `n_local × k` for block-capable algorithms; the
    /// baselines are scalar, `k = 1`).
    fn solution(&self) -> &[f64];

    /// Merge one incoming message (consuming it, so payload buffers can be
    /// recycled).
    fn absorb_owned(&mut self, msg: DtmMsg);

    /// One activation: update local state against the currently held
    /// remote values and scatter outgoing messages through `transport`.
    fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl;

    /// Activations performed so far.
    fn solves(&self) -> u64;

    /// Messages scattered so far.
    fn messages_sent(&self) -> u64;

    /// Estimated floating-point operations so far (multiply-adds ×2),
    /// counted uniformly across algorithms.
    fn flops(&self) -> u64;

    /// Size of one activation's working set (e.g. factor nonzeros for
    /// DTM, owned-row nonzeros for point relaxation) — the input to a
    /// per-activation compute-time model.
    fn work_nnz(&self) -> usize;

    /// Whether this node was retired by its solve cap rather than by
    /// declaring convergence.
    fn capped(&self) -> bool;

    /// Bitmask of the [`solution`](Self::solution) columns the latest step
    /// could have changed (saturated = all) — lets a wall-clock fabric
    /// publish only those. Scalar algorithms keep the default.
    fn solved_cols(&self) -> u64 {
        u64::MAX
    }
}

/// What a node does after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeControl {
    /// Keep scheduling this node when waves arrive.
    Continue,
    /// The node declared local convergence (Table 1 step 3.3) and goes
    /// *passive*: the waves of this step are sub-tolerance by definition
    /// and may be dropped at passive receivers, and the executor stops
    /// kicking the node — but a later wave from a neighbour whose own step
    /// returned [`Continue`](Self::Continue) re-arms it (the wall-clock
    /// fabrics of [`crate::fabric`]; stepping a halted node again is
    /// always sound, a large delta simply resets its streak).
    Converged,
    /// The node hit the `max_solves_per_node` safety cap *without*
    /// declaring convergence. The backend retires it like
    /// [`Converged`](Self::Converged), but a capped run must never be
    /// reported as converged under [`Termination::LocalDelta`].
    Capped,
}

impl NodeControl {
    /// Whether the backend should retire the node (either halt kind).
    pub fn is_halt(self) -> bool {
        !matches!(self, NodeControl::Continue)
    }
}

/// The per-node halting rule every algorithm shares: Table 1 step 3.3
/// ("if convergent, then break") under [`Termination::LocalDelta`], plus
/// the solve cap.
#[derive(Debug, Clone)]
pub(crate) struct SelfHalt {
    termination: Termination,
    max_solves: usize,
    small_streak: usize,
    capped: bool,
}

impl SelfHalt {
    pub(crate) fn new(termination: Termination, max_solves: usize) -> Self {
        Self {
            termination,
            max_solves,
            small_streak: 0,
            capped: false,
        }
    }

    /// Judge the node's `solves`-th step, whose outgoing boundary values
    /// changed by `delta`: converged after `patience` consecutive
    /// sub-tolerance steps (a larger delta resets the streak), capped at
    /// the solve cap.
    pub(crate) fn after_step(&mut self, delta: f64, solves: usize) -> NodeControl {
        if let Termination::LocalDelta { tol, patience } = self.termination {
            if delta < tol {
                self.small_streak += 1;
                if self.small_streak >= patience {
                    return NodeControl::Converged;
                }
            } else {
                self.small_streak = 0;
            }
        }
        if solves >= self.max_solves {
            self.capped = true;
            return NodeControl::Capped;
        }
        NodeControl::Continue
    }

    /// Whether the solve cap (not convergence) retired the node.
    pub(crate) fn capped(&self) -> bool {
        self.capped
    }
}

/// The canonical DTM node state machine: one subdomain's factored local
/// system, its wave routes, and the self-halt bookkeeping of Table 1.
///
/// Lifecycle, driven by a backend:
///
/// 1. [`build_nodes`] factors every subdomain once (§5: "only once
///    factorization should be done at the beginning");
/// 2. the backend calls [`step`](Self::step) on every node — the initial
///    solve under the zero boundary guess of eq. (5.6), scattering the
///    first wave fronts;
/// 3. whenever one or more waves reach a node, the backend calls
///    [`absorb`](Self::absorb) for each [`PortUpdate`] and then
///    [`step`](Self::step) — merge, re-solve, scatter;
/// 4. a halting [`NodeControl`] return (`Converged` or `Capped`) retires
///    the node.
#[derive(Debug, Clone)]
pub struct NodeRuntime {
    part: usize,
    local: LocalSystem,
    /// Per neighbour part: `(receiver_port, my_port)` pairs.
    routes: Vec<(usize, Vec<(usize, usize)>)>,
    /// Freelist of recycled message payloads: [`step`](Self::step) pops a
    /// buffer per outgoing wave and refills it in place;
    /// [`recycle`](Self::recycle) (or [`absorb_owned`](Self::absorb_owned))
    /// returns consumed payloads. In a balanced two-way exchange the list
    /// reaches a steady state and the wave pipeline stops allocating
    /// entirely (for K ≤ [`SMALL_BLOCK_INLINE`]; wider blocks also reuse
    /// their spill vectors once warm).
    pool: Vec<Vec<PortUpdate>>,
    halt: SelfHalt,
    messages_sent: u64,
}

/// Cap on pooled payload buffers per node: enough for every neighbour to
/// have one message in flight in each direction plus slack, while bounding
/// memory if a fast sender outpaces a slow receiver.
fn pool_cap(n_routes: usize) -> usize {
    (2 * n_routes).max(8)
}

impl NodeRuntime {
    /// The subdomain/part id this node executes.
    pub fn part(&self) -> usize {
        self.part
    }

    /// The factored local system (for inspection and monitoring).
    pub fn local(&self) -> &LocalSystem {
        &self.local
    }

    /// Neighbour parts this node scatters waves to, in route order.
    pub fn neighbor_parts(&self) -> impl Iterator<Item = usize> + '_ {
        self.routes.iter().map(|&(dst, _)| dst)
    }

    /// Local solves performed so far.
    pub fn solves(&self) -> u64 {
        self.local.n_solves() as u64
    }

    /// Wave-front messages scattered so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Estimated floating-point operations so far: every solve is a pair
    /// of triangular substitutions over the constant factor (§5's
    /// factor-once remark), ≈ 2 flops (multiply + add) per stored factor
    /// entry per sweep per RHS column — `4 · nnz(L) · k` per activation.
    /// The wave algebra per port is negligible next to the substitutions.
    pub fn flops(&self) -> u64 {
        self.solves() * 4 * self.local.factor_nnz() as u64 * self.local.n_rhs() as u64
    }

    /// Merge one incoming boundary-condition update (Table 1 step 3.1).
    /// Later updates for the same port overwrite earlier ones — exactly
    /// the "use whatever is freshest" semantics of asynchronous iteration.
    /// All columns of a block wave merge together.
    pub fn absorb(&mut self, update: PortUpdate) {
        self.local
            .set_remote_block(update.port, &update.u, &update.omega);
    }

    /// Merge a whole wave-front message.
    pub fn absorb_msg(&mut self, msg: &DtmMsg) {
        for u in &msg.updates {
            self.local.set_remote_block(u.port, &u.u, &u.omega);
        }
    }

    /// Merge a whole wave-front message **and recycle its payload buffer**
    /// into this node's freelist — the allocation-free absorb path every
    /// executor uses: a consumed message funds the next outgoing one.
    // lint: hot-path
    pub fn absorb_owned(&mut self, msg: DtmMsg) {
        self.absorb_msg(&msg);
        self.recycle(msg);
    }

    /// Return a consumed message's payload buffer to the freelist (bounded;
    /// overflow is dropped). The buffer's `PortUpdate`s — including any
    /// heap-spilled wide blocks — are kept intact for in-place refill.
    pub fn recycle(&mut self, msg: DtmMsg) {
        if self.pool.len() < pool_cap(self.routes.len()) {
            self.pool.push(msg.updates);
        }
    }

    /// Recycled payload buffers currently pooled (for tests and
    /// diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Solve-and-scatter (Table 1 steps 3.2–3.3, and step 1–2 on the first
    /// call): re-solve the local system against the currently stored
    /// boundary conditions, transmit the resulting `(u, ω)` pairs to every
    /// neighbour through `transport`, and evaluate the self-halt rule.
    // lint: hot-path
    pub fn step(&mut self, transport: &mut impl Transport) -> NodeControl {
        self.local.solve();
        let k = self.local.n_rhs();
        // Disjoint field borrows: routes are read while the freelist is
        // popped and the local system's outgoing state is sampled.
        let Self {
            routes,
            pool,
            local,
            messages_sent,
            ..
        } = self;
        for (dst, pairs) in routes.iter() {
            // Pop a recycled payload buffer — preferring one whose slot
            // count already matches this neighbour, so resize never
            // truncates warm spilled blocks (port counts are symmetric, so
            // a message received from a neighbour is exactly the size of
            // the one owed back). Only a cold pool allocates.
            let mut updates = match pool.iter().position(|b| b.len() == pairs.len()) {
                Some(i) => pool.swap_remove(i),
                None => pool.pop().unwrap_or_default(),
            };
            updates.resize_with(pairs.len(), PortUpdate::default);
            for (slot, &(their_port, my_port)) in updates.iter_mut().zip(pairs) {
                slot.port = their_port;
                slot.u.fill_from_fn(k, |c| local.outgoing_col(my_port, c).0);
                slot.omega
                    .fill_from_fn(k, |c| local.outgoing_col(my_port, c).1);
            }
            transport.send(*dst, DtmMsg { updates });
            *messages_sent += 1;
        }
        self.halt
            .after_step(self.local.last_delta(), self.local.n_solves())
    }

    /// Whether this node was retired by the solve cap rather than by
    /// declaring convergence (consulted by backends when deciding the
    /// run-level `converged` flag).
    pub fn capped(&self) -> bool {
        self.halt.capped()
    }

    /// Swap **one column** of the live block for a freshly admitted
    /// right-hand side, its state scaled by the admission's warm start
    /// `alpha` (see [`LocalSystem::replace_rhs_col`]) — the rolling-session
    /// retire/admit step. The exchange keeps running: no counters reset,
    /// no routes change, the node simply solves the new column alongside
    /// the surviving ones from its next step on. The self-halt streak
    /// re-arms because the swapped column's delta does.
    ///
    /// # Panics
    /// Panics if `col` is out of range or `rhs_col` has the wrong length.
    pub fn swap_rhs_col(&mut self, col: usize, rhs_col: &[f64], alpha: f64) {
        self.local.replace_rhs_col(col, rhs_col, alpha);
        self.halt.small_streak = 0;
    }
}

/// [`NodeRuntime`] satisfies the abstract [`AsyncNode`] contract — the
/// proof that DTM and the randomized-asynchrony baselines really are peer
/// algorithms behind one executor interface.
impl AsyncNode for NodeRuntime {
    fn part(&self) -> usize {
        NodeRuntime::part(self)
    }

    fn n_local(&self) -> usize {
        self.local.n_local()
    }

    fn solution(&self) -> &[f64] {
        self.local.solution()
    }

    fn absorb_owned(&mut self, msg: DtmMsg) {
        NodeRuntime::absorb_owned(self, msg);
    }

    fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
        self.step(&mut &mut *transport)
    }

    fn solves(&self) -> u64 {
        NodeRuntime::solves(self)
    }

    fn messages_sent(&self) -> u64 {
        NodeRuntime::messages_sent(self)
    }

    fn flops(&self) -> u64 {
        NodeRuntime::flops(self)
    }

    fn work_nnz(&self) -> usize {
        self.local.factor_nnz()
    }

    fn capped(&self) -> bool {
        NodeRuntime::capped(self)
    }

    fn solved_cols(&self) -> u64 {
        self.local.last_solve_cols()
    }
}

/// Build one [`NodeRuntime`] per subdomain: assign impedances, then factor
/// every local system once and derive its wave routes (ports grouped by
/// neighbour part, deterministically in port order). The parts are built
/// side by side on a fork-join pool as wide as the machine, each by the
/// pure per-part function [`build_node`] runs, so the nodes equal a
/// per-part [`build_node`] loop's bit for bit, whatever order the parts
/// finish in (`crates/core/tests/parallel_setup_props.rs` holds this).
///
/// # Errors
/// Fails if the impedance assignment fails or a local factorization fails
/// (the subdomain was not SNND, i.e. the EVS split violated Theorem 6.1's
/// hypothesis, or the input was not SPD):
/// [`PartNotPositiveDefinite`](dtm_sparse::Error::PartNotPositiveDefinite)
/// names the lowest-numbered failing part and the original row of its
/// pivot.
pub fn build_nodes(split: &SplitSystem, common: &CommonConfig) -> Result<Vec<NodeRuntime>> {
    build_nodes_parallel(split, common, &rayon::ThreadPool::default())
}

/// [`build_nodes`] for a **block wave**: every node solves `rhs_cols.len()`
/// right-hand sides simultaneously over its one factorization. `rhs_cols`
/// are *global* RHS vectors, scattered onto the subdomains with the split's
/// own source-share fractions
/// ([`SplitSystem::scatter_rhs`](dtm_graph::evs::SplitSystem::scatter_rhs)).
///
/// # Errors
/// See [`build_nodes`].
///
/// # Panics
/// Panics if `rhs_cols` is empty or a column's length differs from the
/// original system dimension.
pub fn build_nodes_block(
    split: &SplitSystem,
    common: &CommonConfig,
    rhs_cols: &[Vec<f64>],
) -> Result<Vec<NodeRuntime>> {
    build_nodes_block_parallel(split, common, rhs_cols, &rayon::ThreadPool::default())
}

/// Regroup scattered RHS columns from per-column `[c][p]` order into the
/// per-part `[p][c]` order node construction needs — by **moving** the
/// inner vectors, not cloning them (each scattered column is built exactly
/// once and consumed exactly once).
pub(crate) fn transpose_scatter(local_cols: Vec<Vec<Vec<f64>>>) -> Vec<Vec<Vec<f64>>> {
    let n_parts = local_cols.first().map_or(0, Vec::len);
    let k = local_cols.len();
    let mut by_part: Vec<Vec<Vec<f64>>> = (0..n_parts).map(|_| Vec::with_capacity(k)).collect();
    for col in local_cols {
        assert_eq!(col.len(), n_parts, "scatter produced one vector per part");
        for (p, v) in col.into_iter().enumerate() {
            by_part[p].push(v);
        }
    }
    by_part
}

/// Build a single part's [`NodeRuntime`] from its subdomain and its
/// pre-assigned per-port impedances — the distributed backend's entry
/// point: a child process holding only its own group's subdomains (no
/// full [`SplitSystem`]) rebuilds each node from exactly this data.
///
/// `z_ports[i]` is the impedance of `sub.ports[i]`, as produced by
/// [`crate::impedance::per_port`] at the parent. The result is
/// bitwise-identical to the node [`build_nodes`] constructs for the same
/// part: routes are derived from the same port list in the same order and
/// the factorization is the same [`LocalSystem::new`] call.
///
/// # Errors
/// Fails when `z_ports` does not match the subdomain's port count, or the
/// local factorization fails (the subdomain was not SNND, i.e. the EVS
/// split violated Theorem 6.1's hypothesis).
pub fn build_node(sub: &Subdomain, z_ports: &[f64], common: &CommonConfig) -> Result<NodeRuntime> {
    if z_ports.len() != sub.ports.len() {
        return Err(dtm_sparse::Error::DimensionMismatch {
            context: "build_node port impedances",
            expected: sub.ports.len(),
            actual: z_ports.len(),
        });
    }
    build_node_inner(sub, z_ports, common, None)
}

/// Derive one part's wave routes and factor its local system. Pure in its
/// inputs, so parts can be built in any order — or concurrently.
fn build_node_inner(
    sub: &Subdomain,
    z_ports: &[f64],
    common: &CommonConfig,
    cols: Option<&Vec<Vec<f64>>>,
) -> Result<NodeRuntime> {
    let mut routes: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (my_port, port) in sub.ports.iter().enumerate() {
        match routes.iter_mut().find(|(dst, _)| *dst == port.peer.part) {
            Some((_, pairs)) => pairs.push((port.peer.port, my_port)),
            None => routes.push((port.peer.part, vec![(port.peer.port, my_port)])),
        }
    }
    let local = match cols {
        None => LocalSystem::new(sub, z_ports, LocalSolverKind::Auto),
        Some(cols) => LocalSystem::new_block(sub, z_ports, LocalSolverKind::Auto, cols),
    }
    // A failed pivot arrives in part-local numbering; say which part and
    // which row of the caller's system.
    .map_err(|e| match e {
        dtm_sparse::Error::NotPositiveDefinite { column, pivot } => {
            dtm_sparse::Error::PartNotPositiveDefinite {
                part: sub.part,
                row: sub.global_of_local[column],
                pivot,
            }
        }
        other => other,
    })?;
    Ok(NodeRuntime {
        part: sub.part,
        local,
        routes,
        pool: Vec::new(),
        halt: SelfHalt::new(common.termination, common.max_solves_per_node),
        messages_sent: 0,
    })
}

/// [`build_nodes`] on a pool the caller sized: the parts' factorizations
/// are spread over `pool`'s threads, so set-up costs about
/// `max(factor_p)` rather than `Σ factor_p` on a multi-core machine. The
/// nodes are the same, bit for bit, at any pool width.
///
/// # Errors
/// See [`build_nodes`]: when several parts fail, the error of the
/// lowest-numbered one is returned.
pub fn build_nodes_parallel(
    split: &SplitSystem,
    common: &CommonConfig,
    pool: &rayon::ThreadPool,
) -> Result<Vec<NodeRuntime>> {
    build_nodes_inner_pooled(split, common, None, pool)
}

/// Block-wave variant of [`build_nodes_parallel`] (see
/// [`build_nodes_block`]).
///
/// # Errors
/// See [`build_nodes_parallel`].
///
/// # Panics
/// Panics if `rhs_cols` is empty or a column's length differs from the
/// original system dimension.
pub fn build_nodes_block_parallel(
    split: &SplitSystem,
    common: &CommonConfig,
    rhs_cols: &[Vec<f64>],
    pool: &rayon::ThreadPool,
) -> Result<Vec<NodeRuntime>> {
    assert!(!rhs_cols.is_empty(), "at least one RHS column");
    let local_cols: Vec<Vec<Vec<f64>>> = rhs_cols.iter().map(|b| split.scatter_rhs(b)).collect();
    build_nodes_inner_pooled(split, common, Some(transpose_scatter(local_cols)), pool)
}

/// `part_cols[p][c]` = column `c`'s scattered sources for part `p`; `None`
/// = the split's own single right-hand side.
fn build_nodes_inner_pooled(
    split: &SplitSystem,
    common: &CommonConfig,
    part_cols: Option<Vec<Vec<Vec<f64>>>>,
    pool: &rayon::ThreadPool,
) -> Result<Vec<NodeRuntime>> {
    let z_dtlp = common.impedance.assign(split)?;
    let z_ports = per_port(split, &z_dtlp);
    let part_cols = part_cols.as_ref();
    pool.map_index(split.n_parts(), |p| {
        let cols = part_cols.map(|cols| &cols[p]);
        build_node_inner(&split.subdomains[p], &z_ports[p], common, cols)
    })
    .into_iter()
    .collect()
}

/// Resolve the (opt-in) oracle references of a run over `map`'s system —
/// the one rule, for DTM and the baselines alike: explicitly supplied
/// references always win; otherwise the direct solves `x*_c = A⁻¹ b_c`
/// (sharing **one** sparse Cholesky factorization) are performed only for
/// the termination modes that *need* an oracle ([`Termination::OracleRms`]
/// to stop, [`Termination::LocalDelta`] to report RMS). Under
/// [`Termination::Residual`] no reference is ever computed — the whole
/// point of the mode.
///
/// # Errors
/// Propagates factorization failure of the system, and rejects a
/// reference count that differs from the column count.
pub(crate) fn resolve_references(
    map: &GatherMap<'_>,
    termination: Termination,
    references: Option<Vec<Vec<f64>>>,
) -> Result<Option<Vec<Vec<f64>>>> {
    match (references, termination) {
        (Some(refs), _) if refs.len() != map.b_cols.len() => {
            Err(dtm_sparse::Error::DimensionMismatch {
                context: "one reference per RHS column",
                expected: map.b_cols.len(),
                actual: refs.len(),
            })
        }
        (Some(refs), _) => Ok(Some(refs)),
        (None, Termination::Residual { .. }) => Ok(None),
        (None, _) => {
            let factor = SparseCholesky::factor_fill_reducing(&map.a)?;
            Ok(Some(map.b_cols.iter().map(|b| factor.solve(b)).collect()))
        }
    }
}

/// What a supervisor reads of the system it scores a run against: the
/// part → global gather map (`parts[p][l]` = global row of part `p`'s
/// local row `l`, `copy_count[g]` = parts holding a copy of `g`), the
/// original matrix and the global right-hand-side columns. DTM fills it
/// from a [`SplitSystem`], the baselines from their row partition —
/// which is what lets every algorithm share one supervisor, one monitor
/// set-up and one report assembly.
#[derive(Debug)]
pub struct GatherMap<'a> {
    /// Global row of each local row, per part.
    pub parts: Vec<&'a [usize]>,
    /// Parts holding a copy of each global row.
    pub copy_count: &'a [usize],
    /// The original matrix, shared with the split it comes from.
    pub a: Arc<Csr>,
    /// The global right-hand-side columns.
    pub b_cols: Vec<&'a [f64]>,
}

impl<'a> GatherMap<'a> {
    /// A map over explicit part lists.
    pub fn new(
        parts: Vec<&'a [usize]>,
        copy_count: &'a [usize],
        a: Arc<Csr>,
        b_cols: Vec<&'a [f64]>,
    ) -> Self {
        Self {
            parts,
            copy_count,
            a,
            b_cols,
        }
    }

    /// The map of an EVS split over the caller's system it was torn from,
    /// never re-summed: `rhs_cols` the block's global right-hand sides
    /// (`None` = the split's own [`b`](SplitSystem::b)).
    pub fn of_split(split: &'a SplitSystem, rhs_cols: Option<&'a [Vec<f64>]>) -> Self {
        Self::new(
            split
                .subdomains
                .iter()
                .map(|sd| sd.global_of_local.as_slice())
                .collect(),
            &split.copy_count,
            Arc::clone(&split.a),
            match rhs_cols {
                Some(cols) => cols.iter().map(Vec::as_slice).collect(),
                None => vec![&split.b],
            },
        )
    }
}

/// What a one-shot run is scored against, whatever the executor: the
/// algorithm's name for the report, the stopping rule, the system and the
/// (opt-in) oracle references.
pub(crate) struct RunSpec<'a> {
    pub algorithm: crate::report::AlgorithmKind,
    pub termination: Termination,
    pub map: GatherMap<'a>,
    /// Oracle references, one per column of `map.b_cols`; `None` runs
    /// reference-free.
    pub references: Option<&'a [Vec<f64>]>,
}

impl RunSpec<'_> {
    /// The run's scorer: every column of the map admitted at once, all
    /// under the run's termination.
    pub(crate) fn monitor(&self, sample_interval: dtm_simnet::SimDuration) -> Monitor {
        let mut monitor = Monitor::new(&self.map, self.map.b_cols.len(), sample_interval);
        monitor.admit_all(&self.map.b_cols, self.termination, self.references);
        monitor
    }
}

/// The hand-off of the real-execution (wall-clock) executors.
///
/// The simulated backend has an omniscient observer inside the event
/// loop; real executors instead publish per-part solution snapshots
/// ([`wallclock::SharedBlock`]) that the supervisor's
/// [`Monitor`] polls — the very scorer the simulated executor and the
/// distributed round executor feed directly.
pub mod wallclock {
    use crate::local::all_cols;
    use crate::sync::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A worker's published `n_local × k` solution block with dirty-column
    /// tracking: workers publish only the columns whose boundary inputs
    /// changed in the step, and the supervisor folds only columns dirtied
    /// since its last poll into its own copy — no full-block clone on
    /// either side of the hand-off.
    pub struct SharedBlock {
        data: Mutex<Vec<f64>>,
        /// Columns written since the supervisor last drained; lets it skip
        /// untouched parts without taking the lock.
        dirty: AtomicU64,
        nl: usize,
        k: usize,
    }

    impl SharedBlock {
        pub(crate) fn new(nl: usize, k: usize) -> Self {
            Self {
                data: Mutex::new(vec![0.0; nl * k]),
                dirty: AtomicU64::new(0),
                nl,
                k,
            }
        }

        /// Publish the columns of `sol` selected by `cols` (a bitmask;
        /// saturated masks publish everything).
        pub(crate) fn publish(&self, sol: &[f64], cols: u64) {
            let mut data = self.data.lock();
            debug_assert_eq!(sol.len(), data.len(), "published block length");
            if self.k >= 64 || cols == all_cols(self.k) {
                data.copy_from_slice(sol);
            } else {
                let mut rest = cols;
                while rest != 0 {
                    let c = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if c < self.k {
                        let r = c * self.nl..(c + 1) * self.nl;
                        data[r.clone()].copy_from_slice(&sol[r]);
                    }
                }
            }
            // Ordered under the data lock: a drain observing the mask also
            // sees the data.
            self.dirty.fetch_or(cols, Ordering::Release);
        }

        /// Hand the block and the mask of the columns in `want` dirtied
        /// since they were last drained to `absorb`, under the block's
        /// lock — so `absorb` must do part-local work only — and clear
        /// only those bits: every other column stays dirty, its data in
        /// place, for a later drain. `u64::MAX` wants every column. None
        /// of `want` dirtied: `absorb` is not called and the lock is never
        /// taken.
        pub(crate) fn drain(&self, want: u64, absorb: impl FnOnce(&[f64], u64)) {
            if self.dirty.load(Ordering::Acquire) & want == 0 {
                return;
            }
            let data = self.data.lock();
            absorb(&data, self.dirty.fetch_and(!want, Ordering::AcqRel) & want);
        }
    }
}

/// An execution scenario for the DTM: a machine (real or simulated) that
/// schedules [`NodeRuntime`]s and carries their waves.
///
/// Implementations must preserve the delay-mapping contract described in
/// the [module docs](self): nodes run only in response to arriving waves
/// (after their initial solve), and per-pair message order is FIFO.
///
/// This crate's own executors are the [`Machine`](crate::Machine)
/// variants, run by [`DtmProblem::solve`](crate::DtmProblem::solve); the
/// implementor of this trait is the multi-process
/// `dtm_net::DistributedBackend`.
pub trait ExecutorBackend {
    /// Backend-specific knobs (time budgets, delay shaping, thread
    /// counts). Every config embeds [`CommonConfig`].
    type Config;

    /// Which executor this is, for reports.
    fn kind(&self) -> crate::report::BackendKind;

    /// Run DTM on `split` to completion under `config`.
    ///
    /// `reference` is the direct solution used for RMS monitoring; when
    /// `None` it is computed where the termination mode needs one.
    ///
    /// # Errors
    /// Propagates node-construction failures (see [`build_nodes`]) and
    /// backend-specific mapping failures.
    fn solve(
        &self,
        split: &SplitSystem,
        reference: Option<Vec<f64>>,
        config: &Self::Config,
    ) -> Result<crate::report::SolveReport>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::paper_split;

    fn paper_common() -> CommonConfig {
        CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            ..Default::default()
        }
    }

    #[test]
    fn build_nodes_factors_every_subdomain_once() {
        let ss = paper_split();
        let nodes = build_nodes(&ss, &paper_common()).unwrap();
        assert_eq!(nodes.len(), 2);
        for (p, node) in nodes.iter().enumerate() {
            assert_eq!(node.part(), p);
            assert_eq!(node.solves(), 0);
            assert_eq!(node.local().n_ports(), 2);
            assert_eq!(node.neighbor_parts().collect::<Vec<_>>(), vec![1 - p]);
        }
    }

    #[test]
    fn step_scatters_one_message_per_neighbor() {
        let ss = paper_split();
        let mut nodes = build_nodes(&ss, &paper_common()).unwrap();
        let mut t: Vec<(usize, DtmMsg)> = Vec::new();
        let ctl = nodes[0].step(&mut t);
        assert_eq!(ctl, NodeControl::Continue);
        assert_eq!(nodes[0].solves(), 1);
        assert_eq!(nodes[0].messages_sent(), 1);
        assert_eq!(t.len(), 1);
        let (dst, msg) = &t[0];
        assert_eq!(*dst, 1);
        // Both DTLPs connect parts 0 and 1, so one message carries both
        // port updates.
        assert_eq!(msg.updates.len(), 2);
    }

    #[test]
    fn scatter_then_merge_reaches_fixed_point() {
        // Manual two-node exchange: ping-ponging wave fronts must converge
        // to the direct solution of the reconstructed system — the runtime
        // alone implements the whole algorithm.
        let ss = paper_split();
        let mut nodes = build_nodes(&ss, &paper_common()).unwrap();
        let (a, b) = ss.reconstruct().unwrap();
        let exact = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);

        let mut inboxes: Vec<Vec<DtmMsg>> = vec![Vec::new(), Vec::new()];
        let mut t: Vec<(usize, DtmMsg)> = Vec::new();
        for node in nodes.iter_mut() {
            node.step(&mut t);
        }
        for _ in 0..200 {
            for (dst, msg) in t.drain(..) {
                inboxes[dst].push(msg);
            }
            for (p, node) in nodes.iter_mut().enumerate() {
                if inboxes[p].is_empty() {
                    continue;
                }
                for msg in inboxes[p].drain(..) {
                    node.absorb_msg(&msg);
                }
                node.step(&mut t);
            }
        }
        let mut monitor = Monitor::new_residual(&ss, None, dtm_simnet::SimDuration::ZERO);
        for (p, node) in nodes.iter().enumerate() {
            monitor.update_part(p, dtm_simnet::SimTime::ZERO, node.local().solution());
        }
        let est = monitor.estimate();
        for (u, v) in est.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn a_warm_started_swap_keeps_the_scaled_fixed_point() {
        // A node's state is linear in its right-hand side and its waves:
        // at the exchange's fixed point for b, swapping in −3·b with the
        // state scaled by α = −3 is the fixed point for −3·b — the next
        // step reproduces −3× the solution and the outgoing waves without
        // a single wave exchanged. The cold swap (α = 0) does not.
        let ss = paper_split();
        let converged = || {
            let mut nodes = build_nodes(&ss, &paper_common()).unwrap();
            let mut t: Vec<(usize, DtmMsg)> = Vec::new();
            for _ in 0..200 {
                for node in nodes.iter_mut() {
                    node.step(&mut t);
                }
                for (dst, msg) in t.drain(..) {
                    nodes[dst].absorb_msg(&msg);
                }
            }
            nodes
        };
        let fixed = converged();
        for (alpha, keeps) in [(-3.0, true), (0.0, false)] {
            let mut nodes = converged();
            let mut t: Vec<(usize, DtmMsg)> = Vec::new();
            for (p, node) in nodes.iter_mut().enumerate() {
                let rhs: Vec<f64> = ss.subdomains[p].rhs.iter().map(|v| -3.0 * v).collect();
                node.swap_rhs_col(0, &rhs, alpha);
                node.step(&mut t);
                let near = node
                    .local()
                    .solution()
                    .iter()
                    .zip(fixed[p].local().solution())
                    .all(|(x, f)| (x + 3.0 * f).abs() <= 1e-9 * (1.0 + f.abs()));
                assert_eq!(near, keeps, "α = {alpha}, part {p}");
            }
        }
    }

    #[test]
    fn local_delta_self_halt_respects_patience() {
        let ss = paper_split();
        let common = CommonConfig {
            termination: Termination::LocalDelta {
                tol: f64::INFINITY, // every solve counts as "small"
                patience: 3,
            },
            ..paper_common()
        };
        let mut nodes = build_nodes(&ss, &common).unwrap();
        let mut t: Vec<(usize, DtmMsg)> = Vec::new();
        assert_eq!(nodes[0].step(&mut t), NodeControl::Continue);
        assert_eq!(nodes[0].step(&mut t), NodeControl::Continue);
        assert_eq!(nodes[0].step(&mut t), NodeControl::Converged);
        assert!(!nodes[0].capped());
    }

    #[test]
    fn max_solves_cap_halts() {
        let ss = paper_split();
        let common = CommonConfig {
            max_solves_per_node: 2,
            ..paper_common()
        };
        let mut nodes = build_nodes(&ss, &common).unwrap();
        let mut t: Vec<(usize, DtmMsg)> = Vec::new();
        assert_eq!(nodes[0].step(&mut t), NodeControl::Continue);
        assert_eq!(nodes[0].step(&mut t), NodeControl::Capped);
        assert!(nodes[0].capped());
    }

    #[test]
    fn node_runtime_drives_through_the_async_node_contract() {
        // The object-safe AsyncNode view must behave exactly like the
        // inherent API: step through a `dyn` reference, counters included.
        let ss = paper_split();
        let mut nodes = build_nodes(&ss, &paper_common()).unwrap();
        let node: &mut dyn AsyncNode = &mut nodes[0];
        assert_eq!(node.part(), 0);
        assert_eq!(node.n_local(), 3);
        assert!(node.work_nnz() > 0);
        let mut t: Vec<(usize, DtmMsg)> = Vec::new();
        let ctl = node.step_node(&mut t);
        assert_eq!(ctl, NodeControl::Continue);
        assert_eq!(node.solves(), 1);
        assert_eq!(node.messages_sent(), 1);
        assert_eq!(node.flops(), 4 * node.work_nnz() as u64);
        assert_eq!(node.solution().len(), 3);
        assert!(!node.capped());
        let (_, msg) = t.pop().unwrap();
        node.absorb_owned(msg);
    }

    #[test]
    fn absorb_overwrites_per_port() {
        let ss = paper_split();
        let mut nodes = build_nodes(&ss, &paper_common()).unwrap();
        nodes[1].absorb(PortUpdate::scalar(0, 1.0, 0.5));
        nodes[1].absorb(PortUpdate::scalar(0, 2.0, -0.25));
        // incident wave w = u − z·ω with z = 0.2 for port 0.
        let z = nodes[1].local().impedances()[0];
        assert!((nodes[1].local().incident_wave(0) - (2.0 - z * -0.25)).abs() < 1e-15);
    }

    #[test]
    fn small_block_inline_and_spill() {
        let s = SmallBlock::scalar(3.5);
        assert_eq!(s.as_slice(), &[3.5]);
        let inline = SmallBlock::from_fn(SMALL_BLOCK_INLINE, |c| c as f64);
        assert_eq!(inline.len(), SMALL_BLOCK_INLINE);
        let wide = SmallBlock::from_fn(SMALL_BLOCK_INLINE + 3, |c| c as f64);
        assert_eq!(wide.len(), SMALL_BLOCK_INLINE + 3);
        for (c, v) in wide.iter().enumerate() {
            assert_eq!(*v, c as f64);
        }
        assert_eq!(SmallBlock::from_slice(&[1.0, 2.0]).as_slice(), &[1.0, 2.0]);
        assert!(!wide.is_empty());
    }

    #[test]
    fn block_nodes_scatter_block_waves() {
        // A 3-column block build: every scattered update carries 3-wide
        // payloads, and column 0 (the split's own b, round-tripped through
        // the scatter fractions) matches the scalar build to rounding.
        let ss = paper_split();
        let (_, b) = ss.reconstruct().unwrap();
        let cols = vec![b, vec![1.0, 0.0, 0.0, 0.0], vec![0.0, -1.0, 2.0, 0.5]];
        let mut block_nodes = build_nodes_block(&ss, &paper_common(), &cols).unwrap();
        let mut scalar_nodes = build_nodes(&ss, &paper_common()).unwrap();
        let mut bt: Vec<(usize, DtmMsg)> = Vec::new();
        let mut st: Vec<(usize, DtmMsg)> = Vec::new();
        block_nodes[0].step(&mut bt);
        scalar_nodes[0].step(&mut st);
        let (_, bmsg) = &bt[0];
        let (_, smsg) = &st[0];
        assert_eq!(bmsg.updates.len(), smsg.updates.len());
        for (bu, su) in bmsg.updates.iter().zip(&smsg.updates) {
            assert_eq!(bu.u.len(), 3);
            assert_eq!(bu.omega.len(), 3);
            assert!(
                (bu.u[0] - su.u[0]).abs() < 1e-14,
                "column 0 is the scalar pipeline"
            );
            assert!((bu.omega[0] - su.omega[0]).abs() < 1e-14);
        }
    }

    /// A 2-unknown identity system on one part, two column slots, and the
    /// block its one wall-clock worker publishes.
    fn two_slot_poll() -> (Monitor, wallclock::SharedBlock) {
        let (rows, a) = ([0usize, 1], Csr::identity(2));
        let map = GatherMap::new(vec![&rows[..]], &[1, 1], Arc::new(a), vec![&[0.0, 0.0]]);
        (
            Monitor::new(&map, 2, crate::monitor::NO_SERIES),
            wallclock::SharedBlock::new(2, 2),
        )
    }

    #[test]
    fn masked_drain_hands_over_only_the_wanted_dirty_columns() {
        let block = wallclock::SharedBlock::new(2, 3);
        let drained = |want| {
            let mut got = None;
            block.drain(want, |data, cols| got = Some((data.to_vec(), cols)));
            got
        };
        block.publish(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0b011);
        let data = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        assert_eq!(drained(0b100), None, "column 2 is clean: no lock, no call");
        assert_eq!(drained(0b110), Some((data.clone(), 0b010)), "want ∩ dirty");
        assert_eq!(drained(0b010), None, "column 1 was cleared");
        // Column 0 stayed dirty, its data intact, through both drains.
        assert_eq!(drained(0b001), Some((data.clone(), 0b001)));
        assert_eq!(drained(u64::MAX), None);
        // A full mask is the unmasked drain: everything dirty, once.
        block.publish(&[7.0, 8.0, 3.0, 4.0, 9.0, 10.0], 0b101);
        let data = vec![7.0, 8.0, 3.0, 4.0, 9.0, 10.0];
        assert_eq!(drained(u64::MAX), Some((data, 0b101)));
        assert_eq!(drained(u64::MAX), None);
    }

    #[test]
    fn one_shot_stops_only_when_every_column_met_its_tolerance() {
        let (mut m, block) = two_slot_poll();
        let rule = Termination::Residual { tol: 1e-9 };
        m.admit(0, &[1.0, 2.0], rule, None);
        m.admit(1, &[3.0, 4.0], rule, None);
        // Column 0 is exact long before column 1 has moved at all.
        block.publish(&[1.0, 2.0, 0.0, 0.0], 0b11);
        for _ in 0..3 {
            let worst = m.poll(
                dtm_simnet::SimTime::ZERO,
                std::slice::from_ref(&block),
                u64::MAX,
            );
            assert_eq!(worst, 1.0, "the slow column's residual");
            assert!(m.done(0) && !m.done(1));
            assert!(!m.all_done());
        }
        block.publish(&[1.0, 2.0, 3.0, 4.0], 0b10);
        m.poll(
            dtm_simnet::SimTime::ZERO,
            std::slice::from_ref(&block),
            u64::MAX,
        );
        assert!(m.all_done());
        let done = m.retire(1);
        assert_eq!(done.solution, vec![3.0, 4.0]);
        assert_eq!((done.residual, done.rms), (0.0, None));
        assert!(!m.done(1), "a retired slot is idle, not done");
    }

    #[test]
    fn replaced_column_is_never_retired_by_the_outgoing_estimate() {
        let (mut m, block) = two_slot_poll();
        let blocks = std::slice::from_ref(&block);
        let rule = Termination::OracleRms { tol: 1e-9 };
        m.admit(0, &[1.0, 2.0], rule, Some(&[1.0, 2.0]));
        block.publish(&[1.0, 2.0, 0.0, 0.0], 0b01);
        m.poll(dtm_simnet::SimTime::ZERO, blocks, u64::MAX);
        assert!(m.done(0));
        assert_eq!(m.retire(0).rms, Some(0.0));
        // The incoming ticket inherits the slot and the estimate, not the
        // score: nothing published yet, then a straggler still publishing
        // the outgoing ticket's answer, then its own.
        let rule = Termination::Residual { tol: 1e-9 };
        m.admit(0, &[5.0, 6.0], rule, None);
        m.poll(dtm_simnet::SimTime::ZERO, blocks, u64::MAX);
        assert!(!m.done(0), "the outgoing estimate scored against the new b");
        block.publish(&[1.0, 2.0, 0.0, 0.0], 0b01);
        m.poll(dtm_simnet::SimTime::ZERO, blocks, u64::MAX);
        assert!(!m.done(0), "stale estimate scored against the new b");
        block.publish(&[5.0, 6.0, 0.0, 0.0], 0b01);
        m.poll(dtm_simnet::SimTime::ZERO, blocks, u64::MAX);
        assert!(m.done(0));
        assert_eq!(m.retire(0).solution, vec![5.0, 6.0]);
    }
}
