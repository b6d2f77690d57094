//! Randomized-asynchrony baselines: **randomized asynchronous Richardson**
//! (Avron et al. 2013, arXiv:1304.6475) and **Hong's D-iteration** (2012,
//! arXiv:1202.3108) as first-class peer solvers of DTM.
//!
//! The paper's central claim is that DTM's directed waves converge where
//! synchronous exchange stalls — but claims need competitors. Both schemes
//! here are genuinely asynchronous point methods from the literature, and
//! both fit the DTM runtime's contract exactly:
//!
//! * they are **node state machines** ([`AsyncNode`]) over the same
//!   [`DtmMsg`] wire format and [`Transport`] trait the DTM runtime uses
//!   (a [`PortUpdate`] is just a receiver-addressed scalar; Richardson
//!   overwrites boundary values, D-iteration accumulates fluid — both are
//!   valid under the per-pair-FIFO transport contract);
//! * they run on **all three executor fabrics** — the deterministic
//!   simulated machine, one OS thread per partition, and the
//!   work-stealing pool — through the drivers in this module;
//! * they report through the same [`SolveReport`] vocabulary, with the
//!   uniform message/activation/flop counters, so `repro compare` can pit
//!   all three algorithms **message for message on identical machines**
//!   (same partition, same delay topology, same
//!   [`Termination::Residual`] rule — no oracle taints the comparison).
//!
//! # The algorithms
//!
//! **Randomized Richardson** (per node): own a block of rows; per
//! activation perform `updates_per_activation` randomized relaxations
//! `x_i ← x_i + ω(t)·(b_i − Σ_j a_ij x_j)/a_ii` on uniformly sampled owned
//! rows, against whatever remote boundary values have arrived so far, then
//! scatter the owned boundary values to every coupled neighbour. The
//! relaxation schedule `ω(t)` is the knob Avron et al. analyse: a constant
//! step (their consistent-read regime) or a diminishing polynomial
//! schedule.
//!
//! **D-iteration** (per node): maintain a *fluid* vector `F` (initially
//! the Jacobi source `D⁻¹b`) and a *history* `H` (the published solution
//! estimate). Per activation each owned row diffuses `(1 − retention)`
//! of its fluid: the diffused mass moves into `H_i` and spreads
//! `−a_ji/a_jj` fractions into the neighbours' fluid — remote shares are
//! accumulated per destination row and shipped as messages. The invariant
//! `x* = H + (I − J)⁻¹F` holds after every diffusion, in any order, with
//! any message interleaving — which is exactly why the scheme is
//! asynchronous. `retention` is Hong's per-node fluid retention: a node
//! keeps a fraction back to batch its outgoing diffusion.

use crate::monitor::Monitor;
use crate::report::{AlgorithmKind, BackendKind, SolveReport, StopKind};
use crate::runtime::{
    wallclock::SharedBlock, AsyncNode, DtmMsg, ExecutorBackend, NodeControl, PortUpdate,
    Termination, Transport,
};
use crate::solver::ComputeModel;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{Ctx, Engine, Envelope, Node, SimDuration, SimTime, StopReason, Topology};
use dtm_sparse::{Csr, Error, Result, SparseCholesky};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per part: for each neighbour part, `(their_ext_slot, my_local_row)`
/// value-exchange pairs.
type PartRoutes = Vec<(usize, Vec<(usize, usize)>)>;

/// A non-overlapping row partition of `A x = b`, with everything both
/// point algorithms need precomputed: per-row entry lists (internal
/// neighbours by local index, external by ext slot), the ext-slot
/// directory (owner part, owner-local row, remote diagonal), value routes
/// for Richardson-style exchange, and diffusion grouping for D-iteration.
#[derive(Debug)]
pub(crate) struct RowPartition {
    /// Sorted global rows per part.
    rows: Vec<Vec<usize>>,
    /// Diagonal per part per local row.
    diag: Vec<Vec<f64>>,
    /// Local right-hand side per part.
    rhs: Vec<Vec<f64>>,
    /// Off-diagonal entries per part per local row: `(idx, w)` where
    /// `idx < n_local` is an internal local column and `idx ≥ n_local`
    /// addresses ext slot `idx − n_local`.
    entries: Vec<Vec<Vec<(usize, f64)>>>,
    /// Per part: the global vertex each ext slot mirrors.
    ext_globals: Vec<Vec<usize>>,
    /// Per part: the part owning each ext slot's vertex (folded into
    /// `ext_by_part` for the hot path; kept for structural assertions).
    #[allow(dead_code)]
    ext_owner: Vec<Vec<usize>>,
    /// Per part: the vertex's local row in its owner.
    ext_local: Vec<Vec<usize>>,
    /// Per part: the diagonal `a_gg` of each ext vertex (D-iteration's
    /// remote share `−a_ig/a_gg` needs it sender-side).
    ext_diag: Vec<Vec<f64>>,
    /// Richardson value routes: per part, per neighbour part,
    /// `(their_ext_slot, my_local_row)`.
    routes: Vec<PartRoutes>,
    /// D-iteration diffusion grouping: per part, per neighbour part, the
    /// ext slots owned by that neighbour.
    ext_by_part: Vec<Vec<(usize, Vec<usize>)>>,
    /// Per part: total owned-row nonzeros (the compute-model work size).
    work_nnz: Vec<usize>,
}

impl RowPartition {
    fn build(a: &Csr, b: &[f64], assignment: &[usize]) -> Result<Arc<Self>> {
        let n = a.n_rows();
        if assignment.len() != n {
            return Err(Error::DimensionMismatch {
                context: "baseline assignment",
                expected: n,
                actual: assignment.len(),
            });
        }
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                context: "baseline right-hand side",
                expected: n,
                actual: b.len(),
            });
        }
        let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (v, &p) in assignment.iter().enumerate() {
            rows[p].push(v);
        }
        let mut local_of = vec![usize::MAX; n];
        for part_rows in &rows {
            for (l, &g) in part_rows.iter().enumerate() {
                local_of[g] = l;
            }
        }
        // Global diagonal, needed sender-side by D-iteration.
        let mut gdiag = vec![0.0; n];
        for (g, d) in gdiag.iter_mut().enumerate() {
            for (u, w) in a.row(g) {
                if u == g {
                    *d = w;
                }
            }
            if *d <= 0.0 {
                return Err(Error::Parse(format!(
                    "baselines need a positive diagonal; a[{g},{g}] = {d}"
                )));
            }
        }

        let mut diag = vec![Vec::new(); k];
        let mut rhs = vec![Vec::new(); k];
        let mut entries: Vec<Vec<Vec<(usize, f64)>>> = vec![Vec::new(); k];
        let mut ext_globals: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut ext_owner: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut ext_local: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut ext_diag: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut work_nnz = vec![0usize; k];
        for p in 0..k {
            let nl = rows[p].len();
            let mut ext_index: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            for &g in &rows[p] {
                diag[p].push(gdiag[g]);
                rhs[p].push(b[g]);
                let mut row_entries = Vec::new();
                for (u, w) in a.row(g) {
                    if u == g {
                        continue;
                    }
                    if assignment[u] == p {
                        row_entries.push((local_of[u], w));
                    } else {
                        let next = ext_index.len();
                        let slot = *ext_index.entry(u).or_insert(next);
                        if slot == ext_globals[p].len() {
                            ext_globals[p].push(u);
                            ext_owner[p].push(assignment[u]);
                            ext_local[p].push(local_of[u]);
                            ext_diag[p].push(gdiag[u]);
                        }
                        row_entries.push((nl + slot, w));
                    }
                }
                work_nnz[p] += row_entries.len() + 1;
                entries[p].push(row_entries);
            }
        }
        // Value routes: part p sends x[g] to every part q whose ext list
        // mirrors g ∈ p (deterministic slot order, as in block-Jacobi).
        let mut routes: Vec<PartRoutes> = vec![Vec::new(); k];
        for (q, globals) in ext_globals.iter().enumerate() {
            for (slot, &g) in globals.iter().enumerate() {
                let p = assignment[g];
                match routes[p].iter_mut().find(|(dst, _)| *dst == q) {
                    Some((_, pairs)) => pairs.push((slot, local_of[g])),
                    None => routes[p].push((q, vec![(slot, local_of[g])])),
                }
            }
        }
        // Diffusion grouping: p's ext slots bucketed by owner part.
        let mut ext_by_part: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); k];
        for p in 0..k {
            for (slot, &dst) in ext_owner[p].iter().enumerate() {
                match ext_by_part[p].iter_mut().find(|(d, _)| *d == dst) {
                    Some((_, s)) => s.push(slot),
                    None => ext_by_part[p].push((dst, vec![slot])),
                }
            }
        }
        Ok(Arc::new(Self {
            rows,
            diag,
            rhs,
            entries,
            ext_globals,
            ext_owner,
            ext_local,
            ext_diag,
            routes,
            ext_by_part,
            work_nnz,
        }))
    }

    fn n_parts(&self) -> usize {
        self.rows.len()
    }

    /// Every directed pair both algorithms may send over (coupling is
    /// symmetric for a symmetric matrix, so one check covers both the
    /// value-exchange and the diffusion direction).
    fn check_links(&self, topology: &Topology) -> Result<()> {
        if topology.n_nodes() != self.n_parts() {
            return Err(Error::DimensionMismatch {
                context: "baselines: one processor per partition",
                expected: self.n_parts(),
                actual: topology.n_nodes(),
            });
        }
        for (p, routes) in self.routes.iter().enumerate() {
            for (dst, _) in routes {
                if topology.link(p, *dst).is_none() {
                    return Err(Error::Parse(format!(
                        "partitions {p} and {dst} are coupled but the machine \
                         has no link {p} → {dst}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The relaxation-step schedule of the randomized Richardson baseline —
/// the parameter Avron et al. (2013) analyse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelaxationSchedule {
    /// Fixed step `ω` for every update (`ω = 1` is exact per-coordinate
    /// relaxation — asynchronous randomized Gauss–Seidel).
    Constant(f64),
    /// Diminishing steps `ω(t) = ω₀ / (1 + t)^power` over the node's own
    /// update counter `t` — the robust-to-staleness schedule.
    Polynomial {
        /// Initial step.
        omega0: f64,
        /// Decay exponent (0 recovers the constant schedule).
        power: f64,
    },
}

impl RelaxationSchedule {
    fn omega(self, t: u64) -> f64 {
        match self {
            RelaxationSchedule::Constant(w) => w,
            RelaxationSchedule::Polynomial { omega0, power } => {
                omega0 / (1.0 + t as f64).powf(power)
            }
        }
    }

    fn validate(self) -> Result<()> {
        let ok = match self {
            RelaxationSchedule::Constant(w) => w > 0.0 && w.is_finite(),
            RelaxationSchedule::Polynomial { omega0, power } => {
                omega0 > 0.0 && omega0.is_finite() && power >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Error::Parse(
                "relaxation schedule needs a positive step".into(),
            ))
        }
    }
}

impl Default for RelaxationSchedule {
    fn default() -> Self {
        RelaxationSchedule::Constant(1.0)
    }
}

/// Parameters of the randomized Richardson baseline.
#[derive(Debug, Clone)]
pub struct RichardsonParams {
    /// Relaxation schedule (see [`RelaxationSchedule`]).
    pub schedule: RelaxationSchedule,
    /// Randomized row updates per activation; `0` means one expected
    /// sweep (`n_local` updates).
    pub updates_per_activation: usize,
    /// Seed of the per-node update-order stream (node `p` draws from
    /// `seed + p`, so runs are reproducible yet nodes are decorrelated).
    pub seed: u64,
}

impl Default for RichardsonParams {
    fn default() -> Self {
        Self {
            schedule: RelaxationSchedule::default(),
            updates_per_activation: 0,
            seed: 7,
        }
    }
}

/// Parameters of the D-iteration baseline.
#[derive(Debug, Clone)]
pub struct DIterationParams {
    /// Per-node fluid retention in `[0, 1)`: the fraction of each row's
    /// fluid kept back per diffusion pass (0 diffuses everything — the
    /// classical scheme; larger values batch outgoing mass).
    pub retention: f64,
}

impl Default for DIterationParams {
    fn default() -> Self {
        Self { retention: 0.0 }
    }
}

/// Which baseline algorithm to run.
#[derive(Debug, Clone)]
pub enum BaselineAlgo {
    /// Randomized asynchronous Richardson (Avron et al. 2013).
    RandomizedRichardson(RichardsonParams),
    /// Hong's D-iteration (2012).
    DIteration(DIterationParams),
}

impl BaselineAlgo {
    /// The report tag of this algorithm.
    pub fn kind(&self) -> AlgorithmKind {
        match self {
            BaselineAlgo::RandomizedRichardson(_) => AlgorithmKind::RandomizedRichardson,
            BaselineAlgo::DIteration(_) => AlgorithmKind::DIteration,
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            BaselineAlgo::RandomizedRichardson(p) => p.schedule.validate(),
            BaselineAlgo::DIteration(p) => {
                if (0.0..1.0).contains(&p.retention) {
                    Ok(())
                } else {
                    Err(Error::Parse(format!(
                        "fluid retention must lie in [0, 1), got {}",
                        p.retention
                    )))
                }
            }
        }
    }

    /// One node state machine per partition.
    fn build_nodes(
        &self,
        pt: &Arc<RowPartition>,
        config: &BaselineConfig,
    ) -> Vec<Box<dyn AsyncNode>> {
        (0..pt.n_parts())
            .map(|p| -> Box<dyn AsyncNode> {
                match self {
                    BaselineAlgo::RandomizedRichardson(params) => {
                        Box::new(RichardsonNode::new(p, pt.clone(), params, config))
                    }
                    BaselineAlgo::DIteration(params) => {
                        Box::new(DIterationNode::new(p, pt.clone(), params, config))
                    }
                }
            })
            .collect()
    }
}

/// Configuration shared by the baseline drivers: the common stopping
/// vocabulary plus the per-executor knobs (simulated-machine fields are
/// ignored by the wall-clock drivers and vice versa).
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Stopping rule (the comparison harness uses
    /// [`Termination::Residual`] so no oracle taints the numbers).
    pub termination: Termination,
    /// Per-activation compute model (simulated executor).
    pub compute: ComputeModel,
    /// Simulated-time budget (simulated executor).
    pub horizon: SimDuration,
    /// Series sampling interval.
    pub sample_interval: SimDuration,
    /// Per-node activation cap.
    pub max_solves_per_node: usize,
    /// Wall-clock budget (threaded / work-stealing executors).
    pub budget: Duration,
    /// Supervisor poll interval (wall-clock executors).
    pub poll_interval: Duration,
    /// Pool threads (work-stealing executor; 0 = available parallelism).
    pub num_threads: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            termination: Termination::Residual { tol: 1e-8 },
            compute: ComputeModel::default(),
            horizon: SimDuration::from_millis_f64(600_000.0),
            sample_interval: SimDuration::ZERO,
            max_solves_per_node: 200_000,
            budget: Duration::from_secs(30),
            poll_interval: Duration::from_micros(500),
            num_threads: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Node state machine 1: randomized asynchronous Richardson.
// ---------------------------------------------------------------------------

struct RichardsonNode {
    part: usize,
    pt: Arc<RowPartition>,
    x: Vec<f64>,
    ext: Vec<f64>,
    rng: StdRng,
    schedule: RelaxationSchedule,
    updates_per_step: usize,
    t: u64,
    prev_boundary: Vec<f64>,
    termination: Termination,
    max_solves: usize,
    solves: u64,
    messages: u64,
    flops: u64,
    small_streak: usize,
    capped: bool,
}

impl RichardsonNode {
    fn new(
        part: usize,
        pt: Arc<RowPartition>,
        params: &RichardsonParams,
        config: &BaselineConfig,
    ) -> Self {
        let nl = pt.rows[part].len();
        let n_ext = pt.ext_globals[part].len();
        let updates = if params.updates_per_activation == 0 {
            nl
        } else {
            params.updates_per_activation
        };
        Self {
            part,
            x: vec![0.0; nl],
            ext: vec![0.0; n_ext],
            rng: StdRng::seed_from_u64(params.seed.wrapping_add(part as u64)),
            schedule: params.schedule,
            updates_per_step: updates,
            t: 0,
            prev_boundary: Vec::new(),
            termination: config.termination,
            max_solves: config.max_solves_per_node,
            solves: 0,
            messages: 0,
            flops: 0,
            small_streak: 0,
            capped: false,
            pt,
        }
    }
}

impl AsyncNode for RichardsonNode {
    fn part(&self) -> usize {
        self.part
    }

    fn n_local(&self) -> usize {
        self.x.len()
    }

    fn solution(&self) -> &[f64] {
        &self.x
    }

    fn absorb_owned(&mut self, msg: DtmMsg) {
        // Boundary values overwrite: use whatever is freshest (the
        // classical totally-asynchronous iteration semantics).
        for u in &msg.updates {
            self.ext[u.port] = u.u[0];
        }
    }

    fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
        let p = self.part;
        let nl = self.x.len();
        let pt = self.pt.clone();
        if nl > 0 {
            for _ in 0..self.updates_per_step {
                let i = self.rng.gen_range(0..nl);
                let mut r = pt.rhs[p][i] - pt.diag[p][i] * self.x[i];
                for &(j, w) in &pt.entries[p][i] {
                    r -= w * if j < nl { self.x[j] } else { self.ext[j - nl] };
                }
                let omega = self.schedule.omega(self.t);
                self.t += 1;
                self.x[i] += omega * r / pt.diag[p][i];
                self.flops += 2 * pt.entries[p][i].len() as u64 + 6;
            }
        }
        self.solves += 1;
        // Scatter owned boundary values, tracking the outgoing delta for
        // the LocalDelta self-halt (Table-1-style rule, shared vocabulary).
        let mut delta = 0.0_f64;
        let mut bi = 0usize;
        for (dst, pairs) in &pt.routes[p] {
            let updates: Vec<PortUpdate> = pairs
                .iter()
                .map(|&(slot, l)| PortUpdate::scalar(slot, self.x[l], 0.0))
                .collect();
            for u in &updates {
                let v = u.u[0];
                if bi < self.prev_boundary.len() {
                    delta = delta.max((v - self.prev_boundary[bi]).abs());
                    self.prev_boundary[bi] = v;
                } else {
                    self.prev_boundary.push(v);
                    delta = f64::INFINITY;
                }
                bi += 1;
            }
            transport.send(*dst, DtmMsg { updates });
            self.messages += 1;
        }
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
        if self.solves >= self.max_solves as u64 {
            self.capped = true;
            return NodeControl::Capped;
        }
        NodeControl::Continue
    }

    fn solves(&self) -> u64 {
        self.solves
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    fn work_nnz(&self) -> usize {
        self.pt.work_nnz[self.part]
    }

    fn capped(&self) -> bool {
        self.capped
    }
}

// ---------------------------------------------------------------------------
// Node state machine 2: Hong's D-iteration.
// ---------------------------------------------------------------------------

struct DIterationNode {
    part: usize,
    pt: Arc<RowPartition>,
    /// Undiffused residual mass per owned row.
    fluid: Vec<f64>,
    /// Accumulated history — the published solution estimate.
    hist: Vec<f64>,
    retention: f64,
    /// Per ext slot: outgoing fluid accumulated this activation.
    buckets: Vec<f64>,
    termination: Termination,
    max_solves: usize,
    solves: u64,
    messages: u64,
    flops: u64,
    small_streak: usize,
    capped: bool,
}

impl DIterationNode {
    fn new(
        part: usize,
        pt: Arc<RowPartition>,
        params: &DIterationParams,
        config: &BaselineConfig,
    ) -> Self {
        // Initial fluid is the Jacobi source c = D⁻¹ b: the invariant
        // x* = H + (I − J)⁻¹ F then holds from the first instant.
        let fluid: Vec<f64> = pt.rhs[part]
            .iter()
            .zip(&pt.diag[part])
            .map(|(b, d)| b / d)
            .collect();
        let nl = fluid.len();
        let n_ext = pt.ext_globals[part].len();
        Self {
            part,
            fluid,
            hist: vec![0.0; nl],
            retention: params.retention,
            buckets: vec![0.0; n_ext],
            termination: config.termination,
            max_solves: config.max_solves_per_node,
            solves: 0,
            messages: 0,
            flops: 0,
            small_streak: 0,
            capped: false,
            pt,
        }
    }
}

impl AsyncNode for DIterationNode {
    fn part(&self) -> usize {
        self.part
    }

    fn n_local(&self) -> usize {
        self.hist.len()
    }

    fn solution(&self) -> &[f64] {
        &self.hist
    }

    fn absorb_owned(&mut self, msg: DtmMsg) {
        // Fluid shares accumulate (each diffusion is a one-shot transfer
        // of mass; the FIFO exactly-once transport keeps the invariant).
        for u in &msg.updates {
            self.fluid[u.port] += u.u[0];
        }
    }

    fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
        let p = self.part;
        let nl = self.hist.len();
        let pt = self.pt.clone();
        self.buckets.iter_mut().for_each(|b| *b = 0.0);
        let mut delta = 0.0_f64;
        for i in 0..nl {
            let f = self.fluid[i];
            if f == 0.0 {
                continue;
            }
            let m = (1.0 - self.retention) * f;
            self.hist[i] += m;
            self.fluid[i] -= m;
            delta = delta.max(m.abs());
            for &(j, w) in &pt.entries[p][i] {
                // The Jacobi share J_{ji} = −a_ji/a_jj of the diffused
                // mass lands in neighbour j's fluid (a symmetric ⇒ a_ji
                // is this row's entry; remote diagonals are precomputed).
                if j < nl {
                    self.fluid[j] += (-w / pt.diag[p][j]) * m;
                } else {
                    let slot = j - nl;
                    self.buckets[slot] += (-w / pt.ext_diag[p][slot]) * m;
                }
            }
            self.flops += 2 * pt.entries[p][i].len() as u64 + 4;
        }
        self.solves += 1;
        for (dst, slots) in &pt.ext_by_part[p] {
            let updates: Vec<PortUpdate> = slots
                .iter()
                .filter(|&&slot| self.buckets[slot] != 0.0)
                .map(|&slot| PortUpdate::scalar(pt.ext_local[p][slot], self.buckets[slot], 0.0))
                .collect();
            // An all-zero diffusion sends nothing: the network quiesces
            // naturally once the fluid is exhausted.
            if !updates.is_empty() {
                transport.send(*dst, DtmMsg { updates });
                self.messages += 1;
            }
        }
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
        if self.solves >= self.max_solves as u64 {
            self.capped = true;
            return NodeControl::Capped;
        }
        NodeControl::Continue
    }

    fn solves(&self) -> u64 {
        self.solves
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    fn work_nnz(&self) -> usize {
        self.pt.work_nnz[self.part]
    }

    fn capped(&self) -> bool {
        self.capped
    }
}

// ---------------------------------------------------------------------------
// Shared driver plumbing.
// ---------------------------------------------------------------------------

/// Resolve the opt-in oracle reference, exactly as the DTM executors do:
/// an explicit reference wins, [`Termination::Residual`] never pays for a
/// direct solve, anything else computes `A⁻¹b` once.
fn resolve_reference(
    a: &Csr,
    b: &[f64],
    reference: Option<Vec<f64>>,
    termination: Termination,
) -> Result<Option<Vec<f64>>> {
    match (reference, termination) {
        (Some(r), _) => Ok(Some(r)),
        (None, Termination::Residual { .. }) => Ok(None),
        (None, _) => Ok(Some(SparseCholesky::factor_fill_reducing(a)?.solve(b))),
    }
}

/// Build the run's monitor over the raw row partition (copy counts all
/// one — partitions don't overlap), with the same primary-metric rules as
/// every DTM executor: residual termination stays residual-primary even
/// when a reference exists.
fn baseline_monitor(
    pt: &RowPartition,
    a: &Csr,
    b: &[f64],
    reference: &Option<Vec<f64>>,
    termination: Termination,
    sample_interval: SimDuration,
) -> Monitor {
    let n = a.n_rows();
    let mut monitor = match (reference, termination) {
        (Some(r), Termination::Residual { .. }) => {
            let mut m = Monitor::from_parts_residual(
                pt.rows.clone(),
                vec![1; n],
                a.clone(),
                std::slice::from_ref(&b.to_vec()),
                sample_interval,
            );
            m.attach_oracle(std::slice::from_ref(r));
            m
        }
        (Some(r), _) => {
            Monitor::from_parts(pt.rows.clone(), vec![1; n], r.clone(), sample_interval)
        }
        (None, _) => Monitor::from_parts_residual(
            pt.rows.clone(),
            vec![1; n],
            a.clone(),
            std::slice::from_ref(&b.to_vec()),
            sample_interval,
        ),
    };
    monitor.set_refresh_below(metric_tol(termination).unwrap_or(0.0));
    monitor
}

fn metric_tol(termination: Termination) -> Option<f64> {
    match termination {
        Termination::OracleRms { tol } | Termination::Residual { tol } => Some(tol),
        Termination::LocalDelta { .. } => None,
    }
}

/// Uniform per-run counters gathered from whichever fabric ran the nodes.
struct Counters {
    solves: u64,
    messages: u64,
    flops: u64,
    coalesced: u64,
    any_capped: bool,
}

/// Assemble the shared [`SolveReport`] from the monitor's final state.
#[allow(clippy::too_many_arguments)]
fn finish_report(
    backend: BackendKind,
    algorithm: AlgorithmKind,
    mut monitor: Monitor,
    a: &Csr,
    b: &[f64],
    termination: Termination,
    stop: StopKind,
    final_time_ms: f64,
    counters: Counters,
    n_parts: usize,
) -> SolveReport {
    monitor.resync();
    let (final_rms, final_rms_per_rhs) = if monitor.has_oracle() {
        let rms = monitor.rms_exact();
        (rms, vec![rms])
    } else {
        (f64::NAN, Vec::new())
    };
    let final_residual = if monitor.tracks_residual() {
        monitor.residual_exact_per_rhs()[0]
    } else {
        a.residual_norm(monitor.estimate(), b) / dtm_sparse::vector::norm2_or_one(b)
    };
    let converged = match termination {
        Termination::OracleRms { tol } => final_rms <= tol,
        Termination::Residual { tol } => final_residual <= tol,
        Termination::LocalDelta { .. } => {
            matches!(stop, StopKind::AllHalted | StopKind::Quiescent) && !counters.any_capped
        }
    };
    let solution = monitor.estimate().to_vec();
    SolveReport {
        backend,
        algorithm,
        solution: solution.clone(),
        n_rhs: 1,
        solutions: vec![solution],
        final_rms_per_rhs,
        converged,
        final_rms,
        final_residual,
        final_residual_per_rhs: vec![final_residual],
        final_time_ms,
        series: monitor.into_series(),
        total_solves: counters.solves,
        total_messages: counters.messages,
        total_flops: counters.flops,
        coalesced_batches: counters.coalesced,
        n_parts,
        stop,
    }
}

// ---------------------------------------------------------------------------
// Executor 1: the deterministic simulated machine.
// ---------------------------------------------------------------------------

/// One baseline node on one simulated processor: the state machine plus
/// its per-activation compute time (same shape as the DTM adapter).
pub struct SimBaselineNode {
    inner: Box<dyn AsyncNode>,
    compute: SimDuration,
}

impl SimBaselineNode {
    /// The partition id this node executes.
    pub fn part(&self) -> usize {
        self.inner.part()
    }

    /// The node's current local solution estimate.
    pub fn solution(&self) -> &[f64] {
        self.inner.solution()
    }
}

/// Adapter: scattered updates leave through the simulation context, so
/// the link's simulated delay is the message's transmission delay —
/// identical to the DTM mapping.
struct CtxTransport<'a, 't>(&'a mut Ctx<'t, DtmMsg>);

impl Transport for CtxTransport<'_, '_> {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        self.0.send(dst, msg);
    }
}

impl SimBaselineNode {
    fn run_step(&mut self, ctx: &mut Ctx<DtmMsg>) {
        ctx.set_compute(self.compute);
        if self.inner.step_node(&mut CtxTransport(ctx)).is_halt() {
            ctx.halt();
        }
    }
}

impl Node for SimBaselineNode {
    type Msg = DtmMsg;

    fn start(&mut self, ctx: &mut Ctx<DtmMsg>) {
        self.run_step(ctx);
    }

    fn receive(&mut self, ctx: &mut Ctx<DtmMsg>, batch: &mut Vec<Envelope<DtmMsg>>) {
        for env in batch.drain(..) {
            self.inner.absorb_owned(env.payload);
        }
        self.run_step(ctx);
    }
}

/// Build the simulated nodes of a baseline run — public so traced manual
/// engine runs (e.g. `repro compare`'s tagged trace samples) can drive
/// them exactly like `solver::build_nodes` is driven for DTM.
///
/// # Errors
/// Fails on dimension mismatches, invalid parameters, a non-positive
/// diagonal, or a coupled partition pair with no machine link.
pub fn build_sim_nodes(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: &Topology,
    config: &BaselineConfig,
) -> Result<Vec<SimBaselineNode>> {
    prepare_sim(algo, a, b, assignment, topology, config).map(|(nodes, _)| nodes)
}

/// The one validated construction path behind both [`build_sim_nodes`]
/// and [`solve_sim`]: validate, partition, check the machine mapping,
/// wrap nodes with their compute durations.
fn prepare_sim(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: &Topology,
    config: &BaselineConfig,
) -> Result<(Vec<SimBaselineNode>, Arc<RowPartition>)> {
    algo.validate()?;
    let pt = RowPartition::build(a, b, assignment)?;
    pt.check_links(topology)?;
    let nodes = algo
        .build_nodes(&pt, config)
        .into_iter()
        .map(|inner| SimBaselineNode {
            // Baseline pipelines are scalar: one RHS column per sweep.
            compute: config.compute.duration_for_block(inner.work_nnz(), 1),
            inner,
        })
        .collect();
    Ok((nodes, pt))
}

/// Run a baseline to completion on the simulated machine — the
/// message-for-message comparison executor (delays are exact, runs are
/// deterministic).
///
/// # Errors
/// See [`build_sim_nodes`].
pub fn solve_sim(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: Topology,
    reference: Option<Vec<f64>>,
    config: &BaselineConfig,
) -> Result<SolveReport> {
    let (nodes, pt) = prepare_sim(algo, a, b, assignment, &topology, config)?;
    let reference = resolve_reference(a, b, reference, config.termination)?;
    let mut monitor = baseline_monitor(
        &pt,
        a,
        b,
        &reference,
        config.termination,
        config.sample_interval,
    );
    let tol = metric_tol(config.termination);
    let n_parts = nodes.len();
    let mut engine = Engine::new(topology, nodes);
    let outcome = engine.run(
        SimTime::ZERO + config.horizon,
        |time, part, node: &SimBaselineNode| {
            let metric = monitor.update_part(part, time, node.solution());
            match tol {
                Some(tol) => metric > tol,
                None => true,
            }
        },
    );
    let stats = engine.stats();
    let counters = Counters {
        solves: stats.activations.iter().sum(),
        messages: stats.messages_sent,
        flops: engine.nodes().iter().map(|n| n.inner.flops()).sum(),
        coalesced: stats.coalesced_batches,
        any_capped: engine.nodes().iter().any(|n| n.inner.capped()),
    };
    // Uniform-counter cross-check: the monitor witnessed exactly one
    // update per engine activation, whatever the algorithm.
    debug_assert_eq!(monitor.updates(), counters.solves);
    let stop = match outcome.reason {
        StopReason::ObserverStop => StopKind::OracleTolerance,
        StopReason::AllHalted => StopKind::AllHalted,
        StopReason::TimeLimit => StopKind::Horizon,
        StopReason::QueueEmpty => StopKind::Quiescent,
    };
    Ok(finish_report(
        BackendKind::Simulated,
        algo.kind(),
        monitor,
        a,
        b,
        config.termination,
        stop,
        outcome.final_time.as_millis_f64(),
        counters,
        n_parts,
    ))
}

// ---------------------------------------------------------------------------
// Wall-clock supervision shared by the threaded and pool executors.
// ---------------------------------------------------------------------------

struct WallOutcome {
    stop: StopKind,
    best_metric: f64,
    elapsed_ms: f64,
}

/// Poll the workers' published snapshots into the monitor until the
/// stopping metric is met, every node halted, or the budget expired. The
/// monitor's series clock is the wall-clock elapsed time, so reports read
/// uniformly across executors.
fn supervise_monitor(
    monitor: &mut Monitor,
    snapshots: &[SharedBlock],
    n_locals: &[usize],
    termination: Termination,
    budget: Duration,
    poll: Duration,
    mut all_done: impl FnMut() -> bool,
) -> WallOutcome {
    let started = Instant::now();
    let tol = metric_tol(termination);
    let mut mirrors: Vec<Vec<f64>> = n_locals.iter().map(|&nl| vec![0.0; nl]).collect();
    let mut seen: Vec<u64> = vec![0; snapshots.len()];
    let mut best = f64::INFINITY;
    let stop = loop {
        std::thread::sleep(poll);
        let now = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
        let mut metric = None;
        for (p, (snap, (mirror, seen))) in snapshots
            .iter()
            .zip(mirrors.iter_mut().zip(&mut seen))
            .enumerate()
        {
            if snap.drain_into(mirror, seen) != 0 {
                metric = Some(monitor.update_part(p, now, mirror));
            }
        }
        if let Some(m) = metric {
            best = best.min(m);
            if let Some(tol) = tol {
                if m <= tol {
                    break StopKind::OracleTolerance;
                }
            }
        }
        if all_done() {
            break StopKind::AllHalted;
        }
        if started.elapsed() >= budget {
            break StopKind::Budget;
        }
    };
    // One final drain so the report reflects the workers' last published
    // state even if the loop exited on a non-metric condition.
    let now = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
    for (p, (snap, (mirror, seen))) in snapshots
        .iter()
        .zip(mirrors.iter_mut().zip(&mut seen))
        .enumerate()
    {
        if snap.drain_into(mirror, seen) != 0 {
            best = best.min(monitor.update_part(p, now, mirror));
        }
    }
    WallOutcome {
        stop,
        best_metric: best,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

// ---------------------------------------------------------------------------
// Executor 2: one OS thread per partition.
// ---------------------------------------------------------------------------

/// Adapter: updates leave through crossbeam channels, with in-flight
/// accounting for the LocalDelta quiescence kick (same discipline as the
/// threaded DTM executor).
struct BaselineChannelTransport {
    senders: Vec<Sender<DtmMsg>>,
    in_flight: Arc<AtomicI64>,
}

impl Transport for BaselineChannelTransport {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        // Ignore send failures during shutdown.
        let _ = self.senders[dst].send(msg);
    }
}

/// Run a baseline on real OS threads — genuine asynchrony, no simulation:
/// message delay is whatever the scheduler and channels impose.
///
/// # Errors
/// See [`build_sim_nodes`] (the same validation applies, minus the
/// machine-link check — channels form a complete graph).
pub fn solve_threaded(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    reference: Option<Vec<f64>>,
    config: &BaselineConfig,
) -> Result<SolveReport> {
    algo.validate()?;
    let pt = RowPartition::build(a, b, assignment)?;
    let nodes = algo.build_nodes(&pt, config);
    let n_parts = nodes.len();
    let n_locals: Vec<usize> = nodes.iter().map(|n| n.n_local()).collect();
    let reference = resolve_reference(a, b, reference, config.termination)?;
    let mut monitor = baseline_monitor(
        &pt,
        a,
        b,
        &reference,
        config.termination,
        config.sample_interval,
    );

    let mut senders: Vec<Sender<DtmMsg>> = Vec::with_capacity(n_parts);
    let mut receivers: Vec<Receiver<DtmMsg>> = Vec::with_capacity(n_parts);
    for _ in 0..n_parts {
        let (tx, rx) = unbounded::<DtmMsg>();
        senders.push(tx);
        receivers.push(rx);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicI64::new(0));
    let active = Arc::new(AtomicUsize::new(0));
    let snapshots: Arc<Vec<SharedBlock>> =
        Arc::new(n_locals.iter().map(|&nl| SharedBlock::new(nl, 1)).collect());
    let drain_rx: Vec<Receiver<DtmMsg>> = receivers.iter().map(Receiver::clone).collect();
    let self_halting = matches!(config.termination, Termination::LocalDelta { .. });

    let mut handles: Vec<std::thread::JoinHandle<(u64, u64, u64, bool)>> =
        Vec::with_capacity(n_parts);
    for ((p, mut node), rx) in nodes.into_iter().enumerate().zip(receivers) {
        let mut transport = BaselineChannelTransport {
            senders: senders.clone(),
            in_flight: in_flight.clone(),
        };
        let stop = stop.clone();
        let snapshots = snapshots.clone();
        let in_flight = in_flight.clone();
        let active = active.clone();
        handles.push(std::thread::spawn(move || {
            let step =
                |node: &mut Box<dyn AsyncNode>, transport: &mut BaselineChannelTransport| -> bool {
                    let control = node.step_node(transport);
                    snapshots[p].publish(node.solution(), 1);
                    !control.is_halt()
                };
            let counters = |node: &dyn AsyncNode| {
                (
                    node.solves(),
                    node.messages_sent(),
                    node.flops(),
                    node.capped(),
                )
            };
            active.fetch_add(1, Ordering::AcqRel);
            let go_on = step(&mut node, &mut transport);
            active.fetch_sub(1, Ordering::AcqRel);
            if !go_on {
                return counters(&*node);
            }
            loop {
                if stop.load(Ordering::Relaxed) {
                    return counters(&*node);
                }
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(first) => {
                        active.fetch_add(1, Ordering::AcqRel);
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                        node.absorb_owned(first);
                        while let Ok(more) = rx.try_recv() {
                            in_flight.fetch_sub(1, Ordering::AcqRel);
                            node.absorb_owned(more);
                        }
                        let go_on = step(&mut node, &mut transport);
                        active.fetch_sub(1, Ordering::AcqRel);
                        if !go_on {
                            return counters(&*node);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        // Quiescence kick, as in the threaded DTM executor:
                        // only under LocalDelta, and only when no worker is
                        // mid-step and nothing is in flight — so a merely
                        // delayed message can never feed the halt streak.
                        if self_halting
                            && active.load(Ordering::Acquire) == 0
                            && in_flight.load(Ordering::Acquire) == 0
                        {
                            active.fetch_add(1, Ordering::AcqRel);
                            let go_on = step(&mut node, &mut transport);
                            active.fetch_sub(1, Ordering::AcqRel);
                            if !go_on {
                                return counters(&*node);
                            }
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return counters(&*node),
                }
            }
        }));
    }
    drop(senders);

    let outcome = supervise_monitor(
        &mut monitor,
        &snapshots,
        &n_locals,
        config.termination,
        config.budget,
        config.poll_interval,
        || {
            for (i, h) in handles.iter().enumerate() {
                if h.is_finished() {
                    while drain_rx[i].try_recv().is_ok() {
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            handles.iter().all(|h| h.is_finished())
        },
    );
    stop.store(true, Ordering::Relaxed);
    let mut counters = Counters {
        solves: 0,
        messages: 0,
        flops: 0,
        coalesced: 0,
        any_capped: false,
    };
    for h in handles {
        // Propagate a worker panic verbatim rather than wrapping it: the
        // panic payload carries the original message and location.
        let (solves, messages, flops, capped) = match h.join() {
            Ok(counters) => counters,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        counters.solves += solves;
        counters.messages += messages;
        counters.flops += flops;
        counters.any_capped |= capped;
    }
    // Convergence under a tolerance rule follows the best observed metric
    // (snapshots can drift past the tolerance while workers keep going).
    let mut report = finish_report(
        BackendKind::Threaded,
        algo.kind(),
        monitor,
        a,
        b,
        config.termination,
        outcome.stop,
        outcome.elapsed_ms,
        counters,
        n_parts,
    );
    if let Some(tol) = metric_tol(config.termination) {
        report.converged = report.converged || outcome.best_metric <= tol;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Executor 3: the in-process work-stealing pool.
// ---------------------------------------------------------------------------

struct PoolBaselineState {
    node: Box<dyn AsyncNode>,
    drain: Vec<DtmMsg>,
    outbox: Vec<(usize, DtmMsg)>,
}

struct PoolBaselineCell {
    state: Mutex<PoolBaselineState>,
    inbox: Mutex<Vec<DtmMsg>>,
    scheduled: AtomicBool,
    halted: AtomicBool,
}

struct PoolBaselineShared {
    cells: Vec<PoolBaselineCell>,
    snapshots: Vec<SharedBlock>,
    stop: AtomicBool,
    halted_count: AtomicUsize,
}

fn pool_activate(shared: &Arc<PoolBaselineShared>, pool: &Arc<ThreadPool>, p: usize, force: bool) {
    let cell = &shared.cells[p];
    cell.scheduled.store(false, Ordering::Release);
    if shared.stop.load(Ordering::Acquire) || cell.halted.load(Ordering::Acquire) {
        return;
    }
    let mut st = cell.state.lock();
    let PoolBaselineState {
        node,
        drain,
        outbox,
    } = &mut *st;
    std::mem::swap(&mut *cell.inbox.lock(), drain);
    if drain.is_empty() && !force {
        return;
    }
    for msg in drain.drain(..) {
        node.absorb_owned(msg);
    }
    let control = node.step_node(outbox);
    shared.snapshots[p].publish(node.solution(), 1);
    if control.is_halt() {
        cell.halted.store(true, Ordering::Release);
        shared.halted_count.fetch_add(1, Ordering::AcqRel);
    }
    for (dst, msg) in outbox.drain(..) {
        let target = &shared.cells[dst];
        if target.halted.load(Ordering::Acquire) {
            continue;
        }
        target.inbox.lock().push(msg);
        pool_schedule(shared, pool, dst, false);
    }
}

fn pool_schedule(shared: &Arc<PoolBaselineShared>, pool: &Arc<ThreadPool>, p: usize, force: bool) {
    let cell = &shared.cells[p];
    if shared.stop.load(Ordering::Acquire) || cell.halted.load(Ordering::Acquire) {
        return;
    }
    if cell
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        let shared = shared.clone();
        let pool2 = pool.clone();
        pool.spawn(move || pool_activate(&shared, &pool2, p, force));
    }
}

/// Run a baseline on the in-process work-stealing pool: one task per
/// activation, delay realised by queueing/stealing latency.
///
/// # Errors
/// See [`solve_threaded`]; also fails on pool construction.
pub fn solve_workstealing(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    reference: Option<Vec<f64>>,
    config: &BaselineConfig,
) -> Result<SolveReport> {
    algo.validate()?;
    let pt = RowPartition::build(a, b, assignment)?;
    let nodes = algo.build_nodes(&pt, config);
    let n_parts = nodes.len();
    let n_locals: Vec<usize> = nodes.iter().map(|n| n.n_local()).collect();
    let reference = resolve_reference(a, b, reference, config.termination)?;
    let mut monitor = baseline_monitor(
        &pt,
        a,
        b,
        &reference,
        config.termination,
        config.sample_interval,
    );
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_threads(config.num_threads)
            .build()
            .map_err(|e| Error::Parse(format!("thread pool: {e}")))?,
    );
    let shared = Arc::new(PoolBaselineShared {
        snapshots: n_locals.iter().map(|&nl| SharedBlock::new(nl, 1)).collect(),
        cells: nodes
            .into_iter()
            .map(|node| PoolBaselineCell {
                state: Mutex::new(PoolBaselineState {
                    node,
                    drain: Vec::new(),
                    outbox: Vec::new(),
                }),
                inbox: Mutex::new(Vec::new()),
                scheduled: AtomicBool::new(false),
                halted: AtomicBool::new(false),
            })
            .collect(),
        stop: AtomicBool::new(false),
        halted_count: AtomicUsize::new(0),
    });
    for p in 0..n_parts {
        pool_schedule(&shared, &pool, p, true);
    }
    let self_halting = matches!(config.termination, Termination::LocalDelta { .. });
    let outcome = {
        let done = shared.clone();
        let pool2 = pool.clone();
        supervise_monitor(
            &mut monitor,
            &shared.snapshots,
            &n_locals,
            config.termination,
            config.budget,
            config.poll_interval,
            move || {
                if done.halted_count.load(Ordering::Acquire) == n_parts {
                    return true;
                }
                if self_halting && pool2.pending_tasks() == 0 {
                    for p in 0..n_parts {
                        pool_schedule(&done, &pool2, p, true);
                    }
                }
                false
            },
        )
    };
    shared.stop.store(true, Ordering::Release);
    pool.wait_quiescent();
    let mut counters = Counters {
        solves: 0,
        messages: 0,
        flops: 0,
        coalesced: 0,
        any_capped: false,
    };
    for cell in &shared.cells {
        let st = cell.state.lock();
        counters.solves += st.node.solves();
        counters.messages += st.node.messages_sent();
        counters.flops += st.node.flops();
        counters.any_capped |= st.node.capped();
    }
    let mut report = finish_report(
        BackendKind::WorkStealing,
        algo.kind(),
        monitor,
        a,
        b,
        config.termination,
        outcome.stop,
        outcome.elapsed_ms,
        counters,
        n_parts,
    );
    if let Some(tol) = metric_tol(config.termination) {
        report.converged = report.converged || outcome.best_metric <= tol;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// ExecutorBackend: the baselines as first-class backends over a split.
// ---------------------------------------------------------------------------

/// Derive a non-overlapping row assignment from an EVS split: every
/// global vertex goes to the lowest part holding a copy of it. This is
/// the "same partition" a DTM run uses, collapsed to the raw row
/// partition the point baselines need.
pub fn assignment_of(split: &SplitSystem) -> Vec<usize> {
    let mut owner = vec![usize::MAX; split.original_n];
    for (p, sd) in split.subdomains.iter().enumerate() {
        for &g in &sd.global_of_local {
            if owner[g] == usize::MAX {
                owner[g] = p;
            }
        }
    }
    debug_assert!(owner.iter().all(|&p| p != usize::MAX));
    owner
}

/// Randomized asynchronous Richardson as an [`ExecutorBackend`]: runs on
/// the simulated machine against the split's reconstructed system, on the
/// partition derived by [`assignment_of`].
#[derive(Debug, Clone, Default)]
pub struct RandomizedRichardson {
    /// Algorithm parameters.
    pub params: RichardsonParams,
}

impl ExecutorBackend for RandomizedRichardson {
    type Config = (Topology, BaselineConfig);

    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    fn solve(
        &self,
        split: &SplitSystem,
        reference: Option<Vec<f64>>,
        (topology, config): &Self::Config,
    ) -> Result<SolveReport> {
        let (a, b) = split.reconstruct();
        solve_sim(
            &BaselineAlgo::RandomizedRichardson(self.params.clone()),
            &a,
            &b,
            &assignment_of(split),
            topology.clone(),
            reference,
            config,
        )
    }
}

/// Hong's D-iteration as an [`ExecutorBackend`] (see
/// [`RandomizedRichardson`] for the mapping).
#[derive(Debug, Clone, Default)]
pub struct DIteration {
    /// Algorithm parameters.
    pub params: DIterationParams,
}

impl ExecutorBackend for DIteration {
    type Config = (Topology, BaselineConfig);

    fn kind(&self) -> BackendKind {
        BackendKind::Simulated
    }

    fn solve(
        &self,
        split: &SplitSystem,
        reference: Option<Vec<f64>>,
        (topology, config): &Self::Config,
    ) -> Result<SolveReport> {
        let (a, b) = split.reconstruct();
        solve_sim(
            &BaselineAlgo::DIteration(self.params.clone()),
            &a,
            &b,
            &assignment_of(split),
            topology.clone(),
            reference,
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_simnet::DelayModel;
    use dtm_sparse::generators;

    fn setup(nx: usize, k: usize, seed: u64) -> (Csr, Vec<f64>, Vec<usize>, Topology) {
        let a = generators::grid2d_random(nx, nx, 1.0, seed);
        let b = generators::random_rhs(nx * nx, seed + 1);
        let asg = dtm_graph::partition::grid_strips(nx, nx, k);
        let topo = Topology::ring(k).with_delays(&DelayModel::uniform_ms(5.0, 40.0, seed));
        (a, b, asg, topo)
    }

    fn direct(a: &Csr, b: &[f64]) -> Vec<f64> {
        SparseCholesky::factor_rcm(a).unwrap().solve(b)
    }

    fn sim_config(tol: f64) -> BaselineConfig {
        BaselineConfig {
            termination: Termination::Residual { tol },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        }
    }

    #[test]
    fn row_partition_covers_every_offdiagonal_once() {
        let (a, b, asg, _) = setup(6, 3, 11);
        let pt = RowPartition::build(&a, &b, &asg).unwrap();
        let total_entries: usize = pt
            .entries
            .iter()
            .flat_map(|rows| rows.iter().map(Vec::len))
            .sum();
        let offdiag = a.nnz() - a.n_rows();
        assert_eq!(total_entries, offdiag, "each off-diagonal appears once");
        // Value routes and diffusion grouping cover the same coupled pairs.
        for p in 0..pt.n_parts() {
            let route_dsts: Vec<usize> = pt.routes[p].iter().map(|&(d, _)| d).collect();
            let ext_dsts: Vec<usize> = pt.ext_by_part[p].iter().map(|&(d, _)| d).collect();
            for d in &ext_dsts {
                assert!(route_dsts.contains(d), "symmetric coupling {p}↔{d}");
            }
            // Remote diagonals mirror the owner's local diagonal.
            for (slot, &g) in pt.ext_globals[p].iter().enumerate() {
                let q = pt.ext_owner[p][slot];
                let l = pt.ext_local[p][slot];
                assert_eq!(pt.diag[q][l], pt.ext_diag[p][slot]);
                assert_eq!(pt.rows[q][l], g);
            }
        }
    }

    #[test]
    fn richardson_sim_converges_to_direct_solution() {
        let (a, b, asg, topo) = setup(8, 3, 21);
        let exact = direct(&a, &b);
        let algo = BaselineAlgo::RandomizedRichardson(RichardsonParams::default());
        let report = solve_sim(&algo, &a, &b, &asg, topo, None, &sim_config(1e-9)).unwrap();
        assert!(report.converged, "resid {}", report.final_residual);
        assert_eq!(report.algorithm, AlgorithmKind::RandomizedRichardson);
        assert_eq!(report.backend, BackendKind::Simulated);
        assert!(report.final_rms.is_nan(), "residual mode is reference-free");
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
        assert!(report.total_solves > 0);
        assert!(report.total_messages > 0);
        assert!(report.total_flops > 0);
    }

    #[test]
    fn richardson_polynomial_schedule_converges() {
        let (a, b, asg, topo) = setup(6, 2, 22);
        let exact = direct(&a, &b);
        let algo = BaselineAlgo::RandomizedRichardson(RichardsonParams {
            schedule: RelaxationSchedule::Polynomial {
                omega0: 1.0,
                power: 0.05,
            },
            ..Default::default()
        });
        let report = solve_sim(&algo, &a, &b, &asg, topo, None, &sim_config(1e-8)).unwrap();
        assert!(report.converged, "resid {}", report.final_residual);
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
    }

    #[test]
    fn diteration_sim_converges_and_retention_still_converges() {
        let (a, b, asg, topo) = setup(8, 3, 23);
        let exact = direct(&a, &b);
        for retention in [0.0, 0.3] {
            let algo = BaselineAlgo::DIteration(DIterationParams { retention });
            let report =
                solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &sim_config(1e-9)).unwrap();
            assert!(
                report.converged,
                "retention {retention}: resid {}",
                report.final_residual
            );
            assert_eq!(report.algorithm, AlgorithmKind::DIteration);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-6, "retention {retention}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn oracle_termination_reports_rms_for_both_algorithms() {
        let (a, b, asg, topo) = setup(6, 2, 24);
        let config = BaselineConfig {
            termination: Termination::OracleRms { tol: 1e-8 },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report = solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &config).unwrap();
            assert!(report.converged, "rms {}", report.final_rms);
            assert!(report.final_rms <= 1e-8);
            assert!(report.final_residual.is_finite());
        }
    }

    #[test]
    fn local_delta_self_halt_on_the_simulated_machine() {
        let (a, b, asg, topo) = setup(6, 2, 25);
        let config = BaselineConfig {
            termination: Termination::LocalDelta {
                tol: 1e-11,
                patience: 3,
            },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report = solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &config).unwrap();
            assert!(
                matches!(report.stop, StopKind::AllHalted | StopKind::Quiescent),
                "stop {:?}",
                report.stop
            );
            assert!(report.converged);
            assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
        }
    }

    #[test]
    fn threaded_driver_converges_for_both_algorithms() {
        let (a, b, asg, _) = setup(6, 3, 26);
        let exact = direct(&a, &b);
        let config = BaselineConfig {
            termination: Termination::Residual { tol: 1e-8 },
            budget: Duration::from_secs(60),
            ..Default::default()
        };
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report = solve_threaded(&algo, &a, &b, &asg, None, &config).unwrap();
            assert!(report.converged, "resid {}", report.final_residual);
            assert_eq!(report.backend, BackendKind::Threaded);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-5, "{u} vs {v}");
            }
            assert!(report.total_flops > 0);
        }
    }

    #[test]
    fn workstealing_driver_converges_for_both_algorithms() {
        let (a, b, asg, _) = setup(6, 3, 27);
        let exact = direct(&a, &b);
        let config = BaselineConfig {
            termination: Termination::Residual { tol: 1e-8 },
            budget: Duration::from_secs(60),
            num_threads: 2,
            ..Default::default()
        };
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report = solve_workstealing(&algo, &a, &b, &asg, None, &config).unwrap();
            assert!(report.converged, "resid {}", report.final_residual);
            assert_eq!(report.backend, BackendKind::WorkStealing);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-5, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn executor_backend_trait_runs_baselines_over_a_split() {
        use dtm_graph::evs::{split as evs_split, EvsOptions};
        use dtm_graph::{ElectricGraph, PartitionPlan};
        let a = generators::grid2d_random(7, 7, 1.0, 31);
        let b = generators::random_rhs(49, 32);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = dtm_graph::partition::grid_strips(7, 7, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(5.0));
        // The derived assignment matches the plan for a non-overlapping
        // strip split restricted to first-owner semantics.
        let derived = assignment_of(&ss);
        assert_eq!(derived.len(), 49);
        let config = sim_config(1e-8);
        let exact = direct(&a, &b);
        for report in [
            RandomizedRichardson::default()
                .solve(&ss, None, &(topo.clone(), config.clone()))
                .unwrap(),
            DIteration::default()
                .solve(&ss, None, &(topo.clone(), config.clone()))
                .unwrap(),
        ] {
            assert!(report.converged, "resid {}", report.final_residual);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-5, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn invalid_parameters_and_machines_are_typed_errors() {
        let (a, b, asg, _) = setup(6, 3, 33);
        let no_links = Topology::from_links(3, vec![]);
        let algo = BaselineAlgo::RandomizedRichardson(RichardsonParams::default());
        assert!(solve_sim(&algo, &a, &b, &asg, no_links, None, &sim_config(1e-6)).is_err());
        let wrong_count = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
        assert!(solve_sim(&algo, &a, &b, &asg, wrong_count, None, &sim_config(1e-6)).is_err());
        let bad_retention = BaselineAlgo::DIteration(DIterationParams { retention: 1.0 });
        let topo = Topology::ring(3).with_delays(&DelayModel::fixed_ms(1.0));
        assert!(solve_sim(
            &bad_retention,
            &a,
            &b,
            &asg,
            topo.clone(),
            None,
            &sim_config(1e-6)
        )
        .is_err());
        let bad_schedule = BaselineAlgo::RandomizedRichardson(RichardsonParams {
            schedule: RelaxationSchedule::Constant(0.0),
            ..Default::default()
        });
        assert!(solve_sim(&bad_schedule, &a, &b, &asg, topo, None, &sim_config(1e-6)).is_err());
        // Wrong assignment length.
        let topo3 = Topology::ring(3).with_delays(&DelayModel::fixed_ms(1.0));
        assert!(solve_sim(&algo, &a, &b, &asg[..10], topo3, None, &sim_config(1e-6)).is_err());
    }

    #[test]
    fn seeded_update_order_is_reproducible() {
        let (a, b, asg, topo) = setup(6, 2, 34);
        let algo = BaselineAlgo::RandomizedRichardson(RichardsonParams {
            seed: 99,
            ..Default::default()
        });
        let r1 = solve_sim(&algo, &a, &b, &asg, topo.clone(), None, &sim_config(1e-8)).unwrap();
        let r2 = solve_sim(&algo, &a, &b, &asg, topo, None, &sim_config(1e-8)).unwrap();
        assert_eq!(r1.total_solves, r2.total_solves);
        assert_eq!(r1.total_messages, r2.total_messages);
        assert_eq!(r1.solution, r2.solution, "deterministic per seed");
    }
}
