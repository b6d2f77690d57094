//! The asynchronous baselines: **randomized asynchronous Richardson**
//! (Avron et al. 2013, arXiv:1304.6475), **Hong's D-iteration** (2012,
//! arXiv:1202.3108) and classical **asynchronous block-Jacobi** (refs
//! \[17\]–\[19\] of the paper) as first-class peer solvers of DTM.
//!
//! The paper's central claim is that DTM's directed waves converge where
//! synchronous exchange stalls — but claims need competitors. The schemes
//! here are genuinely asynchronous methods from the literature, and all
//! fit the DTM runtime's contract exactly:
//!
//! * they are **node state machines** ([`AsyncNode`]) over the same
//!   [`DtmMsg`] wire format and [`Transport`] trait the DTM runtime uses
//!   (a [`PortUpdate`] is just a receiver-addressed scalar; Richardson and
//!   block-Jacobi overwrite boundary values, D-iteration accumulates fluid
//!   — all valid under the per-pair-FIFO transport contract);
//! * they run on **all three executor fabrics** — the deterministic
//!   simulated machine, one OS thread per partition, and the
//!   work-stealing pool — through the drivers in this module;
//! * they report through the same [`SolveReport`] vocabulary, with the
//!   uniform message/activation/flop counters, so `repro compare` can pit
//!   every algorithm **message for message on identical machines**
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
//!
//! **Block-Jacobi** (per node): factor the diagonal block `A_pp` once; per
//! activation solve `x_p = A_pp⁻¹ (b_p − A_p,ext · x_ext)` against whatever
//! remote potentials have arrived, then scatter the owned boundary values
//! — raw potentials, no transmission lines: the classical asynchronous
//! iteration DTM's introduction argues against. The same nodes in
//! lock-step rounds are **synchronous block-Jacobi** ([`solve_sync`]), the
//! barrier-priced family the introduction measures DTM against.

use crate::fabric::{self, Fabric, Pool, Threads, WallRun};
use crate::local::Factor;
use crate::report::{AlgorithmKind, BackendKind, SolveReport};
use crate::runtime::{
    self, AsyncNode, DtmMsg, GatherMap, NodeControl, PortUpdate, RunSpec, SelfHalt, Termination,
    Transport,
};
use crate::solver::{self, ComputeModel, SimNode, SimRun};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, Topology};
use dtm_sparse::{Csr, Error, Result};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

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

    /// Send part `p`'s owned boundary values of `x` to every coupled
    /// neighbour and return how far they moved since the previous scatter
    /// (`prev`; ∞ on the first) — the outgoing delta of the LocalDelta
    /// self-halt (Table-1-style rule, shared vocabulary).
    fn scatter_boundary(
        &self,
        p: usize,
        x: &[f64],
        prev: &mut Vec<f64>,
        transport: &mut dyn Transport,
    ) -> f64 {
        let mut delta = 0.0_f64;
        let mut bi = 0usize;
        for (dst, pairs) in &self.routes[p] {
            let updates: Vec<PortUpdate> = pairs
                .iter()
                .map(|&(slot, l)| PortUpdate::scalar(slot, x[l], 0.0))
                .collect();
            for u in &updates {
                let v = u.u[0];
                if bi < prev.len() {
                    delta = delta.max((v - prev[bi]).abs());
                    prev[bi] = v;
                } else {
                    prev.push(v);
                    delta = f64::INFINITY;
                }
                bi += 1;
            }
            transport.send(*dst, DtmMsg { updates });
        }
        delta
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
    /// Asynchronous block-Jacobi (refs \[17\]–\[19\] of the paper).
    BlockJacobi,
}

impl BaselineAlgo {
    /// The report tag of this algorithm.
    pub fn kind(&self) -> AlgorithmKind {
        match self {
            BaselineAlgo::RandomizedRichardson(_) => AlgorithmKind::RandomizedRichardson,
            BaselineAlgo::DIteration(_) => AlgorithmKind::DIteration,
            BaselineAlgo::BlockJacobi => AlgorithmKind::BlockJacobiAsync,
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
            BaselineAlgo::BlockJacobi => Ok(()),
        }
    }

    /// One node per partition (block-Jacobi factors its diagonal blocks of
    /// `a` here, which can fail).
    fn build_nodes(
        &self,
        a: &Csr,
        pt: &Arc<RowPartition>,
        config: &BaselineConfig,
    ) -> Result<Vec<BaselineNode>> {
        (0..pt.n_parts())
            .map(|p| {
                let algo: Box<dyn Relaxation> = match self {
                    BaselineAlgo::RandomizedRichardson(params) => {
                        Box::new(RichardsonState::new(p, pt, params))
                    }
                    BaselineAlgo::DIteration(params) => {
                        Box::new(DIterationState::new(p, pt, params))
                    }
                    BaselineAlgo::BlockJacobi => Box::new(BlockJacobiState::new(p, a, pt)?),
                };
                Ok(BaselineNode {
                    part: p,
                    pt: pt.clone(),
                    algo,
                    halt: SelfHalt::new(config.termination, config.max_solves_per_node),
                    solves: 0,
                    messages: 0,
                    flops: 0,
                })
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
            num_threads: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The node: identity, counters and the self-halt rule once, the algorithm
// behind a three-method trait.
// ---------------------------------------------------------------------------

/// What one activation reports back to its [`BaselineNode`].
struct Activation {
    /// How far the outgoing values moved — the LocalDelta self-halt input.
    delta: f64,
    messages: u64,
    flops: u64,
}

/// The algorithm half of a baseline node: what an activation does to part
/// `p`'s owned rows of `pt`.
trait Relaxation: Send {
    /// Current estimate of the owned rows.
    fn solution(&self) -> &[f64];

    /// Merge one incoming message's receiver-addressed scalars.
    fn absorb(&mut self, updates: &[PortUpdate]);

    /// Update the owned rows against the currently held remote values and
    /// scatter through `transport`.
    fn activate(
        &mut self,
        pt: &RowPartition,
        p: usize,
        transport: &mut dyn Transport,
    ) -> Activation;

    /// Size of one activation's working set: the owned rows' nonzeros,
    /// unless the algorithm sweeps something else.
    fn work_nnz(&self, pt: &RowPartition, p: usize) -> usize {
        pt.work_nnz[p]
    }
}

/// One partition's node of any baseline algorithm.
pub struct BaselineNode {
    part: usize,
    pt: Arc<RowPartition>,
    algo: Box<dyn Relaxation>,
    halt: SelfHalt,
    solves: u64,
    messages: u64,
    flops: u64,
}

impl AsyncNode for BaselineNode {
    fn part(&self) -> usize {
        self.part
    }

    fn n_local(&self) -> usize {
        self.algo.solution().len()
    }

    fn solution(&self) -> &[f64] {
        self.algo.solution()
    }

    fn absorb_owned(&mut self, msg: DtmMsg) {
        self.algo.absorb(&msg.updates);
    }

    fn step_node(&mut self, transport: &mut dyn Transport) -> NodeControl {
        let done = self.algo.activate(&self.pt, self.part, transport);
        self.solves += 1;
        self.messages += done.messages;
        self.flops += done.flops;
        self.halt.after_step(done.delta, self.solves as usize)
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
        self.algo.work_nnz(&self.pt, self.part)
    }

    fn capped(&self) -> bool {
        self.halt.capped()
    }
}

// ---------------------------------------------------------------------------
// Algorithm 1: randomized asynchronous Richardson.
// ---------------------------------------------------------------------------

struct RichardsonState {
    x: Vec<f64>,
    ext: Vec<f64>,
    rng: StdRng,
    schedule: RelaxationSchedule,
    updates_per_step: usize,
    t: u64,
    prev_boundary: Vec<f64>,
}

impl RichardsonState {
    fn new(part: usize, pt: &RowPartition, params: &RichardsonParams) -> Self {
        let nl = pt.rows[part].len();
        Self {
            x: vec![0.0; nl],
            ext: vec![0.0; pt.ext_globals[part].len()],
            rng: StdRng::seed_from_u64(params.seed.wrapping_add(part as u64)),
            schedule: params.schedule,
            updates_per_step: match params.updates_per_activation {
                0 => nl,
                updates => updates,
            },
            t: 0,
            prev_boundary: Vec::new(),
        }
    }
}

impl Relaxation for RichardsonState {
    fn solution(&self) -> &[f64] {
        &self.x
    }

    fn absorb(&mut self, updates: &[PortUpdate]) {
        // Boundary values overwrite: use whatever is freshest (the
        // classical totally-asynchronous iteration semantics).
        for u in updates {
            self.ext[u.port] = u.u[0];
        }
    }

    fn activate(
        &mut self,
        pt: &RowPartition,
        p: usize,
        transport: &mut dyn Transport,
    ) -> Activation {
        let nl = self.x.len();
        let mut flops = 0;
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
                flops += 2 * pt.entries[p][i].len() as u64 + 6;
            }
        }
        Activation {
            delta: pt.scatter_boundary(p, &self.x, &mut self.prev_boundary, transport),
            messages: pt.routes[p].len() as u64,
            flops,
        }
    }
}

// ---------------------------------------------------------------------------
// Algorithm 2: Hong's D-iteration.
// ---------------------------------------------------------------------------

struct DIterationState {
    /// Undiffused residual mass per owned row.
    fluid: Vec<f64>,
    /// Accumulated history — the published solution estimate.
    hist: Vec<f64>,
    retention: f64,
    /// Per ext slot: outgoing fluid accumulated this activation.
    buckets: Vec<f64>,
}

impl DIterationState {
    fn new(part: usize, pt: &RowPartition, params: &DIterationParams) -> Self {
        // Initial fluid is the Jacobi source c = D⁻¹ b: the invariant
        // x* = H + (I − J)⁻¹ F then holds from the first instant.
        let fluid: Vec<f64> = pt.rhs[part]
            .iter()
            .zip(&pt.diag[part])
            .map(|(b, d)| b / d)
            .collect();
        Self {
            hist: vec![0.0; fluid.len()],
            fluid,
            retention: params.retention,
            buckets: vec![0.0; pt.ext_globals[part].len()],
        }
    }
}

impl Relaxation for DIterationState {
    fn solution(&self) -> &[f64] {
        &self.hist
    }

    fn absorb(&mut self, updates: &[PortUpdate]) {
        // Fluid shares accumulate (each diffusion is a one-shot transfer
        // of mass; the FIFO exactly-once transport keeps the invariant).
        for u in updates {
            self.fluid[u.port] += u.u[0];
        }
    }

    fn activate(
        &mut self,
        pt: &RowPartition,
        p: usize,
        transport: &mut dyn Transport,
    ) -> Activation {
        let nl = self.hist.len();
        self.buckets.iter_mut().for_each(|b| *b = 0.0);
        let mut done = Activation {
            delta: 0.0,
            messages: 0,
            flops: 0,
        };
        for i in 0..nl {
            let f = self.fluid[i];
            if f == 0.0 {
                continue;
            }
            let m = (1.0 - self.retention) * f;
            self.hist[i] += m;
            self.fluid[i] -= m;
            done.delta = done.delta.max(m.abs());
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
            done.flops += 2 * pt.entries[p][i].len() as u64 + 4;
        }
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
                done.messages += 1;
            }
        }
        done
    }
}

// ---------------------------------------------------------------------------
// Algorithm 3: asynchronous block-Jacobi.
// ---------------------------------------------------------------------------

struct BlockJacobiState {
    /// Factor of the diagonal block `A_pp`.
    factor: Factor,
    x: Vec<f64>,
    ext: Vec<f64>,
    scratch: Vec<f64>,
    /// A pair of triangular substitutions over the factor (2 flops per
    /// stored entry per sweep) plus the coupling fold into the right-hand
    /// side.
    flops_per_solve: u64,
    prev_boundary: Vec<f64>,
}

impl BlockJacobiState {
    fn new(part: usize, a: &Csr, pt: &RowPartition) -> Result<Self> {
        let nl = pt.rows[part].len();
        let factor = Factor::auto(&a.principal_submatrix(&pt.rows[part]))?;
        let coupling = pt.entries[part]
            .iter()
            .flatten()
            .filter(|&&(j, _)| j >= nl)
            .count();
        Ok(Self {
            flops_per_solve: 4 * factor.nnz() as u64 + 2 * coupling as u64,
            factor,
            x: vec![0.0; nl],
            ext: vec![0.0; pt.ext_globals[part].len()],
            scratch: Vec::new(),
            prev_boundary: Vec::new(),
        })
    }
}

impl Relaxation for BlockJacobiState {
    fn solution(&self) -> &[f64] {
        &self.x
    }

    fn absorb(&mut self, updates: &[PortUpdate]) {
        // Boundary potentials overwrite, as in Richardson.
        for u in updates {
            self.ext[u.port] = u.u[0];
        }
    }

    fn activate(
        &mut self,
        pt: &RowPartition,
        p: usize,
        transport: &mut dyn Transport,
    ) -> Activation {
        let nl = self.x.len();
        // x_p = A_pp⁻¹ (b_p − A_p,ext · x_ext)
        self.x.copy_from_slice(&pt.rhs[p]);
        for (xi, row) in self.x.iter_mut().zip(&pt.entries[p]) {
            for &(j, w) in row.iter().filter(|&&(j, _)| j >= nl) {
                *xi -= w * self.ext[j - nl];
            }
        }
        self.factor
            .solve_block_with_scratch(&mut self.x, 1, &mut self.scratch);
        Activation {
            delta: pt.scatter_boundary(p, &self.x, &mut self.prev_boundary, transport),
            messages: pt.routes[p].len() as u64,
            flops: self.flops_per_solve,
        }
    }

    fn work_nnz(&self, _: &RowPartition, _: usize) -> usize {
        self.factor.nnz()
    }
}

// ---------------------------------------------------------------------------
// Drivers: the three executors, each a call into the shared machinery.
// ---------------------------------------------------------------------------

/// A validated baseline problem — everything the drivers share once the
/// nodes are built.
struct Prepared<'a> {
    algo: &'a BaselineAlgo,
    a: &'a Csr,
    b: &'a [f64],
    config: &'a BaselineConfig,
    pt: Arc<RowPartition>,
    /// Partitions don't overlap: every global row has exactly one copy.
    copy_count: Vec<usize>,
    /// The opt-in oracle reference ([`runtime::resolve_references`]).
    references: Option<Vec<Vec<f64>>>,
}

impl<'a> Prepared<'a> {
    /// Validate, partition and build one node per part.
    fn new(
        algo: &'a BaselineAlgo,
        a: &'a Csr,
        b: &'a [f64],
        assignment: &[usize],
        reference: Option<Vec<f64>>,
        config: &'a BaselineConfig,
    ) -> Result<(Self, Vec<BaselineNode>)> {
        algo.validate()?;
        let pt = RowPartition::build(a, b, assignment)?;
        let nodes = algo.build_nodes(a, &pt, config)?;
        let mut prepared = Self {
            algo,
            a,
            b,
            config,
            pt,
            copy_count: vec![1; a.n_rows()],
            references: None,
        };
        prepared.references = runtime::resolve_references(
            &prepared.map(),
            config.termination,
            reference.map(|r| vec![r]),
        )?;
        Ok((prepared, nodes))
    }

    /// The gather map of this partition over `A x = b`.
    fn map(&self) -> GatherMap<'_> {
        GatherMap::new(
            self.pt.rows.iter().map(Vec::as_slice).collect(),
            &self.copy_count,
            self.a,
            vec![self.b],
        )
    }

    /// Whether nodes halt themselves (so an idle fabric must kick them).
    fn self_halting(&self) -> bool {
        matches!(self.config.termination, Termination::LocalDelta { .. })
    }

    /// What a run of this problem is scored against, on any executor.
    fn spec(&self) -> RunSpec<'_> {
        RunSpec {
            algorithm: self.algo.kind(),
            termination: self.config.termination,
            map: self.map(),
            references: self.references.as_deref(),
        }
    }

    /// Supervise a started wall-clock `fabric` over this problem.
    fn run_wallclock(&self, fabric: impl Fabric, backend: BackendKind) -> SolveReport {
        fabric::run(
            fabric,
            &WallRun {
                spec: self.spec(),
                backend,
                budget: self.config.budget,
            },
        )
    }
}

/// One baseline node on one simulated processor — the same adapter DTM
/// uses.
pub type SimBaselineNode = SimNode<BaselineNode>;

/// Wrap nodes with their per-activation compute durations (baseline
/// pipelines are scalar: one RHS column per sweep).
fn sim_nodes(nodes: Vec<BaselineNode>, config: &BaselineConfig) -> Vec<SimBaselineNode> {
    nodes
        .into_iter()
        .map(|inner| SimNode {
            compute: config.compute.duration_for_block(inner.work_nnz(), 1),
            inner,
        })
        .collect()
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
    algo.validate()?;
    let pt = RowPartition::build(a, b, assignment)?;
    pt.check_links(topology)?;
    Ok(sim_nodes(algo.build_nodes(a, &pt, config)?, config))
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
    let (prepared, nodes) = Prepared::new(algo, a, b, assignment, reference, config)?;
    prepared.pt.check_links(&topology)?;
    Ok(solver::run_engine(
        topology,
        sim_nodes(nodes, config),
        &SimRun {
            spec: prepared.spec(),
            horizon: config.horizon,
            sample_interval: config.sample_interval,
        },
    ))
}

/// Synchronous block-Jacobi (additive Schwarz, overlap 0): the
/// block-Jacobi nodes in lock-step rounds on the simulated machine. Every
/// round steps every block against the previous round's potentials and
/// costs the slowest block's compute plus twice `topology`'s largest link
/// delay — one exchange, one barrier; the horizon bounds the rounds.
///
/// # Errors
/// Fails on dimension mismatches or factorization failure.
pub fn solve_sync(
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: &Topology,
    reference: Option<Vec<f64>>,
    config: &BaselineConfig,
) -> Result<SolveReport> {
    let algo = BaselineAlgo::BlockJacobi;
    let (prepared, nodes) = Prepared::new(&algo, a, b, assignment, reference, config)?;
    let slowest = nodes
        .iter()
        .map(|n| config.compute.duration_for_block(n.work_nnz(), 1))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let round = slowest + topology.delay_range().1.saturating_mul(2);
    let max_rounds = config.horizon.as_nanos() / round.as_nanos().max(1);
    let spec = RunSpec {
        algorithm: AlgorithmKind::BlockJacobiSync,
        ..prepared.spec()
    };
    Ok(solver::run_lockstep(
        nodes,
        round,
        usize::try_from(max_rounds).unwrap_or(usize::MAX),
        spec,
    ))
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
    let (prepared, nodes) = Prepared::new(algo, a, b, assignment, reference, config)?;
    let threads = Threads::start(nodes, 1, None, prepared.self_halting(), fabric::no_hook());
    Ok(prepared.run_wallclock(threads, BackendKind::Threaded))
}

/// Run a baseline on the in-process worker pool ([`Pool`]): delay realised
/// by the receiver's wait in the pool's ready queue.
///
/// # Errors
/// See [`solve_threaded`].
pub fn solve_workstealing(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    reference: Option<Vec<f64>>,
    config: &BaselineConfig,
) -> Result<SolveReport> {
    let (prepared, nodes) = Prepared::new(algo, a, b, assignment, reference, config)?;
    let kick_idle = prepared.self_halting();
    let pool = Pool::start(nodes, 1, config.num_threads, kick_idle, fabric::no_hook());
    Ok(prepared.run_wallclock(pool, BackendKind::WorkStealing))
}

// ---------------------------------------------------------------------------
// The baselines over an EVS split: the same partition a DTM run uses.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StopKind;
    use dtm_simnet::{DelayModel, SimTime};
    use dtm_sparse::{generators, SparseCholesky};

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
                let owner = pt.ext_by_part[p].iter().find(|(_, s)| s.contains(&slot));
                let q = owner.unwrap().0;
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
    fn threaded_local_delta_self_halts_for_both_algorithms() {
        let (a, b, asg, _) = setup(6, 2, 28);
        let config = BaselineConfig {
            termination: Termination::LocalDelta {
                tol: 1e-11,
                patience: 3,
            },
            budget: Duration::from_secs(60),
            ..Default::default()
        };
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
        ] {
            let report = solve_threaded(&algo, &a, &b, &asg, None, &config).unwrap();
            assert_eq!(report.stop, StopKind::AllHalted, "{:?}", algo.kind());
            assert!(report.converged);
            assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
        }
    }

    #[test]
    fn block_jacobi_local_delta_self_halts_on_every_fabric() {
        let (a, b, asg, topo) = setup(6, 2, 29);
        let config = BaselineConfig {
            termination: Termination::LocalDelta {
                tol: 1e-11,
                patience: 3,
            },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
            budget: Duration::from_secs(60),
            num_threads: 2,
            ..Default::default()
        };
        let algo = BaselineAlgo::BlockJacobi;
        for report in [
            solve_sim(&algo, &a, &b, &asg, topo, None, &config).unwrap(),
            solve_threaded(&algo, &a, &b, &asg, None, &config).unwrap(),
            solve_workstealing(&algo, &a, &b, &asg, None, &config).unwrap(),
        ] {
            assert_eq!(report.algorithm, AlgorithmKind::BlockJacobiAsync);
            assert_eq!(report.stop, StopKind::AllHalted, "{:?}", report.backend);
            assert!(report.converged);
            assert!(report.final_rms < 1e-6, "rms {}", report.final_rms);
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
        for algo in [
            BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
            BaselineAlgo::DIteration(DIterationParams::default()),
            BaselineAlgo::BlockJacobi,
        ] {
            let (a, b) = ss.reconstruct();
            let report = solve_sim(&algo, &a, &b, &derived, topo.clone(), None, &config).unwrap();
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

    /// `config` with an RMS tolerance and a 1 ms block solve.
    fn oracle_config(tol: f64) -> BaselineConfig {
        BaselineConfig {
            termination: Termination::OracleRms { tol },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            ..Default::default()
        }
    }

    #[test]
    fn sync_block_jacobi_converges_and_charges_barrier() {
        let (a, b, asg, topo) = setup(8, 4, 52);
        let report = solve_sync(&a, &b, &asg, &topo, None, &oracle_config(1e-8)).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert_eq!(report.algorithm, AlgorithmKind::BlockJacobiSync);
        // Every round costs the slowest compute plus one exchange and one
        // barrier at the worst link delay.
        let round = SimDuration::from_millis_f64(1.0) + topo.delay_range().1.saturating_mul(2);
        let rounds = report.series.len() as u64;
        assert_eq!(report.series[0].0, round.as_millis_f64());
        assert_eq!(
            report.final_time_ms,
            round.saturating_mul(rounds).as_millis_f64()
        );
        // Every block steps every round; the last may stop part-way.
        assert!(report.total_solves > 4 * (rounds - 1) && report.total_solves <= 4 * rounds);
    }

    #[test]
    fn sync_and_async_agree_on_solution() {
        let (a, b, asg, topo) = setup(7, 3, 53);
        let config = oracle_config(1e-9);
        let s = solve_sync(&a, &b, &asg, &topo, None, &config).unwrap();
        let r = solve_sim(
            &BaselineAlgo::BlockJacobi,
            &a,
            &b,
            &asg,
            topo,
            None,
            &config,
        )
        .unwrap();
        assert!(s.converged && r.converged);
        for (u, v) in s.solution.iter().zip(&r.solution) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    /// The lock-step machine is the synchronous round loop: block-Jacobi
    /// run 12 rounds at tolerance 0 by [`solve_sync`] and by a plain loop
    /// — every node steps, then every message is delivered — agree bit for
    /// bit, in the solution and in the metric after every round.
    #[test]
    fn lockstep_machine_is_the_synchronous_round_loop_bit_for_bit() {
        let (a, b, asg, topo) = setup(8, 4, 35);
        let config = BaselineConfig {
            max_solves_per_node: 12,
            ..oracle_config(0.0)
        };
        let report = solve_sync(&a, &b, &asg, &topo, None, &config).unwrap();

        let algo = BaselineAlgo::BlockJacobi;
        let (prepared, mut nodes) = Prepared::new(&algo, &a, &b, &asg, None, &config).unwrap();
        let mut monitor = prepared.spec().monitor(SimDuration::ZERO);
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
        let mut series = Vec::new();
        for _ in 0..12 {
            let mut metric = f64::NAN;
            for &p in &order {
                nodes[p].step_node(&mut outbox);
                metric = monitor.update_part(p, SimTime::ZERO, nodes[p].solution());
            }
            series.push(metric.to_bits());
            // The engine wakes receivers in the order of their first
            // delivery; the scorer's sums follow that order.
            order.clear();
            for (dst, msg) in outbox.drain(..) {
                if !order.contains(&dst) {
                    order.push(dst);
                }
                nodes[dst].absorb_owned(msg);
            }
        }
        let bits: Vec<u64> = report.series.iter().map(|&(_, m)| m.to_bits()).collect();
        assert_eq!(bits, series, "per-round metric");
        assert_eq!(report.solution, monitor.retire_all()[0].solution);
        assert_eq!(report.total_solves, 12 * 4);
    }

    #[test]
    fn solve_cap_is_not_convergence() {
        // Three solves can never build a patience-4 streak: every node is
        // retired by the cap, and "everyone stopped" is not success.
        let a = generators::grid2d_laplacian(9, 9);
        let b = vec![1.0; 81];
        let asg = dtm_graph::partition::grid_blocks(9, 9, 2, 2);
        let topo = Topology::mesh(2, 2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = BaselineConfig {
            termination: Termination::LocalDelta {
                tol: 1e-14,
                patience: 4,
            },
            max_solves_per_node: 3,
            ..oracle_config(0.0)
        };
        for report in [
            solve_sim(
                &BaselineAlgo::BlockJacobi,
                &a,
                &b,
                &asg,
                topo.clone(),
                None,
                &config,
            ),
            solve_sync(&a, &b, &asg, &topo, None, &config),
        ] {
            let report = report.unwrap();
            assert_eq!(report.stop, StopKind::AllHalted);
            assert!(!report.converged, "rms {}", report.final_rms);
            assert_eq!(report.total_solves, 12);
        }
    }

    #[test]
    fn short_rhs_is_a_typed_error_on_both_entry_points() {
        let (a, b, asg, topo) = setup(6, 2, 56);
        let short = &b[..b.len() - 1];
        let config = BaselineConfig::default();
        let algo = BaselineAlgo::BlockJacobi;
        for err in [
            solve_sim(&algo, &a, short, &asg, topo.clone(), None, &config).unwrap_err(),
            solve_sync(&a, short, &asg, &topo, None, &config).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    Error::DimensionMismatch {
                        context: "baseline right-hand side",
                        expected: 36,
                        actual: 35,
                    }
                ),
                "{err}"
            );
        }
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
