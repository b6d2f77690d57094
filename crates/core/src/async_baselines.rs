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
//! * they run on **every [`Machine`]** — the deterministic simulated
//!   machine, the lock-step one, the worker pool behind a delay router and
//!   the bare worker pool — through one entry point, [`solve`], that takes the same
//!   machine value a DTM run takes;
//! * they report through the same [`SolveReport`] vocabulary, with the
//!   uniform message/activation/flop counters, so `repro compare` can pit
//!   every algorithm **message for message on identical machines**
//!   (same partition, same delay topology, same
//!   [`Termination::Residual`](crate::runtime::Termination::Residual) rule — no oracle taints the comparison).
//!
//! A run reads the stopping rule and the solve cap from the machine's
//! [`CommonConfig`]; its `impedance` is a DTM setting, and the baselines
//! ignore it.
//!
//! # The algorithms
//!
//! **Randomized Richardson** (per node): own a block of rows; per
//! activation perform one expected sweep — `n_local` exact coordinate
//! relaxations `x_i ← x_i + (b_i − Σ_j a_ij x_j)/a_ii` on uniformly sampled
//! owned rows, against whatever remote boundary values have arrived so
//! far — then scatter the owned boundary values to every coupled
//! neighbour. This is Avron et al.'s method at unit step; the seed of
//! [`RichardsonParams`] names the update-order stream.
//!
//! **D-iteration** (per node): maintain a *fluid* vector `F` (initially
//! the Jacobi source `D⁻¹b`) and a *history* `H` (the published solution
//! estimate). Per activation each owned row diffuses all of its fluid:
//! the mass moves into `H_i` and spreads `−a_ji/a_jj` fractions into the
//! neighbours' fluid — remote shares are accumulated per destination row
//! and shipped as messages. The invariant `x* = H + (I − J)⁻¹F` holds
//! after every diffusion, in any order, with any message interleaving —
//! which is exactly why the scheme is asynchronous.
//!
//! **Block-Jacobi** (per node): factor the diagonal block `A_pp` once; per
//! activation solve `x_p = A_pp⁻¹ (b_p − A_p,ext · x_ext)` against whatever
//! remote potentials have arrived, then scatter the owned boundary values
//! — raw potentials, no transmission lines: the classical asynchronous
//! iteration DTM's introduction argues against. The same nodes on
//! [`Machine::LockStep`] are **synchronous block-Jacobi**, the
//! barrier-priced family the introduction measures DTM against.

use crate::local::Factor;
use crate::machine::Machine;
use crate::report::{AlgorithmKind, SolveReport};
use crate::runtime::{
    self, AsyncNode, CommonConfig, DtmMsg, GatherMap, NodeControl, PortUpdate, RunSpec, SelfHalt,
    Transport,
};
use crate::solver::{self, DtmConfig, SimNode};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::{vector, Csr, Error, Result};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

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
        vector::require_finite_csr("baseline matrix", a)?;
        vector::require_finite("baseline right-hand side", b)?;
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

    /// [`solver::check_links`] over every directed pair both algorithms
    /// may send over (coupling is symmetric for a symmetric matrix, so one
    /// check covers both the value-exchange and the diffusion direction).
    fn check_links(&self, topology: &Topology) -> Result<()> {
        let routes = self.routes.iter().enumerate();
        let pairs = routes.flat_map(|(p, r)| r.iter().map(move |&(q, _)| (p, q)));
        solver::check_links(topology, self.n_parts(), pairs)
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

/// Parameters of the randomized Richardson baseline.
#[derive(Debug, Clone)]
pub struct RichardsonParams {
    /// Seed of the per-node update-order stream (node `p` draws from
    /// `seed + p`, so runs are reproducible yet nodes are decorrelated).
    pub seed: u64,
}

impl Default for RichardsonParams {
    fn default() -> Self {
        Self { seed: 7 }
    }
}

/// Which baseline algorithm to run.
#[derive(Debug, Clone)]
pub enum BaselineAlgo {
    /// Randomized asynchronous Richardson (Avron et al. 2013).
    RandomizedRichardson(RichardsonParams),
    /// Hong's D-iteration (2012).
    DIteration,
    /// Asynchronous block-Jacobi (refs \[17\]–\[19\] of the paper).
    BlockJacobi,
}

impl BaselineAlgo {
    /// The report tag of this algorithm.
    pub fn kind(&self) -> AlgorithmKind {
        match self {
            BaselineAlgo::RandomizedRichardson(_) => AlgorithmKind::RandomizedRichardson,
            BaselineAlgo::DIteration => AlgorithmKind::DIteration,
            BaselineAlgo::BlockJacobi => AlgorithmKind::BlockJacobiAsync,
        }
    }

    /// One node per partition (block-Jacobi factors its diagonal blocks of
    /// `a` here, which can fail).
    fn build_nodes(
        &self,
        a: &Csr,
        pt: &Arc<RowPartition>,
        common: &CommonConfig,
    ) -> Result<Vec<BaselineNode>> {
        (0..pt.n_parts())
            .map(|p| {
                let algo: Box<dyn Relaxation> = match self {
                    BaselineAlgo::RandomizedRichardson(params) => {
                        Box::new(RichardsonState::new(p, pt, params))
                    }
                    BaselineAlgo::DIteration => Box::new(DIterationState::new(p, pt)),
                    BaselineAlgo::BlockJacobi => Box::new(BlockJacobiState::new(p, a, pt)?),
                };
                Ok(BaselineNode {
                    part: p,
                    pt: pt.clone(),
                    algo,
                    halt: SelfHalt::new(common.termination, common.max_solves_per_node),
                    solves: 0,
                    messages: 0,
                    flops: 0,
                })
            })
            .collect()
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
    prev_boundary: Vec<f64>,
}

impl RichardsonState {
    fn new(part: usize, pt: &RowPartition, params: &RichardsonParams) -> Self {
        let nl = pt.rows[part].len();
        Self {
            x: vec![0.0; nl],
            ext: vec![0.0; pt.ext_globals[part].len()],
            rng: StdRng::seed_from_u64(params.seed.wrapping_add(part as u64)),
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
        // One expected sweep: `n_local` exact coordinate relaxations.
        let nl = self.x.len();
        let mut flops = 0;
        for _ in 0..nl {
            let i = self.rng.gen_range(0..nl);
            let mut r = pt.rhs[p][i] - pt.diag[p][i] * self.x[i];
            for &(j, w) in &pt.entries[p][i] {
                r -= w * if j < nl { self.x[j] } else { self.ext[j - nl] };
            }
            self.x[i] += r / pt.diag[p][i];
            flops += 2 * pt.entries[p][i].len() as u64 + 6;
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
    /// Per ext slot: outgoing fluid accumulated this activation.
    buckets: Vec<f64>,
}

impl DIterationState {
    fn new(part: usize, pt: &RowPartition) -> Self {
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
            // Row i diffuses all of its fluid `m`.
            let m = self.fluid[i];
            if m == 0.0 {
                continue;
            }
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
// The one entry point, on any machine.
// ---------------------------------------------------------------------------

/// One baseline node on one simulated processor — the same adapter DTM
/// uses.
pub type SimBaselineNode = SimNode<BaselineNode>;

/// Build the simulated nodes of a baseline run — public so traced manual
/// engine runs (e.g. `repro compare`'s tagged trace samples) can drive
/// them exactly like `solver::build_nodes` is driven for DTM.
///
/// # Errors
/// Fails on dimension mismatches, a NaN or an infinity in `a` or `b`, a
/// non-positive diagonal, or a coupled partition pair with no machine
/// link.
pub fn build_sim_nodes(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: &Topology,
    config: &DtmConfig,
) -> Result<Vec<SimBaselineNode>> {
    let pt = RowPartition::build(a, b, assignment)?;
    pt.check_links(topology)?;
    let nodes = algo.build_nodes(a, &pt, &config.common)?;
    Ok(solver::on_processors(nodes, &config.compute, 1))
}

/// Run a baseline over the row partition `assignment` of `A x = b` on
/// `machine` — the same machine value a DTM run takes (see
/// [`Machine`]). On the simulated machine delays are exact and runs
/// deterministic: the message-for-message comparison executor. On
/// [`Machine::LockStep`] every round steps every part against the previous
/// round's values: block-Jacobi there reports as
/// [`AlgorithmKind::BlockJacobiSync`].
///
/// `reference` is the direct solution RMS monitoring uses; when `None` it
/// is computed where the termination mode needs one.
///
/// # Errors
/// Fails on a NaN tolerance, dimension mismatches, a NaN or an infinity in
/// `a` or `b`, a non-positive diagonal, a block factorization failure, or
/// a coupled partition pair the machine's link table has no link for
/// (bare channels and the pool form a complete graph).
pub fn solve(
    algo: &BaselineAlgo,
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    reference: Option<Vec<f64>>,
    machine: &Machine,
) -> Result<SolveReport> {
    let common = machine.common()?;
    let pt = RowPartition::build(a, b, assignment)?;
    if let Some(links) = machine.links() {
        pt.check_links(links)?;
    }
    let nodes = algo.build_nodes(a, &pt, common)?;
    // Partitions don't overlap: every global row has exactly one copy.
    let copy_count = vec![1; a.n_rows()];
    let map = GatherMap::new(
        pt.rows.iter().map(Vec::as_slice).collect(),
        &copy_count,
        std::sync::Arc::new(a.clone()),
        vec![b],
    );
    let references =
        runtime::resolve_references(&map, common.termination, reference.map(|r| vec![r]))?;
    let algorithm = match (algo, machine) {
        (BaselineAlgo::BlockJacobi, Machine::LockStep { .. }) => AlgorithmKind::BlockJacobiSync,
        _ => algo.kind(),
    };
    Ok(machine.run(
        nodes,
        RunSpec {
            algorithm,
            termination: common.termination,
            map,
            references: references.as_deref(),
        },
    ))
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
    use crate::rayon_backend::RayonConfig;
    use crate::report::{BackendKind, StopKind};
    use crate::runtime::Termination;
    use crate::solver::ComputeModel;
    use dtm_simnet::{DelayModel, SimDuration, SimTime};
    use dtm_sparse::{generators, SparseCholesky};
    use std::time::Duration;

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

    const ALGOS: [BaselineAlgo; 3] = [
        BaselineAlgo::RandomizedRichardson(RichardsonParams { seed: 7 }),
        BaselineAlgo::DIteration,
        BaselineAlgo::BlockJacobi,
    ];

    /// The stopping rule under the 200,000-solve cap every test here runs.
    fn common(termination: Termination) -> CommonConfig {
        CommonConfig {
            termination,
            ..Default::default()
        }
    }

    /// `topology` with a 200 µs activation and a 600 s horizon.
    fn sim(common: CommonConfig, topology: &Topology) -> Machine {
        Machine::Simulated {
            topology: topology.clone(),
            config: DtmConfig {
                common,
                compute: ComputeModel::Fixed(SimDuration::from_micros_f64(200.0)),
                horizon: SimDuration::from_millis_f64(600_000.0),
                ..Default::default()
            },
        }
    }

    /// Lock-step rounds priced on `topology` with a 1 ms block solve.
    fn lockstep(common: CommonConfig, topology: &Topology) -> Machine {
        Machine::LockStep {
            common,
            price: Some((
                topology.clone(),
                ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            )),
        }
    }

    /// Every machine, its delays (where it has them) from `topology`.
    fn machines(termination: Termination, topology: &Topology) -> [Machine; 4] {
        [sim, lockstep, routed_on, pool_on].map(|on| on(common(termination), topology))
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

    /// The two-worker pool behind the delay router on the problem's ring,
    /// its delays scaled to microseconds.
    fn routed_on(common: CommonConfig, topology: &Topology) -> Machine {
        Machine::Pool(RayonConfig {
            delay_topology: Some(topology.clone()),
            ..pool_config(common)
        })
    }

    fn pool_on(common: CommonConfig, _: &Topology) -> Machine {
        Machine::Pool(pool_config(common))
    }

    fn pool_config(common: CommonConfig) -> RayonConfig {
        RayonConfig {
            common,
            num_threads: 2,
            budget: Duration::from_secs(60),
            ..Default::default()
        }
    }

    /// A machine under a common config, its delays (where it has them)
    /// from the problem's ring.
    type On = fn(CommonConfig, &Topology) -> Machine;

    /// Property: each of `algos` on `on` reaches the direct solution of a
    /// 6 × 6 system in 3 strips, reference-free.
    fn reaches_the_direct_solution(algos: &[BaselineAlgo], seed: u64, on: On) {
        let (a, b, asg, topo) = setup(6, 3, seed);
        let exact = direct(&a, &b);
        let machine = on(common(Termination::Residual { tol: 1e-9 }), &topo);
        for algo in algos {
            let report = solve(algo, &a, &b, &asg, None, &machine).unwrap();
            let what = format!("{algo:?} on {:?}", report.backend);
            assert!(report.converged, "{what}: resid {}", report.final_residual);
            let sync = matches!(machine, Machine::LockStep { .. });
            let kind = match algo {
                BaselineAlgo::BlockJacobi if sync => AlgorithmKind::BlockJacobiSync,
                _ => algo.kind(),
            };
            assert_eq!(report.algorithm, kind, "{what}");
            assert!(report.final_rms.is_nan(), "{what}: reference-free");
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-6, "{what}: {u} vs {v}");
            }
            assert!(
                report.total_messages > 0 && report.total_flops > 0,
                "{what}"
            );
        }
    }

    /// Property: under `LocalDelta` each of `algos` on `on` halts itself,
    /// on a right answer.
    fn local_delta_self_halts(algos: &[BaselineAlgo], seed: u64, on: On) {
        let (a, b, asg, topo) = setup(6, 2, seed);
        let termination = Termination::LocalDelta {
            tol: 1e-11,
            patience: 3,
        };
        let machine = on(common(termination), &topo);
        for algo in algos {
            let report = solve(algo, &a, &b, &asg, None, &machine).unwrap();
            let what = format!("{algo:?} on {:?}", report.backend);
            // The engine may see the last waves die out before the last
            // node halts.
            let quiet =
                matches!(machine, Machine::Simulated { .. }) && report.stop == StopKind::Quiescent;
            assert!(report.stop == StopKind::AllHalted || quiet, "{what}");
            assert!(report.converged, "{what}");
            assert!(report.final_rms < 1e-6, "{what}: rms {}", report.final_rms);
        }
    }

    #[test]
    fn richardson_sim_converges_to_direct_solution() {
        reaches_the_direct_solution(&ALGOS[..1], 21, sim);
    }

    #[test]
    fn diteration_sim_converges_to_direct_solution() {
        reaches_the_direct_solution(&ALGOS[1..2], 23, sim);
    }

    #[test]
    fn threaded_driver_converges_for_both_algorithms() {
        reaches_the_direct_solution(&ALGOS, 26, routed_on);
    }

    #[test]
    fn workstealing_driver_converges_for_both_algorithms() {
        reaches_the_direct_solution(&ALGOS, 27, pool_on);
    }

    #[test]
    fn lockstep_rounds_converge_for_every_algorithm() {
        reaches_the_direct_solution(&ALGOS, 28, lockstep);
    }

    #[test]
    fn oracle_termination_reports_rms_for_both_algorithms() {
        let (a, b, asg, topo) = setup(6, 2, 24);
        let machine = sim(common(Termination::OracleRms { tol: 1e-8 }), &topo);
        for algo in &ALGOS[..2] {
            let report = solve(algo, &a, &b, &asg, None, &machine).unwrap();
            assert!(report.converged, "rms {}", report.final_rms);
            assert!(report.final_rms <= 1e-8);
            assert!(report.final_residual.is_finite());
        }
    }

    #[test]
    fn local_delta_self_halt_on_the_simulated_machine() {
        local_delta_self_halts(&ALGOS[..2], 25, sim);
    }

    #[test]
    fn threaded_local_delta_self_halts_for_both_algorithms() {
        local_delta_self_halts(&ALGOS[..2], 28, routed_on);
    }

    #[test]
    fn pool_local_delta_self_halts_for_both_algorithms() {
        local_delta_self_halts(&ALGOS[..2], 30, pool_on);
    }

    #[test]
    fn block_jacobi_local_delta_self_halts_on_every_fabric() {
        for on in [sim, lockstep, routed_on, pool_on] {
            local_delta_self_halts(&ALGOS[2..], 29, on);
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
        let machine = sim(common(Termination::Residual { tol: 1e-8 }), &topo);
        let exact = direct(&a, &b);
        for algo in &ALGOS {
            let (a, b) = ss.reconstruct();
            let report = solve(algo, &a, &b, &derived, None, &machine).unwrap();
            assert!(report.converged, "resid {}", report.final_residual);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-5, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn invalid_parameters_and_machines_are_typed_errors() {
        let (a, b, asg, _) = setup(6, 3, 33);
        let residual = Termination::Residual { tol: 1e-6 };
        let on = |topo: Topology| sim(common(residual), &topo);
        let algo = &ALGOS[0];
        let no_links = on(Topology::from_links(3, vec![]));
        assert!(solve(algo, &a, &b, &asg, None, &no_links).is_err());
        let wrong_count = on(Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0)));
        assert!(solve(algo, &a, &b, &asg, None, &wrong_count).is_err());
        let machine = on(Topology::ring(3).with_delays(&DelayModel::fixed_ms(1.0)));
        // Wrong assignment length.
        assert!(solve(algo, &a, &b, &asg[..10], None, &machine).is_err());
        // A NaN in b, an infinity in A: typed, naming the entry / the row.
        let mut nan_b = b.clone();
        nan_b[5] = f64::NAN;
        let err = solve(algo, &a, &nan_b, &asg, None, &machine).unwrap_err();
        assert!(matches!(err, Error::NonFinite { index: 5, .. }), "{err}");
        let mut inf_a = a.clone();
        let first_of_row_9 = inf_a.row_ptr()[9];
        inf_a.values_mut()[first_of_row_9] = f64::INFINITY;
        let err = solve(algo, &inf_a, &b, &asg, None, &machine).unwrap_err();
        assert!(matches!(err, Error::NonFinite { index: 9, .. }), "{err}");
    }

    /// A NaN in `b` is refused at the boundary before any executor starts:
    /// DTM's executors all take a split, and every split starts at
    /// `ElectricGraph::from_system`; every baseline starts at
    /// `RowPartition::build`.
    #[test]
    fn non_finite_rhs_fails_at_the_boundary_on_every_executor() {
        use crate::builder::DtmBuilder;
        use dtm_graph::ElectricGraph;
        let a = generators::grid2d_laplacian(6, 6);
        let mut b = vec![1.0; 36];
        b[3] = f64::NAN;
        let asg = dtm_graph::partition::grid_blocks(6, 6, 2, 2);
        let topo = Topology::mesh(2, 2).with_delays(&DelayModel::fixed_ms(1.0));
        let started = std::time::Instant::now();
        let mut errors = vec![
            ElectricGraph::from_system(a.clone(), b.clone()).unwrap_err(),
            DtmBuilder::new(a.clone(), b.clone())
                .grid_blocks(6, 6, 2, 2)
                .build()
                .unwrap_err(),
        ];
        for machine in &machines(Termination::Residual { tol: 1e-8 }, &topo) {
            errors.push(solve(&ALGOS[2], &a, &b, &asg, None, machine).unwrap_err());
        }
        for err in errors {
            assert!(matches!(err, Error::NonFinite { index: 3, .. }), "{err}");
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
    }

    /// The delay router DTM uses on real threads carries the baselines'
    /// waves too: block-Jacobi and Richardson on a 1–9 ms ring, delays
    /// scaled by 1e-3, reach the direct solution.
    #[test]
    fn delayed_threads_block_jacobi_converges() {
        let (a, b, asg, _) = setup(6, 3, 37);
        let exact = direct(&a, &b);
        let machine = routed_on(
            common(Termination::Residual { tol: 1e-8 }),
            &Topology::ring(3).with_delays(&DelayModel::uniform_ms(1.0, 9.0, 37)),
        );
        for algo in [&ALGOS[2], &ALGOS[0]] {
            let report = solve(algo, &a, &b, &asg, None, &machine).unwrap();
            let resid = report.final_residual;
            assert!(report.converged, "{algo:?}: resid {resid}");
            assert_eq!(report.backend, BackendKind::WorkStealing);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-5, "{algo:?}: {u} vs {v}");
            }
        }
    }

    /// A delay topology missing a coupled pair's link is a typed error
    /// before any thread spawns — as it is for DTM on the same router.
    #[test]
    fn delayed_threads_missing_link_is_a_typed_error() {
        let (a, b, asg, _) = setup(6, 3, 38);
        let algo = &ALGOS[2];
        let no_links = RayonConfig {
            delay_topology: Some(Topology::from_links(3, vec![])),
            budget: Duration::from_secs(5),
            ..Default::default()
        };
        let err = solve(algo, &a, &b, &asg, None, &Machine::Pool(no_links.clone())).unwrap_err();
        assert!(
            format!("{err}").contains("no link"),
            "typed message, got: {err}"
        );
        let wrong_count = Machine::Pool(RayonConfig {
            delay_topology: Some(Topology::ring(4).with_delays(&DelayModel::fixed_ms(1.0))),
            ..no_links
        });
        let err = solve(algo, &a, &b, &asg, None, &wrong_count).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn sync_block_jacobi_converges_and_charges_barrier() {
        let (a, b, asg, topo) = setup(8, 4, 52);
        let machine = lockstep(common(Termination::OracleRms { tol: 1e-8 }), &topo);
        let report = solve(&ALGOS[2], &a, &b, &asg, None, &machine).unwrap();
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
        let oracle = Termination::OracleRms { tol: 1e-9 };
        let s = solve(
            &ALGOS[2],
            &a,
            &b,
            &asg,
            None,
            &lockstep(common(oracle), &topo),
        )
        .unwrap();
        let r = solve(&ALGOS[2], &a, &b, &asg, None, &sim(common(oracle), &topo)).unwrap();
        assert!(s.converged && r.converged);
        for (u, v) in s.solution.iter().zip(&r.solution) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    /// The lock-step machine is the synchronous round loop: block-Jacobi
    /// run 12 rounds at tolerance 0 on [`Machine::LockStep`] and by a plain
    /// loop — every node steps, then every message is delivered — agree bit
    /// for bit, in the solution and in the metric after every round.
    #[test]
    fn lockstep_machine_is_the_synchronous_round_loop_bit_for_bit() {
        let (a, b, asg, topo) = setup(8, 4, 35);
        let oracle = Termination::OracleRms { tol: 0.0 };
        let twelve = CommonConfig {
            max_solves_per_node: 12,
            ..common(oracle)
        };
        let machine = lockstep(twelve, &topo);
        let report = solve(&ALGOS[2], &a, &b, &asg, None, &machine).unwrap();

        let pt = RowPartition::build(&a, &b, &asg).unwrap();
        let mut nodes = ALGOS[2]
            .build_nodes(&a, &pt, machine.common().unwrap())
            .unwrap();
        let copy_count = vec![1; a.n_rows()];
        let rows = pt.rows.iter().map(Vec::as_slice).collect();
        let map = GatherMap::new(rows, &copy_count, std::sync::Arc::new(a.clone()), vec![&b]);
        let reference = [direct(&a, &b)];
        let mut monitor = RunSpec {
            algorithm: AlgorithmKind::BlockJacobiSync,
            termination: oracle,
            map,
            references: Some(&reference),
        }
        .monitor(SimDuration::ZERO);
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
        let termination = Termination::LocalDelta {
            tol: 1e-14,
            patience: 4,
        };
        let three = CommonConfig {
            max_solves_per_node: 3,
            ..common(termination)
        };
        for machine in [sim(three.clone(), &topo), lockstep(three, &topo)] {
            let report = solve(&ALGOS[2], &a, &b, &asg, None, &machine).unwrap();
            assert_eq!(report.stop, StopKind::AllHalted);
            assert!(!report.converged, "rms {}", report.final_rms);
            assert_eq!(report.total_solves, 12);
        }
    }

    #[test]
    fn short_rhs_is_a_typed_error_on_both_entry_points() {
        let (a, b, asg, topo) = setup(6, 2, 56);
        let short = &b[..b.len() - 1];
        for machine in &machines(Termination::Residual { tol: 1e-8 }, &topo) {
            let err = solve(&ALGOS[2], &a, short, &asg, None, machine).unwrap_err();
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
        let algo = BaselineAlgo::RandomizedRichardson(RichardsonParams { seed: 99 });
        let machine = sim(common(Termination::Residual { tol: 1e-8 }), &topo);
        let r1 = solve(&algo, &a, &b, &asg, None, &machine).unwrap();
        let r2 = solve(&algo, &a, &b, &asg, None, &machine).unwrap();
        assert_eq!(r1.total_solves, r2.total_solves);
        assert_eq!(r1.total_messages, r2.total_messages);
        assert_eq!(r1.solution, r2.solution, "deterministic per seed");
    }
}
