//! Distributed baselines: synchronous and asynchronous block-Jacobi.
//!
//! The paper's introduction motivates DTM against two families:
//!
//! * **synchronous** domain-decomposition methods (additive Schwarz /
//!   block-Jacobi), which pay a barrier costing the *maximum* link delay
//!   every round on a heterogeneous machine, and
//! * **traditional asynchronous** iterations (asynchronous block-Jacobi of
//!   Baudet / Chazan–Miranker; refs \[17\]–\[19\]), whose "performances … are
//!   not comparable to the synchronous ones".
//!
//! Both exchange raw boundary *potentials*; DTM instead exchanges
//! impedance-matched wave pairs `(u, ω)`. These baselines run on the same
//! partition, the same machine model and the same monitoring, so the
//! comparisons in `repro cmp-jacobi` are apples-to-apples.

use crate::monitor::Monitor;
use crate::report::{AlgorithmKind, BackendKind, SolveReport, StopKind};
use crate::solver::{ComputeModel, Termination};
use dtm_simnet::{Ctx, Engine, Envelope, Node, SimDuration, SimTime, StopReason, Topology};
use dtm_sparse::{Csr, DenseCholesky, Error, Result, SparseCholesky};

/// Per part: for each neighbour part, `(their_ext_slot, my_local_row)`
/// exchange pairs.
type PartRoutes = Vec<(usize, Vec<(usize, usize)>)>;

/// Configuration shared by both block-Jacobi baselines.
#[derive(Debug, Clone)]
pub struct BlockJacobiConfig {
    /// Per-activation compute model (same semantics as DTM's).
    pub compute: ComputeModel,
    /// Stopping rule (oracle RMS or local-delta).
    pub termination: Termination,
    /// Simulated-time budget (async) / time-model budget (sync).
    pub horizon: SimDuration,
    /// Series sampling interval.
    pub sample_interval: SimDuration,
    /// Per-node solve cap.
    pub max_solves_per_node: usize,
    /// Synchronous variant only: barrier + exchange overhead added to every
    /// round on top of the slowest compute (defaults to twice the max link
    /// delay when run through [`solve_sync`]).
    pub sync_round_overhead: Option<SimDuration>,
}

impl Default for BlockJacobiConfig {
    fn default() -> Self {
        Self {
            compute: ComputeModel::default(),
            termination: Termination::OracleRms { tol: 1e-8 },
            horizon: SimDuration::from_millis_f64(60_000.0),
            sample_interval: SimDuration::ZERO,
            max_solves_per_node: 200_000,
            sync_round_overhead: None,
        }
    }
}

/// A non-overlapping block decomposition of `A x = b` by a raw assignment.
#[derive(Debug)]
struct Blocks {
    /// Sorted global rows per part.
    rows: Vec<Vec<usize>>,
    /// Factored diagonal blocks.
    factors: Vec<BlockFactor>,
    /// Factor sizes (for the compute model).
    factor_nnz: Vec<usize>,
    /// Per part: coupling entries `(local_row, ext_slot, weight)`.
    coupling: Vec<Vec<(usize, usize, f64)>>,
    /// Per part: the global vertex each ext slot mirrors.
    ext_globals: Vec<Vec<usize>>,
    /// Per part: per neighbour part, `(their_ext_slot, my_local_row)`.
    routes: Vec<PartRoutes>,
    /// Local rhs per part.
    rhs: Vec<Vec<f64>>,
}

#[derive(Debug)]
enum BlockFactor {
    Dense(DenseCholesky),
    Sparse(SparseCholesky),
}

impl BlockFactor {
    fn solve_in_place(&self, x: &mut [f64]) {
        match self {
            BlockFactor::Dense(f) => f.solve_in_place(x),
            BlockFactor::Sparse(f) => f.solve_in_place(x),
        }
    }
}

impl Blocks {
    fn build(a: &Csr, b: &[f64], assignment: &[usize]) -> Result<Self> {
        let n = a.n_rows();
        if assignment.len() != n {
            return Err(Error::DimensionMismatch {
                context: "block-jacobi assignment",
                expected: n,
                actual: assignment.len(),
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

        let mut factors = Vec::with_capacity(k);
        let mut factor_nnz = Vec::with_capacity(k);
        let mut coupling = vec![Vec::new(); k];
        let mut ext_globals: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut routes: Vec<PartRoutes> = vec![Vec::new(); k];
        let mut rhs = Vec::with_capacity(k);

        for p in 0..k {
            let app = a.principal_submatrix(&rows[p]);
            let nl = app.n_rows();
            if nl <= crate::local::AUTO_DENSE_LIMIT {
                let f = DenseCholesky::factor_csr(&app)?;
                factor_nnz.push(nl * (nl + 1) / 2);
                factors.push(BlockFactor::Dense(f));
            } else {
                let f = SparseCholesky::factor_fill_reducing(&app)?;
                factor_nnz.push(f.nnz_l());
                factors.push(BlockFactor::Sparse(f));
            }
            rhs.push(rows[p].iter().map(|&g| b[g]).collect());

            // Coupling to foreign vertices, and the ext-slot directory.
            let mut ext_index: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            for (l, &g) in rows[p].iter().enumerate() {
                for (u, w) in a.row(g) {
                    if assignment[u] != p {
                        let next = ext_index.len();
                        let slot = *ext_index.entry(u).or_insert(next);
                        if slot == ext_globals[p].len() {
                            ext_globals[p].push(u);
                        }
                        coupling[p].push((l, slot, w));
                    }
                }
            }
        }
        // Routes: part p must send x[v] to every part q whose ext list
        // contains v ∈ p.
        for (q, globals) in ext_globals.iter().enumerate() {
            for (slot, &g) in globals.iter().enumerate() {
                let p = assignment[g];
                match routes[p].iter_mut().find(|(dst, _)| *dst == q) {
                    Some((_, pairs)) => pairs.push((slot, local_of[g])),
                    None => routes[p].push((q, vec![(slot, local_of[g])])),
                }
            }
        }
        Ok(Self {
            rows,
            factors,
            factor_nnz,
            coupling,
            ext_globals,
            routes,
            rhs,
        })
    }

    fn n_parts(&self) -> usize {
        self.rows.len()
    }

    /// Uniform flop estimate of one block solve: a pair of triangular
    /// substitutions over the factor (2 flops per stored entry per sweep)
    /// plus the coupling fold into the right-hand side.
    fn flops_per_solve(&self, p: usize) -> u64 {
        4 * self.factor_nnz[p] as u64 + 2 * self.coupling[p].len() as u64
    }

    /// One block solve: `x_p = A_pp⁻¹ (b_p − A_p,ext · x_ext)`.
    fn solve_block(&self, p: usize, ext: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.rhs[p]);
        for &(l, slot, w) in &self.coupling[p] {
            out[l] -= w * ext[slot];
        }
        self.factors[p].solve_in_place(out);
    }
}

/// Block-Jacobi message: `(receiver_ext_slot, value)` pairs.
#[derive(Debug, Clone)]
pub struct BjMsg {
    updates: Vec<(usize, f64)>,
}

/// One block on one simulated processor (asynchronous variant).
#[derive(Debug)]
struct BjNode {
    part: usize,
    blocks: std::sync::Arc<Blocks>,
    ext: Vec<f64>,
    x: Vec<f64>,
    prev_boundary: Vec<f64>,
    compute: SimDuration,
    termination: Termination,
    max_solves: usize,
    solves: usize,
    small_streak: usize,
}

impl BjNode {
    fn solve_and_send(&mut self, ctx: &mut Ctx<BjMsg>) {
        let blocks = self.blocks.clone();
        let mut x = std::mem::take(&mut self.x);
        blocks.solve_block(self.part, &self.ext, &mut x);
        self.x = x;
        self.solves += 1;
        ctx.set_compute(self.compute);
        let mut delta = 0.0_f64;
        let mut bi = 0usize;
        for (dst, pairs) in &self.blocks.routes[self.part] {
            let updates: Vec<(usize, f64)> =
                pairs.iter().map(|&(slot, l)| (slot, self.x[l])).collect();
            for &(_, v) in &updates {
                if bi < self.prev_boundary.len() {
                    delta = delta.max((v - self.prev_boundary[bi]).abs());
                    self.prev_boundary[bi] = v;
                } else {
                    self.prev_boundary.push(v);
                    delta = f64::INFINITY;
                }
                bi += 1;
            }
            ctx.send(*dst, BjMsg { updates });
        }
        if let Termination::LocalDelta { tol, patience } = self.termination {
            if delta < tol {
                self.small_streak += 1;
                if self.small_streak >= patience {
                    ctx.halt();
                }
            } else {
                self.small_streak = 0;
            }
        }
        if self.solves >= self.max_solves {
            ctx.halt();
        }
    }
}

impl Node for BjNode {
    type Msg = BjMsg;

    fn start(&mut self, ctx: &mut Ctx<BjMsg>) {
        self.solve_and_send(ctx);
    }

    fn receive(&mut self, ctx: &mut Ctx<BjMsg>, batch: &mut Vec<Envelope<BjMsg>>) {
        for env in batch.drain(..) {
            for (slot, v) in env.payload.updates {
                self.ext[slot] = v;
            }
        }
        self.solve_and_send(ctx);
    }
}

/// Asynchronous block-Jacobi on a simulated machine: same engine, same
/// monitoring as DTM, but exchanging raw potentials without transmission
/// lines (the classical asynchronous iteration, refs \[17\]–\[19\]).
///
/// # Errors
/// Fails on dimension mismatches, factorization failure, or a block
/// adjacency with no machine link.
pub fn solve_async(
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: Topology,
    reference: Option<Vec<f64>>,
    config: &BlockJacobiConfig,
) -> Result<SolveReport> {
    // The oracle direct solve is opt-in: under `Termination::Residual`
    // (and no explicit reference) the run is monitored reference-free.
    let reference = match (reference, config.termination) {
        (Some(r), _) => Some(r),
        (None, Termination::Residual { .. }) => None,
        (None, _) => Some(SparseCholesky::factor_fill_reducing(a)?.solve(b)),
    };
    let blocks = std::sync::Arc::new(Blocks::build(a, b, assignment)?);
    let k = blocks.n_parts();
    if topology.n_nodes() != k {
        return Err(Error::DimensionMismatch {
            context: "block-jacobi: one processor per block",
            expected: k,
            actual: topology.n_nodes(),
        });
    }
    for p in 0..k {
        for (dst, _) in &blocks.routes[p] {
            if topology.link(p, *dst).is_none() {
                return Err(Error::Parse(format!(
                    "blocks {p} and {dst} are coupled but the machine has no \
                     link {p} → {dst}"
                )));
            }
        }
    }
    let nodes: Vec<BjNode> = (0..k)
        .map(|p| BjNode {
            part: p,
            blocks: blocks.clone(),
            ext: vec![0.0; blocks.ext_globals[p].len()],
            x: vec![0.0; blocks.rows[p].len()],
            prev_boundary: Vec::new(),
            // Baseline pipelines are scalar: one RHS column per sweep.
            compute: config.compute.duration_for_block(blocks.factor_nnz[p], 1),
            termination: config.termination,
            max_solves: config.max_solves_per_node,
            solves: 0,
            small_streak: 0,
        })
        .collect();

    let mut monitor = match (reference, config.termination) {
        // As in the DTM executors: residual termination keeps the
        // residual as the stopping metric even when a reference exists
        // (the reference then only adds RMS reporting).
        (Some(r), Termination::Residual { .. }) => {
            let mut m = Monitor::from_parts_residual(
                blocks.rows.clone(),
                vec![1; a.n_rows()],
                a.clone(),
                std::slice::from_ref(&b.to_vec()),
                config.sample_interval,
            );
            m.attach_oracle(std::slice::from_ref(&r));
            m
        }
        (Some(r), _) => Monitor::from_parts(
            blocks.rows.clone(),
            vec![1; a.n_rows()],
            r,
            config.sample_interval,
        ),
        (None, _) => Monitor::from_parts_residual(
            blocks.rows.clone(),
            vec![1; a.n_rows()],
            a.clone(),
            std::slice::from_ref(&b.to_vec()),
            config.sample_interval,
        ),
    };
    let metric_tol = match config.termination {
        Termination::OracleRms { tol } | Termination::Residual { tol } => Some(tol),
        Termination::LocalDelta { .. } => None,
    };
    monitor.set_refresh_below(metric_tol.unwrap_or(0.0));

    let mut engine = Engine::new(topology, nodes);
    let outcome = engine.run(
        SimTime::ZERO + config.horizon,
        |time, part, node: &BjNode| {
            let metric = monitor.update_part(part, time, &node.x);
            match metric_tol {
                Some(tol) => metric > tol,
                None => true,
            }
        },
    );

    let stats = engine.stats();
    let (final_rms, final_rms_per_rhs) = if monitor.has_oracle() {
        let rms = monitor.rms_exact();
        (rms, vec![rms])
    } else {
        (f64::NAN, Vec::new())
    };
    let final_residual =
        a.residual_norm(monitor.estimate(), b) / dtm_sparse::vector::norm2_or_one(b);
    let stop = match outcome.reason {
        StopReason::ObserverStop => StopKind::OracleTolerance,
        StopReason::AllHalted => StopKind::AllHalted,
        StopReason::TimeLimit => StopKind::Horizon,
        StopReason::QueueEmpty => StopKind::Quiescent,
    };
    let converged = match config.termination {
        Termination::OracleRms { tol } => final_rms <= tol,
        Termination::Residual { tol } => final_residual <= tol,
        Termination::LocalDelta { .. } => {
            matches!(stop, StopKind::AllHalted | StopKind::Quiescent)
        }
    };
    Ok(SolveReport {
        backend: BackendKind::Simulated,
        algorithm: AlgorithmKind::BlockJacobiAsync,
        solution: monitor.estimate().to_vec(),
        n_rhs: 1,
        solutions: vec![monitor.estimate().to_vec()],
        final_rms_per_rhs,
        converged,
        final_rms,
        final_residual,
        final_residual_per_rhs: vec![final_residual],
        final_time_ms: outcome.final_time.as_millis_f64(),
        series: monitor.into_series(),
        total_solves: stats.activations.iter().sum(),
        total_messages: stats.messages_sent,
        total_flops: stats
            .activations
            .iter()
            .enumerate()
            .map(|(p, &acts)| acts * blocks.flops_per_solve(p))
            .sum(),
        coalesced_batches: stats.coalesced_batches,
        n_parts: k,
        stop,
    })
}

/// Synchronous block-Jacobi (additive Schwarz, overlap 0) under a barrier
/// cost model: every round costs the slowest block's compute plus
/// `sync_round_overhead` (default: twice the maximum link delay — one
/// exchange, one barrier).
///
/// # Errors
/// Fails on dimension mismatches or factorization failure.
pub fn solve_sync(
    a: &Csr,
    b: &[f64],
    assignment: &[usize],
    topology: &Topology,
    reference: Option<Vec<f64>>,
    config: &BlockJacobiConfig,
) -> Result<SolveReport> {
    // Opt-in oracle, as in `solve_async`: residual termination tracks
    // `‖b − A·x‖/‖b‖` instead and performs no direct solve.
    let reference = match (reference, config.termination) {
        (Some(r), _) => Some(r),
        (None, Termination::Residual { .. }) => None,
        (None, _) => Some(SparseCholesky::factor_fill_reducing(a)?.solve(b)),
    };
    let b_scale = dtm_sparse::vector::norm2_or_one(b);
    // The stopping metric follows the termination mode, not reference
    // availability: residual termination stops on the residual even when
    // a reference was supplied for reporting.
    let use_residual = matches!(config.termination, Termination::Residual { .. });
    // Non-residual modes always carry a reference (constructed above), so
    // the `(None, false)` arm is unreachable — falling back to the
    // residual there keeps the closure total without a panic path.
    let metric_of = |x: &[f64]| -> f64 {
        match (&reference, use_residual) {
            (Some(r), false) => dtm_sparse::vector::rms_error(x, r),
            _ => a.residual_norm(x, b) / b_scale,
        }
    };
    let blocks = Blocks::build(a, b, assignment)?;
    let k = blocks.n_parts();
    let max_compute = (0..k)
        .map(|p| config.compute.duration_for_block(blocks.factor_nnz[p], 1))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let overhead = config.sync_round_overhead.unwrap_or_else(|| {
        let (_, hi) = topology.delay_range();
        hi.saturating_mul(2)
    });
    let round_time = max_compute + overhead;

    let tol = match config.termination {
        Termination::OracleRms { tol } | Termination::Residual { tol } => tol,
        Termination::LocalDelta { tol, .. } => tol,
    };
    let mut x = vec![0.0; a.n_rows()];
    let mut series = Vec::new();
    let mut t = SimTime::ZERO;
    let mut rounds = 0u64;
    let mut metric = metric_of(&x);
    let mut buf = Vec::new();
    while t + round_time <= SimTime::ZERO + config.horizon {
        // One synchronous round: every block reads the same global x.
        let mut x_new = x.clone();
        for p in 0..k {
            let ext: Vec<f64> = blocks.ext_globals[p].iter().map(|&g| x[g]).collect();
            blocks.solve_block(p, &ext, &mut buf);
            for (l, &g) in blocks.rows[p].iter().enumerate() {
                x_new[g] = buf[l];
            }
        }
        x = x_new;
        t += round_time;
        rounds += 1;
        metric = metric_of(&x);
        series.push((t.as_millis_f64(), metric));
        if metric <= tol || rounds >= config.max_solves_per_node as u64 {
            break;
        }
    }
    let (final_rms, final_rms_per_rhs) = match &reference {
        Some(r) => {
            let rms = dtm_sparse::vector::rms_error(&x, r);
            (rms, vec![rms])
        }
        None => (f64::NAN, Vec::new()),
    };
    let final_residual = a.residual_norm(&x, b) / b_scale;
    Ok(SolveReport {
        backend: BackendKind::Simulated,
        algorithm: AlgorithmKind::BlockJacobiSync,
        solution: x.clone(),
        n_rhs: 1,
        solutions: vec![x],
        final_rms_per_rhs,
        converged: metric <= tol,
        final_rms,
        final_residual,
        final_residual_per_rhs: vec![final_residual],
        final_time_ms: t.as_millis_f64(),
        series,
        total_solves: rounds * k as u64,
        // Per round each coupled pair exchanges once in each direction.
        total_messages: rounds * blocks.routes.iter().map(|r| r.len() as u64).sum::<u64>(),
        total_flops: rounds * (0..k).map(|p| blocks.flops_per_solve(p)).sum::<u64>(),
        coalesced_batches: 0,
        n_parts: k,
        stop: if metric <= tol {
            StopKind::OracleTolerance
        } else {
            StopKind::Horizon
        },
    })
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
        // Strips form a line of processors: use a ring (superset of a line).
        let topo = Topology::ring(k).with_delays(&DelayModel::uniform_ms(10.0, 99.0, seed));
        (a, b, asg, topo)
    }

    #[test]
    fn async_block_jacobi_converges_on_dominant_grid() {
        let (a, b, asg, topo) = setup(8, 4, 51);
        let config = BlockJacobiConfig {
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            termination: Termination::OracleRms { tol: 1e-8 },
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        let report = solve_async(&a, &b, &asg, topo, None, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
    }

    #[test]
    fn sync_block_jacobi_converges_and_charges_barrier() {
        let (a, b, asg, topo) = setup(8, 4, 52);
        let config = BlockJacobiConfig {
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            termination: Termination::OracleRms { tol: 1e-8 },
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        let report = solve_sync(&a, &b, &asg, &topo, None, &config).unwrap();
        assert!(report.converged);
        // Round time ≥ 2×max delay: with max delay ≤ 99 ms, the first
        // series point must lie at ≥ 21 ms (2×10+1).
        assert!(report.series[0].0 >= 21.0 - 1e-9);
        let rounds = report.series.len() as f64;
        let per_round = report.final_time_ms / rounds;
        assert!(per_round >= 21.0 - 1e-9);
    }

    #[test]
    fn sync_and_async_agree_on_solution() {
        let (a, b, asg, topo) = setup(7, 3, 53);
        let config = BlockJacobiConfig {
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(0.5)),
            termination: Termination::OracleRms { tol: 1e-9 },
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        let s = solve_sync(&a, &b, &asg, &topo, None, &config).unwrap();
        let r = solve_async(&a, &b, &asg, topo, None, &config).unwrap();
        assert!(s.converged && r.converged);
        for (u, v) in s.solution.iter().zip(&r.solution) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn async_local_delta_termination() {
        let (a, b, asg, topo) = setup(6, 2, 54);
        let config = BlockJacobiConfig {
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            termination: Termination::LocalDelta {
                tol: 1e-10,
                patience: 3,
            },
            horizon: SimDuration::from_millis_f64(600_000.0),
            ..Default::default()
        };
        let report = solve_async(&a, &b, &asg, topo, None, &config).unwrap();
        assert!(matches!(
            report.stop,
            StopKind::AllHalted | StopKind::Quiescent
        ));
        assert!(report.final_rms < 1e-6);
    }

    #[test]
    fn missing_machine_link_rejected() {
        let (a, b, asg, _) = setup(6, 3, 55);
        // A 3-node topology with no links: blocks are coupled → error.
        let topo = Topology::from_links(3, vec![]);
        assert!(solve_async(&a, &b, &asg, topo, None, &BlockJacobiConfig::default()).is_err());
    }

    #[test]
    fn wrong_assignment_length_rejected() {
        let a = generators::grid2d_laplacian(4, 4);
        let b = vec![1.0; 16];
        let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
        let asg = vec![0usize; 7];
        assert!(solve_async(&a, &b, &asg, topo, None, &BlockJacobiConfig::default()).is_err());
    }
}
