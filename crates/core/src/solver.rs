//! DTM on the simulated heterogeneous machine — the algorithm of Table 1.
//!
//! This module is a **thin adapter**: the node behaviour (solve-and-
//! scatter, wave merge, self-halt) lives in [`crate::runtime`], shared
//! with every other executor. What this file owns is the *mapping onto the
//! simulated machine*: each [`NodeRuntime`] becomes a [`dtm_simnet`]
//! processor, each wave-front message travels the directed link whose
//! simulated delay realises the DTL's transmission delay (the
//! Algorithm-Architecture Delay Mapping), and the per-activation compute
//! time comes from a [`ComputeModel`]. There is no synchronization
//! anywhere: a node re-solves whenever at least one neighbour's boundary
//! condition arrives, with whatever other values it currently holds.
//!
//! Synchronous rounds are a machine here, not a loop: `run_lockstep` puts
//! any nodes on the complete machine whose every link takes one round —
//! VTM ([`crate::vtm`]) and synchronous block-Jacobi
//! ([`crate::async_baselines::solve_sync`]) run on it through the same
//! engine loop as DTM.

use crate::local::LocalSystem;
use crate::report::{AlgorithmKind, BackendKind, RunSummary, SolveReport, StopKind, Totals};
use crate::runtime::{
    self, build_nodes as build_runtime_nodes, AsyncNode, CommonConfig, GatherMap, NodeRuntime,
    RunSpec, Transport,
};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{
    Ctx, DelayModel, Engine, Envelope, Node, SimDuration, SimTime, StopReason, Topology,
};
use dtm_sparse::{Error, Result};

// The shared runtime vocabulary, re-exported where it historically lived.
pub use crate::runtime::{DtmMsg, PortUpdate, Termination};

/// Per-activation compute-time model for a processor's local solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeModel {
    /// Instantaneous solves. Only sensible for acyclic 2-processor setups —
    /// on cyclic topologies zero compute lets the event rate grow without
    /// bound (each batch triggers an immediate resend).
    Zero,
    /// Constant solve time.
    Fixed(SimDuration),
    /// Batch-aware substitution cost mirroring the blocked kernels: one
    /// factor traversal per activation (index decoding, cache misses —
    /// amortized over the block) plus `k` unit-stride column sweeps:
    ///
    /// `cost(nnz, k) = traversal_ns_per_entry·nnz
    ///               + column_ns_per_entry·nnz·k`, clamped below by `floor`.
    Batched {
        /// Nanoseconds per stored factor entry for the shared traversal.
        traversal_ns_per_entry: f64,
        /// Nanoseconds per stored factor entry per RHS column.
        column_ns_per_entry: f64,
        /// Minimum activation cost.
        floor: SimDuration,
    },
}

impl Default for ComputeModel {
    fn default() -> Self {
        // ~1 ns/entry to stream the factor (indices + one value load) and
        // ~1 ns/entry/column of fused multiply-adds, on top of a 10 µs
        // activation floor (syscall + message handling). A scalar solve
        // costs the same 2 ns/entry as the pre-batching default.
        ComputeModel::Batched {
            traversal_ns_per_entry: 1.0,
            column_ns_per_entry: 1.0,
            floor: SimDuration::from_micros_f64(10.0),
        }
    }
}

impl ComputeModel {
    /// Resolve to a concrete duration for a local system (its factor size
    /// and its block width).
    pub fn duration_for(&self, local: &LocalSystem) -> SimDuration {
        self.duration_for_block(local.factor_nnz(), local.n_rhs())
    }

    /// Resolve to a concrete duration for a `k`-column block solve over a
    /// factor with `nnz` entries.
    pub fn duration_for_block(&self, nnz: usize, k: usize) -> SimDuration {
        match *self {
            ComputeModel::Zero => SimDuration::ZERO,
            ComputeModel::Fixed(d) => d,
            ComputeModel::Batched {
                traversal_ns_per_entry,
                column_ns_per_entry,
                floor,
            } => {
                let ns = (traversal_ns_per_entry * nnz as f64
                    + column_ns_per_entry * (nnz * k) as f64)
                    .round() as u64;
                floor.max(SimDuration::from_nanos(ns))
            }
        }
    }
}

/// Simulated-backend configuration: the shared [`CommonConfig`] plus the
/// knobs that only exist on a simulated machine.
#[derive(Debug, Clone)]
pub struct DtmConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Compute-time model.
    pub compute: ComputeModel,
    /// Simulated-time budget.
    pub horizon: SimDuration,
    /// Series sampling interval (zero = every activation).
    pub sample_interval: SimDuration,
}

impl Default for DtmConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig::default(),
            compute: ComputeModel::default(),
            horizon: SimDuration::from_millis_f64(60_000.0),
            sample_interval: SimDuration::ZERO,
        }
    }
}

/// One [`AsyncNode`] living on one simulated processor — **the** adapter
/// between the node contract and the discrete-event engine, for DTM and
/// the baselines alike: the node plus its simulated per-activation compute
/// time. Scattered waves leave through the simulation context, so the
/// link's simulated delay becomes the message's transmission delay (for
/// DTM: the DTL's — the Algorithm-Architecture Delay Mapping).
#[derive(Debug)]
pub struct SimNode<N> {
    pub(crate) inner: N,
    pub(crate) compute: SimDuration,
}

/// DTM's simulated node: the shared [`NodeRuntime`] on a processor.
pub type DtmNode = SimNode<NodeRuntime>;

impl<N: AsyncNode> SimNode<N> {
    /// The subdomain/part id.
    pub fn part(&self) -> usize {
        self.inner.part()
    }

    /// The node's current local solution estimate.
    pub fn solution(&self) -> &[f64] {
        self.inner.solution()
    }

    fn run_step(&mut self, ctx: &mut Ctx<DtmMsg>) {
        ctx.set_compute(self.compute);
        if self.inner.step_node(&mut CtxTransport(ctx)).is_halt() {
            ctx.halt();
        }
    }
}

impl DtmNode {
    /// The local system (for inspection).
    pub fn local(&self) -> &LocalSystem {
        self.inner.local()
    }

    /// Swap one column of the live block for a freshly admitted local
    /// right-hand side (see
    /// [`NodeRuntime::swap_rhs_col`](crate::runtime::NodeRuntime::swap_rhs_col))
    /// — called by the rolling session between engine `run` slices.
    pub fn swap_rhs_col(&mut self, col: usize, rhs_col: &[f64]) {
        self.inner.swap_rhs_col(col, rhs_col);
    }
}

struct CtxTransport<'a, 't>(&'a mut Ctx<'t, DtmMsg>);

impl Transport for CtxTransport<'_, '_> {
    fn send(&mut self, dst: usize, msg: DtmMsg) {
        self.0.send(dst, msg);
    }
}

impl<N: AsyncNode> Node for SimNode<N> {
    type Msg = DtmMsg;

    fn start(&mut self, ctx: &mut Ctx<DtmMsg>) {
        // Initial boundary guess is zero (eq. 5.6) — already the node's
        // initial state. Solve and transmit (Table 1 steps 1–2).
        self.run_step(ctx);
    }

    fn receive(&mut self, ctx: &mut Ctx<DtmMsg>, batch: &mut Vec<Envelope<DtmMsg>>) {
        for env in batch.drain(..) {
            // Consume the wave (DTM recycles its payload buffer into the
            // node's freelist: steady-state exchange allocates nothing).
            self.inner.absorb_owned(env.payload);
        }
        self.run_step(ctx);
    }
}

/// Build the simulated DTM nodes for a split system, checking the
/// algorithm-architecture mapping.
///
/// # Errors
/// Fails if the impedance assignment fails, a local factorization fails,
/// or a DTLP connects parts with no directed machine link (broken
/// algorithm-architecture mapping).
pub fn build_nodes(
    split: &SplitSystem,
    topology: &Topology,
    config: &DtmConfig,
) -> Result<Vec<DtmNode>> {
    check_mapping(split, topology)?;
    Ok(map_nodes(
        build_runtime_nodes(split, &config.common)?,
        config,
    ))
}

/// [`build_nodes`] for a block of simultaneous right-hand sides: `rhs_cols`
/// are global RHS vectors scattered onto the split (see
/// [`runtime::build_nodes_block`]).
///
/// # Errors
/// See [`build_nodes`].
pub fn build_nodes_block(
    split: &SplitSystem,
    topology: &Topology,
    config: &DtmConfig,
    rhs_cols: &[Vec<f64>],
) -> Result<Vec<DtmNode>> {
    check_mapping(split, topology)?;
    Ok(map_nodes(
        runtime::build_nodes_block(split, &config.common, rhs_cols)?,
        config,
    ))
}

/// Check the algorithm-architecture mapping before the (dominant)
/// factorization cost: every DTLP needs a directed machine link. Shared
/// with [`DtmBuilder::build`](crate::builder::DtmBuilder::build), so a
/// malformed machine surfaces as a typed error at assembly time instead of
/// a [`dtm_simnet::MissingLink`] panic mid-run.
pub(crate) fn check_mapping(split: &SplitSystem, topology: &Topology) -> Result<()> {
    if topology.n_nodes() != split.n_parts() {
        return Err(Error::DimensionMismatch {
            context: "DTM: one processor per subdomain",
            expected: split.n_parts(),
            actual: topology.n_nodes(),
        });
    }
    for (p, sd) in split.subdomains.iter().enumerate() {
        for port in &sd.ports {
            let dst = port.peer.part;
            if let Err(missing) = topology.try_delay(p, dst) {
                return Err(Error::Parse(format!(
                    "subdomains {p} and {dst} share a DTLP but {missing}; \
                     delay mapping impossible"
                )));
            }
        }
    }
    Ok(())
}

/// Attach per-activation compute durations to shared runtimes.
fn map_nodes(runtimes: Vec<NodeRuntime>, config: &DtmConfig) -> Vec<DtmNode> {
    runtimes
        .into_iter()
        .map(|inner| SimNode {
            compute: config.compute.duration_for(inner.local()),
            inner,
        })
        .collect()
}

/// Run DTM to completion on a simulated machine.
///
/// `reference` is the direct solution used for RMS monitoring; when `None`
/// it is computed here by sparse Cholesky on the reconstructed system.
///
/// # Errors
/// Propagates node-construction failures (see [`build_nodes`]).
pub fn solve(
    split: &SplitSystem,
    topology: Topology,
    reference: Option<Vec<f64>>,
    config: &DtmConfig,
) -> Result<SolveReport> {
    let nodes = build_nodes(split, &topology, config)?;
    let references = reference.map(|r| vec![r]);
    run_nodes(split, topology, nodes, references, None, config)
}

/// Run DTM for a **block of right-hand sides** sharing one factorization
/// per subdomain: every wave carries one `(u, ω)` value per column, and the
/// run ends when the *worst* column meets the stopping rule.
///
/// `rhs_cols` are global right-hand-side vectors; `references` optionally
/// supplies their precomputed direct solutions (same column order).
///
/// # Errors
/// Propagates node-construction failures (see [`build_nodes_block`]).
pub fn solve_block(
    split: &SplitSystem,
    topology: Topology,
    rhs_cols: &[Vec<f64>],
    references: Option<Vec<Vec<f64>>>,
    config: &DtmConfig,
) -> Result<SolveReport> {
    let nodes = build_nodes_block(split, &topology, config, rhs_cols)?;
    run_nodes(split, topology, nodes, references, Some(rhs_cols), config)
}

/// The body of both DTM entry points above: fill in missing `references`
/// for the termination modes that need an oracle
/// ([`runtime::resolve_references`]) and run the engine. `rhs_cols` names
/// the global right-hand-side columns the nodes were built with (`None` =
/// the split's own source vector).
fn run_nodes(
    split: &SplitSystem,
    topology: Topology,
    nodes: Vec<DtmNode>,
    references: Option<Vec<Vec<f64>>>,
    rhs_cols: Option<&[Vec<f64>]>,
    config: &DtmConfig,
) -> Result<SolveReport> {
    let (a, own_b) = split.reconstruct();
    let map = GatherMap::of_split(split, &a, &own_b, rhs_cols);
    let references = runtime::resolve_references(&map, config.common.termination, references)?;
    Ok(run_engine(
        topology,
        nodes,
        &SimRun {
            spec: RunSpec {
                algorithm: AlgorithmKind::Dtm,
                termination: config.common.termination,
                map,
                references: references.as_deref(),
            },
            horizon: config.horizon,
            sample_interval: config.sample_interval,
        },
    ))
}

/// What [`run_engine`] needs besides the machine and its nodes.
pub(crate) struct SimRun<'a> {
    pub spec: RunSpec<'a>,
    pub horizon: SimDuration,
    pub sample_interval: SimDuration,
}

/// The simulated executor: run `nodes` on `topology` under the monitor
/// `run` describes until the stopping rule, the horizon or quiescence —
/// one engine loop for every [`AsyncNode`] algorithm.
pub(crate) fn run_engine<N: AsyncNode>(
    topology: Topology,
    nodes: Vec<SimNode<N>>,
    run: &SimRun<'_>,
) -> SolveReport {
    let n_parts = nodes.len();
    let mut engine = Engine::new(topology, nodes);
    let mut monitor = run.spec.monitor(run.sample_interval);
    let outcome = engine.run(SimTime::ZERO + run.horizon, |time, part, node| {
        monitor.update_part(part, time, node.solution());
        !monitor.all_done()
    });

    let stats = engine.stats();
    // Activations and messages are the engine's own record of the run;
    // flops and the cap flag only the nodes know.
    let totals = Totals {
        solves: stats.activations.iter().sum(),
        messages: stats.messages_sent,
        flops: engine.nodes().iter().map(|n| n.inner.flops()).sum(),
        any_capped: engine.nodes().iter().any(|n| n.inner.capped()),
    };
    // Uniform-counter cross-check: the monitor witnessed exactly one
    // update per engine activation, whatever the algorithm.
    debug_assert_eq!(monitor.updates(), totals.solves);
    SolveReport::assemble(RunSummary {
        backend: BackendKind::Simulated,
        algorithm: run.spec.algorithm,
        termination: run.spec.termination,
        stop: match outcome.reason {
            StopReason::ObserverStop => StopKind::OracleTolerance,
            StopReason::AllHalted => StopKind::AllHalted,
            StopReason::TimeLimit => StopKind::Horizon,
            StopReason::QueueEmpty => StopKind::Quiescent,
        },
        time_ms: outcome.final_time.as_millis_f64(),
        columns: monitor.retire_all(),
        series: monitor.into_series(),
        totals,
        coalesced_batches: stats.coalesced_batches,
        n_parts,
    })
}

/// The lock-step machine: [`run_engine`] on the complete machine whose
/// every link takes one `round` and whose compute is free, for at most
/// `max_rounds` rounds. All same-instant deliveries commit before any
/// activation fires, so each node's `k`-th step sees exactly its
/// neighbours' round-`(k−1)` messages — synchronous rounds, with no loop
/// of their own. The engine stamps an activation at its start, a round is
/// priced at its end: the report is re-stamped with one series point per
/// round (the metric after its last activation) at `k·round`, and
/// `final_time_ms` = rounds × `round`.
pub(crate) fn run_lockstep<N: AsyncNode>(
    nodes: Vec<N>,
    round: SimDuration,
    max_rounds: usize,
    spec: RunSpec<'_>,
) -> SolveReport {
    // A zero-priced round would fold every round into one instant.
    let round = round.max(SimDuration::from_nanos(1));
    let topology = Topology::complete(nodes.len()).with_delays(&DelayModel::Fixed(round));
    let nodes = nodes
        .into_iter()
        .map(|inner| SimNode {
            inner,
            compute: SimDuration::ZERO,
        })
        .collect();
    let mut report = run_engine(
        topology,
        nodes,
        &SimRun {
            spec,
            // Round k's activations happen at (k − 1)·round.
            horizon: round.saturating_mul(max_rounds.saturating_sub(1) as u64),
            sample_interval: SimDuration::ZERO,
        },
    );
    let mut rounds: Vec<(f64, f64)> = Vec::new();
    let mut instant = f64::NAN;
    for &(t, metric) in &report.series {
        match rounds.last_mut() {
            Some(last) if t == instant => last.1 = metric,
            _ => {
                let end = round.saturating_mul(rounds.len() as u64 + 1);
                rounds.push((end.as_millis_f64(), metric));
            }
        }
        instant = t;
    }
    report.final_time_ms = round.saturating_mul(rounds.len() as u64).as_millis_f64();
    report.series = rounds;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impedance::{per_port, ImpedancePolicy};
    use crate::local::{LocalSolverKind, LocalSystem};
    use dtm_graph::evs::{paper_example_shares, split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_simnet::DelayModel;
    use dtm_sparse::generators;

    /// The paper's Example 5.1 setup: two processors, delays 6.7 µs and
    /// 2.9 µs, impedances Z₂ = 0.2 and Z₃ = 0.1.
    fn example_5_1() -> (SplitSystem, Topology) {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: paper_example_shares(),
            ..Default::default()
        };
        let ss = evs_split(&g, &plan, &options).unwrap();
        let topo = Topology::from_links(
            2,
            vec![
                dtm_simnet::Link {
                    src: 0,
                    dst: 1,
                    delay: SimDuration::from_micros_f64(6.7),
                },
                dtm_simnet::Link {
                    src: 1,
                    dst: 0,
                    delay: SimDuration::from_micros_f64(2.9),
                },
            ],
        );
        (ss, topo)
    }

    fn example_config() -> DtmConfig {
        DtmConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
                termination: Termination::OracleRms { tol: 1e-10 },
                ..Default::default()
            },
            compute: ComputeModel::Zero,
            horizon: SimDuration::from_millis_f64(10.0),
            ..Default::default()
        }
    }

    #[test]
    fn example_5_1_converges_to_exact_solution() {
        let (ss, topo) = example_5_1();
        let report = solve(&ss, topo, None, &example_config()).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        // Compare against the direct solution of (3.2).
        let (a, b) = generators::paper_example_system();
        let exact = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);
        for (u, v) in report.solution.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        assert_eq!(report.n_parts, 2);
        assert_eq!(report.backend, BackendKind::Simulated);
        assert!(report.total_solves > 4);
    }

    #[test]
    fn error_series_decreases_overall() {
        let (ss, topo) = example_5_1();
        let report = solve(&ss, topo, None, &example_config()).unwrap();
        let first = report.series.first().unwrap().1;
        let last = report.series.last().unwrap().1;
        assert!(
            last < first * 1e-6,
            "error must fall by orders of magnitude"
        );
    }

    #[test]
    fn local_delta_termination_halts_all_nodes() {
        let (ss, topo) = example_5_1();
        let config = DtmConfig {
            common: CommonConfig {
                impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
                termination: Termination::LocalDelta {
                    tol: 1e-12,
                    patience: 2,
                },
                ..Default::default()
            },
            compute: ComputeModel::Zero,
            horizon: SimDuration::from_millis_f64(10.0),
            ..Default::default()
        };
        let report = solve(&ss, topo, None, &config).unwrap();
        assert!(matches!(
            report.stop,
            StopKind::AllHalted | StopKind::Quiescent
        ));
        assert!(report.converged);
        assert!(report.final_rms < 1e-7, "rms {}", report.final_rms);
    }

    #[test]
    fn grid_on_2x2_mesh_converges() {
        let a = generators::grid2d_random(8, 8, 1.0, 21);
        let b = generators::random_rhs(64, 22);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = dtm_graph::partition::grid_blocks(8, 8, 2, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let topo = Topology::mesh(2, 2).with_delays(&DelayModel::uniform_ms(10.0, 99.0, 5));
        // Align the DTLP wiring with the machine links so cross-point
        // (multilevel) splits never need a diagonal connection.
        let pairs: std::collections::BTreeSet<(usize, usize)> = topo
            .links()
            .iter()
            .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
            .collect();
        let options = EvsOptions {
            twin_topology: dtm_graph::TwinTopology::TreeWithin(pairs),
            ..Default::default()
        };
        let ss = evs_split(&g, &plan, &options).unwrap();
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-9 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        };
        let report = solve(&ss, topo, None, &config).unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert!(a.residual_norm(&report.solution, &b) < 1e-6);
    }

    #[test]
    fn single_column_block_is_the_scalar_pipeline() {
        // K = 1 must remain the fast path: on a uniform-share split the
        // scattered column equals the split's own sources bit for bit, so
        // the deterministic engine must produce the identical run.
        let a = generators::grid2d_random(8, 8, 1.0, 23);
        let b = generators::random_rhs(64, 24);
        let g = ElectricGraph::from_system(a, b.clone()).unwrap();
        let asg = dtm_graph::partition::grid_strips(8, 8, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let topo = Topology::ring(2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = DtmConfig {
            common: CommonConfig {
                termination: Termination::OracleRms { tol: 1e-9 },
                ..Default::default()
            },
            compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
            horizon: SimDuration::from_millis_f64(3_600_000.0),
            ..Default::default()
        };
        let scalar = solve(&ss, topo.clone(), None, &config).unwrap();
        let block = solve_block(&ss, topo, &[b], None, &config).unwrap();
        assert_eq!(block.n_rhs, 1);
        assert_eq!(block.total_solves, scalar.total_solves);
        assert_eq!(block.total_messages, scalar.total_messages);
        assert_eq!(block.solution, scalar.solution, "bitwise-identical run");
        assert_eq!(block.solutions[0], scalar.solution);
        assert_eq!(block.final_rms_per_rhs, vec![block.final_rms]);
    }

    #[test]
    fn mismatched_processor_count_rejected() {
        let (ss, _) = example_5_1();
        let topo3 = Topology::ring(3).with_delays(&DelayModel::fixed_ms(1.0));
        assert!(solve(&ss, topo3, None, &example_config()).is_err());
    }

    #[test]
    fn missing_link_rejected() {
        // Two subdomains but a topology with no 0↔1 links at all.
        let (ss, _) = example_5_1();
        let topo = Topology::from_links(2, vec![]);
        let err = solve(&ss, topo, None, &example_config());
        assert!(err.is_err());
    }

    #[test]
    fn trace_shows_n2n_only_and_no_sync() {
        let (ss, topo) = example_5_1();
        let nodes = build_nodes(&ss, &topo, &example_config()).unwrap();
        let mut engine = Engine::new(topo, nodes);
        engine.enable_trace(10_000);
        engine.run_until(SimTime::ZERO + SimDuration::from_micros_f64(200.0));
        // Every activation is either the start or a receive of a bounded
        // batch; message counts per link are balanced within the round-trip
        // pattern (no global rounds enforced).
        let stats = engine.stats();
        assert!(stats.messages_sent > 10);
        assert_eq!(stats.sent_per_link.len(), 2);
        assert!(stats.sent_per_link.iter().all(|&c| c > 5));
    }

    #[test]
    fn compute_model_durations() {
        let (ss, _) = example_5_1();
        let z = ImpedancePolicy::PerDtlp(vec![0.2, 0.1])
            .assign(&ss)
            .unwrap();
        let zp = per_port(&ss, &z);
        let local = LocalSystem::new(&ss.subdomains[0], &zp[0], LocalSolverKind::Dense).unwrap();
        assert_eq!(ComputeModel::Zero.duration_for(&local), SimDuration::ZERO);
        let fixed = ComputeModel::Fixed(SimDuration::from_micros_f64(5.0));
        assert_eq!(fixed.duration_for(&local).as_nanos(), 5_000);
        let per = ComputeModel::Batched {
            traversal_ns_per_entry: 40.0,
            column_ns_per_entry: 60.0,
            floor: SimDuration::ZERO,
        };
        assert_eq!(per.duration_for(&local).as_nanos(), 600); // 6 entries
    }

    #[test]
    fn batched_compute_model_formula() {
        // cost(nnz, k) = traversal·nnz + column·nnz·k, clamped by floor.
        let m = ComputeModel::Batched {
            traversal_ns_per_entry: 3.0,
            column_ns_per_entry: 2.0,
            floor: SimDuration::ZERO,
        };
        assert_eq!(m.duration_for_block(1_000, 1).as_nanos(), 5_000);
        assert_eq!(m.duration_for_block(1_000, 8).as_nanos(), 19_000);
        // One traversal is amortized over the block: an 8-column solve is
        // far cheaper than 8 scalar solves.
        assert!(m.duration_for_block(1_000, 8) < m.duration_for_block(1_000, 1).saturating_mul(8));
        // The floor still clamps small activations.
        let floored = ComputeModel::Batched {
            traversal_ns_per_entry: 1.0,
            column_ns_per_entry: 1.0,
            floor: SimDuration::from_micros_f64(10.0),
        };
        assert_eq!(floored.duration_for_block(6, 2).as_nanos(), 10_000);
        // The default model keeps the historic 2 ns/entry scalar cost.
        assert_eq!(
            ComputeModel::default()
                .duration_for_block(100_000, 1)
                .as_nanos(),
            200_000
        );
    }
}
