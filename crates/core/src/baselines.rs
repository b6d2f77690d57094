//! Block-Jacobi, asynchronous and synchronous: configuration and two thin
//! entry points.
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
//! impedance-matched wave pairs `(u, ω)`. The node is
//! [`BaselineAlgo::BlockJacobi`] of [`crate::async_baselines`], so the
//! asynchronous variant runs on the shared simulated driver (and, through
//! that module, on threads and the pool), and the synchronous one steps the
//! same nodes in lock-step under a barrier cost model. Same partition, same
//! machine model, same monitoring, same report assembly — the comparisons
//! in `repro cmp-jacobi` are apples-to-apples.

use crate::async_baselines::{self, BaselineAlgo, BaselineConfig, Prepared};
use crate::report::{AlgorithmKind, BackendKind, RunSummary, SolveReport, StopKind, Totals};
use crate::runtime::{AsyncNode, DtmMsg};
use crate::solver::{ComputeModel, Termination};
use dtm_simnet::{SimDuration, SimTime, Topology};
use dtm_sparse::{Csr, Result};

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

impl BlockJacobiConfig {
    /// The fields the shared baseline drivers read.
    fn baseline(&self) -> BaselineConfig {
        BaselineConfig {
            termination: self.termination,
            compute: self.compute,
            horizon: self.horizon,
            sample_interval: self.sample_interval,
            max_solves_per_node: self.max_solves_per_node,
            ..Default::default()
        }
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
    async_baselines::solve_sim(
        &BaselineAlgo::BlockJacobi,
        a,
        b,
        assignment,
        topology,
        reference,
        &config.baseline(),
    )
}

/// Synchronous block-Jacobi (additive Schwarz, overlap 0) under a barrier
/// cost model: every round steps every block against the previous round's
/// potentials and costs the slowest block's compute plus
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
    let baseline = config.baseline();
    let algo = BaselineAlgo::BlockJacobi;
    let (prepared, mut nodes) = Prepared::new(&algo, a, b, assignment, reference, &baseline)?;
    let mut monitor = prepared.spec().monitor(SimDuration::ZERO);
    let max_compute = nodes
        .iter()
        .map(|n| config.compute.duration_for_block(n.work_nnz(), 1))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let overhead = config.sync_round_overhead.unwrap_or_else(|| {
        let (_, hi) = topology.delay_range();
        hi.saturating_mul(2)
    });
    let round_time = max_compute + overhead;

    let mut t = SimTime::ZERO;
    let mut halted = vec![false; nodes.len()];
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    let mut stop = StopKind::Horizon;
    while t + round_time <= SimTime::ZERO + config.horizon {
        // One synchronous round: every block solves against the previous
        // round's potentials, then all of them exchange.
        for (node, halted) in nodes.iter_mut().zip(&mut halted) {
            *halted = node.step_node(&mut outbox).is_halt();
        }
        for (dst, msg) in outbox.drain(..) {
            nodes[dst].absorb_owned(msg);
        }
        t += round_time;
        monitor.update_round(t, nodes.iter().map(|n| n.solution()));
        if monitor.all_done() {
            stop = StopKind::OracleTolerance;
            break;
        }
        if halted.iter().all(|&h| h) {
            stop = StopKind::AllHalted;
            break;
        }
    }
    let mut totals = Totals::default();
    for node in &nodes {
        totals.add(node);
    }
    Ok(SolveReport::assemble(RunSummary {
        backend: BackendKind::Simulated,
        algorithm: AlgorithmKind::BlockJacobiSync,
        termination: config.termination,
        stop,
        time_ms: t.as_millis_f64(),
        columns: monitor.retire_all(),
        series: monitor.into_series(),
        totals,
        coalesced_batches: 0,
        n_parts: nodes.len(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_simnet::DelayModel;
    use dtm_sparse::{generators, Error};

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
    fn solve_cap_is_not_convergence() {
        // Three solves can never build a patience-4 streak: every node is
        // retired by the cap, and "everyone stopped" is not success.
        let a = generators::grid2d_laplacian(9, 9);
        let b = vec![1.0; 81];
        let asg = dtm_graph::partition::grid_blocks(9, 9, 2, 2);
        let topo = Topology::mesh(2, 2).with_delays(&DelayModel::fixed_ms(1.0));
        let config = BlockJacobiConfig {
            compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
            termination: Termination::LocalDelta {
                tol: 1e-14,
                patience: 4,
            },
            max_solves_per_node: 3,
            ..Default::default()
        };
        let report = solve_async(&a, &b, &asg, topo, None, &config).unwrap();
        assert_eq!(report.stop, StopKind::AllHalted);
        assert!(!report.converged, "rms {}", report.final_rms);
        assert_eq!(report.total_solves, 12);
    }

    #[test]
    fn short_rhs_is_a_typed_error_on_both_entry_points() {
        let (a, b, asg, topo) = setup(6, 2, 56);
        let short = &b[..b.len() - 1];
        let config = BlockJacobiConfig::default();
        for err in [
            solve_async(&a, short, &asg, topo.clone(), None, &config).unwrap_err(),
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
