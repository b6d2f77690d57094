//! Message-for-message comparison plumbing behind `repro compare`: DTM vs
//! randomized asynchronous
//! Richardson vs D-iteration on **identical machines** — same grid
//! Laplacian, same `px × py` block partition, same seeded heterogeneous
//! delay topology, same per-activation compute model, and the same
//! [`Termination::Residual`] stopping rule, so no oracle and no setup
//! asymmetry taints the counters.

use dtm_core::async_baselines::{
    self, BaselineAlgo, BaselineConfig, DIterationParams, RichardsonParams,
};
use dtm_core::runtime::CommonConfig;
use dtm_core::runtime::ExecutorBackend;
use dtm_core::solver::{self, ComputeModel, DtmConfig, Termination};
use dtm_core::SolveReport;
use dtm_graph::evs::{split as evs_split, EvsOptions, SplitSystem, TwinTopology};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_net::{ChildCommand, DistributedBackend, DistributedConfig, RunMode, TransportKind};
use dtm_simnet::trace::Trace;
use dtm_simnet::{DelayModel, Engine, SimDuration, SimTime, Topology};
use dtm_sparse::{generators, Csr};
use std::collections::BTreeSet;
use std::time::Duration;

/// Delay seed of the comparison machine (fixed, like the figure seeds).
pub const COMPARE_DELAY_SEED: u64 = 4_411;
/// Right-hand-side seed of the comparison workload.
pub const COMPARE_RHS_SEED: u64 = 4_412;

/// One comparison workload: the system, both partition views (raw row
/// assignment for the point baselines, machine-aligned EVS split for
/// DTM), and the shared machine.
pub struct CompareSetup {
    /// The system matrix (`side × side` grid Laplacian).
    pub a: Csr,
    /// The right-hand side.
    pub b: Vec<f64>,
    /// Raw row partition (`grid_blocks`), used by the baselines.
    pub assignment: Vec<usize>,
    /// The machine-aligned EVS split of the same partition, used by DTM.
    pub split: SplitSystem,
    /// The shared heterogeneous machine (mesh, asymmetric 10–99 ms
    /// delays).
    pub topology: Topology,
    /// The shared relative-residual tolerance.
    pub tol: f64,
}

/// Build the `side × side` grid-Laplacian comparison workload torn into
/// `px × py` blocks on a `px × py` mesh machine.
pub fn grid_setup(side: usize, px: usize, py: usize, tol: f64) -> CompareSetup {
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, COMPARE_RHS_SEED);
    let topology =
        Topology::mesh(px, py).with_delays(&DelayModel::uniform_ms(10.0, 99.0, COMPARE_DELAY_SEED));
    let assignment = partition::grid_blocks(side, side, px, py);
    let g = ElectricGraph::from_system(a.clone(), b.clone()).expect("grid system is symmetric");
    let plan = PartitionPlan::from_assignment(&g, &assignment).expect("regular plan");
    let pairs: BTreeSet<(usize, usize)> = topology
        .links()
        .iter()
        .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
        .collect();
    let split = evs_split(
        &g,
        &plan,
        &EvsOptions {
            twin_topology: TwinTopology::TreeWithin(pairs),
            ..Default::default()
        },
    )
    .expect("machine-aligned split is valid");
    CompareSetup {
        a,
        b,
        assignment,
        split,
        topology,
        tol,
    }
}

/// The shared per-activation compute model: 1 ms per local solve, for
/// every algorithm — the same bound a real CPU imposes.
fn compute_model() -> ComputeModel {
    ComputeModel::Fixed(SimDuration::from_millis_f64(1.0))
}

const HORIZON_MS: f64 = 1_200_000.0;

/// The baselines' run configuration on the comparison machine.
pub fn baseline_config(tol: f64) -> BaselineConfig {
    BaselineConfig {
        termination: Termination::Residual { tol },
        compute: compute_model(),
        horizon: SimDuration::from_millis_f64(HORIZON_MS),
        sample_interval: SimDuration::from_millis_f64(5.0),
        ..Default::default()
    }
}

/// DTM on the comparison machine, reference-free.
pub fn dtm_report(s: &CompareSetup) -> SolveReport {
    solver::solve(
        &s.split,
        s.topology.clone(),
        None,
        &DtmConfig {
            common: CommonConfig {
                termination: Termination::Residual { tol: s.tol },
                ..Default::default()
            },
            compute: compute_model(),
            horizon: SimDuration::from_millis_f64(HORIZON_MS),
            sample_interval: SimDuration::from_millis_f64(5.0),
        },
    )
    .expect("DTM comparison run")
}

/// Randomized Richardson on the comparison machine.
pub fn richardson_report(s: &CompareSetup) -> SolveReport {
    async_baselines::solve_sim(
        &BaselineAlgo::RandomizedRichardson(RichardsonParams::default()),
        &s.a,
        &s.b,
        &s.assignment,
        s.topology.clone(),
        None,
        &baseline_config(s.tol),
    )
    .expect("Richardson comparison run")
}

/// D-iteration on the comparison machine.
pub fn diteration_report(s: &CompareSetup) -> SolveReport {
    async_baselines::solve_sim(
        &BaselineAlgo::DIteration(DIterationParams::default()),
        &s.a,
        &s.b,
        &s.assignment,
        s.topology.clone(),
        None,
        &baseline_config(s.tol),
    )
    .expect("D-iteration comparison run")
}

/// All three algorithms on the identical machine, in table order.
pub fn all_reports(s: &CompareSetup) -> Vec<SolveReport> {
    vec![dtm_report(s), richardson_report(s), diteration_report(s)]
}

/// Distributed-backend configuration on the comparison workload: the
/// shared reference-free residual rule, with every wave route validated
/// against the comparison machine's link table before anything spawns.
pub fn distributed_config(s: &CompareSetup, processes: usize, mode: RunMode) -> DistributedConfig {
    DistributedConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol: s.tol },
            ..Default::default()
        },
        mode,
        processes,
        topology: Some(s.topology.clone()),
        budget: Duration::from_secs(600),
    }
}

/// Run DTM on the comparison workload twice — once fully in-process (one
/// group, one thread) and once torn into `processes` OS processes over
/// `transport` sockets — and return both reports. The round-structured
/// executor makes the pair bitwise-identical; see
/// [`assert_distributed_bitwise`].
///
/// # Errors
/// Propagates backend failures (spawn, handshake, wire, solve).
pub fn distributed_pair(
    s: &CompareSetup,
    transport: TransportKind,
    processes: usize,
    child: ChildCommand,
) -> dtm_sparse::Result<(SolveReport, SolveReport)> {
    let backend = DistributedBackend;
    let in_process = backend.solve(
        &s.split,
        None,
        &distributed_config(s, 1, RunMode::InProcess),
    )?;
    let multi_process = backend.solve(
        &s.split,
        None,
        &distributed_config(
            s,
            processes,
            RunMode::Processes {
                transport,
                child,
                fail: None,
            },
        ),
    )?;
    Ok((in_process, multi_process))
}

/// Assert the distributed run reproduced the in-process run **bit for
/// bit**: identical solution bits, identical residual bits, identical
/// deterministic work counters.
///
/// # Panics
/// Panics (with the first differing index) when any bit differs — this
/// is the `repro compare --transport …` gate, so divergence must fail
/// loudly.
pub fn assert_distributed_bitwise(in_process: &SolveReport, multi_process: &SolveReport) {
    assert_eq!(
        in_process.solution.len(),
        multi_process.solution.len(),
        "distributed: solution lengths differ"
    );
    for (i, (a, b)) in in_process
        .solution
        .iter()
        .zip(&multi_process.solution)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "distributed: solution bit mismatch at vertex {i}: {a:?} vs {b:?}"
        );
    }
    assert_eq!(
        in_process.final_residual.to_bits(),
        multi_process.final_residual.to_bits(),
        "distributed: final residual bits differ"
    );
    assert_eq!(
        in_process.total_solves, multi_process.total_solves,
        "distributed: solve counters differ"
    );
    assert_eq!(
        in_process.total_messages, multi_process.total_messages,
        "distributed: message counters differ"
    );
    assert_eq!(
        in_process.total_flops, multi_process.total_flops,
        "distributed: flop counters differ"
    );
    assert_eq!(
        in_process.converged, multi_process.converged,
        "distributed: convergence flags differ"
    );
}

/// A short tagged activation-trace sample of a baseline on the comparison
/// machine (the per-algorithm trace tagging of `dtm-simnet`).
pub fn baseline_trace_sample(s: &CompareSetup, algo: &BaselineAlgo, capacity: usize) -> Trace {
    let config = baseline_config(s.tol);
    let nodes =
        async_baselines::build_sim_nodes(algo, &s.a, &s.b, &s.assignment, &s.topology, &config)
            .expect("baseline nodes build");
    let mut engine = Engine::new(s.topology.clone(), nodes);
    engine.enable_trace_tagged(capacity, algo.kind().name());
    engine.run_until(SimTime::ZERO + SimDuration::from_millis_f64(400.0));
    engine.trace().expect("trace enabled").clone()
}

/// A short tagged activation-trace sample of DTM on the same machine.
pub fn dtm_trace_sample(s: &CompareSetup, capacity: usize) -> Trace {
    let config = DtmConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol: s.tol },
            ..Default::default()
        },
        compute: compute_model(),
        horizon: SimDuration::from_millis_f64(HORIZON_MS),
        ..Default::default()
    };
    let nodes = solver::build_nodes(&s.split, &s.topology, &config).expect("DTM nodes build");
    let mut engine = Engine::new(s.topology.clone(), nodes);
    engine.enable_trace_tagged(capacity, dtm_core::AlgorithmKind::Dtm.name());
    engine.run_until(SimTime::ZERO + SimDuration::from_millis_f64(400.0));
    engine.trace().expect("trace enabled").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_partitions_agree_on_part_count() {
        let s = grid_setup(9, 2, 2, 1e-6);
        let k = s.assignment.iter().copied().max().unwrap() + 1;
        assert_eq!(k, 4);
        assert_eq!(s.split.n_parts(), 4);
        assert_eq!(s.topology.n_nodes(), 4);
        assert_eq!(s.a.n_rows(), 81);
    }

    #[test]
    fn trace_samples_are_tagged_per_algorithm() {
        let s = grid_setup(9, 2, 2, 1e-4);
        let t = baseline_trace_sample(
            &s,
            &BaselineAlgo::DIteration(DIterationParams::default()),
            8,
        );
        assert_eq!(t.tag(), "d-iteration");
        assert!(!t.records().is_empty());
        let td = dtm_trace_sample(&s, 8);
        assert_eq!(td.tag(), "dtm");
        assert!(!td.records().is_empty());
    }
}
