//! The machine a solve runs on, as a value ([`Machine`]), and the one
//! dispatch every algorithm's one-shot solve goes through.

use crate::fabric::{self, Pool, WallRun};
use crate::rayon_backend::RayonConfig;
use crate::report::{AlgorithmKind, BackendKind, SolveReport};
use crate::runtime::{self, AsyncNode, CommonConfig, GatherMap, NodeRuntime, RunSpec, Termination};
use crate::solver::{self, ComputeModel, DtmConfig, SimRun};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::Result;

/// The machine a solve runs on.
///
/// The paper's Algorithm-Architecture Delay Mapping runs *one* node
/// program on any machine: each DTL's transmission delay is whatever the
/// machine's link imposes. So the machine is a value, and there is one
/// entry point per mode over it: [`DtmProblem::solve`](crate::DtmProblem::solve)
/// and [`DtmProblem::solve_block`](crate::DtmProblem::solve_block) for DTM,
/// [`async_baselines::solve`](crate::async_baselines::solve) for the
/// baselines.
///
/// | `Machine` | runs on | a wave's delay | clock | [`BackendKind`] |
/// |---|---|---|---|---|
/// | `Simulated` | the discrete-event engine | its link's simulated delay | simulated | `Simulated` |
/// | `LockStep` | the complete machine, every link one round | one round | rounds (1 ms each, or priced) | `Simulated` |
/// | `Pool` | [`fabric::Pool`]: resident workers on one ready queue; a `delay_topology` puts the delay router in front of it | the wait in that queue, after its link's delay × `delay_scale` when routed | wall | `WorkStealing` |
///
/// VTM is DTM on `LockStep` ("if we set τ₁ = … = τ_n = 1, then DTM is
/// degenerated into … the Virtual Transmission Method", §1; eq. 5.10), and
/// synchronous block-Jacobi is block-Jacobi on `LockStep`. VTM converges in
/// fewer *exchanges* than DTM under heterogeneous delays, but each of its
/// rounds costs the slowest link plus a barrier — the trade-off `repro
/// cmp-vtm` prices with `LockStep`'s `price`.
///
/// Every variant carries the run's whole configuration, its
/// [`CommonConfig`] included: no entry point reads a second one.
#[derive(Debug, Clone)]
pub enum Machine {
    /// The deterministic simulated heterogeneous machine: every wave
    /// travels its directed link of `topology` (one processor per part),
    /// every activation costs `config.compute`, the run ends at
    /// `config.horizon` at the latest.
    Simulated {
        /// Processors and directed link delays.
        topology: Topology,
        /// Compute model, horizon, sampling and the common config.
        config: DtmConfig,
    },
    /// Synchronous rounds: every node's `k`-th step sees exactly its
    /// neighbours' round-`(k−1)` waves. `common.max_solves_per_node` is
    /// the round budget.
    LockStep {
        /// The common config; its solve cap is the round budget.
        common: CommonConfig,
        /// What a round costs on the report's clock: `None` = 1 ms (the
        /// report's time reads as rounds); `Some((topology, compute))` =
        /// the slowest part's `compute` plus twice `topology`'s largest
        /// link delay — one exchange and one barrier on that machine.
        price: Option<(Topology, ComputeModel)>,
    },
    /// Resident workers on one ready queue ([`RayonConfig`]), behind the
    /// config's delay router when it has a `delay_topology`.
    Pool(RayonConfig),
}

impl Machine {
    /// The run's common config, once its stopping rule is known to be one
    /// a run can meet.
    pub(crate) fn common(&self) -> Result<&CommonConfig> {
        let common = match self {
            Machine::Simulated { config, .. } => &config.common,
            Machine::LockStep { common, .. } => common,
            Machine::Pool(config) => &config.common,
        };
        common.termination.check()?;
        Ok(common)
    }

    /// The link table every wave route must map onto, if the machine
    /// routes over one.
    pub(crate) fn links(&self) -> Option<&Topology> {
        match self {
            Machine::Simulated { topology, .. } => Some(topology),
            Machine::Pool(config) => config.delay_topology.as_ref(),
            Machine::LockStep { .. } => None,
        }
    }

    /// Run `nodes` on this machine, scored by `spec` — the one dispatch of
    /// every algorithm's one-shot solve.
    pub(crate) fn run<N: AsyncNode + 'static>(
        &self,
        nodes: Vec<N>,
        spec: RunSpec<'_>,
    ) -> SolveReport {
        let k = spec.map.b_cols.len();
        let kick_idle = matches!(spec.termination, Termination::LocalDelta { .. });
        match self {
            Machine::Simulated { topology, config } => solver::run_engine(
                topology.clone(),
                solver::on_processors(nodes, &config.compute, k),
                &SimRun {
                    spec,
                    horizon: config.horizon,
                    sample_interval: config.sample_interval,
                },
            ),
            Machine::LockStep { common, price } => {
                let round = solver::round_price(&nodes, k, price.as_ref());
                solver::run_lockstep(nodes, round, common.max_solves_per_node, spec)
            }
            Machine::Pool(config) => {
                let delays = config
                    .delay_topology
                    .as_ref()
                    .map(|t| (t, config.delay_scale));
                let workers = config.num_threads;
                fabric::run(
                    Pool::start(nodes, k, workers, delays, kick_idle, fabric::no_hook()),
                    &WallRun {
                        spec,
                        backend: BackendKind::WorkStealing,
                        budget: config.budget,
                    },
                )
            }
        }
    }
}

/// DTM on `split` on `machine`: `runtimes` are prebuilt nodes (`None` =
/// build them here, over `rhs_cols` if given), `references` the caller's
/// oracle solutions if any (the oracle solve is performed only for the
/// termination modes that need one), `rhs_cols` the block's global
/// right-hand sides (`None` = the split's own source vector).
pub(crate) fn solve_dtm(
    split: &SplitSystem,
    runtimes: Option<Vec<NodeRuntime>>,
    references: Option<Vec<Vec<f64>>>,
    rhs_cols: Option<&[Vec<f64>]>,
    machine: &Machine,
) -> Result<SolveReport> {
    let common = machine.common()?;
    // Every wave route needs a directed link: a typed error before the
    // factorization and before any thread spawns, not a surprise mid-run.
    if let Some(links) = machine.links() {
        solver::check_mapping(split, links)?;
    }
    let nodes = match (runtimes, rhs_cols) {
        (Some(nodes), _) => nodes,
        (None, None) => runtime::build_nodes(split, common)?,
        (None, Some(cols)) => runtime::build_nodes_block(split, common, cols)?,
    };
    let map = GatherMap::of_split(split, rhs_cols);
    let references = runtime::resolve_references(&map, common.termination, references)?;
    Ok(machine.run(
        nodes,
        RunSpec {
            algorithm: AlgorithmKind::Dtm,
            termination: common.termination,
            map,
            references: references.as_deref(),
        },
    ))
}

/// The properties every machine shares, one looped table each: a property
/// runs over the rows its cell names. The simulated machine's cells are
/// here, lock-step rounds' in `vtm`, the pool's on two and on three workers
/// in `rayon_backend`, and the pool behind the delay router's in
/// `threaded`. The input contract runs over every row at once
/// (`tests::every_machine`).
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::impedance::ImpedancePolicy;
    use crate::report::StopKind;
    use crate::DtmProblem;
    use dtm_graph::evs::{split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_simnet::{DelayModel, SimDuration};
    use dtm_sparse::{generators, Error};
    use std::time::Duration;

    /// The rows of a property's table: the machines for a `parts`-part
    /// problem under one common config.
    pub(crate) type Rows = fn(usize, CommonConfig) -> Vec<Machine>;

    /// An `nx × nx` random-conductance grid torn into `k` strips.
    pub(crate) fn grid_split(nx: usize, k: usize, seed: u64) -> SplitSystem {
        let a = generators::grid2d_random(nx, nx, 1.0, seed);
        let b = generators::random_rhs(nx * nx, seed + 1);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(nx, nx, k);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        evs_split(&g, &plan, &EvsOptions::default()).unwrap()
    }

    /// The paper's Example 5.1 split (Z₂ = 0.2, Z₃ = 0.1 are the caller's).
    pub(crate) fn paper_split() -> SplitSystem {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: dtm_graph::evs::paper_example_shares(),
            ..Default::default()
        };
        evs_split(&g, &plan, &options).unwrap()
    }

    /// Bare lock-step rounds: the report's time reads as rounds.
    pub(crate) fn lockstep(common: CommonConfig) -> Machine {
        Machine::LockStep {
            common,
            price: None,
        }
    }

    /// The complete simulated machine on `parts` processors, 1 ms links
    /// and a 100 µs activation.
    fn simulated_rows(parts: usize, common: CommonConfig) -> Vec<Machine> {
        vec![Machine::Simulated {
            topology: Topology::complete(parts).with_delays(&DelayModel::fixed_ms(1.0)),
            config: DtmConfig {
                common,
                compute: ComputeModel::Fixed(SimDuration::from_micros_f64(100.0)),
                horizon: SimDuration::from_millis_f64(3_600_000.0),
                ..Default::default()
            },
        }]
    }

    /// Lock-step rounds.
    pub(crate) fn lockstep_rows(_parts: usize, common: CommonConfig) -> Vec<Machine> {
        vec![lockstep(common)]
    }

    /// The pool on `workers` workers and a 60 s budget, behind the delay
    /// router over `links` if given.
    fn pool(workers: usize, links: Option<Topology>, common: CommonConfig) -> Machine {
        Machine::Pool(RayonConfig {
            common,
            num_threads: workers,
            budget: Duration::from_secs(60),
            delay_topology: links,
            ..Default::default()
        })
    }

    /// The bare pool on two and on three workers (fewer workers than the
    /// four parts of `converges`).
    pub(crate) fn pool_rows(_parts: usize, common: CommonConfig) -> Vec<Machine> {
        vec![pool(2, None, common.clone()), pool(3, None, common)]
    }

    /// The pool on two workers behind the delay router over the complete
    /// machine's links, 1–9 ms scaled to 1–9 µs.
    pub(crate) fn routed_rows(parts: usize, common: CommonConfig) -> Vec<Machine> {
        let links = Topology::complete(parts).with_delays(&DelayModel::uniform_ms(1.0, 9.0, 7));
        vec![pool(2, Some(links), common)]
    }

    /// Every row of every table, under `common`: the input contract's
    /// machines.
    fn every_machine(parts: usize, common: CommonConfig) -> Vec<Machine> {
        let tables: [Rows; 4] = [simulated_rows, lockstep_rows, pool_rows, routed_rows];
        tables
            .iter()
            .flat_map(|rows| rows(parts, common.clone()))
            .collect()
    }

    /// `termination` under a 1,000,000-solve cap.
    fn rule(termination: Termination) -> CommonConfig {
        CommonConfig {
            termination,
            max_solves_per_node: 1_000_000,
            ..Default::default()
        }
    }

    fn solve(split: &SplitSystem, machine: &Machine) -> Result<SolveReport> {
        DtmProblem::of_split(split.clone()).solve(machine)
    }

    /// DTM reaches oracle RMS ≤ 1e-8 on a 10 × 10 grid in 4 strips.
    pub(crate) fn converges(rows: Rows) {
        let ss = grid_split(10, 4, 71);
        let (a, b) = ss.reconstruct();
        for machine in rows(4, rule(Termination::OracleRms { tol: 1e-8 })) {
            let report = solve(&ss, &machine).unwrap();
            assert!(report.converged, "{machine:?}: rms {}", report.final_rms);
            let pool = matches!(machine, Machine::Pool(_));
            assert_eq!(report.backend == BackendKind::WorkStealing, pool);
            assert!(a.residual_norm(&report.solution, &b) < 1e-5, "{machine:?}");
            assert!(report.total_solves > 4, "{machine:?}");
            assert!(report.total_messages > 0, "{machine:?}");
        }
    }

    /// Under `LocalDelta` every node halts itself, on a right answer (the
    /// engine may see the last waves die out before the last node halts).
    pub(crate) fn local_delta_self_halts(rows: Rows) {
        let ss = grid_split(8, 3, 73);
        let common = rule(Termination::LocalDelta {
            tol: 1e-12,
            patience: 4,
        });
        for machine in rows(3, common) {
            let report = solve(&ss, &machine).unwrap();
            let quiet =
                matches!(machine, Machine::Simulated { .. }) && report.stop == StopKind::Quiescent;
            assert!(report.stop == StopKind::AllHalted || quiet, "{machine:?}");
            assert!(report.converged, "{machine:?}");
            assert!(report.final_rms < 1e-6, "{machine:?}: {}", report.final_rms);
        }
    }

    /// The paper's Example 5.1 with its impedances reaches the direct
    /// solution.
    pub(crate) fn paper_example(rows: Rows) {
        let common = CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            ..rule(Termination::OracleRms { tol: 1e-10 })
        };
        let (a, b) = generators::paper_example_system();
        let exact = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);
        for machine in rows(2, common) {
            let report = solve(&paper_split(), &machine).unwrap();
            assert!(report.converged, "{machine:?}: rms {}", report.final_rms);
            for (u, v) in report.solution.iter().zip(&exact) {
                assert!((u - v).abs() < 1e-8, "{machine:?}: {u} vs {v}");
            }
        }
    }

    /// Nodes retired by a 5-solve cap under a delta rule that can never
    /// fire (tolerance 0) are not converged.
    pub(crate) fn cap_is_not_convergence(rows: Rows) {
        let ss = grid_split(8, 3, 74);
        let common = CommonConfig {
            max_solves_per_node: 5,
            ..rule(Termination::LocalDelta {
                tol: 0.0,
                patience: 2,
            })
        };
        for machine in rows(3, common) {
            let report = solve(&ss, &machine).unwrap();
            assert!(
                !report.converged,
                "{machine:?}: a capped-out run must not claim convergence (rms {})",
                report.final_rms
            );
        }
    }

    /// A NaN planted in a local right-hand side (the split-level fields are
    /// not re-checked) flows through every solve into the score, and must
    /// not read as 0: the run spends its budget unconverged — 200 ms of
    /// wall clock or of simulated time, or 200 rounds.
    pub(crate) fn nan_in_b_is_never_converged(rows: Rows) {
        let mut ss = grid_split(8, 3, 83);
        for sd in &mut ss.subdomains {
            if let Some(local) = sd.global_of_local.iter().position(|&v| v == 17) {
                sd.rhs[local] = f64::NAN;
            }
        }
        for termination in [
            Termination::Residual { tol: 1e-8 },
            Termination::OracleRms { tol: 1e-8 },
        ] {
            for mut machine in rows(3, rule(termination)) {
                let spent = match &mut machine {
                    Machine::Simulated { config, .. } => {
                        config.horizon = SimDuration::from_millis_f64(200.0);
                        StopKind::Horizon
                    }
                    Machine::LockStep { common, .. } => {
                        common.max_solves_per_node = 200;
                        StopKind::AllHalted
                    }
                    Machine::Pool(config) => {
                        config.budget = Duration::from_millis(200);
                        StopKind::Budget
                    }
                };
                let report = solve(&ss, &machine).unwrap();
                let what = format!("{termination:?} on {machine:?}");
                assert!(!report.converged, "{what}");
                assert_eq!(report.stop, spent, "{what}");
                assert!(report.final_residual.is_nan(), "{what}");
            }
        }
    }

    #[test]
    fn converges_on_the_simulated_machine() {
        converges(simulated_rows);
    }

    #[test]
    fn local_delta_self_halts_on_the_simulated_machine() {
        local_delta_self_halts(simulated_rows);
    }

    #[test]
    fn paper_example_on_the_simulated_machine() {
        paper_example(simulated_rows);
    }

    #[test]
    fn cap_is_not_convergence_on_the_simulated_machine() {
        cap_is_not_convergence(simulated_rows);
    }

    #[test]
    fn a_nan_in_b_is_never_converged_on_the_simulated_machine() {
        nan_in_b_is_never_converged(simulated_rows);
    }

    /// A converged report meets its tolerance on the caller's `(A, b)`, not
    /// on the split's re-sum: on a random-conductance grid torn 3 × 3 the
    /// re-sum differs from `A` in the last bits, and every machine's
    /// `final_residual` is `‖b − A·x‖/‖b‖` of the caller's system, bit for
    /// bit. The split holds the graph's own `A`, not a copy.
    #[test]
    fn a_converged_report_meets_the_tolerance_on_the_callers_system() {
        let a = generators::grid2d_random(40, 40, 1.0, 5);
        let b = generators::random_rhs(1600, 6);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = dtm_graph::partition::grid_blocks(40, 40, 3, 3);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        assert!(std::sync::Arc::ptr_eq(&ss.a, &g.shared().0));
        assert_ne!(ss.reconstruct().0, a, "the re-sum differs from A");
        let (tol, tables): (_, [Rows; 3]) = (1e-8, [simulated_rows, lockstep_rows, pool_rows]);
        let common = rule(Termination::Residual { tol });
        for machine in tables.iter().flat_map(|rows| rows(9, common.clone())) {
            let report = solve(&ss, &machine).unwrap();
            let exact = a.residual_norm(&report.solution, &b) / dtm_sparse::vector::norm2(&b);
            assert!(report.converged && exact <= tol, "{machine:?}: {exact:e}");
            assert_eq!(report.final_residual, exact, "{machine:?}");
        }
    }

    /// A NaN tolerance never compares true: every machine ran out its
    /// budget, horizon or cap and reported unconverged. It is refused up
    /// front, for DTM and the baselines on every machine and for a session
    /// ticket; `∞` stays legal.
    #[test]
    fn a_nan_tolerance_is_a_typed_error_on_every_machine() {
        let ss = grid_split(6, 2, 91);
        let (a, b) = ss.reconstruct();
        let asg = crate::async_baselines::assignment_of(&ss);
        let started = std::time::Instant::now();
        for termination in [
            Termination::OracleRms { tol: f64::NAN },
            Termination::Residual { tol: f64::NAN },
            Termination::LocalDelta {
                tol: f64::NAN,
                patience: 3,
            },
        ] {
            for machine in every_machine(2, rule(termination)) {
                let dtm = solve(&ss, &machine).unwrap_err();
                let block = DtmProblem::of_split(ss.clone())
                    .solve_block(std::slice::from_ref(&b), &machine)
                    .unwrap_err();
                let jacobi = crate::async_baselines::solve(
                    &crate::BaselineAlgo::BlockJacobi,
                    &a,
                    &b,
                    &asg,
                    None,
                    &machine,
                )
                .unwrap_err();
                for err in [dtm, block, jacobi] {
                    assert!(
                        matches!(err, Error::NonFinite { value, .. } if value.is_nan()),
                        "{termination:?} on {machine:?}: {err}"
                    );
                }
            }
        }
        let problem = DtmProblem::of_split(ss.clone());
        let nan = Termination::Residual { tol: f64::NAN };
        let err = problem.rolling(1).unwrap().submit(&b, nan).unwrap_err();
        assert!(matches!(err, Error::NonFinite { .. }), "{err}");
        let mut pool_session = problem.rolling_workstealing(1, 1).unwrap();
        let err = pool_session.submit(&b, nan).unwrap_err();
        assert!(matches!(err, Error::NonFinite { .. }), "{err}");
        pool_session.finish();
        assert!(started.elapsed() < Duration::from_secs(5));
        // Tolerance ∞ stops at the first score (0, run to the cap, is what
        // the cap cells use).
        for machine in every_machine(2, rule(Termination::Residual { tol: f64::INFINITY })) {
            assert!(solve(&ss, &machine).unwrap().converged);
        }
    }

    /// A negative tolerance is never met by a norm: like a NaN one, it is
    /// refused up front — a typed error naming it, for DTM and the
    /// baselines on every machine and for a ticket of either session kind.
    /// `0` (run to the cap) stays legal.
    #[test]
    fn a_negative_tolerance_is_a_typed_error_on_every_machine() {
        let ss = grid_split(6, 2, 93);
        let (a, b) = ss.reconstruct();
        let asg = crate::async_baselines::assignment_of(&ss);
        let started = std::time::Instant::now();
        let named = |err: &Error| matches!(err, Error::Parse(m) if m.contains("-1e-6"));
        for termination in [
            Termination::OracleRms { tol: -1e-6 },
            Termination::Residual { tol: -1e-6 },
            Termination::LocalDelta {
                tol: -1e-6,
                patience: 3,
            },
        ] {
            for machine in every_machine(2, rule(termination)) {
                let dtm = solve(&ss, &machine).unwrap_err();
                let block = DtmProblem::of_split(ss.clone())
                    .solve_block(std::slice::from_ref(&b), &machine)
                    .unwrap_err();
                let jacobi = crate::async_baselines::solve(
                    &crate::BaselineAlgo::BlockJacobi,
                    &a,
                    &b,
                    &asg,
                    None,
                    &machine,
                )
                .unwrap_err();
                for err in [dtm, block, jacobi] {
                    assert!(named(&err), "{termination:?} on {machine:?}: {err}");
                }
            }
        }
        let problem = DtmProblem::of_split(ss.clone());
        let negative = Termination::Residual { tol: -1e-6 };
        let err = problem
            .rolling(1)
            .unwrap()
            .submit(&b, negative)
            .unwrap_err();
        assert!(named(&err), "{err}");
        let mut pool_session = problem.rolling_workstealing(1, 1).unwrap();
        let err = pool_session.submit(&b, negative).unwrap_err();
        assert!(named(&err), "{err}");
        pool_session.finish();
        assert!(started.elapsed() < Duration::from_secs(5));
        for termination in [
            Termination::Residual { tol: 0.0 },
            Termination::LocalDelta {
                tol: 0.0,
                patience: 3,
            },
        ] {
            assert_eq!(termination.check(), Ok(termination), "0 is legal");
        }
    }

    /// A block is checked once, for every machine: an empty block, a column
    /// of the wrong length and a non-finite column are typed errors (they
    /// used to panic in the node builder or the scatter, or — on the
    /// wall-clock machines — run out the budget on a NaN).
    #[test]
    fn bad_blocks_are_typed_errors_on_every_machine() {
        let ss = grid_split(6, 2, 92);
        let n = ss.original_n;
        let problem = DtmProblem::of_split(ss);
        let mut nan = vec![1.0; n];
        nan[4] = f64::NAN;
        let started = std::time::Instant::now();
        for machine in every_machine(2, rule(Termination::Residual { tol: 1e-8 })) {
            let empty = problem.solve_block(&[], &machine).unwrap_err();
            assert!(
                matches!(empty, Error::DimensionMismatch { actual: 0, .. }),
                "{machine:?}"
            );
            let short = problem
                .solve_block(&[vec![1.0; n], vec![1.0; n - 1]], &machine)
                .unwrap_err();
            assert!(
                matches!(short, Error::DimensionMismatch { expected, actual, .. }
                    if expected == n && actual == n - 1),
                "{machine:?}: {short}"
            );
            let err = problem
                .solve_block(&[vec![1.0; n], nan.clone()], &machine)
                .unwrap_err();
            assert!(
                matches!(err, Error::NonFinite { index: 4, .. }),
                "{machine:?}: {err}"
            );
        }
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
