//! High-level entry point: assemble graph → plan → EVS → machine → solve.
//!
//! [`DtmBuilder`] wires the whole pipeline with sensible defaults so the
//! quickstart is five lines, while every knob (partition, shares, twin
//! topology, impedances, machine, compute model, termination) stays
//! overridable.

use crate::fabric::{Pool, Threads};
use crate::impedance::ImpedancePolicy;
use crate::report::SolveReport;
use crate::runtime;
use crate::solver::{self, ComputeModel, DtmConfig, Termination};
use crate::vtm;
use dtm_graph::evs::{split_parallel as evs_split_parallel, EvsOptions, SplitSystem, TwinTopology};
use dtm_graph::partition::{PartitionConfig, Partitioner};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_simnet::{DelayModel, SimDuration, Topology};
use dtm_sparse::{Csr, Error, Result, SparseCholesky};
use std::collections::BTreeSet;

/// Builder for a DTM solve.
#[derive(Debug, Clone)]
pub struct DtmBuilder {
    a: Csr,
    b: Vec<f64>,
    assignment: Option<Vec<usize>>,
    /// Part count for the default partitioner, set by `partition_auto`.
    n_parts: Option<usize>,
    evs_options: EvsOptions,
    twin_topology_set: bool,
    topology: Option<Topology>,
    config: DtmConfig,
}

/// A fully assembled DTM problem, ready to solve (and re-solve under
/// different configs without re-partitioning).
#[derive(Debug, Clone)]
pub struct DtmProblem {
    /// The torn system.
    pub split: SplitSystem,
    /// The machine.
    pub topology: Topology,
    /// Solver configuration.
    pub config: DtmConfig,
    /// Direct reference solution `A⁻¹ b` — computed at build time only for
    /// the termination modes that need an oracle
    /// ([`Termination::OracleRms`], and [`Termination::LocalDelta`] for RMS
    /// reporting). `None` under [`Termination::Residual`]: reference-free
    /// runs never direct-solve the original system.
    pub reference: Option<Vec<f64>>,
}

/// Wait for a set-up thread; if it panicked, the panic continues here.
fn join_setup<T>(handle: std::thread::JoinHandle<Result<T>>) -> Result<T> {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

impl DtmBuilder {
    /// Start from a symmetric system `A x = b`.
    pub fn new(a: Csr, b: Vec<f64>) -> Self {
        Self {
            a,
            b,
            assignment: None,
            n_parts: None,
            evs_options: EvsOptions::default(),
            twin_topology_set: false,
            topology: None,
            config: DtmConfig::default(),
        }
    }

    /// Partition an `nx × ny` grid system into `px × py` blocks mapped onto
    /// a `py × px` processor mesh (links get 1 ms delays unless a topology
    /// is supplied explicitly).
    pub fn grid_blocks(mut self, nx: usize, ny: usize, px: usize, py: usize) -> Self {
        self.assignment = Some(partition::grid_blocks(nx, ny, px, py));
        if self.topology.is_none() {
            self.topology = Some(Topology::mesh(py, px).with_delays(&DelayModel::fixed_ms(1.0)));
        }
        self
    }

    /// Partition an `nx × ny` grid into `k` column strips on a `k`-ring.
    pub fn grid_strips(mut self, nx: usize, ny: usize, k: usize) -> Self {
        self.assignment = Some(partition::grid_strips(nx, ny, k));
        if self.topology.is_none() && k >= 2 {
            self.topology = Some(Topology::ring(k).with_delays(&DelayModel::fixed_ms(1.0)));
        }
        self
    }

    /// Use an explicit per-vertex part assignment.
    pub fn assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Partition the matrix graph into `n_parts` with the default
    /// partitioner ([`Partitioner::default_for`]: nested dissection at
    /// every size) under the default [`PartitionConfig`], computed at
    /// [`build`](Self::build) time. An explicit
    /// [`assignment`](Self::assignment) takes precedence.
    pub fn partition_auto(mut self, n_parts: usize) -> Self {
        self.n_parts = Some(n_parts);
        self
    }

    /// Override the EVS options (share policy, explicit shares, twin
    /// topology). Supplying options here pins the twin topology and
    /// disables the automatic machine-aligned spanning tree.
    pub fn evs_options(mut self, options: EvsOptions) -> Self {
        self.twin_topology_set = true;
        self.evs_options = options;
        self
    }

    /// The machine to run on (processors must equal parts).
    pub fn network(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Impedance policy (default: [`ImpedancePolicy::Matched`]).
    pub fn impedance(mut self, policy: ImpedancePolicy) -> Self {
        self.config.common.impedance = policy;
        self
    }

    /// Compute-time model.
    pub fn compute(mut self, model: ComputeModel) -> Self {
        self.config.compute = model;
        self
    }

    /// Termination rule.
    pub fn termination(mut self, t: Termination) -> Self {
        self.config.common.termination = t;
        self
    }

    /// Simulated-time budget.
    pub fn horizon(mut self, d: SimDuration) -> Self {
        self.config.horizon = d;
        self
    }

    /// Series sampling interval.
    pub fn sample_interval(mut self, d: SimDuration) -> Self {
        self.config.sample_interval = d;
        self
    }

    /// Assemble the problem: build the electric graph, derive the plan,
    /// choose the machine, align the DTLP trees with its links, split, and
    /// compute the direct reference solution.
    ///
    /// Setup is pipelined: the per-part EVS assembly fans out
    /// ([`dtm_graph::evs::split_parallel`], bitwise-equal to the serial
    /// split), and under oracle terminations the direct reference
    /// factorization runs on a thread of its own beside the tearing instead
    /// of after it. Reference-free ([`Termination::Residual`]) builds
    /// never factor the original system.
    ///
    /// # Errors
    /// Any validation failure along the pipeline — first of all a NaN or an
    /// infinity in `b` or in the matrix values
    /// ([`Error::NonFinite`], naming the entry / the row): no executor can
    /// do better with one than an all-NaN "unconverged" report.
    pub fn build(self) -> Result<DtmProblem> {
        dtm_sparse::vector::require_finite("DtmBuilder right-hand side", &self.b)?;
        for row in 0..self.a.n_rows() {
            if let Some((_, value)) = self.a.row(row).find(|(_, v)| !v.is_finite()) {
                return Err(Error::NonFinite {
                    context: "DtmBuilder matrix rows",
                    index: row,
                    value,
                });
            }
        }
        // Start the reference factorization first so it overlaps with the
        // partitioner, plan derivation and the split on a multi-core machine.
        let reference = match self.config.common.termination {
            Termination::Residual { .. } => None,
            _ => {
                let (a, b) = (self.a.clone(), self.b.clone());
                Some(std::thread::spawn(move || {
                    SparseCholesky::factor_fill_reducing(&a).map(|f| f.solve(&b))
                }))
            }
        };
        let torn = self.tear();
        // Joined before `torn` is looked at: no error path leaves the
        // thread running behind the caller's back.
        let reference = reference.map(join_setup);
        let (split, topology, config) = torn?;
        Ok(DtmProblem {
            split,
            topology,
            config,
            reference: reference.transpose()?,
        })
    }

    /// The tearing half of [`build`](Self::build): partition, plan, machine,
    /// EVS split. Hands the configuration back beside them.
    fn tear(self) -> Result<(SplitSystem, Topology, DtmConfig)> {
        let assignment =
            match (self.assignment, self.n_parts) {
                (Some(asg), _) => asg,
                (None, Some(n_parts)) => Partitioner::default_for(self.a.n_rows()).assign(
                    &self.a,
                    n_parts,
                    &PartitionConfig::default(),
                ),
                (None, None) => return Err(Error::Parse(
                    "no partition given: call grid_blocks/grid_strips/assignment/partition_auto"
                        .into(),
                )),
            };
        let graph = ElectricGraph::from_system(self.a, self.b)?;
        let plan = PartitionPlan::from_assignment(&graph, &assignment)?;
        let n_parts = plan.n_parts();
        let topology = match self.topology {
            Some(t) => t,
            None => Topology::complete(n_parts).with_delays(&DelayModel::fixed_ms(1.0)),
        };
        if topology.n_nodes() != n_parts {
            return Err(Error::DimensionMismatch {
                context: "DtmBuilder: processors vs parts",
                expected: n_parts,
                actual: topology.n_nodes(),
            });
        }
        // Align multilevel DTLP trees with machine links unless the caller
        // pinned a twin topology explicitly.
        let mut evs_options = self.evs_options;
        if !self.twin_topology_set {
            let pairs: BTreeSet<(usize, usize)> = topology
                .links()
                .iter()
                .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
                .collect();
            evs_options.twin_topology = TwinTopology::TreeWithin(pairs);
        }
        let split = evs_split_parallel(&graph, &plan, &evs_options, &runtime::setup_pool()?)?;
        // Surface a malformed machine (a DTLP with no directed link) as a
        // typed error here, at assembly time, rather than a panic once a
        // backend first looks the delay up.
        solver::check_mapping(&split, &topology)?;
        Ok((split, topology, self.config))
    }

    /// Build and solve in one call.
    ///
    /// # Errors
    /// See [`DtmBuilder::build`] and [`solver::solve`].
    pub fn solve(self) -> Result<SolveReport> {
        self.build()?.solve()
    }
}

impl DtmProblem {
    /// Run DTM on the assembled problem.
    ///
    /// # Errors
    /// See [`solver::solve`].
    pub fn solve(&self) -> Result<SolveReport> {
        solver::solve(
            &self.split,
            self.topology.clone(),
            self.reference.clone(),
            &self.config,
        )
    }

    /// Run DTM for a block of `rhs_cols` global right-hand sides solved
    /// simultaneously over one factorization per subdomain (see
    /// [`solver::solve_block`]).
    ///
    /// # Errors
    /// See [`solver::solve_block`]; a NaN or an infinity in a column is
    /// [`Error::NonFinite`], naming its first such entry.
    pub fn solve_block(&self, rhs_cols: &[Vec<f64>]) -> Result<SolveReport> {
        for col in rhs_cols {
            dtm_sparse::vector::require_finite("DtmProblem::solve_block column", col)?;
        }
        solver::solve_block(
            &self.split,
            self.topology.clone(),
            rhs_cols,
            None,
            &self.config,
        )
    }

    /// Open a streaming session on the simulated machine: every subdomain
    /// is factored **once** (§5), then right-hand sides are admitted into
    /// the live block wave as slots free up, each under its own
    /// [`Termination`], and completions stream out as
    /// [`crate::session::ColumnReport`]s — see [`crate::session`].
    ///
    /// # Errors
    /// Propagates impedance/factorization failures; `slots` must be ≥ 1.
    pub fn rolling(&self, slots: usize) -> Result<crate::session::RollingSession> {
        crate::session::RollingSession::new(self, slots)
    }

    /// Open a rolling session on real OS threads (one per subdomain) —
    /// the wall-clock variant of [`rolling`](Self::rolling).
    ///
    /// # Errors
    /// See [`rolling`](Self::rolling).
    pub fn rolling_threaded(&self, slots: usize) -> Result<crate::session::RollingThreadedSession> {
        crate::session::WallclockSession::new(self, slots, |runtimes, hook| {
            Threads::start(runtimes, slots, None, false, hook)
        })
    }

    /// Open a rolling session on the in-process worker pool
    /// (`num_threads = 0` uses the available parallelism).
    ///
    /// # Errors
    /// See [`rolling`](Self::rolling).
    pub fn rolling_workstealing(
        &self,
        slots: usize,
        num_threads: usize,
    ) -> Result<crate::session::RollingPoolSession> {
        crate::session::WallclockSession::new(self, slots, |runtimes, hook| {
            Pool::start(runtimes, slots, num_threads, false, hook)
        })
    }

    /// Run VTM (synchronous rounds) on the same torn system under the
    /// problem's own [`CommonConfig`](crate::runtime::CommonConfig) — the
    /// paper's DTM-vs-VTM comparison uses exactly this pairing.
    ///
    /// # Errors
    /// See [`vtm::solve`].
    pub fn solve_vtm(&self) -> Result<SolveReport> {
        vtm::solve(&self.split, self.reference.clone(), &self.config.common)
    }

    /// Run DTM on real OS threads over the same torn system — one
    /// algorithm, another machine (see [`crate::runtime`]).
    ///
    /// # Errors
    /// See [`crate::threaded::solve`].
    pub fn solve_threaded(&self, config: &crate::threaded::ThreadedConfig) -> Result<SolveReport> {
        crate::threaded::solve_with_reference(&self.split, self.reference.clone(), config)
    }

    /// Run DTM on the in-process work-stealing pool over the same torn
    /// system.
    ///
    /// # Errors
    /// See [`crate::rayon_backend::solve`].
    pub fn solve_workstealing(
        &self,
        config: &crate::rayon_backend::RayonConfig,
    ) -> Result<SolveReport> {
        crate::rayon_backend::solve_with_reference(&self.split, self.reference.clone(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::generators;

    #[test]
    fn quickstart_grid_blocks() {
        let a = generators::grid2d_laplacian(9, 9);
        let b = vec![1.0; 81];
        let report = DtmBuilder::new(a.clone(), b.clone())
            .grid_blocks(9, 9, 2, 2)
            .solve()
            .unwrap();
        assert!(report.converged, "rms {}", report.final_rms);
        assert!(a.residual_norm(&report.solution, &b) < 1e-6);
        assert_eq!(report.n_parts, 4);
    }

    #[test]
    fn strips_on_ring() {
        let a = generators::grid2d_random(12, 6, 1.0, 61);
        let b = generators::random_rhs(72, 62);
        let report = DtmBuilder::new(a, b)
            .grid_strips(12, 6, 3)
            .termination(Termination::OracleRms { tol: 1e-7 })
            .solve()
            .unwrap();
        assert!(report.converged);
    }

    #[test]
    fn partitioner_builds_and_solves() {
        let a = generators::grid2d_laplacian(10, 10);
        let b = generators::random_rhs(100, 81);
        for kind in [Partitioner::Strips, Partitioner::NestedDissection] {
            let report = DtmBuilder::new(a.clone(), b.clone())
                .assignment(kind.assign(&a, 4, &PartitionConfig::default()))
                .solve()
                .unwrap();
            assert!(report.converged, "{kind:?}: rms {}", report.final_rms);
            assert!(a.residual_norm(&report.solution, &b) < 1e-5, "{kind:?}");
            assert_eq!(report.n_parts, 4);
        }
    }

    #[test]
    fn partition_auto_is_nested_dissection_and_solves() {
        let a = generators::grid2d_laplacian(10, 10);
        let b = generators::random_rhs(100, 83);
        let auto = DtmBuilder::new(a.clone(), b.clone())
            .partition_auto(4)
            .build()
            .unwrap();
        let explicit = DtmBuilder::new(a.clone(), b.clone())
            .assignment(partition::nested_dissection(&a, 4))
            .build()
            .unwrap();
        for (got, want) in auto.split.subdomains.iter().zip(&explicit.split.subdomains) {
            assert_eq!(got.global_of_local, want.global_of_local);
        }
        let report = auto.solve().unwrap();
        assert!(report.converged);
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
    }

    #[test]
    fn missing_partition_is_an_error() {
        let a = generators::grid2d_laplacian(4, 4);
        let err = DtmBuilder::new(a, vec![0.0; 16]).solve();
        assert!(err.is_err());
    }

    #[test]
    fn problem_can_be_resolved_with_vtm() {
        let a = generators::grid2d_laplacian(8, 8);
        let b = generators::random_rhs(64, 63);
        let problem = DtmBuilder::new(a, b)
            .grid_blocks(8, 8, 2, 2)
            .build()
            .unwrap();
        let dtm = problem.solve().unwrap();
        let vtm = problem.solve_vtm().unwrap();
        assert!(dtm.converged && vtm.converged);
        for (u, v) in dtm.solution.iter().zip(&vtm.solution) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn session_streams_batches_without_refactoring() {
        let a = generators::grid2d_laplacian(8, 8);
        let b = generators::random_rhs(64, 71);
        let problem = DtmBuilder::new(a.clone(), b)
            .grid_blocks(8, 8, 2, 2)
            .build()
            .unwrap();
        let mut session = problem.rolling(2).unwrap();
        let rule = Termination::Residual { tol: 1e-8 };
        let budget = SimDuration::from_millis_f64(600_000.0);

        // Batch 1: two RHS at once.
        let b1 = generators::random_rhs(64, 72);
        let b2 = generators::random_rhs(64, 73);
        session.submit(&b1, rule).unwrap();
        session.submit(&b2, rule).unwrap();
        assert_eq!(session.outstanding(), 2);
        let mut r1 = session.drain_for(budget);
        r1.sort_by_key(|r| r.ticket);
        assert_eq!(r1.len(), 2);
        assert_eq!(session.outstanding(), 0);
        assert!(a.residual_norm(&r1[0].solution, &b1) < 1e-5);
        assert!(a.residual_norm(&r1[1].solution, &b2) < 1e-5);

        // Batch 2: a later single RHS rides the same factors and the same
        // exchange, which resumes rather than restarts.
        let solves = session.total_solves();
        let b3 = generators::random_rhs(64, 74);
        session.submit(&b3, rule).unwrap();
        let r2 = session.drain_for(budget);
        assert_eq!(r2.len(), 1);
        assert!(a.residual_norm(&r2[0].solution, &b3) < 1e-5);
        assert!(session.total_solves() > solves);
    }

    #[test]
    fn session_rejects_wrong_length_rhs() {
        let a = generators::grid2d_laplacian(6, 6);
        let problem = DtmBuilder::new(a, vec![1.0; 36])
            .grid_blocks(6, 6, 2, 2)
            .build()
            .unwrap();
        let mut session = problem.rolling(1).unwrap();
        let rule = Termination::Residual { tol: 1e-6 };
        assert!(session.submit(&[1.0; 35], rule).is_err());
        assert_eq!(session.outstanding(), 0);
    }

    #[test]
    fn problem_solve_block_matches_per_column_direct() {
        let a = generators::grid2d_random(9, 9, 1.0, 64);
        let b = generators::random_rhs(81, 65);
        let problem = DtmBuilder::new(a.clone(), b)
            .grid_blocks(9, 9, 2, 2)
            .termination(Termination::OracleRms { tol: 1e-9 })
            .build()
            .unwrap();
        let cols: Vec<Vec<f64>> = (0..3).map(|c| generators::random_rhs(81, 90 + c)).collect();
        let report = problem.solve_block(&cols).unwrap();
        assert!(report.converged);
        assert_eq!(report.n_rhs, 3);
        assert_eq!(report.final_rms_per_rhs.len(), 3);
        for (x, b) in report.solutions.iter().zip(&cols) {
            assert!(a.residual_norm(x, b) < 1e-5);
        }
    }

    #[test]
    fn non_finite_input_is_rejected_at_build() {
        // A NaN in b, or an infinity in the matrix values, is a typed error
        // naming the entry — not an all-NaN "unconverged" report.
        let build = |a: Csr, b: Vec<f64>| DtmBuilder::new(a, b).grid_blocks(6, 6, 2, 2).build();
        let a = generators::grid2d_laplacian(6, 6);
        let mut b = vec![1.0; 36];
        b[7] = f64::NAN;
        match build(a.clone(), b).unwrap_err() {
            Error::NonFinite {
                index: 7, value, ..
            } => assert!(value.is_nan()),
            other => panic!("expected NonFinite at 7, got {other}"),
        }
        let mut bad = a;
        let first_of_row_3 = bad.row_ptr()[3];
        bad.values_mut()[first_of_row_3] = f64::INFINITY;
        let err = build(bad, vec![1.0; 36]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::NonFinite {
                    index: 3,
                    value: f64::INFINITY,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn non_finite_solve_block_column_is_a_typed_error() {
        let a = generators::grid2d_laplacian(6, 6);
        let problem = DtmBuilder::new(a, vec![1.0; 36])
            .grid_blocks(6, 6, 2, 2)
            .build()
            .unwrap();
        let mut cols = vec![vec![1.0; 36], vec![2.0; 36]];
        cols[1][35] = f64::NEG_INFINITY;
        let err = problem.solve_block(&cols).unwrap_err();
        assert!(matches!(err, Error::NonFinite { index: 35, .. }), "{err}");
    }

    #[test]
    fn wrong_machine_size_rejected() {
        let a = generators::grid2d_laplacian(6, 6);
        let err = DtmBuilder::new(a, vec![0.0; 36])
            .assignment(dtm_graph::partition::grid_blocks(6, 6, 2, 2))
            .network(Topology::ring(3).with_delays(&DelayModel::fixed_ms(1.0)))
            .build();
        assert!(err.is_err());
    }
}
