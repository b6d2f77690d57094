//! High-level entry point: assemble graph → plan → EVS → machine → solve.
//!
//! [`DtmBuilder`] wires the whole pipeline with sensible defaults so the
//! quickstart is five lines, while every knob (partition, shares, twin
//! topology, impedances, machine, compute model, termination) stays
//! overridable.

use crate::impedance::ImpedancePolicy;
use crate::machine::{self, Machine};
use crate::report::SolveReport;
use crate::solver::{self, ComputeModel, DtmConfig, Termination};
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
    /// The simulated machine the builder chose — what
    /// [`DtmBuilder::solve`] and [`rolling`](DtmProblem::rolling) run on.
    pub topology: Topology,
    /// The builder's configuration of that machine.
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
    /// do better with one than an all-NaN "unconverged" report — or a
    /// [`partition_auto`](Self::partition_auto) part count outside `1..=n`.
    pub fn build(mut self) -> Result<DtmProblem> {
        // The input boundary first, so a bad value never starts a
        // factorization. The system moves into the graph; `tear` reads it
        // from there.
        if let (None, Some(k)) = (&self.assignment, self.n_parts) {
            let n = self.a.n_rows();
            if k == 0 || k > n {
                return Err(Error::Parse(format!(
                    "partition_auto: need 1 ≤ parts ≤ unknowns, got {k} parts for {n} unknowns"
                )));
            }
        }
        let graph = ElectricGraph::from_system(
            std::mem::replace(&mut self.a, Csr::zeros(0, 0)),
            std::mem::take(&mut self.b),
        )?;
        // Start the reference factorization first so it overlaps with the
        // partitioner, plan derivation and the split on a multi-core machine.
        let reference = match self.config.common.termination {
            Termination::Residual { .. } => None,
            _ => {
                let (a, b) = graph.shared();
                Some(std::thread::spawn(move || {
                    SparseCholesky::factor_fill_reducing(&a).map(|f| f.solve(&b))
                }))
            }
        };
        let torn = self.tear(&graph);
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
    /// EVS split of `graph`. Hands the configuration back beside them.
    fn tear(self, graph: &ElectricGraph) -> Result<(SplitSystem, Topology, DtmConfig)> {
        let assignment =
            match (self.assignment, self.n_parts) {
                (Some(asg), _) => asg,
                (None, Some(n_parts)) => Partitioner::default_for(graph.n()).assign(
                    graph.matrix(),
                    n_parts,
                    &PartitionConfig::default(),
                ),
                (None, None) => return Err(Error::Parse(
                    "no partition given: call grid_blocks/grid_strips/assignment/partition_auto"
                        .into(),
                )),
            };
        let plan = PartitionPlan::from_assignment(graph, &assignment)?;
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
        let split = evs_split_parallel(graph, &plan, &evs_options, &rayon::ThreadPool::default())?;
        // Surface a malformed machine (a DTLP with no directed link) as a
        // typed error here, at assembly time, rather than a panic once a
        // backend first looks the delay up.
        solver::check_mapping(&split, &topology)?;
        Ok((split, topology, self.config))
    }

    /// Build and solve in one call, on the simulated machine the builder
    /// describes.
    ///
    /// # Errors
    /// See [`DtmBuilder::build`] and [`DtmProblem::solve`].
    pub fn solve(self) -> Result<SolveReport> {
        let DtmProblem {
            split,
            topology,
            config,
            reference,
        } = self.build()?;
        machine::solve_dtm(
            &split,
            None,
            reference.map(|r| vec![r]),
            None,
            &Machine::Simulated { topology, config },
        )
    }
}

impl DtmProblem {
    /// Run DTM on the assembled problem on `machine` — one algorithm, any
    /// machine (see [`Machine`]). The problem's own reference
    /// solution, if it has one, is what RMS monitoring measures against.
    ///
    /// # Errors
    /// A NaN tolerance ([`Error::NonFinite`]), a machine whose link table
    /// misses a wave route, or an impedance/factorization failure.
    pub fn solve(&self, machine: &Machine) -> Result<SolveReport> {
        machine::solve_dtm(
            &self.split,
            None,
            self.reference.clone().map(|r| vec![r]),
            None,
            machine,
        )
    }

    /// Run DTM for a block of `rhs_cols` global right-hand sides solved
    /// simultaneously over one factorization per subdomain: every wave
    /// carries one `(u, ω)` value per column, and the run ends when the
    /// *worst* column meets the stopping rule.
    ///
    /// # Errors
    /// An empty block or a column of the wrong length is
    /// [`Error::DimensionMismatch`]; a NaN or an infinity in a column is
    /// [`Error::NonFinite`], naming its first such entry; otherwise see
    /// [`solve`](Self::solve).
    pub fn solve_block(&self, rhs_cols: &[Vec<f64>], machine: &Machine) -> Result<SolveReport> {
        const CONTEXT: &str = "DtmProblem::solve_block column";
        if rhs_cols.is_empty() {
            return Err(Error::DimensionMismatch {
                context: "DtmProblem::solve_block: at least one column",
                expected: 1,
                actual: 0,
            });
        }
        for col in rhs_cols {
            if col.len() != self.split.original_n {
                return Err(Error::DimensionMismatch {
                    context: CONTEXT,
                    expected: self.split.original_n,
                    actual: col.len(),
                });
            }
            dtm_sparse::vector::require_finite(CONTEXT, col)?;
        }
        machine::solve_dtm(&self.split, None, None, Some(rhs_cols), machine)
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
        crate::session::WallclockSession::new(self, slots, num_threads)
    }

    /// A problem over a split torn elsewhere, so it solves on any
    /// [`Machine`]: no reference is precomputed (the oracle reference is
    /// solved where a run needs one), and its own machine is the builder's
    /// default, the complete machine on 1 ms links.
    pub fn of_split(split: SplitSystem) -> Self {
        Self {
            topology: Topology::complete(split.n_parts()).with_delays(&DelayModel::fixed_ms(1.0)),
            config: DtmConfig::default(),
            reference: None,
            split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::generators;

    /// The simulated machine the builder chose for `p`.
    fn own_machine(p: &DtmProblem) -> Machine {
        Machine::Simulated {
            topology: p.topology.clone(),
            config: p.config.clone(),
        }
    }

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
        let report = auto.solve(&own_machine(&auto)).unwrap();
        assert!(report.converged);
        assert!(a.residual_norm(&report.solution, &b) < 1e-5);
    }

    #[test]
    fn missing_partition_is_an_error() {
        let a = generators::grid2d_laplacian(4, 4);
        let err = DtmBuilder::new(a, vec![0.0; 16]).solve();
        assert!(err.is_err());
    }

    /// A `partition_auto` part count outside `1..=n` is a typed error
    /// naming both numbers, before any set-up thread starts; `k = n` builds.
    #[test]
    fn part_count_outside_one_to_n_is_an_error() {
        for (nx, ny, k) in [(4, 4, 0), (1, 1, 2), (5, 1, 8)] {
            let a = generators::grid2d_laplacian(nx, ny);
            let n = a.n_rows();
            match DtmBuilder::new(a, vec![1.0; n]).partition_auto(k).build() {
                Err(Error::Parse(msg)) => assert!(
                    msg.contains(&format!("{k} parts for {n} unknowns")),
                    "{msg}"
                ),
                other => panic!("k = {k}, n = {n}: {other:?}"),
            }
        }
        let a = generators::grid2d_laplacian(3, 3);
        let problem = DtmBuilder::new(a, vec![1.0; 9]).partition_auto(9).build();
        assert_eq!(problem.unwrap().split.n_parts(), 9);
    }

    #[test]
    fn problem_can_be_resolved_with_vtm() {
        let a = generators::grid2d_laplacian(8, 8);
        let b = generators::random_rhs(64, 63);
        let problem = DtmBuilder::new(a, b)
            .grid_blocks(8, 8, 2, 2)
            .build()
            .unwrap();
        let dtm = problem.solve(&own_machine(&problem)).unwrap();
        let vtm = problem
            .solve(&Machine::LockStep {
                common: problem.config.common.clone(),
                price: None,
            })
            .unwrap();
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
        // An oracle ticket is checked before its reference is solved: a
        // wrong length used to panic inside the direct solve.
        for rule in [
            Termination::Residual { tol: 1e-6 },
            Termination::OracleRms { tol: 1e-6 },
        ] {
            assert!(session.submit(&[1.0; 35], rule).is_err());
        }
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
        let report = problem.solve_block(&cols, &own_machine(&problem)).unwrap();
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
        let err = problem
            .solve_block(&cols, &own_machine(&problem))
            .unwrap_err();
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
