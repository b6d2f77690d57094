//! Solve reports: everything a run produces, ready for printing or
//! regression-testing.

use crate::monitor::{worse, Retired};
use crate::runtime::{AsyncNode, Termination};

/// Which executor produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation on a [`dtm_simnet`]
    /// machine ([`crate::solver`]).
    Simulated,
    /// In-process worker pool on one ready queue, any worker steps any
    /// part, behind the delay router when its config has a
    /// `delay_topology` ([`crate::Machine::Pool`],
    /// [`crate::rayon_backend`]; the name predates the queue).
    WorkStealing,
    /// Multi-process execution over real sockets (UDS/TCP), one OS
    /// process per partition group (`dtm-net`'s round-structured
    /// distributed runner).
    Distributed,
}

/// Which *algorithm* produced a report — orthogonal to [`BackendKind`]
/// (the machine it ran on). DTM and the randomized-asynchrony baselines
/// run behind the same [`AsyncNode`] /
/// [`Transport`](crate::runtime::Transport) contract, so one
/// report vocabulary covers them all and `repro compare` can pit them
/// message for message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The Directed Transmission Method (the paper's algorithm).
    Dtm,
    /// Asynchronous block-Jacobi (refs \[17\]–\[19\] of the paper).
    BlockJacobiAsync,
    /// Synchronous block-Jacobi / additive Schwarz with a barrier model.
    BlockJacobiSync,
    /// Randomized asynchronous Richardson (Avron et al. 2013,
    /// arXiv:1304.6475): exact relaxations of randomly selected rows.
    RandomizedRichardson,
    /// Hong's D-iteration (2012, arXiv:1202.3108): residual diffusion.
    DIteration,
}

impl AlgorithmKind {
    /// Human-readable name for tables and trace tags.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Dtm => "dtm",
            AlgorithmKind::BlockJacobiAsync => "block-jacobi-async",
            AlgorithmKind::BlockJacobiSync => "block-jacobi-sync",
            AlgorithmKind::RandomizedRichardson => "randomized-richardson",
            AlgorithmKind::DIteration => "d-iteration",
        }
    }
}

/// Why a distributed solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// The oracle monitor observed the RMS tolerance.
    OracleTolerance,
    /// Every processor declared local convergence and halted (Table 1 step
    /// 3.3 — the genuinely distributed criterion).
    AllHalted,
    /// The simulated-time horizon was exhausted first.
    Horizon,
    /// The wall-clock budget of a real-execution backend expired first.
    Budget,
    /// The network went quiescent (no messages in flight).
    Quiescent,
}

/// Outcome of a distributed solve (DTM, VTM or a baseline) — the shared
/// report vocabulary of every executor.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Which executor ran the solve.
    pub backend: BackendKind,
    /// Which algorithm ran (DTM or one of the baselines).
    pub algorithm: AlgorithmKind,
    /// Gathered global solution (split copies averaged) of the first RHS
    /// column — the scalar pipeline's answer, kept as the primary field.
    pub solution: Vec<f64>,
    /// Number of right-hand-side columns solved simultaneously (1 for the
    /// scalar pipeline).
    pub n_rhs: usize,
    /// Gathered global solution per RHS column (`solutions[0]` ==
    /// `solution`).
    pub solutions: Vec<Vec<f64>>,
    /// Final RMS error per RHS column. **Empty for reference-free runs**
    /// ([`Termination::Residual`] with no explicit reference): no oracle
    /// solution exists to compare against.
    pub final_rms_per_rhs: Vec<f64>,
    /// Whether the requested tolerance was met.
    pub converged: bool,
    /// Final RMS error against the direct reference solution (worst column
    /// of a block solve). **`NaN` for reference-free runs** (by contract,
    /// exactly when [`final_rms_per_rhs`](Self::final_rms_per_rhs) is
    /// empty) — use [`final_rms_opt`](Self::final_rms_opt) for printing
    /// and [`final_residual`](Self::final_residual), which is always
    /// computed, for a quality number.
    pub final_rms: f64,
    /// Final relative true residual `‖b − A·x‖₂ / ‖b‖₂` against the
    /// reconstructed original system, worst column. Always computed (one
    /// SpMV per column at stop), in every termination mode.
    pub final_residual: f64,
    /// Final relative residual per RHS column.
    pub final_residual_per_rhs: Vec<f64>,
    /// Solver time at stop, in milliseconds: simulated time for the
    /// simnet backend, wall-clock time for real-execution backends.
    pub final_time_ms: f64,
    /// `(time_ms, rms)` staircase (decimated by the sample interval for
    /// the simulated backend; one point per supervisor poll for the
    /// wall-clock backends).
    pub series: Vec<(f64, f64)>,
    /// Total local solves (activations) across all processors — one unit
    /// of useful work whatever the algorithm: a pair of triangular
    /// substitutions for DTM/block-Jacobi, a randomized relaxation sweep
    /// for Richardson, a diffusion pass for D-iteration.
    pub total_solves: u64,
    /// Total messages transmitted.
    pub total_messages: u64,
    /// Estimated floating-point operations across all processors —
    /// counted uniformly (multiply-adds ×2) so DTM and the baselines can
    /// be compared flop for flop as well as message for message.
    pub total_flops: u64,
    /// Receive batches that coalesced more than one message (tracked by
    /// the simulated backend; zero where the fabric doesn't expose it).
    pub coalesced_batches: u64,
    /// Number of processors/subdomains.
    pub n_parts: usize,
    /// Stop cause.
    pub stop: StopKind,
}

/// Work counters of one run, read off the nodes once the executor is
/// quiescent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Activations performed.
    pub solves: u64,
    /// Messages scattered.
    pub messages: u64,
    /// Estimated floating-point operations.
    pub flops: u64,
    /// Some node was retired by its solve cap rather than by declaring
    /// convergence.
    pub any_capped: bool,
}

impl Totals {
    /// Fold one node's counters in.
    pub(crate) fn add(&mut self, node: &impl AsyncNode) {
        self.solves += node.solves();
        self.messages += node.messages_sent();
        self.flops += node.flops();
        self.any_capped |= node.capped();
    }
}

/// What an executor measured — everything [`SolveReport::assemble`]
/// derives a report from.
#[derive(Debug)]
pub struct RunSummary {
    /// Which executor ran.
    pub backend: BackendKind,
    /// Which algorithm ran.
    pub algorithm: AlgorithmKind,
    /// The stopping rule the run was held to.
    pub termination: Termination,
    /// Why the run ended.
    pub stop: StopKind,
    /// Solver time at stop, in milliseconds.
    pub time_ms: f64,
    /// What the scorer's columns retired with, one per RHS column: the
    /// gathered solution, its exact relative residual and — where the run
    /// carried references — its exact RMS.
    pub columns: Vec<Retired>,
    /// `(time_ms, metric)` staircase.
    pub series: Vec<(f64, f64)>,
    /// Work counters.
    pub totals: Totals,
    /// Receive batches that coalesced more than one message.
    pub coalesced_batches: u64,
    /// Number of processors/subdomains.
    pub n_parts: usize,
}

impl SolveReport {
    /// The one report assembly — every executor and every algorithm ends
    /// here — holding the one `converged` rule: a tolerance mode converged
    /// when its own metric (oracle RMS / relative residual, worst column)
    /// of the returned solution meets the tolerance (a NaN in any column
    /// never does); `LocalDelta` converged when every node went passive of
    /// its own accord — a node retired by the solve cap never declared
    /// convergence, so "everyone eventually stopped" must not masquerade as
    /// success.
    pub fn assemble(run: RunSummary) -> Self {
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, worse);
        let rms_per_rhs: Vec<f64> = run.columns.iter().filter_map(|col| col.rms).collect();
        let residual_per_rhs: Vec<f64> = run.columns.iter().map(|col| col.residual).collect();
        let solutions: Vec<Vec<f64>> = run.columns.into_iter().map(|col| col.solution).collect();
        let final_rms = if rms_per_rhs.is_empty() {
            f64::NAN
        } else {
            worst(&rms_per_rhs)
        };
        let final_residual = worst(&residual_per_rhs);
        let converged = match run.termination {
            Termination::OracleRms { tol } => final_rms <= tol,
            Termination::Residual { tol } => final_residual <= tol,
            Termination::LocalDelta { .. } => {
                matches!(run.stop, StopKind::AllHalted | StopKind::Quiescent)
                    && !run.totals.any_capped
            }
        };
        Self {
            backend: run.backend,
            algorithm: run.algorithm,
            solution: solutions.first().cloned().unwrap_or_default(),
            n_rhs: solutions.len(),
            solutions,
            final_rms_per_rhs: rms_per_rhs,
            converged,
            final_rms,
            final_residual,
            final_residual_per_rhs: residual_per_rhs,
            final_time_ms: run.time_ms,
            series: run.series,
            total_solves: run.totals.solves,
            total_messages: run.totals.messages,
            total_flops: run.totals.flops,
            coalesced_batches: run.coalesced_batches,
            n_parts: run.n_parts,
            stop: run.stop,
        }
    }

    /// [`final_rms`](Self::final_rms) as an `Option`: `None` on
    /// reference-free runs, where the stored field is `NaN` **by
    /// contract** (`final_rms.is_nan()` ⇔ `final_rms_per_rhs.is_empty()`;
    /// every constructor debug-asserts it). Prefer this accessor anywhere
    /// the value is printed or compared, so a reference-free run renders
    /// as "no oracle" (e.g. `-`) instead of leaking `NaN` into a table.
    pub fn final_rms_opt(&self) -> Option<f64> {
        if self.final_rms.is_nan() {
            None
        } else {
            Some(self.final_rms)
        }
    }

    /// Average messages per local solve (communication efficiency).
    pub fn messages_per_solve(&self) -> f64 {
        if self.total_solves == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.total_solves as f64
        }
    }

    /// Average flops per transmitted message (arithmetic intensity of the
    /// exchange — the comparison axis where DTM's factor-once local solves
    /// differ most from point-relaxation baselines).
    pub fn flops_per_message(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_flops as f64 / self.total_messages as f64
        }
    }

    /// Solver time per right-hand side — the amortized cost a batched run
    /// pays per RHS column (equals [`final_time_ms`](Self::final_time_ms)
    /// for the scalar pipeline).
    pub fn time_per_rhs_ms(&self) -> f64 {
        self.final_time_ms / self.n_rhs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SolveReport {
        SolveReport {
            backend: BackendKind::Simulated,
            algorithm: AlgorithmKind::Dtm,
            solution: vec![1.0],
            n_rhs: 1,
            solutions: vec![vec![1.0]],
            final_rms_per_rhs: vec![1e-9],
            converged: true,
            final_rms: 1e-9,
            final_residual: 2e-9,
            final_residual_per_rhs: vec![2e-9],
            final_time_ms: 12.5,
            series: vec![(0.0, 1.0), (5.0, 1e-3), (10.0, 1e-7), (12.5, 1e-9)],
            total_solves: 40,
            total_messages: 80,
            total_flops: 400,
            coalesced_batches: 3,
            n_parts: 4,
            stop: StopKind::OracleTolerance,
        }
    }

    #[test]
    fn messages_per_solve() {
        assert!((report().messages_per_solve() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flops_per_message() {
        assert!((report().flops_per_message() - 5.0).abs() < 1e-12);
        let mut r = report();
        r.total_messages = 0;
        assert_eq!(r.flops_per_message(), 0.0);
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(AlgorithmKind::Dtm.name(), "dtm");
        assert_eq!(
            AlgorithmKind::RandomizedRichardson.name(),
            "randomized-richardson"
        );
        assert_eq!(AlgorithmKind::DIteration.name(), "d-iteration");
    }

    #[test]
    fn time_per_rhs_amortizes_over_columns() {
        let mut r = report();
        assert!((r.time_per_rhs_ms() - 12.5).abs() < 1e-12);
        r.n_rhs = 5;
        assert!((r.time_per_rhs_ms() - 2.5).abs() < 1e-12);
    }
}
