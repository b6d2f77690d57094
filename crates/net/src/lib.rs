//! Distributed socket backend: DTM across OS processes.
//!
//! Every other executor in this workspace keeps the solve inside one
//! address space — the [`Transport`](dtm_core::runtime::Transport) is a
//! channel or a simulated fabric. This crate takes the transport out of
//! the process: partitions are grouped, each group runs in its **own OS
//! process**, and waves travel over real sockets (Unix-domain by
//! default, TCP behind the same code path) in a hand-rolled,
//! length-prefixed binary wire format ([`wire`]).
//!
//! The headline property is *bitwise reproducibility*: the distributed
//! run returns the **same bits** as the in-process reference run, not
//! merely a result of similar quality. That falls out of the
//! round-structured executor ([`round`]): each node absorbs exactly one
//! wave per neighbour per round in canonical order and steps once, so
//! its floating-point schedule is a pure function of the problem —
//! independent of process count, socket timing and thread interleaving.
//! `repro compare --transport uds --processes 2` asserts this equality
//! on every run.
//!
//! The parent does not score every round. Each group ships every round's
//! snapshots, and the supervisor gathers and scores (one SpMV) only the
//! rounds that the metric's measured decay calls for
//! ([`dtm_core::monitor::next_round`]): after round 0 and round 1 the gap
//! doubles while the tolerance is far, then shrinks to one round near the
//! predicted crossing (half the predicted rounds left, at most twice the
//! last gap, at least one). It drops the other rounds' snapshots unread.
//! Which rounds are scored is a pure function of round indices and the
//! exact metrics of the rounds scored before, so both run modes score the
//! same rounds and stop at the same one. The round cap's last round is
//! never skipped; once the budget is out, the next round to complete is
//! scored and reported.
//!
//! Module map:
//! - [`wire`] — the hand-rolled binary frame format with a total,
//!   panic-free decoder; one frame per link per round in steady state.
//! - [`socket`] — UDS/TCP behind one [`socket::Stream`] enum.
//! - [`round`] — the deterministic round executor both modes share: one
//!   wave batch per peer group and one snapshot batch per round.
//! - [`runner`] — the parent supervisor: spawn, handshake, score the
//!   rounds the cadence picks, tear down (children are always reaped,
//!   error or not).
//! - [`child`] — the child-process side behind the hidden `net-child`
//!   CLI mode.

pub mod child;
pub mod round;
pub mod runner;
pub mod socket;
pub mod wire;

pub use child::child_main;
pub use runner::{ChildCommand, FailInjection, FAIL_ENV};
pub use socket::TransportKind;

use dtm_core::impedance;
use dtm_core::report::{AlgorithmKind, BackendKind, RunSummary, SolveReport, Totals};
use dtm_core::runtime::{CommonConfig, ExecutorBackend, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::{Error, Result};
use runner::RunInputs;
use std::time::Duration;

/// How the groups execute.
#[derive(Debug, Clone)]
pub enum RunMode {
    /// Every group on an OS thread in this process — the bitwise
    /// reference the socket mode is compared against.
    InProcess,
    /// One spawned OS process per group, linked over sockets.
    Processes {
        /// Socket family for all links.
        transport: TransportKind,
        /// How to launch children (executable + argument prefix).
        child: ChildCommand,
        /// Optional failure injection (teardown tests only).
        fail: Option<FailInjection>,
    },
}

/// Configuration of a distributed solve.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Algorithm knobs shared with every other backend. The termination
    /// rule must be [`Termination::Residual`] — the distributed monitor
    /// is reference-free by construction.
    pub common: CommonConfig,
    /// Thread or process execution.
    pub mode: RunMode,
    /// Number of partition groups (= processes in process mode). Parts
    /// are grouped contiguously and balanced: part `p` joins group
    /// `p·groups/n_parts`.
    pub processes: usize,
    /// When set, every cross-part wave route is validated against this
    /// delay topology before anything is spawned; a route with no link
    /// is a typed build-time error (the socket fabric will carry waves
    /// anywhere, but a run that claims to model a machine must not use
    /// links the machine does not have).
    pub topology: Option<Topology>,
    /// Wall-clock budget; the run stops unconverged when it expires.
    pub budget: Duration,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig {
                termination: Termination::Residual { tol: 1e-8 },
                ..Default::default()
            },
            mode: RunMode::InProcess,
            processes: 1,
            topology: None,
            budget: Duration::from_secs(600),
        }
    }
}

/// The multi-process executor backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedBackend;

impl ExecutorBackend for DistributedBackend {
    type Config = DistributedConfig;

    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn solve(
        &self,
        split: &SplitSystem,
        reference: Option<Vec<f64>>,
        config: &DistributedConfig,
    ) -> Result<SolveReport> {
        let tol = match config.common.termination.check()? {
            Termination::Residual { tol } => tol,
            other => {
                return Err(Error::Parse(format!(
                    "distributed backend requires Termination::Residual \
                     (reference-free monitoring), got {other:?}"
                )))
            }
        };
        let n_parts = split.n_parts();
        if config.processes == 0 || config.processes > n_parts {
            return Err(Error::Parse(format!(
                "distributed: processes must be in 1..={n_parts} (one group \
                 needs at least one part), got {}",
                config.processes
            )));
        }
        if let Some(topo) = &config.topology {
            validate_routes(split, topo)?;
        }

        let z_per_dtlp = config.common.impedance.assign(split)?;
        let z_ports = impedance::per_port(split, &z_per_dtlp);
        let group_of_part = group_assignment(n_parts, config.processes);
        let inp = RunInputs {
            split,
            z_ports: &z_ports,
            common: &config.common,
            group_of_part: &group_of_part,
            n_groups: config.processes,
            tol,
            reference: reference.as_deref(),
            budget: config.budget,
            max_rounds: config.common.max_solves_per_node as u64,
        };
        let outcome = match &config.mode {
            RunMode::InProcess => runner::run_in_process(&inp)?,
            RunMode::Processes {
                transport,
                child,
                fail,
            } => runner::run_processes(&inp, *transport, child, *fail)?,
        };
        let rounds = outcome.rounds_completed;
        Ok(SolveReport::assemble(RunSummary {
            backend: BackendKind::Distributed,
            algorithm: AlgorithmKind::Dtm,
            termination: config.common.termination,
            stop: outcome.stop,
            time_ms: outcome.elapsed.as_secs_f64() * 1e3,
            columns: vec![outcome.column],
            series: outcome.series,
            // Deterministic counters: rates × rounds up to the stop round,
            // independent of how far past the stop decision the children
            // overshot.
            totals: Totals {
                solves: rounds * outcome.rates.solves_per_round,
                messages: rounds * outcome.rates.messages_per_round,
                flops: rounds * outcome.rates.flops_per_round,
                any_capped: false,
            },
            coalesced_batches: 0,
            n_parts,
        }))
    }
}

/// Contiguous balanced grouping: part `p` → group `p·groups/n_parts`.
pub fn group_assignment(n_parts: usize, groups: usize) -> Vec<usize> {
    (0..n_parts).map(|p| p * groups / n_parts).collect()
}

/// Check every cross-part wave route against the machine's link table,
/// reporting **all** missing links in one typed error.
fn validate_routes(split: &SplitSystem, topo: &Topology) -> Result<()> {
    let mut missing: Vec<String> = Vec::new();
    for (p, sd) in split.subdomains.iter().enumerate() {
        for port in &sd.ports {
            let q = port.peer.part;
            if p != q && topo.try_delay(p, q).is_err() {
                let s = format!("{p}->{q}");
                if !missing.contains(&s) {
                    missing.push(s);
                }
            }
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(Error::Parse(format!(
            "distributed: wave routes with no link in the delay topology: {}",
            missing.join(", ")
        )))
    }
}
