//! DTM on an in-process worker pool: [`Machine::Pool`]'s configuration,
//! and [`solve_prepared`], its form over prebuilt nodes.
//!
//! The *same* [`NodeRuntime`] state machine that runs under the
//! discrete-event simulator runs here as **activations handed to a few
//! resident workers**: subdomain count decoupled from thread count, any
//! worker takes any part, no thread parked on an idle subdomain. (The
//! module, config and backend names date from when the workers were a
//! work-stealing task pool; since PR 22 they drain one shared queue, and
//! nothing is stolen.)
//!
//! Delay mapping: a wave is an inbox entry plus the receiver's place in
//! the pool's one ready queue, so the DTL transmission delay is the time
//! the receiver waits there — behind the parts queued before it, and for
//! as long as a neighbour of it is computing (the queue never steps two
//! neighbours at once, which is what makes the workers advance one
//! freshest-data sweep instead of interleaved stale-data ones). Still
//! uncontrolled, still positive: exactly the regime the paper's Theorem
//! 6.1 covers (convergence for *arbitrary* positive delays). A
//! [`delay_topology`](RayonConfig::delay_topology) puts the delay router
//! in front of the queue: each wave first waits out its link's delay from
//! that [`Topology`], scaled to real time (the Algorithm-Architecture Delay
//! Mapping on a heterogeneous machine).
//!
//! The scheduling protocol (ready queue, state lock, inbox, router,
//! quiescence kick) lives once, for every node type, in the generic pool
//! fabric [`crate::fabric::Pool`].

use crate::machine::{self, Machine};
use crate::report::SolveReport;
use crate::runtime::{CommonConfig, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::Topology;
use dtm_sparse::Result;
use std::time::Duration;

/// Pool configuration: the shared [`CommonConfig`] plus pool sizing, the
/// wall-clock budget and the delay router's table.
#[derive(Debug, Clone)]
pub struct RayonConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Worker threads in the pool (`0` = available parallelism), at most
    /// one per part. More workers than cores costs solves: a part whose
    /// worker is preempted mid-step holds its neighbours back for the whole
    /// time slice.
    pub num_threads: usize,
    /// Wall-clock budget.
    pub budget: Duration,
    /// Inject link delays from this topology, scaled by `delay_scale`
    /// (simulated nanoseconds × scale = real nanoseconds). `None` routes
    /// nothing: the wait in the pool's ready queue is the only delay.
    pub delay_topology: Option<Topology>,
    /// Delay scale factor (default 1e-3: simulated ms → real µs).
    pub delay_scale: f64,
}

impl Default for RayonConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig {
                max_solves_per_node: 1_000_000,
                ..Default::default()
            },
            num_threads: 0,
            budget: Duration::from_secs(30),
            delay_topology: None,
            delay_scale: 1e-3,
        }
    }
}

/// DTM on [`Machine::Pool`] over **prebuilt node runtimes** — the
/// factor-once serving path. Callers build (and pay for) the per-part
/// factorizations once via
/// [`runtime::build_nodes`](crate::runtime::build_nodes)/[`runtime::build_nodes_parallel`](crate::runtime::build_nodes_parallel),
/// then hand a clone of the templates to each solve: `NodeRuntime` clones
/// share their factors, so repeated solves re-run only the wave exchange.
/// `reference` is the direct solution RMS monitoring uses; when `None` it
/// is computed where the termination mode needs one.
///
/// # Errors
/// A NaN or negative tolerance, or a delay topology missing a wave route's
/// link.
pub fn solve_prepared(
    split: &SplitSystem,
    runtimes: Vec<NodeRuntime>,
    reference: Option<Vec<f64>>,
    config: &RayonConfig,
) -> Result<SolveReport> {
    machine::solve_dtm(
        split,
        Some(runtimes),
        reference.map(|r| vec![r]),
        None,
        &Machine::Pool(config.clone()),
    )
}

#[cfg(test)]
mod tests {
    //! The bare pool's cells of the shared property table
    //! (`machine::tests`), on two and on three workers.
    use crate::machine::tests::{self as table, pool_rows};

    #[test]
    fn workstealing_dtm_converges() {
        table::converges(pool_rows);
    }

    #[test]
    fn workstealing_local_delta_self_halts() {
        table::local_delta_self_halts(pool_rows);
    }

    #[test]
    fn solve_cap_is_not_convergence() {
        table::cap_is_not_convergence(pool_rows);
    }

    #[test]
    fn a_nan_in_b_is_never_converged() {
        table::nan_in_b_is_never_converged(pool_rows);
    }

    #[test]
    fn paper_example_on_the_pool() {
        table::paper_example(pool_rows);
    }
}
