//! DTM on an in-process worker pool.
//!
//! The third executor, and the proof that the [`crate::runtime`]
//! abstraction holds: the *same* [`NodeRuntime`] state machine that runs
//! under the discrete-event simulator and under one-thread-per-subdomain
//! here runs as **activations handed to a few resident workers**. This is
//! the execution shape a production service would use: subdomain count
//! decoupled from thread count, any worker takes any part, no thread
//! parked on an idle subdomain. (The module, config and backend names date
//! from when the workers were a work-stealing task pool; since PR 22 they
//! drain one shared queue, and nothing is stolen.)
//!
//! Delay mapping: a wave is an inbox entry plus the receiver's place in
//! the pool's one ready queue, so the DTL transmission delay is the time
//! the receiver waits there — behind the parts queued before it, and for
//! as long as a neighbour of it is computing (the queue never steps two
//! neighbours at once, which is what makes the workers advance one
//! freshest-data sweep instead of interleaved stale-data ones). Still
//! uncontrolled, still positive: exactly the regime the paper's Theorem
//! 6.1 covers (convergence for *arbitrary* positive delays).
//!
//! The scheduling protocol (ready queue, state lock, inbox, quiescence
//! kick) lives once, for every node type, in the generic pool fabric
//! [`crate::fabric::Pool`]; this module is [`Machine::Pool`]'s
//! configuration, and [`solve_prepared`] its form over prebuilt nodes.

use crate::machine::{self, Machine};
use crate::report::SolveReport;
use crate::runtime::{CommonConfig, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_sparse::Result;
use std::time::Duration;

/// Work-stealing-executor configuration: the shared [`CommonConfig`] plus
/// pool sizing and the wall-clock budget.
#[derive(Debug, Clone)]
pub struct RayonConfig {
    /// Algorithm configuration shared with every backend.
    pub common: CommonConfig,
    /// Worker threads in the pool (`0` = available parallelism). More
    /// workers than cores costs solves: a part whose worker is preempted
    /// mid-step holds its neighbours back for the whole time slice.
    pub num_threads: usize,
    /// Wall-clock budget.
    pub budget: Duration,
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
/// A NaN tolerance.
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
    //! [`Machine::Pool`]'s cells of the shared property table
    //! (`machine::tests`).
    use super::*;
    use crate::machine::tests as table;

    #[test]
    fn workstealing_dtm_converges() {
        // Fewer workers than subdomains: parts share workers.
        table::converges(
            |common| {
                Machine::Pool(RayonConfig {
                    common,
                    num_threads: 3,
                    budget: Duration::from_secs(60),
                })
            },
            81,
        );
    }

    #[test]
    fn workstealing_local_delta_self_halts() {
        table::local_delta_self_halts(table::pool, 82);
    }

    #[test]
    fn solve_cap_is_not_convergence() {
        table::cap_is_not_convergence(table::pool, 84);
    }

    #[test]
    fn a_nan_in_b_is_never_converged() {
        table::nan_in_b_is_never_converged(table::pool);
    }

    #[test]
    fn paper_example_on_the_pool() {
        table::paper_example(table::pool);
    }
}
