//! Allocation accounting of the distributed backend's round loop, with
//! the counting allocator of `alloc_free.rs` — channels, group threads
//! and supervisor included: what a steady-state round of an in-process
//! 2-group run allocates is a fixed handful of per-round batches, however
//! many parts sweep and however many waves cross.
//!
//! Run with:
//!
//! ```text
//! cargo test -p dtm-bench --features alloc-count --test alloc_rounds
//! ```
//!
//! Beside it, the frame reader's allocation on an untrusted length
//! prefix: a peer's four bytes claiming a gigabyte, then EOF, are a typed
//! error that requested no more than the reader's first reserve.
//!
//! The counter is process-wide, so this file holds exactly one test:
//! nothing else (not even the harness reporting another test) allocates
//! while it is armed.
#![cfg(feature = "alloc-count")]

use dtm_bench::alloc_count::{arm, disarm, CountingAllocator};
use dtm_core::runtime::{CommonConfig, ExecutorBackend, Termination};
use dtm_graph::evs::{split as evs_split, EvsOptions};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_net::wire::read_frame;
use dtm_net::{DistributedBackend, DistributedConfig, RunMode};
use dtm_sparse::generators;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap acquisitions per steady-state round of an in-process 2-group
/// distributed run on a `side²` grid in `blocks²` parts: the difference
/// of two runs that differ only in their round cap, so set-up, teardown
/// and report assembly cancel.
fn allocs_per_round(side: usize, blocks: usize) -> f64 {
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 4_343);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_blocks(side, side, blocks, blocks);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    let ss = evs_split(&g, &plan, &EvsOptions::default()).expect("splits");
    let run_allocs = |rounds: usize| {
        let config = DistributedConfig {
            common: CommonConfig {
                termination: Termination::Residual { tol: 0.0 }, // run to the cap
                max_solves_per_node: rounds,
                ..Default::default()
            },
            mode: RunMode::InProcess,
            processes: 2,
            ..Default::default()
        };
        arm();
        let report = DistributedBackend.solve(&ss, None, &config);
        let stats = disarm();
        let report = report.expect("runs to the cap");
        assert_eq!(report.total_solves, (rounds * ss.n_parts()) as u64);
        stats.total()
    };
    let (short, long) = (256, 2_304);
    (run_allocs(long) as f64 - run_allocs(short) as f64) / (long - short) as f64
}

/// A length prefix claiming 1 GiB followed by EOF: the typed short-frame
/// error, and less than 1 MiB requested on the way to it.
fn a_huge_length_prefix_allocates_only_what_arrives() {
    let frame = (1u32 << 30).to_le_bytes();
    let mut r = &frame[..];
    arm();
    let err = read_frame(&mut r).map(|_| ());
    let stats = disarm();
    let err = err.expect_err("a short frame is an error");
    assert!(err.to_string().contains("eof inside frame"), "{err}");
    assert!(
        stats.bytes < 1 << 20,
        "{} bytes requested for a frame that never arrived",
        stats.bytes
    );
}

#[test]
fn round_allocations_do_not_grow_with_parts_or_messages() {
    a_huge_length_prefix_allocates_only_what_arrives();
    // 4 parts, 8 waves a round (4 of them between the groups) against
    // 16 parts, 48 waves a round (8 between the groups).
    let few = allocs_per_round(12, 2);
    let many = allocs_per_round(24, 4);
    // Per round: one wave batch per group, one snapshot batch (two
    // buffers) per group, and the supervisor's bookkeeping for the round.
    assert!(
        few < 16.0 && many < 16.0,
        "a round allocates a fixed handful of batches: {few:.2} and {many:.2}"
    );
    assert!(
        many <= few + 1.0,
        "4× the parts and 6× the waves must not allocate more per round: \
         {few:.2} → {many:.2}"
    );
}
