//! The zero-allocation claim, counted: in steady state the DTM solve loop
//! (solve → scatter through pooled payload buffers → absorb-and-recycle →
//! monitor update) performs **zero heap allocations per wave** — for dense
//! and sparse local factors, inline block widths (K ≤ `SMALL_BLOCK_INLINE`)
//! and, once warm, spilled ones.
//!
//! Run with:
//!
//! ```text
//! cargo test -p dtm-bench --features alloc-count --test alloc_free
//! ```
//!
//! The exchange is driven single-threaded through a `Vec` transport and
//! per-part inboxes — exactly the runtime's hot path, with no channel or
//! scheduler internals in the way — after a warm-up phase that fills the
//! freelists and grows every reusable buffer to its steady-state capacity.
#![cfg(feature = "alloc-count")]

use dtm_bench::alloc_count::{arm, disarm, CountingAllocator};
use dtm_core::monitor::Monitor;
use dtm_core::runtime::{
    build_nodes, build_nodes_block, CommonConfig, DtmMsg, NodeRuntime, Termination,
};
use dtm_graph::evs::{split as evs_split, EvsOptions, SplitSystem};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::generators;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn grid_split(side: usize, n_parts: usize) -> SplitSystem {
    let a = generators::grid2d_laplacian(side, side);
    let b = generators::random_rhs(side * side, 4_242);
    let g = ElectricGraph::from_system(a, b).expect("symmetric");
    let asg = partition::grid_strips(side, side, n_parts);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid");
    evs_split(&g, &plan, &EvsOptions::default()).expect("splits")
}

/// Run `iters` full exchange rounds (every node absorbs its pending waves,
/// re-solves, scatters) over reusable inboxes, feeding the reference-free
/// residual monitor each step.
fn exchange_rounds(
    nodes: &mut [NodeRuntime],
    transport: &mut Vec<(usize, DtmMsg)>,
    inboxes: &mut [Vec<DtmMsg>],
    monitor: &mut Monitor,
    iters: usize,
) {
    for _ in 0..iters {
        for (dst, msg) in transport.drain(..) {
            inboxes[dst].push(msg);
        }
        for (p, node) in nodes.iter_mut().enumerate() {
            if inboxes[p].is_empty() {
                continue;
            }
            for msg in inboxes[p].drain(..) {
                node.absorb_owned(msg);
            }
            node.step(transport);
            monitor.update_part(p, SimTime::from_nanos(0), node.local().solution());
        }
    }
}

/// Steady-state allocation count of the full hot loop at block width `k`
/// (`k = 0` = the scalar pipeline via `build_nodes`) on a `side`² grid in
/// three strips.
fn steady_state_allocs(side: usize, k: usize) -> u64 {
    let ss = grid_split(side, 3);
    let common = CommonConfig {
        termination: Termination::Residual { tol: 0.0 }, // never stop early
        ..Default::default()
    };
    let (mut nodes, rhs_cols);
    if k == 0 {
        nodes = build_nodes(&ss, &common).expect("builds");
        rhs_cols = None;
    } else {
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| generators::random_rhs(side * side, 9_000 + c as u64))
            .collect();
        nodes = build_nodes_block(&ss, &common, &cols).expect("builds");
        rhs_cols = Some(cols);
    }
    // Huge sample interval + constant timestamps: the monitor records one
    // series point on the first update and never grows the series again.
    let mut monitor = Monitor::new_residual(
        &ss,
        rhs_cols.as_deref(),
        SimDuration::from_nanos(u64::MAX / 2),
    );
    let mut transport: Vec<(usize, DtmMsg)> = Vec::new();
    let mut inboxes: Vec<Vec<DtmMsg>> = (0..ss.n_parts()).map(|_| Vec::new()).collect();

    // Initial solves (eq. 5.6), then warm up: freelists fill, every
    // reusable buffer reaches its steady-state capacity.
    for (p, node) in nodes.iter_mut().enumerate() {
        node.step(&mut transport);
        monitor.update_part(p, SimTime::from_nanos(0), node.local().solution());
    }
    exchange_rounds(&mut nodes, &mut transport, &mut inboxes, &mut monitor, 64);
    // (A node's freelist oscillates: each absorbed wave funds the next
    // outgoing one, so `pooled_buffers` may legitimately read 0 between
    // rounds — the zero-allocation count below is the real check.)

    // The measured region: 256 further rounds of the identical loop.
    arm();
    exchange_rounds(&mut nodes, &mut transport, &mut inboxes, &mut monitor, 256);
    let stats = disarm();
    stats.total()
}

/// One test, cases in sequence: the counter is process-wide, so a second
/// test setting up — or the harness reporting it — while this one is armed
/// would be counted here. The case with the longest set-up runs first, so
/// the harness has gone quiet before anything is armed.
#[test]
fn steady_state_wave_loop_is_allocation_free() {
    // Strips too large for a dense factor: 30² gives nested-dissection
    // factors, 18² permuted RCM ones — K = 0 and 1 run the scalar panel
    // sweep, K = 2 the interleaved one. 6²: dense local factors; K = 6 >
    // SMALL_BLOCK_INLINE spills to heap vectors, but those are recycled
    // with the payload buffers, so the warm loop stays allocation-free too.
    for (side, ks) in [
        (30usize, &[0usize, 1, 2][..]),
        (18, &[0, 1, 2]),
        (6, &[0, 1, 2, 4, 6]),
    ] {
        for &k in ks {
            let allocs = steady_state_allocs(side, k);
            assert_eq!(
                allocs, 0,
                "{side}², K = {k}: steady-state solve loop must not allocate (counted {allocs})"
            );
        }
    }
}
