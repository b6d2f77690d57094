//! Per-layer measurements of the traced run: each layer's public API is
//! called directly, on the workload's own system, outside the executor —
//! so a layer's cost can be multiplied back into the solve it is part of.
//!
//! Everything here runs on one thread unless the layer under measurement is
//! itself an executor.

use crate::trace::Recorder;
use crate::workloads::{common_config, net_config, read_inputs, Inputs, Kind, Workload, TIGHT_TOL};
use dtm_core::local::AUTO_DENSE_LIMIT;
use dtm_core::monitor::Monitor;
use dtm_core::runtime::{
    build_nodes_block_parallel, build_nodes_parallel, DtmMsg, ExecutorBackend, NodeRuntime,
};
use dtm_core::threaded::{self, ThreadedConfig};
use dtm_core::{DtmBuilder, LocalSystem};
use dtm_graph::partition::{self, PartitionConfig, Partitioner};
use dtm_net::wire::{self, Msg, Wave};
use dtm_net::DistributedBackend;
use dtm_simnet::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each single-layer loop measures (a quarter of it under
/// `--quick`).
const LOOP_TIME: Duration = Duration::from_millis(1000);

/// `(metric name, value)` pairs of one replay.
pub type Values = Vec<(&'static str, f64)>;

/// Repeat `body` until `budget` has passed (at least once); returns calls
/// made and seconds taken.
fn time_loop(budget: Duration, mut body: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut calls = 0;
    loop {
        body();
        calls += 1;
        if t.elapsed() >= budget {
            return (calls, t.elapsed().as_secs_f64());
        }
    }
}

/// Measure every layer the workload's system can exercise in isolation.
///
/// # Errors
/// A typed library error from any layer.
pub fn replay(
    w: &Workload,
    inp: &Inputs,
    quick: bool,
    rec: &mut Recorder,
) -> Result<Values, String> {
    let err = |e: dtm_sparse::Error| e.to_string();
    let loop_time = if quick { LOOP_TIME / 4 } else { LOOP_TIME };
    let root = rec.enter("replay", None, 0);
    let mut out: Values = Vec::new();

    // The same system the end-to-end repetitions solved, set up the same
    // way (their spans time the read, the partitioner and the split).
    let (a, cols) = read_inputs(inp)?;
    let k = cols.len();
    let asg = Partitioner::default_for(a.n_rows()).assign(&a, w.parts, &PartitionConfig::default());
    let pm = partition::metrics(&a, &asg);
    out.push(("graph.partition.cut_edges", pm.cut_edges as f64));
    out.push(("graph.partition.boundary", pm.boundary_vertices as f64));
    out.push(("graph.partition.imbalance", pm.imbalance));
    let problem = DtmBuilder::new(a.clone(), cols[0].clone())
        .assignment(asg)
        .termination(dtm_core::Termination::Residual { tol: TIGHT_TOL })
        .build()
        .map_err(err)?;
    let split = &problem.split;
    let common = common_config(dtm_core::rayon_backend::RayonConfig::default().common);
    let setup_pool = rayon::ThreadPoolBuilder::new()
        .build()
        .map_err(|e| e.to_string())?;
    // sparse.cholesky: every part factored on the set-up pool, as the
    // executors' own set-up does it.
    let s = rec.enter("sparse.cholesky.factor", root, 0);
    let t = Instant::now();
    let templates: Vec<NodeRuntime> = if k == 1 {
        build_nodes_parallel(split, &common, &setup_pool)
    } else {
        build_nodes_block_parallel(split, &common, &cols, &setup_pool)
    }
    .map_err(err)?;
    out.push(("sparse.cholesky.factor_s", t.elapsed().as_secs_f64()));
    rec.exit(s);
    let n_parts = templates.len() as f64;
    let ports: usize = split.subdomains.iter().map(|sd| sd.n_ports()).sum();
    let nnz_l: usize = templates.iter().map(|t| t.local().factor_nnz()).sum();
    out.push(("graph.evs.ports", ports as f64));
    out.push(("sparse.cholesky.nnz_l", nnz_l as f64));

    // core.local: the substitution kernel alone, cycling over every part so
    // no factor stays cache-resident between its own solves.
    let mut locals: Vec<LocalSystem> = templates.iter().map(|t| t.local().clone()).collect();
    let s = rec.enter("core.local.solve", root, 0);
    let (sweeps, secs) = time_loop(loop_time, || {
        for l in &mut locals {
            black_box(l.solve());
        }
    });
    rec.exit(s);
    let solve_us = secs * 1e6 / (sweeps as f64 * n_parts);
    let flops_per_solve = 4.0 * nnz_l as f64 * k as f64 / n_parts;
    // Computed, not measured: both sweeps stream the factor once (8-byte
    // values; sparse factors add an 8-byte row index per entry) and read
    // and write the n_local × k block twice.
    let factor_bytes: usize = templates
        .iter()
        .map(|t| {
            let l = t.local();
            let per_entry = if l.n_local() <= AUTO_DENSE_LIMIT {
                8
            } else {
                16
            };
            2 * per_entry * l.factor_nnz() + 4 * 8 * l.n_local() * k
        })
        .sum();
    out.push(("core.local.solve_us", solve_us));
    out.push(("core.local.flops_per_solve", flops_per_solve));
    out.push(("core.local.gflops", flops_per_solve / solve_us * 1e-3));
    out.push(("core.local.bytes_per_solve", factor_bytes as f64 / n_parts));

    // core.runtime + core.monitor: a serial round-robin sweep. Every node
    // absorbs what its neighbours sent on their last visit, steps into a
    // plain Vec transport, and the monitor folds the new local solution in.
    let mut nodes = templates.clone();
    let mut inboxes: Vec<Vec<DtmMsg>> = vec![Vec::new(); nodes.len()];
    let mut outbox: Vec<(usize, DtmMsg)> = Vec::new();
    // The sample interval keeps the monitor's series to its first point.
    let mut monitor = Monitor::new_residual(
        split,
        (k > 1).then_some(&cols[..]),
        SimDuration::from_nanos(u64::MAX),
    );
    monitor.set_refresh_below(TIGHT_TOL);
    let mut sample_wave: Option<Wave> = None;
    let (mut step_s, mut update_s, mut steps, mut msgs) = (0.0, 0.0, 0u64, 0u64);
    let s = rec.enter("core.runtime.step", root, 0);
    time_loop(loop_time, || {
        for p in 0..nodes.len() {
            let t = Instant::now();
            for msg in inboxes[p].drain(..) {
                nodes[p].absorb_owned(msg);
            }
            let _ = nodes[p].step(&mut outbox);
            step_s += t.elapsed().as_secs_f64();
            steps += 1;
            msgs += outbox.len() as u64;
            if sample_wave.is_none() {
                sample_wave = outbox.first().map(|(dst, msg)| Wave {
                    round: 0,
                    src: p as u64,
                    dst: *dst as u64,
                    msg: msg.clone(),
                });
            }
            for (dst, msg) in outbox.drain(..) {
                inboxes[dst].push(msg);
            }
            let t = Instant::now();
            black_box(monitor.update_part(p, SimTime::ZERO, nodes[p].local().solution()));
            update_s += t.elapsed().as_secs_f64();
        }
    });
    rec.exit(s);
    let step_us = step_s * 1e6 / steps as f64;
    out.push(("core.runtime.step_us", step_us));
    out.push(("core.runtime.wave_us", step_us - solve_us));
    out.push(("core.runtime.msgs_per_step", msgs as f64 / steps as f64));
    out.push(("core.monitor.update_us", update_s * 1e6 / steps as f64));
    let s = rec.enter("core.monitor.update", root, 0);
    let (calls, secs) = time_loop(loop_time / 10, || {
        black_box(monitor.resync());
    });
    rec.exit(s);
    out.push(("core.monitor.resync_us", secs * 1e6 / calls as f64));

    // net.wire: the codec on one real wave from the sweep.
    let wave = Msg::Wave(sample_wave.ok_or("replay sweep produced no wave")?);
    let frame = wire::encode(&wave);
    let s = rec.enter("net.wire.codec", root, 0);
    let (calls, secs) = time_loop(loop_time / 10, || {
        black_box(wire::encode(black_box(&wave)));
    });
    out.push(("net.wire.encode_ns", secs * 1e9 / calls as f64));
    let (calls, secs) = time_loop(loop_time / 10, || {
        black_box(wire::decode(black_box(&frame)).is_ok());
    });
    rec.exit(s);
    out.push(("net.wire.decode_ns", secs * 1e9 / calls as f64));
    out.push(("net.wire.frame_bytes", (frame.len() + 4) as f64)); // + length prefix

    match w.kind {
        // The one-thread-per-part executor on the same factored templates:
        // diagnostic (threads outnumber cores), never gated.
        Kind::Pool => {
            let config = ThreadedConfig {
                common,
                budget: crate::workloads::SOLVE_BUDGET,
                ..ThreadedConfig::default()
            };
            let s = rec.enter("core.threaded.solve", root, 0);
            let t = Instant::now();
            let r = threaded::solve_prepared(split, templates, None, &config).map_err(err)?;
            out.push(("core.threaded.solve_s", t.elapsed().as_secs_f64()));
            rec.exit(s);
            out.push(("core.threaded.solves", r.total_solves as f64));
            out.push(("core.threaded.msgs", r.total_messages as f64));
        }
        // The same round schedule with threads for processes, and the
        // process plumbing alone, to split executor from socket cost.
        Kind::Uds { processes } => {
            let s = rec.enter("net.round.inproc", root, 0);
            let t = Instant::now();
            let r = DistributedBackend
                .solve(split, None, &net_config(processes, false)?)
                .map_err(err)?;
            let inproc_s = t.elapsed().as_secs_f64();
            rec.exit(s);
            let rounds = r.total_solves as f64 / n_parts;
            out.push(("net.round.inproc_s", inproc_s));
            out.push(("net.round.round_us", inproc_s * 1e6 / rounds));

            // Any residual meets this tolerance, so the parent stops the
            // children at the first round it evaluates: what is left is
            // spawn, handshake, plan shipping, the children's factorization
            // and the reap.
            let mut first_round = net_config(processes, true)?;
            first_round.common.termination = dtm_core::Termination::Residual { tol: f64::MAX };
            let s = rec.enter("net.runner.startup", root, 0);
            let t = Instant::now();
            DistributedBackend
                .solve(split, None, &first_round)
                .map_err(err)?;
            out.push(("net.runner.startup_s", t.elapsed().as_secs_f64()));
            rec.exit(s);
        }
        Kind::Session { .. } => {}
    }
    rec.exit(root);
    Ok(out)
}
