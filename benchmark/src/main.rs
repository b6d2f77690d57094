//! The repository benchmark: matrix file in → verified solution out, on four
//! workloads, with per-layer attribution taken from outside the library.
//! See `README.md` beside this package for the metric glossary.

mod json;
mod replay;
mod results;
mod schema;
mod stats;
mod trace;
mod workloads;

use json::Json;
use results::{Metric, WorkloadResult};
use schema::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{beyond, median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Kind, Rep, Workload, LOOSE_TOL, NET_CHILD, TIGHT_TOL, WORKLOADS};

const USAGE: &str = "usage:
  dtm-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
        one workload in this process, or (no --workload) all four, each in a fresh child
  dtm-benchmark trace [--seed N] [--seconds S] [--quick] [--out FILE]
        `run --trace 1` on all four; also writes out/trace-<workload>.json
  dtm-benchmark compare BASE.json NEW.json
  dtm-benchmark schema
        print BENCHMARK.json";

/// Everything the benchmark writes goes under `<this package>/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory under `out/`.
pub(crate) fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = out_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => o.workload = Some(workloads::find(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

/// Peak resident set of this process so far in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Run one workload in this process: generate its inputs, repeat the
/// end-to-end pipeline for `seconds`, and (traced) measure the layers.
fn run_workload(w: &'static Workload, o: &Options) -> Result<WorkloadResult, String> {
    let dir = scratch_dir(&format!("{}-{}", w.name, std::process::id()))?;
    // The socket executor makes its socket files under the temp dir: keep
    // them inside the checkout too, by a path short enough for sun_path.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", dir.strip_prefix(&cwd).unwrap_or(&dir));
    let inputs = workloads::generate(w, o.quick, o.seed, &dir)?;

    // Traced runs alternate traced and untraced repetitions: the pair's
    // ratio is the tracing overhead, and both are real solves.
    let modes: &[bool] = if o.trace { &[true, false] } else { &[false] };
    let min_rounds = match (o.quick, o.trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 3,
    };
    let mut rec = Recorder::new(false);
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    let mut first_rep_rss_mb = 0.0;
    'measure: loop {
        let round_started = Instant::now();
        for &traced in modes {
            rec.enabled = traced;
            match workloads::run_rep(w, &inputs, &mut rec, reps.len()) {
                Ok(rep) => reps.push((traced, rep)),
                Err(e) => {
                    failures.push(format!("rep {}: {e}", reps.len()));
                    break 'measure;
                }
            }
        }
        rounds += 1;
        if rounds == 1 {
            // Memory is what one solve needs: later repetitions only add
            // what the allocator keeps, in proportion to how many fit.
            first_rep_rss_mb = peak_rss_mb()?;
        }
        // Stop when another round would overrun the measuring time.
        let next_end = started.elapsed() + round_started.elapsed();
        if rounds >= min_rounds && (o.quick || next_end > Duration::from_secs_f64(o.seconds)) {
            break;
        }
    }

    let ops_per_rep = w.ops_per_rep(o.quick);
    let mut attempted = failures.len() * ops_per_rep;
    let mut failed = attempted;
    for (i, (_, rep)) in reps.iter().enumerate() {
        attempted += rep.ops.len();
        for op in rep.ops.iter().filter(|op| !op.ok) {
            failed += 1;
            failures.push(format!("rep {i}: {}", op.note));
        }
    }
    if matches!(w.kind, Kind::Uds { .. }) && reps.iter().any(|r| r.1.counters != reps[0].1.counters)
    {
        failures.push(format!(
            "solves/msgs/flops differ across reps: {:?}",
            reps.iter().map(|r| r.1.counters).collect::<Vec<_>>()
        ));
    }

    let metrics = if failures.is_empty() && !o.trace {
        let col = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(&r.1)).collect::<Vec<_>>();
        vec![
            Metric::of_samples("setup_s", "s", col(|r| r.setup_s)),
            Metric::of_samples("solve_s", "s", col(|r| r.solve_s)),
            Metric::of_samples("e2e_s", "s", col(|r| r.e2e_s)),
            Metric::single("peak_rss_mb", "MB", first_rep_rss_mb),
        ]
    } else if failures.is_empty() {
        rec.enabled = true;
        let replayed = replay::replay(w, &inputs, o.quick, &mut rec)?;
        let values = layer_values(w, &inputs, &reps, &rec, replayed);
        let path = out_dir().join(format!("trace-{}.json", w.name));
        std::fs::write(&path, rec.to_json(w.name).pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        PER_LAYER
            .iter()
            .map(|m| {
                // A layer this workload never enters did no work: 0.
                let v = values.iter().find(|v| v.0 == m.name).map_or(0.0, |v| v.1);
                Metric::single(m.name, m.unit, v)
            })
            .collect()
    } else {
        Vec::new()
    };
    let counters = if reps.iter().all(|r| r.1.counters.is_some()) {
        [("solves", "count"), ("msgs", "count"), ("flops", "flop")]
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| {
                let samples = reps
                    .iter()
                    .filter_map(|r| r.1.counters.map(|c| c[i] as f64));
                Metric::of_samples(name, unit, samples.collect())
            })
            .collect()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(WorkloadResult {
        workload: w.name.into(),
        trace: o.trace,
        reps: reps.len(),
        attempted,
        failed,
        failures,
        metrics,
        counters,
    })
}

/// Combine the repetitions' spans and reports with the replay's per-call
/// costs into the per-layer metrics.
fn layer_values(
    w: &Workload,
    inputs: &workloads::Inputs,
    reps: &[(bool, Rep)],
    rec: &Recorder,
    replayed: replay::Values,
) -> replay::Values {
    let span_s = |name: &str| median(&rec.durations_s(name));
    let replay_of = |name: &str| replayed.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(&r.1)).collect::<Vec<_>>();
    let solve_s = median(&col(&|r| r.solve_s));
    let e2e_of = |traced: bool| {
        median(
            &reps
                .iter()
                .filter(|r| r.0 == traced)
                .map(|r| r.1.e2e_s)
                .collect::<Vec<_>>(),
        )
    };
    let counter = |i: usize| median(&col(&|r| r.counters.map_or(0.0, |c| c[i] as f64)));
    let (solves, msgs, flops) = (counter(0), counter(1), counter(2));

    let mut out: replay::Values = vec![
        ("sparse.mm.read_s", span_s("sparse.mm.read")),
        ("sparse.mm.bytes", inputs.bytes as f64),
        ("graph.partition.assign_s", span_s("graph.partition.assign")),
        ("graph.evs.split_s", span_s("graph.evs.split")),
        ("trace.overhead_share", e2e_of(true) / e2e_of(false) - 1.0),
    ];
    match w.kind {
        Kind::Pool => {
            // Two workers share the solve's wall time; what the measured
            // per-call costs do not explain is spawn, locks, publish, idle
            // and the supervisor.
            let worker_s = workloads::POOL_THREADS as f64 * solve_s;
            let local = solves * replay_of("core.local.solve_us") * 1e-6 / worker_s;
            let wave = solves * replay_of("core.runtime.wave_us") * 1e-6 / worker_s;
            let ops: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.1.ops.iter().map(|op| op.over_tol))
                .collect();
            out.extend([
                ("core.rayon_backend.solves", solves),
                ("core.rayon_backend.msgs", msgs),
                ("core.rayon_backend.flops", flops),
                ("core.rayon_backend.msgs_per_solve", msgs / solves),
                ("core.rayon_backend.solves_per_s", solves / solve_s),
                ("core.rayon_backend.local_share", local),
                ("core.rayon_backend.wave_share", wave),
                ("core.rayon_backend.other_share", 1.0 - local - wave),
                (
                    "core.rayon_backend.over_tol_share",
                    ops.iter().filter(|&&r| r > 1.0).count() as f64 / ops.len() as f64,
                ),
                (
                    "core.rayon_backend.residual_over_tol_max",
                    ops.iter().fold(0.0, |a, &r| a.max(r)),
                ),
            ]);
        }
        Kind::Session { .. } => {
            let latencies = |tol: Option<f64>| -> Vec<f64> {
                reps.iter()
                    .flat_map(|r| &r.1.tickets)
                    .filter(|t| tol.is_none_or(|tol| t.tol == tol))
                    .map(|t| t.latency_s)
                    .collect()
            };
            let all = latencies(None);
            // The highest percentile reported needs ten samples beyond it.
            if beyond(all.len(), 95.0) < 10 {
                eprintln!(
                    "{}: only {} tickets, p95 has fewer than 10 beyond it",
                    w.name,
                    all.len()
                );
            }
            out.extend([
                ("core.session.open_s", span_s("core.session.open")),
                ("core.session.ticket_p50_s", median(&all)),
                ("core.session.ticket_p95_s", percentile(&all, 95.0)),
                (
                    "core.session.ticket_tight_p50_s",
                    median(&latencies(Some(TIGHT_TOL))),
                ),
                (
                    "core.session.ticket_loose_p50_s",
                    median(&latencies(Some(LOOSE_TOL))),
                ),
                (
                    "core.session.rhs_per_s",
                    median(&col(&|r| r.tickets.len() as f64 / r.solve_s)),
                ),
            ]);
        }
        Kind::Uds { .. } => {
            let plumbing = replay_of("net.round.inproc_s") + replay_of("net.runner.startup_s");
            out.extend([
                ("net.round.rounds", solves / w.parts as f64),
                ("net.round.msgs", msgs),
                ("net.runner.socket_share", 1.0 - plumbing / solve_s),
            ]);
        }
    }
    out.extend(replayed);
    out
}

/// `run --workload W`: measure in this process, report, end with the
/// harness's line.
fn run_one(w: &'static Workload, o: &Options) -> i32 {
    match run_workload(w, o) {
        Ok(result) => {
            result.print();
            if let Some(path) = &o.out {
                let doc =
                    results::file_json(o.seed, o.seconds, o.quick, std::slice::from_ref(&result));
                if let Err(e) = std::fs::write(path, doc.pretty()) {
                    eprintln!("write {}: {e}", path.display());
                    return 1;
                }
            }
            println!("{}", result.harness_line());
            i32::from(!result.correct())
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            1
        }
    }
}

/// `run` without `--workload`: every workload in a fresh child of this
/// executable (so `peak_rss_mb` is the workload's own), results merged into
/// one file.
fn run_all(o: &Options) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parts = scratch_dir(&format!("parts-{}", std::process::id()))?;
    let mut results = Vec::new();
    let mut code = 0;
    for w in &WORKLOADS {
        let part = parts.join(format!("{}.json", w.name));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if o.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        if !status.success() {
            eprintln!("{}: run failed ({status})", w.name);
            code = 1;
        }
        if let Ok((_, mut one)) = results::read_file(&part.to_string_lossy()) {
            results.append(&mut one);
        }
    }
    let _ = std::fs::remove_dir_all(&parts);
    let default_name = if o.trace { "trace.json" } else { "run.json" };
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(default_name));
    std::fs::write(
        &path,
        results::file_json(o.seed, o.seconds, o.quick, &results).pretty(),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} workloads, seed {}, {})",
        path.display(),
        results.len(),
        o.seed,
        if code == 0 {
            "every operation verified"
        } else {
            "FAILURES above"
        }
    );
    Ok(code)
}

/// `BENCHMARK.json`, generated from [`schema`] and [`workloads`].
fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        let better = if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        };
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &args[..]),
    };
    let code = match command {
        NET_CHILD => dtm_net::child_main(rest),
        "run" | "trace" => match parse_options(rest) {
            Ok(mut o) => {
                o.trace |= command == "trace";
                match o.workload {
                    Some(w) => run_one(w, &o),
                    None => run_all(&o).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        1
                    }),
                }
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        "compare" if rest.len() == 2 => match results::compare(&rest[0], &rest[1]) {
            Ok(regressions) => {
                println!("{regressions} regression(s)");
                i32::from(regressions > 0)
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
        "schema" => {
            print!("{}", benchmark_json().pretty());
            0
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
