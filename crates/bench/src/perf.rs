//! The `repro bench` measurement suite: a fixed set of solves and kernel
//! timings emitting a machine-readable JSON report, plus a regression
//! checker over its **tracked** metrics against the one committed
//! baseline, `BENCH_7.json`.
//!
//! The suite spans the scales the repository claims to cover:
//!
//! * **seed case** — the 9×9 grid Laplacian every earlier PR measured on,
//!   as an 8-column reference-free block solve on the simulated machine
//!   (deterministic: msgs/solves/flops/simulated time are tracked).
//! * **3-D Laplacians** — `grid3d_laplacian` under the default
//!   partitioner ([`Partitioner::default_for`]: nested dissection at
//!   every size), solved reference-free (`Termination::Residual`) on the
//!   threaded and work-stealing backends. Setup is instrumented **per
//!   phase** — `partition_ms`, `split_ms` (EVS tearing via
//!   `DtmBuilder::build`), `factor_ms` (concurrent factorization of every
//!   subdomain into reusable templates) — and each backend then solves
//!   over the *same* templates (`threaded::solve_prepared` /
//!   `rayon_backend::solve_prepared`), the paper's factor-once serving
//!   design, so backend wall-clock is pure exchange. A 16³ case runs
//!   always (CI-sized; convergence bits, setup-phase medians and cut
//!   metrics are tracked); without `--quick` the suite adds the 48³ ≈
//!   110k-unknown case and an anisotropic 32³ case
//!   (`grid3d_laplacian_aniso`, ε = 0.05). The 100³ = 10⁶-unknown
//!   headline case records its partition metrics (deterministic and
//!   affordable) in every full run; its wall-clock solves take hours on a
//!   small box and only run under `--headline`. Every case reports
//!   `partition/nd_cut` and `partition/nd_boundary`.
//! * **substitution kernels** — per-RHS latency of the seed column-major
//!   kernel vs the panel kernels at K ∈ {1, 8, 16} over the RCM and the
//!   fill-reducing sparse factor (whose `nnz_l` is recorded beside the
//!   RCM one). Reps of the two kernels are **interleaved**
//!   (colmajor/panel alternating) so clock drift and cache warm-up hit
//!   both equally; medians are reported. The K = 1 panel sweep is
//!   asserted not to lose to the scalar kernel it is bitwise equal to
//!   (panel/colmajor speed-up ≥ 0.9).
//! * **Matrix Market** — `sparse::mm` wired end to end: load a committed
//!   `.mtx` fixture (or `--matrix <path.mtx> [--rhs <path>]`), partition
//!   by nested dissection, solve reference-free on real threads.
//!
//! JSON schema ([`SCHEMA`]): a flat `"metrics"` object mapping
//! `case/section/metric` keys to numbers, plus a `"tracked"` array naming
//! the keys the regression gate guards. The report is re-written to
//! `--out` after every case, so a multi-hour run interrupted mid-suite
//! still leaves the completed cases on disk. `--check BASELINE.json`
//! compares every tracked metric present in both files and fails
//! (exit ≠ 0) on any regression over 20% — lower is worse for counters,
//! and any `*/converged` metric must not drop. Wall-clock metrics are
//! generally recorded untracked (CI boxes are noisy; counters and cuts
//! are deterministic) — the exception is the CI-sized case's setup-phase
//! medians (`*_ms` keys), which the gate compares with an extra 5 ms
//! absolute slack on top of the 20% band so the parallel-setup win can't
//! silently rot.

use dtm_core::builder::DtmBuilder;
use dtm_core::rayon_backend::{self, RayonConfig};
use dtm_core::runtime::{build_nodes_parallel, CommonConfig, Termination};
use dtm_core::threaded::{self, ThreadedConfig};
use dtm_core::SolveReport;
use dtm_graph::partition::{self, PartitionConfig, Partitioner};
use dtm_sparse::{generators, mm, Csr, SparseCholesky};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema tag of the report format — the one the committed baseline,
/// `BENCH_7.json`, carries.
pub const SCHEMA: &str = "dtm-bench-7";

/// Options for [`run`], parsed from `repro bench` flags.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// CI-sized suite: skip the 110k-unknown case, fewer kernel reps.
    pub quick: bool,
    /// Also run the 100³ = 10⁶-unknown wall-clock solves (hours on a
    /// small box). Without it, full runs still record the headline case's
    /// partition metrics, which are deterministic and cheap.
    pub headline: bool,
    /// Matrix Market system to solve instead of the committed fixture.
    pub matrix: Option<PathBuf>,
    /// Right-hand side for `--matrix` (whitespace-separated numbers).
    pub rhs: Option<PathBuf>,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// Baseline JSON to regression-check tracked metrics against.
    pub check: Option<PathBuf>,
}

/// The committed Matrix Market fixture (an 8×8 grid Laplacian).
pub fn fixture_matrix() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid2d_8x8.mtx")
}

/// The committed right-hand side paired with [`fixture_matrix`].
pub fn fixture_rhs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid2d_8x8_rhs.txt")
}

/// An accumulating benchmark report: flat metric map plus the tracked set.
#[derive(Debug, Default)]
pub struct BenchReport {
    metrics: BTreeMap<String, f64>,
    tracked: BTreeSet<String>,
}

impl BenchReport {
    /// Record a metric; a `tracked` one is guarded by the `--check`
    /// regression gate, the rest are informational.
    pub fn put(&mut self, key: &str, value: f64, tracked: bool) {
        self.metrics.insert(key.to_string(), value);
        if tracked {
            self.tracked.insert(key.to_string());
        }
    }

    /// Record an untracked (informational) metric.
    pub fn record(&mut self, key: &str, value: f64) {
        self.put(key, value, false);
    }

    /// Record a tracked metric.
    pub fn track(&mut self, key: &str, value: f64) {
        self.put(key, value, true);
    }

    /// All recorded metrics.
    pub fn metrics(&self) -> &BTreeMap<String, f64> {
        &self.metrics
    }

    /// The tracked key set.
    pub fn tracked(&self) -> &BTreeSet<String> {
        &self.tracked
    }

    /// Serialize to the [`SCHEMA`] JSON format (hand-rolled: the
    /// vendored serde derives are inert, and the format is a flat map).
    pub fn to_json(&self, quick: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"quick\": {quick},\n"));
        s.push_str("  \"metrics\": {\n");
        let last = self.metrics.len();
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == last { "" } else { "," };
            s.push_str(&format!("    \"{k}\": {}{comma}\n", fmt_num(*v)));
        }
        s.push_str("  },\n");
        s.push_str("  \"tracked\": [\n");
        let last = self.tracked.len();
        for (i, k) in self.tracked.iter().enumerate() {
            let comma = if i + 1 == last { "" } else { "," };
            s.push_str(&format!("    \"{k}\"{comma}\n"));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6e}")
    }
}

/// Parse a `dtm-bench-*` JSON file back into (metrics, tracked).
///
/// A minimal scanner for the format [`BenchReport::to_json`] writes (and
/// hand-edited variants of it): string keys, numeric values, a string
/// array. Not a general JSON parser.
///
/// # Errors
/// [`dtm_sparse::Error::Parse`] when the expected sections are missing or
/// malformed.
pub fn parse_bench_json(
    text: &str,
) -> dtm_sparse::Result<(BTreeMap<String, f64>, BTreeSet<String>)> {
    let metrics_block = extract_block(text, "\"metrics\"", '{', '}')
        .ok_or_else(|| dtm_sparse::Error::Parse("bench json: no \"metrics\" object".into()))?;
    let mut metrics = BTreeMap::new();
    for (key, rest) in string_literals(metrics_block) {
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue; // a value that happens to be a string, not a key
        };
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            .collect();
        let value = num
            .parse::<f64>()
            .map_err(|_| dtm_sparse::Error::Parse(format!("bench json: bad number for {key}")))?;
        metrics.insert(key, value);
    }
    let tracked_block = extract_block(text, "\"tracked\"", '[', ']')
        .ok_or_else(|| dtm_sparse::Error::Parse("bench json: no \"tracked\" array".into()))?;
    let tracked: BTreeSet<String> = string_literals(tracked_block).map(|(k, _)| k).collect();
    Ok((metrics, tracked))
}

/// The text between the `open`/`close` pair following `label`.
fn extract_block<'a>(text: &'a str, label: &str, open: char, close: char) -> Option<&'a str> {
    let at = text.find(label)?;
    let rest = &text[at + label.len()..];
    let start = rest.find(open)? + 1;
    let mut depth = 1usize;
    for (i, c) in rest[start..].char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(&rest[start..start + i]);
            }
        }
    }
    None
}

/// Iterate `("literal", text-after-closing-quote)` pairs.
fn string_literals(block: &str) -> impl Iterator<Item = (String, &str)> {
    let mut rest = block;
    std::iter::from_fn(move || {
        let open = rest.find('"')?;
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        let lit = after[..close].to_string();
        rest = &after[close + 1..];
        Some((lit, rest))
    })
}

/// A parsed report: the flat metric map plus the tracked key set —
/// what [`parse_bench_json`] yields and the regression gates consume.
pub type TrackedMetrics = (BTreeMap<String, f64>, BTreeSet<String>);

/// Compare `new` against `baseline`: every tracked metric present in both
/// must not regress by more than 20%. Counters regress upward;
/// `*/converged` metrics regress downward; tracked wall-clock phases
/// (`*_ms` keys) get an extra 5 ms absolute slack on top of the 20% band
/// so timer noise on sub-hundred-millisecond medians can't flake the
/// gate. Returns the offending keys.
///
/// Wall-clock gates assume the machine resembles the one that measured
/// the committed baseline: with fewer than two `cores` (the caller's
/// `available_parallelism`) every `*_ms` gate is skipped — concurrent phases
/// (`factor_ms`) run serialized there and the 20% band is meaningless.
/// Counters and convergence still gate; they are machine-independent.
pub fn regressions_with_cores(
    new: &TrackedMetrics,
    baseline: &TrackedMetrics,
    cores: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    for key in new.1.intersection(&baseline.1) {
        let (Some(&n), Some(&b)) = (new.0.get(key), baseline.0.get(key)) else {
            continue;
        };
        let regressed = if key.ends_with("/converged") {
            n < b
        } else if key.ends_with("_ms") {
            cores >= 2 && n > b * 1.2 + 5.0
        } else {
            n > b * 1.2 + 1e-9
        };
        if regressed {
            bad.push(format!("{key}: {} vs baseline {}", fmt_num(n), fmt_num(b)));
        }
    }
    bad
}

/// Run the full suite, write the JSON, optionally check a baseline.
///
/// # Errors
/// Propagates solver/IO failures; a failed `--check` comes back as
/// `Error::Parse` listing the regressed metrics.
pub fn run(opts: &BenchOptions) -> dtm_sparse::Result<()> {
    let mut report = BenchReport::default();
    // Flush the partial report after every case: a multi-hour full run
    // killed mid-suite keeps everything already measured.
    let flush = |report: &BenchReport| -> dtm_sparse::Result<()> {
        std::fs::write(&opts.out, report.to_json(opts.quick))
            .map_err(|e| dtm_sparse::Error::Parse(format!("write {}: {e}", opts.out.display())))
    };

    seed_case(&mut report)?;
    flush(&report)?;

    // CI-sized 3-D case: always present so quick runs and the committed
    // full baseline share keys for the regression gate. Its setup-phase
    // medians (5 reps) are tracked — the parallel-setup win is guarded.
    grid3d_case(
        &mut report,
        &generators::grid3d_laplacian(16, 16, 16),
        &GridCase {
            case: "grid3d16p8",
            parts: 8,
            budget: Duration::from_secs(60),
            setup_reps: 5,
            track_setup: true,
            solve: true,
        },
    )?;
    flush(&report)?;
    if !opts.quick {
        grid3d_case(
            &mut report,
            &generators::grid3d_laplacian(48, 48, 48),
            &GridCase {
                case: "grid3d48p32",
                parts: 32,
                budget: Duration::from_secs(600),
                setup_reps: 3,
                track_setup: false,
                solve: true,
            },
        )?;
        flush(&report)?;
        grid3d_case(
            &mut report,
            &generators::grid3d_laplacian_aniso(32, 32, 32, 0.05),
            &GridCase {
                case: "grid3d_aniso32p16",
                parts: 16,
                budget: Duration::from_secs(600),
                setup_reps: 3,
                track_setup: false,
                solve: true,
            },
        )?;
        flush(&report)?;
        // The headline: 100³ = 10⁶ unknowns, reference-free, factor-once.
        // Partition metrics always; the wall-clock solves (hours of
        // single-box time, see BENCH_7.json) only under `--headline`.
        grid3d_case(
            &mut report,
            &generators::grid3d_laplacian(100, 100, 100),
            &GridCase {
                case: "grid3d100p64",
                parts: 64,
                budget: Duration::from_secs(3600),
                setup_reps: 1,
                track_setup: false,
                solve: opts.headline,
            },
        )?;
        flush(&report)?;
    }

    kernel_case(&mut report, if opts.quick { 7 } else { 15 })?;
    flush(&report)?;

    let matrix = opts.matrix.clone().unwrap_or_else(fixture_matrix);
    let rhs = match &opts.matrix {
        Some(_) => opts.rhs.clone(),
        None => Some(fixture_rhs()),
    };
    mm_case(&mut report, &matrix, rhs.as_deref())?;

    flush(&report)?;
    println!(
        "\nwrote {} ({} metrics, {} tracked)",
        opts.out.display(),
        report.metrics.len(),
        report.tracked.len()
    );

    let Some(baseline_path) = &opts.check else {
        return Ok(());
    };
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| dtm_sparse::Error::Parse(format!("read {}: {e}", baseline_path.display())))?;
    let baseline = parse_bench_json(&text)?;
    let new = (report.metrics, report.tracked);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        // The committed baseline was measured multi-core; concurrent
        // phases (factor_ms) serialize on one core and would false-flag
        // (the BENCH_7 grid3d16p8/factor_ms incident).
        println!("single-core machine detected: skipping *_ms wall-clock gates");
    }
    let bad = regressions_with_cores(&new, &baseline, cores);
    println!(
        "checked {} tracked metrics against {}: {}",
        new.1.intersection(&baseline.1).count(),
        baseline_path.display(),
        if bad.is_empty() {
            "no regressions > 20%".to_string()
        } else {
            format!("{} regression(s)", bad.len())
        }
    );
    if !bad.is_empty() {
        return Err(dtm_sparse::Error::Parse(format!(
            "{} tracked metric(s) regressed > 20%:\n  {}",
            bad.len(),
            bad.join("\n  ")
        )));
    }
    Ok(())
}

/// Relative-residual tolerance of every 3-D case.
const GRID_TOL: f64 = 1e-6;

/// One 3-D case of the suite: geometry comes in as the assembled matrix so
/// isotropic and anisotropic stencils share the measurement path.
struct GridCase<'a> {
    case: &'a str,
    parts: usize,
    budget: Duration,
    /// Setup phases are measured this many times; medians are reported.
    setup_reps: usize,
    /// Track the phase medians (the CI-sized case only: its timings are
    /// small and stable enough for the regression gate).
    track_setup: bool,
    /// Run the split/factor/solve phases. `false` records the partition
    /// metrics only — the headline case without `--headline`.
    solve: bool,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn record_solve(
    report: &mut BenchReport,
    prefix: &str,
    r: &SolveReport,
    wall: Duration,
    track_counters: bool,
) {
    for (name, count) in [
        ("msgs", r.total_messages),
        ("solves", r.total_solves),
        ("flops", r.total_flops),
    ] {
        report.put(&format!("{prefix}/{name}"), count as f64, track_counters);
    }
    report.record(&format!("{prefix}/wall_ms"), wall.as_secs_f64() * 1e3);
    report.record(&format!("{prefix}/residual"), r.final_residual);
    report.track(
        &format!("{prefix}/converged"),
        f64::from(u8::from(r.converged)),
    );
}

/// The 9×9 seed case: an 8-column reference-free block solve on the
/// deterministic simulated machine.
fn seed_case(report: &mut BenchReport) -> dtm_sparse::Result<()> {
    println!("— seed 9×9, simnet, K = 8 —");
    let a = generators::grid2d_laplacian(9, 9);
    let n = a.n_rows();
    let b = generators::random_rhs(n, crate::seeds::RHS);
    let cols: Vec<Vec<f64>> = (0..8)
        .map(|c| generators::random_rhs(n, crate::seeds::RHS + 1 + c))
        .collect();
    let problem = DtmBuilder::new(a, b)
        .grid_strips(9, 9, 3)
        .termination(Termination::Residual { tol: 1e-8 })
        .build()?;
    let t = Instant::now();
    let r = problem.solve_block(&cols)?;
    let wall = t.elapsed();
    report.track("seed9x9/simnet_k8/sim_ms", r.final_time_ms);
    record_solve(report, "seed9x9/simnet_k8", &r, wall, true);
    println!(
        "  converged={} msgs={} flops={} sim_ms={:.3} wall_ms={:.1}",
        r.converged,
        r.total_messages,
        r.total_flops,
        r.final_time_ms,
        wall.as_secs_f64() * 1e3
    );
    Ok(())
}

/// A 3-D system under the default partitioner: per-phase setup timings
/// (partition → split → factor), then both wall-clock backends solving
/// over the same factored templates (the factor-once serving path — no
/// backend ever re-factors).
fn grid3d_case(report: &mut BenchReport, a: &Csr, spec: &GridCase) -> dtm_sparse::Result<()> {
    let case = spec.case;
    let n = a.n_rows();
    println!("— {case}: {n} unknowns, {} parts —", spec.parts);
    let b = generators::random_rhs(n, crate::seeds::RHS);
    let rec_setup = |report: &mut BenchReport, phase: &str, ms: f64| {
        report.put(&format!("{case}/{phase}"), ms, spec.track_setup);
    };

    // Phase 1: partition. Deterministic output, so reps only re-time it.
    let cfg = PartitionConfig::default();
    let mut asg = Vec::new();
    let mut samples: Vec<f64> = (0..spec.setup_reps)
        .map(|_| {
            let t = Instant::now();
            asg = Partitioner::default_for(n).assign(a, spec.parts, &cfg);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let partition_ms = median(&mut samples);
    let m = partition::metrics(a, &asg);
    report.record(&format!("{case}/n"), n as f64);
    rec_setup(report, "partition_ms", partition_ms);
    report.track(&format!("{case}/partition/nd_cut"), m.cut_edges as f64);
    report.track(
        &format!("{case}/partition/nd_boundary"),
        m.boundary_vertices as f64,
    );
    report.record(&format!("{case}/partition/nd_imbalance"), m.imbalance);
    println!(
        "  partition: cut={} boundary={} imbalance={:.3} ({partition_ms:.0} ms)",
        m.cut_edges, m.boundary_vertices, m.imbalance
    );
    if !spec.solve {
        println!("  (partition-only case: split/factor/solve skipped — pass --headline)");
        return Ok(());
    }

    // Phase 2: tearing — `DtmBuilder::build` is graph assembly, plan
    // derivation and the (pool-fanned) EVS split; reference-free, so no
    // factorization of the original system hides in here.
    let mut problem = None;
    let mut samples: Vec<f64> = (0..spec.setup_reps)
        .map(|_| {
            let t = Instant::now();
            problem = Some(
                DtmBuilder::new(a.clone(), b.clone())
                    .assignment(asg.clone())
                    .termination(Termination::Residual { tol: GRID_TOL })
                    .build(),
            );
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let split_ms = median(&mut samples);
    let problem = problem.expect("setup_reps >= 1")?;
    rec_setup(report, "split_ms", split_ms);

    // Phase 3: factor every subdomain concurrently into reusable
    // templates (factors are Arc-shared; backends clone the templates).
    let pool = rayon::ThreadPoolBuilder::new()
        .build()
        .map_err(|e| dtm_sparse::Error::Parse(format!("bench pool: {e}")))?;
    let common = CommonConfig {
        termination: Termination::Residual { tol: GRID_TOL },
        ..Default::default()
    };
    let mut templates = None;
    let mut samples: Vec<f64> = (0..spec.setup_reps)
        .map(|_| {
            let t = Instant::now();
            templates = Some(build_nodes_parallel(&problem.split, &common, &pool));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let factor_ms = median(&mut samples);
    let templates = templates.expect("setup_reps >= 1")?;
    rec_setup(report, "factor_ms", factor_ms);
    let setup_ms = partition_ms + split_ms + factor_ms;
    report.record(&format!("{case}/setup_total_ms"), setup_ms);
    println!(
        "  setup: partition {partition_ms:.0} ms + split {split_ms:.0} ms + factor \
         {factor_ms:.0} ms = {setup_ms:.0} ms"
    );

    let tconfig = ThreadedConfig {
        common: common.clone(),
        budget: spec.budget,
        ..Default::default()
    };
    let t = Instant::now();
    let r = threaded::solve_prepared(&problem.split, templates.clone(), None, &tconfig)?;
    let wall = t.elapsed();
    println!(
        "  threaded: converged={} residual={:.2e} msgs={} flops={} wall={:.1}s",
        r.converged,
        r.final_residual,
        r.total_messages,
        r.total_flops,
        wall.as_secs_f64()
    );
    record_solve(report, &format!("{case}/threaded"), &r, wall, false);

    let rconfig = RayonConfig {
        common,
        budget: spec.budget,
        ..Default::default()
    };
    let t = Instant::now();
    let r = rayon_backend::solve_prepared(&problem.split, templates, None, &rconfig)?;
    let wall = t.elapsed();
    println!(
        "  rayon:    converged={} residual={:.2e} msgs={} flops={} wall={:.1}s",
        r.converged,
        r.final_residual,
        r.total_messages,
        r.total_flops,
        wall.as_secs_f64()
    );
    record_solve(report, &format!("{case}/rayon"), &r, wall, false);
    Ok(())
}

/// Median per-RHS substitution latency: seed column-major kernel vs the
/// panel kernels, K ∈ {1, 8, 16}, on the RCM and on the fill-reducing
/// factor of a 20³ Laplacian. Reps alternate colmajor/panel so clock
/// drift, frequency scaling and cache state hit both kernels equally —
/// measuring one kernel's reps back to back systematically flattered
/// whichever ran second.
fn kernel_case(report: &mut BenchReport, reps: usize) -> dtm_sparse::Result<()> {
    let s = 20usize;
    println!("— substitution kernels: grid3d {s}³ factors, {reps} interleaved reps —");
    let a = generators::grid3d_laplacian(s, s, s);
    let n = a.n_rows();
    for (case, f) in [
        ("grid3d20_rcm", SparseCholesky::factor_rcm(&a)?),
        ("grid3d20_fill", SparseCholesky::factor_fill_reducing(&a)?),
    ] {
        report.record(&format!("kernels/{case}/nnz_l"), f.nnz_l() as f64);
        println!("  {case}: nnz(L) = {}", f.nnz_l());
        for k in [1usize, 8, 16] {
            let template: Vec<f64> = (0..n * k)
                .map(|i| ((i % 101) as f64 - 50.0) * 0.013)
                .collect();
            let mut xs = template.clone();
            let mut scratch = Vec::new();
            // Warm up both paths (fills scratch, faults pages).
            f.solve_block_colmajor(&mut xs, k);
            xs.copy_from_slice(&template);
            f.solve_block_with_scratch(&mut xs, k, &mut scratch);
            let mut col_samples = Vec::with_capacity(reps);
            let mut blk_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                xs.copy_from_slice(&template);
                let t = Instant::now();
                f.solve_block_colmajor(&mut xs, k);
                col_samples.push(t.elapsed().as_secs_f64() * 1e9);
                xs.copy_from_slice(&template);
                let t = Instant::now();
                f.solve_block_with_scratch(&mut xs, k, &mut scratch);
                blk_samples.push(t.elapsed().as_secs_f64() * 1e9);
            }
            let colmajor = median(&mut col_samples);
            let blocked = median(&mut blk_samples);
            let (col_rhs, blk_rhs) = (colmajor / k as f64, blocked / k as f64);
            let speedup = col_rhs / blk_rhs;
            // The RCM case keeps the key shape BENCH_7 was recorded
            // with; the fill case records the panel latency alone.
            if case == "grid3d20_rcm" {
                report.record(&format!("kernels/{case}/k{k}/colmajor_ns_per_rhs"), col_rhs);
                report.record(&format!("kernels/{case}/k{k}/blocked_ns_per_rhs"), blk_rhs);
                report.record(&format!("kernels/{case}/k{k}/speedup"), speedup);
            } else {
                report.record(&format!("kernels/{case}/k{k}"), blk_rhs);
            }
            println!(
                "  K={k:>2}: colmajor {col_rhs:>9.0} ns/rhs, panels {blk_rhs:>9.0} ns/rhs, \
                 speedup {speedup:.2}×"
            );
            // The K = 1 panel sweep exists to beat the column-major kernel
            // it is bitwise equal to; losing to it means the sweep or its
            // dispatch regressed.
            if k == 1 && speedup < 0.9 {
                return Err(dtm_sparse::Error::Parse(format!(
                    "{case}: K=1 panel sweep is slower than the scalar reference: \
                     {blk_rhs:.0} ns/rhs vs colmajor {col_rhs:.0} ns/rhs \
                     (ratio {speedup:.2}, expected ≥ 0.9)"
                )));
            }
        }
    }
    Ok(())
}

/// Load, partition and solve a Matrix Market system reference-free.
fn mm_case(report: &mut BenchReport, matrix: &Path, rhs: Option<&Path>) -> dtm_sparse::Result<()> {
    let stem = matrix
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "matrix".into());
    println!("— matrix market: {} —", matrix.display());
    let file = std::fs::File::open(matrix)
        .map_err(|e| dtm_sparse::Error::Parse(format!("open {}: {e}", matrix.display())))?;
    let a = mm::read_matrix(std::io::BufReader::new(file))?;
    let n = a.n_rows();
    let b = match rhs {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| dtm_sparse::Error::Parse(format!("open {}: {e}", path.display())))?;
            let v = mm::read_vector(std::io::BufReader::new(file))?;
            if v.len() != n {
                return Err(dtm_sparse::Error::DimensionMismatch {
                    context: "bench --rhs length",
                    expected: n,
                    actual: v.len(),
                });
            }
            v
        }
        None => generators::manufactured_rhs(&a, crate::seeds::RHS).0,
    };
    let parts = 4.min(n);
    let asg = partition::nested_dissection(&a, parts);
    let cut = partition::metrics(&a, &asg).cut_edges;
    let problem = DtmBuilder::new(a, b)
        .assignment(asg)
        .termination(Termination::Residual { tol: 1e-8 })
        .build()?;
    let config = ThreadedConfig {
        common: CommonConfig {
            termination: Termination::Residual { tol: 1e-8 },
            ..Default::default()
        },
        budget: Duration::from_secs(60),
        ..Default::default()
    };
    let t = Instant::now();
    let r = problem.solve_threaded(&config)?;
    let wall = t.elapsed();
    let prefix = format!("mm/{stem}");
    report.track(&format!("{prefix}/n"), n as f64);
    report.track(&format!("{prefix}/parts"), parts as f64);
    report.track(&format!("{prefix}/nd_cut"), cut as f64);
    record_solve(report, &prefix, &r, wall, false);
    println!(
        "  n={n} parts={parts} cut={cut} converged={} residual={:.2e} wall_ms={:.1}",
        r.converged,
        r.final_residual,
        wall.as_secs_f64() * 1e3
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut r = BenchReport::default();
        r.track("a/msgs", 420.0);
        r.record("a/wall_ms", 13.25);
        r.track("b/converged", 1.0);
        let text = r.to_json(true);
        // The writer names the schema of the one committed baseline.
        let baseline = include_str!("../../../BENCH_7.json");
        let tag = format!("\"schema\": \"{SCHEMA}\"");
        assert!(text.contains(&tag) && baseline.contains(&tag), "{tag}");
        let (metrics, tracked) = parse_bench_json(&text).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics["a/msgs"], 420.0);
        assert!((metrics["a/wall_ms"] - 13.25).abs() < 1e-9);
        assert_eq!(tracked.len(), 2);
        assert!(tracked.contains("b/converged"));
    }

    #[test]
    fn regression_gate_flags_worse_counters_and_lost_convergence() {
        let base: (BTreeMap<String, f64>, BTreeSet<String>) = (
            [
                ("x/msgs".to_string(), 100.0),
                ("x/converged".to_string(), 1.0),
                ("x/wall_ms".to_string(), 5.0),
            ]
            .into(),
            ["x/msgs".to_string(), "x/converged".to_string()].into(),
        );
        // Within 20%: fine.
        let mut new = base.clone();
        new.0.insert("x/msgs".into(), 115.0);
        assert!(regressions_with_cores(&new, &base, 2).is_empty());
        // 25% worse: flagged.
        new.0.insert("x/msgs".into(), 125.0);
        assert_eq!(regressions_with_cores(&new, &base, 2).len(), 1);
        // Untracked metrics never flag.
        new.0.insert("x/msgs".into(), 100.0);
        new.0.insert("x/wall_ms".into(), 50_000.0);
        assert!(regressions_with_cores(&new, &base, 2).is_empty());
        // Convergence may not drop, and improvements never flag.
        new.0.insert("x/converged".into(), 0.0);
        assert_eq!(regressions_with_cores(&new, &base, 2).len(), 1);
        new.0.insert("x/converged".into(), 1.0);
        new.0.insert("x/msgs".into(), 10.0);
        assert!(regressions_with_cores(&new, &base, 2).is_empty());
    }

    #[test]
    fn tracked_wall_clock_gets_absolute_slack() {
        // A tracked `_ms` phase gets 5 ms absolute slack on top of the
        // 20% band: a 2 ms → 6 ms jitter on a tiny median must not flag,
        // while a genuine blow-up must.
        let base: (BTreeMap<String, f64>, BTreeSet<String>) = (
            [("c/split_ms".to_string(), 2.0)].into(),
            ["c/split_ms".to_string()].into(),
        );
        let mut new = base.clone();
        new.0.insert("c/split_ms".into(), 6.0);
        assert!(regressions_with_cores(&new, &base, 2).is_empty());
        new.0.insert("c/split_ms".into(), 8.0);
        assert_eq!(regressions_with_cores(&new, &base, 2).len(), 1);
    }

    #[test]
    fn single_core_skips_wall_clock_gates_only() {
        // On a 1-core box the concurrent phases serialize, so a tracked
        // `_ms` blow-up must not flag — but counters and convergence
        // are machine-independent and still gate.
        let base: (BTreeMap<String, f64>, BTreeSet<String>) = (
            [
                ("g/factor_ms".to_string(), 40.0),
                ("g/msgs".to_string(), 100.0),
                ("g/converged".to_string(), 1.0),
            ]
            .into(),
            [
                "g/factor_ms".to_string(),
                "g/msgs".to_string(),
                "g/converged".to_string(),
            ]
            .into(),
        );
        let mut new = base.clone();
        new.0.insert("g/factor_ms".into(), 400.0);
        assert!(regressions_with_cores(&new, &base, 1).is_empty());
        assert_eq!(regressions_with_cores(&new, &base, 2).len(), 1);
        new.0.insert("g/msgs".into(), 130.0);
        new.0.insert("g/converged".into(), 0.0);
        assert_eq!(regressions_with_cores(&new, &base, 1).len(), 2);
    }

    #[test]
    fn fixture_files_exist_and_roundtrip() {
        // The committed fixture must parse, re-serialize, and re-parse to
        // the identical matrix (read → write → read equality), and the
        // paired RHS must match its dimension.
        let file = std::fs::File::open(fixture_matrix()).expect("committed fixture");
        let a = mm::read_matrix(std::io::BufReader::new(file)).expect("parses");
        let mut buf = Vec::new();
        mm::write_matrix(&mut buf, &a, true).expect("writes");
        let b = mm::read_matrix(std::io::Cursor::new(buf)).expect("reparses");
        assert_eq!(a, b, "mm read → write → read must be the identity");
        let rhs = mm::read_vector(std::io::BufReader::new(
            std::fs::File::open(fixture_rhs()).expect("committed rhs"),
        ))
        .expect("rhs parses");
        assert_eq!(rhs.len(), a.n_rows());
    }
}
