//! `repro bench`: a printed table of solves and kernel timings across the
//! scales the repository claims to cover. It writes no file and gates no
//! absolute number: the deterministic counters it shows are pinned exactly in
//! `crates/bench/tests/pinned_counters.rs`, and wall-clock trajectories
//! belong to the repository benchmark (`benchmark/`, `benchmark/results/`).
//! What it does check is what a smoke test can: every solve converges, the
//! K = 1 panel sweep does not lose to the scalar kernel, and on the
//! fill-reducing factor a K = 8 block costs at most 0.45× a K = 1 solve per
//! right-hand side.
//!
//! * **3-D Laplacians** — `grid3d_laplacian` under the default partitioner
//!   ([`Partitioner::default_for`]), solved reference-free
//!   (`Termination::Residual`) on the pool. Set-up is
//!   timed per phase — read (the matrix written to an in-memory Matrix
//!   Market text and parsed back by `mm::read_matrix`, checked equal),
//!   partition, split (EVS tearing via
//!   `DtmBuilder::build`), factor (every subdomain, concurrently, into
//!   reusable templates) — and the pool then solves over those templates
//!   (`rayon_backend::solve_prepared`), the paper's factor-once design, so
//!   its wall-clock is pure exchange. On 16³ @ 8 it also times the open
//!   of an 8-slot rolling session on the pool (`rolling_workstealing`), the
//!   serving path's set-up. 16³ @ 8 always; without `--quick`
//!   also 48³ @ 32, an anisotropic 32³ @ 16 (`grid3d_laplacian_aniso`,
//!   ε = 0.05) and 100³ = 10⁶ unknowns @ 64.
//! * **substitution kernels** — per-RHS latency of the seed column-major
//!   kernel vs the panel kernels at K ∈ {1, 4, 8, 16} over the RCM and the
//!   fill-reducing factor of a 20³ Laplacian. Reps of the two kernels are
//!   **interleaved** so clock drift and cache warm-up hit both equally;
//!   medians are printed. Asserted: colmajor/panel ≥ 0.9 at K = 1, and on
//!   the fill-reducing factor panel time per RHS at K = 8 ≤ 0.45× that at
//!   K = 1, the minima of interleaved K = 1 and K = 8 reps — the
//!   register-lane blocked kernel against the scalar sweep.
//! * **Matrix Market** — `sparse::mm` end to end: load the committed `.mtx`
//!   fixture (or `--matrix <path.mtx> [--rhs <path>]`), partition by nested
//!   dissection, solve reference-free on the pool.

use dtm_core::builder::DtmBuilder;
use dtm_core::rayon_backend::{self, RayonConfig};
use dtm_core::runtime::{build_nodes, CommonConfig, Termination};
use dtm_core::{Machine, SolveReport};
use dtm_graph::partition::{self, PartitionConfig, Partitioner};
use dtm_sparse::{generators, mm, Csr, Error, Result, SparseCholesky};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Options for [`run`], parsed from `repro bench` flags.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// CI-sized suite: the 16³ case only, fewer kernel reps.
    pub quick: bool,
    /// Matrix Market system to solve instead of the committed fixture.
    pub matrix: Option<PathBuf>,
    /// Right-hand side for `--matrix` (whitespace-separated numbers).
    pub rhs: Option<PathBuf>,
}

/// The committed Matrix Market fixture (an 8×8 grid Laplacian).
pub fn fixture_matrix() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid2d_8x8.mtx")
}

/// The committed right-hand side paired with [`fixture_matrix`].
pub fn fixture_rhs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/grid2d_8x8_rhs.txt")
}

/// Run the suite and print its table.
///
/// # Errors
/// Solver and I/O failures, a solve that did not converge, or a K = 1
/// panel sweep slower than the scalar kernel.
pub fn run(opts: &BenchOptions) -> Result<()> {
    grid3d_case(
        "grid3d16p8",
        &generators::grid3d_laplacian(16, 16, 16),
        8,
        true,
    )?;
    if !opts.quick {
        grid3d_case(
            "grid3d48p32",
            &generators::grid3d_laplacian(48, 48, 48),
            32,
            false,
        )?;
        grid3d_case(
            "grid3d_aniso32p16",
            &generators::grid3d_laplacian_aniso(32, 32, 32, 0.05),
            16,
            false,
        )?;
        grid3d_case(
            "grid3d100p64",
            &generators::grid3d_laplacian(100, 100, 100),
            64,
            false,
        )?;
    }
    kernel_case(if opts.quick { 7 } else { 15 })?;
    let matrix = opts.matrix.clone().unwrap_or_else(fixture_matrix);
    let rhs = match &opts.matrix {
        Some(_) => opts.rhs.clone(),
        None => Some(fixture_rhs()),
    };
    mm_case(&matrix, rhs.as_deref())
}

/// Relative-residual tolerance of every 3-D case.
const GRID_TOL: f64 = 1e-6;

/// Wall-clock budget of one 3-D solve.
const GRID_BUDGET: Duration = Duration::from_secs(600);

/// Column slots of the rolling session whose open [`grid3d_case`] times.
const SESSION_SLOTS: usize = 8;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Run `f`, returning its value and the milliseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64() * 1e3)
}

/// Print one solve's row; an unconverged solve fails the suite.
fn show_solve(label: &str, r: &SolveReport, wall_ms: f64) -> Result<()> {
    println!(
        "  {label:<9} converged={} residual={:.2e} solves={} msgs={} flops={} wall={:.3}s",
        r.converged,
        r.final_residual,
        r.total_solves,
        r.total_messages,
        r.total_flops,
        wall_ms / 1e3
    );
    if r.converged {
        Ok(())
    } else {
        Err(Error::Parse(format!(
            "{label} did not converge (residual {:.2e})",
            r.final_residual
        )))
    }
}

/// A 3-D system under the default partitioner: per-phase set-up timings
/// (partition → split → factor), with `open_session` the open of a
/// [`SESSION_SLOTS`]-slot rolling session on the same split, then the pool
/// solving over the factored templates (the factor-once serving path — a
/// solve never re-factors).
fn grid3d_case(case: &str, a: &Csr, parts: usize, open_session: bool) -> Result<()> {
    let n = a.n_rows();
    println!("— {case}: {n} unknowns, {parts} parts —");
    let b = generators::random_rhs(n, crate::seeds::RHS);

    // The file stage of set-up, from an in-memory Matrix Market text so the
    // disk does not time in.
    let mut text = Vec::new();
    mm::write_matrix(&mut text, a, true).map_err(|e| Error::Parse(e.to_string()))?;
    let (read, read_ms) = timed(|| mm::read_matrix(text.as_slice()));
    assert_eq!(
        read?, *a,
        "{case}: the Matrix Market round trip changed the matrix"
    );
    drop(text);

    let (asg, partition_ms) =
        timed(|| Partitioner::default_for(n).assign(a, parts, &PartitionConfig::default()));
    let m = partition::metrics(a, &asg);
    println!(
        "  partition: cut={} boundary={} imbalance={:.3}",
        m.cut_edges, m.boundary_vertices, m.imbalance
    );

    // Tearing — `DtmBuilder::build` is graph assembly, plan derivation and
    // the fanned-out EVS split; reference-free, so no factorization of the
    // original system hides in here.
    let termination = Termination::Residual { tol: GRID_TOL };
    let (problem, split_ms) = timed(|| {
        DtmBuilder::new(a.clone(), b)
            .assignment(asg)
            .termination(termination)
            .build()
    });
    let problem = problem?;

    // Factor every subdomain concurrently into reusable templates (factors
    // are Arc-shared; a solve clones the templates).
    let common = CommonConfig {
        termination,
        ..Default::default()
    };
    let (templates, factor_ms) = timed(|| build_nodes(&problem.split, &common));
    let templates = templates?;
    println!(
        "  setup: read {read_ms:.0} ms + partition {partition_ms:.0} ms + split {split_ms:.0} ms \
         + factor {factor_ms:.0} ms = {:.0} ms",
        read_ms + partition_ms + split_ms + factor_ms
    );
    if open_session {
        // The serving path's set-up: the session factors its own nodes (a
        // block of zero columns) and assembles its scorer.
        let (session, open_ms) = timed(|| problem.rolling_workstealing(SESSION_SLOTS, 0));
        session?.finish();
        println!("  session open: {SESSION_SLOTS} slots {open_ms:.0} ms (rolling_workstealing)");
    }

    let rconfig = RayonConfig {
        common,
        budget: GRID_BUDGET,
        ..Default::default()
    };
    let (r, wall_ms) =
        timed(|| rayon_backend::solve_prepared(&problem.split, templates, None, &rconfig));
    show_solve("pool:", &r?, wall_ms)
}

/// Median per-RHS substitution latency: seed column-major kernel vs the
/// panel kernels, K ∈ {1, 4, 8, 16}, on the RCM and on the fill-reducing
/// factor of a 20³ Laplacian. Reps alternate colmajor/panel so clock
/// drift, frequency scaling and cache state hit both kernels equally —
/// measuring one kernel's reps back to back systematically flattered
/// whichever ran second.
fn kernel_case(reps: usize) -> Result<()> {
    let s = 20usize;
    println!("— substitution kernels: grid3d {s}³ factors, {reps} interleaved reps —");
    let a = generators::grid3d_laplacian(s, s, s);
    let n = a.n_rows();
    for (case, f) in [
        ("grid3d20_rcm", SparseCholesky::factor_rcm(&a)?),
        ("grid3d20_fill", SparseCholesky::factor_fill_reducing(&a)?),
    ] {
        println!("  {case}: nnz(L) = {}", f.nnz_l());
        let mut k1_rhs = f64::NAN;
        for k in [1usize, 4, 8, 16] {
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
                let ((), ms) = timed(|| f.solve_block_colmajor(&mut xs, k));
                col_samples.push(ms * 1e6);
                xs.copy_from_slice(&template);
                let ((), ms) = timed(|| f.solve_block_with_scratch(&mut xs, k, &mut scratch));
                blk_samples.push(ms * 1e6);
            }
            let col_rhs = median(&mut col_samples) / k as f64;
            let blk_rhs = median(&mut blk_samples) / k as f64;
            let speedup = col_rhs / blk_rhs;
            if k == 1 {
                k1_rhs = blk_rhs;
            }
            let per_rhs = blk_rhs / k1_rhs;
            println!(
                "  K={k:>2}: colmajor {col_rhs:>9.0} ns/rhs, panels {blk_rhs:>9.0} ns/rhs, \
                 speedup {speedup:.2}×, {per_rhs:.2}× K=1 per rhs"
            );
            // The K = 1 panel sweep exists to beat the column-major kernel
            // it is bitwise equal to; losing to it means the sweep or its
            // dispatch regressed.
            if k == 1 && speedup < 0.9 {
                return Err(Error::Parse(format!(
                    "{case}: K=1 panel sweep is slower than the scalar reference: \
                     {blk_rhs:.0} ns/rhs vs colmajor {col_rhs:.0} ns/rhs \
                     (ratio {speedup:.2}, expected ≥ 0.9)"
                )));
            }
        }
        // A K-column block exists to cost less per RHS than K scalar
        // solves; near 1.0 means its lanes went back to memory.
        if case == "grid3d20_fill" {
            let (k1_rhs, k8_rhs) = block_gain(&f, n);
            let ratio = k8_rhs / k1_rhs;
            println!(
                "  K=8 gate: {ratio:.2}× K=1 per rhs (minima of {BLOCK_GAIN_REPS} interleaved reps)"
            );
            if ratio > BLOCK_GAIN_BOUND {
                return Err(Error::Parse(format!(
                    "{case}: a K=8 block costs {ratio:.2}× a K=1 solve per RHS \
                     ({k8_rhs:.0} vs {k1_rhs:.0} ns/rhs, expected ≤ {BLOCK_GAIN_BOUND})"
                )));
            }
        }
    }
    Ok(())
}

/// The largest K = 8 per-RHS cost, as a multiple of K = 1's, that
/// `grid3d20_fill` may show: the largest of 100 `repro bench --quick` runs
/// in one sitting on a shared 2-vCPU VM (0.27–0.40 with [`block_gain`])
/// plus a margin. The ratio of two 7-rep medians it replaces read up to
/// 0.68 against a bound of 0.6.
const BLOCK_GAIN_BOUND: f64 = 0.45;

/// Interleaved K = 1 / K = 8 rep pairs behind the gate, about 0.15 s. With
/// 7, one of 100 runs read 0.50: a neighbour's load lasted through every
/// K = 8 rep.
const BLOCK_GAIN_REPS: usize = 25;

/// Per-RHS nanoseconds of the K = 1 and the K = 8 panel solves of `f`,
/// timed rep by rep in turn, each the minimum over [`BLOCK_GAIN_REPS`]: a
/// neighbour's load lands on single reps, which a minimum over interleaved
/// reps sees through and a ratio of two medians taken apart does not.
fn block_gain(f: &SparseCholesky, n: usize) -> (f64, f64) {
    let template: Vec<f64> = (0..n * 8)
        .map(|i| ((i % 101) as f64 - 50.0) * 0.013)
        .collect();
    let (mut xs, mut scratch) = (template.clone(), Vec::new());
    let mut best = [f64::INFINITY; 2];
    // One unmeasured round warms both paths (scratch, page faults).
    for rep in 0..=BLOCK_GAIN_REPS {
        for (slot, k) in [(0, 1usize), (1, 8)] {
            xs.copy_from_slice(&template);
            let ((), ms) = timed(|| f.solve_block_with_scratch(&mut xs[..n * k], k, &mut scratch));
            if rep > 0 {
                best[slot] = best[slot].min(ms * 1e6 / k as f64);
            }
        }
    }
    (best[0], best[1])
}

/// Load, partition and solve a Matrix Market system reference-free.
fn mm_case(matrix: &Path, rhs: Option<&Path>) -> Result<()> {
    println!("— matrix market: {} —", matrix.display());
    let open = |path: &Path| {
        std::fs::File::open(path)
            .map(std::io::BufReader::new)
            .map_err(|e| Error::Parse(format!("open {}: {e}", path.display())))
    };
    let a = mm::read_matrix(open(matrix)?)?;
    let n = a.n_rows();
    let b = match rhs {
        Some(path) => {
            let v = mm::read_vector(open(path)?)?;
            if v.len() != n {
                return Err(Error::DimensionMismatch {
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
    println!("  n={n} parts={parts} cut={cut}");
    let termination = Termination::Residual { tol: 1e-8 };
    let problem = DtmBuilder::new(a, b)
        .assignment(asg)
        .termination(termination)
        .build()?;
    let config = RayonConfig {
        common: CommonConfig {
            termination,
            ..Default::default()
        },
        budget: Duration::from_secs(60),
        ..Default::default()
    };
    let (r, wall_ms) = timed(|| problem.solve(&Machine::Pool(config)));
    show_solve("pool:", &r?, wall_ms)
}
