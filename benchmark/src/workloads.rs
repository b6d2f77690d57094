//! The four workloads: what each is, how its inputs are made from the seed,
//! and one end-to-end repetition (input files → verified solution) of each.
//!
//! The library is driven only through its public functions and with its own
//! defaults; the deviations are the ones a caller has to choose anyway
//! (stopping rule and tolerance, part count, two pool workers, a wall-clock
//! budget).

use crate::trace::Recorder;
use dtm_core::rayon_backend::{self, RayonConfig};
use dtm_core::runtime::{build_nodes_parallel, CommonConfig, ExecutorBackend, Termination};
use dtm_core::{DtmBuilder, DtmProblem};
use dtm_graph::partition::{PartitionConfig, Partitioner};
use dtm_net::{ChildCommand, DistributedBackend, DistributedConfig, RunMode, TransportKind};
use dtm_sparse::{generators, mm, vector, Csr};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Tolerance of every one-shot solve and of `serve8`'s tight tickets.
pub const TIGHT_TOL: f64 = 1e-6;
/// Tolerance of `serve8`'s loose tickets.
pub const LOOSE_TOL: f64 = 1e-3;
/// An operation fails when its verified residual exceeds this multiple of
/// its tolerance. The asynchronous stop overshoots: workers keep iterating
/// between the supervisor's decision and its final gather, and the returned
/// `x` was measured at up to 1.003·tol. `core.rayon_backend.over_tol_share`
/// counts the strict `> 1·tol` cases.
pub const FAIL_FACTOR: f64 = 2.0;
/// Pool workers of the work-stealing executor and the rolling session: the
/// workload is "two workers", on any machine.
pub const POOL_THREADS: usize = 2;
/// Wall-clock budget of one solve and of one session's tickets. Every solve
/// here takes seconds; one that needs this long has failed, and the run
/// still ends (children reaped) inside the harness's per-run limit.
pub const SOLVE_BUDGET: Duration = Duration::from_secs(120);
/// Hidden subcommand the `comm2d_uds2` children are started with.
pub const NET_CHILD: &str = "net-child";

/// Which executor a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One `rayon_backend::solve_prepared` per repetition.
    Pool,
    /// One `rolling_workstealing` session per repetition: a closed loop
    /// keeps `slots` tickets outstanding until `tickets` have completed
    /// (the ones still in flight then are abandoned, so there is no
    /// drain-out tail with idle slots).
    Session { slots: usize, tickets: usize },
    /// One `DistributedBackend::solve` over `processes` child processes
    /// linked by Unix-domain sockets.
    Uds { processes: usize },
}

/// Grid the system matrix is the Laplacian of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Grid {
    /// 7-point stencil on `side³` vertices.
    Cube(usize),
    /// 5-point stencil on `side²` vertices.
    Square(usize),
}

impl Grid {
    fn laplacian(self) -> Csr {
        match self {
            Grid::Cube(s) => generators::grid3d_laplacian(s, s, s),
            Grid::Square(s) => generators::grid2d_laplacian(s, s),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub grid: Grid,
    /// Grid under `--quick`.
    pub quick_grid: Grid,
    pub parts: usize,
    pub kind: Kind,
}

impl Workload {
    /// Right-hand-side columns in flight at once.
    pub fn k(&self) -> usize {
        match self.kind {
            Kind::Session { slots, .. } => slots,
            _ => 1,
        }
    }

    /// Operations one repetition attempts (solves; `serve8`: tickets).
    pub fn ops_per_rep(&self, quick: bool) -> usize {
        match self.kind {
            Kind::Session { tickets, .. } if quick => tickets / 4,
            Kind::Session { tickets, .. } => tickets,
            _ => 1,
        }
    }
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kernel3d",
        why: "32^3 7-pt Laplacian, 16 parts, pool: triangular substitution dominates worker time, \
              and 32768 unknowns is where the default partitioner switches to multilevel",
        grid: Grid::Cube(32),
        quick_grid: Grid::Cube(8),
        parts: 16,
        kind: Kind::Pool,
    },
    Workload {
        name: "comm2d",
        why: "128^2 5-pt Laplacian, 128 small parts, pool: microsecond solves, so wave \
              pack/scatter, inbox locks, task spawn and the supervisor dominate",
        grid: Grid::Square(96),
        quick_grid: Grid::Square(16),
        parts: 72,
        kind: Kind::Pool,
    },
    Workload {
        name: "serve8",
        why: "24^3 Laplacian, 8 parts, one rolling 8-slot session, closed loop of mixed-tolerance \
              tickets: blocked K=8 substitution, spilled blocks, admission and retire churn",
        grid: Grid::Cube(24),
        quick_grid: Grid::Cube(8),
        parts: 8,
        kind: Kind::Session {
            slots: 8,
            tickets: 32,
        },
    },
    Workload {
        name: "comm2d_uds2",
        why: "comm2d's system and partition on 2 processes over Unix sockets: wire codec, \
              syscalls and process plumbing; its work counters repeat exactly",
        grid: Grid::Square(96),
        quick_grid: Grid::Square(16),
        parts: 72,
        kind: Kind::Uds { processes: 2 },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One ticket of the `serve8` load: which right-hand-side column, and how
/// tight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketPlan {
    pub col: usize,
    pub tol: f64,
}

/// A workload's generated inputs: files on disk, plus the load generator's
/// own schedule. The library sees only the files.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub matrix: PathBuf,
    pub rhs: PathBuf,
    /// Size of both files together.
    pub bytes: u64,
    /// `serve8`: the seeded ticket order (empty otherwise).
    pub tickets: Vec<TicketPlan>,
}

/// The seeded `serve8` schedule. Tolerances alternate tight/loose, so every
/// window of the schedule is the same mix and a session's length does not
/// depend on the seed; the seed decides which right-hand-side column each
/// ticket carries (every column equally often).
pub fn ticket_plan(tickets: usize, cols: usize, seed: u64) -> Vec<TicketPlan> {
    // A seeded permutation of the ticket indices: sort them by seeded keys.
    let keys = generators::random_rhs(tickets, seed);
    let mut order: Vec<usize> = (0..tickets).collect();
    order.sort_by(|&x, &y| keys[x].total_cmp(&keys[y]));
    order
        .into_iter()
        .enumerate()
        .map(|(i, slot)| TicketPlan {
            col: slot % cols,
            tol: if i % 2 == 0 { TIGHT_TOL } else { LOOSE_TOL },
        })
        .collect()
}

/// Right-hand-side values: a unit load plus seeded white noise in `[-1, 1]`.
///
/// Iterations to tolerance follow the right-hand side's weight on the
/// slowest few modes of the Laplacian. Under pure white noise that weight is
/// a draw of a few Gaussians, and the round count of `comm2d_uds2` — exact
/// for a given input — moved by ±25 % from seed to seed. The unit load pins
/// the slow modes, so a workload's difficulty belongs to the workload and
/// the seed changes every entry without changing how long the solve is.
fn seeded_rhs(len: usize, seed: u64) -> Vec<f64> {
    let mut b = generators::random_rhs(len, seed);
    b.iter_mut().for_each(|v| *v += 1.0);
    b
}

/// Generate the workload's inputs from `seed` and write them under `dir` as
/// a Matrix Market file and a right-hand-side file (`k` columns, one after
/// the other). The matrix is fixed by the workload; the seed drives every
/// right-hand side and the ticket order.
///
/// # Errors
/// File-system failures.
pub fn generate(w: &Workload, quick: bool, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let io = |e: std::io::Error| format!("{}: write inputs: {e}", w.name);
    let a = if quick { w.quick_grid } else { w.grid }.laplacian();
    let matrix = dir.join(format!("{}.mtx", w.name));
    let rhs = dir.join(format!("{}.rhs", w.name));
    let mut f = BufWriter::new(File::create(&matrix).map_err(io)?);
    mm::write_matrix(&mut f, &a, true).map_err(io)?;
    f.flush().map_err(io)?;
    let mut f = BufWriter::new(File::create(&rhs).map_err(io)?);
    for v in seeded_rhs(a.n_rows() * w.k(), seed) {
        writeln!(f, "{v:.17e}").map_err(io)?;
    }
    f.flush().map_err(io)?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).map_err(io);
    Ok(Inputs {
        bytes: size(&matrix)? + size(&rhs)?,
        matrix,
        rhs,
        tickets: match w.kind {
            // The loop keeps every slot busy until the last counted ticket
            // retires, so up to `slots - 1` more are submitted than counted.
            Kind::Session { slots, .. } => ticket_plan(w.ops_per_rep(quick) + slots, slots, seed),
            _ => Vec::new(),
        },
    })
}

/// Read the system back through the library's Matrix Market reader: the
/// matrix and its right-hand-side columns.
///
/// # Errors
/// I/O and parse failures, or a vector that is not a whole number of
/// columns.
pub fn read_inputs(inp: &Inputs) -> Result<(Csr, Vec<Vec<f64>>), String> {
    let open = |p: &Path| {
        File::open(p)
            .map(BufReader::new)
            .map_err(|e| format!("open {}: {e}", p.display()))
    };
    let a = mm::read_matrix(open(&inp.matrix)?).map_err(|e| e.to_string())?;
    let flat = mm::read_vector(open(&inp.rhs)?).map_err(|e| e.to_string())?;
    let n = a.n_rows();
    if n == 0 || flat.is_empty() || flat.len() % n != 0 {
        return Err(format!(
            "{}: {} values do not fill columns of {n}",
            inp.rhs.display(),
            flat.len()
        ));
    }
    Ok((a, flat.chunks(n).map(<[f64]>::to_vec).collect()))
}

/// The algorithm configuration every workload solves under: library
/// defaults with the reference-free residual rule at the tight tolerance.
pub fn common_config(base: CommonConfig) -> CommonConfig {
    CommonConfig {
        termination: Termination::Residual { tol: TIGHT_TOL },
        ..base
    }
}

/// The pool executor's configuration.
pub fn pool_config() -> RayonConfig {
    let base = RayonConfig::default();
    RayonConfig {
        common: common_config(base.common),
        num_threads: POOL_THREADS,
        budget: SOLVE_BUDGET,
        ..base
    }
}

/// The distributed executor's configuration: `processes` groups, run as
/// child processes of this executable over Unix sockets when `spawn`, as
/// threads otherwise (the same round schedule without the sockets).
///
/// # Errors
/// The benchmark's own executable cannot be located for the re-exec.
pub fn net_config(processes: usize, spawn: bool) -> Result<DistributedConfig, String> {
    let base = DistributedConfig::default();
    Ok(DistributedConfig {
        common: common_config(base.common),
        mode: if spawn {
            RunMode::Processes {
                transport: TransportKind::Uds,
                child: ChildCommand {
                    exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
                    prefix_args: vec![NET_CHILD.to_string()],
                },
                fail: None,
            }
        } else {
            RunMode::InProcess
        },
        processes,
        budget: SOLVE_BUDGET,
        ..base
    })
}

/// One attempted operation (a solve, or one ticket), verified by the
/// benchmark against the file's right-hand side.
#[derive(Debug, Clone)]
pub struct Op {
    /// Converged by the library's word **and** verified within
    /// [`FAIL_FACTOR`]·tol.
    pub ok: bool,
    /// Verified `‖b − A·x‖/‖b‖` over the operation's tolerance.
    pub over_tol: f64,
    /// What went wrong, for the failure report.
    pub note: String,
}

/// Verify `x` against the file's system; never the report's own residual.
fn verify(a: &Csr, b: &[f64], x: &[f64], tol: f64, converged: bool) -> Op {
    let res = a.residual_norm(x, b) / vector::norm2_or_one(b);
    let over_tol = res / tol;
    // A NaN residual compares false and fails.
    let within = over_tol <= FAIL_FACTOR;
    Op {
        ok: converged && within,
        over_tol,
        note: if converged && within {
            String::new()
        } else {
            format!("converged={converged} verified residual {res:.3e} vs tol {tol:.0e}")
        },
    }
}

/// A completed ticket as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    pub latency_s: f64,
    pub tol: f64,
}

/// What one end-to-end repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Input files → ready-to-exchange nodes.
    pub setup_s: f64,
    /// The wave exchange to tolerance (solve call, or session makespan).
    pub solve_s: f64,
    /// Files in → verified `x` out, one interval.
    pub e2e_s: f64,
    pub ops: Vec<Op>,
    /// `[solves, msgs, flops]` where the executor reports them.
    pub counters: Option<[u64; 3]>,
    /// `serve8`: every retired ticket.
    pub tickets: Vec<Ticket>,
}

fn assemble(
    w: &Workload,
    a: Csr,
    b: Vec<f64>,
    rec: &mut Recorder,
    root: Option<usize>,
    rep: usize,
) -> Result<DtmProblem, String> {
    let builder = |a: Csr, b: Vec<f64>| {
        DtmBuilder::new(a, b).termination(Termination::Residual { tol: TIGHT_TOL })
    };
    if rec.enabled {
        // Same work as `partition_auto`, taken apart so the partitioner and
        // the EVS split get a span each.
        let s = rec.enter("graph.partition.assign", root, rep);
        let asg =
            Partitioner::default_for(a.n_rows()).assign(&a, w.parts, &PartitionConfig::default());
        rec.exit(s);
        let s = rec.enter("graph.evs.split", root, rep);
        let problem = builder(a, b).assignment(asg).build();
        rec.exit(s);
        problem
    } else {
        builder(a, b).partition_auto(w.parts).build()
    }
    .map_err(|e| e.to_string())
}

/// One end-to-end repetition of `w`: read the files, set up, solve, verify.
///
/// # Errors
/// A typed library error anywhere along the pipeline (counted by the caller
/// as a failed repetition).
pub fn run_rep(w: &Workload, inp: &Inputs, rec: &mut Recorder, rep: usize) -> Result<Rep, String> {
    let root = rec.enter("e2e", None, rep);
    let t0 = Instant::now();
    let s = rec.enter("sparse.mm.read", root, rep);
    let (a, cols) = read_inputs(inp)?;
    rec.exit(s);
    let problem = assemble(w, a.clone(), cols[0].clone(), rec, root, rep)?;

    let mut out = Rep::default();
    // The one-shot executors hand back a report; the session verifies its
    // tickets itself.
    let report = match w.kind {
        Kind::Pool => {
            let s = rec.enter("sparse.cholesky.factor", root, rep);
            let setup_pool = rayon::ThreadPoolBuilder::new()
                .build()
                .map_err(|e| e.to_string())?;
            let templates =
                build_nodes_parallel(&problem.split, &problem.config.common, &setup_pool)
                    .map_err(|e| e.to_string())?;
            rec.exit(s);
            out.setup_s = t0.elapsed().as_secs_f64();
            let s = rec.enter("core.rayon_backend.solve", root, rep);
            let t = Instant::now();
            let r = rayon_backend::solve_prepared(&problem.split, templates, None, &pool_config())
                .map_err(|e| e.to_string())?;
            out.solve_s = t.elapsed().as_secs_f64();
            rec.exit(s);
            Some(r)
        }
        Kind::Uds { processes } => {
            // Children factor their own parts inside the solve call, so
            // set-up ends at the split.
            out.setup_s = t0.elapsed().as_secs_f64();
            let s = rec.enter("net.runner.solve", root, rep);
            let t = Instant::now();
            let r = DistributedBackend
                .solve(&problem.split, None, &net_config(processes, true)?)
                .map_err(|e| e.to_string())?;
            out.solve_s = t.elapsed().as_secs_f64();
            rec.exit(s);
            Some(r)
        }
        Kind::Session { slots, .. } => {
            let s = rec.enter("core.session.open", root, rep);
            let mut session = problem
                .rolling_workstealing(slots, POOL_THREADS)
                .map_err(|e| e.to_string())?;
            rec.exit(s);
            out.setup_s = t0.elapsed().as_secs_f64();

            let run = rec.enter("core.session.run", root, rep);
            let t = Instant::now();
            // Closed loop: `slots` callers, each submitting its next ticket
            // when its previous one retires, until `target` have retired.
            let target = inp.tickets.len() - slots;
            let mut submitted: Vec<(dtm_core::TicketId, TicketPlan, Instant)> = Vec::new();
            let mut retired: Vec<(TicketPlan, Vec<f64>)> = Vec::new();
            while retired.len() < target && t.elapsed() < SOLVE_BUDGET {
                while session.outstanding() < slots && submitted.len() < inp.tickets.len() {
                    let plan = inp.tickets[submitted.len()];
                    let id = session
                        .submit(&cols[plan.col], Termination::Residual { tol: plan.tol })
                        .map_err(|e| e.to_string())?;
                    submitted.push((id, plan, Instant::now()));
                }
                for done in session.poll() {
                    let now = Instant::now();
                    if let Some(&(_, plan, at)) = submitted.iter().find(|s| s.0 == done.ticket) {
                        rec.record("core.session.ticket", run, rep, at, now);
                        out.tickets.push(Ticket {
                            latency_s: (now - at).as_secs_f64(),
                            tol: plan.tol,
                        });
                        retired.push((plan, done.solution));
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            out.solve_s = t.elapsed().as_secs_f64();
            session.finish();
            rec.exit(run);

            let s = rec.enter("verify", root, rep);
            for (plan, x) in &retired {
                out.ops.push(verify(&a, &cols[plan.col], x, plan.tol, true));
            }
            for _ in retired.len()..target {
                out.ops.push(Op {
                    ok: false,
                    over_tol: f64::INFINITY,
                    note: format!("ticket not retired within {} s", SOLVE_BUDGET.as_secs()),
                });
            }
            rec.exit(s);
            None
        }
    };
    if let Some(r) = report {
        let s = rec.enter("verify", root, rep);
        out.ops
            .push(verify(&a, &cols[0], &r.solution, TIGHT_TOL, r.converged));
        rec.exit(s);
        out.counters = Some([r.total_solves, r.total_messages, r.total_flops]);
    }
    out.e2e_s = t0.elapsed().as_secs_f64();
    rec.exit(root);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_plan_is_balanced_seeded_and_repeatable() {
        let plan = ticket_plan(64, 8, 11);
        assert_eq!(plan.len(), 64);
        assert!(plan.iter().step_by(2).all(|t| t.tol == TIGHT_TOL));
        assert!(plan.iter().skip(1).step_by(2).all(|t| t.tol == LOOSE_TOL));
        for c in 0..8 {
            assert_eq!(plan.iter().filter(|t| t.col == c).count(), 8);
        }
        assert_eq!(plan, ticket_plan(64, 8, 11));
        assert_ne!(plan, ticket_plan(64, 8, 12));
    }

    #[test]
    fn inputs_reach_the_library_as_files_and_follow_the_seed() {
        let dir = crate::scratch_dir("test-inputs").unwrap();
        let w = find("serve8").unwrap();
        let inp = generate(w, true, 5, &dir).unwrap();
        let (a, cols) = read_inputs(&inp).unwrap();
        assert_eq!(a, w.quick_grid.laplacian());
        assert_eq!((cols.len(), cols[0].len()), (8, 512));
        assert_eq!(cols.concat(), seeded_rhs(8 * 512, 5));
        assert_eq!(inp.tickets.len(), w.ops_per_rep(true) + 8);
        let other = generate(w, true, 6, &dir).unwrap();
        assert_ne!(read_inputs(&other).unwrap().1, cols);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_fails_a_wrong_or_unconverged_answer() {
        let a = generators::grid2d_laplacian(4, 4);
        let (b, x) = generators::manufactured_rhs(&a, 3);
        assert!(verify(&a, &b, &x, TIGHT_TOL, true).ok);
        assert!(!verify(&a, &b, &x, TIGHT_TOL, false).ok);
        assert!(!verify(&a, &b, &[0.0; 16], TIGHT_TOL, true).ok);
        assert!(!verify(&a, &b, &[f64::NAN; 16], TIGHT_TOL, true).ok);
    }
}
