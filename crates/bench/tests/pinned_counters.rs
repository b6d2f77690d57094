//! The deterministic numbers `repro bench` and `repro compare` print,
//! pinned exactly: the simulated machine's counters, the default
//! partitioner's cuts, the two factor sizes of the kernel case, the
//! comparison table's rows. A change to the partitioner, the
//! orderings, the block-wave bookkeeping or the compute model shows up here
//! as a diff in numbers. Wall-clock runs are held to what does repeat: they
//! converge, and the residual they report meets the tolerance.
//!
//! The sizes that want an optimized build are `#[ignore]`d; CI runs them
//! with `cargo test --release -p dtm-bench --test pinned_counters --
//! --include-ignored`.

use dtm_bench::compare::{all_reports, grid_setup};
use dtm_bench::perf::{fixture_matrix, fixture_rhs};
use dtm_bench::seeds;
use dtm_core::rayon_backend::RayonConfig;
use dtm_core::runtime::{CommonConfig, Termination};
use dtm_core::threaded::ThreadedConfig;
use dtm_core::AlgorithmKind::{DIteration, Dtm, RandomizedRichardson};
use dtm_core::{DtmBuilder, SolveReport};
use dtm_graph::partition::{self, PartitionConfig, Partitioner};
use dtm_sparse::{generators, mm, Csr, SparseCholesky};
use std::fs::File;
use std::io::BufReader;

/// The default partitioner's `(cut edges, boundary vertices, imbalance)`, as
/// `repro bench` takes them.
fn default_cut(a: &Csr, parts: usize) -> (usize, usize, f64) {
    let asg = Partitioner::default_for(a.n_rows()).assign(a, parts, &PartitionConfig::default());
    let m = partition::metrics(a, &asg);
    (m.cut_edges, m.boundary_vertices, m.imbalance)
}

fn residual_rule(tol: f64) -> CommonConfig {
    CommonConfig {
        termination: Termination::Residual { tol },
        ..Default::default()
    }
}

fn assert_meets(what: &str, r: &SolveReport, tol: f64) {
    assert!(r.converged, "{what}: residual {}", r.final_residual);
    assert!(r.final_residual <= tol, "{what}: {}", r.final_residual);
}

/// The seed case every PR since the first measured on: the 9×9 grid
/// Laplacian in 3 strips, an 8-column reference-free block solve on the
/// simulated machine.
#[test]
fn seed_block_solve_on_the_simulated_machine() {
    let a = generators::grid2d_laplacian(9, 9);
    let n = a.n_rows();
    let cols: Vec<Vec<f64>> = (0..8)
        .map(|c| generators::random_rhs(n, seeds::RHS + 1 + c))
        .collect();
    let problem = DtmBuilder::new(a, generators::random_rhs(n, seeds::RHS))
        .grid_strips(9, 9, 3)
        .termination(Termination::Residual { tol: 1e-8 })
        .build()
        .expect("builds");
    let r = problem.solve_block(&cols).expect("solves");
    assert_meets("seed 9×9 K=8", &r, 1e-8);
    assert_eq!(r.total_messages, 342);
    assert_eq!(r.total_solves, 256);
    assert_eq!(r.total_flops, 4_672_512);
    assert_eq!(r.final_time_ms, 85.85);
}

/// The CI-sized 3-D case: 16³ in 8 parts, cut pinned, both wall-clock
/// fabrics solving over one build.
#[test]
fn grid3d16_cut_and_both_fabrics() {
    let a = generators::grid3d_laplacian(16, 16, 16);
    assert_eq!(default_cut(&a, 8), (1_024, 1_856, 1.0));
    let tol = 1e-6;
    let b = generators::random_rhs(a.n_rows(), seeds::RHS);
    let problem = DtmBuilder::new(a, b)
        .partition_auto(8)
        .termination(Termination::Residual { tol })
        .build()
        .expect("builds");
    let threaded = ThreadedConfig {
        common: residual_rule(tol),
        ..Default::default()
    };
    let r = problem.solve_threaded(&threaded).expect("threaded solves");
    assert_meets("16³ threaded", &r, tol);
    let pool = RayonConfig {
        common: residual_rule(tol),
        ..Default::default()
    };
    let r = problem.solve_workstealing(&pool).expect("pool solves");
    assert_meets("16³ pool", &r, tol);
}

fn read_fixture() -> (Csr, Vec<f64>) {
    let open = |path| BufReader::new(File::open(path).expect("committed fixture"));
    let a = mm::read_matrix(open(fixture_matrix())).expect("matrix parses");
    let b = mm::read_vector(open(fixture_rhs())).expect("rhs parses");
    (a, b)
}

/// The Matrix Market fixture end to end, as `repro bench`'s last case.
#[test]
fn fixture_cut_and_solve() {
    let (a, b) = read_fixture();
    assert_eq!(a.n_rows(), 64);
    let asg = partition::nested_dissection(&a, 4);
    assert_eq!(partition::metrics(&a, &asg).cut_edges, 16);
    let tol = 1e-8;
    let problem = DtmBuilder::new(a, b)
        .assignment(asg)
        .termination(Termination::Residual { tol })
        .build()
        .expect("builds");
    assert_eq!(problem.split.n_parts(), 4);
    let config = ThreadedConfig {
        common: residual_rule(tol),
        ..Default::default()
    };
    let r = problem.solve_threaded(&config).expect("solves");
    assert_meets("fixture", &r, tol);
}

#[test]
fn fixture_files_exist_and_roundtrip() {
    // The committed fixture must parse, re-serialize, and re-parse to
    // the identical matrix (read → write → read equality), and the
    // paired RHS must match its dimension.
    let (a, rhs) = read_fixture();
    let mut buf = Vec::new();
    mm::write_matrix(&mut buf, &a, true).expect("writes");
    let b = mm::read_matrix(std::io::Cursor::new(buf)).expect("reparses");
    assert_eq!(a, b, "mm read → write → read must be the identity");
    assert_eq!(rhs.len(), a.n_rows());
}

/// The two factors the kernel case sweeps: what the fill-reducing ordering
/// buys over RCM on a 20³ Laplacian.
#[test]
#[ignore = "factors 8,000 unknowns twice; run in release"]
fn grid3d20_factor_sizes() {
    let a = generators::grid3d_laplacian(20, 20, 20);
    let rcm = SparseCholesky::factor_rcm(&a).expect("SPD");
    assert_eq!(rcm.nnz_l(), 1_804_849);
    let fill = SparseCholesky::factor_fill_reducing(&a).expect("SPD");
    assert_eq!(fill.nnz_l(), 629_408);
}

/// The full suite's larger systems, up to 10⁶ unknowns in 64 parts.
#[test]
#[ignore = "partitions up to 10⁶ unknowns; run in release"]
fn larger_grid_cuts() {
    let a = generators::grid3d_laplacian(48, 48, 48);
    assert_eq!(default_cut(&a, 32), (23_040, 42_048, 1.0));
    let a = generators::grid3d_laplacian_aniso(32, 32, 32, 0.05);
    assert_eq!(default_cut(&a, 16), (6_144, 11_136, 1.0));
    let a = generators::grid3d_laplacian(100, 100, 100);
    assert_eq!(default_cut(&a, 64), (140_000, 260_400, 1.0816));
}

/// `repro compare`'s table (the 9×9 grid torn 2×2 on the seeded 10–99 ms
/// mesh, residual ≤ 1e-8): `(algorithm, sim time, activations, messages,
/// flops)` per row, as README quotes them.
#[test]
fn compare_rows_are_pinned() {
    let rows = all_reports(&grid_setup(9, 2, 2, 1e-8));
    let pinned = [
        (Dtm, 2402.060382, 8_563, 17_126, 11_553_684),
        (RandomizedRichardson, 4565.060382, 17_215, 34_430, 4_573_354),
        (DIteration, 4411.060382, 16_599, 33_198, 3_735_952),
    ];
    assert_eq!(rows.len(), pinned.len());
    for (r, (algorithm, time_ms, solves, messages, flops)) in rows.iter().zip(pinned) {
        assert_eq!(r.algorithm, algorithm);
        assert!(r.converged, "{}", algorithm.name());
        assert_eq!(r.final_time_ms, time_ms, "{}", algorithm.name());
        assert_eq!(r.total_solves, solves, "{}", algorithm.name());
        assert_eq!(r.total_messages, messages, "{}", algorithm.name());
        assert_eq!(r.total_flops, flops, "{}", algorithm.name());
    }
}
