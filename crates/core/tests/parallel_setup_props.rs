//! Property tests for the set-up path: every node builder — `build_nodes`
//! and `build_nodes_block` on the library's own set-up pool,
//! `build_nodes_parallel` and `build_nodes_block_parallel` on a pool the
//! caller sized — must yield node runtimes (local matrices, Cholesky
//! factors, base RHS, routes) bitwise-identical to a serial per-part
//! reference loop: each part built on its own, over the impedances the split
//! assigns, by the same call a distributed child makes. Covered for the
//! scalar build, block waves, and a rolling session's zero-column blocks
//! (1, 8 and 65 slots; 65 is past the 64-column dirty mask).

use dtm_core::impedance::per_port;
use dtm_core::local::{LocalSolverKind, LocalSystem, AUTO_DENSE_LIMIT};
use dtm_core::runtime::{
    build_node, build_nodes, build_nodes_block, build_nodes_block_parallel, build_nodes_parallel,
    CommonConfig, NodeRuntime,
};
use dtm_graph::evs::{split, EvsOptions, SplitSystem};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_sparse::{generators, Coo};
use proptest::prelude::*;

fn random_system(n: usize, edges: &[(usize, usize, f64)], seed: u64) -> ElectricGraph {
    let mut dominance = vec![1.0f64; n];
    let mut coo = Coo::new(n, n);
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..n - 1 {
        seen.insert((i, i + 1));
        coo.push_sym(i, i + 1, -1.0).unwrap();
        dominance[i] += 1.0;
        dominance[i + 1] += 1.0;
    }
    for &(a, b, w) in edges {
        let (r, c) = (a.min(b) % n, a.max(b) % n);
        if r == c || !seen.insert((r, c)) {
            continue;
        }
        coo.push_sym(r, c, -w).unwrap();
        dominance[r] += w.abs();
        dominance[c] += w.abs();
    }
    for (i, d) in dominance.iter().enumerate() {
        coo.push(i, i, d + 0.25).unwrap();
    }
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let b: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    ElectricGraph::from_system(coo.to_csr(), b).unwrap()
}

fn dense_assignment(mut asg: Vec<usize>, n_parts: usize) -> Vec<usize> {
    for (i, a) in asg.iter_mut().enumerate() {
        if i < n_parts {
            *a = i;
        } else {
            *a %= n_parts;
        }
    }
    asg
}

/// Per-part port impedances, as the split assigns them.
fn port_impedances(ss: &SplitSystem, common: &CommonConfig) -> Vec<Vec<f64>> {
    per_port(ss, &common.impedance.assign(ss).expect("assigns"))
}

/// The reference: one `build_node` call per part, in part order.
fn per_part_reference(ss: &SplitSystem, common: &CommonConfig) -> Vec<NodeRuntime> {
    let z = port_impedances(ss, common);
    (0..ss.n_parts())
        .map(|p| build_node(&ss.subdomains[p], &z[p], common).expect("part builds"))
        .collect()
}

/// The reference for a block wave: each part's local system factored on
/// its own over its share of every scattered column.
fn per_part_block_reference(
    ss: &SplitSystem,
    common: &CommonConfig,
    cols: &[Vec<f64>],
) -> Vec<LocalSystem> {
    let z = port_impedances(ss, common);
    let scattered: Vec<Vec<Vec<f64>>> = cols.iter().map(|b| ss.scatter_rhs(b)).collect();
    (0..ss.n_parts())
        .map(|p| {
            let part_cols: Vec<Vec<f64>> = scattered.iter().map(|c| c[p].clone()).collect();
            LocalSystem::new_block(&ss.subdomains[p], &z[p], LocalSolverKind::Auto, &part_cols)
                .expect("part builds")
        })
        .collect()
}

/// `built` matches the reference node for node: the parts in order, each
/// with the wave routes of `routes`' node (the columns do not enter them)
/// and a local system (matrix, factor, base RHS, boundary state) equal to
/// `locals`' entry.
fn assert_matches<'a>(
    what: &str,
    routes: &[NodeRuntime],
    locals: impl IntoIterator<Item = &'a LocalSystem>,
    built: &[NodeRuntime],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(routes.len(), built.len(), "{}: node count", what);
    for ((r, l), b) in routes.iter().zip(locals).zip(built) {
        prop_assert_eq!(r.part(), b.part(), "{}: part order", what);
        prop_assert!(
            l == b.local(),
            "{}: part {} local system diverged",
            what,
            b.part()
        );
        let rr: Vec<usize> = r.neighbor_parts().collect();
        let br: Vec<usize> = b.neighbor_parts().collect();
        prop_assert_eq!(rr, br, "{}: part {} routes diverged", what, b.part());
    }
    Ok(())
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Both pooled builders equal the per-part reference bit for bit.
    #[test]
    fn concurrent_factorization_is_bitwise_serial(
        n in 8usize..40,
        n_parts in 2usize..5,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..60),
        raw_asg in proptest::collection::vec(0usize..8, 40..41),
        seed in any::<u64>(),
    ) {
        let g = random_system(n, &edges, seed);
        let asg = dense_assignment(raw_asg[..n].to_vec(), n_parts);
        let plan = PartitionPlan::from_assignment(&g, &asg).expect("derived plans are valid");
        let ss = split(&g, &plan, &EvsOptions::default()).expect("split");
        let common = CommonConfig::default();
        let reference = per_part_reference(&ss, &common);
        let locals = || reference.iter().map(NodeRuntime::local);
        let built = build_nodes(&ss, &common).expect("builds");
        assert_matches("build_nodes", &reference, locals(), &built)?;
        let built = build_nodes_parallel(&ss, &common, &pool(3)).expect("builds");
        assert_matches("build_nodes_parallel", &reference, locals(), &built)?;
    }

    /// Block waves, and the session shape: the blocks of zero columns a
    /// rolling session opens with, at 1, 8 and 65 slots.
    #[test]
    fn concurrent_block_build_is_bitwise_serial(
        n in 8usize..32,
        n_parts in 2usize..4,
        edges in proptest::collection::vec((0usize..48, 0usize..48, 0.1f64..1.5), 0..40),
        raw_asg in proptest::collection::vec(0usize..8, 32..33),
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let g = random_system(n, &edges, seed);
        let asg = dense_assignment(raw_asg[..n].to_vec(), n_parts);
        let plan = PartitionPlan::from_assignment(&g, &asg).expect("derived plans are valid");
        let ss = split(&g, &plan, &EvsOptions::default()).expect("split");
        let common = CommonConfig::default();
        let routes = per_part_reference(&ss, &common);
        let waves: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i + c * 31) as f64).cos()).collect())
            .collect();
        let mut blocks = vec![("block wave".to_string(), waves)];
        for slots in [1usize, 8, 65] {
            blocks.push((format!("{slots}-slot session"), vec![vec![0.0; n]; slots]));
        }
        for (what, cols) in &blocks {
            let locals = per_part_block_reference(&ss, &common, cols);
            let built = build_nodes_block(&ss, &common, cols).expect("builds");
            assert_matches(&format!("build_nodes_block, {what}"), &routes, &locals, &built)?;
            let built = build_nodes_block_parallel(&ss, &common, cols, &pool(2)).expect("builds");
            let what = format!("build_nodes_block_parallel, {what}");
            assert_matches(&what, &routes, &locals, &built)?;
        }
    }
}

/// The random systems above are small enough that every part factors
/// dense; two 24 × 12 strips of a 24 × 24 grid exceed
/// [`AUTO_DENSE_LIMIT`], so this pins the sparse fill-reducing factor.
#[test]
fn sparse_factorization_is_bitwise_serial() {
    let side = 24;
    let a = generators::grid2d_laplacian(side, side);
    let b: Vec<f64> = (0..side * side).map(|i| (i as f64).sin()).collect();
    let g = ElectricGraph::from_system(a, b).unwrap();
    let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, 2)).unwrap();
    let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
    let common = CommonConfig::default();
    let reference = per_part_reference(&ss, &common);
    assert_eq!(reference.len(), 2);
    for r in &reference {
        let n = r.local().n_local();
        assert!(n > AUTO_DENSE_LIMIT, "part {}: {n} unknowns", r.part());
        assert!(
            r.local().factor_nnz() < n * (n + 1) / 2,
            "part {}: factored sparse",
            r.part()
        );
    }
    let locals = || reference.iter().map(NodeRuntime::local);
    let built = build_nodes(&ss, &common).unwrap();
    assert_matches("build_nodes", &reference, locals(), &built).unwrap();
    let built = build_nodes_parallel(&ss, &common, &pool(2)).unwrap();
    assert_matches("build_nodes_parallel", &reference, locals(), &built).unwrap();
}
