//! Property tests for the concurrent setup path: factoring every
//! subdomain on the work-stealing pool (`build_nodes_parallel`) must yield
//! node runtimes — local matrices, Cholesky factors, base RHS, routes —
//! bitwise-identical to the serial `build_nodes` loop, for both scalar and
//! block-wave construction.

use dtm_core::local::AUTO_DENSE_LIMIT;
use dtm_core::runtime::{
    build_nodes, build_nodes_block, build_nodes_block_parallel, build_nodes_parallel, CommonConfig,
};
use dtm_graph::evs::{split, EvsOptions};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Pool-factored nodes equal serially-factored nodes bit for bit:
    /// same local matrix, same Cholesky factor, same base RHS, same wave
    /// routes.
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
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("test pool");
        let common = CommonConfig::default();
        let serial = build_nodes(&ss, &common).expect("serial build");
        let parallel = build_nodes_parallel(&ss, &common, &pool).expect("parallel build");
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.part(), p.part());
            prop_assert!(
                s.local() == p.local(),
                "part {}: pool-factored local system diverged",
                s.part()
            );
            let sr: Vec<usize> = s.neighbor_parts().collect();
            let pr: Vec<usize> = p.neighbor_parts().collect();
            prop_assert_eq!(sr, pr, "part {} routes diverged", s.part());
        }
    }

    /// Block-wave variant: scattered multi-RHS construction is bitwise
    /// too.
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
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("test pool");
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i + c * 31) as f64).cos()).collect())
            .collect();
        let common = CommonConfig::default();
        let serial = build_nodes_block(&ss, &common, &cols).expect("serial block build");
        let parallel =
            build_nodes_block_parallel(&ss, &common, &cols, &pool).expect("parallel block build");
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert!(
                s.local() == p.local(),
                "part {}: block-built local system diverged",
                s.part()
            );
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
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("test pool");
    let common = CommonConfig::default();
    let serial = build_nodes(&ss, &common).expect("serial build");
    let parallel = build_nodes_parallel(&ss, &common, &pool).expect("parallel build");
    assert_eq!(serial.len(), 2);
    for (s, p) in serial.iter().zip(&parallel) {
        let n = s.local().n_local();
        assert!(n > AUTO_DENSE_LIMIT, "part {}: {n} unknowns", s.part());
        assert!(
            s.local().factor_nnz() < n * (n + 1) / 2,
            "part {}: factored sparse",
            s.part()
        );
        assert!(
            s.local() == p.local(),
            "part {}: pool-factored local system diverged",
            s.part()
        );
    }
}
