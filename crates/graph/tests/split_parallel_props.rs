//! Property tests for the parallel setup pipeline: `split_parallel` must
//! produce a `SplitSystem` bitwise-identical to the serial `split` (local
//! numbering, matrices, edge shares, scattered RHS, ports, DTLPs), and the
//! heap-based greedy cover in `PartitionPlan::from_assignment` must choose
//! exactly the boundary the original full-rescan formulation chose.

use dtm_graph::electric::ElectricGraph;
use dtm_graph::evs::{split, split_parallel, EvsOptions, SharePolicy, TwinTopology};
use dtm_graph::plan::{Owner, PartitionPlan};
use dtm_sparse::Coo;
use proptest::prelude::*;

/// Random symmetric diagonally-dominant (hence SPD) system over a path
/// plus `extra` chords, with a deterministic pseudo-random RHS.
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
    ElectricGraph::from_system(coo.to_csr().unwrap(), b).unwrap()
}

/// Force every part to be non-empty (vertex `i < n_parts` goes to part `i`).
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

/// The original full-rescan greedy cover (BTreeSet over endpoints of
/// still-uncovered edges, `max_by_key((live, cut, v))`), retained here as
/// the executable specification the production heap version must match.
fn reference_boundary(graph: &ElectricGraph, assignment: &[usize]) -> Vec<bool> {
    let n = graph.n();
    let mut cut_edges: Vec<(usize, usize)> = Vec::new();
    let mut cut_degree = vec![0usize; n];
    for u in 0..n {
        for (v, _) in graph.neighbors(u) {
            if v > u && assignment[u] != assignment[v] {
                cut_edges.push((u, v));
                cut_degree[u] += 1;
                cut_degree[v] += 1;
            }
        }
    }
    let mut in_boundary = vec![false; n];
    let mut uncovered = cut_edges;
    let mut live_degree = cut_degree.clone();
    while !uncovered.is_empty() {
        let &best = uncovered
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .max_by_key(|&&v| (live_degree[v], cut_degree[v], v))
            .expect("uncovered non-empty");
        in_boundary[best] = true;
        uncovered.retain(|&(u, v)| {
            let covered = u == best || v == best;
            if covered {
                live_degree[u] -= 1;
                live_degree[v] -= 1;
            }
            !covered
        });
    }
    in_boundary
}

fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("test pool")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Parallel and serial EVS agree bit for bit on every field of the
    /// `SplitSystem`, for both share policies and both simple topologies.
    #[test]
    fn split_parallel_is_bitwise_serial(
        n in 6usize..32,
        n_parts in 2usize..5,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..60),
        raw_asg in proptest::collection::vec(0usize..8, 32..33),
        seed in any::<u64>(),
    ) {
        let g = random_system(n, &edges, seed);
        let asg = dense_assignment(raw_asg[..n].to_vec(), n_parts);
        let plan = PartitionPlan::from_assignment(&g, &asg).expect("derived plans are valid");
        let pool = pool();
        for policy in [SharePolicy::Uniform, SharePolicy::DominanceProportional] {
            for topology in [TwinTopology::Chain, TwinTopology::Star] {
                let options = EvsOptions {
                    policy,
                    twin_topology: topology,
                    ..Default::default()
                };
                let serial = split(&g, &plan, &options).expect("serial split");
                let parallel =
                    split_parallel(&g, &plan, &options, &pool).expect("parallel split");
                prop_assert_eq!(&serial, &parallel, "policy {:?}", policy);
                // Scattered RHS is derived from rhs_weight; check the
                // end-to-end streaming path is bitwise too.
                let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
                let s1 = serial.scatter_rhs(&b);
                let s2 = parallel.scatter_rhs(&b);
                for (c1, c2) in s1.iter().zip(&s2) {
                    for (u, v) in c1.iter().zip(c2) {
                        prop_assert!(u.to_bits() == v.to_bits());
                    }
                }
            }
        }
    }

    /// The heap-based greedy cover selects exactly the boundary the
    /// original O(boundary × cut²) rescan selected.
    #[test]
    fn heap_cover_matches_rescan_reference(
        n in 6usize..48,
        n_parts in 2usize..6,
        edges in proptest::collection::vec((0usize..96, 0usize..96, 0.1f64..1.5), 0..90),
        raw_asg in proptest::collection::vec(0usize..8, 48..49),
        seed in any::<u64>(),
    ) {
        let g = random_system(n, &edges, seed);
        let asg = dense_assignment(raw_asg[..n].to_vec(), n_parts);
        let expected = reference_boundary(&g, &asg);
        let plan = PartitionPlan::from_assignment(&g, &asg).expect("derived plans are valid");
        for (v, &exp) in expected.iter().enumerate().take(n) {
            let is_split = matches!(plan.owner(v), Owner::Split(_));
            prop_assert_eq!(
                is_split, exp,
                "vertex {} boundary membership diverged from the rescan reference", v
            );
        }
    }
}
