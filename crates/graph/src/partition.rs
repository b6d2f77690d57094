//! Raw per-vertex part assignments for EVS.
//!
//! The paper's experiments use "regularly partitioned" grids (§7): 1-D
//! strips and 2-D blocks that map onto mesh-connected processors, mixing
//! level-one splits (strip/block faces) with higher-level splits where
//! several blocks meet. General graphs get one partitioner,
//! [`nested_dissection`], with [`index_strips`] kept as the paper's 1-D
//! baseline; [`Partitioner::default_for`] says why there is no second one.

use dtm_sparse::ordering::pseudo_peripheral_in;
use dtm_sparse::Csr;
use std::collections::BinaryHeap;

/// The one tunable of [`nested_dissection_with`], replacing the constant
/// that used to be hard-coded inside [`nested_dissection`].
///
/// The [`Default`] value reproduces the pre-config [`nested_dissection`]
/// output bit for bit (pinned by a test) and is the setting every
/// benchmark runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Slack-window divisor of the nested-dissection bisections: each
    /// split point may drift from the proportional target by
    /// `len / (nd_slack_divisor · parts) + 1` vertices when that buys a
    /// lower cut. Larger divisors pin the split tighter to the target.
    pub nd_slack_divisor: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            nd_slack_divisor: 8,
        }
    }
}

/// Which assignment generator to run on a general graph: call
/// [`assign`](Self::assign) and hand the result to
/// [`DtmBuilder::assignment`](../../dtm_core/builder/struct.DtmBuilder.html#method.assignment)
/// or [`crate::PartitionPlan::from_assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Contiguous index ranges (`k` equal slabs of the vertex numbering) —
    /// the 1-D baseline; on grid-ordered matrices these are axis slabs.
    Strips,
    /// Recursive low-cut bisection ([`nested_dissection`]).
    NestedDissection,
}

impl Partitioner {
    /// The default partitioner for a system of `n` unknowns:
    /// [`Partitioner::NestedDissection`] at every size — what
    /// [`DtmBuilder::partition_auto`](../../dtm_core/builder/struct.DtmBuilder.html#method.partition_auto)
    /// and the repository benchmark run.
    ///
    /// `n` is taken because this is the one place a size rule would go,
    /// and such a rule has to be *measured*. A coarsen–partition–refine
    /// partitioner was once selected here from a guessed 32³ threshold: it
    /// cut 20 % fewer edges, then sent more messages and took longer to
    /// tolerance than nested dissection at every size tried (an
    /// asynchronous iteration's work follows its contraction rate, not
    /// its edge cut), so it was deleted — see README, "One graph
    /// partitioner, and why"; the code is in git history at PR 8.
    pub fn default_for(_n: usize) -> Self {
        Self::NestedDissection
    }

    /// Run this partitioner on a general graph.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > n` (every generator's own contract).
    pub fn assign(self, a: &Csr, k: usize, config: &PartitionConfig) -> Vec<usize> {
        match self {
            Self::Strips => index_strips(a.n_rows(), k),
            Self::NestedDissection => nested_dissection_with(a, k, config),
        }
    }
}

/// Contiguous index-range assignment: vertex `v` goes to part `v·k/n`.
/// On grid-ordered matrices these are axis-aligned slabs — the 1-D
/// strip baseline generalized to any dimension/ordering.
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn index_strips(n: usize, k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= n.max(1), "need 1 ≤ k ≤ n");
    (0..n).map(|v| v * k / n).collect()
}

/// Column-strip assignment of an `nx × ny` grid into `k` strips
/// (vertex `(x, y)` has index `y * nx + x`).
///
/// # Panics
/// Panics if `k == 0` or `k > nx`.
pub fn grid_strips(nx: usize, ny: usize, k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= nx, "need 1 ≤ k ≤ nx");
    let mut assignment = vec![0usize; nx * ny];
    for y in 0..ny {
        for x in 0..nx {
            assignment[y * nx + x] = x * k / nx;
        }
    }
    assignment
}

/// 2-D block assignment of an `nx × ny` grid into `px × py` blocks; block
/// `(bx, by)` is part `by * px + bx`. This is the paper's "level-one and
/// level-two mixed" regular partitioning: vertices on a block face split
/// 2-way, vertices near block corners split 3-way (5-point stencil).
///
/// # Panics
/// Panics if `px > nx` or `py > ny` or either is zero.
pub fn grid_blocks(nx: usize, ny: usize, px: usize, py: usize) -> Vec<usize> {
    assert!(px >= 1 && px <= nx, "need 1 ≤ px ≤ nx");
    assert!(py >= 1 && py <= ny, "need 1 ≤ py ≤ ny");
    let mut assignment = vec![0usize; nx * ny];
    for y in 0..ny {
        for x in 0..nx {
            let bx = x * px / nx;
            let by = y * py / ny;
            assignment[y * nx + x] = by * px + bx;
        }
    }
    assignment
}

/// Nested-dissection assignment of a general graph into `k`
/// parts: the vertex set is split recursively by low-cut vertex
/// separators, so subdomain factors stay small and the boundary cut stays
/// low where [`grid_strips`] blows up (a strip partition of
/// an `s×s×s` grid pays an `s²` face per boundary *per strip*; dissection
/// halves the domain along its shortest extent at every level).
///
/// Each bisection grows one side greedily by maximum gain (neighbours
/// inside minus neighbours outside — Fiduccia–Mattheyses-style) from a
/// pseudo-peripheral seed found with the BFS machinery behind
/// [`dtm_sparse::ordering::reverse_cuthill_mckee`]
/// ([`pseudo_peripheral_in`]). Two growth orientations (index-ascending /
/// index-descending tie-breaks) are tried and the lower-cut one kept; the
/// split size may drift from the proportional target by a small slack when
/// that buys a straighter separator. Part counts need not be powers of
/// two: `k` is divided as evenly as the recursion tree allows. The result
/// is deterministic.
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn nested_dissection(a: &Csr, k: usize) -> Vec<usize> {
    nested_dissection_with(a, k, &PartitionConfig::default())
}

/// [`nested_dissection`] with explicit [`PartitionConfig`] tunables (the
/// slack window that used to be a hard-coded constant). The default config
/// reproduces [`nested_dissection`]'s historical output bit for bit.
///
/// The recursion runs one level at a time on a fork-join fan-out sized to
/// the machine's available parallelism: a level with one group to split
/// grows its two orientations side by side, a wider level bisects its
/// groups side by side. A group owed `parts` parts numbers them from its
/// base offset — the parts of the groups to its left — which is the
/// left-to-right order of a depth-first recursion, so the assignment does
/// not depend on the thread count or on which bisection finishes first.
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn nested_dissection_with(a: &Csr, k: usize, config: &PartitionConfig) -> Vec<usize> {
    let n = a.n_rows();
    assert!(k >= 1 && k <= n.max(1), "need 1 ≤ k ≤ n");
    let pool = rayon::ThreadPool::default();
    let mut assignment = vec![0usize; n];
    // The groups still to split, left to right: (first part id, parts to
    // produce, vertex group). A group owed one part is numbered at once.
    let mut level: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    if k > 1 {
        level.push((0, k, (0..n).collect()));
    }
    while !level.is_empty() {
        let halves = if let [(_, parts, group)] = level.as_slice() {
            let kl = parts / 2;
            vec![bisect_grow(a, group, kl, parts - kl, config, Some(&pool))]
        } else {
            pool.map_index(level.len(), |i| {
                let (_, parts, group) = &level[i];
                let kl = parts / 2;
                bisect_grow(a, group, kl, parts - kl, config, None)
            })
        };
        let mut next = Vec::with_capacity(2 * level.len());
        for ((base, parts, _), (left, right)) in level.into_iter().zip(halves) {
            let kl = parts / 2;
            for (base, parts, group) in [(base, kl, left), (base + kl, parts - kl, right)] {
                if parts == 1 {
                    for v in group {
                        assignment[v] = base;
                    }
                } else {
                    next.push((base, parts, group));
                }
            }
        }
        level = next;
    }
    assignment
}

/// One nested-dissection bisection: split `group` into a `kl : kr`
/// proportioned pair of vertex sets with a low cut between them. The two
/// growth orientations run on `pool`'s fan-out when one is given.
fn bisect_grow(
    a: &Csr,
    group: &[usize],
    kl: usize,
    kr: usize,
    config: &PartitionConfig,
    pool: Option<&rayon::ThreadPool>,
) -> (Vec<usize>, Vec<usize>) {
    let parts = kl + kr;
    let len = group.len();
    debug_assert!(len >= parts, "recursion keeps every group ≥ its part count");
    let target = len * kl / parts;
    // Allow the split point to drift a little around the proportional
    // target when that buys a lower cut (a straight separator on an
    // odd-sized grid, say). Both sides must keep at least one vertex per
    // part they still owe.
    let slack = len / (config.nd_slack_divisor.max(1) * parts) + 1;
    let min_size = (target.saturating_sub(slack)).max(kl);
    let max_size = (target + slack).min(len - kr);
    // The group's membership and its pseudo-peripheral seed do not depend
    // on the orientation: both growths share them.
    let mut in_group = vec![false; a.n_rows()];
    for &v in group {
        in_group[v] = true;
    }
    let seed = pseudo_peripheral_in(a, group[0], |v| in_group[v]);
    let grow = |prefer_low| grow_region(a, group, &in_group, seed, max_size, prefer_low);
    let [lo, hi] = match pool.map(|pool| pool.map_index(2, |i| grow(i == 0)).try_into()) {
        Some(Ok(runs)) => runs,
        // `map_index` returns one run per index; this arm only keeps the
        // function total.
        _ => [grow(true), grow(false)],
    };
    let (lo_size, lo_cut) = lo.best_in(min_size, max_size, target);
    let (hi_size, hi_cut) = hi.best_in(min_size, max_size, target);
    // Lower cut wins; ties keep the index-ascending orientation.
    let (order, best_size) =
        if (hi_cut, hi_size.abs_diff(target)) < (lo_cut, lo_size.abs_diff(target)) {
            (hi.order, hi_size)
        } else {
            (lo.order, lo_size)
        };
    let mut left = order[..best_size].to_vec();
    left.sort_unstable();
    let mut in_left = in_group;
    in_left.fill(false);
    for &v in &left {
        in_left[v] = true;
    }
    let right: Vec<usize> = group.iter().copied().filter(|&v| !in_left[v]).collect();
    (left, right)
}

/// A greedy growth run: the order vertices entered the region and the cut
/// size after each addition.
struct GrowRun {
    order: Vec<usize>,
    /// `cuts[s]` = edges between the first `s + 1` vertices and the rest
    /// of the group.
    cuts: Vec<i64>,
}

impl GrowRun {
    /// Best prefix size in `[min_size, max_size]`: lowest cut, ties to the
    /// size closest to `target` (then the smaller size — deterministic).
    fn best_in(&self, min_size: usize, max_size: usize, target: usize) -> (usize, i64) {
        (min_size..=max_size)
            .filter_map(|s| self.cuts.get(s.wrapping_sub(1)).map(|&cut| (s, cut)))
            .min_by_key(|&(s, cut)| (cut, s.abs_diff(target), s))
            // An empty or short-grown window loses every comparison: the
            // caller keeps the other orientation.
            .unwrap_or((self.order.len(), i64::MAX))
    }
}

/// Grow a region of `max_size` vertices inside `group` (whose members
/// `in_group` marks) by repeatedly absorbing the frontier vertex of maximum
/// gain (neighbours inside minus neighbours outside). `prefer_low` breaks
/// gain ties toward the smallest vertex index, its negation toward the
/// largest — on index-regular graphs (grids) the two orientations fill
/// along different axes, and the caller keeps whichever cut is lower.
/// Seeded from `seed`, a pseudo-peripheral vertex of the group;
/// disconnected groups reseed at the lowest unreached vertex.
fn grow_region(
    a: &Csr,
    group: &[usize],
    in_group: &[bool],
    seed: usize,
    max_size: usize,
    prefer_low: bool,
) -> GrowRun {
    let n = a.n_rows();
    // Tie-break key: max-heap pops the largest (gain, key) pair.
    let key = |v: usize| {
        if prefer_low {
            -(v as i64)
        } else {
            v as i64
        }
    };
    let mut in_region = vec![false; n];
    let mut seen = vec![false; n];
    let mut gain = vec![0i64; n];
    let mut heap: BinaryHeap<(i64, i64, usize)> = BinaryHeap::new();
    let fresh_gain = |v: usize, in_region: &[bool]| -> i64 {
        let mut g = 0i64;
        for (c, _) in a.row(v) {
            if c != v && in_group[c] {
                g += if in_region[c] { 1 } else { -1 };
            }
        }
        g
    };
    seen[seed] = true;
    gain[seed] = fresh_gain(seed, &in_region);
    heap.push((gain[seed], key(seed), seed));

    let mut order = Vec::with_capacity(max_size);
    let mut cuts = Vec::with_capacity(max_size);
    let mut cut = 0i64;
    let mut reseed = group;
    while order.len() < max_size {
        let v = match heap.pop() {
            // Lazy deletion: stale entries carry an outdated gain or a
            // vertex already absorbed.
            Some((g, _, v)) if !in_region[v] && g == gain[v] => v,
            Some(_) => continue,
            None => {
                // Disconnected group: reseed at the lowest unreached
                // vertex. `group` is ascending and the region only grows,
                // so the cursor never has to look back. `order.len() <
                // max_size ≤ |group|` guarantees one exists; stop growing
                // if that invariant breaks.
                while reseed.first().is_some_and(|&v| in_region[v]) {
                    reseed = &reseed[1..];
                }
                let Some(&v) = reseed.first() else {
                    break;
                };
                seen[v] = true;
                gain[v] = fresh_gain(v, &in_region);
                heap.push((gain[v], key(v), v));
                continue;
            }
        };
        in_region[v] = true;
        cut -= gain[v]; // −gain = new cut edges − edges absorbed
        order.push(v);
        cuts.push(cut);
        for (c, _) in a.row(v) {
            if c == v || !in_group[c] || in_region[c] {
                continue;
            }
            if seen[c] {
                // One more neighbour inside: the edge to `v` flipped sides.
                gain[c] += 2;
            } else {
                seen[c] = true;
                gain[c] = fresh_gain(c, &in_region);
            }
            heap.push((gain[c], key(c), c));
        }
    }
    GrowRun { order, cuts }
}

/// Quality metrics of a raw assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Vertices per part.
    pub sizes: Vec<usize>,
    /// Number of vertices with a neighbour in a foreign part (these become
    /// split vertices under EVS).
    pub boundary_vertices: usize,
    /// Number of edges whose endpoints lie in different parts.
    pub cut_edges: usize,
    /// `max(sizes) / mean(sizes)` — 1.0 is perfect balance.
    pub imbalance: f64,
}

/// Compute [`PartitionMetrics`] for an assignment.
pub fn metrics(a: &Csr, assignment: &[usize]) -> PartitionMetrics {
    assert_eq!(a.n_rows(), assignment.len(), "metrics: assignment length");
    let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &p in assignment {
        sizes[p] += 1;
    }
    let mut boundary = 0usize;
    let mut cut = 0usize;
    for u in 0..a.n_rows() {
        let mut is_boundary = false;
        for (v, _) in a.row(u) {
            if v == u {
                continue;
            }
            if assignment[v] != assignment[u] {
                is_boundary = true;
                if v > u {
                    cut += 1;
                }
            }
        }
        if is_boundary {
            boundary += 1;
        }
    }
    let mean = assignment.len() as f64 / k.max(1) as f64;
    let imbalance = sizes.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-300);
    PartitionMetrics {
        sizes,
        boundary_vertices: boundary,
        cut_edges: cut,
        imbalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::generators;

    #[test]
    fn strips_cover_all_parts_evenly() {
        let a = generators::grid2d_laplacian(8, 4);
        let asg = grid_strips(8, 4, 4);
        let m = metrics(&a, &asg);
        assert_eq!(m.sizes, vec![8, 8, 8, 8]);
        assert!((m.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strips_boundary_is_two_columns_per_cut() {
        let a = generators::grid2d_laplacian(8, 4);
        let asg = grid_strips(8, 4, 2);
        let m = metrics(&a, &asg);
        // Cut between x=3 and x=4: both columns are boundary → 2 * ny.
        assert_eq!(m.boundary_vertices, 8);
        assert_eq!(m.cut_edges, 4);
    }

    #[test]
    fn blocks_partition_paper_grid() {
        // The paper's 16-processor experiment: 17×17 grid on a 4×4 mesh.
        let nx = 17;
        let a = generators::grid2d_laplacian(nx, nx);
        let asg = grid_blocks(nx, nx, 4, 4);
        let m = metrics(&a, &asg);
        assert_eq!(m.sizes.len(), 16);
        assert!(m.sizes.iter().all(|&s| s > 0));
        assert!(m.imbalance < 1.6, "imbalance {}", m.imbalance);
    }

    #[test]
    fn block_ids_follow_row_major_mesh() {
        let asg = grid_blocks(4, 4, 2, 2);
        assert_eq!(asg[0], 0); // (0,0)
        assert_eq!(asg[3], 1); // (3,0) → right block
        assert_eq!(asg[12], 2); // (0,3) → lower-left block
        assert_eq!(asg[15], 3); // (3,3)
    }

    #[test]
    fn nested_dissection_covers_all_parts_and_balances() {
        for &(nx, ny, k) in &[
            (8, 8, 4),
            (10, 10, 3),
            (16, 4, 2),
            (4, 16, 4),
            (9, 9, 2),
            (7, 5, 5),
        ] {
            let a = generators::grid2d_laplacian(nx, ny);
            let asg = nested_dissection(&a, k);
            let m = metrics(&a, &asg);
            assert_eq!(m.sizes.len(), k, "{nx}×{ny} k={k}");
            assert!(
                m.sizes.iter().all(|&s| s > 0),
                "{nx}×{ny} k={k}: {:?}",
                m.sizes
            );
            assert_eq!(m.sizes.iter().sum::<usize>(), nx * ny);
            assert!(
                m.imbalance < 1.3,
                "{nx}×{ny} k={k}: imbalance {} sizes {:?}",
                m.imbalance,
                m.sizes
            );
        }
    }

    #[test]
    fn nested_dissection_cut_no_worse_than_strips_on_2d_grids() {
        // The headline property: on grids (square, wide, tall, odd) the
        // dissection cut never exceeds the column-strip cut, for part
        // counts that are and are not powers of two.
        for &(nx, ny) in &[(8, 8), (9, 9), (16, 4), (4, 16), (12, 6), (17, 17)] {
            for k in [2usize, 3, 4] {
                if k > nx {
                    continue;
                }
                let a = generators::grid2d_laplacian(nx, ny);
                let nd = metrics(&a, &nested_dissection(&a, k));
                let st = metrics(&a, &grid_strips(nx, ny, k));
                assert!(
                    nd.cut_edges <= st.cut_edges,
                    "{nx}×{ny} k={k}: dissection cut {} > strips cut {}",
                    nd.cut_edges,
                    st.cut_edges
                );
            }
        }
    }

    #[test]
    fn nested_dissection_is_deterministic() {
        let a = generators::grid2d_laplacian(11, 7);
        assert_eq!(nested_dissection(&a, 5), nested_dissection(&a, 5));
    }

    #[test]
    fn nested_dissection_handles_disconnected_graphs() {
        let mut coo = dtm_sparse::Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(3, 4, -1.0).unwrap();
        let a = coo.to_csr().unwrap();
        let asg = nested_dissection(&a, 3);
        let m = metrics(&a, &asg);
        assert_eq!(m.sizes.len(), 3);
        assert!(m.sizes.iter().all(|&s| s > 0));
    }

    /// FNV-1a over a part assignment — compact fingerprint for the
    /// bit-for-bit pin tests.
    fn fingerprint(assignment: &[usize]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &p in assignment {
            h ^= p as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    #[test]
    fn nested_dissection_default_config_is_bit_for_bit_stable() {
        // The PartitionConfig refactor must not move a single vertex: these
        // fingerprints were captured from the pre-config implementation
        // (hard-coded slack divisor 8).
        for (a, k, cut, fnv) in [
            (
                generators::grid2d_laplacian(17, 17),
                4usize,
                34usize,
                0xf7b6bb14abf0030a_u64,
            ),
            (
                generators::grid2d_laplacian(9, 9),
                3,
                15,
                0x1aba6ef237119d07,
            ),
            (
                generators::grid3d_laplacian(8, 8, 8),
                4,
                128,
                0xc1016ae831910e25,
            ),
            (
                generators::grid3d_laplacian(10, 10, 10),
                6,
                308,
                0x7b59279261947ad1,
            ),
        ] {
            let asg = nested_dissection(&a, k);
            assert_eq!(metrics(&a, &asg).cut_edges, cut);
            assert_eq!(fingerprint(&asg), fnv, "assignment drifted (k = {k})");
            let cfg = PartitionConfig::default();
            assert_eq!(asg, nested_dissection_with(&a, k, &cfg));
        }
    }

    /// `n` vertices in paths of four, every fifth vertex isolated: a graph
    /// with many components of two shapes.
    fn paths_and_isolated(n: usize) -> Csr {
        let mut coo = dtm_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0).unwrap();
            if i % 5 != 4 && i % 5 != 3 && i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn nested_dissection_fingerprints_are_pinned() {
        // Captured from the depth-first implementation that preceded the
        // level-parallel one: the order the bisections run in must not
        // move a vertex.
        for (a, k, fnv) in [
            (
                generators::grid2d_laplacian(40, 30),
                3usize,
                0xfd1bd767e50001c8_u64,
            ),
            (generators::grid2d_laplacian(96, 96), 72, 0x6b4ba68bf75246a5),
            (
                generators::grid3d_laplacian(12, 10, 9),
                5,
                0xaf6449cf3e1fe1c0,
            ),
            (
                generators::grid3d_laplacian(20, 20, 20),
                16,
                0x5c8e22406f60b5e5,
            ),
            (
                generators::random_spd(3000, 6, 1.0, 11),
                7,
                0x2a942b4d43d411b8,
            ),
            (
                generators::random_spd(5000, 4, 1.0, 12),
                16,
                0xeec34de940e49829,
            ),
            (paths_and_isolated(2000), 5, 0x80b7da1981673105),
            (paths_and_isolated(1500), 72, 0x4262a1103c196fdd),
        ] {
            let asg = nested_dissection(&a, k);
            assert_eq!(metrics(&a, &asg).sizes.len(), k);
            assert_eq!(fingerprint(&asg), fnv, "n = {}, k = {k}", a.n_rows());
        }
    }

    #[test]
    fn nested_dissection_of_a_diagonal_system_is_not_quadratic() {
        // Every vertex its own component: each growth reseeds once per
        // vertex. A reseed that rescanned the group from its start made
        // this quadratic: 8 s in a debug build on a 2-vCPU Xeon.
        let n = 50_000;
        let mut coo = dtm_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        let a = coo.to_csr().unwrap();
        let t = std::time::Instant::now();
        let asg = nested_dissection(&a, 4);
        let wall = t.elapsed();
        assert!(asg.iter().enumerate().all(|(v, &p)| p == v / (n / 4)));
        assert!(wall < std::time::Duration::from_secs(2), "took {wall:?}");
    }

    #[test]
    fn nd_slack_divisor_is_live() {
        // A much larger divisor pins the split to the proportional target;
        // on an odd grid that must change the assignment (the knob is
        // actually wired through, not decorative).
        let a = generators::grid2d_laplacian(9, 9);
        let tight = PartitionConfig {
            nd_slack_divisor: 10_000,
        };
        let loose = nested_dissection(&a, 2);
        let pinned = nested_dissection_with(&a, 2, &tight);
        let m = metrics(&a, &pinned);
        assert_eq!(m.sizes, vec![40, 41], "divisor 10k forces the exact target");
        assert_ne!(loose, pinned);
    }

    #[test]
    fn index_strips_cover_contiguously() {
        let asg = index_strips(10, 3);
        assert_eq!(asg, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let a = generators::grid2d_laplacian(4, 4);
        let m = metrics(&a, &index_strips(16, 4));
        assert_eq!(m.sizes, vec![4, 4, 4, 4]);
    }

    #[test]
    fn every_partitioner_covers_and_populates_all_parts() {
        let a = generators::grid2d_laplacian(8, 8);
        let cfg = PartitionConfig::default();
        for p in [Partitioner::Strips, Partitioner::NestedDissection] {
            let m = metrics(&a, &p.assign(&a, 4, &cfg));
            assert_eq!(m.sizes.iter().sum::<usize>(), 64, "{p:?} covers");
            assert_eq!(m.sizes.len(), 4, "{p:?} populates every part");
        }
    }

    #[test]
    fn default_is_nested_dissection_at_every_size() {
        for n in [
            1,
            16 * 16 * 16,
            32 * 32 * 32 - 1,
            32 * 32 * 32,
            48 * 48 * 48,
            1_000_000,
        ] {
            assert_eq!(
                Partitioner::default_for(n),
                Partitioner::NestedDissection,
                "n = {n}"
            );
        }
    }

    #[test]
    fn default_partition_of_the_benchmark_point_is_pinned() {
        // The repository benchmark's `kernel3d`: 7-pt 32³ Laplacian into
        // 16 parts under the default. A partitioner change has to show up
        // as a diff in these three numbers.
        let a = generators::grid3d_laplacian(32, 32, 32);
        let asg = Partitioner::default_for(a.n_rows()).assign(&a, 16, &PartitionConfig::default());
        let m = metrics(&a, &asg);
        assert_eq!(m.cut_edges, 6_144);
        assert_eq!(m.boundary_vertices, 11_136);
        assert_eq!(m.imbalance, 1.0);
    }

    #[test]
    fn metrics_single_part() {
        let a = generators::grid2d_laplacian(3, 3);
        let m = metrics(&a, &[0; 9]);
        assert_eq!(m.boundary_vertices, 0);
        assert_eq!(m.cut_edges, 0);
        assert_eq!(m.sizes, vec![9]);
    }
}
