//! Permutations and the two symmetric orderings of the sparse Cholesky.
//!
//! * [`reverse_cuthill_mckee`] (RCM) is a **bandwidth** ordering: the
//!   factor fills the band, so its size is `n ×` bandwidth — small for
//!   long thin graphs, but `n^(5/3)` on a 3-D mesh.
//! * [`nested_dissection`] is the **fill-reducing** one: separators
//!   numbered last keep the two sides from filling into each other, all
//!   the way down (`n^(4/3)` on a 3-D mesh).
//!
//! [`fill_reducing`] picks between them by size and is what the DTM local
//! systems and the whole-system reference factorizations use: a wave costs
//! one substitution, and a substitution costs the factor's size.

use crate::csr::Csr;
use crate::error::{Error, Result};

/// A permutation of `0..n`, stored as `new_to_old`: position `i` of the
/// permuted ordering corresponds to original index `new_to_old[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            new_to_old: (0..n).collect(),
        }
    }

    /// Build from a `new_to_old` vector, validating it is a permutation.
    ///
    /// # Errors
    /// [`Error::Parse`] if the vector is not a bijection on `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<usize>) -> Result<Self> {
        let n = new_to_old.len();
        let mut seen = vec![false; n];
        for &v in &new_to_old {
            if v >= n || seen[v] {
                return Err(Error::Parse(format!(
                    "not a permutation: value {v} duplicated or out of range"
                )));
            }
            seen[v] = true;
        }
        Ok(Self { new_to_old })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Is this the empty permutation?
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The `new_to_old` map.
    pub fn new_to_old(&self) -> &[usize] {
        &self.new_to_old
    }

    /// Inverse permutation (`old_to_new` as a `Permutation`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.new_to_old.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { new_to_old: inv }
    }

    /// Apply to a vector: `out[i] = x[new_to_old[i]]` (gather).
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.new_to_old.len(), "permutation apply length");
        self.new_to_old.iter().map(|&o| x[o]).collect()
    }

    /// Inverse application: `out[new_to_old[i]] = x[i]` (scatter).
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.new_to_old.len(), "permutation apply length");
        let mut out = vec![0.0; x.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            out[old] = x[new];
        }
        out
    }
}

/// Reverse Cuthill–McKee ordering of a symmetric sparse matrix.
///
/// Performs a BFS from a pseudo-peripheral vertex of every connected
/// component, visiting neighbours by increasing degree, then reverses the
/// whole order. Isolated vertices are appended last.
pub fn reverse_cuthill_mckee(a: &Csr) -> Permutation {
    let n = a.n_rows();
    let degree: Vec<usize> = (0..n)
        .map(|r| a.row(r).filter(|&(c, _)| c != r).count())
        .collect();

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut nbrs: Vec<usize> = Vec::new();
    let mut bfs = LevelBfs::new(n);

    // Process components in order of their minimum-degree unvisited vertex.
    while let Some(start) = (0..n)
        .filter(|&v| !visited[v])
        .min_by_key(|&v| (degree[v], v))
    {
        let root = bfs.pseudo_peripheral(a, start, |_| true);
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(a.row(v).map(|(c, _)| c).filter(|&c| c != v && !visited[c]));
            nbrs.sort_unstable_by_key(|&c| (degree[c], c));
            for &c in nbrs.iter() {
                visited[c] = true;
                queue.push_back(c);
            }
        }
    }

    order.reverse();
    Permutation { new_to_old: order }
}

/// Largest matrix [`fill_reducing`] still orders with RCM. Below a few
/// hundred unknowns a separator tree has nothing to separate — the band
/// *is* the factor — and RCM's set-up is the cheaper one.
pub const ND_MIN_N: usize = 256;

/// Connected subsets of at most this many vertices are not dissected.
const ND_LEAF: usize = 8;

/// The ordering the sparse factorizations use when asked to keep fill
/// low: [`reverse_cuthill_mckee`] up to [`ND_MIN_N`] unknowns,
/// [`nested_dissection`] above.
pub fn fill_reducing(a: &Csr) -> Permutation {
    if a.n_rows() <= ND_MIN_N {
        reverse_cuthill_mckee(a)
    } else {
        nested_dissection(a)
    }
}

/// Nested-dissection ordering by breadth-first level-set separators (the
/// automatic nested dissection of George & Liu): root a level structure
/// at a pseudo-peripheral vertex of the subset, take a middle level as
/// the separator, number the near side, then the far side, then the
/// separator, and recurse on the two sides. Eliminating one side never
/// fills into the other, so on a `d`-dimensional mesh the factor shrinks
/// from the band's `n^(2−1/d)` entries to `n log n` (2-D) / `n^(4/3)`
/// (3-D).
///
/// Deterministic (every tie breaks on the vertex index), `O(n)` memory
/// allocated once — the level arrays are reused down the recursion, which
/// is an explicit stack.
pub fn nested_dissection(a: &Csr) -> Permutation {
    let n = a.n_rows();
    // Live subsets are disjoint ranges of `order`: the one at
    // `order[lo..hi]` is the vertices with `owner == lo`. A vertex numbered
    // for good (separator or leaf) is owned by nobody.
    const PLACED: usize = usize::MAX;
    let mut order: Vec<usize> = (0..n).collect();
    let mut owner = vec![0usize; n];
    let mut bfs = LevelBfs::new(n);
    let mut rest: Vec<usize> = Vec::new();
    let mut stack = vec![(0usize, n)];
    while let Some((lo, hi)) = stack.pop() {
        if lo == hi {
            continue;
        }
        bfs.pseudo_peripheral(a, order[lo], |v| owner[v] == lo);
        let reached = bfs.queue.len();
        if reached < hi - lo {
            // What the root did not reach shares no edge with what it did:
            // number it after this component, one subset per connected
            // component (flood-filled with `order` itself as the queue, so
            // a hub vertex's thousand orphans cost one pass, not one each).
            rest.clear();
            rest.extend(
                order[lo..hi]
                    .iter()
                    .filter(|&&v| bfs.level[v] == usize::MAX),
            );
            let mut end = lo + reached;
            for &seed in &rest {
                if owner[seed] != lo {
                    continue;
                }
                let start = end;
                owner[seed] = start;
                order[end] = seed;
                end += 1;
                let mut head = start;
                while head < end {
                    for (c, _) in a.row(order[head]) {
                        if owner[c] == lo && bfs.level[c] == usize::MAX {
                            owner[c] = start;
                            order[end] = c;
                            end += 1;
                        }
                    }
                    head += 1;
                }
                stack.push((start, end));
            }
        }
        let ecc = bfs.ecc();
        let out = &mut order[lo..lo + reached];
        if reached <= ND_LEAF || ecc < 2 {
            // Leaf: reverse breadth-first order, as RCM numbers a band.
            for (slot, &v) in out.iter_mut().zip(bfs.queue.iter().rev()) {
                *slot = v;
                owner[v] = PLACED;
            }
            continue;
        }
        // The separator: the smallest level that leaves at least a third
        // of the rest on either side; failing that, the level that balances
        // the sides best. Levels 1..ecc keep both sides non-empty.
        let sep = (1..ecc)
            .min_by_key(|&l| {
                let size = bfs.level_set(l).len();
                let small_side = bfs.level_ptr[l].min(reached - bfs.level_ptr[l + 1]);
                if 3 * small_side >= reached - size {
                    (0, size, l)
                } else {
                    (1, reached - small_side, l)
                }
            })
            .unwrap_or(1);
        // A separator vertex with no neighbour in the next level separates
        // nothing: it joins the near side. (Some vertex always has one —
        // the next level was reached through this one.)
        let (near, level, far) = (
            &bfs.queue[..bfs.level_ptr[sep]],
            bfs.level_set(sep),
            &bfs.queue[bfs.level_ptr[sep + 1]..],
        );
        let separates = |v: usize| a.row(v).any(|(c, _)| bfs.level[c] == sep + 1);
        let n_sep = level.iter().filter(|&&v| separates(v)).count();
        let n_near = near.len() + level.len() - n_sep;
        let numbered = near
            .iter()
            .chain(level.iter().filter(|&&v| !separates(v)))
            .chain(far)
            .chain(level.iter().filter(|&&v| separates(v)));
        for (slot, &v) in out.iter_mut().zip(numbered) {
            *slot = v;
        }
        for &v in &out[n_near..reached - n_sep] {
            owner[v] = lo + n_near;
        }
        for &v in &out[reached - n_sep..] {
            owner[v] = PLACED;
        }
        stack.push((lo + n_near, lo + reached - n_sep));
        stack.push((lo, lo + n_near));
    }
    Permutation { new_to_old: order }
}

/// Find a pseudo-peripheral vertex of the subgraph induced by `active`,
/// starting from `start` (which must satisfy `active`): repeat BFS from
/// the farthest minimum-degree vertex of the last level until the
/// eccentricity stops growing.
///
/// This is the BFS machinery behind [`reverse_cuthill_mckee`] (which uses
/// it with every vertex active) and [`nested_dissection`]; it is public so
/// graph partitioners can seed bisections of vertex subsets from the same
/// notion of "far corner".
pub fn pseudo_peripheral_in(a: &Csr, start: usize, active: impl Fn(usize) -> bool) -> usize {
    LevelBfs::new(a.n_rows()).pseudo_peripheral(a, start, active)
}

/// A breadth-first level structure over a vertex subset, with its arrays
/// kept between runs: a run costs the edges of the subset it reaches, not
/// `n`, so a recursion over ever smaller subsets stays `O(m log n)`.
struct LevelBfs {
    /// BFS level per vertex; `usize::MAX` outside the latest run.
    level: Vec<usize>,
    /// Vertices of the latest run in visit order (levels are contiguous).
    queue: Vec<usize>,
    /// `queue[level_ptr[l]..level_ptr[l + 1]]` is level `l`.
    level_ptr: Vec<usize>,
}

impl LevelBfs {
    fn new(n: usize) -> Self {
        Self {
            level: vec![usize::MAX; n],
            queue: Vec::new(),
            level_ptr: Vec::new(),
        }
    }

    /// Level structure of the `active` subgraph rooted at `root`.
    fn run(&mut self, a: &Csr, root: usize, active: &impl Fn(usize) -> bool) {
        for &v in &self.queue {
            self.level[v] = usize::MAX;
        }
        self.queue.clear();
        self.level_ptr.clear();
        self.level[root] = 0;
        self.queue.push(root);
        self.level_ptr.push(0);
        let mut head = 0;
        while head < self.queue.len() {
            // One pass of this loop is one level.
            let end = self.queue.len();
            self.level_ptr.push(end);
            while head < end {
                let v = self.queue[head];
                head += 1;
                for (c, _) in a.row(v) {
                    if c != v && active(c) && self.level[c] == usize::MAX {
                        self.level[c] = self.level[v] + 1;
                        self.queue.push(c);
                    }
                }
            }
        }
    }

    /// Eccentricity of the latest root within what it reached.
    fn ecc(&self) -> usize {
        self.level_ptr.len().saturating_sub(2)
    }

    /// Vertices of level `l` of the latest run.
    fn level_set(&self, l: usize) -> &[usize] {
        &self.queue[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// See [`pseudo_peripheral_in`]; on return the level structure is the
    /// returned vertex's.
    fn pseudo_peripheral(
        &mut self,
        a: &Csr,
        start: usize,
        active: impl Fn(usize) -> bool,
    ) -> usize {
        // Degree within the active subgraph, for the last-level tie-break.
        let deg = |v: usize| a.row(v).filter(|&(c, _)| c != v && active(c)).count();
        let mut root = start;
        let mut last_ecc = 0usize;
        loop {
            self.run(a, root, &active);
            let ecc = self.ecc();
            if ecc <= last_ecc {
                return root;
            }
            last_ecc = ecc;
            // The last level of a run is never empty; keep the current
            // root if that invariant were ever violated.
            root = self
                .level_set(ecc)
                .iter()
                .copied()
                .min_by_key(|&v| (deg(v), v))
                .unwrap_or(root);
        }
    }
}

/// Bandwidth of a symmetric matrix: `max |i − j|` over stored entries.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for r in 0..a.n_rows() {
        for (c, _) in a.row(r) {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn path_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let x = vec![10.0, 20.0, 30.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inverse(&y), x);
        let id = Permutation::identity(3);
        assert_eq!(id.apply(&x), x);
    }

    #[test]
    fn invalid_permutation_rejected() {
        assert!(Permutation::from_new_to_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_to_old(vec![0, 5]).is_err());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        let composed: Vec<usize> = (0..4)
            .map(|i| p.new_to_old()[inv.new_to_old()[i]])
            .collect();
        assert_eq!(composed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rcm_on_path_keeps_bandwidth_one() {
        let a = path_graph(10);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        assert_eq!(bandwidth(&b), 1);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path graph relabelled adversarially has large bandwidth; RCM
        // restores bandwidth 1.
        let n = 50;
        let mut coo = Coo::new(n, n);
        // Relabel vertex i -> (i * 17) % n (17 coprime with 50).
        let relabel = |i: usize| (i * 17) % n;
        for i in 0..n {
            coo.push(relabel(i), relabel(i), 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_sym(relabel(i), relabel(i + 1), -1.0).unwrap();
        }
        let a = coo.to_csr().unwrap();
        assert!(bandwidth(&a) > 1);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        assert_eq!(bandwidth(&b), 1, "RCM must recover the path ordering");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let mut coo = Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(3, 4, -1.0).unwrap();
        let a = coo.to_csr().unwrap();
        let p = reverse_cuthill_mckee(&a);
        // Must be a valid permutation covering all 6 vertices.
        let mut sorted = p.new_to_old().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    fn star_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, n as f64).unwrap();
        }
        for i in 1..n {
            coo.push_sym(0, i, -1.0).unwrap();
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn nested_dissection_is_a_deterministic_permutation() {
        let two_paths_and_a_loner = {
            let mut coo = Coo::new(40, 40);
            for i in 0..40 {
                coo.push(i, i, 2.0).unwrap();
            }
            for i in (0..18).chain(19..38) {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
            coo.to_csr().unwrap()
        };
        for a in [
            Coo::new(0, 0).to_csr().unwrap(),
            path_graph(1),
            path_graph(100),
            star_graph(60),
            star_graph(5_000),
            two_paths_and_a_loner,
            crate::generators::grid2d_laplacian(13, 9),
            crate::generators::grid3d_laplacian(5, 4, 6),
        ] {
            let p = nested_dissection(&a);
            assert!(
                Permutation::from_new_to_old(p.new_to_old().to_vec()).is_ok(),
                "n = {}",
                a.n_rows()
            );
            assert_eq!(p.len(), a.n_rows());
            assert_eq!(p, nested_dissection(&a), "n = {}", a.n_rows());
        }
    }

    #[test]
    fn nested_dissection_orders_separators_after_what_they_separate() {
        // On a path the first separator is an interior vertex, numbered
        // last; both ends are numbered before it.
        let p = nested_dissection(&path_graph(101));
        let last = p.new_to_old()[100];
        assert!((25..=75).contains(&last), "top separator {last}");
    }

    #[test]
    fn nested_dissection_cuts_the_fill_of_a_3d_grid() {
        use crate::SparseCholesky;
        let a = crate::generators::grid3d_laplacian(12, 12, 12);
        let rcm = SparseCholesky::factor_rcm(&a).unwrap().nnz_l();
        let nd = SparseCholesky::factor_fill_reducing(&a).unwrap().nnz_l();
        assert!(10 * nd <= 7 * rcm, "nd {nd} vs rcm {rcm}");
    }

    #[test]
    fn fill_reducing_is_rcm_up_to_the_threshold() {
        let at = crate::generators::grid2d_laplacian(16, 16);
        assert_eq!(at.n_rows(), ND_MIN_N);
        assert_eq!(fill_reducing(&at), reverse_cuthill_mckee(&at));
        let above = crate::generators::grid2d_laplacian(16, 17);
        assert_eq!(fill_reducing(&above), nested_dissection(&above));
        assert_ne!(fill_reducing(&above), reverse_cuthill_mckee(&above));
    }

    #[test]
    fn rcm_permuted_matrix_is_same_system() {
        let a = path_graph(7);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        // Solve both against consistent vectors: B y = P b where y = P x.
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let ax = a.matvec(&x);
        let px = p.apply(&x);
        let bpx = b.matvec(&px);
        let pax = p.apply(&ax);
        for (u, v) in bpx.iter().zip(&pax) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
