//! Partition plans: which vertices are inner to which part, which are split.
//!
//! EVS step 1 ("set the splitting boundary") and step 2 ("split each
//! boundary vertex") are captured declaratively by a [`PartitionPlan`]. A
//! plan is most conveniently *derived* from a raw per-vertex assignment with
//! [`PartitionPlan::from_assignment`]: every vertex with a neighbour in a
//! foreign part becomes a boundary vertex, replicated into each part its
//! neighbourhood touches — exactly the paper's wire-tearing of Example 4.1.

use crate::electric::ElectricGraph;
use dtm_sparse::{Error, Result};

/// Role of a vertex in the partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// Inner vertex of a single part.
    Inner(usize),
    /// Boundary vertex split into one copy per listed part
    /// (sorted, distinct, ≥ 2 parts).
    Split(Vec<usize>),
}

impl Owner {
    /// Parts this vertex participates in.
    pub fn parts(&self) -> &[usize] {
        match self {
            Owner::Inner(p) => std::slice::from_ref(p),
            Owner::Split(ps) => ps,
        }
    }

    /// Is this a split (boundary) vertex?
    pub fn is_split(&self) -> bool {
        matches!(self, Owner::Split(_))
    }
}

/// A validated EVS partition plan for a specific electric graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    n_parts: usize,
    owner: Vec<Owner>,
}

impl PartitionPlan {
    /// Build a plan from explicit owners, validating against the graph:
    ///
    /// * part indices are `< n_parts` and every part is non-empty,
    /// * split lists are sorted, distinct, length ≥ 2,
    /// * no edge connects inner vertices of different parts,
    /// * every edge can be placed: an `Inner(p)`–`Split` edge requires `p`
    ///   among the split's parts; a `Split`–`Split` edge requires a common
    ///   part.
    pub fn new(graph: &ElectricGraph, n_parts: usize, owner: Vec<Owner>) -> Result<Self> {
        if owner.len() != graph.n() {
            return Err(Error::DimensionMismatch {
                context: "PartitionPlan::new",
                expected: graph.n(),
                actual: owner.len(),
            });
        }
        let mut seen = vec![false; n_parts];
        for (v, o) in owner.iter().enumerate() {
            match o {
                Owner::Inner(p) => {
                    if *p >= n_parts {
                        return Err(Error::IndexOutOfBounds {
                            context: "PartitionPlan part id",
                            index: *p,
                            bound: n_parts,
                        });
                    }
                    seen[*p] = true;
                }
                Owner::Split(ps) => {
                    if ps.len() < 2 {
                        return Err(Error::Parse(format!(
                            "split vertex {v} must span ≥ 2 parts, got {ps:?}"
                        )));
                    }
                    if !ps.windows(2).all(|w| w[0] < w[1]) {
                        return Err(Error::Parse(format!(
                            "split parts of vertex {v} must be sorted and distinct: {ps:?}"
                        )));
                    }
                    for &p in ps {
                        if p >= n_parts {
                            return Err(Error::IndexOutOfBounds {
                                context: "PartitionPlan part id",
                                index: p,
                                bound: n_parts,
                            });
                        }
                        seen[p] = true;
                    }
                }
            }
        }
        if let Some(p) = seen.iter().position(|s| !s) {
            return Err(Error::Parse(format!("part {p} is empty")));
        }
        // Edge placement feasibility.
        for u in 0..graph.n() {
            for (v, _) in graph.neighbors(u) {
                if v < u {
                    continue;
                }
                match (&owner[u], &owner[v]) {
                    (Owner::Inner(p), Owner::Inner(q)) if p != q => {
                        return Err(Error::Parse(format!(
                            "edge ({u}, {v}) connects inner vertices of parts {p} and {q}; \
                             at least one endpoint must be split"
                        )));
                    }
                    (Owner::Inner(p), Owner::Split(qs)) | (Owner::Split(qs), Owner::Inner(p))
                        if !qs.contains(p) =>
                    {
                        return Err(Error::Parse(format!(
                            "edge ({u}, {v}): split endpoint lacks a copy in part {p}"
                        )));
                    }
                    (Owner::Split(ps), Owner::Split(qs)) if common_parts(ps, qs).is_empty() => {
                        return Err(Error::Parse(format!(
                            "edge ({u}, {v}): split endpoints share no part \
                                 ({ps:?} vs {qs:?})"
                        )));
                    }
                    _ => {}
                }
            }
        }
        Ok(Self { n_parts, owner })
    }

    /// Derive a plan from a raw per-vertex part assignment, choosing the
    /// splitting boundary `G_B` as a small **vertex cover of the cut
    /// edges** (greedy highest-coverage-first). Each boundary vertex is
    /// split into its own part plus the parts of all its neighbours —
    /// reproducing the paper's wire tearing: for Example 4.1's assignment
    /// `{V1,V2 → 0, V3,V4 → 1}` the derived boundary is exactly `{V2, V3}`
    /// and V1/V4 stay inner. Always yields a valid plan.
    pub fn from_assignment(graph: &ElectricGraph, assignment: &[usize]) -> Result<Self> {
        if assignment.len() != graph.n() {
            return Err(Error::DimensionMismatch {
                context: "PartitionPlan::from_assignment",
                expected: graph.n(),
                actual: assignment.len(),
            });
        }
        let n = graph.n();
        let n_parts = match assignment.iter().max() {
            Some(&m) => m + 1,
            None => 0,
        };

        // Cut edges (u < v) and per-vertex cut degrees.
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

        // Greedy cover: repeatedly split the vertex covering the most
        // still-uncovered cut edges; ties broken by total cut degree then
        // by *higher* index (so strip cuts take one consistent side).
        //
        // Selection order is `max((live_degree[v], cut_degree[v], v))` over
        // endpoints of still-uncovered edges — the key is unique (the `v`
        // component breaks every tie), so a lazy-deletion max-heap picks the
        // exact same vertex sequence as a full rescan while dropping the
        // cost from O(boundary × cut²) to O(cut · log cut).
        let mut in_boundary = vec![false; n];
        let mut live_degree = cut_degree.clone();

        // CSR-style adjacency over cut edges: incident edge ids per vertex.
        let mut adj_ptr = vec![0usize; n + 1];
        for &(u, v) in &cut_edges {
            adj_ptr[u + 1] += 1;
            adj_ptr[v + 1] += 1;
        }
        for i in 0..n {
            adj_ptr[i + 1] += adj_ptr[i];
        }
        let mut adj: Vec<(usize, usize)> = vec![(0, 0); adj_ptr[n]];
        let mut fill = adj_ptr.clone();
        for (e, &(u, v)) in cut_edges.iter().enumerate() {
            adj[fill[u]] = (v, e);
            fill[u] += 1;
            adj[fill[v]] = (u, e);
            fill[v] += 1;
        }

        let mut covered = vec![false; cut_edges.len()];
        let mut remaining = cut_edges.len();
        let mut heap: std::collections::BinaryHeap<(usize, usize, usize)> = (0..n)
            .filter(|&v| cut_degree[v] > 0)
            .map(|v| (cut_degree[v], cut_degree[v], v))
            .collect();
        while remaining > 0 {
            // Uncovered edges imply live vertices in the heap; stop the
            // cover greedily if that invariant is ever broken.
            let Some((live, _, best)) = heap.pop() else {
                break;
            };
            // Stale entry: vertex already chosen, or its live degree has
            // shrunk since this entry was pushed (a fresher one exists).
            if in_boundary[best] || live != live_degree[best] || live == 0 {
                continue;
            }
            in_boundary[best] = true;
            for &(other, e) in &adj[adj_ptr[best]..adj_ptr[best + 1]] {
                if covered[e] {
                    continue;
                }
                covered[e] = true;
                remaining -= 1;
                live_degree[best] -= 1;
                live_degree[other] -= 1;
                if !in_boundary[other] && live_degree[other] > 0 {
                    heap.push((live_degree[other], cut_degree[other], other));
                }
            }
        }

        let mut owner = Vec::with_capacity(n);
        for v in 0..n {
            if !in_boundary[v] {
                owner.push(Owner::Inner(assignment[v]));
                continue;
            }
            let mut parts: Vec<usize> = std::iter::once(assignment[v])
                .chain(graph.neighbors(v).map(|(u, _)| assignment[u]))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            debug_assert!(parts.len() >= 2, "boundary vertex has a foreign neighbour");
            owner.push(Owner::Split(parts));
        }
        Self::new(graph, n_parts, owner)
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Owner of vertex `v`.
    pub fn owner(&self, v: usize) -> &Owner {
        &self.owner[v]
    }

    /// All owners.
    pub fn owners(&self) -> &[Owner] {
        &self.owner
    }

    /// Indices of split (boundary) vertices.
    pub fn split_vertices(&self) -> impl Iterator<Item = usize> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_split())
            .map(|(v, _)| v)
    }

    /// Number of split vertices.
    pub fn n_split(&self) -> usize {
        self.split_vertices().count()
    }

    /// Parts an edge `(u, v)` may be placed in (assumes the plan is valid
    /// for the graph it was built against).
    pub fn edge_parts(&self, u: usize, v: usize) -> Vec<usize> {
        match (&self.owner[u], &self.owner[v]) {
            (Owner::Inner(p), Owner::Inner(q)) => {
                debug_assert_eq!(p, q, "validated plans have no cross-inner edges");
                vec![*p]
            }
            (Owner::Inner(p), Owner::Split(_)) | (Owner::Split(_), Owner::Inner(p)) => vec![*p],
            (Owner::Split(ps), Owner::Split(qs)) => common_parts(ps, qs),
        }
    }
}

/// Sorted intersection of two sorted part lists.
pub(crate) fn common_parts(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::generators;

    fn paper_graph() -> ElectricGraph {
        let (a, b) = generators::paper_example_system();
        ElectricGraph::from_system(a, b).unwrap()
    }

    #[test]
    fn example_4_1_plan_from_assignment() {
        // Assign V1, V2 → part 0 and V3, V4 → part 1. The derived plan must
        // split exactly V2 and V3 (the paper's boundary G_B = {V2, V3}).
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        assert_eq!(plan.n_parts(), 2);
        assert_eq!(plan.owner(0), &Owner::Inner(0));
        assert_eq!(plan.owner(1), &Owner::Split(vec![0, 1]));
        assert_eq!(plan.owner(2), &Owner::Split(vec![0, 1]));
        assert_eq!(plan.owner(3), &Owner::Inner(1));
        assert_eq!(plan.n_split(), 2);
    }

    #[test]
    fn cross_inner_edge_rejected() {
        let g = paper_graph();
        let owner = vec![
            Owner::Inner(0),
            Owner::Inner(1), // V1–V2 edge now crosses inner parts
            Owner::Split(vec![0, 1]),
            Owner::Inner(1),
        ];
        assert!(PartitionPlan::new(&g, 2, owner).is_err());
    }

    #[test]
    fn split_missing_part_rejected() {
        let g = paper_graph();
        // V3 split {0,1} is fine, but V2 inner(0) has neighbour V4 inner(1):
        // invalid because the V2–V4 edge crosses.
        let owner = vec![
            Owner::Inner(0),
            Owner::Inner(0),
            Owner::Split(vec![0, 1]),
            Owner::Inner(1),
        ];
        assert!(PartitionPlan::new(&g, 2, owner).is_err());
    }

    #[test]
    fn empty_part_rejected() {
        let g = paper_graph();
        let owner = vec![
            Owner::Inner(0),
            Owner::Inner(0),
            Owner::Inner(0),
            Owner::Inner(0),
        ];
        assert!(PartitionPlan::new(&g, 2, owner).is_err());
    }

    #[test]
    fn unsorted_split_rejected() {
        let g = paper_graph();
        let owner = vec![
            Owner::Inner(0),
            Owner::Split(vec![1, 0]),
            Owner::Split(vec![0, 1]),
            Owner::Inner(1),
        ];
        assert!(PartitionPlan::new(&g, 2, owner).is_err());
    }

    #[test]
    fn edge_parts_resolution() {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        assert_eq!(plan.edge_parts(0, 1), vec![0]); // inner–split
        assert_eq!(plan.edge_parts(1, 2), vec![0, 1]); // split–split
        assert_eq!(plan.edge_parts(2, 3), vec![1]); // split–inner
    }

    #[test]
    fn common_parts_intersects() {
        assert_eq!(common_parts(&[0, 1, 3], &[1, 2, 3]), vec![1, 3]);
        assert!(common_parts(&[0], &[1]).is_empty());
    }

    #[test]
    fn three_way_assignment_on_grid() {
        // 3×3 grid split into 3 column strips: middle column vertices that
        // touch both cuts stay 2-way; derived plan must be valid.
        let a = generators::grid2d_laplacian(3, 3);
        let n = a.n_rows();
        let b = vec![0.0; n];
        let g = ElectricGraph::from_system(a, b).unwrap();
        let assignment: Vec<usize> = (0..n).map(|v| v % 3).collect(); // columns
        let plan = PartitionPlan::from_assignment(&g, &assignment).unwrap();
        assert_eq!(plan.n_parts(), 3);
        // Middle-column vertices touch all three parts.
        assert_eq!(plan.owner(4), &Owner::Split(vec![0, 1, 2]));
    }

    #[test]
    fn from_partitioner_builds_valid_plans() {
        use crate::partition::{PartitionConfig, Partitioner};
        let a = generators::grid2d_laplacian(8, 8);
        let cfg = PartitionConfig::default();
        for p in [Partitioner::Strips, Partitioner::NestedDissection] {
            let assignment = p.assign(&a, 4, &cfg);
            let g = ElectricGraph::from_system(a.clone(), vec![0.0; 64]).unwrap();
            let plan = PartitionPlan::from_assignment(&g, &assignment).unwrap();
            assert_eq!(plan.n_parts(), 4, "{p:?}");
            assert!(plan.n_split() > 0, "{p:?}");
        }
    }

    #[test]
    fn single_part_plan_has_no_splits() {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 0, 0]).unwrap();
        assert_eq!(plan.n_parts(), 1);
        assert_eq!(plan.n_split(), 0);
    }
}
