//! Electric Vertex Splitting (paper §4) — "wire tearing".
//!
//! Given an [`ElectricGraph`] and a [`PartitionPlan`], EVS performs the
//! paper's four steps:
//!
//! 1. the splitting boundary is the plan's split vertices;
//! 2. each boundary vertex is split into one **copy** per part it touches
//!    (two copies = the paper's *twin vertices*; more copies = multilevel
//!    wire tearing, Fig. 6);
//! 3. its vertex weight, its source, and the weights of boundary–boundary
//!    edges are divided between the copies according to a [`SharePolicy`]
//!    (or explicit values, to reproduce Example 4.1 digit-for-digit);
//! 4. **inflow currents** ω are introduced at the resulting ports.
//!
//! The result is a [`SplitSystem`]: one [`Subdomain`] per part holding the
//! local system of eq. (4.3) `[C E; F D][u; y] = [f; g] + [ω; 0]` (copies
//! ordered first, exactly the paper's port/inner block structure), plus the
//! global list of twin-vertex pairs ([`Dtlp`]) between which `dtm-core`
//! inserts directed transmission lines.

use crate::electric::ElectricGraph;
use crate::plan::{Owner, PartitionPlan};
use dtm_sparse::{Coo, Csr, Error, Result};
use std::collections::HashMap;

/// How to divide a split vertex's weight/source (and boundary edge weights)
/// between its copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharePolicy {
    /// Equal shares for every copy.
    Uniform,
    /// Diagonal shares sized so every copy keeps its local diagonal
    /// dominance: copy `p` receives the sum of the magnitudes of its local
    /// edge weights plus a proportional part of the leftover slack. This
    /// preserves the SNND hypothesis of Theorem 6.1 for diagonally dominant
    /// SPD inputs. Sources follow the diagonal proportions. Edge weights
    /// split uniformly.
    #[default]
    DominanceProportional,
}

/// Topology of the DTLP links between the `k ≥ 2` copies of one split
/// vertex (paper Fig. 6 shows the hierarchical pair-of-pairs layout, which
/// a chain realises; all variants are trees, as multilevel tearing
/// requires).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TwinTopology {
    /// Copies linked in ascending part order: c₁—c₂—…—c_k.
    #[default]
    Chain,
    /// All copies linked to the first: c₁—c_i for i ≥ 2.
    Star,
    /// BFS spanning tree restricted to the given set of *allowed*
    /// (unordered, canonical `(min, max)`) part pairs — used to align the
    /// DTLP wiring with a physical machine topology so every DTLP maps onto
    /// a real directed link (the Algorithm–Architecture Delay Mapping for
    /// multilevel splits). Splitting fails if a vertex's copy parts are not
    /// connected under the allowed pairs.
    TreeWithin(std::collections::BTreeSet<(usize, usize)>),
}

/// Explicit absolute share overrides, keyed by original vertex (diagonal and
/// source) or canonical edge `(min, max)`. Each override lists
/// `(part, value)` pairs that must cover exactly the placement parts and sum
/// to the original quantity. Used to reproduce the paper's Example 4.1.
#[derive(Debug, Clone, Default)]
pub struct ExplicitShares {
    /// Vertex-weight (diagonal) overrides.
    pub diag: HashMap<usize, Vec<(usize, f64)>>,
    /// Source (RHS) overrides.
    pub source: HashMap<usize, Vec<(usize, f64)>>,
    /// Boundary-edge weight overrides.
    pub edge: HashMap<(usize, usize), Vec<(usize, f64)>>,
}

/// Options controlling the split.
#[derive(Debug, Clone, Default)]
pub struct EvsOptions {
    /// Default share policy.
    pub policy: SharePolicy,
    /// DTLP topology among the copies of one vertex.
    pub twin_topology: TwinTopology,
    /// Per-vertex/per-edge explicit overrides.
    pub explicit: ExplicitShares,
}

/// Reference to a port: `(subdomain/part index, port index within it)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Subdomain (= part) index.
    pub part: usize,
    /// Port index within the subdomain.
    pub port: usize,
}

/// A Directed Transmission Line *Pair* placeholder created by EVS between
/// two copies of the same original vertex. `dtm-core` assigns it a
/// characteristic impedance and two (possibly different) propagation delays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtlp {
    /// One endpoint.
    pub a: PortRef,
    /// The other endpoint.
    pub b: PortRef,
    /// The original vertex whose copies this DTLP ties together.
    pub vertex: usize,
}

/// A port of a subdomain: a DTL endpoint attached to a copy vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Local vertex index (always `< n_copies`, copies come first).
    pub local_vertex: usize,
    /// Original vertex id this copy descends from.
    pub global_vertex: usize,
    /// The port at the other end of the DTLP.
    pub peer: PortRef,
    /// Index into [`SplitSystem::dtlps`].
    pub dtlp: usize,
}

/// One part's local system: eq. (4.3) with copies (ports-carrying vertices)
/// ordered before inner vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct Subdomain {
    /// Part index.
    pub part: usize,
    /// Local symmetric matrix `[C E; F D]`.
    pub matrix: Csr,
    /// Local sources `[f; g]`.
    pub rhs: Vec<f64>,
    /// Fraction of the original source `b[g]` that lands on each local
    /// vertex (1 for inner vertices; the source-share fraction for copies).
    /// Lets a *new* global right-hand side be scattered onto the existing
    /// split without re-partitioning — see [`SplitSystem::scatter_rhs`].
    pub rhs_weight: Vec<f64>,
    /// Map local vertex → original vertex.
    pub global_of_local: Vec<usize>,
    /// Number of copy vertices (they occupy local indices `0..n_copies`).
    pub n_copies: usize,
    /// The subdomain's DTL endpoints. Several ports may share a local
    /// vertex (multilevel splits).
    pub ports: Vec<Port>,
}

impl Subdomain {
    /// Local dimension.
    pub fn n_local(&self) -> usize {
        self.matrix.n_rows()
    }

    /// Number of ports (DTL endpoints).
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Parts adjacent through at least one DTLP.
    pub fn neighbor_parts(&self) -> Vec<usize> {
        let mut ps: Vec<usize> = self.ports.iter().map(|p| p.peer.part).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }
}

/// The complete result of EVS: subdomains plus the DTLP wiring between them.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSystem {
    /// Dimension of the original system.
    pub original_n: usize,
    /// One subdomain per part.
    pub subdomains: Vec<Subdomain>,
    /// All twin-vertex links.
    pub dtlps: Vec<Dtlp>,
    /// Copies per original vertex (1 = inner).
    pub copy_count: Vec<usize>,
    /// The caller's `A` it was torn from, shared with the graph.
    pub a: std::sync::Arc<Csr>,
    /// The caller's `b`, shared the same way.
    pub b: std::sync::Arc<Vec<f64>>,
}

impl SplitSystem {
    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.subdomains.len()
    }

    /// Sum the subdomain systems back onto original indices: `(A, b)` up to
    /// the O(ε) of share division — the invariant
    /// [`crate::validate::check_reconstruction`] checks, on no solve path
    /// (runs are scored against [`a`](Self::a) and [`b`](Self::b)).
    pub fn reconstruct(&self) -> (Csr, Vec<f64>) {
        let mut coo = Coo::new(self.original_n, self.original_n);
        let mut b = vec![0.0; self.original_n];
        for sd in &self.subdomains {
            for lr in 0..sd.n_local() {
                let gr = sd.global_of_local[lr];
                b[gr] += sd.rhs[lr];
                for (lc, v) in sd.matrix.row(lr) {
                    let gc = sd.global_of_local[lc];
                    // Split invariant: every global index is < original_n.
                    // A failed push can only mean a corrupted SplitSystem;
                    // reconstruction tolerates it by dropping the entry
                    // (debug builds assert instead).
                    let pushed = coo.push(gr, gc, v);
                    debug_assert!(pushed.is_ok(), "global index in range");
                }
            }
        }
        (coo.to_csr(), b)
    }

    /// Scatter a *new* global right-hand side onto the existing split: each
    /// subdomain receives `rhs_weight[l] · b[g]` at local vertex `l` — the
    /// same source-share fractions the original split used, so summing the
    /// scattered vectors back reproduces `b` (inner vertices carry weight 1;
    /// copy fractions sum to 1 across a vertex's parts).
    ///
    /// This is what makes RHS streaming cheap: the partition, the shares,
    /// the DTLP wiring and every local factorization stay fixed; only these
    /// `O(n)` local source vectors change between batches.
    ///
    /// # Panics
    /// Panics if `b.len() != original_n`.
    pub fn scatter_rhs(&self, b: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(b.len(), self.original_n, "scatter_rhs: length");
        self.subdomains
            .iter()
            .map(|sd| {
                sd.global_of_local
                    .iter()
                    .zip(&sd.rhs_weight)
                    .map(|(&g, &w)| w * b[g])
                    .collect()
            })
            .collect()
    }
}

/// Precomputed flat (CSR-indexed) split directory: everything the per-part
/// assembly needs, with no hashing on the hot path.
///
/// * Vertex directory: for vertex `v`, slots `vert_ptr[v]..vert_ptr[v+1]`
///   list its parts in ascending order (`vert_part`), the local index of
///   its copy in each part (`vert_local`), and the per-slot diagonal,
///   source, and source-fraction shares (inner vertices have one slot
///   carrying the unsplit quantities).
/// * Edge directory: undirected edges `(u < v)` numbered in CSR
///   upper-triangle order; `edge_ptr[e]..edge_ptr[e+1]` lists the
///   `(part, weight-share)` placement of edge `e`.
/// * Part directory: `part_edge_ptr[p]..part_edge_ptr[p+1]` lists the
///   `(edge id, share)` pairs landing in part `p`, so each part's assembly
///   touches exactly its own edges instead of scanning all of them.
struct SplitIndex {
    n_parts: usize,
    vert_ptr: Vec<usize>,
    vert_part: Vec<usize>,
    vert_local: Vec<usize>,
    diag_share: Vec<f64>,
    src_share: Vec<f64>,
    src_frac: Vec<f64>,
    edge_u: Vec<usize>,
    edge_v: Vec<usize>,
    part_edge_ptr: Vec<usize>,
    part_edge_eid: Vec<usize>,
    part_edge_w: Vec<f64>,
    global_of_local: Vec<Vec<usize>>,
    copy_counts: Vec<usize>,
    dtlps: Vec<Dtlp>,
    ports: Vec<Vec<Port>>,
}

impl SplitIndex {
    /// Local index of vertex `v`'s copy in `part` (linear scan over the
    /// vertex's few slots — bounded by the number of parts it touches).
    fn local_of(&self, v: usize, part: usize) -> usize {
        for s in self.vert_ptr[v]..self.vert_ptr[v + 1] {
            if self.vert_part[s] == part {
                return self.vert_local[s];
            }
        }
        unreachable!("vertex {v} has no copy in part {part}");
    }

    fn slot_of(&self, v: usize, part: usize) -> usize {
        for s in self.vert_ptr[v]..self.vert_ptr[v + 1] {
            if self.vert_part[s] == part {
                return s;
            }
        }
        unreachable!("vertex {v} has no slot in part {part}");
    }
}

fn build_index(
    graph: &ElectricGraph,
    plan: &PartitionPlan,
    options: &EvsOptions,
) -> Result<SplitIndex> {
    let n = graph.n();
    let n_parts = plan.n_parts();

    // --- Vertex directory + local numbering: copies first (ascending
    //     original id), then inner vertices (ascending original id). ------
    let mut vert_ptr = vec![0usize; n + 1];
    let mut copy_counts = vec![0usize; n_parts];
    let mut inner_counts = vec![0usize; n_parts];
    for v in 0..n {
        let parts = plan.owner(v).parts();
        vert_ptr[v + 1] = vert_ptr[v] + parts.len();
        match plan.owner(v) {
            Owner::Inner(p) => inner_counts[*p] += 1,
            Owner::Split(ps) => {
                for &p in ps {
                    copy_counts[p] += 1;
                }
            }
        }
    }
    let n_slots = vert_ptr[n];
    let mut vert_part = vec![0usize; n_slots];
    let mut vert_local = vec![0usize; n_slots];
    let mut global_of_local: Vec<Vec<usize>> = (0..n_parts)
        .map(|p| Vec::with_capacity(copy_counts[p] + inner_counts[p]))
        .collect();
    // Pass 1: copies (split vertices) in ascending vertex order.
    let mut next_local = vec![0usize; n_parts];
    for (v, &s0) in vert_ptr[..n].iter().enumerate() {
        if let Owner::Split(ps) = plan.owner(v) {
            for (k, &p) in ps.iter().enumerate() {
                let s = s0 + k;
                vert_part[s] = p;
                vert_local[s] = next_local[p];
                next_local[p] += 1;
                global_of_local[p].push(v);
            }
        }
    }
    debug_assert_eq!(next_local, copy_counts);
    // Pass 2: inner vertices in ascending vertex order.
    for (v, &s) in vert_ptr[..n].iter().enumerate() {
        if let Owner::Inner(p) = plan.owner(v) {
            vert_part[s] = *p;
            vert_local[s] = next_local[*p];
            next_local[*p] += 1;
            global_of_local[*p].push(v);
        }
    }

    // --- Edge directory: one CSR upper-triangle pass. --------------------
    // Edges are numbered in (u asc, v asc) order; a full-adjacency CSR of
    // incident edge ids is built alongside so the dominance policy can walk
    // a vertex's edges in the same order `graph.neighbors` yields them.
    let mut degree = vec![0usize; n];
    let mut n_edges = 0usize;
    for (u, deg) in degree.iter_mut().enumerate() {
        for (v, _) in graph.neighbors(u) {
            *deg += 1;
            if v > u {
                n_edges += 1;
            }
        }
    }
    let mut adj_ptr = vec![0usize; n + 1];
    for u in 0..n {
        adj_ptr[u + 1] = adj_ptr[u] + degree[u];
    }
    let mut adj_eid = vec![0usize; adj_ptr[n]];
    let mut adj_fill = adj_ptr.clone();
    let mut edge_u = Vec::with_capacity(n_edges);
    let mut edge_v = Vec::with_capacity(n_edges);
    let mut edge_ptr = Vec::with_capacity(n_edges + 1);
    edge_ptr.push(0usize);
    let mut edge_share_part: Vec<usize> = Vec::new();
    let mut edge_share_val: Vec<f64> = Vec::new();
    let have_explicit_edges = !options.explicit.edge.is_empty();
    let mut common_scratch: Vec<usize> = Vec::new();
    for u in 0..n {
        for (v, w) in graph.neighbors(u) {
            if v < u {
                // The (v, u) direction was enumerated at row v; record the
                // incidence for u's adjacency (ascending neighbor order is
                // preserved because rows are visited in ascending u).
                continue;
            }
            let e = edge_u.len();
            edge_u.push(u);
            edge_v.push(v);
            adj_eid[adj_fill[u]] = e;
            adj_fill[u] += 1;
            adj_eid[adj_fill[v]] = e;
            adj_fill[v] += 1;
            // Placement parts, without allocating in the common cases.
            let parts: &[usize] = match (plan.owner(u), plan.owner(v)) {
                (Owner::Inner(p), Owner::Inner(q)) => {
                    debug_assert_eq!(p, q, "validated plans have no cross-inner edges");
                    std::slice::from_ref(p)
                }
                (Owner::Inner(p), Owner::Split(_)) | (Owner::Split(_), Owner::Inner(p)) => {
                    std::slice::from_ref(p)
                }
                (Owner::Split(ps), Owner::Split(qs)) => {
                    common_scratch.clear();
                    common_scratch.extend(crate::plan::common_parts(ps, qs));
                    &common_scratch
                }
            };
            let explicit = if have_explicit_edges {
                options.explicit.edge.get(&(u, v))
            } else {
                None
            };
            match explicit {
                Some(exp) => {
                    validate_shares("edge", exp, parts, w)?;
                    for &(p, s) in exp {
                        edge_share_part.push(p);
                        edge_share_val.push(s);
                    }
                }
                None => {
                    let each = w / parts.len() as f64;
                    for &p in parts {
                        edge_share_part.push(p);
                        edge_share_val.push(each);
                    }
                }
            }
            edge_ptr.push(edge_share_part.len());
        }
    }
    debug_assert_eq!(adj_fill[..n], adj_ptr[1..]);

    // --- Per-slot diagonal / source shares. ------------------------------
    // Inner vertices carry their unsplit quantities in their single slot so
    // the assembly below needs no owner dispatch.
    let mut diag_share = vec![0.0f64; n_slots];
    let mut src_share = vec![0.0f64; n_slots];
    let mut src_frac = vec![1.0f64; n_slots];
    let mut acc: Vec<f64> = Vec::new();
    for v in 0..n {
        let (s0, s1) = (vert_ptr[v], vert_ptr[v + 1]);
        let parts = plan.owner(v).parts();
        if !plan.owner(v).is_split() {
            diag_share[s0] = graph.vertex_weight(v);
            src_share[s0] = graph.source(v);
            continue;
        }
        let w = graph.vertex_weight(v);
        // Diagonal shares, in slot (ascending part) order.
        match options.explicit.diag.get(&v) {
            Some(exp) => {
                validate_shares("diag", exp, parts, w)?;
                for &(p, s) in exp {
                    diag_share[slot_in(&vert_part, s0, s1, p)?] = s;
                }
            }
            None => match options.policy {
                SharePolicy::Uniform => {
                    let each = w / parts.len() as f64;
                    diag_share[s0..s1].fill(each);
                }
                SharePolicy::DominanceProportional => {
                    // Off-diagonal magnitude landing in each part, walking
                    // incident edges in `graph.neighbors` order.
                    acc.clear();
                    acc.resize(parts.len(), 0.0);
                    for &e in &adj_eid[adj_ptr[v]..adj_ptr[v + 1]] {
                        for i in edge_ptr[e]..edge_ptr[e + 1] {
                            let p = edge_share_part[i];
                            if let Some(k) = parts.iter().position(|&q| q == p) {
                                acc[k] += edge_share_val[i].abs();
                            }
                        }
                    }
                    let total: f64 = acc.iter().sum();
                    let slack = w - total;
                    for (k, s) in (s0..s1).enumerate() {
                        let sp = acc[k];
                        diag_share[s] = if total <= 0.0 {
                            w / parts.len() as f64
                        } else if slack >= 0.0 {
                            sp + slack * sp / total
                        } else {
                            w * sp / total
                        };
                    }
                }
            },
        }
        // Source shares and fractions. Policy shares are *defined* as
        // fraction × b so that `scatter_rhs` of the original b reproduces
        // `rhs` bit for bit — the invariant the streaming RHS path relies
        // on. For explicit shares over a zero source the fraction is
        // unrecoverable, so the policy fraction is used for future
        // scatters.
        let b = graph.source(v);
        let policy_frac_of = |k: usize| -> f64 {
            match options.policy {
                SharePolicy::Uniform => 1.0 / parts.len() as f64,
                SharePolicy::DominanceProportional => {
                    let total: f64 = diag_share[s0..s1].iter().map(|d| d.abs()).sum();
                    if total <= 0.0 {
                        1.0 / parts.len() as f64
                    } else {
                        diag_share[s0 + k].abs() / total
                    }
                }
            }
        };
        match options.explicit.source.get(&v) {
            Some(exp) => {
                validate_shares("source", exp, parts, b)?;
                for &(p, s) in exp {
                    let slot = slot_in(&vert_part, s0, s1, p)?;
                    src_share[slot] = s;
                    src_frac[slot] = if b != 0.0 {
                        s / b
                    } else {
                        policy_frac_of(slot - s0)
                    };
                }
            }
            None => {
                for k in 0..parts.len() {
                    let f = policy_frac_of(k);
                    src_frac[s0 + k] = f;
                    src_share[s0 + k] = f * b;
                }
            }
        }
    }

    // --- Per-part edge directory (CSR over parts). -----------------------
    let mut part_edge_ptr = vec![0usize; n_parts + 1];
    for &p in &edge_share_part {
        part_edge_ptr[p + 1] += 1;
    }
    for p in 0..n_parts {
        part_edge_ptr[p + 1] += part_edge_ptr[p];
    }
    let mut part_edge_eid = vec![0usize; edge_share_part.len()];
    let mut part_edge_w = vec![0.0f64; edge_share_part.len()];
    let mut part_fill = part_edge_ptr.clone();
    for e in 0..edge_u.len() {
        for i in edge_ptr[e]..edge_ptr[e + 1] {
            let p = edge_share_part[i];
            part_edge_eid[part_fill[p]] = e;
            part_edge_w[part_fill[p]] = edge_share_val[i];
            part_fill[p] += 1;
        }
    }

    let mut index = SplitIndex {
        n_parts,
        vert_ptr,
        vert_part,
        vert_local,
        diag_share,
        src_share,
        src_frac,
        edge_u,
        edge_v,
        part_edge_ptr,
        part_edge_eid,
        part_edge_w,
        global_of_local,
        copy_counts,
        dtlps: Vec::new(),
        ports: vec![Vec::new(); n_parts],
    };

    // --- DTLPs and ports. ------------------------------------------------
    for v in plan.split_vertices() {
        let parts = plan.owner(v).parts();
        let links: Vec<(usize, usize)> = match &options.twin_topology {
            TwinTopology::Chain => parts.windows(2).map(|w| (w[0], w[1])).collect(),
            TwinTopology::Star => parts[1..].iter().map(|&p| (parts[0], p)).collect(),
            TwinTopology::TreeWithin(allowed) => spanning_tree_links(v, parts, allowed)?,
        };
        for (pa, pb) in links {
            let dtlp_id = index.dtlps.len();
            let port_a = PortRef {
                part: pa,
                port: index.ports[pa].len(),
            };
            let port_b = PortRef {
                part: pb,
                port: index.ports[pb].len(),
            };
            let la = index.local_of(v, pa);
            let lb = index.local_of(v, pb);
            index.ports[pa].push(Port {
                local_vertex: la,
                global_vertex: v,
                peer: port_b,
                dtlp: dtlp_id,
            });
            index.ports[pb].push(Port {
                local_vertex: lb,
                global_vertex: v,
                peer: port_a,
                dtlp: dtlp_id,
            });
            index.dtlps.push(Dtlp {
                a: port_a,
                b: port_b,
                vertex: v,
            });
        }
    }

    Ok(index)
}

/// Slot of `part` within the sorted slot range `s0..s1` of one vertex.
///
/// # Errors
/// Fails when `part` holds no copy of the vertex — `validate_shares`
/// rules this out for explicit share maps, so a hit means the plan and
/// the share map disagree.
fn slot_in(vert_part: &[usize], s0: usize, s1: usize, part: usize) -> Result<usize> {
    (s0..s1).find(|&s| vert_part[s] == part).ok_or_else(|| {
        Error::Parse(format!(
            "explicit share names part {part}, which holds no copy of the vertex"
        ))
    })
}

/// Assemble one part's local system from the precomputed index. Pure in
/// its inputs, so parts can be assembled in any order — or concurrently.
fn assemble_part(p: usize, index: &SplitIndex) -> Result<Subdomain> {
    let gl = &index.global_of_local[p];
    let nl = gl.len();
    let mut coo = Coo::new(nl, nl);
    let mut rhs = vec![0.0; nl];
    let mut rhs_weight = vec![1.0; nl];
    // Diagonals and sources.
    for (l, &v) in gl.iter().enumerate() {
        let s = index.slot_of(v, p);
        let dv = index.diag_share[s];
        if dv != 0.0 {
            coo.push(l, l, dv)?;
        }
        rhs[l] = index.src_share[s];
        rhs_weight[l] = index.src_frac[s];
    }
    // Edges: exactly this part's placements, in ascending edge order.
    for i in index.part_edge_ptr[p]..index.part_edge_ptr[p + 1] {
        let w = index.part_edge_w[i];
        if w == 0.0 {
            continue;
        }
        let e = index.part_edge_eid[i];
        let lu = index.local_of(index.edge_u[e], p);
        let lv = index.local_of(index.edge_v[e], p);
        coo.push(lu, lv, w)?;
        coo.push(lv, lu, w)?;
    }
    Ok(Subdomain {
        part: p,
        matrix: coo.to_csr(),
        rhs,
        rhs_weight,
        global_of_local: gl.clone(),
        n_copies: index.copy_counts[p],
        ports: Vec::new(), // attached by the caller
    })
}

fn finish(
    graph: &ElectricGraph,
    plan: &PartitionPlan,
    mut index: SplitIndex,
    mut subdomains: Vec<Subdomain>,
) -> SplitSystem {
    for (p, sd) in subdomains.iter_mut().enumerate() {
        sd.ports = std::mem::take(&mut index.ports[p]);
    }
    let copy_count = (0..graph.n())
        .map(|v| plan.owner(v).parts().len())
        .collect::<Vec<_>>();
    let (a, b) = graph.shared();
    SplitSystem {
        original_n: graph.n(),
        subdomains,
        dtlps: index.dtlps,
        copy_count,
        a,
        b,
    }
}

/// Perform Electric Vertex Splitting (serial per-part assembly).
///
/// # Errors
/// Propagates validation failures from explicit share overrides (wrong
/// parts, wrong sums).
pub fn split(
    graph: &ElectricGraph,
    plan: &PartitionPlan,
    options: &EvsOptions,
) -> Result<SplitSystem> {
    let index = build_index(graph, plan, options)?;
    let subdomains = (0..index.n_parts)
        .map(|p| assemble_part(p, &index))
        .collect::<Result<Vec<_>>>()?;
    Ok(finish(graph, plan, index, subdomains))
}

/// Perform Electric Vertex Splitting with the per-part assembly fanned out
/// over `pool`. Produces a `SplitSystem` **bitwise-identical** to
/// [`split`]: parts are assembled from the same precomputed flat index by
/// the same pure function, only the execution order differs — and no part
/// reads another part's output.
pub fn split_parallel(
    graph: &ElectricGraph,
    plan: &PartitionPlan,
    options: &EvsOptions,
    pool: &rayon::ThreadPool,
) -> Result<SplitSystem> {
    let index = build_index(graph, plan, options)?;
    let subdomains = pool
        .map_index(index.n_parts, |p| assemble_part(p, &index))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    Ok(finish(graph, plan, index, subdomains))
}

/// BFS spanning tree over `parts` using only `allowed` pairs; edges are
/// reported `(parent, child)` in discovery order.
fn spanning_tree_links(
    vertex: usize,
    parts: &[usize],
    allowed: &std::collections::BTreeSet<(usize, usize)>,
) -> Result<Vec<(usize, usize)>> {
    let ok = |a: usize, b: usize| allowed.contains(&(a.min(b), a.max(b)));
    let mut links = Vec::with_capacity(parts.len() - 1);
    let mut reached = vec![false; parts.len()];
    reached[0] = true;
    let mut frontier = vec![parts[0]];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &p in &frontier {
            for (i, &q) in parts.iter().enumerate() {
                if !reached[i] && ok(p, q) {
                    reached[i] = true;
                    links.push((p, q));
                    next.push(q);
                }
            }
        }
        frontier = next;
    }
    if let Some(i) = reached.iter().position(|r| !r) {
        return Err(Error::Parse(format!(
            "split vertex {vertex}: copy part {} unreachable from part {} \
             under the allowed machine links; cannot realise the \
             algorithm-architecture delay mapping",
            parts[i], parts[0]
        )));
    }
    Ok(links)
}

fn validate_shares(
    what: &'static str,
    shares: &[(usize, f64)],
    parts: &[usize],
    total: f64,
) -> Result<()> {
    let mut share_parts: Vec<usize> = shares.iter().map(|&(p, _)| p).collect();
    share_parts.sort_unstable();
    if share_parts != parts {
        return Err(Error::Parse(format!(
            "explicit {what} shares cover parts {share_parts:?}, expected {parts:?}"
        )));
    }
    let sum: f64 = shares.iter().map(|&(_, v)| v).sum();
    let scale = total.abs().max(1.0);
    if (sum - total).abs() > 1e-9 * scale {
        return Err(Error::Parse(format!(
            "explicit {what} shares sum to {sum}, expected {total}"
        )));
    }
    Ok(())
}

/// The paper's Example 4.1 explicit shares: splits system (3.2) at
/// `G_B = {V2, V3}` into subsystems (4.1) and (4.2).
pub fn paper_example_shares() -> ExplicitShares {
    let mut explicit = ExplicitShares::default();
    explicit.diag.insert(1, vec![(0, 2.5), (1, 3.5)]);
    explicit.diag.insert(2, vec![(0, 3.3), (1, 3.7)]);
    explicit.source.insert(1, vec![(0, 0.8), (1, 1.2)]);
    explicit.source.insert(2, vec![(0, 1.6), (1, 1.4)]);
    explicit.edge.insert((1, 2), vec![(0, -0.9), (1, -1.1)]);
    explicit
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::generators;

    fn paper_graph() -> ElectricGraph {
        let (a, b) = generators::paper_example_system();
        ElectricGraph::from_system(a, b).unwrap()
    }

    fn paper_split() -> SplitSystem {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: paper_example_shares(),
            ..Default::default()
        };
        split(&g, &plan, &options).unwrap()
    }

    #[test]
    fn example_4_1_subsystem_1_exact() {
        // (4.1): [5 −1 −1; −1 2.5 −0.9; −1 −0.9 3.3] [x1 x2a x3a] = [1 0.8 1.6] + ω
        let ss = paper_split();
        let sd = &ss.subdomains[0];
        // Local order: copies first (V2a=0, V3a=1), inner V1=2.
        assert_eq!(sd.global_of_local, vec![1, 2, 0]);
        assert_eq!(sd.n_copies, 2);
        let m = &sd.matrix;
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 1), 3.3);
        assert_eq!(m.get(0, 1), -0.9);
        assert_eq!(m.get(1, 0), -0.9);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(sd.rhs, vec![0.8, 1.6, 1.0]);
    }

    #[test]
    fn example_4_1_subsystem_2_exact() {
        // (4.2): [3.5 −1.1 −1; −1.1 3.7 −2; −1 −2 8], rhs [1.2 1.4 4]
        let ss = paper_split();
        let sd = &ss.subdomains[1];
        assert_eq!(sd.global_of_local, vec![1, 2, 3]);
        let m = &sd.matrix;
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), 3.7);
        assert_eq!(m.get(2, 2), 8.0);
        assert_eq!(m.get(0, 1), -1.1);
        assert_eq!(m.get(0, 2), -1.0);
        assert_eq!(m.get(1, 2), -2.0);
        assert_eq!(sd.rhs, vec![1.2, 1.4, 4.0]);
    }

    #[test]
    fn example_4_1_ports_and_dtlps() {
        let ss = paper_split();
        assert_eq!(ss.dtlps.len(), 2, "one DTLP per twin pair (V2, V3)");
        assert_eq!(ss.subdomains[0].n_ports(), 2);
        assert_eq!(ss.subdomains[1].n_ports(), 2);
        // Port 0 of each part belongs to V2 and they peer with each other.
        let p0 = &ss.subdomains[0].ports[0];
        assert_eq!(p0.global_vertex, 1);
        assert_eq!(p0.peer, PortRef { part: 1, port: 0 });
        let p1 = &ss.subdomains[1].ports[0];
        assert_eq!(p1.peer, PortRef { part: 0, port: 0 });
        assert_eq!(ss.subdomains[0].neighbor_parts(), vec![1]);
    }

    #[test]
    fn reconstruction_recovers_original() {
        let ss = paper_split();
        let (a2, b2) = ss.reconstruct();
        let (a, b) = generators::paper_example_system();
        assert!(a.to_dense().max_abs_diff(&a2.to_dense()) < 1e-12);
        for (u, v) in b.iter().zip(&b2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_policy_splits_evenly() {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            policy: SharePolicy::Uniform,
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).unwrap();
        // V2's weight 6 splits 3/3; V2–V3 edge −2 splits −1/−1.
        assert_eq!(ss.subdomains[0].matrix.get(0, 0), 3.0);
        assert_eq!(ss.subdomains[1].matrix.get(0, 0), 3.0);
        assert_eq!(ss.subdomains[0].matrix.get(0, 1), -1.0);
    }

    #[test]
    fn dominance_proportional_keeps_subdomains_dominant() {
        let a = generators::grid2d_random(6, 6, 1.0, 5);
        let n = a.n_rows();
        let g = ElectricGraph::from_system(a, vec![1.0; n]).unwrap();
        let asg = crate::partition::grid_blocks(6, 6, 2, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
        for sd in &ss.subdomains {
            assert!(
                sd.matrix.is_diag_dominant(),
                "part {} lost diagonal dominance",
                sd.part
            );
        }
    }

    #[test]
    fn gather_averages_copies() {
        let ss = paper_split();
        // Pretend both parts solved to the same global values [x1..x4] =
        // [1, 2, 3, 4]; averaging the copies must reproduce them exactly.
        let mk = |sd: &Subdomain| {
            sd.global_of_local
                .iter()
                .map(|&g| (g + 1) as f64)
                .collect::<Vec<_>>()
        };
        let locals: Vec<Vec<f64>> = ss.subdomains.iter().map(mk).collect();
        let mut x = vec![0.0; ss.original_n];
        for (sd, local) in ss.subdomains.iter().zip(&locals) {
            for (&g, &v) in sd.global_of_local.iter().zip(local) {
                x[g] += v / ss.copy_count[g] as f64;
            }
        }
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn three_way_split_builds_chain() {
        // 3-strip partition of a 3×3 grid: middle column splits 3 ways →
        // each such vertex gets 2 chained DTLPs.
        let a = generators::grid2d_laplacian(3, 3);
        let g = ElectricGraph::from_system(a, vec![0.0; 9]).unwrap();
        let asg: Vec<usize> = (0..9).map(|v| v % 3).collect();
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
        // Vertex 4 (grid centre) splits into parts {0,1,2} with chain 0–1–2:
        let v4_dtlps: Vec<&Dtlp> = ss.dtlps.iter().filter(|d| d.vertex == 4).collect();
        assert_eq!(v4_dtlps.len(), 2);
        assert_eq!(v4_dtlps[0].a.part, 0);
        assert_eq!(v4_dtlps[0].b.part, 1);
        assert_eq!(v4_dtlps[1].a.part, 1);
        assert_eq!(v4_dtlps[1].b.part, 2);
        // Reconstruction still exact.
        let (a2, b2) = ss.reconstruct();
        let (a, _) = generators::paper_example_system();
        let _ = a;
        let orig = generators::grid2d_laplacian(3, 3);
        assert!(orig.to_dense().max_abs_diff(&a2.to_dense()) < 1e-12);
        assert!(b2.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn star_topology_links_to_first_part() {
        let a = generators::grid2d_laplacian(3, 3);
        let g = ElectricGraph::from_system(a, vec![0.0; 9]).unwrap();
        let asg: Vec<usize> = (0..9).map(|v| v % 3).collect();
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let options = EvsOptions {
            twin_topology: TwinTopology::Star,
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).unwrap();
        let v4: Vec<&Dtlp> = ss.dtlps.iter().filter(|d| d.vertex == 4).collect();
        assert_eq!(v4.len(), 2);
        assert!(v4.iter().all(|d| d.a.part == 0));
    }

    #[test]
    fn explicit_share_sum_mismatch_rejected() {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let mut explicit = ExplicitShares::default();
        explicit.diag.insert(1, vec![(0, 1.0), (1, 1.0)]); // sums to 2 ≠ 6
        let options = EvsOptions {
            explicit,
            ..Default::default()
        };
        assert!(split(&g, &plan, &options).is_err());
    }

    #[test]
    fn explicit_share_wrong_parts_rejected() {
        let g = paper_graph();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let mut explicit = ExplicitShares::default();
        explicit.diag.insert(1, vec![(0, 6.0)]); // missing part 1
        let options = EvsOptions {
            explicit,
            ..Default::default()
        };
        assert!(split(&g, &plan, &options).is_err());
    }

    #[test]
    fn grid_blocks_reconstruction_on_random_grid() {
        let a = generators::grid2d_random(9, 9, 1.0, 11);
        let n = a.n_rows();
        let b = generators::random_rhs(n, 12);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = crate::partition::grid_blocks(9, 9, 3, 3);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
        let (a2, b2) = ss.reconstruct();
        assert!(a.to_dense().max_abs_diff(&a2.to_dense()) < 1e-10);
        for (u, v) in b.iter().zip(&b2) {
            assert!((u - v).abs() < 1e-10);
        }
        // Every part is a real subdomain with ports.
        for sd in &ss.subdomains {
            assert!(sd.n_local() > 0);
            assert!(sd.n_ports() > 0);
            assert_eq!(
                sd.ports
                    .iter()
                    .filter(|p| p.local_vertex >= sd.n_copies)
                    .count(),
                0,
                "ports must sit on copy vertices"
            );
        }
    }
}

#[cfg(test)]
mod tree_within_tests {
    use super::*;
    use crate::partition;
    use crate::plan::PartitionPlan;
    use dtm_sparse::generators;
    use std::collections::BTreeSet;

    /// Undirected pair set of a px×py processor mesh.
    fn mesh_pairs(px: usize, py: usize) -> BTreeSet<(usize, usize)> {
        let mut s = BTreeSet::new();
        for r in 0..py {
            for c in 0..px {
                let p = r * px + c;
                if c + 1 < px {
                    s.insert((p, p + 1));
                }
                if r + 1 < py {
                    s.insert((p, p + px));
                }
            }
        }
        s
    }

    #[test]
    fn tree_within_respects_mesh_adjacency() {
        // 9×9 grid on a 3×3 processor mesh: corner vertices split 3 ways;
        // every DTLP must connect mesh-adjacent parts.
        let a = generators::grid2d_laplacian(9, 9);
        let g = ElectricGraph::from_system(a, vec![0.0; 81]).unwrap();
        let asg = partition::grid_blocks(9, 9, 3, 3);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let pairs = mesh_pairs(3, 3);
        let options = EvsOptions {
            twin_topology: TwinTopology::TreeWithin(pairs.clone()),
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).unwrap();
        for d in &ss.dtlps {
            let (lo, hi) = (d.a.part.min(d.b.part), d.a.part.max(d.b.part));
            assert!(
                pairs.contains(&(lo, hi)),
                "DTLP {lo}–{hi} is not a machine link"
            );
        }
        // Reconstruction still exact and wiring consistent.
        crate::validate::check_wiring(&ss).unwrap();
        let (a2, _) = ss.reconstruct();
        let orig = generators::grid2d_laplacian(9, 9);
        assert!(orig.to_dense().max_abs_diff(&a2.to_dense()) < 1e-12);
    }

    #[test]
    fn scatter_rhs_reproduces_the_split_sources() {
        // Default (uniform) policy on a grid split: re-scattering the
        // original b must reproduce every subdomain's rhs, and the weights
        // of each vertex's copies must sum to 1.
        let a = generators::grid2d_random(6, 6, 1.0, 17);
        let b = generators::random_rhs(36, 18);
        let g = ElectricGraph::from_system(a, b.clone()).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(6, 6, 3)).unwrap();
        let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
        let scattered = ss.scatter_rhs(&b);
        for (sd, got) in ss.subdomains.iter().zip(&scattered) {
            for (l, (u, v)) in got.iter().zip(&sd.rhs).enumerate() {
                assert_eq!(u, v, "local {l}: scatter must be bitwise-faithful");
            }
        }
        let mut weight_sum = vec![0.0; ss.original_n];
        for sd in &ss.subdomains {
            for (l, &gv) in sd.global_of_local.iter().enumerate() {
                weight_sum[gv] += sd.rhs_weight[l];
            }
        }
        for (v, w) in weight_sum.iter().enumerate() {
            assert!((w - 1.0).abs() < 1e-12, "vertex {v}: weights sum to {w}");
        }
        // A fresh RHS sums back exactly onto original indices.
        let b2 = generators::random_rhs(36, 19);
        let scattered2 = ss.scatter_rhs(&b2);
        let mut sum = vec![0.0; ss.original_n];
        for (sd, x) in ss.subdomains.iter().zip(&scattered2) {
            for (l, &gv) in sd.global_of_local.iter().enumerate() {
                sum[gv] += x[l];
            }
        }
        for (u, v) in sum.iter().zip(&b2) {
            assert!((u - v).abs() <= 1e-14 * v.abs().max(1.0));
        }
    }

    #[test]
    fn scatter_rhs_recovers_explicit_paper_shares() {
        // The paper's explicit source shares (0.8/1.2 and 1.6/1.4) are
        // value-proportional fractions of b = 2 and 3: scattering the
        // original b must reproduce them exactly.
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b.clone()).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: paper_example_shares(),
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).unwrap();
        let scattered = ss.scatter_rhs(&b);
        for (sd, got) in ss.subdomains.iter().zip(&scattered) {
            for (u, v) in got.iter().zip(&sd.rhs) {
                assert!((u - v).abs() < 1e-15, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn tree_within_fails_when_disconnected() {
        // Allow no pairs at all: any split vertex must fail.
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            twin_topology: TwinTopology::TreeWithin(BTreeSet::new()),
            ..Default::default()
        };
        assert!(split(&g, &plan, &options).is_err());
    }
}
