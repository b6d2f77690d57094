//! The DTM local system (paper eq. (5.8)–(5.9)), generalized to a block
//! of K simultaneous right-hand sides.
//!
//! Eliminating the inflow currents ω from the subdomain system plus the DTL
//! boundary conditions leaves
//!
//! ```text
//! [ C + Z⁻¹  E ] [u]   [ f + Z⁻¹·(u_twin(t−τ) − Z·ω_twin(t−τ)) ]
//! [ F        D ] [y] = [ g                                      ]      (5.9)
//!   ω = −Z⁻¹u + Z⁻¹·u_twin(t−τ) − ω_twin(t−τ)
//! ```
//!
//! The coefficient matrix is **constant**: "only once factorization should
//! be done at the beginning; as long as we get the Cholesky factor, it is a
//! piece of cake to solve (5.9)" (§5). [`LocalSystem`] is that object:
//! factor once, then each remote-boundary update is one RHS rebuild plus a
//! forward/backward substitution.
//!
//! Because the matrix does not depend on the right-hand side, **K right-hand
//! sides share one factor**: the state (`w`, `x`, `ω`, previous outgoing
//! waves) simply becomes a K-column block, stored column-major, and each
//! solve is one *block* substitution that sweeps the factor once for all
//! columns ([`dtm_sparse::DenseCholesky::solve_block_in_place`]). Column `c`
//! undergoes exactly the scalar arithmetic, so a block solve is bitwise a
//! stack of K scalar solves — the property the block-wave pipeline is built
//! on. The factor itself sits behind an [`Arc`], so cloning a node's local
//! system (an executor's per-solve copy of its templates) never
//! refactors. The factor is all a local system keeps of its matrix `Â`:
//! [`local_matrix`] builds `Â`, the constructor factors it and drops it.

use crate::dtl;
use dtm_graph::evs::Subdomain;
use dtm_sparse::{Csr, DenseCholesky, Result, SparseCholesky};
use std::sync::Arc;

/// Which factorization backs the local solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSolverKind {
    /// Dense up to [`AUTO_DENSE_LIMIT`] unknowns; above, sparse under the
    /// fill-reducing ordering ([`dtm_sparse::ordering::fill_reducing`]):
    /// nested dissection, except that a part of at most
    /// [`dtm_sparse::ordering::ND_MIN_N`] unknowns keeps the RCM
    /// permutation of [`SparseRcm`](Self::SparseRcm) — its band is the
    /// whole factor and dissecting it buys nothing. Every wave is one
    /// substitution that streams the factor once, so the factor's size is
    /// the solve's cost; nested dissection roughly halves it on 3-D parts
    /// of a few thousand unknowns.
    #[default]
    Auto,
    /// Dense Cholesky.
    Dense,
    /// Sparse Cholesky with reverse Cuthill–McKee pre-ordering (a
    /// bandwidth ordering, at every size).
    SparseRcm,
}

/// Crossover for [`LocalSolverKind::Auto`].
pub const AUTO_DENSE_LIMIT: usize = 96;

/// A Cholesky factor of one part's matrix, dense or sparse.
#[derive(Debug, PartialEq)]
pub(crate) enum Factor {
    Dense(DenseCholesky),
    Sparse(SparseCholesky),
}

impl Factor {
    /// The [`LocalSolverKind::Auto`] choice: dense up to
    /// [`AUTO_DENSE_LIMIT`] unknowns, sparse under the fill-reducing
    /// ordering above.
    pub(crate) fn auto(matrix: &Csr) -> Result<Self> {
        Ok(if matrix.n_rows() <= AUTO_DENSE_LIMIT {
            Factor::Dense(DenseCholesky::factor_csr(matrix)?)
        } else {
            Factor::Sparse(SparseCholesky::factor_fill_reducing(matrix)?)
        })
    }

    /// Stored factor entries (dense: n(n+1)/2; sparse: nnz(L)).
    pub(crate) fn nnz(&self) -> usize {
        match self {
            Factor::Dense(f) => f.n() * (f.n() + 1) / 2,
            Factor::Sparse(f) => f.nnz_l(),
        }
    }

    pub(crate) fn solve_block_with_scratch(
        &self,
        xs: &mut [f64],
        k: usize,
        scratch: &mut Vec<f64>,
    ) {
        match self {
            Factor::Dense(f) => f.solve_block_with_scratch(xs, k, scratch),
            Factor::Sparse(f) => f.solve_block_with_scratch(xs, k, scratch),
        }
    }
}

/// A factored DTM local system with its current boundary state — a block of
/// `n_rhs` columns sharing one factor (the scalar pipeline is the
/// `n_rhs == 1` special case).
///
/// All block state is stored column-major: column `c` of an `n`-vector
/// quantity occupies `[c·n .. (c+1)·n]`, and per-port quantities likewise
/// with `n = n_ports`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSystem {
    /// Shared factor of [`local_matrix`]: cloning a `LocalSystem` never
    /// refactors.
    factor: Arc<Factor>,
    /// Local vertex carrying each port.
    port_vertex: Vec<usize>,
    /// Characteristic impedance per port.
    z: Vec<f64>,
    /// Local dimension.
    n: usize,
    /// Number of RHS columns in the block.
    k: usize,
    /// Constant part of the RHS: `[f; g]` per column (`n·k`).
    base_rhs: Vec<f64>,
    /// Latest incident wave per port per column (`u_twin − z·ω_twin`,
    /// init 0: eq. 5.6) — `n_ports·k`.
    w: Vec<f64>,
    /// Latest local solution `[u; y]` per column — `n·k`.
    x: Vec<f64>,
    /// Latest inflow current per port per column — `n_ports·k`.
    omega: Vec<f64>,
    /// Previous outgoing wave per port per column (convergence deltas).
    prev_out: Vec<f64>,
    /// Outgoing-wave change of the latest solve, per column.
    col_delta: Vec<f64>,
    /// Max over [`col_delta`](Self::col_delta).
    last_delta: f64,
    /// Columns whose boundary inputs changed since the previous solve
    /// (bitmask; `k ≥ 64` saturates to all-ones). A column outside the mask
    /// re-solves to a bitwise-identical solution, so publishers may skip it.
    touched_cols: u64,
    /// The mask captured by the latest [`solve`](Self::solve).
    solved_cols: u64,
    solves: usize,
    rhs_buf: Vec<f64>,
    /// Interleave scratch for the blocked substitution kernels, pre-sized
    /// to `n·k` at construction so the hot loop never allocates.
    solve_scratch: Vec<f64>,
}

/// All-columns bitmask for a `k`-wide block (saturating at 64) — the one
/// dirty-column mask rule, shared by the publisher here and the snapshot
/// consumer in `runtime::wallclock`.
pub(crate) fn all_cols(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Whether column `c` of a `k`-wide block is in `mask` — every column is
/// once the block is too wide for the mask (`k ≥ 64`, saturated).
pub(crate) fn has_col(mask: u64, c: usize, k: usize) -> bool {
    k >= 64 || mask >> c & 1 == 1
}

/// Scale `v` by a warm start `alpha` in place — exact zeros for
/// `alpha == 0`, whatever `v` held — the one rule the monitor's kept
/// column and the nodes' swapped column share, so both stay the same
/// multiple of what they held.
pub(crate) fn scale_or_zero(v: &mut [f64], alpha: f64) {
    if alpha == 0.0 {
        v.fill(0.0);
    } else {
        v.iter_mut().for_each(|x| *x *= alpha);
    }
}

impl LocalSystem {
    /// Build and factor the local system of `sub` with per-port impedances
    /// `z` (use [`crate::impedance::per_port`] to derive them from a
    /// per-DTLP assignment). Single right-hand side: the subdomain's own
    /// sources.
    ///
    /// # Errors
    /// Propagates factorization failure (the subdomain was not SNND, i.e.
    /// the EVS split violated Theorem 6.1's hypothesis).
    ///
    /// # Panics
    /// Panics if `z.len() != sub.n_ports()` or any impedance is
    /// non-positive.
    pub fn new(sub: &Subdomain, z: &[f64], kind: LocalSolverKind) -> Result<Self> {
        Self::with_base_rhs(sub, z, kind, sub.rhs.clone(), 1)
    }

    /// Build and factor the local system with a block of `rhs_cols` local
    /// right-hand sides solved simultaneously over the one factor (each
    /// column a full local source vector, e.g. from
    /// [`dtm_graph::evs::SplitSystem::scatter_rhs`]).
    ///
    /// # Errors
    /// See [`LocalSystem::new`].
    ///
    /// # Panics
    /// Additionally panics if `rhs_cols` is empty or a column has the wrong
    /// length.
    pub fn new_block(
        sub: &Subdomain,
        z: &[f64],
        kind: LocalSolverKind,
        rhs_cols: &[Vec<f64>],
    ) -> Result<Self> {
        let base = concat_cols(rhs_cols, sub.n_local());
        Self::with_base_rhs(sub, z, kind, base, rhs_cols.len())
    }

    fn with_base_rhs(
        sub: &Subdomain,
        z: &[f64],
        kind: LocalSolverKind,
        base_rhs: Vec<f64>,
        k: usize,
    ) -> Result<Self> {
        let matrix = local_matrix(sub, z);
        let factor = match kind {
            LocalSolverKind::Dense => Factor::Dense(DenseCholesky::factor_csr(&matrix)?),
            LocalSolverKind::SparseRcm => Factor::Sparse(SparseCholesky::factor_rcm(&matrix)?),
            LocalSolverKind::Auto => Factor::auto(&matrix)?,
        };
        drop(matrix);
        let (n, n_ports) = (sub.n_local(), sub.n_ports());
        Ok(Self {
            factor: Arc::new(factor),
            port_vertex: sub.ports.iter().map(|p| p.local_vertex).collect(),
            z: z.to_vec(),
            n,
            k,
            base_rhs,
            w: vec![0.0; n_ports * k],
            x: vec![0.0; n * k],
            omega: vec![0.0; n_ports * k],
            prev_out: vec![0.0; n_ports * k],
            col_delta: vec![f64::INFINITY; k],
            last_delta: f64::INFINITY,
            touched_cols: all_cols(k),
            solved_cols: all_cols(k),
            solves: 0,
            rhs_buf: vec![0.0; n * k],
            solve_scratch: vec![0.0; n * k],
        })
    }

    /// Replace **one column** of the block in place — the rolling-session
    /// retire/admit step: the column's base right-hand side becomes
    /// `rhs_col` and its whole state — incident waves `w`, inflow currents
    /// `ω`, previous outgoing waves and solution `x` — is scaled by `alpha`,
    /// the warm start [`Monitor::admit`](crate::monitor::Monitor::admit)
    /// derived (exact zeros for `alpha == 0`: the zero initial guess of
    /// eq. (5.6)). The state is linear in the right-hand side and the
    /// waves, so the scaled state is exactly the node's share of the
    /// scaled estimate the monitor starts the ticket from. The column's
    /// convergence delta re-arms, all without touching the other columns,
    /// the factor, or the exchange. The column is marked touched so the
    /// next solve republishes it (dirty-column snapshot compatibility).
    ///
    /// Waves already in flight still carry the retired column's values;
    /// absorbing them merely gives the fresh column a stale starting
    /// boundary state, which asynchronous contraction corrects —
    /// per-component staleness is exactly what Theorem 6.1 licenses.
    ///
    /// # Panics
    /// Panics if `col >= n_rhs()` or `rhs_col` has the wrong length.
    pub fn replace_rhs_col(&mut self, col: usize, rhs_col: &[f64], alpha: f64) {
        assert!(col < self.k, "column {col} out of range (k = {})", self.k);
        assert_eq!(rhs_col.len(), self.n, "RHS column length");
        let (n, np) = (self.n, self.n_ports());
        self.base_rhs[col * n..(col + 1) * n].copy_from_slice(rhs_col);
        let ports = col * np..(col + 1) * np;
        scale_or_zero(&mut self.w[ports.clone()], alpha);
        scale_or_zero(&mut self.omega[ports.clone()], alpha);
        scale_or_zero(&mut self.prev_out[ports], alpha);
        scale_or_zero(&mut self.x[col * n..(col + 1) * n], alpha);
        self.col_delta[col] = f64::INFINITY;
        self.last_delta = f64::INFINITY;
        self.touch(col);
    }

    /// Local dimension.
    pub fn n_local(&self) -> usize {
        self.n
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.port_vertex.len()
    }

    /// Number of right-hand-side columns in the block.
    pub fn n_rhs(&self) -> usize {
        self.k
    }

    /// Per-port impedances.
    pub fn impedances(&self) -> &[f64] {
        &self.z
    }

    /// Update one port's remote boundary condition from the twin's
    /// transmitted `(u_twin, ω_twin)` pair — the message payload of Table 1
    /// (column 0; see [`set_remote_col`](Self::set_remote_col) for blocks).
    pub fn set_remote(&mut self, port: usize, u_twin: f64, omega_twin: f64) {
        self.set_remote_col(port, 0, u_twin, omega_twin);
    }

    /// Update one port's remote boundary condition for one block column.
    pub fn set_remote_col(&mut self, port: usize, col: usize, u_twin: f64, omega_twin: f64) {
        let i = col * self.n_ports() + port;
        self.w[i] = dtl::incident_wave(u_twin, omega_twin, self.z[port]);
        self.touch(col);
    }

    /// Mark one column's boundary input as changed.
    fn touch(&mut self, col: usize) {
        self.touched_cols |= if col >= 64 { u64::MAX } else { 1u64 << col };
    }

    /// Update one port's remote boundary conditions for all columns at once
    /// — the block-wave merge (`u` and `omega` hold one value per column).
    ///
    /// # Panics
    /// Panics if the payload width differs from the block width.
    pub fn set_remote_block(&mut self, port: usize, u: &[f64], omega: &[f64]) {
        assert_eq!(u.len(), self.k, "block payload width");
        assert_eq!(omega.len(), self.k, "block payload width");
        let np = self.n_ports();
        for c in 0..self.k {
            self.w[c * np + port] = dtl::incident_wave(u[c], omega[c], self.z[port]);
        }
        self.touched_cols = all_cols(self.k);
    }

    /// Update one port's incident wave directly (column 0).
    pub fn set_incident_wave(&mut self, port: usize, w: f64) {
        self.w[port] = w;
        self.touch(0);
    }

    /// Incident wave currently stored for `port` (column 0).
    pub fn incident_wave(&self, port: usize) -> f64 {
        self.w[port]
    }

    /// Incident wave currently stored for `port` in block column `col`.
    pub fn incident_wave_col(&self, port: usize, col: usize) -> f64 {
        self.w[col * self.n_ports() + port]
    }

    /// Solve (5.9) for every column with the stored remote boundary
    /// conditions: one RHS rebuild + one block forward/backward
    /// substitution over the shared factor (no refactorization, no
    /// allocation — `rhs_buf` is recycled across solves and columns).
    pub fn solve(&mut self) -> &[f64] {
        let (n, np, k) = (self.n, self.n_ports(), self.k);
        // The buffer swap below recycles `x`'s storage: both buffers were
        // allocated at n·k once and must never shrink or grow, or the
        // rebuild would reallocate per solve.
        debug_assert_eq!(self.rhs_buf.len(), n * k, "rhs_buf recycled, never resized");
        debug_assert!(self.rhs_buf.capacity() >= n * k);
        self.rhs_buf.copy_from_slice(&self.base_rhs);
        for c in 0..k {
            for (p, &v) in self.port_vertex.iter().enumerate() {
                self.rhs_buf[c * n + v] += self.w[c * np + p] / self.z[p];
            }
        }
        self.factor
            .solve_block_with_scratch(&mut self.rhs_buf, k, &mut self.solve_scratch);
        std::mem::swap(&mut self.x, &mut self.rhs_buf);
        let mut max_delta = 0.0_f64;
        for c in 0..k {
            let mut delta = 0.0_f64;
            for (p, &v) in self.port_vertex.iter().enumerate() {
                let i = c * np + p;
                self.omega[i] = dtl::inflow_current(self.w[i], self.x[c * n + v], self.z[p]);
                let out = dtl::outgoing_wave(self.x[c * n + v], self.omega[i], self.z[p]);
                delta = delta.max((out - self.prev_out[i]).abs());
                self.prev_out[i] = out;
            }
            self.col_delta[c] = delta;
            max_delta = max_delta.max(delta);
        }
        self.last_delta = max_delta;
        self.solved_cols = std::mem::replace(&mut self.touched_cols, 0);
        self.solves += 1;
        &self.x
    }

    /// Latest local solution `[u; y]` — the whole block, column-major.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Latest local solution of one block column.
    pub fn solution_col(&self, col: usize) -> &[f64] {
        &self.x[col * self.n..(col + 1) * self.n]
    }

    /// Latest inflow currents (whole block, column-major per port).
    pub fn currents(&self) -> &[f64] {
        &self.omega
    }

    /// The local boundary condition `(u, ω)` this subdomain transmits for
    /// `port` (Table 1 step 3.2), column 0.
    pub fn outgoing(&self, port: usize) -> (f64, f64) {
        self.outgoing_col(port, 0)
    }

    /// The transmitted `(u, ω)` pair for `port` in block column `col`.
    pub fn outgoing_col(&self, port: usize, col: usize) -> (f64, f64) {
        (
            self.x[col * self.n + self.port_vertex[port]],
            self.omega[col * self.n_ports() + port],
        )
    }

    /// Max |change| of any outgoing wave in the latest solve, over all
    /// columns — the local convergence signal of Table 1 step 3.3 (a block
    /// node keeps exchanging until its *worst* column settles).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Per-column outgoing-wave change of the latest solve.
    pub fn col_deltas(&self) -> &[f64] {
        &self.col_delta
    }

    /// Bitmask of columns whose boundary inputs changed going into the
    /// latest solve (`k ≥ 64` saturates to all-ones; the first solve
    /// reports every column). Columns outside the mask re-solved to
    /// bitwise-identical values — the same deterministic substitution of
    /// the same inputs — so snapshot publishers copy only these columns.
    pub fn last_solve_cols(&self) -> u64 {
        self.solved_cols
    }

    /// Number of solves performed (a block solve counts once).
    pub fn n_solves(&self) -> usize {
        self.solves
    }

    /// Size of the factor backing each substitution (dense: n(n+1)/2;
    /// sparse: nnz(L)); drives the per-solve compute-time model.
    pub fn factor_nnz(&self) -> usize {
        self.factor.nnz()
    }
}

/// The local coefficient matrix `Â = A_j + Σ_p (1/z_p) e_v e_vᵀ` of `sub`
/// under the per-port impedances `z` — what a [`LocalSystem`] factors. It
/// is constant, and the factor is all a local system keeps of it.
///
/// # Panics
/// Panics if `z.len() != sub.n_ports()` or any impedance is non-positive.
pub fn local_matrix(sub: &Subdomain, z: &[f64]) -> Csr {
    assert_eq!(z.len(), sub.n_ports(), "one impedance per port");
    assert!(
        z.iter().all(|&zi| zi > 0.0 && zi.is_finite()),
        "impedances must be positive"
    );
    // Σ 1/z per local vertex (a vertex may carry several ports).
    let mut diag_add = vec![0.0; sub.n_local()];
    for (p, port) in sub.ports.iter().enumerate() {
        diag_add[port.local_vertex] += 1.0 / z[p];
    }
    sub.matrix.add_to_diagonal(&diag_add)
}

/// Concatenate equal-length columns into one column-major buffer.
fn concat_cols(cols: &[Vec<f64>], n: usize) -> Vec<f64> {
    assert!(!cols.is_empty(), "at least one RHS column");
    let mut out = Vec::with_capacity(n * cols.len());
    for col in cols {
        assert_eq!(col.len(), n, "RHS column length");
        out.extend_from_slice(col);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::paper_split;
    use dtm_graph::evs::{split, EvsOptions, SplitSystem};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    #[test]
    fn example_5_4_local_matrix_exact() {
        // (5.4): with Z₂ = 0.2, Z₃ = 0.1 the subgraph-1 matrix becomes
        // [5 −1 −1; −1 7.5 −0.9; −1 −0.9 13.3] in (x1, x2a, x3a) order —
        // ours is (x2a, x3a, x1).
        let ss = paper_split();
        let m = local_matrix(&ss.subdomains[0], &[0.2, 0.1]);
        assert!((m.get(0, 0) - 7.5).abs() < 1e-12); // 2.5 + 1/0.2
        assert!((m.get(1, 1) - 13.3).abs() < 1e-12); // 3.3 + 1/0.1
        assert!((m.get(2, 2) - 5.0).abs() < 1e-12);
        assert_eq!(m.get(0, 1), -0.9);
        assert_eq!(m.get(0, 2), -1.0);
    }

    #[test]
    fn example_5_5_local_matrix_exact() {
        // (5.5): subgraph-2 matrix [8.5 −1.1 −1; −1.1 13.7 −2; −1 −2 8] in
        // (x2b, x3b, x4) order.
        let ss = paper_split();
        let m = local_matrix(&ss.subdomains[1], &[0.2, 0.1]);
        assert!((m.get(0, 0) - 8.5).abs() < 1e-12); // 3.5 + 5
        assert!((m.get(1, 1) - 13.7).abs() < 1e-12); // 3.7 + 10
        assert!((m.get(2, 2) - 8.0).abs() < 1e-12);
        assert_eq!(m.get(0, 1), -1.1);
    }

    #[test]
    fn initial_solve_uses_zero_boundary() {
        // Initial condition (5.6): u = ω = 0 on all remote ports, so the
        // first solve is  Â x = [f; g].
        let ss = paper_split();
        let mut ls =
            LocalSystem::new(&ss.subdomains[0], &[0.2, 0.1], LocalSolverKind::Dense).unwrap();
        let x = ls.solve().to_vec();
        let expect = DenseCholesky::factor_csr(&local_matrix(&ss.subdomains[0], &[0.2, 0.1]))
            .unwrap()
            .solve(&[0.8, 1.6, 1.0]);
        for (u, v) in x.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-12);
        }
        // ω = (0 − u)/z at each port.
        assert!((ls.currents()[0] - (-x[0] / 0.2)).abs() < 1e-12);
        assert!((ls.currents()[1] - (-x[1] / 0.1)).abs() < 1e-12);
    }

    #[test]
    fn solve_satisfies_delay_equation_at_ports() {
        let ss = paper_split();
        let mut ls =
            LocalSystem::new(&ss.subdomains[0], &[0.2, 0.1], LocalSolverKind::Dense).unwrap();
        ls.set_remote(0, 0.7, -0.2);
        ls.set_remote(1, 0.4, 0.1);
        ls.solve();
        for p in 0..2 {
            let (u, om) = ls.outgoing(p);
            assert!(crate::dtl::satisfies_delay_equation(
                u,
                om,
                ls.incident_wave(p),
                ls.impedances()[p],
                1e-12
            ));
        }
    }

    #[test]
    fn solve_satisfies_subdomain_equation_with_currents() {
        // A_j x = rhs + ω at ports (eq. 4.3) must hold exactly.
        let ss = paper_split();
        let sd = &ss.subdomains[1];
        let mut ls = LocalSystem::new(sd, &[0.2, 0.1], LocalSolverKind::Dense).unwrap();
        ls.set_remote(0, 1.0, 0.5);
        ls.set_remote(1, -0.3, 0.2);
        let x = ls.solve().to_vec();
        let ax = sd.matrix.matvec(&x);
        let mut rhs = sd.rhs.clone();
        for (p, port) in sd.ports.iter().enumerate() {
            rhs[port.local_vertex] += ls.currents()[p];
        }
        for (u, v) in ax.iter().zip(&rhs) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn all_backends_agree() {
        let a = generators::grid2d_random(8, 8, 1.0, 3);
        let b = generators::random_rhs(64, 4);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_blocks(8, 8, 2, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = split(&g, &plan, &EvsOptions::default()).unwrap();
        let sd = &ss.subdomains[0];
        let z = vec![0.5; sd.n_ports()];
        let kinds = [
            LocalSolverKind::Dense,
            LocalSolverKind::SparseRcm,
            LocalSolverKind::Auto,
        ];
        let mut results = Vec::new();
        for kind in kinds {
            let mut ls = LocalSystem::new(sd, &z, kind).unwrap();
            for p in 0..sd.n_ports() {
                ls.set_remote(p, 0.1 * p as f64, -0.05 * p as f64);
            }
            results.push(ls.solve().to_vec());
        }
        for r in &results[1..] {
            for (u, v) in r.iter().zip(&results[0]) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    /// An `s`³ Laplacian split 8 ways by the default partitioner.
    fn cube_split(s: usize) -> SplitSystem {
        let a = generators::grid3d_laplacian(s, s, s);
        let b = generators::random_rhs(s * s * s, 5);
        // Reference-free: the build splits and factors nothing.
        crate::DtmBuilder::new(a, b)
            .partition_auto(8)
            .termination(crate::Termination::Residual { tol: 1e-6 })
            .build()
            .unwrap()
            .split
    }

    /// The local system of `sd` under unit impedances.
    fn unit_local(sd: &Subdomain, kind: LocalSolverKind) -> LocalSystem {
        LocalSystem::new(sd, &vec![1.0; sd.n_ports()], kind).unwrap()
    }

    #[test]
    fn auto_keeps_small_sparse_parts_on_the_rcm_permutation() {
        // 10³ @ 8: parts above the dense limit and under the dissection
        // threshold — the factor is the SparseRcm one, bit for bit.
        for sd in &cube_split(10).subdomains {
            let n = sd.n_local();
            assert!(
                n > AUTO_DENSE_LIMIT && n <= dtm_sparse::ordering::ND_MIN_N,
                "{n}"
            );
            assert_eq!(
                unit_local(sd, LocalSolverKind::Auto).factor,
                unit_local(sd, LocalSolverKind::SparseRcm).factor
            );
        }
    }

    #[test]
    fn auto_fill_of_the_16_cube_split_stays_under_its_ceiling() {
        // Fill regressions fail here, fast. Measured 115,653 with nested
        // dissection; the RCM factors of the same parts hold 178,695.
        const CEILING: usize = 125_000;
        let nnz_l: usize = cube_split(16)
            .subdomains
            .iter()
            .map(|sd| unit_local(sd, LocalSolverKind::Auto).factor_nnz())
            .sum();
        assert!(nnz_l <= CEILING, "local nnz(L) = {nnz_l} > {CEILING}");
    }

    #[test]
    fn delta_shrinks_under_fixed_boundary() {
        // Solving twice with the same remote boundary gives delta 0.
        let ss = paper_split();
        let mut ls =
            LocalSystem::new(&ss.subdomains[0], &[0.2, 0.1], LocalSolverKind::Dense).unwrap();
        ls.set_remote(0, 0.3, 0.0);
        ls.solve();
        let d1 = ls.last_delta();
        assert!(d1 > 0.0);
        ls.solve();
        assert_eq!(ls.last_delta(), 0.0);
        assert_eq!(ls.n_solves(), 2);
    }

    #[test]
    fn block_solve_is_bitwise_stack_of_scalar_solves() {
        // A 3-column block with per-column boundary states must reproduce,
        // bit for bit, three independent scalar LocalSystems fed the same
        // states — for every factor kind.
        let ss = paper_split();
        let sd = &ss.subdomains[0];
        let z = [0.2, 0.1];
        let cols: Vec<Vec<f64>> = vec![sd.rhs.clone(), vec![1.0, -2.0, 0.5], vec![0.0, 3.0, -1.0]];
        for kind in [LocalSolverKind::Dense, LocalSolverKind::SparseRcm] {
            let mut block = LocalSystem::new_block(sd, &z, kind, &cols).unwrap();
            assert_eq!(block.n_rhs(), 3);
            for c in 0..3 {
                for p in 0..2 {
                    block.set_remote_col(p, c, 0.3 * (c + 1) as f64, -0.1 * (p as f64 + 1.0));
                }
            }
            block.solve();
            for (c, col) in cols.iter().enumerate() {
                let mut scalar =
                    LocalSystem::new_block(sd, &z, kind, std::slice::from_ref(col)).unwrap();
                for p in 0..2 {
                    scalar.set_remote(p, 0.3 * (c + 1) as f64, -0.1 * (p as f64 + 1.0));
                }
                scalar.solve();
                assert_eq!(block.solution_col(c), scalar.solution(), "column {c}");
                assert_eq!(block.col_deltas()[c], scalar.last_delta(), "delta {c}");
                for p in 0..2 {
                    assert_eq!(block.outgoing_col(p, c), scalar.outgoing(p));
                }
            }
        }
    }

    /// A 2-column block of the paper split's part 0 mid-exchange: both
    /// columns carry boundary state and a solution.
    fn mid_exchange_block() -> (LocalSystem, Vec<f64>) {
        let ss = paper_split();
        let sd = &ss.subdomains[0];
        let cols = vec![sd.rhs.clone(), vec![1.0, -2.0, 0.5]];
        let mut block =
            LocalSystem::new_block(sd, &[0.2, 0.1], LocalSolverKind::Dense, &cols).unwrap();
        for c in 0..2 {
            for p in 0..2 {
                block.set_remote_col(p, c, 0.4 * (c + 1) as f64, -0.2);
            }
        }
        block.solve();
        let col0 = block.solution_col(0).to_vec();
        (block, col0)
    }

    #[test]
    fn replace_rhs_col_resets_only_that_column() {
        // α = 0: the swapped column must behave exactly like a freshly
        // built scalar system (zero boundary guess, new RHS) while column
        // 0's state and solutions are untouched.
        let (mut block, col0_before) = mid_exchange_block();
        let new_rhs = vec![0.3, 2.0, -1.0];
        block.replace_rhs_col(1, &new_rhs, 0.0);
        for p in 0..2 {
            let i = 2 + p;
            assert_eq!(block.incident_wave_col(p, 1).to_bits(), 0);
            assert_eq!(block.omega[i].to_bits(), 0, "current reset");
            assert_eq!(block.prev_out[i].to_bits(), 0, "outgoing reset");
        }
        assert!(block.solution_col(1).iter().all(|v| v.to_bits() == 0));
        assert_eq!(block.col_deltas()[1], f64::INFINITY, "delta re-armed");
        block.solve();
        assert_eq!(
            block.last_solve_cols(),
            0b10,
            "only the swapped column was touched going into the solve"
        );
        assert_eq!(block.solution_col(0), col0_before, "column 0 untouched");
        let ss = paper_split();
        let mut fresh = LocalSystem::new_block(
            &ss.subdomains[0],
            &[0.2, 0.1],
            LocalSolverKind::Dense,
            std::slice::from_ref(&new_rhs),
        )
        .unwrap();
        fresh.solve();
        assert_eq!(block.solution_col(1), fresh.solution(), "swapped == fresh");
    }

    #[test]
    fn replace_rhs_col_scales_only_that_column_by_its_warm_start() {
        let (mut block, _) = mid_exchange_block();
        let before = block.clone();
        let alpha = -0.75;
        block.replace_rhs_col(1, &[0.3, 2.0, -1.0], alpha);
        let (n, np) = (block.n_local(), block.n_ports());
        for (i, (new, old)) in block.x.iter().zip(&before.x).enumerate() {
            let expect = if i >= n { old * alpha } else { *old };
            assert_eq!(new.to_bits(), expect.to_bits(), "x[{i}]");
        }
        for (field, new, old) in [
            ("w", &block.w, &before.w),
            ("omega", &block.omega, &before.omega),
            ("prev_out", &block.prev_out, &before.prev_out),
        ] {
            for (i, (new, old)) in new.iter().zip(old).enumerate() {
                let expect = if i >= np { old * alpha } else { *old };
                assert_eq!(new.to_bits(), expect.to_bits(), "{field}[{i}]");
            }
        }
        assert_eq!(block.col_deltas(), [before.col_deltas()[0], f64::INFINITY]);
        assert_eq!(&block.base_rhs[..n], &before.base_rhs[..n]);
    }

    #[test]
    #[should_panic(expected = "one impedance per port")]
    fn wrong_impedance_count_panics() {
        let ss = paper_split();
        let _ = LocalSystem::new(&ss.subdomains[0], &[0.2], LocalSolverKind::Dense);
    }
}
