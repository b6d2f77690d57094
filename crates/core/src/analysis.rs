//! Spectral analysis of the synchronous (VTM) iteration operator.
//!
//! Per round, the stacked incident-wave vector `w` evolves affinely:
//! `w ← T w + c`, where applying `T` means: every subdomain solves its
//! local system with boundary input `w` (and zero sources), and each port's
//! *outgoing* wave is routed to its twin. The spectral radius `ρ(T)` is the
//! asymptotic per-round error contraction — the quantity behind Fig. 9's
//! impedance bowl and Theorem 6.1's `ρ < 1` claim in the equal-delay case.

use crate::impedance::{per_port, ImpedancePolicy};
use crate::local::{LocalSolverKind, LocalSystem};
use dtm_graph::evs::SplitSystem;
use dtm_sparse::{Dense, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The VTM wave-iteration operator `w ↦ T w` (sources zeroed).
pub struct WaveOperator {
    locals: Vec<LocalSystem>,
    /// For each (part, port): the twin's (part, port).
    routes: Vec<Vec<(usize, usize)>>,
    /// Port offsets per part into the stacked vector.
    offsets: Vec<usize>,
    /// Total stacked dimension.
    dim: usize,
}

impl WaveOperator {
    /// Build the operator for a split system under an impedance assignment.
    ///
    /// # Errors
    /// Propagates impedance/factorization failures.
    pub fn new(
        split: &SplitSystem,
        impedance: &ImpedancePolicy,
        kind: LocalSolverKind,
    ) -> Result<Self> {
        let z_dtlp = impedance.assign(split)?;
        let z_ports = per_port(split, &z_dtlp);
        let locals: Vec<LocalSystem> = split
            .subdomains
            .iter()
            .enumerate()
            .map(|(p, sd)| {
                // Zero the sources: T is the homogeneous part.
                let mut sd0 = sd.clone();
                sd0.rhs.iter_mut().for_each(|v| *v = 0.0);
                LocalSystem::new(&sd0, &z_ports[p], kind)
            })
            .collect::<Result<_>>()?;
        let routes: Vec<Vec<(usize, usize)>> = split
            .subdomains
            .iter()
            .map(|sd| {
                sd.ports
                    .iter()
                    .map(|p| (p.peer.part, p.peer.port))
                    .collect()
            })
            .collect();
        let mut offsets = Vec::with_capacity(routes.len());
        let mut dim = 0;
        for r in &routes {
            offsets.push(dim);
            dim += r.len();
        }
        Ok(Self {
            locals,
            routes,
            offsets,
            dim,
        })
    }

    /// Stacked dimension (total ports).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Apply `w_out = T w_in`.
    pub fn apply(&mut self, w_in: &[f64], w_out: &mut [f64]) {
        assert_eq!(w_in.len(), self.dim, "wave dim");
        assert_eq!(w_out.len(), self.dim, "wave dim");
        for (p, local) in self.locals.iter_mut().enumerate() {
            for q in 0..local.n_ports() {
                local.set_incident_wave(q, w_in[self.offsets[p] + q]);
            }
            local.solve();
        }
        for (p, local) in self.locals.iter().enumerate() {
            for q in 0..local.n_ports() {
                let (u, omega) = local.outgoing(q);
                let out = crate::dtl::outgoing_wave(u, omega, local.impedances()[q]);
                let (tp, tq) = self.routes[p][q];
                w_out[self.offsets[tp] + tq] = out;
            }
        }
    }

    /// Materialize `T` as a dense matrix by probing unit vectors (small
    /// port counts only — O(dim) solves).
    pub fn to_dense(&mut self) -> Dense {
        let dim = self.dim;
        let mut t = Dense::zeros(dim, dim);
        let mut e = vec![0.0; dim];
        let mut col = vec![0.0; dim];
        for j in 0..dim {
            e[j] = 1.0;
            self.apply(&e, &mut col);
            e[j] = 0.0;
            for (i, &v) in col.iter().enumerate() {
                *t.get_mut(i, j) = v;
            }
        }
        t
    }

    /// Spectral radius by power iteration with periodic re-normalization;
    /// `iters` applications (a few hundred suffice well within 1%).
    pub fn spectral_radius(&mut self, iters: usize, seed: u64) -> f64 {
        assert!(iters >= 8, "need a few iterations");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..self.dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut w = vec![0.0; self.dim];
        let mut log_growth_tail = 0.0;
        let tail_start = iters - iters / 4;
        for k in 0..iters {
            let norm = dtm_sparse::vector::norm2(&v).max(f64::MIN_POSITIVE);
            for x in v.iter_mut() {
                *x /= norm;
            }
            self.apply(&v, &mut w);
            std::mem::swap(&mut v, &mut w);
            if k >= tail_start {
                let growth = dtm_sparse::vector::norm2(&v).max(f64::MIN_POSITIVE);
                log_growth_tail += growth.ln();
            }
        }
        (log_growth_tail / (iters - tail_start) as f64).exp()
    }
}

/// Per-round contraction factor of VTM for a given uniform impedance scale:
/// the Fig. 9 "bowl" computed analytically rather than by simulation.
///
/// # Errors
/// Propagates operator construction failures.
pub fn impedance_sweep(
    split: &SplitSystem,
    scales: &[f64],
    kind: LocalSolverKind,
) -> Result<Vec<(f64, f64)>> {
    scales
        .iter()
        .map(|&s| {
            let mut op =
                WaveOperator::new(split, &ImpedancePolicy::GeometricMean { scale: s }, kind)?;
            Ok((s, op.spectral_radius(200, 42)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::paper_split;
    use dtm_graph::evs::{split as evs_split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    #[test]
    fn paper_operator_is_contractive() {
        // Theorem 6.1 implies ρ(T) < 1 for the SPD split with any Z > 0.
        let ss = paper_split();
        let mut op = WaveOperator::new(
            &ss,
            &ImpedancePolicy::PerDtlp(vec![0.2, 0.1]),
            LocalSolverKind::Dense,
        )
        .unwrap();
        assert_eq!(op.dim(), 4);
        let rho = op.spectral_radius(400, 7);
        assert!(rho < 1.0, "rho = {rho}");
        assert!(rho > 0.0);
    }

    #[test]
    fn spectral_radius_matches_observed_vtm_rate() {
        let ss = paper_split();
        let imp = ImpedancePolicy::PerDtlp(vec![0.2, 0.1]);
        let mut op = WaveOperator::new(&ss, &imp, LocalSolverKind::Dense).unwrap();
        let rho = op.spectral_radius(600, 3);
        // Observed late-stage per-round error ratio from a VTM run.
        let report = crate::DtmProblem::of_split(ss)
            .solve(&crate::Machine::LockStep {
                common: crate::runtime::CommonConfig {
                    impedance: imp,
                    termination: crate::runtime::Termination::OracleRms { tol: 1e-300 },
                    max_solves_per_node: 60,
                },
                price: None,
            })
            .unwrap();
        let s = &report.series;
        let observed = (s[s.len() - 1].1 / s[s.len() - 11].1).powf(0.1);
        assert!(
            (rho - observed).abs() < 0.05,
            "rho {rho} vs observed rate {observed}"
        );
    }

    #[test]
    fn dense_probe_agrees_with_apply() {
        let ss = paper_split();
        let mut op =
            WaveOperator::new(&ss, &ImpedancePolicy::Fixed(0.3), LocalSolverKind::Dense).unwrap();
        let t = op.to_dense();
        let w: Vec<f64> = (0..op.dim()).map(|i| (i as f64 + 1.0) * 0.5).collect();
        let mut out = vec![0.0; op.dim()];
        op.apply(&w, &mut out);
        let tv = t.matvec(&w);
        for (u, v) in out.iter().zip(&tv) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_has_interior_optimum() {
        // The Fig. 9 phenomenon: very small and very large impedances both
        // slow convergence; some interior scale is best.
        let a = generators::grid2d_laplacian(8, 8);
        let g = ElectricGraph::from_system(a, vec![0.0; 64]).unwrap();
        let asg = dtm_graph::partition::grid_strips(8, 8, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        let ss = evs_split(&g, &plan, &EvsOptions::default()).unwrap();
        let scales = [0.01, 0.1, 1.0, 10.0, 100.0];
        let sweep = impedance_sweep(&ss, &scales, LocalSolverKind::Dense).unwrap();
        let rhos: Vec<f64> = sweep.iter().map(|&(_, r)| r).collect();
        let best = rhos.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(rhos.iter().all(|&r| r < 1.0), "all contractive: {rhos:?}");
        assert!(
            best < rhos[0] && best < rhos[rhos.len() - 1],
            "interior optimum expected: {rhos:?}"
        );
    }
}
