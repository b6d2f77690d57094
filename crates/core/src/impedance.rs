//! Characteristic-impedance selection.
//!
//! Theorem 6.1 guarantees convergence for *any* positive impedances, but §5
//! (Fig. 9) shows the choice governs convergence *speed*: "we could speedup
//! DTM if the characteristic impedances of DTLPs are carefully chosen."
//!
//! | policy | `z` of a DTLP between copies with diagonals `dₐ`, `d_b` |
//! |---|---|
//! | [`Matched`](ImpedancePolicy::Matched) (default) | `s / √(dₐ·d_b)`, one global `s` worked out from the torn system |
//! | [`GeometricMean { scale }`](ImpedancePolicy::GeometricMean) | `scale / √(dₐ·d_b)` — the explicit form the Fig. 9 sweeps use |
//! | [`Fixed(z)`](ImpedancePolicy::Fixed) | `z` |
//! | [`PerDtlp(zs)`](ImpedancePolicy::PerDtlp) | `zs[i]` — Example 5.1's `Z₂ = 0.2, Z₃ = 0.1` |
//!
//! # The matched scale
//!
//! Rounds to a tolerance `tol` against the scale `s` are a V on a log–log
//! plot, `rounds(s) ≈ max(R₁/s, c·s)` (README, "Choosing the impedance"),
//! and the two branches are two modes of the wave iteration; `L = ln(1/tol)`:
//!
//! * **Left, slope −1: the slowest global mode.** A subdomain that floats
//!   (touches no Dirichlet boundary) presents the lowest eigenmode of `A`,
//!   eigenvalue `μ` per unit of diagonal, with the lumped admittance
//!   `μ·Σ_{i∈part} a_ii` spread over its ports, to lines of admittance
//!   `1/z = √(dₐ d_b)/s`. A line reflects a load of admittance `y ≪ 1/z`
//!   with coefficient `1 − 2yz`; summed over the ports that is a per-round
//!   contraction of `1 − 2μs/Γ`, where `Γ = Σ_ports √(dₐ d_b) / Σ_i a_ii`
//!   is the port admittance at scale 1 per unit of diagonal. So
//!   `R₁ ≈ (L/2)·Γ/μ` (measured `R₁·μ/Γ` on the three benchmark systems:
//!   8.1, 9.7, 11.1, against `L/2 = 6.9` at `tol = 10⁻⁶`).
//! * **Right, slope +1: the stiffest interface mode**, of admittance
//!   `β·√(dₐ d_b)` per port, which a line `s` times weaker reflects with
//!   coefficient `−(1 − 2/(βs))`: `c ≈ (L/2)·β`, and `β ≈ 2` (measured
//!   1.6–1.7 on slabs and boxes, 3.7 on 11 × 11 parts full of cross
//!   points).
//!
//! They cross at `s* = √(Γ/(β μ))`, and the rule is
//! **`s = max(1, √(min(Γ, ¼) / (2 μ̂)))`**:
//!
//! * `μ̂` is the smallest Ritz value of 16 Lanczos steps
//!   ([`dtm_sparse::lanczos`]) on `D^-½ A D^-½`, started from
//!   `D^½·1` — the ones vector in unscaled coordinates, which is the exact
//!   lowest eigenvector of a Neumann-plus-margin system and overlaps the
//!   lowest Dirichlet mode, so 16 steps land within 2× of `λ_min` where a
//!   random start needs ≈ √κ. One pass over the subdomain matrices
//!   (`Σ_p R_pᵀ A_p R_p = A`, never reassembled) takes the diagonal and a
//!   scaled copy of the strict upper triangle — `A` is symmetric and the
//!   scaled diagonal is 1, so that is the whole operator in under half
//!   the bytes — and the 16 steps stream the copy.
//! * `max(1, ·)` keeps the locally matched value where screening makes the
//!   lumped model wrong (strongly dominant systems: the paper's margin-1
//!   random grids have their bowl minimum at 1–2).
//! * `min(Γ, ¼)` is the one measured correction: on expander-like graphs
//!   nearly every vertex is a port (`Γ ≈ 0.8`), there is no interior to
//!   lump, and the uncapped rule overshoots.
//! * `μ̂` not a positive number (a singular or indefinite matrix, a zero
//!   diagonal) gives `s = 1`, and the defect surfaces where it always did —
//!   at the factorization or as an unconverged report.
//!
//! The scale reads the matrix only — not the right-hand side, the executor
//! or the thread count — so it is a pure function of the split, bit for bit.

use dtm_graph::evs::SplitSystem;
use dtm_sparse::lanczos;
use dtm_sparse::{Error, Result};
use std::cmp::Ordering;

/// Lanczos steps behind [`ImpedancePolicy::Matched`]'s spectral estimate.
const LANCZOS_STEPS: usize = 16;

/// Smallest `μ̂` taken for an eigenvalue rather than the rounding noise of
/// a singular matrix (the spectrum of `D^-½ A D^-½` has unit scale).
const MU_FLOOR: f64 = 1e-12;

/// How to assign the characteristic impedance of each DTLP.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ImpedancePolicy {
    /// The same impedance for every DTLP.
    Fixed(f64),
    /// One explicit impedance per DTLP (indexed like `SplitSystem::dtlps`);
    /// reproduces Example 5.1's `Z₂ = 0.2, Z₃ = 0.1` exactly.
    PerDtlp(Vec<f64>),
    /// Admittance matching: `z = scale / √(dₐ · d_b)` where `dₐ`, `d_b` are
    /// the split diagonal weights of the DTLP's two copy vertices. The
    /// diagonal of an electric graph is an admittance, so its inverse
    /// square-root mean is a natural impedance scale.
    GeometricMean {
        /// Multiplier on the matched impedance.
        scale: f64,
    },
    /// [`GeometricMean`](Self::GeometricMean) with the scale worked out
    /// from the torn system's spectrum at [`assign`](Self::assign) time —
    /// see the [module docs](self) for the rule.
    #[default]
    Matched,
}

impl ImpedancePolicy {
    /// Resolve the policy into one impedance per DTLP.
    ///
    /// # Errors
    /// Rejects non-positive impedances (Theorem 6.1 requires `z > 0`) and
    /// length mismatches for [`ImpedancePolicy::PerDtlp`].
    pub fn assign(&self, split: &SplitSystem) -> Result<Vec<f64>> {
        let n = split.dtlps.len();
        let zs = match self {
            ImpedancePolicy::Fixed(z) => vec![*z; n],
            ImpedancePolicy::PerDtlp(zs) => {
                if zs.len() != n {
                    return Err(Error::DimensionMismatch {
                        context: "ImpedancePolicy::PerDtlp",
                        expected: n,
                        actual: zs.len(),
                    });
                }
                zs.clone()
            }
            ImpedancePolicy::GeometricMean { scale } => {
                matched_lines(dtlp_admittances(split), *scale)
            }
            ImpedancePolicy::Matched => {
                let admittances = dtlp_admittances(split);
                let scale = Matching::with_admittances(split, &admittances).scale;
                matched_lines(admittances, scale)
            }
        };
        for (i, &z) in zs.iter().enumerate() {
            if !(z > 0.0 && z.is_finite()) {
                return Err(Error::Parse(format!(
                    "DTLP {i}: impedance must be positive and finite, got {z}"
                )));
            }
        }
        Ok(zs)
    }
}

/// `√(dₐ·d_b)` per DTLP: the admittance of its locally matched line.
fn dtlp_admittances(split: &SplitSystem) -> Vec<f64> {
    split
        .dtlps
        .iter()
        .map(|d| {
            let da = copy_diag(split, d.a);
            let db = copy_diag(split, d.b);
            (da * db).max(f64::MIN_POSITIVE).sqrt()
        })
        .collect()
}

/// `scale / √(dₐ·d_b)` per DTLP, from its admittance at scale 1.
fn matched_lines(mut admittances: Vec<f64>, scale: f64) -> Vec<f64> {
    admittances.iter_mut().for_each(|y| *y = scale / *y);
    admittances
}

/// Diagonal weight of the copy vertex a port sits on.
fn copy_diag(split: &SplitSystem, port: dtm_graph::evs::PortRef) -> f64 {
    let sd = &split.subdomains[port.part];
    let lv = sd.ports[port.port].local_vertex;
    sd.matrix.get(lv, lv).abs()
}

/// What [`ImpedancePolicy::Matched`] read off a torn system (module docs)
/// — the scale it assigns with and the two numbers behind it, for
/// diagnostics (`repro sweep-z` prints them beside the swept bowl).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matching {
    /// `μ̂`: smallest Ritz value of `D^-½ A D^-½` (NaN when there is no
    /// estimate: the diagonal is not positive).
    pub mu: f64,
    /// `Γ`: port admittance at scale 1 per unit of diagonal.
    pub gamma: f64,
    /// `s = max(1, √(min(Γ, ¼) / (2 μ̂)))`, or 1 when `μ̂` is not a positive
    /// number (NaN, or no larger than the rounding noise of a singular
    /// matrix).
    pub scale: f64,
}

impl Matching {
    /// Estimate `μ̂` and `Γ` of `split` and apply the rule.
    pub fn of(split: &SplitSystem) -> Self {
        Self::with_admittances(split, &dtlp_admittances(split))
    }

    /// [`of`](Self::of), given the per-DTLP admittances at scale 1.
    fn with_admittances(split: &SplitSystem, admittances: &[f64]) -> Self {
        // Rows are held as `u32` below; a larger system keeps s = 1.
        if u32::try_from(split.original_n).is_err() {
            return Self {
                mu: f64::NAN,
                gamma: f64::NAN,
                scale: 1.0,
            };
        }
        // One pass over the subdomain matrices (`Σ_p R_pᵀ A_p R_p = A`,
        // never reassembled): diag(A) — a split vertex's weight is the sum
        // over its copies — and, `A` being symmetric, its strict upper
        // triangle as (row, column, value) in global numbering, 16 bytes
        // an entry and half as many entries as the rows hold.
        let mut diag = vec![0.0; split.original_n];
        let stored: usize = split.subdomains.iter().map(|sd| sd.matrix.nnz()).sum();
        let mut upper: Vec<(u32, u32, f64)> = Vec::with_capacity(stored / 2);
        for sd in &split.subdomains {
            let globals = &sd.global_of_local;
            let (row_ptr, cols, vals) =
                (sd.matrix.row_ptr(), sd.matrix.col_idx(), sd.matrix.values());
            for (l, &g) in globals.iter().enumerate() {
                let (lo, hi) = (row_ptr[l], row_ptr[l + 1]);
                for (&c, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                    match c.cmp(&l) {
                        Ordering::Equal => diag[g] += v,
                        Ordering::Greater => upper.push((g as u32, globals[c] as u32, v)),
                        Ordering::Less => {}
                    }
                }
            }
        }
        // Every DTLP ends in two ports.
        let gamma = 2.0 * admittances.iter().sum::<f64>() / diag.iter().sum::<f64>();
        // The start vector D^½·1. A negative or zero diagonal entry turns
        // into NaN/∞ here and the estimate into NaN: the fallback below,
        // not a panic.
        let mut start = diag;
        start.iter_mut().for_each(|d| *d = d.sqrt());
        for (i, j, v) in &mut upper {
            *v /= start[*i as usize] * start[*j as usize];
        }
        // y ← D^-½ A D^-½ x: the scaled matrix has a unit diagonal, and
        // every off-diagonal pair is read once.
        let apply = |x: &[f64], y: &mut [f64]| {
            y.copy_from_slice(x);
            for &(i, j, v) in &upper {
                let (i, j) = (i as usize, j as usize);
                y[i] += v * x[j];
                y[j] += v * x[i];
            }
        };
        let mu = lanczos::smallest_ritz(apply, &start, LANCZOS_STEPS);
        let scale = if mu > MU_FLOOR {
            (gamma.min(0.25) / (2.0 * mu)).sqrt().max(1.0)
        } else {
            1.0
        };
        Self { mu, gamma, scale }
    }
}

/// Impedances per *port* from impedances per DTLP (both ports of a DTLP
/// share its impedance, as §5 requires).
pub fn per_port(split: &SplitSystem, z_per_dtlp: &[f64]) -> Vec<Vec<f64>> {
    split
        .subdomains
        .iter()
        .map(|sd| sd.ports.iter().map(|p| z_per_dtlp[p.dtlp]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::evs::{paper_example_shares, split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    fn paper_split() -> SplitSystem {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: paper_example_shares(),
            ..Default::default()
        };
        split(&g, &plan, &options).unwrap()
    }

    #[test]
    fn fixed_assigns_everywhere() {
        let ss = paper_split();
        let z = ImpedancePolicy::Fixed(0.25).assign(&ss).unwrap();
        assert_eq!(z, vec![0.25, 0.25]);
    }

    #[test]
    fn per_dtlp_reproduces_example_5_1() {
        // Z₂ = 0.2 between V2a/V2b, Z₃ = 0.1 between V3a/V3b.
        let ss = paper_split();
        assert_eq!(ss.dtlps[0].vertex, 1);
        assert_eq!(ss.dtlps[1].vertex, 2);
        let z = ImpedancePolicy::PerDtlp(vec![0.2, 0.1])
            .assign(&ss)
            .unwrap();
        assert_eq!(z, vec![0.2, 0.1]);
        let ports = per_port(&ss, &z);
        // Twin ports of one DTLP share the impedance.
        assert_eq!(ports[0], vec![0.2, 0.1]);
        assert_eq!(ports[1], vec![0.2, 0.1]);
    }

    #[test]
    fn geometric_mean_uses_copy_diagonals() {
        let ss = paper_split();
        let z = ImpedancePolicy::GeometricMean { scale: 1.0 }
            .assign(&ss)
            .unwrap();
        // V2 copies have diagonals 2.5 and 3.5; V3 copies 3.3 and 3.7.
        assert!((z[0] - 1.0 / (2.5_f64 * 3.5).sqrt()).abs() < 1e-14);
        assert!((z[1] - 1.0 / (3.3_f64 * 3.7).sqrt()).abs() < 1e-14);
        let doubled = ImpedancePolicy::GeometricMean { scale: 2.0 }
            .assign(&ss)
            .unwrap();
        assert_eq!(doubled, vec![2.0 * z[0], 2.0 * z[1]]);
    }

    #[test]
    fn matched_keeps_the_local_match_on_example_5_1() {
        // System (3.2) is strongly dominant (μ̂ ≈ 0.3) and half its
        // vertices are ports: the rule gives √(¼ / 2μ̂) < 1, so s = 1 and
        // the default assigns the same two values as the explicit form.
        let ss = paper_split();
        let m = Matching::of(&ss);
        assert_eq!(m.scale, 1.0, "{m:?}");
        assert!(m.mu > 0.2 && m.mu < 0.5 && m.gamma > 0.25, "{m:?}");
        let z = ImpedancePolicy::default().assign(&ss).unwrap();
        let explicit = ImpedancePolicy::GeometricMean { scale: 1.0 }
            .assign(&ss)
            .unwrap();
        assert_eq!(z, explicit);
    }

    #[test]
    fn nonpositive_rejected() {
        let ss = paper_split();
        assert!(ImpedancePolicy::Fixed(0.0).assign(&ss).is_err());
        assert!(ImpedancePolicy::Fixed(-1.0).assign(&ss).is_err());
        assert!(ImpedancePolicy::PerDtlp(vec![0.5, f64::NAN])
            .assign(&ss)
            .is_err());
    }

    #[test]
    fn per_dtlp_length_checked() {
        let ss = paper_split();
        assert!(ImpedancePolicy::PerDtlp(vec![0.5]).assign(&ss).is_err());
    }
}
