//! Validation of an EVS split against the hypotheses of convergence
//! Theorem 6.1 and the exact-reconstruction invariant.

use crate::evs::SplitSystem;
use dtm_sparse::cholesky::{Definiteness, DenseLdlt};
use dtm_sparse::{Csr, Error, Result};

/// Outcome of [`check_theorem_hypothesis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TheoremCheck {
    /// Per-part classification.
    pub parts: Vec<Definiteness>,
    /// Number of strictly SPD subdomains.
    pub n_spd: usize,
    /// Whether Theorem 6.1's hypothesis holds: every part SNND and at least
    /// one SPD.
    pub satisfied: bool,
}

/// Classify every subdomain matrix; Theorem 6.1 requires all parts SNND
/// (PSD) with at least one strictly SPD.
pub fn check_theorem_hypothesis(ss: &SplitSystem, tol: f64) -> TheoremCheck {
    let parts: Vec<Definiteness> = ss
        .subdomains
        .iter()
        .map(|sd| DenseLdlt::classify_csr(&sd.matrix, tol))
        .collect();
    let n_spd = parts
        .iter()
        .filter(|&&d| d == Definiteness::PositiveDefinite)
        .count();
    let all_snnd = parts.iter().all(|&d| d != Definiteness::Indefinite);
    TheoremCheck {
        satisfied: all_snnd && n_spd >= 1,
        n_spd,
        parts,
    }
}

/// Verify the split subsystems sum back to the original `(A, b)` within
/// `tol` (relative to the largest entry magnitude).
///
/// # Errors
/// [`Error::Parse`] describing the first mismatching entry.
pub fn check_reconstruction(ss: &SplitSystem, a: &Csr, b: &[f64], tol: f64) -> Result<()> {
    let (a2, b2) = ss.reconstruct()?;
    if a2.n_rows() != a.n_rows() {
        return Err(Error::DimensionMismatch {
            context: "check_reconstruction",
            expected: a.n_rows(),
            actual: a2.n_rows(),
        });
    }
    let scale = a.max_abs().max(1.0);
    for r in 0..a.n_rows() {
        for (c, v) in a.row(r) {
            let v2 = a2.get(r, c);
            if (v - v2).abs() > tol * scale {
                return Err(Error::Parse(format!(
                    "reconstruction mismatch at A({r}, {c}): {v} vs {v2}"
                )));
            }
        }
        // Also catch spurious entries the original lacks.
        for (c, v2) in a2.row(r) {
            if a.get(r, c) == 0.0 && v2.abs() > tol * scale {
                return Err(Error::Parse(format!(
                    "reconstruction created spurious entry A({r}, {c}) = {v2}"
                )));
            }
        }
    }
    let bscale = b.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
    for (i, (u, v)) in b.iter().zip(&b2).enumerate() {
        if (u - v).abs() > tol * bscale {
            return Err(Error::Parse(format!(
                "reconstruction mismatch at b[{i}]: {u} vs {v}"
            )));
        }
    }
    Ok(())
}

/// Structural sanity of the DTLP wiring: peers are mutual, dtlp indices
/// consistent, ports sit on copy vertices.
///
/// # Errors
/// [`Error::Parse`] describing the first inconsistency.
pub fn check_wiring(ss: &SplitSystem) -> Result<()> {
    for (pi, sd) in ss.subdomains.iter().enumerate() {
        if sd.part != pi {
            return Err(Error::Parse(format!(
                "subdomain at position {pi} claims part {}",
                sd.part
            )));
        }
        for (qi, port) in sd.ports.iter().enumerate() {
            if port.local_vertex >= sd.n_copies {
                return Err(Error::Parse(format!(
                    "part {pi} port {qi} sits on non-copy vertex {}",
                    port.local_vertex
                )));
            }
            let peer_sd = ss
                .subdomains
                .get(port.peer.part)
                .ok_or_else(|| Error::Parse(format!("part {pi} port {qi}: bad peer part")))?;
            let peer = peer_sd
                .ports
                .get(port.peer.port)
                .ok_or_else(|| Error::Parse(format!("part {pi} port {qi}: bad peer port")))?;
            if peer.peer.part != pi || peer.peer.port != qi {
                return Err(Error::Parse(format!(
                    "part {pi} port {qi}: peer does not point back"
                )));
            }
            if peer.dtlp != port.dtlp {
                return Err(Error::Parse(format!(
                    "part {pi} port {qi}: dtlp id mismatch"
                )));
            }
            if peer.global_vertex != port.global_vertex {
                return Err(Error::Parse(format!(
                    "part {pi} port {qi}: twin ports belong to different vertices"
                )));
            }
        }
    }
    // Each DTLP's endpoints must reference each other.
    for (di, d) in ss.dtlps.iter().enumerate() {
        let pa = &ss.subdomains[d.a.part].ports[d.a.port];
        let pb = &ss.subdomains[d.b.part].ports[d.b.port];
        if pa.dtlp != di || pb.dtlp != di {
            return Err(Error::Parse(format!("dtlp {di}: endpoint ids disagree")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electric::ElectricGraph;
    use crate::evs::{split, EvsOptions};
    use crate::partition;
    use crate::plan::PartitionPlan;
    use dtm_sparse::generators;

    fn split_grid(
        nx: usize,
        ny: usize,
        px: usize,
        py: usize,
        seed: u64,
    ) -> (SplitSystem, Csr, Vec<f64>) {
        let a = generators::grid2d_random(nx, ny, 1.0, seed);
        let b = generators::random_rhs(a.n_rows(), seed + 1);
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let asg = partition::grid_blocks(nx, ny, px, py);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        (split(&g, &plan, &EvsOptions::default()).unwrap(), a, b)
    }

    #[test]
    fn theorem_hypothesis_on_dominant_grid() {
        let (ss, _, _) = split_grid(8, 8, 2, 2, 3);
        let check = check_theorem_hypothesis(&ss, 1e-10);
        assert!(check.satisfied, "classes {:?}", check.parts);
        assert!(check.n_spd >= 1);
    }

    #[test]
    fn reconstruction_of_block_split() {
        let (ss, a, b) = split_grid(10, 7, 3, 2, 9);
        check_reconstruction(&ss, &a, &b, 1e-12).unwrap();
    }

    #[test]
    fn wiring_is_consistent() {
        let (ss, _, _) = split_grid(9, 9, 3, 3, 5);
        check_wiring(&ss).unwrap();
    }

    #[test]
    fn reconstruction_detects_tampering() {
        let (mut ss, a, b) = split_grid(6, 6, 2, 2, 1);
        // Corrupt one subdomain diagonal entry.
        let vals = ss.subdomains[0].matrix.values_mut();
        vals[0] += 0.5;
        assert!(check_reconstruction(&ss, &a, &b, 1e-12).is_err());
    }

    #[test]
    fn wiring_detects_tampering() {
        let (mut ss, _, _) = split_grid(6, 6, 2, 2, 2);
        let p = ss.subdomains[0].ports[0].peer;
        ss.subdomains[0].ports[0].peer = crate::evs::PortRef {
            part: p.part,
            port: p.port + 1,
        };
        assert!(check_wiring(&ss).is_err());
    }

    #[test]
    fn paper_example_satisfies_theorem() {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a, b).unwrap();
        let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).unwrap();
        let options = EvsOptions {
            explicit: crate::evs::paper_example_shares(),
            ..Default::default()
        };
        let ss = split(&g, &plan, &options).unwrap();
        let check = check_theorem_hypothesis(&ss, 1e-10);
        // Both (4.1) and (4.2) are strictly SPD.
        assert_eq!(check.n_spd, 2);
        assert!(check.satisfied);
    }
}
