//! The electric graph of a symmetric linear system (paper §3).
//!
//! "It is easy to know that an electric graph is one-to-one mapped to a
//! symmetric linear system" — this module *is* that bijection.

use dtm_sparse::{Csr, Error, Result};

/// An electric graph: a symmetric sparse matrix plus per-vertex sources.
///
/// Terminology (paper §3): for the system `A x = b`,
/// * `a_ii` is the **weight of vertex** `V_i`,
/// * `a_ij (i ≠ j)` is the **weight of edge** `E_ij`,
/// * `b_i` is the **source** of `V_i`,
/// * `x_i` is the **potential** of `V_i` (the unknown).
#[derive(Debug, Clone, PartialEq)]
pub struct ElectricGraph {
    a: Csr,
    b: Vec<f64>,
}

impl ElectricGraph {
    /// Build from a symmetric system.
    ///
    /// # Errors
    /// * [`Error::NotSymmetric`] if `a` is not symmetric within `1e-12`
    ///   relative tolerance;
    /// * [`Error::DimensionMismatch`] if `b` has the wrong length.
    pub fn from_system(a: Csr, b: Vec<f64>) -> Result<Self> {
        a.require_symmetric(1e-12)?;
        if b.len() != a.n_rows() {
            return Err(Error::DimensionMismatch {
                context: "ElectricGraph::from_system",
                expected: a.n_rows(),
                actual: b.len(),
            });
        }
        Ok(Self { a, b })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// The coefficient matrix.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// The sources (right-hand side).
    pub fn sources(&self) -> &[f64] {
        &self.b
    }

    /// Weight of vertex `i` (`a_ii`).
    pub fn vertex_weight(&self, i: usize) -> f64 {
        self.a.get(i, i)
    }

    /// Weight of edge `(i, j)`; zero means "no edge".
    pub fn edge_weight(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.a.get(i, j)
        }
    }

    /// Source of vertex `i` (`b_i`).
    pub fn source(&self, i: usize) -> f64 {
        self.b[i]
    }

    /// Neighbours of vertex `i` with their edge weights (diagonal excluded).
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.a.row(i).filter(move |&(c, _)| c != i)
    }

    /// Degree of vertex `i` (number of incident edges).
    pub fn degree(&self, i: usize) -> usize {
        self.neighbors(i).count()
    }

    /// Total number of (undirected) edges.
    pub fn n_edges(&self) -> usize {
        (self.a.nnz()
            - (0..self.n())
                .filter(|&i| self.vertex_weight(i) != 0.0)
                .count())
            / 2
    }

    /// Recover the linear system (the inverse of [`Self::from_system`]).
    pub fn to_system(&self) -> (Csr, Vec<f64>) {
        (self.a.clone(), self.b.clone())
    }

    /// Sum of inflow = `Σ_j a_ij x_j − b_i` at vertex `i` given potentials
    /// `x`: the Kirchhoff residual that EVS's inflow currents account for.
    pub fn kirchhoff_residual(&self, x: &[f64]) -> Vec<f64> {
        let mut r = self.a.matvec(x);
        for (ri, bi) in r.iter_mut().zip(&self.b) {
            *ri -= bi;
        }
        r
    }
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
    fn example_3_1_weights_match_figure_3() {
        // Fig. 3: vertex weights 5, 6, 7, 8; edges V1V2=−1, V1V3=−1,
        // V2V3=−2, V2V4=−1, V3V4=−2; sources 1, 2, 3, 4.
        let g = paper_graph();
        assert_eq!(g.n(), 4);
        assert_eq!(
            (0..4).map(|i| g.vertex_weight(i)).collect::<Vec<_>>(),
            vec![5.0, 6.0, 7.0, 8.0]
        );
        assert_eq!(g.edge_weight(0, 1), -1.0);
        assert_eq!(g.edge_weight(0, 2), -1.0);
        assert_eq!(g.edge_weight(1, 2), -2.0);
        assert_eq!(g.edge_weight(1, 3), -1.0);
        assert_eq!(g.edge_weight(2, 3), -2.0);
        assert_eq!(g.edge_weight(0, 3), 0.0, "V1 and V4 are not connected");
        assert_eq!(g.sources(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (a, b) = generators::paper_example_system();
        let g = ElectricGraph::from_system(a.clone(), b.clone()).unwrap();
        let (a2, b2) = g.to_system();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn asymmetric_matrix_rejected() {
        let mut coo = dtm_sparse::Coo::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(0, 1, 0.5).unwrap();
        let err = ElectricGraph::from_system(coo.to_csr(), vec![0.0, 0.0]);
        assert!(matches!(err, Err(Error::NotSymmetric { .. })));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let (a, _) = generators::paper_example_system();
        let err = ElectricGraph::from_system(a, vec![0.0; 3]);
        assert!(matches!(err, Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn neighbors_and_degree() {
        let g = paper_graph();
        let n1: Vec<usize> = g.neighbors(1).map(|(c, _)| c).collect();
        assert_eq!(n1, vec![0, 2, 3]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn kirchhoff_residual_vanishes_at_solution() {
        let g = paper_graph();
        let (a, b) = g.to_system();
        let x = dtm_sparse::DenseCholesky::factor_csr(&a).unwrap().solve(&b);
        let r = g.kirchhoff_residual(&x);
        for v in r {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn potential_self_edge_weight_is_zero() {
        let g = paper_graph();
        assert_eq!(g.edge_weight(2, 2), 0.0);
    }
}
