//! Sequential iterative solvers: the classical baselines the paper's
//! introduction positions DTM against (Gauss–Seidel/SOR as the building
//! block of multiplicative Schwarz, and CG as the standard Krylov workhorse
//! for SPD systems), and the Lanczos estimate behind the matched impedance.

pub mod cg;
pub mod lanczos;
pub mod sor;

/// Shared configuration for the stationary/Krylov solvers.
#[derive(Debug, Clone)]
pub struct IterConfig {
    /// Relative residual tolerance: stop when `‖b − Ax‖ ≤ rtol·‖b‖`.
    pub rtol: f64,
    /// Absolute residual floor (for `b = 0`).
    pub atol: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Record `‖r‖` after every iteration in [`IterResult::residual_history`].
    pub record_history: bool,
}

impl Default for IterConfig {
    fn default() -> Self {
        Self {
            rtol: 1e-10,
            atol: 1e-14,
            max_iter: 10_000,
            record_history: false,
        }
    }
}

impl IterConfig {
    /// Config with the given relative tolerance.
    pub fn with_rtol(rtol: f64) -> Self {
        Self {
            rtol,
            ..Self::default()
        }
    }

    /// Builder-style max-iteration override.
    pub fn max_iter(mut self, it: usize) -> Self {
        self.max_iter = it;
        self
    }

    /// Builder-style history recording toggle.
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// The absolute stop threshold for a given RHS norm.
    pub fn threshold(&self, b_norm: f64) -> f64 {
        (self.rtol * b_norm).max(self.atol)
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct IterResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether the tolerance was met within the budget.
    pub converged: bool,
    /// Residual after each iteration (when requested).
    pub residual_history: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_uses_floor() {
        let c = IterConfig::with_rtol(1e-6);
        assert_eq!(c.threshold(0.0), c.atol);
        assert!((c.threshold(2.0) - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn builder_chains() {
        let c = IterConfig::default().max_iter(5).record_history(true);
        assert_eq!(c.max_iter, 5);
        assert!(c.record_history);
    }
}
