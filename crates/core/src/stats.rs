//! Per-stage timing statistics.
//!
//! Table V of the paper profiles a K-FAC update step into factor
//! computation/communication and eigendecomposition
//! computation/communication; Fig. 10 tracks factor-computation time
//! across model sizes. [`StageStats`] accumulates exactly those buckets so
//! the harness can regenerate both.

use std::time::Duration;

/// Accumulated wall time and invocation counts per K-FAC stage.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Local Kronecker-factor computation (Algorithm 1 line 6).
    pub factor_comp: Duration,
    /// Factor allreduce (line 8).
    pub factor_comm: Duration,
    /// Eigendecomposition of assigned factors (lines 10–17).
    pub eig_comp: Duration,
    /// Eigendecomposition allgather (line 18).
    pub eig_comm: Duration,
    /// Local gradient preconditioning (line 20).
    pub precond: Duration,
    /// Number of factor-update iterations.
    pub factor_updates: u64,
    /// Number of eig-update iterations.
    pub eig_updates: u64,
    /// Total preconditioned iterations.
    pub steps: u64,
    /// Iterations that reused stale factor averages after a failed or
    /// corrupted factor exchange (graceful degradation, not schedule).
    pub stale_factor_steps: u64,
    /// Factors degraded to the damped-identity second-order state
    /// (eigendecomposition failure or corrupted payload).
    pub eig_fallbacks: u64,
    /// Layer preconditionings that ran with no second-order state at
    /// all (implicit damped identity).
    pub identity_preconds: u64,
    /// Largest per-factor eigenbasis rank retained in the most recent
    /// second-order update (the factor dimension when the exact backends
    /// ran; less when the randomized backend truncated; 0 when none yet
    /// or no telemetry recorder is installed).
    pub eig_rank: u64,
    /// Smallest per-factor captured spectral mass (Σλ_kept / tr F) in the
    /// most recent second-order update — 1.0 for exact decompositions,
    /// the adaptive-rank capture for truncated ones (0 when none yet or
    /// no telemetry recorder is installed).
    pub eig_captured_mass: f64,
}

impl StageStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean eigendecomposition time per eig update, in milliseconds.
    pub fn eig_comp_ms(&self) -> f64 {
        if self.eig_updates == 0 {
            0.0
        } else {
            self.eig_comp.as_secs_f64() * 1e3 / self.eig_updates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_divide_by_update_counts() {
        let mut s = StageStats::new();
        s.eig_comp = Duration::from_millis(90);
        s.eig_updates = 3;
        assert!((s.eig_comp_ms() - 30.0).abs() < 1e-9);
        // No division by zero.
        assert_eq!(StageStats::new().eig_comp_ms(), 0.0);
    }
}
