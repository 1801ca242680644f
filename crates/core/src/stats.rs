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
    /// Worst per-factor condition number seen in the most recent
    /// second-order update on this rank (0 when none yet, or when no
    /// telemetry recorder is installed).
    pub max_cond: f64,
    /// KL-clip scale ν applied on the most recent iteration (1 = no
    /// clipping; 0 when no iteration has run).
    pub last_nu: f64,
    /// ‖preconditioned grad‖ / ‖raw grad‖ on the most recent iteration
    /// (0 when no telemetry recorder is installed).
    pub precond_ratio: f64,
    /// Iterations elapsed since the last completed second-order update.
    pub staleness_age: u64,
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

    /// Merge another rank's stats (for group-wide reports).
    pub fn merge(&mut self, other: &StageStats) {
        self.factor_comp += other.factor_comp;
        self.factor_comm += other.factor_comm;
        self.eig_comp += other.eig_comp;
        self.eig_comm += other.eig_comm;
        self.precond += other.precond;
        self.factor_updates += other.factor_updates;
        self.eig_updates += other.eig_updates;
        self.steps += other.steps;
        self.stale_factor_steps += other.stale_factor_steps;
        self.eig_fallbacks += other.eig_fallbacks;
        self.identity_preconds += other.identity_preconds;
        // Numerics probes are point-in-time, not additive: a group-wide
        // view keeps the worst conditioning/staleness and the most
        // recent scalar trajectory values.
        self.max_cond = self.max_cond.max(other.max_cond);
        self.staleness_age = self.staleness_age.max(other.staleness_age);
        self.eig_rank = self.eig_rank.max(other.eig_rank);
        // Group-wide capture is the *worst* rank's capture; 0 means "no
        // data", so only a reporting rank can lower it.
        if other.eig_captured_mass != 0.0 {
            self.eig_captured_mass = if self.eig_captured_mass == 0.0 {
                other.eig_captured_mass
            } else {
                self.eig_captured_mass.min(other.eig_captured_mass)
            };
        }
        if other.last_nu != 0.0 {
            self.last_nu = other.last_nu;
        }
        if other.precond_ratio != 0.0 {
            self.precond_ratio = other.precond_ratio;
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

    #[test]
    fn merge_accumulates() {
        let mut a = StageStats::new();
        a.steps = 2;
        a.factor_comm = Duration::from_millis(5);
        let mut b = StageStats::new();
        b.steps = 3;
        b.factor_comm = Duration::from_millis(7);
        a.merge(&b);
        assert_eq!(a.steps, 5);
        assert_eq!(a.factor_comm, Duration::from_millis(12));
    }
}
