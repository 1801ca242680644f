//! K-FAC preconditioner configuration.
//!
//! Gathers every hyper-parameter §V-C introduces: damping γ and its decay
//! schedule, the KL-clip constant κ, the eigendecomposition update
//! interval (`kfac-update-freq`) and its decay schedule, the 10× factor
//! update multiplier, the running-average weight ξ, the inversion method
//! (Table I's comparison axis) and the distribution strategy
//! (K-FAC-lw vs K-FAC-opt, §VI-C3).

/// How `(F̂ + γI)⁻¹ ∇L` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InversionMethod {
    /// Implicit inverse via the eigendecomposition expansion of
    /// Eq. 13–15 — the paper's choice (Table I shows it preserving
    /// accuracy at large batch).
    Eigen,
    /// Explicit inverse `(A+γI)⁻¹, (G+γI)⁻¹` of Eq. 11 — the variant
    /// Table I shows degrading as batch size grows.
    ExplicitInverse,
}

/// Which symmetric-eigendecomposition backend evaluates the factor
/// spectra (both satisfy the same wire contract; the exact solver is the
/// default, and the randomized backend trades a controlled slice
/// of spectral mass for a speedup on large factors with decaying
/// spectra). Cyclic Jacobi (`kfac_tensor::eigh`) is the exact solver's
/// non-convergence backstop and the test oracle, not a selectable backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigenSolver {
    /// The exact solver, `kfac_tensor::eigh_tridiag`: Householder
    /// tridiagonalization, then divide and conquer and a blocked
    /// back-transform (implicit-shift QL below its crossover). The name is
    /// the one it had when QL was the whole route.
    TridiagonalQl,
    /// Randomized truncated decomposition (`kfac_tensor::eigh_randomized`)
    /// with adaptive rank selection per [`RandEigPolicy`]; falls back to
    /// the exact QL path on small factors, poor spectral capture, or
    /// solver failure.
    Randomized,
}

impl EigenSolver {
    /// Stable name used in telemetry tags and accepted by [`EigenSolver::parse`].
    pub fn name(self) -> &'static str {
        match self {
            EigenSolver::TridiagonalQl => "tridiag",
            EigenSolver::Randomized => "randomized",
        }
    }

    /// Parse the `KFAC_EIG_BACKEND` spelling (aliases accepted).
    pub fn parse(s: &str) -> Option<EigenSolver> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tridiag" | "ql" | "tridiagonal-ql" | "tridiagonal_ql" => {
                Some(EigenSolver::TridiagonalQl)
            }
            "randomized" | "rand" | "rsvd" => Some(EigenSolver::Randomized),
            _ => None,
        }
    }
}

/// Adaptive-rank policy for the [`EigenSolver::Randomized`] backend.
///
/// The preconditioner starts at a small sketch rank, measures the
/// captured spectral mass `Σλ_kept / trace`, and doubles the rank until
/// the capture reaches `mass_threshold`. If the cap
/// (`max_rank_frac · n`) is hit without reaching the threshold — a slow
/// spectrum where truncation would genuinely hurt — the factor is solved
/// exactly instead, so accuracy degrades toward the exact path, never
/// away from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandEigPolicy {
    /// Factors below this dimension always use the exact QL path: at
    /// small `n` the sketch GEMMs cost more than the exact solve. The
    /// default is the smallest dimension in `BENCH_eig.json` from which
    /// the adaptive solve beats exact QL.
    pub min_dim: usize,
    /// Starting rank (also floored at `n/16`).
    pub init_rank: usize,
    /// Oversampling columns added to every sketch.
    pub oversample: usize,
    /// Subspace (power) iterations per sketch.
    pub power_iters: usize,
    /// Required captured spectral mass in `(0, 1]`.
    pub mass_threshold: f64,
    /// Rank cap as a fraction of `n`; past it the exact solver is both
    /// faster and better, so the policy falls back. The default is the
    /// largest fraction in `BENCH_eig.json` whose sketch beats exact QL
    /// at every dimension from `min_dim` up.
    pub max_rank_frac: f64,
    /// Deterministic sketch seed (identical on every rank and rerun).
    pub seed: u64,
}

impl Default for RandEigPolicy {
    fn default() -> Self {
        RandEigPolicy {
            min_dim: 64,
            init_rank: 16,
            oversample: 8,
            power_iters: 2,
            mass_threshold: 0.99,
            max_rank_frac: 0.125,
            seed: 0x7A11_EED5,
        }
    }
}

impl RandEigPolicy {
    /// Initial sketch rank for an `n×n` factor.
    pub fn initial_rank(&self, n: usize) -> usize {
        self.init_rank.max(n / 16).clamp(1, n.max(1))
    }

    /// Largest rank the adaptive loop will try for an `n×n` factor.
    pub fn max_rank(&self, n: usize) -> usize {
        ((n as f64 * self.max_rank_frac) as usize).clamp(1, n.max(1))
    }
}

/// How K-FAC work is distributed across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistStrategy {
    /// The paper's optimized scheme (K-FAC-opt): each *factor* is
    /// assigned to a rank; eigendecompositions are allgathered; every
    /// rank preconditions all layers locally. Decoupling eig updates
    /// from preconditioning lets non-update iterations skip all K-FAC
    /// communication (§IV-C).
    Opt,
    /// The layer-wise scheme of Osawa et al. \[6\] (K-FAC-lw): one rank
    /// owns a whole layer, computes both eigendecompositions *and* the
    /// preconditioned gradient, and communicates preconditioned
    /// gradients every iteration.
    Lw,
}

/// How factors are placed onto ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Greedy round-robin by factor index — the paper's implementation
    /// (§VI-C4 identifies the resulting size imbalance as the scaling
    /// bottleneck, Table VI).
    RoundRobin,
    /// Longest-processing-time-first using `dim³` as the eig-cost
    /// heuristic — the placement policy the paper proposes as future
    /// work in §VI-C4, implemented here as an extension.
    SizeBalanced,
}

/// Full preconditioner configuration.
#[derive(Debug, Clone)]
pub struct KfacConfig {
    /// Tikhonov damping γ added to the Kronecker eigenvalue products
    /// (paper default 0.001 for ImageNet, §VI-C1).
    pub damping: f32,
    /// KL-clip constant κ of Eq. 18 (order 1e-3); `None` disables
    /// gradient rescaling.
    pub kl_clip: Option<f32>,
    /// `kfac-update-freq`: iterations between eigendecomposition
    /// (or explicit-inverse) updates.
    pub update_freq: usize,
    /// Factors are recomputed and averaged this many times per eig
    /// update (paper: 10 — "a frequency of 10× kfac-update-freq").
    pub factor_freq_multiplier: usize,
    /// Running-average weight ξ of Eq. 16–17, typically in `[0.9, 1)`.
    pub running_avg: f32,
    /// Inversion method.
    pub inversion: InversionMethod,
    /// Eigendecomposition backend for the eigen path.
    pub eigen_solver: EigenSolver,
    /// Adaptive-rank policy used when `eigen_solver` is
    /// [`EigenSolver::Randomized`] (ignored otherwise).
    pub rand_eig: RandEigPolicy,
    /// Distribution strategy.
    pub strategy: DistStrategy,
    /// Placement policy for factor → rank assignment.
    pub placement: PlacementPolicy,
    /// Damping decay: at each listed epoch, γ is multiplied by
    /// `damping_decay_factor` (§V-C: "reduce the damping by a fixed
    /// scalar quantity at fixed epochs").
    pub damping_decay_epochs: Vec<usize>,
    /// Multiplier applied to γ at each decay epoch.
    pub damping_decay_factor: f32,
    /// Update-frequency decay: `(epoch, new_update_freq)` pairs applied
    /// in order (§V-C: "at fixed training epochs, we decrease
    /// kfac-update-freq").
    pub update_freq_schedule: Vec<(usize, usize)>,
    /// Exchange only the upper triangle of each (symmetric) factor in the
    /// fused allreduce, cutting factor traffic almost in half — an
    /// implementation of the paper's stated future work to "reduce
    /// communication quantity" (§VII).
    pub triangular_factor_comm: bool,
    /// Wire precision policy (gradient and K-FAC collective dtypes). The
    /// default — f32 on both — is bitwise identical to builds predating
    /// the half-width wire.
    pub precision: crate::precision::PrecisionPolicy,
}

impl Default for KfacConfig {
    fn default() -> Self {
        KfacConfig {
            damping: 0.001,
            kl_clip: Some(0.001),
            update_freq: 10,
            factor_freq_multiplier: 10,
            running_avg: 0.95,
            inversion: InversionMethod::Eigen,
            eigen_solver: EigenSolver::TridiagonalQl,
            rand_eig: RandEigPolicy::default(),
            strategy: DistStrategy::Opt,
            placement: PlacementPolicy::RoundRobin,
            damping_decay_epochs: Vec::new(),
            damping_decay_factor: 0.5,
            update_freq_schedule: Vec::new(),
            triangular_factor_comm: true,
            precision: crate::precision::PrecisionPolicy::default(),
        }
    }
}

impl KfacConfig {
    /// Iterations between factor recomputations: `update_freq /
    /// factor_freq_multiplier`, at least 1.
    pub fn factor_interval(&self) -> usize {
        (self.update_freq / self.factor_freq_multiplier).max(1)
    }

    /// Damping after the decays scheduled at or before `epoch`.
    pub fn damping_at(&self, epoch: usize) -> f32 {
        let drops = self
            .damping_decay_epochs
            .iter()
            .filter(|&&e| epoch >= e)
            .count();
        self.damping * self.damping_decay_factor.powi(drops as i32)
    }

    /// Eig-update interval in force at `epoch`.
    pub fn update_freq_at(&self, epoch: usize) -> usize {
        let mut freq = self.update_freq;
        for &(e, f) in &self.update_freq_schedule {
            if epoch >= e {
                freq = f;
            }
        }
        freq
    }

    /// Validate invariants (call once at construction sites).
    pub fn validate(&self) {
        assert!(self.damping > 0.0, "damping must be positive");
        assert!(self.update_freq >= 1, "update_freq must be ≥ 1");
        assert!(
            self.factor_freq_multiplier >= 1,
            "factor_freq_multiplier must be ≥ 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.running_avg),
            "running_avg must be in [0, 1]"
        );
        if let Some(k) = self.kl_clip {
            assert!(k > 0.0, "kl_clip must be positive when set");
        }
        assert!(
            self.rand_eig.mass_threshold > 0.0 && self.rand_eig.mass_threshold <= 1.0,
            "rand_eig.mass_threshold must be in (0, 1]"
        );
        assert!(
            self.rand_eig.max_rank_frac > 0.0 && self.rand_eig.max_rank_frac <= 1.0,
            "rand_eig.max_rank_frac must be in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_interval_is_tenth_of_update_freq() {
        let cfg = KfacConfig {
            update_freq: 100,
            ..KfacConfig::default()
        };
        assert_eq!(cfg.factor_interval(), 10);
        let tight = KfacConfig {
            update_freq: 5,
            ..KfacConfig::default()
        };
        assert_eq!(tight.factor_interval(), 1, "clamped at every iteration");
    }

    #[test]
    fn damping_decays_at_epochs() {
        let cfg = KfacConfig {
            damping: 0.01,
            damping_decay_epochs: vec![10, 20],
            damping_decay_factor: 0.5,
            ..KfacConfig::default()
        };
        assert_eq!(cfg.damping_at(0), 0.01);
        assert_eq!(cfg.damping_at(10), 0.005);
        assert_eq!(cfg.damping_at(25), 0.0025);
    }

    #[test]
    fn update_freq_schedule_applies_in_order() {
        let cfg = KfacConfig {
            update_freq: 10,
            update_freq_schedule: vec![(20, 50), (40, 100)],
            ..KfacConfig::default()
        };
        assert_eq!(cfg.update_freq_at(0), 10);
        assert_eq!(cfg.update_freq_at(20), 50);
        assert_eq!(cfg.update_freq_at(45), 100);
    }

    #[test]
    fn default_validates() {
        KfacConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "damping must be positive")]
    fn zero_damping_rejected() {
        KfacConfig {
            damping: 0.0,
            ..KfacConfig::default()
        }
        .validate();
    }

    #[test]
    fn eigen_solver_names_round_trip() {
        for s in [EigenSolver::TridiagonalQl, EigenSolver::Randomized] {
            assert_eq!(EigenSolver::parse(s.name()), Some(s));
        }
        assert_eq!(EigenSolver::parse("ql"), Some(EigenSolver::TridiagonalQl));
        assert_eq!(EigenSolver::parse("rsvd"), Some(EigenSolver::Randomized));
        assert_eq!(EigenSolver::parse("lapack"), None);
        assert_eq!(EigenSolver::parse("jacobi"), None, "oracle only");
    }

    #[test]
    #[should_panic(expected = "rand_eig.mass_threshold")]
    fn zero_mass_threshold_rejected() {
        KfacConfig {
            rand_eig: RandEigPolicy {
                mass_threshold: 0.0,
                ..RandEigPolicy::default()
            },
            ..KfacConfig::default()
        }
        .validate();
    }

    #[test]
    fn rand_eig_rank_schedule_is_clamped() {
        let p = RandEigPolicy::default();
        assert_eq!(p.initial_rank(8), 8, "clamped to n");
        assert_eq!(p.initial_rank(512), 32, "n/16 floor dominates at 512");
        assert_eq!(p.max_rank(512), 64);
        assert_eq!(p.max_rank(1), 1);
    }

    /// Number following `"key": ` in one line of `BENCH_eig.json`,
    /// searching from `from`; returns it with the offset just past it.
    fn number_after(line: &str, key: &str, from: usize) -> Option<(f64, usize)> {
        let start = from + line[from..].find(&format!("\"{key}\": "))? + key.len() + 4;
        let len = line[start..].find([',', '}'])?;
        Some((line[start..start + len].parse().ok()?, start + len))
    }

    /// The defaults must follow the committed `BENCH_eig.json` (one
    /// benchmark per line): the default solver is the faster exact
    /// backend wherever both were measured; `RandEigPolicy::min_dim` is
    /// the smallest dimension from which the adaptive randomized solve
    /// beats exact QL at every benchmarked dimension; `max_rank_frac` is
    /// the largest benchmarked rank fraction whose sketch beats exact QL
    /// at every dimension from `min_dim` up. Regenerating the file with a
    /// faster or slower solver moves this test, not a guess.
    #[test]
    fn eig_defaults_sit_at_the_committed_crossovers() {
        struct Row {
            n: usize,
            ql_ns: f64,
            jacobi_ns: f64, // 0 where Jacobi was not run
            rand_ns: f64,
            fracs: Vec<(f64, f64)>,
        }
        let rows: Vec<Row> = include_str!("../../../BENCH_eig.json")
            .lines()
            .filter(|l| l.contains("\"ql_ns_per_iter\""))
            .map(|l| {
                let field = |key| number_after(l, key, 0).expect(key).0;
                let mut fracs = Vec::new();
                let mut at = l.find("\"rank_fractions\"").expect("rank_fractions");
                while let Some((frac, next)) = number_after(l, "frac", at) {
                    let (ns, next) = number_after(l, "ns_per_iter", next).expect("frac ns");
                    fracs.push((frac, ns));
                    at = next;
                }
                Row {
                    n: field("n") as usize,
                    ql_ns: field("ql_ns_per_iter"),
                    jacobi_ns: field("jacobi_ns_per_iter"),
                    rand_ns: field("rand_ns_per_iter"),
                    fracs,
                }
            })
            .collect();
        assert!(rows.len() >= 5 && rows.windows(2).all(|w| w[0].n < w[1].n));

        let measured_both = rows.iter().filter(|r| r.jacobi_ns > 0.0);
        assert!(measured_both.clone().count() >= 3);
        assert!(measured_both.clone().all(|r| r.ql_ns < r.jacobi_ns));
        assert_eq!(
            KfacConfig::default().eigen_solver,
            EigenSolver::TridiagonalQl
        );

        let first_win = rows
            .iter()
            .rposition(|r| r.rand_ns >= r.ql_ns)
            .map_or(0, |last_loss| last_loss + 1);
        let policy = RandEigPolicy::default();
        assert_eq!(
            policy.min_dim, rows[first_win].n,
            "min_dim is off the crossover"
        );

        let large = &rows[first_win..];
        let ns_at = |r: &Row, frac: f64| r.fracs.iter().find(|p| p.0 == frac).map(|p| p.1);
        let best_frac = large[0]
            .fracs
            .iter()
            .map(|&(frac, _)| frac)
            .filter(|&frac| {
                large
                    .iter()
                    .all(|r| ns_at(r, frac).expect("same fractions") < r.ql_ns)
            })
            .fold(0.0, f64::max);
        assert_eq!(
            policy.max_rank_frac, best_frac,
            "max_rank_frac is off the crossover"
        );
    }
}
