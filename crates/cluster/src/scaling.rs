//! Time-to-solution projections across cluster scales — the machinery
//! behind Figures 7–9 and Tables III–IV.
//!
//! The paper's protocol (§VI-C3): per-GPU batch 32, K-FAC trains 55
//! epochs, SGD trains 90 (both reach the acceptance accuracy), and the
//! K-FAC update interval scales inversely with GPU count (2000 @16 …
//! 125 @256) so the number of second-order updates per epoch is constant.

use crate::hardware::ClusterSpec;
use crate::iteration::{IterationModel, KfacRunConfig};
use crate::profile::ModelProfile;
use kfac_nn::arch::ModelArch;

/// The paper's epoch budgets and dataset size.
#[derive(Debug, Clone, Copy)]
pub struct TrainingBudget {
    /// Training-set size (ImageNet-1k ≈ 1.28 M).
    pub dataset: usize,
    /// Epochs K-FAC needs to hit the acceptance accuracy (paper: 55).
    pub kfac_epochs: usize,
    /// Epochs SGD needs (paper: 90).
    pub sgd_epochs: usize,
    /// Per-GPU batch (paper: 32).
    pub local_batch: usize,
}

impl Default for TrainingBudget {
    fn default() -> Self {
        TrainingBudget {
            dataset: 1_281_167,
            kfac_epochs: 55,
            sgd_epochs: 90,
            local_batch: 32,
        }
    }
}

/// The paper's update-interval schedule: constant K-FAC updates per epoch
/// across scales ("we use 2000, 1000, 500, 250, 125-iteration K-FAC update
/// intervals … on 16, 32, 64, 128, 256-GPUs").
pub fn paper_update_freq(gpus: usize) -> usize {
    (2000 * 16 / gpus).max(1)
}

/// One row of a Figure 7/8/9 series.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// GPU count.
    pub gpus: usize,
    /// SGD time-to-solution, seconds.
    pub sgd_s: f64,
    /// K-FAC-lw time-to-solution, seconds.
    pub lw_s: f64,
    /// K-FAC-opt time-to-solution, seconds.
    pub opt_s: f64,
}

impl ScalingPoint {
    /// K-FAC-opt improvement over SGD (Table IV): positive = faster.
    pub fn opt_improvement(&self) -> f64 {
        (self.sgd_s - self.opt_s) / self.sgd_s
    }

    /// K-FAC-lw improvement over SGD.
    pub fn lw_improvement(&self) -> f64 {
        (self.sgd_s - self.lw_s) / self.sgd_s
    }
}

/// Project time-to-solution for one model at one scale.
pub fn time_to_solution(arch: &ModelArch, gpus: usize, budget: TrainingBudget) -> ScalingPoint {
    let profile = ModelProfile::from_arch(arch);
    let model = IterationModel::new(profile, ClusterSpec::frontera(gpus), budget.local_batch);
    let iters_per_epoch = budget.dataset / (gpus * budget.local_batch);
    let cfg = KfacRunConfig::with_freq(paper_update_freq(gpus));

    let sgd_iter = model.sgd_iteration().total();
    let lw_iter = model.kfac_lw_iteration(cfg).total();
    let opt_iter = model.kfac_opt_iteration(cfg).total();

    ScalingPoint {
        gpus,
        sgd_s: sgd_iter * (iters_per_epoch * budget.sgd_epochs) as f64,
        lw_s: lw_iter * (iters_per_epoch * budget.kfac_epochs) as f64,
        opt_s: opt_iter * (iters_per_epoch * budget.kfac_epochs) as f64,
    }
}

/// Full scaling sweep (the paper's {16, 32, 64, 128, 256}).
pub fn scaling_sweep(arch: &ModelArch, budget: TrainingBudget) -> Vec<ScalingPoint> {
    [16usize, 32, 64, 128, 256]
        .iter()
        .map(|&g| time_to_solution(arch, g, budget))
        .collect()
}

/// Scaling efficiency of a series relative to its smallest scale:
/// `eff(N) = T(16)·16 / (T(N)·N)`.
pub fn efficiency(points: &[ScalingPoint], extract: impl Fn(&ScalingPoint) -> f64) -> Vec<f64> {
    let base = extract(&points[0]) * points[0].gpus as f64;
    points
        .iter()
        .map(|p| base / (extract(p) * p.gpus as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_nn::arch::{resnet101, resnet152, resnet50};

    #[test]
    fn paper_interval_schedule() {
        assert_eq!(paper_update_freq(16), 2000);
        assert_eq!(paper_update_freq(32), 1000);
        assert_eq!(paper_update_freq(64), 500);
        assert_eq!(paper_update_freq(128), 250);
        assert_eq!(paper_update_freq(256), 125);
    }

    #[test]
    fn resnet50_ordering_matches_fig7() {
        // At every scale: opt < lw < sgd for ResNet-50.
        for p in scaling_sweep(&resnet50(), TrainingBudget::default()) {
            assert!(
                p.opt_s < p.lw_s && p.lw_s < p.sgd_s,
                "at {} GPUs: opt {:.0}s lw {:.0}s sgd {:.0}s",
                p.gpus,
                p.opt_s,
                p.lw_s,
                p.sgd_s
            );
        }
    }

    #[test]
    fn improvement_band_matches_table_iv_shape() {
        // ResNet-50: K-FAC-opt beats SGD by a healthy double-digit margin
        // at all scales (paper: 17.7–25.2%).
        for p in scaling_sweep(&resnet50(), TrainingBudget::default()) {
            let imp = p.opt_improvement();
            assert!(
                (0.05..0.45).contains(&imp),
                "{} GPUs: improvement {:.1}%",
                p.gpus,
                imp * 100.0
            );
        }
    }

    #[test]
    fn advantage_shrinks_with_model_size() {
        // Table IV's row-wise trend at 64 GPUs: ResNet-50 gains most,
        // ResNet-152 least.
        let b = TrainingBudget::default();
        let i50 = time_to_solution(&resnet50(), 64, b).opt_improvement();
        let i101 = time_to_solution(&resnet101(), 64, b).opt_improvement();
        let i152 = time_to_solution(&resnet152(), 64, b).opt_improvement();
        assert!(i50 > i101, "{i50} vs {i101}");
        assert!(i101 > i152, "{i101} vs {i152}");
    }

    #[test]
    fn resnet152_advantage_collapses_at_extreme_scale() {
        // Fig. 9 / Table IV: at 256 GPUs on ResNet-152 the K-FAC-opt
        // advantage is at its minimum across the sweep (the paper measures
        // it going negative).
        let pts = scaling_sweep(&resnet152(), TrainingBudget::default());
        let imps: Vec<f64> = pts.iter().map(|p| p.opt_improvement()).collect();
        let last = *imps.last().unwrap();
        assert!(
            imps[..imps.len() - 1].iter().all(|&i| i > last),
            "256-GPU improvement {last:.3} should be the sweep minimum: {imps:?}"
        );
    }

    #[test]
    fn efficiency_degrades_with_scale() {
        // Fig. 7's efficiency observation: all methods lose efficiency as
        // scale grows; drops below ~50% by 256 GPUs.
        let pts = scaling_sweep(&resnet50(), TrainingBudget::default());
        let eff = efficiency(&pts, |p| p.opt_s);
        assert!((eff[0] - 1.0).abs() < 1e-9);
        for w in eff.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "efficiency must not increase: {eff:?}");
        }
    }

    #[test]
    fn time_decreases_with_more_gpus() {
        let pts = scaling_sweep(&resnet50(), TrainingBudget::default());
        for w in pts.windows(2) {
            assert!(w[1].sgd_s < w[0].sgd_s);
            assert!(w[1].opt_s < w[0].opt_s);
        }
    }
}
