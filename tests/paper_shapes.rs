//! Cross-crate shape tests: the qualitative claims of the paper's
//! evaluation, checked end-to-end through the public APIs (architecture
//! tables → profiles → calibrated projections → placement analysis).

use kfac_suite::cluster::{
    paper_update_freq, scaling_sweep, time_to_solution, ClusterSpec, IterationModel, KfacRunConfig,
    ModelProfile, TrainingBudget,
};
use kfac_suite::kfac::PlacementPolicy;
use kfac_suite::nn::arch::{resnet101, resnet152, resnet50, ModelArch};

#[test]
fn table_iv_improvement_bands() {
    // Paper Table IV: R50 17.7–25.2%, R101 9.7–19.5%, R152 −11.1–8.2%.
    // Ours must land in comparable bands: R50 solidly double-digit
    // positive everywhere; R152 crossing zero at 256.
    let b = TrainingBudget::default();
    for p in scaling_sweep(&resnet50(), b) {
        let i = p.opt_improvement();
        assert!((0.10..0.40).contains(&i), "R50@{}: {i}", p.gpus);
    }
    for p in scaling_sweep(&resnet101(), b) {
        let i = p.opt_improvement();
        assert!((0.03..0.30).contains(&i), "R101@{}: {i}", p.gpus);
    }
    let pts = scaling_sweep(&resnet152(), b);
    assert!(
        pts.last().expect("sweep").opt_improvement() < 0.03,
        "R152 advantage must (nearly) vanish at 256 GPUs"
    );
    assert!(
        pts[0].opt_improvement() > 0.03,
        "R152 advantage positive at 16 GPUs"
    );
}

#[test]
fn fig7_strategy_ordering_and_epoch_budgets() {
    let b = TrainingBudget::default();
    for gpus in [16usize, 64, 256] {
        let p = time_to_solution(&resnet50(), gpus, b);
        assert!(
            p.opt_s < p.lw_s && p.lw_s < p.sgd_s,
            "@{gpus}: opt {} lw {} sgd {}",
            p.opt_s,
            p.lw_s,
            p.sgd_s
        );
    }
}

#[test]
fn fig9_crossover_only_for_the_deepest_model() {
    // Fig. 9's message: K-FAC-opt keeps its 55-vs-90-epoch advantage over
    // the whole sweep on ResNet-50, while on ResNet-152 the second-order
    // overheads eat it — but not before 128 GPUs.
    let b = TrainingBudget::default();
    let first_crossover = |arch: &ModelArch, max_gpus: usize| {
        std::iter::successors(Some(16usize), |g| Some(2 * g))
            .take_while(|&g| g <= max_gpus)
            .find(|&g| time_to_solution(arch, g, b).opt_improvement() <= 0.0)
    };
    assert_eq!(first_crossover(&resnet50(), 256), None);
    let c152 = first_crossover(&resnet152(), 1024);
    assert!(c152.is_some(), "ResNet-152 must cross over by 1024 GPUs");
    assert!(c152.unwrap() >= 128, "but not before 128 GPUs: {c152:?}");
}

#[test]
fn table_v_factor_stage_is_not_distributable() {
    // Factor computation time must be identical at 16 and 256 GPUs while
    // the eig stage must shrink (sublinearly).
    let profile = ModelProfile::from_arch(&resnet101());
    let at = |gpus| IterationModel::new(profile.clone(), ClusterSpec::frontera(gpus), 32);
    let (fc16, _) = at(16).factor_stage_s();
    let (fc256, _) = at(256).factor_stage_s();
    assert_eq!(fc16, fc256);
    let (ec16, _) = at(16).eig_stage_s(PlacementPolicy::RoundRobin);
    let (ec256, _) = at(256).eig_stage_s(PlacementPolicy::RoundRobin);
    assert!(ec256 < ec16);
    assert!(ec16 / ec256 < 16.0, "nowhere near linear speedup");
}

#[test]
fn table_vi_imbalance_and_lpt_fix() {
    // Round-robin: the slowest worker barely speeds up from 16→64 GPUs;
    // LPT (the paper's proposed fix) must not be worse than round-robin.
    for arch in [resnet50(), resnet152()] {
        let profile = ModelProfile::from_arch(&arch);
        let worker_times = |gpus: usize, policy| {
            IterationModel::new(profile.clone(), ClusterSpec::frontera(gpus), 32)
                .eig_worker_times_s(policy)
        };
        let t16 = worker_times(16, PlacementPolicy::RoundRobin);
        let t64 = worker_times(64, PlacementPolicy::RoundRobin);
        let slowest16 = t16.iter().cloned().fold(0.0, f64::max);
        let slowest64 = t64.iter().cloned().fold(0.0, f64::max);
        assert!(
            slowest16 / slowest64 < 2.5,
            "{}: slowest-worker speedup {:.2} should be small",
            arch.name,
            slowest16 / slowest64
        );

        let lpt64 = worker_times(64, PlacementPolicy::SizeBalanced);
        let lpt_makespan = lpt64.iter().cloned().fold(0.0, f64::max);
        assert!(lpt_makespan <= slowest64 + 1e-12);
    }
}

#[test]
fn update_interval_schedule_keeps_updates_per_epoch_constant() {
    // The paper scales the interval so K-FAC updates per epoch stay
    // fixed: interval × gpus = const, and iterations/epoch × gpus = const.
    let b = TrainingBudget::default();
    let base = paper_update_freq(16) * 16;
    for gpus in [32usize, 64, 128, 256] {
        assert_eq!(paper_update_freq(gpus) * gpus, base);
        let iters = b.dataset / (gpus * b.local_batch);
        let updates_per_epoch = iters as f64 / paper_update_freq(gpus) as f64;
        let base_updates = (b.dataset / (16 * b.local_batch)) as f64 / paper_update_freq(16) as f64;
        assert!((updates_per_epoch - base_updates).abs() / base_updates < 0.05);
    }
}

#[test]
fn fig10_superlinear_factor_growth() {
    let at = |arch: &ModelArch| {
        IterationModel::new(ModelProfile::from_arch(arch), ClusterSpec::frontera(16), 32)
            .factor_stage_s()
            .0
    };
    let (t50, t101, t152) = (at(&resnet50()), at(&resnet101()), at(&resnet152()));
    let p50 = resnet50().total_params() as f64;
    let p152 = resnet152().total_params() as f64;
    assert!(t50 < t101 && t101 < t152);
    assert!(
        t152 / t50 > p152 / p50,
        "factor time must grow faster than parameters: {} vs {}",
        t152 / t50,
        p152 / p50
    );
}

#[test]
fn kfac_opt_per_iteration_overhead_fits_epoch_advantage_for_resnet50() {
    // The economics of the whole paper: K-FAC-opt's per-iteration
    // overhead must stay under the 90/55 epoch ratio for ResNet-50 at
    // every scale, else the 55-epoch budget wins nothing.
    let profile = ModelProfile::from_arch(&resnet50());
    for gpus in [16usize, 32, 64, 128, 256] {
        let m = IterationModel::new(profile.clone(), ClusterSpec::frontera(gpus), 32);
        let cfg = KfacRunConfig::with_freq(paper_update_freq(gpus));
        let ratio = m.kfac_opt_iteration(cfg).total() / m.sgd_iteration().total();
        assert!(
            ratio < 90.0 / 55.0,
            "@{gpus}: iteration ratio {ratio:.3} exceeds the epoch advantage"
        );
    }
}
