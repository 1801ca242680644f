//! One Criterion benchmark per table/figure of the paper.
//!
//! Each bench exercises the computational core that its table or figure
//! measures; the full row/series reproduction (with accuracies and
//! projections) is produced by the experiment harness:
//! `cargo run --release -p kfac-harness --bin xp -- <id> --scale quick`.
//!
//! | bench group | paper artifact | what is timed |
//! |---|---|---|
//! | `table1`  | Table I   | eigen vs explicit-inverse second-order update + preconditioning |
//! | `table2_fig4` | Table II / Fig. 4 | one full distributed K-FAC training iteration |
//! | `fig5`    | Fig. 5    | forward+backward of the bottleneck ResNet on a batch |
//! | `table3_fig6` | Table III / Fig. 6 | K-FAC step sequences at different update frequencies |
//! | `fig7_8_9_table4` | Figs. 7–9, Table IV | the full 16–256 GPU scaling projection per model |
//! | `table5`  | Table V   | factor/eig stage-time evaluation across scales |
//! | `table6`  | Table VI  | round-robin vs LPT placement over real inventories |
//! | `fig10`   | Fig. 10   | real factor computation across model depths |

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfac::math::{decompose_factor, invert_factor, precondition_eigen, precondition_inverse};
use kfac::{distribution, Kfac, KfacConfig, PlacementPolicy};
use kfac_cluster::{scaling_sweep, ClusterSpec, IterationModel, ModelProfile, TrainingBudget};
use kfac_collectives::LocalComm;
use kfac_data::{batch_of, synthetic_cifar};
use kfac_harness::presets::{ImagenetSetup, Scale};
use kfac_harness::trainer::allreduce_gradients;
use kfac_nn::arch::{resnet101, resnet152, resnet50};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::{Optimizer, Sgd};
use kfac_tensor::{Matrix, Rng64};
use std::time::Duration;

fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
    let data = (0..2 * n * n).map(|_| rng.normal_f32()).collect();
    let x = Matrix::from_vec(2 * n, n, data);
    let mut a = x.gram();
    a.scale(1.0 / (2 * n) as f32);
    a
}

/// Table I: the two inversion paths on a ResNet-like factor pair.
fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    let mut rng = Rng64::new(1);
    let a = random_spd(72, &mut rng); // 8-ch 3×3 conv activation factor
    let g = random_spd(32, &mut rng);
    let grad = Matrix::from_vec(32, 72, (0..32 * 72).map(|_| rng.normal_f32()).collect());

    group.bench_function("eigen_update_and_precondition", |b| {
        b.iter(|| {
            let (ea, eg) = (
                decompose_factor(&a).expect("eig"),
                decompose_factor(&g).expect("eig"),
            );
            std::hint::black_box(precondition_eigen(&ea, &eg, &grad, 0.05))
        });
    });
    group.bench_function("inverse_update_and_precondition", |b| {
        b.iter(|| {
            let (a_inv, g_inv) = (
                invert_factor(&a, 0.05).expect("inv"),
                invert_factor(&g, 0.05).expect("inv"),
            );
            std::hint::black_box(precondition_inverse(&a_inv, &g_inv, &grad))
        });
    });
    group.finish();
}

/// Shared smoke-scale CIFAR iteration state.
struct IterState {
    model: Sequential,
    kfac: Kfac,
    opt: Sgd,
}

fn smoke_iteration_state() -> (IterState, kfac_data::SyntheticImages) {
    let (train_ds, _) = synthetic_cifar(8, 256, 64, 5);
    let mut rng = Rng64::new(9);
    let mut model = kfac_nn::resnet::resnet_cifar(1, 4, 10, 3, &mut rng);
    let kfac = Kfac::new(
        &mut model,
        KfacConfig {
            update_freq: 5,
            damping: 0.1,
            ..KfacConfig::default()
        },
    );
    (
        IterState {
            model,
            kfac,
            opt: Sgd::paper_default(5e-4),
        },
        train_ds,
    )
}

/// Table II / Fig. 4: one full K-FAC training iteration.
fn bench_table2_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_fig4");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let (mut st, ds) = smoke_iteration_state();
    let comm = LocalComm::new();
    let criterion_loss = CrossEntropyLoss::new();
    let indices: Vec<usize> = (0..16).collect();

    group.bench_function("kfac_training_iteration", |b| {
        b.iter(|| {
            let (x, labels) = batch_of(&ds, &indices, 1);
            st.model.zero_grad();
            st.model.set_capture(st.kfac.needs_capture());
            let out = st.model.forward(&x, Mode::Train);
            let (_, grad) = criterion_loss.forward(&out, &labels);
            let _ = st.model.backward(&grad);
            allreduce_gradients(&mut st.model, &comm);
            st.kfac.step(&mut st.model, &comm, 0.1);
            st.opt.step(&mut st.model, 0.1);
        });
    });
    group.finish();
}

/// Fig. 5: forward+backward of the bottleneck ResNet.
fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let setup = ImagenetSetup::new(Scale::Smoke);
    let mut model = setup.model(50, 3);
    let criterion_loss = CrossEntropyLoss::with_smoothing(0.1);
    let indices: Vec<usize> = (0..8).collect();

    group.bench_function("bottleneck_resnet_fwd_bwd", |b| {
        b.iter(|| {
            let (x, labels) = batch_of(&setup.train, &indices, 1);
            model.zero_grad();
            let out = model.forward(&x, Mode::Train);
            let (_, grad) = criterion_loss.forward(&out, &labels);
            std::hint::black_box(model.backward(&grad));
        });
    });
    group.finish();
}

/// Table III / Fig. 6: K-FAC step sequences at two update frequencies —
/// the amortization the table quantifies.
fn bench_table3_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_fig6");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let criterion_loss = CrossEntropyLoss::new();
    let indices: Vec<usize> = (0..16).collect();

    for freq in [1usize, 10] {
        group.bench_with_input(
            BenchmarkId::new("ten_iterations_update_freq", freq),
            &freq,
            |b, &freq| {
                let (train_ds, _) = synthetic_cifar(8, 256, 64, 5);
                let mut rng = Rng64::new(9);
                let mut model = kfac_nn::resnet::resnet_cifar(1, 4, 10, 3, &mut rng);
                let mut kfac = Kfac::new(
                    &mut model,
                    KfacConfig {
                        update_freq: freq,
                        factor_freq_multiplier: 1,
                        damping: 0.1,
                        ..KfacConfig::default()
                    },
                );
                let comm = LocalComm::new();
                b.iter(|| {
                    for _ in 0..10 {
                        let (x, labels) = batch_of(&train_ds, &indices, 1);
                        model.zero_grad();
                        model.set_capture(kfac.needs_capture());
                        let out = model.forward(&x, Mode::Train);
                        let (_, grad) = criterion_loss.forward(&out, &labels);
                        let _ = model.backward(&grad);
                        kfac.step(&mut model, &comm, 0.1);
                    }
                });
            },
        );
    }
    group.finish();
}

/// Figs. 7–9 / Table IV: the full scaling projection per model.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_8_9_table4");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for (name, arch) in [
        ("fig7_resnet50", resnet50()),
        ("fig8_resnet101", resnet101()),
        ("fig9_resnet152", resnet152()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(scaling_sweep(&arch, TrainingBudget::default())));
        });
    }
    group.finish();
}

/// Table V: stage-time evaluation across the 3×3 grid.
fn bench_table5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.bench_function("stage_profile_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for arch in [resnet50(), resnet101(), resnet152()] {
                let p = ModelProfile::from_arch(&arch);
                for gpus in [16usize, 32, 64] {
                    let m = IterationModel::new(p.clone(), ClusterSpec::frontera(gpus), 32);
                    let (fc, fx) = m.factor_stage_s();
                    let (ec, ex) = m.eig_stage_s(PlacementPolicy::RoundRobin);
                    acc += fc + fx + ec + ex;
                }
            }
            std::hint::black_box(acc)
        });
    });
    group.finish();
}

/// Table VI: placement policies over the real ResNet-152 inventory.
fn bench_table6(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    let arch = resnet152();
    let dims: Vec<(usize, usize)> = arch.layers.iter().map(|l| l.factor_dims()).collect();
    let factors = distribution::factor_descs(&dims);
    for (name, policy) in [
        ("round_robin", PlacementPolicy::RoundRobin),
        ("size_balanced_lpt", PlacementPolicy::SizeBalanced),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(distribution::assign_factors(policy, &factors, 64)));
        });
    }
    group.finish();
}

/// Fig. 10: real factor computation across depths — a factor iteration's
/// capturing forward + backward (the convolutions sum their factor Grams
/// inside backward) and the `compute_factors` finishing pass. `xp fig10`
/// subtracts the plain backward pass; this group times the whole thing.
fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let setup = ImagenetSetup::new(Scale::Smoke);
    let criterion_loss = CrossEntropyLoss::new();
    for depth in [50usize, 101, 152] {
        group.bench_with_input(
            BenchmarkId::new("factor_iteration_resnet", depth),
            &depth,
            |b, &depth| {
                let mut model = setup.model(depth, 7);
                let indices: Vec<usize> = (0..8).collect();
                let (x, labels) = batch_of(&setup.train, &indices, 0);
                model.set_capture(true);
                b.iter(|| {
                    let out = model.forward(&x, Mode::Train);
                    let (_, grad) = criterion_loss.forward(&out, &labels);
                    let _ = model.backward(&grad);
                    let mut layers = Vec::new();
                    model.collect_kfac(&mut layers);
                    let mut acc = 0.0f32;
                    for layer in &layers {
                        let (a, g) = layer.compute_factors();
                        acc += a.trace() + g.trace();
                    }
                    std::hint::black_box(acc)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_table2_fig4,
    bench_fig5,
    bench_table3_fig6,
    bench_scaling,
    bench_table5,
    bench_table6,
    bench_fig10
);
criterion_main!(benches);
