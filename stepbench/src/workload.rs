//! The four workloads and everything they share.
//!
//! All of them train `resnet_cifar(3, 16)` — ResNet-20 depth with the
//! paper's ResNet-32 channel widths, so the 22 K-FAC layers carry the
//! paper's CIFAR factor shapes (A ∈ {27, 144, 288, 576}, G ∈ {16, 32,
//! 64}) — on synthetic CIFAR with 2 ranks in one process, one GEMM pool
//! thread per rank, because the box has 2 cores. Closed loop: training
//! is synchronous, the next iteration starts when the previous ends.

use crate::jsonio::{num, obj, text, Json};
use kfac::{DistStrategy, EigenSolver, KfacConfig, PlacementPolicy, PrecisionPolicy};
use kfac_collectives::{AlgoPolicy, CommBackend};
use kfac_data::{synthetic_cifar, SyntheticImages};
use kfac_harness::{ExecStrategy, TrainConfig};
use kfac_nn::{resnet::resnet_cifar, Sequential};
use kfac_optim::{lr::Decay, LrSchedule};
use kfac_tensor::Rng64;

/// Ranks per workload (= cores of the reference box).
pub const RANKS: usize = 2;
/// Epochs per trial: two, so "the last epoch's loss is below the
/// first's" is checkable.
pub const EPOCHS: usize = 2;
/// Iterations of a baseline trial (the traced run's, for
/// `harness.vs_sgd_ratio`), at least. A baseline iteration is a tenth
/// of a K-FAC one, and a baseline trial as short as the K-FAC trial's 10
/// iterations would time plain SGD from one half-second glimpse of a
/// box whose speed changes by the second.
const BASELINE_ITERS: usize = 40;
/// SGD momentum (the paper's).
const MOMENTUM: f32 = 0.9;
/// SGD weight decay (the paper's).
const WEIGHT_DECAY: f32 = 5e-4;
/// Validation samples; `train()` evaluates them after each epoch, so
/// they are kept few.
const VAL_LEN: usize = 32;

/// The K-FAC half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct KfacSpec {
    /// Eigensolver, always named: the `Default` is Jacobi, 6–20× slower.
    pub solver: EigenSolver,
    /// Iterations between eigendecompositions; factors are recomputed
    /// every iteration (`factor_freq_multiplier == update_freq`, the
    /// paper's CIFAR setting).
    pub update_freq: usize,
    /// K-FAC-opt or K-FAC-lw.
    pub strategy: DistStrategy,
    /// KL-clip κ: the trust region shrinks with the batch, because the
    /// Fisher estimate of a small batch is poor and κ, not the learning
    /// rate, sets the step while the clip is active.
    pub kl_clip: f32,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Base channel width of the ResNet (16 everywhere but `--smoke`).
    pub width: usize,
    /// Square image size.
    pub image: usize,
    /// Per-rank batch.
    pub local_batch: usize,
    /// Iterations per epoch; `EPOCHS ×` this is one trial and spans
    /// whole K-FAC cycles.
    pub iters_per_epoch: usize,
    /// Constant learning rate.
    pub lr: f32,
    /// Thread fabric or loopback TCP.
    pub backend: CommBackend,
    /// Sequential loop or the task graph.
    pub exec: ExecStrategy,
    /// `None` trains plain SGD.
    pub kfac: Option<KfacSpec>,
}

/// The workloads, in reporting order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "sgd",
        why: "Plain SGD, the paper's baseline: nn + GEMM do ~90% of the step and K-FAC code none, \
              so K-FAC-only changes must leave it unmoved; its A/A ratio is the noise floor.",
        width: 16,
        image: 16,
        local_batch: 16,
        iters_per_epoch: 20,
        // Lower than the K-FAC workloads' 0.05: at that rate the loss
        // after 40 iterations differs by 14% across seeds, at this by 9%.
        lr: 0.02,
        backend: CommBackend::Thread,
        exec: ExecStrategy::Sequential,
        kfac: None,
    },
    Workload {
        name: "kfac_eig",
        why: "K-FAC-opt, exact QL eig every 10 iterations, thread fabric: eigendecomposition is \
              >50% of the step, nn <20%, comm in-memory; eig/placement changes show, TCP ones do not.",
        width: 16,
        image: 16,
        local_batch: 16,
        iters_per_epoch: 5,
        lr: 0.05,
        backend: CommBackend::Thread,
        exec: ExecStrategy::Sequential,
        kfac: Some(KfacSpec {
            solver: EigenSolver::TridiagonalQl,
            update_freq: 10,
            strategy: DistStrategy::Opt,
            kl_clip: 1e-4,
        }),
    },
    Workload {
        name: "kfac_steady",
        why: "K-FAC-opt, randomized eig every 50, tiny batch, TCP fabric, overlapped task graph: \
              preconditioning, per-bucket collectives and scheduling dominate; only path through kfac-exec.",
        width: 16,
        image: 8,
        local_batch: 4,
        iters_per_epoch: 25,
        lr: 0.01,
        backend: CommBackend::Proc,
        exec: ExecStrategy::Overlapped { compute_workers: 1 },
        kfac: Some(KfacSpec {
            solver: EigenSolver::Randomized,
            update_freq: 50,
            strategy: DistStrategy::Opt,
            kl_clip: 1e-5,
        }),
    },
    Workload {
        name: "kfac_lw",
        why: "K-FAC-lw on TCP: owner eigs both factors and preconditions, a Precond exchange every \
              iteration instead of an Eigen allgather per update; a gain for -opt that costs -lw shows.",
        width: 16,
        image: 16,
        local_batch: 16,
        iters_per_epoch: 5,
        lr: 0.05,
        backend: CommBackend::Proc,
        exec: ExecStrategy::Sequential,
        kfac: Some(KfacSpec {
            solver: EigenSolver::TridiagonalQl,
            update_freq: 10,
            strategy: DistStrategy::Lw,
            kl_clip: 1e-4,
        }),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// Constant learning rate: no warm-up ramp, no decay.
fn constant_lr(lr: f32) -> LrSchedule {
    LrSchedule {
        base_lr: lr,
        warmup_epochs: 0.0,
        decay: Decay::Steps {
            epochs: Vec::new(),
            factor: 1.0,
        },
    }
}

impl Workload {
    /// The `--smoke` shape: 4×4 images, 2 iterations, a quarter of the
    /// channels. Exercises every code path in about a second; the
    /// numbers mean nothing.
    pub fn smoke(mut self) -> Workload {
        self.width = 4;
        self.image = 4;
        self.iters_per_epoch = 1;
        self
    }

    /// The model: `train()` calls this once per rank with the run's
    /// seed, so replicas start identical.
    pub fn model_builder(&self) -> impl Fn(u64) -> Sequential + Sync + Copy {
        let width = self.width;
        move |seed| {
            let mut rng = Rng64::new(seed);
            resnet_cifar(3, width, 10, 3, &mut rng)
        }
    }

    /// Iterations of one trial.
    pub fn iters(&self) -> usize {
        EPOCHS * self.iters_per_epoch
    }

    /// Epochs of one trial of the plain-SGD baseline: as the workload's
    /// own, or as many more as make [`BASELINE_ITERS`] iterations.
    pub fn baseline_epochs(&self) -> usize {
        EPOCHS.max(BASELINE_ITERS.div_ceil(self.iters_per_epoch))
    }

    /// Samples one iteration consumes across all ranks.
    pub fn global_batch(&self) -> usize {
        RANKS * self.local_batch
    }

    /// `(train, val)` for a run of `iters_per_epoch` iterations per
    /// epoch. The seed drives the data here, and model init and the
    /// sampler through `TrainConfig::seed`.
    pub fn datasets(
        &self,
        iters_per_epoch: usize,
        seed: u64,
    ) -> (SyntheticImages, SyntheticImages) {
        synthetic_cifar(
            self.image,
            self.global_batch() * iters_per_epoch,
            VAL_LEN,
            seed,
        )
    }

    /// The preconditioner configuration, every field that matters named.
    pub fn kfac_config(&self) -> Option<KfacConfig> {
        self.kfac.map(|k| KfacConfig {
            damping: 1e-3,
            kl_clip: Some(k.kl_clip),
            update_freq: k.update_freq,
            factor_freq_multiplier: k.update_freq,
            running_avg: 0.95,
            eigen_solver: k.solver,
            strategy: k.strategy,
            placement: PlacementPolicy::RoundRobin,
            triangular_factor_comm: true,
            precision: PrecisionPolicy::f32(),
            ..KfacConfig::default()
        })
    }

    /// Training configuration of this workload (`preconditioned`) or of
    /// its plain-SGD baseline at the same shape, fabric and exec
    /// strategy (`!preconditioned`).
    pub fn train_config(&self, seed: u64, epochs: usize, preconditioned: bool) -> TrainConfig {
        let mut cfg = TrainConfig::new(RANKS, self.local_batch, epochs, constant_lr(self.lr))
            .with_backend(self.backend)
            .with_exec(self.exec);
        cfg.momentum = MOMENTUM;
        cfg.weight_decay = WEIGHT_DECAY;
        cfg.seed = seed;
        match self.kfac_config() {
            Some(k) if preconditioned => cfg.with_kfac(k),
            _ => cfg,
        }
    }

    /// The fully resolved configuration, so every number says what
    /// produced it.
    pub fn describe(&self, seed: u64) -> Json {
        let policy = AlgoPolicy::from_env();
        let kfac = self.kfac_config().map_or(Json::Null, |k| {
            obj([
                ("eigen_solver", text(k.eigen_solver.name())),
                ("strategy", text(format!("{:?}", k.strategy))),
                ("placement", text(format!("{:?}", k.placement))),
                ("update_freq", num(k.update_freq as f64)),
                ("factor_interval", num(k.factor_interval() as f64)),
                ("damping", num(f64::from(k.damping))),
                (
                    "kl_clip",
                    k.kl_clip.map_or(Json::Null, |v| num(f64::from(v))),
                ),
                ("running_avg", num(f64::from(k.running_avg))),
                (
                    "triangular_factor_comm",
                    Json::Bool(k.triangular_factor_comm),
                ),
                ("precision", text(k.precision.spec_string())),
            ])
        });
        obj([
            (
                "model",
                text(format!(
                    "resnet_cifar(n=3, width={}, classes=10, channels=3)",
                    self.width
                )),
            ),
            ("ranks", num(RANKS as f64)),
            ("image", num(self.image as f64)),
            ("local_batch", num(self.local_batch as f64)),
            ("epochs_per_trial", num(EPOCHS as f64)),
            (
                "epochs_per_baseline_trial",
                num(self.baseline_epochs() as f64),
            ),
            ("iters_per_epoch", num(self.iters_per_epoch as f64)),
            ("lr", num(f64::from(self.lr))),
            ("momentum", num(f64::from(MOMENTUM))),
            ("weight_decay", num(f64::from(WEIGHT_DECAY))),
            ("fabric", text(self.backend.name())),
            ("exec", text(format!("{:?}", self.exec))),
            ("kfac", kfac),
            (
                "fusion_threshold_bytes",
                num(kfac_collectives::fusion::resolve_threshold(None) as f64),
            ),
            ("algo_policy", text(format!("{policy:?}"))),
            (
                "pool_threads",
                text(format!(
                    "{}={}",
                    crate::envpin::PINNED.0,
                    crate::envpin::PINNED.1
                )),
            ),
            ("seed", num(seed as f64)),
            (
                "nproc",
                num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("git_commit", text(git_commit())),
        ])
    }
}

/// The checked-out commit, read from `.git` without spawning anything;
/// "unknown" outside a git checkout (the driver's checkouts are not).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_trial_spans_whole_kfac_cycles() {
        for w in ALL {
            if let Some(k) = w.kfac {
                assert_eq!(w.iters() % k.update_freq, 0, "{}", w.name);
            }
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn baseline_differs_only_in_the_preconditioner() {
        let w = by_name("kfac_steady").unwrap();
        let a = w.train_config(3, EPOCHS, true);
        let b = w.train_config(3, EPOCHS, false);
        assert!(a.kfac.is_some() && b.kfac.is_none());
        assert_eq!(
            (a.backend, a.exec, a.local_batch),
            (b.backend, b.exec, b.local_batch)
        );
        assert_eq!(a.lr.lr_at(0.0), 0.01);
        assert_eq!(a.lr.lr_at(1.9), 0.01);
    }
}
