//! Distributed synchronous training loop.
//!
//! Implements the paper's training procedure end-to-end (Fig. 1 +
//! Listing 1): each rank runs on its own thread with a full model
//! replica and a disjoint data shard; per iteration it computes
//! forward/backward on its local mini-batch, allreduces gradients,
//! optionally applies the K-FAC preconditioner, and takes an SGD step —
//! [`train_iteration`], the one definition of that iteration on both
//! gradient-exchange schedules. One loop, [`run_plan`], walks a slice of
//! the rank's [`batch_plan`] through the fault ladder
//! ([`ResilientTrainer`]) around it: [`train`] once per epoch with no
//! fault tolerance, then sharded validation; the elastic trial
//! ([`elastic`](crate::elastic)) before and after a shrink.

use crate::overlap::{backward_exchanging_buckets, reduce_bucket, ExecStrategy};
use crate::resilient::{FaultTolerance, ResilientTrainer, StepOutcome};
use kfac::{Kfac, KfacConfig, StageStats};
use kfac_collectives::{
    CollectiveError, CommBackend, Communicator, LocalComm, ProcComm, ReduceOp, RetryPolicy,
    ThreadComm, Traffic, TrafficClass,
};
use kfac_data::{batch_of, Dataset, ShardedSampler};
use kfac_exec::ExecMode;
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::{LrSchedule, Optimizer, Sgd};
use kfac_telemetry::{Registry, Span};
use kfac_tensor::{Dtype, Tensor4};
use std::time::Instant;

/// Full configuration of one training run.
#[derive(Clone)]
pub struct TrainConfig {
    /// Simulated worker count ("GPUs" in the paper's terms); each rank
    /// is a thread with a model replica.
    pub ranks: usize,
    /// Per-rank mini-batch (global batch = ranks × local_batch).
    pub local_batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning-rate schedule (already scaled for the rank count).
    pub lr: LrSchedule,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Label smoothing (paper: 0.1 on ImageNet, 0 on CIFAR).
    pub label_smoothing: f32,
    /// K-FAC preconditioner; `None` trains plain SGD.
    pub kfac: Option<KfacConfig>,
    /// Master seed (models, shuffles).
    pub seed: u64,
    /// Telemetry registry the run records into. `None` (the default)
    /// creates a fresh registry per run; pass a shared one to collect
    /// several runs onto a single timeline (e.g. `xp --trace-out`).
    pub telemetry: Option<Registry>,
    /// How each rank exchanges its gradients: fused after backward (the
    /// reference oracle), or per-child buckets allreduced on a background
    /// thread while backward is still running. The rest of the iteration
    /// is the same code either way.
    pub exec: ExecStrategy,
    /// Which communicator fabric carries the collectives: in-process
    /// threads or the multi-process TCP backend. Either way the loss
    /// trajectory is bitwise identical — the algorithm layer pins one
    /// reduction order.
    pub backend: CommBackend,
    /// Unused: nothing sets it, and [`train`] refuses `Some`; the fused
    /// exchange is one message. It stays only because the frozen
    /// benchmark package reads it (`stepbench/src/traced.rs`); ROADMAP's
    /// "`stepbench` re-baseline" deletes it.
    pub fusion_threshold_bytes: Option<usize>,
}

impl TrainConfig {
    /// Paper-style defaults for a given worker count and schedule;
    /// `exec` and `backend` default to the installed
    /// [`RuntimeConfig`](crate::RuntimeConfig)'s (see its precedence rule).
    pub fn new(ranks: usize, local_batch: usize, epochs: usize, lr: LrSchedule) -> Self {
        let runtime = crate::runtime::current();
        TrainConfig {
            ranks,
            local_batch,
            epochs,
            lr,
            momentum: 0.9,
            weight_decay: 5e-4,
            label_smoothing: 0.0,
            kfac: None,
            seed: 42,
            telemetry: None,
            exec: runtime.exec,
            backend: runtime.backend,
            fusion_threshold_bytes: None,
        }
    }

    /// Attach a K-FAC preconditioner configured by `cfg`, as given.
    pub fn with_kfac(mut self, cfg: KfacConfig) -> Self {
        self.kfac = Some(cfg);
        self
    }

    /// Select the execution strategy (e.g. `--overlap`).
    pub fn with_exec(mut self, exec: ExecStrategy) -> Self {
        self.exec = exec;
        self
    }

    /// Select the communicator backend.
    pub fn with_backend(mut self, backend: CommBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Per-epoch measurements from rank 0.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation top-1 accuracy in `[0, 1]` after the epoch.
    pub val_acc: f64,
    /// Wall-clock seconds spent in this epoch (training only).
    pub wall_s: f64,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Validation accuracy after the final epoch.
    pub final_val_acc: f64,
    /// Best validation accuracy over all epochs.
    pub best_val_acc: f64,
    /// Total training wall time, seconds.
    pub total_s: f64,
    /// Rank-0 communication volumes.
    pub traffic: Traffic,
    /// Rank-0 K-FAC stage stats (if K-FAC ran).
    pub stage_stats: Option<StageStats>,
    /// The telemetry registry the run recorded into: per-rank spans for
    /// every iteration stage, exportable via `kfac_telemetry::export`.
    pub telemetry: Registry,
    /// Rank-0 flat model parameters after the final epoch (visit_params
    /// order) — the witness for bitwise overlap-vs-sequential checks.
    pub final_params: Vec<f32>,
}

impl TrainResult {
    /// First epoch whose validation accuracy reached `target`, if any.
    pub fn epochs_to_reach(&self, target: f64) -> Option<usize> {
        self.epochs
            .iter()
            .find(|e| e.val_acc >= target)
            .map(|e| e.epoch)
    }
}

/// Average the model's gradients across ranks — the
/// `optimizer.synchronize()` step of Listing 1 — as one concatenated f32
/// message: the whole model as one bucket. The fused exchange has no
/// threshold to split it by and one wire width, so `threshold_bytes`
/// must be `None` and `wire_dtype` [`Dtype::F32`]; both arguments stay
/// only because the frozen benchmark package passes them.
///
/// # Panics
/// Panics on a `Some` threshold, a width other than f32 or a collective
/// fault; [`train_iteration`] runs the same exchange fallibly.
pub fn allreduce_gradients_fused(
    model: &mut dyn Layer,
    comm: &dyn Communicator,
    threshold_bytes: Option<usize>,
    wire_dtype: Dtype,
) {
    assert!(
        threshold_bytes.is_none(),
        "the fused gradient exchange is one message and takes no fusion threshold"
    );
    assert!(
        wire_dtype == Dtype::F32,
        "the fused gradient exchange travels as f32, not {}",
        wire_dtype.name()
    );
    try_allreduce_gradients_fused(model, comm, &RetryPolicy::none())
        .unwrap_or_else(|e| panic!("fused gradient exchange failed: {e}"));
}

/// The fused gradient exchange under `retry`: every gradient, flattened
/// in `visit_params` order, averaged by one [`reduce_bucket`] and written
/// back. On `Err` the model's gradients are untouched (still this rank's
/// local ones).
fn try_allreduce_gradients_fused(
    model: &mut dyn Layer,
    comm: &dyn Communicator,
    retry: &RetryPolicy,
) -> Result<(), CollectiveError> {
    if comm.size() == 1 {
        return Ok(());
    }
    let mut bucket = Vec::with_capacity(model.num_params());
    model.visit_params("", &mut |_, _, g| bucket.extend_from_slice(g));
    let averaged = reduce_bucket(comm, &bucket, retry)?;
    let mut off = 0;
    model.visit_params("", &mut |_, _, g| {
        g.copy_from_slice(&averaged[off..off + g.len()]);
        off += g.len();
    });
    Ok(())
}

/// [`allreduce_gradients_fused`] with its fixed arguments filled in.
pub fn allreduce_gradients(model: &mut dyn Layer, comm: &dyn Communicator) {
    allreduce_gradients_fused(model, comm, None, Dtype::F32);
}

/// True when every gradient entry is finite — the health gate that
/// decides whether this iteration's update is applied at all.
pub fn gradients_finite(model: &mut dyn Layer) -> bool {
    gradients_within(model, f32::INFINITY)
}

/// True when every gradient entry is finite and at most `limit` in
/// magnitude. The iteration scans every gradient twice, so a tensor is
/// folded without branches (which vectorizes) and the early exit is
/// between tensors.
fn gradients_within(model: &mut dyn Layer, limit: f32) -> bool {
    let mut ok = true;
    model.visit_params("", &mut |_, _, g| {
        ok = ok
            && g.iter()
                .fold(true, |ok, v| ok & v.is_finite() & (v.abs() <= limit));
    });
    ok
}

/// One synchronous training iteration — the definition the ladder
/// ([`ResilientTrainer::step`]) runs under its [`FaultTolerance`], and
/// [`train`] through it with none: zero-grad, forward, loss, backward
/// and the gradient allreduce, health gate,
/// [`Kfac::try_step`], the gate again on the preconditioned gradients,
/// optimizer step. Every collective runs under `ft.retry`.
///
/// `exec` picks the gradient-exchange schedule and nothing else: `None`
/// is backward followed by the fused exchange; `Some(_)` (either
/// [`ExecMode`]) allreduces per-child buckets while backward is still
/// running ([`overlap`](crate::overlap), pinned bitwise to the fused
/// exchange).
///
/// Returns the local batch loss, what happened, and how many collectives
/// failed for good (exhausted retries or delivered a corrupted payload):
///
/// * a failed gradient exchange or an unhealthy loss/gradient (non-finite
///   or beyond `ft.grad_limit`) skips the update *before* K-FAC runs, so
///   the factor averages never see the bad batch;
/// * a degraded Factor/Eigen exchange keeps stale K-FAC state and the
///   step proceeds; a failed K-FAC-lw Precond exchange skips the update;
/// * a lost rank returns [`StepOutcome::RankLost`] at once.
///
/// Post-allreduce gradients and the shared fault plan are identical on
/// every rank, so each outcome is group-consistent by construction.
/// Every skip bumps the ambient `train/skipped_steps` counter.
#[allow(clippy::too_many_arguments)]
pub fn train_iteration(
    model: &mut Sequential,
    kfac: &mut Option<Kfac>,
    optimizer: &mut Sgd,
    comm: &dyn Communicator,
    x: &Tensor4,
    labels: &[usize],
    criterion: &CrossEntropyLoss,
    lr: f32,
    exec: Option<ExecMode>,
    ft: &FaultTolerance,
) -> (f32, StepOutcome, u32) {
    let capture = kfac.as_ref().is_some_and(|k| k.needs_capture());
    let skipped = |loss, faults| {
        if let Some((registry, _)) = kfac_telemetry::current() {
            registry.counter("train/skipped_steps").inc();
        }
        (loss, StepOutcome::SkippedStep, faults)
    };
    // A collective failed for good: a lost rank ends the iteration at
    // once; otherwise there is nothing usable to apply and the whole
    // group skips.
    let failed = |loss, e| match e {
        CollectiveError::RankFailed(r) => (loss, StepOutcome::RankLost(r), 0),
        _ => skipped(loss, 1),
    };

    model.zero_grad();
    model.set_capture(capture);
    let (loss, grad) = {
        let _span = Span::enter("train/forward").with("batch", labels.len());
        let out = model.forward(x, Mode::Train);
        criterion.forward(&out, labels)
    };
    let exchanged = match exec {
        None => {
            {
                let _span = Span::enter("train/backward");
                let _ = model.backward(&grad);
            }
            let _span = Span::enter("train/grad_allreduce");
            try_allreduce_gradients_fused(model, comm, &ft.retry)
        }
        Some(_) => backward_exchanging_buckets(model, &grad, comm, &ft.retry),
    };
    if let Err(e) = exchanged {
        return failed(loss, e);
    }
    if !loss.is_finite() || !gradients_within(model, ft.grad_limit) {
        return skipped(loss, 0);
    }

    let mut faults = 0;
    if let Some(k) = kfac {
        let stepped = {
            let _span = Span::enter("train/kfac_step").with("capture", capture as u64);
            k.try_step(model, comm, lr, &ft.retry)
        };
        match stepped {
            Ok(degraded) => faults = degraded,
            Err(e) => return failed(loss, e),
        }
        // Silent corruption that slipped past the factor guards shows up
        // in the preconditioned gradients.
        if !gradients_within(model, ft.grad_limit) {
            return skipped(loss, faults);
        }
    }
    {
        let _span = Span::enter("train/opt_step");
        optimizer.step(model, lr);
    }
    (loss, StepOutcome::Stepped, faults)
}

/// Sharded validation: each rank evaluates a slice of the validation
/// set; correct/total counts are allreduced.
fn validate(
    model: &mut Sequential,
    val: &dyn Dataset,
    comm: &dyn Communicator,
    batch: usize,
) -> f64 {
    let rank = comm.rank();
    let world = comm.size();
    let n = val.len();
    let per_rank = n.div_ceil(world);
    let start = (rank * per_rank).min(n);
    let end = ((rank + 1) * per_rank).min(n);

    let mut correct = 0usize;
    let mut total = 0usize;
    let mut idx = start;
    while idx < end {
        let stop = (idx + batch).min(end);
        let indices: Vec<usize> = (idx..stop).collect();
        let (x, labels) = batch_of(val, &indices, 0);
        let out = model.forward(&x, Mode::Eval);
        correct += kfac_nn::top1_correct(&out, &labels);
        total += labels.len();
        idx = stop;
    }

    let mut counts = [correct as f32, total as f32];
    comm.allreduce_tagged(&mut counts, ReduceOp::Sum, TrafficClass::Other);
    counts[0] as f64 / counts[1] as f64
}

/// The ladder [`train`] runs on: no retries, no gradient-magnitude
/// limit, no checkpoints.
pub(crate) const NO_FAULT_TOLERANCE: FaultTolerance = FaultTolerance {
    retry: RetryPolicy::none(),
    grad_limit: f32::INFINITY,
    checkpoint_every: 0,
};

/// One planned iteration of a rank: its sample indices, its epoch (the
/// batch is drawn as variant `epoch + 1`) and its learning rate.
#[derive(Debug, Clone)]
pub struct Planned {
    pub indices: Vec<usize>,
    pub epoch: usize,
    pub lr: f32,
}

/// Every iteration `rank` of `world` runs over `cfg.epochs` epochs of a
/// `ds_len`-sample training set: the sharded sampler's epochs flattened
/// in order, each batch at the schedule's learning rate for
/// `epoch + bi / iters_per_epoch`. A shrunken group re-derives its plan
/// from the new `(world, rank)`, as K-FAC recomputes its factor
/// assignment.
pub fn batch_plan(cfg: &TrainConfig, ds_len: usize, world: usize, rank: usize) -> Vec<Planned> {
    let sampler = ShardedSampler::new(ds_len, world, rank, cfg.local_batch, cfg.seed ^ 0x5a5a);
    let iters_per_epoch = sampler.batches_per_epoch();
    (0..cfg.epochs)
        .flat_map(|epoch| {
            let batches = sampler.epoch_batches(epoch).into_iter().enumerate();
            batches.map(move |(bi, indices)| Planned {
                indices,
                epoch,
                lr: cfg
                    .lr
                    .lr_at(epoch as f32 + bi as f32 / iters_per_epoch as f32),
            })
        })
        .collect()
}

/// The one loop that walks training batches through the ladder: step
/// `ladder` over `plan` on `comm`, on `cfg`'s gradient-exchange schedule
/// and loss, drawing each batch from `ds`. Stops at the first
/// [`StepOutcome::RankLost`]; returns the local losses of the iterations
/// run and the lost rank, if any. Each iteration is a `train/iteration`
/// span and updates the ambient registry's loss and iteration-time
/// probes.
#[allow(clippy::too_many_arguments)]
pub fn run_plan(
    ladder: &mut ResilientTrainer,
    model: &mut Sequential,
    kfac: &mut Option<Kfac>,
    optimizer: &mut Sgd,
    comm: &dyn Communicator,
    ds: &dyn Dataset,
    plan: &[Planned],
    cfg: &TrainConfig,
) -> (Vec<f32>, Option<usize>) {
    let criterion = CrossEntropyLoss::with_smoothing(cfg.label_smoothing);
    let registry = kfac_telemetry::current().map(|(r, _)| r);
    let mut losses = Vec::with_capacity(plan.len());
    for (i, batch) in plan.iter().enumerate() {
        let t_iter = Instant::now();
        let _iter_span = Span::enter("train/iteration")
            .with("epoch", batch.epoch)
            .with("iter", i);
        let (x, labels) = batch_of(ds, &batch.indices, batch.epoch as u64 + 1);
        let (loss, outcome) = ladder.step(
            cfg.exec.exec_mode(),
            model,
            kfac,
            optimizer,
            comm,
            &x,
            &labels,
            &criterion,
            batch.lr,
            batch.epoch,
        );
        if let StepOutcome::RankLost(r) = outcome {
            return (losses, Some(r));
        }
        losses.push(loss);
        // Trajectory probes for the flight recorder's snapshots. Pure
        // reads of already-computed values: the training math never
        // consumes them.
        if let Some(registry) = &registry {
            registry.gauge("train/loss").set(loss as f64);
            let iter_us = t_iter.elapsed().as_micros();
            registry
                .histogram("train/iter_time_us")
                .record(iter_us as f64);
        }
    }
    (losses, None)
}

/// Run one rank's training loop: per epoch, [`run_plan`] over that
/// epoch's batches, then validation.
fn run_rank(
    comm: &dyn Communicator,
    build_model: &(dyn Fn(u64) -> Sequential + Sync),
    train_ds: &dyn Dataset,
    val_ds: &dyn Dataset,
    cfg: &TrainConfig,
    registry: &Registry,
) -> Option<TrainResult> {
    assert!(
        cfg.fusion_threshold_bytes.is_none(),
        "TrainConfig::fusion_threshold_bytes is unused and must stay None"
    );
    // Record this thread's spans into the run registry as `rank`; the
    // guard flushes on scope exit. Must precede Kfac::new and the
    // ladder, which capture the ambient recorder.
    let rank = comm.rank();
    let _telemetry = registry.install(rank);
    let setup_span = Span::enter("train/setup").with("ranks", cfg.ranks);
    // Identical replicas: every rank builds from the same seed (the
    // paper broadcasts initial weights; same-seed construction is the
    // deterministic equivalent).
    let mut model = build_model(cfg.seed);
    let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut kfac = cfg.kfac.clone().map(|k| Kfac::new(&mut model, k));
    let plan = batch_plan(cfg, train_ds.len(), comm.size(), rank);
    let mut ladder = ResilientTrainer::new(NO_FAULT_TOLERANCE);
    drop(setup_span);

    let mut records = Vec::with_capacity(cfg.epochs);
    let t_start = Instant::now();

    for batches in plan.chunk_by(|a, b| a.epoch == b.epoch) {
        let epoch = batches[0].epoch;
        let t_epoch = Instant::now();
        if let Some(k) = &mut kfac {
            k.set_epoch(epoch);
        }
        let (losses, lost) = run_plan(
            &mut ladder,
            &mut model,
            &mut kfac,
            &mut optimizer,
            comm,
            train_ds,
            batches,
            cfg,
        );
        // Without fault tolerance a lost rank or a failed collective is
        // fatal; only the health gate may skip a step.
        if let Some(r) = lost {
            panic!("rank {r} failed permanently");
        }
        assert_eq!(
            ladder.comm_faults, 0,
            "collective failed with no fault tolerance"
        );
        let wall_s = t_epoch.elapsed().as_secs_f64();

        let val_acc = {
            let _span = Span::enter("train/eval").with("epoch", epoch);
            validate(&mut model, val_ds, comm, cfg.local_batch.max(32))
        };
        let loss_sum = losses.iter().fold(0.0f64, |sum, &l| sum + l as f64);
        records.push(EpochRecord {
            epoch,
            train_loss: loss_sum / batches.len() as f64,
            val_acc,
            wall_s,
        });
    }

    if rank != 0 {
        return None;
    }
    let best = records.iter().map(|r| r.val_acc).fold(0.0, f64::max);
    let last = records.last().map(|r| r.val_acc).unwrap_or(0.0);
    let mut final_params = Vec::new();
    model.visit_params("", &mut |_, p, _| final_params.extend_from_slice(p));
    Some(TrainResult {
        final_val_acc: last,
        best_val_acc: best,
        total_s: t_start.elapsed().as_secs_f64(),
        traffic: comm.traffic(),
        stage_stats: kfac.map(|k| k.stats()),
        telemetry: registry.clone(),
        epochs: records,
        final_params,
    })
}

/// Run one rank of the training loop over a caller-provided
/// communicator — the entry point for worker *processes* (`xp` in
/// `KFAC_PROC_RANK` mode) and for tests that drive exotic fabrics
/// (fault-wrapped comms). Returns
/// `Some(TrainResult)` on global rank 0, `None` elsewhere. The caller
/// must ensure every rank of `comm`'s group runs this with an identical
/// `cfg`, datasets and `build_model`.
pub fn train_with_comm(
    comm: &dyn Communicator,
    build_model: &(dyn Fn(u64) -> Sequential + Sync),
    train_ds: &dyn Dataset,
    val_ds: &dyn Dataset,
    cfg: &TrainConfig,
) -> Option<TrainResult> {
    run_rank(comm, build_model, train_ds, val_ds, cfg, &run_registry(cfg))
}

/// The registry a run records into: `cfg`'s, else the calling thread's
/// ambient one (so `xp --trace-out` captures every run it drives without
/// each driver threading a handle), else a fresh one.
fn run_registry(cfg: &TrainConfig) -> Registry {
    cfg.telemetry
        .clone()
        .or_else(|| kfac_telemetry::current().map(|(r, _)| r))
        .unwrap_or_default()
}

/// Train a model across `cfg.ranks` simulated workers.
///
/// `build_model(seed)` must be deterministic: every rank calls it with
/// the same seed to obtain identical replicas.
pub fn train(
    build_model: impl Fn(u64) -> Sequential + Sync,
    train_ds: &dyn Dataset,
    val_ds: &dyn Dataset,
    cfg: &TrainConfig,
) -> TrainResult {
    assert!(cfg.ranks >= 1);
    let registry = run_registry(cfg);
    if cfg.ranks == 1 {
        let comm = LocalComm::new();
        return run_rank(&comm, &build_model, train_ds, val_ds, cfg, &registry)
            .expect("rank 0 returns");
    }
    // Both fabrics run the same collective stack under the same policy.
    let policy = crate::runtime::current().algo_policy();
    match cfg.backend {
        CommBackend::Thread => {
            let comms = ThreadComm::create_with(
                cfg.ranks,
                policy,
                kfac_collectives::thread::MESH_RECV_TIMEOUT,
            );
            drive_group(&comms, &build_model, train_ds, val_ds, cfg, &registry)
        }
        // Same rank threads, but every collective crosses a real TCP
        // socket through the proc wire path (the in-process harness for
        // the multi-process fabric; true process workers enter through
        // `train_with_comm`).
        CommBackend::Proc => {
            let comms = ProcComm::create_local_with(
                cfg.ranks,
                policy,
                kfac_collectives::ProcConfig::DEFAULT_TIMEOUT,
            )
            .unwrap_or_else(|e| panic!("proc backend rendezvous failed: {e}"));
            drive_group(&comms, &build_model, train_ds, val_ds, cfg, &registry)
        }
    }
}

/// Spawn one thread per rank over an already-created communicator group
/// and collect rank 0's result.
fn drive_group<C: Communicator + Sync>(
    comms: &[C],
    build_model: &(dyn Fn(u64) -> Sequential + Sync),
    train_ds: &dyn Dataset,
    val_ds: &dyn Dataset,
    cfg: &TrainConfig,
    registry: &Registry,
) -> TrainResult {
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || run_rank(comm, build_model, train_ds, val_ds, cfg, registry))
            })
            .collect();
        let mut result = None;
        for h in handles {
            if let Some(r) = h.join().expect("rank thread panicked") {
                result = Some(r);
            }
        }
        result.expect("rank 0 returns a result")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac::DistStrategy;
    use kfac_data::synthetic_cifar;
    use kfac_nn::resnet::resnet_cifar;
    use kfac_telemetry::AttrValue;
    use kfac_tensor::Rng64;

    fn tiny_cfg(ranks: usize, epochs: usize) -> TrainConfig {
        TrainConfig::new(
            ranks,
            16,
            epochs,
            LrSchedule::paper_steps(0.05, vec![epochs * 2]),
        )
    }

    fn build(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        resnet_cifar(1, 4, 10, 3, &mut rng)
    }

    #[test]
    fn single_rank_training_learns() {
        let (train_ds, val_ds) = synthetic_cifar(8, 256, 64, 7);
        let mut cfg = tiny_cfg(1, 4);
        cfg.lr.warmup_epochs = 1.0;
        let result = train(build, &train_ds, &val_ds, &cfg);
        assert_eq!(result.epochs.len(), 4);
        // Better than chance (10 classes) after a few epochs.
        assert!(
            result.best_val_acc > 0.2,
            "val acc {} too low",
            result.best_val_acc
        );
        // Loss decreased.
        assert!(result.epochs.last().unwrap().train_loss < result.epochs[0].train_loss);
    }

    /// Two ranks train and exchange gradients, and learn above chance:
    /// sharding differs from one rank's batches, so nothing bitwise holds
    /// against a single-rank run.
    #[test]
    fn two_ranks_exchange_gradients_and_learn_above_chance() {
        let (train_ds, val_ds) = synthetic_cifar(8, 256, 64, 7);
        let mut cfg = tiny_cfg(2, 3);
        cfg.local_batch = 8;
        cfg.lr.warmup_epochs = 1.0;
        let result = train(build, &train_ds, &val_ds, &cfg);
        assert_eq!(result.epochs.len(), 3);
        assert!(
            result.traffic.gradient_bytes > 0,
            "gradients were exchanged"
        );
        assert!(
            result.best_val_acc > 0.12,
            "above chance: {}",
            result.best_val_acc
        );
    }

    #[test]
    fn kfac_run_produces_stage_stats_and_traffic_classes() {
        let (train_ds, val_ds) = synthetic_cifar(8, 128, 32, 9);
        let mut cfg = tiny_cfg(2, 2);
        cfg.local_batch = 8;
        cfg.kfac = Some(KfacConfig {
            update_freq: 4,
            ..KfacConfig::default()
        });
        let result = train(build, &train_ds, &val_ds, &cfg);
        let stats = result.stage_stats.expect("kfac ran");
        assert!(stats.steps > 0);
        assert!(stats.factor_updates > 0);
        assert!(stats.eig_updates > 0);
        assert!(result.traffic.factor_bytes > 0);
        assert!(result.traffic.eigen_bytes > 0);
    }

    /// 16 iterations at `update_freq` 5 are four eigen updates (0, 5, 10,
    /// 15) with factors folding every iteration; the bucketed schedule
    /// moves one `Factor` payload per eigen update, under either
    /// distribution strategy (`tests/pins.rs` pins its bytes per class to
    /// the fused exchange's). Its gradient allreduces, one per bucket and
    /// iteration, run on each rank's `comm` lane.
    #[test]
    fn bucketed_schedule_exchanges_factors_once_per_eigen_update() {
        // 2 ranks × batch 8 × 16 batches.
        let (train_ds, val_ds) = synthetic_cifar(8, 256, 32, 11);
        for strategy in [DistStrategy::Opt, DistStrategy::Lw] {
            let mut cfg = tiny_cfg(2, 1).with_exec(ExecStrategy::Overlapped { compute_workers: 1 });
            cfg.local_batch = 8;
            cfg.kfac = Some(KfacConfig {
                update_freq: 5,
                strategy,
                ..KfacConfig::default()
            });
            let bucketed = train(build, &train_ds, &val_ds, &cfg);
            let stats = bucketed.stage_stats.as_ref().expect("kfac ran");
            assert_eq!(
                (stats.steps, stats.factor_updates, stats.eig_updates),
                (16, 16, 4)
            );
            let payload: u64 = {
                let mut model = build(cfg.seed);
                let kfac = Kfac::new(&mut model, KfacConfig::default());
                // The packed upper triangles, f32 words.
                let triangle = |n: usize| (4 * n * (n + 1) / 2) as u64;
                kfac.factors().iter().map(|f| triangle(f.dim)).sum()
            };
            assert_eq!(bucketed.traffic.factor_bytes, stats.eig_updates * payload);
            let calls = bucketed.telemetry.span_agg("kfac/factor_comm", Some(0));
            assert_eq!(calls.count, stats.eig_updates);
            assert_eq!(
                bucketed.traffic.precond_bytes > 0,
                strategy == DistStrategy::Lw
            );

            let buckets = build(cfg.seed)
                .child_param_counts()
                .iter()
                .filter(|&&n| n > 0)
                .count();
            let events = bucketed.telemetry.events();
            for rank in 0..2 {
                let grad_allreduces: Vec<_> = events
                    .iter()
                    .filter(|e| {
                        e.rank == rank
                            && e.name == "comm/allreduce"
                            && e.attr("class") == Some(&AttrValue::Str("gradient".into()))
                    })
                    .collect();
                assert_eq!(grad_allreduces.len(), buckets * 16, "rank {rank}");
                assert!(
                    grad_allreduces.iter().all(|e| e.lane == Some("comm")),
                    "rank {rank}: a bucket was exchanged off the comm lane"
                );
            }
        }
    }

    /// A checkpoint the ladder takes in epoch 1 of the loop records that
    /// epoch beside the iteration it resumes at.
    #[test]
    fn ladder_checkpoint_records_the_epoch_of_its_step() {
        // 64 samples at local batch 16: four iterations per epoch.
        let (train_ds, _) = synthetic_cifar(8, 64, 16, 7);
        let cfg = tiny_cfg(1, 2);
        let plan = batch_plan(&cfg, train_ds.len(), 1, 0);
        let epochs: Vec<usize> = plan.iter().map(|b| b.epoch).collect();
        assert_eq!(epochs, [0, 0, 0, 0, 1, 1, 1, 1]);
        let mut model = build(cfg.seed);
        let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
        let mut ladder = ResilientTrainer::new(FaultTolerance {
            checkpoint_every: 3,
            ..FaultTolerance::default()
        });
        let comm = LocalComm::new();
        let (losses, lost) = run_plan(
            &mut ladder,
            &mut model,
            &mut None,
            &mut optimizer,
            &comm,
            &train_ds,
            &plan,
            &cfg,
        );
        assert_eq!((losses.len(), lost), (8, None));
        // Taken after steps 3 and 6; step 6 is iteration 5, in epoch 1.
        let blob = ladder.latest_checkpoint().expect("a checkpoint was taken");
        let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
        let position = crate::checkpoint::restore(blob, &mut build(0), &mut optimizer, None);
        assert_eq!(position, Ok((6, 1)));
    }

    /// Nothing reads `fusion_threshold_bytes`, so `train` refuses a value
    /// rather than ignore it.
    #[test]
    #[should_panic(expected = "fusion_threshold_bytes")]
    fn train_refuses_a_fusion_threshold() {
        let (train_ds, val_ds) = synthetic_cifar(8, 32, 8, 7);
        let mut cfg = tiny_cfg(1, 1);
        cfg.fusion_threshold_bytes = Some(1 << 20);
        train(build, &train_ds, &val_ds, &cfg);
    }

    /// Every gradient travels as f32: the fused exchange refuses a bf16
    /// wire rather than send what it names.
    #[test]
    #[should_panic(expected = "travels as f32, not bf16")]
    fn fused_exchange_refuses_a_bf16_wire() {
        let mut model = build(1);
        allreduce_gradients_fused(&mut model, &LocalComm::new(), None, Dtype::Bf16);
    }

    /// The fused exchange is one gradient message:
    /// one collective per rank, charged what `try_allreduce_half` charges
    /// for every parameter at once, and each tensor averaged bit for bit
    /// as its own `try_allreduce_half` averages it (the fold is
    /// element-wise in rank order, so framing cannot move a bit).
    #[test]
    fn fused_exchange_is_one_gradient_message() {
        use crate::presets::Demo;
        use kfac_collectives::wire::try_allreduce_half;
        let wire = Dtype::F32;
        let comms = ThreadComm::create(2);
        std::thread::scope(|s| {
            for (rank, comm) in comms.iter().enumerate() {
                s.spawn(move || {
                    let mut model = Demo::model(3);
                    let mut rng = Rng64::new(17 + rank as u64);
                    let mut local = Vec::new();
                    model.visit_params("", &mut |_, _, g| {
                        g.iter_mut().for_each(|v| *v = rng.normal_f32());
                        local.push(g.to_vec());
                    });
                    // Traffic and the average of `buf` as `try_allreduce_half` sends it.
                    let average = |mut buf: Vec<f32>| {
                        let before = comm.traffic();
                        try_allreduce_half(
                            comm,
                            &mut buf,
                            ReduceOp::Average,
                            TrafficClass::Gradient,
                            wire,
                        )
                        .unwrap();
                        let after = comm.traffic();
                        (buf, after.gradient_bytes - before.gradient_bytes)
                    };

                    let before = comm.traffic();
                    allreduce_gradients_fused(&mut model, comm, None, wire);
                    let after = comm.traffic();
                    assert_eq!(after.ops - before.ops, 1, "{wire:?} rank {rank}");
                    assert_eq!(
                        after.gradient_bytes - before.gradient_bytes,
                        average(local.concat()).1,
                        "{wire:?} rank {rank}: the bytes of one message of every parameter"
                    );

                    let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let mut tensors = local.into_iter();
                    model.visit_params("", &mut |name, _, g| {
                        let (alone, _) = average(tensors.next().unwrap());
                        assert_eq!(bits(g), bits(&alone), "{wire:?} rank {rank} {name}");
                    });
                });
            }
        });
    }

    /// The gate's predicate at its edges: the limit is inclusive and
    /// compares magnitudes, and an infinity is rejected even when the
    /// limit is infinite (what `train` passes).
    #[test]
    fn gate_rejects_non_finite_and_over_limit_entries() {
        let mut model = build(1);
        let set_first = |model: &mut Sequential, v: f32| {
            model.zero_grad();
            let mut first = true;
            model.visit_params("", &mut |_, _, g| {
                if std::mem::take(&mut first) {
                    g[0] = v;
                }
            });
        };
        set_first(&mut model, -3.0);
        assert!(gradients_within(&mut model, 3.0));
        assert!(!gradients_within(&mut model, 2.9));
        assert!(gradients_finite(&mut model));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            set_first(&mut model, bad);
            assert!(!gradients_finite(&mut model), "{bad}");
            assert!(!gradients_within(&mut model, 1e6), "{bad}");
        }
    }

    #[test]
    fn epochs_to_reach_finds_threshold() {
        let r = TrainResult {
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    train_loss: 1.0,
                    val_acc: 0.3,
                    wall_s: 1.0,
                },
                EpochRecord {
                    epoch: 1,
                    train_loss: 0.5,
                    val_acc: 0.6,
                    wall_s: 1.0,
                },
                EpochRecord {
                    epoch: 2,
                    train_loss: 0.4,
                    val_acc: 0.7,
                    wall_s: 1.0,
                },
            ],
            final_val_acc: 0.7,
            best_val_acc: 0.7,
            total_s: 3.0,
            traffic: Traffic::default(),
            stage_stats: None,
            telemetry: Registry::new(),
            final_params: Vec::new(),
        };
        assert_eq!(r.epochs_to_reach(0.6), Some(1));
        assert_eq!(r.epochs_to_reach(0.9), None);
    }
}
