//! Distributed synchronous training loop.
//!
//! Implements the paper's training procedure end-to-end (Fig. 1 +
//! Listing 1): each rank runs on its own thread with a full model
//! replica and a disjoint data shard; per iteration it computes
//! forward/backward on its local mini-batch, allreduces gradients,
//! optionally applies the K-FAC preconditioner, and takes an SGD step —
//! [`train_iteration`], the one definition of that iteration on both
//! gradient-exchange schedules, which the fault ladder
//! ([`ResilientTrainer`](crate::resilient::ResilientTrainer)) also
//! drives. Validation accuracy is computed with sharded evaluation and
//! count allreduce at the end of each epoch.

use crate::overlap::{backward_exchanging_buckets, ExecStrategy};
use crate::resilient::{FaultTolerance, StepOutcome};
use kfac::{Kfac, KfacConfig, StageStats};
use kfac_collectives::{
    CollectiveError, CommBackend, Communicator, FusionBuffer, LocalComm, ProcComm, ReduceOp,
    RetryPolicy, ThreadComm, Traffic, TrafficClass,
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
    /// Gradient fusion-buffer flush threshold in bytes; `None` is
    /// Horovod's 16 MiB default. Clamped by the collectives crate so an
    /// oversized tensor still flushes in one message. The fused exchange
    /// reads it; the bucketed one (`exec`) sends one message per child.
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

    /// Attach a K-FAC preconditioner, with the installed
    /// [`RuntimeConfig`](crate::RuntimeConfig)'s eigensolver and precision
    /// policy — when it carries them — substituted for `cfg`'s (see its
    /// precedence rule; assign `self.kfac` directly to pin both).
    pub fn with_kfac(mut self, mut cfg: KfacConfig) -> Self {
        let runtime = crate::runtime::current();
        if let Some(solver) = runtime.eig {
            cfg.eigen_solver = solver;
        }
        if let Some(policy) = runtime.precision {
            cfg.precision = policy;
        }
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

/// Average the model's gradients across ranks through a fusion buffer —
/// the `optimizer.synchronize()` step of Listing 1. With the default
/// 16 MiB threshold every CPU-scale model here still goes out as one
/// fused message; a smaller configured threshold splits the exchange into
/// several bandwidth-sized collectives. The split never changes the
/// result bits: reduction is element-wise in pinned rank order, so the
/// message partitioning is invisible to the math.
///
/// # Panics
/// Panics on a collective fault; [`train_iteration`] runs the same
/// exchange fallibly.
pub fn allreduce_gradients_fused(
    model: &mut dyn Layer,
    comm: &dyn Communicator,
    threshold_bytes: Option<usize>,
    wire_dtype: Dtype,
) {
    try_allreduce_gradients_fused(
        model,
        comm,
        threshold_bytes,
        wire_dtype,
        &RetryPolicy::none(),
    )
    .unwrap_or_else(|e| panic!("fusion flush failed: {e}"));
}

/// The fused gradient exchange with every flush under `retry`. On `Err`
/// the model's gradients are untouched (still this rank's local ones).
fn try_allreduce_gradients_fused(
    model: &mut dyn Layer,
    comm: &dyn Communicator,
    threshold_bytes: Option<usize>,
    wire_dtype: Dtype,
    retry: &RetryPolicy,
) -> Result<(), CollectiveError> {
    if comm.size() == 1 {
        return Ok(());
    }
    // `wire_dtype` selects the wire width of each fused message
    // (`PrecisionPolicy::grad_wire`); `Dtype::F32` is the plain tagged
    // allreduce, bit-for-bit.
    let mut fb =
        FusionBuffer::with_configured(threshold_bytes, ReduceOp::Average, TrafficClass::Gradient)
            .with_dtype(wire_dtype);
    let mut next_id = 0usize;
    let mut flushed = Ok(());
    model.visit_params("", &mut |_, _, g| {
        if flushed.is_ok() && fb.queue(next_id, g.to_vec()) {
            flushed = retry.run(|| fb.try_flush(comm));
        }
        next_id += 1;
    });
    flushed?;
    retry.run(|| fb.try_flush(comm))?;
    let mut done = fb.take_completed();
    done.sort_unstable_by_key(|(id, _)| *id);
    let mut reduced = done.into_iter();
    model.visit_params("", &mut |_, _, g| {
        let (_, data) = reduced.next().expect("one reduced tensor per parameter");
        g.copy_from_slice(&data);
    });
    Ok(())
}

/// [`allreduce_gradients_fused`] at the default threshold and
/// full-width (f32) wire.
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

/// One synchronous training iteration — the definition every caller
/// shares ([`train`] with no fault tolerance,
/// [`ResilientTrainer`](crate::resilient::ResilientTrainer) with the
/// ladder's): zero-grad, forward, loss, backward and the gradient
/// allreduce at `grad_wire` width, health gate, [`Kfac::try_step`], the
/// gate again on the preconditioned gradients, optimizer step. Every
/// collective runs under `ft.retry`.
///
/// `exec` picks the gradient-exchange schedule and nothing else: `None`
/// is backward followed by the fused exchange; `Some(_)` (either
/// [`ExecMode`]) allreduces per-child buckets while backward is still
/// running ([`overlap`](crate::overlap), pinned bitwise to the fused
/// exchange) and ignores `fusion_threshold`.
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
    fusion_threshold: Option<usize>,
    exec: Option<ExecMode>,
    ft: &FaultTolerance,
) -> (f32, StepOutcome, u32) {
    let capture = kfac.as_ref().is_some_and(|k| k.needs_capture());
    let grad_wire = kfac
        .as_ref()
        .map(|k| k.precision())
        .unwrap_or_default()
        .grad_wire;
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
            try_allreduce_gradients_fused(model, comm, fusion_threshold, grad_wire, &ft.retry)
        }
        Some(_) => backward_exchanging_buckets(model, &grad, comm, grad_wire, &ft.retry),
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

/// What [`train`] passes to [`train_iteration`]: no retries, no
/// gradient-magnitude limit, no checkpoints.
pub(crate) const NO_FAULT_TOLERANCE: FaultTolerance = FaultTolerance {
    retry: RetryPolicy::none(),
    grad_limit: f32::INFINITY,
    checkpoint_every: 0,
};

/// Without a ladder around it, a failed collective is fatal; only the
/// health gate may skip a step.
pub(crate) fn expect_no_fault(outcome: StepOutcome, faults: u32) {
    if let StepOutcome::RankLost(r) = outcome {
        panic!("rank {r} failed permanently");
    }
    assert_eq!(faults, 0, "collective failed with no fault tolerance");
}

/// Run one rank's training loop.
fn run_rank(
    rank: usize,
    comm: &dyn Communicator,
    build_model: &(dyn Fn(u64) -> Sequential + Sync),
    train_ds: &dyn Dataset,
    val_ds: &dyn Dataset,
    cfg: &TrainConfig,
    registry: &Registry,
) -> Option<TrainResult> {
    // Record this thread's spans into the run registry as `rank`; the
    // guard flushes on scope exit. Must precede Kfac::new, which
    // captures the ambient recorder for its stats view.
    let _telemetry = registry.install(rank);
    let setup_span = Span::enter("train/setup").with("ranks", cfg.ranks);
    // Identical replicas: every rank builds from the same seed (the
    // paper broadcasts initial weights; same-seed construction is the
    // deterministic equivalent).
    let mut model = build_model(cfg.seed);
    let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut kfac = cfg.kfac.clone().map(|k| Kfac::new(&mut model, k));
    let precision = cfg.kfac.as_ref().map(|k| k.precision).unwrap_or_default();
    if !precision.is_all_f32() {
        // Policy gauges for the live metrics plane: one per wire, value
        // = width in bits (32 or 16).
        for (stage, dtype) in [
            ("grad_wire", precision.grad_wire),
            ("factor_wire", precision.factor_wire),
        ] {
            registry
                .gauge(&format!("kfac/precision/{stage}_bits"))
                .set((dtype.size_of() * 8) as f64);
        }
    }
    let criterion = CrossEntropyLoss::with_smoothing(cfg.label_smoothing);
    let sampler = ShardedSampler::new(
        train_ds.len(),
        comm.size(),
        rank,
        cfg.local_batch,
        cfg.seed ^ 0x5a5a,
    );
    let iters_per_epoch = sampler.batches_per_epoch();
    drop(setup_span);

    let mut records = Vec::with_capacity(cfg.epochs);
    let t_start = Instant::now();

    for epoch in 0..cfg.epochs {
        let t_epoch = Instant::now();
        if let Some(k) = &mut kfac {
            k.set_epoch(epoch);
        }
        let mut loss_sum = 0.0f64;
        for (bi, indices) in sampler.epoch_batches(epoch).into_iter().enumerate() {
            let lr = cfg
                .lr
                .lr_at(epoch as f32 + bi as f32 / iters_per_epoch as f32);
            let t_iter = Instant::now();
            let _iter_span = Span::enter("train/iteration")
                .with("epoch", epoch)
                .with("iter", bi);
            let (x, labels) = batch_of(train_ds, &indices, epoch as u64 + 1);
            let (loss, outcome, faults) = train_iteration(
                &mut model,
                &mut kfac,
                &mut optimizer,
                comm,
                &x,
                &labels,
                &criterion,
                lr,
                cfg.fusion_threshold_bytes,
                cfg.exec.exec_mode(),
                &NO_FAULT_TOLERANCE,
            );
            expect_no_fault(outcome, faults);
            loss_sum += loss as f64;
            // Liveness + trajectory probes for the watchdog and the live
            // metrics plane. Pure reads of already-computed values: the
            // training math never consumes them.
            registry
                .gauge(kfac_telemetry::watchdog::names::LOSS)
                .set(loss as f64);
            registry
                .gauge(kfac_telemetry::watchdog::names::HEARTBEAT_US)
                .set(registry.micros_at(Instant::now()) as f64);
            registry
                .histogram("train/iter_time_us")
                .record(t_iter.elapsed().as_micros() as f64);
        }
        let wall_s = t_epoch.elapsed().as_secs_f64();

        let val_acc = {
            let _span = Span::enter("train/eval").with("epoch", epoch);
            validate(&mut model, val_ds, comm, cfg.local_batch.max(32))
        };
        records.push(EpochRecord {
            epoch,
            train_loss: loss_sum / iters_per_epoch.max(1) as f64,
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
    let registry = cfg
        .telemetry
        .clone()
        .or_else(|| kfac_telemetry::current().map(|(r, _)| r))
        .unwrap_or_default();
    run_rank(
        comm.rank(),
        comm,
        build_model,
        train_ds,
        val_ds,
        cfg,
        &registry,
    )
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
    // Precedence: explicit per-run registry, else the calling thread's
    // ambient one (so `xp --trace-out` captures every run it drives
    // without each driver threading a handle), else a fresh registry.
    let registry = cfg
        .telemetry
        .clone()
        .or_else(|| kfac_telemetry::current().map(|(r, _)| r))
        .unwrap_or_default();
    if cfg.ranks == 1 {
        let comm = LocalComm::new();
        return run_rank(0, &comm, &build_model, train_ds, val_ds, cfg, &registry)
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
                s.spawn(move || {
                    run_rank(
                        comm.rank(),
                        comm,
                        build_model,
                        train_ds,
                        val_ds,
                        cfg,
                        registry,
                    )
                })
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
                // Upper triangles (`triangular_factor_comm`), f32 words.
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
