//! The traced pass: the benchmark's own rank loop.
//!
//! It composes one training iteration from the crates' public functions
//! — the calls `kfac_harness::trainer` and `overlap.rs` compose — with a
//! benchmark-side span around each, and a [`TimedComm`] under every
//! collective. The arithmetic is the program's own, so the losses must
//! come out bit-identical to a timed `train()` of the same
//! configuration; the run checks that.

use crate::timed_comm::{ClassTotals, TimedComm, CLASSES};
use crate::trace::{SpanRec, Tracer};
use crate::workload::{Workload, EPOCHS};
use kfac::{DistStrategy, Kfac, StageStats};
use kfac_collectives::{
    wire, AlgoPolicy, CommBackend, Communicator, ProcComm, ProcConfig, ReduceOp, ThreadComm,
    TrafficClass,
};
use kfac_data::{batch_of, Dataset, ShardedSampler};
use kfac_exec::ExecMode;
use kfac_harness::trainer::{allreduce_gradients_fused, gradients_finite, TrainConfig};
use kfac_harness::{checkpoint, overlap::overlap_iteration};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::{Optimizer, Sgd};
use kfac_telemetry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// How a traced pass spells the iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PassMode {
    /// The benchmark's sequential composition of the phase functions
    /// (K-FAC-opt), or the `Kfac::step` monolith where that is the only
    /// public entry (K-FAC-lw).
    Composed,
    /// `overlap_iteration` on the task graph.
    Graph(ExecMode),
}

/// Checkpoint stall, measured on rank 0 after the last iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCost {
    /// Median `checkpoint::save` time, ms.
    pub save_ms: f64,
    /// Median `checkpoint::restore` time, ms.
    pub restore_ms: f64,
    /// Blob size.
    pub bytes: usize,
}

/// What rank 0 of a traced pass ends with.
#[derive(Default)]
pub struct RankOut {
    /// Mean training loss per epoch, computed as `train()` does.
    pub epoch_losses: Vec<f64>,
    /// Hash of the final parameters.
    pub params_hash: u64,
    /// The preconditioner's counters.
    pub stats: Option<StageStats>,
    /// `Kfac::save_state().len()` (0 without K-FAC).
    pub state_bytes: usize,
    /// Checkpoint cost.
    pub checkpoint: CheckpointCost,
}

/// What one traced pass produced.
pub struct PassResult {
    /// Spans per rank.
    pub spans: Vec<Vec<SpanRec>>,
    /// Collective totals per rank, in [`CLASSES`] order.
    pub comm: Vec<[ClassTotals; 5]>,
    /// Iterations run.
    pub iters: usize,
    /// Rank 0's results.
    pub rank0: RankOut,
}

/// FNV-1a over the bit patterns: a cheap witness that two parameter
/// vectors are bitwise equal.
pub fn hash_f32(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One K-FAC-opt step as `Kfac::step` composes it, one span per phase.
fn composed_opt_step(
    k: &mut Kfac,
    model: &mut Sequential,
    comm: &dyn Communicator,
    lr: f32,
    tracer: &Tracer,
) {
    let world = comm.size();
    let rank = comm.rank();
    let factor_wire = k.precision().factor_wire;
    if k.is_factor_iteration() {
        tracer.span("kfac.factor_comp", || {
            let mut layers = Vec::new();
            model.collect_kfac(&mut layers);
            for (li, layer) in layers.iter().enumerate() {
                k.factor_update_layer(li, &**layer);
            }
        });
        if world > 1 {
            let mut fused = tracer.span("kfac.factor_pack", || k.factor_pack());
            wire::try_allreduce_half(
                comm,
                &mut fused,
                ReduceOp::Average,
                TrafficClass::Factor,
                factor_wire,
            )
            .expect("factor allreduce");
            tracer.span("kfac.factor_pack", || k.factor_unpack(&fused));
        }
        k.note_factor_update();
    }
    if k.is_eig_iteration() {
        let assignment = k.eig_assignment(world);
        for id in (0..assignment.len()).filter(|&id| assignment[id] == rank) {
            tracer.span("kfac.eig_comp", || k.eig_compute_one(id));
        }
        if world > 1 {
            let payload = tracer.span("kfac.eig_codec", || k.eig_local_payload(&assignment, rank));
            let gathered =
                wire::try_allgather_half(comm, &payload, TrafficClass::Eigen, factor_wire)
                    .expect("eigen allgather");
            tracer.span("kfac.eig_codec", || {
                k.eig_apply_gathered(&assignment, rank, &gathered)
            });
        }
        k.note_eig_update();
    }
    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);
    let grads: Vec<_> = tracer.span("kfac.grad_matrix", || {
        layers.iter().map(|l| l.grad_matrix()).collect()
    });
    let preconds: Vec<_> = tracer.span("kfac.precond", || {
        grads
            .iter()
            .enumerate()
            .map(|(li, g)| k.precondition_one(li, g))
            .collect()
    });
    tracer.span("kfac.clip_apply", || {
        k.apply_with_clip(&mut layers, &preconds, &grads, lr);
        k.advance();
    });
}

/// One rank's loop; mirrors `trainer::run_rank` line for line, minus
/// validation (which `train()` runs once per epoch, outside iterations).
fn rank_loop(
    comm: &dyn Communicator,
    tracer: &Tracer,
    registry: &Registry,
    w: &Workload,
    cfg: &TrainConfig,
    train_ds: &dyn Dataset,
    mode: PassMode,
) -> RankOut {
    let rank = comm.rank();
    // The program records its own telemetry spans during `train()`, and
    // the preconditioner does extra probe work when a recorder is
    // installed; keep both so the traced step costs what the timed one does.
    let _telemetry = registry.install(rank);
    let mut model = w.model_builder()(cfg.seed);
    let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut kfac = cfg.kfac.clone().map(|k| Kfac::new(&mut model, k));
    let grad_wire = cfg
        .kfac
        .as_ref()
        .map(|k| k.precision)
        .unwrap_or_default()
        .grad_wire;
    let criterion = CrossEntropyLoss::with_smoothing(cfg.label_smoothing);
    let sampler = ShardedSampler::new(
        train_ds.len(),
        comm.size(),
        rank,
        cfg.local_batch,
        cfg.seed ^ 0x5a5a,
    );
    let iters_per_epoch = sampler.batches_per_epoch();

    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut it = 0u32;
    for epoch in 0..cfg.epochs {
        if let Some(k) = &mut kfac {
            k.set_epoch(epoch);
        }
        let mut loss_sum = 0.0f64;
        for (bi, indices) in sampler.epoch_batches(epoch).into_iter().enumerate() {
            tracer.set_iter(it);
            it += 1;
            let _iter = tracer.enter("iter");
            let lr = cfg
                .lr
                .lr_at(epoch as f32 + bi as f32 / iters_per_epoch as f32);
            let capture = kfac.as_ref().is_some_and(|k| k.needs_capture());
            let (x, labels) = tracer.span("data.batch", || {
                batch_of(train_ds, &indices, epoch as u64 + 1)
            });
            if let PassMode::Graph(exec) = mode {
                let loss = tracer.span("exec.iteration", || {
                    overlap_iteration(
                        &mut model,
                        &mut kfac,
                        &mut optimizer,
                        comm,
                        &x,
                        &labels,
                        &criterion,
                        lr,
                        capture,
                        exec,
                    )
                });
                loss_sum += f64::from(loss);
                continue;
            }
            let (loss, grad) = tracer.span("nn.forward", || {
                model.zero_grad();
                model.set_capture(capture);
                let out = model.forward(&x, Mode::Train);
                criterion.forward(&out, &labels)
            });
            loss_sum += f64::from(loss);
            let backward = if capture {
                "nn.backward_capture"
            } else {
                "nn.backward"
            };
            tracer.span(backward, || {
                let _ = model.backward(&grad);
            });
            let healthy = tracer.span("harness.grad_sync", || {
                allreduce_gradients_fused(&mut model, comm, cfg.fusion_threshold_bytes, grad_wire);
                loss.is_finite() && gradients_finite(&mut model)
            });
            if !healthy {
                continue;
            }
            if let Some(k) = &mut kfac {
                match w.kfac.map(|spec| spec.strategy) {
                    Some(DistStrategy::Lw) => {
                        tracer.span("kfac.step", || k.step(&mut model, comm, lr));
                    }
                    _ => composed_opt_step(k, &mut model, comm, lr, tracer),
                }
            }
            tracer.span("optim.step", || optimizer.step(&mut model, lr));
        }
        epoch_losses.push(loss_sum / iters_per_epoch.max(1) as f64);
    }

    let mut out = RankOut {
        epoch_losses,
        stats: kfac.as_ref().map(|k| k.stats()),
        ..RankOut::default()
    };
    if rank == 0 {
        let mut params = Vec::new();
        model.visit_params("", &mut |_, p, _| params.extend_from_slice(p));
        out.params_hash = hash_f32(&params);
        out.state_bytes = kfac.as_ref().map_or(0, |k| k.save_state().len());
        out.checkpoint = checkpoint_cost(&mut model, &mut optimizer, kfac.as_mut(), it);
    }
    out
}

/// Save and restore the full training state a few times; medians.
/// Restoring the state just saved leaves the values as they were.
fn checkpoint_cost(
    model: &mut Sequential,
    optimizer: &mut Sgd,
    mut kfac: Option<&mut Kfac>,
    iteration: u32,
) -> CheckpointCost {
    const REPS: usize = 5;
    let mut save_ms = Vec::with_capacity(REPS);
    let mut restore_ms = Vec::with_capacity(REPS);
    let mut bytes = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let blob = checkpoint::save(
            model,
            optimizer,
            kfac.as_deref(),
            u64::from(iteration),
            EPOCHS as u64,
        );
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        checkpoint::restore(&blob, model, optimizer, kfac.as_deref_mut())
            .expect("a checkpoint restores into the state that wrote it");
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = blob.len();
    }
    CheckpointCost {
        save_ms: crate::stats::median(&save_ms),
        restore_ms: crate::stats::median(&restore_ms),
        bytes,
    }
}

fn drive<C: Communicator>(
    comms: Vec<C>,
    w: &Workload,
    cfg: &TrainConfig,
    train_ds: &dyn Dataset,
    mode: PassMode,
) -> PassResult {
    let origin = Instant::now();
    let registry = Registry::new();
    let ranks: Vec<(TimedComm<C>, Arc<Tracer>)> = comms
        .into_iter()
        .map(|c| {
            let tracer = Arc::new(Tracer::new(origin));
            (TimedComm::traced(c, Arc::clone(&tracer)), tracer)
        })
        .collect();
    let mut outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .iter()
            .map(|(comm, tracer)| {
                let registry = &registry;
                s.spawn(move || rank_loop(comm, tracer, registry, w, cfg, train_ds, mode))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced rank thread panicked"))
            .collect()
    });
    PassResult {
        spans: ranks.iter().map(|(_, t)| t.spans()).collect(),
        comm: ranks
            .iter()
            .map(|(c, _)| CLASSES.map(|class| c.totals(class)))
            .collect(),
        iters: cfg.epochs * (train_ds.len() / (cfg.ranks * cfg.local_batch)),
        rank0: outs.swap_remove(0),
    }
}

/// A communicator group of either fabric.
pub enum Group {
    /// In-process rendezvous.
    Thread(Vec<ThreadComm>),
    /// Loopback TCP mesh.
    Proc(Vec<ProcComm>),
}

/// Create the group for `cfg` exactly as `train()` creates its own.
pub fn create_group(cfg: &TrainConfig) -> Group {
    match cfg.backend {
        CommBackend::Thread => Group::Thread(ThreadComm::create(cfg.ranks)),
        CommBackend::Proc => Group::Proc(
            ProcComm::create_local_with(
                cfg.ranks,
                AlgoPolicy::from_env(),
                ProcConfig::DEFAULT_TIMEOUT,
            )
            .unwrap_or_else(|e| panic!("proc backend rendezvous failed: {e}")),
        ),
    }
}

/// Run one traced pass of `cfg` over a fresh communicator group.
pub fn run_pass(
    w: &Workload,
    cfg: &TrainConfig,
    train_ds: &dyn Dataset,
    mode: PassMode,
) -> PassResult {
    match create_group(cfg) {
        Group::Thread(comms) => drive(comms, w, cfg, train_ds, mode),
        Group::Proc(comms) => drive(comms, w, cfg, train_ds, mode),
    }
}
