//! Graph-based training iteration with compute/communication overlap.
//!
//! The sequential loop in [`trainer`](crate::trainer) runs
//! barrier-separated phases: backward, gradient allreduce, K-FAC step,
//! optimizer step. This module expresses the same iteration as a
//! [`TaskGraph`] (paper §V; Shi et al., arXiv:2107.06533) so the
//! [`Executor`] can hide communication behind computation:
//!
//! * the backward sweep signals a per-child external `Backward(c)` node
//!   as soon as that child's gradients are final, releasing the child's
//!   gradient bucket for allreduce while earlier layers are still in
//!   backprop;
//! * per-layer factor updates overlap the remaining gradient traffic.
//!
//! The factor allreduce is a node only on the iterations
//! [`Kfac::factor_exchange_due`] names — eigen updates — where it gates
//! the decompositions that read the averages. Whether it is due is read
//! with the rest of the iteration's plan, before the graph runs: a
//! factor-only iteration orders nothing K-FAC before `OptimStep`, whose
//! `advance()` moves the preconditioner to the next iteration, so a task
//! body that asked would be answered for the wrong one.
//!
//! **Numerics are bitwise identical to the sequential path.** Per-bucket
//! `Average` allreduces equal the one fused allreduce element-wise (the
//! communicator reduces in rank order per element, independent of
//! framing); the K-FAC phases are the exact methods `Kfac::step`
//! composes, partitioned along their real data dependencies; and the
//! task bodies lock shared state (model, preconditioner) so reorderings
//! the dependencies do permit never race.

use kfac::Kfac;
use kfac_collectives::{wire, Communicator, ReduceOp, TrafficClass};
use kfac_exec::{ExecMode, Executor, TaskGraph, TaskId, TaskKind};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::{Optimizer, Sgd};
use kfac_telemetry::Span;
use kfac_tensor::{Matrix, Tensor4};
use parking_lot::Mutex;

/// How each rank executes its training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Barrier-separated phases in program order (the reference oracle).
    Sequential,
    /// Task-graph execution: compute workers plus a dedicated
    /// communication worker overlapping collectives with computation.
    Overlapped {
        /// Compute worker threads per rank (≥ 1; the comm worker is
        /// extra).
        compute_workers: usize,
    },
    /// Task-graph execution on a single thread in a seeded topological
    /// order — deterministic replay for debugging overlap schedules.
    /// Every rank must use the same seed (collective order must match).
    Replay {
        /// Schedule seed; permutes execution order among ready tasks.
        seed: u64,
    },
}

impl ExecStrategy {
    /// The executor mode for this strategy; `None` for `Sequential`.
    pub fn exec_mode(self) -> Option<ExecMode> {
        match self {
            ExecStrategy::Sequential => None,
            ExecStrategy::Overlapped { compute_workers } => {
                Some(ExecMode::Overlapped { compute_workers })
            }
            ExecStrategy::Replay { seed } => Some(ExecMode::Replay { seed }),
        }
    }
}

/// Run one training iteration as a task graph. Returns the batch loss.
///
/// Mirrors one body of the sequential loop exactly: zero grads, forward,
/// loss, backward, gradient allreduce, K-FAC step phases (factor /
/// eigendecomposition / precondition, K-FAC-opt strategy), optimizer
/// step. All ranks must call this with identically-shaped models and the
/// same mode so their comm-task sequences match.
#[allow(clippy::too_many_arguments)]
pub fn overlap_iteration(
    model: &mut Sequential,
    kfac: &mut Option<Kfac>,
    optimizer: &mut Sgd,
    comm: &dyn Communicator,
    x: &Tensor4,
    labels: &[usize],
    criterion: &CrossEntropyLoss,
    lr: f32,
    capture: bool,
    mode: ExecMode,
) -> f32 {
    let world = comm.size();
    let rank = comm.rank();
    // Wire dtypes from the preconditioner's precision policy (f32 — the
    // bitwise-legacy passthrough — when no K-FAC or policy is default).
    // The sequential path reads the same policy, so overlap-vs-sequential
    // bitwise identity holds per wire dtype, not just for f32.
    let precision = kfac.as_ref().map(|k| k.precision()).unwrap_or_default();
    let grad_wire = precision.grad_wire;
    let factor_wire = precision.factor_wire;

    // Gradient buckets: one per parameterized top-level child, flattened
    // in visit_params order. (counts[c] == 0 children — activations,
    // pooling — have nothing to exchange.)
    let counts = model.child_param_counts();
    let buckets: Vec<usize> = (0..counts.len()).filter(|&c| counts[c] > 0).collect();
    let mut bucket_of_child: Vec<Option<usize>> = vec![None; counts.len()];
    for (b, &c) in buckets.iter().enumerate() {
        bucket_of_child[c] = Some(b);
    }
    let bucket_bufs: Vec<Mutex<Vec<f32>>> = buckets
        .iter()
        .map(|&c| Mutex::new(vec![0.0f32; counts[c]]))
        .collect();

    // The K-FAC plan for this iteration, read before the graph borrows
    // the preconditioner mutably (and before any task can `advance()` it).
    struct Plan {
        factor_iter: bool,
        exchange_due: bool,
        eig_iter: bool,
        n_layers: usize,
        assignment: Vec<usize>,
    }
    let plan = kfac.as_ref().map(|k| Plan {
        factor_iter: k.is_factor_iteration(),
        exchange_due: k.factor_exchange_due(),
        eig_iter: k.is_eig_iteration(),
        n_layers: k.num_layers(),
        assignment: k.eig_assignment(world),
    });
    let n_layers = plan.as_ref().map_or(0, |p| p.n_layers);

    let loss_cell = Mutex::new(0.0f32);
    let model_mx = Mutex::new(model);
    let kfac_mx = kfac.as_mut().map(Mutex::new);
    let optim_mx = Mutex::new(optimizer);
    let grad_slots: Vec<Mutex<Option<Matrix>>> = (0..n_layers).map(|_| Mutex::new(None)).collect();
    let precond_slots: Vec<Mutex<Option<Matrix>>> =
        (0..n_layers).map(|_| Mutex::new(None)).collect();

    // Shadow everything as shared references so `move` closures capture
    // copies of the references, not the values.
    let buckets = &buckets;
    let bucket_of_child = &bucket_of_child;
    let bucket_bufs = &bucket_bufs;
    let loss_cell = &loss_cell;
    let model_mx = &model_mx;
    let kfac_mx = &kfac_mx;
    let optim_mx = &optim_mx;
    let grad_slots = &grad_slots;
    let precond_slots = &precond_slots;
    let assignment: &[usize] = plan.as_ref().map_or(&[], |p| p.assignment.as_slice());
    let factor_iter = plan.as_ref().is_some_and(|p| p.factor_iter);

    // Declared before the graph: closures inside `g` borrow this vector,
    // so it must outlive `g`.
    let mut exts_storage = vec![TaskId(0); buckets.len()];

    let mut g = TaskGraph::new();

    // External completion events, created in reverse structural order —
    // the order the backward sweep signals them — so the comm worker's
    // ascending-id schedule matches gradient availability.
    for b in (0..buckets.len()).rev() {
        exts_storage[b] = g.add_external(TaskKind::Backward(buckets[b]), &[]);
    }
    let exts = &exts_storage;

    // Forward + loss + backward as one compute task; each finished child
    // drains its gradients into its bucket and signals its external.
    // Lock order everywhere below: model before preconditioner.
    let sweep = g.add(TaskKind::Custom("backward_sweep"), &[], move |ctl| {
        let mut model = model_mx.lock();
        model.zero_grad();
        model.set_capture(capture);
        let out = {
            let _span = Span::enter("train/forward").with("batch", labels.len());
            model.forward(x, Mode::Train)
        };
        let (loss, grad) = criterion.forward(&out, labels);
        *loss_cell.lock() = loss;
        let _span = Span::enter("train/backward");
        model.backward_each(&grad, &mut |c, layer| {
            if let Some(b) = bucket_of_child[c] {
                {
                    let mut buf = bucket_bufs[b].lock();
                    let mut off = 0;
                    layer.visit_params("", &mut |_, _, gs| {
                        buf[off..off + gs.len()].copy_from_slice(gs);
                        off += gs.len();
                    });
                }
                ctl.complete(exts[b]).unwrap();
            }
        });
    });

    // Per-bucket gradient allreduce, ids ascending in signal order.
    let mut grad_comms = Vec::with_capacity(buckets.len());
    for b in (0..buckets.len()).rev() {
        grad_comms.push(g.add(TaskKind::GradAllreduce(b), &[exts[b]], move |_| {
            let mut buf = bucket_bufs[b].lock();
            if world > 1 {
                wire::try_allreduce_half(
                    comm,
                    &mut buf,
                    ReduceOp::Average,
                    TrafficClass::Gradient,
                    grad_wire,
                )
                .expect("gradient allreduce");
            }
        }));
    }

    // Averaged gradients back into the model (single writer; needs the
    // sweep done so the model lock is free and grads are final).
    let mut wb_deps = grad_comms.clone();
    wb_deps.push(sweep);
    let writeback = g.add(TaskKind::Custom("grad_writeback"), &wb_deps, move |_| {
        let mut model = model_mx.lock();
        for (b, &c) in buckets.iter().enumerate() {
            let buf = bucket_bufs[b].lock();
            let mut off = 0;
            model.visit_child_params(c, &mut |_, _, gs| {
                gs.copy_from_slice(&buf[off..off + gs.len()]);
                off += gs.len();
            });
        }
    });

    // K-FAC phases (Opt strategy), partitioned along real dependencies.
    let mut precond_gate: Vec<TaskId> = Vec::new();
    if let Some(plan) = &plan {
        // Per-layer factor computation: depends only on the sweep
        // (captures are final after backward), so it overlaps the
        // gradient allreduces still in flight. Nothing waits for it on
        // an iteration that exchanges nothing.
        let mut fu_ids = Vec::new();
        if plan.factor_iter {
            for li in 0..n_layers {
                fu_ids.push(g.add(TaskKind::FactorUpdate(li), &[sweep], move |_| {
                    let mut model = model_mx.lock();
                    let mut k = kfac_mx.as_ref().unwrap().lock();
                    let _span = Span::enter("kfac/factor_comp").with("layer", li);
                    let mut layers = Vec::new();
                    model.collect_kfac(&mut layers);
                    k.factor_update_layer(li, &*layers[li]);
                }));
            }
        }
        // Present only when due, and then always ahead of the
        // decompositions (an exchange is due only on eig iterations).
        let mut factor_done: Vec<TaskId> = Vec::new();
        if plan.exchange_due {
            factor_done.push(g.add(TaskKind::FactorAllreduce(0), &fu_ids, move |_| {
                let mut k = kfac_mx.as_ref().unwrap().lock();
                let _span = Span::enter("kfac/factor_comm");
                if world > 1 {
                    let mut fused = k.factor_pack();
                    wire::try_allreduce_half(
                        comm,
                        &mut fused,
                        ReduceOp::Average,
                        TrafficClass::Factor,
                        factor_wire,
                    )
                    .expect("factor allreduce");
                    k.factor_unpack(&fused);
                }
            }));
        }
        if plan.eig_iter {
            // Owned eigendecompositions read the freshly exchanged
            // averages; with no fold since the last exchange there is
            // nothing to wait for and they start immediately.
            let mut ag_deps = factor_done.clone();
            let mine = (0..assignment.len()).filter(|&id| assignment[id] == rank);
            for id in mine {
                ag_deps.push(g.add(TaskKind::Eigendecomp(id), &factor_done, move |_| {
                    let mut k = kfac_mx.as_ref().unwrap().lock();
                    let _span = Span::enter("kfac/eig_comp").with("factor", id);
                    k.eig_compute_one(id);
                }));
            }
            precond_gate.push(g.add(TaskKind::EigenAllgather, &ag_deps, move |_| {
                let mut k = kfac_mx.as_ref().unwrap().lock();
                let _span = Span::enter("kfac/eig_comm");
                if world > 1 {
                    let payload = k.eig_local_payload(assignment, rank);
                    let gathered =
                        wire::try_allgather_half(comm, &payload, TrafficClass::Eigen, factor_wire)
                            .expect("eigen allgather");
                    k.eig_apply_gathered(assignment, rank, &gathered);
                }
                k.note_eig_update();
            }));
        }
    }

    // Per-layer preconditioning: needs averaged gradients and (on eig
    // iterations) the refreshed eigendecompositions.
    let mut final_deps: Vec<TaskId> = Vec::new();
    if kfac_mx.is_some() {
        for li in 0..n_layers {
            let deps: Vec<TaskId> = std::iter::once(writeback)
                .chain(precond_gate.iter().copied())
                .collect();
            final_deps.push(g.add(TaskKind::Precondition(li), &deps, move |_| {
                let mut model = model_mx.lock();
                let k = kfac_mx.as_ref().unwrap().lock();
                let _span = Span::enter("kfac/precond").with("layer", li);
                let mut layers = Vec::new();
                model.collect_kfac(&mut layers);
                let grad = layers[li].grad_matrix();
                let pg = k.precondition_one(li, &grad);
                *grad_slots[li].lock() = Some(grad);
                *precond_slots[li].lock() = Some(pg);
            }));
        }
    } else {
        final_deps.push(writeback);
    }

    // KL clip + writeback + SGD step close the iteration.
    g.add(TaskKind::OptimStep, &final_deps, move |_| {
        let mut model = model_mx.lock();
        if let Some(kfac) = kfac_mx.as_ref() {
            let mut k = kfac.lock();
            let mut layers = Vec::new();
            model.collect_kfac(&mut layers);
            let grads: Vec<Matrix> = grad_slots
                .iter()
                .map(|s| s.lock().take().unwrap())
                .collect();
            let preconds: Vec<Matrix> = precond_slots
                .iter()
                .map(|s| s.lock().take().unwrap())
                .collect();
            k.apply_with_clip(&mut layers, &preconds, &grads, lr);
            if factor_iter {
                k.note_factor_update();
            }
            k.advance();
        }
        let _span = Span::enter("train/opt_step");
        optim_mx.lock().step(&mut **model, lr);
    });

    Executor::run(g, mode).expect("overlap iteration graph completes");
    let loss = *loss_cell.lock();
    loss
}
