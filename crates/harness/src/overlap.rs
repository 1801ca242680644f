//! The bucketed gradient exchange: backward with compute/communication
//! overlap.
//!
//! [`train_iteration`] exchanges gradients on one of two schedules. The
//! fused one runs after backward; this module is the other — Horovod's,
//! the paper's only overlap (§V-B): a [`TaskGraph`] in which the backward
//! sweep signals a per-child external `Backward(c)` node as soon as that
//! child's gradients are final, releasing the child's gradient bucket for
//! allreduce on the [`Executor`]'s communication worker while earlier
//! layers are still in backprop. The graph ends where the overlap ends:
//! everything after the exchange (health gate, K-FAC step, optimizer
//! step) is [`train_iteration`]'s own straight-line code on both
//! schedules.
//!
//! **Numerics are bitwise identical to the fused exchange.** Per-bucket
//! `Average` allreduces equal the one fused allreduce element-wise: the
//! communicator reduces in rank order per element, independent of
//! framing.

use crate::trainer::{expect_no_fault, train_iteration, NO_FAULT_TOLERANCE};
use kfac::Kfac;
use kfac_collectives::{wire, CollectiveError, Communicator, ReduceOp, RetryPolicy, TrafficClass};
use kfac_exec::{ExecMode, Executor, TaskGraph, TaskId, TaskKind};
use kfac_nn::{CrossEntropyLoss, Sequential};
use kfac_optim::Sgd;
use kfac_telemetry::Span;
use kfac_tensor::{Dtype, Tensor4};
use parking_lot::Mutex;

/// How each rank exchanges its gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Backward, then one fused exchange (the reference oracle).
    Sequential,
    /// Task-graph execution: compute workers plus a dedicated
    /// communication worker allreducing gradient buckets while backward
    /// is still running.
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

/// One training iteration on the bucketed schedule, with no fault
/// tolerance: [`train_iteration`] under `mode`, panicking on a failed
/// collective or a lost rank exactly as [`train`](crate::train) does.
/// Returns the batch loss. All ranks must call this with
/// identically-shaped models and the same mode so their collective
/// sequences match. `capture` is what the iteration derives itself
/// ([`Kfac::needs_capture`]).
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
    debug_assert_eq!(capture, kfac.as_ref().is_some_and(Kfac::needs_capture));
    let (loss, outcome, faults) = train_iteration(
        model,
        kfac,
        optimizer,
        comm,
        x,
        labels,
        criterion,
        lr,
        None,
        Some(mode),
        &NO_FAULT_TOLERANCE,
    );
    expect_no_fault(outcome, faults);
    loss
}

/// Backward from `loss_grad` with the gradient exchange overlapped: one
/// bucket per parameterized top-level child, averaged at `grad_wire`
/// width under `retry` while the sweep is still running, then written
/// back. On `Err` — a bucket failed for good — the model's gradients are
/// untouched (still this rank's local ones), as after a failed fused
/// exchange; the remaining buckets still ran, so every rank issued the
/// same collective sequence. A lost rank is reported ahead of any other
/// failure.
pub(crate) fn backward_exchanging_buckets(
    model: &mut Sequential,
    loss_grad: &Tensor4,
    comm: &dyn Communicator,
    grad_wire: Dtype,
    retry: &RetryPolicy,
    mode: ExecMode,
) -> Result<(), CollectiveError> {
    let world = comm.size();
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
    let model_mx = Mutex::new(model);

    // Shadow everything as shared references so `move` closures capture
    // copies of the references, not the values.
    let buckets = &buckets;
    let bucket_of_child = &bucket_of_child;
    let bucket_bufs = &bucket_bufs;
    let model_mx = &model_mx;

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

    // Backward as one compute task; each finished child drains its
    // gradients into its bucket and signals its external.
    let sweep = g.add(TaskKind::Custom("backward_sweep"), &[], move |ctl| {
        let mut model = model_mx.lock();
        let _span = Span::enter("train/backward");
        model.backward_each(loss_grad, &mut |c, layer| {
            if let Some(b) = bucket_of_child[c] {
                {
                    let mut buf = bucket_bufs[b].lock();
                    let mut off = 0;
                    layer.visit_params("", &mut |_, _, gs| {
                        buf[off..off + gs.len()].copy_from_slice(gs);
                        off += gs.len();
                    });
                }
                ctl.complete(exts[b])
                    .expect("bucket events are external nodes");
            }
        });
    });

    // Per-bucket gradient allreduce, ids ascending in signal order. A
    // failed bucket poisons the write-back and nothing else: the buckets
    // after it depend only on their own externals.
    let mut wb_deps = vec![sweep];
    for b in (0..buckets.len()).rev() {
        wb_deps.push(
            g.add_fallible(TaskKind::GradAllreduce(b), &[exts[b]], move |_| {
                if world == 1 {
                    return Ok(());
                }
                let mut buf = bucket_bufs[b].lock();
                // A failed allreduce leaves its buffer unspecified, so each
                // attempt reduces a fresh copy of the bucket.
                *buf = retry.run(|| {
                    let mut attempt = buf.clone();
                    wire::try_allreduce_half(
                        comm,
                        &mut attempt,
                        ReduceOp::Average,
                        TrafficClass::Gradient,
                        grad_wire,
                    )?;
                    Ok(attempt)
                })?;
                Ok(())
            }),
        );
    }

    // Averaged gradients back into the model (single writer; needs the
    // sweep done so the model lock is free and grads are final).
    g.add(TaskKind::Custom("grad_writeback"), &wb_deps, move |_| {
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

    let report = Executor::run(g, mode).expect("gradient-exchange graph completes");
    let mut failures = report.failed.iter().map(|&(_, e)| e);
    let lost = failures
        .clone()
        .find(|e| matches!(e, CollectiveError::RankFailed(_)));
    lost.or(failures.next()).map_or(Ok(()), Err)
}
