//! The bucketed gradient exchange: backward with compute/communication
//! overlap.
//!
//! [`train_iteration`] exchanges gradients on one of two schedules. The
//! fused one runs after backward; this module is the other — Horovod's,
//! the paper's only overlap (§V-B): each parameterized top-level child's
//! gradients leave as one bucket the moment backward finishes the child,
//! and a background exchange thread allreduces the buckets in that order
//! while earlier layers are still in backprop. Everything after the
//! exchange (health gate, K-FAC step, optimizer step) is
//! [`train_iteration`]'s own straight-line code on both schedules, and
//! both average gradients through [`reduce_bucket`]: the fused one sends
//! the whole model as one bucket.
//!
//! **Numerics are bitwise identical to the fused exchange.** Per-bucket
//! `Average` allreduces equal the one fused allreduce element-wise: the
//! communicator reduces in rank order per element, independent of
//! framing.

use crate::resilient::StepOutcome;
use crate::trainer::{train_iteration, NO_FAULT_TOLERANCE};
use kfac::Kfac;
use kfac_collectives::{CollectiveError, Communicator, ReduceOp, RetryPolicy, TrafficClass};
use kfac_exec::ExecMode;
use kfac_nn::{CrossEntropyLoss, Layer, Sequential};
use kfac_optim::Sgd;
use kfac_telemetry::Span;
use kfac_tensor::Tensor4;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// How each rank exchanges its gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Backward, then one fused exchange (the reference oracle).
    Sequential,
    /// Gradient buckets allreduced on a background thread while backward
    /// is still running.
    Overlapped {
        /// Ignored: backward is the one compute task. Kept because the
        /// benchmark package spells it.
        compute_workers: usize,
    },
}

impl ExecStrategy {
    /// The schedule argument of [`train_iteration`]; `None` for
    /// `Sequential`.
    pub fn exec_mode(self) -> Option<ExecMode> {
        match self {
            ExecStrategy::Sequential => None,
            ExecStrategy::Overlapped { compute_workers } => {
                Some(ExecMode::Overlapped { compute_workers })
            }
        }
    }
}

/// One training iteration on the bucketed schedule, with no fault
/// tolerance: [`train_iteration`] with `Some(mode)`, panicking on a failed
/// collective or a lost rank exactly as [`train`](crate::train) does.
/// Returns the batch loss. All ranks must call this with
/// identically-shaped models so their collective sequences match.
/// `capture` is what the iteration derives itself
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
        Some(mode),
        &NO_FAULT_TOLERANCE,
    );
    if let StepOutcome::RankLost(r) = outcome {
        panic!("rank {r} failed permanently");
    }
    assert_eq!(faults, 0, "collective failed with no fault tolerance");
    loss
}

/// One child's gradients, flattened in `visit_params` order, with the
/// child's index.
type Bucket = (usize, Vec<f32>);

#[derive(Default)]
struct Queue {
    buckets: VecDeque<Bucket>,
    closed: bool,
}

/// Backward's hand-off to the exchange thread: buckets in the order
/// backward finishes them. The exchange thread parks on the condvar
/// between buckets rather than spinning, which matters when every core
/// is already running a rank.
#[derive(Default)]
struct Handoff {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Handoff {
    fn push(&self, bucket: Bucket) {
        self.queue.lock().buckets.push_back(bucket);
        self.ready.notify_one();
    }

    /// The next bucket, waiting for it; `None` once closed and drained.
    fn pop(&self) -> Option<Bucket> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(bucket) = queue.buckets.pop_front() {
                return Some(bucket);
            }
            if queue.closed {
                return None;
            }
            self.ready.wait(&mut queue);
        }
    }
}

/// Closes the hand-off when backward ends, however it ends: after a
/// panicking backward the exchange thread reduces what was queued and
/// finishes, so the panic propagates instead of hanging the join. It must
/// not drop queued buckets: a peer whose exchange thread already took the
/// same bucket would wait in that allreduce until its deadline.
struct CloseOnDrop<'a>(&'a Handoff);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.queue.lock().closed = true;
        self.0.ready.notify_one();
    }
}

/// Backward from `loss_grad` with the gradient exchange overlapped: one
/// bucket per parameterized top-level child, averaged under `retry` on
/// a scoped exchange thread while the sweep is
/// still running, then written back. On `Err` — a bucket failed for good
/// — the model's gradients are untouched (still this rank's local ones),
/// as after a failed fused exchange; the remaining buckets still ran, so
/// every rank issued the same collective sequence. A lost rank is
/// reported ahead of any other failure.
pub(crate) fn backward_exchanging_buckets(
    model: &mut Sequential,
    loss_grad: &Tensor4,
    comm: &dyn Communicator,
    retry: &RetryPolicy,
) -> Result<(), CollectiveError> {
    if comm.size() == 1 {
        let _span = Span::enter("train/backward");
        let _ = model.backward(loss_grad);
        return Ok(());
    }
    let handoff = Handoff::default();
    // The exchange thread records on the rank's `comm` lane.
    let telemetry = kfac_telemetry::current();
    let reduced = std::thread::scope(|s| {
        let exchange = s.spawn(|| {
            let _lane = telemetry
                .as_ref()
                .map(|(registry, rank)| registry.install_lane(*rank, "comm"));
            exchange_buckets(&handoff, comm, retry)
        });
        {
            let _close = CloseOnDrop(&handoff);
            let _span = Span::enter("train/backward");
            model.backward_each(loss_grad, &mut |c, layer| {
                let mut bucket = Vec::with_capacity(layer.num_params());
                layer.visit_params("", &mut |_, _, gs| bucket.extend_from_slice(gs));
                if !bucket.is_empty() {
                    handoff.push((c, bucket));
                }
            });
        }
        exchange
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })?;
    for (c, averaged) in reduced {
        let mut off = 0;
        model.visit_child_params(c, &mut |_, _, gs| {
            gs.copy_from_slice(&averaged[off..off + gs.len()]);
            off += gs.len();
        });
    }
    Ok(())
}

/// The exchange thread's loop: every bucket the hand-off delivers,
/// averaged in arrival order — all of them, even after one has failed.
fn exchange_buckets(
    handoff: &Handoff,
    comm: &dyn Communicator,
    retry: &RetryPolicy,
) -> Result<Vec<Bucket>, CollectiveError> {
    let mut reduced = Vec::new();
    let mut failures = Vec::new();
    while let Some((c, bucket)) = handoff.pop() {
        match reduce_bucket(comm, &bucket, retry) {
            Ok(averaged) => reduced.push((c, averaged)),
            Err(e) => failures.push(e),
        }
    }
    let lost = failures
        .iter()
        .find(|e| matches!(e, CollectiveError::RankFailed(_)));
    lost.or(failures.first()).map_or(Ok(reduced), |&e| Err(e))
}

/// One bucket of gradients averaged across the group under `retry` —
/// the unit both schedules exchange: the fused one
/// sends the whole model as one bucket, the bucketed one each child's. A
/// failed allreduce leaves its buffer unspecified, so each attempt
/// reduces a fresh copy of `bucket`.
pub(crate) fn reduce_bucket(
    comm: &dyn Communicator,
    bucket: &[f32],
    retry: &RetryPolicy,
) -> Result<Vec<f32>, CollectiveError> {
    retry.run(|| {
        let mut attempt = bucket.to_vec();
        comm.try_allreduce_tagged(&mut attempt, ReduceOp::Average, TrafficClass::Gradient)?;
        Ok(attempt)
    })
}
