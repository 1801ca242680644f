//! Horovod-style fusion buffer.
//!
//! Horovod coalesces many small allreduces into one large one by filling a
//! fusion buffer (16–32 MB in the paper, §II-D) so each collective is
//! bandwidth-dominated rather than latency-dominated. The K-FAC factor
//! exchange benefits most: a ResNet has hundreds of small factors whose
//! individual allreduces would each pay the latency term.
//!
//! [`FusionBuffer`] queues named tensors; once the byte threshold is
//! crossed (or [`FusionBuffer::flush`] is called) the queued tensors are
//! packed into one contiguous buffer, reduced with a single collective,
//! and unpacked back to their owners.

use crate::communicator::{Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::TrafficClass;
use crate::wire;
use kfac_tensor::half::Dtype;

/// Horovod's default fusion threshold (§II-D cites 16–32 MB).
pub const DEFAULT_FUSION_BYTES: usize = 16 << 20;

/// Configured thresholds are clamped to at least this. Below ~a page of
/// floats, fusion degenerates into one collective per tensor and the
/// latency term the buffer exists to amortize comes back.
pub const MIN_FUSION_BYTES: usize = 4 << 10;

/// Configured thresholds are clamped to at most this; a fused message
/// must stay under the wire frame ceiling with room to spare.
pub const MAX_FUSION_BYTES: usize = 512 << 20;

/// The effective flush threshold: the caller's configured value (e.g.
/// `TrainConfig::fusion_threshold_bytes`), else [`DEFAULT_FUSION_BYTES`],
/// clamped to `[MIN_FUSION_BYTES, MAX_FUSION_BYTES]` so no setting can
/// stall flushing or overflow a single wire frame. A tensor larger than
/// the threshold still goes out in one message: `push` flushes the whole
/// pending queue, oversized tail included, as soon as the threshold is
/// crossed.
pub fn resolve_threshold(configured: Option<usize>) -> usize {
    configured
        .unwrap_or(DEFAULT_FUSION_BYTES)
        .clamp(MIN_FUSION_BYTES, MAX_FUSION_BYTES)
}

/// One queued tensor awaiting fusion.
struct Pending {
    /// Caller-side identifier, returned on completion.
    id: usize,
    data: Vec<f32>,
}

/// Coalesces small allreduces into threshold-sized collectives.
pub struct FusionBuffer {
    threshold_bytes: usize,
    op: ReduceOp,
    class: TrafficClass,
    /// Wire width of the fused collective. Threshold accounting uses
    /// this dtype's element size — a bf16 buffer holds twice the
    /// elements per flush, it does not flush at half the configured
    /// bytes. Defaults to [`Dtype::F32`] (bitwise-identical behavior).
    dtype: Dtype,
    pending: Vec<Pending>,
    pending_bytes: usize,
    done: Vec<(usize, Vec<f32>)>,
}

impl FusionBuffer {
    /// Create a buffer that flushes automatically once `threshold_bytes`
    /// of tensor data are queued. Horovod's default is 16 MiB.
    pub fn new(threshold_bytes: usize, op: ReduceOp, class: TrafficClass) -> Self {
        FusionBuffer {
            threshold_bytes,
            op,
            class,
            dtype: Dtype::F32,
            pending: Vec::new(),
            pending_bytes: 0,
            done: Vec::new(),
        }
    }

    /// Set the wire dtype (builder-style). Half dtypes route the fused
    /// collective through [`wire::try_allreduce_half`], halving wire
    /// bytes; [`Dtype::F32`] keeps the plain allreduce path bit for bit.
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        assert!(
            self.pending.is_empty(),
            "wire dtype must be set before tensors are queued"
        );
        self.dtype = dtype;
        self
    }

    /// The wire dtype fused collectives are sent at.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Buffer with the threshold resolved by [`resolve_threshold`]:
    /// `configured`, else the Horovod default — clamped either way. This
    /// is the constructor the training stack uses; [`FusionBuffer::new`]
    /// keeps the raw threshold for tests that pin exact flush points.
    pub fn with_configured(configured: Option<usize>, op: ReduceOp, class: TrafficClass) -> Self {
        FusionBuffer::new(resolve_threshold(configured), op, class)
    }

    /// The effective flush threshold in bytes.
    pub fn threshold_bytes(&self) -> usize {
        self.threshold_bytes
    }

    /// Queue tensor `id` for reduction. Flushes if the threshold is hit.
    ///
    /// NOTE: like Horovod, all ranks must queue the same tensors in the
    /// same order with the same sizes, so automatic flushes fire at the
    /// same point on every rank.
    ///
    /// # Panics
    /// Panics if the automatic flush hits a collective fault; under
    /// fault injection use [`FusionBuffer::queue`] +
    /// [`FusionBuffer::try_flush`].
    pub fn push(&mut self, id: usize, data: Vec<f32>, comm: &dyn Communicator) {
        if self.queue(id, data) {
            self.flush(comm);
        }
    }

    /// Queue tensor `id` without communicating. Returns `true` once the
    /// threshold is reached: the caller then owes a
    /// [`FusionBuffer::try_flush`] (every rank at the same point, as for
    /// [`FusionBuffer::push`]), which it can retry on `Err`.
    pub fn queue(&mut self, id: usize, data: Vec<f32>) -> bool {
        // Threshold accounting at the *wire* width: a bf16 buffer holds
        // twice the elements per flush.
        self.pending_bytes += data.len() * self.dtype.size_of();
        self.pending.push(Pending { id, data });
        self.pending_bytes >= self.threshold_bytes
    }

    /// Number of tensors queued but not yet reduced.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Reduce everything queued in one collective.
    ///
    /// # Panics
    /// Panics on a collective fault; use [`FusionBuffer::try_flush`]
    /// under fault injection.
    pub fn flush(&mut self, comm: &dyn Communicator) {
        self.try_flush(comm)
            .unwrap_or_else(|e| panic!("fusion flush failed: {e}"));
    }

    /// Reduce everything queued in one collective, surfacing transport
    /// faults.
    ///
    /// Retry-safe by construction: the fused send buffer is packed from
    /// the pending tensors without consuming them, and pending state is
    /// drained only after the collective succeeds. On `Err` the queued
    /// tensors are all still pending, so a later `try_flush` re-packs
    /// the identical buffer (idempotent re-pack).
    pub fn try_flush(&mut self, comm: &dyn Communicator) -> Result<(), CollectiveError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // Pack (pending tensors are borrowed, not consumed).
        let total: usize = self.pending.iter().map(|p| p.data.len()).sum();
        let mut fused = Vec::with_capacity(total);
        for p in &self.pending {
            fused.extend_from_slice(&p.data);
        }
        // One bandwidth-bound collective instead of many latency-bound
        // ones. On failure, return before touching pending state.
        // `try_allreduce_half` with `Dtype::F32` is exactly the plain
        // tagged allreduce; half dtypes send packed half-width words.
        wire::try_allreduce_half(comm, &mut fused, self.op, self.class, self.dtype)?;
        // Unpack: only now is the pending queue consumed.
        let mut offset = 0;
        for p in self.pending.drain(..) {
            let n = p.data.len();
            self.done.push((p.id, fused[offset..offset + n].to_vec()));
            offset += n;
        }
        self.pending_bytes = 0;
        Ok(())
    }

    /// Drain completed tensors `(id, reduced_data)` in completion order.
    pub fn take_completed(&mut self) -> Vec<(usize, Vec<f32>)> {
        std::mem::take(&mut self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalComm;
    use crate::thread::ThreadComm;
    use std::thread;

    #[test]
    fn flush_packs_and_unpacks() {
        let comm = LocalComm::new();
        let mut fb = FusionBuffer::new(usize::MAX, ReduceOp::Sum, TrafficClass::Factor);
        fb.push(7, vec![1.0, 2.0], &comm);
        fb.push(9, vec![3.0], &comm);
        assert_eq!(fb.pending_len(), 2);
        assert!(fb.take_completed().is_empty());
        fb.flush(&comm);
        let done = fb.take_completed();
        assert_eq!(done, vec![(7, vec![1.0, 2.0]), (9, vec![3.0])]);
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn auto_flush_at_threshold() {
        let comm = LocalComm::new();
        // Threshold of 12 bytes = 3 f32s.
        let mut fb = FusionBuffer::new(12, ReduceOp::Sum, TrafficClass::Factor);
        fb.push(0, vec![1.0], &comm);
        assert_eq!(fb.pending_len(), 1);
        fb.push(1, vec![2.0, 3.0], &comm); // 12 bytes reached → flush
        assert_eq!(fb.pending_len(), 0);
        assert_eq!(fb.take_completed().len(), 2);
    }

    #[test]
    fn bf16_threshold_accounts_wire_width() {
        let comm = LocalComm::new();
        // Threshold of 12 bytes = 6 bf16 elements on the wire. The old
        // 4-byte-element math would have flushed at 3 elements.
        let mut fb =
            FusionBuffer::new(12, ReduceOp::Sum, TrafficClass::Factor).with_dtype(Dtype::Bf16);
        fb.push(0, vec![1.0; 3], &comm);
        assert_eq!(fb.pending_len(), 1, "3 bf16 elements = 6 bytes < 12");
        fb.push(1, vec![2.0; 3], &comm); // 12 wire bytes reached → flush
        assert_eq!(fb.pending_len(), 0);
        assert_eq!(fb.take_completed().len(), 2);
    }

    #[test]
    fn bf16_fused_reduce_matches_f32_within_tolerance() {
        let comms = ThreadComm::create(4);
        let f = |rank: usize, comm: &ThreadComm| {
            let mut fb = FusionBuffer::new(usize::MAX, ReduceOp::Average, TrafficClass::Gradient)
                .with_dtype(Dtype::Bf16);
            let data: Vec<f32> = (0..64)
                .map(|i| (rank + 1) as f32 * 0.125 * i as f32)
                .collect();
            fb.push(0, data, comm);
            fb.flush(comm);
            (fb.take_completed(), comm.traffic().gradient_bytes)
        };
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let reference = results[0].0[0].1.clone();
        for (done, bytes) in &results {
            // All ranks agree bitwise (pinned rank-order fold).
            assert_eq!(done[0].1, reference);
            // Half-width payload: ceil(64/2)+1 length word, 4 bytes each.
            assert_eq!(*bytes, (64 / 2 + 1) * 4);
        }
        // mean over ranks of (r+1)*0.125*i = 2.5*0.125*i; inputs are
        // bf16-representable but the averaged value needn't be, so allow
        // one bf16 ulp of slack.
        for (i, v) in reference.iter().enumerate() {
            let expect = 2.5 * 0.125 * i as f32;
            assert!(
                (v - expect).abs() <= expect.abs() / 128.0 + 1e-3,
                "i={i} v={v} expect={expect}"
            );
        }
    }

    #[test]
    fn fused_reduce_matches_individual() {
        let comms = ThreadComm::create(3);
        let f = |rank: usize, comm: &ThreadComm| {
            let mut fb = FusionBuffer::new(usize::MAX, ReduceOp::Average, TrafficClass::Factor);
            fb.push(0, vec![rank as f32; 4], comm);
            fb.push(1, vec![(rank * 10) as f32; 2], comm);
            fb.flush(comm);
            fb.take_completed()
        };
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for done in results {
            // mean(0,1,2) = 1; mean(0,10,20) = 10.
            assert_eq!(done[0].1, vec![1.0; 4]);
            assert_eq!(done[1].1, vec![10.0; 2]);
        }
    }

    #[test]
    fn single_collective_for_many_tensors() {
        let comm = LocalComm::new();
        let mut fb = FusionBuffer::new(usize::MAX, ReduceOp::Sum, TrafficClass::Factor);
        for id in 0..50 {
            fb.push(id, vec![1.0; 10], &comm);
        }
        fb.flush(&comm);
        // 50 tensors, exactly one collective op.
        assert_eq!(comm.traffic().ops, 1);
        assert_eq!(comm.traffic().factor_bytes, 50 * 10 * 4);
    }

    #[test]
    fn failed_flush_keeps_pending_and_repacks_identically() {
        use crate::faults::{Fault, FaultKind, FaultPlan, FaultyCommunicator};
        use std::sync::Arc;

        // The first Factor attempt fails; the retry succeeds.
        let plan = FaultPlan::new(vec![Fault {
            class: TrafficClass::Factor,
            attempt: 0,
            kind: FaultKind::Outage { attempts: 1 },
            culprit: 0,
        }]);
        let comm = FaultyCommunicator::new(LocalComm::new(), Arc::new(plan));
        let mut fb = FusionBuffer::new(usize::MAX, ReduceOp::Sum, TrafficClass::Factor);
        fb.push(3, vec![1.5, 2.5], comm.inner());
        fb.push(4, vec![-1.0], comm.inner());
        let first = fb.try_flush(&comm);
        assert!(first.is_err(), "{first:?}");
        // Nothing was consumed or completed by the failed attempt.
        assert_eq!(fb.pending_len(), 2);
        assert!(fb.take_completed().is_empty());
        // The retry re-packs the same tensors and succeeds.
        fb.try_flush(&comm).unwrap();
        assert_eq!(
            fb.take_completed(),
            vec![(3, vec![1.5, 2.5]), (4, vec![-1.0])]
        );
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn oversized_single_tensor_flushes_in_one_message() {
        let comm = LocalComm::new();
        // Threshold of 8 bytes; one 100-element tensor (400 bytes) must
        // still go out as exactly one collective, not panic or stall.
        let mut fb = FusionBuffer::new(8, ReduceOp::Sum, TrafficClass::Gradient);
        fb.push(0, vec![2.0; 100], &comm);
        assert_eq!(fb.pending_len(), 0);
        assert_eq!(comm.traffic().ops, 1);
        assert_eq!(comm.traffic().gradient_bytes, 400);
        assert_eq!(fb.take_completed(), vec![(0, vec![2.0; 100])]);
    }

    #[test]
    fn resolve_threshold_clamps_and_defaults() {
        assert_eq!(resolve_threshold(None), DEFAULT_FUSION_BYTES);
        assert_eq!(resolve_threshold(Some(0)), MIN_FUSION_BYTES);
        assert_eq!(resolve_threshold(Some(usize::MAX)), MAX_FUSION_BYTES);
        assert_eq!(resolve_threshold(Some(1 << 20)), 1 << 20);
    }

    #[test]
    fn configured_constructor_applies_clamp() {
        let fb = FusionBuffer::with_configured(Some(1), ReduceOp::Sum, TrafficClass::Factor);
        assert_eq!(fb.threshold_bytes(), MIN_FUSION_BYTES);
    }

    #[test]
    fn empty_flush_is_noop() {
        let comm = LocalComm::new();
        let mut fb = FusionBuffer::new(16, ReduceOp::Sum, TrafficClass::Factor);
        fb.flush(&comm);
        assert_eq!(comm.traffic().ops, 0);
    }
}
