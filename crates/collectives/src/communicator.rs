//! The collective-communication interface.
//!
//! Mirrors the primitive set Horovod exposes to PyTorch (§II-D of the
//! paper): `allreduce`, `allgather`, `broadcast`, with MPI `rank`/`size`
//! identity. All implementations require that every rank issues the same
//! sequence of collective calls (the standard MPI/Horovod contract).
//!
//! ## When the ranks' calls do not match
//!
//! A mismatched call is a caller bug, and the real stack answers it with a
//! silent deadlock. Here, on both fabrics: **every rank gets a typed
//! error within the receive deadline, none hangs, and the next collective
//! on the group succeeds** (each collective has its own sequence number,
//! so what a failed one left in flight is never mistaken for the next
//! one's traffic). Which error depends on what a rank can see:
//!
//! * ranks that disagree on a *length* exchange frames the peer is waiting
//!   for, so whoever receives one reports [`CollectiveError::Mismatch`];
//!   a rank whose peer bailed out before sending to it reports
//!   [`CollectiveError::Timeout`];
//! * ranks that disagree on the *kind* of collective exchange frames
//!   nobody is waiting for, so every receive expires:
//!   [`CollectiveError::Timeout`] on every rank.
//!
//! `tests/contract.rs` runs this, and the rest of the trait's contract,
//! over both fabrics.

use crate::error::CollectiveError;
use crate::traffic::{Traffic, TrafficClass};

/// Reduction applied by [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum across ranks.
    Sum,
    /// Element-wise mean across ranks — the op used for gradient and
    /// factor averaging in the paper (Eq. 1, Algorithm 1 lines 4 & 8).
    Average,
    /// Element-wise maximum across ranks (used for diagnostics).
    Max,
}

/// A participant in a fixed-size group of synchronous workers.
///
/// One `Communicator` value belongs to exactly one rank; collectives block
/// until every rank in the group has made the matching call.
///
/// `Sync` is required so a rank's handle can be shared with that rank's
/// bucketed gradient-exchange thread, which issues collectives while
/// backward runs on the rank's own thread; collectives already take
/// `&self`.
pub trait Communicator: Send + Sync {
    /// This worker's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn size(&self) -> usize;

    /// In-place collective reduction of `buf` across all ranks, recording
    /// the bytes under `class` for the communication analysis of §IV-C.
    /// Transport faults surface as a [`CollectiveError`] instead of a
    /// panic or a hang.
    ///
    /// All ranks must pass buffers of identical length. On `Ok` every
    /// rank's `buf` holds the reduced result. On `Err` the buffer contents
    /// are unspecified but the caller's source data (if retained) can be
    /// replayed: implementations must make a failed attempt side-effect
    /// free on the *group* state so retrying is sound.
    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError>;

    /// Gather each rank's payload on every rank, recording bytes under
    /// `class`; failures as for
    /// [`try_allreduce_tagged`](Communicator::try_allreduce_tagged).
    ///
    /// Payload lengths may differ across ranks (Horovod's allgather
    /// likewise only requires matching trailing dimensions): the result is
    /// indexed by rank. Used to exchange eigendecompositions in
    /// Algorithm 1 line 18, where ranks own different numbers of factors.
    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError>;

    /// Broadcast `buf` from `root` to all ranks in place, recording bytes
    /// under `class`; failures as for
    /// [`try_allreduce_tagged`](Communicator::try_allreduce_tagged).
    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError>;

    /// [`try_allreduce_tagged`](Communicator::try_allreduce_tagged) for
    /// callers with no recovery story: panics on a collective fault.
    fn allreduce_tagged(&self, buf: &mut [f32], op: ReduceOp, class: TrafficClass) {
        self.try_allreduce_tagged(buf, op, class)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`try_allgather_tagged`](Communicator::try_allgather_tagged),
    /// panicking on a collective fault.
    fn allgather_tagged(&self, payload: &[f32], class: TrafficClass) -> Vec<Vec<f32>> {
        self.try_allgather_tagged(payload, class)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`try_broadcast_tagged`](Communicator::try_broadcast_tagged),
    /// panicking on a collective fault.
    fn broadcast_tagged(&self, buf: &mut [f32], root: usize, class: TrafficClass) {
        self.try_broadcast_tagged(buf, root, class)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`allreduce_tagged`](Communicator::allreduce_tagged) with class
    /// [`TrafficClass::Other`].
    fn allreduce(&self, buf: &mut [f32], op: ReduceOp) {
        self.allreduce_tagged(buf, op, TrafficClass::Other);
    }

    /// [`allgather_tagged`](Communicator::allgather_tagged) with class
    /// [`TrafficClass::Other`].
    fn allgather(&self, payload: &[f32]) -> Vec<Vec<f32>> {
        self.allgather_tagged(payload, TrafficClass::Other)
    }

    /// [`broadcast_tagged`](Communicator::broadcast_tagged) with class
    /// [`TrafficClass::Other`].
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        self.broadcast_tagged(buf, root, TrafficClass::Other);
    }

    /// Block until every rank reaches the barrier.
    fn barrier(&self);

    /// Cumulative communication accounting for this rank.
    fn traffic(&self) -> Traffic {
        Traffic::default()
    }
}

/// Apply `op`'s elementwise combine step: `acc[i] = combine(acc[i], x[i])`.
pub(crate) fn combine_into(acc: &mut [f32], x: &[f32], op: ReduceOp) {
    debug_assert_eq!(acc.len(), x.len());
    match op {
        ReduceOp::Sum | ReduceOp::Average => {
            for (a, &b) in acc.iter_mut().zip(x) {
                *a += b;
            }
        }
        ReduceOp::Max => {
            for (a, &b) in acc.iter_mut().zip(x) {
                *a = a.max(b);
            }
        }
    }
}

/// Apply the finalization step of `op` after all ranks contributed.
pub(crate) fn finalize(acc: &mut [f32], op: ReduceOp, size: usize) {
    if op == ReduceOp::Average {
        let inv = 1.0 / size as f32;
        for a in acc {
            *a *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_sum() {
        let mut acc = vec![1.0, 2.0];
        combine_into(&mut acc, &[3.0, -1.0], ReduceOp::Sum);
        assert_eq!(acc, vec![4.0, 1.0]);
    }

    #[test]
    fn combine_max() {
        let mut acc = vec![1.0, 5.0];
        combine_into(&mut acc, &[3.0, -1.0], ReduceOp::Max);
        assert_eq!(acc, vec![3.0, 5.0]);
    }

    #[test]
    fn finalize_average_divides() {
        let mut acc = vec![8.0, 4.0];
        finalize(&mut acc, ReduceOp::Average, 4);
        assert_eq!(acc, vec![2.0, 1.0]);
        let mut acc2 = vec![8.0];
        finalize(&mut acc2, ReduceOp::Sum, 4);
        assert_eq!(acc2, vec![8.0]);
    }
}
