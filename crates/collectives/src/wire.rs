//! The two wire entry points the frozen benchmark package calls.
//!
//! Every collective travels as f32: the training step calls the
//! communicator's own [`Communicator::try_allreduce_tagged`] and
//! [`Communicator::try_allgather_tagged`]. [`try_allreduce_half`] and
//! [`try_allgather_half`] keep their names and their `Dtype` argument
//! only because `stepbench` spells them; each accepts [`Dtype::F32`]
//! and refuses any other width with [`CollectiveError::Mismatch`]
//! before the communicator is reached. ROADMAP's "`stepbench`
//! re-baseline" deletes them.

use crate::communicator::{Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::TrafficClass;
use kfac_tensor::half::Dtype;

/// `Ok` for the f32 wire; every other width is refused, on every rank
/// alike, so no rank is left waiting for a peer's message.
fn f32_only(dtype: Dtype) -> Result<(), CollectiveError> {
    if dtype == Dtype::F32 {
        Ok(())
    } else {
        Err(CollectiveError::Mismatch("only the f32 wire exists"))
    }
}

/// The communicator's allreduce of `buf`, for `dtype` = [`Dtype::F32`].
///
/// An empty `buf` is a non-event: `Ok` before the communicator is
/// reached — no bytes, no sequence number. An allreduce's length is the
/// same on every rank by contract, so every rank takes this return
/// together; it is how a phase driver spells "no factor exchange is due
/// this iteration" without a branch (`Kfac::factor_pack`).
/// [`try_allgather_half`] has no such return: its lengths legitimately
/// differ by rank (a rank that owns no factor contributes nothing to the
/// Eigen allgather), so an empty contribution must still take part.
pub fn try_allreduce_half(
    comm: &dyn Communicator,
    buf: &mut [f32],
    op: ReduceOp,
    class: TrafficClass,
    dtype: Dtype,
) -> Result<(), CollectiveError> {
    f32_only(dtype)?;
    if buf.is_empty() {
        return Ok(());
    }
    comm.try_allreduce_tagged(buf, op, class)
}

/// The communicator's allgather of `payload`, for `dtype` =
/// [`Dtype::F32`].
pub fn try_allgather_half(
    comm: &dyn Communicator,
    payload: &[f32],
    class: TrafficClass,
    dtype: Dtype,
) -> Result<Vec<Vec<f32>>, CollectiveError> {
    f32_only(dtype)?;
    comm.try_allgather_tagged(payload, class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalComm;
    use crate::traffic::Traffic;

    /// Only f32 travels: a bf16 request is refused, not retried, and
    /// never reaches the communicator — at any length.
    #[test]
    fn a_bf16_wire_is_refused_before_the_communicator() {
        let comm = LocalComm::new();
        for n in [0usize, 3] {
            let mut buf = vec![1.0f32; n];
            let reduced = try_allreduce_half(
                &comm,
                &mut buf,
                ReduceOp::Average,
                TrafficClass::Gradient,
                Dtype::Bf16,
            );
            let gathered = try_allgather_half(&comm, &buf, TrafficClass::Eigen, Dtype::Bf16);
            for refused in [reduced.unwrap_err(), gathered.unwrap_err()] {
                assert!(
                    matches!(refused, CollectiveError::Mismatch(_)),
                    "{refused:?}"
                );
                assert!(!refused.is_retryable());
            }
        }
        assert_eq!(comm.traffic(), Traffic::default());
    }

    #[test]
    fn the_f32_wire_is_the_communicators_own_collective() {
        let comm = LocalComm::new();
        let mut a = vec![1.0f32, -2.5, 3.25];
        let mut b = a.clone();
        try_allreduce_half(
            &comm,
            &mut a,
            ReduceOp::Average,
            TrafficClass::Gradient,
            Dtype::F32,
        )
        .unwrap();
        comm.allreduce_tagged(&mut b, ReduceOp::Average, TrafficClass::Gradient);
        assert_eq!(a, b);
        let gathered = try_allgather_half(&comm, &a, TrafficClass::Eigen, Dtype::F32).unwrap();
        assert_eq!(gathered, [a]);
    }
}
