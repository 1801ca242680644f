//! Trivial single-rank communicator.
//!
//! Lets the same training code run undistributed (the paper's 1-GPU
//! baseline columns in Table II) without special-casing: every collective
//! is the identity.

use crate::communicator::{finalize, Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::{Traffic, TrafficClass, TrafficCounter};
use kfac_telemetry::Span;
use std::sync::Arc;

/// A communicator group of size one.
pub struct LocalComm {
    traffic: Arc<TrafficCounter>,
}

impl LocalComm {
    /// Create a single-rank communicator.
    pub fn new() -> Self {
        LocalComm {
            traffic: TrafficCounter::new(),
        }
    }
}

impl Default for LocalComm {
    fn default() -> Self {
        Self::new()
    }
}

impl Communicator for LocalComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let _span = Span::enter("comm/allreduce")
            .with("class", class.name())
            .with("bytes", (buf.len() * 4) as u64);
        self.traffic.record(class, (buf.len() * 4) as u64);
        // Average over one rank is the identity; Sum/Max likewise.
        finalize(buf, op, 1);
        Ok(())
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        let _span = Span::enter("comm/allgather")
            .with("class", class.name())
            .with("bytes", (payload.len() * 4) as u64);
        self.traffic.record(class, (payload.len() * 4) as u64);
        Ok(vec![payload.to_vec()])
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        if root != 0 {
            return Err(CollectiveError::Mismatch(
                "broadcast root out of range for size-1 group",
            ));
        }
        let _span = Span::enter("comm/broadcast")
            .with("class", class.name())
            .with("bytes", (buf.len() * 4) as u64)
            .with("root", root);
        self.traffic.record(class, (buf.len() * 4) as u64);
        Ok(())
    }

    fn barrier(&self) {}

    fn traffic(&self) -> Traffic {
        self.traffic.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_are_identity() {
        let comm = LocalComm::new();
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.size(), 1);

        let mut buf = vec![1.0, 2.0];
        comm.allreduce(&mut buf, ReduceOp::Average);
        assert_eq!(buf, vec![1.0, 2.0]);

        let g = comm.allgather(&buf);
        assert_eq!(g, vec![vec![1.0, 2.0]]);

        comm.broadcast(&mut buf, 0);
        assert_eq!(buf, vec![1.0, 2.0]);
        comm.barrier();
        assert_eq!(comm.traffic().ops, 3);
    }

    #[test]
    #[should_panic(expected = "broadcast root out of range")]
    fn bad_root_panics() {
        let comm = LocalComm::new();
        comm.broadcast(&mut [0.0], 1);
    }
}
