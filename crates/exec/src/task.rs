//! Typed task nodes of the gradient-exchange graph.
//!
//! The node vocabulary is what the one graph built outside this crate's
//! tests uses (`kfac_harness::overlap`): backward completion per layer,
//! gradient traffic per bucket, and named glue. Each kind carries a
//! [`Lane`] — who may execute it.

/// Identifies one node of a [`TaskGraph`](crate::TaskGraph). Ids are
/// dense, 0-based, and topologically consistent: every dependency has a
/// smaller id than its dependent (enforced at graph build time), so
/// ascending id order is always a valid serial schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Which worker pool may execute a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Compute workers: math, packing, weight updates.
    Compute,
    /// The dedicated communication worker. Comm tasks execute in
    /// ascending id order, which keeps every rank's collective sequence
    /// identical (the MPI/Horovod ordering contract).
    Comm,
}

/// What a task node does, at the granularity the scheduler cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Backward completion of one top-level layer (usually an external
    /// event signaled from inside the backward sweep).
    Backward(usize),
    /// Allreduce of one gradient bucket.
    GradAllreduce(usize),
    /// Anything else (the backward sweep, gradient write-back).
    Custom(&'static str),
}

impl TaskKind {
    /// The worker pool this task runs on.
    pub fn lane(self) -> Lane {
        match self {
            TaskKind::GradAllreduce(_) => Lane::Comm,
            _ => Lane::Compute,
        }
    }

    /// Stable label for telemetry attributes and diagnostics.
    pub fn label(self) -> String {
        match self {
            TaskKind::Backward(i) => format!("backward[{i}]"),
            TaskKind::GradAllreduce(i) => format!("grad_allreduce[{i}]"),
            TaskKind::Custom(name) => name.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_buckets_ride_the_comm_lane() {
        assert_eq!(TaskKind::GradAllreduce(0).lane(), Lane::Comm);
        assert_eq!(TaskKind::Backward(0).lane(), Lane::Compute);
        assert_eq!(TaskKind::Custom("x").lane(), Lane::Compute);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TaskKind::Backward(3).label(), "backward[3]");
        assert_eq!(TaskKind::Custom("grad_writeback").label(), "grad_writeback");
    }
}
