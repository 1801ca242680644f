//! # kfac-exec
//!
//! The name of the bucketed gradient-exchange schedule, kept where the
//! benchmark package imports it from. The schedule itself is
//! `kfac_harness::overlap`: a background thread that allreduces gradient
//! buckets in the order backward finishes them (Horovod's overlap, the
//! paper's only one, §V-B). Both variants select that one schedule; their
//! fields are ignored.

#![warn(missing_docs)]

/// Selects the bucketed gradient exchange. Both variants run the same
/// schedule; the fields are ignored and kept only for the benchmark
/// package that spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Ignored: there is no task order left to permute.
    Replay {
        /// Ignored.
        seed: u64,
    },
    /// Ignored: there is no second compute task to run.
    Overlapped {
        /// Ignored.
        compute_workers: usize,
    },
}
